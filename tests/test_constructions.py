"""Function-family codes, dependence testers, and the named constructions."""

import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ltcforge.algebra import Field, VecSpace, enumerate_linear_maps
from ltcforge.codes import Alphabet, Word, dist_to_code, distance
from ltcforge.constructions import (
    FunctionFamily,
    code_from_family,
    critical_family,
    dependence_tester,
    generalized_hadamard,
    generalized_long_code,
    majority_counterexample,
    ring_constraint_tester,
)
from ltcforge.errors import CapacityError, DomainError
from ltcforge.testers import (
    Check,
    Tester,
    accept_from_tuples,
    accepted_words,
    full_accept,
    reject_probability,
    soundness_exact,
    uniform_checks,
    validate,
)

BIN = Alphabet.plain(2)
TRI = Alphabet.plain(3)


def test_code_from_constant_family_collapses():
    fam = FunctionFamily(2, BIN, ((1, 1), (0, 0)))
    code = code_from_family(fam)
    assert len(code.codewords) == 1 and not fam.is_injective()


def test_code_from_all_binary_functions():
    fam, code = generalized_long_code(2, BIN)
    assert code.codewords == ((0, 1, 0, 1), (0, 0, 1, 1))


def test_code_from_linear_maps_matches_hadamard():
    v1, v2 = VecSpace(Field(2), 1), VecSpace(Field(2), 2)
    maps = enumerate_linear_maps(v1, v2)
    tables = tuple(tuple(m.apply_index(s) for s in range(2)) for m in maps)
    fam = FunctionFamily(2, Alphabet.vector(v2), tables)
    code = code_from_family(fam)
    _, hadamard = generalized_hadamard(v1, v2)
    assert fam.is_injective() and code.codewords == hadamard.codewords


def test_dependent_tuples_full_image_excluded():
    # the one table's image is the whole alphabet: no check, a degenerate tester
    fam = FunctionFamily(2, BIN, ((0, 1),))
    assert dependence_tester(fam, 1).meta == {"degenerate": True}


def test_dependent_tuples_constant_included():
    fam = FunctionFamily(2, BIN, ((1, 1),))
    assert dependence_tester(fam, 1).checks == (Check((0,), accept_from_tuples([(1,)], 2), Fraction(1)),)


def test_dependent_tuples_hadamard_all_pairs():
    fam, _ = generalized_hadamard(VecSpace(Field(2), 1), VecSpace(Field(2), 2))
    tester = dependence_tester(fam, 2)
    # every ordered pair: joint images have <= 2 < 16 tuples
    assert [ch.queries for ch in tester.checks] == list(itertools.product(range(4), repeat=2))


def test_dependent_tuples_budget():
    fam, _ = generalized_long_code(2, TRI)
    with pytest.raises(CapacityError):
        dependence_tester(fam, 2, budget=10)


def test_dependence_tester_degenerate():
    fam = FunctionFamily(2, BIN, ((0, 1),))
    tester = dependence_tester(fam, 1)
    assert tester.meta.get("degenerate")
    assert reject_probability(tester, Word(BIN, (1,))) == 0


def test_dependence_tester_long_code_positive():
    fam, code = generalized_long_code(2, TRI)
    tester = dependence_tester(fam, 2)
    report = soundness_exact(tester, code)
    assert report.value > 0


def test_dependence_tester_hadamard_positive():
    fam, code = generalized_hadamard(VecSpace(Field(2), 1), VecSpace(Field(2), 2))
    tester = dependence_tester(fam, 2)
    report = soundness_exact(tester, code)  # 4^4 = 256 words
    assert report.value > 0


def test_hadamard_sizes_and_distance():
    cases = [(2, 1, 2, 4), (2, 2, 1, 4), (3, 1, 2, 9)]
    for p, dimv, dimd, n in cases:
        fam, code = generalized_hadamard(VecSpace(Field(p), dimv), VecSpace(Field(p), dimd))
        assert code.n == n == (p**dimd) ** dimv
        assert distance(code) == 1 - Fraction(1, p**dimd)


def test_hadamard_dim_v_2_soundness_zero():
    fam, code = generalized_hadamard(VecSpace(Field(2), 2), VecSpace(Field(2), 1))
    report = soundness_exact(dependence_tester(fam, 2), code)
    assert report.value == 0
    witness = report.witness
    assert not code.contains(witness.letters)
    assert reject_probability(dependence_tester(fam, 2), witness) == 0


def test_long_code_single_element_domain():
    fam, code = generalized_long_code(1, TRI)
    assert code.codewords == ((0, 1, 2),)
    assert distance(code) == 1


def test_long_code_ternary_shape():
    fam, code = generalized_long_code(2, TRI)
    assert code.n == 9 and len(code.codewords) == 2
    # the two codewords differ exactly where f(s1) != f(s2): 6 of 9 places
    assert distance(code) == Fraction(2, 3)


def test_ring_constraint_tester_characterizes():
    for s in (2, 3):
        tester = ring_constraint_tester(s)
        _, code = generalized_long_code(s, BIN)
        assert set(accepted_words(tester)) == set(code.codewords)
        assert validate(tester, code)


def test_ring_constraint_all_ones_metadata():
    tester = ring_constraint_tester(2)
    idx = tester.meta["all_ones_index"]
    fam, _ = generalized_long_code(2, BIN)
    assert fam.tables[idx] == (1, 1)


def test_critical_family_single_constant():
    g = FunctionFamily(1, BIN, ((1,),))
    fam = critical_family(g)
    assert fam.k <= 3
    # d_{1,1} maps the single input (g=1, g=1) to 2
    assert (2,) in fam.tables


def test_critical_family_piecewise_tables():
    g, _ = generalized_long_code(2, BIN)
    fam = critical_family(g)
    assert fam.k <= g.k + 2 * g.k**2
    assert fam.tables[: g.k] == g.tables
    swap = {0: 1, 1: 0, 2: 2}
    for gi in g.tables:
        for gj in g.tables:
            d = tuple(0 if a == 0 else (1 if b == 0 else 2) for a, b in zip(gi, gj))
            dp = tuple(1 if a == 1 else (0 if b == 1 else 2) for a, b in zip(gi, gj))
            assert d in fam.tables and dp in fam.tables
            # the primed table is the plain table of the complements, with 0<->1
            flipped = tuple(
                0 if a == 0 else (1 if b == 0 else 2)
                for a, b in zip((1 - v for v in gi), (1 - v for v in gj))
            )
            assert dp == tuple(swap[x] for x in flipped)


def test_critical_family_two_letter_defined():
    g, _ = generalized_long_code(2, BIN)
    fam = critical_family(g)
    code = code_from_family(fam)
    tester = dependence_tester(fam, 2)
    assert set(accepted_words(tester)) == set(code.codewords)


def test_critical_family_rejects_nonbinary():
    with pytest.raises(DomainError):
        critical_family(FunctionFamily(2, TRI, ((0, 2),)))
    with pytest.raises(DomainError):
        critical_family(FunctionFamily(2, BIN, ((0, 1), (0, 1))))


def test_majority_counterexample_properties():
    for s in (3, 4):
        word = majority_counterexample(s)
        fam, code = generalized_long_code(s, BIN)
        tester = dependence_tester(fam, 2)
        assert reject_probability(tester, word) == 0
        assert dist_to_code(word, code) > 0


def test_majority_constant_columns():
    word = majority_counterexample(3)
    fam, _ = generalized_long_code(3, BIN)
    for i, table in enumerate(fam.tables):
        if len(set(table)) == 1:
            assert word.letters[i] == table[0]


def test_majority_needs_three_elements():
    with pytest.raises(DomainError):
        majority_counterexample(2)


def test_universality_on_random_families():
    # accepted set of the dependence tester == words obeying every joint-image
    # constraint; positivity of its soundness == accepted set equals the code
    rng = random.Random(77)
    for _ in range(10):
        k = rng.randrange(2, 5)
        s = rng.randrange(2, 4)
        d = rng.randrange(2, 4)
        fam = FunctionFamily(
            s, Alphabet.plain(d), tuple(tuple(rng.randrange(d) for _ in range(s)) for _ in range(k))
        )
        q = rng.choice([1, 2])
        tester = dependence_tester(fam, q)
        code = code_from_family(fam)
        full = d**q
        images = {}
        for tup in itertools.product(range(k), repeat=q):
            images[tup] = {tuple(fam.tables[i][x] for i in tup) for x in range(s)}
        brute = [
            w
            for w in itertools.product(range(d), repeat=k)
            if all(tuple(w[i] for i in tup) in img for tup, img in images.items())
        ]
        acc = accepted_words(tester)
        assert acc == brute
        report = soundness_exact(tester, code)
        positive = (not report.infinite) and report.value > 0
        assert positive == (set(acc) == set(code.codewords)) or report.infinite


def _reference_dependent_tuples(family, q):
    """The loop the vectorised construction replaced: one image set per tuple."""
    full = family.target.size**q
    out = []
    for tup in itertools.product(range(family.k), repeat=q):
        image = {tuple(family.tables[i][s] for i in tup) for s in range(family.domain_size)}
        if len(image) < full:
            out.append((tup, tuple(sorted(image))))
    return out


@st.composite
def _families(draw):
    k, domain, size = draw(st.integers(1, 6)), draw(st.integers(1, 8)), draw(st.integers(2, 4))
    cell = st.integers(0, size - 1)
    if draw(st.booleans()):  # every table a distinct function: often no dependent tuple
        tables = draw(st.lists(st.tuples(*[cell] * domain), min_size=k, max_size=k, unique=True))
    else:
        tables = draw(st.lists(st.tuples(*[cell] * domain), min_size=k, max_size=k))
    return FunctionFamily(domain, Alphabet.plain(size), tuple(tables))


@settings(max_examples=150, deadline=None)
@given(family=_families(), q=st.integers(1, 3))
@example(family=FunctionFamily(2, BIN, ((0, 1), (1, 0))), q=1)  # degenerate: both images full
def test_dependence_construction_matches_brute_force(family, q):
    deps = _reference_dependent_tuples(family, q)
    tester = dependence_tester(family, q)
    size = family.target.size
    if deps:
        entries = [(tup, accept_from_tuples(image, size)) for tup, image in deps]
        assert tester == Tester(family.target, family.k, q, uniform_checks(entries))
        assert "degenerate" not in tester.meta
    else:
        assert tester.meta == {"degenerate": True}
        assert [(ch.queries, ch.accept) for ch in tester.checks] == [((0,) * q, full_accept(size, q))]


@pytest.mark.parametrize("q, budget", [(2, 15), (3, 63), (1, 3)])
def test_dependence_construction_budget(q, budget):
    fam = FunctionFamily(2, BIN, ((0, 0), (0, 1), (1, 0), (1, 1)))
    with pytest.raises(CapacityError) as exc:
        dependence_tester(fam, q, budget)
    assert exc.value.required == 4**q
    assert len(dependence_tester(fam, q, 4**q).checks) == len(_reference_dependent_tuples(fam, q))


def test_dependence_construction_memory_is_chunked():
    # 25 tuples of 4096**2 image cells: an unchunked boolean image table is
    # 25 * 2**24 bytes = 400 MiB; chunked, one row (16 MiB) is live at a time
    # beside the 25 accept bitsets (2 MiB each).
    rng = random.Random(3)
    tables = tuple(tuple(rng.randrange(4096) for _ in range(8)) for _ in range(5))
    fam = FunctionFamily(8, Alphabet.plain(4096), tables)
    tracemalloc.start()
    try:
        tester = dependence_tester(fam, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(tester.checks) == 25
    assert peak < 128 << 20
