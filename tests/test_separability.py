"""Separability decisions, replacement testers, compatibility plumbing."""

import itertools
import random
from fractions import Fraction
from math import ceil
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltcforge import separability, testers
from ltcforge.algebra import Field, VecSpace, encode_tuple, span_vectors
from ltcforge.codes import Alphabet, Word, repetition_code, vector_alphabet
from ltcforge.concat import CompatFailure, check_f_compatible, verify_witness
from ltcforge.constructions import generalized_hadamard, generalized_long_code
from ltcforge.errors import CapacityError, DomainError, MismatchError
from ltcforge.separability import (
    SeparabilityCertificate,
    SeparabilityFailure,
    check_linearly_separable,
    check_separable,
    compatibility_encoder,
    extend_compatibility,
    linear_separable_replacement,
    separable_replacement,
    witness_from_certificate,
)
from ltcforge.testers import (
    Check,
    Tester,
    accept_from_indices,
    accept_from_tuples,
    classify_linear,
    equality_tester,
    full_accept,
    pad_check,
    reject_probability,
    soundness_exact,
)

BIN = Alphabet.plain(2)
TRI = Alphabet.plain(3)


def test_equality_separable_when_target_large_enough():
    eq3 = equality_tester(TRI, 2)
    cert = check_separable(eq3, 3)
    assert isinstance(cert, SeparabilityCertificate)
    # the per-coordinate maps are injective: three singleton classes
    assert all(len(chk.partitions[0]) == 3 for chk in cert.checks)


def test_equality_over_three_symbols_not_binary_separable():
    eq3 = equality_tester(TRI, 2)
    outcome = check_separable(eq3, 2)
    assert isinstance(outcome, SeparabilityFailure)
    assert outcome.required == 3


def test_always_accept_separable():
    tester = Tester(TRI, 2, 2, (Check((0, 1), full_accept(3, 2), Fraction(1)),))
    cert = check_separable(tester, 2)
    assert isinstance(cert, SeparabilityCertificate)
    assert all(len(chk.partitions[0]) == 1 for chk in cert.checks)


def test_elementary_tester_linearly_separable_into_field():
    tester = equality_tester(vector_alphabet(2, 2), 2)
    cert = check_linearly_separable(tester, VecSpace(Field(2), 2))
    assert isinstance(cert, SeparabilityCertificate)


def test_zero_only_accept_linearly_separable():
    alphabet = vector_alphabet(2, 1)
    zero_only = Check((0, 1), accept_from_tuples([(0, 0)], 2), Fraction(1))
    tester = Tester(alphabet, 2, 2, (zero_only,))
    cert = check_linearly_separable(tester, VecSpace(Field(2), 1))
    assert isinstance(cert, SeparabilityCertificate)


def test_equality_on_plane_alphabet_not_field_separable():
    tester = equality_tester(vector_alphabet(2, 2), 2)
    outcome = check_linearly_separable(tester, VecSpace(Field(2), 1))
    assert isinstance(outcome, SeparabilityFailure)
    assert outcome.required == 2  # codimension of the zero subspace


def test_linear_check_requires_linear_tester():
    tester = Tester(
        vector_alphabet(2, 1),
        2,
        2,
        (Check((0, 1), accept_from_tuples([(0, 0), (1, 0), (1, 1)], 2), Fraction(1)),),
    )
    with pytest.raises(DomainError):
        check_linearly_separable(tester, VecSpace(Field(2), 1))


def test_separable_replacement_pointwise_exact_factor():
    eq = equality_tester(BIN, 2)
    replaced = separable_replacement(eq, Fraction(2), 2)
    assert sum(ch.weight for ch in replaced.checks) == 1
    for letters in itertools.product(range(2), repeat=2):
        word = Word(BIN, letters)
        assert reject_probability(replaced, word) == reject_probability(eq, word) / 4


def test_separable_replacement_budget():
    # Two equality checks on 3 letters: 2 * 9 checks of 9 accept bits each.
    eq = equality_tester(Alphabet.plain(3), 3)
    with pytest.raises(CapacityError) as err:
        separable_replacement(eq, Fraction(2), 2, budget=161)
    assert (err.value.required, err.value.budget) == (162, 161)
    assert len(separable_replacement(eq, Fraction(2), 2, budget=162).checks) == 18


def test_separable_replacement_soundness_and_certificate():
    eq = equality_tester(BIN, 2)
    code = repetition_code(BIN, 2)
    replaced = separable_replacement(eq, Fraction(2), 2)
    assert soundness_exact(replaced, code).value >= Fraction(1, 2)
    assert isinstance(check_separable(replaced, 2), SeparabilityCertificate)


def test_replacements_preserve_accepted_sets():
    from ltcforge.testers import accepted_words

    eq3 = equality_tester(TRI, 3)
    replaced = separable_replacement(eq3, Fraction(1), 2)
    assert accepted_words(replaced) == accepted_words(eq3)

    lin = equality_tester(vector_alphabet(2, 2), 2)
    replaced_lin = linear_separable_replacement(lin, Fraction(1), VecSpace(Field(2), 1))
    assert accepted_words(replaced_lin) == accepted_words(lin)


def test_linear_replacement_components_and_soundness():
    code = repetition_code(vector_alphabet(2, 1), 2)
    tester = equality_tester(code.alphabet, 2)
    mu = soundness_exact(tester, code).value
    replaced = linear_separable_replacement(tester, mu, VecSpace(Field(2), 1))
    assert replaced.meta["m"] == 2
    assert classify_linear(replaced) is not None
    assert soundness_exact(replaced, code).value >= mu / 2
    cert = check_linearly_separable(replaced, VecSpace(Field(2), 1))
    assert isinstance(cert, SeparabilityCertificate)


def test_linear_replacement_single_component_identity_case():
    # when the target is large enough a single component suffices
    code = repetition_code(vector_alphabet(2, 1), 2)
    tester = equality_tester(code.alphabet, 2)
    replaced = linear_separable_replacement(tester, Fraction(2), VecSpace(Field(2), 2))
    assert replaced.meta["m"] == 1
    for letters in itertools.product(range(2), repeat=2):
        word = Word(code.alphabet, letters)
        assert reject_probability(replaced, word) == reject_probability(tester, word)


def test_compatibility_encoder_images():
    enc = compatibility_encoder(BIN, TRI, False)
    _, long_code = generalized_long_code(2, TRI)
    assert enc.k == 9
    assert set(enc.image_code().codewords) == set(long_code.codewords)

    lin = compatibility_encoder(vector_alphabet(2, 1), vector_alphabet(2, 2), True)
    _, hadamard = generalized_hadamard(VecSpace(Field(2), 1), VecSpace(Field(2), 2))
    assert lin.k == 4
    assert set(lin.image_code().codewords) == set(hadamard.codewords)


def test_compatibility_encoder_point_separation():
    enc = compatibility_encoder(TRI, BIN, False)
    images = [enc.encode(s) for s in range(3)]
    assert len(set(images)) == 3


def test_witness_from_certificate_verifies():
    eq = equality_tester(BIN, 2)
    replaced = separable_replacement(eq, Fraction(2), 2)
    cert = check_separable(replaced, 2)
    enc = compatibility_encoder(BIN, BIN, False)
    wit = witness_from_certificate(cert, enc)
    assert verify_witness(replaced, enc, wit)


def test_witness_from_certificate_takes_each_table_first_coordinate():
    # a family listing every table twice: as check_f_compatible and
    # extend_compatibility do, the witness names a table's first coordinate
    from ltcforge.concat import Encoder
    from ltcforge.constructions import FunctionFamily

    eq = equality_tester(BIN, 2)
    replaced = separable_replacement(eq, Fraction(2), 2)
    cert = check_separable(replaced, 2)
    enc = compatibility_encoder(BIN, BIN, False)
    twice = Encoder(FunctionFamily(2, BIN, enc.family.tables * 2))
    wit = witness_from_certificate(cert, twice)
    assert wit == witness_from_certificate(cert, enc)
    assert verify_witness(replaced, twice, wit)


def test_extend_compatibility_identity():
    eq = equality_tester(BIN, 2)
    enc = compatibility_encoder(BIN, BIN, False)
    wit = check_f_compatible(eq, enc)
    same = extend_compatibility(wit, enc, enc)
    assert verify_witness(eq, enc, same)
    assert [e.positions for e in same.entries] == [e.positions for e in wit.entries]


def test_extend_compatibility_into_larger_family():
    from ltcforge.concat import Encoder
    from ltcforge.constructions import FunctionFamily, critical_family

    code = repetition_code(vector_alphabet(2, 1), 2)
    tester = equality_tester(code.alphabet, 2)
    sep = linear_separable_replacement(tester, Fraction(2), VecSpace(Field(2), 1))
    cert = check_linearly_separable(sep, VecSpace(Field(2), 1))
    g_enc = compatibility_encoder(code.alphabet, vector_alphabet(2, 1), True)
    wit = witness_from_certificate(cert, g_enc)
    derived = critical_family(g_enc.family)
    k = 2 + 2 * 4
    padded = FunctionFamily(
        2, derived.target, derived.tables + ((0, 0),) * (k - derived.k)
    )
    enc2 = Encoder(padded)
    extended = extend_compatibility(wit, g_enc, enc2)
    assert verify_witness(sep, enc2, extended)
    # padding coordinates are never referenced
    assert all(b < derived.k for e in extended.entries for b in e.positions)


def test_extend_compatibility_extends_each_distinct_predicate_once(monkeypatch):
    # Entries with equal (arity, accept) share one imaging, whatever their
    # offsets; the result equals extending each entry on its own.
    from ltcforge.concat import CompatibilityWitness, Encoder, WitnessEntry
    from ltcforge.constructions import FunctionFamily

    enc = compatibility_encoder(BIN, BIN, False)
    wider = Encoder(FunctionFamily(2, TRI, enc.family.tables))
    diag = accept_from_tuples([(0, 0), (1, 1)], 2)
    entries = (WitnessEntry((0, 1), diag), WitnessEntry((1, 1), diag), WitnessEntry((0,), 0b01)) * 2
    real, imaged = separability.images, []
    monkeypatch.setattr(separability, "images", lambda *a: imaged.append(a) or real(*a))
    extended = extend_compatibility(CompatibilityWitness(entries), enc, wider)
    assert len(imaged) == 2
    monkeypatch.setattr(separability, "images", real)
    for entry, got in zip(entries, extended.entries):
        alone = extend_compatibility(CompatibilityWitness((entry,)), enc, wider)
        assert alone.entries == (got,)


def test_extend_compatibility_missing_coordinate():
    from ltcforge.concat import Encoder
    from ltcforge.constructions import FunctionFamily

    eq = equality_tester(BIN, 2)
    enc = compatibility_encoder(BIN, BIN, False)
    wit = check_f_compatible(eq, enc)
    smaller = Encoder(FunctionFamily(2, TRI, ((0, 1),)))
    with pytest.raises(MismatchError):
        extend_compatibility(wit, enc, smaller)


def _random_tester(rng, alphabet, n, q):
    count = rng.randrange(1, 4)
    checks = tuple(
        Check(
            tuple(rng.randrange(n) for _ in range(q)),
            rng.randrange(1, 1 << alphabet.size**q),
            Fraction(1, count),
        )
        for _ in range(count)
    )
    return Tester(alphabet, n, q, checks)


def test_necessity_and_sufficiency_randomized():
    rng = random.Random(4242)
    seen = {True: 0, False: 0}
    for _ in range(25):
        alphabet = Alphabet.plain(rng.choice([2, 3]))
        delta_size = rng.choice([2, 3])
        tester = _random_tester(rng, alphabet, rng.choice([2, 3]), 2)
        sep = check_separable(tester, delta_size)
        enc = compatibility_encoder(alphabet, Alphabet.plain(delta_size), False)
        compat = check_f_compatible(tester, enc)
        is_sep = isinstance(sep, SeparabilityCertificate)
        assert is_sep == (not isinstance(compat, CompatFailure))
        if is_sep:
            wit = witness_from_certificate(sep, enc)
            assert verify_witness(tester, enc, wit)
        seen[is_sep] += 1
    assert seen[True] > 0 and seen[False] > 0


@st.composite
def _repeated_predicates(draw, linear: bool):
    """A tester whose checks repeat a few (arity, accept) predicates of
    arity 1 to 3, some accept sets reused at several arities, over two or
    three plain letters, or over F2 or F2^2 with subspace accept sets."""
    if linear:
        space = VecSpace(Field(2), draw(st.integers(1, 2)))
        alphabet = Alphabet.vector(space)
    else:
        alphabet = Alphabet.plain(draw(st.integers(2, 3)))
    size, pool = alphabet.size, []
    for _ in range(draw(st.integers(1, 4))):
        arity = draw(st.integers(1, 3 if size < 4 else 2))
        if linear:
            width = arity * space.dim
            rows = draw(st.lists(st.tuples(*[st.integers(0, 1)] * width), max_size=width))
            span = span_vectors(rows, width, 2)
            accept = accept_from_indices([sum(v << j for j, v in enumerate(vec)) for vec in span])
        else:
            accept = draw(st.integers(0, 2 ** (size ** min(arity, draw(st.integers(1, 3)))) - 1))
        pool.append((arity, accept))
    if draw(st.booleans()):  # the first accept set again, one arity up
        pool.append((min(pool[0][0] + 1, 3 if size < 4 else 2), pool[0][1]))
    checks = []
    for arity, accept in draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8)):
        checks.append(Check(tuple(draw(st.integers(0, 3)) for _ in range(arity)), accept, Fraction(1, 8)))
    return Tester(alphabet, 4, 3, tuple(checks))


@settings(max_examples=80, deadline=None)
@given(st.booleans().flatmap(lambda linear: st.tuples(st.just(linear), _repeated_predicates(linear))), st.data())
def test_one_certificate_per_distinct_predicate(instance, data):
    # Every check's certificate is the one its predicate gets alone, built
    # once per distinct (arity, accept) and shared; a failure names the
    # first check that fails alone, with its coordinate and requirement.
    linear, tester = instance
    if linear:
        space = tester.alphabet.space
        target = VecSpace(Field(2), data.draw(st.integers(1, space.dim)))
        decide = lambda t: check_linearly_separable(t, target)  # noqa: E731
    else:
        target = data.draw(st.integers(2, 3))
        decide = lambda t: check_separable(t, target)  # noqa: E731
    alone = [decide(Tester(tester.alphabet, tester.n, tester.q, (ch,))) for ch in tester.checks]
    with mock.patch.object(separability, "_certificate", wraps=separability._certificate) as built:
        outcome = decide(tester)
    failed = [i for i, got in enumerate(alone) if isinstance(got, SeparabilityFailure)]
    if failed:
        first = alone[failed[0]]
        assert outcome == SeparabilityFailure(failed[0], first.coordinate, first.required)
        return
    assert outcome.checks == tuple(got.checks[0] for got in alone)
    keys = [(ch.arity, ch.accept) for ch in tester.checks]
    assert built.call_count == len(set(keys))
    for i, j in itertools.combinations(range(len(keys)), 2):
        assert (outcome.checks[i] is outcome.checks[j]) == (keys[i] == keys[j])


@settings(max_examples=40, deadline=None)
@given(_repeated_predicates(True), st.data())
def test_linear_replacement_is_the_per_check_construction(tester, data):
    # The components are built once per distinct padded predicate and shared
    # by its checks: the result is the concatenation of what each check gets
    # alone, in check order with the same weights.
    target = VecSpace(Field(2), data.draw(st.integers(1, tester.alphabet.space.dim)))
    mu = Fraction(1, 3)
    alone = [
        linear_separable_replacement(Tester(tester.alphabet, tester.n, tester.q, (ch,)), mu, target)
        for ch in tester.checks
    ]
    surjection = separability.kernel_complement_surjection
    with mock.patch.object(separability, "kernel_complement_surjection", wraps=surjection) as built:
        replaced = linear_separable_replacement(tester, mu, target)
    assert replaced == Tester(tester.alphabet, tester.n, tester.q, tuple(c for one in alone for c in one.checks))
    assert replaced.meta == alone[0].meta
    size = tester.alphabet.size
    assert built.call_count == len({pad_check(ch, tester.q, size).accept for ch in tester.checks})


def _per_tuple_replacement(tester, mu, delta_space):
    """The linear replacement built tuple by tuple: each tuple flattened,
    mapped by its check's surjection and numbered on its own."""
    space, size, q, d = tester.alphabet.space, tester.alphabet.size, tester.q, delta_space.dim
    m = ceil(q * space.dim / d)
    padded = Tester(tester.alphabet, tester.n, q, tuple(pad_check(ch, q, size) for ch in tester.checks))
    flat_space, target = VecSpace(space.field, q * space.dim), VecSpace(space.field, m * d)
    checks = []
    for ch, basis in zip(padded.checks, classify_linear(padded)):
        surj = separability.kernel_complement_surjection(flat_space, list(basis), target)
        accepts = [0] * m
        for tup in itertools.product(range(size), repeat=q):
            image = surj.apply(space.flatten(tup))
            for j in range(m):
                if not any(image[j * d : (j + 1) * d]):
                    accepts[j] |= 1 << encode_tuple(tup, size)
        checks += [Check(ch.queries, accept, ch.weight / m) for accept in accepts]
    return Tester(tester.alphabet, tester.n, q, tuple(checks), meta={"bound": mu / m, "m": m})


@st.composite
def _linear_testers(draw):
    """A tester over GF(p)^dim, p in {2, 3} and dim 1-2, of arity q <= 3
    (q <= 2 over GF(3)^2), whose checks of arity 1..q accept subspaces."""
    p = draw(st.sampled_from([2, 3]))
    space = VecSpace(Field(p), draw(st.integers(1, 2)))
    q = draw(st.integers(1, 2 if space.size > 4 else 3))
    checks = []
    for _ in range(draw(st.integers(1, 3))):
        width = draw(st.integers(1, q)) * space.dim
        rows = draw(st.lists(st.tuples(*[st.integers(0, p - 1)] * width), max_size=width))
        index = [sum(v * p**k for k, v in enumerate(vec)) for vec in span_vectors(rows, width, p)]
        queries = tuple(draw(st.integers(0, 2)) for _ in range(width // space.dim))
        checks.append(Check(queries, accept_from_indices(index), Fraction(1, 3)))
    return Tester(Alphabet.vector(space), 3, q, tuple(checks))


@settings(max_examples=60, deadline=None)
@given(_linear_testers(), st.data())
def test_linear_replacement_is_the_per_tuple_construction(tester, data):
    # Mapping whole blocks of the tuple table gives, component for component,
    # what mapping each tuple on its own gives, for every target dimension
    # and for blocks down to one tuple.
    space = tester.alphabet.space
    target = VecSpace(space.field, data.draw(st.integers(1, tester.q * space.dim + 1)))
    chunk = data.draw(st.sampled_from([testers.CHUNK, 1, 5, 8]))
    with mock.patch.object(testers, "CHUNK", chunk):
        replaced = linear_separable_replacement(tester, Fraction(1, 2), target)
    want = _per_tuple_replacement(tester, Fraction(1, 2), target)
    assert replaced == want and replaced.meta == want.meta


def test_linear_replacement_across_blocks():
    # GF(3)^2 at q = 3: 729 tuples in blocks of 100, none starting on a byte
    # boundary after the first, against one block and tuple by tuple.
    space = VecSpace(Field(3), 2)
    tester = equality_tester(Alphabet.vector(space), 3)
    tester = Tester(tester.alphabet, 3, 3, tester.checks + (Check((0, 1, 2), full_accept(9, 3), Fraction(1)),))
    target = VecSpace(space.field, 2)
    whole = linear_separable_replacement(tester, Fraction(1), target)
    with mock.patch.object(testers, "CHUNK", 100):
        blocked = linear_separable_replacement(tester, Fraction(1), target)
    assert blocked == whole == _per_tuple_replacement(tester, Fraction(1), target)
    assert whole.meta["m"] == 3


@pytest.mark.parametrize("kind", ["general", "linear", "semilinear"])
def test_a_flipped_witness_bit_fails_concatenation(kind):
    # The witness a certificate gives composes; with one accepted image
    # removed from its first entry, concat_tester refuses it, also after
    # the semilinear route extends it into the derived family.
    from ltcforge.concat import CompatibilityWitness, Encoder, WitnessEntry, concat_tester
    from ltcforge.constructions import FunctionFamily, critical_family, dependence_tester

    alphabet = BIN if kind == "general" else vector_alphabet(2, 1)
    tester = equality_tester(alphabet, 2)
    if kind == "general":
        sep = separable_replacement(tester, Fraction(1), 2)
        cert, delta = check_separable(sep, 2), BIN
    else:
        sep = linear_separable_replacement(tester, Fraction(1), VecSpace(Field(2), 1))
        cert, delta = check_linearly_separable(sep, VecSpace(Field(2), 1)), vector_alphabet(2, 1)
    enc = compatibility_encoder(alphabet, delta, kind != "general")
    wit = witness_from_certificate(cert, enc)
    first = wit.entries[0]
    flipped = CompatibilityWitness((WitnessEntry(first.positions, first.accept & (first.accept - 1)),) + wit.entries[1:])
    if kind == "semilinear":
        derived = critical_family(enc.family)
        wider = Encoder(FunctionFamily(2, derived.target, derived.tables + ((0, 0),) * (10 - derived.k)))
        wit, flipped = (extend_compatibility(w, enc, wider) for w in (wit, flipped))
        enc = wider
    inner = dependence_tester(enc.family, 2)
    assert concat_tester(sep, Fraction(1, 4), inner, Fraction(1, 4), enc, wit).n == sep.n * enc.k
    with pytest.raises(MismatchError, match="witness does not verify"):
        concat_tester(sep, Fraction(1, 4), inner, Fraction(1, 4), enc, flipped)
