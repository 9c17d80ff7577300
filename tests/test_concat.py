"""Concatenation, compatibility witnesses, composed and widened testers."""

import itertools
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltcforge.algebra import Field, VecSpace
from ltcforge.codes import (
    Alphabet,
    Code,
    Word,
    distance,
    rate,
    repetition_code,
    vector_alphabet,
)
from ltcforge.concat import (
    CompatFailure,
    CompatibilityWitness,
    Encoder,
    WitnessEntry,
    alphabet_increase_tester,
    check_f_compatible,
    concat_tester,
    concatenate,
    embed_code,
    verify_witness,
)
from ltcforge.constructions import (
    FunctionFamily,
    dependence_tester,
    generalized_hadamard,
    generalized_long_code,
)
from ltcforge.errors import DomainError, MismatchError
from ltcforge.separability import compatibility_encoder
from ltcforge.testers import (
    Check,
    Tester,
    accept_from_tuples,
    classify_linear,
    equality_tester,
    pad_check,
    reject_probability,
    soundness_exact,
    validate,
)

BIN = Alphabet.plain(2)
REP2 = repetition_code(BIN, 2)
EQ2 = equality_tester(BIN, 2)


def identity_encoder(alphabet):
    table = tuple(range(alphabet.size))
    return Encoder(FunctionFamily(alphabet.size, alphabet, (table,)))


def test_encoder_rejects_non_injective():
    with pytest.raises(DomainError):
        Encoder(FunctionFamily(2, BIN, ((0, 0),)))


def test_concatenate_identity():
    joined = concatenate(REP2, identity_encoder(BIN))
    assert joined.codewords == REP2.codewords


def test_concatenate_long_code_inner():
    enc = compatibility_encoder(BIN, Alphabet.plain(3), False)
    joined = concatenate(REP2, enc)
    assert joined.n == 18 and len(joined.codewords) == 2
    inner = enc.image_code()
    assert distance(joined) >= distance(REP2) * distance(inner)
    assert rate(joined) == rate(REP2) * rate(inner)


def test_concatenate_domain_mismatch():
    enc = compatibility_encoder(Alphabet.plain(3), Alphabet.plain(3), False)
    with pytest.raises(MismatchError):
        concatenate(REP2, enc)


def test_check_f_compatible_equality_through_long_code():
    enc = compatibility_encoder(BIN, BIN, False)
    wit = check_f_compatible(EQ2, enc)
    assert isinstance(wit, CompatibilityWitness)
    assert verify_witness(EQ2, enc, wit)


def test_check_f_compatible_identity_coordinates():
    # an encoder with an identity coordinate factors any check through it
    enc = identity_encoder(BIN)
    wit = check_f_compatible(EQ2, enc)
    assert isinstance(wit, CompatibilityWitness)
    assert all(e.positions == (0, 0) for e in wit.entries)
    assert verify_witness(EQ2, enc, wit)


def test_check_f_compatible_takes_the_first_valid_table_per_coordinate():
    # Equality over five letters through all 3,125 tables onto five letters:
    # a coordinate needs an injective table (120 of them, 14,400 pairs per
    # check), and each takes the first one, with no search over the pairs.
    five = Alphabet.plain(5)
    tester = equality_tester(five, 3)
    enc = compatibility_encoder(five, five, False)
    wit = check_f_compatible(tester, enc)
    first = next(b for b, t in enumerate(enc.family.tables) if len(set(t)) == 5)
    assert [e.positions for e in wit.entries] == [(first, first)] * 2
    assert verify_witness(tester, enc, wit)


def test_verify_witness_checks_each_entry_against_the_images():
    # EQ2 through the table (0, 1) into three letters: an entry must accept
    # the images (0, 0) and (1, 1) and neither (0, 1) nor (1, 0); tuples
    # reading the unused letter 2 are free.
    enc = Encoder(FunctionFamily(2, Alphabet.plain(3), ((0, 1),)))
    diag = accept_from_tuples([(0, 0), (1, 1)], 3)

    def verifies(positions, accept):
        return verify_witness(EQ2, enc, CompatibilityWitness(3, (WitnessEntry(positions, accept),)))

    assert verifies((0, 0), diag)
    assert verifies((0, 0), diag | accept_from_tuples([(2, 2), (0, 2)], 3))
    assert not verifies((0, 0), diag ^ accept_from_tuples([(1, 1)], 3))  # an in-image accept bit flipped
    assert not verifies((0, 0), diag | accept_from_tuples([(1, 0)], 3))  # a rejected image accepted
    assert not verifies((0,), diag)  # arity mismatch


def test_check_f_compatible_failure():
    # equality over three symbols cannot factor through a binary alphabet:
    # every symbol sits in its own swap class but binary fibers must merge two
    eq3 = equality_tester(Alphabet.plain(3), 2)
    enc = compatibility_encoder(Alphabet.plain(3), BIN, False)
    outcome = check_f_compatible(eq3, enc)
    assert isinstance(outcome, CompatFailure)
    assert outcome.check_index == 0 and outcome.coordinate == 0


def _binary_instance():
    fam, inner_code = generalized_long_code(2, BIN)
    enc = Encoder(fam)
    inner = dependence_tester(fam, 2)
    mu_outer = soundness_exact(EQ2, REP2).value
    mu_inner = soundness_exact(inner, inner_code).value
    wit = check_f_compatible(EQ2, enc)
    return fam, inner_code, enc, inner, mu_outer, mu_inner, wit


def test_concat_tester_validates_and_meets_bound():
    fam, inner_code, enc, inner, mu_o, mu_i, wit = _binary_instance()
    joined = concatenate(REP2, enc)
    tester = concat_tester(EQ2, mu_o, inner, mu_i, enc, wit)
    assert validate(tester, joined)
    assert tester.q == max(EQ2.q, inner.q)
    bound = mu_o * mu_i / ((EQ2.q * enc.k + 1) * mu_o + mu_i)
    assert tester.meta["bound"] == bound
    report = soundness_exact(tester, joined)
    assert report.value >= bound


def test_concat_tester_weight_identity():
    # the three routine weights always sum to one
    fam, inner_code, enc, inner, mu_o, mu_i, wit = _binary_instance()
    for mu_a, mu_b in [(Fraction(1, 3), Fraction(2, 7)), (Fraction(5), Fraction(1, 11))]:
        tester = concat_tester(EQ2, mu_a, inner, mu_b, enc, wit)
        assert sum(ch.weight for ch in tester.checks) == 1


def test_concat_tester_degenerate_outer_code():
    from ltcforge.testers import Check, Tester, full_accept

    fam, inner_code, enc, inner, mu_o, mu_i, wit_eq = _binary_instance()
    full = Code(BIN, 2, tuple(itertools.product(range(2), repeat=2)))
    accept_all = Tester(BIN, 2, 2, (Check((0, 1), full_accept(2, 2), Fraction(1)),))
    wit = check_f_compatible(accept_all, enc)
    joined = concatenate(full, enc)
    tester = concat_tester(accept_all, Fraction(1), inner, mu_i, enc, wit)
    assert validate(tester, joined)
    report = soundness_exact(tester, joined)
    assert not report.infinite  # joined is not the whole target space
    assert report.value >= 0


def test_verify_witness_refuses_offsets_outside_the_blocks():
    # The equality chain's witness with every offset shifted by -k read the
    # same tables through negative indices, and verified; offsets shifted
    # by +k raised IndexError.  Each now fails, and so does the witness
    # under another target size.
    eq = equality_tester(BIN, 3)
    enc = compatibility_encoder(BIN, BIN, False)
    wit = check_f_compatible(eq, enc)
    assert wit.target_size == 2 and verify_witness(eq, enc, wit)
    for shift in (-enc.k, enc.k):
        entries = tuple(WitnessEntry(tuple(b + shift for b in e.positions), e.accept) for e in wit.entries)
        assert not verify_witness(eq, enc, CompatibilityWitness(2, entries))
    assert not verify_witness(eq, enc, replace(wit, target_size=3))
    inner = dependence_tester(enc.family, 2)
    mu_i = soundness_exact(inner, enc.image_code()).value
    with pytest.raises(MismatchError, match="witness does not verify"):
        concat_tester(eq, Fraction(1), inner, mu_i, enc, replace(wit, target_size=3))


def test_concat_tester_rejects_bad_inputs():
    fam, inner_code, enc, inner, mu_o, mu_i, wit = _binary_instance()
    with pytest.raises(DomainError):
        concat_tester(EQ2, Fraction(0), inner, mu_i, enc, wit)
    broken = CompatibilityWitness(wit.target_size, (wit.entries[0],) * 2)
    with pytest.raises(MismatchError):
        concat_tester(EQ2, mu_o, inner, mu_i, enc, broken)


def test_alphabet_increase_bound_and_validation():
    mu = soundness_exact(EQ2, REP2).value
    target = Alphabet.plain(3)
    bigger = alphabet_increase_tester(EQ2, mu, (0, 1), target)
    big_code = embed_code(REP2, (0, 1), target)
    assert validate(bigger, big_code)
    report = soundness_exact(bigger, big_code)
    assert report.value >= mu / (mu + 1)


def test_alphabet_increase_same_alphabet():
    mu = soundness_exact(EQ2, REP2).value
    same = alphabet_increase_tester(EQ2, mu, (0, 1), BIN)
    report = soundness_exact(same, REP2)
    assert report.value >= mu / (mu + 1)


def test_alphabet_increase_out_of_range_letter():
    mu = soundness_exact(EQ2, REP2).value
    target = Alphabet.plain(3)
    bigger = alphabet_increase_tester(EQ2, mu, (0, 1), target)
    rho1 = mu / (mu + 1)
    word = Word(target, (2, 0))  # letter outside the embedded alphabet
    assert reject_probability(bigger, word) >= rho1 / REP2.n


def test_alphabet_increase_rejects_non_injection():
    with pytest.raises(DomainError):
        alphabet_increase_tester(EQ2, Fraction(2), (0, 0), Alphabet.plain(3))


def test_embedding_scales_rate_by_dimension_ratio():
    from ltcforge.codes import make_rate

    code = repetition_code(vector_alphabet(2, 1), 2)
    widened = embed_code(code, (0, 1), vector_alphabet(2, 2))
    assert rate(code) == make_rate(Fraction(1, 2))
    assert rate(widened) == make_rate(Fraction(1, 4))  # multiplied by c/d = 1/2


def test_embedding_maps_codewords_through_nonlinear_injection():
    code = repetition_code(vector_alphabet(2, 1), 2)
    swapped = embed_code(code, (1, 0), vector_alphabet(2, 2))  # 0 -> (1, 0) is not linear
    assert swapped.codewords == ((1, 1), (0, 0))


def test_linearity_preserved_through_composition():
    code = repetition_code(vector_alphabet(2, 1), 2)
    tester = equality_tester(code.alphabet, 2)
    mu = soundness_exact(tester, code).value
    v2 = VecSpace(Field(2), 2)
    fam, inner_code = generalized_hadamard(VecSpace(Field(2), 1), v2)
    enc = Encoder(fam)
    inner = dependence_tester(fam, 2)
    nu = soundness_exact(inner, inner_code).value
    wit = check_f_compatible(tester, enc)
    composed = concat_tester(tester, mu, inner, nu, enc, wit)
    assert classify_linear(composed) is not None
    # widening through a subspace inclusion stays linear
    v3 = VecSpace(Field(2), 3)
    widened = alphabet_increase_tester(
        composed, composed.meta["bound"], tuple(range(4)), Alphabet.vector(v3)
    )
    assert classify_linear(widened) is not None


def _three_routines(outer, mu_outer, inner, mu_inner, encoder, witness):
    """concat_tester before routines 1 and 3 became one block distribution:
    one inner copy per block and one per (outer check, queried block), all
    padded at the end and none merged; kept as the reference."""
    dsize, q, k, n = encoder.target.size, outer.q, encoder.k, outer.n
    scale = Fraction(1, q * k)
    total = mu_outer * mu_inner * scale + mu_inner**2 * scale + mu_inner * mu_outer
    rho1 = mu_outer * mu_inner * scale / total
    rho2 = mu_inner**2 * scale / total
    rho3 = mu_outer * mu_inner / total
    q_out = max(q, inner.q)
    checks = []
    for block in range(n):
        for ch in inner.checks:
            queries = tuple(block * k + pos for pos in ch.queries)
            checks.append(Check(queries, ch.accept, rho1 * Fraction(1, n) * ch.weight))
    for ch, entry in zip(outer.checks, witness.entries):
        queries = tuple(a * k + b for a, b in zip(ch.queries, entry.positions))
        checks.append(Check(queries, entry.accept, rho2 * ch.weight))
    for ch in outer.checks:
        for block in ch.queries + (ch.queries[0],) * (q - ch.arity):
            for ich in inner.checks:
                queries = tuple(block * k + pos for pos in ich.queries)
                checks.append(Check(queries, ich.accept, rho3 * ch.weight * Fraction(1, q) * ich.weight))
    checks = [pad_check(ch, q_out, dsize) for ch in checks]
    return Tester(encoder.target, n * k, q_out, tuple(checks))


def _unmerged_increase(tester, mu, mapping, target):
    """alphabet_increase_tester padded but not merged: the reference."""
    from ltcforge.testers import images

    n = tester.n
    member = accept_from_tuples([(m,) for m in mapping], target.size)
    checks = [Check((pos,), member, mu / (mu + 1) * Fraction(1, n)) for pos in range(n)]
    for ch in tester.checks:
        accept, _ = images(ch, tester.alphabet.size, [mapping] * ch.arity, target.size)
        checks.append(Check(ch.queries, accept, 1 / (mu + 1) * ch.weight))
    return Tester(target, n, tester.q, tuple(pad_check(ch, tester.q, target.size) for ch in checks))


@st.composite
def _random_tester(draw, size, n, q, min_repeats):
    """Checks of mixed arity up to q on repeated or permuted positions with
    random accept sets, some repeated verbatim, and weights summing to 1."""
    def check():
        queries = tuple(draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=q)))
        return queries, draw(st.integers(0, 2 ** (size ** len(queries)) - 1))

    entries = [check() for _ in range(draw(st.integers(1, 4)))]
    entries += [draw(st.sampled_from(entries)) for _ in range(draw(st.integers(min_repeats, 2)))]
    weights = [draw(st.integers(1, 5)) for _ in entries]
    checks = tuple(Check(qs, acc, Fraction(w, sum(weights))) for (qs, acc), w in zip(entries, weights))
    return Tester(Alphabet.plain(size), n, q, checks)


@st.composite
def _composition_instances(draw):
    """An outer tester and code over 2-3 letters, an injective encoder into
    the same letters (the identity table among random ones), a witness, and
    an inner tester with repeated checks; at most 729 concatenated words."""
    size = draw(st.integers(2, 3))
    n = draw(st.integers(1, 3))
    k = draw(st.integers(1, (9 if size == 2 else 6) // n))
    tables = [tuple(draw(st.lists(st.integers(0, size - 1), min_size=size, max_size=size))) for _ in range(k - 1)]
    tables.insert(draw(st.integers(0, k - 1)), tuple(range(size)))
    encoder = Encoder(FunctionFamily(size, Alphabet.plain(size), tuple(tables)))
    outer = draw(_random_tester(size, n, draw(st.integers(1, 3)), 0))
    inner = draw(_random_tester(size, k, draw(st.integers(1, 3)), 1))
    words = draw(st.sets(st.tuples(*[st.integers(0, size - 1)] * n), min_size=1, max_size=4))
    mus = [Fraction(draw(st.integers(1, 9)), draw(st.integers(1, 9))) for _ in range(3)]
    return outer, inner, encoder, Code(outer.alphabet, n, tuple(sorted(words))), mus


def _weight_map(tester):
    out = {}
    for ch in tester.checks:
        out[ch.queries, ch.accept] = out.get((ch.queries, ch.accept), 0) + ch.weight
    return out


def _assert_merged_equivalent(merged, reference, code):
    pairs = [((ch.queries, ch.accept), ch.weight) for ch in merged.checks]
    assert len({key for key, _ in pairs}) == len(pairs)
    assert pairs == list(_weight_map(reference).items())  # summed, in order of first appearance
    assert sum(ch.weight for ch in merged.checks) == 1
    for letters in itertools.product(range(merged.alphabet.size), repeat=merged.n):
        word = Word(merged.alphabet, letters)
        assert reject_probability(merged, word) == reject_probability(reference, word)
    got, want = soundness_exact(merged, code), soundness_exact(reference, code)
    assert (got.value, got.infinite, got.witness, got.engine) == (want.value, want.infinite, want.witness, want.engine)


@settings(max_examples=60, deadline=None)
@given(_composition_instances())
def test_composed_testers_equal_the_unmerged_constructions(instance):
    # Merged composed testers are the old constructions as distributions:
    # the same padded (queries, accept) -> summed weight map in the same
    # first-appearance order, each pair once, the same reject probability
    # on every word and the same exact value and witness.
    outer, inner, encoder, code, (mu_outer, mu_inner, mu) = instance
    wit = check_f_compatible(outer, encoder)
    merged = concat_tester(outer, mu_outer, inner, mu_inner, encoder, wit)
    reference = _three_routines(outer, mu_outer, inner, mu_inner, encoder, wit)
    _assert_merged_equivalent(merged, reference, concatenate(code, encoder))
    target = Alphabet.plain(outer.alphabet.size + 1)
    mapping = tuple(reversed(range(1, target.size)))
    widened = alphabet_increase_tester(outer, mu, mapping, target)
    _assert_merged_equivalent(widened, _unmerged_increase(outer, mu, mapping, target), embed_code(code, mapping, target))


def _merged_per_check(checks, q, size):
    """merged_checks as it was written per check: every check padded, each
    (queries, accept) summed from 0 in order of first appearance."""
    weights = {}
    for ch in checks:
        ch = pad_check(ch, q, size)
        weights[ch.queries, ch.accept] = weights.get((ch.queries, ch.accept), 0) + ch.weight
    return tuple(Check(queries, accept, w) for (queries, accept), w in weights.items())


def _concat_per_check(outer, mu_outer, inner, mu_inner, encoder, witness):
    """concat_tester with one multiplication per emitted check: the reference."""
    q, k, n = outer.q, encoder.k, outer.n
    scale = Fraction(1, q * k)
    total = mu_outer * mu_inner * scale + mu_inner**2 * scale + mu_inner * mu_outer
    rho1, rho2, rho3 = (mu_outer * mu_inner * scale / total, mu_inner**2 * scale / total, mu_outer * mu_inner / total)
    reads = [Fraction(0)] * n
    for ch in outer.checks:
        for block in ch.queries + (ch.queries[0],) * (q - ch.arity):
            reads[block] += ch.weight
    checks = []
    for block in range(n):
        for ch in inner.checks:
            share = rho1 / n + rho3 / q * reads[block]
            checks.append(Check(tuple(block * k + pos for pos in ch.queries), ch.accept, share * ch.weight))
    for ch, entry in zip(outer.checks, witness.entries):
        queries = tuple(a * k + b for a, b in zip(ch.queries, entry.positions))
        checks.append(Check(queries, entry.accept, rho2 * ch.weight))
    q_out = max(q, inner.q)
    return Tester(encoder.target, n * k, q_out, _merged_per_check(checks, q_out, encoder.target.size))


def _increase_per_check(tester, mu, mapping, target):
    """alphabet_increase_tester with one image and one multiplication per
    check: the reference."""
    from ltcforge.testers import images

    n = tester.n
    member = accept_from_tuples([(m,) for m in mapping], target.size)
    checks = [Check((pos,), member, mu / (mu + 1) * Fraction(1, n)) for pos in range(n)]
    for ch in tester.checks:
        accept, _ = images(ch, tester.alphabet.size, [mapping] * ch.arity, target.size)
        checks.append(Check(ch.queries, accept, 1 / (mu + 1) * ch.weight))
    return Tester(target, n, tester.q, _merged_per_check(checks, tester.q, target.size))


def _with_distinct_weight_objects(tester):
    """The tester with every weight a Fraction object of its own."""
    return Tester(tester.alphabet, tester.n, tester.q,
                  tuple(Check(ch.queries, ch.accept, ch.weight + 0) for ch in tester.checks))


@settings(max_examples=60, deadline=None)
@given(_composition_instances(), st.booleans())
def test_composed_testers_equal_their_per_check_references(instance, distinct):
    # Images once per distinct (accept, arity) and products once per
    # distinct weight give the same checks, in the same order, with equal
    # weights, whether equal weights share one Fraction or not.
    outer, inner, encoder, code, (mu_outer, mu_inner, mu) = instance
    if distinct:
        outer, inner = _with_distinct_weight_objects(outer), _with_distinct_weight_objects(inner)
    wit = check_f_compatible(outer, encoder)
    got = concat_tester(outer, mu_outer, inner, mu_inner, encoder, wit)
    assert got == _concat_per_check(outer, mu_outer, inner, mu_inner, encoder, wit)  # checks in order
    target = Alphabet.plain(outer.alphabet.size + 1)
    mapping = tuple(reversed(range(1, target.size)))
    assert alphabet_increase_tester(outer, mu, mapping, target) == _increase_per_check(outer, mu, mapping, target)
    assert alphabet_increase_tester(got, mu, mapping, target) == _increase_per_check(got, mu, mapping, target)


def test_verify_witness_images_each_distinct_entry_once(monkeypatch):
    # Four equal checks through the same offsets are imaged once; an entry
    # whose (accept, offsets) was seen with a valid predicate is still
    # compared with its own, so one wrong copy fails the witness.
    import ltcforge.concat as concat_module

    enc = Encoder(FunctionFamily(2, Alphabet.plain(3), ((0, 1), (1, 0))))
    eq = Tester(BIN, 2, 2, EQ2.checks * 4)
    diag = accept_from_tuples([(0, 0), (1, 1)], 3)
    calls = []
    real = concat_module.images
    monkeypatch.setattr(concat_module, "images", lambda *args: calls.append(args[0]) or real(*args))
    entries = (WitnessEntry((0, 0), diag),) * 3 + (WitnessEntry((1, 1), diag),)
    assert verify_witness(eq, enc, CompatibilityWitness(3, entries))
    assert len(calls) == 2
    wrong = entries[:2] + (WitnessEntry((0, 0), diag ^ accept_from_tuples([(1, 1)], 3)),) + entries[3:]
    assert not verify_witness(eq, enc, CompatibilityWitness(3, wrong))


def test_check_f_compatible_decides_each_distinct_predicate_once(monkeypatch):
    # Equal (arity, accept) predicates share one table search and one
    # imaging: 0b01 is {0} at arity 1 and {00} at arity 2, so the key
    # carries the arity.  Each entry is the one its check gets alone.
    import ltcforge.concat as concat_module

    enc = identity_encoder(BIN)
    checks = (Check((0,), 0b01, Fraction(1, 8)), Check((0, 1), 0b01, Fraction(1, 8))) * 3
    tester = Tester(BIN, 2, 2, checks + EQ2.checks * 2)
    classes, imaged = [], []
    real_classes, real_images = concat_module.coordinate_classes, concat_module.images
    monkeypatch.setattr(
        concat_module, "coordinate_classes", lambda *a: classes.append(a) or real_classes(*a)
    )
    monkeypatch.setattr(concat_module, "images", lambda *a: imaged.append(a) or real_images(*a))
    wit = check_f_compatible(tester, enc)
    assert (len(imaged), len(classes)) == (3, 1 + 2 + 2)
    for check, entry in zip(tester.checks, wit.entries):
        assert check_f_compatible(Tester(BIN, 2, 2, (check,)), enc).entries == (entry,)
    assert verify_witness(tester, enc, wit)


def test_check_f_compatible_names_the_first_failing_check():
    # Over three symbols, the encoder (0,0,1), (0,1,1) factors "the letter
    # is 2" but no table refines equality's three classes: the failure is
    # at the first equality check, after a shared passing predicate.
    tri = Alphabet.plain(3)
    enc = Encoder(FunctionFamily(3, BIN, ((0, 0, 1), (0, 1, 1))))
    two = Check((0,), accept_from_tuples([(2,)], 3), Fraction(1, 5))
    eq3 = equality_tester(tri, 2).checks[0]
    tester = Tester(tri, 2, 2, (two, two, eq3, two, eq3))
    assert check_f_compatible(tester, enc) == CompatFailure(2, 0)
