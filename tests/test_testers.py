"""Tester evaluation, exact and sampled soundness, classification."""

import itertools
import math
import random
import time
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ltcforge.algebra import Field, VecSpace, decode_tuple, encode_tuple
from ltcforge.codes import Alphabet, Code, Word, dist_to_code, repetition_code, vector_alphabet
from ltcforge.constructions import dependence_tester, generalized_long_code
from ltcforge import testers
from ltcforge.errors import CapacityError, DomainError
from ltcforge.testers import (
    Check,
    Tester,
    accept_from_indices,
    accept_from_tuples,
    accepted_words,
    classify_linear,
    coordinate_classes,
    equality_tester,
    full_accept,
    images,
    indices_from_accept,
    pad_check,
    reject_probability,
    soundness_exact,
    soundness_sampled,
    tuples_from_accept,
    validate,
)

BIN = Alphabet.plain(2)
REP2 = repetition_code(BIN, 2)
EQ2 = equality_tester(BIN, 2)


def test_reject_probability_codeword():
    assert reject_probability(EQ2, Word(BIN, (0, 0))) == 0
    assert reject_probability(EQ2, Word(BIN, (1, 1))) == 0


def test_reject_probability_single_check():
    assert reject_probability(EQ2, Word(BIN, (0, 1))) == 1


def test_reject_probability_weighted_pairs():
    tester = equality_tester(BIN, 3)
    # checks on (0,1) and (1,2), weight 1/2 each; 001 violates only (1,2)
    assert reject_probability(tester, Word(BIN, (0, 0, 1))) == Fraction(1, 2)


def test_validate_dependence_tester_own_code():
    fam, code = generalized_long_code(2, Alphabet.plain(3))
    tester = dependence_tester(fam, 2)
    assert validate(tester, code)


def test_validate_rejected_codeword():
    bad = Code(BIN, 2, ((0, 1),))
    # EQ2 passes on its own code, so the rejected codeword alone fails it
    assert validate(EQ2, REP2) and not validate(EQ2, bad)


def test_validate_weight_sum():
    half = Check((0, 1), accept_from_tuples([(0, 0), (1, 1)], 2), Fraction(1, 2))
    tester = Tester(BIN, 2, 2, (half,))
    # at weight 1 the check passes, so the weight sum of 1/2 alone fails it
    assert not validate(tester, REP2)
    assert validate(Tester(BIN, 2, 2, (replace(half, weight=Fraction(1)),)), REP2)


def test_soundness_exact_equality_pair():
    # oracle: direct scan of the 4 binary words of length 2
    best = None
    for letters in itertools.product(range(2), repeat=2):
        if letters in ((0, 0), (1, 1)):
            continue
        word = Word(BIN, letters)
        ratio = reject_probability(EQ2, word) / dist_to_code(word, REP2)
        best = ratio if best is None else min(best, ratio)
    assert best == 2
    report = soundness_exact(EQ2, REP2)
    assert report.value == 2 and not report.infinite
    assert report.witness.letters == (0, 1)  # lexicographically smallest minimizer


def test_soundness_exact_full_space_sentinel():
    full = Code(BIN, 2, tuple(itertools.product(range(2), repeat=2)))
    report = soundness_exact(EQ2, full)
    assert report.infinite and report.value is None and report.witness is None


def test_soundness_exact_budget_error():
    with pytest.raises(CapacityError) as err:
        soundness_exact(EQ2, REP2, budget=3)
    assert err.value.required == 4


def test_soundness_exact_zero_with_witness():
    always = Tester(BIN, 2, 2, (Check((0, 1), full_accept(2, 2), Fraction(1)),))
    report = soundness_exact(always, REP2)
    assert report.value == 0
    assert report.witness.letters == (0, 1)


def test_soundness_exact_bound_verdicts():
    assert soundness_exact(EQ2, REP2, bound=Fraction(2)).verdict == "pass"
    assert soundness_exact(EQ2, REP2, bound=Fraction(5, 2)).verdict == "fail"


def test_soundness_fraction_fallback_matches():
    # weights with a denominator too large for the integer fast path
    huge = (1 << 63) + 1
    checks = (
        Check((0, 1), accept_from_tuples([(0, 0), (1, 1)], 2), Fraction(1, huge)),
        Check((0, 1), accept_from_tuples([(0, 0), (1, 1)], 2), Fraction(huge - 1, huge)),
    )
    tester = Tester(BIN, 2, 2, checks)
    report = soundness_exact(tester, REP2)
    assert report.value == 2 and report.witness.letters == (0, 1)


def test_soundness_sampled_deterministic_and_upper_bound():
    exact = soundness_exact(EQ2, REP2).value
    a = soundness_sampled(EQ2, REP2, trials=64, seed=123)
    b = soundness_sampled(EQ2, REP2, trials=64, seed=123)
    assert a == b
    assert a.value >= exact
    c = soundness_sampled(EQ2, REP2, trials=64, seed=124)
    assert c.value >= exact


def test_soundness_sampled_prefix_stability():
    # per-trial substreams: growing the trial count never changes old draws,
    # so the minimum over more trials can only stay or drop
    small = soundness_sampled(EQ2, REP2, trials=16, seed=9)
    large = soundness_sampled(EQ2, REP2, trials=64, seed=9)
    assert large.value <= small.value


def _longcode_23():
    fam, code = generalized_long_code(2, Alphabet.plain(3))
    return dependence_tester(fam, 2), code


def test_soundness_sampled_chunks_change_nothing():
    # Trials run in chunks of CHUNK, each against the running best: every
    # value and witness equals the one-chunk run's, chunks of one included.
    for tester, code, trials in ((*_longcode_23(), 200), (EQ2, REP2, 64)):
        want = soundness_sampled(tester, code, trials, seed=3, bound=Fraction(1, 2))
        for chunk in (1, 7):
            with mock.patch.object(testers, "CHUNK", chunk):
                assert soundness_sampled(tester, code, trials, seed=3, bound=Fraction(1, 2)) == want


def test_soundness_sampled_memory_does_not_grow_with_trials():
    # Four chunks' worth of trials peak within 1.5 times one chunk's peak.
    import tracemalloc

    tester, code = _longcode_23()
    peaks = []
    with mock.patch.object(testers, "CHUNK", 1 << 14):
        for trials in (testers.CHUNK, 4 * testers.CHUNK):
            tracemalloc.start()
            soundness_sampled(tester, code, trials, seed=1)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0]


def test_soundness_sampled_bound_flags():
    ok = soundness_sampled(EQ2, REP2, trials=32, seed=1, bound=Fraction(1))
    assert ok.verdict == "consistent"
    bad = soundness_sampled(EQ2, REP2, trials=32, seed=1, bound=Fraction(10))
    assert bad.verdict == "violated"


def test_soundness_sampled_hadamard_over_gf3():
    # 9^9 words exceed the exhaustive budget; the sampled value must sit
    # above the closed-form floor |domain|^(-2 dim(target))
    from ltcforge.constructions import generalized_hadamard

    fam, code = generalized_hadamard(VecSpace(Field(3), 1), VecSpace(Field(3), 2))
    tester = dependence_tester(fam, 2)
    with pytest.raises(CapacityError):
        soundness_exact(tester, code)
    report = soundness_sampled(tester, code, trials=10**4, seed=5, bound=Fraction(1, 81))
    assert report.verdict == "consistent"
    assert report.value >= Fraction(1, 81)


def test_positive_soundness_iff_accepted_set_is_code():
    # random validating testers: soundness > 0 exactly when nothing outside
    # the code survives every check
    import random

    from ltcforge.testers import accepted_words

    rng = random.Random(31337)
    seen = {True: 0, False: 0}
    for _ in range(20):
        size = rng.choice([2, 3])
        n = rng.choice([2, 3])
        alphabet = Alphabet.plain(size)
        words = set()
        while len(words) < rng.randrange(1, 4):
            words.add(tuple(rng.randrange(size) for _ in range(n)))
        code = Code(alphabet, n, tuple(sorted(words)))
        count = rng.randrange(1, 4)
        checks = []
        for _ in range(count):
            queries = tuple(rng.randrange(n) for _ in range(2))
            must = {tuple(cw[i] for i in queries) for cw in code.codewords}
            extra = {
                tuple(rng.randrange(size) for _ in range(2))
                for _ in range(rng.randrange(0, 3))
            }
            checks.append(
                Check(queries, accept_from_tuples(must | extra, size), Fraction(1, count))
            )
        tester = Tester(alphabet, n, 2, tuple(checks))
        assert validate(tester, code)
        report = soundness_exact(tester, code)
        if report.infinite:
            continue
        positive = report.value > 0
        accepted = set(accepted_words(tester))
        seen[positive] += 1
        assert positive == (accepted == set(code.codewords))
    assert seen[True] > 0 and seen[False] > 0


def test_weight_splitting_is_invisible():
    # splitting a check into two half-weight copies never changes rejection
    base = Check((0, 1), accept_from_tuples([(0, 0)], 2), Fraction(1))
    split = (
        Check((0, 1), base.accept, Fraction(1, 2)),
        Check((0, 1), base.accept, Fraction(1, 2)),
    )
    t1 = Tester(BIN, 2, 2, (base,))
    t2 = Tester(BIN, 2, 2, split)
    for letters in itertools.product(range(2), repeat=2):
        word = Word(BIN, letters)
        assert reject_probability(t1, word) == reject_probability(t2, word)


def test_classify_linear_equality_elementary():
    alphabet = vector_alphabet(2, 1)
    tester = equality_tester(alphabet, 2)
    result = classify_linear(tester)
    assert result is not None
    assert result == (((1, 1),),)


def test_classify_linear_not_elementary():
    alphabet = vector_alphabet(2, 1)
    zero_only = Check((0, 1), accept_from_tuples([(0, 0)], 2), Fraction(1))
    result = classify_linear(Tester(alphabet, 2, 2, (zero_only,)))
    assert result is not None


def test_classify_nonlinear():
    alphabet = vector_alphabet(2, 1)
    accept = accept_from_tuples([(0, 0), (1, 1), (1, 0)], 2)
    result = classify_linear(Tester(alphabet, 2, 2, (Check((0, 1), accept, Fraction(1)),)))
    assert result is None


@given(st.sampled_from([(2, 1), (2, 2), (3, 1), (5, 1)]), st.integers(1, 3), st.data())
def test_flat_accepted_rows_are_the_flattened_tuples(field_dim, arity, data):
    # The bulk GF(p) rows of an accept set equal VecSpace.flatten of its
    # accepted tuples, row for row, in index order.
    space = VecSpace(Field(field_dim[0]), field_dim[1])
    tuples = data.draw(st.sets(st.tuples(*[st.integers(0, space.size - 1)] * arity), max_size=30))
    accept = accept_from_tuples(tuples, space.size)
    rows = testers.flat_rows(space, np.array(indices_from_accept(accept), dtype=np.int64), arity)
    want = [space.flatten(t) for t in tuples_from_accept(accept, space.size, arity)]
    assert rows.shape == (len(want), arity * space.dim)
    assert [tuple(row) for row in rows.tolist()] == want


def test_classify_linear_reduces_each_predicate_once_per_arity():
    # Accept set 0b11 is all of F2 at arity 1 and {00, 10} at arity 2: the
    # two bases differ, so the predicate key carries the arity.  Equal
    # predicates share one row reduction.
    alphabet = vector_alphabet(2, 1)
    checks = (Check((0,), 0b11, Fraction(1, 4)), Check((0, 1), 0b11, Fraction(1, 4)))
    tester = Tester(alphabet, 2, 2, checks + checks)
    with mock.patch.object(testers, "row_reduce", wraps=testers.row_reduce) as reduce:
        result = classify_linear(tester)
    assert reduce.call_count == 2
    assert result == (((1,),), ((1, 0),)) * 2


def test_classify_linear_needs_vector_alphabet():
    with pytest.raises(DomainError):
        classify_linear(EQ2)


def test_accepted_words_matches_filter():
    fam, code = generalized_long_code(2, Alphabet.plain(2))
    tester = dependence_tester(fam, 2)
    brute = [
        letters
        for letters in itertools.product(range(2), repeat=tester.n)
        if reject_probability(tester, Word(Alphabet.plain(2), letters)) == 0
    ]
    assert accepted_words(tester) == brute


def test_accepted_words_budget():
    with pytest.raises(CapacityError):
        accepted_words(EQ2, budget=2)


def test_coordinate_classes_equality_check():
    accept = accept_from_tuples([(a, a) for a in range(3)], 3)
    classes = coordinate_classes(accept, 3, 2, 0)
    assert classes == [[0], [1], [2]]


def test_coordinate_classes_ignored_coordinate():
    accept = accept_from_tuples([(0, b) for b in range(2)], 2)
    assert coordinate_classes(accept, 2, 2, 1) == [[0, 1]]


def _classes_by_contexts(accept, size, arity, coord):
    """coordinate_classes as one big-int shift per symbol and context: the
    loop the bit-string slices replaced, kept as the reference."""
    contexts = list(itertools.product(range(size), repeat=arity - 1))
    signatures = {}
    for sym in range(size):
        sig = [(accept >> encode_tuple(ctx[:coord] + (sym,) + ctx[coord:], size)) & 1 for ctx in contexts]
        signatures.setdefault(tuple(sig), []).append(sym)
    return list(signatures.values())


@st.composite
def _accept_sets(draw):
    """Random accept bits, or checks that only read a per-coordinate
    labelling into at most three labels (so classes merge)."""
    size, arity = draw(st.sampled_from([(3, 2), (2, 3), (5, 3), (9, 2), (3, 3), (4, 1)]))
    if draw(st.booleans()):
        accept = draw(st.integers(0, 2 ** (size**arity) - 1))
    else:
        labels = [draw(st.lists(st.integers(0, 2), min_size=size, max_size=size)) for _ in range(arity)]
        accepted = draw(st.sets(st.tuples(*[st.integers(0, 2)] * arity)))
        tuples = itertools.product(range(size), repeat=arity)
        accept = accept_from_tuples([t for t in tuples if tuple(lab[a] for lab, a in zip(labels, t)) in accepted], size)
    return accept, size, arity, draw(st.integers(0, arity - 1))


@given(_accept_sets())
def test_coordinate_classes_match_the_contexts_loop(instance):
    assert coordinate_classes(*instance) == _classes_by_contexts(*instance)


def test_pad_check_semantics():
    base = Check((1,), accept_from_tuples([(1,)], 2), Fraction(1))
    padded = pad_check(base, 3, 2)
    assert padded.queries == (1, 1, 1)
    for tup in itertools.product(range(2), repeat=3):
        want = tup[0] == 1
        assert padded.accepts(tup, 2) == want


@given(st.integers(2, 3), st.integers(1, 3), st.integers(0, 2), st.data())
def test_pad_check_repeats_the_accept_block_per_pad_assignment(size, arity, pads, data):
    accept = data.draw(st.integers(0, full_accept(size, arity)))
    base = Check(tuple(range(arity)), accept, Fraction(1))
    padded = pad_check(base, arity + pads, size)
    assert padded.queries == base.queries + (0,) * pads
    for tup in itertools.product(range(size), repeat=arity + pads):
        assert padded.accepts(tup, size) == base.accepts(tup[:arity], size)
    assert padded.accept < 1 << size ** (arity + pads)


@given(st.integers(2, 4), st.integers(1, 3), st.integers(2, 4), st.data())
def test_images_are_the_brute_force_image_sets(size, arity, delta_size, data):
    # Both images against the mapped tuples one by one, and disjointness
    # against a brute-force factoring test: some predicate on the mapped
    # tuples gives the check's verdict on every tuple.
    accept = data.draw(st.integers(0, full_accept(size, arity)))
    table = st.lists(st.integers(0, delta_size - 1), min_size=size, max_size=size)
    maps = [tuple(data.draw(table)) for _ in range(arity)]
    check = Check(tuple(range(arity)), accept, Fraction(1))
    verdicts: dict[tuple[int, ...], set[bool]] = {}
    for tup in itertools.product(range(size), repeat=arity):
        key = tuple(m[s] for m, s in zip(maps, tup))
        verdicts.setdefault(key, set()).add(check.accepts(tup, size))
    accepted, rejected = images(check, size, maps, delta_size)
    assert accepted == accept_from_tuples([k for k, v in verdicts.items() if True in v], delta_size)
    assert rejected == accept_from_tuples([k for k, v in verdicts.items() if False in v], delta_size)
    assert (accepted & rejected == 0) == all(len(v) == 1 for v in verdicts.values())


def test_check_rejects_out_of_range_position():
    with pytest.raises(DomainError):
        Tester(BIN, 2, 2, (Check((0, 5), full_accept(2, 2), Fraction(1)),))


@pytest.mark.parametrize("accept", [(1 << 4) | 9, (1 << 10) | 9, -1, -(1 << 10)])
def test_accept_set_outside_the_table_refused(accept):
    # 2**2 binary pairs: an accept set is a bitset below 2**4.  Past it,
    # soundness_exact would overflow compiling the check, and dumps would
    # write a file its own reader refuses.
    with pytest.raises(DomainError, match="accept set outside"):
        Tester(BIN, 2, 2, (Check((0, 1), accept, Fraction(1)),))


def test_accept_range_checked_per_arity():
    # bit 5 fits the 3**2 pairs of a 3-letter arity-2 check, not its 3 letters
    tri = Alphabet.plain(3)
    pair, single = Check((0, 1), 1 << 5, Fraction(1, 2)), Check((0,), 1 << 5, Fraction(1, 2))
    assert len(Tester(tri, 2, 2, (pair, replace(single, accept=1 << 2))).checks) == 2
    with pytest.raises(DomainError, match="accept set outside the 3 tuples of arity 1"):
        Tester(tri, 2, 2, (pair, single))


def test_tester_validates_each_check():
    # each kind of bad check is refused wherever it stands among good ones
    good = Check((0, 1), 9, Fraction(1, 3))
    for bad, what in [
        (Check((), 1, Fraction(1, 3)), "check arity"),
        (Check((0, 1, 0), 1, Fraction(1, 3)), "check arity"),
        (Check((0, -1), 9, Fraction(1, 3)), "query position"),
        (Check((2, 0), 9, Fraction(1, 3)), "query position"),
        (Check((0, 1), 9, Fraction(0)), "check weights"),
        (Check((0, 1), 9, Fraction(-1, 3)), "check weights"),
        # types `serialize` could not write, or would not read back equal
        (Check([0, 1], 9, Fraction(1, 3)), "queries must be tuples"),
        (Check((0, 1), 9.0, Fraction(1, 3)), "int bitsets"),
        (Check((0, 1), np.int64(9), Fraction(1, 3)), "int bitsets"),
        (Check((0, 1), True, Fraction(1, 3)), "int bitsets"),
        (Check((0, 1), 9, 0.5), "ints or Fractions"),
        (Check((0, 1), 9, np.int64(1)), "ints or Fractions"),
        (Check((0, 1), 9, True), "ints or Fractions"),
    ]:
        for checks in [(bad, good, good), (good, bad, good), (good, good, bad)]:
            with pytest.raises(DomainError, match=what):
                Tester(BIN, 2, 2, checks)


@pytest.mark.parametrize("n, q, checks", [(2.0, 2, ()), (2, True, ()), (2, 2, [])])
def test_tester_refuses_n_q_and_checks_of_other_types(n, q, checks):
    # `dumps` could not write them, or wrote what reads back unequal
    with pytest.raises(DomainError, match="must be ints"):
        Tester(BIN, n, q, checks)


def test_accept_bitset_size_cap():
    # alphabet^arity is capped at 2^24 bits per check
    with pytest.raises(CapacityError):
        Tester(BIN, 1, 25, (Check((0,) * 25, 1, Fraction(1)),))


def test_accept_roundtrip():
    tuples = [(0, 1), (2, 0)]
    accept = accept_from_tuples(tuples, 3)
    assert sorted(tuples_from_accept(accept, 3, 2)) == sorted(tuples)


@given(st.integers(min_value=0, max_value=2**9 - 1))
def test_accept_bitset_roundtrip_random(bits):
    got = accept_from_tuples(tuples_from_accept(bits, 3, 2), 3)
    assert got == bits


@pytest.mark.parametrize("size, arity", [(3, 2), (2, 5), (300, 2)])
def test_tuples_from_accept_in_index_order(size, arity):
    idx = sorted(random.Random(size).sample(range(size**arity), min(20, size**arity)))
    accept = sum(1 << i for i in idx)
    assert tuples_from_accept(accept, size, arity) == [decode_tuple(i, size, arity) for i in idx]


@pytest.mark.parametrize("size, arity", [(2, 1), (3, 3), (5, 2), (2, 12)])
def test_tuples_from_accept_is_the_codec(size, arity):
    # The full accept set decodes to every tuple at its index.
    table = tuples_from_accept(full_accept(size, arity), size, arity)
    assert len(table) == size**arity
    assert all(t == decode_tuple(i, size, arity) and encode_tuple(t, size) == i for i, t in enumerate(table))


@st.composite
def _accept_sets(draw):
    """(size, arity, accept): any bitset over size**arity tuples, the empty
    and the full set among them."""
    size, arity = draw(st.integers(2, 5)), draw(st.integers(1, 4))
    table = size**arity
    accept = draw(st.sampled_from([0, (1 << table) - 1]) | st.integers(0, (1 << table) - 1))
    return size, arity, accept


@settings(max_examples=200, deadline=None)
@given(_accept_sets())
@example((2, 1, 0))
@example((5, 4, (1 << 625) - 1))
def test_accept_index_codec_roundtrip(case):
    size, arity, accept = case
    indices = indices_from_accept(accept)
    assert indices == [i for i in range(size**arity) if accept >> i & 1]
    assert accept_from_indices(indices) == accept
    tuples = tuples_from_accept(accept, size, arity)
    assert tuples == [decode_tuple(i, size, arity) for i in indices]
    assert accept_from_tuples(tuples, size) == accept


@given(st.lists(st.integers(0, 700), max_size=40))
def test_accept_from_indices_takes_any_order_and_repeats(indices):
    reference = 0
    for i in indices:
        reference |= 1 << i
    assert accept_from_indices(indices) == reference
    assert indices_from_accept(reference) == sorted(set(indices))


_HANG_SCRIPT = """
from fractions import Fraction
from ltcforge.codes import Alphabet, repetition_code
from ltcforge.testers import Check, Tester, accept_from_tuples, soundness_exact, soundness_sampled
A = Alphabet.plain(5)
diag = accept_from_tuples([(a, a) for a in range(5)], 5)
t = Tester(A, 5, 2, tuple(Check((i, i + 1), diag, Fraction(2**61)) for i in range(4)))
code = repetition_code(A, 5)
exact = soundness_exact(t, code)
sampled = soundness_sampled(t, code, 1000, 7)
print(exact.value.numerator, exact.value.denominator, *exact.witness.letters)
print(int(sampled.value >= exact.value))
"""


def test_soundness_large_numerators_terminate():
    # Weights 2**61 with denominator 1: the scores reach 2**63, past int64.
    # A guard on the denominator alone lets them wrap and the minimizer
    # search loop forever, so both engines run in a child under a timeout.
    import os
    import subprocess
    import sys
    from pathlib import Path

    import ltcforge

    env = dict(os.environ, PYTHONPATH=str(Path(ltcforge.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", _HANG_SCRIPT],
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    exact_line, sampled_line = proc.stdout.split("\n")[:2]
    assert exact_line.split() == [str(5 * 2**60), "1", "0", "0", "0", "1", "1"]
    assert sampled_line == "1"


def _permuted(check: Check, size: int, perm: tuple[int, ...]) -> Check:
    """The same predicate with its queries listed in another order."""
    tuples = tuples_from_accept(check.accept, size, check.arity)
    accept = accept_from_tuples([tuple(t[i] for i in perm) for t in tuples], size)
    return Check(tuple(check.queries[i] for i in perm), accept, check.weight)


@st.composite
def _weighted_instances(draw, sizes=st.integers(2, 3), lengths=st.integers(1, 5)):
    """Arity up to 3 with repeated and permuted positions, pad_check-padded
    and always-accept checks, weights up to 2**70, and a scan chunk of a
    few words so that most scans hoist a prefix."""
    size = draw(sizes)
    n = draw(lengths)
    alphabet = Alphabet.plain(size)
    words = st.tuples(*[st.integers(0, size - 1)] * n)
    codewords = draw(st.sets(words, min_size=1, max_size=4))
    checks = []
    for _ in range(draw(st.integers(1, 6))):
        arity = draw(st.integers(1, 3))
        queries = tuple(draw(st.integers(0, n - 1)) for _ in range(arity))
        kind = draw(st.sampled_from(["plain", "always", "padded", "permuted"]))
        if kind == "always":
            accept = full_accept(size, arity)
        else:
            accepted = draw(st.sets(st.tuples(*[st.integers(0, size - 1)] * arity)))
            accept = accept_from_tuples(accepted, size)
        weight = Fraction(draw(st.integers(1, 2**70)), draw(st.integers(1, 2**66)))
        check = Check(queries, accept, weight)
        if kind == "padded":
            check = pad_check(check, 3, size)
        elif kind == "permuted":
            checks.append(check)
            check = _permuted(check, size, tuple(draw(st.permutations(range(arity)))))
        checks.append(check)
    tester = Tester(alphabet, n, 3, tuple(checks))
    return tester, Code(alphabet, n, tuple(sorted(codewords))), draw(st.integers(1, 30))


# Binary words of up to 8 letters: the grid's fused last axis takes 6
# positions (2**6 = FUSED cells), so grids wider than it, as wide as it and
# narrower, after a fixed prefix, all occur.
_BINARY_INSTANCES = _weighted_instances(st.just(2), st.integers(5, 8))


def _ever_rejects(check: Check, size: int) -> bool:
    """Whether some assignment of letters to the queried positions rejects."""
    support = sorted(set(check.queries))
    for letters in itertools.product(range(size), repeat=len(support)):
        at = dict(zip(support, letters))
        if not check.accepts([at[pos] for pos in check.queries], size):
            return True
    return False


@st.composite
def _planted_cut_instances(draw):
    """Checks that read the planted cut and at most one of the groups the
    other positions fall into: plain, always-accept and padded checks,
    weights up to 2**70, up to 8 codewords, several of them sharing their
    first letters, positions no check reads, and a scan chunk of a few
    words.  Some checks read the cut's first position and a group position
    after it, so a chunk's prefix and its grid."""
    size = draw(st.integers(2, 3))
    n = draw(st.integers(2, 7))
    alphabet = Alphabet.plain(size)
    positions = draw(st.permutations(range(n)))
    cut = sorted(positions[: draw(st.integers(0, min(3, n)))])
    groups = [[] for _ in range(draw(st.integers(1, 3)))]
    for pos in positions[len(cut) :]:
        groups[draw(st.integers(0, len(groups) - 1))].append(pos)
    checks = []
    for _ in range(draw(st.integers(1, 6))):
        scope = cut + draw(st.sampled_from(groups))
        if not scope:
            continue
        arity = draw(st.integers(1, 3))
        queries = [draw(st.sampled_from(scope)) for _ in range(arity)]
        if arity > 1 and cut and len(scope) > len(cut) and draw(st.booleans()):
            # reads the cut and a group, not always in that order
            at_cut = cut[0] if draw(st.booleans()) else draw(st.sampled_from(cut))
            queries[0], queries[-1] = draw(st.sampled_from(scope[len(cut) :])), at_cut
        queries = tuple(queries)
        kind = draw(st.sampled_from(["plain", "always", "padded"]))
        if kind == "always":
            accept = full_accept(size, arity)
        else:
            accepted = draw(st.sets(st.tuples(*[st.integers(0, size - 1)] * arity)))
            accept = accept_from_tuples(accepted, size)
        huge = draw(st.booleans())
        weight = Fraction(draw(st.integers(1, 2**70 if huge else 4)), draw(st.integers(1, 4)))
        check = Check(queries, accept, weight)
        checks.append(pad_check(check, 3, size) if kind == "padded" else check)
    # up to 8 codewords, each a stem of `share` first letters and a tail,
    # so that codewords drawn from one stem agree on a prefix
    share = draw(st.integers(0, n))
    stems = draw(st.lists(st.tuples(*[st.integers(0, size - 1)] * share), min_size=1, max_size=3))
    tails = st.tuples(*[st.integers(0, size - 1)] * (n - share))
    codewords = {stem + draw(tails) for stem in draw(st.lists(st.sampled_from(stems), min_size=1, max_size=8))}
    code = Code(alphabet, n, tuple(sorted(codewords)))
    return Tester(alphabet, n, 3, tuple(checks)), code, draw(st.integers(1, 40))


# Chunks of two words fix positions 0 and 1 as the prefix, and the one check
# reads position 0 across to the grid {2}: outside the code, 101 is the
# first word it accepts, while a chunk reading the prefix as 0 would accept
# 100.
_PREFIX_CROSS = (
    Tester(BIN, 3, 3, (Check((2, 0), accept_from_tuples([(0, 0), (1, 1)], 2), Fraction(1)),)),
    Code(BIN, 3, ((0, 0, 0), (0, 1, 0))),
    2,
)


@given(st.one_of(_weighted_instances(), _planted_cut_instances(), _BINARY_INSTANCES))
@example(_PREFIX_CROSS)
def test_soundness_exact_matches_reference_minimum(instance):
    # Weights up to 2**70 over denominators up to 2**66 drive the object
    # dtype branch as well as the int64 one; chunks of a few words make
    # most scans fix a prefix.
    tester, code, chunk = instance
    size = tester.alphabet.size
    compiled, _, _ = testers._compiled_checks(tester)
    live = {tuple(sorted(set(ch.queries))) for ch in tester.checks if _ever_rejects(ch, size)}
    assert sorted(s for s, _ in compiled) == sorted(live)
    ratios = [
        (reject_probability(tester, w) / dist_to_code(w, code), w.letters)
        for w in (Word(tester.alphabet, t) for t in itertools.product(range(size), repeat=tester.n))
        if not code.contains(w.letters)
    ]
    whole = soundness_exact(tester, code)
    with mock.patch.object(testers, "CHUNK", chunk):
        chunked = soundness_exact(tester, code)
    assert chunked == whole
    if not ratios:
        assert whole.infinite
        return
    best = min(r for r, _ in ratios)
    assert whole.value == best
    assert whole.witness.letters == min(letters for r, letters in ratios if r == best)
    sampled = soundness_sampled(tester, code, 50, 1)
    assert sampled.value >= best
    assert sampled.value == reject_probability(tester, sampled.witness) / dist_to_code(
        sampled.witness, code
    )


# A chunk of at most 7 words fixes positions 0 and 1 (5 codewords' rows
# leave a grid of 2 positions): 0000 and 0011 share the prefix 00, 1100 and
# 1111 the prefix 11, and 0101 has its own.  0001 is at distance 1 from the
# code, but a row shared by 0000, 0011 and 0101 (their first letter alone)
# would put it at 0.
_SHARED_PREFIXES = (
    equality_tester(BIN, 4),
    Code(BIN, 4, ((0, 0, 0, 0), (0, 0, 1, 1), (0, 1, 0, 1), (1, 1, 0, 0), (1, 1, 1, 1))),
    7,
)


@settings(deadline=None)
@given(st.one_of(_weighted_instances(), _planted_cut_instances(), _BINARY_INSTANCES))
@example(_PREFIX_CROSS)
@example(_SHARED_PREFIXES)
def test_scan_matches_brute_force(instance):
    # The scan engine on its own, with the default chunk, with a chunk of a
    # few words, and with one of fewer words than the space, which fixes a
    # prefix of at least one position, so that codewords agreeing there
    # share a mismatch row: it gives the least ratio over all words outside
    # the code and the first word of that ratio, or None when every word is
    # a codeword.
    tester, code, chunk = instance
    size, n = tester.alphabet.size, tester.n
    compiled, den, dtype = testers._compiled_checks(tester)
    ratios = [
        (reject_probability(tester, w) / dist_to_code(w, code), w.letters)
        for w in (Word(tester.alphabet, t) for t in itertools.product(range(size), repeat=n))
        if not code.contains(w.letters)
    ]
    for cells in (testers.CHUNK, chunk, min(chunk, size ** (n - 1))):
        with mock.patch.object(testers, "CHUNK", cells):
            best = testers._least_ratio(compiled, dtype, size, n, code.codewords)
        if not ratios:
            assert best is None
            continue
        least = min(r for r, _ in ratios)
        rej, mism, widx = best
        assert Fraction(rej * n, den * mism) == least
        assert decode_tuple(widx, size, n)[::-1] == min(w for r, w in ratios if r == least)


def _reference_compiled(tester: Tester):
    """The (support, LUT) entries and the denominator, check by check in
    pure Python: each check's reject row over its sorted support, added to
    the support's running row, supports in order of their first check that
    can reject."""
    size = tester.alphabet.size
    den = math.lcm(*(ch.weight.denominator for ch in tester.checks))
    tables = {}
    for ch in tester.checks:
        support = tuple(sorted(set(ch.queries)))
        row = []
        for cell in range(size ** len(support)):
            at = {pos: cell // size**m % size for m, pos in enumerate(support)}
            row.append(0 if ch.accepts([at[pos] for pos in ch.queries], size) else int(ch.weight * den))
        if any(row):
            tables[support] = [a + b for a, b in zip(tables[support], row)] if support in tables else row
    return list(tables.items()), den


_REPEATED_READS = Tester(
    Alphabet.plain(3),
    3,
    3,
    (
        Check((2, 0), accept_from_tuples([(0, 0), (1, 2)], 3), Fraction(1, 5)),
        Check((0, 2), accept_from_tuples([(0, 0), (1, 2)], 3), Fraction(1, 5)),  # same support, other reading
        Check((2, 0), accept_from_tuples([(a, a) for a in range(3)], 3), Fraction(1, 5)),  # repeated reading
        Check((1,), full_accept(3, 1), Fraction(1, 5)),  # never rejects
        pad_check(Check((1, 0), accept_from_tuples([(2, 1)], 3), Fraction(1, 5)), 3, 3),  # (1, 0, 1)
    ),
)


@given(st.one_of(_weighted_instances(), _planted_cut_instances()).map(lambda instance: instance[0]))
@example(_REPEATED_READS)
def test_compiled_checks_match_a_per_check_reference(tester):
    # Permuted, padded and repeated query tuples, never-rejecting checks and
    # weights up to 2**70 (object arrays): the same supports in the same
    # order, the same LUTs, and every LUT in the dtype the rule picks.
    compiled, den, dtype = testers._compiled_checks(tester)
    reference, want_den = _reference_compiled(tester)
    most = max(sum(int(ch.weight * den) for ch in tester.checks), 1) * tester.n
    assert dtype == next((t for t in testers.SCORE_DTYPES if most < 1 << np.iinfo(t).bits - 2), object)
    assert den == want_den
    assert [(s, lut.tolist()) for s, lut in compiled] == reference
    assert all(lut.dtype == dtype for _, lut in compiled)


def _select_reference(rej, mism):
    """(rej, mism, index) of the first entry of least rej / mism among those
    with mism > 0, or None."""
    ratios = [(Fraction(r, m), i) for i, (r, m) in enumerate(zip(rej, mism)) if m > 0]
    if not ratios:
        return None
    _, i = min(ratios)
    return rej[i], mism[i], i


@settings(max_examples=300)
@given(st.sampled_from([np.int16, object]), st.data())
def test_select_over_chunks_matches_brute_force(dtype, data):
    # Small numerators and counts make zero ratios, codewords (mism 0, often
    # with rej 0) and ties across chunks common; object arrays take scores
    # past 2**64.  Cut at arbitrary points, the chunks carry the running
    # best and end at the first least ratio of the whole array.
    count = data.draw(st.integers(1, 30))
    mism = data.draw(st.lists(st.integers(0, 3), min_size=count, max_size=count))
    scale = 2**70 if dtype is object else 1
    rej = [r * scale for r in data.draw(st.lists(st.integers(0, 6), min_size=count, max_size=count))]
    cuts = sorted(data.draw(st.sets(st.integers(1, count - 1)))) if count > 1 else []
    best = None
    for lo, hi in zip([0] + cuts, cuts + [count]):
        best = testers._select(best, np.array(rej[lo:hi], dtype=dtype), np.array(mism[lo:hi], dtype=np.uint8), lo)
    assert best == _select_reference(rej, mism)


def test_compiled_checks_one_entry_per_support():
    size = 3
    diag = accept_from_tuples([(a, a) for a in range(size)], size)
    odd = accept_from_tuples([(0, 1), (2, 2)], size)
    checks = (
        Check((0, 2), odd, Fraction(1, 8)),
        _permuted(Check((0, 2), odd, Fraction(1, 8)), size, (1, 0)),  # same predicate, (2, 0)
        pad_check(Check((1, 2), diag, Fraction(1, 4)), 3, size),  # (1, 2, 1)
        Check((2, 1), diag, Fraction(1, 4)),
        Check((1, 1), diag, Fraction(1, 8)),  # always accepts: reads one letter twice
        Check((0, 1), full_accept(size, 2), Fraction(1, 8)),
    )
    tester = Tester(Alphabet.plain(size), 3, 3, checks)
    compiled, den, dtype = testers._compiled_checks(tester)
    assert [s for s, _ in compiled] == [(0, 2), (1, 2)]
    # numerators 1, 1, 2, 2, 1, 1 over 8 sum to 8, and 8 * n = 24 < 2**14
    assert (den, dtype) == (8, np.int16)
    (_, lut02), (_, lut12) = compiled
    # entry a + 3b: letters a at the first support position, b at the second
    assert lut02.tolist() == [2 * (cell not in (0 + 3 * 1, 2 + 3 * 2)) for cell in range(9)]
    assert lut12.tolist() == [4 * (cell % 3 != cell // 3) for cell in range(9)]


def _chain_of_weights(weights: list[int]):
    """Binary equality checks on consecutive positions with the given
    integer weights (denominator 1), n = len(weights) + 1, and the
    repetition code."""
    diag = accept_from_tuples([(0, 0), (1, 1)], 2)
    checks = tuple(Check((i, i + 1), diag, Fraction(w)) for i, w in enumerate(weights))
    n = len(weights) + 1
    return Tester(BIN, n, 2, checks), repetition_code(BIN, n)


# (weights, dtype): sum(weights) * n is 2**14 - 1 = 3 * 5461, 2**14 = 4 * 2**12,
# 2**30 - 1 = 3 * 357913941 and 2**30 = 4 * 2**28.
@pytest.mark.parametrize(
    "weights, dtype",
    [
        ([1, 5460], np.int16),
        ([1, 1, 2**12 - 2], np.int32),
        ([1, 357913940], np.int32),
        ([1, 1, 2**28 - 2], np.int64),
    ],
)
def test_score_dtype_is_the_narrowest_with_two_bits_of_headroom(weights, dtype):
    # Scores rej * mism reach sum(numerators) * n: a dtype of b bits is
    # taken while that stays below 2**(b - 2), and both engines give the
    # brute-force value and witness in it.
    tester, code = _chain_of_weights(weights)
    compiled, den, got = testers._compiled_checks(tester)
    assert (den, got) == (1, dtype)
    value, letters = _brute_force(tester, code)
    for bound in (None, value / 2):
        report = soundness_exact(tester, code, bound=bound)
        assert (report.value, report.witness.letters) == (value, letters)


_TIERS = {"int16": (np.int16,), "int32": (np.int32,), "int64": (np.int64,), "object": ()}


@settings(max_examples=60, deadline=None)
@given(st.one_of(_weighted_instances(), _planted_cut_instances(), _BINARY_INSTANCES), st.data())
def test_every_score_dtype_gives_the_same_value_and_witness(instance, data):
    # Small weights fit every tier; forcing each one in turn, the scan and
    # the prune ladder give the same value and witness as the brute force.
    tester, code, _ = instance
    weights = [Fraction(data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))) for _ in tester.checks]
    tester = replace(tester, checks=tuple(replace(ch, weight=w) for ch, w in zip(tester.checks, weights)))
    best = _brute_force(tester, code)
    if best is None:
        return
    for tier, dtypes in _TIERS.items():
        with mock.patch.object(testers, "SCORE_DTYPES", dtypes):
            assert testers._compiled_checks(tester)[2] == (dtypes[0] if dtypes else object), tier
            scan = soundness_exact(tester, code)
            ladder = soundness_exact(tester, code, bound=best[0] / 2 or Fraction(1, 7))
        assert (scan.engine, scan.value, scan.witness.letters) == ("scan", *best), tier
        assert (ladder.engine, ladder.value, ladder.witness.letters) == ("prune", *best), tier


@given(st.one_of(_weighted_instances(), _BINARY_INSTANCES), st.data())
def test_grid_sum_matches_gathered_numerators(instance, data):
    # The broadcast numerators over the grid of some positions, in any axis
    # order, the others fixed, equal the per-word LUT gathers the sampler
    # makes; short grids leave supports wholly among the fixed positions,
    # and binary grids of 7 or 8 axes keep outer axes beside the fused one.
    tester, _, _ = instance
    if data.draw(st.booleans()):  # small equal weights: the int64 dtype
        weight = Fraction(1, len(tester.checks))
        tester = replace(tester, checks=tuple(replace(ch, weight=weight) for ch in tester.checks))
    size, n = tester.alphabet.size, tester.n
    compiled, _, dtype = testers._compiled_checks(tester)
    axes = data.draw(st.permutations(range(n)))[: data.draw(st.integers(0, n))]
    fixed = {pos: data.draw(st.integers(0, size - 1)) for pos in range(n) if pos not in axes}
    cells = size ** len(axes)
    grid = np.indices((size,) * len(axes)).reshape(len(axes), cells)
    digits = [grid[axes.index(pos)] if pos in axes else np.full(cells, fixed[pos]) for pos in range(n)]
    want = testers._reject_numerators(compiled, digits, size, dtype, cells)
    got = testers._grid_sum(compiled, size, axes, fixed, dtype)
    assert got.dtype == dtype and got.shape == (size,) * len(axes)
    assert got.reshape(-1).tolist() == want.tolist()


@pytest.mark.parametrize("dtype", [np.int64, object])
def test_select_decides_equal_float_ratios_exactly(dtype):
    # Both ratios round to 2**59 in float64, but (2**60 + 1) / 2 is the
    # smaller; every score stays below 2**62, as the int64 dtype rule keeps it.
    rej, mism = np.array([2**59 + 1, 2**60 + 1], dtype=dtype), np.array([1, 2], dtype=np.uint8)
    assert float(rej[0]) / 1 == float(rej[1]) / 2
    assert testers._select(None, rej, mism, 0) == (2**60 + 1, 2, 1)
    assert testers._select(None, rej, mism, 5) == (2**60 + 1, 2, 6)
    # across chunks, a strictly smaller ratio replaces
    first = testers._select(None, rej[:1], mism[:1], 0)
    assert testers._select(first, rej[1:], mism[1:], 1) == (2**60 + 1, 2, 1)


def test_select_first_hit_keeps_the_earliest_equal_ratio_across_chunks():
    # Ratios -, 2, 2: the first hit is word 1; a later chunk's equal ratio
    # never replaces it, a smaller one does.
    first = testers._select(None, np.array([3, 2, 6]), np.array([0, 1, 3]), 0)
    assert first == (2, 1, 1)
    assert testers._select(first, np.array([4, 4]), np.array([2, 2]), 3) == (2, 1, 1)
    assert testers._select(first, np.array([4, 3]), np.array([2, 2]), 3) == (3, 2, 4)


def test_grid_width_keeps_hoisted_rows_within_a_chunk_of_digits():
    # 2^18 words per chunk at n = 20: two rows alive fit a grid of 2^18,
    # 201 rows shrink it until 2^k * 201 <= 2^18 * 20.
    assert testers._grid_width(2, 20, 2) == 18
    assert testers._grid_width(2, 20, 201) == 14
    assert testers._grid_width(3, 5, 2) == 5
    assert testers._grid_width(2**18 + 1, 2, 2) == 1


def _multichunk_instance():
    """40 arity-3 checks on 12 random supports over {0,1,2}^12, each
    accepting the repetition code."""
    rng = random.Random(2029)
    alphabet = Alphabet.plain(3)
    supports = [tuple(rng.sample(range(12), 3)) for _ in range(12)]
    checks = []
    for _ in range(40):
        accepted = {(a, a, a) for a in range(3)}
        accepted |= {tuple(rng.randrange(3) for _ in range(3)) for _ in range(rng.randint(2, 8))}
        checks.append(Check(rng.choice(supports), accept_from_tuples(accepted, 3), Fraction(1, 40)))
    return Tester(alphabet, 12, 3, tuple(checks)), repetition_code(alphabet, 12)


def test_soundness_exact_across_chunks():
    # 3^12 = 531,441 words span three chunks of 3^11; value and witness
    # were taken from the per-word digit scan this kernel replaced.
    tester, code = _multichunk_instance()
    assert 3**12 > testers.CHUNK
    report = soundness_exact(tester, code)
    assert report.value == Fraction(3, 5)
    assert report.witness.letters == (2, 1, 2, 2, 1, 1, 0, 0, 1, 2, 0, 0)
    again = reject_probability(tester, report.witness) / dist_to_code(report.witness, code)
    assert again == report.value


def test_soundness_exact_alphabet_wider_than_a_chunk():
    # One letter already exceeds a chunk: the grid keeps one position.
    alphabet = Alphabet.plain(2**18 + 1)
    tester = Tester(alphabet, 1, 1, (Check((0,), 1, Fraction(1)),))
    start = time.perf_counter()
    report = soundness_exact(tester, Code(alphabet, 1, ((0,),)))
    assert time.perf_counter() - start < 5
    assert report.value == 1 and report.witness.letters == (1,)


def _brute_force(tester: Tester, code: Code):
    """(least ratio, lexicographically least word of that ratio) over the
    non-codewords, in pure Python; None when every word is a codeword."""
    words = (Word(tester.alphabet, t) for t in itertools.product(range(tester.alphabet.size), repeat=tester.n))
    ratios = [
        (reject_probability(tester, w) / dist_to_code(w, code), w.letters) for w in words if not code.contains(w.letters)
    ]
    return min(ratios, default=None)


# Ratio 0: the one check reads positions 0 and 1 only, so 001 is never
# rejected; the ladder's first pass leaves it.
_ZERO_VALUE = (
    Tester(BIN, 3, 2, (Check((0, 1), accept_from_tuples([(0, 0), (1, 1)], 2), Fraction(1)),)),
    Code(BIN, 3, ((0, 0, 0), (1, 1, 1))),
)
# Ratio 2/3 at 0011 and at 1100, prefixes that part at the first letter;
# the witness is the lexicographically least.
_TIES_ACROSS_PREFIXES = (equality_tester(BIN, 4), repetition_code(BIN, 4))


def _parity_beside_equality(size: int, n: int):
    """The equality tester plus a parity check on all n positions, whose
    LUT index reaches size**n - 1, with the repetition code."""
    alphabet = Alphabet.plain(size)
    words = itertools.product(range(size), repeat=n)
    parity = Check(tuple(range(n)), accept_from_tuples([w for w in words if sum(w) % size == 0], size), Fraction(1))
    return Tester(alphabet, n, n, equality_tester(alphabet, n).checks + (parity,)), repetition_code(alphabet, n)


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(_weighted_instances(), _planted_cut_instances()).map(lambda instance: instance[:2]),
    st.sampled_from(["below", "at", "above"]),
)
@example(_ZERO_VALUE, "at")
@example(_TIES_ACROSS_PREFIXES, "below")
@example(_TIES_ACROSS_PREFIXES, "above")
# Letters fit uint8, LUT indices do not: a uint8 letter term would wrap
# (6 * 7**2 = 294), or could not hold size**(n - 1) at all (2**8).
@example(_parity_beside_equality(7, 3), "below")
@example(_parity_beside_equality(3, 6), "below")
@example(_parity_beside_equality(9, 3), "below")
@example(_parity_beside_equality(2, 9), "below")
@example(_parity_beside_equality(4, 5), "below")
@example(_parity_beside_equality(3, 7), "below")
def test_prune_ladder_matches_brute_force(instance, where):
    # One pass at the value leaves no word, and one just above it leaves
    # the minimiser; with a bound below, at or above the value, the ladder
    # gives the least ratio and the lexicographically least word of that
    # ratio.  Weights up to 2**70 drive the object dtype, and the instances
    # carry padded and always-accept checks.
    tester, code = instance
    best = _brute_force(tester, code)
    if best is None:  # the code fills the space: the scan decides
        assert soundness_exact(tester, code, bound=Fraction(1)).infinite
        return
    value, letters = best
    size, n = tester.alphabet.size, tester.n
    compiled, den, dtype = testers._compiled_checks(tester)
    below = testers._prune_ratio(compiled, dtype, den, size, n, code.codewords, 2**26)
    if value:
        assert below(value) is None
    rn, mm, got = below(value + Fraction(1, 2**20))
    assert (Fraction(rn * n, den * mm), got) == (value, letters)
    bound = {"below": value / 2, "at": value, "above": 2 * value + Fraction(1, 3)}[where] or Fraction(1, 7)
    report = soundness_exact(tester, code, bound=bound)
    assert (report.engine, report.value, report.witness.letters) == ("prune", value, letters)
    assert report.verdict == ("pass" if value >= bound else "fail")


@settings(deadline=None)
@given(st.one_of(_weighted_instances(), _planted_cut_instances()), st.booleans())
def test_accepted_words_match_a_brute_force_filter(instance, equal):
    # The prefix kernel with no codewords and a ceiling of 1 keeps the words
    # no check rejects, in lexicographic order: with weights up to 2**70
    # (object arrays), with equal weights, whose numerators of 1 a ceiling
    # read as <= would keep, and with a chunk of a few cells, which gathers
    # the supports closing at one depth in several blocks.
    tester, _, chunk = instance
    if equal and tester.checks:
        weight = Fraction(1, len(tester.checks))
        tester = replace(tester, checks=tuple(replace(ch, weight=weight) for ch in tester.checks))
    words = itertools.product(range(tester.alphabet.size), repeat=tester.n)
    brute = [w for w in words if reject_probability(tester, Word(tester.alphabet, w)) == 0]
    assert accepted_words(tester) == brute
    with mock.patch.object(testers, "CHUNK", chunk):
        assert accepted_words(tester) == brute


def test_accepted_words_frontier_is_capped_at_the_budget():
    # Without checks every prefix lives: the last depth grows 2**9 prefixes
    # into 2**9 * |alphabet| * n = 10,240 cells.  With no positions the list is empty.
    free = Tester(BIN, 10, 1, ())
    with pytest.raises(CapacityError) as exc:
        accepted_words(free, budget=10_239)
    assert exc.value.required == 10_240
    assert accepted_words(free, budget=10_240) == list(itertools.product(range(2), repeat=10))
    assert accepted_words(Tester(BIN, 0, 1, ())) == []


def test_prune_ladder_overflow_falls_back_to_the_plan():
    # A bound far above the value leaves every word in the first pass, so
    # the frontier passes a small budget and the scan decides, as it does
    # without a bound when |alphabet|^n fits the budget; where it does not,
    # the ladder overflows with or without a bound, and both raise the same
    # CapacityError.
    tester, code = equality_tester(BIN, 10), repetition_code(BIN, 10)
    plain = soundness_exact(tester, code, budget=2**11)
    bounded = soundness_exact(tester, code, budget=2**11, bound=Fraction(100))
    assert replace(bounded, bound=None) == plain and plain.engine == "scan"
    assert bounded.verdict == "fail"
    assert soundness_exact(tester, code, budget=2**12, bound=plain.value / 2).engine == "prune"
    errors = []
    for bound in (None, Fraction(100)):
        with pytest.raises(CapacityError) as err:
            soundness_exact(tester, code, budget=16, bound=bound)
        errors.append(str(err.value))
    assert errors[0] == errors[1]


def test_prune_ladder_needs_a_positive_bound():
    # Without a bound, or with one of 0, on a space within the budget, the
    # scan runs.
    assert soundness_exact(EQ2, REP2).engine == "scan"
    zero = soundness_exact(EQ2, REP2, bound=Fraction(0))
    assert (zero.engine, zero.value, zero.verdict) == ("scan", 2, "pass")


@pytest.mark.parametrize("weight, dtype", [(2**61 - 1, np.int64), (2**61, object)])
def test_prune_comparison_cannot_wrap(weight, dtype):
    # One equality check of integer weight W on two binary positions: 01
    # and 10 reject W at distance 1 of n = 2, so the value is 2W.  Scores
    # reach 2W, just below 2**62 (int64) or at it (object dtype).  The
    # pruning test rej * n * t.den < t.num * den * dist, multiplied out at
    # thresholds of denominator 2**16, passes 2**78: the kernel compares rej
    # with a table of ceilings instead, so both sides of the dtype rule give
    # the value exactly, from a bound just below and just above it.
    tester = Tester(BIN, 2, 2, (Check((0, 1), accept_from_tuples([(0, 0), (1, 1)], 2), Fraction(weight)),))
    compiled, den, got = testers._compiled_checks(tester)
    assert got == dtype
    value = Fraction(2 * weight)
    for bound in (value - Fraction(1, 2**16), value + Fraction(1, 2**16)):
        assert weight * 2 * bound.denominator >= 2**63
        report = soundness_exact(tester, REP2, bound=bound)
        assert (report.engine, report.value, report.witness.letters) == ("prune", value, (0, 1))


_LONG_CHAIN_SCRIPT = """
from ltcforge.codes import Alphabet, repetition_code
from ltcforge.testers import equality_tester, soundness_exact
BIN = Alphabet.plain(2)
report = soundness_exact(equality_tester(BIN, 200), repetition_code(BIN, 200))
print(report.engine, report.value, "".join(map(str, report.witness.letters)))
"""


def test_unbounded_ladder_on_long_equality_chains():
    # Without a bound, 2^63, 2^64 and 2^65 words pass the budget, so the
    # ladder runs from the least check weight; one cut of the equality chain
    # at its middle is least, and the earliest such word has the longer run
    # of zeros.  2^200 words are certified too, in a child under a timeout.
    import os
    import subprocess
    import sys
    from pathlib import Path

    import ltcforge

    for n in (63, 64, 65):
        report = soundness_exact(equality_tester(BIN, n), repetition_code(BIN, n))
        half = n // 2
        assert report.engine == "prune"
        assert report.value == Fraction(n, (n - 1) * half)
        assert report.witness.letters == (0,) * (n - half) + (1,) * half
    env = dict(os.environ, PYTHONPATH=str(Path(ltcforge.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", _LONG_CHAIN_SCRIPT], capture_output=True, text=True, timeout=60, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["prune", "2/199", "0" * 100 + "1" * 100]


def test_unbounded_ladder_finds_a_zero_value_past_the_budget():
    # The equality chain on 40 positions without its last check never reads
    # position 39.  2^40 words pass the budget, and the ladder's first pass,
    # at the least check weight, leaves the words of ratio 0: the earliest
    # is 0^39 1.
    tester = Tester(BIN, 40, 2, equality_tester(BIN, 39).checks)
    report = soundness_exact(tester, repetition_code(BIN, 40))
    assert (report.engine, report.value, report.witness.letters) == ("prune", 0, (0,) * 39 + (1,))


# ---------------------------------------------------------------------------
# The scan's codeword rows and the prune pass's gathers, against brute force
# ---------------------------------------------------------------------------


def _least_by_scan(tester: Tester, code: Code):
    """`_least_ratio` as (ratio, word), or None."""
    size, n = tester.alphabet.size, tester.n
    compiled, den, dtype = testers._compiled_checks(tester)
    best = testers._least_ratio(compiled, dtype, size, n, code.codewords)
    if best is None:
        return None
    rej, mism, widx = best
    return Fraction(rej * n, den * mism), decode_tuple(widx, size, n)[::-1]


@st.composite
def _stemmed_instances(draw):
    """Up to 6 checks of arity 1-3 and small weights over {0,1}^n or
    {0,1,2}^n, n = 2-6, and 2-10 codewords drawn from 1-3 stems of shared
    first letters, so that both a one-chunk grid and the prefixes of a
    multi-chunk one see several codewords per prefix group and several
    groups."""
    size, n = draw(st.integers(2, 3)), draw(st.integers(2, 6))
    alphabet = Alphabet.plain(size)
    letters = st.integers(0, size - 1)
    checks = []
    for _ in range(draw(st.integers(1, 6))):
        arity = draw(st.integers(1, 3))
        queries = tuple(draw(st.integers(0, n - 1)) for _ in range(arity))
        accepted = draw(st.sets(st.tuples(*[letters] * arity)))
        checks.append(Check(queries, accept_from_tuples(accepted, size), Fraction(draw(st.integers(1, 5)))))
    share = draw(st.integers(1, n - 1))
    stems = draw(st.lists(st.tuples(*[letters] * share), min_size=1, max_size=3))
    tails = st.tuples(*[letters] * (n - share))
    codewords = {draw(st.sampled_from(stems)) + draw(tails) for _ in range(draw(st.integers(2, 10)))}
    return Tester(alphabet, n, 3, tuple(checks)), Code(alphabet, n, tuple(sorted(codewords)))


# The value is 2/3, at 0011.  1110 lies at distance 1 from 1111, the second
# codeword, and at 3 from the first: a one-chunk grid whose rows kept the
# first codeword alone would find the ratio 4/9 there.
_FAR_FIRST_CODEWORD = (equality_tester(BIN, 4), repetition_code(BIN, 4))


@settings(max_examples=150, deadline=None)
@given(_stemmed_instances())
@example(_FAR_FIRST_CODEWORD)
@example(_SHARED_PREFIXES[:2])
def test_scan_codeword_rows_match_brute_force(instance):
    # With the default chunk the grid is the whole word (one chunk, one
    # prefix group holding every codeword); with chunks of size**k words
    # for every k < n the prefixes split the codewords into groups, some
    # of several members and some of one.
    tester, code = instance
    size, n = tester.alphabet.size, tester.n
    want = _brute_force(tester, code)
    if instance == _FAR_FIRST_CODEWORD:
        assert want == (Fraction(2, 3), (0, 0, 1, 1))
    assert testers._grid_width(size, n, 2 + len(code.codewords)) >= n
    assert _least_by_scan(tester, code) == want
    for k in range(1, n):
        with mock.patch.object(testers, "CHUNK", size**k):
            assert _least_by_scan(tester, code) == want


# Eight supports of one to four positions close at position 3, so their
# gather pads every support but the widest with position 0 at place value
# 0; the arity-1 check on position 0 closes at depth 0.  At a threshold that
# keeps every prefix, depth 3 meets 8 prefixes of 2 letters: CHUNK = 16
# gathers one support at a time, 32 two, 48 three (blocks of 3, 3 and 2).
_CLOSING_AT_THREE = [(3,), (0, 3), (1, 3), (2, 3), (0, 1, 3), (1, 2, 3), (0, 2, 3), (0, 1, 2, 3)]


@st.composite
def _many_closing_instances(draw):
    """Random accept sets and weights on the supports above, plus an
    arity-1 check at position 0, over binary words of length 4."""
    checks = [Check((0,), draw(st.sampled_from([1, 2])), Fraction(draw(st.integers(1, 3))))]
    for support in _CLOSING_AT_THREE:
        queries = tuple(draw(st.permutations(support)))
        tuples = st.tuples(*[st.integers(0, 1)] * len(queries))
        accepted = draw(st.sets(tuples, min_size=1, max_size=2 ** len(queries) - 1))  # each can reject
        checks.append(Check(queries, accept_from_tuples(accepted, 2), Fraction(draw(st.integers(1, 5)))))
    codewords = draw(st.sets(st.tuples(*[st.integers(0, 1)] * 4), min_size=1, max_size=3))
    return Tester(BIN, 4, 4, tuple(checks)), Code(BIN, 4, tuple(sorted(codewords)))


def _ladder_at(tester: Tester, code: Code, threshold: Fraction):
    """The prune pass at `threshold` as (ratio, word), or None."""
    size, n = tester.alphabet.size, tester.n
    compiled, den, dtype = testers._compiled_checks(tester)
    below = testers._prune_ratio(compiled, dtype, den, size, n, code.codewords, 2**26)
    found = below(threshold)
    return None if found is None else (Fraction(found[0] * n, den * found[1]), found[2])


@settings(max_examples=120, deadline=None)
@given(_many_closing_instances())
def test_prune_gathers_in_blocks_match_brute_force(instance):
    # Gathering the supports that close at one depth in blocks of 1, 2 or
    # 3, or all at once, with a full frontier and at the value, gives the
    # brute-force least ratio and earliest witness.
    tester, code = instance
    best = _brute_force(tester, code)
    everything = Fraction(10**6)  # above every ratio: nothing is pruned before depth n
    compiled, _, _ = testers._compiled_checks(tester)
    closing = [s for s, _ in compiled if s[-1] == 3]
    assert len(closing) == 8 and len({len(s) for s in closing}) == 4
    for chunk in (16, 32, 48, testers.CHUNK):
        with mock.patch.object(testers, "CHUNK", chunk):
            assert _ladder_at(tester, code, everything) == best
            if best is not None:
                assert _ladder_at(tester, code, best[0]) is None
                assert _ladder_at(tester, code, best[0] + Fraction(1, 2**20)) == best


def test_prune_closes_arity_one_supports_at_depth_zero():
    # Position 0 must read 1 (weight 3) and positions 0 and 1 must agree
    # (weight 1): the arity-1 support closes at depth 0, where no letter is
    # held yet, and the least ratio 2/3 of 01 outside the code {11} is found
    # by the pass, by the ladder from a bound below it and by the scan.
    tester = Tester(
        BIN,
        2,
        2,
        (
            Check((0,), accept_from_tuples([(1,)], 2), Fraction(3, 4)),
            Check((0, 1), accept_from_tuples([(0, 0), (1, 1)], 2), Fraction(1, 4)),
        ),
    )
    code = Code(BIN, 2, ((1, 1),))
    best = _brute_force(tester, code)
    assert best == (Fraction(1, 2), (1, 0))
    compiled, _, _ = testers._compiled_checks(tester)
    assert [s for s, _ in compiled] == [(0,), (0, 1)]
    for chunk in (1, 2, testers.CHUNK):
        with mock.patch.object(testers, "CHUNK", chunk):
            assert _ladder_at(tester, code, Fraction(10**6)) == best
            assert _ladder_at(tester, code, best[0]) is None
            report = soundness_exact(tester, code, bound=Fraction(1, 8))
            assert (report.engine, report.value, report.witness.letters) == ("prune", *best)
    assert _least_by_scan(tester, code) == best
