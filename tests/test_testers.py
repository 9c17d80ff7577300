"""Tester evaluation, exact and sampled soundness, classification."""

import itertools
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
    assert validate(tester, code).ok


def test_validate_rejected_codeword():
    bad = Code(BIN, 2, ((0, 1),))
    report = validate(EQ2, bad)
    assert not report.ok
    assert (0, (0, 1)) in report.violations


def test_validate_weight_sum():
    half = Check((0, 1), accept_from_tuples([(0, 0), (1, 1)], 2), Fraction(1, 2))
    tester = Tester(BIN, 2, 2, (half,))
    report = validate(tester, REP2)
    assert not report.ok and report.weight_sum == Fraction(1, 2)


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
        assert validate(tester, code).ok
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
    assert result.kind == "linear"
    assert result.subspace_bases == (((1, 1),),)


def test_classify_linear_not_elementary():
    alphabet = vector_alphabet(2, 1)
    zero_only = Check((0, 1), accept_from_tuples([(0, 0)], 2), Fraction(1))
    result = classify_linear(Tester(alphabet, 2, 2, (zero_only,)))
    assert result.kind == "linear"


def test_classify_nonlinear():
    alphabet = vector_alphabet(2, 1)
    accept = accept_from_tuples([(0, 0), (1, 1), (1, 0)], 2)
    result = classify_linear(Tester(alphabet, 2, 2, (Check((0, 1), accept, Fraction(1)),)))
    assert result.kind == "nonlinear"


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
def _weighted_instances(draw):
    """Arity up to 3 with repeated and permuted positions, pad_check-padded
    and always-accept checks, weights up to 2**70, and a scan chunk of a
    few words so that most scans hoist a prefix."""
    size = draw(st.integers(2, 3))
    n = draw(st.integers(1, 5))
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


def _ever_rejects(check: Check, size: int) -> bool:
    """Whether some assignment of letters to the queried positions rejects."""
    support = sorted(set(check.queries))
    for letters in itertools.product(range(size), repeat=len(support)):
        at = dict(zip(support, letters))
        if not check.accepts([at[pos] for pos in check.queries], size):
            return True
    return False


@given(_weighted_instances())
def test_soundness_exact_matches_reference_minimum(instance):
    # Weights up to 2**70 over denominators up to 2**66 drive the object
    # dtype branch as well as the int64 one.
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
    # CHUNK decides which plans are feasible, so it may change the engine
    # that runs, never what it finds
    assert replace(chunked, engine=whole.engine) == whole
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
    assert (den, dtype) == (8, np.int64)
    (_, lut02), (_, lut12) = compiled
    # entry a + 3b: letters a at the first support position, b at the second
    assert lut02.tolist() == [2 * (cell not in (0 + 3 * 1, 2 + 3 * 2)) for cell in range(9)]
    assert lut12.tolist() == [4 * (cell % 3 != cell // 3) for cell in range(9)]


@given(_weighted_instances(), st.data())
def test_grid_sum_matches_gathered_numerators(instance, data):
    # The broadcast numerators over the grid of some positions, in any axis
    # order, the others fixed, equal the per-word LUT gathers the sampler
    # makes; short grids leave supports wholly among the fixed positions.
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
    assert testers._select(None, rej, mism, np.array([5, 9])) == (2**60 + 1, 2, 9)
    # across chunks in first-hit mode, a strictly smaller ratio replaces
    first = testers._select(None, rej[:1], mism[:1], 0)
    assert testers._select(first, rej[1:], mism[1:], 1) == (2**60 + 1, 2, 1)


def test_select_first_hit_keeps_the_earliest_equal_ratio_across_chunks():
    # Ratios -, 2, 2: the first hit is word 1; a later chunk's equal ratio
    # never replaces it, a smaller one does.
    first = testers._select(None, np.array([3, 2, 6]), np.array([0, 1, 3]), 0)
    assert first == (2, 1, 1)
    assert testers._select(first, np.array([4, 4]), np.array([2, 2]), 3) == (2, 1, 1)
    assert testers._select(first, np.array([4, 3]), np.array([2, 2]), 3) == (3, 2, 4)


def test_select_separator_mode_takes_the_least_index_among_ties():
    # Ratios 2, 2, 2 at word indices 9, 4, 7; word 1 is a codeword (mism 0).
    rej, mism, index = np.array([2, 4, 6, 1]), np.array([1, 2, 3, 0]), np.array([9, 4, 7, 1])
    assert testers._select(None, rej, mism, index) == (4, 2, 4)
    assert testers._select((8, 4, 3), rej, mism, index) == (8, 4, 3)
    assert testers._select((8, 4, 5), rej, mism, index) == (4, 2, 4)
    assert testers._select((1, 1, 0), rej, mism, index) == (1, 1, 0)


def test_grouped_rows_match_numpy_unique():
    rows = np.random.default_rng(7).integers(0, 4, size=(500, 3)).astype(np.uint8)
    distinct, (order, starts, counts) = testers._grouped_rows(rows)
    want, inverse = np.unique(rows, axis=0, return_inverse=True)
    assert distinct.tolist() == want.tolist()
    assert starts.tolist() == np.concatenate(([0], np.cumsum(counts)[:-1])).tolist()
    # each group's row indices, ascending, in group order
    assert order.tolist() == np.argsort(inverse.reshape(-1), kind="stable").tolist()


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


@st.composite
def _planted_separator_instances(draw):
    """Checks that read the planted separator and at most one of the groups
    the other positions fall into: plain, always-accept and padded checks,
    weights up to 2**70, several codewords, and positions no check reads.
    Some cross checks read the separator's first position, and some chunk
    sizes fall below |alphabet|^|separator|, so that position lies in the
    prefix the chunks share."""
    size = draw(st.integers(2, 3))
    n = draw(st.integers(2, 7))
    alphabet = Alphabet.plain(size)
    positions = draw(st.permutations(range(n)))
    cut = draw(st.integers(0, min(3, n)))
    sep = sorted(positions[:cut])
    groups = [[] for _ in range(draw(st.integers(1, 3)))]
    for pos in positions[cut:]:
        groups[draw(st.integers(0, len(groups) - 1))].append(pos)
    checks = []
    for _ in range(draw(st.integers(1, 6))):
        scope = sep + draw(st.sampled_from(groups))
        if not scope:
            continue
        arity = draw(st.integers(1, 3))
        queries = [draw(st.sampled_from(scope)) for _ in range(arity)]
        if arity > 1 and sep and len(scope) > len(sep) and draw(st.booleans()):
            # reads the separator and a block, not always in that order
            at_sep = sep[0] if draw(st.booleans()) else draw(st.sampled_from(sep))
            queries[0], queries[-1] = draw(st.sampled_from(scope[len(sep) :])), at_sep
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
    words = st.tuples(*[st.integers(0, size - 1)] * n)
    codewords = draw(st.sets(words, min_size=1, max_size=4))
    code = Code(alphabet, n, tuple(sorted(codewords)))
    cells = size ** len(sep)
    chunk = st.integers(1, cells - 1) if cells > 2 and draw(st.booleans()) else st.integers(1, 40)
    return Tester(alphabet, n, 3, tuple(checks)), code, sep, draw(chunk)


# X = {0, 1} in chunks of one grid letter, so position 0 is the prefix, and
# the one check reads it across to the block {2}: outside the code, 101 is
# the first word it accepts, while a chunk reading the prefix as 0 would
# accept 100.
_PREFIX_CROSS = (
    Tester(BIN, 3, 3, (Check((2, 0), accept_from_tuples([(0, 0), (1, 1)], 2), Fraction(1)),)),
    Code(BIN, 3, ((0, 0, 0), (0, 1, 0))),
    [0, 1],
    2,
)


@given(_planted_separator_instances())
@example(_PREFIX_CROSS)
def test_separator_engine_matches_brute_force(instance):
    # The scan (X = every position, no blocks) must give the least ratio over
    # all words and the first word of that ratio; the engine on the planted
    # separator and on the cheapest one found must give the same value and
    # witness, also when a chunk of a few cells slices the separator
    # assignments.
    tester, code, planted, chunk = instance
    size, n = tester.alphabet.size, tester.n
    compiled, den, dtype = testers._compiled_checks(tester)
    supports = [s for s, _ in compiled]
    scan = testers._least_ratio(compiled, dtype, size, n, code.codewords, list(range(n)), [])
    ratios = [
        (reject_probability(tester, w) / dist_to_code(w, code), w.letters)
        for w in (Word(tester.alphabet, t) for t in itertools.product(range(size), repeat=n))
        if not code.contains(w.letters)
    ]
    report = soundness_exact(tester, code)
    assert (scan is None) == report.infinite == (not ratios)
    if ratios:
        least = min(r for r, _ in ratios)
        letters = decode_tuple(scan[2], size, n)[::-1]
        assert (Fraction(scan[0] * n, den * scan[1]), letters) == (least, min(w for r, w in ratios if r == least))
        assert (report.value, report.witness.letters) == (least, letters)
    adj = [sum(1 << p for p in {p for s in supports if pos in s for p in s}) for pos in range(n)]
    masks = testers._components(adj, (1 << n) - 1 - sum(1 << p for p in planted))
    blocks = [[p for p in range(n) if mask >> p & 1] for mask in masks]
    _, sep, cheapest = testers._separator_plan(size, n, supports, len(code.codewords))
    for plan, cells in itertools.product(((planted, blocks), (sep, cheapest)), (testers.CHUNK, chunk)):
        with mock.patch.object(testers, "CHUNK", cells):
            best = testers._least_ratio(compiled, dtype, size, n, code.codewords, *plan)
        if scan is None:
            assert best is None
            continue
        rn, mm, widx = best
        assert Fraction(rn * n, den * mm) == least
        assert decode_tuple(widx, size, n)[::-1] == letters


def test_separator_plan_on_demo_final_testers():
    # One greedy pass plans each demo's final tester: the plans are pinned,
    # and growing X computes components at most once per candidate position
    # and step, n (n + 1) / 2 + 1 times in all (once, with the low-link cuts).
    from ltcforge.pipeline import DEMO_PARAMS, demo_inputs, run_reduction

    plans = {}
    for kind, params in DEMO_PARAMS.items():
        report = run_reduction(kind, *demo_inputs(kind), params, trials=100)
        final, code = report.stages["final_tester"], report.stages["final_code"]
        size, n = final.alphabet.size, final.n
        supports = [s for s, _ in testers._compiled_checks(final)[0]]
        with mock.patch.object(testers, "_components", wraps=testers._components) as spy:
            plans[kind] = testers._separator_plan(size, n, supports, len(code.codewords))[:2]
        assert spy.call_count <= n * (n + 1) // 2 + 1
    assert plans == {"linear": (4422, [1]), "general": (217415, [0, 12]), "semilinear": (544137, [0, 11])}


@st.composite
def _plan_graphs(draw):
    size, n = draw(st.sampled_from([2, 3])), draw(st.integers(1, 9))
    positions = st.integers(0, n - 1)
    supports = draw(st.lists(st.lists(positions, min_size=1, max_size=3, unique=True), max_size=12))
    return size, n, [tuple(sorted(s)) for s in supports], draw(st.integers(1, 4)), draw(st.integers(1, 10**6))


@given(_plan_graphs())
def test_separator_plan_beats_every_plan_of_at_most_one_position(instance):
    # Greedy growth tries every single position first, so it never misses a
    # plan of at most one position that fits the budget; the plan it returns
    # is the components of the graph without X, costed by _separator_cost.
    # (Two-position plans are not guaranteed: greedy is not exhaustive.)
    size, n, supports, ncodes, budget = instance
    adj = [sum(1 << p for p in {p for s in supports if pos in s for p in s}) for pos in range(n)]

    def plan_of(sep):
        masks = testers._components(adj, (1 << n) - 1 - sum(1 << p for p in sep))
        blocks = [[p for p in range(n) if m >> p & 1] for m in masks]
        return testers._separator_cost(size, len(sep), list(map(len, blocks)), ncodes), blocks

    small = [c for sep in [[]] + [[p] for p in range(n)] if (c := plan_of(sep)[0]) is not None and c <= budget]
    plan = testers._separator_plan(size, n, supports, ncodes, budget)
    if small:
        assert plan is not None and plan[0] <= min(small)
    if plan is not None:
        assert plan[1] == sorted(set(plan[1])) and plan_of(plan[1]) == (plan[0], plan[2])


def test_separator_word_indices_at_the_uint64_edge():
    # 2^63 words keep word indices in uint64, 2^64 and 2^65 in Python ints;
    # one cut of the equality chain at its middle is least, and the earliest
    # such word has the longer run of zeros.
    for n in (63, 64, 65):
        report = soundness_exact(equality_tester(BIN, n), repetition_code(BIN, n))
        half = n // 2
        assert report.engine == "separator"
        assert report.value == Fraction(n, (n - 1) * half)
        assert report.witness.letters == (0,) * (n - half) + (1,) * half


def test_separator_plan_on_long_binary_chains():
    # The equality chain with two codewords: balanced cuts find a plan in
    # budget at n = 40 and 60, and at n = 2000 growth stops at the budget
    # instead of running through every position.
    plans, start = {}, time.perf_counter()
    for n in (40, 60, 2000):
        supports = [s for s, _ in testers._compiled_checks(equality_tester(BIN, n))[0]]
        plan = testers._separator_plan(2, n, supports, 2, 2**26)
        plans[n] = plan and plan[:2]
    assert time.perf_counter() - start < 20
    assert plans == {40: (1436250, [9, 19, 29]), 60: (10060938, [14, 29, 44, 55]), 2000: None}


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
    st.one_of(_weighted_instances(), _planted_separator_instances()).map(lambda instance: instance[:2]),
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
    if best is None:  # the code fills the space: the plan path decides
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


def test_prune_ladder_overflow_falls_back_to_the_plan():
    # A bound far above the value leaves every word in the first pass, so
    # the frontier passes a small budget and the plan decides, as it does
    # without a bound; where the plan passes the budget too, the
    # CapacityError is the one raised without a bound.
    tester, code = equality_tester(BIN, 10), repetition_code(BIN, 10)
    plain = soundness_exact(tester, code, budget=2**11)
    bounded = soundness_exact(tester, code, budget=2**11, bound=Fraction(100))
    assert replace(bounded, bound=None, verdict=None) == plain and plain.engine != "prune"
    assert bounded.verdict == "fail"
    assert soundness_exact(tester, code, budget=2**12, bound=plain.value / 2).engine == "prune"
    errors = []
    for bound in (None, Fraction(100)):
        with pytest.raises(CapacityError) as err:
            soundness_exact(tester, code, budget=16, bound=bound)
        errors.append(str(err.value))
    assert errors[0] == errors[1]


def test_prune_ladder_needs_a_positive_bound():
    # Without a bound, or with one of 0, the ladder would never leave a word
    # or has nothing to start from: the plan runs.
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

