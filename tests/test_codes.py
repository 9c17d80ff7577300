"""Metrics, exact rates, and linearity recognition."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ltcforge.algebra import Field, VecSpace
from ltcforge.codes import (
    Alphabet,
    Code,
    Rate,
    Word,
    dist_to_code,
    distance,
    hamming_dist,
    is_linear_code,
    make_rate,
    rate,
    repetition_code,
    vector_alphabet,
)
from ltcforge.constructions import generalized_hadamard, generalized_long_code
from ltcforge.errors import DomainError, MismatchError

BIN = Alphabet.plain(2)


def w(letters, alphabet=BIN):
    return Word(alphabet, tuple(letters))


def test_hamming_identical():
    assert hamming_dist(w([0, 1, 0]), w([0, 1, 0])) == 0


def test_hamming_all_positions_differ():
    assert hamming_dist(w([0, 0, 0]), w([1, 1, 1])) == 1


def test_hamming_half():
    # positions 2 and 3 differ under a direct count
    assert hamming_dist(w([0, 1, 0, 1]), w([0, 0, 1, 1])) == Fraction(1, 2)


def test_hamming_mismatch_errors():
    with pytest.raises(MismatchError):
        hamming_dist(w([0, 1]), w([0, 1, 0]))
    with pytest.raises(MismatchError):
        hamming_dist(w([0, 1]), Word(Alphabet.plain(3), (0, 1)))


PAIR = Code(BIN, 4, ((0, 1, 0, 1), (0, 0, 1, 1)))


def test_dist_to_code_member():
    assert dist_to_code(w([0, 1, 0, 1]), PAIR) == 0


def test_dist_to_code_oracle_values():
    # oracle: min over the two codewords of the direct mismatch count / 4
    def oracle(letters):
        return Fraction(
            min(sum(1 for a, b in zip(letters, c) if a != b) for c in PAIR.codewords), 4
        )

    assert dist_to_code(w([0, 0, 0, 1]), PAIR) == oracle((0, 0, 0, 1)) == Fraction(1, 4)
    assert dist_to_code(w([1, 1, 1, 1]), PAIR) == oracle((1, 1, 1, 1)) == Fraction(1, 2)


def test_distance_repetition():
    assert distance(Code(BIN, 2, ((0, 0), (1, 1)))) == 1


def test_distance_pair():
    assert distance(PAIR) == Fraction(1, 2)


def test_distance_hadamard_instance():
    _, code = generalized_hadamard(VecSpace(Field(2), 1), VecSpace(Field(2), 2))
    assert distance(code) == Fraction(3, 4)


def test_distance_singleton_convention():
    assert distance(Code(BIN, 3, ((0, 1, 0),))) == 1


def test_dist_to_code_zero_iff_member_exhaustive():
    for letters in itertools.product(range(2), repeat=4):
        word = w(letters)
        assert (dist_to_code(word, PAIR) == 0) == PAIR.contains(letters)


def test_rate_full_space():
    full = Code(BIN, 2, tuple(itertools.product(range(2), repeat=2)))
    assert rate(full) == Rate(Fraction(1))


def test_rate_pair_code():
    assert rate(PAIR) == Rate(Fraction(1, 4))


def test_rate_long_code_symbolic():
    _, code = generalized_long_code(2, Alphabet.plain(3))
    r = rate(code)
    assert r == make_rate(Fraction(1, 9), 2, 3)
    # cross-checked in floats: log_3(2)/9 sits strictly between 1/18 and 1/9
    value = float(r.scalar) * math.log(r.log_num) / math.log(r.log_base)
    assert 1 / 18 < value < 1 / 9


def test_rate_singleton_zero():
    assert rate(Code(BIN, 3, ((0, 0, 0),))) == Rate(Fraction(0))


def test_make_rate_normalization():
    assert make_rate(Fraction(1), 4, 8) == Rate(Fraction(2, 3))
    assert make_rate(Fraction(1), 4, 9) == Rate(Fraction(1), 2, 3)
    assert make_rate(Fraction(3), 1, 5) == Rate(Fraction(0))


def test_rate_multiplication_cancellation():
    a = make_rate(Fraction(1, 2), 5, 2)  # log_2(5)/2
    b = make_rate(Fraction(1, 3), 2, 3)  # log_3(2)/3
    assert a * b == make_rate(Fraction(1, 6), 5, 3)
    with pytest.raises(DomainError):
        _ = make_rate(Fraction(1), 5, 2) * make_rate(Fraction(1), 7, 3)


def test_is_linear_code_repetition():
    code = repetition_code(vector_alphabet(2, 1), 2)
    ok, basis = is_linear_code(code)
    assert ok and basis == ((1, 1),)


def test_is_linear_code_missing_zero():
    alphabet = vector_alphabet(2, 1)
    code = Code(alphabet, 2, ((0, 1), (1, 0), (1, 1)))
    ok, basis = is_linear_code(code)
    assert not ok and basis is None


def test_is_linear_code_hadamard():
    _, code = generalized_hadamard(VecSpace(Field(2), 1), VecSpace(Field(2), 2))
    ok, _ = is_linear_code(code)
    assert ok


def test_is_linear_code_needs_vector_alphabet():
    with pytest.raises(DomainError):
        is_linear_code(PAIR)


def test_code_rejects_duplicates_and_empty():
    with pytest.raises(DomainError):
        Code(BIN, 2, ((0, 0), (0, 0)))
    with pytest.raises(DomainError):
        Code(BIN, 2, ())


@given(
    st.lists(st.integers(0, 2), min_size=5, max_size=5),
    st.lists(st.integers(0, 2), min_size=5, max_size=5),
    st.lists(st.integers(0, 2), min_size=5, max_size=5),
)
def test_hamming_triangle_inequality(a, b, c):
    tri = Alphabet.plain(3)
    u, v, x = Word(tri, tuple(a)), Word(tri, tuple(b)), Word(tri, tuple(c))
    assert hamming_dist(u, x) <= hamming_dist(u, v) + hamming_dist(v, x)
    assert hamming_dist(u, v) == hamming_dist(v, u)
    assert (hamming_dist(u, v) == 0) == (u == v)


@given(st.lists(st.integers(0, 1), min_size=4, max_size=4))
def test_distance_lower_bounds_every_pair(letters):
    word = tuple(letters)
    words = {word, (0, 1, 0, 1), (1, 1, 1, 1)}
    code = Code(BIN, 4, tuple(sorted(words)))
    d = distance(code)
    for u, v in itertools.combinations(code.codewords, 2):
        assert d <= hamming_dist(Word(BIN, u), Word(BIN, v))
    if len(code.codewords) >= 2:
        assert any(
            d == hamming_dist(Word(BIN, u), Word(BIN, v))
            for u, v in itertools.combinations(code.codewords, 2)
        )


def test_linear_code_distance_equals_min_weight():
    # for linear codes the minimum distance equals the minimum nonzero weight
    fam, code = generalized_hadamard(VecSpace(Field(2), 2), VecSpace(Field(2), 1))
    zero = (0,) * code.n
    min_weight = min(
        Fraction(sum(1 for x in cw if x != 0), code.n)
        for cw in code.codewords
        if cw != zero
    )
    assert distance(code) == min_weight
