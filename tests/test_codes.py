"""Metrics, exact rates, and linearity recognition."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ltcforge.algebra import Field, VecSpace
from ltcforge.codes import (
    Alphabet,
    Code,
    Rate,
    Word,
    dist_to_code,
    distance,
    is_linear_code,
    make_rate,
    rate,
    repetition_code,
    vector_alphabet,
)
from ltcforge.constructions import generalized_hadamard, generalized_long_code
from ltcforge.errors import CapacityError, DomainError, MismatchError

BIN = Alphabet.plain(2)


def w(letters, alphabet=BIN):
    return Word(alphabet, tuple(letters))


def hamming_dist(u, v):
    """Normalized Hamming distance, exact: the reference the metrics are held to."""
    if u.alphabet != v.alphabet or len(u) != len(v):
        raise MismatchError("words live in different spaces")
    return Fraction(sum(a != b for a, b in zip(u.letters, v.letters)), len(u))


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


def test_rate_multiplication_cancels_either_way():
    # log 3/log 2 times log 5/log 3 cancels through the right factor's base
    # (the second branch), the other order through the left factor's.
    a = make_rate(Fraction(1), 3, 2)
    b = make_rate(Fraction(1), 5, 3)
    assert a * b == b * a == make_rate(Fraction(1), 5, 2)


def test_is_linear_code_repetition():
    code = repetition_code(vector_alphabet(2, 1), 2)
    assert is_linear_code(code) == ((1, 1),)


def test_is_linear_code_missing_zero():
    alphabet = vector_alphabet(2, 1)
    code = Code(alphabet, 2, ((0, 1), (1, 0), (1, 1)))
    assert is_linear_code(code) is None


def test_is_linear_code_hadamard():
    _, code = generalized_hadamard(VecSpace(Field(2), 1), VecSpace(Field(2), 2))
    assert is_linear_code(code) is not None


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


def _perfect_power(g: int) -> bool:
    return any(root**e == g for e in range(2, g.bit_length() + 1) for root in range(2, g))


@given(
    st.fractions(min_value=0, max_value=4, max_denominator=9),
    st.integers(1, 255),
    st.integers(2, 64),
)
@example(Fraction(1), 4, 8)
@example(Fraction(1), 27, 9)
@example(Fraction(3, 7), 12, 144)
def test_make_rate_matches_a_power_search(scalar, m, b):
    # log(m)/log(b) is y/x when m**x == b**y; below 256 the exponents of a
    # common base are at most 8, so the search is complete.  Otherwise the
    # stored bases are m and b's least roots, and the scalar absorbs the
    # exponents: m == log_num**a and b == log_base**c give scalar * a / c.
    r = make_rate(scalar, m, b)
    folds = [(x, y) for x in range(1, 9) for y in range(1, 9) if m**x == b**y]
    if scalar == 0 or m == 1:  # log(1) == 0
        assert r == Rate(Fraction(0))
    elif folds:
        x, y = folds[0]
        assert r == Rate(scalar * Fraction(y, x))
    else:
        assert not _perfect_power(r.log_num) and not _perfect_power(r.log_base)
        a = next(a for a in range(1, 9) if r.log_num**a == m)
        c = next(c for c in range(1, 7) if r.log_base**c == b)
        assert r == Rate(scalar * Fraction(a, c), r.log_num, r.log_base)


@st.composite
def _small_codes(draw):
    size, n = draw(st.integers(2, 3)), draw(st.integers(1, 4))
    word = st.tuples(*[st.integers(0, size - 1)] * n)
    words = draw(st.lists(word, min_size=1, max_size=6, unique=True))
    return Code(Alphabet.plain(size), n, tuple(words))


@given(_small_codes())
@example(Code(BIN, 3, ((0, 1, 1),)))
def test_metrics_match_brute_force(code):
    # every pair of codewords, and every word of the space against the code,
    # counted position by position; a one-word code has distance 1
    n, words = code.n, code.codewords

    def mismatched(u, v):
        return Fraction(len([i for i in range(n) if u[i] != v[i]]), n)

    pairs = [mismatched(u, v) for u in words for v in words if u != v]
    assert distance(code) == (min(pairs) if pairs else 1)
    for letters in itertools.product(range(code.alphabet.size), repeat=n):
        word = Word(code.alphabet, letters)
        assert dist_to_code(word, code) == min(mismatched(letters, c) for c in words)
        for c in words:
            assert hamming_dist(word, Word(code.alphabet, c)) == mismatched(letters, c)


@pytest.mark.parametrize(
    "build, what, size",
    [
        (lambda: Alphabet.plain(2**63), "plain alphabet", 2**63),
        (lambda: Alphabet.vector(VecSpace(Field(2), 63)), "vector alphabet", 2**63),
        (lambda: vector_alphabet(3, 40), "vector alphabet", 3**40),
        (lambda: vector_alphabet(2, 10**12), "vector alphabet", 2**63),
    ],
    ids=["plain", "vector-space", "vector-3-40", "vector-huge-dim"],
)
def test_alphabets_of_2_63_letters_or_more_are_refused(build, what, size):
    # Letters are int64 in the soundness kernels.  `Alphabet` itself refuses
    # the size, so a plain alphabet built directly is refused like one read
    # from a document; `vector_alphabet` refuses a dimension of 63 or more
    # before it takes the power.
    with pytest.raises(CapacityError, match=f"^{what} requires {size} items, budget is {2**63 - 1}$"):
        build()
    assert Alphabet.plain(2**63 - 1).size == 2**63 - 1
