"""Words, codes, Hamming metrics, exact distance and rate.

A code is its list of codewords; whether it is linear is decided from
that list (`is_linear_code`), never carried alongside it.  All
probabilities and distances are fractions.Fraction values; rates get
their own exact representation (`Rate`) because code sizes are not always
perfect powers of the alphabet size, in which case the rate is an
irrational multiple of a log ratio.  Rates are compared only for
equality, and never through floating point.  A rate is rational exactly
when |C| and |alphabet| are powers of one base: `make_rate` reduces both
to their least bases, and folds the ratio into the scalar when they agree.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Sequence

from .algebra import Field, VecSpace, row_reduce
from .errors import CapacityError, DomainError, MismatchError


@dataclass(frozen=True)
class Alphabet:
    """A symbol set {0..size-1}, optionally structured as GF(p)^dim.

    Vector alphabets index into the canonical vector enumeration of their
    space: symbol s is the vector `space.vector(s)`.
    """

    size: int
    space: VecSpace | None = None

    def __post_init__(self):
        if self.size >= 2**63:  # letters are int64 in the soundness kernels
            raise CapacityError(self.size, 2**63 - 1, f"{'plain' if self.space is None else 'vector'} alphabet")
        if self.space is not None and self.space.size != self.size:
            raise MismatchError("alphabet size disagrees with vector space size")
        if self.size < 2:
            raise DomainError("alphabets need at least two symbols")

    @staticmethod
    def plain(size: int) -> "Alphabet":
        return Alphabet(size)

    @staticmethod
    def vector(space: VecSpace) -> "Alphabet":
        return Alphabet(space.size, space)


def vector_alphabet(p: int, dim: int) -> Alphabet:
    """GF(p)^dim as an alphabet.  `Alphabet` refuses 2**63 letters or more;
    p >= 2, so a dimension of 63 or more is refused here, before p**dim is
    taken."""
    field = Field(p)
    if dim >= 63:
        raise CapacityError(p**63, 2**63 - 1, "vector alphabet")
    return Alphabet.vector(VecSpace(field, dim))


@dataclass(frozen=True)
class Word:
    alphabet: Alphabet
    letters: tuple[int, ...]

    def __post_init__(self):
        if any(not 0 <= x < self.alphabet.size for x in self.letters):
            raise DomainError("letter out of alphabet range")

    def __len__(self) -> int:
        return len(self.letters)


@dataclass(frozen=True)
class Code:
    """Explicit nonempty list of distinct codewords of length n >= 1."""

    alphabet: Alphabet
    n: int
    codewords: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.n < 1:
            raise DomainError("block length must be positive")
        if not self.codewords:
            raise DomainError("codes are nonempty")
        if len(set(self.codewords)) != len(self.codewords):
            raise DomainError("codewords must be distinct")
        for w in self.codewords:
            if len(w) != self.n:
                raise MismatchError("codeword length differs from block length")
            if any(not 0 <= x < self.alphabet.size for x in w):
                raise DomainError("codeword letter out of range")

    def contains(self, letters: Sequence[int]) -> bool:
        return tuple(letters) in self.codewords


def repetition_code(alphabet: Alphabet, n: int) -> Code:
    """The n-fold repetition code {aa...a : a in the alphabet}."""
    return Code(alphabet, n, tuple((a,) * n for a in range(alphabet.size)))


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def _mismatches(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(1 for a, b in zip(u, v) if a != b)


def dist_to_code(w: Word, code: Code) -> Fraction:
    if w.alphabet != code.alphabet or len(w) != code.n:
        raise MismatchError("word incompatible with code")
    return Fraction(min(_mismatches(w.letters, c) for c in code.codewords), code.n)


def distance(code: Code) -> Fraction:
    """Minimum pairwise distance; 1 by convention for singleton codes."""
    pairs = itertools.combinations(code.codewords, 2)
    return Fraction(min((_mismatches(u, v) for u, v in pairs), default=code.n), code.n)


# ---------------------------------------------------------------------------
# Exact rates
# ---------------------------------------------------------------------------


def _prime_factors(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _power_normalize(n: int) -> tuple[int, int]:
    """Smallest base g and exponent e with g**e == n."""
    factors = _prime_factors(n)
    e = 0
    for a in factors.values():
        e = gcd(e, a)
    g = 1
    for p, a in factors.items():
        g *= p ** (a // e)
    return g, e


@dataclass(frozen=True)
class Rate:
    """The exact value scalar * log(log_num)/log(log_base).

    log_num == 0 marks an exactly rational value (equal to `scalar`).
    Instances are normalized: construct through `make_rate`.
    """

    scalar: Fraction
    log_num: int = 0
    log_base: int = 0

    @property
    def is_rational(self) -> bool:
        return self.log_num == 0

    def __mul__(self, other: "Rate | Fraction | int") -> "Rate":
        if isinstance(other, (Fraction, int)):
            other = Rate(Fraction(other))
        if self.is_rational:
            return make_rate(self.scalar * other.scalar, other.log_num, other.log_base)
        if other.is_rational:
            return make_rate(self.scalar * other.scalar, self.log_num, self.log_base)
        # log cancellation: (log a/log b)(log b/log c) = log a/log c
        if self.log_base == other.log_num:
            return make_rate(self.scalar * other.scalar, self.log_num, other.log_base)
        if other.log_base == self.log_num:
            return make_rate(self.scalar * other.scalar, other.log_num, self.log_base)
        raise DomainError("product of these rates has no supported exact form")

    __rmul__ = __mul__


def make_rate(scalar: Fraction, log_num: int = 0, log_base: int = 0) -> Rate:
    """Normalize: minimize bases, and fold the log ratio into the scalar
    when the bases agree, log(g**em)/log(g**eb) being em/eb."""
    scalar = Fraction(scalar)
    if log_num == 0:
        return Rate(scalar)
    if scalar == 0 or log_num == 1:
        return Rate(Fraction(0))
    gm, em = _power_normalize(log_num)
    gb, eb = _power_normalize(log_base)
    scalar *= Fraction(em, eb)
    return Rate(scalar) if gm == gb else Rate(scalar, gm, gb)


def rate(code: Code) -> Rate:
    """log |C| / log |alphabet|^n, exactly."""
    return make_rate(Fraction(1, code.n), len(code.codewords), code.alphabet.size)


# ---------------------------------------------------------------------------
# Linearity
# ---------------------------------------------------------------------------


def is_linear_code(code: Code) -> tuple[tuple[int, ...], ...] | None:
    """A basis of codewords when the codeword set is a subspace, else None."""
    space = code.alphabet.space
    if space is None:
        raise DomainError("linearity is defined for vector-space alphabets only")
    p = space.field.p
    flat = [space.flatten(w) for w in code.codewords]
    rref, _ = row_reduce(flat, p)
    if p ** len(rref) != len(code.codewords):  # distinct words filling their span
        return None
    return tuple(
        tuple(space.index(row[i * space.dim : (i + 1) * space.dim]) for i in range(code.n))
        for row in rref
    )
