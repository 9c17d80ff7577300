"""Codes built from function families, and their dependence testers.

A family of functions f_1..f_k : S -> Delta induces the code whose words
are the evaluation vectors (f_1(s), ..., f_k(s)).  Enumerating all
functions gives the generalized long code; enumerating all linear maps
between vector spaces gives the generalized Hadamard code.  The natural
tester for such codes reads a tuple of coordinates whose joint image is a
proper subset of the full tuple space and accepts exactly that image.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebra import DEFAULT_BUDGET, VecSpace, decode_tuple, enumerate_linear_maps
from .codes import Alphabet, Code, Word, distance
from .errors import CapacityError, DomainError
from .testers import (
    Check,
    Tester,
    accept_bits,
    accept_from_tuples,
    full_accept,
    gc_paused,
    reject_probability,
    uniform_checks,
)


@dataclass(frozen=True)
class FunctionFamily:
    """k value tables for functions from a domain of given size to target."""

    domain_size: int
    target: Alphabet
    tables: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for t in self.tables:
            if len(t) != self.domain_size:
                raise DomainError("table length differs from domain size")
            if any(not 0 <= v < self.target.size for v in t):
                raise DomainError("table value outside target alphabet")

    @property
    def k(self) -> int:
        return len(self.tables)

    def evaluate(self, s: int) -> tuple[int, ...]:
        """The encoded image of domain element s."""
        return tuple(t[s] for t in self.tables)

    def is_injective(self) -> bool:
        images = [self.evaluate(s) for s in range(self.domain_size)]
        return len(set(images)) == self.domain_size


def code_from_family(family: FunctionFamily) -> Code:
    """Code of the evaluation vectors, in order of first appearance (duplicate
    rows collapse unless the family `is_injective`)."""
    seen: dict[tuple[int, ...], None] = {}
    for s in range(family.domain_size):
        seen.setdefault(family.evaluate(s), None)
    return Code(family.target, family.k, tuple(seen))


IMAGE_CELLS = 1 << 20  # array elements per chunk of joint-image rows


def _joint_images(
    family: FunctionFamily, q: int, budget: int
) -> list[tuple[tuple[int, ...], int]]:
    """(tuple, accept bitset of its joint image) for every dependent q-tuple
    of coordinate indices, in lexicographic order of the tuples.

    A chunk of tuples becomes one array of domain codes (the index of each
    element's image tuple), one boolean image row per tuple and, for the
    rows that miss some tuple, packed accept bits.  Chunks hold at most
    IMAGE_CELLS elements per array, or one row when a row alone is larger,
    so memory does not grow with k**q."""
    if q < 1:
        raise DomainError("tuple arity must be at least 1")
    k, domain = family.k, family.domain_size
    # exponents capped at 64: past it every budget (below 2**63) is exceeded
    if (tuples := k ** min(q, 64)) > budget:
        raise CapacityError(tuples, budget, "dependent tuple enumeration")
    cells = accept_bits(family.target.size, q)
    tables = np.array(family.tables, dtype=np.int64).reshape(k, domain)
    place = family.target.size ** np.arange(q, dtype=np.int64)[:, None]
    radix = k ** np.arange(q - 1, -1, -1, dtype=np.int64)
    rows = max(1, IMAGE_CELLS // max(cells, q * domain))
    out = []
    for start in range(0, k**q, rows):
        tups = np.arange(start, min(start + rows, k**q), dtype=np.int64)[:, None] // radix % k
        codes = (tables[tups] * place).sum(axis=1)
        image = np.zeros((len(tups), cells), dtype=bool)
        image[np.arange(len(tups))[:, None], codes] = True
        dep = np.flatnonzero(np.count_nonzero(image, axis=1) < cells)
        packed = np.packbits(image[dep], axis=1, bitorder="little")
        for tup, row in zip(tups[dep].tolist(), packed):
            out.append((tuple(tup), int.from_bytes(row.tobytes(), "little")))
    return out


@gc_paused
def dependence_tester(
    family: FunctionFamily, q: int, budget: int = DEFAULT_BUDGET
) -> Tester:
    """Uniform tester over dependent tuples; each check accepts exactly the
    joint image.  Families with no dependent tuple get a degenerate
    always-accept tester flagged in metadata (its soundness is zero)."""
    deps = _joint_images(family, q, budget)
    if not deps:
        check = Check((0,) * q, full_accept(family.target.size, q), Fraction(1))
        return Tester(family.target, family.k, q, (check,), meta={"degenerate": True})
    return Tester(family.target, family.k, q, uniform_checks(deps))


# ---------------------------------------------------------------------------
# Generalized Hadamard and long codes
# ---------------------------------------------------------------------------


def generalized_hadamard(
    v_space: VecSpace, delta_space: VecSpace, budget: int = DEFAULT_BUDGET
) -> tuple[FunctionFamily, Code]:
    """Evaluations of all linear maps V -> Delta, in canonical map order.

    Block length is |Delta|**dim(V) and the relative distance is exactly
    1 - 1/|Delta| (each nonzero input is sent to zero by exactly a 1/|Delta|
    fraction of the maps); both are asserted.
    """
    delta = Alphabet.vector(delta_space)
    maps = enumerate_linear_maps(v_space, delta_space, budget)
    if v_space.size > budget:
        raise CapacityError(v_space.size, budget, "domain enumeration")
    tables = tuple(
        tuple(m.apply_index(s) for s in range(v_space.size)) for m in maps
    )
    family = FunctionFamily(v_space.size, delta, tables)
    code = code_from_family(family)
    assert code.n == delta.size**v_space.dim
    if v_space.size >= 2:
        assert distance(code) == 1 - Fraction(1, delta.size)
    return family, code


def generalized_long_code(
    s_size: int, delta: Alphabet, budget: int = DEFAULT_BUDGET
) -> tuple[FunctionFamily, Code]:
    """Evaluations of all functions S -> Delta, value tables enumerated
    least-significant-first.  Relative distance is exactly 1 - 1/|Delta| for
    |S| >= 2: two domain elements agree on exactly |Delta|**(|S|-1) of the
    |Delta|**|S| coordinate functions."""
    if s_size < 1:
        raise DomainError("domain must be nonempty")
    d = delta.size
    if (k := d ** min(s_size, 64)) > budget:  # capped as in _joint_images
        raise CapacityError(k, budget, "function family enumeration")
    tables = tuple(decode_tuple(m, d, s_size) for m in range(k))
    family = FunctionFamily(s_size, delta, tables)
    code = code_from_family(family)
    if s_size >= 2:
        assert distance(code) == 1 - Fraction(1, d)
    return family, code


def ring_constraint_tester(s_size: int, budget: int = DEFAULT_BUDGET) -> Tester:
    """Three-query tester for the binary long code: uniform over the checks
    w_i + w_j = w_k for all pointwise sums f_i + f_j = f_k, w_i * w_j = w_k
    for all pointwise products, and the unary check that the all-ones
    coordinate reads 1.  CapacityError when its 2 * 4**s + 1 checks exceed
    the budget.

    Coordinates follow the canonical function order, where the table of
    function i is the base-2 digit expansion of i; sums are index XORs and
    products index ANDs, and the all-ones function sits at the last index
    (recorded in metadata).
    """
    if s_size < 0:
        raise DomainError("domain size must be non-negative")
    if (count := 2 * 4 ** min(s_size, 64) + 1) > budget:  # capped as in _joint_images
        raise CapacityError(count, budget, "ring constraint checks")
    n = 2**s_size
    mask = n - 1
    add_accept = accept_from_tuples(
        [(a, b, a ^ b) for a in range(2) for b in range(2)], 2
    )
    mul_accept = accept_from_tuples(
        [(a, b, a & b) for a in range(2) for b in range(2)], 2
    )
    entries: list[tuple[tuple[int, ...], int]] = []
    for i in range(n):
        for j in range(n):
            entries.append(((i, j, i ^ j), add_accept))
    for i in range(n):
        for j in range(n):
            entries.append(((i, j, i & j), mul_accept))
    entries.append(((mask,), accept_from_tuples([(1,)], 2)))
    checks = uniform_checks(entries)
    return Tester(Alphabet.plain(2), n, 3, checks, meta={"all_ones_index": mask})


# ---------------------------------------------------------------------------
# Critical family and the binary majority counterexample
# ---------------------------------------------------------------------------


def critical_family(g: FunctionFamily) -> FunctionFamily:
    """Derived family over {0,1,2} that turns 3-letter definability of the
    base binary family's code into 2-letter definability of its own code.

    For each ordered pair (i, j) the family gains the functions

        d(s)  = 0 if g_i(s)=0, 1 if g_i(s)=1 and g_j(s)=0, 2 otherwise
        d'(s) = 1 if g_i(s)=1, 0 if g_i(s)=0 and g_j(s)=1, 2 otherwise

    (d' is d with the roles of the symbols 0 and 1 swapped).  Base tables
    come first, duplicates are removed, so the size is at most t + 2t^2.
    """
    for t in g.tables:
        if any(v not in (0, 1) for v in t):
            raise DomainError("base family must be {0,1}-valued")
    if len(set(g.tables)) != len(g.tables):
        raise DomainError("base family tables must be distinct")
    tri = Alphabet.plain(3)
    seen: dict[tuple[int, ...], None] = {}
    for t in g.tables:
        seen.setdefault(tuple(t), None)
    tcount = g.k
    for i in range(tcount):
        for j in range(tcount):
            gi, gj = g.tables[i], g.tables[j]
            d = tuple(
                0 if a == 0 else (1 if b == 0 else 2) for a, b in zip(gi, gj)
            )
            dp = tuple(
                1 if a == 1 else (0 if b == 1 else 2) for a, b in zip(gi, gj)
            )
            seen.setdefault(d, None)
            seen.setdefault(dp, None)
    return FunctionFamily(g.domain_size, tri, tuple(seen))


def majority_counterexample(s_size: int, budget: int = DEFAULT_BUDGET) -> Word:
    """The majority-vote word over the binary long code's coordinates.

    Coordinate i is the majority of f_i at the first three domain elements.
    The word is outside the code yet the 2-dependence tester never rejects
    it; both facts are verified exhaustively before returning.
    """
    if s_size < 3:
        raise DomainError("need at least three domain elements")
    family, code = generalized_long_code(s_size, Alphabet.plain(2), budget)
    letters = []
    for t in family.tables:
        votes = t[0] + t[1] + t[2]
        letters.append(1 if votes >= 2 else 0)
    word = Word(Alphabet.plain(2), tuple(letters))
    assert not code.contains(word.letters)
    assert reject_probability(dependence_tester(family, 2, budget), word) == 0
    return word
