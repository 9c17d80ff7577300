"""Prime-field arithmetic and small exhaustive linear algebra.

Everything here works over GF(p) for prime p, with vectors represented as
plain tuples of ints.  One codec numbers tuples over {0..size-1}:
`encode_tuple` reads (t_0, ..., t_{m-1}) as sum t_l * size**l, least
significant first, and `decode_tuple` inverts it.  It orders the vectors
of GF(p)^dim (index 0 is the zero vector), the columns of enumerated
linear maps, the value tables of function families, the accept-set bits
of checks and, read backwards, the words of an exhaustive scan; every
output inherits its determinism from that order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import CapacityError, DomainError, MismatchError

DEFAULT_BUDGET = 1 << 26

SUPPORTED_PRIMES = (2, 3, 5, 7, 11, 13)


def encode_tuple(symbols: Sequence[int], size: int) -> int:
    idx = 0
    for s in reversed(symbols):
        idx = idx * size + s
    return idx


def decode_tuple(idx: int, size: int, arity: int) -> tuple[int, ...]:
    return tuple((idx // size**l) % size for l in range(arity))


@dataclass(frozen=True)
class Field:
    """GF(p) for a supported prime p; arithmetic is plain `% p` and `pow`."""

    p: int

    def __post_init__(self):
        if self.p not in SUPPORTED_PRIMES:
            raise DomainError(f"unsupported field size {self.p}; primes {SUPPORTED_PRIMES}")


@dataclass(frozen=True)
class VecSpace:
    """GF(p)^dim with the canonical least-significant-first enumeration."""

    field: Field
    dim: int

    def __post_init__(self):
        if self.dim < 0:
            raise DomainError("dimension must be non-negative")

    @property
    def size(self) -> int:
        return self.field.p ** self.dim

    def vector(self, index: int) -> tuple[int, ...]:
        if not 0 <= index < self.size:
            raise DomainError(f"vector index {index} out of range for {self}")
        return decode_tuple(index, self.field.p, self.dim)

    def index(self, vec: Sequence[int]) -> int:
        p = self.field.p
        if len(vec) != self.dim:
            raise MismatchError(f"vector length {len(vec)} != dim {self.dim}")
        return encode_tuple([v % p for v in vec], p)

    def flatten(self, symbols: Sequence[int]) -> tuple[int, ...]:
        """The coordinates of a tuple of vector indices, concatenated."""
        return tuple(x for s in symbols for x in self.vector(s))


@dataclass(frozen=True)
class LinearMap:
    """Matrix map between vector spaces; rows index codomain coordinates."""

    domain: VecSpace
    codomain: VecSpace
    matrix: tuple[tuple[int, ...], ...]  # codomain.dim rows, domain.dim columns

    def __post_init__(self):
        if self.domain.field != self.codomain.field:
            raise MismatchError("domain and codomain fields differ")
        if len(self.matrix) != self.codomain.dim or any(
            len(row) != self.domain.dim for row in self.matrix
        ):
            raise MismatchError("matrix shape does not match spaces")

    def apply(self, vec: Sequence[int]) -> tuple[int, ...]:
        p = self.domain.field.p
        return tuple(sum(r * v for r, v in zip(row, vec)) % p for row in self.matrix)

    def apply_index(self, index: int) -> int:
        return self.codomain.index(self.apply(self.domain.vector(index)))


def enumerate_linear_maps(
    dom: VecSpace, cod: VecSpace, budget: int = DEFAULT_BUDGET
) -> list[LinearMap]:
    """All linear maps dom -> cod, ordered by the images of the basis vectors.

    Map number m sends basis vector e_j to the codomain vector with index
    (m // |cod|**j) % |cod|, i.e. matrix columns are enumerated in the same
    least-significant-first order as vectors.  The count is |cod|**dim(dom).
    """
    if dom.field != cod.field:
        raise MismatchError("spaces lie over different fields")
    # the exponent capped at 64: p >= 2, so past it every budget (below 2**63) is exceeded
    if (count := cod.field.p ** min(cod.dim * dom.dim, 64)) > budget:
        raise CapacityError(count, budget, "linear map enumeration")
    maps = []
    for m in range(count):
        cols = [cod.vector(c) for c in decode_tuple(m, cod.size, dom.dim)]
        matrix = tuple(tuple(cols[j][i] for j in range(dom.dim)) for i in range(cod.dim))
        maps.append(LinearMap(dom, cod, matrix))
    return maps


# ---------------------------------------------------------------------------
# Row reduction over GF(p) on tuple vectors
# ---------------------------------------------------------------------------


def row_reduce(rows: Iterable[Sequence[int]], p: int) -> tuple[list[tuple[int, ...]], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    work = [list(r) for r in rows]
    if not work:
        return [], []
    width = len(work[0])
    pivots: list[int] = []
    r = 0
    for col in range(width):
        pivot = next((i for i in range(r, len(work)) if work[i][col] % p != 0), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        inv = pow(work[r][col], p - 2, p)
        work[r] = [(x * inv) % p for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][col] % p != 0:
                f = work[i][col]
                work[i] = [(a - f * b) % p for a, b in zip(work[i], work[r])]
        pivots.append(col)
        r += 1
        if r == len(work):
            break
    return [tuple(row) for row in work[:r]], pivots


def span_vectors(basis: Sequence[Sequence[int]], dim: int, p: int) -> list[tuple[int, ...]]:
    """All p^rank(basis) vectors spanned by the given rows."""
    rref, _ = row_reduce(basis, p)
    out = [(0,) * dim]
    for row in rref:
        out = [
            tuple((a + c * b) % p for a, b in zip(v, row)) for v in out for c in range(p)
        ]
    return out


def kernel_complement_surjection(
    domain: VecSpace, basis: Sequence[Sequence[int]], target: VecSpace
) -> LinearMap:
    """A linear map domain -> target whose kernel is exactly span(basis).

    Deterministic construction: row-reduce the basis, extend it to a full
    basis of the domain with the earliest admissible standard vectors, send
    the kernel part to zero and the j-th complement vector to the j-th
    standard basis vector of the target (remaining target coordinates stay
    zero).  The matrix M comes from one more row reduction: the rows
    [b | M b] over the full basis reduce to [e_j | M e_j], because the full
    basis spans the domain, so the reduced rows' right halves are M^T.
    """
    p = domain.field.p
    if domain.field != target.field:
        raise MismatchError("domain and target fields differ")
    basis = [tuple(x % p for x in b) for b in basis]
    rref, _ = row_reduce(basis, p)
    if len(rref) != len(basis):
        raise DomainError("kernel basis vectors are linearly dependent")
    comp_needed = domain.dim - len(rref)
    if target.dim < comp_needed:
        raise DomainError(
            f"target dimension {target.dim} too small for complement of dimension {comp_needed}"
        )
    full = list(rref)
    complement: list[tuple[int, ...]] = []
    for j in range(domain.dim):
        if len(full) == domain.dim:
            break
        e = tuple(int(i == j) for i in range(domain.dim))
        if len(row_reduce(full + [e], p)[0]) > len(full):
            full.append(e)
            complement.append(e)
    # Images in basis order: kernel rows -> 0, complement j -> e_j of target.
    images = [(0,) * target.dim for _ in rref]
    images += [tuple(int(i == j) for i in range(target.dim)) for j in range(len(complement))]
    transposed, _ = row_reduce([b + m for b, m in zip(full, images)], p)
    matrix = tuple(
        tuple(row[domain.dim + i] for row in transposed) for i in range(target.dim)
    )
    return LinearMap(domain, target, matrix)
