"""Code concatenation and the tester constructions that survive it.

The outer code's letters are encoded blockwise (block-major layout: outer
position a and block offset b land at a*k + b).  A tester of the outer code
can be pushed through the encoding when each of its checks can be computed
from one encoded letter per queried position; the witness for that stores,
per check, the block offsets to read and the predicate on the read letters.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .codes import Alphabet, Code, distance, rate
from .constructions import FunctionFamily, code_from_family
from .errors import DomainError, MismatchError
from .testers import (
    Check,
    Tester,
    accept_from_tuples,
    coordinate_classes,
    images,
    merged_checks,
)


@dataclass(frozen=True)
class Encoder:
    """Injective map Sigma -> Delta^k given by coordinate value tables."""

    family: FunctionFamily

    def __post_init__(self):
        if not self.family.is_injective():
            raise DomainError("encoder family does not separate domain elements")

    @property
    def k(self) -> int:
        return self.family.k

    @property
    def domain_size(self) -> int:
        return self.family.domain_size

    @property
    def target(self) -> Alphabet:
        return self.family.target

    def encode(self, symbol: int) -> tuple[int, ...]:
        return self.family.evaluate(symbol)

    def image_code(self) -> Code:
        return code_from_family(self.family)


@dataclass(frozen=True)
class WitnessEntry:
    positions: tuple[int, ...]  # block offsets in [0, k)
    accept: int  # predicate bitset over target^arity


@dataclass(frozen=True)
class CompatibilityWitness:
    entries: tuple[WitnessEntry, ...]


@dataclass(frozen=True)
class CompatFailure:
    check_index: int
    coordinate: int


def concatenate(code: Code, encoder: Encoder) -> Code:
    """Blockwise encoding of every codeword; distance and rate behave as
    products (distance at least, rate exactly), asserted on construction."""
    if encoder.domain_size != code.alphabet.size:
        raise MismatchError("encoder domain disagrees with the code's alphabet")
    k = encoder.k
    blocks = [encoder.encode(a) for a in range(code.alphabet.size)]
    words = tuple(
        tuple(x for sym in w for x in blocks[sym]) for w in code.codewords
    )
    result = Code(encoder.target, code.n * k, words)
    inner = encoder.image_code()
    assert distance(result) >= distance(code) * distance(inner)
    assert rate(result) == rate(code) * rate(inner)
    return result


# ---------------------------------------------------------------------------
# Compatibility search
# ---------------------------------------------------------------------------


def check_f_compatible(tester: Tester, encoder: Encoder) -> CompatibilityWitness | CompatFailure:
    """Find, per check, block offsets whose coordinate functions factor the
    check; returns the first failing (check, coordinate) when none exist.

    A coordinate function is a valid choice at position l exactly when its
    fibers refine the check's swap-invariance classes at l (each value of
    the table meets one class), and the coordinates choose independently,
    so each takes the first valid table; the synthesized predicate is the
    image of the check's accepted tuples (tuples outside the factoring image
    reject), asserted disjoint from the image of its rejected tuples.  Each
    distinct (arity, accept) predicate is decided once, at its first check.
    """
    if tester.alphabet.size != encoder.domain_size:
        raise MismatchError("tester alphabet disagrees with encoder domain")
    size, tables = tester.alphabet.size, encoder.family.tables
    built, entries = {}, []  # (arity, accept): its entry, shared by the checks that have it
    for ci, check in enumerate(tester.checks):
        if (key := (check.arity, check.accept)) not in built:
            positions = []
            for coord in range(check.arity):
                classes = coordinate_classes(check.accept, size, check.arity, coord)
                labels = [(sym, idx) for idx, cls in enumerate(classes) for sym in cls]
                valid = (b for b, t in enumerate(tables) if len({(t[s], i) for s, i in labels}) == len(set(t)))
                if (b := next(valid, None)) is None:
                    return CompatFailure(ci, coord)
                positions.append(b)
            accept, rejected = images(check, size, [tables[b] for b in positions], encoder.target.size)
            assert not accept & rejected
            built[key] = WitnessEntry(tuple(positions), accept)
        entries.append(built[key])
    return CompatibilityWitness(tuple(entries))


def verify_witness(
    tester: Tester, encoder: Encoder, witness: CompatibilityWitness
) -> bool:
    """Exhaustive check of the factoring identity for every entry; an entry
    may also accept tuples outside the image."""
    if len(witness.entries) != len(tester.checks):
        return False
    size, dsize = tester.alphabet.size, encoder.target.size
    imaged = {}  # (check accept, entry positions as many as its arity): its images
    for check, entry in zip(tester.checks, witness.entries):
        if len(entry.positions) != check.arity:
            return False
        if (pair := imaged.get((check.accept, entry.positions))) is None:
            maps = [encoder.family.tables[b] for b in entry.positions]
            pair = imaged[check.accept, entry.positions] = images(check, size, maps, dsize)
        accepted, rejected = pair
        if accepted & ~entry.accept or rejected & entry.accept:
            return False
    return True


# ---------------------------------------------------------------------------
# Tester composition
# ---------------------------------------------------------------------------


def _distinct_weights(checks) -> tuple[list[Fraction], list[int]]:
    """The distinct weights of the checks, in order of first appearance, and
    per check the index of its weight among them.  Weights are told apart by
    (numerator, denominator): hashing a Fraction costs about what
    multiplying one does."""
    index: dict[tuple[int, int], int] = {}
    weights, kinds = [], []
    for ch in checks:
        w = ch.weight
        if (kind := index.setdefault((w.numerator, w.denominator), len(weights))) == len(weights):
            weights.append(w)
        kinds.append(kind)
    return weights, kinds


def concat_tester(
    outer: Tester,
    mu_outer: Fraction,
    inner: Tester,
    mu_inner: Fraction,
    encoder: Encoder,
    witness: CompatibilityWitness,
) -> Tester:
    """Tester for the concatenated code, mixing three routines:

    1. run the inner tester on a uniformly random block,
    2. run a pushed-through outer check on one letter per queried block,
    3. run the inner tester on a uniformly random queried block.

    The mixture weights are the soundness-optimizing closed form in the
    supplied lower bounds; the resulting certified soundness
    mu_outer*mu_inner / ((q*k+1)*mu_outer + mu_inner) is stored in metadata.

    Routines 1 and 3 are one block distribution: block b weighs rho1/n +
    rho3/q * reads[b], reads[b] being the outer weight of the queries on b
    (a check below arity q reads its first block again per missing query).
    Outer checks and witness entries are used as they are; the output has
    one check per distinct (queries, accept), padded to the output arity.
    """
    if mu_outer <= 0 or mu_inner <= 0:
        raise DomainError("soundness lower bounds must be positive")
    if inner.alphabet != encoder.target or inner.n != encoder.k:
        raise MismatchError("inner tester does not match the encoder image")
    if outer.alphabet.size != encoder.domain_size:
        raise MismatchError("outer tester does not match the encoder domain")
    if not verify_witness(outer, encoder, witness):
        raise MismatchError("witness does not verify against the outer tester")
    q = outer.q
    k = encoder.k
    n = outer.n

    scale = Fraction(1, q * k)
    total = mu_outer * mu_inner * scale + mu_inner**2 * scale + mu_inner * mu_outer
    rho1 = mu_outer * mu_inner * scale / total
    rho2 = mu_inner**2 * scale / total
    rho3 = mu_outer * mu_inner / total
    assert rho1 + rho2 + rho3 == 1

    q_out = max(q, inner.q)
    reads = [Fraction(0)] * n
    for ch in outer.checks:
        for block in ch.queries:
            reads[block] += ch.weight
        reads[ch.queries[0]] += (q - ch.arity) * ch.weight
    checks: list[Check] = []
    weights, kinds = _distinct_weights(inner.checks)
    for block in range(n):
        share = rho1 / n + rho3 / q * reads[block]
        scaled = [share * w for w in weights]
        for ch, kind in zip(inner.checks, kinds):
            queries = tuple(block * k + pos for pos in ch.queries)
            checks.append(Check(queries, ch.accept, scaled[kind]))
    weights, kinds = _distinct_weights(outer.checks)
    scaled = [rho2 * w for w in weights]
    for ch, entry, kind in zip(outer.checks, witness.entries, kinds):
        queries = tuple(a * k + b for a, b in zip(ch.queries, entry.positions))
        checks.append(Check(queries, entry.accept, scaled[kind]))
    checks = merged_checks(checks, q_out, encoder.target.size)
    bound = mu_outer * mu_inner / ((q * k + 1) * mu_outer + mu_inner)
    return Tester(encoder.target, n * k, q_out, checks, meta={"bound": bound})


def alphabet_increase_tester(
    tester: Tester,
    mu: Fraction,
    mapping: tuple[int, ...],
    target: Alphabet,
) -> Tester:
    """View a code over a larger alphabet through a symbol injection.

    Mixes a membership routine (a random position must hold an old-alphabet
    symbol) with the original tester rejecting any out-of-range letter; the
    certified soundness mu/(mu+1) is stored in metadata.  The output is
    padded to the tester's arity, one check per distinct (queries, accept).
    """
    if mu <= 0:
        raise DomainError("soundness lower bound must be positive")
    if len(mapping) != tester.alphabet.size:
        raise MismatchError("mapping must cover the source alphabet")
    if len(set(mapping)) != len(mapping):
        raise DomainError("symbol mapping must be injective")
    if any(not 0 <= m < target.size for m in mapping):
        raise DomainError("mapped symbol outside the target alphabet")
    rho1 = mu / (mu + 1)
    rho2 = 1 / (mu + 1)
    n = tester.n
    member = accept_from_tuples([(m,) for m in mapping], target.size)
    checks: list[Check] = []
    for pos in range(n):
        checks.append(Check((pos,), member, rho1 * Fraction(1, n)))
    imaged = {}  # (accept, arity): the image of the accept set
    weights, kinds = _distinct_weights(tester.checks)
    scaled = [rho2 * w for w in weights]
    for ch, kind in zip(tester.checks, kinds):
        if (accept := imaged.get((ch.accept, ch.arity))) is None:
            accept, _ = images(ch, tester.alphabet.size, [mapping] * ch.arity, target.size)
            imaged[ch.accept, ch.arity] = accept
        checks.append(Check(ch.queries, accept, scaled[kind]))
    checks = merged_checks(checks, tester.q, target.size)
    return Tester(target, n, tester.q, checks, meta={"bound": mu / (mu + 1)})


def embed_code(code: Code, mapping: tuple[int, ...], target: Alphabet) -> Code:
    """The same codewords over a larger alphabet via a symbol injection."""
    return Code(target, code.n, tuple(tuple(mapping[s] for s in w) for w in code.codewords))
