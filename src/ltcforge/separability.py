"""Deciding and enforcing per-coordinate factorability of checks.

A check factors through maps g_1 x ... x g_q : Sigma^q -> Delta^q exactly
when, at every queried coordinate, the coarsest swap-invariant partition of
the symbols has at most |Delta| classes: any factoring must identify at
least what swap-invariance identifies, and mapping classes to distinct
symbols always factors (changing one coordinate inside a class at a time
never flips the verdict).  The linear variant replaces partitions with the
subspaces U_l = {a : a at coordinate l, zeros elsewhere, is accepted} and
the class count with the codimension of U_l: a linear factoring's kernel at
coordinate l sits inside U_l (insert a kernel element into the all-zero
accepted tuple), and quotienting by U_l itself factors the check since
accepted sets are subspaces.

Every code with a tester also has a separable tester at a proportional
soundness cost; both replacement constructions live here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil

import numpy as np

from . import testers
from .algebra import DEFAULT_BUDGET, VecSpace, kernel_complement_surjection, row_reduce
from .codes import Alphabet
from .concat import CompatibilityWitness, Encoder, WitnessEntry
from .constructions import generalized_hadamard, generalized_long_code
from .errors import CapacityError, DomainError, MismatchError
from .testers import (
    Check,
    Tester,
    classify_linear,
    coordinate_classes,
    flat_rows,
    full_accept,
    images,
    pad_check,
)


@dataclass(frozen=True)
class CheckCertificate:
    coord_maps: tuple[tuple[int, ...], ...]  # per coordinate: symbol -> delta symbol
    accept: int  # image of the accepted tuples, over delta^arity
    subspaces: tuple[tuple[tuple[int, ...], ...], ...] | None = None  # linear case

    @property
    def partitions(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """Per coordinate, the fibers of its map in order of their smallest symbol."""
        parts = []
        for table in self.coord_maps:
            fibers: dict[int, list[int]] = {}
            for sym, image in enumerate(table):
                fibers.setdefault(image, []).append(sym)
            parts.append(tuple(map(tuple, fibers.values())))
        return tuple(parts)


@dataclass(frozen=True)
class SeparabilityCertificate:
    delta_size: int
    linear: bool
    checks: tuple[CheckCertificate, ...]

    def __post_init__(self):
        distinct = dict(zip(map(id, self.checks), self.checks)).values()  # producers share one per predicate
        if any((chk.subspaces is None) == self.linear for chk in distinct):
            raise DomainError("subspaces must be listed exactly when linear is true")
        if not all(0 <= x < self.delta_size for chk in distinct for table in chk.coord_maps for x in table):
            raise DomainError(f"a map image lies outside 0..{self.delta_size - 1}")


@dataclass(frozen=True)
class SeparabilityFailure:
    check_index: int
    coordinate: int
    required: int  # classes found (set case) or codimension (linear case)


def _certificate(
    check: Check, size: int, coord_maps: list, delta_size: int, subspaces: tuple | None
) -> CheckCertificate:
    """Certificate of one check factoring through per-coordinate maps: the
    accept set is the image of the check's accepted tuples, asserted
    disjoint from the image of its rejected ones."""
    accept, rejected = images(check, size, coord_maps, delta_size)
    assert not accept & rejected
    return CheckCertificate(tuple(coord_maps), accept, subspaces)


def _certified(tester: Tester, certify, delta_size: int, linear: bool):
    """The certificate of every check, from one certify(check) per distinct
    (arity, accept) predicate, shared by the checks that have it, or the
    failure at the first check whose certify returns (coordinate, required)
    instead of a CheckCertificate."""
    built, certs = {}, []
    for ci, check in enumerate(tester.checks):
        if (key := (check.arity, check.accept)) not in built:
            built[key] = certify(check)
        if not isinstance(built[key], CheckCertificate):
            return SeparabilityFailure(ci, *built[key])
        certs.append(built[key])
    return SeparabilityCertificate(delta_size, linear, tuple(certs))


def check_separable(
    tester: Tester, delta_size: int
) -> SeparabilityCertificate | SeparabilityFailure:
    """Coarsest factoring certificate, or the first (check, coordinate) whose
    swap-invariance partition has more than delta_size classes.  Classes map
    to the lexicographically earliest target symbols."""
    if delta_size < 2:
        raise DomainError("target alphabets need at least two symbols")
    size = tester.alphabet.size

    def certify(check: Check):
        coord_maps = []
        for coord in range(check.arity):
            classes = coordinate_classes(check.accept, size, check.arity, coord)
            if len(classes) > delta_size:
                return coord, len(classes)
            table = [0] * size
            for idx, cls in enumerate(classes):
                for sym in cls:
                    table[sym] = idx
            coord_maps.append(tuple(table))
        return _certificate(check, size, coord_maps, delta_size, None)

    return _certified(tester, certify, delta_size, False)


def _letter_space(tester: Tester, delta_space: VecSpace) -> VecSpace:
    """The tester's letter space; refuses a target of dimension below 1 or over another field."""
    space = tester.alphabet.space
    if space is None:
        raise DomainError("linear separability needs a vector-space alphabet")
    if delta_space.dim < 1:
        raise DomainError("target dimension must be at least 1")
    if delta_space.field != space.field:
        raise MismatchError("target space lies over another field")
    return space


def check_linearly_separable(
    tester: Tester, delta_space: VecSpace
) -> SeparabilityCertificate | SeparabilityFailure:
    """Linear factoring certificate via the per-coordinate kernels U_l, or
    the first coordinate whose codimension exceeds dim Delta."""
    space = _letter_space(tester, delta_space)
    if classify_linear(tester) is None:
        raise DomainError("linear separability is defined for linear testers")
    p = space.field.p
    size = tester.alphabet.size

    def certify(check: Check):
        coord_maps, subspaces = [], []
        for coord in range(check.arity):
            # U_l: the symbols a whose tuple (a at coordinate l, zeros elsewhere;
            # index a * size**l) is accepted
            kernel = [space.vector(a) for a in range(size) if (check.accept >> a * size**coord) & 1]
            basis, _ = row_reduce(kernel, p)
            codim = space.dim - len(basis)
            if codim > delta_space.dim:
                return coord, codim
            quotient = kernel_complement_surjection(space, basis, delta_space)
            coord_maps.append(
                tuple(delta_space.index(quotient.apply(space.vector(a))) for a in range(size))
            )
            subspaces.append(tuple(basis))
        return _certificate(check, size, coord_maps, delta_space.size, tuple(subspaces))

    return _certified(tester, certify, delta_space.size, True)


# ---------------------------------------------------------------------------
# Replacement testers
# ---------------------------------------------------------------------------


def separable_replacement(
    tester: Tester, mu: Fraction, delta_size: int, budget: int = DEFAULT_BUDGET
) -> Tester:
    """One check per (original check, guessed tuple): fire the original
    predicate only when the read letters equal the guess, else accept.

    The reject probability of the result is exactly the original's divided
    by |Sigma|^q pointwise, so soundness mu/|Sigma|^q is certified; every
    check is separable for any target with at least two symbols (indicator
    maps per coordinate).  Always-accept checks are kept so weights pass
    through unrenormalized.  CapacityError when the accept bits of the result,
    |checks| * |Sigma|^(2q), exceed the budget.
    """
    if mu <= 0:
        raise DomainError("soundness lower bound must be positive")
    if delta_size < 2:
        raise DomainError("target alphabets need at least two symbols")
    size = tester.alphabet.size
    q = tester.q
    # exponents capped at 64: past it every budget (below 2**63) is exceeded;
    # at least one check is charged, so a tester without checks pays too
    if (bits := max(1, len(tester.checks)) * size ** (2 * min(q, 64))) > budget:
        raise CapacityError(bits, budget, "separable replacement")
    factor = size**q
    every = full_accept(size, q)
    checks = []
    for ch in tester.checks:
        ch = pad_check(ch, q, size)
        weight = ch.weight / factor  # one Fraction shared by the check's guesses
        for u_idx in range(factor):
            if (ch.accept >> u_idx) & 1:
                accept = every
            else:
                accept = every & ~(1 << u_idx)
            checks.append(Check(ch.queries, accept, weight))
    return Tester(
        tester.alphabet,
        tester.n,
        q,
        tuple(checks),
        meta={"bound": mu / factor},
    )


def linear_separable_replacement(
    tester: Tester, mu: Fraction, delta_space: VecSpace, budget: int = DEFAULT_BUDGET
) -> Tester:
    """Split each subspace check into m = ceil(q dim Sigma / dim Delta)
    kernel conditions of a surjection onto Delta^m.

    Rejecting the original check means at least one component rejects, so
    the reject probability drops by at most a factor m pointwise and
    soundness mu/m is certified; every component's accept set is a subspace
    of codimension at most dim Delta, hence linearly separable.  Each
    distinct predicate maps the whole tuple table, in blocks of at most
    `testers.CHUNK` tuples, through one product with its surjection's
    matrix.  CapacityError when the tuple tests, |checks| * m * |Sigma|^q,
    exceed the budget.
    """
    if mu <= 0:
        raise DomainError("soundness lower bound must be positive")
    space = _letter_space(tester, delta_space)
    size = tester.alphabet.size
    q = tester.q
    d = delta_space.dim
    m = ceil(q * space.dim / d)
    if (tests := max(1, len(tester.checks)) * m * size ** min(q, 64)) > budget:  # charged as above
        raise CapacityError(tests, budget, "linear separable replacement")
    padded = Tester(tester.alphabet, tester.n, q, tuple(pad_check(ch, q, size) for ch in tester.checks))
    if (bases := classify_linear(padded)) is None:
        raise DomainError("linear replacement is defined for linear testers")
    flat_space = VecSpace(space.field, q * space.dim)
    target = VecSpace(space.field, m * d)
    p, table = space.field.p, size**q
    checks, components = [], {}  # padded accept: its m component accept sets, built once per predicate
    for ch, basis in zip(padded.checks, bases):
        if ch.accept not in components:
            surj = kernel_complement_surjection(flat_space, list(basis), target)
            matrix = np.array(surj.matrix, dtype=np.int64).T  # flat row @ matrix: its image
            accepts = components[ch.accept] = [0] * m  # j: the tuples whose image is 0 on rows j*d..(j+1)*d
            for start in range(0, table, testers.CHUNK):
                index = np.arange(start, min(start + testers.CHUNK, table), dtype=np.int64)
                image = (flat_rows(space, index, q) @ matrix % p).reshape(len(index), m, d)
                bits = np.packbits(~image.any(axis=2).T, axis=1, bitorder="little")  # row j: component j
                for j in range(m):
                    accepts[j] |= int.from_bytes(bits[j].tobytes(), "little") << start
        checks += [Check(ch.queries, accept, ch.weight / m) for accept in components[ch.accept]]
    return Tester(tester.alphabet, tester.n, q, tuple(checks), meta={"bound": mu / m, "m": m})


# ---------------------------------------------------------------------------
# Compatibility encoders and witness plumbing
# ---------------------------------------------------------------------------


def compatibility_encoder(
    sigma: Alphabet, delta: Alphabet, linear: bool, budget: int = DEFAULT_BUDGET
) -> Encoder:
    """Encoder whose coordinates are all (linear) functions Sigma -> Delta,
    in canonical order: the family of the generalized long (resp. Hadamard)
    code, injective because the family separates points."""
    if linear:
        if sigma.space is None or delta.space is None:
            raise DomainError("linear encoder needs vector-space alphabets")
        if sigma.space.field != delta.space.field:
            raise MismatchError("alphabets lie over different fields")
        family, _ = generalized_hadamard(sigma.space, delta.space, budget)
    else:
        family, _ = generalized_long_code(sigma.size, delta, budget)
    return Encoder(family)


def _first_index(tables: tuple[tuple[int, ...], ...]) -> dict[tuple[int, ...], int]:
    """Each distinct table's first coordinate in an encoder family."""
    index: dict[tuple[int, ...], int] = {}
    for i, table in enumerate(tables):
        index.setdefault(table, i)
    return index


def witness_from_certificate(cert: SeparabilityCertificate, encoder: Encoder) -> CompatibilityWitness:
    """Turn a separability certificate into a compatibility witness: each
    per-coordinate map appears verbatim as an encoder coordinate.  Only
    re-indexes; `concat_tester` verifies the witness it is given."""
    index_of = _first_index(encoder.family.tables)
    entries = []
    for chk_cert in cert.checks:
        positions = []
        for table in chk_cert.coord_maps:
            if table not in index_of:
                raise MismatchError("certificate map missing from the encoder family")
            positions.append(index_of[table])
        entries.append(WitnessEntry(tuple(positions), chk_cert.accept))
    return CompatibilityWitness(encoder.target.size, tuple(entries))


def extend_compatibility(
    witness: CompatibilityWitness, source: Encoder, target: Encoder
) -> CompatibilityWitness:
    """Re-index a witness into a larger encoder whose coordinates contain
    every source coordinate (same value tables, symbols embedded by index).

    The predicate is extended by accepting on tuples mentioning new symbols,
    so the extension never rejects anything the source could not see: it
    rejects exactly the image of the tuples the source predicate rejects.
    """
    if target.target.size < source.target.size:
        raise MismatchError("target encoder alphabet does not contain the source's")
    if witness.target_size != source.target.size:
        raise MismatchError("witness lies over another alphabet than the source encoder's target")
    match = _first_index(target.family.tables)
    remap = []
    for table in source.family.tables:
        if table not in match:
            raise MismatchError(f"no target coordinate matches source table {table}")
        remap.append(match[table])
    d_old = source.target.size
    d_new = target.target.size
    extended, entries = {}, []  # (arity, accept): the extended accept set, built once
    for entry in witness.entries:
        if (key := (len(entry.positions), entry.accept)) not in extended:
            own = Check(entry.positions, entry.accept, Fraction(1))
            _, rejected = images(own, d_old, [range(d_old)] * key[0], d_new)
            extended[key] = full_accept(d_new, key[0]) & ~rejected
        entries.append(WitnessEntry(tuple(remap[b] for b in entry.positions), extended[key]))
    return CompatibilityWitness(d_new, tuple(entries))
