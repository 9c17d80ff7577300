"""Query testers with exact evaluation, exact and sampled soundness.

A tester is a weighted list of checks; a check reads a tuple of positions
and accepts when the observed symbol tuple lies in its accept set.  Accept
sets are stored as int bitsets over alphabet^arity, with the tuple
(t_0, ..., t_{q-1}) at bit encode_tuple(t, size) = sum t_l * size**l.

Every soundness engine runs on the tester compiled once: one weighted
reject lookup table per query support (the sorted distinct positions a
check reads), summing the integerized weights of the checks on that
support that reject; always-accept checks vanish.  Reject numerators take
the narrowest of int16, int32 and int64 (b bits) in which no score reaches
2**(b - 2), and Python ints in object arrays above, through the same
kernels, so results are exact rationals either way.

Exact soundness runs one of two engines on it.  `_prune_ratio` is a
Land-Doig branch and bound (1960) over word prefixes in position order
that keeps only the words of ratio below a threshold, and `soundness_exact`
runs it at thresholds from a start up, doubling after each pass that
leaves no word (Dinkelbach's parametric test, 1967); the first pass that
leaves words gives the value.  Its cost is the frontier, capped at the
budget in cells.  The ladder starts at a positive bound, or without one at
the least check weight once |alphabet|^n passes the budget.  Otherwise, or
when the frontier overflows, the scan enumerates every word if
|alphabet|^n fits the budget; if it does not, CapacityError carries
|alphabet|^n.  Reports say "prune" for the ladder and "scan" for the scan.
The accepted-set enumeration is the same frontier loop with no codewords
and the keep rule "no check rejects".

The scan runs in chunks of |alphabet|^k words that share their first n - k
letters (the prefix) and run the last k over one digit grid, a tensor with
one axis of length |alphabet| per position, the last ones fused into one
axis of at least FUSED cells.  Reject numerators and mismatch counts are
broadcast sums of small tensors over it, with no per-word index arrays:
each support's LUT (sliced at the prefix letters when it reads the prefix)
and each position's mismatch vector, added along the axes they read.  What
depends on the grid alone is computed once: the numerators of the supports
inside it and, per distinct codeword prefix, the least mismatches of its
codewords on it, to which a chunk adds its prefix's own mismatch count.
Word indices only increase, so a first-hit rule on strictly smaller ratios
keeps the least ratio, then the least word index (the lexicographically
smallest witness), and a chunk goes on to exact ratios only in its words
strictly below the running best.

A tester validates its checks in bulk: a few passes over all of them,
each in C, give the types of every position and accept set, the arities,
the query positions and, per arity, the least and largest accept set, and
each distinct weight object is tested once.  `gc_paused` runs a builder
of one object per check (`constructions.dependence_tester` and every
`serialize` reader) with the cyclic garbage collector off.  Such builders
make no reference cycles, so reference counting frees all they drop, and
the package runs in one thread, so nothing else allocates while the
collector is off.

Sampled soundness draws words from per-trial substreams of a splitmix-style
generator: trial t is keyed independently of every other trial, so changing
the trial count never perturbs earlier draws.  It runs in chunks of at most
CHUNK trials, each selected against the running best as a scan chunk is, so
its memory does not grow with the trial count.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from fractions import Fraction
from functools import wraps
from itertools import chain, compress
from math import lcm
from typing import Iterable, Sequence

import numpy as np

from .algebra import DEFAULT_BUDGET, decode_tuple, encode_tuple, row_reduce
from .codes import Alphabet, Code, Word
from .errors import CapacityError, DomainError, MismatchError

ACCEPT_BITS_LIMIT = 1 << 24  # alphabet^arity per check


def gc_paused(build):
    """build, run with the cyclic garbage collector off and its previous
    state restored on return or raise.  For builders of one object per
    check: they make no reference cycles, so reference counting frees all
    they drop, and the collector's passes would only walk every object the
    process holds.  Under a caller that paused it, build runs as is."""

    @wraps(build)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return build(*args, **kwargs)
        gc.disable()
        try:
            return build(*args, **kwargs)
        finally:
            gc.enable()

    return paused


def accept_from_indices(indices: Sequence[int]) -> int:
    """The bitset with exactly the given bits set, indices >= 0 in any
    order, repeats allowed.  One pass writes the binary text, most
    significant bit first, so bit i is the i-th character from the end;
    parsing it is linear in the largest index, with no shift per index."""
    text = bytearray(b"0") * (max(indices, default=0) + 1)
    for i in indices:
        text[~i] = 49  # ord("1")
    return int(text, 2)


def indices_from_accept(accept: int) -> list[int]:
    """The set bits of a bitset, ascending: its accepted tuple indices.
    Inverse of accept_from_indices, one forward scan of its binary text."""
    text = format(accept, "b")[::-1]
    out = []
    i = text.find("1")
    while i >= 0:
        out.append(i)
        i = text.find("1", i + 1)
    return out


def accept_from_tuples(tuples: Iterable[Sequence[int]], size: int) -> int:
    return accept_from_indices([encode_tuple(t, size) for t in tuples])


def tuples_from_accept(accept: int, size: int, arity: int) -> list[tuple[int, ...]]:
    """The accepted tuples in index order."""
    return [decode_tuple(i, size, arity) for i in indices_from_accept(accept)]


def full_accept(size: int, arity: int) -> int:
    return (1 << size**arity) - 1


@dataclass(frozen=True, slots=True)
class Check:
    queries: tuple[int, ...]
    accept: int
    weight: Fraction

    @property
    def arity(self) -> int:
        return len(self.queries)

    def accepts(self, symbols: Sequence[int], size: int) -> bool:
        return bool((self.accept >> encode_tuple(symbols, size)) & 1)


@dataclass(frozen=True)
class Tester:
    alphabet: Alphabet
    n: int
    q: int
    checks: tuple[Check, ...]
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        size, n, q, checks = self.alphabet.size, self.n, self.q, self.checks
        # A tester is what `serialize` writes and reads back equal: n, q,
        # positions and accept sets ints (no bool, float or numpy integer),
        # checks and queries tuples, weights ints or Fractions.  Every item's
        # type is tested before any value, as True and 1.0 equal 1.
        if type(n) is not int or type(q) is not int or type(checks) is not tuple or q < 1:
            raise DomainError("tester n and q must be ints, q at least 1, and checks a tuple")
        # a few passes over all checks, each in C, then one test per
        # distinct arity and per distinct weight object
        queries = [ch.queries for ch in checks]
        accepts = [ch.accept for ch in checks]
        if set(map(type, queries)) - {tuple} or set(map(type, chain(accepts, *queries))) - {int}:
            raise DomainError("queries must be tuples of int positions, accept sets int bitsets")
        arities = list(map(len, queries))
        if arities and not 0 < min(arities) <= max(arities) <= q:
            raise DomainError("check arity must be between 1 and q")
        positions = set(chain.from_iterable(queries))
        if positions and (min(positions) < 0 or max(positions) >= n):
            raise DomainError("query position out of range")
        weights = {id(ch.weight): ch.weight for ch in checks}.values()
        # Fraction denominators are positive
        if set(map(type, weights)) - {int, Fraction} or any(w.numerator <= 0 for w in weights):
            raise DomainError("check weights must be positive ints or Fractions")
        for arity in set(arities):
            table = accept_bits(size, arity)
            same = list(compress(accepts, map(arity.__eq__, arities)))
            if min(same) < 0 or max(same).bit_length() > table:
                raise DomainError(f"accept set outside the {table} tuples of arity {arity}")


def accept_bits(size: int, arity: int) -> int:
    """size**arity, the bits of an accept set over alphabet^arity, or
    CapacityError past ACCEPT_BITS_LIMIT.  Sizes are >= 2, so capping the
    exponent keeps the power small and exact wherever it decides."""
    table = size ** min(arity, ACCEPT_BITS_LIMIT.bit_length())
    if table > ACCEPT_BITS_LIMIT:
        raise CapacityError(table, ACCEPT_BITS_LIMIT, "accept bitset")
    return table


def pad_check(check: Check, q: int, size: int) -> Check:
    """Pad to arity q by repeating the first position; pads are ignored, so
    the accept block repeats once per assignment of the pads.  CapacityError
    when the padded accept set, size**q bits, passes ACCEPT_BITS_LIMIT."""
    a = check.arity
    if a == q:
        return check
    table = accept_bits(size, q)
    queries = check.queries + (check.queries[0],) * (q - a)
    width = size**a
    accept = check.accept * ((1 << table) - 1) // ((1 << width) - 1)
    return Check(queries, accept, check.weight)


def merged_checks(checks: Iterable[Check], q: int, size: int) -> tuple[Check, ...]:
    """The checks padded to arity q, equal (queries, accept) pairs merged
    into one check of their summed weight, in order of first appearance: a
    tester is a distribution over checks, so no reject probability changes."""
    weights: dict[tuple[tuple[int, ...], int], Fraction] = {}
    for ch in checks:
        ch = pad_check(ch, q, size)
        key = ch.queries, ch.accept
        weights[key] = ch.weight if (w := weights.get(key)) is None else w + ch.weight
    return tuple(Check(queries, accept, w) for (queries, accept), w in weights.items())


def images(check: Check, size: int, coord_maps, delta_size: int) -> tuple[int, int]:
    """(accepted, rejected): bitsets over delta^arity of the images of the
    check's accepted and rejected tuples under per-coordinate maps (symbol ->
    delta symbol tables), from one pass over the tuples in index order.  The
    maps factor the check exactly when the two are disjoint; `accepted` is
    then its predicate, rejecting outside the image (a subspace image in the
    linear case; encoded letters only reach in-image tuples)."""
    mapped = [0]  # mapped[i]: the image index of input tuple i
    for l, table in enumerate(coord_maps):
        place = delta_size**l
        mapped = [m + table[sym] * place for sym in range(size) for m in mapped]
    bits = format(check.accept, "b").zfill(len(mapped))[::-1]  # bits[i]: tuple i accepted
    out = {"0": bytearray(max(mapped) // 8 + 1), "1": bytearray(max(mapped) // 8 + 1)}
    for m, bit in zip(mapped, bits):
        out[bit][m >> 3] |= 1 << (m & 7)
    return int.from_bytes(out["1"], "little"), int.from_bytes(out["0"], "little")


def uniform_checks(entries: Sequence[tuple[tuple[int, ...], int]]) -> tuple[Check, ...]:
    """Checks of equal weight from (queries, accept) pairs."""
    w = Fraction(1, len(entries))
    return tuple(Check(q, acc, w) for q, acc in entries)


def equality_tester(alphabet: Alphabet, n: int, budget: int = DEFAULT_BUDGET) -> Tester:
    """Uniform consecutive-pair equality checks; accepts repetition words.
    CapacityError when its n - 1 checks exceed the budget."""
    if n < 2:
        raise DomainError("equality tester needs block length >= 2")
    if n - 1 > budget:
        raise CapacityError(n - 1, budget, "equality checks")
    size = alphabet.size
    accept_bits(size, 2)
    diag = accept_from_tuples([(a, a) for a in range(size)], size)
    checks = uniform_checks([((i, i + 1), diag) for i in range(n - 1)])
    return Tester(alphabet, n, 2, checks)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def reject_probability(tester: Tester, w: Word) -> Fraction:
    if w.alphabet != tester.alphabet or len(w) != tester.n:
        raise MismatchError("word incompatible with tester")
    size = tester.alphabet.size
    total = Fraction(0)
    for ch in tester.checks:
        if not ch.accepts([w.letters[i] for i in ch.queries], size):
            total += ch.weight
    return total


def require_compatible(tester: Tester, code: Code) -> None:
    """Refuse a tester whose words are not the code's: another alphabet or length."""
    if tester.alphabet != code.alphabet or tester.n != code.n:
        raise MismatchError("tester incompatible with code")


def validate(tester: Tester, code: Code) -> bool:
    """Whether the weights sum to 1 exactly and every check accepts every codeword."""
    require_compatible(tester, code)
    size = tester.alphabet.size
    den = lcm(*{ch.weight.denominator for ch in tester.checks})  # 1 without checks
    if sum(ch.weight.numerator * (den // ch.weight.denominator) for ch in tester.checks) != den:
        return False
    return all(ch.accepts([cw[i] for i in ch.queries], size) for ch in tester.checks for cw in code.codewords)


@dataclass(frozen=True)
class SoundnessReport:
    engine: str | None  # "prune" (the ladder) | "scan" | "sampled"
    value: Fraction | None  # None iff infinite (no non-codeword exists)
    witness: Word | None
    bound: Fraction | None = None
    trials: int | None = None
    seed: int | None = None

    @property
    def mode(self) -> str:
        return "sampled" if self.engine == "sampled" else "exact"

    @property
    def infinite(self) -> bool:
        return self.value is None

    @property
    def verdict(self) -> str | None:  # exact: pass/fail; sampled: consistent/violated
        if self.bound is None:
            return None
        ok = self.infinite or self.value >= self.bound
        return ("pass" if ok else "fail") if self.mode == "exact" else ("consistent" if ok else "violated")


def _compiled_checks(tester: Tester):
    """(support, LUT) per distinct query support, in order of the first check
    on it that can reject, the common denominator and the array dtype.  LUT
    entry sum_m s_m * size**m sums the integerized weights of the checks on
    the support that reject letters s_m at support[m] (equal checks add up
    like any two).  Each distinct query tuple finds its support and reading
    once; checks reading their supports alike share one unpacking, one
    permutation to support order and one accumulation into their LUTs.
    Scores (rej * mism) are at most sum(numerators) * n: the first of
    SCORE_DTYPES (b bits) where that stays below 2**(b - 2), object arrays
    above."""
    size = tester.alphabet.size
    den = lcm(*(ch.weight.denominator for ch in tester.checks))  # 1 without checks
    nums = [ch.weight.numerator * (den // ch.weight.denominator) for ch in tester.checks]
    most = max(sum(nums), 1) * tester.n  # mism alone reaches n
    dtype = next((t for t in SCORE_DTYPES if most < 1 << np.iinfo(t).bits - 2), object)
    nums = np.array(nums, dtype=dtype)
    by_queries = {}  # query tuple: its checks
    for i, ch in enumerate(tester.checks):
        by_queries.setdefault(ch.queries, []).append(i)
    ids, alike = {}, {}  # length: {support: id}; (length, queries as support indices): (checks, their support ids)
    for queries, members in by_queries.items():
        support = tuple(sorted(set(queries)))
        same = ids.setdefault(len(support), {})
        checks, sids = alike.setdefault((len(support), tuple(map(support.index, queries))), ([], []))
        checks += members
        sids += [same.setdefault(support, len(same))] * len(members)
    never = len(tester.checks)  # past every check: the first rejecting check where none can reject
    luts = {length: np.zeros((len(same), size**length), dtype=dtype) for length, same in ids.items()}
    first = {length: np.full(len(same), never) for length, same in ids.items()}
    for (length, order), (members, sids) in alike.items():
        checks, sids = np.array(members, dtype=np.intp), np.array(sids, dtype=np.intp)
        cells = np.arange(size**length)
        index = sum(cells // size**m % size * size**l for l, m in enumerate(order))
        width = size ** len(order)
        raw = b"".join(tester.checks[i].accept.to_bytes((width + 7) // 8, "little") for i in members)
        bits = np.unpackbits(np.frombuffer(raw, np.uint8).reshape(len(members), -1), 1, width, "little")
        reject = (1 - bits[:, index]).astype(dtype) * nums[checks, None]
        can = reject.any(axis=1)
        at = sids[can]  # the support of each check that can reject
        flat = (at[:, None] * len(cells) + cells).reshape(-1)
        np.add.at(luts[length].reshape(-1), flat, reject[can].reshape(-1))  # one accumulation per alike group
        np.minimum.at(first[length], at, checks[can])
    entries = [(first[len(s)][i], s, luts[len(s)][i]) for same in ids.values() for s, i in same.items()]
    return [(s, lut) for f, s, lut in sorted(entries, key=lambda e: e[0]) if f < never], den, dtype


def _reject_numerators(compiled, digits, size: int, dtype, count: int) -> np.ndarray:
    """The reject numerators of `count` words given as one digit array per
    position, each support's LUT read at sum_m digits[support[m]] * size**m."""
    rej = np.zeros(count, dtype=dtype)
    for support, lut in compiled:
        rej += lut[sum(digits[pos] * size**m for m, pos in enumerate(support))]
    return rej


def _grid_sum(entries, size: int, axes, fixed: dict, dtype) -> np.ndarray:
    """The sum of the (support, LUT) entries over the grid of the positions
    `axes`, the first most significant, with the letters elsewhere read from
    `fixed`: a tensor of shape (size,) * len(axes), perhaps a read-only
    broadcast view.  Each LUT becomes a tensor with one axis per support
    position, reversed (support[0] is its least significant digit), sliced
    at the fixed letters and given length-1 axes where it reads none.  The
    last f axes (the fewest with size**f >= FUSED, or all) are one fused
    axis: a tensor reading any of them is broadcast over it once, any other
    gets length 1 there, so every add runs an inner loop of size**f cells.
    The tensors first reading outer axis j are summed, and their sum joins
    the running one as it grows from the fused axis out."""
    k = len(axes)
    f = next((f for f in range(k) if size**f >= FUSED), k)
    outer, at = k - f, {pos: i for i, pos in enumerate(axes)}
    levels = [[] for _ in range(outer + 1)]  # per first outer axis read (outer: none), (last axis read, tensor)
    for support, lut in entries:
        cut = tuple(fixed.get(pos, slice(None)) for pos in support) + (...,)  # ...: an array, even 0-d
        read = [at[pos] for pos in support if pos not in fixed]
        t = lut.reshape((size,) * len(support)).T[cut].transpose(np.argsort(read))
        first, last = min(read + [outer]), max(read, default=-1)
        shape = [size if i in read else 1 for i in range(first, k)]
        t = t.reshape(shape)
        if last >= outer:
            t = np.broadcast_to(t, shape[: outer - first] + [size] * f)
        levels[first].append((last, t.reshape(shape[: outer - first] + [-1])))
    acc = np.zeros(size**f, dtype=dtype)
    for _, t in levels[outer]:  # supports that read the fused axis alone, or no axis
        acc += t
    for j in range(outer - 1, -1, -1):
        acc = np.broadcast_to(acc, (size,) + acc.shape)
        if levels[j]:
            part = np.zeros((1,) * (outer - j) + (size**f,), dtype=dtype)  # fused-wide from the first add
            for _, t in sorted(levels[j], key=lambda e: e[0]):
                part = part + t
            acc = acc + part
    return acc.reshape((size,) * k)


def _select(best, rej, mism, first: int):
    """The running best (rej, mism, word index) of least ratio rej/mism among
    the mism > 0 entries, whose word indices count up from `first` along the
    arrays and from call to call: the first strict minimizer is the earliest
    word, and an equal ratio never replaces the best.  Given a best, only the
    entries strictly below it go on (rej * best_mism < best_rej * mism, no
    product above a score's bound), so codewords and ties drop out, and a
    chunk with none returns the best at once.  In int64 one float64 pass
    keeps the entries within a factor 1 + 2**-40 of the least float ratio:
    the float ratios of scores below 2**62 are within 2**-50 of the exact
    ones, so every exact minimizer stays."""
    keep = None
    if best is not None:
        keep = np.flatnonzero(rej * best[1] < best[0] * mism.astype(rej.dtype))
        if not len(keep):
            return best
        rej, mism = rej[keep], mism[keep]
    valid = mism > 0
    if not valid.any():
        return best
    if rej.dtype == object:
        at = np.flatnonzero(valid)
    else:
        ratio = np.divide(rej, mism, out=np.full(len(rej), np.inf), where=valid)
        at = np.flatnonzero(ratio <= ratio.min() * (1 + 2.0**-40))
    rej, mism = rej[at], mism[at].astype(rej.dtype)  # rn * mism must not wrap either
    at = at if keep is None else keep[at]

    def entry(i):
        return int(rej[i]), int(mism[i]), first + int(at[i])

    best = entry(0)  # every entry left lies strictly below a given best
    while (better := rej * best[1] < best[0] * mism).any():
        best = entry(int(np.argmax(better)))
    return best


CHUNK = 1 << 18  # words per exact-scan chunk, unless one letter already exceeds it; LUT reads per prune gather
FUSED = 64  # least cells of the digit grid's fused last axis, unless the grid is smaller
SCORE_DTYPES = (np.int16, np.int32, np.int64)  # reject numerator dtypes, narrowest first


def _grid_width(size: int, n: int, rows: int) -> int:
    """The largest k >= 1 with size**k <= CHUNK whose `rows` rows alive over
    a chunk (the numerators of the supports inside the grid and the chunk's
    and one mismatch row per codeword, each counted at 8 bytes) fit in n
    int64 rows of CHUNK words."""
    for k in range(n, 1, -1):
        if size**k <= CHUNK and size**k * rows <= CHUNK * n:
            return k
    return 1


def _least_ratio(compiled, dtype, size: int, n: int, codewords):
    """The word of least ratio, then of least index, as (rej, mism, word
    index), or None when every word is a codeword: the scan over every word,
    in chunks that fix the first n - k positions (the prefix) and run the
    last k over one digit grid.  Every codeword's mismatch row over the
    grid comes from one broadcast of the codeword array per grid axis.
    Codewords that agree on the prefix positions differ from a chunk's
    prefix alike, so they share one grid row, the least of their own, and a
    chunk adds to one row per such group; a scan of one chunk selects from
    the grid's rows as they are."""
    letters, vec_dtype = np.arange(size), np.min_scalar_type(n)
    k = min(n, _grid_width(size, n, 2 + len(codewords)))
    head, cells = n - k, size**k
    grid_at = list(range(head, n))
    crossing = [e for e in compiled if e[0][0] < head]  # supports that read the prefix
    base = _grid_sum([e for e in compiled if e[0][0] >= head], size, grid_at, {}, dtype).reshape(-1)
    cws = np.array(codewords)
    rows = np.zeros((len(cws), 1), dtype=vec_dtype)  # per codeword, its mismatches over the grid
    for pos in reversed(grid_at):  # one axis more per position, the new one most significant
        rows = ((letters != cws[:, pos, None])[:, :, None] + rows[:, None]).reshape(len(cws), -1)
    members = {}  # per distinct codeword prefix cw[:head], its codewords
    for i, cw in enumerate(codewords):
        members.setdefault(tuple(cw[:head]), []).append(i)
    groups = {key: rows[at].min(axis=0) for key, at in members.items()}  # the least of their rows
    if head == 0:  # one chunk, one group
        return _select(None, base, groups[()], 0)
    best = None
    for c in range(size**head):  # chunks in lexicographic order of their prefix
        prefix = decode_tuple(c, size, head)[::-1]
        rej = base + _grid_sum(crossing, size, grid_at, dict(enumerate(prefix)), dtype).reshape(-1)
        mism = None  # one live row per codeword prefix at a time
        for key, row in groups.items():
            near = row + sum(a != b for a, b in zip(prefix, key))
            mism = near if mism is None else np.minimum(mism, near, out=mism)
        best = _select(best, rej, mism, c * cells)
    return best


def _prune_ratio(compiled, dtype, den: int, size: int, n: int, codewords, cap: int):
    """The prune pass at a threshold t, as a function of t: the word of
    least ratio below t, then lexicographically least, as (rej, mism,
    letters), or None.  No completion of a prefix of length d rejects less,
    or lies farther from the code than dist = min_c(ham_c + n - d), so the
    prefix dies once rej * n * t.den >= t.num * den * dist: read as rej >=
    ceiling[dist], ceil(t.num * den * dist / (n * t.den)) capped at the
    largest numerator plus one, so no product is formed and nothing can
    wrap.  At depth n, ceiling[0] is 0: codewords never survive."""
    scores = sum(int(lut.max()) for _, lut in compiled)  # no word rejects more
    survivors = _prefix_frontier(compiled, dtype, size, n, codewords, cap)

    def below(threshold: Fraction):
        a, b = n * threshold.denominator, threshold.numerator * den
        ceiling = np.array([min(-(-b * dist // a), scores + 1) for dist in range(n + 1)], dtype=dtype)
        if (kept := survivors(ceiling)) is None:
            return None
        rn, mm, i = _select(None, kept[1], kept[2].min(axis=0), 0)
        return rn, mm, tuple(kept[0][:, i].tolist())

    return below


def _prefix_frontier(compiled, dtype, size: int, n: int, codewords, cap: int):
    """The prefix kernel as a function of a ceiling table over dist = 0..n:
    the surviving words as (cols, rej, ham), or None once a depth keeps
    none; CapacityError once a frontier would pass `cap` cells (prefixes *
    |alphabet| * (n + |codewords|)).  Positions fill in order 0..n-1; each
    prefix holds its letters (cols[pos]), the reject numerator of the
    supports it closes and its mismatch count per codeword (ham).  A child
    lives while its numerator is below ceiling[dist], dist = its least
    mismatch count plus the positions left, or n without codewords.
    Children follow their parent in letter order, so the frontier stays
    lexicographically sorted, and the supports closing at a depth add their
    LUT reads in one gather, in blocks of at most CHUNK cells."""
    by_last = {}  # per last position of a support, the (support, LUT) entries
    for support, lut in compiled:
        by_last.setdefault(support[-1], []).append((support, lut))
    closing = {d: _closing_luts(entries, size) for d, entries in by_last.items()}
    letter_dtype = np.min_scalar_type(size - 1)
    letters = np.arange(size, dtype=letter_dtype)
    cws = np.array(codewords, dtype=letter_dtype).reshape(len(codewords), n)
    width = size * (n + len(codewords))

    def survivors(ceiling):
        cols = np.zeros((0, 1), dtype=letter_dtype)
        rej = np.zeros(1, dtype=dtype)
        ham = np.zeros((len(codewords), 1), dtype=np.min_scalar_type(n))
        for d in range(n):
            if len(rej) * width > cap:
                raise CapacityError(len(rej) * width, cap, "prune frontier")
            grown = np.repeat(rej[:, None], size, axis=1)  # (prefix, letter)
            if d in closing:
                others, places, last, luts = closing[d]
                block = max(1, CHUNK // grown.size)  # supports per gather: at most CHUNK cells of LUT reads
                for lo in range(0, len(last), block):  # one statement: no temporary outlives it
                    part = slice(lo, lo + block)
                    grown += luts[
                        np.matmul(cols[others[part]].transpose(0, 2, 1), places[part, :, None])  # (support, prefix, 1)
                        + last[part, None]
                    ].sum(axis=0, dtype=dtype)
            near = ham[:, :, None] + (letters != cws[:, d, None, None])  # (codeword, prefix, letter)
            rows, chosen = np.nonzero(grown < ceiling[near.min(axis=0, initial=d + 1) + (n - 1 - d)])
            if not len(rows):
                return None
            cols = np.vstack([cols[:, rows], letters[chosen][None]])
            rej, ham = grown[rows, chosen], near[:, rows, chosen]
        return cols, rej, ham

    return survivors


def _closing_luts(entries, size: int):
    """The (support, LUT) entries closing at one depth of a prune pass as
    one gather: (others, places, last, luts).  Row i of `others` holds
    support i's positions but its last, padded to the longest with position
    0 at place value 0, and row i of `places` their place values size**m;
    row i of `last` holds, per letter at the closing position, its place
    value plus the offset of support i's LUT in `luts`, all LUTs joined
    (intp indices: no wrap)."""
    width = max(len(s) for s, _ in entries) - 1
    pads = [(0,) * (width + 1 - len(s)) for s, _ in entries]
    others = np.array([s[:-1] + pad for (s, _), pad in zip(entries, pads)], dtype=np.intp)
    places = np.array(
        [tuple(size**m for m in range(len(s) - 1)) + pad for (s, _), pad in zip(entries, pads)], dtype=np.intp
    )
    lengths = np.array([len(lut) for _, lut in entries], dtype=np.intp)
    offsets = np.cumsum(lengths) - lengths
    last = offsets[:, None] + (lengths // size)[:, None] * np.arange(size)
    return others, places, last, np.concatenate([lut for _, lut in entries])


def soundness_exact(
    tester: Tester,
    code: Code,
    budget: int = DEFAULT_BUDGET,
    bound: Fraction | None = None,
) -> SoundnessReport:
    """Exact min over non-codewords of reject probability / distance to code.

    Returns the infinite sentinel when the code fills the whole space, and a
    zero value with the earliest never-rejected non-codeword when one exists.
    When some word is not a codeword, the prune ladder runs first, its
    frontier capped at `budget` cells: from a positive `bound`, or without
    one from the least check weight once |alphabet|^n passes the budget.
    Otherwise, or when that frontier overflows, the scan runs if
    |alphabet|^n fits the budget, and CapacityError carries |alphabet|^n if
    it does not.
    """
    require_compatible(tester, code)
    size, n = tester.alphabet.size, tester.n
    total = size**n
    compiled, den, dtype = _compiled_checks(tester)
    codewords = code.codewords

    def report(engine, rn, mm, letters):
        return SoundnessReport(engine, Fraction(rn * n, den * mm), Word(tester.alphabet, letters), bound)

    start = bound if bound is not None and bound > 0 else None
    if start is None and total > budget:
        # A word that rejects at all rejects at least the least check weight,
        # at relative distance at most 1: no nonzero value lies below it.
        start = min((ch.weight for ch in tester.checks), default=Fraction(1))
    if start is not None and len(codewords) < total:
        # The ladder: thresholds from the start up, doubled after each pass
        # that leaves no word (Dinkelbach's parametric test).  Some word is
        # not a codeword, so a pass leaves words or the frontier overflows.
        below, t = _prune_ratio(compiled, dtype, den, size, n, codewords, budget), start
        try:
            while (best := below(t)) is None:
                t *= 2
            return report("prune", *best)
        except CapacityError:
            pass
    if total > budget:
        raise CapacityError(total, budget, "exact soundness")
    if len(codewords) == total:
        return SoundnessReport("scan", None, None, bound)
    rn, mm, widx = _least_ratio(compiled, dtype, size, n, codewords)
    return report("scan", rn, mm, decode_tuple(widx, size, n)[::-1])


# ---------------------------------------------------------------------------
# Accepted-set enumeration: the prune pass's frontier, kept at rej == 0
# ---------------------------------------------------------------------------


def accepted_words(tester: Tester, budget: int = DEFAULT_BUDGET) -> list[tuple[int, ...]]:
    """All words with reject probability zero, in lexicographic order: the
    prune pass's frontier with no codewords and a ceiling of 1 at every
    distance, so a prefix lives while no check closing in it rejects.
    CapacityError once a frontier would pass `budget` cells (prefixes *
    |alphabet| * n), as in the ladder."""
    compiled, _, dtype = _compiled_checks(tester)
    n = tester.n
    kept = _prefix_frontier(compiled, dtype, tester.alphabet.size, n, (), budget)(np.ones(n + 1, dtype=dtype))
    return [] if kept is None else list(zip(*kept[0].tolist()))


# ---------------------------------------------------------------------------
# Seeded sampling
# ---------------------------------------------------------------------------

_K = [0x9E3779B97F4A7C15, 0xD1B54A32D192ED03, 0x8CB92BA72F3D8DD7, 0xABF5D3BC7B3E9C43, 0xC2B2AE3D27D4EB4F]
_MASK64 = (1 << 64) - 1


def _mix64(x: np.ndarray) -> np.ndarray:
    x = x.copy()
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x


def _stream(seed: int, trials: np.ndarray, attempt: int) -> np.ndarray:
    h = np.full(trials.shape, np.uint64(seed & _MASK64), dtype=np.uint64)
    h = _mix64(h + np.uint64(_K[0]))
    h = _mix64(h + trials.astype(np.uint64) * np.uint64(_K[1]))
    return _mix64(h + np.uint64((attempt * _K[2]) & _MASK64))


def _sample_letters(seed: int, trials: np.ndarray, attempt: int, n: int, size: int):
    """Uniform letters via rejection below the largest multiple of size."""
    base = _stream(seed, trials, attempt)
    threshold = np.uint64((2**64 // size) * size - 1)
    digits = []
    for j in range(n):
        key = base + np.uint64((j * _K[3]) & _MASK64)
        val = _mix64(key)
        c = 0
        while (bad := val > threshold).any():
            c += 1
            val = np.where(bad, _mix64(key + np.uint64((c * _K[4]) & _MASK64)), val)
        digits.append((val % np.uint64(size)).astype(np.int64))
    return digits


def soundness_sampled(
    tester: Tester,
    code: Code,
    trials: int,
    seed: int,
    bound: Fraction | None = None,
) -> SoundnessReport:
    """Minimum observed reject/distance ratio over sampled non-codewords.

    The result is an upper bound on the exact soundness.  Deterministic per
    seed; codeword draws are resampled within the trial's own substream.
    """
    require_compatible(tester, code)
    if trials < 1:
        raise DomainError("need at least one trial")
    size, n = tester.alphabet.size, tester.n
    if len(code.codewords) == size**n:
        return SoundnessReport("sampled", None, None, bound, trials, seed)

    def distances():  # least mismatch count per trial, one codeword row at a time
        least = None
        for cw in code.codewords:
            row = np.zeros(len(trial_idx), dtype=np.min_scalar_type(n))
            for pos in range(n):
                row += digits[pos] != cw[pos]
            least = row if least is None else np.minimum(least, row, out=least)
        return least

    compiled, den, dtype = _compiled_checks(tester)
    best = None
    for start in range(0, trials, CHUNK):  # chunks of trials, selected against the running best
        trial_idx = np.arange(start, min(start + CHUNK, trials), dtype=np.int64)
        digits = _sample_letters(seed, trial_idx, 0, n, size)
        attempt = 0
        while (member := (mism := distances()) == 0).any():
            attempt += 1
            fresh = _sample_letters(seed, trial_idx[member], attempt, n, size)
            for j in range(n):
                digits[j][member] = fresh[j]
        rej = _reject_numerators(compiled, digits, size, dtype, len(trial_idx))
        if (found := _select(best, rej, mism, start)) is not best:
            best, at = found, found[2] - start
            witness = Word(tester.alphabet, tuple(int(digits[j][at]) for j in range(n)))
        del digits, rej, mism  # freed before the next chunk is drawn
    return SoundnessReport("sampled", Fraction(best[0] * n, den * best[1]), witness, bound, trials, seed)


# ---------------------------------------------------------------------------
# Check analysis
# ---------------------------------------------------------------------------


def coordinate_classes(accept: int, size: int, arity: int, coord: int) -> list[list[int]]:
    """Partition symbols by swap-invariance at one coordinate of a check.

    Symbols a, b land in the same class when replacing a by b at position
    `coord` never changes the check's verdict, whatever the other queried
    letters are.  Classes are listed in order of their smallest member.
    This is the coarsest per-coordinate quotient the check factors through:
    any factoring g_1 x ... x g_q must identify at most what these classes
    identify, and conversely mapping each class to its own symbol always
    factors the check (change one coordinate at a time).
    """
    table, low = size**arity, size**coord
    bits = format(accept, "b").zfill(table)[::-1][:table]  # bits[i]: tuple i accepted
    signatures: dict[str, list[int]] = {}  # in order of first appearance
    for sym in range(size):
        # the tuples with `sym` at coord: o + sym * low + (higher coords) * low * size
        sig = "".join(bits[o + sym * low :: low * size] for o in range(low))
        signatures.setdefault(sig, []).append(sym)
    return list(signatures.values())


# ---------------------------------------------------------------------------
# Linearity classification
# ---------------------------------------------------------------------------


def flat_rows(space, index: np.ndarray, arity: int) -> np.ndarray:
    """The tuples of the given indices over the vector alphabet `space`
    flattened to GF(p) rows, one per index: space.flatten of the tuple of
    index i is i's arity * dim base-p digits, least significant first."""
    p = space.field.p
    return index[:, None] // p ** np.arange(arity * space.dim, dtype=np.int64) % p


def classify_linear(tester: Tester) -> tuple[tuple[tuple[int, ...], ...], ...] | None:
    """The reduced basis of each check's accept set, or None unless every
    accept set is a subspace of Sigma^arity (flattened over GF(p)); a tester
    without checks is linear, with ().  An accept set is a subspace
    exactly when it has p**rank elements: distinct vectors that many fill
    their span.  Each distinct (arity, accept) is row-reduced once."""
    space = tester.alphabet.space
    if space is None:
        raise DomainError("linearity classification needs a vector-space alphabet")
    p = space.field.p
    bases, reduced = [], {}  # reduced: (arity, accept) -> its basis, or None if no subspace
    for ch in tester.checks:
        if (key := (ch.arity, ch.accept)) not in reduced:
            flat = flat_rows(space, np.array(indices_from_accept(ch.accept), dtype=np.int64), ch.arity)
            rref, _ = row_reduce(flat.tolist(), p)
            reduced[key] = tuple(rref) if p ** len(rref) == len(flat) else None
        if reduced[key] is None:
            return None
        bases.append(reduced[key])
    return tuple(bases)
