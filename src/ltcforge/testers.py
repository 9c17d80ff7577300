"""Query testers with exact evaluation, exact and sampled soundness.

A tester is a weighted list of checks; a check reads a tuple of positions
and accepts when the observed symbol tuple lies in its accept set.  Accept
sets are stored as int bitsets over alphabet^arity, with the tuple
(t_0, ..., t_{q-1}) at bit encode_tuple(t, size) = sum t_l * size**l.

Every soundness engine runs on the tester compiled once: one weighted
reject lookup table per query support (the sorted distinct positions a
check reads), summing the integerized weights of the checks on that
support that reject; always-accept checks vanish.  Reject numerators are
int64 when no score can reach 2**62 and Python ints in object arrays
otherwise, through the same kernels, so results are exact rationals either
way.

Exact soundness has one engine, bucket elimination (Dechter 1999) on the
ratio objective, run on a plan: positions X to enumerate and blocks to
eliminate, every support lying inside X or inside X plus one block.  X
grows greedily one position at a time on the supports' primal graph, at a
cost of about |alphabet|^|X| * sum over blocks of |alphabet|^|block|, and
the cheapest plan met runs; the last one is the scan, X = every position
with no blocks.  The budget only refuses: when the cheapest plan and
|alphabet|^n both pass it, CapacityError carries the smaller of the two.
Reports name the plan: "scan" without blocks, "separator" with them.

X's assignments run in chunks of |alphabet|^k that share X's first |X| - k
letters (the prefix) and run its last k over one digit grid, a tensor with
one axis of length |alphabet| per position.  Reject numerators, mismatch
counts and word index parts are broadcast sums of small tensors over it,
with no per-word index arrays: each support's LUT (sliced at the prefix
letters when it reads the prefix) and each position's mismatch and place
value vectors, added along the axes they read.  What depends on the grid
alone is computed once: the numerators of the supports inside it and each
codeword's mismatches on it.  Per assignment of X, per block and per vector
of mismatch counts against the codewords, the engine keeps the least
(reject numerator, word index part) pair and merges the blocks by min-plus
over those vectors.  One selection step keeps the least ratio, then the
least word index (the lexicographically smallest witness); without blocks,
word indices only increase, so that is a first-hit rule on strictly smaller
ratios.

Sampled soundness draws words from per-trial substreams of a splitmix-style
generator: trial t is keyed independently of every other trial, so changing
the trial count never perturbs earlier draws.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

import numpy as np

from .algebra import DEFAULT_BUDGET, decode_tuple, encode_tuple, row_reduce
from .codes import Alphabet, Code, Word
from .errors import CapacityError, DomainError, MismatchError

ACCEPT_BITS_LIMIT = 1 << 24  # alphabet^arity per check


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


def _bits(mask: int):
    """The positions of the set bits of `mask`, ascending, one at a time:
    for the planner's position masks, a few words long."""
    while mask:
        yield (mask & -mask).bit_length() - 1
        mask &= mask - 1


def full_accept(size: int, arity: int) -> int:
    return (1 << size**arity) - 1


@dataclass(frozen=True)
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
        size, n, q = self.alphabet.size, self.n, self.q
        if q < 1:
            raise DomainError("tester arity q must be at least 1")
        for ch in self.checks:
            queries, arity = ch.queries, len(ch.queries)
            if not 0 < arity <= q:
                raise DomainError("check arity must be between 1 and q")
            if min(queries) < 0 or max(queries) >= n:
                raise DomainError("query position out of range")
            if ch.weight.numerator <= 0:  # Fraction denominators are positive
                raise DomainError("check weights must be positive")
        for arity in {len(ch.queries) for ch in self.checks}:
            accept_bits(size, arity)


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
        weights[ch.queries, ch.accept] = weights.get((ch.queries, ch.accept), 0) + ch.weight
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


def equality_tester(alphabet: Alphabet, n: int) -> Tester:
    """Uniform consecutive-pair equality checks; accepts repetition words."""
    if n < 2:
        raise DomainError("equality tester needs block length >= 2")
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


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    weight_sum: Fraction
    violations: tuple[tuple[int, tuple[int, ...]], ...]  # (check index, codeword)


def validate(tester: Tester, code: Code) -> ValidationReport:
    """Weights must sum to 1 exactly and every codeword must be accepted."""
    if tester.alphabet != code.alphabet or tester.n != code.n:
        raise MismatchError("tester incompatible with code")
    size = tester.alphabet.size
    wsum = sum((ch.weight for ch in tester.checks), Fraction(0))
    violations = []
    for ci, ch in enumerate(tester.checks):
        for cw in code.codewords:
            if not ch.accepts([cw[i] for i in ch.queries], size):
                violations.append((ci, cw))
    ok = wsum == 1 and not violations
    return ValidationReport(ok, wsum, tuple(violations))


@dataclass(frozen=True)
class SoundnessReport:
    mode: str  # "exact" | "sampled"
    value: Fraction | None  # None iff infinite (no non-codeword exists)
    infinite: bool
    witness: Word | None
    bound: Fraction | None = None
    verdict: str | None = None  # exact: pass/fail; sampled: consistent/violated
    trials: int | None = None
    seed: int | None = None
    engine: str | None = None  # "scan" | "separator" | "sampled"


def _compiled_checks(tester: Tester):
    """(support, LUT) per distinct query support, in order of the first check
    on it that can reject, the common denominator and the array dtype.  LUT
    entry sum_m s_m * size**m sums the integerized weights of the checks on
    the support that reject letters s_m at support[m] (equal checks add up
    like any two); checks reading their supports alike share one unpacking
    and one permutation to support order.  Scores (rej * mism) are at most
    sum(numerators) * n: int64 below 2**62, object arrays above."""
    size = tester.alphabet.size
    den = lcm(*(ch.weight.denominator for ch in tester.checks))  # 1 without checks
    nums = [ch.weight.numerator * (den // ch.weight.denominator) for ch in tester.checks]
    dtype = np.int64 if sum(nums) * tester.n < (1 << 62) else object
    nums = np.array(nums, dtype=dtype)
    supports, alike = [], {}  # alike: (support length, queries as support indices): checks
    for i, ch in enumerate(tester.checks):
        supports.append(tuple(sorted(set(ch.queries))))
        alike.setdefault((len(supports[i]), tuple(map(supports[i].index, ch.queries))), []).append(i)
    found = []  # (check, its LUT part) for the checks that can reject
    for (length, reads), members in alike.items():
        cells = np.arange(size**length)
        index = sum(cells // size**m % size * size**l for l, m in enumerate(reads))
        width = size ** len(reads)
        raw = b"".join(tester.checks[i].accept.to_bytes((width + 7) // 8, "little") for i in members)
        bits = np.unpackbits(np.frombuffer(raw, np.uint8).reshape(len(members), -1), 1, width, "little")
        reject = (1 - bits[:, index]).astype(dtype) * nums[members, None]
        found += [(i, row) for i, row, can in zip(members, reject, reject.any(axis=1)) if can]
    tables: dict[tuple[int, ...], np.ndarray] = {}
    for i, row in sorted(found, key=lambda f: f[0]):
        tables[supports[i]] = tables[supports[i]] + row if supports[i] in tables else row
    return list(tables.items()), den, dtype


def _reject_numerators(compiled, digits, size: int, dtype, count: int) -> np.ndarray:
    """The reject numerators of `count` words given as one digit array per
    position, each support's LUT read at sum_m digits[support[m]] * size**m."""
    rej = np.zeros(count, dtype=dtype)
    for support, lut in compiled:
        rej += lut[sum(digits[pos] * size**m for m, pos in enumerate(support))]
    return rej


def _mismatch_rows(codewords, digits, positions, count: int, dtype):
    """Per codeword, in order, the row of each word's mismatches with it at
    `positions` (digits as in `_reject_numerators`, `count` words); a row is
    built only when the previous one is taken."""
    for cw in codewords:
        row = np.zeros(count, dtype=dtype)
        for pos in positions:
            row += digits[pos] != cw[pos]
        yield row


def _grid_sum(entries, size: int, axes, fixed: dict, dtype) -> np.ndarray:
    """The sum of the (support, LUT) entries over the grid of the positions
    `axes`, the first most significant, with the letters elsewhere read from
    `fixed`: a tensor of shape (size,) * len(axes), perhaps a read-only
    broadcast view.  Each LUT becomes a tensor with one axis per support
    position, reversed (support[0] is its least significant digit), sliced
    at the fixed letters and given length-1 axes where it reads none.  The
    tensors first reading axis j are summed over their own axes, and that
    sum joins the running one as it grows from the last axis out."""
    at = {pos: i for i, pos in enumerate(axes)}
    levels = [[] for _ in range(len(axes) + 1)]  # per first axis read, tensors up to the last
    for support, lut in entries:
        cut = tuple(fixed.get(pos, slice(None)) for pos in support) + (...,)  # ...: an array, even 0-d
        read = [at[pos] for pos in support if pos not in fixed]
        t = lut.reshape((size,) * len(support)).T[cut].transpose(np.argsort(read))
        span = range(min(read), max(read) + 1) if read else ()
        levels[min(read, default=len(axes))].append(t.reshape([size if i in read else 1 for i in span]))
    acc = np.zeros((), dtype=dtype)
    for t in levels[-1]:  # supports that read no axis
        acc += t
    for j in range(len(axes) - 1, -1, -1):
        acc = np.broadcast_to(acc, (size,) + acc.shape)
        if levels[j]:
            part = np.zeros((), dtype=dtype)  # the level's sum, its last axis growing
            for t in sorted(levels[j], key=np.ndim):
                part = part.reshape(part.shape + (1,) * (t.ndim - part.ndim)) + t
            acc = acc + part.reshape(part.shape + (1,) * (acc.ndim - part.ndim))
    return acc


def _select(best, rej, mism, index):
    """The running best (rej, mism, word index) of least ratio rej/mism among
    the mism > 0 entries, then of least word index.  `index` holds the
    entries' word indices, or is the int index of the first entry when they
    count up along the arrays and from call to call: the first strict
    minimizer is then the earliest word, and an equal ratio never replaces
    the best.  In int64 one float64 pass first keeps the entries within a
    factor 1 + 2**-40 of the least float ratio: the float ratios of scores
    below 2**62 are within 2**-50 of the exact ones, so every exact minimizer
    stays."""
    valid, first_hit = mism > 0, isinstance(index, int)
    if not valid.any():
        return best
    if rej.dtype == object:
        at = np.flatnonzero(valid)
    else:
        ratio = np.divide(rej, mism, out=np.full(len(rej), np.inf), where=valid)
        at = np.flatnonzero(ratio <= ratio.min() * (1 + 2.0**-40))
    rej, index = rej[at], at + index if first_hit else index[at]
    mism = mism[at].astype(rej.dtype)  # rn * mism must not wrap either

    def entry(i):
        return int(rej[i]), int(mism[i]), int(index[i])

    best = best or entry(0)
    while (better := rej * best[1] < best[0] * mism).any():
        best = entry(int(np.argmax(better)))
    ties = () if first_hit else np.flatnonzero(rej * best[1] == best[0] * mism)
    if len(ties):
        best = min(best, entry(ties[np.argmin(index[ties])]), key=lambda e: e[2])
    return best


CHUNK = 1 << 18  # words per exact-scan chunk, unless one letter already exceeds it


def _grid_width(size: int, n: int, rows: int) -> int:
    """The largest k >= 1 with size**k <= CHUNK whose `rows` rows alive over
    a chunk (the numerators of the supports inside the grid and the chunk's,
    one mismatch row per codeword and, with blocks, the word index parts;
    each counted at 8 bytes) fit in n int64 rows of CHUNK words."""
    for k in range(n, 1, -1):
        if size**k <= CHUNK and size**k * rows <= CHUNK * n:
            return k
    return 1


def _components(adj: list[int], alive: int) -> list[int]:
    """Connected components, as bitmasks in order of their lowest position,
    of the graph with neighbour bitmasks `adj` restricted to the bitmask
    `alive`."""
    out = []
    while alive:
        comp = frontier = alive & -alive
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            new = adj[low.bit_length() - 1] & alive & ~comp
            comp |= new
            frontier |= new
        alive ^= comp
        out.append(comp)
    return out


def _separator_cost(size: int, sep_size: int, block_sizes, ncodes: int) -> int | None:
    """Cells the separator engine touches: each block's grid and each merged
    pair of tables, once per separator assignment and once per codeword.
    A block's table holds at most min(size**|B|, (|B|+1)**ncodes) mismatch
    vectors (the exponent capped at 64, where both bounds pass any budget
    below 2**63 anyway).  None when one separator assignment alone would
    hold more than CHUNK cells of a block grid or of a merge."""
    cells = pairs = 0
    acc, covered = 1, 0
    for length in block_sizes:
        table = min(size**length, (length + 1) ** min(ncodes, 64))
        if size**length > CHUNK or acc * table > CHUNK:
            return None
        covered += length
        cells += size**length
        pairs += acc * table
        acc = min(acc * table, (covered + 1) ** min(ncodes, 64))
    return (size**sep_size + ncodes) * (1 + cells + pairs)


def _cut_pieces(adj: list[int], block: int) -> dict[int, list[int]]:
    """Per position p of the connected bitmask `block`, the components (as
    bitmasks) left once p is removed, all from one low-link DFS (Tarjan 1972)."""
    root = (block & -block).bit_length() - 1
    order, low, below, pieces = {root: 0}, {root: 0}, {root: 1 << root}, {root: []}
    stack = [(root, _bits(adj[root] & block))]
    while stack:
        v, edges = stack[-1]
        for w in edges:
            if w not in order:
                order[w] = low[w] = len(order)
                below[w], pieces[w] = 1 << w, []
                stack.append((w, _bits(adj[w] & block)))
                break
            low[v] = min(low[v], order[w])
        else:
            stack.pop()
            if stack:
                u = stack[-1][0]
                low[u] = min(low[u], low[v])
                below[u] |= below[v]
                if low[v] >= order[u]:  # v's subtree hangs on u alone
                    pieces[u].append(below[v])
    for p, ps in pieces.items():
        rest = block ^ 1 << p ^ sum(ps)  # the pieces are disjoint
        ps += [rest] if rest else []
    return pieces


def _separator_plan(size: int, n: int, supports, ncodes: int, budget: int = DEFAULT_BUDGET):
    """(cost, separator, blocks): the cheapest feasible plan met while X grows
    greedily on the supports' primal graph up to the scan (X = every
    position, no blocks, cost |alphabet|^n + #codewords); blocks as sorted
    positions, None when none is met.  Each step removes the position leaving
    the cheapest plan; infeasible ones rank by largest block, then by the sum
    of |alphabet|^|block| (toward balanced cuts), then by lowest position.
    Growth stops once |alphabet|^|X| alone would reach the best cost or pass
    the budget: no such plan can be used."""
    adj = [0] * n
    for support in supports:
        mask = sum(1 << p for p in support)
        for p in support:
            adj[p] |= mask

    def rank(k, blocks):  # (infeasible, cost or else largest block, balance)
        sizes = [b.bit_count() for b in blocks]
        cost = _separator_cost(size, k, sizes, ncodes)
        return (False, cost, 0) if cost is not None else (True, max(sizes), sum(size**s for s in sizes))

    sep, blocks, best = [], _components(adj, (1 << n) - 1), None
    while True:
        infeasible, cost, _ = rank(len(sep), blocks)
        if not infeasible and (best is None or cost < best[0]):
            best = (cost, sorted(sep), blocks)
        if not blocks or size ** (len(sep) + 1) > (budget if best is None else min(budget, best[0] - 1)):
            break
        candidates = []
        for i, block in enumerate(blocks):
            for p, pieces in _cut_pieces(adj, block).items():
                after = sorted(blocks[:i] + blocks[i + 1 :] + pieces, key=lambda b: b & -b)
                candidates.append((rank(len(sep) + 1, after), p, after))
        _, p, blocks = min(candidates)
        sep.append(p)
    return best and (best[0], best[1], [list(_bits(b)) for b in best[2]])


def _grouped_rows(rows):
    """The distinct rows of a 2-d array in lexicographic order, and the
    grouping by them that `_group_min` takes: (order, starts, counts), the
    row indices sorted by row and each distinct row's run in that order.
    One stable lexsort; np.unique(axis=0) sorts opaque bytes, ten times slower."""
    order = np.lexsort(rows.T[::-1])
    rows = rows[order]
    starts = np.flatnonzero(np.concatenate(([True], (rows[1:] != rows[:-1]).any(axis=1))))
    return rows[starts], (order, starts, np.diff(starts, append=len(order)))


def _group_min(rej, tie, grouping, top):
    """Per row and per group of columns (as `_grouped_rows` gives them), the
    least (rej, tie) pair in lexicographic order, as two (rows, groups)
    arrays; one row of ties may serve every row.  `top` exceeds every tie."""
    order, starts, counts = grouping
    rej, tie = rej[:, order], tie[..., order]
    low = np.minimum.reduceat(rej, starts, axis=1)
    tie = np.where(rej == np.repeat(low, counts, axis=1), tie, top)
    return low, np.minimum.reduceat(tie, starts, axis=1)


def _least_ratio(compiled, dtype, size: int, n: int, codewords, sep, blocks):
    """The word of least ratio, then of least index, as (rej, mism, word
    index), or None when every word is a codeword.  Every support lies
    inside sep or inside sep + B for one block B; the scan is sep = every
    position and no blocks.

    For each assignment x of sep and each vector of mismatch counts against
    the codewords, a block keeps its least (reject numerator, word index
    part) pair; a min-plus merge over vector sums combines the blocks.  Both
    parts add over disjoint positions and the lexicographic order on pairs
    survives addition, so the least pair of a merged vector is that of the
    best split.  Each chunk of x runs in slices of a power of |alphabet|
    grid cells, about CHUNK grid or merge cells each: a slice is the grid of
    sep's last positions, its first ones fixed like the prefix."""
    top = size**n
    tie_dtype = np.uint64 if top < 2**64 else object  # word indices
    vec_dtype = np.min_scalar_type(n)
    letters = np.arange(size)

    def mismatch_rows(axes):  # per codeword, its mismatches over the grid of `axes`
        vectors = [[((pos,), letters != cw[pos]) for pos in axes] for cw in codewords]
        return [_grid_sum(v, size, axes, {}, vec_dtype).reshape(-1) for v in vectors]

    def tie_part(axes):  # the word index part of the grid of `axes`
        places = [((pos,), letters.astype(tie_dtype) * size ** (n - 1 - pos)) for pos in axes]
        return _grid_sum(places, size, axes, {}, tie_dtype).reshape(-1)

    own = [e for e in compiled if set(sep).issuperset(e[0])]
    k = min(len(sep), _grid_width(size, len(sep), 2 + len(codewords) + bool(blocks)))
    head = len(sep) - k
    grid_at, cells = sep[head:], size**k
    crossing = [e for e in own if e[0][0] in sep[:head]]  # supports that read the prefix
    base = _grid_sum([e for e in own if e[0][0] not in sep[:head]], size, grid_at, {}, dtype).reshape(-1)
    grid_mism = mismatch_rows(grid_at)
    grid_tie = tie_part(grid_at) if blocks else None
    # What does not depend on x: per block its supports (those inside it and
    # those reading both sep and it), its word index parts, how its mismatch
    # vectors group its cells and how they merge into the running sums.
    steps, acc_vec, width = [], np.zeros((1, len(codewords)), dtype=vec_dtype), 1
    for block in blocks:
        vec, by_vec = _grouped_rows(np.stack(mismatch_rows(block), 1))
        pairs = (acc_vec[:, None, :] + vec[None, :, :]).reshape(-1, len(codewords))
        width = max(width, size ** len(block), len(pairs))
        acc_vec, by_merge = _grouped_rows(pairs)
        entries = [e for e in compiled if set(block).intersection(e[0])]
        steps.append((block, entries, tie_part(block), by_vec, by_merge))

    free = k  # slices are the grids of sep's last `free` positions
    while blocks and free and size**free > CHUNK // width:
        free -= 1
    step, best = size**free, None
    for c in range(size**head):  # chunks in lexicographic order of their prefix
        prefix = decode_tuple(c, size, head)[::-1]
        fixed = dict(zip(sep, prefix))
        rej = base + _grid_sum(crossing, size, grid_at, fixed, dtype).reshape(-1)
        shifts = [sum(a != cw[pos] for pos, a in fixed.items()) for cw in codewords]
        prefix_index = sum(a * size ** (n - 1 - pos) for pos, a in fixed.items())
        for lo in range(0, cells, step):
            acc_rej = rej[lo : lo + step, None]
            acc_tie = grid_tie[lo : lo + step, None] + prefix_index if blocks else None
            fixed.update(zip(grid_at, decode_tuple(lo // step, size, k - free)[::-1]))
            for block, entries, tie, by_vec, by_merge in steps:
                blk = _grid_sum(entries, size, sep[len(sep) - free :] + block, fixed, dtype).reshape(step, -1)
                blk, blk_tie = _group_min(blk, tie, by_vec, top)
                acc_rej, acc_tie = _group_min(
                    (acc_rej[:, :, None] + blk[:, None, :]).reshape(step, -1),
                    (acc_tie[:, :, None] + blk_tie[:, None, :]).reshape(step, -1),
                    by_merge,
                    top,
                )
            mism = None  # one live row per codeword at a time
            for row, shift, vec in zip(grid_mism, shifts, acc_vec.T):
                near = row[lo : lo + step, None] + (vec + shift)
                mism = near if mism is None else np.minimum(mism, near, out=mism)
            index = acc_tie.reshape(-1) if blocks else c * cells + lo
            best = _select(best, acc_rej.reshape(-1), mism.reshape(-1), index)
    return best


def soundness_exact(
    tester: Tester,
    code: Code,
    budget: int = DEFAULT_BUDGET,
    bound: Fraction | None = None,
) -> SoundnessReport:
    """Exact min over non-codewords of reject probability / distance to code.

    Returns the infinite sentinel when the code fills the whole space, and a
    zero value with the earliest never-rejected non-codeword when one exists.
    The cheapest plan `_separator_plan` meets runs, the scan only when it is
    the cheapest; when that plan's cost and |alphabet|^n both pass the
    budget, CapacityError carries the smaller of the two.
    """
    if tester.alphabet != code.alphabet or tester.n != code.n:
        raise MismatchError("tester incompatible with code")
    size, n = tester.alphabet.size, tester.n
    total = size**n
    compiled, den, dtype = _compiled_checks(tester)
    plan = _separator_plan(size, n, [s for s, _ in compiled], len(code.codewords), budget)
    if plan is None or min(total, plan[0]) > budget:
        raise CapacityError(total if plan is None else min(total, plan[0]), budget, "exact soundness")
    _, sep, blocks = plan
    engine = "separator" if blocks else "scan"
    codewords = code.codewords
    best = None if len(codewords) == total else _least_ratio(compiled, dtype, size, n, codewords, sep, blocks)
    if best is None:
        verdict = None if bound is None else "pass"
        return SoundnessReport("exact", None, True, None, bound, verdict, engine=engine)
    rn, mm, widx = best
    value = Fraction(rn * n, den * mm)
    witness = Word(tester.alphabet, decode_tuple(widx, size, n)[::-1])
    verdict = None if bound is None else ("pass" if value >= bound else "fail")
    return SoundnessReport("exact", value, False, witness, bound, verdict, engine=engine)


# ---------------------------------------------------------------------------
# Accepted-set enumeration (exact, pruned)
# ---------------------------------------------------------------------------


def accepted_words(tester: Tester, budget: int = DEFAULT_BUDGET) -> list[tuple[int, ...]]:
    """All words with reject probability zero, in lexicographic order.

    Exact enumeration by depth-first extension: a prefix is abandoned as
    soon as some check contained in it rejects, which covers the whole
    |alphabet|^n space without visiting rejected subtrees.
    """
    size, n = tester.alphabet.size, tester.n
    if size**n > budget:
        raise CapacityError(size**n, budget, "accepted-set enumeration")
    by_max: list[list[tuple[tuple[int, ...], list[int], int]]] = [[] for _ in range(n)]
    for ch in tester.checks:
        powers = [size**l for l in range(ch.arity)]
        by_max[max(ch.queries)].append((ch.queries, powers, ch.accept))
    out: list[tuple[int, ...]] = []
    prefix = [0] * n

    def extend(depth: int) -> None:
        if depth == n:
            out.append(tuple(prefix))
            return
        for sym in range(size):
            prefix[depth] = sym
            for queries, powers, accept in by_max[depth]:
                idx = 0
                for pos, pw in zip(queries, powers):
                    idx += prefix[pos] * pw
                if not (accept >> idx) & 1:
                    break
            else:
                extend(depth + 1)

    if n > 0:
        extend(0)
    return out


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
    if tester.alphabet != code.alphabet or tester.n != code.n:
        raise MismatchError("tester incompatible with code")
    if trials < 1:
        raise DomainError("need at least one trial")
    size, n = tester.alphabet.size, tester.n
    if len(code.codewords) == size**n:
        verdict = None if bound is None else "consistent"
        return SoundnessReport("sampled", None, True, None, bound, verdict, trials, seed, "sampled")

    def distances():  # least mismatch count per trial, one codeword row at a time
        rows = _mismatch_rows(code.codewords, digits, range(n), trials, np.min_scalar_type(n))
        best = next(rows)
        for row in rows:
            np.minimum(best, row, out=best)
        return best

    trial_idx = np.arange(trials, dtype=np.int64)
    digits = _sample_letters(seed, trial_idx, 0, n, size)
    attempt = 0
    while (member := distances() == 0).any():
        attempt += 1
        redo = trial_idx[member]
        fresh = _sample_letters(seed, redo, attempt, n, size)
        for j in range(n):
            digits[j][member] = fresh[j]

    compiled, den, dtype = _compiled_checks(tester)
    rej = _reject_numerators(compiled, digits, size, dtype, trials)
    rn, mm, t = _select(None, rej, distances(), 0)
    value = Fraction(rn * n, den * mm)
    witness = Word(tester.alphabet, tuple(int(digits[j][t]) for j in range(n)))
    verdict = None if bound is None else ("violated" if value < bound else "consistent")
    return SoundnessReport("sampled", value, False, witness, bound, verdict, trials, seed, "sampled")


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


@dataclass(frozen=True)
class LinearClassification:
    kind: str  # "nonlinear" | "linear"
    subspace_bases: tuple[tuple[tuple[int, ...], ...], ...] | None


def classify_linear(tester: Tester) -> LinearClassification:
    """linear: every accept set is a subspace of Sigma^arity (flattened over
    GF(p)), with its reduced basis per check.  An accept set is a subspace
    exactly when it has p**rank elements: distinct vectors that many fill
    their span."""
    space = tester.alphabet.space
    if space is None:
        raise DomainError("linearity classification needs a vector-space alphabet")
    p = space.field.p
    size = tester.alphabet.size
    bases = []
    for ch in tester.checks:
        flat = [space.flatten(tup) for tup in tuples_from_accept(ch.accept, size, ch.arity)]
        rref, _ = row_reduce(flat, p)
        if p ** len(rref) != len(flat):
            return LinearClassification("nonlinear", None)
        bases.append(tuple(rref))
    return LinearClassification("linear", tuple(bases))
