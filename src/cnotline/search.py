"""Exhaustive optimal-depth search over GL_n(2) for small n.

States are matrices packed into n^2-bit integers; one BFS step applies
every legal time slice at once.  Since a slice is an involution, the
Cayley graph is undirected, the BFS tree from the identity gives true
minimum circuit depths, and witnesses are walked back level by level
with the engines' gate terms.

Two generators yield the levels out from the identity as sorted arrays
of codes, each with its count of states:

- n <= DENSE_LIMIT (5): `_dense_levels` writes each state's depth plus
  one into a uint8 table over all 2^(n^2) codes (0: not reached) and
  holds int32 codes.  It sorts each level and expands it in cache-sized
  chunks, so each chunk's table lookups stay in a narrow window.  The
  walk does not depend on the target, so a process keeps one table per
  n, with its generator suspended between levels, and grows it only as
  far as a call needs.  A call answers from the table: the target lies
  at depth table[T] - 1, and a witness steps down the depths.
  The first call in a process pays for the levels it reaches; on a
  2-CPU machine a cold `search --n 5 --max` takes 0.8-1.2 s and 99 MB,
  against 10-11 s and 155 MB for a full sweep on the sorted engine.
  After it, every n = 5 search is a lookup of about 0.04 ms median.  The
  table then keeps 32 MB at n = 5 for the life of the process, plus the
  newest level (up to 14 MB) while the sweep is unfinished.
- n = 6..8 distance searches: `_sorted_levels` keeps each level as a
  sorted array of unique uint64 keys, one per mirror pair {s, J s J}
  (J reverses the wires), so it sorts and searches about half as many
  codes as the level has states; in the dense engine pairing measured
  no faster.  The neighbours of level L lie in levels L-1, L and L+1,
  so only those levels are ever consulted, through np.searchsorted.
  Both sides of a lookup are sorted and unique, so the smaller array
  is searched in the larger.  Repeats are dropped by sorting and
  comparing neighbours, because np.unique (numpy 2.4) takes about 3 s
  on 3 M uint64 codes against 0.06 s for the sort.  It refuses to keep
  more than SORTED_LIMIT states in all.  A process keeps the levels of
  one n at a time, with the generator suspended after the newest, and
  grows them only as far as a call needs: the n = 6 depth-7 ball keeps
  87 MB.  A level refused or failed part-way leaves the kept ones, and a
  new generator walks on from the last two.  A call makes the target's
  key once and finds it in the kept levels.

Both engines grow and answer through `_ball`.

A full sweep of GL_6(2), 20 158 709 760 matrices, fits in neither.
"""

from __future__ import annotations

__all__ = ["SearchResult", "distance", "max_depth", "slice_generators"]

import threading
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, ResourceLimitError
from .f2 import BitMatrix

# Largest n for the dense engine: its depth table has 2^(n^2) entries,
# 32 MB at n = 5 and 64 GB at n = 6, so larger n use the sorted engine.
DENSE_LIMIT = 5

# The sorted engine keeps at most this many states in its levels at once
# (about 128 MB of uint64 keys), which is enough for depth_limit=7 at
# n = 6: the ball B_7 there has 21 771 335 states.
SORTED_LIMIT = 1 << 25

# Neighbour codes generated per chunk of a sorted level (16 MB).
_CHUNK_CODES = 1 << 21

# Frontier codes the dense engine expands at once: its int32 buffers, one
# per gate term and one for neighbours (1.1 MB at n = 5), stay in cache.
# 2^14..2^15 measured fastest for a full n = 5 sweep; 2^16..2^17 (about
# _CHUNK_CODES per generator) were 10-15 % slower.
_DENSE_CHUNK = 1 << 15


def check_wire_count(n: int, top: int = 8) -> None:
    """Refuse n outside 2..top; at n = 8 a packed state fills a uint64."""
    if not 2 <= n <= top:
        raise ValueError(f"supported wire counts are 2..{top}, got {n}")


@dataclass(frozen=True)
class SearchResult:
    """Outcome of a BFS search.

    value is the distance or eccentricity; when completed is False the
    search stopped at a depth limit and value means "distance exceeds
    this many slices".  level_sizes[d] counts the states at distance d
    from the identity, for every level the search built.
    """

    n: int
    mode: str
    value: int
    completed: bool
    level_sizes: tuple[int, ...]
    witness: "Circuit | None" = None

    @property
    def visited_count(self) -> int:
        """Distinct states reached."""
        return sum(self.level_sizes)


def slice_generators(n: int) -> list[tuple[int, int]]:
    """Every nonempty set of wire-disjoint adjacent gates on n wires, as (up, down) masks.

    The count follows g(n-1) - 1 with g(0)=1, g(1)=3 and
    g(t) = g(t-1) + 2 g(t-2): a position is either skipped or carries
    one of two gate directions, blocking its neighbor.
    """
    check_wire_count(n)
    out: list[tuple[int, int]] = []

    def extend(pos: int, up: int, down: int) -> None:
        if pos > n - 1:
            if up | down:
                out.append((up, down))
            return
        extend(pos + 1, up, down)
        extend(pos + 2, up | 1 << pos, down)
        extend(pos + 2, up, down | 1 << pos)

    extend(1, 0, 0)
    return out


def encode_state(m: BitMatrix) -> int:
    """Pack entry (i, j) into bit (i-1)*n + (j-1): the packed rows end to end."""
    return sum(1 << i * m.n + j for j, c in enumerate(m.cols) for i in range(m.n) if c >> i & 1)


def _gate_terms(n: int, dtype: type) -> tuple[list, list[tuple[int, ...]]]:
    """Each gate's term of a packed state, and each slice as its gates.

    Gate 2p + d is terms[2p + d - 2] = (d, mask) with a dtype mask: its
    term in state s is (s >> 1 if d == 0 else s << 1) & mask.  gens lists
    slice_generators(n), in order, as the indices of their gates' terms,
    and a slice takes s to s XOR its terms.
    """
    rows = sum(1 << (i * n) for i in range(n))
    terms = [(d, dtype((1 << (p - 1 + d)) * rows)) for p in range(1, n) for d in (0, 1)]
    gens = [tuple(2 * p + d - 2 for p in range(1, n) for d in (0, 1) if sl[d] >> p & 1)
            for sl in slice_generators(n)]
    return terms, gens


def _term_values(block: np.ndarray, terms: list, out: np.ndarray) -> np.ndarray:
    """Fill out[t] with gate term t of every code in block."""
    # a Python int shift keeps the dtype; NumPy 2 will not shift uint64 by int64
    shifted = (block >> 1, block << 1)
    for t, (d, mask) in enumerate(terms):
        np.bitwise_and(shifted[d], mask, out=out[t])
    return out


def _apply_slice(block: np.ndarray, values: np.ndarray, gates: tuple, out: np.ndarray) -> None:
    """out = block XOR the rows of values that gates index."""
    np.bitwise_xor(block, values[gates[0]], out=out)
    for t in gates[1:]:
        np.bitwise_xor(out, values[t], out=out)


def _lookup(codes: np.ndarray, level: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each code's position in the sorted level, clamped to its last entry,
    and whether the level holds the code there."""
    if not level.size:
        return np.zeros(codes.shape, np.intp), np.zeros(codes.shape, dtype=bool)
    at = np.searchsorted(level, codes)
    np.minimum(at, level.size - 1, out=at)
    return at, level[at] == codes


def _members(codes: np.ndarray, level: np.ndarray) -> np.ndarray:
    """Whether the sorted level holds each code, as a bool array."""
    return _lookup(codes, level)[1]


def _unknown(fresh: np.ndarray, known: np.ndarray) -> np.ndarray:
    """The keys of fresh that known lacks.  Both are sorted and unique, so
    the smaller is looked up in the larger: when fresh is larger, the hits
    of known in fresh are marked and dropped."""
    if fresh.size <= known.size:
        return fresh[~_members(fresh, known)]
    # made before the lookup's arrays: the other order raised the n = 6
    # depth-7 peak RSS by 6 MB with the same traced peak
    keep = np.ones(fresh.size, dtype=bool)
    at, hits = _lookup(known, fresh)
    keep[at[hits]] = False
    return fresh[keep]


# _mirror's swaps after the byte swap: nibbles, bit pairs, then bits
_SWAPS = ((np.uint64(0x0F0F0F0F0F0F0F0F), 4), (np.uint64(0x3333333333333333), 2),
          (np.uint64(0x5555555555555555), 1))


def _mirror(codes: np.ndarray, n: int) -> np.ndarray:
    """J s J for each uint64 code s: the circuit flipped top to bottom.

    Entry (i, j) moves to (n+1-i, n+1-j), bit b to bit n^2 - 1 - b, so
    this reverses the 64 bits (bytes, then nibbles, pairs and bits) and
    shifts the n^2 code bits back down.
    """
    out = codes.byteswap()
    for mask, k in _SWAPS:
        low = out & mask
        out >>= k
        out &= mask
        low <<= k
        out |= low
    out >>= 64 - n * n
    return out


def _keys(codes: np.ndarray, n: int) -> np.ndarray:
    """The sorted engine's code for each uint64 state: the smaller of s and J s J."""
    return np.minimum(codes, _mirror(codes, n))


def _dense_levels(n: int, table: np.ndarray):
    """Yield each BFS level as (sorted int32 codes, state count).

    table, a zeroed uint8 array over all 2^(n^2) codes, records each
    state reached: 0 until then, its depth plus one after, so it holds
    exactly the levels yielded so far.  int32 holds every code shifted
    by one: n^2 <= 25 bits, so s << 1 stays below 2^26.
    """
    terms, gens = _gate_terms(n, np.int32)
    bufs = np.empty((len(terms) + 1, _DENSE_CHUNK), dtype=np.int32)  # terms, neighbours
    depth_buf = np.empty(_DENSE_CHUNK, dtype=np.uint8)
    new_buf = np.empty(_DENSE_CHUNK, dtype=bool)

    def expand(frontier: np.ndarray, mark: int) -> np.ndarray:
        """The sorted level after frontier, marked in table.  Its parts
        go when this returns, so a suspended generator holds only the
        table and the newest level."""
        parts = []
        for lo in range(0, frontier.size, _DENSE_CHUNK):
            block = frontier[lo : lo + _DENSE_CHUNK]
            values = _term_values(block, terms, bufs[:-1, : block.size])
            nb, depth = bufs[-1, : block.size], depth_buf[: block.size]
            new = new_buf[: block.size]
            for gates in gens:
                _apply_slice(block, values, gates, nb)
                np.take(table, nb, out=depth)
                fresh = np.compress(np.equal(depth, 0, out=new), nb)
                if fresh.size:
                    table[fresh] = mark
                    parts.append(fresh)
        # sorted, the next level's chunks share their top rows, so each
        # chunk's table lookups fall in a narrow window of the table
        level = np.concatenate(parts) if parts else np.empty(0, dtype=np.int32)
        level.sort()
        return level

    frontier = np.array([encode_state(BitMatrix.identity(n))], dtype=np.int32)
    mark = 1
    table[frontier] = mark
    while frontier.size:
        yield frontier, frontier.size
        mark += 1
        frontier = expand(frontier, mark)


# The one walk out of the identity per n, kept for the life of the
# process and grown only as far as a call needs: n -> (depth table or
# list of kept key levels, suspended generator, level sizes so far).
# Growth holds the lock; a grown level never changes, so readers need none.
_BALLS: dict = {}
_BALLS_LOCK = threading.Lock()


def _ball(n: int, target_code: int, depth_limit: "int | None" = None):
    """The process's levels for n, grown until one holds the target,
    depth_limit levels lie beyond the identity or the whole group is
    swept.  Returns (the target's depth or None, holds, level sizes):
    holds(d, codes) says, as a bool array, which of the uint64 states
    codes level d holds.  The dense engine reads its depth table; the
    sorted engine looks their _keys up in its levels, and the process
    keeps the levels of one n > DENSE_LIMIT at a time.
    """
    code = np.array([target_code], dtype=np.uint64)
    with _BALLS_LOCK:
        if n not in _BALLS:
            if n > DENSE_LIMIT:
                for other in [m for m in _BALLS if m > DENSE_LIMIT]:
                    del _BALLS[other]
                _BALLS[n] = [], _sorted_levels(n), []
            else:
                table = np.zeros(1 << (n * n), dtype=np.uint8)
                _BALLS[n] = table, _dense_levels(n, table), []
        store, levels, sizes = _BALLS[n]
        key = _keys(code, n) if n > DENSE_LIMIT else None  # the target's, once per call

        def holds(d, codes):
            if n > DENSE_LIMIT:
                return _members(_keys(codes, n), store[d])
            return store[codes] == d + 1

        def found(d):
            return (_members(key, store[d]) if n > DENSE_LIMIT else store[code] == d + 1)[0]

        dist = next((d for d in range(len(sizes)) if found(d)), None)
        try:
            while dist is None and (depth_limit is None or len(sizes) <= depth_limit):
                level = next(levels, None)
                if level is None:
                    break
                if n > DENSE_LIMIT:
                    store.append(level[0])
                sizes.append(level[1])
                if found(len(sizes) - 1):
                    dist = len(sizes) - 1
        except BaseException:
            if n > DENSE_LIMIT:  # the kept levels stand: walk on from the last two
                _BALLS[n] = store, _sorted_levels(n, store, sum(sizes)), sizes
            else:  # a level cut short leaves the table part written: start afresh
                del _BALLS[n]
            raise
    return dist, holds, sizes


def _witness_from_levels(n: int, holds, dist: int, target_code: int) -> Circuit:
    """Walk back from the target at depth dist, one slice per level,
    taking the first slice in slice_generators order whose image lies
    in the level below.  holds(d, codes) says, as a bool array, which of
    the uint64 states codes level d holds (see _ball).
    """
    terms, gens = _gate_terms(n, np.uint64)
    slices = slice_generators(n)
    code = np.array([target_code], dtype=np.uint64)
    values = np.empty((len(terms), 1), np.uint64)
    backs = np.empty((len(gens), 1), np.uint64)
    picked: list[tuple[int, int]] = []
    for d in range(dist - 1, -1, -1):
        _term_values(code, terms, values)
        for g, gates in enumerate(gens):
            _apply_slice(code, values, gates, backs[g])
        hits = holds(d, backs[:, 0])
        if not hits.any():
            raise AssertionError("BFS level structure is inconsistent")
        g = int(hits.argmax())
        picked.append(slices[g])
        code = backs[g].copy()
    return Circuit(n, tuple(u for u, _ in picked[::-1]), tuple(d for _, d in picked[::-1]))


def _sorted_unique(codes: np.ndarray) -> np.ndarray:
    """codes, sorted in place, each once (np.unique is far slower on uint64)."""
    codes.sort()
    keep = np.empty(codes.size, dtype=bool)
    keep[:1] = True
    np.not_equal(codes[1:], codes[:-1], out=keep[1:])
    return codes[keep]


def _sorted_levels(n: int, kept: "list[np.ndarray] | None" = None, total: int = 0):
    """Yield each BFS level as (sorted uint64 keys, state count), or only
    those after the kept levels, which hold total states.

    A level keeps one key per mirror pair, min(s, J s J) (see _keys); its
    state count is 2 keys less the fixed points s = J s J.  J-conjugation
    keeps depth and maps each slice S to a slice S' = J S J, so the keys
    next to a key k are min(k S, (J k J) S') over the slices S: a block
    and its mirror are expanded with the same gate terms, the mirror's
    read in reverse order, and no image is bit-reversed.

    Each level is built from the current one a chunk at a time.  A
    chunk's neighbours lie in the previous, current or next level, so
    those already in the previous level, the current one or the next
    level as built so far are dropped, and the rest are merged into the
    next.  Each drop searches the smaller of the chunk's fresh keys and
    the level in the larger (_unknown), so a small previous level costs
    a few searches in the chunk, not one search per fresh key.

    Raises:
        ResourceLimitError: if the levels yielded, which the caller
            keeps, plus the level being built would exceed SORTED_LIMIT
            states.
    """
    # uint64 because at n = 8 entry (8, 8) packs to bit 63
    terms, gens = _gate_terms(n, np.uint64)
    chunk = max(1, _CHUNK_CODES // len(gens))
    start = kept or [np.array([encode_state(BitMatrix.identity(n))], dtype=np.uint64)]
    prev, cur = ([np.empty(0, dtype=np.uint64)] + start)[-2:]
    depth = len(start) - 1
    if not kept:
        total = 1
        yield cur, total
    while True:
        nxt = np.empty(0, dtype=np.uint64)
        nxt_states = 0
        for lo in range(0, cur.size, chunk):
            block = cur[lo : lo + chunk]
            mirrored = _mirror(block, n)
            shape = (len(terms), block.size)
            values = _term_values(block, terms, np.empty(shape, np.uint64))
            # gate term t of J s J is term 2n - 3 - t of s mirrored
            mvalues = _term_values(mirrored, terms, np.empty(shape, np.uint64))[::-1]
            images = np.empty((len(gens), block.size), dtype=np.uint64)
            other = np.empty(block.size, dtype=np.uint64)
            for g, gates in enumerate(gens):
                _apply_slice(block, values, gates, images[g])
                _apply_slice(mirrored, mvalues, gates, other)
                np.minimum(images[g], other, out=images[g])
            fresh = _sorted_unique(images.reshape(-1))
            del mirrored, values, mvalues, images, other  # freed before the merge
            for known in (prev, cur, nxt):
                fresh = _unknown(fresh, known)
            fresh_states = 2 * fresh.size - int(np.count_nonzero(_mirror(fresh, n) == fresh))
            if total + nxt_states + fresh_states > SORTED_LIMIT:
                raise ResourceLimitError(
                    f"level {depth + 1} of the n={n} search would hold more "
                    f"than {SORTED_LIMIT} states at once; lower the depth limit"
                )
            nxt = np.concatenate([nxt, fresh])
            nxt_states += fresh_states
            # two sorted runs: the stable sort (timsort) merges them in one pass
            nxt.sort(kind="stable")
        if not nxt.size:
            return
        del fresh, known  # chunk leftovers: a suspended walk keeps only its levels
        prev, cur = cur, nxt
        depth, total = depth + 1, total + nxt_states
        yield cur, nxt_states


def distance(
    n: int,
    target: BitMatrix,
    depth_limit: "int | None" = None,
    *,
    witness: bool = False,
) -> SearchResult:
    """Minimum depth of any circuit computing the target matrix.

    Args:
        n: wire count, 2..8 (above 5 the search keeps sorted levels and
            needs a depth limit to stay within memory).
        target: invertible target matrix of dimension n.
        depth_limit: stop after this many levels and report the distance
            as "> depth_limit" via completed=False.
        witness: also reconstruct a minimum-depth circuit.

    Returns:
        SearchResult with mode "distance-to-target".

    Raises:
        ValueError: for n outside 2..8.
        ResourceLimitError: above n = 5 without a depth limit, or when
            the levels kept for n, every one out to the depth the call
            needs, would exceed SORTED_LIMIT states.
    """
    check_wire_count(n)
    if target.n != n:
        raise ValueError(f"target dimension {target.n} does not match n={n}")
    if not target.is_invertible:
        raise ValueError("target matrix is singular; unreachable by CNOT circuits")
    if depth_limit is not None and depth_limit < 0:
        raise ValueError(f"depth limit must be nonnegative, got {depth_limit}")
    if n > DENSE_LIMIT and depth_limit is None:
        raise ResourceLimitError(
            f"an unlimited distance search at n={n} can visit up to "
            f"2^{n * n} states; pass a depth limit"
        )
    target_code = encode_state(target)
    dist, holds, sizes = _ball(n, target_code, depth_limit)
    if dist is None or depth_limit is not None and dist > depth_limit:
        # only a limited search misses: the group holds every invertible target
        sizes = sizes[: depth_limit + 1]
        return SearchResult(n, "distance-to-target", depth_limit, False, tuple(sizes))
    built = _witness_from_levels(n, holds, dist, target_code) if witness else None
    return SearchResult(n, "distance-to-target", dist, True, tuple(sizes[: dist + 1]), built)


def max_depth(n: int) -> SearchResult:
    """Eccentricity of the identity: the depth of the hardest matrix.

    Only the dense engine sweeps a whole group, so n = 6 is refused.
    """
    check_wire_count(n, 6)
    if n > DENSE_LIMIT:
        raise ResourceLimitError(
            "the n=6 sweep would walk all 20158709760 elements of GL_6(2), "
            f"which does not fit in memory; --max covers n <= {DENSE_LIMIT}"
        )
    sizes = _ball(n, 0)[2]  # code 0, the zero matrix, is never reached
    return SearchResult(n, "diameter", len(sizes) - 1, True, tuple(sizes))
