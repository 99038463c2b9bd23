"""Exhaustive optimal-depth search over GL_n(2) for small n.

States are matrices packed into n^2-bit integers; one BFS step applies
every legal time slice at once.  Since a slice is an involution, the
Cayley graph is undirected, the BFS tree from the identity gives true
minimum circuit depths, and witnesses can be walked back level by level
with the same generators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, TimeSlice, down, up
from .f2 import BitMatrix

# Beyond this side length the dense visited array (2^(n^2) flags) stops
# fitting in ordinary memory; n = 6 takes ~26 GB of bitmaps and hours.
DENSE_LIMIT = 5


class ResourceLimitError(RuntimeError):
    """Raised when a search would exceed its declared memory budget."""


@dataclass(frozen=True)
class SearchResult:
    """Outcome of a BFS search.

    value is the distance or eccentricity; when completed is False the
    search stopped at a depth limit and value means "distance exceeds
    this many slices".  visited_count tallies distinct states reached.
    """

    n: int
    mode: str
    value: int
    completed: bool
    visited_count: int
    witness: "Circuit | None" = None


def slice_generators(n: int) -> list[TimeSlice]:
    """Every nonempty set of wire-disjoint adjacent gates on n wires.

    The count follows g(n-1) - 1 with g(0)=1, g(1)=3 and
    g(t) = g(t-1) + 2 g(t-2): a position is either skipped or carries
    one of two gate directions, blocking its neighbor.
    """
    if not 2 <= n <= 8:
        raise ValueError(f"supported wire counts are 2..8, got {n}")
    out: list[TimeSlice] = []

    def extend(pos: int, chosen: tuple) -> None:
        if pos > n - 1:
            if chosen:
                out.append(TimeSlice(frozenset(chosen)))
            return
        extend(pos + 1, chosen)
        extend(pos + 2, chosen + (up(pos),))
        extend(pos + 2, chosen + (down(pos),))

    extend(1, ())
    return out


def encode_state(m: BitMatrix) -> int:
    """Pack entry (i, j) into bit (i-1)*n + (j-1) of an integer."""
    n = m.n
    code = 0
    for j, col in enumerate(m.cols):
        while col:
            low = col & -col
            code |= 1 << ((low.bit_length() - 1) * n + j)
            col ^= low
    return code


def decode_state(n: int, code: int) -> BitMatrix:
    cols = [0] * n
    while code:
        low = code & -code
        pos = low.bit_length() - 1
        cols[pos % n] |= 1 << (pos // n)
        code ^= low
    return BitMatrix(n, tuple(cols))


def _packed_generators(n: int) -> list[tuple[int, int]]:
    """Per-generator (upward-source, downward-source) column mask pair.

    Applying a slice to packed state s is
    s ^ ((s & up_mask) >> 1) ^ ((s & down_mask) << 1).
    """
    col_mask = [sum(1 << (i * n + j) for i in range(n)) for j in range(n)]
    packed = []
    for slice_ in slice_generators(n):
        up_mask = down_mask = 0
        for g in slice_.gates:
            if g.is_downward:
                down_mask |= col_mask[g.source - 1]
            else:
                up_mask |= col_mask[g.source - 1]
        packed.append((up_mask, down_mask))
    return packed


def _neighbors(frontier: np.ndarray, up_mask: np.int64, down_mask: np.int64) -> np.ndarray:
    return (
        frontier
        ^ ((frontier & up_mask) >> np.int64(1))
        ^ ((frontier & down_mask) << np.int64(1))
    )


def _bfs_dense(
    n: int,
    target_code: "int | None",
    depth_limit: "int | None",
    keep_levels: bool,
):
    """Level-synchronous BFS over the full 2^(n^2) state space.

    Returns (distance or None, levels or None, visited_count, last_level).
    distance is None when the target was not reached within the limit;
    for a full sweep (no target) last_level is the eccentricity.
    """
    gens = [(np.int64(u), np.int64(d)) for u, d in _packed_generators(n)]
    visited = np.zeros(1 << (n * n), dtype=bool)
    frontier = np.array([encode_state(BitMatrix.identity(n))], dtype=np.int64)
    visited[frontier] = True
    levels = [np.sort(frontier)] if keep_levels else None
    level = 0
    if target_code is not None and target_code == int(frontier[0]):
        return 0, levels, 1, 0
    while frontier.size:
        if depth_limit is not None and level >= depth_limit:
            return None, levels, int(visited.sum()), level
        parts = []
        for up_mask, down_mask in gens:
            nb = _neighbors(frontier, up_mask, down_mask)
            fresh = nb[~visited[nb]]
            if fresh.size:
                visited[fresh] = True
                parts.append(fresh)
        if not parts:
            break
        frontier = np.concatenate(parts)
        level += 1
        if keep_levels:
            levels.append(np.sort(frontier))
        if target_code is not None and visited[target_code]:
            return level, levels, int(visited.sum()), level
    return (None if target_code is not None else level), levels, int(visited.sum()), level


def _witness_from_levels(n: int, levels: list[np.ndarray], target_code: int) -> Circuit:
    """Walk the BFS levels backward from the target, one slice per level."""
    slices = slice_generators(n)
    gens = _packed_generators(n)
    code = target_code
    picked: list[TimeSlice] = []
    for lvl in range(len(levels) - 2, -1, -1):
        prev_level = levels[lvl]
        for slice_, (up_mask, down_mask) in zip(slices, gens):
            back = code ^ ((code & up_mask) >> 1) ^ ((code & down_mask) << 1)
            at = np.searchsorted(prev_level, back)
            if at < prev_level.size and int(prev_level[at]) == back:
                picked.append(slice_)
                code = back
                break
        else:
            raise AssertionError("BFS level structure is inconsistent")
    return Circuit(n, tuple(reversed(picked)))


def _bfs_sparse(
    n: int,
    target_code: int,
    depth_limit: "int | None",
    keep_levels: bool,
):
    """Set-based BFS for n above the dense limit; practical only with a limit."""
    # levels are uint64 because at n = 8 entry (8, 8) packs to bit 63
    gens = _packed_generators(n)
    start = encode_state(BitMatrix.identity(n))
    visited = {start}
    frontier = {start}
    levels = [np.array(sorted(frontier), dtype=np.uint64)] if keep_levels else None
    level = 0
    if target_code == start:
        return 0, levels, 1, 0
    while frontier:
        if depth_limit is not None and level >= depth_limit:
            return None, levels, len(visited), level
        nxt = set()
        for code in frontier:
            for up_mask, down_mask in gens:
                nb = code ^ ((code & up_mask) >> 1) ^ ((code & down_mask) << 1)
                if nb not in visited:
                    visited.add(nb)
                    nxt.add(nb)
        if not nxt:
            break
        frontier = nxt
        level += 1
        if keep_levels:
            levels.append(np.array(sorted(frontier), dtype=np.uint64))
        if target_code in visited:
            return level, levels, len(visited), level
    return None, levels, len(visited), level


def distance(
    n: int,
    target: BitMatrix,
    depth_limit: "int | None" = None,
    *,
    witness: bool = False,
) -> SearchResult:
    """Minimum depth of any circuit computing the target matrix.

    Args:
        n: wire count, 2..8 (above 5 the search is set-based and needs
            a depth limit to stay within memory).
        target: invertible target matrix of dimension n.
        depth_limit: stop after this many levels and report the distance
            as "> depth_limit" via completed=False.
        witness: also reconstruct a minimum-depth circuit.

    Returns:
        SearchResult with mode "distance-to-target".
    """
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
    bfs = _bfs_dense if n <= DENSE_LIMIT else _bfs_sparse
    dist, levels, visited_count, last = bfs(n, target_code, depth_limit, witness)
    if dist is None:
        limit = depth_limit if depth_limit is not None else last
        return SearchResult(n, "distance-to-target", limit, False, visited_count)
    built = None
    if witness:
        built = _witness_from_levels(n, levels[: dist + 1], target_code)
    return SearchResult(n, "distance-to-target", dist, True, visited_count, built)


def max_depth(n: int, *, allow_huge: bool = False) -> SearchResult:
    """Eccentricity of the identity: the depth of the hardest matrix.

    n = 6 is refused without allow_huge; it needs roughly 26 GB of
    bitmaps and a long run.  Larger n are out of reach entirely.
    """
    if not 2 <= n <= 6:
        raise ValueError(f"supported wire counts are 2..6, got {n}")
    if n <= DENSE_LIMIT:
        _, _, visited_count, last = _bfs_dense(n, None, None, False)
        return SearchResult(n, "diameter", last, True, visited_count)
    if not allow_huge:
        raise ResourceLimitError(
            "the n=6 sweep walks all of GL_6(2) through ~26 GB of bitmaps; "
            "opt in with allow_huge (--allow-huge on the command line)"
        )
    last, visited_count = _bfs_bitmap(n)
    return SearchResult(n, "diameter", last, True, visited_count)


def _bfs_bitmap(n: int, chunk_bits: int = 22) -> tuple[int, int]:
    """Full BFS keeping visited/frontier/next as bit arrays.

    Trades the per-level index arrays of the dense path for three
    2^(n^2)-bit maps scanned in chunks, which is what makes n = 6
    feasible on a large machine.  Returns (eccentricity, visited_count).
    """
    bits = n * n
    nbytes = 1 << max(bits - 3, 0)
    chunk_bytes = min(nbytes, 1 << max(chunk_bits - 3, 0))
    visited = np.zeros(nbytes, dtype=np.uint8)
    frontier = np.zeros(nbytes, dtype=np.uint8)
    nxt = np.zeros(nbytes, dtype=np.uint8)
    start = encode_state(BitMatrix.identity(n))
    visited[start >> 3] |= 1 << (start & 7)
    frontier[start >> 3] |= 1 << (start & 7)
    gens = [(np.int64(u), np.int64(d)) for u, d in _packed_generators(n)]
    level = 0
    visited_count = 1
    while True:
        advanced = 0
        for lo in range(0, nbytes, chunk_bytes):
            block = frontier[lo : lo + chunk_bytes]
            if not block.any():
                continue
            codes = np.flatnonzero(
                np.unpackbits(block, bitorder="little")
            ).astype(np.int64) + (lo << 3)
            for up_mask, down_mask in gens:
                nb = _neighbors(codes, up_mask, down_mask)
                byte_at = nb >> 3
                bit_at = (np.uint8(1) << (nb & 7).astype(np.uint8))
                fresh = (visited[byte_at] & bit_at) == 0
                byte_at, bit_at = byte_at[fresh], bit_at[fresh]
                np.bitwise_or.at(visited, byte_at, bit_at)
                np.bitwise_or.at(nxt, byte_at, bit_at)
                advanced += int(fresh.sum())
        if advanced == 0:
            return level, visited_count
        # each slice is a bijection and visited is updated between
        # generators, so fresh counts never double-count a state
        visited_count += advanced
        frontier, nxt = nxt, frontier
        nxt[:] = 0
        level += 1
