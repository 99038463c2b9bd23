"""Shared test helpers: independent oracles and closed-form targets.

Oracles here deliberately avoid the packed-integer representation of
the library, computing over plain lists so that agreement is evidence.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from cnotline import BitMatrix
from cnotline.search import _packed_generators, encode_state


def to_lists(m: BitMatrix) -> list[list[int]]:
    """Unpack a BitMatrix into a row-major list-of-lists of 0/1 ints."""
    return [[m.entry(i, j) for j in range(1, m.n + 1)] for i in range(1, m.n + 1)]


def from_lists(rows: list[list[int]]) -> BitMatrix:
    n = len(rows)
    cols = [
        sum(rows[i][j] << i for i in range(n)) for j in range(n)
    ]
    return BitMatrix(n, tuple(cols))


def oracle_rank(rows: list[list[int]]) -> int:
    """Gaussian elimination over GF(2) on list rows; independent of f2."""
    work = [row[:] for row in rows]
    ncols = len(work[0]) if work else 0
    rank = 0
    for col in range(ncols):
        pivot = next(
            (r for r in range(rank, len(work)) if work[r][col]), None
        )
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        for r in range(len(work)):
            if r != rank and work[r][col]:
                work[r] = [a ^ b for a, b in zip(work[r], work[rank])]
        rank += 1
    return rank


def random_invertible(n: int, rng: random.Random) -> BitMatrix:
    while True:
        cols = tuple(rng.randrange(1, 1 << n) for _ in range(n))
        m = BitMatrix(n, cols)
        if m.is_invertible:
            return m


def random_northwest(n: int, rng: random.Random) -> BitMatrix:
    """Row-reversal of a random unit lower-triangular matrix.

    Entry (i, j) of the result is zero whenever i + j > n + 1 and the
    anti-diagonal is all ones, so it is northwest-triangular and
    invertible.
    """
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = 1
        for j in range(i):
            rows[i][j] = rng.randint(0, 1)
    return from_lists(rows[::-1])


def cyclic_matrix(n: int) -> BitMatrix:
    """Column n = e_1, column i = e_{i+1}: one step of rotation."""
    return BitMatrix(n, tuple([1 << i for i in range(1, n)] + [1]))


def add_target(n: int) -> BitMatrix:
    """Identity except wire n also picks up a_1."""
    cols = [1 << (i - 1) for i in range(1, n)] + [1 | (1 << (n - 1))]
    return BitMatrix(n, tuple(cols))


def swap_target(n: int) -> BitMatrix:
    cols = [1 << (i - 1) for i in range(1, n + 1)]
    cols[0], cols[n - 1] = cols[n - 1], cols[0]
    return BitMatrix(n, tuple(cols))


def oracle_set_bfs(n: int, target_code: int, depth_limit: "int | None"):
    """Set-based BFS over packed states: the reference for the search engines.

    It shares only the state packing and the generators with the
    library, and keeps every visited state in one Python set.  Returns
    (distance or None, levels as sorted uint64 arrays, level sizes),
    the shape the engines return with keep_levels set.
    """
    gens = _packed_generators(n)
    start = encode_state(BitMatrix.identity(n))
    visited = {start}
    frontier = {start}
    levels = [np.array([start], dtype=np.uint64)]
    sizes = [1]
    if target_code == start:
        return 0, levels, tuple(sizes)
    while frontier:
        if depth_limit is not None and len(sizes) - 1 >= depth_limit:
            return None, levels, tuple(sizes)
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
        levels.append(np.array(sorted(frontier), dtype=np.uint64))
        sizes.append(len(frontier))
        if target_code in visited:
            return len(sizes) - 1, levels, tuple(sizes)
    return None, levels, tuple(sizes)


def oracle_slice_order(gates) -> list:
    """A slice's gates by position, up(p) before down(p) where both occur."""
    return sorted(set(gates), key=lambda g: (min(g.target, g.source), g.target > g.source))


def oracle_apply(n: int, slices, rows: list[list[int]]) -> list[list[int]]:
    """Run gate lists on list rows, gate (t <- s) adding column s into t.

    slices is a list of gate collections; each runs in oracle_slice_order.
    """
    out = [row[:] for row in rows]
    for gates in slices:
        for g in oracle_slice_order(gates):
            for row in out:
                row[g.target - 1] ^= row[g.source - 1]
    return out


def oracle_crossings(n: int, slices) -> list[int]:
    """Gates per cut 1..n-1, counting each distinct gate of a slice once."""
    counts = [0] * (n - 1)
    for gates in slices:
        for g in set(gates):
            counts[min(g.target, g.source) - 1] += 1
    return counts


def oracle_circuit_text(n: int, slices) -> str:
    lines = [f"n {n}"]
    for gates in slices:
        lines.append(" ".join(
            f"d{g.source}" if g.target > g.source else f"u{g.target}"
            for g in oracle_slice_order(gates)
        ))
    return "\n".join(lines) + "\n"


def oracle_violations(slices) -> list[tuple]:
    """(1-based slice, gate or None, reason) for each defect, where a gate
    sharing a wire with an earlier gate of its slice names that gate."""
    out = []
    for idx, gates in enumerate(slices, start=1):
        order = oracle_slice_order(gates)
        if not order:
            out.append((idx, None, "empty time slice"))
            continue
        owner: dict = {}
        for g in order:
            for w in sorted((g.target, g.source)):
                if w in owner:
                    out.append((idx, g, f"wire {w} already used by {owner[w].token}"))
                else:
                    owner[w] = g
    return out


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0)
