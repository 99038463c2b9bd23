"""Lower-bound certificates: rank cuts, reversal closed forms, soundness."""

import itertools
import random
from collections import deque

import numpy as np
import pytest

from cnotline import (
    BitMatrix,
    add_circuit,
    blocks,
    crossing_counts,
    cut_lower_bound,
    inversion_count,
    matrix_lower_bounds,
    matrix_of,
    permutation_circuit,
    reversal_bounds,
    reverse_circuit,
    rotate_circuit,
    swap_circuit,
    synthesize,
)
from cnotline.search import _bfs, _dense_levels
from conftest import (
    coords,
    decode_state,
    oracle_rank,
    oracle_synthesize,
    random_invertible,
    random_northwest,
)


def test_reversal_example_n8():
    report = matrix_lower_bounds(BitMatrix.anti_identity(8))
    assert report.size_lb == 32
    assert report.depth_lb == 14


def test_reversal_example_n9_per_cut():
    report = matrix_lower_bounds(BitMatrix.anti_identity(9))
    assert report.per_cut == (2, 4, 6, 8, 8, 6, 4, 2)
    assert report.depth_lb == 16
    assert report.size_lb == 40


def test_identity_has_zero_bounds():
    report = matrix_lower_bounds(BitMatrix.identity(6))
    assert report.depth_lb == 0 and report.size_lb == 0


def test_cut_bound_rejects_singular():
    with pytest.raises(ValueError):
        cut_lower_bound(BitMatrix(3, (1, 1, 4)), 1)


@pytest.mark.parametrize("n", [2, 5])
def test_cut_bound_rejects_out_of_range_cut(n):
    for m in (BitMatrix.identity(n), BitMatrix.anti_identity(n)):
        for k in (0, n, -1, n + 1):
            with pytest.raises(ValueError, match="out of range"):
                cut_lower_bound(m, k)


def _oracle_cut_bound(m, k):
    """Cut bound from the four blocks, each ranked by the list oracle."""
    w, x, y, z = blocks(m, k)

    def block_rank(rows, ncols):
        return oracle_rank([coords(r, ncols) for r in rows])

    upward = max(k - block_rank(w, k), block_rank(y, k))
    downward = max(block_rank(x, m.n - k), (m.n - k) - block_rank(z, m.n - k))
    return upward + downward


def test_cut_bounds_match_block_oracle(rng):
    sizes = [n for n in range(2, 17) for _ in range(3)] + [24, 32, 48, 64]
    for n in sizes:
        # northwest matrices give the rank-deficient blocks random ones rarely do
        for m in (random_invertible(n, rng), random_northwest(n, rng)):
            want = tuple(_oracle_cut_bound(m, k) for k in range(1, n))
            assert matrix_lower_bounds(m).per_cut == want
            k = rng.randint(1, n - 1)
            assert cut_lower_bound(m, k) == want[k - 1]


def test_gl4_exhaustive_bounds_distance_synthesis():
    """Over all of GL_4(2): rank-cut depth bound <= BFS distance <=
    synthesized depth <= 5n, and every synthesized circuit is exact and
    the one the gate-list oracle pipeline builds."""
    _, levels, sizes = _bfs(_dense_levels(4, np.zeros(1 << 16, dtype=np.uint8)), None, None, keep_levels=True)
    assert sum(sizes) == sum(len(level) for level in levels) == 20160
    for dist, level in enumerate(levels):
        for code in level.tolist():
            m = decode_state(4, code)
            c = synthesize(m)
            assert matrix_lower_bounds(m).depth_lb <= dist <= c.depth <= 20
            assert matrix_of(c) == m
            assert c == oracle_synthesize(m)


def _block_rank_table(rows, cols):
    """The list oracle's rank of every rows x cols block, indexed by its
    entries read row by row, entry (r, c) at bit r * cols + c."""
    return np.array([
        oracle_rank([[index >> (r * cols + c) & 1 for c in range(cols)] for r in range(rows)])
        for index in range(1 << rows * cols)
    ], dtype=np.int8)


def _gathered(codes, n, rows, first_col, cols):
    """Each packed code's block on these rows and the columns after
    first_col, as the tables above index it."""
    out = np.zeros_like(codes)
    for r, i in enumerate(rows):
        out |= (codes >> (i * n + first_col) & (1 << cols) - 1) << r * cols
    return out


def test_gl5_exhaustive_rank_cut_bound():
    """Over all of GL_5(2): the rank-cut depth bound never exceeds the
    exact depth, the level the dense search finds a matrix at.  The
    bound at cut k is rank(X) + rank(Y) (see bounds), each block's rank
    read from tables the list oracle built; seeded matrices of every
    level must get the same cut bounds from matrix_lower_bounds."""
    n = 5
    # cut k: X is rows 1..k by columns k+1..n, Y rows k+1..n by columns 1..k
    tables = {k: (_block_rank_table(k, n - k), _block_rank_table(n - k, k)) for k in range(1, n)}
    rng = random.Random(9)
    sizes, tight = [], 0
    for depth, (level, _) in enumerate(_dense_levels(n, np.zeros(1 << (n * n), dtype=np.uint8))):
        per_cut = [
            rank_x[_gathered(level, n, range(k), k, n - k)]
            + rank_y[_gathered(level, n, range(k, n), 0, k)]
            for k, (rank_x, rank_y) in tables.items()
        ]
        padded = [0, *per_cut, 0]
        lb = np.maximum.reduce([a + b for a, b in zip(padded, padded[1:])])
        assert lb.max() <= depth
        sizes.append(level.size)
        tight += int(np.count_nonzero(lb == depth))
        for i in rng.sample(range(level.size), min(level.size, 20)):
            report = matrix_lower_bounds(decode_state(n, int(level[i])))
            assert report.per_cut == tuple(int(bound[i]) for bound in per_cut)
            assert report.depth_lb == lb[i]
        if depth == 13:
            # every matrix of the largest depth has bound 8
            assert lb.tolist() == [8] * 40
    assert sum(sizes) == 9999360 and len(sizes) == 14
    assert tight == 38847


def test_reversal_cut_bound_formula():
    for n in range(3, 20):
        for k in range(1, n // 2 + 1):
            # the generic certificate can never beat the dedicated 2k+1
            assert cut_lower_bound(BitMatrix.anti_identity(n), k) <= 2 * k + 1


def test_reversal_bounds_closed_forms():
    for n in range(3, 40):
        depth_lb, size_lb = reversal_bounds(n)
        assert depth_lb == 2 * n + 1
        assert size_lb == (n * n) // 2 + n


@pytest.mark.parametrize("n", [2, 1, 0])
def test_reversal_bounds_need_three_wires(n):
    with pytest.raises(ValueError, match=f"^closed forms require n >= 3, got {n}$"):
        reversal_bounds(n)


def test_reversal_bounds_dominate_generic():
    for n in range(3, 20):
        generic = matrix_lower_bounds(BitMatrix.anti_identity(n))
        depth_lb, size_lb = reversal_bounds(n)
        assert depth_lb >= generic.depth_lb
        assert size_lb >= generic.size_lb


def test_reverse_circuit_depth_gap_at_most_one():
    for n in range(3, 25):
        c = reverse_circuit(n)
        depth_lb, size_lb = reversal_bounds(n)
        assert 0 <= c.depth - depth_lb <= 1
        assert c.size >= size_lb
        assert c.size == n * n - 1


def _assert_sound(circuit, target):
    report = matrix_lower_bounds(target)
    assert circuit.depth >= report.depth_lb
    assert circuit.size >= report.size_lb
    for bound, seen in zip(report.per_cut, crossing_counts(circuit), strict=True):
        assert seen >= bound


def test_soundness_on_families():
    for n in range(2, 20):
        for c in (
            add_circuit(n),
            swap_circuit(n),
            rotate_circuit(n),
            reverse_circuit(n),
        ):
            _assert_sound(c, matrix_of(c))


def test_soundness_on_synthesized(rng):
    for n in (3, 6, 10, 14):
        for _ in range(25):
            m = random_invertible(n, rng)
            _assert_sound(synthesize(m), m)


def test_soundness_on_permutations(rng):
    for n in (4, 9):
        for _ in range(25):
            perm = list(range(1, n + 1))
            rng.shuffle(perm)
            c = permutation_circuit(perm)
            _assert_sound(c, matrix_of(c))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_swap_lower_bound_tight_by_exhaustion(n):
    """BFS over all swap networks: fewest adjacent swaps reaching any
    permutation equals its inversion count, so inv is a true lower bound."""
    start = tuple(range(1, n + 1))
    dist = {start: 0}
    queue = deque([start])
    while queue:
        perm = queue.popleft()
        for p in range(n - 1):
            swapped = list(perm)
            swapped[p], swapped[p + 1] = swapped[p + 1], swapped[p]
            key = tuple(swapped)
            if key not in dist:
                dist[key] = dist[perm] + 1
                queue.append(key)
    for perm in itertools.permutations(range(1, n + 1)):
        assert dist[perm] == inversion_count(list(perm))
