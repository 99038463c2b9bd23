"""Lower-bound certificates for circuits computing a given matrix.

The core argument: split the state matrix at the cut between wires k
and k+1 into blocks (W X; Y Z).  Only gates crossing the cut change the
block ranks, an upward gate moves rank(W) and rank(Y) by at most one,
and a downward gate moves rank(X) and rank(Z) by at most one.  Walking
the ranks from the identity's blocks to the target's blocks forces a
minimum number of crossing gates per cut, which aggregates into size
and depth bounds that hold for every circuit computing the target.

For an invertible target the columns 1..k have rank k, so rank(Y) is
at least k - rank(W) and the upward count is rank(Y); the columns
k+1..n likewise make the downward count rank(X).  The bound at cut k
is therefore rank(X) + rank(Y).

Every cut is ranked in one pass.  Y is the columns 1..k cut down to
rows k+1..n, and X is the rows 1..k cut down to columns k+1..n.  Take
an echelon basis of vectors 1..k whose pivots have distinct top set
bits.  Cutting it down to coordinates k+1..n zeroes exactly the pivots
whose top bit is at most k and leaves the others with distinct top
bits, so the rank is the number of pivots with their top above k.  One
echelon basis of the columns and one of the rows, each grown by one
vector as k rises, give all n-1 bounds in O(n^2) XORs of packed
vectors, where ranking four fresh blocks per cut takes O(n^3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .f2 import BitMatrix, _echelon_add


@dataclass(frozen=True)
class BoundReport:
    """Crossing bound of cut k at per_cut[k - 1], plus the aggregated depth and size bounds."""

    per_cut: tuple[int, ...]
    depth_lb: int
    size_lb: int


def _ranks_past_cuts(vectors: Sequence[int]) -> list[int]:
    """Entry k-1: rank of independent vectors 1..k cut down to coordinates k+1..n."""
    pivot_by_top: dict[int, int] = {}
    tops = 0
    out = []
    for k, v in enumerate(vectors[:-1], start=1):
        tops |= 1 << (_echelon_add(pivot_by_top, v) - 1)
        out.append((tops >> k).bit_count())
    return out


def _cut_bounds(m: BitMatrix) -> tuple[int, ...]:
    """Crossing bound of every cut, cut k at index k-1 (see module doc)."""
    if not m.is_invertible:
        raise ValueError(f"matrix of dimension {m.n} is singular")
    rank_y = _ranks_past_cuts(m.cols)
    rank_x = _ranks_past_cuts(m.packed_rows())
    return tuple(y + x for y, x in zip(rank_y, rank_x))


def cut_lower_bound(m: BitMatrix, k: int) -> int:
    """Minimum gates between wires k and k+1 in any circuit computing m.

    Raises:
        ValueError: if m is singular or k is outside 1..n-1.
    """
    if not 1 <= k <= m.n - 1:
        raise ValueError(f"cut position {k} out of range 1..{m.n - 1}")
    return _cut_bounds(m)[k - 1]


def matrix_lower_bounds(m: BitMatrix) -> BoundReport:
    """Aggregate the cut bounds into size and depth lower bounds.

    Gates at cuts k-1 and k all occupy wire k in distinct slices, so the
    depth bound is the best sum of two adjacent cut bounds.
    """
    per_cut = _cut_bounds(m)
    padded = (0, *per_cut, 0)
    depth_lb = max(a + b for a, b in zip(padded, padded[1:]))
    return BoundReport(per_cut, depth_lb, sum(per_cut))


def reversal_bounds(n: int) -> tuple[int, int]:
    """Proven (depth, size) lower bounds for reversing n >= 3 wires.

    Depth at least 2n+1; size at least floor(n^2/2) + n.
    """
    if n < 3:
        raise ValueError(f"closed forms require n >= 3, got {n}")
    return 2 * n + 1, n * n // 2 + n
