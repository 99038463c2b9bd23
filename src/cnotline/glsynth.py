"""Synthesis of arbitrary invertible transformations in depth at most 5n.

The pipeline undoes a matrix in two stages, both run on the odd-even
transposition network of depth n (constructions.odd_even_network).  A
clearing stage drives the state to northwest-triangular form with
depth-2 boxes (depth at most 2n), and a reduction stage takes the
triangular matrix to the identity with depth-3 boxes at the comparators
that fire sorting the reversed labeling (depth at most 3n).  Inverting
both stages yields a circuit computing the matrix.  Each stage passes
constructions._sorting_run two boxes, each a string of "u"/"d" gates on the
swapped pair; it picks one per swap by a bit of the upper value and records
it once, as permutation routing does: no gate list, no schedule pass.

A clearing swap costs an add box (1 slice) or a swap box (2).  The wire
labelled k holds w_k plus w's labelled on higher-numbered wires:
northwest_basis starts it so and both boxes keep it.  So the lower
input's w_k coefficient is 1 and it must leave the lower wire: adding
u clears it when u's coefficient is 1, and otherwise the swap moves u down.
Each value carries its coordinates in w above its n bits, so that
coefficient is one bit: no dual basis is computed.
"""

from __future__ import annotations

__all__ = ["clearing_circuit", "northwest_basis", "synthesize", "triangular_reduction_circuit"]

from bisect import insort

from . import circuit as circuit_mod
from .circuit import Circuit
from .constructions import _sorting_run, odd_even_network
from .f2 import BitMatrix, SingularMatrixError, is_northwest_triangular


def _sweep(m: BitMatrix) -> tuple[list[int], list[int], list[int]]:
    """w_basis, pi and the clearing values: m.cols[i] with its w-coordinates
    above its n bits, w_k's at bit n + k - 1 (see northwest_basis)."""
    n = m.n
    w, pi, values = [0] * n, [0] * n, [0] * n
    # (top coordinate, its bit, pivot w_j carrying bit n + j - 1), ascending:
    # reducing a column by pivots collects their coordinates above bit n
    pivots: list[tuple[int, int, int]] = []
    for i in range(n - 1, -1, -1):
        x = col = m.cols[i]
        for _, bit, pivot in reversed(pivots):
            if x & bit:
                x ^= pivot
        v = x & ((1 << n) - 1)
        if not v:
            raise SingularMatrixError(f"matrix of dimension {n} is singular")
        top = v.bit_length()
        own = v | 1 << (2 * n - top)  # v is w_j with j = n + 1 - top
        insort(pivots, (top, 1 << (top - 1), own))
        pi[i], w[n - top] = n + 1 - top, v
        values[i] = col | (x ^ own)  # col = w_j + pivots cleared: x ^ own is its coordinates
    return w, pi, values


def northwest_basis(m: BitMatrix) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Basis change and wire labeling behind the clearing stage.

    For each wire i, v_i is the lexicographically least vector reachable
    from column i by adding later columns; pi(i) positions v_i's top
    coordinate at n+1-pi(i).  Reindexing by pi gives the target basis:
    w_j has top coordinate exactly n+1-j.  One sweep from column n down
    extends a single echelon basis of the later columns: each v_i has a
    top coordinate no pivot has yet, so it is the next pivot.

    Returns:
        (w_basis, pi) with w_basis[j-1] = w_j, packed as an int, and
        pi[i-1] = pi(i).

    Raises:
        SingularMatrixError: if the columns do not span the space.
    """
    w, pi, _ = _sweep(m)
    return tuple(w), tuple(pi)


def _clearing(m: BitMatrix) -> tuple:
    """Labels, values, bit offset and boxes of the clearing stage for _sorting_run:
    the box at label k reads bit n + k - 1 of the upper value, its w_k coefficient."""
    _, pi, values = _sweep(m)
    # coefficient 0: the swap box ud leaves (u ^ v, u); 1: the add box d leaves (u, u ^ v)
    return pi, values, m.n - 1, ("ud", "d")


def clearing_circuit(m: BitMatrix) -> Circuit:
    """Circuit C with apply(C, m) northwest-triangular, depth at most 2n.

    Raises:
        SingularMatrixError: if m is singular.
    """
    stage = _clearing(m)  # a singular m fails here, before the network is built
    return _sorting_run(odd_even_network(m.n), *stage)


def _reduction(nw: BitMatrix) -> tuple:
    """Labels, values, bit offset and boxes of the reduction stage for _sorting_run;
    it swaps exactly at the comparators that fire sorting the reversal labeling."""
    n = nw.n
    if not is_northwest_triangular(nw):
        raise ValueError("matrix is not northwest-triangular")
    # being northwest-triangular, nw is invertible exactly when every
    # anti-diagonal entry (n+1-j, j), the top bit of column j, is set
    if any(c.bit_length() != n - i for i, c in enumerate(nw.cols)):
        raise SingularMatrixError(f"matrix of dimension {n} is singular")
    # with coordinate j of u set, du leaves (v, u ^ v); otherwise udu swaps to (v, u)
    return list(range(n, 0, -1)), list(nw.cols), -1, ("udu", "du")


def triangular_reduction_circuit(nw: BitMatrix) -> Circuit:
    """Circuit R with apply(R, nw) = I for invertible northwest-triangular nw,
    depth at most 3n.

    Raises:
        ValueError: if nw is not northwest-triangular.
        SingularMatrixError: if nw is singular.
    """
    stage = _reduction(nw)
    return _sorting_run(odd_even_network(nw.n), *stage)


def synthesize(m: BitMatrix) -> Circuit:
    """Circuit computing m, depth at most 5n.

    Undoes m with the clearing and reduction stages, then returns the
    inverted composition: if apply(C, m) = N and apply(R, N) = I, the
    circuit inverse(R) then inverse(C) computes m.  N is simulated again,
    though the clearing run ends holding it: perfbench reads the clearing
    depth from the traced clearing_circuit, which returns only C.

    Raises:
        SingularMatrixError: if m is singular; the northwest sweep finds it.
    """
    if m == BitMatrix.identity(m.n):
        return Circuit(m.n)
    clearing = clearing_circuit(m)
    nw = circuit_mod.apply(clearing, m)
    reduction = triangular_reduction_circuit(nw)
    return circuit_mod.concat(
        circuit_mod.inverse(reduction), circuit_mod.inverse(clearing)
    )
