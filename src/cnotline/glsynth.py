"""Synthesis of arbitrary invertible transformations in depth at most 5n.

The pipeline undoes a matrix in two stages, both run on the odd-even
transposition network of depth n (constructions.odd_even_network).  A
clearing stage drives the state to northwest-triangular form with
depth-2 boxes (depth at most 2n), and a reduction stage takes the
triangular matrix to the identity with depth-3 boxes at the comparators
that fire sorting the reversed labeling (depth at most 3n).  Inverting
both stages yields a circuit computing the matrix.  Each stage is a box
rule for constructions._sorting_run, which writes boxes from
constructions._BOX_GATES straight into slice masks, as permutation
routing does: no gate list is built and no schedule pass runs.

A clearing swap costs an add box (1 slice) or a swap box (2).  The wire
labelled k holds w_k plus w's labelled on higher-numbered wires:
northwest_basis starts it so and both boxes keep it.  So the lower
input's w_k coefficient is 1 and it must leave the lower wire: adding
u clears it when u's coefficient is 1, and otherwise the swap moves u down.
"""

from __future__ import annotations

__all__ = ["clearing_circuit", "northwest_basis", "synthesize", "triangular_reduction_circuit"]

from . import circuit as circuit_mod
from .circuit import Circuit
from .constructions import _BOX_GATES, _sorting_run, odd_even_network
from .f2 import BitMatrix, SingularMatrixError, _coset_min, is_northwest_triangular
from .f2 import inverse as matrix_inverse


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
    n = m.n
    w = [0] * n
    pi = [0] * n
    pivot_by_top: dict[int, int] = {}
    for i in range(n - 1, -1, -1):
        v = _coset_min(m.cols[i], pivot_by_top)
        if not v:
            raise SingularMatrixError(f"matrix of dimension {n} is singular")
        pivot_by_top[v.bit_length()] = v
        pi[i] = n + 1 - v.bit_length()
        w[pi[i] - 1] = v
    return tuple(w), tuple(pi)


def _clearing(m: BitMatrix) -> tuple:
    """Values, labels and box of the clearing stage for _sorting_run."""
    w_basis, pi = northwest_basis(m)
    # row k of the inverse of [w_1 ... w_n] is the dual functional of w_k
    inv_rows = matrix_inverse(BitMatrix(m.n, w_basis)).packed_rows()
    values = list(m.cols)
    add, swap = _BOX_GATES[("free", "u^v")], _BOX_GATES[("free", "u")]

    def box(p: int, k: int) -> str:
        # the upper output is free, the lower one must have w_k coefficient
        # 0: u^v when u's is 1 (v's always is, see the module doc), else u
        return add if (inv_rows[k - 1] & values[p - 1]).bit_count() & 1 else swap

    return values, list(pi), box


def clearing_circuit(m: BitMatrix) -> Circuit:
    """Circuit C with apply(C, m) northwest-triangular, depth at most 2n.

    Raises:
        SingularMatrixError: if m is singular.
    """
    values, labels, box = _clearing(m)
    return _sorting_run(odd_even_network(m.n), labels, values, box)


def _reduction(nw: BitMatrix) -> tuple:
    """Values, labels and box of the reduction stage for _sorting_run; it
    swaps exactly at the comparators that fire sorting the reversal labeling."""
    n = nw.n
    if not is_northwest_triangular(nw):
        raise ValueError("matrix is not northwest-triangular")
    # being northwest-triangular, nw is invertible exactly when every
    # anti-diagonal entry (n+1-j, j), the top bit of column j, is set
    if any(c.bit_length() != n - i for i, c in enumerate(nw.cols)):
        raise SingularMatrixError(f"matrix of dimension {n} is singular")
    values = list(nw.cols)
    fold, swap = _BOX_GATES[("v", "u^v")], _BOX_GATES[("v", "u")]

    def box(p: int, j: int) -> str:
        # with coordinate j of u set, output (v, u^v); otherwise a plain swap
        return fold if (values[p - 1] >> (j - 1)) & 1 else swap

    return values, list(range(n, 0, -1)), box


def triangular_reduction_circuit(nw: BitMatrix) -> Circuit:
    """Circuit R with apply(R, nw) = I for invertible northwest-triangular nw,
    depth at most 3n.

    Raises:
        ValueError: if nw is not northwest-triangular.
        SingularMatrixError: if nw is singular.
    """
    values, labels, box = _reduction(nw)
    return _sorting_run(odd_even_network(nw.n), labels, values, box)


def synthesize(m: BitMatrix) -> Circuit:
    """Circuit computing m, depth at most 5n.

    Undoes m with the clearing and reduction stages, then returns the
    inverted composition: if apply(C, m) = N and apply(R, N) = I, the
    circuit inverse(R) then inverse(C) computes m.  N is simulated again,
    though the clearing run ends holding it: perfbench reads the clearing
    depth from the traced clearing_circuit, which returns only C.

    Raises:
        SingularMatrixError: if m is singular; northwest_basis finds it.
    """
    if m == BitMatrix.identity(m.n):
        return Circuit(m.n)
    clearing = clearing_circuit(m)
    nw = circuit_mod.apply(clearing, m)
    reduction = triangular_reduction_circuit(nw)
    return circuit_mod.concat(
        circuit_mod.inverse(reduction), circuit_mod.inverse(clearing)
    )
