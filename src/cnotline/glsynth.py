"""Synthesis of arbitrary invertible transformations in depth at most 5n.

The pipeline undoes a matrix in two stages: a clearing stage drives the
state to northwest-triangular form with depth-2 boxes riding a sorting
network (depth at most 2n), and a reduction stage takes the triangular
matrix to the identity with depth-3 boxes riding the network's reversal
schedule (depth at most 3n).  Inverting both stages yields a circuit
computing the matrix.  Each stage is a box rule for the network runner
constructions._sorting_run, which writes the boxes straight into slice
masks: no gate list is built and no schedule pass runs.  Both stages
take their boxes from constructions._BOX_GATES, as permutation routing
does.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import circuit as circuit_mod
from .circuit import Circuit
from .constructions import ComparatorNetwork, fired_comparators, odd_even_network
from .constructions import _BOX_GATES, _sorting_run
from .f2 import (
    BitMatrix,
    BitVector,
    SingularMatrixError,
    _coset_min,
    is_northwest_triangular,
)
from .f2 import inverse as matrix_inverse


@dataclass(frozen=True)
class LabeledWireState:
    """Snapshot of wire values and labels during a synthesis stage.

    w_basis and duals describe the coordinate system the clearing stage
    reasons in; the reduction stage uses the standard basis, where the
    dual of e_k is e_k itself.
    """

    values: BitMatrix
    labels: tuple[int, ...]
    w_basis: tuple[BitVector, ...]
    duals: tuple[BitVector, ...]

    def clearing_violations(self) -> list[str]:
        """Check: a wire's value has coefficient 0 on every lower wire's label."""
        out = []
        n = self.values.n
        for i in range(1, n + 1):
            value = self.values.column(i)
            for h in range(1, i):
                k = self.labels[h - 1]
                if self.duals[k - 1].dot(value) != 0:
                    out.append(
                        f"wire {i} value has nonzero w_{k} coefficient; "
                        f"label {k} sits on lower wire {h}"
                    )
        return out

    def reduction_violations(self) -> list[str]:
        """Check the triangular-stage invariants on coordinates.

        (1) the value on a label-k wire has coordinate k set and all
        higher coordinates clear; (2) it has coordinate j clear for
        every smaller label j on a lower-numbered wire.
        """
        out = []
        n = self.values.n
        for i in range(1, n + 1):
            k = self.labels[i - 1]
            value = self.values.column(i)
            if value.get(k) != 1 or value.top_coordinate() > k:
                out.append(f"wire {i} (label {k}) value {value} not confined to e_{k}")
            for h in range(1, i):
                j = self.labels[h - 1]
                if j < k and value.get(j) != 0:
                    out.append(
                        f"wire {i} (label {k}) value has coordinate {j} set; "
                        f"label {j} sits on lower wire {h}"
                    )
        return out


def northwest_basis(m: BitMatrix) -> tuple[tuple[BitVector, ...], tuple[int, ...]]:
    """Basis change and wire labeling behind the clearing stage.

    For each wire i, v_i is the lexicographically least vector reachable
    from column i by adding later columns; pi(i) positions v_i's top
    coordinate at n+1-pi(i).  Reindexing by pi gives the target basis:
    w_j has top coordinate exactly n+1-j.  One sweep from column n down
    extends a single echelon basis of the later columns: each v_i has a
    top coordinate no pivot has yet, so it is the next pivot.

    Returns:
        (w_basis, pi) with w_basis[j-1] = w_j and pi[i-1] = pi(i).

    Raises:
        SingularMatrixError: if the columns do not span the space.
    """
    n = m.n
    w = [BitVector(n)] * n
    pi = [0] * n
    pivot_by_top: dict[int, int] = {}
    for i in range(n - 1, -1, -1):
        v = _coset_min(m.cols[i], pivot_by_top)
        if not v:
            raise SingularMatrixError(f"matrix of dimension {n} is singular")
        pivot_by_top[v.bit_length()] = v
        pi[i] = n + 1 - v.bit_length()
        w[pi[i] - 1] = BitVector(n, v)
    return tuple(w), tuple(pi)


def _stage_states(stage: tuple, net: ComparatorNetwork) -> list[LabeledWireState]:
    """The state before the first layer and after each layer of a stage,
    the (values, labels, box, basis) of _clearing or _reduction, with basis
    as its (w_basis, duals).  Layers after the labels are sorted repeat it."""
    values, labels, box, basis = stage
    states = []
    for layer in ((),) + net.layers:
        _sorting_run([layer], labels, values, box)
        values_matrix = BitMatrix(len(values), tuple(values))
        states.append(LabeledWireState(values_matrix, tuple(labels), *basis))
    return states


def _clearing(m: BitMatrix, net: ComparatorNetwork) -> tuple:
    """Values, labels, box and basis of the clearing stage for _sorting_run."""
    if net.n != m.n:
        raise ValueError(f"network on {net.n} wires, matrix of dimension {m.n}")
    w_basis, pi = northwest_basis(m)
    # row k of the inverse of [w_1 ... w_n] is the dual functional of w_k
    inv_rows = matrix_inverse(BitMatrix.from_columns(w_basis)).packed_rows()
    values = list(m.cols)
    keep, add, swap = (_BOX_GATES[("free", out)] for out in ("v", "u^v", "u"))

    def box(p: int, k: int) -> str:
        # the upper output is free: write some member of span{w_l : l != k}
        # to the lower wire, cheapest output first; u itself always
        # qualifies because the span has codimension 1
        u, v = values[p - 1], values[p]
        dual_k = inv_rows[k - 1]
        if (dual_k & v).bit_count() & 1 == 0:
            return keep
        return add if (dual_k & (u ^ v)).bit_count() & 1 == 0 else swap

    duals = tuple(BitVector(m.n, r) for r in inv_rows)
    return values, list(pi), box, (w_basis, duals)


def clearing_circuit(m: BitMatrix, net: ComparatorNetwork) -> Circuit:
    """Circuit C with apply(C, m) northwest-triangular, depth <= 2 net.depth.

    Raises:
        SingularMatrixError: if m is singular.
    """
    values, labels, box, _ = _clearing(m, net)
    return _sorting_run(net.layers, labels, values, box)


def clearing_states(m: BitMatrix, net: ComparatorNetwork) -> list[LabeledWireState]:
    """Wire states after each clearing layer (index 0 = initial state)."""
    return _stage_states(_clearing(m, net), net)


def reversal_layers(net: ComparatorNetwork) -> tuple[tuple[int, ...], ...]:
    """The comparators the network uses when sorting the reversal labeling."""
    return fired_comparators(net, list(range(net.n, 0, -1)))


def _reduction(nw: BitMatrix, net: ComparatorNetwork) -> tuple:
    """Values, labels, box and basis of the reduction stage for _sorting_run;
    it swaps exactly at reversal_layers(net)."""
    n = nw.n
    if net.n != n:
        raise ValueError(f"network on {net.n} wires, matrix of dimension {n}")
    if not is_northwest_triangular(nw):
        raise ValueError("matrix is not northwest-triangular")
    if not nw.is_invertible:
        raise SingularMatrixError(f"matrix of dimension {n} is singular")
    std = tuple(BitVector.unit(n, k) for k in range(1, n + 1))
    values = list(nw.cols)
    fold, swap = _BOX_GATES[("v", "u^v")], _BOX_GATES[("v", "u")]

    def box(p: int, j: int) -> str:
        # with coordinate j of u set, output (v, u^v); otherwise a plain swap
        return fold if (values[p - 1] >> (j - 1)) & 1 else swap

    return values, list(range(n, 0, -1)), box, (std, std)


def triangular_reduction_circuit(nw: BitMatrix, net: ComparatorNetwork) -> Circuit:
    """Circuit R with apply(R, nw) = I for invertible northwest-triangular nw.

    Depth at most 3 times the network depth.

    Raises:
        ValueError: if nw is not northwest-triangular.
        SingularMatrixError: if nw is singular.
    """
    values, labels, box, _ = _reduction(nw, net)
    return _sorting_run(net.layers, labels, values, box)


def reduction_states(nw: BitMatrix, net: ComparatorNetwork) -> list[LabeledWireState]:
    """Wire states after each reduction layer (index 0 = initial state)."""
    return _stage_states(_reduction(nw, net), net)


def synthesize(m: BitMatrix) -> Circuit:
    """Circuit computing m, depth at most 5n.

    Undoes m with the clearing and reduction stages, then returns the
    inverted composition: if apply(C, m) = N and apply(R, N) = I, the
    circuit inverse(R) then inverse(C) computes m.

    Raises:
        SingularMatrixError: if m is singular.
    """
    if not m.is_invertible:
        raise SingularMatrixError(f"matrix of dimension {m.n} is singular")
    if m == BitMatrix.identity(m.n):
        return Circuit(m.n)
    net = odd_even_network(m.n)
    clearing = clearing_circuit(m, net)
    nw = circuit_mod.apply(clearing, m)
    reduction = triangular_reduction_circuit(nw, net)
    return circuit_mod.concat(
        circuit_mod.inverse(reduction), circuit_mod.inverse(clearing)
    )
