"""CNOT circuits on a line of wires: synthesis, bounds, and search.

Circuits use only controlled-NOT gates between adjacent wires of a
linear array.  Their action on wire values is linear over GF(2), so a
circuit is a sequence of elementary column operations on an invertible
bit matrix.  This package builds the standard circuit families
(addition, swap, rotation, reversal, permutation routing, gathering),
synthesizes a depth-bounded circuit for an arbitrary invertible matrix,
certifies per-cut lower bounds, and exhaustively searches minimum
depths for small wire counts.
"""

from .bounds import (
    BoundReport,
    cut_lower_bound,
    matrix_lower_bounds,
    reversal_bounds,
)
from .circuit import (
    Circuit,
    CircuitMetrics,
    ResourceLimitError,
    apply,
    circuit_to_text,
    concat,
    crossing_counts,
    down,
    gate_token,
    inverse,
    matrix_of,
    metrics,
    parse_circuit_text,
    parse_gate_token,
    schedule,
    up,
)
from .constructions import (
    GATHER_DEPTH_PER_POSITION,
    add_circuit,
    fired_comparators,
    gather_circuit,
    inversion_count,
    odd_even_network,
    permutation_circuit,
    reverse_circuit,
    rotate_circuit,
    rotation_block,
    swap_circuit,
)
from .f2 import (
    BitMatrix,
    SingularMatrixError,
    blocks,
    dual_functional,
    is_northwest_triangular,
    lex_min_coset,
    matrix_to_text,
    parse_matrix_text,
    rank,
    transpose,
)
from .glsynth import (
    clearing_circuit,
    northwest_basis,
    synthesize,
    triangular_reduction_circuit,
)
from .render import render_circuit
from .search import (
    SearchResult,
    distance,
    max_depth,
    slice_generators,
)

__version__ = "0.1.0"

__all__ = [
    "BitMatrix",
    "BoundReport",
    "Circuit",
    "CircuitMetrics",
    "GATHER_DEPTH_PER_POSITION",
    "ResourceLimitError",
    "SearchResult",
    "SingularMatrixError",
    "add_circuit",
    "apply",
    "blocks",
    "circuit_to_text",
    "clearing_circuit",
    "concat",
    "crossing_counts",
    "cut_lower_bound",
    "distance",
    "down",
    "dual_functional",
    "fired_comparators",
    "gate_token",
    "gather_circuit",
    "inverse",
    "inversion_count",
    "is_northwest_triangular",
    "lex_min_coset",
    "matrix_lower_bounds",
    "matrix_of",
    "matrix_to_text",
    "max_depth",
    "metrics",
    "northwest_basis",
    "odd_even_network",
    "parse_circuit_text",
    "parse_gate_token",
    "parse_matrix_text",
    "permutation_circuit",
    "rank",
    "render_circuit",
    "reversal_bounds",
    "reverse_circuit",
    "rotate_circuit",
    "rotation_block",
    "schedule",
    "slice_generators",
    "swap_circuit",
    "synthesize",
    "transpose",
    "triangular_reduction_circuit",
    "up",
]
