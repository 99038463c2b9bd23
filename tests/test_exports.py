"""Every exported name and every stage the benchmark traces resolves."""

import importlib
import importlib.util
from pathlib import Path

import cnotline

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

EXPORTS = [
    "BitMatrix", "BoundReport", "Circuit", "CircuitMetrics", "GATHER_DEPTH_PER_POSITION",
    "ResourceLimitError", "SearchResult", "SingularMatrixError", "add_circuit", "apply", "blocks",
    "circuit_to_text", "clearing_circuit", "concat", "crossing_counts", "cut_lower_bound",
    "distance", "down", "dual_functional", "fired_comparators", "gate_token", "gather_circuit",
    "inverse", "inversion_count", "is_northwest_triangular", "lex_min_coset",
    "matrix_lower_bounds", "matrix_of", "matrix_to_text", "max_depth", "metrics",
    "northwest_basis", "odd_even_network", "parse_circuit_text", "parse_gate_token",
    "parse_matrix_text", "permutation_circuit", "rank", "render_circuit", "reversal_bounds",
    "reverse_circuit", "rotate_circuit", "rotation_block", "schedule", "slice_generators",
    "swap_circuit", "synthesize", "transpose", "triangular_reduction_circuit", "up",
]


def test_all_exports_resolve():
    missing = [name for name in cnotline.__all__ if not hasattr(cnotline, name)]
    assert missing == []
    assert len(set(cnotline.__all__)) == len(cnotline.__all__)
    assert sorted(cnotline.__all__) == EXPORTS
    # a star import binds exactly the exports: no submodule, no `annotations`
    namespace: dict = {}
    exec("from cnotline import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == EXPORTS
    # the package's inverse is the circuit's, not f2's matrix inverse
    assert cnotline.inverse is cnotline.circuit.inverse
    # code that catches it from the search module keeps working
    assert cnotline.search.ResourceLimitError is cnotline.ResourceLimitError


def test_traced_stages_resolve():
    # the benchmark's --trace 1 looks each of these up with getattr
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{module}.{name}"
        for module, names in tracing.TRACED.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"cnotline.{module}"), name, None))
    ]
    assert tracing.TRACED and missing == []
