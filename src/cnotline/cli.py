"""Command-line front end: synth, verify, render, bounds, and search.

Exit codes: 0 success or verification PASS, 1 verification FAIL,
2 usage or input error, 3 refused resource budget.
"""

from __future__ import annotations

import argparse
import sys

from .bounds import matrix_lower_bounds, reversal_bounds
from .circuit import (
    Circuit,
    circuit_to_text,
    crossing_counts,
    matrix_of,
    metrics,
    parse_circuit_text,
)
from .constructions import (
    GATHER_DEPTH_PER_POSITION,
    add_circuit,
    gather_circuit,
    gather_moves,
    inversion_count,
    permutation_circuit,
    reverse_circuit,
    rotate_circuit,
    swap_circuit,
)
from .f2 import BitMatrix, parse_matrix_text
from .glsynth import synthesize
from .render import render_circuit
from .search import ResourceLimitError, distance, max_depth


# synth refuses a family past either limit, counting gates and depth
# bound times n (a slice holds two n-bit masks); at the cell limit
# rotate, the costliest per cell, peaks near 300 MB.
SYNTH_GATE_LIMIT = 1 << 20
SYNTH_CELL_LIMIT = 1 << 28


def _read(path: str) -> str:
    with open(path, "r", encoding="ascii") as handle:
        return handle.read()


def _parse_ints(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.replace(",", " ").split())
    except ValueError:
        raise ValueError(f"{what} must be a list of integers, got {text!r}")


def _require_n(args: argparse.Namespace) -> int:
    if args.n is None:
        raise ValueError(f"--n is required for op {args.op}")
    if args.n < 2:
        raise ValueError(f"need at least 2 wires, got {args.n}")
    return args.n


def _within_budget(op: str, gates: int, depth: int, n: int) -> int:
    """The gate count of op, refused past either synth limit."""
    if gates > SYNTH_GATE_LIMIT:
        raise ResourceLimitError(
            f"synth --op {op} would build {gates} gates, more than the "
            f"limit of {SYNTH_GATE_LIMIT}"
        )
    if n > 0 and depth * n > SYNTH_CELL_LIMIT:
        raise ResourceLimitError(
            f"synth --op {op} would build {depth} slices on {n} wires, more "
            f"than the limit of {SYNTH_CELL_LIMIT} slice-wire cells"
        )
    return gates


def _synth_build(args: argparse.Namespace) -> tuple[Circuit, list[str]]:
    """Build the requested circuit plus its diagnostic bound lines.

    Every family but matrix is refused before it is built when its size
    passes SYNTH_GATE_LIMIT or its depth bound times n passes
    SYNTH_CELL_LIMIT.
    """
    op = args.op
    if op == "add":
        n = _require_n(args)
        bound = 2 * ((n + 1) // 2) + 3
        size = _within_budget(op, 4 * n - 7, bound, n)
        return add_circuit(n), [f"size formula 4n-7 = {size}, depth bound {bound}"]
    if op == "swap":
        n = _require_n(args)
        bound = 2 * ((n + 1) // 2) + 7
        size = _within_budget(op, 6 * n - 9, bound, n)
        return swap_circuit(n), [f"size formula 6n-9 = {size}, depth bound {bound}"]
    if op == "rotate":
        n = _require_n(args)
        # n = 2 degenerates to the 3-gate swap
        formula, bound = ("6n-9", 3) if n == 2 else ("4n-6", n + 5)
        size = _within_budget(op, 3 if n == 2 else 4 * n - 6, bound, n)
        return rotate_circuit(n), [f"size formula {formula} = {size}, depth bound {bound}"]
    if op == "reverse":
        n = _require_n(args)
        depth = 3 if n == 2 else 2 * n + 2
        size = _within_budget(op, n * n - 1, depth, n)
        return reverse_circuit(n), [f"size formula n^2-1 = {size}, depth {depth}"]
    if op == "permute":
        if args.perm is None:
            raise ValueError("--perm is required for op permute")
        perm = _parse_ints(args.perm, "--perm")
        if args.n is not None and args.n != len(perm):
            raise ValueError(
                f"--n {args.n} does not match permutation length {len(perm)}"
            )
        n = len(perm)
        size = _within_budget(op, 3 * inversion_count(perm), 3 * n, n)
        c = permutation_circuit(perm)
        return c, [f"size formula 3*inversions = {size}, depth bound {3 * n}"]
    if op == "matrix":
        if args.matrix is None:
            raise ValueError("--matrix is required for op matrix")
        m = parse_matrix_text(_read(args.matrix))
        if args.n is not None and args.n != m.n:
            raise ValueError(f"--n {args.n} does not match matrix dimension {m.n}")
        c = synthesize(m)
        return c, [f"depth bound 5n = {5 * m.n}"]
    if op == "gather":
        n = _require_n(args)
        if args.positions is None:
            raise ValueError("--positions is required for op gather")
        positions = _parse_ints(args.positions, "--positions")
        _, moves = gather_moves(n, positions)
        cap = (n + 1) // 2 + GATHER_DEPTH_PER_POSITION * len(positions)
        _within_budget(op, 3 * sum(abs(src - dst) for src, dst in moves), cap, n)
        c, window_start = gather_circuit(n, positions)
        return c, [f"depth bound {cap}", f"window_start={window_start}"]
    raise ValueError(f"unknown op {op}")


def _cmd_synth(args: argparse.Namespace) -> int:
    circuit, notes = _synth_build(args)
    sys.stdout.write(circuit_to_text(circuit))
    stats = metrics(circuit)
    print(
        f"depth={stats.depth} size={stats.size} density={stats.density:.3f}",
        file=sys.stderr,
    )
    for line in notes:
        print(line, file=sys.stderr)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    circuit = parse_circuit_text(_read(args.circuit))
    target = parse_matrix_text(_read(args.target))
    if circuit.n != target.n:
        raise ValueError(
            f"circuit has {circuit.n} wires but target is {target.n}x{target.n}"
        )
    stats = metrics(circuit)
    print(f"depth={stats.depth} size={stats.size}")
    if target.is_invertible:
        report = matrix_lower_bounds(target)
        for (k, bound), seen in zip(report.per_cut, crossing_counts(circuit)):
            print(f"cut {k}: crossings={seen} lower_bound={bound}")
    else:
        print("target is singular: no circuit can compute it")
    ok = matrix_of(circuit) == target
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def _cmd_render(args: argparse.Namespace) -> int:
    circuit = parse_circuit_text(_read(args.circuit))
    sys.stdout.write(render_circuit(circuit))
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    target = parse_matrix_text(_read(args.target))
    report = matrix_lower_bounds(target)
    is_reversal = target == BitMatrix.anti_identity(target.n) and target.n >= 3
    if args.machine:
        print(f"n={target.n}")
        print(f"method={report.method}")
        print(f"depth_lb={report.depth_lb}")
        print(f"size_lb={report.size_lb}")
        for k, bound in report.per_cut:
            print(f"cut_{k}={bound}")
        if is_reversal:
            depth_lb, size_lb = reversal_bounds(target.n)
            print(f"reversal_depth_lb={depth_lb}")
            print(f"reversal_size_lb={size_lb}")
        return 0
    print(f"{'n':<10}{target.n}")
    print(f"{'method':<10}{report.method}")
    print(f"{'depth_lb':<10}{report.depth_lb}")
    print(f"{'size_lb':<10}{report.size_lb}")
    print(f"{'per-cut':<10}{' '.join(str(b) for _, b in report.per_cut)}")
    if is_reversal:
        depth_lb, size_lb = reversal_bounds(target.n)
        print(f"reversal closed form: depth_lb {depth_lb}, size_lb {size_lb}")
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    if args.max:
        if args.depth_limit is not None:
            raise ValueError("--depth-limit applies only to distance searches")
        if args.witness is not None:
            raise ValueError("--witness applies only to distance searches")
        result = max_depth(args.n)
        print(f"n={result.n} mode={result.mode}")
        print(f"max_depth = {result.value}")
        print(f"visited_count = {result.visited_count}")
        return 0
    if args.reversal:
        target = BitMatrix.anti_identity(args.n)
    else:
        target = parse_matrix_text(_read(args.target))
        if target.n != args.n:
            raise ValueError(
                f"--n {args.n} does not match target dimension {target.n}"
            )
    result = distance(
        args.n, target, args.depth_limit, witness=args.witness is not None
    )
    print(f"n={result.n} mode={result.mode}")
    if not result.completed:
        print(f"distance > {result.value}")
        print(f"visited_count = {result.visited_count}")
        return 0
    print(f"distance = {result.value}")
    print(f"visited_count = {result.visited_count}")
    if args.witness is not None:
        with open(args.witness, "w", encoding="ascii") as handle:
            handle.write(circuit_to_text(result.witness))
        print(f"witness written to {args.witness}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cnotline",
        description="Adjacent-CNOT circuit synthesis, verification, and search "
        "on a line of wires.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="synthesize a named circuit family")
    p.add_argument(
        "--op",
        required=True,
        choices=["add", "swap", "rotate", "reverse", "permute", "matrix", "gather"],
    )
    p.add_argument("--n", type=int)
    p.add_argument("--perm", help="permutation as space-separated images")
    p.add_argument("--matrix", help="target matrix file")
    p.add_argument("--positions", help="wire positions to gather, ascending")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("verify", help="simulate a circuit against a target matrix")
    p.add_argument("--circuit", required=True)
    p.add_argument("--target", required=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("render", help="draw a circuit as ASCII art")
    p.add_argument("--circuit", required=True)
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("bounds", help="print lower-bound certificates for a matrix")
    p.add_argument("--target", required=True)
    p.add_argument("--machine", action="store_true", help="key=value output")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("search", help="exhaustive minimum-depth search")
    p.add_argument("--n", type=int, required=True)
    goal = p.add_mutually_exclusive_group(required=True)
    goal.add_argument("--target", help="matrix file to reach")
    goal.add_argument(
        "--reversal", action="store_true", help="use the wire-reversal matrix"
    )
    goal.add_argument(
        "--max", action="store_true", help="depth of the hardest matrix"
    )
    p.add_argument("--depth-limit", type=int)
    p.add_argument("--witness", help="write a minimum-depth circuit to this file")
    p.set_defaults(func=_cmd_search)
    return parser


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
