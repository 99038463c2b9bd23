"""Command-line front end: synth, verify, render, bounds, and search.

Exit codes: 0 success or verification PASS, 1 verification FAIL,
2 usage or input error, 3 refused resource budget or out of memory.
"""

from __future__ import annotations

import argparse
import sys

from . import circuit as circuit_mod
from .bounds import matrix_lower_bounds, reversal_bounds
from .circuit import (
    Circuit,
    ResourceLimitError,
    circuit_to_text,
    crossing_counts,
    matrix_of,
    metrics,
    parse_circuit_text,
)
from .constructions import (
    FAMILIES,
    GATHER_DEPTH_PER_POSITION,
    check_permutation,
    gather_circuit,
    gather_moves,
    inversion_count,
    permutation_circuit,
)
from .f2 import BitMatrix, clip, parse_matrix_text
from .glsynth import synthesize
from .render import render_circuit
from .search import check_wire_count, distance, max_depth


# synth refuses a family past either limit, counting gates and depth
# bound times n (a slice holds two n-bit masks); at the cell limit,
# which parsing shares, rotate, the costliest per cell, peaks near 130 MB.
SYNTH_GATE_LIMIT = 1 << 20
# render refuses a drawing of more wires times (depth + 1) cells; at the
# limit, 8 characters a cell held twice, it peaks near 340 MB.
RENDER_CELL_LIMIT = 1 << 24


def _read(path: str) -> str:
    with open(path, "r", encoding="ascii") as handle:
        return handle.read()


def _parse_ints(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.replace(",", " ").split())
    except ValueError:
        raise ValueError(f"{what} must be a list of integers, got {clip(repr(text))}") from None


def _require_n(args: argparse.Namespace) -> int:
    if args.n is None:
        raise ValueError(f"--n is required for op {args.op}")
    if args.n < 2:
        raise ValueError(f"need at least 2 wires, got {args.n}")
    return args.n


def _within_budget(op: str, gates: int, depth: int, n: int) -> None:
    """Refuse op past either synth limit."""
    if gates > SYNTH_GATE_LIMIT:
        raise ResourceLimitError(
            f"synth --op {op} would build {gates} gates, more than the "
            f"limit of {SYNTH_GATE_LIMIT}"
        )
    if depth * n > circuit_mod.CELL_LIMIT:
        raise ResourceLimitError(
            f"synth --op {op} would build {depth} slices on {n} wires, more "
            f"than the limit of {circuit_mod.CELL_LIMIT} slice-wire cells"
        )


def _synth_build(args: argparse.Namespace) -> tuple[Circuit, list[str]]:
    """Build the requested circuit plus its diagnostic bound lines.

    Every op is refused before it is built when its depth bound times n
    passes circuit.CELL_LIMIT, and every op but matrix when its size passes
    SYNTH_GATE_LIMIT.
    """
    op = args.op
    if op in FAMILIES:
        n = _require_n(args)
        build, cost, exact_depth = FAMILIES[op]
        formula, size, depth = cost(n)
        _within_budget(op, size, depth, n)
        label = "depth" if exact_depth else "depth bound"
        return build(n), [f"size formula {formula} = {size}, {label} {depth}"]
    if op == "permute":
        if args.perm is None:
            raise ValueError("--perm is required for op permute")
        perm = _parse_ints(args.perm, "--perm")
        if args.n is not None and args.n != len(perm):
            raise ValueError(
                f"--n {args.n} does not match permutation length {len(perm)}"
            )
        check_permutation(perm)
        n = len(perm)
        size = 3 * inversion_count(perm)
        _within_budget(op, size, 3 * n, n)
        c = permutation_circuit(perm)
        return c, [f"size formula 3*inversions = {size}, depth bound {3 * n}"]
    if op == "matrix":
        if args.matrix is None:
            raise ValueError("--matrix is required for op matrix")
        m = parse_matrix_text(_read(args.matrix))
        if args.n is not None and args.n != m.n:
            raise ValueError(f"--n {args.n} does not match matrix dimension {m.n}")
        # cells only: a gate bound of 2.5 n^2 would refuse n >= 649
        _within_budget(op, 0, 5 * m.n, m.n)
        c = synthesize(m)
        return c, [f"depth bound 5n = {5 * m.n}"]
    # argparse's choices leave only gather
    n = _require_n(args)
    if args.positions is None:
        raise ValueError("--positions is required for op gather")
    positions = _parse_ints(args.positions, "--positions")
    _, moves = gather_moves(n, positions)
    cap = (n + 1) // 2 + GATHER_DEPTH_PER_POSITION * len(positions)
    _within_budget(op, 3 * sum(abs(src - dst) for src, dst in moves), cap, n)
    c, window_start = gather_circuit(n, positions)
    return c, [f"depth bound {cap}", f"window_start={window_start}"]


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
        for k, (bound, seen) in enumerate(zip(report.per_cut, crossing_counts(circuit)), 1):
            print(f"cut {k}: crossings={seen} lower_bound={bound}")
    else:
        print("target is singular: no circuit can compute it")
    ok = matrix_of(circuit) == target
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def _cmd_render(args: argparse.Namespace) -> int:
    circuit = parse_circuit_text(_read(args.circuit))
    if circuit.n * (circuit.depth + 1) > RENDER_CELL_LIMIT:
        raise ResourceLimitError(
            f"render would draw {circuit.depth} slices on {circuit.n} wires, more "
            f"than the limit of {RENDER_CELL_LIMIT} slice-wire cells"
        )
    sys.stdout.write(render_circuit(circuit))
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    target = parse_matrix_text(_read(args.target))
    report = matrix_lower_bounds(target)
    n = target.n
    reversal = reversal_bounds(n) if n >= 3 and target == BitMatrix.anti_identity(n) else ()
    fields = [("n", n), ("method", "rank-cut"), ("depth_lb", report.depth_lb),
              ("size_lb", report.size_lb)]
    if args.machine:
        fields += [(f"cut_{k}", bound) for k, bound in enumerate(report.per_cut, 1)]
        fields += zip(("reversal_depth_lb", "reversal_size_lb"), reversal)
    else:
        fields.append(("per-cut", " ".join(map(str, report.per_cut))))
    line = "{}={}" if args.machine else "{:<10}{}"
    for field in fields:
        print(line.format(*field))
    if reversal and not args.machine:
        print("reversal closed form: depth_lb {}, size_lb {}".format(*reversal))
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    if args.max:
        if args.depth_limit is not None:
            raise ValueError("--depth-limit applies only to distance searches")
        if args.witness is not None:
            raise ValueError("--witness applies only to distance searches")
        result = max_depth(args.n)
    else:
        # before the target is built: a huge n would cost n^2 bits
        check_wire_count(args.n)
        if args.reversal:
            target = BitMatrix.anti_identity(args.n)
        else:
            target = parse_matrix_text(_read(args.target))
            if target.n != args.n:
                raise ValueError(
                    f"--n {args.n} does not match target dimension {target.n}"
                )
        result = distance(args.n, target, args.depth_limit, witness=args.witness is not None)
    print(f"n={result.n} mode={result.mode}")
    name = "max_depth" if args.max else "distance"
    print(f"{name} {'=' if result.completed else '>'} {result.value}")
    print(f"visited_count = {result.visited_count}")
    if result.witness is not None:
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


_PARSER = build_parser()


def main(argv: "list[str] | None" = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        # a budget the machine refused; numpy names the allocation that failed
        print(f"error: out of memory{': ' if str(exc) else ''}{exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
