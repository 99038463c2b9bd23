"""Seeded inputs, rounds of CLI operations, and the check of each output.

A round is the fixed sequence of commands a workload repeats, each
round on fresh inputs drawn from (workload, seed, round index).  The
same seed always gives the same inputs.  Nothing here imports cnotline:
inputs are made and outputs judged by the benchmark's own code.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from oracle import (
    CheckError,
    check_circuit,
    check_verify_report,
    inversions,
    matrix_text,
    parse_search_report,
    permutation_columns,
    rank,
)

SYNTH_N = 128
PERMUTE_N = 256
DENSE_N = 5
# dense searches stop at this depth: a random target sits at distance
# 8..11 and an unlimited search costs 0.2 s to 3.4 s by distance, which
# no median over a few ops can steady; with the limit 81% of ops walk
# the same 4.5 M states and the rest stop early with a witness
DENSE_LIMIT = 9
SPARSE_N = 6
SPARSE_LIMIT = 5
# states at each distance from the identity in GL_5(2); they sum to the
# group order 31*30*28*24*16 and the last nonzero distance is 13
SPHERES_5 = (1, 20, 168, 1051, 6168, 29056, 122264, 437380, 1264643,
             2680600, 3513017, 1832490, 112462, 40)
# states within distance 5 of the identity in GL_6(2)
BALL_6_5 = 519303


@dataclass
class Op:
    """One CLI call: argv for cnotline.cli.main and the check of its result.

    check(rc, stdout) raises CheckError on a wrong answer and returns the
    facts the metrics need (circuit depth, size and bound; visited states).
    """

    kind: str
    argv: list
    check: Callable[[int, str], dict]
    # the worker writes stdout here, untimed, for a later op to read
    stdout_file: "str | None" = None
    # files the op writes; their bytes are part of its output
    out_files: tuple = ()


def _rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def random_invertible(rng: random.Random, n: int) -> list[int]:
    while True:
        cols = [rng.randrange(1, 1 << n) for _ in range(n)]
        if rank(cols) == n:
            return cols


def _write(path: Path, text: str) -> str:
    path.write_text(text, encoding="ascii")
    return str(path)


def _expect_ok(rc: int) -> None:
    if rc != 0:
        raise CheckError(f"exit code {rc}")


def _synth_then_verify(d: Path, synth_argv: list, target: list[int],
                       depth_cap: int, size: "int | None") -> list[Op]:
    n = len(target)
    target_file = _write(d / "target.matrix", matrix_text(target, n))
    circuit_file = str(d / "synth.circuit")
    made = {}

    def check_synth(rc: int, out: str) -> dict:
        _expect_ok(rc)
        c = check_circuit(out, target, depth_cap)
        if size is not None and c.size != size:
            raise CheckError(f"size {c.size}, expected 3 x inversions = {size}")
        made["circuit"] = c
        return {"n": n, "depth": c.depth, "size": c.size, "bound": depth_cap}

    def check_verify(rc: int, out: str) -> dict:
        if "circuit" not in made:
            raise CheckError("nothing to verify: synth failed")
        check_verify_report(out, rc, made["circuit"])
        return {}

    return [
        Op("synth", synth_argv, check_synth, stdout_file=circuit_file),
        Op("verify", ["verify", "--circuit", circuit_file, "--target", target_file],
           check_verify),
    ]


def synth_random_round(rng: random.Random, d: Path, n: int = SYNTH_N) -> list[Op]:
    target = random_invertible(rng, n)
    matrix_file = _write(d / "synth.matrix", matrix_text(target, n))
    argv = ["synth", "--op", "matrix", "--matrix", matrix_file]
    return _synth_then_verify(d, argv, target, 5 * n, None)


def permute_round(rng: random.Random, d: Path, n: int = PERMUTE_N) -> list[Op]:
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    argv = ["synth", "--op", "permute", "--perm", " ".join(map(str, perm))]
    return _synth_then_verify(
        d, argv, permutation_columns(perm), 3 * n, 3 * inversions(perm)
    )


def _max_op() -> Op:
    def check(rc: int, out: str) -> dict:
        _expect_ok(rc)
        rep = parse_search_report(out)
        if (rep["value"], rep["visited"]) != (len(SPHERES_5) - 1, sum(SPHERES_5)):
            raise CheckError(f"n=5 sweep reports {rep}")
        return {"visited": rep["visited"]}

    return Op("max", ["search", "--n", str(DENSE_N), "--max"], check)


def _dense_op(rng: random.Random, d: Path, k: int) -> Op:
    target = random_invertible(rng, DENSE_N)
    target_file = _write(d / f"dense{k}.matrix", matrix_text(target, DENSE_N))
    witness_file = str(d / f"dense{k}.circuit")

    def check(rc: int, out: str) -> dict:
        _expect_ok(rc)
        rep = parse_search_report(out)
        dist = rep["value"]
        if dist > DENSE_LIMIT or rep["visited"] != sum(SPHERES_5[: dist + 1]):
            raise CheckError(f"limited n=5 search reports {rep}")
        if not rep["completed"]:
            if dist != DENSE_LIMIT:
                raise CheckError(f"limited n=5 search reports {rep}")
            return {"visited": rep["visited"]}
        c = check_circuit(Path(witness_file).read_text(encoding="ascii"), target, dist)
        if c.depth != dist:
            raise CheckError(f"witness depth {c.depth} but distance {dist}")
        return {"n": DENSE_N, "depth": c.depth, "size": c.size, "bound": dist,
                "visited": rep["visited"]}

    argv = ["search", "--n", str(DENSE_N), "--target", target_file,
            "--depth-limit", str(DENSE_LIMIT), "--witness", witness_file]
    return Op("dense", argv, check, out_files=(witness_file,))


def _sparse_op(rng: random.Random, d: Path, k: int) -> Op:
    target = random_invertible(rng, SPARSE_N)
    target_file = _write(d / f"sparse{k}.matrix", matrix_text(target, SPARSE_N))

    def check(rc: int, out: str) -> dict:
        _expect_ok(rc)
        rep = parse_search_report(out)
        if rep["completed"]:
            ok = rep["value"] <= SPARSE_LIMIT
        else:
            ok = (rep["value"], rep["visited"]) == (SPARSE_LIMIT, BALL_6_5)
        if not ok:
            raise CheckError(f"limited n=6 search reports {rep}")
        return {"visited": rep["visited"]}

    argv = ["search", "--n", str(SPARSE_N), "--target", target_file,
            "--depth-limit", str(SPARSE_LIMIT)]
    return Op("sparse", argv, check)


def search_round(rng: random.Random, d: Path) -> list[Op]:
    ops = [_max_op()]
    ops += [_dense_op(rng, d, k) for k in range(4)]
    ops += [_sparse_op(rng, d, k) for k in range(2)]
    return ops


@dataclass(frozen=True)
class Workload:
    make_round: Callable[[random.Random, Path], list]
    # one small op of the same kind, run once per process during set-up
    warmup: Callable[[random.Random, Path], Op]
    # op kinds behind the produce_s_* and check_s_* metrics
    produce: str
    check: str


WORKLOADS = {
    "synth-random": Workload(
        synth_random_round, lambda rng, d: synth_random_round(rng, d, 32)[0],
        "synth", "verify",
    ),
    "permute-large": Workload(
        permute_round, lambda rng, d: permute_round(rng, d, 32)[0],
        "synth", "verify",
    ),
    "search": Workload(
        search_round,
        lambda rng, d: Op("max", ["search", "--n", "4", "--max"], lambda rc, out: {}),
        "dense", "sparse",
    ),
}


def round_ops(workload: str, seed: int, index: int, d: Path) -> list[Op]:
    """Write round `index`'s inputs under d and return its ops in order."""
    d.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[workload].make_round(_rng(workload, seed, index), d)


def warmup_op(workload: str, seed: int, d: Path) -> Op:
    d.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[workload].warmup(_rng(workload, seed, -1), d)
