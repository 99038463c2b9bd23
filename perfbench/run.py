"""Benchmark of the cnotline command line, end to end and per layer.

    python3 perfbench/run.py --workload synth-random --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; cnotline is imported from src/.
One client in one process runs one op at a time (a closed loop): each op
is an in-process call to cnotline.cli.main(argv), repeated in rounds on
fresh seeded inputs until --seconds have passed.  Every output is
checked by the benchmark's own oracle.  --trace 0 prints the end-to-end
metrics; --trace 1 replays the same rounds once untraced and once with
spans around every stage function, and prints the per-layer metrics.
The last line of stdout is the result as one JSON object; the line
before it holds the provenance, the tail percentiles and the error rate.
See perfbench/README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path

from inputs import WORKLOADS
from tracing import layer_totals
from worker import REF_NOMINAL_S

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 5
# the program's own pools stay single-threaded, like the closed loop
THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}
# search workers keep dense and sparse ops apart in the traced run, so
# the sparse peak memory is not hidden under the dense one
TRACE_GROUPS = {"search": {"dense": ("max", "dense"), "sparse": ("sparse",)}}

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
    "produce_s_p50": "s", "produce_s_tail": "s",
    "check_s_p50": "s", "check_s_tail": "s",
    "depth_over_bound": "ratio", "size_over_n2": "ratio",
}

# span name -> the totals reported for it, per round
SPAN_METRICS = {
    "cli.main": ("self_s",),
    "f2.inverse": ("calls", "s"),
    "f2.dual_functional": ("calls", "s"),
    "f2.lex_min_coset": ("calls", "s"),
    "f2.rank": ("calls", "s"),
    "f2.blocks": ("s",),
    "f2.parse_matrix_text": ("s",),
    "bounds.matrix_lower_bounds": ("self_s",),
    "bounds.cut_lower_bound": ("calls",),
    "glsynth.synthesize": ("self_s",),
    "glsynth.northwest_basis": ("s",),
    "glsynth.clearing_circuit": ("self_s",),
    "glsynth.triangular_reduction_circuit": ("self_s",),
    "circuit.schedule": ("calls", "s"),
    "circuit.inverse": ("s",),
    "circuit.concat": ("s",),
    "circuit.metrics": ("s",),
    "circuit.circuit_to_text": ("s",),
    "circuit.parse_circuit_text": ("s",),
    "circuit.apply": ("s",),
    "circuit.crossing_counts": ("s",),
    "constructions.permutation_circuit": ("self_s",),
    "constructions.odd_even_network": ("s",),
    "constructions.fired_comparators": ("s",),
    "search.max_depth": ("s",),
    "search.distance.dense": ("s",),
    "search.distance.sparse": ("s",),
}
TOTAL_UNITS = {"s": "s", "self_s": "s", "calls": "count"}
PER_LAYER_UNITS = {
    **{f"{name}.{t}": TOTAL_UNITS[t] for name, ts in SPAN_METRICS.items() for t in ts},
    "circuit.schedule.gates": "count",
    "glsynth.clearing.depth_over_2n": "ratio",
    "glsynth.reduction.depth_over_3n": "ratio",
    "search.visited_count": "count",
    "search.states_per_s.dense": "1/s",
    "search.states_per_s.sparse": "1/s",
    "search.dense.peak_rss_mb": "MB",
    "search.sparse.peak_rss_mb": "MB",
    "trace.overhead": "ratio",
}


class WorkerError(RuntimeError):
    pass


def tail(samples: list) -> tuple:
    """(value, percentile, count) of the highest nearest-rank percentile
    with at least ten samples beyond it.

    Below 20 samples no percentile above the median has ten beyond it;
    the median stands in, at 50.
    """
    xs = sorted(samples)
    n = len(xs)
    if n - 10 <= (n + 1) // 2:
        return statistics.median(xs), 50.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def _mean(values: list) -> float:
    return sum(values) / len(values) if values else 0.0


def provenance(root: Path, args: argparse.Namespace, workload: str) -> dict:
    src = hashlib.sha256()
    for path in sorted((root / "src" / "cnotline").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    revision = None
    if (root / ".git").exists():
        probe = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                               capture_output=True, text=True, timeout=30)
        revision = probe.stdout.strip() or None
    cpu = ram = None
    with open("/proc/cpuinfo", encoding="ascii", errors="replace") as handle:
        cpu = next((ln.split(":", 1)[1].strip() for ln in handle
                    if ln.startswith("model name")), None)
    with open("/proc/meminfo", encoding="ascii") as handle:
        ram = next((ln.split(":", 1)[1].strip() for ln in handle
                    if ln.startswith("MemTotal")), None)
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "workload": workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_revision": revision,
        "src_sha256": src.hexdigest(), "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)), "cpu_model": cpu,
        "ram": ram, "python": platform.python_version(), "numpy": numpy_version,
        "thread_pins": THREAD_PINS,
    }


def spawn(root: Path, run_dir: Path, name: str, job: dict, timeout: float) -> dict:
    """Run one worker process to completion and return its result."""
    # one work directory for every worker, so paths printed by the program
    # read the same in the untraced and traced runs
    job = {**job, "src": str(root / "src"), "workdir": str(run_dir / "work"),
           "spans": str(run_dir / f"spans-{name}.jsonl")}
    job_file, result_file = run_dir / f"job-{name}.json", run_dir / f"result-{name}.json"
    job_file.write_text(json.dumps(job))
    env = {**os.environ, **THREAD_PINS, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(job_file), str(result_file)],
        cwd=root, env=env, capture_output=True, text=True, timeout=timeout,
    )
    shutil.rmtree(job["workdir"], ignore_errors=True)
    if proc.returncode != 0 or not result_file.exists():
        raise WorkerError(f"worker {name} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(result_file.read_text())


def scaled(seconds: float, ref_s: float) -> float:
    """Seconds on a machine where the reference loop takes REF_NOMINAL_S."""
    return seconds * REF_NOMINAL_S / ref_s


def end_to_end(workload: str, setups: list, run: dict) -> tuple:
    wl = WORKLOADS[workload]
    recs = run["records"]
    by_kind: dict = {}
    raw: dict = {}
    for r in recs:
        by_kind.setdefault(r["kind"], []).append(scaled(r["seconds"], r["ref_s"]))
        raw.setdefault(r["kind"], []).append(r["seconds"])
    p50 = {kind: statistics.median(times) for kind, times in by_kind.items()}
    made = [r["facts"] for r in recs if r["ok"] and "depth" in r["facts"]]
    metrics = {
        "setup_s": statistics.median(scaled(*s) for s in setups),
        # one round with each op at its kind's median: the summed time of
        # a round, steadied against the few slow or fast inputs in a run
        "wall_s": sum(p50[k] * len(t) for k, t in by_kind.items()) / run["rounds"],
        "peak_rss_mb": run["peak_rss_mb"],
        "depth_over_bound": _mean([f["depth"] / f["bound"] if f["bound"] else 1.0
                                   for f in made]),
        "size_over_n2": _mean([f["size"] / f["n"] ** 2 for f in made]),
    }
    extra = {
        "rounds": run["rounds"],
        "op_s_p50": p50,
        "raw_op_s_p50": {k: statistics.median(t) for k, t in raw.items()},
        "raw_setup_s": statistics.median(s[0] for s in setups),
        "reference_s_p50": statistics.median(r["ref_s"] for r in recs),
    }
    for role, kind in (("produce", wl.produce), ("check", wl.check)):
        value, pct, count = tail(by_kind[kind])
        metrics[f"{role}_s_p50"] = p50[kind]
        metrics[f"{role}_s_tail"] = value
        extra[f"{role}_s_tail"] = {"op": kind, "percentile": pct, "samples": count}
    return metrics, extra


def per_layer(traced: list, rounds: int, overhead: float) -> dict:
    """Per-round layer numbers from the traced workers' spans.

    traced maps each trace group to its worker's (spans, peak_rss_mb).
    """
    totals: dict = {}
    facts: dict = {}
    for spans, _ in traced.values():
        for name, t in layer_totals(spans).items():
            acc = totals.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += t[key]
        for s in spans:
            if s[6] is not None:
                facts.setdefault(s[3], []).append(s[6])
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0}
    out = {f"{name}.{t}": totals.get(name, zero)[t] / rounds
           for name, ts in SPAN_METRICS.items() for t in ts}
    out["circuit.schedule.gates"] = sum(
        f["gates"] for f in facts.get("circuit.schedule", [])) / rounds
    out["glsynth.clearing.depth_over_2n"] = _mean(
        [f["depth"] / (2 * f["n"]) for f in facts.get("glsynth.clearing_circuit", [])])
    out["glsynth.reduction.depth_over_3n"] = _mean(
        [f["depth"] / (3 * f["n"])
         for f in facts.get("glsynth.triangular_reduction_circuit", [])])
    visited = {k: sum(f["visited"] for f in facts.get(k, []))
               for k in ("search.max_depth", "search.distance.dense",
                         "search.distance.sparse")}
    out["search.visited_count"] = sum(visited.values()) / rounds
    dense_s = totals.get("search.max_depth", zero)["s"] + totals.get(
        "search.distance.dense", zero)["s"]
    sparse_s = totals.get("search.distance.sparse", zero)["s"]
    dense_n = visited["search.max_depth"] + visited["search.distance.dense"]
    out["search.states_per_s.dense"] = dense_n / dense_s if dense_s else 0.0
    out["search.states_per_s.sparse"] = (
        visited["search.distance.sparse"] / sparse_s if sparse_s else 0.0)
    for group in ("dense", "sparse"):
        out[f"search.{group}.peak_rss_mb"] = traced.get(group, (None, 0.0))[1]
    out["trace.overhead"] = overhead
    return out


def _with_units(values: dict, units: dict) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def run_workload(root: Path, args: argparse.Namespace, workload: str) -> tuple:
    """Run one workload; returns (details, result) or raises WorkerError."""
    run_dir = root / ".perfbench-out" / f"{workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    base = {"workload": workload, "seed": args.seed, "traced": False,
            "kinds": None, "rounds": None}
    setups = []
    for i in range(SETUP_SAMPLES - 1):
        res = spawn(root, run_dir, f"setup{i}", {**base, "mode": "setup"}, 60)
        setups.append((res["setup_s"], res["setup_ref_s"]))
    seconds = args.seconds / 2 if args.trace else args.seconds
    run = spawn(root, run_dir, "run", {**base, "mode": "run", "seconds": seconds}, 150)
    setups.append((run["setup_s"], run["setup_ref_s"]))
    metrics, extra = end_to_end(workload, setups, run)
    units = END_TO_END_UNITS
    records = list(run["records"])
    if args.trace:
        plain = {(r["round"], r["index"]): r for r in run["records"]}
        traced = {}
        for group, kinds in TRACE_GROUPS.get(workload, {"all": None}).items():
            job = {**base, "mode": "run", "traced": True, "kinds": kinds,
                   "rounds": run["rounds"]}
            res = spawn(root, run_dir, f"traced-{group}", job, 150)
            with open(run_dir / f"spans-traced-{group}.jsonl", encoding="ascii") as handle:
                spans = [json.loads(line) for line in handle]
            # scale span times like op times; all spans of an op share
            # its factor, so nesting and self times are kept
            factor = {f"{r['round']}.{r['index']}": scaled(1.0, r["ref_s"])
                      for r in res["records"]}
            for span in spans:
                span[4] *= factor[span[2]]
                span[5] *= factor[span[2]]
            traced[group] = (spans, res["peak_rss_mb"])
            records += res["records"]
        again = records[len(run["records"]):]
        for r in again:
            if r["digest"] != plain[(r["round"], r["index"])]["digest"]:
                r["ok"], r["reason"] = False, "traced output differs from untraced"
        untraced_s = sum(scaled(plain[(r["round"], r["index"])]["seconds"],
                                plain[(r["round"], r["index"])]["ref_s"]) for r in again)
        overhead = sum(scaled(r["seconds"], r["ref_s"]) for r in again) / untraced_s
        metrics = per_layer(traced, run["rounds"], overhead)
        units = PER_LAYER_UNITS
    failed = sum(not r["ok"] for r in records)
    details = {
        "provenance": provenance(root, args, workload),
        "error_rate": failed / len(records),
        "failures": sorted({r["reason"] for r in records if not r["ok"]})[:10],
        **extra,
    }
    result = {"correct": failed == 0, "attempted": len(records), "failed": failed,
              "metrics": _with_units(metrics, units)}
    (run_dir / "summary.json").write_text(
        json.dumps({"details": details, "result": result}, indent=1))
    return details, result


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "cnotline" / "__init__.py").is_file():
        print("error: run from the root of a cnotline checkout (no src/cnotline)",
              file=sys.stderr)
        return 2
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        try:
            details, result = run_workload(root, args, workload)
        except (WorkerError, subprocess.TimeoutExpired) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(details))
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
