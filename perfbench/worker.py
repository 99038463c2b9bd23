"""One fresh benchmark process: set up cnotline, run rounds, check outputs.

    python3 perfbench/worker.py JOB.json RESULT.json

run.py writes the job and reads the result.  Set-up time is the time of
`import cnotline` plus that of one untimed warm-up op.  Each
timed op is one in-process call to cnotline.cli.main(argv) with stdout
and stderr captured; writing files for the next op and checking the
output happen outside the timed region.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import shutil
import sys
import time
from pathlib import Path

from inputs import Op, round_ops, warmup_op
from oracle import CheckError
from tracing import Recorder, install


# The machines this runs on share cores with other tenants, and the same
# interpreter loop can take 14 ms in one half-minute and 21 ms in the
# next.  Each op is therefore timed between two runs of a fixed
# reference, and run.py scales its time to a machine on which the
# reference takes REF_NOMINAL_S.  Raw times are kept beside the scaled
# ones.  The reference is the geometric mean of an arithmetic loop,
# which tracks synthesis best, and an allocating loop, which tracks
# parsing and set-based search best.
REF_NOMINAL_S = 0.004


def _arith() -> None:
    acc = 0
    for i in range(50_000):
        acc += i * i


def _alloc() -> None:
    table = {}
    for i in range(6_000):
        table[i, i & 7] = [i, str(i)]


def _best_of_three(loop) -> float:
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        loop()
        best = min(best, time.perf_counter() - start)
    return best


def reference_s() -> float:
    return (_best_of_three(_arith) * _best_of_three(_alloc)) ** 0.5


def run_op(cli, op: Op, recorder: "Recorder | None", op_id: str) -> dict:
    out, err = io.StringIO(), io.StringIO()
    error = None
    if recorder is not None:
        recorder.op = op_id
    ref_before = reference_s()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(op.argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # the op failed; record it and go on
        rc, error = None, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    ref_s = (ref_before + reference_s()) / 2
    stdout = out.getvalue()
    if op.stdout_file is not None:
        Path(op.stdout_file).write_text(stdout, encoding="ascii")
    digest = hashlib.sha256(stdout.encode())
    for path in op.out_files:
        p = Path(path)
        digest.update(b"\0" + (p.read_bytes() if p.exists() else b""))
    facts: dict = {}
    if error is None:
        try:
            facts = op.check(rc, stdout)
        except (CheckError, OSError, ValueError, KeyError, IndexError) as exc:
            error = f"{type(exc).__name__}: {exc}"
    return {"kind": op.kind, "seconds": seconds, "ref_s": ref_s, "ok": error is None,
            "reason": error or "", "digest": digest.hexdigest(), "facts": facts}


def main() -> int:
    job = json.loads(Path(sys.argv[1]).read_text())
    workdir = Path(job["workdir"])
    warm = warmup_op(job["workload"], job["seed"], workdir / "warmup")

    ref_before = reference_s()
    start = time.perf_counter()
    import cnotline
    import cnotline.cli as cli

    import_s = time.perf_counter() - start
    warm_rec = run_op(cli, warm, None, "warmup")
    setup_s = import_s + warm_rec["seconds"]
    setup_ref_s = (ref_before + warm_rec["ref_s"]) / 2
    src = Path(job["src"]).resolve()
    if src not in Path(cnotline.__file__).resolve().parents:
        print(f"imported cnotline from {cnotline.__file__}, not {src}", file=sys.stderr)
        return 1

    result = {"setup_s": setup_s, "setup_ref_s": setup_ref_s, "records": [], "rounds": 0}
    if job["mode"] == "run":
        recorder = Recorder() if job["traced"] else None
        if recorder is not None:
            install(recorder)
        kinds = job["kinds"]
        records = result["records"]
        begin = time.perf_counter()
        index = 0
        while True:
            if job["rounds"] is not None:
                if index >= job["rounds"]:
                    break
            elif index > 0 and time.perf_counter() - begin >= job["seconds"]:
                break
            d = workdir / f"round-{index}"
            for k, op in enumerate(round_ops(job["workload"], job["seed"], index, d)):
                if kinds is None or op.kind in kinds:
                    rec = run_op(cli, op, recorder, f"{index}.{k}")
                    rec.update(round=index, index=k)
                    records.append(rec)
            shutil.rmtree(d)
            index += 1
        result["rounds"] = index
        if recorder is not None:
            with open(job["spans"], "w", encoding="ascii") as handle:
                for span in recorder.spans:
                    handle.write(json.dumps(span) + "\n")
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    Path(sys.argv[2]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
