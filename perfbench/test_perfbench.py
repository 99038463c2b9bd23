"""Tests of the benchmark's own helpers: oracle, tail rule, span arithmetic.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

import run
from inputs import BALL_6_5, SPHERES_5, random_invertible, round_ops
from oracle import (
    CheckError,
    check_circuit,
    check_verify_report,
    inversions,
    parse_circuit,
    parse_search_report,
    permutation_columns,
    rank,
    simulate,
)
from tracing import Recorder, layer_totals, self_times

# u1 d1 u1 swaps the two wires of a 2-wire line
SWAP = "n 2\nu1\nd1\nu1\n"


def test_oracle_accepts_a_correct_circuit():
    c = check_circuit(SWAP, permutation_columns([2, 1]), depth_cap=6)
    assert (c.depth, c.size) == (3, 3)


def test_oracle_rejects_a_wrong_circuit():
    with pytest.raises(CheckError, match="does not compute"):
        check_circuit("n 2\nu1\nd1\n", permutation_columns([2, 1]), depth_cap=6)


def test_oracle_rejects_depth_over_the_bound():
    with pytest.raises(CheckError, match="exceeds"):
        check_circuit(SWAP, permutation_columns([2, 1]), depth_cap=2)


@pytest.mark.parametrize("text", ["n 3\nu1 d2\n", "n 3\nu3\n", "n 3\nx1\n", "m 3\n"])
def test_oracle_rejects_malformed_circuits(text):
    with pytest.raises(CheckError):
        parse_circuit(text)


def test_simulate_applies_gates_in_slice_order():
    # d1 adds wire 1 into wire 2, then u1 adds that sum back into wire 1
    assert simulate(parse_circuit("n 2\nd1\nu1\n")) == [0b10, 0b11]


def test_verify_report_must_match_the_circuit():
    c = parse_circuit("n 3\nu1\nd2\n")
    good = "depth=2 size=2\ncut 1: crossings=1 lower_bound=1\ncut 2: crossings=1 lower_bound=0\nPASS\n"
    check_verify_report(good, 0, c)
    for bad, rc in [
        (good.replace("PASS", "FAIL"), 1),
        (good.replace("crossings=1 lower_bound=0", "crossings=2 lower_bound=0"), 0),
        (good.replace("lower_bound=0", "lower_bound=2"), 0),
        (good.replace("depth=2", "depth=3"), 0),
    ]:
        with pytest.raises(CheckError):
            check_verify_report(bad, rc, c)


def test_search_report_parsing():
    assert parse_search_report("n=6 mode=x\ndistance > 5\nvisited_count = 519303\n") == {
        "value": 5, "completed": False, "visited": BALL_6_5}
    assert parse_search_report("max_depth = 13\nvisited_count = 9\n")["value"] == 13
    with pytest.raises(CheckError):
        parse_search_report("error: nothing\n")


def test_sphere_sizes_cover_gl5():
    assert sum(SPHERES_5) == 31 * 30 * 28 * 24 * 16
    assert len(SPHERES_5) - 1 == 13


def test_inversions_match_pair_count():
    rng = random.Random(3)
    for n in (1, 2, 7, 40):
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        pairs = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        assert inversions(perm) == pairs


def test_random_invertible_has_full_rank():
    assert rank(random_invertible(random.Random(1), 64)) == 64
    assert rank([0b011, 0b101, 0b110]) == 2


def test_rounds_repeat_for_a_seed(tmp_path):
    def files(seed, d):
        ops = round_ops("synth-random", seed, 0, d)
        return [op.argv[0] for op in ops], (d / "synth.matrix").read_text()

    assert files(7, tmp_path / "a") == files(7, tmp_path / "b")
    assert files(7, tmp_path / "a")[1] != files(8, tmp_path / "c")[1]


@pytest.mark.parametrize("n, value, pct", [
    (5, 3, 50.0),       # too few samples: the median stands in
    (21, 11, 50.0),     # the median has exactly ten beyond it
    (22, 12, 100 * 12 / 22),
    (100, 90, 90.0),
])
def test_tail_is_highest_percentile_with_ten_beyond(n, value, pct):
    samples = list(range(n, 0, -1))
    got, got_pct, count = run.tail(samples)
    assert (got, count) == (value, n)
    assert got_pct == pytest.approx(pct)
    if got_pct > 50:
        assert sum(x > got for x in samples) == 10


def _span(sid, parent, name, start, end):
    return [sid, parent, "op", name, start, end, None]


def test_self_time_subtracts_direct_children():
    spans = [
        _span(0, None, "cli.main", 0.0, 10.0),
        _span(1, 0, "a", 1.0, 3.0),
        _span(2, 0, "b", 4.0, 8.0),
        _span(3, 2, "c", 5.0, 6.0),
    ]
    assert self_times(spans) == {0: 4.0, 1: 2.0, 2: 3.0, 3: 1.0}
    totals = layer_totals(spans)
    assert totals["b"] == {"calls": 1, "s": 4.0, "self_s": 3.0}


def test_nested_same_name_counts_once():
    spans = [_span(0, None, "x", 0.0, 5.0), _span(1, 0, "x", 1.0, 2.0)]
    assert layer_totals(spans)["x"] == {"calls": 2, "s": 5.0, "self_s": 5.0}


def test_recorder_nests_spans_under_the_caller():
    rec = Recorder()
    inner = rec.wrap("inner", lambda x: x + 1, facts=lambda args, out: {"out": out})
    outer = rec.wrap("outer", lambda x: inner(x) * 2)
    rec.op = "r0.0"
    assert outer(1) == 4
    (o, i) = sorted(rec.spans, key=lambda s: s[0])
    assert (o[3], o[1], i[3], i[1]) == ("outer", None, "inner", o[0])
    assert i[2] == o[2] == "r0.0"
    assert i[6] == {"out": 2}
    assert o[4] <= i[4] <= i[5] <= o[5]


def test_metric_names_match_the_benchmark_file():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
