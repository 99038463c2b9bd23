"""End-to-end command-line tests driven through main(argv)."""

import hashlib
import random
import time

import pytest

from cnotline import (
    BitMatrix,
    add_circuit,
    circuit_to_text,
    from_gate_tokens,
    matrix_of,
    matrix_to_text,
    parse_circuit_text,
    permutation_circuit,
    reverse_circuit,
    synthesize,
    validate,
)
from cnotline.cli import main
from conftest import random_invertible


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_matrix(tmp_path, name, m):
    path = tmp_path / name
    path.write_text(matrix_to_text(m), encoding="ascii")
    return str(path)


def write_circuit(tmp_path, name, c):
    path = tmp_path / name
    path.write_text(circuit_to_text(c), encoding="ascii")
    return str(path)


@pytest.mark.parametrize(
    "argv,n",
    [
        (["synth", "--op", "add", "--n", "10"], 10),
        (["synth", "--op", "swap", "--n", "9"], 9),
        (["synth", "--op", "rotate", "--n", "10"], 10),
        (["synth", "--op", "reverse", "--n", "9"], 9),
        (["synth", "--op", "permute", "--perm", "3 1 4 2 5"], 5),
        (["synth", "--op", "gather", "--n", "11", "--positions", "1,4,9,11"], 11),
    ],
)
def test_synth_emits_parseable_clean_circuit(capsys, argv, n):
    code, out, err = run(capsys, *argv)
    assert code == 0
    circuit = parse_circuit_text(out)
    assert circuit.n == n
    assert not validate(circuit)
    assert "depth=" in err and "size=" in err and "density=" in err


def test_synth_then_verify_round_trip(capsys, tmp_path):
    code, out, _ = run(capsys, "synth", "--op", "add", "--n", "10")
    assert code == 0
    circuit_path = tmp_path / "add.circuit"
    circuit_path.write_text(out, encoding="ascii")
    target = write_matrix(tmp_path, "add.matrix", matrix_of(add_circuit(10)))
    code, out, _ = run(capsys, "verify", "--circuit", str(circuit_path), "--target", target)
    assert code == 0
    assert "PASS" in out
    assert "cut 1: crossings=" in out and "lower_bound=" in out


def test_verify_fail_exit_code(capsys, tmp_path):
    circuit = write_circuit(tmp_path, "c.circuit", add_circuit(5))
    target = write_matrix(tmp_path, "t.matrix", BitMatrix.identity(5))
    code, out, _ = run(capsys, "verify", "--circuit", circuit, "--target", target)
    assert code == 1
    assert out.rstrip().endswith("FAIL")


def test_verify_singular_target_notes_impossibility(capsys, tmp_path):
    circuit = write_circuit(tmp_path, "c.circuit", add_circuit(4))
    target = write_matrix(tmp_path, "t.matrix", BitMatrix(4, (0, 0, 0, 0)))
    code, out, _ = run(capsys, "verify", "--circuit", circuit, "--target", target)
    assert code == 1
    assert "target is singular: no circuit can compute it" in out


def test_verify_dimension_mismatch(capsys, tmp_path):
    circuit = write_circuit(tmp_path, "c.circuit", add_circuit(4))
    target = write_matrix(tmp_path, "t.matrix", BitMatrix.identity(5))
    code, _, err = run(capsys, "verify", "--circuit", circuit, "--target", target)
    assert code == 2
    assert "error:" in err


def test_missing_file_is_usage_error(capsys, tmp_path):
    code, _, err = run(
        capsys, "render", "--circuit", str(tmp_path / "absent.circuit")
    )
    assert code == 2
    assert "error:" in err


def test_synth_rejects_bad_permutation(capsys):
    code, _, err = run(capsys, "synth", "--op", "permute", "--perm", "1 1 2")
    assert code == 2
    assert "error:" in err


def test_synth_matrix_rejects_singular(capsys, tmp_path):
    target = write_matrix(tmp_path, "t.matrix", BitMatrix(3, (1, 1, 4)))
    code, _, err = run(capsys, "synth", "--op", "matrix", "--matrix", target)
    assert code == 2
    assert "error:" in err


def test_synth_matrix_round_trips_through_verify(capsys, tmp_path, rng):
    from conftest import random_invertible

    m = random_invertible(7, rng)
    target = write_matrix(tmp_path, "t.matrix", m)
    code, out, err = run(capsys, "synth", "--op", "matrix", "--matrix", target)
    assert code == 0
    assert "depth bound 5n = 35" in err
    circuit = parse_circuit_text(out)
    assert matrix_of(circuit) == m and circuit.depth <= 35


def test_gather_reports_window_start(capsys):
    code, _, err = run(
        capsys, "synth", "--op", "gather", "--n", "11", "--positions", "1 4 9 11"
    )
    assert code == 0
    assert "window_start=" in err


def test_render_golden(capsys, tmp_path):
    circuit = write_circuit(
        tmp_path, "c.circuit", parse_circuit_text("n 2\nu1\n")
    )
    code, out, _ = run(capsys, "render", "--circuit", circuit)
    assert code == 0
    assert out == " 1 -+---\n    |\n 2 -*---\n"


def test_bounds_human_reversal(capsys, tmp_path):
    target = write_matrix(tmp_path, "t.matrix", BitMatrix.anti_identity(9))
    code, out, _ = run(capsys, "bounds", "--target", str(target))
    assert code == 0
    assert "reversal closed form: depth_lb 19, size_lb 49" in out


def test_bounds_machine_output(capsys, tmp_path):
    target = write_matrix(tmp_path, "t.matrix", BitMatrix.anti_identity(9))
    code, out, _ = run(capsys, "bounds", "--target", str(target), "--machine")
    assert code == 0
    pairs = dict(line.split("=", 1) for line in out.splitlines())
    assert pairs["n"] == "9"
    assert pairs["method"] == "rank-cut"
    assert pairs["depth_lb"] == "16"
    assert pairs["size_lb"] == "40"
    assert [pairs[f"cut_{k}"] for k in range(1, 9)] == [
        "2", "4", "6", "8", "8", "6", "4", "2"
    ]
    assert pairs["reversal_depth_lb"] == "19"
    assert pairs["reversal_size_lb"] == "49"


@pytest.mark.parametrize("n", [1, 2, 3])
def test_bounds_machine_rejects_singular(capsys, tmp_path, n):
    target = write_matrix(tmp_path, "t.matrix", BitMatrix(n, (0,) * n))
    code, out, err = run(capsys, "bounds", "--target", target, "--machine")
    assert code == 2
    assert err == f"error: matrix of dimension {n} is singular\n"
    assert out == ""


def _pinned_case(name):
    """(circuit, target) for one of the cases in PINNED_REPORTS."""
    if name == "random128":
        m = random_invertible(128, random.Random(128))
        return synthesize(m), m
    if name == "perm256":
        rng = random.Random(256)
        perm = list(range(1, 257))
        rng.shuffle(perm)
        c = permutation_circuit(perm)
        return c, matrix_of(c)
    return reverse_circuit(9), BitMatrix.anti_identity(9)


# SHA-256 of the stdout of `verify` and of `bounds --machine`.  A changed
# hash means the printed crossings, cut bounds or aggregates moved.
PINNED_REPORTS = {
    "random128": (
        "e0ea1fa841eecea12139edc6be8513e7366d4563acb0dd7624ce28b911727321",
        "6688e5d931c10600480224096f62f9ddf01fa6efb30470ecc1116cddbc1c48b1",
    ),
    "perm256": (
        "490421c12a022e9ba60c2f7ce04525e7f06c122a4036fe7a0b939a4467b15201",
        "864d734149dc7a8e31eb78743cd2860ed4ddf9ea1b35e2bb46035e081d8dfd1f",
    ),
    "anti9": (
        "2780e3d456abac8941032cb8c1f9723b57e85e1f3e77aaf28a6154f18318f50c",
        "03e2756e391760d9906544548037ecc240fc4fc86500531d6631bcea8b225d98",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_REPORTS))
def test_verify_and_bounds_output_is_pinned(capsys, tmp_path, name):
    c, m = _pinned_case(name)
    circuit = write_circuit(tmp_path, "c.circuit", c)
    target = write_matrix(tmp_path, "t.matrix", m)
    got = []
    for argv in (
        ("verify", "--circuit", circuit, "--target", target),
        ("bounds", "--target", target, "--machine"),
    ):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        got.append(hashlib.sha256(out.encode("ascii")).hexdigest())
    assert tuple(got) == PINNED_REPORTS[name]


def test_search_reversal_distance(capsys):
    code, out, _ = run(capsys, "search", "--n", "3", "--reversal")
    assert code == 0
    assert "distance = 8" in out
    assert "visited_count" in out


def test_search_witness_file(capsys, tmp_path):
    witness = tmp_path / "w.circuit"
    code, out, _ = run(
        capsys, "search", "--n", "3", "--reversal", "--witness", str(witness)
    )
    assert code == 0
    assert f"witness written to {witness}" in out
    circuit = parse_circuit_text(witness.read_text(encoding="ascii"))
    assert circuit.depth == 8
    assert matrix_of(circuit) == BitMatrix.anti_identity(3)


def test_search_depth_limit_incomplete(capsys):
    code, out, _ = run(
        capsys, "search", "--n", "4", "--reversal", "--depth-limit", "5"
    )
    assert code == 0
    assert "distance > 5" in out


def test_search_rejects_negative_depth_limit(capsys):
    code, out, err = run(
        capsys, "search", "--n", "4", "--reversal", "--depth-limit", "-3"
    )
    assert code == 2
    assert "error:" in err and "distance" not in out


def test_search_n8_witness(capsys, tmp_path):
    # at n = 8 entry (8, 8) packs to bit 63 of the state code
    witness = tmp_path / "w.circuit"
    code, out, err = run(
        capsys, "search", "--n", "8", "--reversal", "--depth-limit", "1",
        "--witness", str(witness),
    )
    assert code == 0, err
    assert "distance > 1" in out
    target_circuit = from_gate_tokens(8, ["d7", "u1", "d3"])
    target = write_matrix(tmp_path, "t.matrix", matrix_of(target_circuit))
    code, out, err = run(
        capsys, "search", "--n", "8", "--target", target, "--depth-limit", "1",
        "--witness", str(witness),
    )
    assert code == 0, err
    assert "distance = 1" in out
    found = parse_circuit_text(witness.read_text(encoding="ascii"))
    assert found.depth == 1
    assert matrix_of(found) == matrix_of(target_circuit)


def test_search_refused_past_state_limit_exits_three(capsys, monkeypatch):
    from cnotline import search

    monkeypatch.setattr(search, "SORTED_LIMIT", 1000)
    code, out, err = run(
        capsys, "search", "--n", "6", "--reversal", "--depth-limit", "4"
    )
    assert code == 3
    assert err == (
        "error: level 3 of the n=6 search would hold more than 1000 "
        "states at once; lower the depth limit\n"
    )
    assert out == ""


def test_synth_refuses_past_gate_limit_exits_three(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "synth", "--op", "add", "--n", "100000000")
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert out == ""
    assert err == (
        "error: synth --op add would build 399999993 gates, more than the "
        "limit of 1048576\n"
    )
    # gather's size comes from its window arithmetic, also before building
    start = time.perf_counter()
    code, out, err = run(
        capsys, "synth", "--op", "gather", "--n", "1000000", "--positions", "1,1000000"
    )
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert out == ""
    assert err == (
        "error: synth --op gather would build 2999994 gates, more than the "
        "limit of 1048576\n"
    )


@pytest.mark.parametrize(
    "fits,refused,gates",
    [
        (["add", "--n", "9"], ["add", "--n", "10"], 29),
        (["swap", "--n", "9"], ["swap", "--n", "10"], 45),
        (["rotate", "--n", "9"], ["rotate", "--n", "10"], 30),
        (["reverse", "--n", "9"], ["reverse", "--n", "10"], 80),
        (["permute", "--perm", "3 2 1"], ["permute", "--perm", "4 3 2 1"], 9),
        (
            ["gather", "--n", "9", "--positions", "1,9"],
            ["gather", "--n", "10", "--positions", "1,10"],
            21,
        ),
    ],
    ids=["add", "swap", "rotate", "reverse", "permute", "gather"],
)
def test_synth_gate_limit_boundary(capsys, monkeypatch, fits, refused, gates):
    from cnotline import cli

    # a limit equal to the closed-form size builds, one size up is refused
    monkeypatch.setattr(cli, "SYNTH_GATE_LIMIT", gates)
    code, _, err = run(capsys, "synth", "--op", *fits)
    assert code == 0 and f" size={gates} " in err
    code, out, err = run(capsys, "synth", "--op", *refused)
    assert code == 3 and out == ""
    assert err.endswith(f"gates, more than the limit of {gates}\n")


def test_synth_rotate_two_wires_budgets_the_swap(capsys, monkeypatch):
    from cnotline import cli

    # n = 2 builds the 3-gate swap, not 4n - 6 = 2 gates
    monkeypatch.setattr(cli, "SYNTH_GATE_LIMIT", 2)
    code, out, err = run(capsys, "synth", "--op", "rotate", "--n", "2")
    assert code == 3 and out == ""
    assert err == (
        "error: synth --op rotate would build 3 gates, more than the limit of 2\n"
    )
    monkeypatch.setattr(cli, "SYNTH_GATE_LIMIT", 3)
    code, _, err = run(capsys, "synth", "--op", "rotate", "--n", "2")
    assert code == 0 and " size=3 " in err


def test_synth_refuses_past_cell_limit_exits_three(capsys):
    # within the gate limit, but 20003 slices of 20000-bit masks
    start = time.perf_counter()
    code, out, err = run(capsys, "synth", "--op", "add", "--n", "20000")
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == ""
    assert err == (
        "error: synth --op add would build 20003 slices on 20000 wires, more "
        "than the limit of 268435456 slice-wire cells\n"
    )
    # a bad wire count stays an input error
    code, _, err = run(capsys, "synth", "--op", "add", "--n", "-100000")
    assert code == 2 and "need at least 2 wires" in err


@pytest.mark.parametrize(
    "argv,got",
    [
        (["add", "--n", "-5000"], -5000),
        (["swap", "--n", "1"], 1),
        (["rotate", "--n", "0"], 0),
        (["reverse", "--n", "-5000"], -5000),
        (["gather", "--n", "-5000", "--positions", "1,2"], -5000),
        (["permute", "--perm", "1"], 1),
    ],
    ids=["add", "swap", "rotate", "reverse", "gather", "permute"],
)
def test_synth_bad_wire_count_exits_two(capsys, argv, got):
    # checked before any size formula is budgeted: reverse at n = -5000
    # would otherwise count n^2 - 1 gates and be refused with exit 3
    code, out, err = run(capsys, "synth", "--op", *argv)
    assert code == 2 and out == ""
    assert err == f"error: need at least 2 wires, got {got}\n"


@pytest.mark.parametrize(
    "argv,cells",
    [
        (["add", "--n", "9"], 13 * 9),
        (["swap", "--n", "9"], 17 * 9),
        (["rotate", "--n", "9"], 14 * 9),
        (["rotate", "--n", "2"], 3 * 2),
        (["reverse", "--n", "9"], 20 * 9),
        (["permute", "--perm", "3 2 1"], 9 * 3),
        (["gather", "--n", "9", "--positions", "1,9"], 13 * 9),
    ],
    ids=["add", "swap", "rotate", "rotate-2", "reverse", "permute", "gather"],
)
def test_synth_cell_limit_boundary(capsys, monkeypatch, argv, cells):
    from cnotline import cli

    # the depth bound times n may equal the limit, but not pass it
    monkeypatch.setattr(cli, "SYNTH_CELL_LIMIT", cells)
    code, _, err = run(capsys, "synth", "--op", *argv)
    assert code == 0
    monkeypatch.setattr(cli, "SYNTH_CELL_LIMIT", cells - 1)
    code, out, err = run(capsys, "synth", "--op", *argv)
    assert code == 3 and out == ""
    assert err.endswith(f"more than the limit of {cells - 1} slice-wire cells\n")


def _synth_notes(capsys, *argv):
    """Built (depth, size), then the noted size and depth bound."""
    code, _, err = run(capsys, "synth", "--op", *argv)
    assert code == 0
    built, note = err.splitlines()
    depth, size = (int(f.split("=")[1]) for f in built.split()[:2])
    formula, bound = note.split(", ")
    return depth, size, int(formula.split(" = ")[1]), int(bound.split()[-1])


@pytest.mark.parametrize("op", ["add", "swap", "rotate", "reverse"])
def test_synth_formula_notes_match_circuits(capsys, op):
    for n in range(2, 41):
        depth, size, noted_size, bound = _synth_notes(capsys, op, "--n", str(n))
        assert size == noted_size
        assert depth == bound if op == "reverse" else depth <= bound


def test_synth_permute_formula_notes_match_circuits(capsys):
    rng = random.Random(20)
    for n in range(2, 41):
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        depth, size, noted_size, bound = _synth_notes(
            capsys, "permute", "--perm", " ".join(map(str, perm))
        )
        assert size == noted_size
        assert depth <= bound


def test_search_max_mode(capsys):
    code, out, _ = run(capsys, "search", "--n", "3", "--max")
    assert code == 0
    assert "max_depth = 8" in out
    assert "visited_count = 168" in out
    # SHA-256 of the n = 5 stdout, generated before the dense engine
    # sorted its levels and expanded them in chunks
    code, out, _ = run(capsys, "search", "--n", "5", "--max")
    assert code == 0
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == (
        "82f51d39cd7fe7aaaa7c6f221426a1547beb2c69e01eff5ed6eda0909e6a8058"
    )


def test_search_max_refuses_huge(capsys):
    code, _, err = run(capsys, "search", "--n", "6", "--max")
    assert code == 3
    assert "GL_6(2)" in err


def test_search_max_rejects_distance_flags(capsys):
    code, _, err = run(capsys, "search", "--n", "3", "--max", "--depth-limit", "2")
    assert code == 2
    assert "error:" in err


def test_search_target_dimension_mismatch(capsys, tmp_path):
    target = write_matrix(tmp_path, "t.matrix", BitMatrix.identity(4))
    code, _, err = run(capsys, "search", "--n", "3", "--target", target)
    assert code == 2
    assert "error:" in err


def test_usage_errors_exit_two():
    with pytest.raises(SystemExit) as info:
        main(["synth"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["no-such-command"])
    assert info.value.code == 2
