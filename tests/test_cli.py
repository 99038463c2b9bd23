"""End-to-end command-line tests driven through main(argv)."""

import hashlib
import random
import time
import tracemalloc

import pytest

from cnotline import (
    BitMatrix,
    add_circuit,
    circuit_to_text,
    matrix_of,
    matrix_to_text,
    parse_circuit_text,
    permutation_circuit,
    reverse_circuit,
    synthesize,
)
from cnotline import ResourceLimitError, cli
from cnotline import circuit as circuit_mod
from cnotline.cli import main
from cnotline.constructions import FAMILIES
from conftest import random_invertible, schedule_tokens, slice_violations


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
    assert not slice_violations(circuit)
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


def test_synth_checks_a_permutation_before_its_gate_budget(capsys):
    # 3000, 2999, ..., 1001 has 1999000 inversions, past SYNTH_GATE_LIMIT
    # if it were a permutation, so the budget must not be asked first
    perm = " ".join(str(v) for v in range(3000, 1000, -1))
    code, out, err = run(capsys, "synth", "--op", "permute", "--perm", perm)
    assert (code, out) == (2, "")
    assert err.startswith("error: (3000, 2999, ") and len(err) < 200
    assert err.endswith(" is not a permutation of 1..2000\n")
    assert err.count("\n") == 1


def test_synth_matrix_rejects_singular(capsys, tmp_path):
    target = write_matrix(tmp_path, "t.matrix", BitMatrix(3, (1, 1, 4)))
    code, _, err = run(capsys, "synth", "--op", "matrix", "--matrix", target)
    assert code == 2
    assert "error:" in err


def test_synth_matrix_round_trips_through_verify(capsys, tmp_path, rng):
    from conftest import random_invertible, schedule_tokens

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
    """(circuit, target) for one of the cases in PINNED_REPORTS; no circuit has 1 wire."""
    if name == "id1":
        return None, BitMatrix.identity(1)
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


# SHA-256 of the stdout of `verify`, of `bounds --machine` and of `bounds`.
# A changed hash means the printed crossings, cut bounds or aggregates moved.
PINNED_REPORTS = {
    "random128": (
        "e0ea1fa841eecea12139edc6be8513e7366d4563acb0dd7624ce28b911727321",
        "6688e5d931c10600480224096f62f9ddf01fa6efb30470ecc1116cddbc1c48b1",
        "bbede0c92f9843f9f286f250ed943edd5629aa15b31c8435560802baecf6d1f1",
    ),
    "perm256": (
        "490421c12a022e9ba60c2f7ce04525e7f06c122a4036fe7a0b939a4467b15201",
        "864d734149dc7a8e31eb78743cd2860ed4ddf9ea1b35e2bb46035e081d8dfd1f",
        "e57882f8d975a7cb5c04920c5bf678b27dfb55c822ac49b35953fdd4b4a834c5",
    ),
    "anti9": (
        "2780e3d456abac8941032cb8c1f9723b57e85e1f3e77aaf28a6154f18318f50c",
        "03e2756e391760d9906544548037ecc240fc4fc86500531d6631bcea8b225d98",
        "d492e42b3e4dcbb2af2277f2958413e1baa2b09a5c9155897a3bda4eed92c409",
    ),
    # no cuts: the human per-cut line holds no numbers and ends in padding
    "id1": (
        None,
        "8124b828bbd237157c5ce9c779318cec4395d1af715ad530f4e09a7d2eb6e6f2",
        "7b2791eccb7534b5cddb128d4a85868515f296f548f5012ee2da8a1361a4a9b3",
    ),
}


def _stdout_digest(capsys, *argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    return hashlib.sha256(out.encode("ascii")).hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED_REPORTS))
def test_verify_and_bounds_output_is_pinned(capsys, tmp_path, name):
    c, m = _pinned_case(name)
    target = write_matrix(tmp_path, "t.matrix", m)
    verify = None if c is None else _stdout_digest(
        capsys, "verify", "--circuit", write_circuit(tmp_path, "c.circuit", c), "--target", target
    )
    got = (
        verify,
        _stdout_digest(capsys, "bounds", "--target", target, "--machine"),
        _stdout_digest(capsys, "bounds", "--target", target),
    )
    assert got == PINNED_REPORTS[name]


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


def test_search_n4_reversal_witness_is_pinned(capsys, tmp_path):
    # SHA-256 of the witness file, generated while a gate was still a
    # Gate object and slice_generators built slices from gate tuples
    witness = tmp_path / "w.circuit"
    code, _, _ = run(capsys, "search", "--n", "4", "--reversal", "--witness", str(witness))
    assert code == 0
    assert hashlib.sha256(witness.read_bytes()).hexdigest() == (
        "30043e76b891300df1de368bf6df9c6c7f6e5943a1a37728f83e2114046270f9"
    )


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


@pytest.mark.parametrize("n", [1, 9, 100000])
def test_search_unsupported_n_exits_two(capsys, n):
    # checked before the n x n reversal is built or any budget is counted
    start = time.perf_counter()
    code, out, err = run(capsys, "search", "--n", str(n), "--reversal")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err == f"error: supported wire counts are 2..8, got {n}\n"


def test_search_unlimited_n7_exits_three(capsys):
    code, out, err = run(capsys, "search", "--n", "7", "--reversal")
    assert code == 3 and out == ""
    assert "pass a depth limit" in err


def test_search_n8_witness(capsys, tmp_path):
    # at n = 8 entry (8, 8) packs to bit 63 of the state code
    witness = tmp_path / "w.circuit"
    code, out, err = run(
        capsys, "search", "--n", "8", "--reversal", "--depth-limit", "1",
        "--witness", str(witness),
    )
    assert code == 0, err
    assert "distance > 1" in out
    target_circuit = schedule_tokens(8, ["d7", "u1", "d3"])
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


@pytest.mark.parametrize("exc", [
    MemoryError(),
    MemoryError("Unable to allocate 372. MiB for an array with shape (48758784,) "
                "and data type uint64"),
])
def test_search_out_of_memory_exits_three(capsys, monkeypatch, exc):
    # a machine too small for a depth-7 n = 6 search: one error line, no traceback
    def refuse(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "distance", refuse)
    code, out, err = run(capsys, "search", "--n", "6", "--reversal", "--depth-limit", "7")
    assert (code, out) == (3, "")
    want = f"error: out of memory: {exc}" if str(exc) else "error: out of memory"
    assert err == want + "\n"


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
    # the depth bound times n may equal the limit, but not pass it
    monkeypatch.setattr(circuit_mod, "CELL_LIMIT", cells)
    code, _, err = run(capsys, "synth", "--op", *argv)
    assert code == 0
    monkeypatch.setattr(circuit_mod, "CELL_LIMIT", cells - 1)
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


@pytest.mark.parametrize("op", FAMILIES)
def test_synth_formula_notes_match_circuits(capsys, op):
    exact_depth = FAMILIES[op][2]
    for n in range(2, 41):
        depth, size, noted_size, bound = _synth_notes(capsys, op, "--n", str(n))
        assert size == noted_size
        assert depth == bound if exact_depth else depth <= bound


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


# SHA-256 over every n x n matrix, singular ones included, of each run's
# exit code, stdout and stderr, generated before BitVector was removed;
# they pin the order of the singularity and wire-count checks at n = 1
SMALL_MATRIX_DIGESTS = {
    ("synth", 1): "0f01c702c90e7f7a8e410b0bed38c07f97ec3e943a5380152617993e1fa4d426",
    ("synth", 2): "c82b4395c6ef44034aa93854011e1a1239fadcfba8d26b1ff48e705eeefa9537",
    ("synth", 3): "c4dce23f96a4c425a7cb2e19176d4ad799d091411522bda83be707f3d9bcf200",
    ("bounds", 1): "59b708da37311ad337ec4d7d9b1e450620ed98e0d16708055cd61f702bd73983",
    ("bounds", 2): "8b2218bd27d7a9a064cab6ab74653a6b3322d965a3e43210e58da1818c8c6dd7",
    ("bounds", 3): "f4873bf58829624976ba5436738007a33422b9797ccbdfe0cb5c4cf9dd056d67",
}


@pytest.mark.parametrize("command,n", SMALL_MATRIX_DIGESTS)
def test_smallest_matrices_pinned(capsys, tmp_path, command, n):
    path = str(tmp_path / "m.matrix")
    argv = {
        "synth": ["synth", "--op", "matrix", "--matrix", path],
        "bounds": ["bounds", "--machine", "--target", path],
    }[command]
    digest = hashlib.sha256()
    for code in range(1 << (n * n)):
        m = BitMatrix(n, tuple(code >> (j * n) & ((1 << n) - 1) for j in range(n)))
        write_matrix(tmp_path, "m.matrix", m)
        status, out, err = run(capsys, *argv)
        digest.update(f"{status}\n{out}\x00{err}\x00".encode("ascii"))
    assert digest.hexdigest() == SMALL_MATRIX_DIGESTS[command, n]


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


def _verify_and_render(capsys, tmp_path, text):
    """verify and render results on a circuit text, with their seconds and
    tracemalloc peak."""
    circuit = tmp_path / "c.circuit"
    circuit.write_text(text, encoding="ascii")
    target = write_matrix(tmp_path, "t.matrix", BitMatrix.identity(2))
    start = time.perf_counter()
    tracemalloc.start()
    try:
        verify = run(capsys, "verify", "--circuit", str(circuit), "--target", target)
        render = run(capsys, "render", "--circuit", str(circuit))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return verify, render, time.perf_counter() - start, peak


@pytest.mark.parametrize("wires", [10**9, 10**12])
def test_huge_circuit_header_fails_cleanly(capsys, tmp_path, wires):
    # parsing takes memory from the gates, not from the header's wire count
    verify, render, seconds, peak = _verify_and_render(
        capsys, tmp_path, f"n {wires}\nu1 d3\n"
    )
    assert seconds < 1.0
    assert peak < 1 << 20
    assert verify == (2, "", f"error: circuit has {wires} wires but target is 2x2\n")
    assert render == (
        3,
        "",
        f"error: render would draw 1 slices on {wires} wires, more than the "
        f"limit of {cli.RENDER_CELL_LIMIT} slice-wire cells\n",
    )


@pytest.mark.parametrize(
    "body",
    ["u10000000\nd10000000\n" * 20, "u10000000000\n"],
    ids=["40-lines", "one-gate"],
)
def test_far_gate_positions_refused_cleanly(capsys, tmp_path, body):
    # parsing refuses before a mask reaches a far position: lines times
    # (position + 1) would pass the cell limit
    verify, render, seconds, peak = _verify_and_render(
        capsys, tmp_path, "n 1000000000000\n" + body
    )
    assert seconds < 1.0
    assert peak < 2 << 20
    for code, out, err in (verify, render):
        assert code == 3 and out == ""
        assert err.startswith("error: line 2: gate u1000000") and err.count("\n") == 1
        assert err.endswith(f"limit of {circuit_mod.CELL_LIMIT} slice-wire cells\n")


@pytest.mark.parametrize(
    "text,message",
    [
        # long input is quoted by its first 80 characters and its length
        ("n 3\nu" + "7" * 5000 + "\n",
         "line 2: gate u" + "7" * 79 + "... (5001 characters) does not fit on 3 wires"),
        ("n " + "7" * 5000 + "\nu1\n",
         "bad header 'n " + "7" * 77 + "... (5004 characters), expected 'n <wires>'"),
        ("n 3\nu1\nx1\n", "line 3: bad gate token 'x1'"),
    ],
    ids=["long-token", "long-header", "bad-token"],
)
def test_bad_input_names_its_line(capsys, tmp_path, text, message):
    verify, render, _, _ = _verify_and_render(capsys, tmp_path, text)
    for code, out, err in (verify, render):
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert "set_int_max_str_digits" not in err and len(err) < 200


@pytest.mark.parametrize(
    "argv,files,start",
    [
        (["synth", "--op", "permute", "--perm", " ".join(f"x{i}" for i in range(3000))],
         {}, "error: --perm must be a list of integers, got 'x0 x1 x2"),
        (["synth", "--op", "permute", "--perm", " ".join(["1"] * 3000)],
         {}, "error: (1, 1, 1,"),
        (["synth", "--op", "gather", "--n", "9", "--positions", "7" * 5000],
         {}, "error: --positions must be a list of integers, got '777"),
        (["bounds", "--target", "t.matrix"],
         {"t.matrix": "7" * 5000 + "\n1\n"}, "error: bad dimension header '777"),
        (["bounds", "--target", "t.matrix"],
         {"t.matrix": "300\n" + "1" * 299 + "x\n" + ("0" * 300 + "\n") * 299},
         "error: row 1 is not 300 characters of 0/1: '111"),
        (["render", "--circuit", "c.circuit"],
         {"c.circuit": "n 3\nu1\n" + "x" * 5000 + "\n"}, "error: line 3: bad gate token 'xxx"),
    ],
    ids=["perm-tokens", "perm-repeats", "positions", "matrix-header", "matrix-row",
         "circuit-token"],
)
def test_long_bad_input_is_clipped_in_its_error(capsys, tmp_path, argv, files, start):
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="ascii")
    argv = [str(tmp_path / a) if a in files else a for a in argv]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(start) and err.count("\n") == 1 and len(err) < 200
    assert " characters)" in err and "set_int_max_str_digits" not in err


def test_parse_cell_limit_boundary(monkeypatch):
    # 20 slice lines times (top position 8 + 1) may equal the limit, but
    # not pass it
    text = circuit_to_text(reverse_circuit(9))
    monkeypatch.setattr(circuit_mod, "CELL_LIMIT", 20 * 9)
    assert parse_circuit_text(text) == reverse_circuit(9)
    monkeypatch.setattr(circuit_mod, "CELL_LIMIT", 20 * 9 - 1)
    with pytest.raises(ResourceLimitError, match=f"limit of {20 * 9 - 1} slice-wire"):
        parse_circuit_text(text)


def test_largest_add_synth_accepts_still_parses(capsys):
    # (n + 4) * n passes the cell limit from n = 16383 on
    assert run(capsys, "synth", "--op", "add", "--n", "16383")[0] == 3
    code, out, err = run(capsys, "synth", "--op", "add", "--n", "16382")
    assert code == 0
    c = parse_circuit_text(out)
    assert f"depth={c.depth} size={c.size} " in err and c.size == 4 * 16382 - 7


def test_render_cell_limit_boundary(capsys, monkeypatch, tmp_path):
    # 9 wires times (20 slices + 1) may equal the limit, but not pass it
    circuit = write_circuit(tmp_path, "c.circuit", reverse_circuit(9))
    monkeypatch.setattr(cli, "RENDER_CELL_LIMIT", 9 * 21)
    code, out, _ = run(capsys, "render", "--circuit", circuit)
    assert code == 0 and out.count("\n") == 17
    monkeypatch.setattr(cli, "RENDER_CELL_LIMIT", 9 * 21 - 1)
    code, out, err = run(capsys, "render", "--circuit", circuit)
    assert code == 3 and out == ""
    assert err.endswith(f"more than the limit of {9 * 21 - 1} slice-wire cells\n")


def test_synth_matrix_cell_limit_boundary(capsys, monkeypatch, tmp_path):
    # 8 wires times the 5n = 40 slice depth bound may equal the limit, but
    # not pass it; no gate limit applies
    target = write_matrix(tmp_path, "t.matrix", BitMatrix.anti_identity(8))
    monkeypatch.setattr(circuit_mod, "CELL_LIMIT", 5 * 8 * 8)
    monkeypatch.setattr(cli, "SYNTH_GATE_LIMIT", 1)
    code, out, _ = run(capsys, "synth", "--op", "matrix", "--matrix", target)
    assert code == 0 and matrix_of(parse_circuit_text(out)) == BitMatrix.anti_identity(8)
    monkeypatch.setattr(circuit_mod, "CELL_LIMIT", 5 * 8 * 8 - 1)
    code, out, err = run(capsys, "synth", "--op", "matrix", "--matrix", target)
    assert (code, out) == (3, "")
    assert err == (
        "error: synth --op matrix would build 40 slices on 8 wires, more than "
        f"the limit of {5 * 8 * 8 - 1} slice-wire cells\n"
    )


def test_search_target_dimension_mismatch(capsys, tmp_path):
    target = write_matrix(tmp_path, "t.matrix", BitMatrix.identity(4))
    code, _, err = run(capsys, "search", "--n", "3", "--target", target)
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize(
    "argv,files,message",
    [
        (["synth", "--op", "add"], {}, "--n is required for op add"),
        (["synth", "--op", "permute"], {}, "--perm is required for op permute"),
        (["synth", "--op", "permute", "--perm", "2 1", "--n", "3"], {},
         "--n 3 does not match permutation length 2"),
        (["synth", "--op", "matrix"], {}, "--matrix is required for op matrix"),
        (["synth", "--op", "matrix", "--matrix", "t.matrix", "--n", "3"],
         {"t.matrix": "2\n10\n01\n"}, "--n 3 does not match matrix dimension 2"),
        (["synth", "--op", "gather", "--n", "9"], {}, "--positions is required for op gather"),
        (["search", "--n", "3", "--max", "--witness", "w.circuit"], {},
         "--witness applies only to distance searches"),
        (["verify", "--circuit", "c.circuit", "--target", "t.matrix"],
         {"c.circuit": "n 2\nu1\n", "t.matrix": "0\n"}, "dimension must be positive, got 0"),
        (["verify", "--circuit", "c.circuit", "--target", "t.matrix"],
         {"c.circuit": "n 2\nu1\n", "t.matrix": "-1\n"}, "dimension must be positive, got -1"),
    ],
    ids=["add-no-n", "permute-no-perm", "permute-n", "matrix-no-matrix", "matrix-n",
         "gather-no-positions", "max-witness", "verify-zero-matrix", "verify-negative-matrix"],
)
def test_missing_or_mismatched_input_exits_two(capsys, tmp_path, argv, files, message):
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="ascii")
    argv = [str(tmp_path / a) if a.endswith((".circuit", ".matrix")) else a for a in argv]
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")
    assert not (tmp_path / "w.circuit").exists()


def test_usage_errors_exit_two():
    with pytest.raises(SystemExit) as info:
        main(["synth"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["no-such-command"])
    assert info.value.code == 2
