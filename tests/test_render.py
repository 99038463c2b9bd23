"""ASCII rendering: golden outputs and structural properties."""

import hashlib
import random
import time

import pytest
from hypothesis import given, settings

from cnotline import (
    Circuit,
    add_circuit,
    gather_circuit,
    permutation_circuit,
    render_circuit,
    synthesize,
    up,
)
from cnotline import render
from cnotline.constructions import FAMILIES
from conftest import (
    circuit_of,
    oracle_render,
    random_invertible,
    raw_circuits,
    schedule_tokens,
    slice_of,
)


def test_empty_circuit_renders_bare_wires():
    assert render_circuit(Circuit(3, ())) == " 1 -\n\n 2 -\n\n 3 -\n"


def test_single_gate_golden():
    # '+' marks the target, '*' the source, '|' the link between them
    assert render_circuit(schedule_tokens(2, ["u1"])) == (
        " 1 -+---\n"
        "    |\n"
        " 2 -*---\n"
    )


def test_multi_slice_golden():
    got = render_circuit(schedule_tokens(4, ["u1", "d3", "d1", "u2"]))
    assert got == (
        " 1 -+---*-------\n"
        "    |   |\n"
        " 2 -*---+---+---\n"
        "            |\n"
        " 3 -*-------*---\n"
        "    |\n"
        " 4 -+-----------\n"
    )


def test_render_is_deterministic():
    c = add_circuit(7)
    assert render_circuit(c) == render_circuit(c)


def test_render_add10_shape():
    c = add_circuit(10)
    text = render_circuit(c)
    lines = text.splitlines()
    assert len(lines) == 2 * 10 - 1
    wire_rows = lines[::2]
    # margin '10 -' is 4 chars, then 4 chars per slice
    assert all(len(row) <= 4 + 4 * c.depth for row in wire_rows)
    assert max(len(row) for row in wire_rows) == 4 + 4 * c.depth
    assert text.count("*") == c.size and text.count("+") == c.size


def test_wide_wire_numbers_align():
    text = render_circuit(Circuit(12, ()))
    lines = text.splitlines()
    assert lines[0] == " 1 -"
    assert lines[-1] == "12 -"


PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)


@PROPERTY
@given(raw_circuits(shared_positions=True))
def test_render_matches_list_oracle(raw):
    # slices may share wires; a wire both read and written shows *
    n, slices = raw
    c = circuit_of(n, [slice_of(gates) for gates in slices])
    assert render_circuit(c) == oracle_render(n, slices)


def test_render_oracle_agrees_on_a_shared_wire():
    c = circuit_of(3, [slice_of([up(1), up(2)])])
    assert render_circuit(c) == oracle_render(3, [[up(1), up(2)]]) == (
        " 1 -+---\n"
        "    |\n"
        " 2 -*---\n"
        "    |\n"
        " 3 -*---\n"
    )


# SHA-256 of render_circuit at n = 2..40, concatenated, generated while
# render shifted whole slice masks for every cell
PINNED_FAMILY_RENDER = {
    "add": "91002847ef8a79cf07f7d8105f3898e3cae5959a489a89a47f5f21e25136c857",
    "swap": "8c7be93804ede9b16a3cbb818f1c09641af51c01c2be8cc7547dff25cd64e800",
    "rotate": "cd1343f218e39e3fcc24bdc4e12f66f83cc11e0f636dce94822cbc8553eaea9f",
    "reverse": "5406508d6cf69f5b5eecaa045b3ab1006e6f6c60b1be56c122c824d7fc4f25c8",
}


@pytest.mark.parametrize("chunk_bytes", [render._CHUNK_BYTES, 1])
@pytest.mark.parametrize("name", sorted(PINNED_FAMILY_RENDER))
def test_family_render_is_pinned(name, chunk_bytes, monkeypatch):
    # a chunk of 1 byte draws 8 wires at a time, so the rows of up to 5
    # chunks must join seamlessly
    monkeypatch.setattr(render, "_CHUNK_BYTES", chunk_bytes)
    build = FAMILIES[name][0]
    digest = hashlib.sha256()
    for n in range(2, 41):
        digest.update(render_circuit(build(n)).encode("ascii"))
    assert digest.hexdigest() == PINNED_FAMILY_RENDER[name]


def test_seeded_render_is_pinned():
    # synthesize, permutation_circuit and gather_circuit on inputs drawn
    # from random.Random(15), generated with the family pins above
    rng = random.Random(15)
    digest = hashlib.sha256()
    for _ in range(4):
        n = rng.randint(2, 24)
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        positions = sorted(rng.sample(range(1, n + 1), rng.randint(2, n)))
        for c in (
            synthesize(random_invertible(n, rng)),
            permutation_circuit(perm),
            gather_circuit(n, positions)[0],
        ):
            digest.update(render_circuit(c).encode("ascii"))
    assert digest.hexdigest() == (
        "86f0d8ee78ee0c74282e2256e4f23bb2ee77f180b6b0f9021e80b78c38c1c787"
    )


def test_render_time_is_linear_in_cells():
    # 2048 wires by 2051 slices, about 29 MB of text, in about 0.1 s on a
    # 2-vCPU Xeon; shifting whole slice masks for every cell takes about 3 s
    # there, so the bound catches a drawing that is not linear in its cells
    c = add_circuit(2048)
    start = time.perf_counter()
    text = render_circuit(c)
    assert time.perf_counter() - start < 1.5
    assert text.count("*") == c.size
