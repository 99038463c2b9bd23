"""ASCII rendering: golden outputs and structural properties."""

from cnotline import Circuit, add_circuit, render_circuit
from conftest import schedule_tokens


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
