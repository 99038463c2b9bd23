"""Plain-text circuit diagrams.

Wires run left to right, one row per wire, with slices as columns.  A
gate shows * on its source wire, + on its target wire, and | on the
connector row between them.
"""

from __future__ import annotations

from .circuit import Circuit

_CELL = 4  # columns per slice; the gate symbol sits at offset 1


def render_circuit(circuit: Circuit) -> str:
    n = circuit.n
    margin = max(2, len(str(n)))
    wire_rows = []
    link_rows = []
    for w in range(1, n + 1):
        row = [f"{w:>{margin}} "]
        for sl in circuit.slices:
            # wire w is the source of up(w - 1) and down(w)
            source = (sl.up >> (w - 1) | sl.down >> w) & 1
            target = (sl.up >> w | sl.down >> (w - 1)) & 1
            row.append("-*--" if source else "-+--" if target else "----")
        row.append("-")
        wire_rows.append("".join(row))
        if w < n:
            link = [" " * (margin + 1)]
            for sl in circuit.slices:
                link.append(" |  " if (sl.up | sl.down) >> w & 1 else "    ")
            link_rows.append("".join(link).rstrip())
    out = []
    for w in range(n):
        out.append(wire_rows[w])
        if w < n - 1:
            out.append(link_rows[w])
    return "\n".join(out) + "\n"
