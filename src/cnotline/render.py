"""Plain-text circuit diagrams.

Wires run left to right, one row per wire, with slices as columns of
four characters.  A gate shows * on its source wire (also where another
gate of the slice targets it), + on its target wire, and | on the
connector row between them, each at offset 1 of its slice's columns.
"""

from __future__ import annotations

__all__ = ["render_circuit"]

import numpy as np

from .circuit import Circuit, _mask_planes

_GLYPHS = np.frombuffer(b"-+**", np.uint8)  # a wire's symbol by 2 * source + target
_CHUNK_BYTES = 1 << 22  # drawing bytes built at once, a chunk of wires at a time


def render_circuit(circuit: Circuit) -> str:
    n, depth = circuit.n, circuit.depth
    margin = max(2, len(str(n)))
    planes = np.concatenate(list(_mask_planes(circuit)), axis=1)  # bytes through bit n
    step = max(1, _CHUNK_BYTES // (64 * (depth + 1)))  # mask bytes of wires per chunk
    rows: list[str] = []
    for c in range(0, (n + 7) // 8, step):
        # wire w = 8c + i + 1 is the source of up(w - 1) and down(w), bits i
        # and i + 1 of this chunk's planes, and the target of the other two
        count = min(8 * step, n - 8 * c)
        ups, downs = np.unpackbits(planes[:, :, c:], axis=2, count=count + 1, bitorder="little")
        source = ups[:, :count] | downs[:, 1:count + 1]
        target = ups[:, 1:count + 1] | downs[:, :count]
        crossed = (ups | downs)[:, 1:count + 1]
        lines = np.full((count, 2, margin + 4 * depth + 2), ord(" "), np.uint8)  # wire, link
        for j in range(margin):  # the wire number, right-aligned
            digits = np.arange(8 * c + 1, 8 * c + count + 1) // 10 ** j
            lines[:, 0, margin - 1 - j] = np.where(digits, ord("0") + digits % 10, ord(" "))
        lines[:, 0, margin + 1:] = ord("-")
        lines[:, 0, margin + 2:-1:4] = _GLYPHS[(source << 1 | target).T]
        lines[:, 1, margin + 2:-1:4] = np.where(crossed.T, ord("|"), ord(" "))
        del ups, downs, source, target, crossed  # a chunk of a deep circuit is large
        rows += [str(row, "ascii").rstrip() for row in lines.reshape(-1, lines.shape[2])]
    return "\n".join(rows)  # wire n's connector row is blank: the text ends in a newline
