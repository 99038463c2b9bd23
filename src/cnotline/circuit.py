"""Adjacent-wire CNOT circuits on a line of n wires.

A gate (t <- s) xors the value of wire s into wire t, with s and t
adjacent.  A time slice is a set of gates touching pairwise disjoint
wires; a circuit is an ordered sequence of slices.  Simulation tracks
the matrix whose column j expresses the current value of wire j as a
combination of the initial wire values, so running gates multiplies on
the right by elementary matrices.

A gate is the int 2p + d: up(p) = (p <- p + 1) is 2p and down(p) =
(p + 1 <- p) is 2p + 1, so codes sort by position, up(p) first.  A slice
holds two masks, bit p of up for up(p) and bit p of down for down(p).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from .f2 import BitMatrix, clip

# Slice-wire cells a circuit may take: synth refuses a family whose depth
# bound times n passes it, and parsing a gate whose position times the
# file's line count does.
CELL_LIMIT = 1 << 28


class ResourceLimitError(RuntimeError):
    """Raised when a command would exceed its declared memory budget."""


def up(position: int) -> int:
    """Code of gate up(p): wire p + 1 added into wire p."""
    return 2 * position


def down(position: int) -> int:
    """Code of gate down(p): wire p added into wire p + 1."""
    return 2 * position + 1


def gate_token(g: int) -> str:
    """Text token of gate code g: u<p> for up(p), d<p> for down(p)."""
    return f"{'ud'[g & 1]}{g >> 1}"


def parse_gate_token(token: str) -> int:
    # leading zeros go before int() sees the digits; a position of 0 leaves none
    kind, digits = token[:1], token[1:].lstrip("0")
    if kind in ("u", "d") and digits.isdecimal():
        try:
            return 2 * int(digits) + (kind == "d")
        except ValueError:  # a position past the interpreter's digit limit
            pass
    raise ValueError(f"bad gate token {clip(repr(token))}")


@dataclass(frozen=True)
class TimeSlice:
    """Gates acting at once: bit p of up for up(p), of down for down(p)."""

    up: int = 0
    down: int = 0


@dataclass(frozen=True)
class Circuit:
    """Ordered time slices on n wires.

    The constructor is permissive: it checks only that gate wires fit on
    the line, not that slices are nonempty and wire-disjoint.
    """

    n: int
    slices: tuple[TimeSlice, ...] = ()

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"need at least 2 wires, got {self.n}")
        n = self.n
        for sl in self.slices:
            # gate p needs wires p and p + 1; a negative mask sets all high bits
            w = sl.up | sl.down
            if w & 1 or (off := w >> n):  # name the lowest gate off the line
                p = 0 if w & 1 else n - 1 + (off & -off).bit_length()
                g = 2 * p + 1 - (sl.up >> p & 1)
                raise ValueError(f"gate {gate_token(g)} does not fit on {n} wires")

    @property
    def depth(self) -> int:
        return len(self.slices)

    @property
    def size(self) -> int:
        return sum(sl.up.bit_count() + sl.down.bit_count() for sl in self.slices)

    @cached_property
    def _gate_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Slice index, position and direction (1 for down) of every gate, in
        slice and gate code order, unpacking only mask bytes with a gate.
        Built once per circuit: verify's crossings and simulation share it."""
        width = (self.n + 7) // 8
        masks = b"".join(
            m.to_bytes(width, "little") for sl in self.slices for m in (sl.up, sl.down)
        )
        raw = np.frombuffer(masks, dtype=np.uint8).reshape(-1, 2, width)
        ups, downs = raw[:, 0].reshape(-1), raw[:, 1].reshape(-1)
        held = np.flatnonzero(ups | downs)
        # entry (k, i, d) of the stack: direction d at bit i of mask byte held[k]
        unpacked = [np.unpackbits(m[held, None], axis=1, bitorder="little")
                    for m in (ups, downs)]
        found = np.flatnonzero(np.stack(unpacked, axis=2).view(bool))
        slice_of, byte_of = np.divmod(held, width)
        k = found >> 4
        return slice_of[k], 8 * byte_of[k] + (found >> 1 & 7), found & 1


@dataclass(frozen=True)
class CircuitMetrics:
    depth: int
    size: int
    density: float


def metrics(circuit: Circuit) -> CircuitMetrics:
    """Depth, gate count, and fraction of the depth * floor(n/2) gate budget."""
    depth = circuit.depth
    size = circuit.size
    cap = depth * (circuit.n // 2)
    return CircuitMetrics(depth, size, size / cap if cap else 0.0)


def crossing_counts(circuit: Circuit) -> tuple[int, ...]:
    """Number of gates across each of the n-1 cuts between adjacent wires."""
    _, pos, _ = circuit._gate_table
    return tuple(np.bincount(pos, minlength=circuit.n)[1:].tolist())


def schedule(n: int, gates: Iterable[int]) -> Circuit:
    """Pack a sequence of gate codes greedily into the earliest admissible slices.

    Each gate lands in the slice right after the last slice touching
    either of its wires, so gates on shared wires keep their order and
    the result computes the same map as running the sequence one gate at
    a time.
    """
    last = [0] * (n + 2)
    ups: list[int] = []
    downs: list[int] = []
    depth = 0
    for g in gates:
        p = g >> 1
        if not 0 < p < n:
            raise ValueError(f"gate {gate_token(g)} does not fit on {n} wires")
        a, b = last[p], last[p + 1]
        s = a if a > b else b
        if s == depth:
            ups.append(0)
            downs.append(0)
            depth += 1
        (downs if g & 1 else ups)[s] |= 1 << p
        last[p] = last[p + 1] = s + 1
    return Circuit(n, tuple(TimeSlice(up=u, down=d) for u, d in zip(ups, downs)))


def concat(first: Circuit, second: Circuit) -> Circuit:
    """The circuit running first, then second (no repacking)."""
    if first.n != second.n:
        raise ValueError(f"wire count mismatch: {first.n} vs {second.n}")
    return Circuit(first.n, first.slices + second.slices)


def apply(circuit: Circuit, state: BitMatrix) -> BitMatrix:
    """Run the circuit on a state matrix whose column j is wire j's value.

    Gate (t <- s) xors column s into column t.  Within a slice the gates
    commute when the slice is wire-disjoint, so sequential application
    is faithful to simultaneous semantics for valid circuits.
    """
    if state.n != circuit.n:
        raise ValueError(f"state dimension {state.n} does not match {circuit.n} wires")
    cols = list(state.cols)
    _, pos, direction = circuit._gate_table
    # down(p) adds column p - 1 (wire p) into column p, up(p) the reverse
    for t, s in zip((pos - 1 + direction).tolist(), (pos - direction).tolist()):
        cols[t] ^= cols[s]
    return BitMatrix(circuit.n, tuple(cols))


def matrix_of(circuit: Circuit) -> BitMatrix:
    """Matrix computed by the circuit from initial wire values."""
    return apply(circuit, BitMatrix.identity(circuit.n))


def inverse(circuit: Circuit) -> Circuit:
    """Circuit undoing this one: slices reversed, each gate self-inverse."""
    return Circuit(circuit.n, tuple(reversed(circuit.slices)))


def circuit_to_text(circuit: Circuit) -> str:
    """Serialize: header "n <wires>", then one line of gate tokens per slice."""
    slice_index, pos, direction = circuit._gate_table
    names = [gate_token(g) for g in range(2 * circuit.n)]
    tokens = [names[g] for g in (2 * pos + direction).tolist()]
    ends = [0, *np.cumsum(np.bincount(slice_index, minlength=circuit.depth)).tolist()]
    lines = [f"n {circuit.n}"] + [" ".join(tokens[a:b]) for a, b in zip(ends, ends[1:])]
    return "\n".join(lines) + "\n"


def parse_circuit_text(text: str) -> Circuit:
    """Parse the format written by circuit_to_text.

    Rejects malformed headers and tokens, gates off the line, wire
    collisions inside a slice, and empty slice lines.

    Raises:
        ValueError: with the offending line in the message.
    """
    lines = text.splitlines()
    if not lines:
        raise ValueError("empty circuit text")
    head = lines[0].split()
    try:
        if len(head) != 2 or head[0] != "n" or not head[1].isdigit():
            raise ValueError
        # int() refuses, unconverted, a count past the interpreter's digit limit
        n = int(head[1])
    except ValueError:
        raise ValueError(f"bad header {clip(repr(lines[0]))}, expected 'n <wires>'") from None
    if n < 2:
        raise ValueError(f"need at least 2 wires, got {n}")
    # token -> bit p for up(p), shift + p for down(p): one sum gives both
    # masks.  shift only passes the positions learned so far, so memory
    # follows the gates, not the header.
    bit_of: dict[str, int] = {}
    shift = low = 0
    slices = []
    for lineno, ln in enumerate(lines[1:], start=2):
        tokens = ln.split()
        if not tokens:
            raise ValueError(f"line {lineno}: empty time slice")
        try:
            code = sum(map(bit_of.__getitem__, tokens))
        except KeyError:
            code, shift = _line_code(tokens, n, lineno, bit_of, shift, len(lines) - 1)
            low = (1 << shift) - 1
        u, d = code & low, code >> shift
        w = u | d
        if code.bit_count() != len(tokens) or u & d or w & (w >> 1):
            # a repeated token or a shared wire: raises
            _line_code(tokens, n, lineno, bit_of, shift, len(lines) - 1)
        slices.append(TimeSlice(up=u, down=d))
    return Circuit(n, tuple(slices))


def _line_code(
    tokens: list[str], n: int, lineno: int, bit_of: dict[str, int], shift: int,
    depth: int,
) -> tuple[int, int]:
    """Check a slice line token by token; learn and sum the tokens' bits.

    Returns the code and the shift.  A line reaching past the shift at
    least doubles it and forgets the bits learned under the old one.  It
    keeps at most 4 * CELL_LIMIT binary digits of bits, whatever the text.

    Raises:
        ResourceLimitError: if depth slices of masks reaching a gate's
            position would pass CELL_LIMIT cells.
    """
    top = CELL_LIMIT // depth  # depth * (p + 1) passes the limit iff p >= top
    gates = []
    used = 0
    width = len(str(n))
    for tok in tokens:
        # a position with more digits than n is off the line: int() never sees it
        if len(tok[1:].lstrip("0")) > width and tok[1:].isdecimal() and tok[0] in "ud":
            raise ValueError(f"line {lineno}: gate {clip(tok)} does not fit on {n} wires")
        try:
            g = parse_gate_token(tok)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        p = g >> 1
        if p >= n:
            raise ValueError(f"line {lineno}: gate {gate_token(g)} does not fit on {n} wires")
        if p >= top:
            raise ResourceLimitError(
                f"line {lineno}: gate {gate_token(g)} would need {depth} slices on "
                f"{p + 1} wires, more than the limit of {CELL_LIMIT} slice-wire cells"
            )
        wires = 3 << p
        if used & wires:
            raise ValueError(f"line {lineno}: wire collision at {gate_token(g)}")
        used |= wires
        gates.append(g)
    # the top position is bit_length - 2, and the shift must pass it
    if used.bit_length() - 1 > shift:
        shift = max(2 * shift, used.bit_length() - 1)
        bit_of.clear()
    cap = 4 * CELL_LIMIT // (2 * shift + 1)  # a bit has at most 2 * shift + 1 digits
    code = 0
    for tok, g in zip(tokens, gates):
        bit = 1 << ((g >> 1) + shift * (g & 1))
        code |= bit_of.setdefault(tok, bit) if len(bit_of) < cap else bit
    return code, shift
