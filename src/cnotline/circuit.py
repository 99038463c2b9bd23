"""Adjacent-wire CNOT circuits on a line of n wires.

A gate (t <- s) xors the value of wire s into wire t, with s and t
adjacent.  A time slice is a set of gates touching pairwise disjoint
wires; a circuit is an ordered sequence of slices.  Simulation tracks
the matrix whose column j expresses the current value of wire j as a
combination of the initial wire values, so running gates multiplies on
the right by elementary matrices.

A slice is held as two masks, bit p of up for gate up(p) and bit p of
down for down(p); no Gate object is made per gate on the hot paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Sequence

import numpy as np

from .f2 import BitMatrix


@dataclass(frozen=True, order=True)
class Gate:
    """CNOT (target <- source) between adjacent wires."""

    target: int
    source: int

    def __post_init__(self) -> None:
        if min(self.target, self.source) < 1:
            raise ValueError(f"wires must be positive, got {self}")
        if abs(self.target - self.source) != 1:
            raise ValueError(f"gate must touch adjacent wires, got {self}")

    @property
    def position(self) -> int:
        """Lower of the two wires; the gate crosses the cut at this position."""
        return min(self.target, self.source)

    @property
    def is_downward(self) -> bool:
        """True when the target sits below the source (larger wire index)."""
        return self.target > self.source

    @property
    def token(self) -> str:
        return f"d{self.source}" if self.target > self.source else f"u{self.target}"

    def __str__(self) -> str:
        return self.token


# Gates are immutable, so up and down hand out one shared Gate per
# position instead of validating a fresh one for every gate emitted.
@lru_cache(maxsize=4096)
def up(position: int) -> Gate:
    """Gate (position <- position + 1)."""
    return Gate(position, position + 1)


@lru_cache(maxsize=4096)
def down(position: int) -> Gate:
    """Gate (position + 1 <- position)."""
    return Gate(position + 1, position)


def parse_gate_token(token: str) -> Gate:
    kind, digits = token[:1], token[1:]
    if kind not in ("u", "d") or not digits.isdigit():
        raise ValueError(f"bad gate token {token!r}")
    pos = int(digits)
    if pos < 1:
        raise ValueError(f"bad gate token {token!r}")
    return down(pos) if kind == "d" else up(pos)


@dataclass(frozen=True, init=False)
class TimeSlice:
    """Gates acting at once; TimeSlice(up=u, down=d) builds one from its masks."""

    up: int
    down: int

    def __init__(self, gates: Iterable[Gate] = (), up: int = 0, down: int = 0) -> None:
        for g in gates:
            if g.target > g.source:
                down |= 1 << g.source
            else:
                up |= 1 << g.target
        object.__setattr__(self, "up", up)
        object.__setattr__(self, "down", down)

    @property
    def gates(self) -> frozenset[Gate]:
        return frozenset(self.sorted_gates)

    @property
    def sorted_gates(self) -> tuple[Gate, ...]:
        """Gates by position, up(p) before down(p) where both occur."""
        u, d = self.up, self.down
        return tuple(
            kind(p)
            for p in range((u | d).bit_length())
            for kind, mask in ((up, u), (down, d))
            if mask >> p & 1
        )


@dataclass(frozen=True)
class Circuit:
    """Ordered time slices on n wires.

    The constructor is permissive: it checks only that gate wires fit on
    the line.  Structural soundness (disjoint slices, no empty slices)
    is reported by validate().
    """

    n: int
    slices: tuple[TimeSlice, ...] = ()

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"need at least 2 wires, got {self.n}")
        n = self.n
        for sl in self.slices:
            # a gate at position p needs wire p + 1, and sets bit p
            if (sl.up | sl.down).bit_length() > n:
                g = next(g for g in sl.sorted_gates if g.position >= n)
                raise ValueError(f"gate {g} does not fit on {n} wires")

    @property
    def depth(self) -> int:
        return len(self.slices)

    @property
    def size(self) -> int:
        return sum(sl.up.bit_count() + sl.down.bit_count() for sl in self.slices)

    @cached_property
    def _gate_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Slice index, position and direction (1 for down) of every gate, in
        slice and sorted_gates order, unpacking only mask bytes with a gate.
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
class Violation:
    """One structural defect found by validate()."""

    slice_index: int
    gate: "Gate | None"
    reason: str


def validate(circuit: Circuit) -> list[Violation]:
    """Check slice structure; returns an empty list for a sound circuit.

    Slice indices in violations are 1-based.
    """
    out = []
    for idx, sl in enumerate(circuit.slices, start=1):
        u, d, w = sl.up, sl.down, sl.up | sl.down
        if not w:
            out.append(Violation(idx, None, "empty time slice"))
            continue
        # gates share a wire at one position or two adjacent ones
        if not (u & d or w & (w >> 1)):
            continue
        seen: dict[int, Gate] = {}
        for g in sl.sorted_gates:
            for wire in (g.position, g.position + 1):
                if wire in seen:
                    out.append(
                        Violation(idx, g, f"wire {wire} already used by {seen[wire]}")
                    )
                seen.setdefault(wire, g)
    return out


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


def schedule(n: int, gates: Iterable[Gate]) -> Circuit:
    """Pack a gate sequence greedily into the earliest admissible slices.

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
        # g.position and max inlined: this loop runs once per gate
        t, src = g.target, g.source
        p = t if t < src else src
        if p >= n:
            raise ValueError(f"gate {g} does not fit on {n} wires")
        a, b = last[p], last[p + 1]
        s = a if a > b else b
        if s == depth:
            ups.append(0)
            downs.append(0)
            depth += 1
        (ups if t < src else downs)[s] |= 1 << p
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


def flip(circuit: Circuit) -> Circuit:
    """Reflect the circuit upside down, wire w becoming wire n + 1 - w.

    The computed matrix conjugates by the anti-identity: if the circuit
    computes M, the flipped circuit computes J M J.
    """
    n = circuit.n

    def mirror(mask: int) -> int:
        # up(p) = (p <- p + 1) becomes (n + 1 - p <- n - p) = down(n - p)
        return int(format(mask, f"0{n + 1}b")[::-1], 2)

    return Circuit(
        n,
        tuple(TimeSlice(up=mirror(sl.down), down=mirror(sl.up)) for sl in circuit.slices),
    )


def circuit_to_text(circuit: Circuit) -> str:
    """Serialize: header "n <wires>", then one line of gate tokens per slice."""
    slice_index, pos, direction = circuit._gate_table
    names = [f"{kind}{p}" for p in range(circuit.n) for kind in "ud"]
    tokens = [names[k] for k in (2 * pos + direction).tolist()]
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
    if len(head) != 2 or head[0] != "n" or not head[1].isdigit():
        raise ValueError(f"bad header {lines[0]!r}, expected 'n <wires>'")
    n = int(head[1])
    if n < 2:
        raise ValueError(f"need at least 2 wires, got {n}")
    # token -> bit p for up(p), n + p for down(p): one sum gives both masks
    bit_of: dict[str, int] = {}
    low = (1 << n) - 1
    slices = []
    for lineno, ln in enumerate(lines[1:], start=2):
        tokens = ln.split()
        if not tokens:
            raise ValueError(f"line {lineno}: empty time slice")
        try:
            code = sum(map(bit_of.__getitem__, tokens))
        except KeyError:
            code = _line_code(tokens, n, lineno, bit_of)
        u, d = code & low, code >> n
        w = u | d
        if code.bit_count() != len(tokens) or u & d or w & (w >> 1):
            # a repeated token or a shared wire: raises
            _line_code(tokens, n, lineno, bit_of)
        slices.append(TimeSlice(up=u, down=d))
    return Circuit(n, tuple(slices))


def _line_code(tokens: list[str], n: int, lineno: int, bit_of: dict[str, int]) -> int:
    """Check a slice line token by token; learn and sum the tokens' bits."""
    code = used = 0
    for tok in tokens:
        g = parse_gate_token(tok)
        if g.position >= n:
            raise ValueError(f"line {lineno}: gate {tok} does not fit on {n} wires")
        wires = 3 << g.position
        if used & wires:
            raise ValueError(f"line {lineno}: wire collision at {tok}")
        used |= wires
        code |= bit_of.setdefault(tok, 1 << (g.position + n * g.is_downward))
    return code


def from_gate_tokens(n: int, tokens: Sequence[str]) -> Circuit:
    """Schedule a sequence of gate tokens such as ("u1", "d2")."""
    return schedule(n, [parse_gate_token(t) for t in tokens])
