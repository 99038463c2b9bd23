"""Adjacent-wire CNOT circuits on a line of n wires.

A gate (t <- s) xors the value of wire s into wire t, with s and t
adjacent.  A time slice is a set of gates touching pairwise disjoint
wires; a circuit is an ordered sequence of slices.  Simulation tracks
the matrix whose column j expresses the current value of wire j as a
combination of the initial wire values, so running gates multiplies on
the right by elementary matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

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


@dataclass(frozen=True)
class TimeSlice:
    """Set of gates meant to act simultaneously."""

    gates: frozenset[Gate]

    @property
    def sorted_gates(self) -> tuple[Gate, ...]:
        # target + source = 2 * position + 1 orders gates as position does
        return tuple(sorted(self.gates, key=lambda g: g.target + g.source))


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
            for g in sl.gates:
                if g.target > n or g.source > n:
                    raise ValueError(f"gate {g} does not fit on {self.n} wires")

    @property
    def depth(self) -> int:
        return len(self.slices)

    @property
    def size(self) -> int:
        return sum(len(sl.gates) for sl in self.slices)


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
        if not sl.gates:
            out.append(Violation(idx, None, "empty time slice"))
            continue
        seen: dict[int, Gate] = {}
        for g in sl.sorted_gates:
            # g.position inlined, as in schedule
            p = g.target if g.target < g.source else g.source
            for w in (p, p + 1):
                if w in seen:
                    out.append(
                        Violation(idx, g, f"wire {w} already used by {seen[w]}")
                    )
                seen.setdefault(w, g)
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
    counts = [0] * (circuit.n - 1)
    for sl in circuit.slices:
        for g in sl.gates:
            # g.position inlined, as in schedule
            counts[(g.target if g.target < g.source else g.source) - 1] += 1
    return tuple(counts)


def schedule(n: int, gates: Iterable[Gate]) -> Circuit:
    """Pack a gate sequence greedily into the earliest admissible slices.

    Each gate lands in the slice right after the last slice touching
    either of its wires, so gates on shared wires keep their order and
    the result computes the same map as running the sequence one gate at
    a time.
    """
    last = [0] * (n + 2)
    packed: list[set[Gate]] = []
    for g in gates:
        # g.position and max inlined: this loop runs once per gate
        p = g.target if g.target < g.source else g.source
        if p >= n:
            raise ValueError(f"gate {g} does not fit on {n} wires")
        s = last[p] if last[p] > last[p + 1] else last[p + 1]
        if s == len(packed):
            packed.append(set())
        packed[s].add(g)
        last[p] = last[p + 1] = s + 1
    return Circuit(n, tuple(TimeSlice(frozenset(s)) for s in packed))


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
    for sl in circuit.slices:
        for g in sl.sorted_gates:
            cols[g.target - 1] ^= cols[g.source - 1]
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
    return Circuit(
        n,
        tuple(
            TimeSlice(frozenset(Gate(n + 1 - g.target, n + 1 - g.source) for g in sl.gates))
            for sl in circuit.slices
        ),
    )


def circuit_to_text(circuit: Circuit) -> str:
    """Serialize: header "n <wires>", then one line of gate tokens per slice."""
    lines = [f"n {circuit.n}"]
    for sl in circuit.slices:
        lines.append(" ".join(g.token for g in sl.sorted_gates))
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
    slices = []
    # token -> (gate, mask of its two wires); each distinct token is
    # parsed and placed on the line once, however often it repeats
    known: dict[str, tuple[Gate, int]] = {}
    for lineno, ln in enumerate(lines[1:], start=2):
        if not ln.strip():
            raise ValueError(f"line {lineno}: empty time slice")
        gates = []
        used = 0
        for tok in ln.split():
            hit = known.get(tok)
            if hit is None:
                g = parse_gate_token(tok)
                pos = int(tok[1:])
                if pos >= n:
                    raise ValueError(f"line {lineno}: gate {tok} does not fit on {n} wires")
                hit = known[tok] = (g, 3 << pos)
            g, wires = hit
            if used & wires:
                raise ValueError(f"line {lineno}: wire collision at {tok}")
            used |= wires
            gates.append(g)
        slices.append(TimeSlice(frozenset(gates)))
    return Circuit(n, tuple(slices))


def from_gate_tokens(n: int, tokens: Sequence[str]) -> Circuit:
    """Schedule a sequence of gate tokens such as ("u1", "d2")."""
    return schedule(n, [parse_gate_token(t) for t in tokens])
