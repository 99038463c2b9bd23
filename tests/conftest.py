"""Shared test helpers: independent oracles and closed-form targets.

Oracles here deliberately avoid the packed-integer representation of
the library, computing over plain lists so that agreement is evidence.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import strategies as st

from cnotline import (
    BitMatrix,
    Circuit,
    apply,
    concat,
    down,
    dual_functional,
    inverse,
    northwest_basis,
    odd_even_network,
    parse_gate_token,
    schedule,
    up,
)
from cnotline.constructions import _sorting_run
from cnotline.f2 import inverse as matrix_inverse
from cnotline.glsynth import _clearing, _reduction
from cnotline.search import encode_state, slice_generators


def coords(v: int, n: int) -> list[int]:
    """Coordinates 1..n of a packed vector as a list of 0/1 ints."""
    return [(v >> i) & 1 for i in range(n)]


def to_lists(m: BitMatrix) -> list[list[int]]:
    """Unpack a BitMatrix into a row-major list-of-lists of 0/1 ints."""
    return [list(row) for row in zip(*(coords(c, m.n) for c in m.cols))]


def from_lists(rows: list[list[int]]) -> BitMatrix:
    n = len(rows)
    cols = [
        sum(rows[i][j] << i for i in range(n)) for j in range(n)
    ]
    return BitMatrix(n, tuple(cols))


def oracle_rank(rows: list[list[int]]) -> int:
    """Gaussian elimination over GF(2) on list rows; independent of f2."""
    work = [row[:] for row in rows]
    ncols = len(work[0]) if work else 0
    rank = 0
    for col in range(ncols):
        pivot = next(
            (r for r in range(rank, len(work)) if work[r][col]), None
        )
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        for r in range(len(work)):
            if r != rank and work[r][col]:
                work[r] = [a ^ b for a, b in zip(work[r], work[rank])]
        rank += 1
    return rank


def random_invertible(n: int, rng: random.Random) -> BitMatrix:
    while True:
        cols = tuple(rng.randrange(1, 1 << n) for _ in range(n))
        m = BitMatrix(n, cols)
        if m.is_invertible:
            return m


def random_northwest(n: int, rng: random.Random) -> BitMatrix:
    """Row-reversal of a random unit lower-triangular matrix.

    Entry (i, j) of the result is zero whenever i + j > n + 1 and the
    anti-diagonal is all ones, so it is northwest-triangular and
    invertible.
    """
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = 1
        for j in range(i):
            rows[i][j] = rng.randint(0, 1)
    return from_lists(rows[::-1])


def decode_state(n: int, code: int) -> BitMatrix:
    """Matrix of a packed search state, entry (i, j) at bit (i-1)*n + (j-1)."""
    return from_lists([[code >> (i * n + j) & 1 for j in range(n)] for i in range(n)])


@st.composite
def raw_circuits(draw, shared_positions=False):
    """(n, gate lists): slices may be empty or share wires; with
    shared_positions a slice may hold up(p) and down(p) together."""
    n = draw(st.integers(2, 12))
    kinds = [(), (up,), (down,)] + ([(up, down)] if shared_positions else [])
    slices = []
    for _ in range(draw(st.integers(0, 6))):
        gates = []
        for p in range(1, n):
            gates += [kind(p) for kind in draw(st.sampled_from(kinds))]
        slices.append(draw(st.permutations(gates)))
    return n, slices


def oracle_permutation_matrix(perm) -> BitMatrix:
    """Matrix sending wire perm[i-1] to a_i: entry (i, perm[i-1]) is 1."""
    n = len(perm)
    return from_lists([[int(j == perm[i] - 1) for j in range(n)] for i in range(n)])


def target(g: int) -> int:
    """Wire gate code g writes: p for up(p) = 2p, p + 1 for down(p) = 2p + 1."""
    return g // 2 + g % 2


def source(g: int) -> int:
    """Wire gate code g reads: p + 1 for up(p), p for down(p)."""
    return g // 2 + 1 - g % 2


def slice_of(gates) -> tuple[int, int]:
    """The (up, down) masks of the slice holding a collection of gate codes."""
    up_mask = down_mask = 0
    for g in gates:
        bit = 1 << min(target(g), source(g))
        if target(g) > source(g):
            down_mask |= bit
        else:
            up_mask |= bit
    return up_mask, down_mask


def slice_gates(sl: tuple[int, int]) -> tuple:
    """The gate codes of a slice's (up, down) masks in oracle_slice_order."""
    up_mask, down_mask = sl
    top = (up_mask | down_mask).bit_length()
    return tuple(oracle_slice_order(
        [up(p) for p in range(top) if up_mask >> p & 1]
        + [down(p) for p in range(top) if down_mask >> p & 1]
    ))


def circuit_of(n: int, slices) -> Circuit:
    """The circuit of a sequence of (up, down) slice masks."""
    slices = list(slices)
    return Circuit(n, tuple(u for u, _ in slices), tuple(d for _, d in slices))


def schedule_tokens(n: int, tokens) -> Circuit:
    """Schedule a sequence of gate tokens such as ("u1", "d2")."""
    return schedule(n, [parse_gate_token(t) for t in tokens])


# Minimal gate strings, in _sorting_run's form ("u" for up(p), "d" for
# down(p)), for every valid output pair; upper wire input u, lower v.
# Fully specified pairs realize the exact optimal depths 0,1,1,2,2,3;
# pairs with one free output need depth at most 2.
BOX_GATES: dict[tuple[str, str], str] = {
    ("u", "v"): "",
    ("u", "u^v"): "d",
    ("u^v", "v"): "u",
    ("u^v", "u"): "ud",
    ("v", "u^v"): "du",
    ("v", "u"): "udu",
    ("u", "free"): "",
    ("v", "free"): "du",
    ("u^v", "free"): "u",
    ("free", "v"): "",
    ("free", "u"): "ud",
    ("free", "u^v"): "d",
}


def box_gates(position: int, outputs: tuple) -> list:
    """The gate codes of the BOX_GATES box for outputs on (position, position + 1)."""
    return [up(position) if kind == "u" else down(position) for kind in BOX_GATES[outputs]]


def cyclic_matrix(n: int) -> BitMatrix:
    """Column n = e_1, column i = e_{i+1}: one step of rotation."""
    return BitMatrix(n, tuple([1 << i for i in range(1, n)] + [1]))


def add_target(n: int) -> BitMatrix:
    """Identity except wire n also picks up a_1."""
    cols = [1 << (i - 1) for i in range(1, n)] + [1 | (1 << (n - 1))]
    return BitMatrix(n, tuple(cols))


def swap_target(n: int) -> BitMatrix:
    cols = [1 << (i - 1) for i in range(1, n + 1)]
    cols[0], cols[n - 1] = cols[n - 1], cols[0]
    return BitMatrix(n, tuple(cols))


def packed_generators(n: int) -> list[tuple[int, int]]:
    """Each slice of slice_generators(n) as its (upward-source,
    downward-source) column masks over a packed state s, which the slice
    takes to s ^ ((s & up_mask) >> 1) ^ ((s & down_mask) << 1).

    up(p) adds column p + 1 (bit p of each row) into column p, and
    down(p) adds column p (bit p - 1) into column p + 1.
    """
    return [
        (sum(1 << (i * n + p) for i in range(n) for p in range(1, n) if up >> p & 1),
         sum(1 << (i * n + p - 1) for i in range(n) for p in range(1, n) if down >> p & 1))
        for up, down in slice_generators(n)
    ]


def oracle_set_bfs(n: int, target_code: int, depth_limit: "int | None"):
    """Set-based BFS over packed states: the reference for the search engines.

    It shares only encode_state and slice_generators with the library,
    applies each slice with packed_generators' masks, and keeps every
    visited state in one Python set.  Returns
    (distance or None, levels as sorted uint64 arrays, level sizes),
    the shape walk_levels returns.
    """
    gens = packed_generators(n)
    start = encode_state(BitMatrix.identity(n))
    visited = {start}
    frontier = {start}
    levels = [np.array([start], dtype=np.uint64)]
    sizes = [1]
    if target_code == start:
        return 0, levels, tuple(sizes)
    while frontier:
        if depth_limit is not None and len(sizes) - 1 >= depth_limit:
            return None, levels, tuple(sizes)
        nxt = set()
        for code in frontier:
            for up_mask, down_mask in gens:
                nb = code ^ ((code & up_mask) >> 1) ^ ((code & down_mask) << 1)
                if nb not in visited:
                    visited.add(nb)
                    nxt.add(nb)
        if not nxt:
            break
        frontier = nxt
        levels.append(np.array(sorted(frontier), dtype=np.uint64))
        sizes.append(len(frontier))
        if target_code in visited:
            return len(sizes) - 1, levels, tuple(sizes)
    return None, levels, tuple(sizes)


def walk_levels(levels, target_code: "int | None" = None, depth_limit: "int | None" = None):
    """Iterate an engine's level generator, the identity's level first, to
    the level holding target_code (as the engine stores it) or the limit.

    Returns (distance or None, the levels, level sizes as state counts);
    with no target and no limit it sweeps the whole group.
    """
    levels_kept, sizes = [], []
    for level, states in levels:
        levels_kept.append(level)
        sizes.append(states)
        if target_code is not None and bool(np.any(level == target_code)):
            return len(sizes) - 1, levels_kept, tuple(sizes)
        if depth_limit is not None and len(sizes) - 1 >= depth_limit:
            break
    return None, levels_kept, tuple(sizes)


def oracle_mirror(n: int, code: int) -> int:
    """J s J for a packed state s, J the wire reversal: the n^2-bit
    string of s read backwards, since entry (i, j) goes to (n+1-i, n+1-j)."""
    return int(format(code, f"0{n * n}b")[::-1], 2)


def oracle_keys(n: int, level) -> np.ndarray:
    """A level of states as the sorted engine keeps it: min(s, J s J),
    each once, as a sorted uint64 array."""
    keys = {min(int(code), oracle_mirror(n, int(code))) for code in level}
    return np.array(sorted(keys), dtype=np.uint64)


def oracle_mirror_slice(n: int, sl: tuple[int, int]) -> tuple[int, int]:
    """J S J for a slice's (up, down) masks: up(p) becomes down(n-p) and
    down(p) becomes up(n-p)."""
    up_mask, down_mask = sl

    def flip(mask):
        return sum(1 << (n - p) for p in range(1, n) if mask >> p & 1)

    return flip(down_mask), flip(up_mask)


def oracle_slice_order(gates) -> list:
    """A slice's gates by position, up(p) before down(p) where both occur."""
    return sorted(set(gates), key=lambda g: (min(target(g), source(g)), target(g) > source(g)))


def oracle_token(g: int) -> str:
    return f"d{source(g)}" if target(g) > source(g) else f"u{target(g)}"


def oracle_apply(n: int, slices, rows: list[list[int]]) -> list[list[int]]:
    """Run gate lists on list rows, gate (t <- s) adding column s into t.

    slices is a list of gate collections; each runs in oracle_slice_order.
    """
    out = [row[:] for row in rows]
    for gates in slices:
        for g in oracle_slice_order(gates):
            for row in out:
                row[target(g) - 1] ^= row[source(g) - 1]
    return out


def oracle_crossings(n: int, slices) -> list[int]:
    """Gates per cut 1..n-1, counting each distinct gate of a slice once."""
    counts = [0] * (n - 1)
    for gates in slices:
        for g in set(gates):
            counts[min(target(g), source(g)) - 1] += 1
    return counts


def oracle_circuit_text(n: int, slices) -> str:
    lines = [f"n {n}"]
    for gates in slices:
        lines.append(" ".join(oracle_token(g) for g in oracle_slice_order(gates)))
    return "\n".join(lines) + "\n"


def oracle_render(n: int, slices) -> str:
    """render_circuit over gate lists, wire by wire: a wire reading a gate
    of the slice shows *, one only written by a gate +, and the row below
    wire w shows | under a slice holding a gate at position w."""
    margin = max(2, len(str(n)))
    out = []
    for w in range(1, n + 1):
        row = f"{w:>{margin}} "
        for gates in slices:
            if any(source(g) == w for g in gates):
                row += "-*--"
            elif any(target(g) == w for g in gates):
                row += "-+--"
            else:
                row += "----"
        out.append(row + "-")
        if w < n:
            link = " " * (margin + 1)
            for gates in slices:
                hit = any(min(target(g), source(g)) == w for g in gates)
                link += " |  " if hit else "    "
            out.append(link.rstrip())
    return "\n".join(out) + "\n"


def oracle_violations(slices) -> list[tuple]:
    """(1-based slice, gate or None, reason) for each defect, where a gate
    sharing a wire with an earlier gate of its slice names that gate."""
    out = []
    for idx, gates in enumerate(slices, start=1):
        order = oracle_slice_order(gates)
        if not order:
            out.append((idx, None, "empty time slice"))
            continue
        owner: dict = {}
        for g in order:
            for w in sorted((target(g), source(g))):
                if w in owner:
                    out.append((idx, g, f"wire {w} already used by {oracle_token(owner[w])}"))
                else:
                    owner[w] = g
    return out


def slice_violations(c: Circuit) -> list[tuple]:
    """oracle_violations of a circuit's slices: empty for a sound circuit."""
    return oracle_violations([slice_gates(sl) for sl in zip(c.ups, c.downs)])


@dataclass(frozen=True)
class LabeledWireState:
    """Snapshot of wire values and labels during a synthesis stage.

    w_basis and duals, packed as ints, describe the coordinate system
    the clearing stage reasons in; the reduction stage uses the standard
    basis, where the dual of e_k is e_k itself.
    """

    values: BitMatrix
    labels: tuple
    w_basis: tuple
    duals: tuple

    def clearing_violations(self) -> list[str]:
        """Check: a wire's value has coefficient 1 on its own label's w_k
        and coefficient 0 on every lower wire's label."""
        out = []
        n = self.values.n
        for i in range(1, n + 1):
            value = self.values.cols[i - 1]
            own = self.labels[i - 1]
            if not (self.duals[own - 1] & value).bit_count() & 1:
                out.append(f"wire {i} value has zero w_{own} coefficient; label {own} sits on it")
            for h in range(1, i):
                k = self.labels[h - 1]
                if (self.duals[k - 1] & value).bit_count() & 1:
                    out.append(
                        f"wire {i} value has nonzero w_{k} coefficient; "
                        f"label {k} sits on lower wire {h}"
                    )
        return out

    def reduction_violations(self) -> list[str]:
        """Check the triangular-stage invariants on coordinates.

        (1) the value on a label-k wire has coordinate k set and all
        higher coordinates clear; (2) it has coordinate j clear for
        every smaller label j on a lower-numbered wire.
        """
        out = []
        n = self.values.n
        for i in range(1, n + 1):
            k = self.labels[i - 1]
            value = self.values.cols[i - 1]
            if not (value >> (k - 1)) & 1 or value.bit_length() > k:
                shown = "".join(map(str, coords(value, n)))
                out.append(f"wire {i} (label {k}) value {shown} not confined to e_{k}")
            for h in range(1, i):
                j = self.labels[h - 1]
                if j < k and (value >> (j - 1)) & 1:
                    out.append(
                        f"wire {i} (label {k}) value has coordinate {j} set; "
                        f"label {j} sits on lower wire {h}"
                    )
        return out


def _stage_states(stage: tuple, basis: tuple) -> list:
    """The state before the first layer and after each layer of a stage,
    the (labels, values, offset, boxes) of glsynth._clearing or _reduction
    run one layer at a time through _sorting_run.  Layers after the labels
    are sorted repeat it.  Each state keeps the values' low n bits, the
    wire vectors; the clearing values carry w-coordinates above them."""
    labels, values, offset, boxes = stage
    n = len(values)
    mask = (1 << n) - 1
    states = []
    for layer in ((),) + odd_even_network(n):
        _sorting_run([layer], labels, values, offset, boxes)
        wires = BitMatrix(n, tuple(v & mask for v in values))
        states.append(LabeledWireState(wires, tuple(labels), *basis))
    return states


def clearing_states(m: BitMatrix) -> list:
    """Wire states after each clearing layer (index 0 = initial state)."""
    w_basis, _ = northwest_basis(m)
    duals = tuple(dual_functional(w_basis, k) for k in range(1, m.n + 1))
    return _stage_states(_clearing(m), (w_basis, duals))


def reduction_states(nw: BitMatrix) -> list:
    """Wire states after each reduction layer (index 0 = initial state)."""
    std = tuple(1 << k for k in range(nw.n))
    return _stage_states(_reduction(nw), (std, std))


def oracle_sorting_run(values, labels, box_for, states, basis) -> list:
    """Gate-list network runner: the reference for the slice-mask runner.

    Runs every layer of the odd-even network, asks box_for(p, k) for the gate
    codes of each swap and applies it to values as emitted; the caller
    packs the list with schedule.  When states is a list, the state
    before the first layer and after each layer is appended to it.
    """
    n = len(values)
    gates: list = []
    for layer in ((),) + odd_even_network(n):
        for p in layer:
            j, k = labels[p - 1], labels[p]
            if j < k:
                continue
            labels[p - 1], labels[p] = k, j
            box = box_for(p, k)
            for g in box:
                values[target(g) - 1] ^= values[source(g) - 1]
            gates += box
        if states is not None:
            states.append(
                LabeledWireState(BitMatrix(n, tuple(values)), tuple(labels), *basis)
            )
    return gates


def oracle_clearing(m: BitMatrix, states=None) -> Circuit:
    """Clearing stage through oracle_sorting_run and schedule."""
    w_basis, pi = northwest_basis(m)
    duals = matrix_inverse(BitMatrix(m.n, w_basis)).packed_rows()
    values = list(m.cols)

    def box_for(p, k):
        u, v = values[p - 1], values[p]
        dual_k = duals[k - 1]
        if (dual_k & v).bit_count() & 1 == 0:
            return []
        if (dual_k & (u ^ v)).bit_count() & 1 == 0:
            return [down(p)]
        return [up(p), down(p)]

    gates = oracle_sorting_run(values, list(pi), box_for, states, (w_basis, duals))
    return schedule(m.n, gates)


def oracle_reduction(nw: BitMatrix, states=None) -> Circuit:
    """Reduction stage through oracle_sorting_run and schedule."""
    n = nw.n
    std = tuple(1 << k for k in range(n))
    values = list(nw.cols)

    def box_for(p, j):
        if (values[p - 1] >> (j - 1)) & 1:
            return [down(p), up(p)]
        return [up(p), down(p), up(p)]

    labels = list(range(n, 0, -1))
    return schedule(n, oracle_sorting_run(values, labels, box_for, states, (std, std)))


def oracle_synthesize(m: BitMatrix) -> Circuit:
    """The depth-5n pipeline through the oracle stages."""
    if m == BitMatrix.identity(m.n):
        return Circuit(m.n)
    clearing = oracle_clearing(m)
    reduction = oracle_reduction(apply(clearing, m))
    return concat(inverse(reduction), inverse(clearing))


def oracle_permutation_circuit(perm) -> Circuit:
    """A 3-gate swap per fired comparator of the full odd-even network."""
    n = len(perm)

    def swap(p, k):
        return [up(p), down(p), up(p)]

    gates = oracle_sorting_run([0] * n, list(perm), swap, None, ())
    return schedule(n, gates)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0)
