"""Named circuit families with proven depth bounds.

Each construction emits its gate codes (up(p) = 2p, down(p) = 2p + 1)
in an order chosen so that the greedy scheduler reproduces the intended
depth; where a construction depends on reordering commuting gates, the
emitted sequence is already the reordered one; FAMILIES holds their
proven sizes and depths.  Permutation
routing and the synthesis stages in glsynth instead run a sorting network
through _sorting_run, which writes each swap's box from _BOX_GATES
straight into slice masks where the scheduler would put its gates.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from .circuit import Circuit, down, schedule, up
from .f2 import clip

# Measured nesting overhead of gather_circuit per gathered position; the
# depth bound ceil(n/2) + GATHER_DEPTH_PER_POSITION * m is pinned by test.
GATHER_DEPTH_PER_POSITION = 4


def add_circuit(n: int) -> Circuit:
    """Add wire 1 into wire n across the whole line.

    The result computes the identity except that wire n ends with
    a_1 xor a_n.  Size 4n - 7; depth at most n + 3 for even n and
    n + 4 for odd n.
    """
    if n < 2:
        raise ValueError(f"need at least 2 wires, got {n}")
    k = (n + 1) // 2
    # cascades put a_1 on wire k and confine a_n to wire k+1
    sub = (
        [up(i) for i in range(1, k)]
        + [down(i) for i in range(1, k)]
        + [up(i) for i in range(n - 1, k, -1)]
        + [down(i) for i in range(n - 1, k, -1)]
    )
    gates = sub + [down(k)] + sub[::-1]
    return schedule(n, gates)


def swap_circuit(n: int) -> Circuit:
    """Exchange the values of wires 1 and n, restoring every other wire.

    Size 6n - 9; depth at most n + 7 for even n and n + 8 for odd n.
    The central swap is emitted as (d_k, u_k, d_k) with its outer gates
    hoisted past the commuting cascade tails to save two slices.
    """
    if n < 2:
        raise ValueError(f"need at least 2 wires, got {n}")
    k = (n + 1) // 2
    t1 = [up(i) for i in range(1, k)]
    t2 = [down(i) for i in range(1, k)]
    t3 = [up(i) for i in range(1, k)]
    b1 = [up(i) for i in range(n - 1, k, -1)]
    b2 = [down(i) for i in range(n - 1, k, -1)]
    b3 = [up(i) for i in range(n - 1, k, -1)]
    # d_k only reads wire k and only adds into wire k+1, so it commutes
    # with the final cascade gates u_{k-1} and u_{k+1} on both sides of
    # the central swap; u_k does not.
    gates = (
        t1 + t2 + t3[:-1] + b1 + b2 + b3[:-1]
        + [down(k)]
        + t3[-1:] + b3[-1:]
        + [up(k)]
        + b3[-1:] + t3[-1:]
        + [down(k)]
        + b3[-2::-1] + b2[::-1] + b1[::-1] + t3[-2::-1] + t2[::-1] + t1[::-1]
    )
    return schedule(n, gates)


def rotation_block(lo: int, hi: int) -> tuple[list[int], list[int]]:
    """The window rotation R(lo, hi) and its flipped-reversed twin R'.

    Both gate code lists send wire hi to the entering value of wire lo and
    wire i to the entering value of wire i+1 for lo <= i < hi, leaving
    wires outside the window fixed.  Each has size 4(hi - lo) - 1 and
    scheduled depth 2(hi - lo) + 3.

    Args:
        lo: first wire of the window.
        hi: last wire of the window, hi > lo.

    Returns:
        (primary, variant): the second list is the first run upside
        down within the window and backward, which rotates the same way.
    """
    if not 1 <= lo < hi:
        raise ValueError(f"bad rotation window [{lo}, {hi}]")
    primary = (
        [down(i) for i in range(lo, hi)]
        + [up(i) for i in range(lo, hi)]
        + [down(i) for i in range(lo, hi)]
        + [down(i) for i in range(hi - 2, lo - 1, -1)]
    )
    # mirroring wire w to lo + hi - w turns up(p) into down(lo + hi - 1 - p)
    flipped = [2 * (lo + hi) - 1 - g for g in primary]
    return primary, flipped[::-1]


def rotate_circuit(n: int) -> Circuit:
    """Cyclically rotate the line: wire n gets a_1, wire i gets a_{i+1}.

    Size 4n - 6 and depth at most n + 5 for n > 2; n = 2 degenerates to
    the 3-gate swap.
    """
    if n <= 2:
        return swap_circuit(n)
    k = (n + 1) // 2
    head = schedule(n, rotation_block(1, k)[0])
    tail = schedule(n, rotation_block(k, n)[1])
    # Both windows meet only at wire k.  The head's scheduled accesses
    # to it sit at slices k-1, k+1, k+3 and the tail's at shift plus
    # n-k, n-k+2, n-k+4; the chosen shift keeps every read after the
    # write it needs, letting only the two commuting writes into wire k
    # trade places.  The tail therefore starts before the head is done.
    shift = 2 if n % 2 == 0 else 3
    depth = max(head.depth, tail.depth + shift)
    pad = (0,) * depth  # the padded head is depth long, so each map stops there
    ups = map(int.__or__, head.ups + pad[head.depth:], pad[:shift] + tail.ups + pad)
    downs = map(int.__or__, head.downs + pad[head.depth:], pad[:shift] + tail.downs + pad)
    return Circuit(n, tuple(ups), tuple(downs))


def reverse_circuit(n: int) -> Circuit:
    """Reverse the line: wire n+1-i gets a_i.

    Alternates n+1 rounds of adding even-indexed wires into both
    neighbors with rounds adding odd-indexed wires.  Depth 2n + 2
    (3 at n = 2), size n^2 - 1.
    """
    if n < 2:
        raise ValueError(f"need at least 2 wires, got {n}")
    even_round = [up(2 * i - 1) for i in range(1, n // 2 + 1)] + [
        down(2 * i) for i in range(1, (n - 1) // 2 + 1)
    ]
    odd_round = [down(2 * i - 1) for i in range(1, n // 2 + 1)] + [
        up(2 * i) for i in range(1, (n - 1) // 2 + 1)
    ]
    gates: list[int] = []
    for t in range(n + 1):
        gates += even_round if t % 2 == 0 else odd_round
    return schedule(n, gates)


# Each closed-form family: its builder, cost(n) = (proven size formula,
# size, depth bound) for n >= 2, and whether that bound is the exact depth.
FAMILIES = {
    "add": (add_circuit, lambda n: ("4n-7", 4 * n - 7, 2 * ((n + 1) // 2) + 3), False),
    "swap": (swap_circuit, lambda n: ("6n-9", 6 * n - 9, 2 * ((n + 1) // 2) + 7), False),
    "rotate": (
        rotate_circuit,
        lambda n: ("6n-9", 3, 3) if n == 2 else ("4n-6", 4 * n - 6, n + 5),
        False,
    ),
    "reverse": (
        reverse_circuit, lambda n: ("n^2-1", n * n - 1, 3 if n == 2 else 2 * n + 2), True
    ),
}


def odd_even_network(n: int) -> tuple[range, ...]:
    """Layers of the odd-even transposition network, each a range of
    comparator positions: depth n (1 at n=2), size n(n-1)/2, O(n) memory."""
    if n < 2:
        raise ValueError(f"need at least 2 wires, got {n}")
    return tuple(range(1 + t % 2, n, 2) for t in range(1 if n == 2 else n))


def _sorting_run(
    layers: Sequence[Iterable[int]], labels: list[int], values: list[int], box: Callable
) -> Circuit:
    """Sort labels in place with comparator layers, a box of gates per swap.

    box(p, k) names the gates for the swap at p that moves label k up
    onto wire p, an entry of _BOX_GATES: one to three of "u" for up(p)
    and "d" for down(p).  They are applied to values and ORed straight
    into slice masks, each in the first slice after every earlier gate
    on its wires, which is where schedule puts them.  The run stops once
    the labels are sorted.
    """
    cap = 3 * len(layers)
    ups, downs, last = [0] * cap, [0] * cap, [0] * len(labels)
    goal = sorted(labels)
    for layer in layers:
        if labels == goal:
            break
        for p in layer:
            j, k = labels[p - 1], labels[p]
            if j < k:
                continue
            labels[p - 1], labels[p] = k, j
            gates = box(p, k)
            a, b, bit = last[p - 1], last[p], 1 << p
            s = a if a > b else b
            u, v = values[p - 1], values[p]
            for kind in gates:
                if kind == "u":
                    ups[s] |= bit
                    u ^= v
                else:
                    downs[s] |= bit
                    v ^= u
                s += 1
            values[p - 1], values[p] = u, v
            last[p - 1] = last[p] = s
    depth = max(last, default=0)
    return Circuit(len(labels), tuple(ups[:depth]), tuple(downs[:depth]))


def fired_comparators(labels: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """Comparators that actually swap when the odd-even network sorts the
    labels: one (possibly empty) tuple of positions per layer."""
    lab = list(labels)
    out = []
    for layer in odd_even_network(len(lab)):
        fired = []
        for p in layer:
            if lab[p - 1] > lab[p]:
                lab[p - 1], lab[p] = lab[p], lab[p - 1]
                fired.append(p)
        out.append(tuple(fired))
    return tuple(out)


def check_permutation(perm: Sequence[int]) -> None:
    """Raise ValueError unless perm lists 1..len(perm) in some order."""
    if sorted(perm) != list(range(1, len(perm) + 1)):
        raise ValueError(f"{clip(repr(perm))} is not a permutation of 1..{len(perm)}")


def inversion_count(perm: Sequence[int]) -> int:
    """Number of pairs i < j with perm[i] > perm[j], by merge sort."""

    def sort_count(seq: list) -> tuple[list, int]:
        half = len(seq) // 2
        if not half:
            return seq, 0
        (left, count), (right, more) = sort_count(seq[:half]), sort_count(seq[half:])
        i = 0
        for x in right:
            while i < half and left[i] <= x:
                i += 1
            # x sits below the left entries from i on
            count += half - i
        return sorted(left + right), count + more

    return sort_count(list(perm))[1]


def permutation_circuit(perm: Sequence[int]) -> Circuit:
    """Route wire contents so that wire perm[i-1] ends with a_i.

    Each comparator of the odd-even network that finds its labels out
    of order becomes a 3-gate swap, so the size is 3 times the
    inversion count of perm and the depth is at most 3n.  The run stops
    once the labels are sorted, so its work grows with the swaps.
    """
    check_permutation(perm)
    n = len(perm)
    swap = _BOX_GATES[("v", "u")]
    return _sorting_run(odd_even_network(n), list(perm), [0] * n, lambda p, k: swap)


# Minimal gate sequences, in _sorting_run's form ("u" for up(p), "d" for
# down(p)), for every valid output pair; upper wire input u, lower v.
# Fully specified pairs realize the exact optimal depths 0,1,1,2,2,3;
# pairs with one free output need depth at most 2.
_BOX_GATES: dict[tuple[str, str], str] = {
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


def gather_moves(n: int, positions: Sequence[int]) -> tuple[int, list[tuple[int, int]]]:
    """The window start and the (source, destination) wire of each value
    gather_circuit moves, in the order it moves them.

    With k = ceil(n/2) and j positions at or below wire k, the window
    starts at wire k - j + 1.  Each move costs 3 gates per wire crossed,
    so the circuit has 3 * sum(|source - destination|) gates.
    """
    pos = list(positions)
    m = len(pos)
    if not 2 <= m <= n:
        raise ValueError(f"need between 2 and {n} positions, got {m}")
    if pos != sorted(set(pos)) or pos[0] < 1 or pos[-1] > n:
        raise ValueError(f"positions must be strictly increasing within 1..{n}")
    k = (n + 1) // 2
    j = sum(1 for p in pos if p <= k)
    # below-window values move down first, then above-window values move
    # up, innermost first on each side
    slots = list(range(j, 0, -1)) + list(range(j + 1, m + 1))
    return k - j + 1, [(pos[slot - 1], k - j + slot) for slot in slots]


def gather_circuit(n: int, positions: Sequence[int]) -> tuple[Circuit, int]:
    """Move the values at the given positions onto consecutive wires.

    After the circuit, the wire at window slot l carries exactly the
    initial value of positions[l-1] and no other wire depends on it, so
    undoing the circuit restores the rest.  gather_moves gives the window.

    Args:
        n: wire count.
        positions: strictly increasing wires to gather, 2 <= len <= n.

    Returns:
        (circuit, window_start)
    """
    window_start, moves = gather_moves(n, positions)
    gates: list[int] = []
    for src, dst in moves:
        # a value below the window cascades down, one above it cascades up
        rng = range(src, dst) if src < dst else range(src - 1, dst - 1, -1)
        for kind in (up, down, up):
            gates += [kind(i) for i in rng]
    return schedule(n, gates), window_start
