"""Named circuit families: pinned depths, closed-form sizes, semantics."""

import hashlib
import itertools
import random
import time

import pytest
from hypothesis import given, strategies as st

from cnotline import (
    BitMatrix,
    add_circuit,
    circuit_to_text,
    fired_comparators,
    gather_circuit,
    GATHER_DEPTH_PER_POSITION,
    inversion_count,
    matrix_of,
    odd_even_network,
    permutation_circuit,
    reverse_circuit,
    rotate_circuit,
    rotation_block,
    schedule,
    swap_circuit,
)
from cnotline.constructions import FAMILIES
from conftest import (
    add_target,
    box_gates,
    cyclic_matrix,
    oracle_permutation_circuit,
    oracle_permutation_matrix,
    slice_gates,
    slice_violations,
    source,
    swap_target,
    target,
)


def ceil_half(n):
    return (n + 1) // 2


def test_pinned_depth_add():
    assert add_circuit(10).depth == 13


def test_pinned_depth_swap():
    assert swap_circuit(9).depth == 17


def test_pinned_depth_rotate():
    assert rotate_circuit(10).depth == 15


def test_pinned_reverse():
    c = reverse_circuit(9)
    assert c.depth == 20 and c.size == 80


def test_pinned_odd_even_network():
    layers = odd_even_network(7)
    assert len(layers) == 7 and sum(map(len, layers)) == 21


FAMILY_TARGETS = {
    "add": add_target,
    "swap": swap_target,
    # n = 2 builds the swap
    "rotate": lambda n: swap_target(2) if n == 2 else cyclic_matrix(n),
    "reverse": BitMatrix.anti_identity,
}


def _family_test(name):
    @pytest.mark.parametrize("n", range(2, 33))
    def test(n):
        build, cost, exact_depth = FAMILIES[name]
        c = build(n)
        _, size, depth = cost(n)
        assert c.size == size
        assert c.depth == depth if exact_depth else c.depth <= depth
        assert matrix_of(c) == FAMILY_TARGETS[name](n)
        assert not slice_violations(c)

    return test


# test_add_formulas_and_target and its kin: one test per FAMILIES entry,
# so a family added later is checked too
for _name in FAMILIES:
    globals()[f"test_{_name}_formulas_and_target"] = _family_test(_name)


def test_add_size_at_n2():
    # 4n-7 holds down to n=2: a single gate
    assert add_circuit(2).size == 1 == 4 * 2 - 7


def test_rotation_block_windows(rng):
    for _ in range(60):
        n = rng.randint(3, 12)
        lo = rng.randint(1, n - 1)
        hi = rng.randint(lo + 1, n)
        primary, variant = rotation_block(lo, hi)
        cols = [1 << (j - 1) for j in range(1, n + 1)]
        for i in range(lo, hi):
            cols[i - 1] = 1 << i
        cols[hi - 1] = 1 << (lo - 1)
        target = BitMatrix(n, tuple(cols))
        for gates in (primary, variant):
            assert len(gates) == 4 * (hi - lo) - 1
            c = schedule(n, gates)
            assert matrix_of(c) == target
            assert c.depth <= 2 * (hi - lo) + 3


@pytest.mark.parametrize("lo,hi", [(3, 3), (4, 3), (0, 2)])
def test_rotation_block_rejects_empty_window(lo, hi):
    with pytest.raises(ValueError, match=rf"^bad rotation window \[{lo}, {hi}\]$"):
        rotation_block(lo, hi)


def test_odd_even_network_shape():
    for n in range(2, 11):
        layers = odd_even_network(n)
        assert sum(map(len, layers)) == n * (n - 1) // 2
        assert len(layers) == (1 if n == 2 else n)
        for layer in layers:
            assert all(1 <= p <= n - 1 for p in layer)
            assert all(b - a >= 2 for a, b in zip(layer, layer[1:]))


@pytest.mark.parametrize("n", range(2, 8))
def test_odd_even_network_sorts_everything(n):
    for perm in itertools.permutations(range(1, n + 1)):
        labels = list(perm)
        fired = fired_comparators(labels)
        work = list(perm)
        count = 0
        for layer in fired:
            for p in layer:
                work[p - 1], work[p] = work[p], work[p - 1]
                count += 1
        assert work == sorted(perm)
        assert count == inversion_count(perm)


def test_inversion_count_oracle(rng):
    for _ in range(200):
        n = rng.randint(1, 10)
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        want = sum(
            1
            for i in range(n)
            for j in range(i + 1, n)
            if perm[i] > perm[j]
        )
        assert inversion_count(perm) == want


@given(st.lists(st.integers(-5, 5), max_size=40))
def test_inversion_count_matches_brute_force(seq):
    want = sum(
        1 for i in range(len(seq)) for j in range(i + 1, len(seq)) if seq[i] > seq[j]
    )
    assert inversion_count(seq) == want


def test_permutation_circuit_matches_gate_list_oracle():
    rng = random.Random(300)
    for n in range(2, 301):
        swapped = list(range(1, n + 1))
        i = rng.randrange(n - 1)
        swapped[i : i + 2] = swapped[i + 1], swapped[i]
        shuffled = list(range(1, n + 1))
        rng.shuffle(shuffled)
        perms = [list(range(1, n + 1)), swapped]
        # shuffles and the reversal fire about n^2/4 and n^2/2 swaps,
        # too many to check at every n up to 300
        if n <= 60 or n % 20 == 0:
            perms += [shuffled, list(range(n, 0, -1))]
        for perm in perms:
            assert circuit_to_text(permutation_circuit(perm)) == circuit_to_text(
                oracle_permutation_circuit(perm)
            )


@pytest.mark.parametrize("swap_at", [None, 1, 2, 9999, 19999])
def test_permutation_circuit_scales_with_swaps(swap_at):
    # the run stops once the labels are sorted: no n^2 network is built
    perm = list(range(1, 20001))
    if swap_at is not None:
        perm[swap_at - 1 : swap_at + 1] = perm[swap_at], perm[swap_at - 1]
    start = time.perf_counter()
    c = permutation_circuit(perm)
    assert time.perf_counter() - start < 1.0
    assert c.size == (0 if swap_at is None else 3)
    assert c.depth == (0 if swap_at is None else 3)


def test_permutation_circuit_properties(rng):
    for _ in range(150):
        n = rng.randint(2, 16)
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        c = permutation_circuit(perm)
        assert c.size == 3 * inversion_count(perm)
        assert c.depth <= 3 * n
        assert matrix_of(c) == oracle_permutation_matrix(perm)
        assert not slice_violations(c)


def test_permutation_identity_is_empty():
    assert permutation_circuit([1, 2, 3]).depth == 0


def test_permutation_reversal_matches_anti_identity():
    perm = [5, 4, 3, 2, 1]
    assert oracle_permutation_matrix(perm) == BitMatrix.anti_identity(5)
    assert matrix_of(permutation_circuit(perm)) == BitMatrix.anti_identity(5)


def test_permutation_matrix_semantics():
    # wire perm[i-1] ends holding input a_i
    perm = [2, 3, 1]
    m = matrix_of(permutation_circuit(perm))
    for i, image in enumerate(perm, start=1):
        assert m.cols[image - 1] == 1 << (i - 1)


def test_permutation_rejects_bad_input():
    for bad in [[1, 1], [0, 1], [2, 3], []]:
        with pytest.raises(ValueError):
            permutation_circuit(bad)


BOX_TABLE = [
    (("u", "v"), 0),
    (("u", "u^v"), 1),
    (("u^v", "v"), 1),
    (("u^v", "u"), 2),
    (("v", "u^v"), 2),
    (("v", "u"), 3),
    (("u", "free"), 0),
    (("v", "free"), 2),
    (("u^v", "free"), 1),
    (("free", "v"), 0),
    (("free", "u"), 2),
    (("free", "u^v"), 1),
]

SYMBOL = {"u": frozenset("u"), "v": frozenset("v"), "u^v": frozenset("uv")}


@pytest.mark.parametrize("outputs,want_depth", BOX_TABLE)
def test_box_symbolic_outputs_and_depth(outputs, want_depth):
    """Run the box as symbol sets: XOR is symmetric difference."""
    position = 3
    gates = box_gates(position, outputs)
    assert all(min(target(g), source(g)) == position for g in gates)
    c = schedule(position + 1, gates)
    assert c.depth == want_depth
    state = {position: frozenset("u"), position + 1: frozenset("v")}
    for sl in zip(c.ups, c.downs):
        for g in slice_gates(sl):
            state[target(g)] = state[target(g)] ^ state[source(g)]
    for wire, token in zip((position, position + 1), outputs):
        if token != "free":
            assert state[wire] == SYMBOL[token]


def test_gather_postconditions(rng):
    for _ in range(250):
        n = rng.randint(2, 16)
        m = rng.randint(2, n)
        positions = sorted(rng.sample(range(1, n + 1), m))
        c, window_start = gather_circuit(n, positions)
        k = ceil_half(n)
        j = sum(1 for p in positions if p <= k)
        assert window_start == k - j + 1
        state = matrix_of(c)
        for offset, p in enumerate(positions):
            w = window_start + offset
            assert state.cols[w - 1] == 1 << (p - 1)
            assert state.packed_rows()[p - 1] == 1 << (w - 1)
        assert c.depth <= k + GATHER_DEPTH_PER_POSITION * m
        assert not slice_violations(c)


def test_gather_depth_constant_is_pinned():
    """The per-position constant 4 always suffices and 3 does not."""
    rng = random.Random(11)
    three_fails = False
    for n in range(2, 17):
        k = ceil_half(n)
        for m in range(2, n + 1):
            for positions in _position_samples(n, m, rng):
                c, _ = gather_circuit(n, positions)
                assert c.depth <= k + 4 * m, (n, positions, c.depth)
                if c.depth > k + 3 * m:
                    three_fails = True
    assert three_fails


def _position_samples(n, m, rng):
    yield list(range(1, m + 1))
    yield list(range(n - m + 1, n + 1))
    yield list(range(1, m)) + [n]
    for _ in range(6):
        yield sorted(rng.sample(range(1, n + 1), m))


def test_gather_two_ends_reproduces_swap_window():
    n = 9
    c, window_start = gather_circuit(n, [1, n])
    state = matrix_of(c)
    k = ceil_half(n)
    assert window_start == k
    assert state.cols[k - 1] == 1
    assert state.cols[k] == 1 << (n - 1)


def test_gather_adjacent_positions_give_empty_circuit():
    c, window_start = gather_circuit(7, [3, 4, 5])
    assert c.depth == 0 and window_start == 3


def test_gather_example_window():
    n = 11
    positions = [1, 4, 9, 11]
    c, window_start = gather_circuit(n, positions)
    state = matrix_of(c)
    for offset, p in enumerate(positions):
        w = window_start + offset
        assert state.cols[w - 1] == 1 << (p - 1)
        assert state.packed_rows()[p - 1] == 1 << (w - 1)


def test_gather_rejects_bad_positions():
    for n, positions in [(5, [2]), (5, [0, 3]), (5, [3, 3]), (5, [4, 2]), (5, [1, 9])]:
        with pytest.raises(ValueError):
            gather_circuit(n, positions)


def test_constructions_reject_tiny_n():
    for build in (add_circuit, swap_circuit, rotate_circuit, reverse_circuit):
        with pytest.raises(ValueError):
            build(1)


# SHA-256 of circuit_to_text at n = 2..69, concatenated, generated while
# the families still built Gate objects for schedule and rotation_block
PINNED_FAMILY_TEXT = {
    "add": "ae0006a72a095234d5bd8c1beff3b56b32bb4ff741a9021b4bfc6c362d60aea6",
    "swap": "20ad635b32302b16df7d7e4221b6e46f6bb3986aefd474c340835eca6e75c249",
    "rotate": "a6e9833bf7c4164f1a169ad1dfdc9cdb27e91738606c9afdf7e3908b5799d270",
    "reverse": "9224e8f49e5ae2bff97cdcb84015cbdb4a34b3b9b5000762ef9a7f0060a53bfe",
}


@pytest.mark.parametrize("name", sorted(PINNED_FAMILY_TEXT))
def test_family_text_is_pinned(name):
    build = FAMILIES[name][0]
    digest = hashlib.sha256()
    for n in range(2, 70):
        digest.update(circuit_to_text(build(n)).encode("ascii"))
    assert digest.hexdigest() == PINNED_FAMILY_TEXT[name]


def test_gather_text_is_pinned():
    # six (n, positions) drawn from random.Random(14), generated with the
    # family pins above
    rng = random.Random(14)
    digest = hashlib.sha256()
    for _ in range(6):
        n = rng.randint(2, 40)
        positions = sorted(rng.sample(range(1, n + 1), rng.randint(2, n)))
        c, window_start = gather_circuit(n, positions)
        digest.update(f"{window_start}\n{circuit_to_text(c)}".encode("ascii"))
    assert digest.hexdigest() == (
        "4e69e460e0d3f348882ccc3ad1a4d4278176f6aebc3e68b988371d26d88a6b14"
    )
