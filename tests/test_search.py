"""Exhaustive BFS over GL_n(2): generator sets, table values, witnesses."""

import math

import pytest

from cnotline import (
    BitMatrix,
    ResourceLimitError,
    distance,
    down,
    from_gate_tokens,
    matrix_of,
    max_depth,
    reverse_circuit,
    rotate_circuit,
    slice_generators,
    up,
    validate,
)
from cnotline.search import (
    _bfs_bitmap,
    _bfs_dense,
    _packed_generators,
    decode_state,
    encode_state,
)


def gl_order(n):
    return math.prod((1 << n) - (1 << i) for i in range(n))


def slice_count_recurrence(n):
    g = [1, 3]
    for _ in range(2, n):
        g.append(g[-1] + 2 * g[-2])
    return g[n - 1] - 1


def test_slice_generator_counts():
    for n in range(2, 9):
        assert len(slice_generators(n)) == slice_count_recurrence(n)
    assert len(slice_generators(2)) == 2
    assert len(slice_generators(3)) == 4
    assert len(slice_generators(6)) == 42


def test_slice_generators_n3_exact():
    got = {frozenset(s.gates) for s in slice_generators(3)}
    assert got == {
        frozenset({up(1)}),
        frozenset({down(1)}),
        frozenset({up(2)}),
        frozenset({down(2)}),
    }


def test_slice_generators_are_wire_disjoint():
    for n in (4, 5, 6):
        for s in slice_generators(n):
            wires = [w for g in s.gates for w in (g.position, g.position + 1)]
            assert len(wires) == len(set(wires))


def test_slice_generators_range():
    for n in (1, 9):
        with pytest.raises(ValueError):
            slice_generators(n)


def test_encode_decode_round_trip(rng):
    for _ in range(100):
        n = rng.randint(2, 8)
        m = BitMatrix(n, tuple(rng.randrange(1 << n) for _ in range(n)))
        assert decode_state(n, encode_state(m)) == m


def test_packed_slice_application_matches_apply(rng):
    from cnotline import apply, Circuit

    for n in (3, 4, 5):
        slices = slice_generators(n)
        packed = _packed_generators(n)
        for s, (um, dm) in zip(slices, packed):
            m = BitMatrix(n, tuple(rng.randrange(1 << n) for _ in range(n)))
            code = encode_state(m)
            stepped = code ^ ((code & um) >> 1) ^ ((code & dm) << 1)
            assert decode_state(n, stepped) == apply(Circuit(n, (s,)), m)


@pytest.mark.parametrize("n,want", [(2, 3), (3, 8), (4, 10)])
def test_max_depth_table(n, want):
    result = max_depth(n)
    assert result.value == want
    assert result.completed
    assert result.visited_count == gl_order(n)
    assert result.mode == "diameter"


@pytest.mark.parametrize("n,want", [(2, 3), (3, 8), (4, 10)])
def test_distance_to_reversal(n, want):
    result = distance(n, BitMatrix.anti_identity(n))
    assert result.value == want
    assert result.completed
    # the reversal construction is depth-optimal at these sizes
    assert result.value == reverse_circuit(n).depth


def test_distance_identity_is_zero():
    result = distance(3, BitMatrix.identity(3))
    assert result.value == 0 and result.completed


def test_distance_witness_is_a_minimum_depth_circuit():
    for n in (3, 4):
        target = BitMatrix.anti_identity(n)
        result = distance(n, target, witness=True)
        w = result.witness
        assert w is not None
        assert w.depth == result.value
        assert matrix_of(w) == target
        assert not validate(w)


def test_distance_never_exceeds_construction_depth():
    for c in (reverse_circuit(4), rotate_circuit(4), from_gate_tokens(4, ["u1", "d2", "u3"])):
        result = distance(4, matrix_of(c))
        assert result.value <= c.depth


def test_distance_depth_limit_reports_lower_bound():
    result = distance(4, BitMatrix.anti_identity(4), depth_limit=5)
    assert not result.completed
    assert result.value == 5
    # reachable targets inside the limit still complete
    shallow = matrix_of(from_gate_tokens(4, ["u1", "d2"]))
    ok = distance(4, shallow, depth_limit=5)
    assert ok.completed and ok.value <= 2


def test_sparse_path_handles_n6_with_limit():
    c = from_gate_tokens(6, ["u1", "d3", "u5", "d1"])
    result = distance(6, matrix_of(c), depth_limit=4, witness=True)
    assert result.completed
    assert result.value <= c.depth
    assert matrix_of(result.witness) == matrix_of(c)
    deep = distance(6, BitMatrix.anti_identity(6), depth_limit=3)
    assert not deep.completed and deep.value == 3


def test_distance_input_validation():
    with pytest.raises(ValueError):
        distance(3, BitMatrix.identity(4))
    with pytest.raises(ValueError):
        distance(3, BitMatrix(3, (1, 1, 4)))
    with pytest.raises(ValueError):
        distance(3, BitMatrix.anti_identity(3), depth_limit=-1)
    with pytest.raises(ResourceLimitError):
        distance(6, BitMatrix.anti_identity(6))


def test_max_depth_refuses_huge_without_flag():
    with pytest.raises(ResourceLimitError):
        max_depth(6)
    with pytest.raises(ValueError):
        max_depth(7, allow_huge=True)
    with pytest.raises(ValueError):
        max_depth(1)


def test_bitmap_sweep_matches_dense_sweep():
    for n in (2, 3, 4):
        ecc_bitmap, visited_bitmap = _bfs_bitmap(n)
        _, _, visited_dense, ecc_dense = _bfs_dense(n, None, None, False)
        assert ecc_bitmap == ecc_dense
        assert visited_bitmap == visited_dense == gl_order(n)


def _distance_map(n, gens):
    start = encode_state(BitMatrix.identity(n))
    dist = {start: 0}
    frontier = [start]
    level = 0
    while frontier:
        level += 1
        nxt = []
        for code in frontier:
            for um, dm in gens:
                nb = code ^ ((code & um) >> 1) ^ ((code & dm) << 1)
                if nb not in dist:
                    dist[nb] = level
                    nxt.append(nb)
        frontier = nxt
    return dist


def test_maximal_slice_convention_not_equivalent():
    """Restricting generators to maximal slices preserves reachability
    but can only lengthen distances; at n=4 it strictly does, so the two
    conventions disagree and the all-nonempty-slices set is the one that
    reproduces the published depth table."""
    for n in (2, 3, 4):
        slices = slice_generators(n)
        packed = _packed_generators(n)
        sets = [s.gates for s in slices]
        maximal = [
            p for s, p in zip(sets, packed) if not any(s < t for t in sets)
        ]
        full = _distance_map(n, packed)
        restricted = _distance_map(n, maximal)
        assert set(full) == set(restricted)
        assert all(restricted[code] >= d for code, d in full.items())
        if n <= 3:
            assert restricted == full
        else:
            assert any(restricted[code] > d for code, d in full.items())
            assert max(restricted.values()) > max(full.values())
