"""Exhaustive BFS over GL_n(2): generator sets, table values, witnesses."""

import functools
import hashlib
import math
import random
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from cnotline import (
    BitMatrix,
    ResourceLimitError,
    circuit_to_text,
    distance,
    down,
    matrix_lower_bounds,
    matrix_of,
    max_depth,
    reverse_circuit,
    rotate_circuit,
    slice_generators,
    up,
)
from cnotline import search
from cnotline.constructions import FAMILIES
from cnotline.search import (
    _apply_slice,
    _dense_levels,
    _gate_terms,
    _keys,
    _members,
    _mirror,
    _sorted_levels,
    _term_values,
    _unknown,
    _witness_from_levels,
    encode_state,
)
from conftest import (
    circuit_of,
    decode_state,
    from_lists,
    oracle_keys,
    oracle_mirror,
    oracle_mirror_slice,
    oracle_set_bfs,
    packed_generators,
    random_invertible,
    schedule_tokens,
    slice_gates,
    slice_violations,
    source,
    target,
    walk_levels,
)

# states at distance 0..5 from the identity in GL_6(2)
BALL_6_5 = (1, 42, 618, 6428, 61390, 450824)


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
    got = {frozenset(slice_gates(s)) for s in slice_generators(3)}
    assert got == {
        frozenset({up(1)}),
        frozenset({down(1)}),
        frozenset({up(2)}),
        frozenset({down(2)}),
    }


def test_slice_generators_are_wire_disjoint():
    for n in (4, 5, 6):
        for s in slice_generators(n):
            wires = [w for g in slice_gates(s) for w in (target(g), source(g))]
            assert len(wires) == len(set(wires))


def test_slice_generators_range():
    for n in (1, 9):
        with pytest.raises(ValueError):
            slice_generators(n)


def test_encode_state_layout_matches_list_oracle(rng):
    # bit (i-1)*n + (j-1) holds entry (i, j)
    for _ in range(100):
        n = rng.randint(1, 8)
        entries = [[rng.randrange(2) for _ in range(n)] for _ in range(n)]
        m = from_lists(entries)
        code = sum(
            entries[i][j] << (i * n + j) for i in range(n) for j in range(n)
        )
        assert encode_state(m) == code
        assert decode_state(n, code) == m


def test_encode_decode_round_trip(rng):
    for _ in range(100):
        n = rng.randint(2, 8)
        m = BitMatrix(n, tuple(rng.randrange(1 << n) for _ in range(n)))
        assert decode_state(n, encode_state(m)) == m


def test_packed_slice_application_matches_apply(rng):
    from cnotline import apply, Circuit

    for n in (3, 4, 5):
        slices = slice_generators(n)
        packed = packed_generators(n)
        for s, (um, dm) in zip(slices, packed):
            m = BitMatrix(n, tuple(rng.randrange(1 << n) for _ in range(n)))
            code = encode_state(m)
            stepped = code ^ ((code & um) >> 1) ^ ((code & dm) << 1)
            assert decode_state(n, stepped) == apply(Circuit(n, (s[0],), (s[1],)), m)


@pytest.mark.parametrize("n", range(2, 9))
def test_gate_terms_compose_to_packed_generators(n):
    # the engines' dtypes: int32 holds every code at n <= 5; at n = 8 bit
    # 63 is entry (8, 8), which the uint64 << 1 of a down term drops
    dtype = np.int32 if n <= search.DENSE_LIMIT else np.uint64
    rng = random.Random(n)
    codes = [rng.getrandbits(n * n) for _ in range(1000)]
    if n == 8:
        codes[::4] = [code | 1 << 63 for code in codes[::4]]
    block = np.array(codes, dtype=dtype)
    terms, gens = _gate_terms(n, dtype)
    assert len(terms) == 2 * (n - 1)
    values = _term_values(block, terms, np.empty((len(terms), block.size), dtype))
    packed = packed_generators(n)
    assert len(gens) == len(packed)
    got = np.empty_like(block)
    for gates, (up_mask, down_mask) in zip(gens, packed):
        _apply_slice(block, values, gates, got)
        want = [c ^ ((c & up_mask) >> 1) ^ ((c & down_mask) << 1) for c in codes]
        assert got.tolist() == want


def _seeded_codes(n, count=1000):
    """Seeded n^2-bit codes, a quarter of them with the top bit n^2 - 1 set."""
    rng = random.Random(100 + n)
    codes = [rng.getrandbits(n * n) for _ in range(count)]
    codes[::4] = [code | 1 << (n * n - 1) for code in codes[::4]]
    return codes


@pytest.mark.parametrize("n", range(2, 9))
def test_mirror_matches_string_reversal(n):
    # at n = 8 the top bit is bit 63 of the uint64
    codes = _seeded_codes(n)
    block = np.array(codes, dtype=np.uint64)
    got = _mirror(block, n)
    assert got.tolist() == [oracle_mirror(n, code) for code in codes]
    assert block.tolist() == codes
    assert _mirror(got, n).tolist() == codes
    identity = encode_state(BitMatrix.identity(n))
    assert _mirror(np.array([identity], dtype=np.uint64), n).tolist() == [identity]
    # the sorted engine's key of each state
    assert _keys(block, n).tolist() == [min(code, oracle_mirror(n, code)) for code in codes]


@pytest.mark.parametrize("n", [3, 5, 6, 8])
def test_members_matches_python_in(n):
    # each engine's dtype; at n = 8 a quarter of the codes have bit 63 set
    dtype = np.int32 if n <= search.DENSE_LIMIT else np.uint64
    top = (1 << n * n) - 1
    codes = _seeded_codes(n)
    held = sorted({code for code in random.Random(n).sample(codes, 300) if 0 < code < top})
    # 0 lies below the first entry and top above the last
    probes = codes + [0, top, held[0], held[-1]]
    for level in ([], held):
        got = _members(np.array(probes, dtype=dtype), np.array(level, dtype=dtype))
        assert got.tolist() == [code in level for code in probes]


def _drop_sets(fresh_size, known_size, ends, seed):
    """Key sets of these sizes from seeded n = 8 codes (bit 63 set in
    about half), sharing half of the smaller.  ends names the set or sets
    that hold the smallest and largest code: both share them, or one of
    them holds the other's out-of-range neighbours."""
    rng = random.Random(seed)
    pool = sorted({rng.getrandbits(64) for _ in range(2 * (fresh_size + known_size) + 2)})
    lo, hi, middle = pool[0], pool[-1], pool[1:-1]
    rng.shuffle(middle)
    rest = iter(middle)
    shared = [next(rest) for _ in range(min(fresh_size, known_size) // 2)]
    fresh = {lo, hi} if fresh_size and ends in ("both", "fresh") else set()
    known = {lo, hi} if known_size and ends in ("both", "known") else set()
    for keys, size in ((fresh, fresh_size), (known, known_size)):
        keys.update(shared[: size - len(keys)])
        while len(keys) < size:
            keys.add(next(rest))
    assert (len(fresh), len(known)) == (fresh_size, known_size)
    return fresh, known


@pytest.mark.parametrize("ends", ["both", "fresh", "known"])
@pytest.mark.parametrize(
    "fresh_size,known_size",
    [(300, 40), (40, 300), (120, 120), (50, 0), (0, 50), (0, 0), (2, 2)],
    ids=["fresh-larger", "fresh-smaller", "same-size", "known-empty",
         "fresh-empty", "both-empty", "two-each"],
)
def test_unknown_matches_set_difference(fresh_size, known_size, ends):
    # the sorted engine's drop step searches the smaller side in the larger
    fresh, known = _drop_sets(fresh_size, known_size, ends, 1000 * fresh_size + known_size)
    # about half the codes have bit 63 set, shared ones among them
    assert min(fresh_size, known_size) < 40 or any(code >> 63 for code in fresh & known)
    got = _unknown(np.array(sorted(fresh), dtype=np.uint64), np.array(sorted(known), dtype=np.uint64))
    assert got.dtype == np.uint64
    assert got.tolist() == sorted(fresh - known)


@pytest.mark.parametrize("n", range(2, 9))
def test_mirror_maps_each_slice_to_its_reflection(n):
    # mirror(s S) = mirror(s) S' for S' = J S J, a slice again; the sorted
    # engine applies S' as S's gate terms of mirror(s) in reverse order
    codes = _seeded_codes(n)
    block = np.array(codes, dtype=np.uint64)
    mirrored = _mirror(block, n)
    terms, gens = _gate_terms(n, np.uint64)
    values = _term_values(mirrored, terms, np.empty((len(terms), block.size), np.uint64))
    slices = slice_generators(n)
    packed = packed_generators(n)
    got = np.empty_like(block)
    for sl, (up_mask, down_mask), gates in zip(slices, packed, gens):
        up_bar, down_bar = packed[slices.index(oracle_mirror_slice(n, sl))]
        want = [oracle_mirror(n, c ^ ((c & up_mask) >> 1) ^ ((c & down_mask) << 1))
                for c in codes]
        assert [
            m ^ ((m & up_bar) >> 1) ^ ((m & down_bar) << 1)
            for m in map(int, mirrored)
        ] == want
        _apply_slice(mirrored, values[::-1], gates, got)
        assert got.tolist() == want


def _fresh_levels(n):
    """The dense engine's levels from a table of its own."""
    return _dense_levels(n, np.zeros(1 << (n * n), dtype=np.uint8))


def _transpose_code(n, code):
    return sum((code >> (i * n + j) & 1) << (j * n + i) for i in range(n) for j in range(n))


def test_gl4_depth_is_invariant_under_mirror_and_transpose():
    # the gate of orbit levels (one code per symmetry class): every state
    # of GL_4(2) sits at the dense engine's depth of its J-conjugate and
    # of its transpose
    _, levels, sizes = walk_levels(_fresh_levels(4))
    assert sum(sizes) == gl_order(4)
    depth = {int(code): d for d, level in enumerate(levels) for code in level}
    for code, d in depth.items():
        assert depth[oracle_mirror(4, code)] == d
        assert depth[_transpose_code(4, code)] == d


def test_dense_levels_are_int32():
    _, levels, sizes = walk_levels(_fresh_levels(3))
    assert sum(sizes) == gl_order(3)
    assert {level.dtype for level in levels} == {np.dtype(np.int32)}


def test_dense_sweep_memory():
    # a cold sweep: int32 codes and per-gate term buffers.  The int64
    # engine peaked at 107 MB here, most of it in the levels and their
    # concatenation.  Afterwards the process keeps the 32 MB depth table
    # and the level sizes, and no level or part of one.
    search._BALLS.clear()
    tracemalloc.start()
    try:
        result = max_depth(5)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (result.value, result.visited_count) == (13, gl_order(5))
    assert peak < 85 << 20
    assert kept < (32 << 20) + (1 << 20)


def test_suspended_table_keeps_only_the_newest_level():
    # between calls the table's walk waits after its newest level: no
    # part of that level and nothing of the level before stays behind
    search._BALLS.pop(5, None)
    tracemalloc.start()
    try:
        result = distance(5, BitMatrix.anti_identity(5), depth_limit=10)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert (result.value, result.completed) == (10, False)
    newest = 4 * result.level_sizes[-1]  # int32 codes, 14 MB
    assert kept < (32 << 20) + newest + (2 << 20)


def _outcome(result):
    witness = None if result.witness is None else circuit_to_text(result.witness)
    return result.value, result.completed, result.level_sizes, witness


def _cold(n, target, limit):
    search._BALLS.pop(n, None)
    return _outcome(distance(n, target, limit, witness=True))


@pytest.mark.parametrize("n,seed", [(3, 1), (4, 2), (4, 3), (5, 4), (5, 5)])
def test_warm_table_answers_as_a_cold_one(n, seed):
    # each order starts from a cleared table: its first call grows it,
    # and the later calls grow it further or only read it
    target = random_invertible(n, random.Random(seed))
    dist = _cold(n, target, None)[0]
    limits = sorted({0, max(dist - 1, 0), dist, dist + 1}) + [None]
    cold = {limit: _cold(n, target, limit) for limit in limits}
    assert cold[None][:2] == (dist, True)
    for order in (limits[::-1], limits):
        search._BALLS.pop(n, None)
        for limit in order:
            assert _outcome(distance(n, target, limit, witness=True)) == cold[limit]


def test_max_depth_after_a_limited_search_is_the_cold_sweep():
    search._BALLS.pop(5, None)
    cold = max_depth(5)
    search._BALLS.pop(5, None)
    shallow = distance(5, BitMatrix.anti_identity(5), depth_limit=4)
    assert (shallow.value, shallow.completed) == (4, False)
    assert max_depth(5) == cold
    assert sum(cold.level_sizes) == gl_order(5)


def test_gl4_depth_table_matches_the_levels():
    max_depth(4)
    table = search._BALLS[4][0]
    _, levels, sizes = walk_levels(_fresh_levels(4))
    assert np.count_nonzero(table) == sum(sizes) == gl_order(4)
    for d, level in enumerate(levels):
        assert np.all(table[level] == d + 1)


def test_a_failed_level_drops_the_table(monkeypatch):
    # a level cut short must not leave a part-written table behind
    search._BALLS.pop(4, None)
    calls = 0
    term_values = search._term_values

    def failing(*args):
        nonlocal calls
        calls += 1
        if calls == 5:
            raise MemoryError
        return term_values(*args)

    monkeypatch.setattr(search, "_term_values", failing)
    with pytest.raises(MemoryError):
        max_depth(4)
    assert 4 not in search._BALLS
    monkeypatch.undo()
    result = max_depth(4)
    assert (result.value, result.visited_count) == (10, gl_order(4))


def test_threads_share_one_table():
    # several threads grow and read one n = 4 table; each answer is the cold one
    targets = [random_invertible(4, random.Random(seed)) for seed in range(8)]
    want = [_cold(4, target, limit) for target in targets for limit in (3, None)]
    search._BALLS.pop(4, None)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(distance, 4, target, limit, witness=True)
                       for target in targets for limit in (3, None)]
            got = [_outcome(future.result(timeout=60)) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert got == want


def _sliced_target(n, seed, depth=4):
    """The matrix of depth seeded random slices: a target the sorted
    engine reaches within a small depth limit."""
    rng = random.Random(seed)
    return matrix_of(circuit_of(n, [rng.choice(slice_generators(n)) for _ in range(depth)]))


# seeded n = 6 targets at distances 4, 3 and 2, and a 3-slice n = 8
# target whose gates reach wire 8, so its code uses bit 63
SORTED_TARGETS = [
    pytest.param(6, _sliced_target(6, 0), id="n6-d4"),
    pytest.param(6, _sliced_target(6, 3), id="n6-d3"),
    pytest.param(6, _sliced_target(6, 1), id="n6-d2"),
    pytest.param(8, matrix_of(schedule_tokens(8, "u1 d3 u5 d7 d2 u4 u6 u1 d5 d7".split())),
                 id="n8-d3"),
]


@pytest.mark.parametrize("n,target", SORTED_TARGETS)
def test_warm_sorted_levels_answer_as_cold_ones(n, target):
    # as for the dense table: each order starts from no kept levels, and
    # deep-then-shallow reads levels past a shallow call's limit
    dist = _cold(n, target, 4)[0]
    limits = sorted({0, max(dist - 1, 0), dist, dist + 1})
    cold = {limit: _cold(n, target, limit) for limit in limits}
    assert cold[dist][:2] == (dist, True)
    assert cold[0][:2] == (0, False)
    for order in (limits[::-1], limits):
        search._BALLS.pop(n, None)
        for limit in order:
            assert _outcome(distance(n, target, limit, witness=True)) == cold[limit]


def test_a_witness_search_reads_the_levels_a_plain_one_kept():
    target = _sliced_target(6, 0)
    cold = _cold(6, target, 5)
    search._BALLS.pop(6, None)
    plain = _outcome(distance(6, target, 5))
    assert plain == cold[:3] + (None,)
    assert _outcome(distance(6, target, 5, witness=True)) == cold


def test_the_process_keeps_one_sorted_ball():
    # levels for another n above DENSE_LIMIT go when a call makes its own;
    # the dense tables stay
    max_depth(4)
    targets = {6: _sliced_target(6, 3), 7: _sliced_target(7, 0, depth=3)}
    want = {n: _cold(n, target, 4) for n, target in targets.items()}
    assert want[7][:2] == (3, True)
    search._BALLS.pop(6, None)
    for n in (6, 7, 6):
        assert _outcome(distance(n, targets[n], 4, witness=True)) == want[n]
        assert [m for m in search._BALLS if m > search.DENSE_LIMIT] == [n]
    assert 4 in search._BALLS


def test_a_refused_or_failed_level_keeps_the_sorted_levels(monkeypatch):
    # the levels before the one cut short stay, and the walk resumes after them
    target = _sliced_target(6, 0)
    cold = _cold(6, target, 5)
    assert cold[:2] == (4, True)
    search._BALLS.pop(6, None)
    assert distance(6, target, 2).completed is False
    kept = list(search._BALLS[6][0])
    # level 3 would make 7089 states kept
    monkeypatch.setattr(search, "SORTED_LIMIT", 7088)
    with pytest.raises(ResourceLimitError):
        distance(6, target, 5)
    assert len(kept) == 3 and all(a is b for a, b in zip(search._BALLS[6][0], kept, strict=True))
    monkeypatch.undo()
    assert _outcome(distance(6, target, 5, witness=True)) == cold

    # a level that fails part-way: level 3 takes calls 1 and 2, level 4 fails
    search._BALLS.pop(6, None)
    assert distance(6, target, 2).completed is False
    calls = 0
    term_values = search._term_values

    def failing(*args):
        nonlocal calls
        calls += 1
        if calls == 3:
            raise MemoryError
        return term_values(*args)

    monkeypatch.setattr(search, "_term_values", failing)
    with pytest.raises(MemoryError):
        distance(6, target, 5)
    assert calls == 3
    assert search._BALLS[6][2] == list(cold[2][:4])
    monkeypatch.undo()
    assert _outcome(distance(6, target, 5, witness=True)) == cold


def test_a_refused_deeper_call_leaves_the_depth_3_ball(monkeypatch):
    # grown to depth 3 under a small limit, the ball answers depth-3 calls
    # from the same four levels after a deeper call is refused
    target = _sliced_target(6, 0, depth=3)
    cold = _cold(6, target, 3)
    assert cold[:2] == (3, True)
    search._BALLS.pop(6, None)
    monkeypatch.setattr(search, "SORTED_LIMIT", 10_000)  # depth 3 keeps 7089 states
    assert _outcome(distance(6, BitMatrix.anti_identity(6), 3, witness=True))[:2] == (3, False)
    kept = list(search._BALLS[6][0])
    with pytest.raises(ResourceLimitError, match="level 4 of the n=6 search"):
        distance(6, BitMatrix.anti_identity(6), 4)
    assert _outcome(distance(6, target, 3, witness=True)) == cold
    assert len(kept) == 4 and all(a is b for a, b in zip(search._BALLS[6][0], kept, strict=True))
    # the resumed walk builds level 4 as a cold one does
    monkeypatch.undo()
    assert distance(6, BitMatrix.anti_identity(6), 4).level_sizes == BALL_6_5[:5]


def test_threads_share_one_sorted_ball():
    targets = [_sliced_target(6, seed) for seed in range(8)]
    want = [_cold(6, target, limit) for target in targets for limit in (2, 5)]
    search._BALLS.pop(6, None)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(distance, 6, target, limit, witness=True)
                       for target in targets for limit in (2, 5)]
            got = [_outcome(future.result(timeout=60)) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert got == want


def test_sorted_levels_keep_little_more_than_their_keys():
    # a depth-5 n = 6 ball keeps its levels' uint64 keys (about 2 MB) and
    # the level sizes: no chunk array or copy of a level stays behind
    search._BALLS.pop(6, None)
    tracemalloc.start()
    try:
        result = distance(6, BitMatrix.anti_identity(6), depth_limit=5)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert result.level_sizes == BALL_6_5
    keys = 8 * sum(level.size for level in search._BALLS[6][0])
    assert keys <= kept < keys + (64 << 10)


@pytest.mark.parametrize("n,limit", [(3, None), (4, None), (6, 3)], ids=["n3", "n4", "n6-d3"])
def test_ball_holds_is_membership_in_the_oracle_levels(n, limit):
    # code 0, the zero matrix, is never reached, so the ball sweeps the
    # group (the depth table) or grows to the limit (sorted keys)
    dist, holds, sizes = search._ball(n, 0, limit)
    _, levels, want = oracle_set_bfs(n, 0, None if limit is None else limit + 1)
    ball = len(want) if limit is None else limit + 1
    assert dist is None and tuple(sizes[:ball]) == want[:ball]
    # codes from every level, one past the ball's edge included, and random
    # ones (singular or, at n = 6, nearly all beyond the ball), each with
    # its mirror J s J: s and J s J share a level and the sorted engine's key
    rng = random.Random(n)
    picked = [rng.choice(level.tolist()) for level in levels for _ in range(8)]
    picked += [rng.getrandbits(n * n) for _ in range(32)]
    codes = picked + [oracle_mirror(n, code) for code in picked]
    assert any(oracle_mirror(n, code) != code for code in picked)
    for d, level in enumerate(levels[:ball]):
        members = set(level.tolist())
        got = holds(d, np.array(codes, dtype=np.uint64))
        assert got.tolist() == [code in members for code in codes]


def test_sorted_levels_record_the_levels_they_yield():
    kept = []
    walk = _sorted_levels(6, kept)
    yielded = [next(walk)[0] for _ in range(4)]
    assert len(kept) == 4 and all(a is b for a, b in zip(kept, yielded, strict=True))
    # a walk resumed from two kept levels appends the levels after them
    resumed = kept[:2]
    walk = _sorted_levels(6, resumed, sum(BALL_6_5[:2]))
    more = [next(walk) for _ in range(2)]
    assert [size for _, size in more] == list(BALL_6_5[2:4])
    assert len(resumed) == 4 and all(a is b for a, b in zip(resumed[:2], kept[:2], strict=True))
    assert all(a is b for a, (b, _) in zip(resumed[2:], more, strict=True))
    _same_levels(resumed, kept)


def test_the_sorted_ball_keeps_the_levels_its_walk_yielded(monkeypatch):
    yielded = []
    walk = search._sorted_levels

    def recording(*args):
        for level, size in walk(*args):
            yielded.append(level)
            yield level, size

    monkeypatch.setattr(search, "_sorted_levels", recording)
    search._BALLS.pop(6, None)
    assert distance(6, BitMatrix.anti_identity(6), 3).level_sizes == BALL_6_5[:4]
    assert len(yielded) == 4
    assert all(a is b for a, b in zip(search._BALLS[6][0], yielded, strict=True))
    search._BALLS.pop(6, None)


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
        assert not slice_violations(w)


def test_distance_never_exceeds_construction_depth():
    for c in (reverse_circuit(4), rotate_circuit(4), schedule_tokens(4, ["u1", "d2", "u3"])):
        result = distance(4, matrix_of(c))
        assert result.value <= c.depth


# (family depth, exact depth, depth_lb) of add, swap, rotate and reverse
FAMILY_DEPTHS = {
    2: ((1, 1, 1), (3, 3, 2), (3, 3, 2), (3, 3, 2)),
    3: ((5, 4, 2), (9, 8, 4), (6, 6, 4), (8, 8, 4)),
    4: ((5, 5, 2), (9, 9, 4), (9, 8, 4), (10, 10, 6)),
    5: ((9, 8, 2), (13, 11, 4), (10, 9, 4), (12, 12, 8)),
}


@pytest.mark.parametrize("n", sorted(FAMILY_DEPTHS))
def test_family_exact_depths(n):
    got = []
    for build, *_ in FAMILIES.values():
        c = build(n)
        m = matrix_of(c)
        got.append((c.depth, distance(n, m).value, matrix_lower_bounds(m).depth_lb))
    assert tuple(got) == FAMILY_DEPTHS[n]


def test_distance_depth_limit_reports_lower_bound():
    result = distance(4, BitMatrix.anti_identity(4), depth_limit=5)
    assert not result.completed
    assert result.value == 5
    # reachable targets inside the limit still complete
    shallow = matrix_of(schedule_tokens(4, ["u1", "d2"]))
    ok = distance(4, shallow, depth_limit=5)
    assert ok.completed and ok.value <= 2


def test_sparse_path_handles_n6_with_limit():
    c = schedule_tokens(6, ["u1", "d3", "u5", "d1"])
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


@pytest.mark.parametrize("limit", [None, 2])
def test_distance_rejects_unsupported_n_before_budget(limit):
    # n = 9 is an input error, not a refused budget, with or without a limit
    for n in (1, 9):
        with pytest.raises(ValueError, match=f"supported wire counts are 2..8, got {n}"):
            distance(n, BitMatrix.anti_identity(n), limit)


def test_max_depth_refuses_huge_without_flag():
    with pytest.raises(ResourceLimitError):
        max_depth(6)
    with pytest.raises(ValueError):
        max_depth(7)
    with pytest.raises(ValueError):
        max_depth(1)


def _same_levels(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.array_equal(np.asarray(a, dtype=np.uint64), b)


def _level_holds(levels, paired_n=None):
    """The witness walk's lookup in kept levels; with paired_n the levels
    hold the sorted engine's keys at that n."""
    def holds(d, codes):
        if paired_n is not None:
            codes = _keys(codes, paired_n)
        return _members(codes.astype(levels[d].dtype), levels[d])
    return holds


# the default chunk, and one small enough to split the larger levels
CHUNKS = pytest.mark.parametrize("chunk_codes", [search._CHUNK_CODES, 1 << 10])

# sorted and dense engine chunks: the defaults, which split no level
# below n = 5 in the dense engine, and small ones that split many; ids
# name the sorted chunk, then the dense one where it differs
ENGINE_CHUNKS = pytest.mark.parametrize(
    "chunk_codes,dense_chunk",
    [
        pytest.param(
            search._CHUNK_CODES, search._DENSE_CHUNK, id=str(search._CHUNK_CODES)
        ),
        pytest.param(1 << 10, 1 << 10, id="1024"),
        pytest.param(1 << 10, 7, id="1024-7"),
    ],
)


@functools.cache
def _oracle_levels(n, limit):
    return oracle_set_bfs(n, 0, limit)


@ENGINE_CHUNKS
@pytest.mark.parametrize("n,limit", [(3, 9), (4, 11), (5, 6)])
def test_sorted_engine_matches_dense_levels(
    monkeypatch, chunk_codes, dense_chunk, n, limit
):
    monkeypatch.setattr(search, "_CHUNK_CODES", chunk_codes)
    monkeypatch.setattr(search, "_DENSE_CHUNK", dense_chunk)
    # the zero matrix is never reached, so every engine builds every level
    dist_s, levels_s, sizes_s = walk_levels(_sorted_levels(n), 0, limit)
    dist_d, levels_d, sizes_d = walk_levels(_fresh_levels(n), 0, limit)
    _, levels_o, sizes_o = _oracle_levels(n, limit)
    assert dist_s is dist_d is None
    assert sizes_s == sizes_d == sizes_o == tuple(len(level) for level in levels_d)
    _same_levels(levels_d, levels_o)
    # the sorted engine keeps one key per mirror pair and counts states
    _same_levels(levels_s, [oracle_keys(n, level) for level in levels_o])
    if n < 5:
        # these limits lie past the diameter, so the whole group is swept
        assert sum(sizes_s) == gl_order(n)
    # a target on the next-to-last level: the search stops there with
    # the witness the oracle's levels give
    dist = len(sizes_o) - 2
    code = int(levels_o[dist][levels_o[dist].size // 2])
    result = distance(n, decode_state(n, code), limit, witness=True)
    assert (result.value, result.level_sizes) == (dist, sizes_o[: dist + 1])
    want = _witness_from_levels(n, _level_holds(levels_o), dist, code)
    assert circuit_to_text(result.witness) == circuit_to_text(want)


# targets reachable within the oracle's limit, as gate tokens
ORACLE_CASES = [
    (6, "d1 u5 u3 d2 u3 u5 d3 d5 u1 u1 d3 u4 d2 u5", 4),
    (6, "u4 d1 u2 d3 d1 d4 u4 u2 d5 u4 d1 d4 d4 u2", 4),
    (7, "u5 u5 u5 u4 d3 d5 d3 d2 u6 u1", 3),
    (8, "u1 d3 u5 d7 u2 d4 u6", 2),
]


@CHUNKS
@pytest.mark.parametrize(
    "n,tokens,limit", ORACLE_CASES, ids=["n6-d3", "n6-d4", "n7", "n8"]
)
def test_sorted_engine_matches_set_oracle(monkeypatch, chunk_codes, n, tokens, limit):
    monkeypatch.setattr(search, "_CHUNK_CODES", chunk_codes)
    target = matrix_of(schedule_tokens(n, tokens.split()))
    code = encode_state(target)
    dist, levels, sizes = oracle_set_bfs(n, code, limit)
    assert dist is not None
    # the sorted engine looks a state up by its key, min(s, J s J)
    key = min(code, oracle_mirror(n, code))
    got_dist, got_levels, got_sizes = walk_levels(_sorted_levels(n), key, limit)
    assert (got_dist, got_sizes) == (dist, sizes)
    _same_levels(got_levels, [oracle_keys(n, level) for level in levels])
    # the process's levels for n, built afresh with these chunks
    search._BALLS.pop(n, None)
    assert distance(n, target, limit).level_sizes == sizes
    result = distance(n, target, limit, witness=True)
    assert (result.value, result.visited_count) == (dist, sum(sizes))
    want = _witness_from_levels(n, _level_holds(levels), dist, code)
    assert circuit_to_text(result.witness) == circuit_to_text(want)
    paired = _witness_from_levels(n, _level_holds(got_levels, n), dist, code)
    assert circuit_to_text(paired) == circuit_to_text(want)


@pytest.mark.parametrize(
    "n,tokens", [(5, "u1 d3 u2 d4 u1 u3"), (6, "u1 d3 u5 d2 u4 u1 d5")], ids=["dense", "paired"]
)
def test_witness_walk_refuses_a_level_without_the_predecessor(n, tokens):
    code = encode_state(matrix_of(schedule_tokens(n, tokens.split())))
    paired = n > search.DENSE_LIMIT
    if paired:
        key = min(code, oracle_mirror(n, code))
        dist, levels, _ = walk_levels(_sorted_levels(n), key, 6)
    else:
        dist, levels, _ = walk_levels(_fresh_levels(n), code, 6)
    assert dist == 3
    assert levels[0].dtype == (np.uint64 if paired else np.int32)
    holds = _level_holds(levels, n if paired else None)
    assert _witness_from_levels(n, holds, dist, code).depth == dist
    # drop from the level below the target every state one slice away from it
    backs = {code ^ ((code & um) >> 1) ^ ((code & dm) << 1) for um, dm in packed_generators(n)}
    if paired:
        backs = {min(back, oracle_mirror(n, back)) for back in backs}
    below = levels[dist - 1]
    levels[dist - 1] = np.array([c for c in below.tolist() if c not in backs], below.dtype)
    assert levels[dist - 1].size < below.size
    with pytest.raises(AssertionError, match="BFS level structure is inconsistent"):
        _witness_from_levels(n, holds, dist, code)


# SHA-256 of witness text, generated with the set-based engine this
# sorted engine replaced
PINNED_WITNESSES = [
    (6, "u5 u2 u1 d5 d3 d5 d3 u4 u2 d5 d1 d2 u5 d4", 5, 519303,
     "3f6a332584d5c344e2b18cecbb7b85bb748fb18d34802b074c826b71f0626740"),
    (7, "d2 d6 u1 u3 u5 u1 u4 d1 u1 d1", 4, 628701,
     "11e5ae7e0890f06997852ee2c93105e0ff78455f7208ea9ffdcf52c3cc151d3d"),
    (8, "u3 d2 u6 u1 u2 u4 u4 d4 d4", 3, 230062,
     "9f7dbe23eef57aeacc02372358af191deca131083e4a2f9d941f24116cdbd62a"),
]


@pytest.mark.parametrize(
    "n,tokens,dist,visited,digest", PINNED_WITNESSES, ids=["n6", "n7", "n8"]
)
def test_sorted_engine_witnesses_are_pinned(n, tokens, dist, visited, digest):
    target = matrix_of(schedule_tokens(n, tokens.split()))
    result = distance(n, target, depth_limit=dist, witness=True)
    assert (result.value, result.completed) == (dist, True)
    assert result.visited_count == visited
    text = circuit_to_text(result.witness)
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == digest
    assert matrix_of(result.witness) == target
    if n == 6:
        assert result.level_sizes == BALL_6_5


# n = 5 targets as column bitmasks, searched with depth_limit=9: SHA-256
# of value, completed, level sizes and witness text, generated before the
# dense engine sorted its levels and expanded them in chunks
PINNED_DENSE = [
    ((23, 31, 27, 24, 21), 9, False,
     "2ddc681d19b05e5843ba97a5e495476d8da43089a94a691764776b7a3b010fa8"),
    ((29, 6, 4, 12, 16), 6, True,
     "30efd4a40b39b62850e3d5132b6496cb52fd80cbe43c9d5e5b5ffa0d21a43bda"),
    ((14, 9, 6, 30, 28), 7, True,
     "eea8270b2c7e9ef59296e0c6ac3d4390f837ead334f54b60bb356f79d102128f"),
    ((28, 6, 10, 11, 31), 9, True,
     "59d56d58535c2914c0e68d6674101e5fc641ff8db49f8acb327723ca898f8171"),
    ((1, 31, 24, 12, 28), 5, True,
     "2911b8f3bf0712caabad9c29ca7a54d3dc0d0e9f2db59b80f8cc4cb7fb939e91"),
    ((13, 1, 18, 26, 14), 8, True,
     "b2c7b9439ad38bb2845ff401cbc1a576bcc938ccaabd4254bdc6fd254e6c14ab"),
    ((15, 2, 23, 6, 20), 9, True,
     "b621de44f467352598e049e0274c4a8df2a2da90c8d9c85629765fa59da46c50"),
    ((24, 25, 26, 12, 28), 5, True,
     "467dda05cd5f4beafbc8f091757a82545ea95fadc1d00d466010e4da57185b2c"),
]


@pytest.mark.parametrize(
    "cols,value,completed,digest",
    PINNED_DENSE,
    ids=["-".join(map(str, case[0])) for case in PINNED_DENSE],
)
def test_dense_engine_results_are_pinned(cols, value, completed, digest):
    target = BitMatrix(5, cols)
    result = distance(5, target, depth_limit=9, witness=True)
    assert (result.value, result.completed) == (value, completed)
    text = circuit_to_text(result.witness) if completed else ""
    payload = f"{value} {completed} {list(result.level_sizes)}\n{text}"
    assert hashlib.sha256(payload.encode("ascii")).hexdigest() == digest
    if completed:
        assert matrix_of(result.witness) == target


# The first five targets of random_invertible(5, random.Random(14)) that
# distance(5, T, 9) reaches, with their distance and the SHA-256 of the
# witness text, generated while slice_generators built slices from gates
PINNED_SEEDED_WITNESSES = [
    ((4, 20, 23, 25, 21), 9,
     "f79ab0353ef53622a979612ad5cedb12defd23e91b9bf58fd5eb41aaf5cf0e39"),
    ((15, 29, 20, 4, 28), 8,
     "63d99a6c27dc7271410caf4739353122000883fdc952c21ef0094e56b55e686e"),
    ((14, 1, 12, 23, 19), 6,
     "363cd4202c91d39d29c52266649106cf481de56b1de862a7bb87ce703e5b0017"),
    ((24, 25, 29, 12, 2), 9,
     "be4893176925d276e268f8b4ca911d80700393c97afdd8e643cf195ede73547f"),
    ((26, 25, 6, 17, 21), 9,
     "6963e51888919ae618630a8c30949b035609d0b6302a298e963facf3506694c7"),
]


@pytest.mark.parametrize(
    "cols,value,digest",
    PINNED_SEEDED_WITNESSES,
    ids=["-".join(map(str, case[0])) for case in PINNED_SEEDED_WITNESSES],
)
def test_seeded_witnesses_are_pinned(cols, value, digest):
    target = BitMatrix(5, cols)
    result = distance(5, target, depth_limit=9, witness=True)
    assert (result.value, result.completed) == (value, True)
    text = circuit_to_text(result.witness)
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == digest
    assert matrix_of(result.witness) == target


def test_n6_reversal_beyond_depth_six():
    result = distance(6, BitMatrix.anti_identity(6), depth_limit=6)
    assert (result.value, result.completed) == (6, False)
    assert result.visited_count == 3567740
    assert result.level_sizes == BALL_6_5 + (3048437,)


def test_sorted_engine_refuses_past_its_state_limit(monkeypatch):
    # the process keeps every level it builds, so level 3 at n = 6 makes
    # 1 + 42 + 618 + 6428 = 7089 states kept, with or without a witness;
    # the depth-3 call grows the depth-2 levels the call before it kept
    search._BALLS.clear()
    monkeypatch.setattr(search, "SORTED_LIMIT", 7088)
    target = BitMatrix.anti_identity(6)
    for witness in (False, True):
        assert distance(6, target, depth_limit=2, witness=witness).visited_count == 661
        with pytest.raises(ResourceLimitError, match="7088 states"):
            distance(6, target, depth_limit=3, witness=witness)
    monkeypatch.setattr(search, "SORTED_LIMIT", 7089)
    for witness in (False, True):
        search._BALLS.clear()
        assert distance(6, target, depth_limit=3, witness=witness).visited_count == 7089


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
        packed = packed_generators(n)
        sets = [frozenset(slice_gates(s)) for s in slices]
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
