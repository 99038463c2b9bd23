"""Gate code/slice/circuit semantics, scheduling, and the text format."""

import itertools
import random
import re
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnotline import (
    BitMatrix,
    Circuit,
    add_circuit,
    apply,
    circuit_to_text,
    concat,
    crossing_counts,
    down,
    gate_token,
    inverse,
    matrix_of,
    metrics,
    parse_circuit_text,
    parse_gate_token,
    render_circuit,
    schedule,
    slice_generators,
    up,
)
from cnotline import circuit as circuit_module
from cnotline.f2 import inverse as matrix_inverse
from conftest import (
    circuit_of,
    oracle_apply,
    oracle_circuit_text,
    oracle_crossings,
    oracle_render,
    oracle_slice_order,
    oracle_token,
    raw_circuits,
    schedule_tokens,
    slice_gates,
    slice_of,
    slice_violations,
    source,
    target,
    to_lists,
)


def all_circuits(n, max_depth):
    """Every circuit on n wires with at most max_depth nonempty slices."""
    gens = slice_generators(n)
    for d in range(max_depth + 1):
        for combo in itertools.product(gens, repeat=d):
            yield circuit_of(n, combo)


def random_gates(n, count, rng):
    return [
        (up if rng.random() < 0.5 else down)(rng.randint(1, n - 1))
        for _ in range(count)
    ]


def sequential_matrix(n, gates):
    """Fold gates one at a time over the identity; order is the list order."""
    m = BitMatrix.identity(n)
    for g in gates:
        cols = list(m.cols)
        cols[target(g) - 1] ^= cols[source(g) - 1]
        m = BitMatrix(n, tuple(cols))
    return m


def test_gate_validation():
    # up(p) = (p <- p + 1) and down(p) = (p + 1 <- p) are the codes 2p, 2p + 1
    assert (up(3), down(3)) == (6, 7)
    assert (target(up(3)), source(up(3))) == (3, 4)
    assert (target(down(3)), source(down(3))) == (4, 3)
    # codes sort by position, up(p) before down(p)
    assert sorted([down(2), up(3), up(2), down(1)]) == [down(1), up(2), down(2), up(3)]
    for g in [-1, 0, 1, up(3), down(3)]:
        with pytest.raises(ValueError, match=f"^gate {gate_token(g)} does not fit on 3 wires$"):
            schedule(3, [g])


def test_gate_token_round_trip():
    for g in [up(1), down(1), up(12), down(7)]:
        assert gate_token(g) == oracle_token(g)
        assert parse_gate_token(gate_token(g)) == g
    assert parse_gate_token("d007") == down(7)
    for bad in ["", "x3", "u", "u0", "d-1", "u1x"]:
        with pytest.raises(ValueError, match=f"^bad gate token {re.escape(repr(bad))}$"):
            parse_gate_token(bad)


@pytest.mark.parametrize("token", ["u" + "7" * 5000, "d" + "7" * 5000 + "x", "x" * 5000])
def test_long_gate_token_error_is_clipped(token):
    with pytest.raises(ValueError) as info:
        parse_gate_token(token)
    message = str(info.value)
    assert message.startswith(f"bad gate token {repr(token)[:80]}... (")
    assert len(message) < 200 and "set_int_max_str_digits" not in message


def test_inverse_identity_exhaustive_small():
    """matrix_of(inverse(C)) inverts matrix_of(C), all circuits depth <= 3."""
    for n in (2, 3):
        for c in all_circuits(n, 3):
            assert matrix_of(inverse(c)) == matrix_inverse(matrix_of(c))


def test_inverse_reverses_slices():
    c = schedule_tokens(3, ["u1", "d2", "u2"])
    assert inverse(c).ups == c.ups[::-1] and inverse(c).downs == c.downs[::-1]


def test_scheduler_preserves_semantics(rng):
    for _ in range(200):
        n = rng.randint(2, 9)
        gates = random_gates(n, rng.randint(0, 40), rng)
        c = schedule(n, gates)
        assert matrix_of(c) == sequential_matrix(n, gates)
        assert not slice_violations(c)
        assert c.size == len(gates)
        assert c.depth <= len(gates)


def test_scheduler_packs_disjoint_gates_together():
    c = schedule(6, [up(1), up(3), up(5)])
    assert c.depth == 1 and c.size == 3


def test_scheduler_orders_conflicting_gates():
    c = schedule(3, [up(1), down(2), up(2)])
    # u1 and d2 share wire 2; d2 and u2 share both wires
    assert c.depth == 3


def test_apply_and_concat_compose(rng):
    for _ in range(100):
        n = rng.randint(2, 7)
        a = schedule(n, random_gates(n, rng.randint(0, 12), rng))
        b = schedule(n, random_gates(n, rng.randint(0, 12), rng))
        both = concat(a, b)
        assert matrix_of(both) == apply(b, matrix_of(a))
        assert both.size == a.size + b.size


def test_concat_and_apply_refuse_other_wire_counts():
    three = add_circuit(3)
    with pytest.raises(ValueError, match="^wire count mismatch: 3 vs 4$"):
        concat(three, add_circuit(4))
    with pytest.raises(ValueError, match="^state dimension 4 does not match 3 wires$"):
        apply(three, BitMatrix.identity(4))


def test_circuit_text_round_trip(rng):
    for _ in range(100):
        n = rng.randint(2, 11)
        c = schedule(n, random_gates(n, rng.randint(0, 30), rng))
        text = circuit_to_text(c)
        assert text.startswith(f"n {n}\n")
        assert parse_circuit_text(text) == c


def test_circuit_text_example():
    c = schedule_tokens(3, ["u1", "d1", "u2"])
    # u1 alone; then d1 alone (shares wires with u1 and u2); then u2
    assert circuit_to_text(schedule(3, [parse_gate_token(t) for t in ["u1", "d1", "u2"]])) == (
        "n 3\nu1\nd1\nu2\n"
    )
    assert c.depth == 3


@pytest.mark.parametrize(
    "text",
    [
        "",
        "3\nu1\n",
        "n x\nu1\n",
        "n 1\n",
        "n 3\nu3\n",
        "n 3\nu1 u2\n",
        "n 3\nu1 u1\n",
        "n 3\n\nu1\n",
        "n 3\nu1 z2\n",
    ],
)
def test_parse_circuit_rejects_malformed(text):
    with pytest.raises(ValueError):
        parse_circuit_text(text)


@pytest.mark.parametrize(
    "line,n,message",
    [
        ("u1 u1 x9", 10, "wire collision at u1"),
        ("d2 u1 u9", 10, "wire collision at u1"),
        ("u9 u1 d1", 5, "gate u9 does not fit on 5 wires"),
    ],
)
def test_parse_names_the_first_bad_token_of_a_line(line, n, message):
    # tokens are checked in line order, so the first fault is the one named
    with pytest.raises(ValueError, match=f"^line 2: {message}$"):
        parse_circuit_text(f"n {n}\n{line}\n")


def test_crossing_counts_by_position():
    c = schedule_tokens(4, ["u1", "d1", "u3", "d2"])
    assert crossing_counts(c) == (2, 1, 1)


def test_metrics_density():
    c = schedule(6, [up(1), up(3), up(5)])
    m = metrics(c)
    assert m.depth == 1 and m.size == 3
    assert m.density == pytest.approx(1.0)
    empty = Circuit(5, ())
    assert metrics(empty).density == 0.0


def test_circuit_rejects_out_of_range_gates():
    with pytest.raises(ValueError):
        circuit_of(3, [slice_of([up(3)])])
    with pytest.raises(ValueError):
        Circuit(1, ())


def test_circuit_refuses_unequal_mask_tuples():
    for ups, downs in [((2,), ()), ((), (2,)), ((2, 4), (0,))]:
        with pytest.raises(ValueError, match=f"^{len(ups)} up masks but {len(downs)} down masks$"):
            Circuit(4, ups, downs)


# Property tests run a fixed example sequence, so a failure reproduces.
PROPERTY = settings(max_examples=80, deadline=None, derandomize=True, database=None)


@st.composite
def circuits(draw, min_depth=0):
    """A valid circuit: up to 12 wires, nonempty wire-disjoint slices."""
    n = draw(st.integers(2, 12))
    slices = []
    for _ in range(draw(st.integers(min_depth, 8))):
        gates, p = [], 1
        while p < n:
            kind = draw(st.sampled_from((None, up, down)))
            if kind is None:
                p += 1
            else:
                gates.append(kind(p))
                p += 2
        if not gates:
            gates.append(draw(st.sampled_from((up, down)))(draw(st.integers(1, n - 1))))
        slices.append(slice_of(gates))
    return circuit_of(n, slices)


def _rejects(text, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        parse_circuit_text(text)


def _with_token(draw, c, token_for):
    """Text of c with one token inserted into a drawn slice line.

    token_for(gates) gives the token and whether it must go last, after
    every token the line already has.
    """
    lines = circuit_to_text(c).splitlines()
    i = draw(st.integers(1, c.depth))
    tokens = lines[i].split()
    token, last = token_for(slice_gates((c.ups[i - 1], c.downs[i - 1])))
    at = len(tokens) if last else draw(st.integers(0, len(tokens)))
    tokens.insert(at, token)
    lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n", i + 1, token


@PROPERTY
@given(circuits())
def test_property_text_round_trip(c):
    text = circuit_to_text(c)
    assert parse_circuit_text(text) == c
    assert circuit_to_text(parse_circuit_text(text)) == text


@PROPERTY
@given(circuits(min_depth=1), st.data())
def test_property_rejects_wire_collision(c, data):
    def colliding(gates):
        g = data.draw(st.sampled_from(gates))
        at = min(target(g), source(g))
        pos = data.draw(st.sampled_from([p for p in (at - 1, at, at + 1) if 1 <= p < c.n]))
        return data.draw(st.sampled_from("ud")) + str(pos), True

    text, lineno, token = _with_token(data.draw, c, colliding)
    _rejects(text, f"line {lineno}: wire collision at {token}")


@PROPERTY
@given(circuits(min_depth=1), st.data())
def test_property_rejects_collision_of_tokens_seen_before(c, data):
    # each token of the colliding line first appears alone on an earlier
    # line, so the parser already knows every token when it meets the line
    def colliding(gates):
        g = data.draw(st.sampled_from(gates))
        at = min(target(g), source(g))
        pos = data.draw(st.sampled_from([p for p in (at - 1, at, at + 1) if 1 <= p < c.n]))
        return data.draw(st.sampled_from("ud")) + str(pos), True

    text, lineno, token = _with_token(data.draw, c, colliding)
    lines = text.splitlines()
    alone = lines[lineno - 1].split()
    text = "\n".join(lines[:1] + alone + lines[1:]) + "\n"
    _rejects(text, f"line {lineno + len(alone)}: wire collision at {token}")


@PROPERTY
@given(circuits(min_depth=1), st.data())
def test_property_rejects_gate_off_the_line(c, data):
    def off_line(gates):
        pos = data.draw(st.integers(c.n, c.n + 40))
        return data.draw(st.sampled_from("ud")) + str(pos), False

    text, lineno, token = _with_token(data.draw, c, off_line)
    _rejects(text, f"line {lineno}: gate {token} does not fit on {c.n} wires")


def _is_gate_token(token):
    return re.fullmatch(r"[ud][0-9]+", token) is not None and int(token[1:]) > 0


@PROPERTY
@given(
    circuits(min_depth=1),
    st.text(st.characters(min_codepoint=33, max_codepoint=126), min_size=1).filter(
        lambda t: not _is_gate_token(t)
    ),
    st.data(),
)
def test_property_rejects_bad_token(c, bad, data):
    text, lineno, _ = _with_token(data.draw, c, lambda gates: (bad, False))
    _rejects(text, f"line {lineno}: bad gate token {bad!r}")


def test_leading_zeros_do_not_count_toward_digits():
    # 5001 digits, past the 4300 int() converts, but this is u1, as u01 is
    assert parse_circuit_text("n 3\nu" + "0" * 5000 + "1\n") == parse_circuit_text("n 3\nu1\n")


@PROPERTY
@given(circuits(), st.sampled_from(["", " ", "\t", " \t  "]), st.data())
def test_property_rejects_empty_slice_line(c, blank, data):
    lines = circuit_to_text(c).splitlines()
    at = data.draw(st.integers(1, len(lines)))
    lines.insert(at, blank)
    _rejects("\n".join(lines) + "\n", f"line {at + 1}: empty time slice")


def _is_good_header(head):
    parts = head.split()
    return len(parts) == 2 and parts[0] == "n" and parts[1].isdigit()


@PROPERTY
@given(
    circuits(),
    st.text(st.sampled_from("n 0123456789xu\t-")).filter(lambda h: not _is_good_header(h)),
)
def test_property_rejects_bad_header(c, head):
    body = circuit_to_text(c).split("\n", 1)[1]
    _rejects(f"{head}\n{body}", f"bad header {head!r}, expected 'n <wires>'")


@PROPERTY
@given(circuits(), st.sampled_from(["0", "1", "00", "01"]))
def test_property_rejects_too_few_wires(c, wires):
    body = circuit_to_text(c).split("\n", 1)[1]
    _rejects(f"n {wires}\n{body}", f"need at least 2 wires, got {int(wires)}")


@PROPERTY
@given(circuits())
def test_property_inverse_identities(c):
    assert inverse(inverse(c)) == c
    assert matrix_of(inverse(c)) == matrix_inverse(matrix_of(c))


def _gate_lists(max_position):
    """Gate lists with repeats, any positions 1..max_position, any order."""
    return st.lists(
        st.builds(lambda kind, p: kind(p), st.sampled_from((up, down)),
                  st.integers(1, max_position)),
        max_size=12,
    )


def _holds_both_at_a_position(gates):
    return bool({source(g) for g in gates if target(g) > source(g)}
                & {target(g) for g in gates if target(g) < source(g)})


@PROPERTY
@given(_gate_lists(70), _gate_lists(70))
def test_property_time_slice_is_its_gate_set(a, b):
    sl = slice_of(a)
    order = slice_gates(sl)
    assert len(order) == len(set(a)) and set(order) == set(a)
    assert list(order) == sorted(set(a))
    if not _holds_both_at_a_position(a):
        assert order == tuple(oracle_slice_order(a))
    other = slice_of(b)
    assert (sl == other) == (frozenset(a) == frozenset(b))
    if sl == other:
        assert hash(sl) == hash(other)
    assert sl == slice_of(a[::-1])
    assert hash(sl) == hash(slice_of(a[::-1]))


@PROPERTY
@given(_gate_lists(70), st.integers(1, 70))
def test_property_shared_position_lists_up_first(a, p):
    # up(p) and down(p) share both wires, so which runs first changes what
    # the slice computes; gate codes and the oracle order list up(p) first
    a = a + [down(p), up(p)]
    assert slice_gates(slice_of(a)) == tuple(sorted(set(a)))
    assert sorted(set(a)) == oracle_slice_order(a)


def _check_against_oracles(n, slices, state_seed):
    c = circuit_of(n, [slice_of(gates) for gates in slices])
    rng = random.Random(state_seed)
    state = BitMatrix(n, tuple(rng.randrange(1 << n) for _ in range(n)))
    assert to_lists(apply(c, state)) == oracle_apply(n, slices, to_lists(state))
    assert to_lists(matrix_of(c)) == oracle_apply(
        n, slices, to_lists(BitMatrix.identity(n))
    )
    assert crossing_counts(c) == tuple(oracle_crossings(n, slices))
    assert circuit_to_text(c) == oracle_circuit_text(n, slices)
    assert c.size == sum(len(set(gates)) for gates in slices)


@PROPERTY
@given(raw_circuits(), st.integers(0, 2**32))
def test_property_circuit_layer_matches_list_oracles(raw, state_seed):
    _check_against_oracles(*raw, state_seed)


@PROPERTY
@given(raw_circuits(shared_positions=True), st.integers(0, 2**32))
def test_property_shared_position_circuits_match_list_oracles(raw, state_seed):
    _check_against_oracles(*raw, state_seed)


def _chunk_crossing_slices(n, step, rng):
    """Gate lists for 3 * step + 2 slices, any of which may share wires or
    hold up(p) and down(p) together; the first and last slice and the two
    on either side of each chunk edge are empty.  Past 64 wires a slice
    holds gates at the positions of one mask byte, so whole bytes stay empty."""
    depth = 3 * step + 2
    empty = {0, depth - 1} | {e + d for e in range(step, depth, step) for d in (-1, 0)}
    kinds = [(), (), (up,), (down,), (up, down)]
    slices = []
    for i in range(depth):
        span = range(1, n)
        if n > 64:
            j = rng.randrange(n // 8 + 1)
            span = range(max(1, 8 * j), min(n, 8 * j + 8))
        gates = [] if i in empty else [k(p) for p in span for k in rng.choice(kinds)]
        if i not in empty and not gates:
            gates = [rng.choice((up, down))(rng.randint(1, n - 1))]
        rng.shuffle(gates)
        slices.append(gates)
    return slices


# (n, slices per chunk): None keeps the default chunk, 65 536 slices at n = 2
@pytest.mark.parametrize(
    "n,step", [(2, None), (3, 4), (8, 5), (9, 7), (17, 3), (40, 6), (203, 4)]
)
def test_circuits_across_chunks_match_list_oracles(n, step, monkeypatch):
    # the property tests draw at most 8 slices, all inside one chunk
    width = n // 8 + 1
    if step is None:
        step = circuit_module._CHUNK_BYTES // width
    else:
        monkeypatch.setattr(circuit_module, "_CHUNK_BYTES", step * width)
    rng = random.Random(16 + n)
    slices = _chunk_crossing_slices(n, step, rng)
    c = circuit_of(n, [slice_of(gates) for gates in slices])
    state = BitMatrix(n, tuple(rng.randrange(1 << n) for _ in range(n)))
    assert circuit_to_text(c) == oracle_circuit_text(n, slices)
    assert to_lists(apply(c, state)) == oracle_apply(n, slices, to_lists(state))
    assert crossing_counts(c) == tuple(oracle_crossings(n, slices))
    assert render_circuit(c) == oracle_render(n, slices)


def _traced(run):
    """run()'s result, the memory it left allocated and its peak, in bytes."""
    tracemalloc.start()
    try:
        result = run()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, held, peak


def test_deep_circuit_memory_follows_its_masks():
    # 200 000 one-gate slices on 2 wires: two tuples of small ints hold 16
    # bytes a slice; a dataclass object per slice held 96
    depth = 200_000
    text = "n 2\n" + "u1\n" * depth
    c, held, _ = _traced(lambda: parse_circuit_text(text))
    assert c.depth == depth and held <= 32 * depth
    # crossings and simulation read the masks a chunk at a time, where a
    # whole-circuit gate table peaked at 47 MB
    (crossings, m), _, peak = _traced(lambda: (crossing_counts(c), matrix_of(c)))
    assert crossings == (depth,) and m == BitMatrix.identity(2)
    assert peak < 10 << 20


def test_sparse_wide_circuit_text_memory():
    # 63 993 gates in 16 003 slices on 16 000 wires: copying every mask to
    # bytes at once peaked at 153 MB
    c = add_circuit(16000)
    text, _, peak = _traced(lambda: circuit_to_text(c))
    assert text.count("\n") == c.depth + 1 and len(text.split()) == 2 + c.size
    assert peak < 40 << 20


def test_circuit_names_the_gate_off_the_line():
    with pytest.raises(ValueError, match=r"^gate d3 does not fit on 3 wires$"):
        circuit_of(3, [slice_of([up(1)]), slice_of([down(3)])])
    # the lowest position off the line, and up(p) before down(p) there
    for gates, token in [([up(5), down(4), up(1)], "d4"), ([down(3), up(3), up(6)], "u3")]:
        with pytest.raises(ValueError, match=f"^gate {token} does not fit on 3 wires$"):
            circuit_of(3, [slice_of(gates)])
    # position 0 has no wire 0, and it is the lowest position of all
    for sl, token in [((1, 0), "u0"), ((0, 1), "d0"), ((3, 1 << 5), "u0")]:
        with pytest.raises(ValueError, match=f"^gate {token} does not fit on 4 wires$"):
            circuit_of(4, [slice_of([up(2)]), sl])
    # a negative mask sets every bit from some position on
    for sl, token in [((-2, 0), "u4"), ((2, -16), "d4"), ((0, -1), "d0")]:
        with pytest.raises(ValueError, match=f"^gate {token} does not fit on 4 wires$"):
            circuit_of(4, [sl])
    with pytest.raises(ValueError, match=r"^gate u10{12} does not fit on 10{12} wires$"):
        Circuit(10**12, (-2,), (0,))


def test_one_line_circuit_parse_memory_follows_its_text():
    # 40 000 distinct tokens on one line of an 80 001-wire circuit: a table
    # of every token's bit would hold about 40 000 * 80 000 bits
    text = "n 80001\n" + " ".join(f"u{p}" for p in range(1, 80000, 2)) + "\n"
    tracemalloc.start()
    try:
        c = parse_circuit_text(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert c.depth == 1 and c.size == 40000
    assert peak < 20 << 20


def test_one_line_circuit_parse_time_is_linear_in_its_line():
    # 300 000 gates on one line of a 600 001-wire circuit: building wire-wide
    # ints for every token took 8 s
    gates = 300_000
    tokens = (f"{'ud'[i % 2]}{2 * i + 1}" for i in range(gates))
    text = f"n {2 * gates + 1}\n" + " ".join(tokens) + "\n"
    start = time.perf_counter()
    c = parse_circuit_text(text)
    assert time.perf_counter() - start < 3.0
    assert c.size == gates and circuit_to_text(c) == text
