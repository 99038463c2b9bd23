"""General linear synthesis: basis choice, clearing, reduction, pipeline."""

import hashlib
import itertools
import random

import pytest

from cnotline import (
    BitMatrix,
    SingularMatrixError,
    apply,
    circuit_to_text,
    clearing_circuit,
    clearing_states,
    dual_functional,
    is_northwest_triangular,
    matrix_of,
    northwest_basis,
    odd_even_network,
    permutation_circuit,
    permutation_matrix,
    reduction_states,
    reversal_layers,
    synthesize,
    triangular_reduction_circuit,
    validate,
)
from conftest import (
    oracle_clearing,
    oracle_reduction,
    oracle_synthesize,
    random_invertible,
    random_northwest,
)


def brute_lex_min(col, others):
    """Smallest coset element, comparing from the highest coordinate down."""
    best = None
    for r in range(len(others) + 1):
        for combo in itertools.combinations(others, r):
            acc = col.bits
            for v in combo:
                acc ^= v.bits
            if best is None or acc < best:
                best = acc
    return best


def test_northwest_basis_postconditions(rng):
    for _ in range(100):
        n = rng.randint(2, 6)
        m = random_invertible(n, rng)
        w, pi = northwest_basis(m)
        assert sorted(pi) == list(range(1, n + 1))
        assert all(w[j].top_coordinate() == n - j for j in range(n))
        assert is_northwest_triangular(BitMatrix.from_columns(w))
        for i in range(1, n + 1):
            col = m.column(i)
            others = [m.column(j) for j in range(i + 1, n + 1)]
            assert w[pi[i - 1] - 1].bits == brute_lex_min(col, others)


def test_northwest_basis_identity():
    n = 5
    w, pi = northwest_basis(BitMatrix.identity(n))
    # column i is already its own coset minimum, topped at coordinate i
    assert pi == tuple(n + 1 - i for i in range(1, n + 1))
    assert [v.bits for v in w] == [1 << (n - 1 - j) for j in range(n)]


def test_northwest_basis_rejects_singular():
    with pytest.raises(SingularMatrixError):
        northwest_basis(BitMatrix(3, (0b011, 0b011, 0b100)))


def test_clearing_duals_match_dual_functional(rng):
    for n in [2, 3, 5, 8, 13] + [rng.randint(2, 24) for _ in range(20)]:
        m = random_invertible(n, rng)
        state = clearing_states(m, odd_even_network(n))[0]
        assert state.duals == tuple(
            dual_functional(state.w_basis, k) for k in range(1, n + 1)
        )


def test_clearing_reaches_northwest_form(rng):
    for _ in range(120):
        n = rng.randint(2, 9)
        m = random_invertible(n, rng)
        net = odd_even_network(n)
        c = clearing_circuit(m, net)
        assert is_northwest_triangular(apply(c, m))
        assert c.depth <= 2 * n
        assert not validate(c)


def test_clearing_invariants_layer_by_layer(rng):
    sizes = [2, 3, 4, 5] + [6] * 50
    for n in sizes:
        m = random_invertible(n, rng)
        states = clearing_states(m, odd_even_network(n))
        assert len(states) == odd_even_network(n).depth + 1
        for state in states:
            assert state.clearing_violations() == []


def test_reduction_clears_to_identity(rng):
    for _ in range(120):
        n = rng.randint(2, 9)
        nw = random_northwest(n, rng)
        net = odd_even_network(n)
        c = triangular_reduction_circuit(nw, net)
        assert apply(c, nw) == BitMatrix.identity(n)
        assert c.depth <= 3 * n
        assert not validate(c)


def test_reduction_invariants_layer_by_layer(rng):
    sizes = [2, 3, 4, 5] + [6] * 50
    for n in sizes:
        nw = random_northwest(n, rng)
        states = reduction_states(nw, odd_even_network(n))
        assert len(states) == odd_even_network(n).depth + 1
        for state in states:
            assert state.reduction_violations() == []


def test_reduction_rejects_non_northwest():
    with pytest.raises(ValueError):
        triangular_reduction_circuit(
            BitMatrix.identity(3), odd_even_network(3)
        )


def test_reduction_rejects_singular_northwest():
    # northwest shape but rank 2: zero column inside the triangle
    nw = BitMatrix(3, (0b111, 0b000, 0b001))
    assert is_northwest_triangular(nw)
    with pytest.raises(SingularMatrixError):
        triangular_reduction_circuit(nw, odd_even_network(3))


def test_reversal_layers_fire_everything():
    for n in range(2, 9):
        layers = reversal_layers(odd_even_network(n))
        assert sum(len(layer) for layer in layers) == n * (n - 1) // 2


def test_synthesize_round_trip_sampled(rng):
    for n in range(3, 17):
        for _ in range(40):
            m = random_invertible(n, rng)
            c = synthesize(m)
            assert matrix_of(c) == m
            assert c.depth <= 5 * n
            assert not validate(c)


def test_synthesize_identity_is_empty():
    for n in (2, 5, 9):
        assert synthesize(BitMatrix.identity(n)).depth == 0


def test_synthesize_rejects_singular():
    with pytest.raises(SingularMatrixError):
        synthesize(BitMatrix(4, (1, 2, 3, 8)))


def test_synthesize_anti_identity(rng):
    # the reversal is the canonical hard case for the generic pipeline
    for n in (3, 6, 11):
        c = synthesize(BitMatrix.anti_identity(n))
        assert matrix_of(c) == BitMatrix.anti_identity(n)
        assert c.depth <= 5 * n


def _text_sha256(circuit) -> str:
    return hashlib.sha256(circuit_to_text(circuit).encode("ascii")).hexdigest()


# SHA-256 of circuit_to_text(synthesize(m)) for the first matrices that
# random_invertible draws from random.Random(n).  A changed hash means
# synthesize now emits a different circuit for the same matrix.
PINNED_SYNTHESIS = {
    32: [
        "d4953876bf3fa16b1abc91e844f430995a12c9f7364ae6b71fff8fbd7364ba26",
        "380f4c7d67321348b99ccde3b67347d4834836d81ff51c49356247533350e740",
        "4cf0e358942f39f57cc6f5126b0da21538252faabf856e63db070af277ca9eea",
    ],
    64: [
        "af0c4c3e61f086aed5133870083535c7f24bb3c50285ba7dab55053e73b78251",
        "06632f8771bacb415132d0302ef15eba9159c5b3aa5080f74a713e4dbb331ac9",
    ],
    128: [
        "420eb96e2eac05b3e89123cce6b631d7f94a3810216bd7962372a9545fadb155",
        "ed3e35a775baa59ddc94c6a7b18595630a83cf90771d0ce044db090336239faf",
    ],
    256: [
        "c9db43a161b0858bdcb07ae9b9b037484e13d19037dc82a5b14366dd86a7e0b0",
    ],
}


@pytest.mark.parametrize("n", sorted(PINNED_SYNTHESIS))
def test_synthesize_output_is_pinned(n):
    rng = random.Random(n)
    got = [
        _text_sha256(synthesize(random_invertible(n, rng)))
        for _ in PINNED_SYNTHESIS[n]
    ]
    assert got == PINNED_SYNTHESIS[n]


def test_permutation_circuit_output_is_pinned():
    rng = random.Random(256)
    perm = list(range(1, 257))
    rng.shuffle(perm)
    assert _text_sha256(permutation_circuit(perm)) == (
        "295ec6c9b5f75c25d25f4618c16a55b5959873b2a6c5de67fbddaf8e4824021a"
    )


def _stage_targets(n, rng):
    """A random invertible, the identity, the reversal and a permutation matrix."""
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    return [
        random_invertible(n, rng),
        BitMatrix.identity(n),
        BitMatrix.anti_identity(n),
        permutation_matrix(perm),
    ]


def test_stages_match_gate_list_oracle():
    rng = random.Random(70)
    for n in range(2, 71):
        net = odd_even_network(n)
        for m in _stage_targets(n, rng):
            want = oracle_synthesize(m)
            assert circuit_to_text(synthesize(m)) == circuit_to_text(want)
            want = oracle_clearing(m, net)
            assert circuit_to_text(clearing_circuit(m, net)) == circuit_to_text(want)
        nw = random_northwest(n, rng)
        want = oracle_reduction(nw, net)
        assert circuit_to_text(triangular_reduction_circuit(nw, net)) == (
            circuit_to_text(want)
        )


def test_stage_states_match_oracle_layer_by_layer():
    rng = random.Random(12)
    for n in range(2, 14):
        net = odd_even_network(n)
        # the reversal's clearing labels start sorted, so that run stops
        # before its first layer and repeats the initial state
        for m in _stage_targets(n, rng):
            want = []
            oracle_clearing(m, net, want)
            assert clearing_states(m, net) == want
        for nw in (random_northwest(n, rng), BitMatrix.anti_identity(n)):
            want = []
            oracle_reduction(nw, net, want)
            assert reduction_states(nw, net) == want
