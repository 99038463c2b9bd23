"""Exact GF(2) linear algebra against independent list-based oracles."""

import itertools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnotline import (
    BitMatrix,
    SingularMatrixError,
    blocks,
    dual_functional,
    is_northwest_triangular,
    lex_min_coset,
    matrix_to_text,
    parse_matrix_text,
    rank,
    transpose,
)
from cnotline.f2 import inverse as matrix_inverse
from conftest import coords, from_lists, oracle_rank, random_invertible, to_lists


def oracle_product(a, b):
    """Product of row-major 0/1 lists over GF(2)."""
    return [[sum(x & y for x, y in zip(row, col)) % 2 for col in zip(*b)] for row in a]


def test_transpose_against_oracle(rng):
    for _ in range(120):
        n = rng.randint(1, 8)
        a = BitMatrix(n, tuple(rng.randrange(1 << n) for _ in range(n)))
        assert to_lists(transpose(a)) == [list(r) for r in zip(*to_lists(a))]


def test_rank_matches_gaussian_oracle(rng):
    for _ in range(200):
        n = rng.randint(1, 8)
        m = BitMatrix(n, tuple(rng.randrange(1 << n) for _ in range(n)))
        assert rank(m.cols) == oracle_rank(to_lists(m))


def test_block_rank_matches_oracle(rng):
    for _ in range(200):
        nrows = rng.randint(0, 6)
        ncols = rng.randint(0, 6)
        rows = tuple(rng.randrange(1 << ncols) if ncols else 0 for _ in range(nrows))
        lists = [coords(r, ncols) for r in rows]
        want = oracle_rank(lists) if nrows and ncols else 0
        assert rank(rows) == want


def test_inverse_round_trip(rng):
    for _ in range(120):
        n = rng.randint(1, 8)
        m = random_invertible(n, rng)
        lists, inv = to_lists(m), to_lists(matrix_inverse(m))
        eye = to_lists(BitMatrix.identity(n))
        assert oracle_product(lists, inv) == eye
        assert oracle_product(inv, lists) == eye


def test_inverse_rejects_singular():
    m = BitMatrix(3, (0b011, 0b011, 0b100))
    assert not m.is_invertible
    with pytest.raises(SingularMatrixError):
        matrix_inverse(m)


def test_identity_and_anti_identity():
    n = 5
    eye = BitMatrix.identity(n)
    rev = BitMatrix.anti_identity(n)
    assert all(to_lists(eye)[i][i] == 1 for i in range(n))
    assert rank(eye.cols) == n
    assert all(to_lists(rev)[i][n - 1 - i] == 1 for i in range(n))
    assert oracle_product(to_lists(rev), to_lists(rev)) == to_lists(eye)


def test_from_lists_round_trip(rng):
    m = random_invertible(4, rng)
    assert from_lists(to_lists(m)) == m


def test_lex_min_coset_against_brute_force(rng):
    for _ in range(150):
        n = rng.randint(1, 6)
        a = rng.randrange(1 << n)
        k = rng.randint(0, min(4, n))
        spanning = [rng.randrange(1 << n) for _ in range(k)]
        got = lex_min_coset(a, spanning)
        best = min(
            (
                a ^ _xor_all(combo)
                for r in range(k + 1)
                for combo in itertools.combinations(spanning, r)
            ),
            key=lambda bits: coords(bits, n)[::-1],
        )
        assert got == best
        # membership in the coset
        assert oracle_rank(
            [coords(got ^ a, n)] + [coords(s, n) for s in spanning]
        ) == oracle_rank([coords(s, n) for s in spanning])


def _xor_all(vectors):
    acc = 0
    for v in vectors:
        acc ^= v
    return acc


def test_dual_functional_is_dual_basis(rng):
    for _ in range(80):
        n = rng.randint(2, 7)
        m = random_invertible(n, rng)
        basis = list(m.cols)
        for k in range(1, n + 1):
            dual = coords(dual_functional(basis, k), n)
            for j in range(1, n + 1):
                dot = sum(x & y for x, y in zip(dual, coords(basis[j - 1], n))) % 2
                assert dot == (1 if j == k else 0)


def test_northwest_predicate_matches_entries(rng):
    for _ in range(200):
        n = rng.randint(1, 7)
        m = BitMatrix(n, tuple(rng.randrange(1 << n) for _ in range(n)))
        lists = to_lists(m)
        want = all(
            lists[i][j] == 0 for i in range(n) for j in range(n) if i + j > n - 1
        )
        assert is_northwest_triangular(m) == want


def test_blocks_partition_and_assemble(rng):
    for _ in range(100):
        n = rng.randint(2, 8)
        k = rng.randint(1, n - 1)
        m = BitMatrix(n, tuple(rng.randrange(1 << n) for _ in range(n)))
        w, x, y, z = blocks(m, k)
        lists = to_lists(m)
        # each block's width follows from k: W and Y hold columns 1..k, X
        # and Z columns k+1..n with column k+1 at bit 0
        for block, rows, cols, ncols in (
            (w, lists[:k], slice(k), k),
            (x, lists[:k], slice(k, n), n - k),
            (y, lists[k:], slice(k), k),
            (z, lists[k:], slice(k, n), n - k),
        ):
            want = [row[cols] for row in rows]
            assert len(block) == len(want)
            assert all(0 <= r < 1 << ncols for r in block)
            assert [coords(r, ncols) for r in block] == want
            assert rank(block) == oracle_rank(want)
        with pytest.raises(ValueError, match="out of range"):
            blocks(m, rng.choice((0, n, -1, n + 1)))


def test_matrix_text_round_trip(rng):
    for n in [*range(1, 70), 128, 256]:
        m = BitMatrix(n, tuple(rng.randrange(1 << n) for _ in range(n)))
        text = matrix_to_text(m)
        rows = ["".join(map(str, row)) for row in to_lists(m)]
        assert text == "\n".join([str(n), *rows]) + "\n"
        assert parse_matrix_text(text) == m


def test_matrix_text_layout_is_row_major():
    m = from_lists([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    assert matrix_to_text(m) == "3\n110\n010\n001\n"


@pytest.mark.parametrize(
    "text",
    [
        "",
        "2\n10\n",
        "2\n10\n011\n",
        "2\n12\n01\n",
        "x\n10\n01\n",
        "2\n10\n01\n11\n",
    ],
)
def test_parse_matrix_rejects_malformed(text):
    with pytest.raises(ValueError):
        parse_matrix_text(text)


# Property tests run a fixed example sequence, so a failure reproduces.
PROPERTY = settings(max_examples=80, deadline=None, derandomize=True, database=None)


@st.composite
def matrix_texts(draw):
    """(entry lists, text): rows may carry surrounding blanks, and blank
    lines may sit between rows; neither changes the matrix."""
    n = draw(st.integers(1, 64))
    rows = [format(draw(st.integers(0, (1 << n) - 1)), f"0{n}b") for _ in range(n)]
    pad = st.sampled_from(["", "", " ", "\t", "  "])
    lines = [str(n)]
    for r in rows:
        if draw(st.booleans()):
            lines.append(draw(pad))
        lines.append(draw(pad) + r + draw(pad))
    return [[int(ch) for ch in r] for r in rows], "\n".join(lines) + "\n"


@PROPERTY
@given(matrix_texts())
def test_property_parse_matrix_text_matches_from_rows(case):
    rows, text = case
    assert parse_matrix_text(text) == from_lists(rows)


@PROPERTY
@given(matrix_texts(), st.data())
def test_property_parse_matrix_text_names_the_bad_row(case, data):
    rows, _ = case
    n = len(rows)
    body = ["".join(map(str, r)) for r in rows]
    i = data.draw(st.integers(0, n - 1))
    how = data.draw(st.sampled_from(["short", "long", "char"]))
    if how == "short":
        body[i] = body[i][:data.draw(st.integers(1, n)) - 1] or "x"
    elif how == "long":
        body[i] += data.draw(st.sampled_from("01x"))
    else:
        at = data.draw(st.integers(0, n - 1))
        bad = data.draw(st.sampled_from(["2", "x", " ", "_", "+", "-", "b"]))
        body[i] = body[i][:at] + bad + body[i][at + 1:]
    ln = body[i].strip()
    text = f"{n}\n" + "\n".join(body) + "\n"
    if not ln or len(ln) == n and not set(ln) - {"0", "1"}:
        return  # the edit left an empty or well-formed row
    message = f"row {i + 1} is not {n} characters of 0/1: {ln!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        parse_matrix_text(text)
