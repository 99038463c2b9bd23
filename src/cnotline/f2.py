"""Exact linear algebra over the two-element field.

Vectors and matrix columns are bit-packed into Python ints, so every
operation is exact and dimensions are not capped by a machine word (the
constructions in this package are exercised up to a few hundred wires;
anything from 1 upward works).  All public coordinates are 1-based:
coordinate i of a vector lives at bit i-1, and entry (i, j) of a matrix
is bit i-1 of the packed column j.
"""

from __future__ import annotations

__all__ = ["BitMatrix", "SingularMatrixError", "blocks", "dual_functional",
           "is_northwest_triangular", "lex_min_coset", "matrix_to_text", "parse_matrix_text",
           "rank", "transpose"]

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np


def clip(text: str) -> str:
    """text for an error message: past 80 characters, its first 80 and its
    length, so bad input is never echoed whole."""
    if len(text) <= 80:
        return text
    return f"{text[:80]}... ({len(text)} characters)"


class SingularMatrixError(ValueError):
    """Raised when an inverse of a singular matrix is requested."""


def _echelon_add(pivot_by_top: dict[int, int], r: int) -> int:
    """Reduce r by the pivots and keep a nonzero remainder as a new pivot.

    Returns the new pivot's top set bit as a coordinate, or 0 when r
    already lay in the span.
    """
    while r:
        top = r.bit_length()
        p = pivot_by_top.get(top)
        if p is None:
            pivot_by_top[top] = r
            return top
        r ^= p
    return 0


def _echelon(rows: Iterable[int]) -> dict[int, int]:
    """Echelon basis of the span of rows, keyed on each pivot's top set bit."""
    pivot_by_top: dict[int, int] = {}
    for r in rows:
        _echelon_add(pivot_by_top, r)
    return pivot_by_top


@dataclass(frozen=True)
class BitMatrix:
    """Square matrix over GF(2), columns packed into ints.

    Bit i-1 of cols[j-1] is entry (i, j).
    """

    n: int
    cols: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"dimension must be positive, got {self.n}")
        if len(self.cols) != self.n:
            raise ValueError(f"expected {self.n} columns, got {len(self.cols)}")
        for c in self.cols:
            if not 0 <= c < (1 << self.n):
                raise ValueError("column has bits outside the row range")

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        return cls(n, tuple(1 << i for i in range(n)))

    @classmethod
    def anti_identity(cls, n: int) -> "BitMatrix":
        """Ones on the anti-diagonal: entry (i, j) = 1 iff i + j = n + 1."""
        return cls(n, tuple(1 << (n - 1 - i) for i in range(n)))

    def packed_rows(self) -> tuple[int, ...]:
        """Rows packed into ints, bit j-1 of row i-1 holding entry (i, j)."""
        n, w = self.n, (self.n + 7) // 8  # w bytes per packed column or row
        cols = np.frombuffer(b"".join(c.to_bytes(w, "little") for c in self.cols), np.uint8)
        # bits[j, i] is entry (i, j); transposed, each row packs into w bytes
        bits = np.unpackbits(cols.reshape(n, w), axis=1, bitorder="little")[:, :n]
        rows = np.packbits(bits.T, axis=1, bitorder="little").tobytes()
        return tuple(int.from_bytes(rows[k:k + w], "little") for k in range(0, len(rows), w))

    @cached_property
    def is_invertible(self) -> bool:
        return len(_echelon(self.cols)) == self.n


def transpose(m: BitMatrix) -> BitMatrix:
    return BitMatrix(m.n, m.packed_rows())


def inverse(m: BitMatrix) -> BitMatrix:
    """Inverse via Gauss-Jordan elimination on the columns.

    Raises:
        SingularMatrixError: if the matrix has rank below n.
    """
    n = m.n
    cols = list(m.cols)
    aug = [1 << i for i in range(n)]
    for c in range(n):
        bit = 1 << c
        hit = next((k for k in range(c, n) if cols[k] & bit), None)
        if hit is None:
            raise SingularMatrixError(f"matrix of dimension {n} is singular")
        cols[c], cols[hit] = cols[hit], cols[c]
        aug[c], aug[hit] = aug[hit], aug[c]
        for k in range(n):
            if k != c and cols[k] & bit:
                cols[k] ^= cols[c]
                aug[k] ^= aug[c]
    # the column operations took m to I, so they took I to the inverse
    return BitMatrix(n, tuple(aug))


def rank(vectors: Iterable[int]) -> int:
    """Rank of packed vectors: rank(m.cols) for a matrix, rank(rows) for a block."""
    return len(_echelon(vectors))


def is_northwest_triangular(m: BitMatrix) -> bool:
    """True when every entry strictly below the anti-diagonal is zero.

    Entry (i, j) sits below the anti-diagonal when i + j > n + 1.
    """
    n = m.n
    for j in range(1, n + 1):
        # rows n+2-j .. n of column j must be clear
        if m.cols[j - 1] >> (n + 1 - j):
            return False
    return True


def lex_min_coset(a: int, spanning: Iterable[int]) -> int:
    """Least element of a + span(spanning), vectors packed as ints.

    Clears the pivot tops of a greedily from the highest down.  Greedy is
    optimal because flipping a higher coordinate to zero always beats any
    configuration of lower coordinates.
    """
    pivot_by_top = _echelon(spanning)
    for top in sorted(pivot_by_top, reverse=True):
        if (a >> (top - 1)) & 1:
            a ^= pivot_by_top[top]
    return a


def dual_functional(basis: Sequence[int], k: int) -> int:
    """Vector d with d . basis[j-1] = 1 exactly when j = k.

    Args:
        basis: a basis of the full space, in order, packed as ints.
        k: 1-based index of the basis vector the functional selects.

    Raises:
        SingularMatrixError: if the vectors do not form a basis.
    """
    n = len(basis)
    if not 1 <= k <= n:
        raise ValueError(f"index {k} out of range 1..{n}")
    # row k of the inverse is the k-th dual functional
    return inverse(BitMatrix(n, tuple(basis))).packed_rows()[k - 1]


def blocks(m: BitMatrix, k: int) -> tuple[tuple[int, ...], ...]:
    """The blocks (W, X, Y, Z) of m split after row and column k, as packed
    rows: W is k x k, X is k x (n-k), Y is (n-k) x k and Z is (n-k) x (n-k),
    and in X and Z column k+1 sits at bit 0."""
    if not 1 <= k <= m.n - 1:
        raise ValueError(f"cut position {k} out of range 1..{m.n - 1}")
    rows, low = m.packed_rows(), (1 << k) - 1
    return tuple(
        tuple(r >> k if right else r & low for r in half)
        for half in (rows[:k], rows[k:]) for right in (False, True)
    )


def matrix_to_text(m: BitMatrix) -> str:
    """Serialize: first line n, then n lines of n characters from {0, 1}."""
    # entry (i, j) is bit j - 1 of packed row i, written as character j - 1
    rows = (format(r, f"0{m.n}b")[::-1] for r in m.packed_rows())
    return "\n".join([str(m.n), *rows]) + "\n"


def parse_matrix_text(text: str) -> BitMatrix:
    """Parse the format written by matrix_to_text.

    Raises:
        ValueError: on malformed headers, bad characters, or wrong shape.
    """
    lines = text.splitlines()
    if not lines:
        raise ValueError("empty matrix text")
    head = lines[0].strip()
    try:
        n = int(head)
    except ValueError:
        raise ValueError(f"bad dimension header {clip(repr(head))}") from None
    if n < 1:
        raise ValueError(f"dimension must be positive, got {n}")
    body = [ln for ln in lines[1:] if ln.strip()]
    if len(body) != n:
        raise ValueError(f"expected {n} rows, got {len(body)}")
    rows = []
    for i, ln in enumerate(body):
        ln = ln.strip()
        if len(ln) != n or ln.strip("01"):
            raise ValueError(f"row {i + 1} is not {n} characters of 0/1: {clip(repr(ln))}")
        # entry (i, j) is character j - 1, and bit j - 1 of the packed row
        rows.append(int(ln[::-1], 2))
    return transpose(BitMatrix(n, tuple(rows)))
