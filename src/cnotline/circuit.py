"""Adjacent-wire CNOT circuits on a line of n wires.

A gate (t <- s) xors the value of wire s into wire t, with s and t
adjacent.  A time slice is a set of gates touching pairwise disjoint
wires; a circuit is an ordered sequence of slices.  Simulation tracks
the matrix whose column j expresses the current value of wire j as a
combination of the initial wire values, so running gates multiplies on
the right by elementary matrices.

A gate is the int 2p + d: up(p) = (p <- p + 1) is 2p and down(p) =
(p + 1 <- p) is 2p + 1, so codes sort by position, up(p) first.  A
circuit holds two masks per slice, bit p of up for up(p), of down for down(p).
"""

from __future__ import annotations

__all__ = ["Circuit", "CircuitMetrics", "ResourceLimitError", "apply", "circuit_to_text", "concat",
           "crossing_counts", "down", "gate_token", "inverse", "matrix_of", "metrics",
           "parse_circuit_text", "parse_gate_token", "schedule", "up"]

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .f2 import BitMatrix, clip

# Slice-wire cells a circuit may take: synth refuses a family whose depth
# bound times n passes it, and parsing a gate whose position times the
# file's line count does.
CELL_LIMIT = 1 << 28

# Mask bytes read at once per direction; a chunk unpacked to bits takes 1 MB.
_CHUNK_BYTES = 1 << 16

# Characters of circuit text read at once; its token arrays take a few
# bytes per character, and parse faster while they fit in cache.  A longer
# line is read whole.
_TEXT_CHUNK = 1 << 18

# str.split's whitespace past ASCII, one for one to ASCII: a line break to
# "\x1e", which _one_break then maps to "\n", the rest to a space.
_WIDE_SPACES = {**dict.fromkeys("\x85\u2028\u2029", "\x1e"), **dict.fromkeys(
    "\xa0\u1680\u2000\u2001\u2002\u2003\u2004\u2005\u2006\u2007\u2008\u2009\u200a"
    "\u202f\u205f\u3000", " ")}


class ResourceLimitError(RuntimeError):
    """Raised when a command would exceed its declared memory budget."""


def up(position: int) -> int:
    """Code of gate up(p): wire p + 1 added into wire p."""
    return 2 * position


def down(position: int) -> int:
    """Code of gate down(p): wire p added into wire p + 1."""
    return 2 * position + 1


def gate_token(g: int) -> str:
    """Text token of gate code g: u<p> for up(p), d<p> for down(p)."""
    return f"{'ud'[g & 1]}{g >> 1}"


def parse_gate_token(token: str) -> int:
    # leading zeros go before int() sees the digits; a position of 0 leaves none
    kind, digits = token[:1], token[1:].lstrip("0")
    if kind in ("u", "d") and digits.isdecimal():
        try:
            return 2 * int(digits) + (kind == "d")
        except ValueError:  # a position past the interpreter's digit limit
            pass
    raise ValueError(f"bad gate token {clip(repr(token))}")


@dataclass(frozen=True)
class Circuit:
    """Time slices on n wires: bit p of ups[i] is up(p) in slice i, of downs[i] down(p).

    The constructor checks only that the tuples match in length and that gates
    fit on the line, not that slices are nonempty and wire-disjoint.
    """

    n: int
    ups: tuple[int, ...] = ()
    downs: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"need at least 2 wires, got {self.n}")
        if len(self.ups) != len(self.downs):
            raise ValueError(f"{len(self.ups)} up masks but {len(self.downs)} down masks")
        n = self.n
        for u, d in zip(self.ups, self.downs):
            # gate p needs wires p and p + 1; a negative mask sets all high bits
            w = u | d
            if w & 1 or (off := w >> n):  # name the lowest gate off the line
                p = 0 if w & 1 else n - 1 + (off & -off).bit_length()
                g = 2 * p + 1 - (u >> p & 1)
                raise ValueError(f"gate {gate_token(g)} does not fit on {n} wires")

    @property
    def depth(self) -> int:
        return len(self.ups)

    @property
    def size(self) -> int:
        return sum(map(int.bit_count, self.ups)) + sum(map(int.bit_count, self.downs))


def _mask_planes(circuit: Circuit) -> Iterator[np.ndarray]:
    """Little-endian mask bytes through bit n, a chunk of slices at a time (one
    empty chunk for none): (d, i, j) is byte j of slice i's up (d = 0) or down mask."""
    width = circuit.n // 8 + 1
    step = max(1, _CHUNK_BYTES // width)
    for start in range(0, circuit.depth or 1, step):
        raw = bytearray()  # grown in place: a join would first list a bytes object per mask
        for m in circuit.ups[start:start + step] + circuit.downs[start:start + step]:
            raw += m.to_bytes(width, "little")
        yield np.frombuffer(raw, np.uint8).reshape(2, -1, width)


def _chunk_gates(planes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The code of every gate of a _mask_planes chunk, in slice and code order,
    and the gate count of each slice, unpacking only mask bytes with a gate."""
    _, depth, width = planes.shape
    ups, downs = planes.reshape(2, -1)
    held = np.flatnonzero(ups | downs)
    # entry (k, i, d) of the stack: direction d at bit i of mask byte held[k]
    unpacked = [np.unpackbits(m[held, None], axis=1, bitorder="little") for m in (ups, downs)]
    found = np.flatnonzero(np.stack(unpacked, axis=2).view(bool))
    slice_of, byte_of = np.divmod(held, width)
    k = found >> 4
    # 2p + d with p = 8 * byte + i, and found & 15 = 2i + d
    return byte_of[k] << 4 | found & 15, np.bincount(slice_of[k], minlength=depth)


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
    counts = np.zeros((circuit.n // 8 + 1, 8), np.uint64)  # row j: bits of mask byte j
    for planes in _mask_planes(circuit):
        held = np.flatnonzero(planes.any(axis=(0, 1)))  # the byte columns with a gate
        bits = np.unpackbits(planes[:, :, held], axis=2, bitorder="little")
        counts[held] += bits.sum(axis=(0, 1)).reshape(-1, 8)
    return tuple(counts.reshape(-1)[1:circuit.n].tolist())


def schedule(n: int, gates: Iterable[int]) -> Circuit:
    """Pack a sequence of gate codes greedily into the earliest admissible slices.

    Each gate lands in the slice right after the last slice touching
    either of its wires, so gates on shared wires keep their order and
    the result computes the same map as running the sequence one gate at
    a time.
    """
    last = [0] * (n + 2)
    ups: list[int] = []
    downs: list[int] = []
    depth = 0
    for g in gates:
        p = g >> 1
        if not 0 < p < n:
            raise ValueError(f"gate {gate_token(g)} does not fit on {n} wires")
        a, b = last[p], last[p + 1]
        s = a if a > b else b
        if s == depth:
            ups.append(0)
            downs.append(0)
            depth += 1
        (downs if g & 1 else ups)[s] |= 1 << p
        last[p] = last[p + 1] = s + 1
    return Circuit(n, tuple(ups), tuple(downs))


def concat(first: Circuit, second: Circuit) -> Circuit:
    """The circuit running first, then second (no repacking)."""
    if first.n != second.n:
        raise ValueError(f"wire count mismatch: {first.n} vs {second.n}")
    return Circuit(first.n, first.ups + second.ups, first.downs + second.downs)


def apply(circuit: Circuit, state: BitMatrix) -> BitMatrix:
    """Run the circuit on a state matrix whose column j is wire j's value.

    Gate (t <- s) xors column s into column t.  Within a slice the gates
    commute when the slice is wire-disjoint, so sequential application
    is faithful to simultaneous semantics for valid circuits.
    """
    if state.n != circuit.n:
        raise ValueError(f"state dimension {state.n} does not match {circuit.n} wires")
    cols = list(state.cols)
    for codes, _ in map(_chunk_gates, _mask_planes(circuit)):
        # gate g adds column g // 2 - g % 2 into column (g + 1) // 2 - 1
        for t, s in zip(((codes + 1 >> 1) - 1).tolist(), ((codes >> 1) - (codes & 1)).tolist()):
            cols[t] ^= cols[s]
    return BitMatrix(circuit.n, tuple(cols))


def matrix_of(circuit: Circuit) -> BitMatrix:
    """Matrix computed by the circuit from initial wire values."""
    return apply(circuit, BitMatrix.identity(circuit.n))


def inverse(circuit: Circuit) -> Circuit:
    """Circuit undoing this one: slices reversed, each gate self-inverse."""
    return Circuit(circuit.n, circuit.ups[::-1], circuit.downs[::-1])


def circuit_to_text(circuit: Circuit) -> str:
    """Serialize: header "n <wires>", then one line of gate tokens per slice."""
    parts = [f"n {circuit.n}"]
    for planes in _mask_planes(circuit):
        codes, counts = _chunk_gates(planes)
        # a row of bytes per code of each mask byte in use, after row 0 for an
        # empty line: a space, then the token, padded with zeros
        columns = np.flatnonzero(planes.any(axis=(0, 1)))
        names = [" "] + [f" {gate_token(g)}" for c in columns.tolist()
                         for g in range(16 * c, 16 * c + 16)]
        table = np.array(names, f"S{len(names[-1])}")
        first = np.zeros(planes.shape[2], np.int32)  # the row of each column's first code
        first[columns] = np.arange(1, len(names), 16)
        empty, ends = counts == 0, np.cumsum(counts)
        rows = np.insert(first[codes >> 4] + (codes & 15), ends[empty], 0)
        out = np.take(table, rows).view(np.uint8).reshape(-1, table.itemsize)
        out[ends - counts + np.cumsum(empty) - empty, 0] = 10  # a line break opens each line
        parts.append(out[out > 0].tobytes().decode("ascii"))
    parts.append("\n")
    return "".join(parts)


def parse_circuit_text(text: str) -> Circuit:
    """Parse the format written by circuit_to_text, split into lines and
    tokens as str.splitlines and str.split split it.

    Rejects malformed headers and tokens, gates off the line, wire
    collisions inside a slice, and empty slice lines.  A vector pass reads
    the slice lines a chunk at a time and lists the lines it refuses;
    _line_code reads those alone and words the first fault.

    Raises:
        ValueError: with the offending line in the message.
        ResourceLimitError: past CELL_LIMIT (see _line_code).
    """
    if not text:
        raise ValueError("empty circuit text")
    lines = _one_break(text)
    start = lines.find("\n") + 1
    # characters map one for one before the first break: quote the header as written
    head_line = text[:start - 1]
    head = head_line.split()
    try:
        if len(head) != 2 or head[0] != "n" or not head[1].isdigit():
            raise ValueError
        # int() refuses, unconverted, a count past the interpreter's digit limit
        n = int(head[1])
    except ValueError:
        raise ValueError(f"bad header {clip(repr(head_line))}, expected 'n <wires>'") from None
    if n < 2:
        raise ValueError(f"need at least 2 wires, got {n}")
    ups, downs = [], []
    depth = lines.count("\n") - 1
    while start < len(lines):  # slice line k is text line k + 2
        end, kept = _chunk_end(lines, start), len(ups)
        # digits of the highest position any line may hold: past CELL_LIMIT,
        # no depth leaves room for it
        found, pos, down, at, refused = _text_gates(
            np.frombuffer(lines[start - 1:end].encode("ascii", "replace"), np.uint8),
            len(str(min(n, CELL_LIMIT) - 1)), min(n, CELL_LIMIT // depth))
        for i in np.flatnonzero(_gate_masks(found, pos, down, refused, ups, downs)).tolist():
            line = lines[start + at[i]:start - 1 + at[i + 1]]  # at counts from start - 1
            ups[kept + i], downs[kept + i] = _line_code(line.split(), n, kept + i + 2, depth)
        start = end
    return Circuit(n, tuple(ups), tuple(downs))


def _one_break(text: str) -> str:
    """text with every break of str.splitlines as "\n" ("\r\n" as one), whitespace
    past ASCII as _WIDE_SPACES maps it, and a final "\n": the same lines, each
    splitting into the same tokens.  Text that needs none of this is not copied."""
    if "\r" in text:  # before a lone "\r" becomes a break of its own
        text = text.replace("\r\n", "\n")
    if not text.isascii():
        for c, ascii in _WIDE_SPACES.items():  # "in" and replace beat one translate
            if c in text:
                text = text.replace(c, ascii)
    for c in "\r\v\f\x1c\x1d\x1e":
        if c in text:
            text = text.replace(c, "\n")
    return text if text.endswith("\n") else text + "\n"


def _chunk_end(lines: str, start: int) -> int:
    """The index after the last "\n" in the _TEXT_CHUNK characters of lines
    from start, doubled until they hold one."""
    size = _TEXT_CHUNK
    while (cut := lines.rfind("\n", start, start + size)) < 0:
        size *= 2
    return cut + 1


def _text_gates(raw: np.ndarray, width: int, limit: int) -> tuple[np.ndarray, ...]:
    """Read raw, the bytes of a chunk of lines with a line break before them
    and one after: the index of each line's first gate and the gate count,
    each gate's position and direction (True for down), the index of each
    line break, and which lines are refused.  A refused line keeps no gates:
    it is empty, or a token on it is not u or d then at least one digit (past
    width of them only after zeros), or its position is 0 or at least limit."""
    seps = np.flatnonzero(raw <= 32)  # raw[0] and raw[-1] are among them
    blanks = len(seps)
    kinds = raw[seps]
    # str.split's ASCII whitespace: the line break \n, then spaces, \t and
    # \x1f; another byte below "!" spoils its line
    white = kinds == 10
    at = seps[white]
    white |= (kinds == 32) | (kinds == 9) | (kinds == 31)
    faults = [] if white.all() else [seps[~white]]
    size = seps[1:] - seps[:-1]
    held = size > 1  # a token between two separators
    if not held.all():
        seps, size = seps[:-1][held], size[held]
    starts = seps[:len(size)]
    starts += 1
    size -= 2  # digits after the letter
    shortest, longest = int(size.min(initial=1)), int(size.max(initial=0))
    letters = raw[starts]
    down = letters == 100
    last = starts + size
    # below "0" only whitespace, past "9" only the tokens' letters, u or d
    if (shortest < 1 or np.count_nonzero(raw < 48) != blanks
            or np.count_nonzero(raw > 57) != len(starts)
            or np.count_nonzero(down | (letters == 117)) != len(starts)):
        other = (raw > 57) | ((raw > 32) & (raw < 48))  # in a token, not a digit
        other[starts] = False
        faults += [np.flatnonzero(other), starts[(size < 1) | ~(down | (letters == 117))]]
    if longest > width:  # the last width digits, if only zeros lead them
        big = size > width
        ahead = np.flatnonzero(raw > 48)  # letters and digits past "0"
        # how many lie before each letter and before each token's last digits
        lead = ahead.searchsorted(np.stack((starts[big], last[big] - width)), "right")
        faults.append(starts[big][lead[0] != lead[1]])
        size, shortest, longest = np.minimum(size, width), min(shortest, width), width
    # weighted sums over digit columns from each token's last digit; a column
    # past a token's digits reads the bytes before it, or wraps round to the
    # chunk's end (a token and two breaks outnumber the columns), and weighs 0
    pos = np.subtract(raw[last], 48, dtype=np.int32)
    for j in range(1, longest):
        column = raw[last - j] - 48
        if j >= shortest:
            column *= size > j
        pos += np.multiply(column, 10 ** j, dtype=np.int32)  # uint8 * 100 would wrap
    if pos.min(initial=1) < 1 or pos.max(initial=0) >= limit:
        faults.append(starts[(pos < 1) | (pos >= limit)])
    found = starts.searchsorted(at)
    refused = np.zeros(len(at) - 1, bool)
    if faults:  # the lines of faulty bytes and tokens give up their tokens
        refused[at.searchsorted(np.concatenate(faults)) - 1] = True
        keep = ~np.repeat(refused, found[1:] - found[:-1])
        starts, pos, down = starts[keep], pos[keep], down[keep]
        found = starts.searchsorted(at)
    refused |= found[1:] == found[:-1]
    return found, pos, down, at, refused


def _gate_masks(found: np.ndarray, pos: np.ndarray, down: np.ndarray, refused: np.ndarray,
                ups: list[int], downs: list[int]) -> np.ndarray:
    """Append the masks of each line of _text_gates a group of lines at a time
    and return its refused lines, adding those where two gates share a wire,
    which get 0 masks."""
    lines, counts = len(found) - 1, found[1:] - found[:-1]
    bits = (int(pos.max(initial=0)) // 8 + 1) * 8  # mask bits of a line
    # (line, direction, position) in planes of bits a line
    at = np.repeat(np.arange(0, 2 * bits * lines, 2 * bits), counts)
    at += down * bits
    at += pos
    step = max(1, 8 * _CHUNK_BYTES // bits)
    bounds = found[:lines:step].tolist() + [len(pos)]
    for i, first in enumerate(range(0, lines, step)):
        rows = min(step, lines - first)
        planes = np.zeros((rows, 2, bits), bool)
        planes.reshape(-1)[at[bounds[i]:bounds[i + 1]] - 2 * bits * first] = True
        wires = planes[:, 0] | planes[:, 1]
        # a repeated gate or up(p) with down(p) leaves fewer bits than gates
        if (np.count_nonzero(wires) != bounds[i + 1] - bounds[i]
                or (wires[:, 1:] & wires[:, :-1]).any()):
            shared = ((np.count_nonzero(wires, axis=1) != counts[first:first + rows])
                      | (wires[:, 1:] & wires[:, :-1]).any(axis=1))
            planes[shared] = False
            refused[first:first + rows] |= shared
        data = np.packbits(planes, axis=2, bitorder="little").tobytes()
        width, from_bytes = bits // 8, int.from_bytes
        masks = [from_bytes(data[j:j + width], "little") for j in range(0, len(data), width)]
        ups += masks[0::2]
        downs += masks[1::2]
    return refused


def _line_code(tokens: list[str], n: int, lineno: int, depth: int) -> tuple[int, int]:
    """Check a slice line token by token and build its up and down masks.

    The one reader of the grammar that words its faults: each names the
    first bad token of its line.  Wires and masks are marked in bytes, so
    the work is linear in the line.

    Raises:
        ResourceLimitError: if depth slices of masks reaching a gate's
            position would pass CELL_LIMIT cells.
    """
    if not tokens:
        raise ValueError(f"line {lineno}: empty time slice")
    top = CELL_LIMIT // depth  # depth * (p + 1) passes the limit iff p >= top
    # bit w of wires: wire w is in use; bit p of masks[d]: gate 2p + d
    wires, masks = bytearray(), (bytearray(), bytearray())
    width = len(str(n))
    for tok in tokens:
        # a position with more digits than n is off the line: int() never sees it
        if len(tok[1:].lstrip("0")) > width and tok[1:].isdecimal() and tok[0] in "ud":
            raise ValueError(f"line {lineno}: gate {clip(tok)} does not fit on {n} wires")
        try:
            g = parse_gate_token(tok)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        p = g >> 1
        if p >= n:
            raise ValueError(f"line {lineno}: gate {gate_token(g)} does not fit on {n} wires")
        if p >= top:
            raise ResourceLimitError(
                f"line {lineno}: gate {gate_token(g)} would need {depth} slices on "
                f"{p + 1} wires, more than the limit of {CELL_LIMIT} slice-wire cells"
            )
        i, pair = p >> 3, 3 << (p & 7)  # wires p and p + 1 reach into byte i + 1
        if len(wires) < i + 2:  # 64 bytes past the need, so a rising line rarely grows them
            for marks in (wires, *masks):
                marks.extend(bytes(i + 64 - len(marks)))
        if (wires[i] | wires[i + 1] << 8) & pair:
            raise ValueError(f"line {lineno}: wire collision at {gate_token(g)}")
        wires[i] |= pair & 255
        wires[i + 1] |= pair >> 8
        masks[g & 1][i] |= 1 << (p & 7)
    return int.from_bytes(masks[0], "little"), int.from_bytes(masks[1], "little")
