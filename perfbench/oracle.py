"""Independent GF(2) oracle for the outputs of cnotline's commands.

Nothing here imports cnotline.  Circuits and matrices are read from
their text forms and simulated on a plain list of wire values, one
Python int per wire (bit i-1 of wire j's value is the coefficient of
initial wire i), so agreement with the program is evidence that the
program is right.
"""

from __future__ import annotations

from dataclasses import dataclass


class CheckError(Exception):
    """An output that is malformed or wrong."""


@dataclass(frozen=True)
class ParsedCircuit:
    n: int
    # each slice is a list of (kind, position); kind "u" is wire p <- p+1,
    # kind "d" is wire p+1 <- p
    slices: list

    @property
    def depth(self) -> int:
        return len(self.slices)

    @property
    def size(self) -> int:
        return sum(len(sl) for sl in self.slices)


def parse_circuit(text: str) -> ParsedCircuit:
    """Parse "n <wires>" then one line of u<p>/d<p> tokens per slice.

    Raises CheckError on a malformed line, a gate off the line, or two
    gates of one slice sharing a wire.
    """
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise CheckError("empty circuit text")
    head = lines[0].split(" ")
    if len(head) != 2 or head[0] != "n" or not head[1].isdigit():
        raise CheckError(f"bad circuit header {lines[0]!r}")
    n = int(head[1])
    slices = []
    for lineno, line in enumerate(lines[1:], start=2):
        used = set()
        gates = []
        for tok in line.split(" "):
            kind, digits = tok[:1], tok[1:]
            if kind not in ("u", "d") or not digits.isdigit():
                raise CheckError(f"line {lineno}: bad gate token {tok!r}")
            p = int(digits)
            if not 1 <= p < n:
                raise CheckError(f"line {lineno}: gate {tok} off the {n}-wire line")
            if p in used or p + 1 in used:
                raise CheckError(f"line {lineno}: slice is not wire-disjoint at {tok}")
            used.update((p, p + 1))
            gates.append((kind, p))
        slices.append(gates)
    return ParsedCircuit(n, slices)


def simulate(c: ParsedCircuit) -> list[int]:
    """Final wire values, starting from wire j holding initial wire j."""
    wires = [1 << j for j in range(c.n)]
    for sl in c.slices:
        for kind, p in sl:
            if kind == "u":
                wires[p - 1] ^= wires[p]
            else:
                wires[p] ^= wires[p - 1]
    return wires


def matrix_text(columns: list[int], n: int) -> str:
    """The matrix file format: n, then row i as n characters 0/1."""
    rows = [str(n)]
    for i in range(n):
        rows.append("".join("1" if (columns[j] >> i) & 1 else "0" for j in range(n)))
    return "\n".join(rows) + "\n"


def rank(vectors: list[int]) -> int:
    """Rank over GF(2) of vectors packed into ints (xor basis by top bit)."""
    basis: dict[int, int] = {}
    for v in vectors:
        while v:
            top = v.bit_length()
            if top not in basis:
                basis[top] = v
                break
            v ^= basis[top]
    return len(basis)


def inversions(perm: list[int]) -> int:
    """Number of pairs i < j with perm[i] > perm[j] (merge count)."""
    if len(perm) < 2:
        return 0
    mid = len(perm) // 2
    left, right = sorted(perm[:mid]), sorted(perm[mid:])
    count = inversions(perm[:mid]) + inversions(perm[mid:])
    j = 0
    for x in left:
        while j < len(right) and right[j] < x:
            j += 1
        count += j
    return count


def permutation_columns(perm: list[int]) -> list[int]:
    """Wire perm[i-1] ends holding initial wire i."""
    cols = [0] * len(perm)
    for i, image in enumerate(perm):
        cols[image - 1] = 1 << i
    return cols


def check_circuit(text: str, target: list[int], depth_cap: int) -> ParsedCircuit:
    """A circuit that simulates to target with depth at most depth_cap."""
    c = parse_circuit(text)
    if c.n != len(target):
        raise CheckError(f"circuit on {c.n} wires, target of dimension {len(target)}")
    if simulate(c) != target:
        raise CheckError("circuit does not compute the target")
    if c.depth > depth_cap:
        raise CheckError(f"depth {c.depth} exceeds the proven bound {depth_cap}")
    return c


def check_verify_report(stdout: str, rc: int, c: ParsedCircuit) -> None:
    """`verify` on a correct circuit: its depth, size, per-cut crossings
    at or above the printed lower bounds, then PASS with exit code 0."""
    lines = stdout.splitlines()
    if rc != 0 or not lines or lines[-1] != "PASS":
        raise CheckError(f"verify did not pass (exit {rc})")
    if lines[0] != f"depth={c.depth} size={c.size}":
        raise CheckError(f"verify reports {lines[0]!r}")
    crossings = [0] * (c.n - 1)
    for sl in c.slices:
        for _, p in sl:
            crossings[p - 1] += 1
    cut_lines = lines[1:-1]
    if len(cut_lines) != c.n - 1:
        raise CheckError(f"verify printed {len(cut_lines)} cut lines for {c.n} wires")
    for k, line in enumerate(cut_lines, start=1):
        head, _, rest = line.partition(": ")
        fields = dict(f.split("=") for f in rest.split(" "))
        if head != f"cut {k}" or int(fields["crossings"]) != crossings[k - 1]:
            raise CheckError(f"cut line {line!r} disagrees with crossings {crossings[k - 1]}")
        if int(fields["lower_bound"]) > crossings[k - 1]:
            raise CheckError(f"unsound lower bound on {line!r}")


def parse_search_report(stdout: str) -> dict:
    """Key facts of a `search` report: value, completed, visited."""
    out: dict = {}
    for line in stdout.splitlines():
        if line.startswith("max_depth = "):
            out["value"], out["completed"] = int(line[12:]), True
        elif line.startswith("distance = "):
            out["value"], out["completed"] = int(line[11:]), True
        elif line.startswith("distance > "):
            out["value"], out["completed"] = int(line[11:]), False
        elif line.startswith("visited_count = "):
            out["visited"] = int(line[16:])
    if "value" not in out or "visited" not in out:
        raise CheckError(f"unreadable search report {stdout!r}")
    return out
