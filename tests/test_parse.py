"""Pinned outcomes of parse_circuit_text on a seeded corpus of circuit texts.

Every valid text comes from synthesize, permutation_circuit or a family
construction at n = 2..300; each mutation kind rewrites it with a seeded
generator (line breaks and separators str.splitlines/str.split accept,
padding, leading zeros, bad and repeated tokens, collisions, positions off
the line or past the cell limit, blank lines, bad headers, non-ASCII text).
A kind's pin is the SHA-256 of every outcome in corpus order: the masks of
a parsed circuit, or the type and message of the error it raised.
"""

import hashlib
import random
import re
import sys

import pytest

from cnotline import (
    ResourceLimitError,
    add_circuit,
    circuit_to_text,
    parse_circuit_text,
    permutation_circuit,
    reverse_circuit,
    rotate_circuit,
    swap_circuit,
    synthesize,
)
from cnotline import circuit as circuit_module
from conftest import random_invertible


def _sources():
    """(n, text) of the valid corpus, seeded."""
    rng = random.Random(25)
    for n in (2, 3, 4, 5, 7, 8, 9, 16, 17, 33, 64, 100, 128, 256, 300):
        if n <= 128:  # a synthesized circuit has about 5n * n / 2 gates
            yield n, circuit_to_text(synthesize(random_invertible(n, rng)))
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        yield n, circuit_to_text(permutation_circuit(perm))
        family = (add_circuit, swap_circuit, rotate_circuit, reverse_circuit)[n % 4]
        yield n, circuit_to_text(family(n))


def _lines(text):
    head, *body = text.split("\n")[:-1]
    return head, body


def _join(head, body):
    return "\n".join([head, *body]) + "\n"


def _replace_some(text, old, new, rng, share):
    parts = text.split(old)
    out = [parts[0]]
    for part in parts[1:]:
        out.append(new if rng.random() < share else old)
        out.append(part)
    return "".join(out)


def _replace_one(text, old, new, rng):
    at = [i for i in range(len(text)) if text.startswith(old, i)]
    if not at:
        return text
    i = rng.choice(at)
    return text[:i] + new + text[i + len(old):]


def _insert_token(text, rng, token_for):
    head, body = _lines(text)
    i = rng.randrange(len(body))
    tokens = body[i].split(" ")
    tokens.insert(rng.randint(0, len(tokens)), token_for(tokens))
    body[i] = " ".join(tokens)
    return _join(head, body)


def _map_tokens(text, rng, share, rewrite):
    head, body = _lines(text)
    body = [
        " ".join(rewrite(t) if rng.random() < share else t for t in line.split(" "))
        for line in body
    ]
    return _join(head, body)


def _neighbour(n, rng):
    def token_for(tokens):
        p = int(rng.choice(tokens)[1:]) + rng.choice((-1, 0, 1))
        return rng.choice("ud") + str(min(max(p, 1), n - 1))
    return token_for


def _far_header(text):
    head, body = _lines(text)
    return _join("n 1000000000000", body)


def _bad_header(text, rng):
    head, body = _lines(text)
    bad = rng.choice(["n", "n x", "n -3", "m 5", "n 1", "n 0", "n 5 5", "N 5", "n5",
                      "n 1e3", "n +5", "n 0x10", "n \u00b2", "n 7" + "7" * 5000, ""])
    return _join(bad, body)


def _blank_line(text, rng):
    head, body = _lines(text)
    body.insert(rng.randint(0, len(body)), rng.choice(["", " ", "\t", "  \t "]))
    return _join(head, body)


def _truncate(text, rng):
    return text[:rng.randint(1, len(text))]


def _mutations(n, rng):
    """Mutation kind -> function of a valid text on n wires."""
    return {
        "valid": lambda t: t,
        "crlf": lambda t: t.replace("\n", "\r\n"),
        "cr-one": lambda t: _replace_one(t, "\n", "\r", rng),
        "cr-all": lambda t: t.replace("\n", "\r"),
        "crlf-some": lambda t: _replace_some(t, "\n", "\r\n", rng, 0.5),
        "tab": lambda t: _replace_some(t, " ", "\t", rng, 0.3),
        "breaks": lambda t: _replace_some(t, "\n", rng.choice("\v\f\x1c\x1d\x1e"), rng, 0.3),
        "break-in-line": lambda t: _replace_one(t, " ", rng.choice("\r\v\f\x1c\x1d\x1e"), rng),
        "unit-separator": lambda t: _replace_some(t, " ", "\x1f", rng, 0.5),
        "nel": lambda t: _replace_one(t, "\n", "\x85", rng),
        "nbsp": lambda t: _replace_one(t, " ", "\xa0", rng),
        "line-separator": lambda t: _replace_one(t, "\n", "\u2028", rng),
        "joined-lines": lambda t: _replace_one(t, "\n", " ", rng),
        "arabic-digit": lambda t: _map_tokens(t, rng, 0.1, lambda s: s.replace("1", "\u0661")),
        "superscript": lambda t: _insert_token(t, rng, lambda tokens: "u\u00b2"),
        "double-space": lambda t: _replace_some(t, " ", "  ", rng, 0.5),
        "leading-space": lambda t: _replace_some(
            t, "\n", "\n" + rng.choice([" ", "\t", "  "]), rng, 0.3),
        "trailing-space": lambda t: _replace_some(
            t, "\n", rng.choice([" ", "\t ", "\x1f"]) + "\n", rng, 0.3),
        "leading-zeros": lambda t: _map_tokens(
            t, rng, 0.2, lambda s: s[0] + "0" * rng.randint(1, 4) + s[1:]),
        "zero-position": lambda t: _insert_token(
            t, rng, lambda tokens: rng.choice(["u0", "d0", "u00"])),
        "off-line": lambda t: _insert_token(
            t, rng, lambda tokens: rng.choice("ud") + str(n + rng.choice((0, 1, 9, 10 ** 6)))),
        "long-position": lambda t: _insert_token(
            t, rng, lambda tokens: rng.choice("ud") + "7" * 5000),
        "long-zeros": lambda t: _insert_token(
            t, rng, lambda tokens: rng.choice("ud") + "0" * 5000 + str(rng.randint(1, n - 1))),
        "bad-token": lambda t: _insert_token(t, rng, lambda tokens: rng.choice(
            ["x3", "u", "d", "u1x", "U1", "+1", "u-1", "d1.0", "ud1", "1"])),
        "repeat": lambda t: _insert_token(t, rng, lambda tokens: rng.choice(tokens)),
        "collision": lambda t: _insert_token(t, rng, _neighbour(n, rng)),
        "blank-line": lambda t: _blank_line(t, rng),
        "no-final-newline": lambda t: t[:-1],
        "extra-final-newline": lambda t: t + rng.choice(["\n", " \n", "\r\n"]),
        "truncated": lambda t: _truncate(t, rng),
        "far-header": _far_header,
        "bad-header": lambda t: _bad_header(t, rng),
    }


def _outcome(text):
    try:
        c = parse_circuit_text(text)
    except (ValueError, ResourceLimitError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return hashlib.sha256(repr((c.n, c.ups, c.downs)).encode()).hexdigest()


def _digests(monkeypatch):
    """Mutation kind -> SHA-256 of its outcomes over the corpus."""
    digests = {}
    for i, (n, text) in enumerate(_sources()):
        rng = random.Random(i)
        outcomes = {kind: _outcome(mutate(text)) for kind, mutate in _mutations(n, rng).items()}
        # the limit counts slice lines times the top position plus one
        with monkeypatch.context() as patch:
            patch.setattr(circuit_module, "CELL_LIMIT", (text.count("\n") - 1) * rng.randint(1, n))
            outcomes["cell-limit"] = _outcome(text)
        for kind, outcome in outcomes.items():
            digests.setdefault(kind, hashlib.sha256()).update(outcome.encode() + b"\n")
    return {kind: d.hexdigest() for kind, d in digests.items()}


PINNED_PARSE = {
    "valid": "7ec2495a5d09318ec2e0dd1f38bb2a82399bb1927a65d5073945c59936945bb6",
    "crlf": "7ec2495a5d09318ec2e0dd1f38bb2a82399bb1927a65d5073945c59936945bb6",
    "cr-one": "7ec2495a5d09318ec2e0dd1f38bb2a82399bb1927a65d5073945c59936945bb6",
    "cr-all": "7ec2495a5d09318ec2e0dd1f38bb2a82399bb1927a65d5073945c59936945bb6",
    "crlf-some": "7ec2495a5d09318ec2e0dd1f38bb2a82399bb1927a65d5073945c59936945bb6",
    "tab": "7ec2495a5d09318ec2e0dd1f38bb2a82399bb1927a65d5073945c59936945bb6",
    "breaks": "7ec2495a5d09318ec2e0dd1f38bb2a82399bb1927a65d5073945c59936945bb6",
    "break-in-line": "db38474f9b3fa9f9cfc5d87bd43ac51782fec4f66c4b6cf8fa13cb71dc75b27e",
    "unit-separator": "7ec2495a5d09318ec2e0dd1f38bb2a82399bb1927a65d5073945c59936945bb6",
    "nel": "7ec2495a5d09318ec2e0dd1f38bb2a82399bb1927a65d5073945c59936945bb6",
    "nbsp": "7ec2495a5d09318ec2e0dd1f38bb2a82399bb1927a65d5073945c59936945bb6",
    "line-separator": "7ec2495a5d09318ec2e0dd1f38bb2a82399bb1927a65d5073945c59936945bb6",
    "joined-lines": "2e21283040273ab83e6e70b9d1474bc99901902c319cbc27ebbdfa24da512ee7",
    "arabic-digit": "7ec2495a5d09318ec2e0dd1f38bb2a82399bb1927a65d5073945c59936945bb6",
    "superscript": "72225bce55612596c3c4cd53708dd28957035ee9fa0fd2e1ef1d8fe8f058888e",
    "double-space": "7ec2495a5d09318ec2e0dd1f38bb2a82399bb1927a65d5073945c59936945bb6",
    "leading-space": "e7ea822a255d90ba8fe82c5caed8749047f1b7b6c5f9455949078a41f48e089c",
    "trailing-space": "7ec2495a5d09318ec2e0dd1f38bb2a82399bb1927a65d5073945c59936945bb6",
    "leading-zeros": "7ec2495a5d09318ec2e0dd1f38bb2a82399bb1927a65d5073945c59936945bb6",
    "zero-position": "c6834c61f5cc364efa06b6880b816884bcfc41cee78c3841f7f529fd0618d421",
    "off-line": "ec1737bdf2a0e899cc62c64b2c5006d7ebb87f24b821ecc9a2758616e7719284",
    "long-position": "4998d5d1c32ea45b16ff30617404e226ab269790df786b28c4939cff68684625",
    "long-zeros": "9c04b78ad5f53844052d58a64d73b153dd45f9617f77531642fc37f94248bc63",
    "bad-token": "a6ab3bbeee5d06aa8694db5bbf0fe248e4c1fbaebaeec09b4048f91496a91fe0",
    "repeat": "9ec45636f4f8ef1bcc2597a5cf5281695c8936b791e1fa134f63206d019c9310",
    "collision": "9a11a1f6b350fe59ed9811aa4f30ba05abc8ca4aefea424eeff1639d53d7c9ce",
    "blank-line": "76e3fec7cec8ca76d11cff439a3982c6e793ca45f9e05833e6c84a28865def3f",
    "no-final-newline": "7ec2495a5d09318ec2e0dd1f38bb2a82399bb1927a65d5073945c59936945bb6",
    "extra-final-newline": "3c632109d4b6db3451dc69269428e5ae3d0d63062200f3e3856729050f8fa0cb",
    "truncated": "4b057fd2d220b714270b402fb073a737bdda035ef292c64d6444f12ea840bb64",
    "far-header": "e45dba6aec4f47639fabb90ffcafbee253fc8e1eaa8716180f3435b42dc85356",
    "bad-header": "09e8b49b1f74568a5f84446af49a5accea6a427f2ba2fb3cd952a97ab81f03d7",
    "cell-limit": "ef9ca470982ac7e09b30d2d0c141b3306815cea4f7dc274cadd1c1868eb9b26c",
}


def test_pinned_parse_outcomes(monkeypatch):
    assert _digests(monkeypatch) == PINNED_PARSE


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_faults_at_chunk_edges_are_worded_as_in_one_chunk(monkeypatch, newline):
    # chunks of a few characters hold one line or a few, so every line is
    # the first or the last of some chunk; a fault there, or a line the
    # vector pass refuses though it is valid (past ASCII), reads as in one
    # chunk, and so do leading zeros
    head, body = _lines(circuit_to_text(reverse_circuit(9)))
    valid = ["u01", "d001 u3", "u1\xa0u3"]
    faults = ["u0", "u9", "u1 u1", "u1 d2", "", "\t", "x", "u" + "7" * 50, "u1\xa0x", *valid]
    for at in range(len(body)):
        for fault in faults:
            text = _join(head, body[:at] + [fault] + body[at + 1:]).replace("\n", newline)
            want = _outcome(text)
            assert want.startswith(f"ValueError: line {at + 2}: ") or fault in valid
            for chars in (1, 7, 20):
                with monkeypatch.context() as patch:
                    patch.setattr(circuit_module, "_TEXT_CHUNK", chars)
                    assert _outcome(text) == want
    # every line refused, at every chunk size: no chunk starts inside a
    # "\r\n", _line_code reads each line once, and the vector pass reads
    # each character about once (not again after each refused line)
    read, scanned = [], []
    line_code, text_gates = circuit_module._line_code, circuit_module._text_gates

    def counted(tokens, n, lineno, depth):
        read.append(lineno)
        return line_code(tokens, n, lineno, depth)

    def measured(raw, width, limit):
        scanned.append(len(raw))
        return text_gates(raw, width, limit)

    monkeypatch.setattr(circuit_module, "_line_code", counted)
    monkeypatch.setattr(circuit_module, "_text_gates", measured)
    # each digit in Arabic-Indic, 1 written \u0661
    digits = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))
    text = _join(head, [line.translate(digits) for line in body]).replace("\n", newline)
    want = _outcome(_join(head, body))
    for chars in range(1, 48):
        read.clear()
        scanned.clear()
        with monkeypatch.context() as patch:
            patch.setattr(circuit_module, "_TEXT_CHUNK", chars)
            assert _outcome(text) == want
        assert read == list(range(2, len(body) + 2))
        assert sum(scanned) < 1.5 * len(text)


def test_only_refused_lines_and_other_text_are_read_line_by_line(monkeypatch):
    read = []
    line_code = circuit_module._line_code

    def counted(tokens, n, lineno, depth):
        read.append(lineno)
        return line_code(tokens, n, lineno, depth)

    monkeypatch.setattr(circuit_module, "_line_code", counted)
    text = circuit_to_text(reverse_circuit(9))
    c = parse_circuit_text(text)
    assert read == []
    # leading zeros, even past the width of n, and whitespace past ASCII (a
    # space, a line break, a header ended by one, or every space) are read by
    # the vector pass; a line with other text past ASCII is refused and read
    # alone, the rest of its chunk by the vector pass
    for at, old, new, want in [(0, "u1 ", "u01 ", []), (0, " d", " d" + "0" * 5000, []),
                               (51, " ", "\xa0", []),
                               (99, "\n", "\x85", []), (159, "\n", "\u2028", []),
                               (0, "\n", "\x85", []),
                               (51, "1", "\u0661", [6]), (0, "1", "\u0661", [2])]:
        read.clear()
        assert parse_circuit_text(text[:at] + text[at:].replace(old, new, 1)) == c
        assert read == want
    read.clear()
    assert parse_circuit_text(text.replace(" ", "\xa0")) == c
    assert read == []
    # every other ASCII line break and separator str.split and splitlines know
    read.clear()
    for newline in ["\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e"]:
        for space in [" ", "\t", "\x1f", " \t\x1f "]:
            assert parse_circuit_text(text.replace(" ", space).replace("\n", newline)) == c
    assert read == []


def test_wide_spaces_are_the_interpreters():
    # every character past ASCII that str.split splits at, mapped to an ASCII
    # break where str.splitlines breaks at it, else to a space
    wide = [c for c in map(chr, range(128, sys.maxunicode + 1)) if c.isspace()]
    assert sorted(circuit_module._WIDE_SPACES) == wide
    for c in wide:
        breaks = len(("a" + c + "b").splitlines()) == 2
        assert circuit_module._WIDE_SPACES[c] == ("\x1e" if breaks else " ")


@pytest.mark.parametrize("token", ["u-1", "d1.0", "u/5", "d1,2", "u1!", "u+7", "d#", "u1\x00"])
def test_bytes_below_the_digits_are_no_digits(token):
    # read as digits, these would give positions far below 10^6
    with pytest.raises(ValueError, match=f"^line 3: bad gate token {re.escape(repr(token))}$"):
        parse_circuit_text(f"n 1000000\nu1 d3\nd2 {token}\n")
