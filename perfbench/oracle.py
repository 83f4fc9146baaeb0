"""Independent correctness oracle for the benchmark.

Nothing here imports ``revident``.  A circuit is a width plus a list of
``(controls, target)`` pairs, parsed from and written to the text format
with this module's own code.  Specifications are computed with bit
operations, never by composing permutation tables: ``spec`` pushes every
input pattern through the gates one at a time, and ``prefix_keys`` pushes
all of them at once, holding each wire's value on every pattern in one
integer.  Irreducibility is checked by computing every prefix
specification in full and looking for two that are equal.
"""

from __future__ import annotations

import re

Gate = tuple[tuple[int, ...], int]

_ARITY = {"NOT": 1, "CNOT": 2, "TOF": 3, "TOF4": 4}
_TOKEN_RE = re.compile(r"\s*(?:([A-Za-z][A-Za-z0-9]*)\s*\(([^()]*)\)|([#\[\];]))")


class OracleError(ValueError):
    """Raised when program output is not a well-formed circuit."""


def parse(text: str) -> tuple[int, list[Gate]]:
    """Parse circuit text: an optional ``wires:`` header line, then gate
    tokens.  Without a header, wires are numbered by first appearance."""
    text = re.sub(r"//[^\n]*", "", text)
    order: list[str] = []
    declared = False
    head = re.match(r"\s*wires\s*:([^\n]*)", text)
    if head:
        order = head.group(1).replace(",", " ").split()
        declared = True
        text = text[head.end():]
    gates: list[Gate] = []
    pos, end = 0, len(text.rstrip())
    while pos < end:
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise OracleError(f"cannot parse circuit text at {text[pos:pos + 20]!r}")
        pos = m.end()
        name, body = m.group(1), m.group(2)
        if name is None:
            continue
        args = [a.strip() for a in re.split(r"[,;]", body) if a.strip()]
        if name in _ARITY:
            if len(args) != _ARITY[name]:
                raise OracleError(f"{name} with {len(args)} wires")
        elif name != "MCT" or not args:
            raise OracleError(f"unknown gate {name}")
        wires = []
        for a in args:
            if a not in order:
                if declared:
                    raise OracleError(f"wire {a} not declared")
                order.append(a)
            wires.append(order.index(a))
        if len(set(wires)) != len(wires):
            raise OracleError("repeated wire in a gate")
        gates.append((tuple(sorted(wires[:-1])), wires[-1]))
    return max(len(order), 1), gates


def format_circuit(width: int, gates: list[Gate]) -> str:
    """Text with an explicit ``wires:`` header, one token per gate."""
    names = [chr(ord("a") + i) for i in range(width)]
    tokens = []
    for controls, target in gates:
        args = [names[c] for c in controls]
        if len(controls) <= 3:
            name = ("NOT", "CNOT", "TOF", "TOF4")[len(controls)]
            tokens.append(f"{name}({', '.join(args + [names[target]])})")
        else:
            tokens.append(f"MCT({', '.join(args)}; {names[target]})")
    return f"wires: {' '.join(names)}\n{' '.join(tokens)}\n"


def _masks(gates: list[Gate]) -> list[tuple[int, int]]:
    return [(sum(1 << c for c in controls), 1 << target) for controls, target in gates]


def spec(width: int, gates: list[Gate]) -> list[int]:
    """Output pattern for every input pattern, computed bit by bit."""
    masks = _masks(gates)
    out = []
    for x in range(1 << width):
        y = x
        for m, t in masks:
            if y & m == m:
                y ^= t
        out.append(y)
    return out


def format_spec(values: list[int]) -> str:
    return "[" + ",".join(map(str, values)) + "]"


def identity_columns(width: int) -> list[int]:
    """The identity specification, bit-sliced: bit ``x`` of entry ``k``
    is bit ``k`` of pattern ``x``."""
    n = 1 << width
    cols = []
    for k in range(width):
        col = ((1 << (1 << k)) - 1) << (1 << k)  # 2**k zeros, then 2**k ones
        length = 2 << k
        while length < n:
            col |= col << length
            length *= 2
        cols.append(col)
    return cols


def apply_columns(cols: list[int], gate: Gate, width: int) -> list[int]:
    """Bit-sliced specification after one more gate: the target column
    flips on every pattern whose control columns are all 1."""
    fire = (1 << (1 << width)) - 1
    for c in gate[0]:
        fire &= cols[c]
    out = list(cols)
    out[gate[1]] ^= fire
    return out


def prefix_keys(width: int, gates: list[Gate]) -> list[tuple[int, ...]]:
    """Every prefix specification (entry 0 is the identity), bit-sliced.
    Two keys are equal exactly when the two specifications are."""
    cols = identity_columns(width)
    keys = [tuple(cols)]
    for g in gates:
        cols = apply_columns(cols, g, width)
        keys.append(tuple(cols))
    return keys


def repeated_prefixes(prefixes: list) -> list[tuple[int, int]]:
    """All pairs (j, i), j < i, of equal prefix specifications, each i
    paired with its earliest equal j."""
    first: dict[bytes, int] = {}
    pairs = []
    for i, s in enumerate(prefixes):
        j = first.setdefault(s, i)
        if j != i:
            pairs.append((j, i))
    return pairs


def is_interior_irreducible_identity(prefixes: list) -> bool:
    """An identity whose only repeated prefix pair is its two endpoints."""
    return repeated_prefixes(prefixes) == [(0, len(prefixes) - 1)]
