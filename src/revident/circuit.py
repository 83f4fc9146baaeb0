"""Multi-control Toffoli gates and the circuits built from them.

Values are immutable; every edit operation returns a new ``Circuit``.

Text format
-----------
A circuit is a stream of whitespace-separated tokens::

    wires: a b c d
    NOT(a) CNOT(c, a) # TOF(a, b, d) [ CNOT(a, d) CNOT(a, d) ]

* ``NOT``, ``CNOT``, ``TOF`` and ``TOF4`` take exactly 1, 2, 3 and 4
  wire arguments.  The last argument is always the target; the rest are
  controls.  Gates with more than three controls use the general form
  ``MCT(c1, ..., ck; t)``.
* Wires are single letters ``a``..``z``.  An optional ``wires:`` header
  (one line, before any gate) fixes the wire order and the width;
  without it wires are numbered in order of first appearance.
* ``#`` marks at most one insertion point, a gap between gates.
* At most one ``[`` ... ``]`` pair brackets a span of gates.
* ``//`` starts a comment running to the end of the line.  Newlines and
  stray ``;`` are insignificant.

Parsing is one regex scan, and ``Circuit`` checks and formatting visit
each distinct gate once, so a repeated gate costs a match and a lookup.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

__all__ = [
    "Gate",
    "Circuit",
    "ParseError",
    "WidthMismatchError",
    "mct",
    "parse_circuit",
    "format_gate",
    "format_circuit",
    "concat",
    "insert_segment",
    "inverse",
]


class ParseError(ValueError):
    """Raised when circuit text does not follow the format above."""


class WidthMismatchError(ValueError):
    """Raised when an operation combines circuits of different widths."""


@dataclass(frozen=True)
class Gate:
    """One multi-control Toffoli gate: flip ``target`` iff all controls are 1."""

    controls: frozenset[int]
    target: int

    def __post_init__(self) -> None:
        controls = frozenset(self.controls)
        object.__setattr__(self, "controls", controls)
        if self.target < 0 or any(c < 0 for c in controls):
            raise ValueError("wire indices must be non-negative")
        if self.target in controls:
            raise ValueError(f"target wire {self.target} is also a control")

    @property
    def wires(self) -> frozenset[int]:
        return self.controls | {self.target}


def mct(controls: "frozenset[int] | set[int] | tuple[int, ...] | list[int]", target: int) -> Gate:
    """Build a Gate from any iterable of control wires plus a target."""
    return Gate(frozenset(controls), target)


@dataclass(frozen=True)
class Circuit:
    """An ordered gate list over ``width`` wires.

    ``insertion_point`` and ``bracket`` are optional annotations carried
    by the text format (the ``#`` marker and the ``[`` ``]`` span).  They
    never take part in equality: two circuits are equal when they have
    the same width and the same gates.
    """

    width: int
    gates: tuple[Gate, ...]
    insertion_point: int | None = field(default=None, compare=False)
    bracket: tuple[int, int] | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "gates", tuple(self.gates))
        if self.width < 1:
            raise ValueError("width must be at least 1")
        for g in dict.fromkeys(self.gates):
            if g.target >= self.width or any(w >= self.width for w in g.controls):
                raise ValueError(f"gate {g} uses a wire outside width {self.width}")
        m = len(self.gates)
        if self.insertion_point is not None and not 0 <= self.insertion_point <= m:
            raise ValueError(f"insertion point {self.insertion_point} outside 0..{m}")
        if self.bracket is not None:
            lo, hi = self.bracket
            if not 0 <= lo <= hi <= m:
                raise ValueError(f"bracket {self.bracket} outside 0..{m}")

    @classmethod
    def empty(cls, width: int) -> Circuit:
        return cls(width, ())

    def __len__(self) -> int:
        return len(self.gates)


# parsing ------------------------------------------------------------------

_ARITY = {"NOT": 1, "CNOT": 2, "TOF": 3, "TOF4": 4}

# After separators, a ``wires:`` header (groups 1-2), a gate (3-4) or one
# character (5), tried in that order.  No alternative starts with a separator,
# so each match begins where the last one ended and trailing ones match nothing.
_TOKEN_RE = re.compile(
    r"[\s;]*(?:(wires\s*:([^\n]*))|([A-Za-z][A-Za-z0-9]*)\s*\(([^()]*)\)|([^\s;]))"
)
_WIRE_RE = re.compile(r"[a-z]\Z")
_ARG_SEP_RE = re.compile(r"[,;]")


def parse_circuit(text: str) -> Circuit:
    """Parse circuit text.  Raises ParseError on any malformed input.

    Without a ``wires:`` header, width is the number of distinct wire
    letters and wires are numbered in order of first appearance; empty
    text parses as an empty one-wire circuit.  Error positions count
    characters of the text with its comments removed.

    One regex scan reads the text, and each distinct gate token is
    checked and built once: its checks depend only on the token and the
    header, which precedes every gate, and wire numbers only grow.
    """
    if "//" in text:
        text = re.sub(r"//[^\n]*", "", text)
    index: dict[str, int] = {}
    declared = False
    gates: list[Gate] = []
    built: dict[tuple[str, str], Gate] = {}
    insertion: int | None = None
    bracket_start: int | None = None
    bracket_end: int | None = None

    def wire_index(name: str, pos: int) -> int:
        i = index.get(name)
        if i is None:
            if not _WIRE_RE.match(name):
                raise ParseError(f"bad wire name {name!r} at position {pos}")
            if declared:
                raise ParseError(f"wire {name!r} at position {pos} not in wires: header")
            i = index[name] = len(index)
        return i

    def build(name: str, body: str, pos: int) -> Gate:
        if name not in _ARITY and name != "MCT":
            raise ParseError(f"unknown gate name {name!r} at position {pos}")
        args = [a.strip() for a in _ARG_SEP_RE.split(body)] if body.strip() else []
        if name in _ARITY and len(args) != _ARITY[name]:
            raise ParseError(f"{name} takes {_ARITY[name]} wires, got {len(args)} at position {pos}")
        if name == "MCT" and not args:
            raise ParseError(f"MCT needs at least a target at position {pos}")
        idx = [wire_index(a, pos) for a in args]
        if len(set(idx)) != len(idx):
            raise ParseError(f"repeated wire in gate at position {pos}")
        return Gate(frozenset(idx[:-1]), idx[-1])

    for m in _TOKEN_RE.finditer(text):
        if m.lastindex == 4:
            token = m.group(3, 4)
            g = built.get(token)
            if g is None:
                g = built[token] = build(*token, m.start(3))
            gates.append(g)
        elif m.lastindex == 1:
            pos = m.start(1)
            if declared:
                raise ParseError(f"second wires: header at position {pos}")
            if gates or insertion is not None or bracket_start is not None:
                raise ParseError(f"wires: header at position {pos} must precede all gates")
            for name in re.findall(r"[^\s,]+", m.group(2)):
                if not _WIRE_RE.match(name):
                    raise ParseError(f"bad wire name {name!r} in wires: header")
                if name in index:
                    raise ParseError(f"repeated wire {name!r} in wires: header")
                index[name] = len(index)
            if not index:
                raise ParseError("empty wires: header")
            declared = True
        else:
            ch, pos = m.group(5), m.start(5)
            if ch == "#":
                if insertion is not None:
                    raise ParseError(f"second insertion marker at position {pos}")
                insertion = len(gates)
            elif ch == "[":
                if bracket_start is not None:
                    raise ParseError(f"second bracket at position {pos}")
                bracket_start = len(gates)
            elif ch == "]":
                if bracket_start is None or bracket_end is not None:
                    raise ParseError(f"unbalanced ] at position {pos}")
                bracket_end = len(gates)
            else:
                raise ParseError(f"unexpected character {ch!r} at position {pos}")

    if bracket_start is not None and bracket_end is None:
        raise ParseError("unbalanced [: bracket never closed")
    width = max(len(index), 1)
    bracket = None if bracket_start is None else (bracket_start, bracket_end)
    return Circuit(width, tuple(gates), insertion, bracket)


# formatting ---------------------------------------------------------------

def _wire_names(width: int) -> str:
    if width > 26:
        raise ValueError("text format supports at most 26 wires")
    return "abcdefghijklmnopqrstuvwxyz"[:max(width, 0)]


def format_gate(g: Gate, width: int) -> str:
    """Render one gate token; controls are printed in wire order."""
    names = _wire_names(width)
    args = [names[c] for c in sorted(g.controls)]
    if len(g.controls) <= 3:
        name = ("NOT", "CNOT", "TOF", "TOF4")[len(g.controls)]
        return f"{name}({', '.join(args + [names[g.target]])})"
    return f"MCT({', '.join(args)}; {names[g.target]})"


def format_circuit(c: Circuit) -> str:
    """Render a circuit so that ``parse_circuit(format_circuit(c)) == c``.

    A ``wires:`` header is emitted only when the gate tokens alone would
    not reproduce the width and wire order on re-parse.  Each distinct
    gate is rendered, and adds its wires to that order, once.
    """
    names = _wire_names(c.width)
    rendered = {g: format_gate(g, c.width) for g in dict.fromkeys(c.gates)}
    tokens = [rendered[g] for g in c.gates]
    seen = list(dict.fromkeys(w for g in rendered for w in [*sorted(g.controls), g.target]))
    # (gap, rank, mark): at one gap a closing ] comes first, then #, then [
    # and an empty bracket's ].  Inserting from the back keeps gaps valid.
    marks = []
    if c.insertion_point is not None:
        marks.append((c.insertion_point, 1, "#"))
    if c.bracket is not None:
        lo, hi = c.bracket
        marks += [(lo, 2, "["), (hi, 3 if hi == lo else 0, "]")]
    for gap, _, mark in sorted(marks, reverse=True):
        tokens.insert(gap, mark)
    body = " ".join(tokens)
    if seen == list(range(c.width)) or (c.width == 1 and not seen):
        return body
    header = f"wires: {' '.join(names)}"
    return f"{header}\n{body}" if body else header


# editing ------------------------------------------------------------------

def concat(front: Circuit, rear: Circuit) -> Circuit:
    """Join two circuits of equal width; annotations are dropped."""
    if front.width != rear.width:
        raise WidthMismatchError(f"widths differ: {front.width} vs {rear.width}")
    return Circuit(front.width, front.gates + rear.gates)


def insert_segment(host: Circuit, segment: Circuit, point: int) -> Circuit:
    """Splice ``segment`` into ``host`` at gate gap ``point``.

    ``point`` counts the host gates kept in front (0 = before the first
    gate).  Annotations are dropped from the result.
    """
    if host.width != segment.width:
        raise WidthMismatchError(f"widths differ: {host.width} vs {segment.width}")
    if not 0 <= point <= len(host.gates):
        raise IndexError(f"insertion point {point} outside 0..{len(host.gates)}")
    return Circuit(host.width, host.gates[:point] + segment.gates + host.gates[point:])


def inverse(c: Circuit) -> Circuit:
    """Reverse the gate order.  Every MCT gate is self-inverse, so the
    result computes the inverse permutation.  Annotations are dropped."""
    return Circuit(c.width, tuple(reversed(c.gates)))
