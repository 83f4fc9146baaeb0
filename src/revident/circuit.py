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

Cost model
----------
Per gate, only C-level work runs: the scan matches a run of up to 1,024
gate tokens between markers as one match; ``str.translate`` deletes its
whitespace and reads ``;`` as ``,``, and ``str.split`` at ``)`` with a
mapped ``str.lstrip`` of ``,`` cuts it into pieces, each one gate's own
text.  The gates are appended by one mapped lookup keyed by piece, so
each distinct gate is one object.  The run's new distinct pieces are
checked and built together, by string, ``map`` and ``bytes.translate``
passes in C.  A valid parse makes no second regex pass.  Only when the
run fails is it scanned again, its tokens checked up to the first problem.
``format_circuit`` renders each distinct gate object once, found by
identity in a dict built in C, so gate equality and hashing are never
called; the tokens are then mapped per gate.  ``Circuit(...)`` checks
each distinct gate once; the parser, the edit operations and the
reducers skip that check, as their gates already fit the width.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass, field
from itertools import count, filterfalse, repeat
from operator import itemgetter

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
        controls = self.controls
        if type(controls) is not frozenset:
            controls = frozenset(controls)
            object.__setattr__(self, "controls", controls)
        if self.target < 0 or controls and min(controls) < 0:
            raise ValueError("wire indices must be non-negative")
        if self.target in controls:
            raise ValueError(f"target wire {self.target} is also a control")

    @property
    def wires(self) -> frozenset[int]:
        return self.controls | {self.target}


def mct(controls: "frozenset[int] | set[int] | tuple[int, ...] | list[int]", target: int) -> Gate:
    """Build a Gate from any iterable of control wires plus a target."""
    return Gate(frozenset(controls), target)


def _assemble(cls: type, **values):
    """A ``cls`` holding ``values``, given in field order, set by one ``vars``
    update: for ``Circuit._of`` and for frozen dataclasses whose ``__init__`` only assigns."""
    obj = object.__new__(cls)
    vars(obj).update(values)
    return obj


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
        # Each distinct gate object once: keyed by identity, the dict is
        # built in C without calling the dataclass ``__hash__``.
        for g in dict(zip(map(id, self.gates), self.gates)).values():
            if g.target >= self.width or g.controls and max(g.controls) >= self.width:
                raise ValueError(f"gate {g} uses a wire outside width {self.width}")
        m = len(self.gates)
        if self.insertion_point is not None and not 0 <= self.insertion_point <= m:
            raise ValueError(f"insertion point {self.insertion_point} outside 0..{m}")
        if self.bracket is not None:
            lo, hi = self.bracket
            if not 0 <= lo <= hi <= m:
                raise ValueError(f"bracket {self.bracket} outside 0..{m}")

    @classmethod
    def _of(cls, width: int, gates: tuple[Gate, ...], insertion_point: int | None = None,
            bracket: tuple[int, int] | None = None) -> Circuit:
        """A circuit whose gates are known to fit ``width`` and whose
        annotations are in range, made without ``__post_init__``'s checks."""
        return _assemble(cls, width=width, gates=gates, insertion_point=insertion_point, bracket=bracket)

    @classmethod
    def empty(cls, width: int) -> Circuit:
        return cls(width, ())

    def __len__(self) -> int:
        return len(self.gates)


# parsing ------------------------------------------------------------------

_NAMES = ("NOT", "CNOT", "TOF", "TOF4")  # the names of 1 to 4 wires
_FIXED_ARITY = {name: k for k, name in enumerate(_NAMES, 1)}
_ARITY = {**_FIXED_ARITY, "MCT": None}  # None: any number
_WIRES = frozenset("abcdefghijklmnopqrstuvwxyz")

# After separators, a ``wires:`` header (groups 1-2), a run of up to 1,024
# gates with the separators after them (3) or one character (4), tried in
# that order.  No alternative starts with a separator, so each match begins
# where the last one ended and trailing separators match nothing.  A gate
# needs ``name(`` and a header ``wires:``, so no header hides inside a run.
# The bound caps what ``re`` holds while it matches a run, about 575 bytes
# per gate; a longer run takes several matches.
_TOKEN_RE = re.compile(
    r"[\s;]*(?:(wires\s*:([^\n]*))"
    r"|((?:[A-Za-z][A-Za-z0-9]*\s*\([^()]*\)[\s;]*){1,1024})|([^\s;]))"
)
_GATE_RE = re.compile(r"([A-Za-z][A-Za-z0-9]*)\s*\(([^()]*)\)")
# Deletes the characters that ``str.isspace()`` and the regex ``\s`` know (one
# set) and reads ``;`` as ``,``, leaving of a gate token the gate's own text.
_SQUASH = str.maketrans(";", ",", "\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f \x85\xa0\u1680\u2000\u2001"
                        "\u2002\u2003\u2004\u2005\u2006\u2007\u2008\u2009\u200a\u2028\u2029"
                        "\u202f\u205f\u3000")
# Gate bodies so squashed, joined by ``)``.
_BODIES_RE = re.compile(r"[a-z](?:,[a-z])*(?:\)[a-z](?:,[a-z])*)*")


def _build(pieces: list[str], index: dict[str, int], declared: bool) -> list[Gate] | None:
    """The gates of distinct gate pieces, made by C-level passes over all
    of them, numbering new wires in ``index``; None when a piece fails a
    check of ``_check``, and the parse fails.  A piece is a squashed gate
    token without its ``)``: its name, ``(`` and its body, which holds no
    parenthesis, so joined by ``(`` and split at each ``(`` the pieces
    alternate name and body.  Gates are made as the frozen dataclass
    ``__init__`` makes them, with the checks of ``Gate.__post_init__``
    done here."""
    parts = "(".join(pieces).split("(")
    names, joined = parts[::2], ")".join(parts[1::2])
    if not _BODIES_RE.fullmatch(joined) or not _ARITY.keys() >= set(names):
        return None
    letters = joined.replace(",", "")
    new = sorted(set(letters).difference(index, ")"), key=letters.find)
    if new and declared:
        return None
    index.update(zip(new, count(len(index))))
    wires = letters.encode().translate(
        bytes.maketrans("".join(index).encode(), bytes(index.values()))).split(b")")
    counts = [*map(len, wires)]
    fronts = [*map(itemgetter(slice(-1)), wires)]
    controls = [*map(frozenset, fronts)]
    targets = [*map(itemgetter(-1), wires)]
    if ([*map(_FIXED_ARITY.get, names, counts)] != counts
            or [*map(len, controls)] != [*map(len, fronts)]
            or any(map(frozenset.__contains__, controls, targets))):
        return None
    # Not through ``vars(g)``: that gives each gate a dict of its own in
    # place of the shared-key attribute storage, and every later read of
    # ``g.controls`` and ``g.target`` in the scans gets slower.
    gates = [*map(object.__new__, repeat(Gate, len(wires)))]
    deque(map(object.__setattr__, gates, repeat("controls"), controls), 0)
    deque(map(object.__setattr__, gates, repeat("target"), targets), 0)
    return gates


def _check(name: str, body: str, index: dict[str, int], declared: bool) -> tuple[str, str] | None:
    """A gate token's first problem, as the message before and after its position, or None."""
    arity = _ARITY.get(name, 0)
    if arity == 0:
        return f"unknown gate name {name!r} at position ", ""
    args = [a.strip() for a in body.replace(";", ",").split(",")] if body.strip() else []
    if arity is not None and len(args) != arity:
        return f"{name} takes {arity} wires, got {len(args)} at position ", ""
    if not args:
        return "MCT needs at least a target at position ", ""
    for a in args:
        if a not in _WIRES:
            return f"bad wire name {a!r} at position ", ""
        if declared and a not in index:
            return f"wire {a!r} at position ", " not in wires: header"
    if len(set(args)) != len(args):
        return "repeated wire in gate at position ", ""
    return None


def parse_circuit(text: str) -> Circuit:
    """Parse circuit text.  Raises ParseError on any malformed input.

    Without a ``wires:`` header, width is the number of distinct wire
    letters and wires are numbered in order of first appearance; empty
    text parses as an empty one-wire circuit.  Error positions count
    characters of the text with its comments removed.

    One regex scan splits the text into headers, markers and runs of
    up to 1,024 gates; a longer run takes several matches.  That scan
    has checked each run's shape, so once ``_SQUASH`` has deleted its
    whitespace and read ``;`` as ``,``, splitting the run at each ``)``
    and dropping leading commas cuts it into pieces, one per gate: its
    name, ``(`` and its body.  Equal pieces are equal gates, whatever
    separates them, so the pieces key the memo of built gates, which
    spans the runs, and the run's new distinct pieces are checked and
    built together by ``_build``.  When the run fails, one scan of its
    text checks its tokens in order and raises at the first problem,
    quoting the token as written.  A token whose piece was built earlier
    passes: it met the same rules against the same header, which
    precedes every gate.
    """
    if "//" in text:
        text = re.sub(r"//[^\n]*", "", text)
    index: dict[str, int] = {}
    declared = False
    gates: list[Gate] = []
    built: dict[str, Gate] = {}
    insertion: int | None = None
    bracket_start: int | None = None
    bracket_end: int | None = None

    for m in _TOKEN_RE.finditer(text):
        if m.lastindex == 3:
            # A ";" before a gate leaves a "," in front of its piece.
            pieces = [*map(str.lstrip, m.group(3).translate(_SQUASH).split(")"), repeat(","))]
            del pieces[-1]  # the separators after the run's last gate
            new = [*filterfalse(built.__contains__, dict.fromkeys(pieces))]
            made = _build(new, index, declared) if new else []
            if made is None:
                for t in _GATE_RE.finditer(text, *m.span(3)):
                    if problem := _check(*t.group(1, 2), index, declared):
                        raise ParseError(f"{problem[0]}{t.start()}{problem[1]}")
            built.update(zip(new, made))
            gates += map(built.__getitem__, pieces)
        elif m.lastindex == 1:
            pos = m.start(1)
            if declared:
                raise ParseError(f"second wires: header at position {pos}")
            if gates or insertion is not None or bracket_start is not None:
                raise ParseError(f"wires: header at position {pos} must precede all gates")
            for name in re.findall(r"[^\s,]+", m.group(2)):
                if name not in _WIRES:
                    raise ParseError(f"bad wire name {name!r} in wires: header")
                if name in index:
                    raise ParseError(f"repeated wire {name!r} in wires: header")
                index[name] = len(index)
            if not index:
                raise ParseError("empty wires: header")
            declared = True
        else:
            ch, pos = m.group(4), m.start(4)
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
    return Circuit._of(width, tuple(gates), insertion, bracket)


# formatting ---------------------------------------------------------------

_NOT_WIRES = str.maketrans("", "", "NOTCFM4(),; ")  # what a token holds besides wires


def _wire_names(width: int) -> str:
    if width > 26:
        raise ValueError("text format supports at most 26 wires")
    return "abcdefghijklmnopqrstuvwxyz"[:max(width, 0)]


def _token(wires: list[int], names: str) -> str:
    """Render a gate from its sorted controls followed by its target."""
    args = ", ".join(map(names.__getitem__, wires))
    if len(wires) <= 4:
        return f"{_NAMES[len(wires) - 1]}({args})"
    # wire names are single letters, so the target is the last character
    return f"MCT({args[:-3]}; {args[-1]})"


def format_gate(g: Gate, width: int) -> str:
    """Render one gate token; controls are printed in wire order.  A gate
    that ``Circuit(width, (g,))`` would refuse raises its ``ValueError``."""
    Circuit(width, (g,))
    return _token([*sorted(g.controls), g.target], _wire_names(width))


def format_circuit(c: Circuit) -> str:
    """Render a circuit so that ``parse_circuit(format_circuit(c)) == c``.

    A ``wires:`` header is emitted only when the gate tokens alone would
    not reproduce the width and wire order on re-parse.  One pass over
    the distinct gate objects, found by identity, renders each; the
    tokens are then looked up per gate, and the wire order is read from
    the letters of the rendered tokens.
    """
    names = _wire_names(c.width)
    distinct = dict(zip(map(id, c.gates), c.gates))
    rendered = dict(zip(distinct, [_token([*sorted(g.controls), g.target], names)
                                   for g in distinct.values()]))
    tokens = list(map(rendered.__getitem__, map(id, c.gates)))
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
    # the wire letters in order of first appearance
    seen = "".join(dict.fromkeys("".join(rendered.values()).translate(_NOT_WIRES)))
    if seen == names or (c.width == 1 and not seen):
        return body
    header = f"wires: {' '.join(names)}"
    return f"{header}\n{body}" if body else header


# editing ------------------------------------------------------------------

def concat(front: Circuit, rear: Circuit) -> Circuit:
    """Join two circuits of equal width; annotations are dropped."""
    if front.width != rear.width:
        raise WidthMismatchError(f"widths differ: {front.width} vs {rear.width}")
    return Circuit._of(front.width, front.gates + rear.gates)


def insert_segment(host: Circuit, segment: Circuit, point: int) -> Circuit:
    """Splice ``segment`` into ``host`` at gate gap ``point``.

    ``point`` counts the host gates kept in front (0 = before the first
    gate).  Annotations are dropped from the result.
    """
    if host.width != segment.width:
        raise WidthMismatchError(f"widths differ: {host.width} vs {segment.width}")
    if not 0 <= point <= len(host.gates):
        raise IndexError(f"insertion point {point} outside 0..{len(host.gates)}")
    return Circuit._of(host.width, host.gates[:point] + segment.gates + host.gates[point:])


def inverse(c: Circuit) -> Circuit:
    """Reverse the gate order.  Every MCT gate is self-inverse, so the
    result computes the inverse permutation.  Annotations are dropped."""
    return Circuit._of(c.width, c.gates[::-1])
