"""Shared test helpers: independent oracles and input makers.

The simulation oracle evaluates gates per input pattern with plain bit
twiddling, deliberately avoiding the library's bit-sliced columns so the
two routes check each other; ``prefix_trace`` is the definition of the
prefix specifications on top of it, and ``table_reference`` reads a
specification off columns without the library's transpose.  The
elimination oracle is the paper's restarting scan, carried out literally
on top of it.  The text oracles are the parser and formatter that
handled one gate token at a time, and the synthesis oracle is the
inverse synthesis that walked the specification as a list.
"""

from __future__ import annotations

import random
import re

from revident import (
    Circuit,
    Gate,
    GeneratorConfig,
    ParseError,
    ReductionReport,
    Removal,
    gen_random_ntri,
    is_permutation,
)
from revident.cost import DEFAULT_COST_TABLE, CostTableError, gate_cost

try:  # hypothesis is a test-only dependency
    from hypothesis import strategies as st
except ImportError:  # pragma: no cover
    st = None


def eval_gate(gate: Gate, pattern: int) -> int:
    if all(pattern >> c & 1 for c in gate.controls):
        return pattern ^ (1 << gate.target)
    return pattern


def simulate_bruteforce(c: Circuit) -> tuple[int, ...]:
    out = []
    for x in range(1 << c.width):
        v = x
        for g in c.gates:
            v = eval_gate(g, v)
        out.append(v)
    return tuple(out)


def table_reference(cols: list[int]) -> tuple[int, ...]:
    """The specification of bit-sliced columns, built one column at a
    time from its binary digits: bit ``x`` of ``cols[k]`` is bit ``k`` of
    entry ``x``.  It shares no code with the library's byte planes."""
    size = 1 << len(cols)
    digits = [format(col, f"0{size}b")[::-1] for col in reversed(cols)]  # input 0 first
    return tuple(int("".join(bits), 2) for bits in zip(*digits))


def prefix_trace(c: Circuit) -> tuple[tuple[int, ...], ...]:
    """Specifications of every gate prefix: entry ``i`` covers gates
    1..i, entry 0 is the identity.  Length is ``len(c) + 1``."""
    spec = tuple(range(1 << c.width))
    trace = [spec]
    for g in c.gates:
        spec = tuple(eval_gate(g, v) for v in spec)
        trace.append(spec)
    return tuple(trace)


def first_hit(gates: list[Gate], width: int) -> tuple[int, int] | None:
    """The paper's scan: end index ascending, start index ascending."""
    spec = tuple(range(1 << width))
    prefixes = [spec]
    for i, g in enumerate(gates, start=1):
        spec = tuple(eval_gate(g, v) for v in spec)
        for j, earlier in enumerate(prefixes):
            if earlier == spec:
                return j, i
        prefixes.append(spec)
    return None


def _cost(gates, table) -> int | None:
    try:
        return sum(gate_cost(g, table) for g in gates)
    except CostTableError:
        return None


def _is_peres_pair(a: Gate, b: Gate) -> bool:
    cnot, tof = sorted((a, b), key=lambda g: len(g.controls))
    if (len(cnot.controls), len(tof.controls)) != (1, 2):
        return False
    return cnot.controls | {cnot.target} == tof.controls


def peres_cost(c: Circuit) -> int:
    """The default cost of ``c`` with each adjacent Peres pair costing 4,
    not 5 + 1: a TOF on controls {a, b} next to a CNOT on wires a and b,
    in either order, paired greedily left to right without overlap (the
    Peres gate: A. Peres, Phys. Rev. A 32, 3266, 1985).  A rule the tests
    score the published costs against; the library does not use it."""
    gates, total, i = c.gates, 0, 0
    while i < len(gates):
        if i + 1 < len(gates) and _is_peres_pair(gates[i], gates[i + 1]):
            total, i = total + 4, i + 2
        else:
            total, i = total + gate_cost(gates[i]), i + 1
    return total


def eliminate_reference(c: Circuit, table=DEFAULT_COST_TABLE) -> tuple[Circuit, ReductionReport]:
    """The paper's eliminator, literally: delete the first hit of the
    scan and restart it from gate 0 until a pass finds nothing.  Slow;
    every faster eliminator must match it exactly (``comparisons`` is
    left at 0, as it takes no part in report equality)."""
    gates = list(c.gates)
    removals = []
    passes = 1
    while (hit := first_hit(gates, c.width)) is not None:
        j, i = hit
        removals.append(Removal(j, i, i - j, _cost(gates[j:i], table)))
        del gates[j:i]
        passes += 1
    out = Circuit(c.width, tuple(gates))
    return out, ReductionReport(
        passes=passes,
        removals=tuple(removals),
        input_gates=len(c.gates),
        output_gates=len(gates),
        input_cost=_cost(c.gates, table),
        output_cost=_cost(gates, table),
        input_spec=simulate_bruteforce(c),
        output_spec=simulate_bruteforce(out),
    )


def _bits(x: int) -> list[int]:
    return [b for b in range(x.bit_length()) if x >> b & 1]


def synthesize_inverse_reference(spec: tuple[int, ...], width: int) -> Circuit:
    """The list version that ``synthesize_inverse`` replaced, kept as its
    oracle: the same gates, found by walking and updating the image of
    every input once per synthesized gate."""
    if len(spec) != 1 << width or not is_permutation(spec):
        raise ValueError(f"not a permutation of 0..{(1 << width) - 1}")
    current = list(spec)
    gates: list[Gate] = []

    def apply(controls: frozenset[int], target: int) -> None:
        gates.append(Gate(controls, target))
        mask = 0
        for c in controls:
            mask |= 1 << c
        tbit = 1 << target
        for idx, v in enumerate(current):
            if v & mask == mask:
                current[idx] = v ^ tbit

    for x in range(1 << width):
        y = current[x]
        if y == x:  # already fixed: no gate to add
            continue
        for b in _bits(x & ~y):
            apply(frozenset(_bits(current[x])), b)
        x_controls = frozenset(_bits(x))
        for b in _bits(current[x] & ~x):
            apply(x_controls, b)
    return Circuit(width, tuple(gates))


_ARITY = {"NOT": 1, "CNOT": 2, "TOF": 3, "TOF4": 4}

_WS_RE = re.compile(r"[\s;]+")
_HEADER_RE = re.compile(r"wires\s*:([^\n]*)")
_GATE_RE = re.compile(r"([A-Za-z][A-Za-z0-9]*)\s*\(([^()]*)\)")
_WIRE_RE = re.compile(r"[a-z]\Z")


def parse_reference(text: str) -> Circuit:
    """The gate-at-a-time parser that ``parse_circuit`` replaced, kept
    verbatim as its oracle.  Raises ParseError on any malformed input.

    Without a ``wires:`` header, width is the number of distinct wire
    letters and wires are numbered in order of first appearance; empty
    text parses as an empty one-wire circuit.
    """
    text = re.sub(r"//[^\n]*", "", text)
    order: list[str] = []
    declared = False
    gates: list[Gate] = []
    insertion: int | None = None
    bracket_start: int | None = None
    bracket_end: int | None = None

    def wire_index(name: str, pos: int) -> int:
        if not _WIRE_RE.match(name):
            raise ParseError(f"bad wire name {name!r} at position {pos}")
        if name not in order:
            if declared:
                raise ParseError(f"wire {name!r} at position {pos} not in wires: header")
            order.append(name)
        return order.index(name)

    pos = 0
    n = len(text)
    while pos < n:
        m = _WS_RE.match(text, pos)
        if m:
            pos = m.end()
            continue
        m = _HEADER_RE.match(text, pos)
        if m:
            if declared:
                raise ParseError(f"second wires: header at position {pos}")
            if gates or insertion is not None or bracket_start is not None:
                raise ParseError(f"wires: header at position {pos} must precede all gates")
            for name in re.split(r"[\s,]+", m.group(1).strip()):
                if not name:
                    continue
                if not _WIRE_RE.match(name):
                    raise ParseError(f"bad wire name {name!r} in wires: header")
                if name in order:
                    raise ParseError(f"repeated wire {name!r} in wires: header")
                order.append(name)
            if not order:
                raise ParseError("empty wires: header")
            declared = True
            pos = m.end()
            continue
        m = _GATE_RE.match(text, pos)
        if m:
            name, body = m.group(1), m.group(2)
            if name not in _ARITY and name != "MCT":
                raise ParseError(f"unknown gate name {name!r} at position {pos}")
            args = [a.strip() for a in re.split(r"[,;]", body)]
            if args == [""]:
                args = []
            if name in _ARITY and len(args) != _ARITY[name]:
                raise ParseError(
                    f"{name} takes {_ARITY[name]} wires, got {len(args)} at position {pos}"
                )
            if name == "MCT" and not args:
                raise ParseError(f"MCT needs at least a target at position {pos}")
            idx = [wire_index(a, pos) for a in args]
            if len(set(idx)) != len(idx):
                raise ParseError(f"repeated wire in gate at position {pos}")
            gates.append(Gate(frozenset(idx[:-1]), idx[-1]))
            pos = m.end()
            continue
        ch = text[pos]
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
        pos += 1

    if bracket_start is not None and bracket_end is None:
        raise ParseError("unbalanced [: bracket never closed")
    width = max(len(order), 1)
    bracket = None if bracket_start is None else (bracket_start, bracket_end)
    return Circuit(width, tuple(gates), insertion, bracket)


def _wire_names(width: int) -> list[str]:
    if width > 26:
        raise ValueError("text format supports at most 26 wires")
    return [chr(ord("a") + i) for i in range(width)]


def _format_gate_reference(g: Gate, width: int) -> str:
    """Render one gate token; controls are printed in wire order."""
    names = _wire_names(width)
    args = [names[c] for c in sorted(g.controls)]
    if len(g.controls) <= 3:
        name = ("NOT", "CNOT", "TOF", "TOF4")[len(g.controls)]
        return f"{name}({', '.join(args + [names[g.target]])})"
    return f"MCT({', '.join(args)}; {names[g.target]})"


def format_reference(c: Circuit) -> str:
    """The gate-at-a-time formatter that ``format_circuit`` replaced, kept
    verbatim as its oracle.  ``parse_reference(format_reference(c)) == c``.

    A ``wires:`` header is emitted only when the gate tokens alone would
    not reproduce the width and wire order on re-parse.
    """
    names = _wire_names(c.width)
    tokens: list[str] = []
    seen: list[int] = []
    m = len(c.gates)
    for gap in range(m + 1):
        if c.bracket is not None and c.bracket[1] == gap and c.bracket[0] != gap:
            tokens.append("]")
        if c.insertion_point == gap:
            tokens.append("#")
        if c.bracket is not None and c.bracket[0] == gap:
            tokens.append("[")
            if c.bracket[1] == gap:
                tokens.append("]")
        if gap < m:
            g = c.gates[gap]
            for w in sorted(g.controls) + [g.target]:
                if w not in seen:
                    seen.append(w)
            tokens.append(_format_gate_reference(g, c.width))
    body = " ".join(tokens)
    if seen == list(range(c.width)) or (c.width == 1 and not seen):
        return body
    header = f"wires: {' '.join(names)}"
    return f"{header}\n{body}" if body else header


def random_circuit(rng: random.Random, width: int, gates: int) -> Circuit:
    """Plain sampler, independent of the library's generator module."""
    out = []
    for _ in range(gates):
        k = rng.randint(0, min(3, width - 1))
        wires = rng.sample(range(width), k + 1)
        out.append(Gate(frozenset(wires[:-1]), wires[-1]))
    return Circuit(width, tuple(out))


def irreducible_circuit(rng: random.Random, width: int, gates: int) -> Circuit:
    """Random gates, each redrawn while its prefix specification would
    repeat an earlier one, so no span of the result is an identity."""
    spec = tuple(range(1 << width))
    seen = {spec}
    out: list[Gate] = []
    for _ in range(100 * gates):
        g = random_circuit(rng, width, 1).gates[0]
        nxt = tuple(eval_gate(g, v) for v in spec)
        if nxt not in seen:
            seen.add(nxt)
            spec = nxt
            out.append(g)
            if len(out) == gates:
                break
    if len(out) < gates:
        raise RuntimeError(f"no irreducible {gates}-gate circuit at width {width}")
    return Circuit(width, tuple(out))


def late_hit_circuit(rng: random.Random, width: int, prefix: int, ntris: int, ntri_len: int) -> Circuit:
    """An irreducible prefix followed by ``ntris`` identities from the
    library's generator, nested inside one another, so every removal
    comes late and the paper's scan restarts once per identity."""
    front: list[Gate] = []
    back: list[Gate] = []
    for _ in range(ntris):
        cfg = GeneratorConfig(width=width, min_length=ntri_len, seed=rng.randrange(2**31))
        ntri = list(gen_random_ntri(cfg).gates)
        cut = rng.randint(1, len(ntri) - 1)
        front += ntri[:cut]
        back = ntri[cut:] + back
    head = irreducible_circuit(rng, width, prefix).gates
    return Circuit(width, head + tuple(front + back))


def all_gates(width: int, max_controls: int = 3):
    """Every MCT gate on the given wires with at most max_controls controls."""
    from itertools import combinations

    for target in range(width):
        rest = [w for w in range(width) if w != target]
        for k in range(0, min(max_controls, width - 1) + 1):
            for controls in combinations(rest, k):
                yield Gate(frozenset(controls), target)


if st is not None:

    @st.composite
    def circuits(draw, max_width: int = 5, max_gates: int = 12, max_controls: int = 3,
                 min_width: int = 1):
        width = draw(st.integers(min_value=min_width, max_value=max_width))
        gates = []
        for _ in range(draw(st.integers(min_value=0, max_value=max_gates))):
            target = draw(st.integers(min_value=0, max_value=width - 1))
            rest = [w for w in range(width) if w != target]
            k = draw(st.integers(min_value=0, max_value=min(max_controls, len(rest))))
            controls = draw(
                st.lists(st.sampled_from(rest), min_size=k, max_size=k, unique=True)
                if rest
                else st.just([])
            )
            gates.append(Gate(frozenset(controls), target))
        m = len(gates)
        marker = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=m)))
        lo = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=m)))
        bracket = None
        if lo is not None:
            hi = draw(st.integers(min_value=lo, max_value=m))
            bracket = (lo, hi)
        return Circuit(width, tuple(gates), marker, bracket)
