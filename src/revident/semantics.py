"""Permutation semantics of reversible circuits.

A circuit over ``n`` wires computes a bijection on the ``2**n`` input
patterns.  A pattern is encoded as an integer with wire ``k`` on bit
``k``, so wire 0 (letter ``a``) is the least significant bit.  A
*specification* is the dense image table of such a bijection:
``spec[x]`` is the output pattern for input ``x``.

Simulation is table composition, so the cost of one gate application is
``2**n`` regardless of circuit length.  Widths above ``DEFAULT_WIDTH_CAP``
are rejected unless the caller raises ``max_width`` explicitly.
"""

from __future__ import annotations

from functools import lru_cache

from .circuit import Circuit, Gate, WidthMismatchError

__all__ = [
    "Specification",
    "WidthCapExceeded",
    "DEFAULT_WIDTH_CAP",
    "identity_spec",
    "is_permutation",
    "invert_spec",
    "format_spec",
    "gate_permutation",
    "simulate",
    "prefix_trace",
    "is_identity",
    "equivalent",
]

Specification = tuple[int, ...]

DEFAULT_WIDTH_CAP = 16


class WidthCapExceeded(ValueError):
    """Raised when a specification table would exceed the width cap."""


def _check_width(width: int, max_width: int) -> None:
    if width > max_width:
        raise WidthCapExceeded(
            f"width {width} needs a table of 2**{width} entries; "
            f"pass max_width={width} to allow it"
        )


def identity_spec(width: int) -> Specification:
    return tuple(range(1 << width))


def is_permutation(spec: "Specification | list[int]") -> bool:
    """True when ``spec`` is a bijection on 0..len-1 and len is a power of two."""
    n = len(spec)
    return n > 0 and n & (n - 1) == 0 and sorted(spec) == list(range(n))


def invert_spec(spec: Specification) -> Specification:
    out = [0] * len(spec)
    for x, y in enumerate(spec):
        out[y] = x
    return tuple(out)


def format_spec(spec: Specification) -> str:
    return "[" + ",".join(str(v) for v in spec) + "]"


@lru_cache(maxsize=None)
def _gate_permutation(gate: Gate, width: int) -> Specification:
    mask = 0
    for c in gate.controls:
        mask |= 1 << c
    tbit = 1 << gate.target
    return tuple(x ^ tbit if x & mask == mask else x for x in range(1 << width))


def gate_permutation(gate: Gate, width: int, *, max_width: int = DEFAULT_WIDTH_CAP) -> Specification:
    """Specification of a single gate: flip the target bit of every
    pattern whose control bits are all 1."""
    _check_width(width, max_width)
    if any(w >= width for w in gate.wires):
        raise ValueError(f"gate {gate} uses a wire outside width {width}")
    return _gate_permutation(gate, width)


def apply_gate(spec: Specification, gate: Gate, width: int) -> Specification:
    """Compose one more gate onto a specification (gate acts on outputs)."""
    perm = _gate_permutation(gate, width)
    return tuple(perm[v] for v in spec)


def simulate(c: Circuit, *, max_width: int = DEFAULT_WIDTH_CAP) -> Specification:
    """The specification computed by the whole circuit.

    Gates apply left to right: the image of ``x`` is the last gate's
    permutation applied to ... applied to the first gate's.
    """
    _check_width(c.width, max_width)
    spec = identity_spec(c.width)
    for g in c.gates:
        spec = apply_gate(spec, g, c.width)
    return spec


def prefix_trace(c: Circuit, *, max_width: int = DEFAULT_WIDTH_CAP) -> tuple[Specification, ...]:
    """Specifications of every gate prefix: entry ``i`` covers gates
    1..i, entry 0 is the identity.  Length is ``len(c) + 1``."""
    _check_width(c.width, max_width)
    spec = identity_spec(c.width)
    trace = [spec]
    for g in c.gates:
        spec = apply_gate(spec, g, c.width)
        trace.append(spec)
    return tuple(trace)


def _first_repeat(c: Circuit, max_width: int) -> "tuple[int, int] | None":
    """The first pair ``(j, i)``, ``j < i``, of equal prefix specifications,
    smallest ``i`` first, or None when all ``len(c) + 1`` prefixes are
    distinct.  Prefixes are computed lazily, so the scan stops at the hit."""
    _check_width(c.width, max_width)
    spec = identity_spec(c.width)
    earliest = {spec: 0}
    for i, g in enumerate(c.gates, start=1):
        spec = apply_gate(spec, g, c.width)
        j = earliest.setdefault(spec, i)
        if j != i:
            return j, i
    return None


def is_identity(c: Circuit, *, max_width: int = DEFAULT_WIDTH_CAP) -> bool:
    return simulate(c, max_width=max_width) == identity_spec(c.width)


def equivalent(a: Circuit, b: Circuit, *, max_width: int = DEFAULT_WIDTH_CAP) -> bool:
    if a.width != b.width:
        raise WidthMismatchError(f"widths differ: {a.width} vs {b.width}")
    return simulate(a, max_width=max_width) == simulate(b, max_width=max_width)
