"""Permutation semantics of reversible circuits.

A circuit over ``n`` wires computes a bijection on the ``2**n`` input
patterns.  A pattern is encoded as an integer with wire ``k`` on bit
``k``, so wire 0 (letter ``a``) is the least significant bit.  A
*specification* is the dense image table of such a bijection:
``spec[x]`` is the output pattern for input ``x``.

Inside the module a specification is bit-sliced, ``n`` ints of
``2**n`` bits: bit ``x`` of column ``k`` is bit ``k`` of ``spec[x]``, and
a gate is ``cols[t] ^= AND(cols[c] for c in controls)``.  Every walk over
a circuit consumes one prefix scan, ``_prefixes``, and the tuple form is
built only where a specification leaves the module.  Widths above
``DEFAULT_WIDTH_CAP`` are rejected unless the caller raises ``max_width``.
"""

from __future__ import annotations

import struct
from typing import Iterator

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
_Columns = tuple[int, ...]  # bit-sliced: bit x of column k is bit k of spec[x]

DEFAULT_WIDTH_CAP = 16


class WidthCapExceeded(ValueError):
    """Raised when a specification table would exceed the width cap."""


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


def _prefixes(c: Circuit, max_width: int) -> Iterator[_Columns]:
    """Bit-sliced specifications of every gate prefix of ``c``: the
    identity first, then one after each gate, ``len(c) + 1`` in all."""
    if c.width > max_width:
        raise WidthCapExceeded(
            f"width {c.width} needs a table of 2**{c.width} entries; "
            f"pass max_width={c.width} to allow it"
        )
    cols: _Columns = ()
    for w in range(c.width):  # the identity, one wire wider per step
        half = 1 << w
        cols = tuple(col | col << half for col in cols) + (((1 << half) - 1) << half,)
    yield cols
    everywhere = (1 << (1 << c.width)) - 1
    for g in c.gates:
        fire = everywhere
        for w in g.controls:
            fire &= cols[w]
        t = g.target
        cols = cols[:t] + (cols[t] ^ fire,) + cols[t + 1:]
        yield cols


def _table(cols: _Columns) -> Specification:
    """The tuple form of bit-sliced columns: byte ``x`` of a plane holds
    input ``x``'s bits of eight columns, read back as 32-bit entries."""
    size = 1 << len(cols)
    ones = int.from_bytes(b"\1" * size, "big")
    entries = bytearray(4 * size)
    for p in range(0, len(cols), 8):
        plane = 0
        for b, col in enumerate(cols[p:p + 8]):
            # One digit b"0"/b"1" per byte, input size-1 first; keep bit 0.
            plane |= (int.from_bytes(format(col, f"0{size}b").encode(), "big") & ones) << b
        entries[p // 8::4] = plane.to_bytes(size, "little")
    return struct.unpack(f"<{size}I", entries)


def gate_permutation(gate: Gate, width: int, *, max_width: int = DEFAULT_WIDTH_CAP) -> Specification:
    """Specification of a single gate: flip the target bit of every
    pattern whose control bits are all 1."""
    return simulate(Circuit(width, (gate,)), max_width=max_width)


def simulate(c: Circuit, *, max_width: int = DEFAULT_WIDTH_CAP) -> Specification:
    """The specification computed by the whole circuit.

    Gates apply left to right: the image of ``x`` is the last gate's
    permutation applied to ... applied to the first gate's.
    """
    for cols in _prefixes(c, max_width):
        pass
    return _table(cols)


def prefix_trace(c: Circuit, *, max_width: int = DEFAULT_WIDTH_CAP) -> tuple[Specification, ...]:
    """Specifications of every gate prefix: entry ``i`` covers gates
    1..i, entry 0 is the identity.  Length is ``len(c) + 1``."""
    return tuple(map(_table, _prefixes(c, max_width)))


def _first_repeat(c: Circuit, max_width: int) -> "tuple[int, int] | None":
    """The first pair ``(j, i)``, ``j < i``, of equal prefix specifications,
    smallest ``i`` first, or None when all ``len(c) + 1`` prefixes are
    distinct.  Prefixes are computed lazily, so the scan stops at the hit."""
    earliest: dict[_Columns, int] = {}
    for i, cols in enumerate(_prefixes(c, max_width)):
        j = earliest.setdefault(cols, i)
        if j != i:
            return j, i
    return None


def is_identity(c: Circuit, *, max_width: int = DEFAULT_WIDTH_CAP) -> bool:
    return simulate(c, max_width=max_width) == identity_spec(c.width)


def equivalent(a: Circuit, b: Circuit, *, max_width: int = DEFAULT_WIDTH_CAP) -> bool:
    if a.width != b.width:
        raise WidthMismatchError(f"widths differ: {a.width} vs {b.width}")
    return simulate(a, max_width=max_width) == simulate(b, max_width=max_width)
