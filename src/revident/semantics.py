"""Permutation semantics of reversible circuits.

A circuit over ``n`` wires computes a bijection on the ``2**n`` input
patterns.  A pattern is encoded as an integer with wire ``k`` on bit
``k``, so wire 0 (letter ``a``) is the least significant bit.  A
*specification* is the dense image table of such a bijection:
``spec[x]`` is the output pattern for input ``x``.

Inside the module a specification is bit-sliced, ``n`` ints of
``2**n`` bits: bit ``x`` of column ``k`` is bit ``k`` of ``spec[x]``, and
a gate is ``cols[t] ^= AND(cols[c] for c in controls)``, applied in
place to one live list of columns by ``_run``.  The tuple form is built
by ``_table`` only where a specification leaves the module as a value.
Where it leaves as text, for ``simulate`` or ``reduce --report``,
``_spec_text`` writes its entries from the columns, for the caller to
bracket: digits are computed bit-sliced and the text assembled in bulk
byte operations, with no tuple and no ``str`` per entry.  Both boundaries
turn columns into byte planes with ``_spread``; ``_slice`` is
``_table``'s inverse.  Widths above ``DEFAULT_WIDTH_CAP`` are rejected
unless the caller raises ``max_width``, before anything is built.  Only
``generate.synthesize_inverse`` has no cap: its caller has already built
the ``2**n``-entry table.

No specification is kept between calls.  What depends only on the width
is built by ``_start`` on first use and kept for the process, one
``_Start`` per width used: the identity's columns as a tuple, their
column hashes and fingerprint, the mask of all inputs and the byte plane
of ones.  At width 16 that is about 220 KB.  ``_identity_columns`` hands
out a fresh list copy of the identity, so a walk never alters the kept
one.

The one prefix scan is ``_cuts``, a single loop: each gate is applied
to the live columns in place, its target column is rehashed, the
prefix's fingerprint is updated, and an index from fingerprint to the
kept prefixes that carry it is looked up, the candidate confirmed
exactly and the caller's stack of kept gates cut back to the hit.  A
scan thus keeps one live set of columns rather than one per prefix.
A prefix is keyed by ``sum(r_k * hash(col_k))`` with fixed pseudo-random
multipliers ``r_k`` (Karp-Rabin fingerprinting; the int hash of a column
is its value mod ``2**61 - 1``), so a gate costs one application and one
hash of its target column.  Equal prefixes always share a fingerprint;
a shared fingerprint is confirmed exactly: the empty prefix is compared
with the live columns directly, any other by simulating the gates
between the two prefixes from the identity (``_spans_identity``).  A
collision therefore costs time, never a wrong answer.  The scan has
three users: ``reduce.eliminate_ntris`` takes every cut, and
``reduce.is_irreducible`` and ``generate.is_interior_irreducible`` take
the first, through ``_first_repeat``.  ``_spans_identity`` also decides
``is_identity`` and ``equivalent``.
"""

from __future__ import annotations

import random
import struct
from collections.abc import Iterable, Iterator
from functools import cache
from operator import mul

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
    "is_identity",
    "equivalent",
]

Specification = tuple[int, ...]
_Columns = list[int]  # bit-sliced: bit x of column k is bit k of spec[x]

DEFAULT_WIDTH_CAP = 16


class WidthCapExceeded(ValueError):
    """Raised when a specification table would exceed the width cap;
    ``width`` is the width that was refused."""


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


# Wire k's column hash is weighted by a fixed pseudo-random multiplier
# below 2**61 - 1, the modulus of CPython's int hash.  A width needs 2**width
# bits per column, so 64 wires are more than any width can reach.
_MULTIPLIERS = tuple(random.Random(20110122).sample(range(1, (1 << 61) - 1), 64))
_column_hash = hash


class _Start:
    """What every walk over ``width`` wires starts from, built by
    ``_start`` once per width and process: the identity's columns (built
    one wire wider per step), the mask ``everywhere`` of all ``2**width``
    inputs, the byte plane ``ones`` of ``_spread``, and the identity's
    column hashes and fingerprint.  At width 16 that is about 220 KB."""

    __slots__ = ("identity", "everywhere", "ones", "_hashed")

    def __init__(self, width: int) -> None:
        cols: _Columns = []
        for w in range(width):
            half = 1 << w
            cols = [col | col << half for col in cols]
            cols.append(((1 << half) - 1) << half)
        self.identity = tuple(cols)
        size = 1 << width
        self.everywhere = (1 << size) - 1
        self.ones = int.from_bytes(b"\1" * size, "big")
        self._hashed = None, (), 0

    def fingerprint(self) -> tuple[tuple[int, ...], int]:
        """The identity's column hashes and fingerprint, kept together
        with the ``_column_hash`` that made them and remade when it is
        no longer the current one."""
        if self._hashed[0] is not _column_hash:
            hashes = tuple(map(_column_hash, self.identity))
            self._hashed = _column_hash, hashes, sum(map(mul, _MULTIPLIERS, hashes))
        return self._hashed[1:]


_start = cache(_Start)


def _identity_columns(width: int, max_width: int) -> _Columns:
    """A fresh list of the bit-sliced identity's columns on ``width``
    wires; every walk over a circuit starts here.  The width is checked
    before anything is built or kept."""
    if width > max_width:
        e = WidthCapExceeded(f"width {width} needs a table of 2**{width} entries; "
                             f"pass max_width={width} to allow it")
        e.width = width
        raise e
    return list(_start(width).identity)


def _run(cols: _Columns, gates: Iterable[Gate]) -> _Columns:
    """Apply ``gates`` in order to the columns ``cols``, in place, and
    return ``cols``."""
    everywhere = _start(len(cols)).everywhere
    for g in gates:
        fire = everywhere
        for w in g.controls:
            fire &= cols[w]
        cols[g.target] ^= fire
    return cols


def _spans_identity(cols: _Columns, gates: Iterable[Gate]) -> bool:
    """True when ``gates`` compose to the identity, checked exactly by
    simulating them on ``cols``, a fresh list of the identity's columns."""
    return tuple(_run(cols, gates)) == _start(len(cols)).identity


def _spread(cols: _Columns, size: int, ones: int) -> int:
    """Up to eight columns as one byte plane: bit ``b`` of byte ``x``
    (little-endian) is bit ``x`` of ``cols[b]``.  ``ones`` has every byte
    of ``size`` bytes set to 1 (``_Start.ones``).  All-zero columns are
    skipped."""
    plane = 0
    binary = f"0{size}b"  # one b"0"/b"1" per byte, input size-1 first
    for b, col in enumerate(cols):
        if col:
            plane |= (int.from_bytes(format(col, binary).encode(), "big") & ones) << b
    return plane


def _table(cols: _Columns) -> Specification:
    """The tuple form of bit-sliced columns: byte ``x`` of a plane holds
    input ``x``'s bits of eight columns, read back as 32-bit entries."""
    size = 1 << len(cols)
    ones = _start(len(cols)).ones
    entries = bytearray(4 * size)
    for p in range(0, len(cols), 8):
        entries[p // 8::4] = _spread(cols[p:p + 8], size, ones).to_bytes(size, "little")
    return struct.unpack(f"<{size}I", entries)


# _BIT_CHARS[b] maps a byte to b"1" when its bit b is set, else to b"0".
_BIT_CHARS = [(b"0" * (1 << b) + b"1" * (1 << b)) * (128 >> b) for b in range(8)]


def _slice(spec: Specification) -> _Columns:
    """``_table``'s inverse: the columns of a specification.  Byte ``x``
    of an entry plane holds bits ``8p..8p+7`` of ``spec[x]``; one
    translation per column turns a bit of each byte into the column's
    binary digits, input 0 last."""
    size = len(spec)
    entries = struct.pack(f"<{size}I", *spec)
    return [int(entries[k // 8::4].translate(_BIT_CHARS[k % 8])[::-1], 2)
            for k in range(size.bit_length() - 1)]


# Byte values of the text planes: the units plane holds digits 0-9, and
# every other plane holds 0x10 plus the digit, or 0x1a for a zero below a
# nonzero digit.  A 0x10 byte, a leading zero, is deleted; brackets and
# commas pass through.
_DIGIT_CHARS = bytes.maketrans(bytes([*range(0x00, 0x0a), *range(0x11, 0x1b)]),
                               b"0123456789" b"1234567890")


def _spec_text(cols: _Columns, sep: str = ",") -> str:
    """``format_spec(_table(cols))`` made on the columns, without its
    brackets: the entries joined by ``sep``; callers add the brackets.
    A bit-sliced double dabble (shift and add 3) turns the ``n`` columns
    into four columns per decimal digit, and each digit becomes one byte
    plane of the text, which holds ``digits + len(sep)`` bytes per input
    with ``sep`` last.  Leading zeros are deleted in one pass."""
    size = 1 << len(cols)
    digits = len(str(size - 1))
    # Four columns per digit, units first.  The top three bits make a
    # value below 8, so no digit needs an adjustment until they are in.
    bcd = cols[-3:]
    bcd += [0] * (4 * digits - len(bcd))
    for col in reversed(cols[:-3]):
        for j in range(0, 4 * digits, 4):
            if bcd[j + 2] or bcd[j + 3]:  # add 3 wherever the digit is 5 or more
                d0, d1, d2, d3 = bcd[j:j + 4]
                add = d3 | d2 & (d1 | d0)
                c0 = d0 & add
                c1 = d1 & add | c0
                c2 = d2 & c1
                bcd[j:j + 4] = d0 ^ add, d1 ^ add ^ c0, d2 ^ c1, d3 ^ c2
        bcd.insert(0, col)  # shift left by one bit, bringing in col
        bcd.pop()
    ones = _start(len(cols)).ones
    stride = digits + len(sep)  # input x's digits and sep start at stride * x
    text = bytearray(bytes(digits) + sep.encode()) * size
    above = 0  # inputs with a nonzero digit above digit j
    for j in reversed(range(digits)):
        d0, d1, d2, d3 = bcd[4 * j:4 * j + 4]
        if j:  # mark the zeros to print, those below a nonzero digit, as 10
            nonzero = d0 | d1 | d2 | d3
            inner = above & ~nonzero
            above |= nonzero
            d1 |= inner
            d3 |= inner
        plane = _spread((d0, d1, d2, d3), size, ones) | (ones << 4 if j else 0)
        text[digits - 1 - j::stride] = plane.to_bytes(size, "little")
    del text[len(text) - len(sep):]
    return text.translate(_DIGIT_CHARS, b"\x10").decode("ascii")


def gate_permutation(gate: Gate, width: int, *, max_width: int = DEFAULT_WIDTH_CAP) -> Specification:
    """Specification of a single gate: flip the target bit of every
    pattern whose control bits are all 1."""
    return simulate(Circuit(width, (gate,)), max_width=max_width)


def simulate(c: Circuit, *, max_width: int = DEFAULT_WIDTH_CAP) -> Specification:
    """The specification computed by the whole circuit.

    Gates apply left to right: the image of ``x`` is the last gate's
    permutation applied to ... applied to the first gate's.
    """
    return _table(_columns(c, max_width))


def _columns(c: Circuit, max_width: int) -> _Columns:
    """The columns of the whole circuit."""
    return _run(_identity_columns(c.width, max_width), c.gates)


def _cuts(cols: _Columns, gates: Iterable[Gate], kept: list[Gate]) -> Iterator[tuple[int, list[Gate]]]:
    """The prefix scan with cuts, one loop.  ``cols``, the identity's
    columns, take each of ``gates`` in place; ``kept``, empty at the
    start, is the stack of gates kept so far.  A prefix's fingerprint is
    the exact integer ``sum(r_k * hash(cols[k]))``, so a gate rehashes
    only its target column; the identity's is kept per width.  When a
    new prefix equals kept prefix ``kept[:j]``, yield ``(j, span)``,
    ``span`` being the gates between them (the new gate last), then cut
    ``kept`` back to ``j``; otherwise push the gate.  Every cut deletes
    an identity, so ``cols`` always holds the kept prefix and the kept
    prefixes are distinct: the index maps a fingerprint to the stack
    indices that carry it, at most one candidate confirms, and each
    confirmation that succeeds simulates gates the cut then deletes."""
    start = _start(len(cols))
    identity, everywhere = start.identity, start.everywhere
    hashes, fp = start.fingerprint()
    hashes = list(hashes)
    fps = [fp]  # fps[k] is the fingerprint of kept[:k]
    index: dict[int, list[int]] = {fp: [0]}
    for g in gates:
        # _run's gate application, inlined: _run(cols, (g,)) would cost
        # a call and a _start lookup per gate
        fire = everywhere
        for w in g.controls:
            fire &= cols[w]
        t = g.target
        cols[t] = col = cols[t] ^ fire
        h = _column_hash(col)
        fp += _MULTIPLIERS[t] * (h - hashes[t])
        hashes[t] = h
        candidates = index.setdefault(fp, [])
        for j in candidates:
            span = kept[j:]
            span.append(g)
            if tuple(cols) == identity if j == 0 else _spans_identity(list(identity), span):
                break
        else:
            kept.append(g)
            candidates.append(len(kept))
            fps.append(fp)
            continue
        yield j, span
        del kept[j:]
        for f in fps[j + 1:]:  # each list ends with its newest index
            candidates = index[f]
            candidates.pop()
            if not candidates:
                del index[f]
        del fps[j + 1:]


def _first_repeat(c: Circuit, max_width: int) -> "tuple[int, int] | None":
    """The first pair ``(j, i)``, ``j < i``, of equal prefix specifications,
    smallest ``i`` first, or None when all ``len(c) + 1`` prefixes are
    distinct: the scan's first cut, where the scan stops.  Before it the
    kept gates are the input's, so the cut's span is ``c.gates[j:i]``."""
    for j, span in _cuts(_identity_columns(c.width, max_width), c.gates, []):
        return j, j + len(span)
    return None


def is_identity(c: Circuit, *, max_width: int = DEFAULT_WIDTH_CAP) -> bool:
    return _spans_identity(_identity_columns(c.width, max_width), c.gates)


def equivalent(a: Circuit, b: Circuit, *, max_width: int = DEFAULT_WIDTH_CAP) -> bool:
    if a.width != b.width:
        raise WidthMismatchError(f"widths differ: {a.width} vs {b.width}")
    # a and b agree iff a followed by b's inverse, b reversed, is the identity
    return _spans_identity(_identity_columns(a.width, max_width), a.gates + b.gates[::-1])
