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
byte operations, with no tuple and no ``str`` per entry.  Both
boundaries turn each eight columns into one byte plane with one 8x8 bit
transpose, ``_transpose``: the columns' bytes are interleaved into
64-bit lanes and three delta-swaps run on the whole int.  Planes run
one way only, columns to entries.  ``DEFAULT_WIDTH_CAP`` is the one
width cap, with no per-call override, and ``_identity_columns``, where
every walk starts, checks it before anything is built.  ``_synthesize``,
the inverse synthesis behind ``generate``, works on columns too: a random
half's, or those that ``synthesize_inverse`` reads off a table it is
given, one base-2 numeral per wire.

No specification is kept between calls.  What depends only on the width
is built on first use and kept for the process.  ``_start`` keeps one
``_Start`` per width used: the identity's columns as a tuple, their
column hashes and the mask of all inputs, about 150 KB at width 16.
``_masks`` keeps the transpose's three masks, 192 KB at width 16, and
is first called when the first table or text at that width is built, so
a walk that builds neither never holds them.  ``_identity_columns``
hands out a fresh list copy of the identity, so a walk never alters the
kept one.

The one prefix scan is ``_cuts``, a single loop: each gate is applied
to the live columns in place, its target column is rehashed, the
prefix's fingerprint is updated, and the index of kept prefixes is
looked up, the candidate confirmed exactly and the caller's stack of
kept gates cut back to the hit.  The index is one dict in stack order:
a prefix sits at its fingerprint or the first free key above it, a
lookup walks up through taken keys, and a cut pops the newest entries.
A scan thus keeps one live set of columns rather than one per prefix.
A prefix is keyed by ``sum(r_k * (hash(col_k) - hash(id_k)))``, its
column hashes measured from the identity's columns ``id_k`` and weighted
by fixed pseudo-random multipliers ``r_k`` (Karp-Rabin fingerprinting;
the int hash of a column is its value mod ``2**61 - 1``).  So the empty
prefix's key is 0, and a gate costs one application and one hash of its
target column.  Equal prefixes always share a fingerprint; a shared
fingerprint is confirmed exactly: the empty prefix is compared with the
live columns directly, any other by simulating the gates between the two
prefixes from the identity (``_spans_identity``).  A collision
therefore costs time, never a wrong answer.  The scan has three users:
``reduce.eliminate_ntris`` takes every cut, and ``reduce.is_irreducible``
and ``generate.is_interior_irreducible`` take the first, through
``_first_repeat``.  ``_spans_identity`` also decides ``is_identity`` and
``equivalent``.
"""

from __future__ import annotations

import random
import struct
from collections.abc import Iterable, Iterator
from functools import cache

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
    """Raised by every walk over a circuit wider than
    ``DEFAULT_WIDTH_CAP``; its text is the one line the command line
    prints after ``error: ``."""


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
# _start keeps the identity's column hashes for the whole process, so
# _column_hash may only be wrapped by something that returns hash(col).
_column_hash = hash


class _Start:
    """What every walk over ``width`` wires starts from, built by
    ``_start`` once per width and process: the identity's columns (built
    one wire wider per step), the mask ``everywhere`` of all ``2**width``
    inputs, and the identity's column ``hashes``, from which ``_cuts``
    measures a prefix's fingerprint.  At width 16 that is about 150 KB."""

    __slots__ = ("identity", "everywhere", "hashes")

    def __init__(self, width: int) -> None:
        cols: _Columns = []
        for w in range(width):
            half = 1 << w
            cols = [col | col << half for col in cols]
            cols.append(((1 << half) - 1) << half)
        self.identity = tuple(cols)
        self.everywhere = (1 << (1 << width)) - 1
        self.hashes = tuple(map(_column_hash, cols))


_start = cache(_Start)


@cache
def _masks(width: int) -> tuple[int, ...]:
    """The masks of ``_transpose``'s three delta-swaps on ``width`` wires,
    each a 64-bit pattern repeated once per lane of a byte plane, so
    ``2**width`` bytes each (at least one lane): 192 KB at width 16,
    first built with the first table or text at that width."""
    lanes = -(-(1 << width) // 8)
    return tuple(int.from_bytes(m.to_bytes(8, "little") * lanes, "little")
                 for m in (0x00AA00AA00AA00AA, 0x0000CCCC0000CCCC, 0x00000000F0F0F0F0))


def _identity_columns(width: int) -> _Columns:
    """A fresh list of the bit-sliced identity's columns on ``width``
    wires; every walk over a circuit starts here, so this is the one
    place the width cap is checked, before anything is built or kept."""
    if width > DEFAULT_WIDTH_CAP:
        raise WidthCapExceeded(f"width {width} is too wide; revident handles at most "
                               f"{DEFAULT_WIDTH_CAP} wires")
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


def _transpose(x: int, masks: tuple[int, ...]) -> int:
    """The 8x8 bit transpose of every 64-bit lane of ``x``, whose byte
    ``r`` is row ``r``: bit ``8r + c`` of a lane trades places with bit
    ``8c + r`` (Warren, *Hacker's Delight*, section 7-3).  Three
    delta-swaps on the whole int, 7, 14 and 28 bits apart, move the bits
    that ``masks`` (``_masks``) select.  It is its own inverse."""
    for shift, mask in zip((7, 14, 28), masks):
        t = (x ^ x >> shift) & mask
        x ^= t ^ t << shift
    return x


def _plane(cols: _Columns, size: int, masks: tuple[int, ...]) -> bytes:
    """Up to eight columns as one byte plane of ``size`` bytes: bit ``b``
    of byte ``x`` is bit ``x`` of ``cols[b]``.  The columns' bytes are
    interleaved so that lane ``k`` holds byte ``k`` of each, and the
    lane's transpose is bytes ``8k..8k+7`` of the plane.  All-zero
    columns are skipped."""
    step = -(-size // 8)  # bytes per column, at least one
    lanes = bytearray(8 * step)
    for b, col in enumerate(cols):
        if col:
            lanes[b::8] = col.to_bytes(step, "little")
    return _transpose(int.from_bytes(lanes, "little"), masks).to_bytes(size, "little")


def _table(cols: _Columns) -> Specification:
    """The tuple form of bit-sliced columns: byte ``x`` of a plane holds
    input ``x``'s bits of eight columns, one ``_transpose`` per plane,
    read back as 32-bit entries."""
    size = 1 << len(cols)
    masks = _masks(len(cols))
    entries = bytearray(4 * size)
    for p in range(0, len(cols), 8):
        entries[p // 8::4] = _plane(cols[p:p + 8], size, masks)
    return struct.unpack(f"<{size}I", entries)


def _bits(x: int) -> list[int]:
    return [b for b in range(x.bit_length()) if x >> b & 1]


def _synthesize(cols: _Columns) -> list[Gate]:
    """``generate.synthesize_inverse``'s gates for the specification
    whose columns are ``cols``, applied to ``cols`` in place until they
    are the identity's.  Walk outputs in ascending input order.  The next
    input ``x`` to fix is the lowest set bit of ``OR_k(cols[k] ^
    identity[k])``, every input below it being fixed, so its image ``y``
    is at least ``x``.  First set the bits of ``x`` missing from ``y``,
    controlling each gate on all bits currently in the image so no fixed
    row can fire; then clear the bits not in ``x``, controlling on the
    bits of ``x``."""
    identity = _start(len(cols)).identity
    gates: list[Gate] = []
    while True:
        unfixed = 0
        for col, fixed in zip(cols, identity):
            unfixed |= col ^ fixed
        if not unfixed:
            return gates
        x = (unfixed & -unfixed).bit_length() - 1
        y = sum((col >> x & 1) << k for k, col in enumerate(cols))
        new = len(gates)
        for b in _bits(x & ~y):
            gates.append(Gate(frozenset(_bits(y)), b))
            y |= 1 << b
        x_controls = frozenset(_bits(x))
        gates += [Gate(x_controls, b) for b in _bits(y & ~x)]
        _run(cols, gates[new:])


# Text bytes of a digit by the value of its nibble in a plane: 10 marks a
# zero below a nonzero digit and prints "0", and 0 is a leading zero, the
# byte 0x10, which the text deletes, except in the units digit, which
# always prints.  Nibbles 11-15 do not occur.
_DIGIT = b"\x101234567890" + bytes(5)
_LOW_DIGITS = bytes(_DIGIT[v & 15] for v in range(256))
_HIGH_DIGITS = bytes(_DIGIT[v >> 4] for v in range(256))
_UNITS_DIGITS = _LOW_DIGITS.replace(b"\x10", b"0")


def _spec_text(cols: _Columns, sep: str = ",") -> str:
    """``format_spec(_table(cols))`` made on the columns, without its
    brackets: the entries joined by ``sep``; callers add the brackets.
    A bit-sliced double dabble (shift and add 3) turns the ``n`` columns
    into four columns per decimal digit, and ``_transpose`` turns each
    eight of those into one byte plane of two digits, the lower digit in
    the low nibble.  A 256-entry translate table per nibble turns a plane
    into one digit's text bytes, which go into the text, ``digits +
    len(sep)`` bytes per input with ``sep`` last, in one strided write.
    Leading zeros are deleted in one pass."""
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
    # Mark the zeros to print, those below a nonzero digit, as 10.
    above = 0  # inputs with a nonzero digit above digit j
    for j in reversed(range(1, digits)):
        d0, d1, d2, d3 = bcd[4 * j:4 * j + 4]
        nonzero = d0 | d1 | d2 | d3
        inner = above & ~nonzero
        above |= nonzero
        bcd[4 * j + 1] = d1 | inner
        bcd[4 * j + 3] = d3 | inner
    masks = _masks(len(cols))
    stride = digits + len(sep)  # input x's digits and sep start at stride * x
    text = bytearray(bytes(digits) + sep.encode()) * size
    for j in range(0, digits, 2):  # digits j and j + 1 share a plane
        plane = _plane(bcd[4 * j:4 * j + 8], size, masks)
        text[digits - 1 - j::stride] = plane.translate(_LOW_DIGITS if j else _UNITS_DIGITS)
        if j + 1 < digits:
            text[digits - 2 - j::stride] = plane.translate(_HIGH_DIGITS)
    del text[len(text) - len(sep):]
    return text.translate(None, b"\x10").decode("ascii")


def gate_permutation(gate: Gate, width: int) -> Specification:
    """Specification of a single gate: flip the target bit of every
    pattern whose control bits are all 1."""
    return simulate(Circuit(width, (gate,)))


def simulate(c: Circuit) -> Specification:
    """The specification computed by the whole circuit.

    Gates apply left to right: the image of ``x`` is the last gate's
    permutation applied to ... applied to the first gate's.
    """
    return _table(_columns(c))


def _columns(c: Circuit) -> _Columns:
    """The columns of the whole circuit."""
    return _run(_identity_columns(c.width), c.gates)


def _cuts(cols: _Columns, gates: Iterable[Gate], kept: list[Gate]) -> Iterator[tuple[int, list[Gate]]]:
    """The prefix scan with cuts, one loop.  ``cols``, the identity's
    columns, take each of ``gates`` in place; ``kept``, empty at the
    start, is the stack of gates kept so far.  A prefix's fingerprint is
    the exact integer ``sum(r_k * (hash(cols[k]) - hash(identity[k])))``,
    so the empty prefix's is 0 and a gate rehashes only its target column;
    the identity's hashes are kept per width, in ``_Start``.  When a
    new prefix equals kept prefix ``kept[:j]``, yield ``(j, span)``,
    ``span`` being the gates between them (the new gate last), then cut
    ``kept`` back to ``j``; otherwise push the gate.  Every cut deletes
    an identity, so ``cols`` always holds the kept prefix and the kept
    prefixes are distinct.  The index is one dict from a key to a stack
    index, whose insertion order is the stack order: a push stores the
    new prefix at its fingerprint, or at the first free key above it,
    and a cut pops the cut prefixes, newest first.  So every key that a
    kept prefix stepped over stays taken, and a lookup that walks up
    from the fingerprint through taken keys meets every kept prefix with
    that fingerprint.  At most one candidate confirms, and each
    confirmation that succeeds simulates gates the cut then deletes."""
    start = _start(len(cols))
    identity, everywhere = start.identity, start.everywhere
    hashes = list(start.hashes)
    fp = 0  # measured from the identity's fingerprint
    index = {fp: 0}  # key -> k, for kept[:k]; insertion order is stack order
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
        key = fp
        while key in index:
            j = index[key]
            span = kept[j:]
            span.append(g)
            if tuple(cols) == identity if j == 0 else _spans_identity(list(identity), span):
                break
            key += 1
        else:
            kept.append(g)
            index[key] = len(kept)  # the first free key at or above fp
            continue
        yield j, span
        del kept[j:]
        for _ in range(len(index) - 1 - j):  # the cut prefixes, newest first
            index.popitem()


def _first_repeat(c: Circuit) -> "tuple[int, int] | None":
    """The first pair ``(j, i)``, ``j < i``, of equal prefix specifications,
    smallest ``i`` first, or None when all ``len(c) + 1`` prefixes are
    distinct: the scan's first cut, where the scan stops.  Before it the
    kept gates are the input's, so the cut's span is ``c.gates[j:i]``."""
    for j, span in _cuts(_identity_columns(c.width), c.gates, []):
        return j, j + len(span)
    return None


def is_identity(c: Circuit) -> bool:
    return _spans_identity(_identity_columns(c.width), c.gates)


def equivalent(a: Circuit, b: Circuit) -> bool:
    if a.width != b.width:
        raise WidthMismatchError(f"widths differ: {a.width} vs {b.width}")
    # a and b agree iff a followed by b's inverse, b reversed, is the identity
    return _spans_identity(_identity_columns(a.width), a.gates + b.gates[::-1])
