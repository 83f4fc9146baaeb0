"""Specification semantics, checked two ways.

Bit-sliced simulation (the library route) is compared against a
per-input bit-twiddling oracle on randomized circuits, and a handful of
small permutations are frozen as literal expected values.
"""

from __future__ import annotations

import json
import random
import tracemalloc
from itertools import islice

import pytest
from hypothesis import given, settings

from revident import (
    DEFAULT_WIDTH_CAP,
    Circuit,
    GeneratorConfig,
    WidthCapExceeded,
    WidthMismatchError,
    concat,
    eliminate_ntris,
    eliminate_ntris_fast,
    equivalent,
    format_spec,
    gate_permutation,
    gen_random_ntri,
    identity_spec,
    invert_spec,
    inverse,
    is_identity,
    is_interior_irreducible,
    is_irreducible,
    is_permutation,
    mct,
    parse_circuit,
    simulate,
)

from revident import semantics
from revident.semantics import _columns, _identity_columns, _masks, _run, _spec_text, _start, _table

from helpers import all_gates, circuits, prefix_trace, random_circuit, simulate_bruteforce, table_reference


def test_identity_spec():
    assert identity_spec(2) == (0, 1, 2, 3)


def test_not_gate_permutation():
    assert gate_permutation(mct((), 0), 1) == (1, 0)
    assert gate_permutation(mct((), 0), 2) == (1, 0, 3, 2)


def test_cnot_gate_permutation():
    # control on wire a (bit 0), target wire b (bit 1)
    assert gate_permutation(mct({0}, 1), 2) == (0, 3, 2, 1)


def test_toffoli_gate_permutation():
    # flips bit 2 only where bits 0 and 1 are both set: swaps 3 and 7
    assert gate_permutation(mct({0, 1}, 2), 3) == (0, 1, 2, 7, 4, 5, 6, 3)


def test_gate_permutation_rejects_out_of_range_wires():
    with pytest.raises(ValueError):
        gate_permutation(mct({3}, 0), 2)


def test_every_gate_permutation_is_a_permutation():
    for g in all_gates(4):
        assert is_permutation(gate_permutation(g, 4))


def test_every_gate_is_self_inverse():
    for g in all_gates(4):
        c = Circuit(4, (g, g))
        assert is_identity(c)


def test_no_single_gate_is_the_identity():
    for g in all_gates(4):
        assert not is_identity(Circuit(4, (g,)))


def test_simulate_matches_bruteforce_oracle():
    rng = random.Random(1234)
    for _ in range(300):
        width = rng.randint(1, 6)
        c = random_circuit(rng, width, rng.randint(0, 25))
        assert simulate(c) == simulate_bruteforce(c)


def _uncapped_columns(c):
    # _columns without the width cap, for the boundaries at width 17: the
    # third byte plane and the sixth digit
    return _run(list(_start(c.width).identity), c.gates)


@pytest.mark.parametrize("width", [7, 8, 9, 15, 16, 17])
def test_simulate_matches_bruteforce_across_byte_planes(width):
    # Eight wires share a byte plane of the unpacked table; wires 7, 8, 15
    # and 16 sit on the plane edges.
    rng = random.Random(width)
    edges = (mct({0}, width - 1), mct({width - 1}, width // 2), mct((), width - 2))
    c = Circuit(width, random_circuit(rng, width, 4).gates + edges)
    assert _table(_uncapped_columns(c)) == simulate_bruteforce(c)


@pytest.mark.parametrize("width", range(1, 18))
def test_spec_text_matches_formatted_table(width):
    # format_spec(_table(cols)) is the oracle, and json.dumps(indent=2) one
    # level down for the report's separator; the digit count changes at
    # widths 4, 7, 10, 14 and 17, and byte planes meet at 8 and 16.
    rng = random.Random(width)
    singles = (mct((), width - 1), mct(range(1, width), 0), mct(range(width - 1), width - 1))
    cases = [Circuit(width, ())] + [Circuit(width, (g,)) for g in singles]
    cases += [random_circuit(rng, width, 2 * width) for _ in range(3)]
    for c in cases:
        cols = _uncapped_columns(c)
        assert "[" + _spec_text(cols) + "]" == format_spec(_table(cols))
        nested = json.dumps(list(_table(cols)), indent=2).replace("\n", "\n  ")
        assert "[\n    " + _spec_text(cols, ",\n    ") + "\n  ]" == nested


def _boundary_cases(width):
    # the identity; every entry 0 (all BCD columns zero, so only the units
    # digit prints) and every entry 2**n - 1 (each BCD column all zeros or
    # all ones); columns whose only set bit is input 0 or input 2**n - 1,
    # the first and last bit of a plane, in every row of a lane
    size = 1 << width
    first, last = 1, 1 << (size - 1)
    yield list(_start(width).identity)
    yield [0] * width
    yield [(1 << size) - 1] * width
    yield [(first, last)[k % 2] for k in range(width)]
    yield [(last, first)[k % 2] for k in range(width)]
    yield _uncapped_columns(random_circuit(random.Random(width), width, 2 * width))


@pytest.mark.parametrize("width", range(1, 18))
def test_boundaries_match_column_at_a_time_reference(width):
    # At widths 1 and 2 a column is shorter than one byte and its lane is
    # padded, width 3 fills one byte exactly, and planes meet at 8 and 16.
    for cols in _boundary_cases(width):
        spec = table_reference(cols)
        assert _table(cols) == spec
        assert "[" + _spec_text(cols) + "]" == format_spec(spec)
        assert _spec_text(cols, ",\n    ") == ",\n    ".join(map(str, spec))


def test_spec_text_peak_memory_at_width_16():
    # the formatted table peaks at about 6.5 MB: 65,536 ints and strings
    cols = _columns(random_circuit(random.Random(16), 16, 40))
    tracemalloc.start()
    try:
        text = _spec_text(cols)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text.count(",") == (1 << 16) - 1
    assert peak < 2 << 20


def test_simulation_retains_no_memory():
    # Nothing is kept per gate between calls: 40 distinct width-12 gates
    # would otherwise hold 40 tables of 4,096 entries.
    gates = list(islice(all_gates(12), 40))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for g in gates:
            simulate(Circuit(12, (g,)))
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 1 << 20


def _identity_from_scratch(width):
    # column k is 2**k zeros then 2**k ones, repeated, input 0 last
    return [int(("1" * (1 << k) + "0" * (1 << k)) * (1 << (width - 1 - k)), 2)
            for k in range(width)]


@pytest.mark.parametrize("width", range(1, 17))
def test_identity_columns_match_a_fresh_build(width):
    assert _identity_columns(width) == _identity_from_scratch(width)
    assert _start(width).identity == tuple(_identity_from_scratch(width))


def test_identity_columns_are_a_fresh_list_each_call():
    cols = _identity_columns(5)
    cols[0] ^= 1
    cols.append(0)
    assert _identity_columns(5) == _identity_from_scratch(5)
    # walks take the columns in place and leave the kept identity alone
    c = random_circuit(random.Random(5), 5, 12)
    assert simulate(c) == simulate_bruteforce(c)
    assert not is_identity(c) and is_identity(concat(c, inverse(c)))
    assert _identity_columns(5) == _identity_from_scratch(5)


def test_width_above_cap_raises_and_keeps_nothing():
    _start.cache_clear()
    with pytest.raises(WidthCapExceeded, match="width 17 is too wide"):
        _identity_columns(17)
    assert _start.cache_info().currsize == 0


def test_kept_hashes_are_the_identity_column_hashes():
    for width in (1, 4, 16):
        assert _start(width).hashes == tuple(map(hash, _identity_from_scratch(width)))


def test_start_state_memory_is_bounded_per_width():
    # w + 1 ints of 2**w bits per width: 136 KB of bits at width 16 and
    # 262 KB for widths 1-16, which CPython keeps 30 bits to 4 bytes; the
    # transpose's masks are built with the first byte plane, not here
    _start.cache_clear()
    tracemalloc.start()
    try:
        _start(16)
        at_16 = tracemalloc.get_traced_memory()[0]
        for width in range(1, 16):
            _start(width)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert at_16 < 225 << 10
    assert held < 440 << 10


def test_transpose_masks_are_built_with_the_first_plane():
    # a reduction builds no masks; the first table at a width builds three
    # ints of 2**w bytes, 192 KB of bits at width 16
    _masks.cache_clear()
    c = random_circuit(random.Random(16), 16, 20)
    eliminate_ntris(concat(c, inverse(c)))
    assert _masks.cache_info().currsize == 0
    tracemalloc.start()
    try:
        simulate(c)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert _masks.cache_info().currsize == 1
    assert len(_masks(16)) == 3
    assert held < 210 << 10


@given(circuits())
@settings(max_examples=120)
def test_simulate_matches_bruteforce_oracle_hypothesis(c):
    assert simulate(c) == simulate_bruteforce(c)


def test_simulation_composes():
    rng = random.Random(77)
    for _ in range(100):
        width = rng.randint(1, 5)
        a = random_circuit(rng, width, rng.randint(0, 10))
        b = random_circuit(rng, width, rng.randint(0, 10))
        sa, sb = simulate(a), simulate(b)
        assert simulate(concat(a, b)) == tuple(sb[sa[x]] for x in range(1 << width))


def test_inverse_circuit_computes_inverse_spec():
    rng = random.Random(99)
    for _ in range(100):
        c = random_circuit(rng, rng.randint(1, 5), rng.randint(0, 12))
        assert simulate(inverse(c)) == invert_spec(simulate(c))
        assert is_identity(concat(c, inverse(c)))


def test_prefix_trace_shape_and_consistency():
    rng = random.Random(5)
    c = random_circuit(rng, 4, 9)
    trace = prefix_trace(c)
    assert len(trace) == 10
    assert trace[0] == identity_spec(4)
    assert trace[-1] == simulate(c)
    for i in range(1, 10):
        assert trace[i] == simulate(Circuit(4, c.gates[:i]))


def test_empty_circuit_is_identity():
    assert is_identity(Circuit.empty(3))
    assert simulate(Circuit.empty(3)) == identity_spec(3)


def test_equivalent():
    a = parse_circuit("wires: a b\nCNOT(a, b) CNOT(a, b) NOT(a)")
    b = parse_circuit("wires: a b\nNOT(a)")
    assert equivalent(a, b)
    assert not equivalent(a, parse_circuit("wires: a b\nNOT(b)"))


def test_identity_and_equivalence_compare_columns(monkeypatch):
    # no specification table is built, even at width 16
    def no_table(cols):
        raise AssertionError("built a table")

    monkeypatch.setattr("revident.semantics._table", no_table)
    rng = random.Random(16)
    c = random_circuit(rng, 16, 30)
    assert is_identity(concat(c, inverse(c)))
    assert not is_identity(c)
    assert equivalent(c, c)
    assert not equivalent(c, Circuit(16, c.gates[1:]))
    with pytest.raises(WidthCapExceeded, match="width 17 is too wide"):
        is_identity(Circuit(17, ()))


def test_equivalent_width_mismatch():
    with pytest.raises(WidthMismatchError):
        equivalent(parse_circuit("NOT(a)"), parse_circuit("CNOT(a, b)"))


def _one_gate(width):
    return Circuit(width, (mct({0}, width - 1),))


# Every public walk over a circuit, on one gate of the given width; each
# takes the keyword arguments it is given, so a removed option is a TypeError.
_CAPPED_WALKS = {
    "gate_permutation": lambda w, **kw: gate_permutation(mct({0}, w - 1), w, **kw),
    "simulate": lambda w, **kw: simulate(_one_gate(w), **kw),
    "is_identity": lambda w, **kw: is_identity(_one_gate(w), **kw),
    "equivalent": lambda w, **kw: equivalent(_one_gate(w), _one_gate(w), **kw),
    "eliminate_ntris": lambda w, **kw: eliminate_ntris(_one_gate(w), **kw),
    "eliminate_ntris_fast": lambda w, **kw: eliminate_ntris_fast(_one_gate(w), **kw),
    "is_irreducible": lambda w, **kw: is_irreducible(_one_gate(w), **kw),
    "is_interior_irreducible": lambda w, **kw: is_interior_irreducible(_one_gate(w), **kw),
    "gen_random_ntri": lambda w, **kw: gen_random_ntri(
        GeneratorConfig(width=w, min_length=4, seed=1, max_attempts=3), **kw),
}


@pytest.mark.parametrize("walk", _CAPPED_WALKS.values(), ids=_CAPPED_WALKS)
def test_width_cap_is_one_constant_with_no_override(walk):
    # the message is the line the command line prints after "error: "
    with pytest.raises(WidthCapExceeded) as refused:
        walk(DEFAULT_WIDTH_CAP + 1)
    assert str(refused.value) == "width 17 is too wide; revident handles at most 16 wires"
    walk(DEFAULT_WIDTH_CAP)
    with pytest.raises(TypeError):
        walk(DEFAULT_WIDTH_CAP, max_width=DEFAULT_WIDTH_CAP + 1)


def test_invert_spec_round_trip():
    rng = random.Random(31)
    values = list(range(16))
    for _ in range(20):
        rng.shuffle(values)
        spec = tuple(values)
        inv = invert_spec(spec)
        assert tuple(inv[v] for v in spec) == identity_spec(4)


def test_is_permutation():
    assert is_permutation((1, 0, 3, 2))
    assert not is_permutation((0, 0, 3, 2))
    assert not is_permutation((0, 1, 2))  # not a power of two
    assert not is_permutation(())


def test_format_spec():
    assert format_spec((0, 3, 2, 1)) == "[0,3,2,1]"
