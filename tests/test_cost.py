"""Cost model: default table, explicit extension, no extrapolation."""

from __future__ import annotations

from collections.abc import Mapping

import pytest

from revident import (
    CostTableError,
    DEFAULT_COST_TABLE,
    circuit_cost,
    gate_cost,
    gate_count,
    mct,
    parse_circuit,
    parse_cost_table,
)


def test_default_table_values():
    assert dict(DEFAULT_COST_TABLE) == {0: 1, 1: 1, 2: 5, 3: 13}


def test_gate_cost_by_control_count():
    assert gate_cost(mct((), 0)) == 1
    assert gate_cost(mct({1}, 0)) == 1
    assert gate_cost(mct({1, 2}, 0)) == 5
    assert gate_cost(mct({1, 2, 3}, 0)) == 13


def test_missing_entry_raises_instead_of_extrapolating():
    wide = mct({1, 2, 3, 4}, 0)
    with pytest.raises(CostTableError):
        gate_cost(wide)
    assert gate_cost(wide, {**DEFAULT_COST_TABLE, 4: 29}) == 29


def test_circuit_cost_and_count():
    c = parse_circuit("NOT(a) CNOT(a, b) TOF(a, b, c) TOF4(a, b, c, d)")
    assert gate_count(c) == 4
    assert circuit_cost(c) == 1 + 1 + 5 + 13


def test_circuit_cost_names_the_first_missing_entry():
    c = parse_circuit("wires: a b c d e f g\nNOT(a) MCT(a, b, c, d, e, f; g) MCT(a, b, c, d; e)")
    with pytest.raises(CostTableError) as e:
        circuit_cost(c)
    assert str(e.value) == "no cost entry for a 6-control gate; extend the table explicitly"
    assert circuit_cost(c, {**DEFAULT_COST_TABLE, 4: 29, 6: 61}) == 1 + 61 + 29


def test_empty_circuit_costs_nothing():
    c = parse_circuit("")
    assert gate_count(c) == 0 and circuit_cost(c) == 0


def test_parse_cost_table_merges_over_defaults():
    table = parse_cost_table("4 29\n\n# comment line\n2 7  # inline\n")
    assert table == {0: 1, 1: 1, 2: 7, 3: 13, 4: 29}


@pytest.mark.parametrize("text", ["4", "4 29 1", "x 1", "1 x", "-1 5", "1 -5"])
def test_parse_cost_table_rejects_bad_lines(text):
    with pytest.raises(ValueError):
        parse_cost_table(text)


class _Table(Mapping):
    """A read-only mapping that is not a dict."""

    def __init__(self, entries):
        self._entries = dict(entries)

    def __getitem__(self, key):
        return self._entries[key]

    def __iter__(self):
        return iter(self._entries)

    def __len__(self):
        return len(self._entries)


def test_any_mapping_costs_as_the_equal_dict():
    c = parse_circuit("wires: a b c d e f g\nNOT(a) MCT(a, b, c, d, e, f; g) MCT(a, b, c, d; e)")
    entries = {**DEFAULT_COST_TABLE, 4: 29, 6: 61}
    assert circuit_cost(c, _Table(entries)) == circuit_cost(c, entries) == 1 + 61 + 29
    errors = []
    for table in (_Table(DEFAULT_COST_TABLE), dict(DEFAULT_COST_TABLE)):
        with pytest.raises(CostTableError) as e:
            circuit_cost(c, table)
        errors.append(str(e.value))
    assert errors == ["no cost entry for a 6-control gate; extend the table explicitly"] * 2
