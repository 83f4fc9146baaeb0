"""Quantum cost of MCT gates and circuits.

The default table maps control count to cost: NOT and CNOT cost 1, a
two-control gate costs 5, a three-control gate costs 13.  There is no
entry beyond three controls on purpose; costing a wider gate without an
explicit table entry raises ``CostTableError`` rather than guessing.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from itertools import repeat
from operator import attrgetter, getitem
from types import MappingProxyType

from .circuit import Circuit, Gate

__all__ = [
    "DEFAULT_COST_TABLE",
    "CostTableError",
    "gate_cost",
    "circuit_cost",
    "gate_count",
    "parse_cost_table",
    "load_cost_table",
]

DEFAULT_COST_TABLE: Mapping[int, int] = MappingProxyType({0: 1, 1: 1, 2: 5, 3: 13})


class CostTableError(LookupError):
    """Raised when a gate's control count has no entry in the cost table."""


def gate_cost(g: Gate, table: Mapping[int, int] = DEFAULT_COST_TABLE) -> int:
    k = len(g.controls)
    try:
        return table[k]
    except KeyError:
        raise CostTableError(
            f"no cost entry for a {k}-control gate; extend the table explicitly"
        ) from None


_CONTROLS = attrgetter("controls")


def _sum_costs(gates: Iterable[Gate], table: Mapping[int, int]) -> int:
    """Total cost by one table lookup per gate, in C.  Raises KeyError
    when some control count has no entry."""
    return sum(map(getitem, repeat(table), map(len, map(_CONTROLS, gates))))


def circuit_cost(c: Circuit, table: Mapping[int, int] = DEFAULT_COST_TABLE) -> int:
    try:
        return _sum_costs(c.gates, table)
    except KeyError:
        pass
    # some control count has no entry: gate_cost names the first such gate
    return sum(gate_cost(g, table) for g in c.gates)


def gate_count(c: Circuit) -> int:
    return len(c.gates)


def parse_cost_table(text: str) -> dict[int, int]:
    """Parse override lines "controls cost" and merge them over the
    defaults.  Blank lines and ``#`` comments are skipped."""
    table = dict(DEFAULT_COST_TABLE)
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"cost table line {lineno}: expected 'controls cost'")
        try:
            controls, cost = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"cost table line {lineno}: not integers") from None
        if controls < 0 or cost < 0:
            raise ValueError(f"cost table line {lineno}: negative value")
        table[controls] = cost
    return table


def load_cost_table(path: str) -> dict[int, int]:
    with open(path, encoding="utf-8") as fh:
        return parse_cost_table(fh.read())
