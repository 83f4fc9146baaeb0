"""Identity elimination for reversible circuits.

A gate subsequence whose gates multiply to the identity contributes
nothing to the circuit's specification and can be deleted.  Two reducers
share one removal discipline:

* ``remove_trivial_identities`` deletes adjacent identical gate pairs
  (every MCT gate is self-inverse), re-checking around each deletion
  until no adjacent pair remains.
* ``eliminate_ntris`` deletes every identity segment, adjacent or not.
  It walks the prefix specifications: if the prefixes ending at gates
  ``j`` and ``i`` compute the same specification, gates ``j+1..i``
  (1-based, inclusive) form an identity segment and are removed.  The
  paper's scan is deterministic: the end index grows 1..m, the start
  index is tried ascending 0..end-1, the first hit is deleted, and the
  whole scan restarts on the shortened circuit.
  The restart is never carried out; the scan resumes instead.  At the
  first hit ``(j, i)`` the prefixes ``0..i-1`` are pairwise distinct.
  Deleting gates ``j+1..i`` leaves prefixes ``0..j`` unchanged, so a
  restarted scan would find no hit among them.  The new prefix ``j+k``
  equals the old prefix ``i+k``, so the restarted scan carries on as
  though gate ``i+1`` followed gate ``j``.  One pass over the input
  prefixes with a stack of kept gates, cut back to ``j`` on each hit,
  therefore makes the same removals in the same order.  That pass is
  the prefix scan of ``semantics``: the kept prefixes are distinct, so
  the one ``j`` the paper's ascending search would find is the one
  candidate the scan confirms.  The paper's restarting scan is kept as
  the test oracle.
* ``eliminate_ntris_fast`` is another name for ``eliminate_ntris``.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import asdict, dataclass, field, fields

from .circuit import Circuit, Gate, _assemble
from .cost import DEFAULT_COST_TABLE, _sum_costs
from .semantics import (
    Specification,
    WidthCapExceeded,
    _columns,
    _cuts,
    _first_repeat,
    _identity_columns,
    _spec_text,
    _table,
)

__all__ = [
    "Removal",
    "ReductionReport",
    "remove_trivial_identities",
    "eliminate_ntris",
    "eliminate_ntris_fast",
    "is_irreducible",
]


@dataclass(frozen=True)
class Removal:
    """One deleted identity segment, in coordinates of the circuit as it
    stood when the removal happened: ``start_gap`` counts the gates kept
    in front and ``end_index`` is the 1-based index of the last deleted
    gate, so the deleted 0-based slice is ``[start_gap, end_index)``.

    Replay rule: apply a report's removals in order to the input gate
    list, each deleting ``[start_gap, end_index)`` from the list as the
    removals before it left it; the result is the output gate list, as
    ``bench.surviving_indices`` computes it on gate indices."""

    start_gap: int
    end_index: int
    gate_count: int
    cost: int | None

    def __post_init__(self) -> None:
        if not 0 <= self.start_gap < self.end_index:
            raise ValueError("empty or negative removal span")
        if self.gate_count != self.end_index - self.start_gap:
            raise ValueError("gate_count does not match the span")


class _FinalColumns(list):
    """The columns a reduction ends with, as a report field holds them.
    The first read of a field caches their table in ``table``.  A
    caller's plain list is a specification."""

    __slots__ = ("table",)


class _SpecField:
    """A report field holding a specification or None, or
    ``_FinalColumns``, which it reads as their table, built on the first
    read.  Fields that hold the same columns read the same table."""

    def __set_name__(self, owner: type, name: str) -> None:
        self._name = name

    def __get__(self, report: "ReductionReport | None", owner: type = None):
        if report is None:  # class access: tells ``dataclass`` there is no default
            raise AttributeError(self._name)
        value = vars(report)[self._name]
        if type(value) is not _FinalColumns:
            return value
        if not hasattr(value, "table"):
            value.table = _table(value)
        return value.table

    def __set__(self, report: "ReductionReport", value) -> None:
        vars(report)[self._name] = value


def _plain(value):
    """A field's value as ``to_dict`` gives it: a sequence as a list, each
    ``Removal`` in it as a dict."""
    if not isinstance(value, (tuple, list)):
        return value
    return [asdict(r) for r in value] if value and isinstance(value[0], Removal) else list(value)


@dataclass(frozen=True)
class ReductionReport:
    """What a reduction did.  ``passes`` counts the passes of the paper's
    restarting scan, including the final one that found nothing: one more
    than the number of removals.  Cost fields are None when the cost
    table has no entry for some gate.  Specification fields are None when
    the width exceeds the cap in ``remove_trivial_identities``, which
    needs no table to reduce; ``eliminate_ntris`` raises
    ``WidthCapExceeded`` there instead.

    The specifications are lazy: the report keeps the final bit-sliced
    columns and builds one table from them on the first read of either
    field, so a caller that never reads them never pays for a
    ``2**n``-entry table.  Values, equality and ``to_dict()`` are those
    of an eager report.

    ``comparisons`` counts equality tests: one prefix lookup per input
    gate for ``eliminate_ntris``, one gate comparison per gate that meets
    a non-empty stack for ``remove_trivial_identities``.  It is
    informational only and never takes part in equality.

    The order of the fields below is the order of ``to_dict()`` and of
    the ``--report`` JSON."""

    passes: int
    removals: tuple[Removal, ...]
    input_gates: int
    output_gates: int
    input_cost: int | None
    output_cost: int | None
    input_spec: Specification | None = _SpecField()
    output_spec: Specification | None = _SpecField()
    comparisons: int = field(default=0, compare=False)

    @property
    def gates_removed(self) -> int:
        return self.input_gates - self.output_gates

    def to_dict(self) -> dict:
        return {f.name: _plain(getattr(self, f.name)) for f in fields(self)}


def _json(value, out) -> None:
    """Write ``json.dumps(value, indent=2)`` to the text stream ``out``, byte
    for byte: the one JSON writer.  ``value`` holds dicts with ``str`` keys,
    lists, tuples, ``str``, ``int``, ``bool``, None, ``_FinalColumns``
    (written from the columns by ``_spec_text``, once per object and depth),
    and ``ReductionReport`` and ``Removal`` (written as ``to_dict()`` writes
    them, from their stored fields in declaration order); other types raise
    TypeError.  The text goes out in pieces of about 4,096 parts, so memory
    stays bounded however long ``value`` is; an error partway, such as that
    TypeError or running out of memory, leaves ``out`` holding the text
    written before it."""
    from json.encoder import encode_basestring_ascii as text  # on use: no json on import
    parts: list[str] = []  # the pieces of the text not yet written
    specs: dict[tuple[int, str], str] = {}  # _spec_text's entries by (id(columns), pad)

    def write(v, pad: str) -> None:
        t = type(v)
        if t is str:
            parts.append(text(v))
        elif t is int:
            parts.append(int.__repr__(v))
        elif t is bool:
            parts.append("true" if v else "false")
        elif v is None:
            parts.append("null")
        elif t is _FinalColumns:  # never empty: a table has 2**width entries
            if (id(v), pad) not in specs:
                specs[id(v), pad] = _spec_text(v, "," + pad + "  ")
            parts.extend(("[", pad + "  ", specs[id(v), pad], pad, "]"))
        elif not v and (t is dict or t is list or t is tuple):
            parts.append("{}" if t is dict else "[]")
        elif t is dict or t is list or t is tuple:
            sep, inner = "{" if t is dict else "[", pad + "  "
            for x in v:
                parts.extend((sep, inner))
                sep = ","
                if t is dict:  # x is a key
                    parts.extend((text(x), ": "))
                    x = v[x]
                write(x, inner)
                if len(parts) > 4096:
                    out.write("".join(parts))
                    parts.clear()
            parts.extend((pad, "}" if t is dict else "]"))
        elif t is ReductionReport:  # last: bench payloads never get here
            # vars(), as getattr would tabulate the columns
            write({f.name: vars(v)[f.name] for f in fields(v)}, pad)
        elif t is Removal:  # getattr, as vars() would leave a dict on each one
            write({f.name: getattr(v, f.name) for f in fields(v)}, pad)
        else:
            raise TypeError(f"Object of type {t.__name__} is not JSON serializable")

    write(value, "\n")
    del write  # write refers to itself: without the del, specs lives on until a collection
    out.write("".join(parts))


def _maybe_cost(gates: "list[Gate] | tuple[Gate, ...]", table: Mapping[int, int]) -> int | None:
    try:
        return _sum_costs(gates, table)
    except KeyError:
        return None


def _report(
    c: Circuit,
    out_gates: list[Gate],
    passes: int,
    removals: list[Removal],
    comparisons: int,
    table: Mapping[int, int],
    spec: "_FinalColumns | None",
) -> tuple[Circuit, ReductionReport]:
    """The output and its report, assembled; ``bench`` takes a row's input (gates, cost) from it."""
    out = Circuit._of(c.width, tuple(out_gates))
    # With every input gate in the table, each removal's cost is known.
    input_cost = _maybe_cost(c.gates, table)
    report = _assemble(
        ReductionReport,
        passes=passes,
        removals=tuple(removals),
        input_gates=len(c.gates),
        output_gates=len(out_gates),
        input_cost=input_cost,
        output_cost=(_maybe_cost(out_gates, table) if input_cost is None
                     else input_cost - sum(r.cost for r in removals)),
        input_spec=spec,
        output_spec=spec,
        comparisons=comparisons,
    )
    return out, report


def remove_trivial_identities(
    c: Circuit, table: Mapping[int, int] = DEFAULT_COST_TABLE
) -> tuple[Circuit, ReductionReport]:
    """Cancel adjacent identical gate pairs until none remain.

    Deleting a pair can make its neighbours adjacent; the stack scan
    handles that in one linear sweep, and the result does not depend on
    deletion order.  It needs no table, so it reduces at any width; above
    ``DEFAULT_WIDTH_CAP`` the report's specifications are None.
    Cancelling pairs keeps the specification, so the input is simulated
    once and the output shares its specification, built from the final
    columns when read.
    """
    stack: list[Gate] = []
    removals: list[Removal] = []
    comparisons = 0
    for g in c.gates:
        if stack:
            comparisons += 1
        if stack and stack[-1] == g:
            j = len(stack) - 1
            removals.append(Removal(j, j + 2, 2, _maybe_cost([g, g], table)))
            stack.pop()
        else:
            stack.append(g)
    try:
        spec = _FinalColumns(_columns(c))
    except WidthCapExceeded:
        spec = None
    return _report(c, stack, 1, removals, comparisons, table, spec)


def eliminate_ntris(
    c: Circuit, table: Mapping[int, int] = DEFAULT_COST_TABLE
) -> tuple[Circuit, ReductionReport]:
    """Remove every identity segment, in the paper's order.

    The output computes the same specification as the input and is
    irreducible: no two of its prefix specifications are equal.  One pass
    of the prefix scan ``semantics._cuts`` over the input makes every
    removal: each cut against kept prefix ``j`` is the hit a restarted
    scan would find first, and cutting the stack of kept gates back to
    ``j`` is where that scan would carry on.  A circuit of m gates takes
    m gate applications, m column hashes and m lookups, plus at most m
    gate applications across the confirmations that succeed.  The
    report's specifications are built from the final columns only when
    read."""
    cols = _identity_columns(c.width)
    kept: list[Gate] = []
    removals = [Removal(j, j + len(span), len(span), _maybe_cost(span, table))
                for j, span in _cuts(cols, c.gates, kept)]
    spec = _FinalColumns(cols)
    return _report(c, kept, len(removals) + 1, removals, len(c.gates), table, spec)


# A second public name for the same pass, kept for existing callers.
eliminate_ntris_fast = eliminate_ntris


def is_irreducible(c: Circuit) -> bool:
    """True when no two prefix specifications coincide, i.e. the
    eliminators would leave ``c`` unchanged."""
    return _first_repeat(c) is None
