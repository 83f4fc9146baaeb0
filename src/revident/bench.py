"""Benchmark suites over the bundled corpus.

Suite 1 (bugged-benchmark recovery): each row splices an identity
segment into a known-good benchmark circuit at its ``#`` marker, runs
the eliminator, and checks that the benchmark comes back gate for gate.

Suite 2 (buried-identity discovery): each row is a random circuit whose
``[`` ``]`` bracket marks an identity segment.  The row checks the
circuit computes its recorded specification, that the bracketed span is
an identity, and that elimination removes that whole span while
preserving the specification.

Every row also carries the (gates, cost) figures published with the
corpus.  The figures of the circuit a row reduces are its reduction
report's; the host and reduced circuits are counted from their gates.
Where recomputation disagrees with a published figure, the row
reports a discrepancy entry; published figures are never silently
reconciled with computed ones, and a cost discrepancy alone does not
fail a row.  Both outputs, the JSON of ``BenchReport.to_dict`` and the
text of ``render_report``, come from one row layout per suite, ``_LAYOUTS``.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import islice
from operator import attrgetter

from .circuit import Circuit, _assemble, insert_segment
from .corpus import load_corpus_circuit
from .cost import circuit_cost, gate_count
from .reduce import Removal, eliminate_ntris
from .semantics import Specification, equivalent, is_identity, simulate

__all__ = [
    "Table1Row",
    "Table2Row",
    "Table1Result",
    "Table2Result",
    "BenchReport",
    "TABLE1_ROWS",
    "TABLE2_ROWS",
    "run_table1",
    "run_table2",
    "surviving_indices",
    "render_report",
]

GC = tuple[int, int]


@dataclass(frozen=True)
class Table1Row:
    """One recovery benchmark: ids of the host and segment corpus
    circuits plus the published figures for the row."""

    benchmark: str
    host_id: str
    segment_id: str
    printed_insertion_point: int
    printed_optimal: GC
    printed_bugged: GC
    printed_optimized: GC


@dataclass(frozen=True)
class Table2Row:
    circuit_id: str
    specification: Specification
    bracket: tuple[int, int]
    printed_original: GC
    printed_tool: GC
    printed_hybrid: GC


TABLE1_ROWS: tuple[Table1Row, ...] = (
    Table1Row("4_49", "app1_1a", "app1_1b", 6, (12, 32), (19, 61), (19, 61)),
    Table1Row("4bit-7-8", "app1_2a", "app1_2b", 5, (7, 19), (14, 40), (12, 34)),
    Table1Row("decode42", "app1_3a", "app1_3b", 4, (10, 30), (16, 52), (15, 51)),
    Table1Row("hwb4", "app1_4a", "app1_4b", 7, (11, 39), (16, 64), (16, 62)),
    Table1Row("imark", "app1_5a", "app1_5b", 5, (7, 19), (17, 43), (11, 37)),
    Table1Row("mperk", "app1_6a", "app1_6b", 4, (9, 15), (22, 52), (22, 52)),
    Table1Row("oc5", "app1_7a", "app1_7b", 2, (11, 39), (23, 65), (16, 52)),
    Table1Row("oc6", "app1_8a", "app1_8b", 11, (12, 60), (20, 74), (20, 74)),
    Table1Row("oc7", "app1_9a", "app1_9b", 13, (13, 41), (29, 219), (28, 207)),
    Table1Row("oc8", "app1_10a", "app1_10b", 9, (11, 47), (25, 197), (15, 79)),
    Table1Row("primes4", "app1_11a", "app1_11b", 4, (10, 42), (18, 98), (13, 77)),
    Table1Row("rd32", "app1_12a", "app1_12b", 3, (4, 8), (10, 54), (8, 46)),
    Table1Row("shift4", "app1_13a", "app1_13b", 4, (4, 18), (20, 146), (13, 101)),
)

TABLE2_ROWS: tuple[Table2Row, ...] = (
    Table2Row(
        "app2_1",
        (12, 7, 2, 5, 0, 15, 14, 11, 6, 3, 10, 1, 8, 9, 4, 13),
        (4, 14), (21, 113), (17, 103), (10, 30),
    ),
    Table2Row(
        "app2_2",
        (7, 14, 9, 6, 11, 0, 13, 2, 5, 15, 10, 12, 1, 4, 3, 8),
        (6, 18), (30, 210), (30, 204), (18, 102),
    ),
    Table2Row(
        "app2_3",
        (10, 15, 0, 7, 14, 9, 6, 1, 13, 12, 5, 3, 11, 8, 4, 2),
        (5, 16), (23, 103), (23, 101), (13, 43),
    ),
    Table2Row(
        "app2_4",
        (12, 9, 11, 14, 6, 7, 8, 10, 2, 3, 4, 5, 15, 13, 0, 1),
        (4, 13), (22, 90), (22, 90), (9, 36),
    ),
    Table2Row(
        "app2_5",
        (0, 1, 15, 8, 4, 5, 9, 14, 11, 12, 7, 6, 3, 13, 10, 2),
        (4, 17), (23, 137), (19, 105), (10, 50),
    ),
    Table2Row(
        "app2_6",
        (3, 0, 1, 6, 7, 2, 5, 4, 11, 8, 9, 14, 15, 10, 13, 12),
        (4, 18), (25, 133), (19, 99), (6, 14),
    ),
    Table2Row(
        "app2_7",
        (6, 11, 5, 4, 2, 0, 1, 15, 14, 3, 12, 8, 7, 9, 13, 10),
        (11, 17), (21, 137), (20, 132), (15, 59),
    ),
    Table2Row(
        "app2_8",
        (12, 15, 5, 8, 3, 2, 1, 10, 7, 14, 13, 6, 11, 0, 9, 4),
        (3, 11), (23, 125), (23, 125), (15, 53),
    ),
    Table2Row(
        "app2_9",
        (0, 1, 6, 5, 7, 8, 15, 2, 14, 13, 12, 3, 11, 4, 9, 10),
        (9, 14), (17, 65), (16, 64), (11, 47),
    ),
    Table2Row(
        "app2_10",
        (0, 10, 2, 15, 8, 9, 4, 1, 6, 5, 14, 3, 12, 13, 11, 7),
        (10, 15), (20, 80), (19, 75), (13, 57),
    ),
    Table2Row(
        "app2_11",
        (8, 9, 10, 2, 4, 7, 6, 5, 0, 15, 13, 3, 12, 14, 1, 11),
        (7, 14), (21, 93), (21, 93), (12, 80),
    ),
    Table2Row(
        "app2_12",
        (6, 15, 0, 1, 9, 2, 7, 4, 11, 10, 5, 12, 3, 14, 13, 8),
        (5, 17), (29, 73), (29, 73), (17, 53),
    ),
    Table2Row(
        "app2_13",
        (9, 3, 10, 11, 12, 13, 1, 7, 0, 8, 14, 2, 15, 4, 5, 6),
        (9, 16), (25, 81), (17, 69), (12, 52),
    ),
)


def surviving_indices(gate_total: int, removals: tuple[Removal, ...]) -> list[int]:
    """Original gate indices left after replaying a removal list.
    Removal coordinates are local to the circuit at removal time, so a
    sequential replay reproduces the eliminator's deletions exactly.  One
    pass: the list grows from the untouched original indices only up to
    each removal's ``end_index``, so the eliminator's removals, which end
    at the last kept gate, each cut the list's tail, and the indices no
    removal reached are appended at the end."""
    idx: list[int] = []
    rest = iter(range(gate_total))
    for r in removals:
        idx += islice(rest, max(0, r.end_index - len(idx)))
        del idx[r.start_gap : r.end_index]
    idx += rest
    return idx


@dataclass(frozen=True)
class Table1Result:
    benchmark: str
    recovered: bool
    marker_gap: int
    printed_insertion_point: int
    computed_optimal: GC
    printed_optimal: GC
    computed_bugged: GC
    printed_bugged: GC
    discrepancies: tuple[str, ...]
    status: str


@dataclass(frozen=True)
class Table2Result:
    circuit_id: str
    spec_matches: bool
    bracket: tuple[int, int]
    bracket_is_identity: bool
    bracket_removed: bool
    spec_preserved: bool
    computed_original: GC
    printed_original: GC
    computed_reduced: GC
    printed_hybrid: GC
    discrepancies: tuple[str, ...]
    status: str


# Per suite: ``head``, a result's name and computed and printed (gates,
# cost); the fields the JSON carries after ``status``, in order; and the
# text's title, check-column header and check cells.
_LAYOUTS = {
    "table1": (
        attrgetter("benchmark", "computed_optimal", "printed_optimal"),
        ("recovered", "computed_bugged", "printed_bugged", "discrepancies"),
        "suite 1: bugged-benchmark recovery",
        f"{'recovered':<11}",
        lambda r: f"{('yes' if r.recovered else 'NO'):<11}",
    ),
    "table2": (
        attrgetter("circuit_id", "computed_original", "printed_original"),
        ("spec_matches", "bracket", "bracket_removed", "computed_reduced", "printed_hybrid",
         "discrepancies"),
        "suite 2: buried-identity discovery",
        f"{'spec':<6}{'bracket':<10}{'removed':<9}",
        lambda r: (f"{('ok' if r.spec_matches else 'NO'):<6}{str(list(r.bracket)):<10}"
                   f"{('yes' if r.bracket_removed else 'NO'):<9}"),
    ),
}


@dataclass(frozen=True)
class BenchReport:
    suite: str
    rows: "tuple[Table1Result, ...] | tuple[Table2Result, ...]"

    @property
    def passed(self) -> bool:
        return all(r.status == "pass" for r in self.rows)

    def to_dict(self) -> dict:
        head, tail, *_ = _LAYOUTS[self.suite]
        keys = ("status", *tail)
        values = attrgetter(*keys)
        rows = []
        for r in self.rows:
            name, (cg, cc), (pg, pc) = head(r)
            row = {"row": name, "computed_g": cg, "computed_c": cc, "printed_g": pg, "printed_c": pc}
            for key, value in zip(keys, values(r)):
                row[key] = list(value) if type(value) is tuple else value
            rows.append(row)
        return {"suite": self.suite, "passed": self.passed, "rows": rows}


def _gc(c: Circuit) -> GC:
    return gate_count(c), circuit_cost(c)


def run_table1(rows: tuple[Table1Row, ...] = TABLE1_ROWS) -> BenchReport:
    results = []
    for row in rows:
        host = load_corpus_circuit(row.host_id)
        segment = load_corpus_circuit(row.segment_id)
        if host.insertion_point is None:
            raise ValueError(f"{row.host_id} has no # marker")
        gap = host.insertion_point
        bugged = insert_segment(host, segment, gap)
        reduced, report = eliminate_ntris(bugged)
        recovered = reduced == host
        computed_optimal = _gc(host)
        computed_bugged = report.input_gates, report.input_cost
        notes = []
        if row.printed_insertion_point != gap + 1:
            notes.append(
                f"insertion column {row.printed_insertion_point} vs marker gap {gap}"
            )
        if computed_optimal != row.printed_optimal:
            notes.append(
                f"optimal printed {row.printed_optimal} computed {computed_optimal}"
            )
        if computed_bugged != row.printed_bugged:
            notes.append(
                f"bugged printed {row.printed_bugged} computed {computed_bugged}"
            )
        ok = recovered and gate_count(reduced) == row.printed_optimal[0]
        results.append(_assemble(
            Table1Result,
            benchmark=row.benchmark,
            recovered=recovered,
            marker_gap=gap,
            printed_insertion_point=row.printed_insertion_point,
            computed_optimal=computed_optimal,
            printed_optimal=row.printed_optimal,
            computed_bugged=computed_bugged,
            printed_bugged=row.printed_bugged,
            discrepancies=tuple(notes),
            status="pass" if ok else "fail",
        ))
    return BenchReport("table1", tuple(results))


def run_table2(rows: tuple[Table2Row, ...] = TABLE2_ROWS) -> BenchReport:
    results = []
    for row in rows:
        c = load_corpus_circuit(row.circuit_id)
        if c.bracket is None:
            raise ValueError(f"{row.circuit_id} has no bracket")
        lo, hi = c.bracket
        notes = []
        if (lo, hi) != row.bracket:
            notes.append(f"bracket parsed {(lo, hi)} vs recorded {row.bracket}")
        spec_matches = simulate(c) == row.specification
        segment = Circuit(c.width, c.gates[lo:hi])
        bracket_is_identity = is_identity(segment)
        reduced, report = eliminate_ntris(c)
        survivors = surviving_indices(len(c.gates), report.removals)
        # survivors ascend: none lies in [lo, hi) when lo and hi split them alike
        bracket_removed = bisect_left(survivors, lo) == bisect_left(survivors, hi)
        spec_preserved = equivalent(c, reduced)
        computed_original = report.input_gates, report.input_cost
        computed_reduced = _gc(reduced)
        if computed_original != row.printed_original:
            notes.append(
                f"original printed {row.printed_original} computed {computed_original}"
            )
        if (
            computed_reduced[0] == row.printed_hybrid[0]
            and computed_reduced[1] != row.printed_hybrid[1]
        ):
            notes.append(
                f"reduced cost printed {row.printed_hybrid[1]} computed {computed_reduced[1]}"
            )
        ok = (
            spec_matches
            and bracket_is_identity
            and bracket_removed
            and spec_preserved
            and computed_original[0] == row.printed_original[0]
        )
        results.append(_assemble(
            Table2Result,
            circuit_id=row.circuit_id,
            spec_matches=spec_matches,
            bracket=(lo, hi),
            bracket_is_identity=bracket_is_identity,
            bracket_removed=bracket_removed,
            spec_preserved=spec_preserved,
            computed_original=computed_original,
            printed_original=row.printed_original,
            computed_reduced=computed_reduced,
            printed_hybrid=row.printed_hybrid,
            discrepancies=tuple(notes),
            status="pass" if ok else "fail",
        ))
    return BenchReport("table2", tuple(results))


def render_report(report: BenchReport) -> str:
    """Fixed-width human-readable rendering, deterministic per corpus."""
    head, _, title, checks, cells = _LAYOUTS[report.suite]
    lines = [title, f"{'row':<10}{checks}{'computed(g,c)':<15}{'printed(g,c)':<14}status"]
    notes = []
    for r in report.rows:
        name, computed, printed = head(r)
        lines.append(f"{name:<10}{cells(r)}{str(computed):<15}{str(printed):<14}{r.status}")
        notes += [f"  {name}: {d}" for d in r.discrepancies]
    if notes:
        lines.append("known discrepancies (printed figures kept as printed):")
        lines.extend(notes)
    lines.append(f"result: {'pass' if report.passed else 'FAIL'}")
    return "\n".join(lines)
