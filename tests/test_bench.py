"""Benchmark suites: recovery, discovery, and the discrepancy reporting."""

from __future__ import annotations

import dataclasses
import json
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revident import (
    Circuit,
    bench,
    circuit_cost,
    corpus,
    eliminate_ntris,
    insert_segment,
    load_corpus_circuit,
    mct,
    remove_trivial_identities,
)
from revident.cli import main
from revident.bench import (
    TABLE1_ROWS,
    TABLE2_ROWS,
    Removal,
    render_report,
    run_table1,
    run_table2,
    surviving_indices,
)

from helpers import peres_cost

# rows whose published optimal cost cannot be recomputed from the stored
# circuit with the default cost table; kept as published, flagged as
# discrepancies, and pinned here so any drift is caught
OPTIMAL_COST_SLIPS = {
    "mperk": (9, 17),
    "oc7": (13, 45),
    "rd32": (4, 12),
    "shift4": (4, 20),
}

# rows where the published bugged figures match recomputation exactly
BUGGED_EXACT = {"hwb4", "oc8", "primes4"}

# rows where the published bugged gate count is one lower than the
# actual spliced length
BUGGED_COUNT_SLIPS = {"4_49", "4bit-7-8", "decode42"}


def test_surviving_indices_replay():
    removals = (Removal(1, 3, 2, None), Removal(0, 2, 2, None))
    assert surviving_indices(5, removals) == [4]
    assert surviving_indices(3, ()) == [0, 1, 2]


@st.composite
def _removal_lists(draw):
    # a gate total and a valid removal list for it: each span lies inside
    # the circuit as the removals before it left it
    gate_total = length = draw(st.integers(0, 40))
    removals = []
    while length and draw(st.booleans()):
        end = draw(st.integers(1, length))
        start = draw(st.integers(0, end - 1))
        removals.append(Removal(start, end, end - start, None))
        length -= end - start
    return gate_total, tuple(removals)


@given(_removal_lists())
@settings(max_examples=300)
def test_surviving_indices_matches_plain_replay(case):
    # the plain replay deletes each span from the whole index list
    gate_total, removals = case
    idx = list(range(gate_total))
    for r in removals:
        del idx[r.start_gap : r.end_index]
    assert surviving_indices(gate_total, removals) == idx


class TestTable1:
    def test_all_rows_pass(self):
        report = run_table1()
        assert report.passed
        assert len(report.rows) == 13

    def test_recovery_is_gate_for_gate(self):
        for row in run_table1().rows:
            assert row.recovered, row.benchmark

    def test_gate_counts_match_published(self):
        for row in run_table1().rows:
            assert row.computed_optimal[0] == row.printed_optimal[0], row.benchmark

    def test_cost_discrepancy_set_is_exactly_the_known_one(self):
        report = run_table1()
        slipped = {
            r.benchmark: r.computed_optimal
            for r in report.rows
            if r.computed_optimal != r.printed_optimal
        }
        assert slipped == OPTIMAL_COST_SLIPS
        for r in report.rows:
            if r.benchmark in OPTIMAL_COST_SLIPS:
                assert any("optimal" in d for d in r.discrepancies), r.benchmark

    def test_bugged_figures(self):
        for r in run_table1().rows:
            if r.benchmark in BUGGED_EXACT:
                assert r.computed_bugged == r.printed_bugged, r.benchmark
            if r.benchmark in BUGGED_COUNT_SLIPS:
                assert r.computed_bugged[0] == r.printed_bugged[0] + 1, r.benchmark
            else:
                assert r.computed_bugged[0] == r.printed_bugged[0], r.benchmark

    def test_recovery_needs_the_host_gates_not_only_their_count(self, monkeypatch):
        # A reduction with the host's gate count but other gates recovers
        # nothing, so every row fails although the counts match.
        real = bench.eliminate_ntris

        def other_gates(c, *args, **kwargs):
            out, report = real(c, *args, **kwargs)
            return Circuit(out.width, (mct((), 0),) * len(out)), report

        monkeypatch.setattr(bench, "eliminate_ntris", other_gates)
        report = run_table1()
        assert not any(r.recovered for r in report.rows)
        assert all(r.status == "fail" for r in report.rows)

    def test_marker_gaps_recorded(self):
        rows = {r.benchmark: r for r in run_table1().rows}
        assert rows["4_49"].marker_gap == 5
        assert rows["4_49"].printed_insertion_point == 6
        # three rows publish the gap itself rather than the 1-based index
        off = {r.benchmark for r in rows.values()
               if r.printed_insertion_point != r.marker_gap + 1}
        assert off == {"hwb4", "oc6", "oc8"}

    def test_host_without_marker_is_refused(self):
        # app2_1 carries a bracket but no # marker
        row = dataclasses.replace(TABLE1_ROWS[0], host_id="app2_1")
        with pytest.raises(ValueError, match="app2_1 has no # marker"):
            run_table1((row,))


class TestTable2:
    def test_all_rows_pass(self):
        report = run_table2()
        assert report.passed
        assert len(report.rows) == 13

    def test_row_checks(self):
        for r in run_table2().rows:
            assert r.spec_matches, r.circuit_id
            assert r.bracket_is_identity, r.circuit_id
            assert r.bracket_removed, r.circuit_id
            assert r.spec_preserved, r.circuit_id
            assert r.computed_original[0] == r.printed_original[0], r.circuit_id

    def test_spec_preserved_checks_the_reduced_circuit(self, monkeypatch):
        # A reduction that appends NOT(a) changes the specification; the
        # check must compare the circuits, not the report with itself.
        real = bench.eliminate_ntris

        def appends_not(c, *args, **kwargs):
            out, report = real(c, *args, **kwargs)
            return Circuit(out.width, out.gates + (mct((), 0),)), report

        monkeypatch.setattr(bench, "eliminate_ntris", appends_not)
        report = run_table2()
        assert not any(r.spec_preserved for r in report.rows)
        assert not report.passed

    # Gates a rigged reduction keeps of a bracket [lo, hi) in m gates, and
    # whether the bracket then counts as removed.
    @pytest.mark.parametrize("kept, removed", [
        (lambda lo, hi, m: [lo], False),
        (lambda lo, hi, m: [hi - 1], False),
        (lambda lo, hi, m: [*range(lo), *range(hi, m)], True),
    ], ids=["lo", "hi-1", "all but the bracket"])
    def test_bracket_removed_at_its_edges(self, monkeypatch, kept, removed):
        # The corpus reductions remove every bracket, so the edges are
        # reached by rewriting each report's removals to keep chosen gates.
        real = bench.eliminate_ntris

        def rigged(c, *args, **kwargs):
            out, report = real(c, *args, **kwargs)
            m, (lo, hi) = len(c.gates), c.bracket
            keep = kept(lo, hi, m)
            assert 0 < lo < hi < m
            removals, before, i = [], 0, 0
            for k in [*keep, m]:  # delete the run of gates in front of each kept one
                if k > i:
                    removals.append(Removal(before, before + k - i, k - i, None))
                before, i = before + 1, k + 1
            assert surviving_indices(m, tuple(removals)) == keep
            return out, dataclasses.replace(report, removals=tuple(removals))

        monkeypatch.setattr(bench, "eliminate_ntris", rigged)
        rows = run_table2().rows
        assert [r.bracket_removed for r in rows] == [removed] * 13
        if not removed:
            assert {r.status for r in rows} == {"fail"}

    def test_circuit_without_bracket_is_refused(self):
        row = dataclasses.replace(TABLE2_ROWS[0], circuit_id="app1_1a")
        with pytest.raises(ValueError, match="app1_1a has no bracket"):
            run_table2((row,))

    def test_recorded_bracket_mismatch_is_a_note(self):
        row = TABLE2_ROWS[0]
        assert (row.circuit_id, row.bracket) == ("app2_1", (4, 14))
        report = run_table2((dataclasses.replace(row, bracket=(4, 15)),))
        note = "bracket parsed (4, 14) vs recorded (4, 15)"
        assert note in report.rows[0].discrepancies
        assert report.passed
        assert f"  app2_1: {note}" in render_report(report).splitlines()

    def test_reduced_figures_for_selected_rows(self):
        rows = {r.circuit_id: r for r in run_table2().rows}
        assert rows["app2_8"].computed_original == (23, 127)
        assert rows["app2_8"].computed_reduced == (15, 55)
        # these reach the published hybrid figures with elimination alone
        for cid in ("app2_2", "app2_5", "app2_7", "app2_12"):
            assert rows[cid].computed_reduced == rows[cid].printed_hybrid, cid

    def test_original_cost_exact_on_consistent_rows(self):
        rows = {r.circuit_id: r for r in run_table2().rows}
        exact = {cid for cid, r in rows.items() if r.computed_original == r.printed_original}
        assert exact == {"app2_2", "app2_7", "app2_10", "app2_13"}


class TestReportOutput:
    def test_json_fields(self):
        d = run_table1().to_dict()
        assert d["suite"] == "table1" and d["passed"] is True
        row = d["rows"][0]
        for key in ("row", "computed_g", "computed_c", "printed_g", "printed_c", "status"):
            assert key in row
        json.dumps(d)  # serializable

    def test_render_is_deterministic_and_names_rows(self):
        r1 = render_report(run_table1())
        assert r1 == render_report(run_table1())
        for row in TABLE1_ROWS:
            assert row.benchmark in r1
        assert "result: pass" in r1
        r2 = render_report(run_table2())
        for row in TABLE2_ROWS:
            assert row.circuit_id in r2
        assert "known discrepancies" in r2

    def test_failing_rows_print_no_fail_and_exit_1(self, monkeypatch, capsys):
        # trivial-pair cancellation cannot remove the corpus identities
        monkeypatch.setattr(bench, "eliminate_ntris", remove_trivial_identities)
        assert main(["bench", "all"]) == 1
        table1, table2 = capsys.readouterr().out.split("\n\n")
        for text, check in ((table1, "recovered"), (table2, "removed")):
            header, *rows = text.splitlines()[1:]
            col = header.index(check)
            failed = [row for row in rows if row.endswith("fail")]
            assert failed and all(row[col:col + 3] == "NO " for row in failed)
            assert text.splitlines()[-1] == "result: FAIL"
        assert main(["bench", "all", "--json"]) == 1
        suites = json.loads(capsys.readouterr().out)["suites"]
        assert [s["passed"] for s in suites] == [False, False]


def _count_calls(monkeypatch, module, names, counts: Counter) -> None:
    for name in names:
        real = getattr(module, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)


def test_repeat_bench_all_parses_no_corpus_file(monkeypatch, capsys):
    assert main(["bench", "all"]) == 0
    parses = Counter()
    _count_calls(monkeypatch, corpus, ["parse_circuit"], parses)
    assert main(["bench", "all"]) == 0
    assert parses["parse_circuit"] == 0
    assert "result: pass" in capsys.readouterr().out


# Per ``bench all``: 13 splices and 13 bracket checks, one reduction per
# row of both suites, one simulation and one equivalence check per table 2
# row.  Each row's input (gates, cost) comes from its reduction report; a
# table 1 row counts the host's (gates, cost) and the reduced gates, and a
# table 2 row counts the reduced (gates, cost).
ROW_WORK = {"insert_segment": 13, "eliminate_ntris": 26, "simulate": 13, "equivalent": 13,
            "is_identity": 13, "gate_count": 39, "circuit_cost": 26, "load_corpus_circuit": 39}


def test_every_bench_all_recomputes_every_row(monkeypatch, capsys):
    counts = Counter()
    _count_calls(monkeypatch, bench, ROW_WORK, counts)
    for _ in range(3):
        assert main(["bench", "all", "--json"]) == 0
        assert counts == ROW_WORK
        counts.clear()
    capsys.readouterr()


@pytest.mark.parametrize("suite", ["table1", "table2", "all"])
def test_bench_json_matches_encoder(suite, capsys):
    # the json module's own indent-2 encoder is the reference for the bytes
    assert main(["bench", suite, "--json"]) == 0
    t1, t2 = run_table1().to_dict(), run_table2().to_dict()
    expected = {"table1": t1, "table2": t2, "all": {"suites": [t1, t2]}}[suite]
    assert capsys.readouterr().out == json.dumps(expected, indent=2) + "\n"


# The discrepancy lines of bench all, each named by its row and first
# word, that one cost rule explains: an adjacent Peres pair (TOF on
# {a, b} next to CNOT on a and b) costs 4, not 5 + 1 (helpers.peres_cost).
# Of those it leaves, three are bugged figures one gate above the printed
# ones, a gate-count slip, and three are insertion-column notes.
PERES_EXPLAINED = {
    "imark: bugged", "mperk: optimal", "mperk: bugged", "oc5: bugged", "oc6: bugged",
    "oc7: optimal", "oc7: bugged", "rd32: optimal", "rd32: bugged", "shift4: optimal",
    "shift4: bugged",
    "app2_1: original", "app2_3: original", "app2_4: original", "app2_5: original",
    "app2_6: original", "app2_8: original", "app2_8: reduced", "app2_9: original",
    "app2_11: original", "app2_12: original",
}
PERES_UNEXPLAINED = {
    "4_49: bugged", "4bit-7-8: bugged", "decode42: bugged",
    "hwb4: insertion", "oc6: insertion", "oc8: insertion",
}


def _printed_figures():
    # every circuit with a printed (gates, cost), named as a discrepancy
    # line names it: optimal and bugged in suite 1, original and reduced
    # in suite 2
    figures = {}
    for row in TABLE1_ROWS:
        host = load_corpus_circuit(row.host_id)
        bugged = insert_segment(host, load_corpus_circuit(row.segment_id), host.insertion_point)
        figures[f"{row.benchmark}: optimal"] = host, row.printed_optimal
        figures[f"{row.benchmark}: bugged"] = bugged, row.printed_bugged
    for row in TABLE2_ROWS:
        c = load_corpus_circuit(row.circuit_id)
        figures[f"{row.circuit_id}: original"] = c, row.printed_original
        figures[f"{row.circuit_id}: reduced"] = eliminate_ntris(c)[0], row.printed_hybrid
    return figures


class TestPeresRule:
    def test_names_the_discrepancy_lines_it_explains(self, capsys):
        assert main(["bench", "all"]) == 0
        notes = [line for line in capsys.readouterr().out.splitlines() if line.startswith("  ")]
        names = {" ".join(line.split()[:2]) for line in notes}
        assert len(notes) == len(names) == 27
        figures = _printed_figures()
        explained = {n for n in names if n in figures
                     and (len(figures[n][0]), peres_cost(figures[n][0])) == figures[n][1]}
        assert explained == PERES_EXPLAINED
        assert names - explained == PERES_UNEXPLAINED

    def test_matches_36_of_the_39_printed_input_figures(self):
        # inputs: optimal, bugged and original; each figure the default
        # table matches, the rule matches too
        inputs = [(c, printed) for name, (c, printed) in _printed_figures().items()
                  if not name.endswith("reduced")]
        today = {i for i, (c, printed) in enumerate(inputs) if (len(c), circuit_cost(c)) == printed}
        rule = {i for i, (c, printed) in enumerate(inputs) if (len(c), peres_cost(c)) == printed}
        assert (len(inputs), len(today), len(rule)) == (39, 16, 36)
        assert today <= rule
