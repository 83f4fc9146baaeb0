"""Identity elimination: the trivial pass, the full eliminator, and the
reduction reports."""

from __future__ import annotations

import copy
import dataclasses
import io
import json
import pickle
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from revident import (
    Circuit,
    GeneratorConfig,
    ReductionReport,
    Removal,
    WidthCapExceeded,
    eliminate_ntris,
    eliminate_ntris_fast,
    gen_random_circuit,
    gen_random_ntri,
    is_identity,
    is_interior_irreducible,
    is_irreducible,
    mct,
    parse_circuit,
    remove_trivial_identities,
    simulate,
)
from revident import semantics
from revident.bench import surviving_indices
from revident.circuit import _assemble
from revident.cost import DEFAULT_COST_TABLE
from revident.reduce import _FinalColumns, _json, _maybe_cost
from revident.semantics import _columns, _first_repeat, _table

from helpers import (
    circuits, eliminate_reference, first_hit, late_hit_circuit, prefix_trace, random_circuit,
)

GOLDEN = "wires: a b c\nCNOT(b, a) TOF(a, b, c) CNOT(c, b) CNOT(c, b) TOF(a, b, c)"

# a five-gate identity with no adjacent equal pair
BURIED = "wires: a b c d\nCNOT(d, c) TOF(b, c, a) TOF(b, d, a) CNOT(d, c) TOF(b, c, a)"

# three repetitions of an alternating two-gate identity block
ALTERNATING = (
    "wires: a b c d\n"
    "TOF4(a, c, d, b) TOF4(a, b, d, c) TOF4(a, c, d, b) "
    "TOF4(a, b, d, c) TOF4(a, c, d, b) TOF4(a, b, d, c)"
)


def _json_text(value) -> str:
    """The text ``_json`` writes for ``value``."""
    out = io.StringIO()
    _json(value, out)
    return out.getvalue()


class TestTrivialPass:
    def test_adjacent_pair_cancels(self):
        c = parse_circuit("NOT(a) NOT(a)")
        out, report = remove_trivial_identities(c)
        assert out.gates == ()
        assert report.removals == (Removal(0, 2, 2, 2),)

    def test_cancellation_cascades(self):
        c = parse_circuit("wires: a b\nNOT(a) CNOT(a, b) CNOT(a, b) NOT(a)")
        out, report = remove_trivial_identities(c)
        assert out.gates == ()
        assert [(r.start_gap, r.end_index) for r in report.removals] == [(1, 3), (0, 2)]

    def test_golden_example_is_trivially_reducible(self):
        out, _ = remove_trivial_identities(parse_circuit(GOLDEN))
        assert out == parse_circuit("wires: a b c\nCNOT(b, a)")

    def test_buried_identity_is_invisible_to_trivial_pass(self):
        c = parse_circuit(BURIED)
        assert is_identity(c)
        out, report = remove_trivial_identities(c)
        assert out == c and report.removals == ()

    def test_no_adjacent_pairs_survive(self):
        rng = random.Random(50)
        for _ in range(200):
            c = random_circuit(rng, rng.randint(2, 5), rng.randint(0, 30))
            out, report = remove_trivial_identities(c)
            assert all(out.gates[i] != out.gates[i + 1] for i in range(len(out) - 1))
            assert report.input_spec == report.output_spec == simulate(out)
            survivors = surviving_indices(len(c), report.removals)
            assert [c.gates[i] for i in survivors] == list(out.gates)

    def test_simulates_once(self, monkeypatch):
        # the input is simulated once, and its table is built on first read
        table = semantics._table
        calls = []

        def counting(cols):
            calls.append(len(cols))
            return table(cols)

        monkeypatch.setattr("revident.reduce._table", counting)
        _, report = remove_trivial_identities(parse_circuit(GOLDEN))
        assert calls == []
        assert report.output_spec == simulate(parse_circuit("wires: a b c\nCNOT(b, a)"))
        assert report.input_spec == report.output_spec
        assert calls == [3]

    def test_works_above_width_cap_without_specs(self):
        c = Circuit(20, (mct({0}, 19), mct({0}, 19)))
        out, report = remove_trivial_identities(c)
        assert out.gates == ()
        assert report.input_spec is None and report.output_spec is None
        with pytest.raises(TypeError):
            remove_trivial_identities(c, max_width=20)


class TestEliminate:
    def test_golden_example(self):
        out, report = eliminate_ntris(parse_circuit(GOLDEN))
        assert out == parse_circuit("wires: a b c\nCNOT(b, a)")
        assert [(r.start_gap, r.end_index) for r in report.removals] == [(2, 4), (1, 3)]
        assert report.passes == 3

    def test_buried_identity_removed_whole(self):
        out, report = eliminate_ntris(parse_circuit(BURIED))
        assert out.gates == ()
        assert report.removals == (Removal(0, 5, 5, 17),)

    def test_alternating_identity_removed_whole(self):
        # the alternating pair has order 3, so no proper prefix repeats
        # and the six gates disappear in a single removal
        out, report = eliminate_ntris(parse_circuit(ALTERNATING))
        assert out.gates == ()
        assert [(r.start_gap, r.end_index) for r in report.removals] == [(0, 6)]

    def test_scan_takes_smallest_end_index_then_smallest_start(self):
        # NOT(a) NOT(a) twice: the first pass must remove gates 1..2, not 1..4
        c = parse_circuit("NOT(a) NOT(a) NOT(a) NOT(a)")
        out, report = eliminate_ntris(c)
        assert out.gates == ()
        assert [(r.start_gap, r.end_index) for r in report.removals] == [(0, 2), (0, 2)]
        assert report.passes == 3

    def test_identity_prefix_removed_from_gap_zero(self):
        c = parse_circuit("wires: a b\nCNOT(a, b) CNOT(a, b) NOT(a)")
        out, report = eliminate_ntris(c)
        assert out == parse_circuit("wires: a b\nNOT(a)")
        assert report.removals == (Removal(0, 2, 2, 2),)

    def test_empty_input(self):
        out, report = eliminate_ntris(Circuit.empty(4))
        assert out.gates == () and report.passes == 1 and report.removals == ()

    def test_width_cap(self):
        with pytest.raises(WidthCapExceeded):
            eliminate_ntris(Circuit(17, (mct((), 16),)))

    def test_properties_on_random_circuits(self):
        rng = random.Random(2024)
        for _ in range(150):
            c = random_circuit(rng, rng.randint(2, 5), rng.randint(0, 40))
            out, report = eliminate_ntris(c)
            assert report.input_spec == simulate(c)
            assert report.output_spec == simulate(out)
            assert report.input_spec == report.output_spec
            assert is_irreducible(out)
            assert len(out) <= len(c)
            again, again_report = eliminate_ntris(out)
            assert again == out and again_report.removals == ()
            # replaying the removal list reproduces the output
            survivors = surviving_indices(len(c), report.removals)
            assert [c.gates[i] for i in survivors] == list(out.gates)

    def test_output_has_no_adjacent_pairs_either(self):
        rng = random.Random(9)
        for _ in range(60):
            c = random_circuit(rng, 4, 30)
            out, _ = eliminate_ntris(c)
            trimmed, report = remove_trivial_identities(out)
            assert trimmed == out and report.removals == ()


class TestFastVariant:
    def test_fast_is_the_same_function(self):
        assert eliminate_ntris_fast is eliminate_ntris


def _with_mirrors(rng: random.Random, c: Circuit) -> Circuit:
    """Splice mirrored copies of random spans into ``c``: each is an
    identity that telescopes, so hits nest inside one another."""
    gates = list(c.gates)
    for _ in range(rng.randint(1, 3)):
        lo = rng.randint(0, len(gates))
        span = gates[lo:lo + rng.randint(1, 8)]
        at = rng.randint(0, len(gates))
        gates[at:at] = span + span[::-1]
    return Circuit(c.width, tuple(gates))


def _reference_cases():
    rng = random.Random(4242)
    for n in range(140):
        c = random_circuit(rng, n % 7 + 1, rng.randint(0, 40))
        yield _with_mirrors(rng, c) if n % 2 else c
    for n in range(12):
        yield late_hit_circuit(rng, 3 + n % 4, rng.randint(10, 40), rng.randint(1, 4), 6)
    # two byte planes of specification bits
    for n in range(4):
        yield _with_mirrors(rng, random_circuit(rng, 9 + n % 2, rng.randint(5, 20)))


class TestAgainstReference:
    def test_matches_restarting_scan(self):
        for c in _reference_cases():
            ref_out, ref = eliminate_reference(c)
            out, report = eliminate_ntris(c)
            assert out == ref_out
            assert report.removals == ref.removals
            assert report.passes == ref.passes
            assert report.input_spec == ref.input_spec
            assert report.output_spec == ref.output_spec
            assert report == ref

    def test_lookups_linear_in_input_gates(self):
        c = late_hit_circuit(random.Random(77), 6, 120, 4, 8)
        m = len(c.gates)
        _, report = eliminate_ntris(c)
        assert report.passes == 5
        assert report.comparisons == m


def _late_hit_cases():
    rng = random.Random(606)
    for n in range(8):
        yield late_hit_circuit(rng, 3 + n % 3, rng.randint(5, 25), rng.randint(2, 4), 6)


class TestFingerprintIndex:
    """Every prefix lookup collides when the multipliers are all zero,
    which keeps every key at 0: only the exact confirmation then tells
    candidates apart."""

    @pytest.fixture()
    def colliding(self, monkeypatch):
        monkeypatch.setattr(semantics, "_MULTIPLIERS", (0,) * 64)

    def test_constant_fingerprint_matches_restarting_scan(self, colliding):
        for c in [*_reference_cases(), *_late_hit_cases()]:
            ref_out, ref = eliminate_reference(c)
            out, report = eliminate_ntris(c)
            assert out == ref_out
            assert report.removals == ref.removals
            assert report.passes == ref.passes
            assert report.input_spec == ref.input_spec
            assert report.output_spec == ref.output_spec
            assert report == ref
            assert report.comparisons == len(c.gates)

    @pytest.mark.parametrize("constant", [False, True], ids=["real", "constant"])
    def test_first_repeat_matches_bruteforce(self, monkeypatch, constant):
        # generated NTRIs hit only as a whole: the first repeat is (0, m)
        ntris = [gen_random_ntri(GeneratorConfig(width=w, min_length=2 * w, seed=s))
                 for w in (3, 4, 5) for s in range(6)]
        if constant:
            monkeypatch.setattr(semantics, "_MULTIPLIERS", (0,) * 64)
        for c in [*_reference_cases(), *_late_hit_cases(), *ntris]:
            hit = _first_repeat(c)
            assert hit == first_hit(list(c.gates), c.width)
            removals = eliminate_ntris(c)[1].removals
            assert hit == ((removals[0].start_gap, removals[0].end_index) if removals else None)
        for c in ntris:
            assert _first_repeat(c) == (0, len(c.gates))
            assert is_interior_irreducible(c)

    def test_work_is_linear_in_gates(self, monkeypatch):
        # m column hashes, and at most m gates simulated by the
        # confirmations, all of which succeed with the real hash
        hashed = []
        monkeypatch.setattr(semantics, "_column_hash", lambda col: hashed.append(col) or hash(col))
        confirmed = []
        spans_identity = semantics._spans_identity

        def counting_spans_identity(cols, gates):
            confirmed.append(len(gates))
            return spans_identity(cols, gates)

        monkeypatch.setattr(semantics, "_spans_identity", counting_spans_identity)
        for c in _late_hit_cases():
            eliminate_ntris(c)  # builds the width's start state, whose identity hashes would count
            hashed.clear()
            confirmed.clear()
            _, report = eliminate_ntris(c)
            assert len(hashed) == len(c.gates)
            assert report.removals and 0 < sum(confirmed) <= len(c.gates)

    def test_cut_prefixes_leave_the_index(self, monkeypatch):
        # A cut must take the prefixes it deletes out of the index.  Left
        # in, each would be confirmed, and fail, whenever its fingerprint
        # came back: here a block's prefixes return once per later block,
        # so confirmations grow with the square of the blocks while the
        # removals stay the same.
        block = parse_circuit("NOT(a) CNOT(a, b) CNOT(b, c) CNOT(b, c) CNOT(a, b) NOT(a)")
        c = Circuit(3, block.gates * 200)
        confirmed = []
        spans_identity = semantics._spans_identity

        def counting_spans_identity(cols, gates):
            confirmed.append(len(gates))
            return spans_identity(cols, gates)

        monkeypatch.setattr(semantics, "_spans_identity", counting_spans_identity)
        out, report = eliminate_ntris(c)
        assert out.gates == () and len(report.removals) == 600
        assert len(confirmed) <= len(report.removals)

    def test_peak_memory_at_width_16(self):
        c = gen_random_circuit(GeneratorConfig(width=16, gates=500, seed=3))
        tracemalloc.start()
        try:
            out, _ = eliminate_ntris(c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(out) <= len(c)
        assert peak < 1 << 20

    def test_scan_peak_memory_per_gate(self):
        # the scan keeps the stack of kept gates and one index entry per
        # kept prefix, about 150 bytes per gate; a list of stack indices
        # per fingerprint would take about 234
        c, _ = eliminate_ntris(gen_random_circuit(GeneratorConfig(width=10, gates=50_000, seed=5)))
        assert len(c) > 49_000
        kept = []
        tracemalloc.start()
        try:
            cuts = list(semantics._cuts(semantics._identity_columns(10), c.gates, kept))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cuts == [] and kept == list(c.gates)
        assert peak < 200 * len(c)


class TestReport:
    def test_report_dict_shape(self):
        _, report = eliminate_ntris(parse_circuit(GOLDEN))
        d = report.to_dict()
        assert d["passes"] == 3
        assert d["input_gates"] == 5 and d["output_gates"] == 1
        assert d["removals"][0] == {"start_gap": 2, "end_index": 4, "gate_count": 2, "cost": 2}
        assert d["input_spec"] == list(simulate(parse_circuit(GOLDEN)))
        assert d["input_cost"] == 1 + 5 + 1 + 1 + 5 and d["output_cost"] == 1
        assert report.gates_removed == 4

    def test_costs_none_when_table_lacks_entries(self):
        wide = mct({0, 1, 2, 3}, 4)
        c = Circuit(5, (wide, wide))
        out, report = eliminate_ntris(c)
        assert out.gates == ()
        assert report.input_cost is None and report.removals[0].cost is None
        assert report.output_cost == 0

    def test_specs_built_on_first_read_only(self, monkeypatch):
        calls = []

        def counting(cols):
            calls.append(len(cols))
            return semantics._table(cols)

        monkeypatch.setattr("revident.reduce._table", counting)
        c = parse_circuit(GOLDEN)
        _, report = eliminate_ntris(c)
        assert calls == []
        assert report.input_spec == simulate(c)
        assert report.output_spec is report.input_spec
        assert calls == [3]
        assert report.to_dict()["output_spec"] == list(simulate(c))
        assert calls == [3]

    def test_lazy_report_equals_eager_report(self):
        _, lazy = eliminate_ntris(parse_circuit(GOLDEN))
        fields = {f: getattr(lazy, f) for f in (
            "passes", "removals", "input_gates", "output_gates", "input_cost",
            "output_cost", "input_spec", "output_spec", "comparisons")}
        eager = ReductionReport(**fields)
        assert eager == lazy and hash(eager) == hash(lazy)
        assert eager.to_dict() == lazy.to_dict()
        assert _json_text(eager) == _json_text(lazy) == json.dumps(lazy.to_dict(), indent=2)
        with pytest.raises(TypeError):
            ReductionReport(**{k: v for k, v in fields.items() if k != "output_spec"})

    def test_list_specifications_read_back_unchanged(self):
        # a plain list is a caller's specification, never columns to tabulate
        spec = [0, 1, 3, 2]
        report = ReductionReport(2, (Removal(0, 2, 2, 2),), 3, 1, 3, 1, spec, spec, comparisons=3)
        assert report.input_spec is spec and report.output_spec is spec
        assert report.to_dict()["output_spec"] == [0, 1, 3, 2]
        assert _json_text(report) == json.dumps(report.to_dict(), indent=2)

    def test_unread_report_survives_pickle_and_deepcopy(self, monkeypatch):
        calls = []

        def counting(cols):
            calls.append(len(cols))
            return semantics._table(cols)

        monkeypatch.setattr("revident.reduce._table", counting)
        c = parse_circuit(GOLDEN)
        _, lazy = eliminate_ntris(c)
        text = _json_text(lazy)
        copies = [pickle.loads(pickle.dumps(lazy)), copy.deepcopy(lazy)]
        assert [_json_text(r) for r in copies] == [text, text]
        assert calls == []
        for r in copies:
            assert r == lazy and r.output_spec is r.input_spec == simulate(c)
        assert calls == [3, 3, 3]

    # the output cost is the input cost less the removals' costs; it
    # must equal a second cost pass over the output, with and without
    # entries for every gate
    @given(circuits(max_width=6, max_gates=14, max_controls=4), st.integers(0, 14),
           st.sampled_from([DEFAULT_COST_TABLE, {0: 1, 1: 3, 2: 7}]),
           st.sampled_from([eliminate_ntris, remove_trivial_identities]))
    @settings(max_examples=300)
    def test_output_cost_matches_a_cost_pass(self, c, k, table, reduce):
        # the last k gates undone in reverse order give removals to subtract
        c = Circuit(c.width, c.gates + c.gates[::-1][:k])
        out, report = reduce(c, table)
        assert report.output_cost == _maybe_cost(out.gates, table)

    # the report bytes against the json module's encoder, for both
    # reducers, with specifications None (the trivial pass at widths 17-26,
    # above the cap) and costs None (no 3-control entry), fresh and after a
    # read of input_spec, which stores the tuple in both fields
    @given(st.one_of(st.tuples(circuits(max_width=8, max_gates=14, max_controls=3),
                               st.sampled_from([eliminate_ntris, remove_trivial_identities])),
                     st.tuples(circuits(min_width=17, max_width=26, max_gates=14, max_controls=3),
                               st.just(remove_trivial_identities))),
           st.integers(0, 14), st.sampled_from([DEFAULT_COST_TABLE, {0: 1, 1: 1, 2: 5}]),
           st.booleans())
    @settings(max_examples=300)
    def test_report_json_matches_encoder(self, case, k, table, read):
        c, reduce = case
        c = Circuit(c.width, c.gates + c.gates[::-1][:k])
        _, report = reduce(c, table)
        if read:
            report.input_spec
        assert _json_text(report) == json.dumps(report.to_dict(), indent=2)

    # fresh, and after a read of input_spec, which tabulates the shared
    # columns once and keeps them for the writer
    @pytest.mark.parametrize("reduce, read", [
        pytest.param(reduce, read, id=reduce.__name__ + "-read" * read)
        for reduce in (eliminate_ntris, remove_trivial_identities) for read in (False, True)])
    def test_shared_specification_is_written_once(self, reduce, read, monkeypatch):
        texts, tables = [], []

        def counting_text(cols, sep=","):
            texts.append(sep)
            return semantics._spec_text(cols, sep)

        def counting_table(cols):
            tables.append(len(cols))
            return semantics._table(cols)

        monkeypatch.setattr("revident.reduce._spec_text", counting_text)
        monkeypatch.setattr("revident.reduce._table", counting_table)
        _, report = reduce(parse_circuit(GOLDEN))
        if read:
            assert report.output_spec is report.input_spec
        text = _json_text(report)
        assert texts == [",\n    "] and tables == [3] * read
        assert text == json.dumps(report.to_dict(), indent=2)

    def test_json_writes_fields_in_declaration_order(self):
        # stored in reverse field order, as an _assemble with its keywords
        # out of order stores them: the writer still follows the fields
        _, report = eliminate_ntris(parse_circuit(GOLDEN))
        backwards = _assemble(ReductionReport, **dict(reversed(vars(report).items())))
        vars(backwards)["removals"] = tuple(
            _assemble(Removal, **dict(reversed(vars(r).items()))) for r in report.removals)
        assert list(vars(backwards)) != [f.name for f in dataclasses.fields(report)]
        assert _json_text(backwards) == _json_text(report) == json.dumps(report.to_dict(), indent=2)

    def test_removal_validation(self):
        with pytest.raises(ValueError):
            Removal(2, 2, 0, None)
        with pytest.raises(ValueError):
            Removal(0, 2, 3, None)


# JSON values _json writes: text of every kind (non-ASCII, quotes,
# backslashes, control characters), ints past 64 bits, nested containers
_JSON_LEAVES = st.none() | st.booleans() | st.integers(-2**80, 2**80) | st.text()
_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=30,
)


class TestJsonWriter:
    @given(_JSON_VALUES)
    @example({"k\"\\": ["\u00e9\u2028\ud800\x00\x1f\"\\/", 2**64 + 1, -2**70, True, False, None]})
    @example({"a": [], "b": {}, "c": [[], {}, ()], "": [{"d": []}]})
    @settings(max_examples=500)
    def test_matches_encoder(self, value):
        assert _json_text(value) == json.dumps(value, indent=2)
        assert _json_text({"k": value}) == json.dumps({"k": value}, indent=2)

    # columns are written as their table's list at any depth; the same
    # columns at two depths get two indents
    @given(circuits(max_width=8, max_gates=10))
    @settings(max_examples=100)
    def test_final_columns_match_encoder_of_their_table(self, c):
        cols = _FinalColumns(_columns(c))
        table = list(_table(cols))
        assert _json_text({"a": [cols], "b": cols}) == json.dumps({"a": [table], "b": table}, indent=2)

    def test_text_past_one_flush_matches_encoder(self):
        # the writer hands its parts to the stream whenever it holds more
        # than 4,096; 1,000 one-key dicts take 9,000 parts, so three writes
        value = [{"i": i} for i in range(1000)]
        writes = []

        class Record(io.StringIO):
            def write(self, text):
                writes.append(len(text))
                return super().write(text)

        out = Record()
        _json(value, out)
        assert out.getvalue() == json.dumps(value, indent=2)
        assert len(writes) == 3

    @pytest.fixture(scope="class")
    def long_write(self):
        # _json of a 100,000-removal report into a sink that keeps nothing:
        # the report's removal count and the traced (current, peak) bytes
        pairs = Circuit._of(1, (mct((), 0),) * 200_000)
        _, report = remove_trivial_identities(pairs)

        class Discard:
            def write(self, text):
                return len(text)

        tracemalloc.start()
        try:
            _json(report, Discard())
            return len(report.removals), tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()

    def test_long_report_is_written_in_bounded_memory(self, long_write):
        # the writer holds at most about 4,096 parts at a time
        n, (_, peak) = long_write
        assert n == 100_000
        assert peak < 100 * n

    def test_written_removals_keep_no_field_dict(self, long_write):
        # a Removal read through vars() keeps the attribute dict that the
        # read materialises, about 64 bytes each, after the write returns
        n, (held, _) = long_write
        assert n == 100_000
        assert held < 10 * n

    @pytest.mark.parametrize("value", [1.5, {1, 2}, {1: "a"}, [{"a": 0.0}]],
                             ids=["float", "set", "int-key", "nested-float"])
    def test_other_types_raise_type_error(self, value):
        with pytest.raises(TypeError):
            _json_text(value)


class TestIrreducible:
    def test_known_values(self):
        assert is_irreducible(parse_circuit("NOT(a) CNOT(a, b)"))
        assert not is_irreducible(parse_circuit(BURIED))
        assert not is_irreducible(parse_circuit("NOT(a) NOT(a)"))
        assert is_irreducible(Circuit.empty(2))

    def test_matches_prefix_trace_definition(self):
        rng = random.Random(8)
        for _ in range(50):
            c = random_circuit(rng, 4, 12)
            trace = prefix_trace(c)
            assert is_irreducible(c) == (len(set(trace)) == len(trace))
