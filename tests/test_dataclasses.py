"""The value classes' dataclass contract: field declarations, the fields
kept out of equality, frozenness, ``repr``, hashing and ``asdict``."""

from __future__ import annotations

import copy
import dataclasses
import pickle

import pytest

from revident import (
    Circuit, Gate, GeneratorConfig, ReductionReport, Removal, eliminate_ntris,
    remove_trivial_identities,
)
from revident.bench import (
    BenchReport,
    Table1Result,
    Table1Row,
    Table2Result,
    Table2Row,
    run_table1,
    run_table2,
)

_SPEC = (12, 7, 2, 5, 0, 15, 14, 11, 6, 3, 10, 1, 8, 9, 4, 13)

# (class, a function making one instance, its field names in order, its repr);
# the function makes a new, equal instance on each call
CLASSES = [
    (Gate, lambda: Gate(frozenset({0, 2}), 1),
     ("controls", "target"),
     "Gate(controls=frozenset({0, 2}), target=1)"),
    (Circuit, lambda: Circuit(3, (Gate(frozenset({0, 2}), 1), Gate(frozenset(), 0)), 1, (0, 2)),
     ("width", "gates", "insertion_point", "bracket"),
     "Circuit(width=3, gates=(Gate(controls=frozenset({0, 2}), target=1), "
     "Gate(controls=frozenset(), target=0)), insertion_point=1, bracket=(0, 2))"),
    (Removal, lambda: Removal(1, 3, 2, 6),
     ("start_gap", "end_index", "gate_count", "cost"),
     "Removal(start_gap=1, end_index=3, gate_count=2, cost=6)"),
    (ReductionReport,
     lambda: ReductionReport(2, (Removal(0, 2, 2, 2),), 2, 0, 2, 0, (0, 1, 2, 3), (0, 1, 2, 3),
                             comparisons=2),
     ("passes", "removals", "input_gates", "output_gates", "input_cost", "output_cost",
      "input_spec", "output_spec", "comparisons"),
     "ReductionReport(passes=2, removals=(Removal(start_gap=0, end_index=2, gate_count=2, "
     "cost=2),), input_gates=2, output_gates=0, input_cost=2, output_cost=0, "
     "input_spec=(0, 1, 2, 3), output_spec=(0, 1, 2, 3), comparisons=2)"),
    (GeneratorConfig, lambda: GeneratorConfig(width=4),
     ("width", "gates", "min_length", "max_controls", "seed", "max_attempts"),
     "GeneratorConfig(width=4, gates=0, min_length=0, max_controls=3, seed=0, "
     "max_attempts=1000)"),
    (Table1Row, lambda: Table1Row("4_49", "app1_1a", "app1_1b", 6, (12, 32), (19, 61), (19, 61)),
     ("benchmark", "host_id", "segment_id", "printed_insertion_point", "printed_optimal",
      "printed_bugged", "printed_optimized"),
     "Table1Row(benchmark='4_49', host_id='app1_1a', segment_id='app1_1b', "
     "printed_insertion_point=6, printed_optimal=(12, 32), printed_bugged=(19, 61), "
     "printed_optimized=(19, 61))"),
    (Table2Row, lambda: Table2Row("app2_1", _SPEC, (4, 14), (21, 113), (17, 103), (10, 30)),
     ("circuit_id", "specification", "bracket", "printed_original", "printed_tool",
      "printed_hybrid"),
     "Table2Row(circuit_id='app2_1', specification=(12, 7, 2, 5, 0, 15, 14, 11, 6, 3, 10, "
     "1, 8, 9, 4, 13), bracket=(4, 14), printed_original=(21, 113), printed_tool=(17, 103), "
     "printed_hybrid=(10, 30))"),
    (Table1Result,
     lambda: Table1Result("4_49", True, 5, 6, (12, 32), (12, 32), (20, 68), (19, 61),
                          ("bugged printed (19, 61) computed (20, 68)",), "pass"),
     ("benchmark", "recovered", "marker_gap", "printed_insertion_point", "computed_optimal",
      "printed_optimal", "computed_bugged", "printed_bugged", "discrepancies", "status"),
     "Table1Result(benchmark='4_49', recovered=True, marker_gap=5, printed_insertion_point=6, "
     "computed_optimal=(12, 32), printed_optimal=(12, 32), computed_bugged=(20, 68), "
     "printed_bugged=(19, 61), discrepancies=('bugged printed (19, 61) computed (20, 68)',), "
     "status='pass')"),
    (Table2Result,
     lambda: Table2Result("app2_1", True, (4, 14), True, True, True, (21, 117), (21, 113),
                          (11, 35), (10, 30), (), "pass"),
     ("circuit_id", "spec_matches", "bracket", "bracket_is_identity", "bracket_removed",
      "spec_preserved", "computed_original", "printed_original", "computed_reduced",
      "printed_hybrid", "discrepancies", "status"),
     "Table2Result(circuit_id='app2_1', spec_matches=True, bracket=(4, 14), "
     "bracket_is_identity=True, bracket_removed=True, spec_preserved=True, "
     "computed_original=(21, 117), printed_original=(21, 113), computed_reduced=(11, 35), "
     "printed_hybrid=(10, 30), discrepancies=(), status='pass')"),
    (BenchReport, lambda: BenchReport("table1", ()),
     ("suite", "rows"),
     "BenchReport(suite='table1', rows=())"),
]

_IDS = [cls.__name__ for cls, *_ in CLASSES]


@pytest.mark.parametrize("cls, make, names, text", CLASSES, ids=_IDS)
def test_fields_in_order(cls, make, names, text):
    assert dataclasses.is_dataclass(cls)
    assert tuple(f.name for f in dataclasses.fields(cls)) == names


def test_only_the_annotations_and_comparisons_are_kept_out_of_equality():
    kept_out = {(cls.__name__, f.name) for cls, *_ in CLASSES
                for f in dataclasses.fields(cls) if not f.compare}
    assert kept_out == {("Circuit", "insertion_point"), ("Circuit", "bracket"),
                        ("ReductionReport", "comparisons")}


@pytest.mark.parametrize("cls, make, names, text", CLASSES, ids=_IDS)
def test_every_field_is_frozen(cls, make, names, text):
    value = make()
    for name in names:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, name, None)
    assert value == make()


@pytest.mark.parametrize("cls, make, names, text", CLASSES, ids=_IDS)
def test_repr(cls, make, names, text):
    assert repr(make()) == text


@pytest.mark.parametrize("cls, make, names, text", CLASSES, ids=_IDS)
def test_equal_instances_hash_equal(cls, make, names, text):
    a, b = make(), make()
    assert a is not b and a == b and hash(a) == hash(b)


def test_fields_out_of_equality_change_neither_equality_nor_hash():
    gates = (Gate(frozenset({0, 2}), 1), Gate(frozenset(), 0))
    marked, plain = Circuit(3, gates, 1, (0, 2)), Circuit(3, gates)
    assert marked == plain and hash(marked) == hash(plain)
    args = (2, (Removal(0, 2, 2, 2),), 2, 0, 2, 0, (0, 1, 2, 3), (0, 1, 2, 3))
    counted, uncounted = ReductionReport(*args, comparisons=2), ReductionReport(*args)
    assert counted == uncounted and hash(counted) == hash(uncounted)


def test_asdict_shapes():
    assert dataclasses.asdict(Removal(1, 3, 2, 6)) == {
        "start_gap": 1, "end_index": 3, "gate_count": 2, "cost": 6}
    assert list(dataclasses.asdict(Removal(1, 3, 2, None))) == [
        "start_gap", "end_index", "gate_count", "cost"]
    assert dataclasses.asdict(Gate(frozenset({0, 2}), 1)) == {
        "controls": frozenset({0, 2}), "target": 1}


# Values the package makes without ``__init__``, by one ``vars`` update or,
# for removals, field by field, each made where the package makes it.
_GATES = (Gate(frozenset({0, 2}), 1), Gate(frozenset(), 0), Gate(frozenset(), 0))
ASSEMBLED = [
    lambda: Circuit._of(3, _GATES, 1, (0, 2)),
    lambda: eliminate_ntris(Circuit(3, _GATES))[1],
    lambda: eliminate_ntris(Circuit(3, _GATES))[1].removals[0],
    lambda: remove_trivial_identities(Circuit(3, _GATES))[1].removals[0],
    lambda: run_table1().rows[0],
    lambda: run_table2().rows[0],
]


@pytest.mark.parametrize("make", ASSEMBLED, ids=["Circuit", "ReductionReport", "Removal-ntris",
                                                 "Removal-trivial", "Table1Result",
                                                 "Table2Result"])
def test_assembled_values_equal_constructed_ones(make):
    assembled = make()
    cls = type(assembled)
    names = [f.name for f in dataclasses.fields(cls)]
    built = cls(**{name: getattr(assembled, name) for name in names})
    for value in (assembled, pickle.loads(pickle.dumps(assembled)), copy.deepcopy(assembled)):
        assert value == built and hash(value) == hash(built)
        assert repr(value) == repr(built)
        assert list(vars(value)) == list(vars(built)) == names
        for name in names:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, name, None)
