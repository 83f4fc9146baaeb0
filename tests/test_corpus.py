"""Integrity of the bundled corpus files."""

from __future__ import annotations

from pathlib import Path

import pytest

from revident import (
    corpus_ids,
    corpus_text,
    format_circuit,
    load_corpus_circuit,
    parse_circuit,
)
from revident import corpus
from revident.corpus import SUITE1_IDS, SUITE2_IDS

MARKER_GAPS = {
    "app1_1a": 5, "app1_2a": 4, "app1_3a": 3, "app1_4a": 7, "app1_5a": 4,
    "app1_6a": 3, "app1_7a": 1, "app1_8a": 11, "app1_9a": 12, "app1_10a": 9,
    "app1_11a": 3, "app1_12a": 2, "app1_13a": 3,
}

BRACKETS = {
    "app2_1": (4, 14), "app2_2": (6, 18), "app2_3": (5, 16), "app2_4": (4, 13),
    "app2_5": (4, 17), "app2_6": (4, 18), "app2_7": (11, 17), "app2_8": (3, 11),
    "app2_9": (9, 14), "app2_10": (10, 15), "app2_11": (7, 14), "app2_12": (5, 17),
    "app2_13": (9, 16),
}

HOST_GATE_COUNTS = [12, 7, 10, 11, 7, 9, 11, 12, 13, 11, 10, 4, 4]
SEGMENT_GATE_COUNTS = [8, 8, 7, 5, 10, 13, 12, 8, 16, 14, 8, 6, 16]
SUITE2_GATE_COUNTS = [21, 30, 23, 22, 23, 25, 21, 23, 17, 20, 21, 29, 25]


def test_inventory():
    ids = corpus_ids()
    assert len(ids) == 39
    assert len(SUITE1_IDS) == 26 and len(SUITE2_IDS) == 13
    assert "app1_9b" in ids  # pair circuit for app1_9a


def test_every_file_parses_to_width_four():
    for cid in corpus_ids():
        c = load_corpus_circuit(cid)
        assert c.width == 4, cid


def test_unknown_id():
    with pytest.raises(KeyError):
        corpus_text("app3_1")


# The first three named a readable .rev file while ids were joined to the
# corpus directory unchecked; the others are near misses and non-strings.
_ABSOLUTE = str(Path(corpus.__file__).with_name("corpus") / "app1_1a")


@pytest.mark.parametrize("cid", [
    "./app1_1a", "../corpus/app1_1a", _ABSOLUTE, "app1_1a.rev", "APP1_1A", "app1_1a ", "",
    Path("app1_1a"), ["app1_1a"], None,
])
@pytest.mark.parametrize("load", [corpus_text, load_corpus_circuit])
def test_ids_outside_the_corpus_are_rejected(load, cid):
    with pytest.raises(KeyError) as info:
        load(cid)
    assert info.value.args == (f"no corpus circuit {cid!r}",)
    assert set(corpus._CIRCUITS) <= set(corpus_ids())


def test_each_circuit_is_shared():
    first = {cid: load_corpus_circuit(cid) for cid in corpus_ids()}
    for cid in corpus_ids():
        assert load_corpus_circuit(cid) is first[cid], cid
        assert first[cid] == parse_circuit(corpus_text(cid)), cid


def test_host_markers():
    for cid, gap in MARKER_GAPS.items():
        assert load_corpus_circuit(cid).insertion_point == gap, cid


def test_segments_carry_no_annotations():
    for n in range(1, 14):
        c = load_corpus_circuit(f"app1_{n}b")
        assert c.insertion_point is None and c.bracket is None


def test_suite2_brackets():
    for cid, span in BRACKETS.items():
        assert load_corpus_circuit(cid).bracket == span, cid


def test_gate_counts():
    assert [len(load_corpus_circuit(f"app1_{n}a")) for n in range(1, 14)] == HOST_GATE_COUNTS
    assert [len(load_corpus_circuit(f"app1_{n}b")) for n in range(1, 14)] == SEGMENT_GATE_COUNTS
    assert [len(load_corpus_circuit(f"app2_{n}")) for n in range(1, 14)] == SUITE2_GATE_COUNTS


def test_round_trip_preserves_gates_and_annotations():
    for cid in corpus_ids():
        c = load_corpus_circuit(cid)
        again = parse_circuit(format_circuit(c))
        assert again == c, cid
        assert again.insertion_point == c.insertion_point, cid
        assert again.bracket == c.bracket, cid
