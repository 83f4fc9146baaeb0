"""Command line behavior: output, exit codes, file handling."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import revident
from revident import (
    cli,
    eliminate_ntris,
    format_circuit,
    load_corpus_circuit,
    parse_circuit,
    remove_trivial_identities,
)
from revident.cli import main
from revident.corpus import corpus_text


@pytest.fixture()
def rev(tmp_path):
    def write(name: str, text: str) -> str:
        p = tmp_path / name
        p.write_text(text, encoding="utf-8")
        return str(p)

    return write


def test_simulate(rev, capsys):
    path = rev("c.rev", corpus_text("app2_8"))
    assert main(["simulate", path]) == 0
    assert capsys.readouterr().out.strip() == "[12,15,5,8,3,2,1,10,7,14,13,6,11,0,9,4]"


def test_simulate_prints_from_columns(rev, capsys, monkeypatch):
    # a width-16 specification is printed without the 65,536-entry tuple;
    # the digest is of the stdout that format_spec(simulate(c)) gave
    table, format_spec = revident.semantics._table, revident.semantics.format_spec
    calls = []
    monkeypatch.setattr("revident.semantics._table",
                        lambda cols: calls.append("_table") or table(cols))
    monkeypatch.setattr("revident.semantics.format_spec",
                        lambda spec: calls.append("format_spec") or format_spec(spec))
    c = revident.gen_random_circuit(revident.GeneratorConfig(width=16, gates=40, seed=11))
    path = rev("c.rev", format_circuit(c))
    assert main(["simulate", path]) == 0
    out = capsys.readouterr().out
    assert calls == []
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "831d5b3c275ec1e364fe9a592f990df6fbfe4defc9391c24690d913357349a0b")


def test_width_cap_message_names_no_keyword(rev, capsys):
    path = rev("c.rev", "wires: " + " ".join("abcdefghijklmnopq") + "\nNOT(a)")
    for argv in (["simulate", path], ["gen-ntri", "--width", "17", "--min-len", "4"],
                 ["equiv", path, path], ["reduce", path]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: width 17 is too wide; revident handles at most 16 wires\n"


def test_cost(rev, capsys):
    path = rev("c.rev", corpus_text("app1_1a"))
    assert main(["cost", path]) == 0
    assert capsys.readouterr().out.strip() == "gates=12 cost=32"


def test_cost_with_table_override(rev, capsys):
    path = rev("c.rev", "TOF(a, b, c)")
    table = rev("costs.txt", "2 7\n")
    assert main(["cost", path, "--cost-table", table]) == 0
    assert capsys.readouterr().out.strip() == "gates=1 cost=7"


def test_cost_bad_table(rev, capsys):
    path = rev("c.rev", "NOT(a)")
    table = rev("costs.txt", "nonsense\n")
    assert main(["cost", path, "--cost-table", table]) == 2
    assert "error:" in capsys.readouterr().err


def test_reduce_with_report(rev, capsys, tmp_path):
    golden = "wires: a b c\nCNOT(b, a) TOF(a, b, c) CNOT(c, b) CNOT(c, b) TOF(a, b, c)"
    path = rev("c.rev", golden)
    report = tmp_path / "report.json"
    assert main(["reduce", path, "--report", str(report)]) == 0
    assert capsys.readouterr().out.strip() == "wires: a b c\nCNOT(b, a)"
    data = json.loads(report.read_text())
    assert data["input_gates"] == 5 and data["output_gates"] == 1
    assert data["passes"] == 3


@pytest.mark.parametrize("target", ["missing/r.json", "."], ids=["no-such-dir", "a-directory"])
def test_reduce_report_unwritable(rev, capsys, tmp_path, target):
    path = rev("c.rev", "NOT(a) NOT(a)")
    assert main(["reduce", path, "--report", str(tmp_path / target)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write") and "Traceback" not in err


def test_reduce_trivial_only(rev, capsys):
    path = rev("c.rev", "NOT(a) NOT(a) CNOT(a, b)")
    assert main(["reduce", path, "--trivial-only"]) == 0
    assert capsys.readouterr().out.strip() == "CNOT(a, b)"


def test_reduce_fast_matches(rev, capsys):
    path = rev("c.rev", corpus_text("app2_8"))
    assert main(["reduce", path]) == 0
    slow = capsys.readouterr().out
    assert main(["reduce", path, "--fast"]) == 0
    assert capsys.readouterr().out == slow


def test_reduce_fast_report_is_byte_identical(rev, capsys, tmp_path):
    path = rev("c.rev", corpus_text("app2_8"))
    plain, fast = tmp_path / "plain.json", tmp_path / "fast.json"
    assert main(["reduce", path, "--report", str(plain)]) == 0
    assert main(["reduce", path, "--fast", "--report", str(fast)]) == 0
    assert plain.read_bytes() == fast.read_bytes()
    data = json.loads(plain.read_text())
    assert data["comparisons"] == data["input_gates"]


def test_reduce_without_report_builds_no_table(rev, capsys, tmp_path, monkeypatch):
    table = revident.semantics._table
    calls = []

    def counting(cols):
        calls.append(len(cols))
        return table(cols)

    monkeypatch.setattr("revident.reduce._table", counting)
    monkeypatch.setattr("revident.semantics._table", counting)
    path = rev("c.rev", corpus_text("app2_8"))
    assert main(["reduce", path]) == 0
    assert main(["reduce", path, "--fast"]) == 0
    assert main(["reduce", path, "--trivial-only"]) == 0
    assert calls == []
    # the report's lists are written from the final columns, not a table
    assert main(["reduce", path, "--report", str(tmp_path / "r.json")]) == 0
    assert main(["reduce", path, "--trivial-only", "--report", str(tmp_path / "t.json")]) == 0
    assert calls == []


def test_reduce_report_peak_memory_at_width_16(rev, capsys, tmp_path):
    # writing the lists from the columns peaks near 3 MB; a table, its two
    # list copies and one str per entry took about 6.8 MB
    c = revident.gen_random_circuit(revident.GeneratorConfig(width=16, gates=228, seed=1))
    path, out = rev("c.rev", format_circuit(c)), tmp_path / "r.json"
    argv = ["reduce", path, "--report", str(out)]
    assert main(argv) == 0  # the width's start state is built once, untraced
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.read_text() == json.dumps(eliminate_ntris(c)[1].to_dict(), indent=2) + "\n"
    assert peak < 5 << 20


# The --report JSON, specifications and comparisons included, as the
# eager eliminator wrote it: (text, sha256 of the JSON file).
GOLDEN_REPORTS = [
    ("NOT(a) NOT(a) NOT(a)", "488835bd54ff8659781bd9ed1333ce117f30fb81e857b26b36263cf0cb5149e6"),
    ("app2_8", "50e0423b50334205ca9fe513ea4bef26ab6752ebcd98fcbda57e8509a0be8c22"),
    ("gen-random 9 40 5", "0535da025412b5c4b5ff4d75b78cd9382b75d13e3f09c271662c19866d71d044"),
    ("gen-random 16 12 7", "062d257e8c51c69a1b5f6fff5cfeca15afaed050987247ba12b266a2ff5132f6"),
]


def _golden_text(spec: str) -> str:
    if spec.startswith("gen-random"):
        width, gates, seed = map(int, spec.split()[1:])
        c = revident.gen_random_circuit(
            revident.GeneratorConfig(width=width, gates=gates, seed=seed))
        # a mirrored span makes nested identities to remove
        mid = len(c.gates) // 2
        return format_circuit(revident.Circuit(width, c.gates + c.gates[mid:][::-1] + c.gates[mid:]))
    return corpus_text(spec) if spec.startswith("app") else spec


@pytest.mark.parametrize("spec, digest", GOLDEN_REPORTS, ids=[s for s, _ in GOLDEN_REPORTS])
def test_report_json_is_golden(rev, capsys, tmp_path, spec, digest):
    path = rev("c.rev", _golden_text(spec))
    report = tmp_path / "r.json"
    assert main(["reduce", path, "--report", str(report)]) == 0
    data = report.read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest
    assert json.loads(data)["comparisons"] == json.loads(data)["input_gates"]


# gen-ntri stdout, (width, seed, sha256), each --min-len 12 --max-attempts 3:
# synthesize_inverse skips rows already fixed, which must add no gate
GOLDEN_NTRIS = [
    (11, 1, "57ebe0b4260806e8d3c6f1aaac7806a29028aec68ba4497f72d7489f7e245f14"),
    (11, 2, "bef49b93c50f27c4d86d0adac683cdafd9e7fb94a4cc92e0ce444b997a463ee2"),
    (13, 1, "a76ab9836eb94fd9af6b1e513f8b628c440452a0fddd8c763984261c8b5ebb2a"),
    (13, 2, "629bc699a87560a8e9961565a38dda1d70e197f8d754d55a5dd070c037370982"),
    (16, 1, "9a9dabbba395cbc1471e3e582fc48885878fc8c4b37680c8c2c7979a9a606c30"),
    (16, 2, "cc1cb4b542f25036dacb11ac5025e072a1491268a94039a25bef2292a61ad7ea"),
]


@pytest.mark.parametrize("width, seed, digest", GOLDEN_NTRIS, ids=[f"w{w}-s{s}" for w, s, _ in GOLDEN_NTRIS])
def test_gen_ntri_output_is_golden(capsys, width, seed, digest):
    argv = ["gen-ntri", "--width", str(width), "--min-len", "12", "--max-attempts", "3", "--seed", str(seed)]
    assert main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "text, argv",
    [
        ("NOT(a) NOT(a) CNOT(a, b)", ["--trivial-only"]),
        ("wires: a b\nNOT(a) CNOT(a, b) NOT(a) CNOT(a, b)", []),
        ("wires: " + " ".join("abcdefghijklmnopq") + "\nNOT(a) NOT(a) NOT(q)", ["--trivial-only"]),
        ("wires: a b c d e f\nMCT(a, b, c, d; e) NOT(f) NOT(f)", []),
    ],
    ids=["trivial-only", "shared-spec", "specs-none", "cost-none"],
)
def test_report_json_matches_encoder(rev, capsys, tmp_path, text, argv):
    path = rev("c.rev", text)
    out = tmp_path / "r.json"
    assert main(["reduce", path, "--report", str(out), *argv]) == 0
    c = parse_circuit(text)
    _, report = remove_trivial_identities(c) if argv else eliminate_ntris(c)
    assert out.read_text() == json.dumps(report.to_dict(), indent=2) + "\n"


def test_gen_random_prints_parseable_circuit(capsys):
    assert main(["gen-random", "--width", "4", "--gates", "12", "--seed", "5"]) == 0
    out1 = capsys.readouterr().out
    c = parse_circuit(out1)
    assert c.width == 4 and len(c) == 12
    assert main(["gen-random", "--width", "4", "--gates", "12", "--seed", "5"]) == 0
    assert capsys.readouterr().out == out1


def test_gen_random_refuses_unwritable_width_before_drawing(capsys, monkeypatch):
    def drawn(cfg):
        raise AssertionError("gates drawn for a width the text format cannot write")

    monkeypatch.setattr("revident.cli.gen_random_circuit", drawn)
    assert main(["gen-random", "--width", "27", "--gates", "300000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: text format supports at most 26 wires\n"
    monkeypatch.undo()
    assert main(["gen-random", "--width", "26", "--gates", "3"]) == 0
    assert parse_circuit(capsys.readouterr().out).width == 26


def test_gen_ntri_prints_identity(capsys):
    from revident import is_identity

    assert main(["gen-ntri", "--width", "4", "--min-len", "8", "--seed", "2"]) == 0
    c = parse_circuit(capsys.readouterr().out)
    assert len(c) >= 8 and is_identity(c)


def test_gen_ntri_budget_failure(capsys):
    code = main(["gen-ntri", "--width", "2", "--min-len", "48", "--seed", "0",
                 "--max-attempts", "10"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_insert_uses_marker_by_default(rev, capsys):
    host = rev("host.rev", corpus_text("app1_2a"))
    seg = rev("seg.rev", corpus_text("app1_2b"))
    assert main(["insert", host, seg]) == 0
    combined = parse_circuit(capsys.readouterr().out)
    assert len(combined) == 15

    host_c = load_corpus_circuit("app1_2a")
    seg_c = load_corpus_circuit("app1_2b")
    expected = host_c.gates[:4] + seg_c.gates + host_c.gates[4:]
    assert combined.gates == expected


def test_insert_explicit_point(rev, capsys):
    host = rev("host.rev", "NOT(a) NOT(a)")
    seg = rev("seg.rev", "NOT(a)")
    assert main(["insert", host, seg, "--at", "2"]) == 0
    assert capsys.readouterr().out.strip() == "NOT(a) NOT(a) NOT(a)"


def test_insert_without_marker_errors(rev, capsys):
    host = rev("host.rev", "NOT(a)")
    seg = rev("seg.rev", "NOT(a)")
    assert main(["insert", host, seg]) == 2
    assert "no # marker" in capsys.readouterr().err


def test_insert_out_of_range(rev, capsys):
    host = rev("host.rev", "NOT(a)")
    seg = rev("seg.rev", "NOT(a)")
    assert main(["insert", host, seg, "--at", "5"]) == 2


def test_concat(rev, capsys):
    a = rev("a.rev", "NOT(a)")
    b = rev("b.rev", "NOT(a)")
    assert main(["concat", a, b]) == 0
    assert capsys.readouterr().out.strip() == "NOT(a) NOT(a)"


def test_concat_width_mismatch(rev, capsys):
    a = rev("a.rev", "NOT(a)")
    b = rev("b.rev", "CNOT(a, b)")
    assert main(["concat", a, b]) == 2


def test_equiv(rev, capsys):
    a = rev("a.rev", "wires: a b\nCNOT(a, b) CNOT(a, b)")
    b = rev("b.rev", "wires: a b")
    assert main(["equiv", a, b]) == 0
    assert capsys.readouterr().out.strip() == "equivalent"
    c = rev("c.rev", "wires: a b\nNOT(a)")
    assert main(["equiv", a, c]) == 1
    assert capsys.readouterr().out.strip() == "not equivalent"


def test_parse_error_exit_code(rev, capsys):
    bad = rev("bad.rev", "FOO(a)")
    assert main(["simulate", bad]) == 2
    assert "error:" in capsys.readouterr().err


def test_missing_file(capsys):
    assert main(["simulate", "/nonexistent/file.rev"]) == 2


def test_invalid_utf8_names_the_file(tmp_path, capsys):
    path = tmp_path / "latin1.rev"
    path.write_bytes("NOT(a) // café\n".encode("latin-1"))
    assert main(["simulate", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {path}: 'utf-8' codec can't decode")
    assert "Traceback" not in err


def _outcome(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:  # argparse rejects the arguments
            code = e.code
    return code, out.getvalue(), err.getvalue()


# Circuit text for the fuzz below: an optional header (width 17 is over
# the cap), gate tokens, and up to two fragments that may break the text.
_FUZZ_TEXT = st.builds(
    lambda header, tokens: header + " ".join(tokens),
    st.sampled_from(["", "", "wires: a b c d e\n", "wires: " + " ".join("abcdefghijklmnopq") + "\n"]),
    st.tuples(
        st.lists(st.sampled_from(["NOT(a)", "CNOT(a, b)", "TOF(c, b, a)", "MCT(a, b, c, d; e)"]),
                 max_size=10),
        st.lists(st.sampled_from(["TOF(a, a, b)", "FOO(a)", "NOT(", ";", "#", "[", "]", "$", "//",
                                  "wires: a"]), max_size=2),
    ).flatmap(lambda t: st.permutations(t[0] + t[1])),
)


@given(_FUZZ_TEXT, _FUZZ_TEXT, st.sampled_from([
    ["simulate", "A"], ["cost", "A"], ["cost", "A", "--cost-table", "B"], ["reduce", "A"],
    ["reduce", "A", "--trivial-only"], ["reduce", "A", "--report", "R"], ["equiv", "A", "B"],
]))
@settings(max_examples=200, deadline=None)
def test_cli_fuzz_exits_cleanly(a, b, argv):
    # every input ends in exit 0, 1 or 2, with no exception out of main
    code, err = _fuzz_outcome(a, b, argv)
    assert code in (0, 1, 2)
    assert (code == 2) == err.startswith("error: ")


def _fuzz_outcome(a, b, argv):
    """Run ``argv`` with the files A and B holding ``a`` and ``b``; an
    argument R names a file that does not exist yet."""
    with tempfile.TemporaryDirectory() as tmp:
        files = {"A": a, "B": b, "R": None}
        for name, text in files.items():
            if text is not None:
                Path(tmp, name).write_text(text, encoding="utf-8")
        code, _, err = _outcome([str(Path(tmp, x)) if x in files else x for x in argv])
    return code, err


def _int_arg(valid, invalid=()):
    """An int in the range ``valid``, or about one time in eight one of
    ``invalid``."""
    choice = st.integers(*valid)
    if invalid:
        choice = st.integers(0, 7).flatmap(
            lambda k: st.sampled_from(invalid) if k == 7 else st.integers(*valid))
    return choice.map(str)


def _optional(flag, value):
    return st.one_of(value.map(lambda v: [flag, v]), st.just([]))


# One strategy per command, drawn with equal weight.  A file pair "A A"
# gives circuits of equal width, so that the splice itself is reached.
_FUZZ_ARGV = st.sampled_from([
    # --at: negative, in range and past the end; without it the host's # marker
    st.builds(lambda files, at: ["insert", *files, *at],
              st.sampled_from([["A", "B"], ["A", "A"]]), _optional("--at", _int_arg((-3, 30)))),
    st.sampled_from([["concat", "A", "B"], ["concat", "A", "A"]]),
    st.builds(lambda suite, json_flag: ["bench", suite, *json_flag],
              st.sampled_from(["table1", "table2", "all", "table3", "ALL", ""]),
              st.sampled_from([[], ["--json"]])),
    st.builds(lambda w, g, s, m: ["gen-random", "--width", w, "--gates", g, "--seed", s, *m],
              _int_arg((2, 17), (-2, 0, 1)), _int_arg((0, 40), (-3, -1)), _int_arg((-1, 3)),
              _optional("--max-controls", _int_arg((0, 5), (-1,)))),
    st.builds(lambda w, n, a, m: ["gen-ntri", "--width", w, "--min-len", n, "--max-attempts", a, *m],
              _int_arg((2, 16), (-2, 0, 1, 17)), _int_arg((0, 12), (-3, -1)),
              _int_arg((1, 3), (-1, 0)), _optional("--max-controls", _int_arg((0, 5), (-1,)))),
    # values that argparse rejects
    st.sampled_from([["insert", "A", "B", "--at", "x"], ["gen-random", "--width", "1.5", "--gates", "3"],
                     ["gen-ntri", "--width", "4", "--min-len", ""], ["gen-random", "--width", "4"]]),
]).flatmap(lambda strategy: strategy)


@given(_FUZZ_TEXT, _FUZZ_TEXT, _FUZZ_ARGV)
@example("", "", ["gen-ntri", "--width", "16", "--min-len", "1", "--max-attempts", "1"])
@example("NOT(a) # NOT(b)", "NOT(a) NOT(a)", ["insert", "A", "B", "--at", "-1"])
@settings(max_examples=200, deadline=None)
def test_cli_fuzz_other_commands_exit_cleanly(a, b, argv):
    # as above; an argparse rejection prints usage first, then "... error: ..."
    code, err = _fuzz_outcome(a, b, argv)
    assert code in (0, 1, 2)
    assert (code == 2) == ("error: " in err)


def test_parser_is_built_once(rev, monkeypatch):
    c = rev("c.rev", corpus_text("app2_8"))
    d = rev("d.rev", "wires: a b c d\nNOT(a)")
    argvs = [
        ["simulate", c],
        ["reduce", c, "--fast"],
        ["equiv", c, d],
        ["gen-random", "--width", "3", "--gates", "4", "--seed", "1"],
        ["reduce", "--no-such-flag", c],
        ["cost", c],
        ["frobnicate"],
        ["reduce", c, "--trivial-only"],
    ]
    with monkeypatch.context() as m:
        m.setattr(cli, "_parser", cli.build_parser)  # a fresh parser per call
        fresh = [_outcome(argv) for argv in argvs]
    build_parser = cli.build_parser
    builds = []

    def counting():
        builds.append(1)
        return build_parser()

    cli._parser.cache_clear()
    monkeypatch.setattr(cli, "build_parser", counting)
    try:
        outcomes = [_outcome(argv) for argv in argvs]
    finally:
        cli._parser.cache_clear()
    assert outcomes == fresh
    assert [code for code, _, _ in fresh] == [0, 0, 1, 0, 2, 0, 2, 0]
    assert len(builds) == 1


def test_bench_human(capsys):
    assert main(["bench", "all"]) == 0
    out = capsys.readouterr().out
    assert "suite 1" in out and "suite 2" in out
    assert "result: pass" in out


def test_bench_json(capsys):
    assert main(["bench", "table1", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["passed"] is True
    assert {r["status"] for r in data["rows"]} == {"pass"}


def test_bench_all_json(capsys):
    assert main(["bench", "all", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert [s["suite"] for s in data["suites"]] == ["table1", "table2"]


def _src_env() -> dict:
    """The environment with this tree's package first on PYTHONPATH."""
    src = str(Path(revident.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


# sha256 of stdout, as printed when every bench call parsed the corpus.
GOLDEN_BENCH = [
    (["bench", "all"], "0ff0bc0867de0632876b87c8cecb4da1e4ec1db644b3259cc8f05b9f1a438cde"),
    (["bench", "all", "--json"], "9901011c1cbb704ac890582a2c16f6aaab16729f4d8a34681a8bbe1dfb1e3cd4"),
    (["bench", "table1", "--json"], "814367279594741a2b3946f6c7061075f120c87bfe7ec55d07f6a22d35f6b00f"),
    (["bench", "table2"], "451dbc49309293dd2a3168218417b8358aac550dff0bd50080f409033571be5b"),
]

_TWICE = """
import contextlib, hashlib, io, sys
from revident.cli import main
for _ in range(2):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(sys.argv[1:])
    print(code, hashlib.sha256(out.getvalue().encode()).hexdigest())
"""


@pytest.mark.parametrize("argv, digest", GOLDEN_BENCH, ids=[" ".join(a) for a, _ in GOLDEN_BENCH])
def test_bench_output_is_golden(argv, digest):
    # a fresh process: its first call reads and parses the corpus, the
    # second reuses the parsed circuits
    out = subprocess.run([sys.executable, "-c", _TWICE, *argv], env=_src_env(),
                         capture_output=True, text=True, timeout=60, check=True).stdout
    assert out.splitlines() == [f"0 {digest}"] * 2


def test_cli_import_loads_no_bench_json_or_resources():
    # a one-shot command pays for what importing the CLI loads; without
    # site, nothing else in the process has loaded these modules either
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import revident.cli; "
            "print([m for m in ('revident.bench', 'json', 'importlib.resources', 'typing', 'pathlib') if m in sys.modules])")
    src = str(Path(revident.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-S", "-c", code, src],
                         capture_output=True, text=True, timeout=60, check=True).stdout
    assert out == "[]\n"


def test_circuit_output_reparses(rev, capsys):
    path = rev("c.rev", corpus_text("app1_1a"))
    assert main(["reduce", path]) == 0
    out = capsys.readouterr().out
    reduced = parse_circuit(out)
    assert reduced == load_corpus_circuit("app1_1a")
    assert format_circuit(reduced) == out.strip()


def test_broken_pipe_exits_1_without_traceback(tmp_path):
    err_path = tmp_path / "err.txt"
    with open(err_path, "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "revident.cli", "gen-random",
             "--width", "4", "--gates", "30000"],
            stdout=subprocess.PIPE, stderr=err, env=_src_env(),
        )
        proc.stdout.read(10)
        proc.stdout.close()
        code = proc.wait(timeout=60)
    assert code == 1
    assert "Traceback" not in err_path.read_text()


def test_broken_pipe_without_stdout_descriptor(monkeypatch, capsys):
    # under capsys, sys.stdout is an in-memory stream with no fileno()
    def closed_pipe(*_args):
        raise BrokenPipeError

    monkeypatch.setattr("revident.cli.format_circuit", closed_pipe)
    assert main(["gen-random", "--width", "4", "--gates", "3"]) == 1


@pytest.mark.parametrize("where", ["parse_circuit", "eliminate_ntris", "format_circuit"])
def test_out_of_memory_exits_2_with_one_line(rev, capsys, monkeypatch, where):
    # a stand-in for an input too long for the process's memory limit:
    # the layer raises MemoryError without allocating anything
    def exhausted(*_args, **_kwargs):
        raise MemoryError

    path = rev("c.rev", "NOT(a) CNOT(a, b)")
    monkeypatch.setattr(f"revident.cli.{where}", exhausted)
    assert main(["reduce", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: out of memory; the input is too large for the memory available\n"
