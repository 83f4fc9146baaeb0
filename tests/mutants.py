"""Mutation smoke for the oracle tests: every listed mutant must be caught.

Run from anywhere with ``python tests/mutants.py``; it needs only the
standard library and the test dependencies, and pytest does not collect
it.  The script copies ``src``, ``tests`` and ``pyproject.toml`` to a
temporary directory.  For each mutant it rebuilds the copy's ``src``
and ``tests``, applies the mutant's ``(file, old, new)`` text patches,
``file`` relative to the repository root and each ``old`` occurring
exactly once in it so that a refactor which moves the line fails
loudly, and runs the mutant's test node ids there with
``PYTHONPATH=<copy>/src``.  A mutant is caught when at least one of
those tests fails.  Before any mutant, the unpatched copy must pass
every named test.

Every pytest run, the unpatched one included, is bounded: it is killed
after ``_TIMEOUT_S`` seconds, and its address space is capped at
``_MEMORY_CAP`` bytes (``RLIMIT_AS``, set in that child only), so an
allocation past the cap raises ``MemoryError``.  A mutant whose run hits
either bound counts as caught, printed as ``caught (timeout)`` or
``caught (memory)``; the unpatched run must stay inside both.

Exit status: 0 when every mutant is caught, 1 when one survives, 2 when
a patch no longer applies or a test run errors instead of failing.
When a fast path is added, its mutant is added to ``MUTANTS``.
"""

from __future__ import annotations

import os
import re
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_JSON_ENCODER = "tests/test_reduce.py::TestJsonWriter::test_matches_encoder"
_INDEX = "tests/test_reduce.py::TestFingerprintIndex::"
_PARSE = "tests/test_circuit.py::TestParse::"
_BOUNDARIES = "tests/test_semantics.py::test_boundaries_match_column_at_a_time_reference"
_BRACKET_EDGES = "tests/test_bench.py::TestTable2::test_bracket_removed_at_its_edges"
_GATE_TOKENS = "tests/test_circuit.py::TestFormat::test_gate_tokens_match_reference"

# (what the mutant breaks, [(file under src/revident or tests, old, new), ...], [test node ids])
MUTANTS = [
    ("_json: the closing pad dropped",
     [("src/revident/reduce.py", 'parts.extend((pad, "}" if t is dict else "]"))',
       'parts.append("}" if t is dict else "]")')],
     [_JSON_ENCODER]),
    ("_json: true and false swapped",
     [("src/revident/reduce.py", '"true" if v else "false"', '"false" if v else "true"')],
     [_JSON_ENCODER]),
    ("_json: the once-per-object specification cache bypassed",
     [("src/revident/reduce.py", "if (id(v), pad) not in specs:", "if True:")],
     ["tests/test_reduce.py::TestReport::test_shared_specification_is_written_once"]),
    ("_json: a Removal refused as not serializable",
     [("src/revident/reduce.py", "elif t is Removal:", "elif False:")],
     ["tests/test_reduce.py::TestReport::test_report_json_matches_encoder"]),
    ("_json: a report's fields read through getattr, which tabulates the columns",
     [("src/revident/reduce.py", "write({f.name: vars(v)[f.name] for f in fields(v)}, pad)",
       "write({f.name: getattr(v, f.name) for f in fields(v)}, pad)")],
     ["tests/test_reduce.py::TestReport::test_shared_specification_is_written_once"]),
    ("_json: a Removal's fields read through vars(), which leaves a dict on each one",
     [("src/revident/reduce.py", "write({f.name: getattr(v, f.name) for f in fields(v)}, pad)",
       "write({f.name: vars(v)[f.name] for f in fields(v)}, pad)")],
     ["tests/test_reduce.py::TestJsonWriter::test_written_removals_keep_no_field_dict"]),
    ("_json: a report's fields written in the order they were stored",
     [("src/revident/reduce.py", "write({f.name: vars(v)[f.name] for f in fields(v)}, pad)",
       "write(dict(vars(v)), pad)")],
     ["tests/test_reduce.py::TestReport::test_json_writes_fields_in_declaration_order"]),
    ("_json: the parts handed to the stream and kept, so each flush writes them again",
     [("src/revident/reduce.py", "                    parts.clear()\n", "")],
     ["tests/test_reduce.py::TestJsonWriter::test_text_past_one_flush_matches_encoder"]),
    ("_json: each item after the first opened with the bracket, not a comma",
     [("src/revident/reduce.py", '                sep = ","\n', "")],
     [_JSON_ENCODER]),
    ("_transpose: the 28-bit delta-swap dropped",
     [("src/revident/semantics.py", "zip((7, 14, 28), masks)", "zip((7, 14), masks)")],
     ["tests/test_semantics.py::test_simulate_matches_bruteforce_across_byte_planes"]),
    ("_plane: no padded lane at widths 1 and 2, whose columns are shorter than one byte",
     [("src/revident/semantics.py", "step = -(-size // 8)", "step = size // 8")],
     [_BOUNDARIES + "[1]", _BOUNDARIES + "[2]"]),
    ("_masks: no padded lane at widths 1 and 2, so the masks are empty there",
     [("src/revident/semantics.py", "-(-(1 << width) // 8)", "(1 << width) // 8")],
     [_BOUNDARIES + "[1]", _BOUNDARIES + "[2]"]),
    ("_spec_text: the units digit read through the non-units table, so entry 0 prints nothing",
     [("src/revident/semantics.py", "_LOW_DIGITS if j else _UNITS_DIGITS", "_LOW_DIGITS")],
     ["tests/test_semantics.py::test_spec_text_matches_formatted_table"]),
    ("_spec_text: the trailing separator kept",
     [("src/revident/semantics.py", "del text[len(text) - len(sep):]", "pass")],
     ["tests/test_semantics.py::test_spec_text_matches_formatted_table"]),
    ("_cuts: the confirmation skipped",
     [("src/revident/semantics.py",
       "if tuple(cols) == identity if j == 0 else _spans_identity(list(identity), span):",
       "if True:")],
     [_INDEX + "test_constant_fingerprint_matches_restarting_scan"]),
    ("_cuts: index starts empty, so a whole-circuit hit is ignored",
     [("src/revident/semantics.py", "index = {fp: 0}", "index = {}")],
     [_INDEX + "test_first_repeat_matches_bruteforce"]),
    ("_cuts: the walk stops at the fingerprint's own key, so a prefix pushed past a taken key is missed",
     [("src/revident/semantics.py",
       "if tuple(cols) == identity if j == 0 else _spans_identity(list(identity), span):",
       "if key == fp and (tuple(cols) == identity if j == 0 else _spans_identity(list(identity), span)):")],
     [_INDEX + "test_constant_fingerprint_matches_restarting_scan",
      _INDEX + "test_first_repeat_matches_bruteforce"]),
    ("_cuts: two hashes per gate",
     [("src/revident/semantics.py", "h = _column_hash(col)\n",
       "h = _column_hash(col) + 0 * _column_hash(col)\n")],
     [_INDEX + "test_work_is_linear_in_gates"]),
    ("_cuts: the index rollback skipped, so cut prefixes stay candidates",
     [("src/revident/semantics.py", "for _ in range(len(index) - 1 - j):", "for _ in range(0):")],
     [_INDEX + "test_cut_prefixes_leave_the_index"]),
    ("_Start: the identity's column hashes kept in reverse wire order",
     [("src/revident/semantics.py", "self.hashes = tuple(map(_column_hash, cols))",
       "self.hashes = tuple(map(_column_hash, reversed(cols)))")],
     [_INDEX + "test_first_repeat_matches_bruteforce[real]"]),
    ("_identity_columns: a circuit at the width cap refused",
     [("src/revident/semantics.py", "if width > DEFAULT_WIDTH_CAP:",
       "if width >= DEFAULT_WIDTH_CAP:")],
     ["tests/test_semantics.py::test_width_cap_is_one_constant_with_no_override[simulate]"]),
    ("_spans_identity: the last column never compared",
     [("src/revident/semantics.py", "return tuple(_run(cols, gates)) == _start(len(cols)).identity",
       "return tuple(_run(cols, gates))[:-1] == _start(len(cols)).identity[:-1]")],
     ["tests/test_semantics.py::test_no_single_gate_is_the_identity"]),
    ("_synthesize: the clearing gates controlled on the image's other bits, not on x's",
     [("src/revident/semantics.py", "gates += [Gate(x_controls, b) for b in _bits(y & ~x)]",
       "gates += [Gate(frozenset(_bits(y & ~(1 << b))), b) for b in _bits(y & ~x)]")],
     ["tests/test_generate.py::TestSynthesisMatchesListVersion"]),
    ("_random_gates: a gate equal to its left neighbour kept",
     [("src/revident/generate.py", "if not (gates and g == gates[-1]):", "if True:")],
     ["tests/test_generate.py::TestRandomCircuit::test_adjacent_duplicates_forbidden_by_default"]),
    ("_random_gates: the gate memo keyed by the wires after the first, so draws share wrong gates",
     [("src/revident/generate.py", "g = made.get(wires)", "g = made.get(wires[1:])"),
      ("src/revident/generate.py", "g = made[wires] =", "g = made[wires[1:]] =")],
     ["tests/test_cli.py::test_gen_ntri_output_is_golden"]),
    ("gen_random_ntri: a one-gate random half, whose inverse is that same gate",
     [("src/revident/generate.py", "base = max(2, cfg.min_length // 2)",
       "base = max(1, cfg.min_length // 2)")],
     ["tests/test_generate.py::TestRandomNtri::test_short_minimum_gives_no_trivial_identity",
      "tests/test_generate.py::TestRandomNtri::test_minimum_of_three_is_reached_at_width_3"]),
    ("_TOKEN_RE: a run of gates matched whole, so the scan holds about 575 bytes per gate",
     [("src/revident/circuit.py", "[\\s;]*){1,1024})", "[\\s;]*)+)")],
     [_PARSE + "test_long_run_parses_in_bounded_memory"]),
    ("parse_circuit: the commas that \";\" separators leave kept in front of a piece",
     [("src/revident/circuit.py", 'repeat(","))]', 'repeat(""))]')],
     [_PARSE + "test_equal_gates_are_one_object_whatever_separates_them"]),
    ("parse_circuit: the piece after the run's last gate kept",
     [("src/revident/circuit.py", "del pieces[-1]", "pass")],
     [_PARSE + "test_matches_reference_parser"]),
    ("_SQUASH: the \";\" left as it is",
     [("src/revident/circuit.py", 'str.maketrans(";", ",", ', 'str.maketrans("", "", ')],
     [_PARSE + "test_matches_reference_parser"]),
    ("_SQUASH: U+3000 left in the gate text",
     [("src/revident/circuit.py", r'"\u202f\u205f\u3000")', r'"\u202f\u205f")')],
     [_PARSE + "test_squash_deletes_exactly_the_regex_whitespace"]),
    ("_build: the pieces transposed by zip over a map, so tuples pile up in the free list",
     [("src/revident/circuit.py",
       'parts = "(".join(pieces).split("(")\n'
       '    names, joined = parts[::2], ")".join(parts[1::2])',
       'names, _, bodies = zip(*map(str.partition, pieces, repeat("(")))\n'
       '    joined = ")".join(bodies)')],
     [_PARSE + "test_small_parses_hold_no_memory"]),
    ("surviving_indices: the replay off by one",
     [("src/revident/bench.py", "del idx[r.start_gap : r.end_index]",
       "del idx[r.start_gap + 1 : r.end_index + 1]")],
     ["tests/test_bench.py::test_surviving_indices_replay"]),
    ("surviving_indices: the list grown one entry short of each removal's end",
     [("src/revident/bench.py", "max(0, r.end_index - len(idx))",
       "max(0, r.end_index - len(idx) - 1)")],
     ["tests/test_bench.py::test_surviving_indices_matches_plain_replay"]),
    ("run_table1: a row passes on the host's gate count alone, recovered or not",
     [("src/revident/bench.py", "ok = recovered and ", "ok = ")],
     ["tests/test_bench.py::TestTable1::test_recovery_needs_the_host_gates_not_only_their_count"]),
    ("run_table2: a row passes whether the reduction kept the specification or not",
     [("src/revident/bench.py", "            and spec_preserved\n", "")],
     ["tests/test_bench.py::TestTable2::test_spec_preserved_checks_the_reduced_circuit"]),
    ("run_table2: the bracket test starts one gate late, so a surviving gate lo is missed",
     [("src/revident/bench.py", "bisect_left(survivors, lo)", "bisect_left(survivors, lo + 1)")],
     [_BRACKET_EDGES]),
    ("run_table2: the bracket test ends one gate early, so a surviving gate hi - 1 is missed",
     [("src/revident/bench.py", "bisect_left(survivors, hi)", "bisect_left(survivors, hi - 1)")],
     [_BRACKET_EDGES]),
    ("run_table2: the bracket test ends one gate late, so a surviving gate hi counts against it",
     [("src/revident/bench.py", "bisect_left(survivors, hi)", "bisect_left(survivors, hi + 1)")],
     [_BRACKET_EDGES]),
    ("run_table1: the bugged figures read from the reduced side of the report",
     [("src/revident/bench.py", "computed_bugged = report.input_gates, report.input_cost",
       "computed_bugged = report.output_gates, report.output_cost")],
     ["tests/test_cli.py::test_bench_output_is_golden"]),
    ("_report: the report assembled without its comparisons",
     [("src/revident/reduce.py", "        comparisons=comparisons,\n", "")],
     ["tests/test_dataclasses.py::test_assembled_values_equal_constructed_ones"]),
    ("_report: the input cost derived without the None check on the removals' costs",
     [("src/revident/reduce.py", "None if output_cost is None or None in costs else",
       "None if output_cost is None else")],
     ["tests/test_reduce.py::TestReport::test_costs_none_when_table_lacks_entries"]),
    ("_TEMPLATES: an MCT token writing \", \" before its target instead of \"; \"",
     [("src/revident/circuit.py", "%s; %s)", "%s, %s)")],
     [_GATE_TOKENS]),
    ("_LETTERS: every wire written as the letter of the wire before it",
     [("src/revident/circuit.py", "bytes.maketrans(bytes(range(26)),",
       "bytes.maketrans(bytes(range(1, 27)),")],
     [_GATE_TOKENS]),
    ("helpers.peres_cost: a gate also paired with the gate after next, which is not adjacent",
     [("tests/helpers.py", "if i + 1 < len(gates) and _is_peres_pair(gates[i], gates[i + 1]):",
       "if any(_is_peres_pair(gates[i], h) for h in gates[i + 1:i + 3]):")],
     ["tests/test_bench.py::TestPeresRule"]),
]


def _patch(tree: Path, file: str, old: str, new: str) -> None:
    path = tree / file
    text = path.read_text(encoding="utf-8")
    if text.count(old) != 1:
        print(f"error: {file}: {old!r} occurs {text.count(old)} times, not once", file=sys.stderr)
        raise SystemExit(2)
    path.write_text(text.replace(old, new), encoding="utf-8")


_TIMEOUT_S = 300
_MEMORY_CAP = 2 << 30  # 2 GiB
_MEMORY_ERROR = re.compile(rb"^E\s+MemoryError", re.M)  # pytest's line for the exception
_VERDICTS = {0: "SURVIVED", 1: "caught", "timeout": "caught (timeout)", "memory": "caught (memory)"}


def _cap_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (_MEMORY_CAP, _MEMORY_CAP))


def _pytest(tree: Path, tests: list[str]) -> "int | str":
    """pytest's exit status for ``tests`` in ``tree``, or "timeout" or
    "memory" when the run hit one of its bounds.  The child leads a
    session of its own, so a timeout kills every process it started."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    with subprocess.Popen(cmd, cwd=tree, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          preexec_fn=_cap_memory, start_new_session=True) as child:
        try:
            out = child.communicate(timeout=_TIMEOUT_S)[0]
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
            return "timeout"
    return "memory" if child.returncode and _MEMORY_ERROR.search(out) else child.returncode


def main() -> int:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", "*.pyc")
    with tempfile.TemporaryDirectory(prefix="revident-mutants-") as tmp:
        tree = Path(tmp)
        shutil.copytree(ROOT / "tests", tree / "tests", ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", tree)
        src = tree / "src"
        shutil.copytree(ROOT / "src", src, ignore=ignore)
        env = dict(os.environ, PYTHONPATH=str(src))
        where = subprocess.run([sys.executable, "-c", "import revident; print(revident.__file__)"],
                               cwd=tree, env=env, capture_output=True, text=True).stdout.strip()
        if not Path(where).is_relative_to(src):
            print(f"error: the copy's tests would import revident from {where!r}", file=sys.stderr)
            return 2
        every_test = list(dict.fromkeys(t for *_, tests in MUTANTS for t in tests))
        if (rc := _pytest(tree, every_test)) != 0:
            print(f"error: the named tests fail unpatched (pytest: {rc})", file=sys.stderr)
            return 2
        status = 0
        for name, patches, tests in MUTANTS:
            for part in ("src", "tests"):
                shutil.rmtree(tree / part)
                shutil.copytree(ROOT / part, tree / part, ignore=ignore)
            for file, old, new in patches:
                _patch(tree, file, old, new)
            start = time.perf_counter()
            rc = _pytest(tree, tests)
            verdict = _VERDICTS.get(rc, f"ERROR (pytest exit {rc})")
            print(f"{verdict:<16} {time.perf_counter() - start:5.1f} s  {name}")
            if not verdict.startswith("caught"):
                status = max(status, 1 if rc == 0 else 2)
    return status


if __name__ == "__main__":
    sys.exit(main())
