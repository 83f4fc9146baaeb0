"""Command line interface.

Exit codes: 0 on success, 1 when a check fails (equiv mismatch, bench
row failure) or stdout is closed before the output is written (a broken
pipe, as in ``revident gen-random ... | head``), 2 on bad input (parse
errors, missing files, bad arguments, a circuit above the width cap) and
on running out of memory, as an input too long for the process's memory
limit can make it do.  Exit 2 prints one line, ``error: `` and the
library's message (``out of memory ...`` for memory), and no traceback.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .circuit import ParseError, _wire_names, concat, format_circuit, insert_segment, parse_circuit
from .cost import CostTableError, DEFAULT_COST_TABLE, circuit_cost, gate_count, load_cost_table
from .generate import GeneratorConfig, GeneratorError, gen_random_circuit, gen_random_ntri
from .reduce import _json, eliminate_ntris, remove_trivial_identities
from .semantics import _columns, _spec_text, equivalent


def _read_circuit(path: str):
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except (OSError, UnicodeDecodeError) as e:
        raise ValueError(f"cannot read {path}: {e}") from e
    try:
        return parse_circuit(text)
    except ParseError as e:
        raise ValueError(f"{path}: {e}") from e


def _cost_table(path: "str | None"):
    if path is None:
        return DEFAULT_COST_TABLE
    try:
        return load_cost_table(path)
    except (OSError, ValueError) as e:
        raise ValueError(f"cost table {path}: {e}") from e


def _cmd_simulate(args) -> int:
    c = _read_circuit(args.file)
    print("[", _spec_text(_columns(c)), "]", sep="")
    return 0


def _cmd_cost(args) -> int:
    c = _read_circuit(args.file)
    table = _cost_table(args.cost_table)
    print(f"gates={gate_count(c)} cost={circuit_cost(c, table)}")
    return 0


def _cmd_reduce(args) -> int:
    c = _read_circuit(args.file)
    table = _cost_table(args.cost_table)
    if args.trivial_only:
        reduced, report = remove_trivial_identities(c, table)
    else:
        reduced, report = eliminate_ntris(c, table)
    if args.report:
        try:
            with open(args.report, "w", encoding="utf-8") as f:
                _json(report, f)
                f.write("\n")
        except OSError as e:
            raise ValueError(f"cannot write {args.report}: {e}") from e
    print(format_circuit(reduced))
    return 0


def _cmd_gen_random(args) -> int:
    cfg = GeneratorConfig(
        width=args.width, gates=args.gates, seed=args.seed, max_controls=args.max_controls
    )
    _wire_names(cfg.width)  # refuse a width the text cannot name before drawing any gate
    print(format_circuit(gen_random_circuit(cfg)))
    return 0


def _cmd_gen_ntri(args) -> int:
    cfg = GeneratorConfig(
        width=args.width,
        min_length=args.min_len,
        seed=args.seed,
        max_controls=args.max_controls,
        max_attempts=args.max_attempts,
    )
    print(format_circuit(gen_random_ntri(cfg)))
    return 0


def _cmd_insert(args) -> int:
    host = _read_circuit(args.host)
    segment = _read_circuit(args.segment)
    point = args.at
    if point is None:
        point = host.insertion_point
        if point is None:
            raise ValueError(f"{args.host} has no # marker; pass --at")
    try:
        print(format_circuit(insert_segment(host, segment, point)))
    except IndexError as e:
        raise ValueError(str(e)) from e
    return 0


def _cmd_concat(args) -> int:
    print(format_circuit(concat(_read_circuit(args.front), _read_circuit(args.rear))))
    return 0


def _cmd_equiv(args) -> int:
    a = _read_circuit(args.a)
    b = _read_circuit(args.b)
    if equivalent(a, b):
        print("equivalent")
        return 0
    print("not equivalent")
    return 1


def _cmd_bench(args) -> int:
    from . import bench as bench_mod  # on use: the other commands do not load it

    reports = []
    if args.suite in ("table1", "all"):
        reports.append(bench_mod.run_table1())
    if args.suite in ("table2", "all"):
        reports.append(bench_mod.run_table2())
    if args.json:
        payload = reports[0].to_dict() if len(reports) == 1 else {
            "suites": [r.to_dict() for r in reports]
        }
        _json(payload, sys.stdout)  # the one JSON writer, also behind reduce --report
        print()
    else:
        print("\n\n".join(bench_mod.render_report(r) for r in reports))
    return 0 if all(r.passed for r in reports) else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="revident",
        description="Reversible MCT circuits: simulate, cost, and identity elimination.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("simulate", help="print the circuit's specification")
    s.add_argument("file")
    s.set_defaults(func=_cmd_simulate)

    s = sub.add_parser("cost", help="print gate count and quantum cost")
    s.add_argument("file")
    s.add_argument("--cost-table", help="override file with lines: controls cost")
    s.set_defaults(func=_cmd_cost)

    s = sub.add_parser("reduce", help="remove identity segments, print the result")
    s.add_argument("file")
    s.add_argument("--trivial-only", action="store_true", help="only cancel adjacent equal pairs")
    s.add_argument("--fast", action="store_true", help="kept for compatibility; same output as without it")
    s.add_argument("--report", metavar="JSON", help="write a reduction report to this file")
    s.add_argument("--cost-table")
    s.set_defaults(func=_cmd_reduce)

    s = sub.add_parser("gen-random", help="print a seeded random circuit")
    s.add_argument("--width", type=int, required=True)
    s.add_argument("--gates", type=int, required=True)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--max-controls", type=int, default=None)
    s.set_defaults(func=_cmd_gen_random)

    s = sub.add_parser("gen-ntri", help="print a seeded random identity circuit")
    s.add_argument("--width", type=int, required=True)
    s.add_argument("--min-len", type=int, required=True)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--max-controls", type=int, default=None)
    s.add_argument("--max-attempts", type=int, default=1000)
    s.set_defaults(func=_cmd_gen_ntri)

    s = sub.add_parser("insert", help="splice a segment into a host circuit")
    s.add_argument("host")
    s.add_argument("segment")
    s.add_argument("--at", type=int, default=None, help="gate gap; default: host's # marker")
    s.set_defaults(func=_cmd_insert)

    s = sub.add_parser("concat", help="join two circuits of equal width")
    s.add_argument("front")
    s.add_argument("rear")
    s.set_defaults(func=_cmd_concat)

    s = sub.add_parser("equiv", help="exit 0 iff both circuits compute the same specification")
    s.add_argument("a")
    s.add_argument("b")
    s.set_defaults(func=_cmd_equiv)

    s = sub.add_parser("bench", help="run the bundled benchmark suites")
    s.add_argument("suite", choices=["table1", "table2", "all"])
    s.add_argument("--json", action="store_true")
    s.set_defaults(func=_cmd_bench)

    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built on its first call."""
    return build_parser()


def _discard_stdout() -> None:
    """Point stdout's file descriptor at os.devnull, so that the flush at
    interpreter exit does not hit the broken pipe again.  A stdout with no
    file descriptor (an in-memory capture) has no pipe to break."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv: "list[str] | None" = None) -> int:
    args = _parser().parse_args(argv)
    try:
        code = args.func(args)
        # A pipe closed before a short output is flushed must fail here,
        # inside the handler, not at interpreter exit.
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        _discard_stdout()
        return 1
    except (CostTableError, GeneratorError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory; the input is too large for the memory available",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
