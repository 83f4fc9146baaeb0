"""One workload process: set up, then run the closed loop.

    python3 perfbench/worker.py PLAN RESULT

Run from the repository root.  The worker imports ``revident`` from
``src``, runs the warm-up pass, prints ``ready`` on standard output (the
parent's set-up clock stops there) and waits for a line on standard
input.  On ``go`` it runs the plan's groups through ``revident.cli.main``
in-process; on anything else it exits.  One client, one thread: each
operation starts when the previous one returns.

Without tracing the loop runs for the plan's seconds, and at least its
window of groups.  With tracing it runs passes over the window until
the seconds are used; in a pass every group runs once untraced and once
traced, so both sides do identical work and their difference is the
tracing overhead.

Byte comparison of repeated outputs happens outside the timed calls.
The first output of each operation key goes to the parent, which checks
it with the oracle.
"""

from __future__ import annotations

import io
import json
import resource
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import oracle
import speed
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


class Loop:
    def __init__(self, plan: dict, cli) -> None:
        self.plan = plan
        self.cli = cli
        self.workdir = Path(plan["workdir"])
        self.tracer: tracing.Tracer | None = None
        # [pool index, cmd, key, seconds, status, gates, probe index]
        self.ops: list[list] = []
        self.outputs: dict[str, str] = {}
        self.probes: list[float] = []  # one speed probe before every group
        self.table_probes: list[float] = []  # and a table probe, if the plan asks

    def call(self, argv: list[str]) -> tuple[float, object, str]:
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            t0 = perf_counter()
            try:
                if self.tracer is None:
                    rc = self.cli.main(argv)
                else:
                    with self.tracer.op_span(len(self.ops)):
                        rc = self.cli.main(argv)
            except SystemExit as e:
                rc = e.code
            except Exception as e:  # recorded as a failed operation
                rc = f"{type(e).__name__}: {e}"
            dt = perf_counter() - t0
        return dt, rc, out.getvalue()

    def run_group(self, index: int, record: bool = True) -> None:
        group = self.plan["groups"][index]
        gates = group.get("gates")
        failed_gen = False
        for op in group["ops"]:
            argv = list(op["args"])
            if "file" in op:
                argv.append(str(self.workdir / op["file"]))
            if failed_gen and "file" in op:
                dt, rc, text = 0.0, "skipped: gen-ntri failed", ""
            else:
                dt, rc, text = self.call(argv)
            status = "ok" if rc == 0 else f"exit {rc}"
            if op["cmd"] == "gen_ntri" and "splice" in group:
                try:
                    width, segment = oracle.parse(text)
                except oracle.OracleError:
                    failed_gen = True
                    status = "unparsable output"
                if status == "ok":
                    circuit = workloads.spliced(group, segment)
                    gates = len(circuit)
                    (self.workdir / group["splice"]["file"]).write_text(
                        oracle.format_circuit(width, circuit), encoding="utf-8")
                else:
                    failed_gen = True
            if not record:
                continue
            key = op["key"]
            first = self.outputs.setdefault(key, text)
            if status == "ok" and first != text:
                status = "mismatch"
            self.ops.append([index, op["cmd"], key, dt, status,
                             gates if "file" in op else 0, len(self.probes) - 1])

    def run_e2e(self, seconds: float, min_groups: int) -> None:
        pool = len(self.plan["groups"])
        start = perf_counter()
        i = 0
        while i < min_groups or perf_counter() - start < seconds:
            self.probes.append(speed.probe())
            if self.plan["table_probe"]:
                self.table_probes.append(speed.table_probe())
            self.run_group(i % pool)
            i += 1

    def run_traced(self, seconds: float, window: int, spans_path: Path) -> dict:
        windows, overheads = [], []
        start, last = perf_counter(), 0.0
        # Stop before a window would overrun the seconds, after at least one.
        while not windows or perf_counter() - start + last <= seconds:
            t_window = perf_counter()
            tracer = tracing.Tracer()
            plain = traced = 0.0
            first_probe = len(self.probes)
            # Each group runs untraced, then traced, back to back, so a
            # drift in machine speed hits both sides of the overhead alike.
            for i in range(window):
                self.probes.append(speed.probe())
                t0 = perf_counter()
                self.run_group(i)
                plain += perf_counter() - t0
                tracer.install()
                self.tracer = tracer
                t0 = perf_counter()
                self.run_group(i)
                traced += perf_counter() - t0
                self.tracer = None
                tracer.uninstall()
            factor = speed.scale(self.probes[first_probe:])
            windows.append(tracing.window_metrics(tracer.spans, factor))
            overheads.append((traced * factor, plain * factor))
            if len(windows) == 1:
                tracer.dump(spans_path)
            last = perf_counter() - t_window
        return tracing.combine(windows, overheads)


def main(argv: list[str]) -> int:
    plan = json.loads(Path(argv[0]).read_text(encoding="utf-8"))
    import revident.cli

    loop = Loop(plan, revident.cli)
    loop.run_group(0, record=False)
    for args in plan["warmup_extra"]:
        loop.call(args)
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0
    result: dict = {}
    if plan["trace"]:
        result["layers"] = loop.run_traced(
            plan["seconds"], plan["window"], Path(plan["spans_path"]))
    else:
        if plan["table_probe"]:
            speed.table_probe()  # builds its tables outside the timed loop
        loop.run_e2e(plan["seconds"], plan["window"])
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result.update(ops=loop.ops, outputs=loop.outputs, probes=loop.probes,
                  table_probes=loop.table_probes)
    Path(argv[1]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
