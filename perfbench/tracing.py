"""Spans around the package's public functions, for the traced run.

Every function named in the ``__all__`` of a ``revident`` submodule is
wrapped at every ``revident.*`` module attribute that refers to it, so a
call through ``revident.cli.eliminate_ntris`` or through
``revident.reduce.simulate`` records a span.  Private helpers such as
``apply_gate`` or the ``_scan_*`` functions are never wrapped: a metric
must not depend on a private name.  The source is not edited; the
wrappers live only in the traced worker process.

A span is ``[name, start, end, parent, op, info]``, kept in memory and
written out when the run ends.  ``name`` is ``<module>.<function>``, and
the module is the layer.  ``info`` holds the input gate count when the
first argument is a circuit, the counters of a returned
``ReductionReport`` and whether the call raised.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
from contextlib import contextmanager
from time import perf_counter

ROOT = "cli.main"
_ELIMINATE = ("reduce.eliminate_ntris", "reduce.eliminate_ntris_fast")

# name, unit, better: the per-layer metrics, in BENCHMARK.json order.
LAYER_METRICS = [
    ("cli.self_ms", "ms", "lower"),
    ("circuit.parse_ms", "ms", "lower"),
    ("circuit.parse_calls", "count", "lower"),
    ("circuit.format_ms", "ms", "lower"),
    ("corpus.load_ms", "ms", "lower"),
    ("corpus.loads", "count", "lower"),
    ("semantics.simulate_ms", "ms", "lower"),
    ("semantics.simulate_calls", "count", "lower"),
    ("semantics.gates_simulated", "count", "lower"),
    ("semantics.prefix_trace_ms", "ms", "lower"),
    ("semantics.prefix_trace_calls", "count", "lower"),
    ("semantics.format_spec_ms", "ms", "lower"),
    ("reduce.eliminate_self_ms", "ms", "lower"),
    ("reduce.report_sim_ms", "ms", "lower"),
    ("reduce.report_sim_calls", "count", "lower"),
    ("reduce.passes", "count", "lower"),
    ("reduce.comparisons", "count", "lower"),
    ("reduce.removals", "count", "higher"),
    ("reduce.gates_removed", "count", "higher"),
    ("cost.self_ms", "ms", "lower"),
    ("bench.table1_self_ms", "ms", "lower"),
    ("bench.table2_self_ms", "ms", "lower"),
    ("bench.render_ms", "ms", "lower"),
    ("generate.ntri_ms", "ms", "lower"),
    ("generate.attempts", "count", "lower"),
    ("generate.accept_ratio", "ratio", "higher"),
    ("generate.check_ms", "ms", "lower"),
    ("trace.overhead_ms", "ms", "lower"),
    ("trace.overhead_pct", "%", "lower"),
]
COUNTS = {name for name, unit, _ in LAYER_METRICS if unit == "count"}


def _info(args, result, raised):
    info = {}
    gates = getattr(args[0], "gates", None) if args else None
    if isinstance(gates, tuple):
        info["gates"] = len(gates)
    if isinstance(result, tuple) and len(result) == 2 and hasattr(result[1], "passes"):
        report = result[1]
        info.update(passes=report.passes, comparisons=report.comparisons,
                    removals=len(report.removals), gates_removed=report.gates_removed)
    if raised:
        info["raised"] = True
    return info


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = -1
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def op_span(self, op: int):
        """The root span of one timed operation, around ``cli.main``."""
        self.op = op
        rec = self._open(ROOT)
        try:
            yield
        finally:
            self._close(rec)
            rec[5] = {}

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name)
            result, raised = None, True
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                self._close(rec)
                rec[5] = _info(args, result, raised)
        return traced

    def install(self) -> None:
        """Wrap every exported function of the loaded ``revident``
        modules at every module attribute bound to it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "revident" or n.startswith("revident.")]
        wrappers = {}
        for mod in modules:
            layer = mod.__name__.rpartition(".")[2]
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[fn] = self._wrap(f"{layer}.{attr}", fn)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrappers[value])

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def window_metrics(spans: list[list], factor: float) -> dict[str, float]:
    """Per-layer metrics of one traced window, from its spans alone.
    Times are multiplied by ``factor``, the window's speed scale."""
    n = len(spans)
    child = [0.0] * n
    for name, start, end, parent, _op, _info in spans:
        if parent >= 0:
            child[parent] += end - start

    def self_ms(pred) -> float:
        return 1e3 * factor * sum(
            s[2] - s[1] - child[i] for i, s in enumerate(spans) if pred(s[0]))

    def outermost(names) -> list[int]:
        out = []
        for i, s in enumerate(spans):
            if s[0] not in names:
                continue
            p = s[3]
            while p >= 0 and spans[p][0] not in names:
                p = spans[p][3]
            if p < 0:
                out.append(i)
        return out

    def incl_ms(*names) -> float:
        return 1e3 * factor * sum(spans[i][2] - spans[i][1] for i in outermost(names))

    def calls(name) -> int:
        return sum(1 for s in spans if s[0] == name)

    def info_sum(names, key) -> int:
        return sum(s[5].get(key, 0) for s in spans if s[0] in names)

    report_sims = [s for s in spans
                   if s[0] == "semantics.simulate" and s[3] >= 0 and spans[s[3]][0] in _ELIMINATE]
    ntris = [i for i, s in enumerate(spans) if s[0] == "generate.gen_random_ntri"]
    attempts = sum(1 for s in spans
                   if s[0] == "generate.synthesize_inverse"
                   and s[3] >= 0 and spans[s[3]][0] == "generate.gen_random_ntri")
    accepted = sum(1 for i in ntris if not spans[i][5].get("raised"))
    return {
        "cli.self_ms": self_ms(lambda name: name.startswith("cli.")),
        "circuit.parse_ms": incl_ms("circuit.parse_circuit"),
        "circuit.parse_calls": calls("circuit.parse_circuit"),
        "circuit.format_ms": incl_ms("circuit.format_circuit", "circuit.format_gate"),
        "corpus.load_ms": self_ms(lambda name: name.startswith("corpus.")),
        "corpus.loads": calls("corpus.load_corpus_circuit"),
        "semantics.simulate_ms": incl_ms("semantics.simulate"),
        "semantics.simulate_calls": calls("semantics.simulate"),
        "semantics.gates_simulated": info_sum(("semantics.simulate",), "gates"),
        "semantics.prefix_trace_ms": incl_ms("semantics.prefix_trace"),
        "semantics.prefix_trace_calls": calls("semantics.prefix_trace"),
        "semantics.format_spec_ms": incl_ms("semantics.format_spec"),
        "reduce.eliminate_self_ms": self_ms(lambda name: name in _ELIMINATE),
        "reduce.report_sim_ms": 1e3 * factor * sum(s[2] - s[1] for s in report_sims),
        "reduce.report_sim_calls": len(report_sims),
        "reduce.passes": info_sum(_ELIMINATE, "passes"),
        "reduce.comparisons": info_sum(_ELIMINATE, "comparisons"),
        "reduce.removals": info_sum(_ELIMINATE, "removals"),
        "reduce.gates_removed": info_sum(_ELIMINATE, "gates_removed"),
        "cost.self_ms": self_ms(lambda name: name.startswith("cost.")),
        "bench.table1_self_ms": self_ms(lambda name: name == "bench.run_table1"),
        "bench.table2_self_ms": self_ms(lambda name: name == "bench.run_table2"),
        "bench.render_ms": incl_ms("bench.render_report"),
        "generate.ntri_ms": incl_ms("generate.gen_random_ntri"),
        "generate.attempts": attempts / len(ntris) if ntris else 0.0,
        "generate.accept_ratio": accepted / attempts if attempts else 0.0,
        "generate.check_ms": incl_ms("generate.is_interior_irreducible"),
    }


def combine(windows: list[dict[str, float]], overheads: list[tuple[float, float]]) -> dict:
    """Median over traced windows of each time; counts must agree across
    windows, since every window runs the same operations.  ``overheads``
    holds (traced, untraced) wall seconds of each window pair."""
    out = {}
    for key in windows[0]:
        values = [w[key] for w in windows]
        if key in COUNTS:
            if len(set(values)) != 1:
                raise RuntimeError(f"{key} differs between identical windows: {values}")
            out[key] = values[0]
        else:
            out[key] = statistics.median(values)
    diffs = [traced - plain for traced, plain in overheads]
    out["trace.overhead_ms"] = 1e3 * statistics.median(diffs)
    out["trace.overhead_pct"] = 100 * statistics.median(
        (traced - plain) / plain for traced, plain in overheads)
    return out
