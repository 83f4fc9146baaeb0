"""The repository benchmark: ``revident`` CLI latency under closed-loop traffic.

    python3 perfbench/run.py --workload corpus --seed 0 --seconds 30 --trace 0

Run from the repository root; the package is imported from ``src``.
Workloads are described in ``workloads.py``.  The run:

1. makes the workload's inputs from the seed and writes them under
   ``.perfbench_work/`` (not timed, not part of ``setup_s``);
2. checks that the default-seed inputs still match ``digests.json``,
   because part of them comes from the package's own generators;
3. starts the worker five times in fresh processes; each start is
   interpreter start, ``import revident`` and one warm-up pass, and
   ``setup_s`` is their median.  The last worker goes on to the timed
   loop (see ``worker.py``).  Every time reported is scaled to the
   reference machine speed (see ``speed.py``);
4. checks every distinct output once with the independent oracle in
   ``oracle.py``; repeats were compared byte for byte by the worker;
5. prints one line per metric, then one JSON line: with ``--trace 0``
   the end-to-end metrics, with ``--trace 1`` the per-layer metrics
   from a traced run (see ``tracing.py``).

A ``*_tail`` metric is a fixed percentile per workload (``TAIL_PCT``),
chosen so that a seed-commit run has at least 10 samples above it.
"""

from __future__ import annotations

import argparse
import json
import select
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import oracle
import speed
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 5
DEADLINE_S = 170
COMMANDS = ("reduce", "reduce_fast", "simulate", "bench_all", "gen_ntri")
TAIL_PCT = {"corpus": 98, "late_hit": 75, "wide": 70}
# Commands whose time is scaled by the table probe rather than the
# loop probe, per workload: the width-16 circuit commands.
TABLE_SCALED = {"wide": ("reduce", "reduce_fast", "simulate")}
E2E = [
    ("setup_s", "s"), ("peak_rss_mb", "MB"), ("gates_per_s", "1/s"),
    *((f"{cmd}_ms_{stat}", "ms") for cmd in COMMANDS for stat in ("p50", "tail")),
]


def percentile(values: list[float], pct: float) -> float:
    """Linear interpolation between closest ranks."""
    s = sorted(values)
    pos = (len(s) - 1) * pct / 100
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def check_outputs(name: str, pool: list, outputs: dict[str, str], used: set[int]) -> dict[str, str]:
    """Oracle verdict on the first output of every key: key -> problem."""
    bad: dict[str, str] = {}

    def check_gen(key: str, op: dict):
        width, gates = oracle.parse(outputs[key])
        if width != op["width"] or len(gates) < op["min_len"]:
            bad[key] = f"gen-ntri gave width {width}, {len(gates)} gates"
        elif not oracle.is_interior_irreducible_identity(oracle.prefix_keys(width, gates)):
            bad[key] = "gen-ntri output is not an interior-irreducible identity"
        return width, gates

    files = {fname: text for _, group_files in pool for fname, text in group_files.items()}
    for i in sorted(used):
        group = pool[i][0]
        ops = {op["cmd"]: op for op in group["ops"]}
        red, fast, sim = (ops[c]["key"] for c in ("reduce", "reduce_fast", "simulate"))
        try:
            segment = check_gen(ops["gen_ntri"]["key"], ops["gen_ntri"])[1]
            if name == "corpus":
                width = ops["gen_ntri"]["width"]
                gates = workloads.spliced(group, segment)
            else:
                width, gates = oracle.parse(files[ops["reduce"]["file"]])
            expected = oracle.spec(width, gates)
            if red in outputs:
                w2, g2 = oracle.parse(outputs[red])
                prefixes = oracle.prefix_keys(w2, g2)
                if w2 != width or prefixes[-1] != oracle.prefix_keys(width, gates)[-1]:
                    bad[red] = "reduce changed the specification"
                elif oracle.repeated_prefixes(prefixes):
                    bad[red] = "reduce output is reducible"
                if fast in outputs and outputs[fast] != outputs[red]:
                    bad[fast] = "reduce --fast output differs from reduce"
            if sim in outputs and outputs[sim] != oracle.format_spec(expected) + "\n":
                bad[sim] = "simulate printed a wrong specification"
        except oracle.OracleError as e:
            bad.setdefault(f"g{i}", str(e))
    return bad


def start_worker(plan_path: Path, result_path: Path, deadline: float) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for its ``ready`` line.  Return the
    process, waiting for ``go`` on its stdin, and its set-up time scaled
    by speed probes taken just before and just after."""
    args = [sys.executable, str(HERE / "worker.py"), str(plan_path), str(result_path)]
    probes = [speed.probe() for _ in range(3)]
    t0 = perf_counter()
    proc = subprocess.Popen(args, cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            text=True)
    ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - perf_counter()))
    line = proc.stdout.readline() if ready else ""
    setup = perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        finish(proc, deadline)
        raise RuntimeError("worker did not get ready")
    probes += [speed.probe() for _ in range(3)]
    return proc, setup * speed.scale(probes)


def finish(proc: subprocess.Popen, deadline: float) -> None:
    try:
        proc.wait(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("worker overran the time limit") from None
    finally:
        proc.stdout.close()
        if not proc.stdin.closed:
            proc.stdin.close()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    deadline = perf_counter() + DEADLINE_S
    if not (ROOT / "src" / "revident" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'revident'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    base = ROOT / ".perfbench_work"
    workdir = base / f"{a.workload}-{a.seed}-{a.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        pool = workloads.build_pool(a.workload, a.seed)
        warmup = workloads.warmup_files(a.workload)
        for files in [*(files for _group, files in pool), warmup]:
            for fname, text in files.items():
                (workdir / fname).write_text(text, encoding="utf-8")
        recorded = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
        digest_ok = recorded.get(a.workload) == workloads.input_digest(a.workload)
        if not digest_ok:
            print(f"error: {a.workload} inputs at seed {workloads.DEFAULT_SEED} differ from "
                  "perfbench/digests.json; the package's generators changed", file=sys.stderr)
        plan = {
            "workdir": str(workdir), "seconds": a.seconds, "trace": bool(a.trace),
            "window": workloads.WINDOW[a.workload],
            "spans_path": str(base / f"spans-{a.workload}-{a.seed}.jsonl"),
            "groups": [g for g, _ in pool],
            "warmup_extra": [["simulate", str(workdir / f)] for f in sorted(warmup)],
            "table_probe": a.workload in TABLE_SCALED,
        }
        plan_path, result_path = workdir / "plan.json", workdir / "result.json"
        plan_path.write_text(json.dumps(plan), encoding="utf-8")

        setups = []
        for k in range(SETUPS):
            proc, setup = start_worker(plan_path, result_path, deadline)
            setups.append(setup)
            proc.stdin.write("go\n" if k == SETUPS - 1 else "exit\n")
            proc.stdin.close()
            finish(proc, deadline)
        result = json.loads(result_path.read_text(encoding="utf-8"))
    except RuntimeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops, outputs = result["ops"], result["outputs"]
    bad = check_outputs(a.workload, pool, outputs, {op[0] for op in ops})
    for key, problem in sorted(bad.items()):
        print(f"oracle: {key}: {problem}", file=sys.stderr)
    bad_groups = {int(k[1:]) for k in bad if ":" not in k}
    failed = sum(1 for op in ops
                 if op[4] != "ok" or op[2] in bad or op[0] in bad_groups)
    for op in ops:
        if op[4] != "ok":
            print(f"failed: {op[2]}: {op[4]}", file=sys.stderr)
            break

    print(f"workload {a.workload} seed {a.seed} trace {a.trace}: {len(ops)} operations, "
          f"{failed} failed, {len(outputs)} distinct outputs checked by the oracle")
    print(f"  error_rate {failed / len(ops):.6f} ratio")
    if a.trace:
        metrics = {name: (result["layers"][name], unit)
                   for name, unit, _ in tracing.LAYER_METRICS}
    else:
        loop_scales = speed.local_scales(result["probes"])
        table_scales = speed.local_scales(result["table_probes"], speed.TABLE_REF_MS)
        by_table = TABLE_SCALED.get(a.workload, ())
        scales = {cmd: table_scales if cmd in by_table else loop_scales for cmd in COMMANDS}
        times = {cmd: [op[3] * 1e3 * scales[cmd][op[6]] for op in ops if op[1] == cmd]
                 for cmd in COMMANDS}
        sized = [op for op in ops if op[1] in ("reduce", "reduce_fast", "simulate")]
        values = {
            "setup_s": statistics.median(setups),
            "peak_rss_mb": result["peak_rss_mb"],
            "gates_per_s": sum(op[5] for op in sized)
            / sum(op[3] * scales[op[1]][op[6]] for op in sized),
        }
        pct = TAIL_PCT[a.workload]
        for label, s in (("loop", loop_scales), ("table", table_scales)):
            if s:
                print(f"  {label} probe scale: median {statistics.median(s):.3f}, "
                      f"range {min(s):.3f}-{max(s):.3f}")
        if by_table:
            print(f"  scaled by the table probe: {', '.join(by_table)}")
        for cmd in COMMANDS:
            values[f"{cmd}_ms_p50"] = statistics.median(times[cmd])
            values[f"{cmd}_ms_tail"] = percentile(times[cmd], pct)
            raw = statistics.median(op[3] * 1e3 for op in ops if op[1] == cmd)
            print(f"  {cmd}: {len(times[cmd])} samples, tail = p{pct}, "
                  f"{sum(1 for t in times[cmd] if t > values[f'{cmd}_ms_tail'])} above it, "
                  f"unscaled p50 {raw:.4g} ms")
        metrics = {name: (values[name], unit) for name, unit in E2E}
        print("  setup runs (scaled s): " + ", ".join(f"{t:.4g}" for t in setups))
    for name, (value, unit) in metrics.items():
        print(f"  {name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0 and digest_ok,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
