"""Seeded inputs of the benchmark's workloads.

Every workload is a pool of *groups*.  A group is a short list of CLI
operations over one input circuit; the closed loop runs the groups in
pool order and starts over when the pool is used up.  Group ``i`` of a
workload depends only on the workload name, the seed and ``i``, so the
same seed always gives the same inputs.

Every group of every workload runs each of the five measured commands,
because the end-to-end metrics must exist on every workload.  The
workload's own traffic is ``reduce``, ``reduce --fast`` and ``simulate``
on its circuit; ``late_hit`` and ``wide`` add one ``bench all`` and one
small ``gen-ntri`` per group as light side traffic.

* ``corpus``: widths 4-5.  ``bench all`` (JSON and text by turns) and a
  fuzz round trip: ``gen-ntri`` with a fresh seed, its output spliced
  into a fresh irreducible host, then ``reduce``, ``reduce --fast`` and
  ``simulate`` on the result.  Every call is tens of gates, so per-call
  fixed costs dominate.
* ``late_hit``: width 8.  A fresh circuit per group: a 600-gate
  irreducible random prefix followed by 8 identities from the package's
  ``gen_random_ntri``, nested inside each other, so the eliminator makes
  9 passes and every pass rescans the prefix.
* ``wide``: width 16.  A fresh circuit per group: 16 gates, random and
  irreducible, except that every fourth group, from the third on, gets a
  doubled circuit (an 8-gate irreducible circuit with every gate
  repeated).  Every gate is drawn from one fixed vocabulary of 80
  distinct gates, the same for every seed.  Each gate application
  composes a 65,536-entry table, and every distinct gate adds about 3 MB
  to the package's unbounded gate-table cache; the vocabulary fixes that
  growth at 80 tables, plain in ``peak_rss_mb`` on a shared machine.
  The cost of a gate application depends on how scattered the
  specification it gathers from is, so one circuit can take twice as
  long as another; fresh circuits keep the run medians from hanging on
  a few of them.  Circuits are 16 gates rather than 32 because shorter
  circuits differ less in cost and give more samples (see README.md).
"""

from __future__ import annotations

import hashlib
import json
import random
import sys

import oracle

WORKLOADS = ("corpus", "late_hit", "wide")
DEFAULT_SEED = 0
# Groups in each pool: more than a seed-commit run gets through, so
# every group has fresh inputs.
POOL = {"corpus": 2048, "late_hit": 64, "wide": 64}
# The traced window and the inputs covered by the recorded digest: the
# first WINDOW groups.  Every run completes at least this many groups.
WINDOW = {"corpus": 20, "late_hit": 8, "wide": 4}

LATE_HIT_WIDTH, LATE_HIT_PREFIX, LATE_HIT_NTRIS, LATE_HIT_NTRI_LEN = 8, 600, 8, 10
WIDE_WIDTH, WIDE_GATES, WIDE_VOCABULARY = 16, 16, 80
WIDE_VOCABULARY_FILE = "vocabulary.rev"


def random_gate(rng: random.Random, width: int) -> oracle.Gate:
    k = rng.randint(0, min(3, width - 1))
    wires = rng.sample(range(width), k + 1)
    return tuple(sorted(wires[:-1])), wires[-1]


def irreducible_circuit(rng: random.Random, width: int, length: int,
                        vocabulary: list[oracle.Gate] | None = None) -> list[oracle.Gate]:
    """Random gates, from ``vocabulary`` when given, each redrawn while
    its prefix specification would repeat an earlier one, so no gate
    span of the result is an identity."""
    cur = oracle.identity_columns(width)
    seen = {tuple(cur)}
    gates: list[oracle.Gate] = []
    for _ in range(100 * length):
        if len(gates) == length:
            return gates
        g = rng.choice(vocabulary) if vocabulary else random_gate(rng, width)
        nxt = oracle.apply_columns(cur, g, width)
        key = tuple(nxt)
        if key not in seen:
            seen.add(key)
            cur = nxt
            gates.append(g)
    if len(gates) == length:
        return gates
    raise RuntimeError(f"no irreducible {length}-gate circuit at width {width}")


def _library_ntri(width: int, min_len: int, seed: int) -> list[oracle.Gate]:
    from revident.generate import GeneratorConfig, gen_random_ntri

    c = gen_random_ntri(GeneratorConfig(width=width, min_length=min_len, seed=seed))
    return [(tuple(sorted(g.controls)), g.target) for g in c.gates]


def _bench_op(i: int) -> dict:
    form = ["--json"] if i % 2 == 0 else []
    return {"cmd": "bench_all", "args": ["bench", "all", *form],
            "key": "bench:" + ("json" if form else "text")}


def _gen_op(rng: random.Random, i: int) -> dict:
    width, min_len, seed = rng.choice((4, 5)), rng.randint(8, 12), rng.randrange(2**31)
    return {"cmd": "gen_ntri", "key": f"g{i}:gen", "width": width, "min_len": min_len,
            "args": ["gen-ntri", "--width", str(width), "--min-len", str(min_len),
                     "--seed", str(seed)]}


def _circuit_ops(name: str) -> list[dict]:
    """The three commands on circuit ``name``, read from ``<name>.rev``."""
    file = f"{name}.rev"
    return [
        {"cmd": "reduce", "args": ["reduce"], "file": file, "key": f"{name}:reduce"},
        {"cmd": "reduce_fast", "args": ["reduce", "--fast"], "file": file, "key": f"{name}:fast"},
        {"cmd": "simulate", "args": ["simulate"], "file": file, "key": f"{name}:simulate"},
    ]


def wide_vocabulary() -> list[oracle.Gate]:
    """The distinct gates every wide circuit is drawn from: on every wire
    as target, one gate with each of 0-3 random controls, then random
    gates up to the vocabulary size.  Like the width, the vocabulary is
    part of the workload and the same for every seed: with a vocabulary
    drawn per seed, all of a run's circuits shared its cost, and run
    medians of different seeds spread by 0.14-0.18."""
    rng = random.Random("wide-vocabulary")
    vocabulary: dict[oracle.Gate, None] = {}
    for target in range(WIDE_WIDTH):
        others = [w for w in range(WIDE_WIDTH) if w != target]
        for k in range(4):
            vocabulary[tuple(sorted(rng.sample(others, k))), target] = None
    while len(vocabulary) < WIDE_VOCABULARY:
        vocabulary[random_gate(rng, WIDE_WIDTH)] = None
    return list(vocabulary)


def warmup_files(name: str) -> dict[str, str]:
    """Circuits the worker simulates once while it sets up, besides its
    first group: on ``wide``, one circuit of the whole vocabulary, so
    every gate table the timed loop uses is already cached."""
    if name != "wide":
        return {}
    return {WIDE_VOCABULARY_FILE: oracle.format_circuit(WIDE_WIDTH, wide_vocabulary())}


def build_group(name: str, seed: int, i: int, vocabulary=None) -> tuple[dict, dict[str, str]]:
    """Group ``i`` of workload ``name``: its description and the circuit
    files it reads, by file name.  A corpus group's circuit is written
    by the worker, because it contains the output of a timed gen-ntri."""
    rng = random.Random(f"{name}:{seed}:{i}")
    circuit = f"c{i}"
    if name == "corpus":
        gen = _gen_op(rng, i)
        host = irreducible_circuit(rng, gen["width"], rng.randint(10, 20))
        group = {"ops": [_bench_op(i), gen, *_circuit_ops(circuit)],
                 "splice": {"host": host, "at": rng.randint(0, len(host)),
                            "file": f"{circuit}.rev"}}
        return group, {}
    if name == "late_hit":
        width = LATE_HIT_WIDTH
        gates = irreducible_circuit(rng, width, LATE_HIT_PREFIX)
        front: list[oracle.Gate] = []
        back: list[oracle.Gate] = []
        for _ in range(LATE_HIT_NTRIS):
            ntri = _library_ntri(width, LATE_HIT_NTRI_LEN, rng.randrange(2**31))
            cut = rng.randint(1, len(ntri) - 1)
            front += ntri[:cut]
            back = ntri[cut:] + back
        gates += front + back
    elif name == "wide":
        width = WIDE_WIDTH
        vocabulary = vocabulary or wide_vocabulary()
        if i % 4 == 2:
            half = irreducible_circuit(rng, width, WIDE_GATES // 2, vocabulary)
            gates = [g for g in half for _ in (0, 1)]
        else:
            gates = irreducible_circuit(rng, width, WIDE_GATES, vocabulary)
    else:
        raise ValueError(f"unknown workload {name!r}")
    ops = [*_circuit_ops(circuit), _bench_op(i), _gen_op(rng, i)]
    return {"ops": ops, "gates": len(gates)}, {f"{circuit}.rev": oracle.format_circuit(width, gates)}


def build_pool(name: str, seed: int, count: int | None = None) -> list[tuple[dict, dict[str, str]]]:
    vocabulary = wide_vocabulary() if name == "wide" else None
    return [build_group(name, seed, i, vocabulary) for i in range(count or POOL[name])]


def spliced(group: dict, segment: list[oracle.Gate]) -> list[oracle.Gate]:
    """A corpus group's circuit: the gen-ntri segment inside the host."""
    host = [(tuple(c), t) for c, t in group["splice"]["host"]]
    at = group["splice"]["at"]
    return host[:at] + segment + host[at:]


def input_digest(name: str) -> str:
    """SHA-256 of the first WINDOW groups at the default seed, corpus
    segments included, as the package's generators make them today."""
    h = hashlib.sha256()
    for group, files in build_pool(name, DEFAULT_SEED, WINDOW[name]):
        if name == "corpus":
            gen = group["ops"][1]
            seed = int(gen["args"][-1])
            segment = _library_ntri(gen["width"], gen["min_len"], seed)
            files = {group["splice"]["file"]: oracle.format_circuit(
                gen["width"], spliced(group, segment))}
        h.update(json.dumps([group, files], sort_keys=True).encode())
    return h.hexdigest()


if __name__ == "__main__":
    # Print the digests to record in digests.json:
    #   python3 perfbench/workloads.py   (from the repository root)
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    print(json.dumps({name: input_digest(name) for name in WORKLOADS}, indent=2))
