"""Machine-speed calibration.

On a shared machine the speed of one core can change by a factor of two
within seconds, as other tenants come and go, and all the benchmark's
latencies change with it.  A fixed pure-Python loop run next to the
measured work tracks that speed: on the reference machine the ratio of
an operation's latency to the loop's time stayed within about 6% while
both changed by 1.8x.

So every time the benchmark reports is scaled to the reference speed:
``raw_ms * REF_MS / probe_ms``, where ``probe_ms`` is the median of the
probes run nearest the measured work.  On the reference machine, when it
is quiet, the scale is close to 1.  The loop does not touch the package,
so a change to the package moves the scaled times as it moves the raw
ones.

Work on width-16 circuits is different: every gate application gathers
from a cold 65,536-entry table, so its speed follows the memory system,
which other tenants load independently of the core.  There the loop
above tracked it poorly: with the same inputs, probe-scaled simulation
times of separate processes spread by about +-7%.  ``table_probe``
composes a fixed chain of width-16 tables with this module's own code,
and times scaled by it (``raw_ms * TABLE_REF_MS / table_probe_ms``)
spread by about +-4%.
"""

from __future__ import annotations

import random
import statistics
from time import perf_counter

# Median probe times on the reference machine (2-vCPU Intel Xeon VM at
# 2.0 GHz, CPython 3.11) in its quiet state.
REF_MS = 2.70
TABLE_REF_MS = 16.5

_TABLE_WIDTH, _TABLE_GATES = 16, 6
_tables: list[tuple[int, ...]] = []
_identity: tuple[int, ...] = ()


def probe() -> float:
    """Milliseconds taken by a fixed loop of dict, int and branch work."""
    table = dict.fromkeys(range(256), 0)
    acc = 0
    t0 = perf_counter()
    for i in range(20000):
        table[i & 255] = i
        acc += table[(i * 7) & 255] ^ i
    return (perf_counter() - t0) * 1e3


def table_probe() -> float:
    """Milliseconds taken to push the identity through a fixed chain of
    width-16 gate tables, one gather per table, as the package's table
    composition does.  The tables (about 16 MB) are built on the first
    call, so a process that never calls this does not hold them."""
    global _identity
    if not _tables:
        rng = random.Random(12345)
        n = 1 << _TABLE_WIDTH
        for _ in range(_TABLE_GATES):
            wires = rng.sample(range(_TABLE_WIDTH), rng.randint(0, 3) + 1)
            mask, flip = sum(1 << c for c in wires[:-1]), 1 << wires[-1]
            _tables.append(tuple(x ^ flip if x & mask == mask else x for x in range(n)))
        _identity = tuple(range(n))
    t0 = perf_counter()
    spec = _identity
    for table in _tables:
        spec = tuple(table[v] for v in spec)
    return (perf_counter() - t0) * 1e3


def scale(probes: list[float], ref_ms: float = REF_MS) -> float:
    """Factor that turns raw times taken next to ``probes`` into times at
    the reference speed; ``ref_ms`` is the probe's reference time."""
    return ref_ms / statistics.median(probes)


def local_scales(probes: list[float], ref_ms: float = REF_MS) -> list[float]:
    """For probe ``k`` of a sequence, the scale from probes ``k-2 .. k+2``,
    so one disturbed probe does not decide it."""
    return [scale(probes[max(0, k - 2): k + 3], ref_ms) for k in range(len(probes))]
