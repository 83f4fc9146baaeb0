"""Shared test helpers: independent oracles and input makers.

The simulation oracle evaluates gates per input pattern with plain bit
twiddling, deliberately avoiding the library's bit-sliced columns so the
two routes check each other.  The elimination oracle is the paper's
restarting scan, carried out literally on top of it.
"""

from __future__ import annotations

import random

from revident import Circuit, Gate, GeneratorConfig, ReductionReport, Removal, gen_random_ntri
from revident.cost import DEFAULT_COST_TABLE, CostTableError, gate_cost

try:  # hypothesis is a test-only dependency
    from hypothesis import strategies as st
except ImportError:  # pragma: no cover
    st = None


def eval_gate(gate: Gate, pattern: int) -> int:
    if all(pattern >> c & 1 for c in gate.controls):
        return pattern ^ (1 << gate.target)
    return pattern


def simulate_bruteforce(c: Circuit) -> tuple[int, ...]:
    out = []
    for x in range(1 << c.width):
        v = x
        for g in c.gates:
            v = eval_gate(g, v)
        out.append(v)
    return tuple(out)


def _first_hit(gates: list[Gate], width: int) -> tuple[int, int] | None:
    """The paper's scan: end index ascending, start index ascending."""
    spec = tuple(range(1 << width))
    prefixes = [spec]
    for i, g in enumerate(gates, start=1):
        spec = tuple(eval_gate(g, v) for v in spec)
        for j, earlier in enumerate(prefixes):
            if earlier == spec:
                return j, i
        prefixes.append(spec)
    return None


def _cost(gates, table) -> int | None:
    try:
        return sum(gate_cost(g, table) for g in gates)
    except CostTableError:
        return None


def eliminate_reference(c: Circuit, table=DEFAULT_COST_TABLE) -> tuple[Circuit, ReductionReport]:
    """The paper's eliminator, literally: delete the first hit of the
    scan and restart it from gate 0 until a pass finds nothing.  Slow;
    every faster eliminator must match it exactly (``comparisons`` is
    left at 0, as it takes no part in report equality)."""
    gates = list(c.gates)
    removals = []
    passes = 1
    while (hit := _first_hit(gates, c.width)) is not None:
        j, i = hit
        removals.append(Removal(j, i, i - j, _cost(gates[j:i], table)))
        del gates[j:i]
        passes += 1
    out = Circuit(c.width, tuple(gates))
    return out, ReductionReport(
        passes=passes,
        removals=tuple(removals),
        input_gates=len(c.gates),
        output_gates=len(gates),
        input_cost=_cost(c.gates, table),
        output_cost=_cost(gates, table),
        input_spec=simulate_bruteforce(c),
        output_spec=simulate_bruteforce(out),
    )


def random_circuit(rng: random.Random, width: int, gates: int) -> Circuit:
    """Plain sampler, independent of the library's generator module."""
    out = []
    for _ in range(gates):
        k = rng.randint(0, min(3, width - 1))
        wires = rng.sample(range(width), k + 1)
        out.append(Gate(frozenset(wires[:-1]), wires[-1]))
    return Circuit(width, tuple(out))


def irreducible_circuit(rng: random.Random, width: int, gates: int) -> Circuit:
    """Random gates, each redrawn while its prefix specification would
    repeat an earlier one, so no span of the result is an identity."""
    spec = tuple(range(1 << width))
    seen = {spec}
    out: list[Gate] = []
    for _ in range(100 * gates):
        g = random_circuit(rng, width, 1).gates[0]
        nxt = tuple(eval_gate(g, v) for v in spec)
        if nxt not in seen:
            seen.add(nxt)
            spec = nxt
            out.append(g)
            if len(out) == gates:
                break
    if len(out) < gates:
        raise RuntimeError(f"no irreducible {gates}-gate circuit at width {width}")
    return Circuit(width, tuple(out))


def late_hit_circuit(rng: random.Random, width: int, prefix: int, ntris: int, ntri_len: int) -> Circuit:
    """An irreducible prefix followed by ``ntris`` identities from the
    library's generator, nested inside one another, so every removal
    comes late and the paper's scan restarts once per identity."""
    front: list[Gate] = []
    back: list[Gate] = []
    for _ in range(ntris):
        cfg = GeneratorConfig(width=width, min_length=ntri_len, seed=rng.randrange(2**31))
        ntri = list(gen_random_ntri(cfg).gates)
        cut = rng.randint(1, len(ntri) - 1)
        front += ntri[:cut]
        back = ntri[cut:] + back
    head = irreducible_circuit(rng, width, prefix).gates
    return Circuit(width, head + tuple(front + back))


def all_gates(width: int, max_controls: int = 3):
    """Every MCT gate on the given wires with at most max_controls controls."""
    from itertools import combinations

    for target in range(width):
        rest = [w for w in range(width) if w != target]
        for k in range(0, min(max_controls, width - 1) + 1):
            for controls in combinations(rest, k):
                yield Gate(frozenset(controls), target)


if st is not None:

    @st.composite
    def circuits(draw, max_width: int = 5, max_gates: int = 12):
        width = draw(st.integers(min_value=1, max_value=max_width))
        gates = []
        for _ in range(draw(st.integers(min_value=0, max_value=max_gates))):
            target = draw(st.integers(min_value=0, max_value=width - 1))
            rest = [w for w in range(width) if w != target]
            k = draw(st.integers(min_value=0, max_value=min(3, len(rest))))
            controls = draw(
                st.lists(st.sampled_from(rest), min_size=k, max_size=k, unique=True)
                if rest
                else st.just([])
            )
            gates.append(Gate(frozenset(controls), target))
        m = len(gates)
        marker = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=m)))
        lo = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=m)))
        bracket = None
        if lo is not None:
            hi = draw(st.integers(min_value=lo, max_value=m))
            bracket = (lo, hi)
        return Circuit(width, tuple(gates), marker, bracket)
