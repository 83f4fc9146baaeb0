"""Seeded generators: random circuits and synthetic identity circuits.

A non-trivial reversible identity (NTRI) is built as ``C ++ inverse``
where ``C`` is a random circuit and the inverse is re-synthesized from
``C``'s specification rather than obtained by mirroring, so the identity
is not a telescoping pattern a local scan could spot.  Candidates are
rejection-sampled until the result is long enough and has no interior
repeated prefix specification, which makes it removable only as a whole.
This module draws the gates and does the sampling; the synthesis runs on
the bit-sliced columns, as ``semantics._synthesize``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .circuit import Circuit, Gate
from .semantics import (
    Specification,
    _first_repeat,
    _identity_columns,
    _run,
    _synthesize,
    is_permutation,
)

__all__ = [
    "GeneratorConfig",
    "GeneratorError",
    "gen_random_circuit",
    "synthesize_inverse",
    "gen_random_ntri",
    "is_interior_irreducible",
]


class GeneratorError(RuntimeError):
    """Raised when rejection sampling exhausts its attempt budget."""


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs for the two generators; each reads only some of them.

    ``gen_random_circuit`` reads ``gates``, its exact length.
    ``gen_random_ntri`` reads ``min_length``, the minimum NTRI length
    (four gates at least, whatever it asks), and ``max_attempts``.  Both
    read ``width``, ``seed`` and ``max_controls``, which defaults to the
    smaller of 3 and width-1 so every sampled gate fits both the wire
    count and the default cost table.  Neither ever draws a gate equal
    to its left neighbour: an adjacent equal pair is an identity that
    the trivial pass removes, and in an NTRI's random half an interior
    identity that would always be rejected.
    """

    width: int
    gates: int = 0
    min_length: int = 0
    max_controls: int | None = None
    seed: int = 0
    max_attempts: int = 1000

    def __post_init__(self) -> None:
        if self.width < 2:
            raise ValueError("width must be at least 2")
        if self.gates < 0 or self.min_length < 0 or self.max_attempts < 1:
            raise ValueError("counts must be non-negative, max_attempts positive")
        if self.max_controls is None:
            object.__setattr__(self, "max_controls", min(3, self.width - 1))
        if not 0 <= self.max_controls <= self.width - 1:
            raise ValueError(f"max_controls {self.max_controls} outside 0..{self.width - 1}")


def _random_gates(rng: random.Random, width: int, count: int, max_controls: int) -> list[Gate]:
    """``count`` drawn gates, one ``Gate`` object per distinct drawn wire
    tuple, so a long draw holds a few thousand gates, not one per draw."""
    gates: list[Gate] = []
    made: dict[tuple[int, ...], Gate] = {}
    for _ in range(count):
        while True:
            k = rng.randint(0, max_controls)
            wires = tuple(rng.sample(range(width), k + 1))
            g = made.get(wires)
            if g is None:
                g = made[wires] = Gate(frozenset(wires[:-1]), wires[-1])
            if not (gates and g == gates[-1]):
                break
        gates.append(g)
    return gates


def gen_random_circuit(cfg: GeneratorConfig) -> Circuit:
    """A uniformly sampled circuit of exactly ``cfg.gates`` gates.

    Each gate draws a control count 0..max_controls, then distinct wires;
    a gate equal to its left neighbour is re-drawn.  Deterministic for a
    given config.
    """
    rng = random.Random(cfg.seed)
    gates = _random_gates(rng, cfg.width, cfg.gates, cfg.max_controls)
    return Circuit(cfg.width, tuple(gates))


def synthesize_inverse(spec: Specification, width: int) -> Circuit:
    """A circuit computing the inverse of ``spec``, one output at a time
    (``semantics._synthesize`` on its columns, each read off the table as
    one base-2 numeral, last entry first).  Gates are appended in
    application order, so the returned circuit maps ``spec`` back to the
    identity.

    It takes a table of any width, above ``DEFAULT_WIDTH_CAP`` too, as
    base 2 is exempt from the int digit limit: the caller has already
    built the ``2**width``-entry ``spec``.
    """
    if len(spec) != 1 << width or not is_permutation(spec):
        raise ValueError(f"not a permutation of 0..{(1 << width) - 1}")
    cols = [int(bytes(48 + (y >> k & 1) for y in reversed(spec)), 2) for k in range(width)]
    return Circuit(width, tuple(_synthesize(cols)))


def is_interior_irreducible(c: Circuit) -> bool:
    """True when the only equal prefix-specification pair is the pair of
    endpoints (an identity circuit the eliminator can only remove whole)."""
    return _first_repeat(c) in (None, (0, len(c.gates)))


def gen_random_ntri(cfg: GeneratorConfig) -> Circuit:
    """A random identity circuit of at least ``cfg.min_length`` gates,
    and never fewer than four, with no interior repeated prefix
    specification.

    Candidates pair a random circuit of at least two gates with its
    re-synthesized inverse: one gate's inverse is that gate, an adjacent
    equal pair, and two distinct MCT gates never multiply to one gate.
    Too-short or interior-reducible candidates are rejected and redrawn
    from the same stream.  Raises GeneratorError after ``max_attempts``
    rejections.  Synthesized gates may use more controls than
    ``max_controls``, which only bounds the random half.
    """
    _identity_columns(cfg.width)  # refuse the width before any gate is drawn
    rng = random.Random(cfg.seed)
    base = max(2, cfg.min_length // 2)
    for attempt in range(cfg.max_attempts):
        count = base + attempt // 100
        gates = _random_gates(rng, cfg.width, count, cfg.max_controls)
        gates += _synthesize(_run(_identity_columns(cfg.width), gates))
        whole = Circuit(cfg.width, tuple(gates))
        if len(whole.gates) >= cfg.min_length and is_interior_irreducible(whole):
            return whole
    raise GeneratorError(
        f"no identity of length >= {cfg.min_length} after {cfg.max_attempts} attempts"
    )
