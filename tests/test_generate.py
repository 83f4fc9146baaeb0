"""Seeded generators: random circuits, inverse synthesis, identity circuits."""

from __future__ import annotations

import random
import tracemalloc

import pytest

from revident import (
    Circuit,
    GeneratorConfig,
    GeneratorError,
    WidthCapExceeded,
    eliminate_ntris,
    format_circuit,
    gen_random_circuit,
    gen_random_ntri,
    generate,
    identity_spec,
    invert_spec,
    is_identity,
    is_interior_irreducible,
    mct,
    remove_trivial_identities,
    simulate,
    synthesize_inverse,
)
from revident.generate import _random_gates
from revident.semantics import _columns, _synthesize

from helpers import synthesize_inverse_reference


class TestConfig:
    def test_max_controls_defaults_to_width_minus_one_capped_at_three(self):
        assert GeneratorConfig(width=3).max_controls == 2
        assert GeneratorConfig(width=4).max_controls == 3
        assert GeneratorConfig(width=9).max_controls == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            GeneratorConfig(width=1)
        with pytest.raises(ValueError):
            GeneratorConfig(width=4, max_controls=4)
        with pytest.raises(ValueError):
            GeneratorConfig(width=4, gates=-1)
        with pytest.raises(ValueError):
            GeneratorConfig(width=4, max_attempts=0)


class TestRandomCircuit:
    def test_deterministic_per_seed(self):
        cfg = GeneratorConfig(width=4, gates=25, seed=11)
        assert gen_random_circuit(cfg) == gen_random_circuit(cfg)
        other = GeneratorConfig(width=4, gates=25, seed=12)
        assert gen_random_circuit(cfg) != gen_random_circuit(other)

    def test_gate_count_and_wire_bounds(self):
        for seed in range(30):
            cfg = GeneratorConfig(width=5, gates=17, seed=seed)
            c = gen_random_circuit(cfg)
            assert len(c) == 17 and c.width == 5
            for g in c.gates:
                assert len(g.controls) <= cfg.max_controls
                assert all(w < 5 for w in g.wires)

    def test_adjacent_duplicates_forbidden_by_default(self):
        for seed in range(30):
            c = gen_random_circuit(GeneratorConfig(width=3, gates=40, seed=seed))
            assert all(c.gates[i] != c.gates[i + 1] for i in range(len(c) - 1))

    def test_zero_gates(self):
        assert gen_random_circuit(GeneratorConfig(width=4, gates=0)) == Circuit.empty(4)

    def test_long_draw_is_written_in_bounded_memory(self):
        # one Gate per distinct drawn wire tuple: a new Gate and frozenset
        # per draw made gen-random hold about 550 bytes per gate
        cfg = GeneratorConfig(width=10, gates=100_000, seed=5)
        tracemalloc.start()
        try:
            c = gen_random_circuit(cfg)
            text = format_circuit(c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(c) == text.count(")") == cfg.gates
        assert peak < 100 * cfg.gates
        assert len(set(map(id, c.gates))) <= 10 * 9 * 8 * 7 + 10 * 9 * 8 + 10 * 9 + 10


class TestSynthesizeInverse:
    def test_identity_needs_no_gates(self):
        assert synthesize_inverse(identity_spec(3), 3) == Circuit.empty(3)

    def test_synthesizes_the_inverse(self):
        rng = random.Random(404)
        for width in (1, 2, 3, 4):
            values = list(range(1 << width))
            for _ in range(25):
                rng.shuffle(values)
                spec = tuple(values)
                c = synthesize_inverse(spec, width)
                assert simulate(c) == invert_spec(spec)

    def test_rejects_non_permutations(self):
        with pytest.raises(ValueError):
            synthesize_inverse((0, 0, 2, 3), 2)
        with pytest.raises(ValueError):
            synthesize_inverse((0, 1, 2, 3), 3)  # wrong length for width

    def test_top_swap_needs_one_wide_gate(self):
        # swapping the two all-but-last patterns takes a single gate
        # controlled on every other wire
        spec = list(range(32))
        spec[30], spec[31] = 31, 30
        c = synthesize_inverse(tuple(spec), 5)
        assert c.gates == (mct({1, 2, 3, 4}, 0),)

    def test_single_gate_spec_round_trips(self):
        g = mct({0, 2}, 1)
        spec = simulate(Circuit(3, (g,)))
        c = synthesize_inverse(spec, 3)
        assert simulate(c) == spec  # self-inverse permutation


class TestSynthesisMatchesListVersion:
    """The bit-sliced synthesis makes the list version's gates, gate for
    gate, from a specification and from a random half's columns."""

    def test_random_permutations(self):
        rng = random.Random(2003)
        for width in (1, 2, 3, 4, 5, 6):
            values = list(range(1 << width))
            for _ in range(10):
                rng.shuffle(values)
                spec = tuple(values)
                assert synthesize_inverse(spec, width) == synthesize_inverse_reference(spec, width)

    @pytest.mark.parametrize("width, gates, seeds", [(4, 6, 40), (5, 6, 40), (8, 20, 3), (10, 30, 2), (16, 6, 1)])
    def test_random_halves(self, width, gates, seeds):
        for seed in range(seeds):
            rng = random.Random(seed)
            half = Circuit(width, tuple(_random_gates(rng, width, gates, min(3, width - 1))))
            cols = _columns(half)
            expected = synthesize_inverse_reference(simulate(half), width)
            assert tuple(_synthesize(cols)) == expected.gates
            assert is_identity(Circuit(width, half.gates + expected.gates))


class TestRandomNtri:
    def test_deterministic_per_seed(self):
        cfg = GeneratorConfig(width=4, min_length=8, seed=21)
        assert gen_random_ntri(cfg) == gen_random_ntri(cfg)

    def test_contract_for_many_seeds(self):
        for seed in range(40):
            c = gen_random_ntri(GeneratorConfig(width=4, min_length=8, seed=seed))
            assert len(c) >= 8
            assert is_identity(c)
            assert is_interior_irreducible(c)
            out, report = eliminate_ntris(c)
            assert out.gates == ()
            assert len(report.removals) == 1
            assert report.removals[0].gate_count == len(c)

    # a one-gate random half would be re-synthesized as that same gate:
    # an adjacent equal pair, which the trivial pass cancels
    @pytest.mark.parametrize("width", [2, 3, 4, 5, 8])
    @pytest.mark.parametrize("min_length", [0, 1, 2, 3])
    def test_short_minimum_gives_no_trivial_identity(self, width, min_length):
        for seed in range(10):
            c = gen_random_ntri(GeneratorConfig(width=width, min_length=min_length, seed=seed))
            assert len(c) >= 4 and is_identity(c) and is_interior_irreducible(c)
            assert remove_trivial_identities(c)[0] == c

    def test_minimum_of_three_is_reached_at_width_3(self):
        c = gen_random_ntri(GeneratorConfig(width=3, min_length=3, seed=0, max_attempts=100))
        assert len(c) >= 4 and is_identity(c)

    def test_budget_exhaustion_raises(self):
        # at width 2 there are only 24 specifications, so a 48-gate
        # identity with all interior prefixes distinct cannot exist
        with pytest.raises(GeneratorError):
            gen_random_ntri(GeneratorConfig(width=2, min_length=48, seed=0, max_attempts=50))

    def test_width_is_refused_before_drawing(self, monkeypatch):
        def no_draw(*args):
            raise AssertionError("gates drawn for a width above the cap")

        monkeypatch.setattr(generate, "_random_gates", no_draw)
        with pytest.raises(WidthCapExceeded):
            gen_random_ntri(GeneratorConfig(width=17, min_length=600000))


class TestInteriorIrreducible:
    def test_two_gate_identity_counts(self):
        assert is_interior_irreducible(Circuit(2, (mct((), 0), mct((), 0))))

    def test_four_gate_repeat_does_not(self):
        g = mct((), 0)
        assert not is_interior_irreducible(Circuit(2, (g, g, g, g)))

    def test_non_identity_is_fine_if_prefixes_are_distinct(self):
        # the definition only forbids interior repeats; a non-identity
        # irreducible circuit passes vacuously
        assert is_interior_irreducible(Circuit(2, (mct((), 0), mct({0}, 1))))
