"""Gate and circuit values, the text format, and the edit operations."""

from __future__ import annotations

import random
import re
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from revident import circuit
from revident import (
    Circuit,
    Gate,
    GeneratorConfig,
    ParseError,
    WidthMismatchError,
    concat,
    eliminate_ntris,
    format_circuit,
    format_gate,
    gen_random_circuit,
    insert_segment,
    inverse,
    mct,
    parse_circuit,
    remove_trivial_identities,
)

from helpers import _format_gate_reference, all_gates, circuits, format_reference, parse_reference

# Fragments of circuit text, valid and not, that token soup is drawn from;
# whole gate tokens with a random argument list make repeats and valid gates
# common enough to exercise reuse of parsed gates.  Gate tokens come with a
# separator that may be empty, ";" or a newline, so runs of gates form
# between markers and headers, and bad tokens sit inside and after them.
_OPENERS = ["NOT(", "CNOT(", "TOF(", "TOF4(", "MCT(", "NOT (", "wires(", "FOO("]
_SOUP = [*"abczAZ#[];,:/()", "\n", " ", *_OPENERS, "wires:", "//",
         "wires: a b c\n", "wires: c a\n"]
_GATE_TEXT = st.builds(
    "{}{}){}".format,
    st.sampled_from(_OPENERS),
    st.lists(st.sampled_from([*"abczA", " "]), max_size=4).map(", ".join),
    st.sampled_from(["", "", " ", ";", "; ", "\n"]),
)

# 100 gate tokens that parse, 90 of them distinct, in one run
_HUNDRED_GOOD = "NOT(j) " * 10 + "".join(
    f"CNOT({a}, {b}) " for a in "abcdefghij" for b in "abcdefghij" if a != b)


def _parse_outcome(parse, text):
    try:
        c = parse(text)
    except ParseError as e:
        return str(e)
    return c, c.width, c.insertion_point, c.bracket


class TestGate:
    def test_controls_are_canonical(self):
        assert Gate(frozenset({2, 1}), 0) == mct([1, 2], 0)

    def test_controls_become_an_exact_frozenset(self):
        class Controls(frozenset):
            pass

        for controls in ([2, 1], {1, 2}, (1, 2), Controls({1, 2})):
            g = Gate(controls, 0)
            assert type(g.controls) is frozenset and g.controls == {1, 2}, controls
            assert hash(g) == hash(Gate(frozenset({1, 2}), 0))
        exact = frozenset({1, 2})
        assert Gate(exact, 0).controls is exact

    def test_target_in_controls_rejected(self):
        with pytest.raises(ValueError):
            Gate(frozenset({0, 1}), 1)

    def test_negative_wire_rejected(self):
        with pytest.raises(ValueError):
            Gate(frozenset({-1}), 0)

    def test_wires_property(self):
        assert mct({0, 2}, 1).wires == {0, 1, 2}


class TestCircuitValue:
    def test_gate_outside_width_rejected(self):
        with pytest.raises(ValueError):
            Circuit(2, (mct({0}, 2),))

    def test_zero_width_rejected(self):
        with pytest.raises(ValueError):
            Circuit(0, ())

    def test_marker_bounds_checked(self):
        with pytest.raises(ValueError):
            Circuit(1, (mct((), 0),), insertion_point=2)
        with pytest.raises(ValueError):
            Circuit(1, (mct((), 0),), bracket=(0, 2))

    def test_equality_ignores_annotations(self):
        plain = parse_circuit("NOT(a) NOT(a)")
        marked = parse_circuit("NOT(a) # [ NOT(a) ]")
        assert plain == marked
        assert marked.insertion_point == 1 and marked.bracket == (1, 2)

    def test_len_counts_gates(self):
        assert len(parse_circuit("NOT(a) NOT(a) NOT(a)")) == 3
        assert len(Circuit.empty(3)) == 0


class TestParse:
    def test_first_appearance_numbering(self):
        c = parse_circuit("CNOT(c, a) NOT(b)")
        # c appears first so it is wire 0, then a, then b
        assert c.width == 3
        assert c.gates == (mct({0}, 1), mct((), 2))

    def test_header_fixes_order_and_width(self):
        c = parse_circuit("wires: a b c d\nCNOT(c, a)")
        assert c.width == 4
        assert c.gates == (mct({2}, 0),)

    def test_header_only(self):
        c = parse_circuit("wires: a b c")
        assert c.width == 3 and c.gates == ()

    def test_empty_text(self):
        c = parse_circuit("")
        assert c.width == 1 and c.gates == ()

    def test_comments_and_separators(self):
        c = parse_circuit("NOT(a); // trailing words [ # ( \n ;; NOT(a)\n")
        assert len(c) == 2

    def test_insertion_marker_records_gap(self):
        assert parse_circuit("NOT(a) # NOT(a)").insertion_point == 1
        assert parse_circuit("# NOT(a)").insertion_point == 0
        assert parse_circuit("NOT(a) #").insertion_point == 1

    def test_bracket_records_span(self):
        c = parse_circuit("NOT(a) [ NOT(a) NOT(a) ] NOT(a)")
        assert c.bracket == (1, 3)

    def test_bracket_attached_to_gates(self):
        c = parse_circuit("NOT(a) [NOT(a) NOT(a) ]NOT(a)")
        assert c.bracket == (1, 3)

    def test_mct_semicolon_and_comma_forms(self):
        a = parse_circuit("wires: a b c d e\nMCT(a, b, c, d; e)")
        b = parse_circuit("wires: a b c d e\nMCT(a, b, c, d, e)")
        assert a.gates == b.gates == (mct({0, 1, 2, 3}, 4),)

    def test_mct_single_wire_is_not(self):
        assert parse_circuit("MCT(a)").gates == (mct((), 0),)

    @pytest.mark.parametrize(
        "text",
        [
            "FOO(a)",            # unknown gate name
            "TOF(a, b)",         # wrong arity
            "NOT(a, b)",         # wrong arity
            "TOF(a, b, a)",      # repeated wire
            "MCT()",             # no target
            "NOT(a) # # NOT(a)",  # two insertion markers
            "[ NOT(a)",          # bracket never closed
            "] NOT(a)",          # close without open
            "[ NOT(a) ] [ NOT(a) ]",  # second bracket
            "NOT(a) wires: a",   # header after a gate
            "wires: a a",        # repeated header wire
            "wires:",            # empty header
            "wires: a b\nNOT(c)",  # letter outside header
            "NOT(A)",            # wires are lowercase
            "NOT(a) $",          # stray character
            "wires: a\nwires: a",  # second header
        ],
    )
    def test_malformed_input_rejected(self, text):
        with pytest.raises(ParseError):
            parse_circuit(text)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("FOO(a)", "unknown gate name 'FOO' at position 0"),
            ("TOF(a, b)", "TOF takes 3 wires, got 2 at position 0"),
            ("NOT(a, b)", "NOT takes 1 wires, got 2 at position 0"),
            ("TOF(a, b, a)", "repeated wire in gate at position 0"),
            ("MCT()", "MCT needs at least a target at position 0"),
            ("NOT(a) # # NOT(a)", "second insertion marker at position 9"),
            ("[ NOT(a)", "unbalanced [: bracket never closed"),
            ("] NOT(a)", "unbalanced ] at position 0"),
            ("[ NOT(a) ] [ NOT(a) ]", "second bracket at position 11"),
            ("NOT(a) wires: a", "wires: header at position 7 must precede all gates"),
            ("wires: a a", "repeated wire 'a' in wires: header"),
            ("wires:", "empty wires: header"),
            ("wires: a b\nNOT(c)", "wire 'c' at position 11 not in wires: header"),
            ("NOT(A)", "bad wire name 'A' at position 0"),
            ("NOT(a) $", "unexpected character '$' at position 7"),
            ("wires: a\nwires: a", "second wires: header at position 9"),
        ],
    )
    def test_malformed_input_message(self, text, message):
        with pytest.raises(ParseError) as e:
            parse_circuit(text)
        assert str(e.value) == message

    # runs split by markers, ;-separated and unseparated tokens, a gate
    # named wires, a bad token after a marker, wires added late
    @given(st.lists(st.sampled_from(_SOUP) | _GATE_TEXT, max_size=40).map("".join))
    @example("NOT(a)NOT(b) # CNOT(a, b);TOF(a, b, c)\nNOT(b)")
    @example("NOT(a) [ CNOT(a, b) ] NOT(a) # FOO(a) NOT(b)")
    @example("wires: b a\nNOT(a) # NOT(a) NOT(c) NOT(a)")
    @example("NOT(a) # NOT(a) wires(a)")
    @example("NOT(a) CNOT(b, a) TOF(a, b, a) NOT(A)")
    @example("CNOT(a, b) [ TOF(c, d, a) MCT(e, f, a, b; c) ] TOF(a, b, a)")
    # whitespace that str.strip() drops, around and between wires
    @example("CNOT(a,\tb) TOF(a\n, b, c) NOT(\u00a0c) CNOT(\u2003b ,a)")
    @example("NOT(a) CNOT(a\u00a0b, c)")
    @example("NOT(a) TOF(a, b\u2003c, d)")
    @example("wires: a b\nCNOT(b,\ta) NOT(\nb)")
    @example("MCT(a; b; c)")
    @example("NOT(a) NOT()")
    @example(_HUNDRED_GOOD + "TOF(a, b, 1) NOT(b)")
    @example(_HUNDRED_GOOD + "NOT(k)")
    @example("NOT(a) CNOT(a, b) # NOT(b) TOF(b, a, b) NOT(c)")
    @example("CNOT(b, a) # TOF(c, a, d) NOT(e) [ CNOT(e, f) ] NOT(g)")
    # the first bad token repeats, and a later one fails an earlier check
    @example("NOT(a) CNOT(b, b) NOT(a) CNOT(b, b) FOO(c)")
    # a token built in an earlier run comes before the bad one
    @example("wires: a b\nNOT(a) # NOT(a) TOF(a, b, c) TOF(a, b, c)")
    # one token repeated after a space, a newline, a tab, ";" and CRLF
    @example("NOT(a) CNOT(a, b) CNOT(a, b)\nCNOT(a, b)\tCNOT(a, b);CNOT(a, b)\r\nNOT(a)")
    # whitespace before "(", and separators that only str.isspace() knows
    @example("NOT (a) CNOT\t(b, a) NOT(a)")
    @example("NOT(a)\u2003CNOT(a, b)\u00a0NOT(a)\x1cNOT\u3000(a)")
    # an MCT token, with its own ";", between ";" separators
    @example("NOT(a);MCT(a, b; c);TOF(a, c, b);;")
    # a run whose trailing separators meet a marker
    @example("NOT(a) CNOT(a, b) ;\n\t# NOT(b);\n[ NOT(a) ;]")
    # equal gates after different separators and with whitespace in the body
    @example("CNOT(a, b)\tCNOT( a ,b );CNOT(a;b)\r\nCNOT (a,\u2003b);;CNOT(a,b) NOT(a)")
    @example("CNOT( a ,b ) # CNOT(a,b);CNOT(a, b)\u3000TOF(a, b, a) CNOT(a,  b)")
    # a bad token whose squashed text repeats, quoted as first written
    @example("NOT(a) CNOT(a b, c) CNOT(ab, c)")
    @example("NOT(a) CNOT(ab, c);CNOT(a\tb, c)")
    @settings(max_examples=600)
    def test_matches_reference_parser(self, text):
        outcome = _parse_outcome(parse_circuit, text)
        assert outcome == _parse_outcome(parse_reference, text)
        if not isinstance(outcome, str):
            assert format_circuit(outcome[0]) == format_reference(outcome[0])

    def test_valid_parse_makes_no_second_regex_pass(self, monkeypatch):
        class Untouchable:
            def __getattr__(self, name):
                raise AssertionError(f"_GATE_RE.{name} used")

        monkeypatch.setattr(circuit, "_GATE_RE", Untouchable())
        text = "wires: a b c\nNOT(a) CNOT (a, b);\tTOF(a, b, c)\r\n# MCT(a, b; c) [ NOT(a) ]"
        assert _parse_outcome(parse_circuit, text) == _parse_outcome(parse_reference, text)
        # only a failing run is scanned again, for its bad token's position
        with pytest.raises(AssertionError, match="_GATE_RE"):
            parse_circuit("NOT(a) CNOT(a, a)")

    def test_failing_run_checks_each_new_token_once(self, monkeypatch):
        check, checked = circuit._check, []

        def counting(name, body, index, declared):
            checked.append((name, body))
            return check(name, body, index, declared)

        monkeypatch.setattr(circuit, "_check", counting)
        text = "NOT(a) # NOT(b) CNOT(a, b) NOT(a) NOT(b) CNOT(a, b) CNOT(b, b) NOT(c) CNOT(b, b)"
        with pytest.raises(ParseError, match="^repeated wire in gate at position 52$"):
            parse_circuit(text)
        # the failing run's tokens are checked in order, built or not, and
        # the first bad token ends the checks
        assert checked == [("NOT", "b"), ("CNOT", "a, b"), ("NOT", "a"), ("NOT", "b"),
                           ("CNOT", "a, b"), ("CNOT", "b, b")]

    def test_failing_run_checks_tokens_as_written_after_other_separators(self, monkeypatch):
        check, checked = circuit._check, []

        def counting(name, body, index, declared):
            checked.append((name, body))
            return check(name, body, index, declared)

        monkeypatch.setattr(circuit, "_check", counting)
        text = "CNOT(a, b) # CNOT( a,b );NOT(a) CNOT (a,\tb)\r\nNOT( a ) CNOT(b; b)"
        with pytest.raises(ParseError, match="^repeated wire in gate at position 54$"):
            parse_circuit(text)
        # each token as written, in order, up to the first bad one
        assert checked == [("CNOT", " a,b "), ("NOT", "a"), ("CNOT", "a,\tb"), ("NOT", " a "),
                           ("CNOT", "b; b")]

    def test_squash_deletes_exactly_the_regex_whitespace(self):
        # a separator that _TOKEN_RE accepts but the table kept would reach
        # _build inside a piece and fail a valid run that _check passes
        every = "".join(map(chr, range(0x110000)))
        space = re.findall(r"\s", every)
        assert space == [ch for ch in every if ch.isspace()]
        assert circuit._SQUASH == {**dict.fromkeys(map(ord, space)), ord(";"): ord(",")}

    def test_equal_gates_are_one_object_whatever_separates_them(self):
        text = ("wires: a b c\r\nCNOT(a, b)\tCNOT( a ,b );CNOT(a;b)\r\nCNOT (a,\u2003b) // x\n"
                ";;CNOT(a,b) # TOF(a, b, c)\x1cTOF(a,b,c) [ CNOT(a, b) ]TOF (a ,b ,c);")
        outcome = _parse_outcome(parse_circuit, text)
        assert outcome == _parse_outcome(parse_reference, text)
        gates = outcome[0].gates
        assert len(gates) == 9 and len({id(g) for g in gates}) == len(set(gates)) == 2

    def test_small_parses_hold_no_memory(self):
        # runs of 1 to 19 new gates: the parser leaves nothing behind, also
        # not in the tuple free list, which keeps up to 2,000 tuples of each
        # size below 20 (a tuple built by resizing is freed into it)
        letters = "abcdefghijklmnopqrst"
        texts = [" ".join(f"CNOT({a}, {b})" for a, b in zip(letters[:k], letters[1:]))
                 for k in range(1, 20)]
        tracemalloc.start()
        try:
            for _ in range(200):
                for text in texts:
                    parse_circuit(text)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 100_000

    def test_repeated_token_reuses_its_gate(self):
        c = parse_circuit("NOT(a) CNOT(a, b) " * 5000)
        assert len(c) == 10000
        assert c.gates[0] is c.gates[2] and c.gates[1] is c.gates[3]

    # the separators of the CI's mixed-separator file
    @pytest.mark.parametrize("sep", [" ", "\t", "\r\n", ";", " ;\t", "", "\n// a comment\n", ";;\r\n"],
                             ids=repr)
    def test_runs_past_one_match_match_reference_parser(self, sep):
        # _TOKEN_RE matches at most 1,024 gates at a time, so a longer run
        # is several matches.  Each token put at or next to the first two
        # boundaries gives the reference parser's result: a bad gate, a
        # marker, a late header, a stray character, or a gate on a wire
        # first seen there.  The memo of built gates spans the matches.
        tokens = [_OPENERS[i % 4] + ("a)", "a, b)", "b, c, a)", "c, d, b, a)")[i % 4]
                  for i in range(2052)]
        for at in (1022, 1023, 1024, 1025, 2047, 2048, 2049):
            for odd in ("CNOT(b, b)", "FOO(a)", "#", "[", "]", "wires: a b c d", "?", "NOT(e)"):
                text = sep.join([*tokens[:at], odd, *tokens[at:]]) + sep
                outcome = _parse_outcome(parse_circuit, text)
                assert outcome == _parse_outcome(parse_reference, text), (at, odd)
                if not isinstance(outcome, str):
                    gates = outcome[0].gates
                    assert len({id(g) for g in gates}) == len(set(gates)) <= 5

    def test_long_run_parses_in_bounded_memory(self):
        # a run is matched 1,024 gates at a time: a run matched whole makes
        # the regex scan hold about 575 bytes per gate while it matches
        tokens = [f"TOF({a}, {b}, {c})" for a in "abcdefghij" for b in "abcdefghij"
                  for c in "abcdefghij" if len({a, b, c}) == 3]
        text = " ".join(tokens * 139)
        tracemalloc.start()
        try:
            c = parse_circuit(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(c) == 100_080 and c.width == 10
        assert peak < 64 * len(c)


class TestFormat:
    def test_gate_tokens(self):
        assert format_gate(mct((), 0), 4) == "NOT(a)"
        assert format_gate(mct({2}, 0), 4) == "CNOT(c, a)"
        assert format_gate(mct({0, 3}, 1), 4) == "TOF(a, d, b)"
        assert format_gate(mct({0, 1, 3}, 2), 4) == "TOF4(a, b, d, c)"
        assert format_gate(mct({0, 1, 2, 3}, 4), 5) == "MCT(a, b, c, d; e)"

    def test_gate_tokens_match_reference(self):
        # every gate at widths 1-8, and at each width 9-26 300 gates of
        # drawn control counts: each template and every letter
        rng = random.Random(26)
        for w in range(1, 27):
            if w <= 8:
                gates = list(all_gates(w, w - 1))
            else:
                drawn = (rng.sample(range(w), rng.randint(1, w)) for _ in range(300))
                gates = [mct(wires[:-1], wires[-1]) for wires in drawn]
            for g in gates:
                assert format_gate(g, w) == _format_gate_reference(g, w)

    def test_gate_outside_width_is_refused(self):
        # Circuit's errors, not an IndexError from the wire names
        with pytest.raises(ValueError, match="outside width 2"):
            format_gate(mct((), 3), 2)
        with pytest.raises(ValueError, match="outside width 3"):
            format_gate(mct({4}, 0), 3)
        with pytest.raises(ValueError, match="at least 1"):
            format_gate(mct((), 0), 0)

    def test_header_omitted_when_order_is_natural(self):
        assert format_circuit(parse_circuit("NOT(a) CNOT(a, b)")) == "NOT(a) CNOT(a, b)"

    def test_header_emitted_when_needed(self):
        c = parse_circuit("wires: a b\nNOT(b)")
        assert format_circuit(c) == "wires: a b\nNOT(b)"

    def test_empty_circuit_formats(self):
        assert format_circuit(Circuit.empty(1)) == ""
        assert format_circuit(Circuit.empty(3)) == "wires: a b c"

    def test_annotations_survive(self):
        text = "NOT(a) # [ NOT(a) ] CNOT(a, b)"
        c = parse_circuit(text)
        again = parse_circuit(format_circuit(c))
        assert again == c
        assert again.insertion_point == c.insertion_point
        assert again.bracket == c.bracket

    def test_peak_memory_per_gate(self):
        # the tokens, the text and one id in flight per gate, about 37 bytes
        # each over the few thousand distinct gates that a draw makes
        c = gen_random_circuit(GeneratorConfig(width=10, gates=200_000, seed=5))
        assert len({id(g) for g in c.gates}) < 10_000
        tracemalloc.start()
        try:
            text = format_circuit(c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert text.count("(") == len(c)
        assert peak < 64 * len(c)

    def test_peak_memory_per_distinct_gate(self):
        # each gate a separate object: its wire list, letters and token,
        # about 270 bytes each
        drawn = gen_random_circuit(GeneratorConfig(width=12, gates=200_000, seed=5))
        c = Circuit._of(12, tuple(mct(g.controls, g.target) for g in drawn.gates))
        tracemalloc.start()
        try:
            text = format_circuit(c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert text.count("(") == len(c)
        assert peak < 320 * len(c)

    def test_too_wide_for_letters(self):
        with pytest.raises(ValueError):
            format_circuit(Circuit.empty(27))

    @given(circuits())
    @settings(max_examples=150)
    def test_round_trip(self, c):
        again = parse_circuit(format_circuit(c))
        assert again == c
        assert again.width == c.width
        assert again.insertion_point == c.insertion_point
        assert again.bracket == c.bracket

    @given(circuits(max_width=26, max_controls=25))
    @settings(max_examples=150)
    def test_round_trip_up_to_26_wires(self, c):
        text = format_circuit(c)
        assert text == format_reference(c)
        again = parse_circuit(text)
        assert again == c
        assert again.width == c.width
        assert again.insertion_point == c.insertion_point
        assert again.bracket == c.bracket


class TestDistinctObjects:
    """Checks and formatting visit each distinct gate object once, by
    identity; equal gates that are separate objects must not change the
    outcome."""

    @given(circuits(max_width=6, max_gates=16))
    @settings(max_examples=150)
    def test_equal_gates_as_separate_objects(self, c):
        gates = tuple(mct(g.controls, g.target) for g in c.gates * 2)
        copy = Circuit(c.width, gates, c.insertion_point, c.bracket)
        assert copy == Circuit(c.width, c.gates * 2)
        assert format_circuit(copy) == format_reference(copy)

    @given(circuits(max_width=6, max_gates=16), st.integers(min_value=1, max_value=6))
    @settings(max_examples=150)
    def test_first_offending_gate_is_named(self, c, width):
        gates = tuple(mct(g.controls, g.target) for g in c.gates * 2)
        bad = [g for g in gates if max(g.wires) >= width]
        if not bad:
            assert Circuit(width, gates).gates == gates
            return
        with pytest.raises(ValueError) as e:
            Circuit(width, gates)
        assert str(e.value) == f"gate {bad[0]} uses a wire outside width {width}"


class TestUncheckedResults:
    """The parser, the edit operations and the reducers wrap their gates
    without the checks of ``Circuit(...)``; each result must be the
    circuit the checking constructor builds from the same values."""

    @staticmethod
    def _assert_checked(out, insertion_point=None, bracket=None):
        checked = Circuit(out.width, out.gates, insertion_point, bracket)
        assert out == checked and type(out.gates) is tuple
        assert format_circuit(out) == format_circuit(checked)

    @given(circuits(max_width=6, max_gates=12), circuits(max_width=6, max_gates=12),
           st.integers(min_value=0, max_value=12))
    @settings(max_examples=200)
    def test_results_equal_checked_circuits(self, c, other, point):
        parsed = parse_circuit(format_circuit(c))
        self._assert_checked(parsed, parsed.insertion_point, parsed.bracket)
        self._assert_checked(inverse(c))
        self._assert_checked(concat(c, c))
        self._assert_checked(insert_segment(c, inverse(c), min(point, len(c))))
        if other.width == c.width:
            self._assert_checked(concat(c, other))
            self._assert_checked(insert_segment(other, c, min(point, len(other))))
        for reduce in (eliminate_ntris, remove_trivial_identities):
            self._assert_checked(reduce(concat(c, inverse(c)))[0])
            self._assert_checked(reduce(c)[0])


class TestEditing:
    def test_concat(self):
        a = parse_circuit("NOT(a) CNOT(a, b)")
        b = parse_circuit("wires: a b\nNOT(b)")
        assert format_circuit(concat(a, b)) == "NOT(a) CNOT(a, b) NOT(b)"

    def test_concat_width_mismatch(self):
        with pytest.raises(WidthMismatchError):
            concat(parse_circuit("NOT(a)"), parse_circuit("CNOT(a, b)"))

    def test_concat_drops_annotations(self):
        a = parse_circuit("NOT(a) #")
        assert concat(a, a).insertion_point is None

    def test_insert_segment_at_gap(self):
        host = parse_circuit("NOT(a) CNOT(a, b)")
        seg = parse_circuit("wires: a b\nNOT(b)")
        out = insert_segment(host, seg, 1)
        assert format_circuit(out) == "NOT(a) NOT(b) CNOT(a, b)"

    def test_insert_segment_bounds(self):
        host = parse_circuit("NOT(a) NOT(a)")
        with pytest.raises(IndexError):
            insert_segment(host, host, 3)
        with pytest.raises(IndexError):
            insert_segment(host, host, -1)

    def test_insert_segment_width_mismatch(self):
        with pytest.raises(WidthMismatchError):
            insert_segment(parse_circuit("NOT(a)"), parse_circuit("CNOT(a, b)"), 0)

    def test_insert_at_ends(self):
        host = parse_circuit("NOT(a) NOT(a)")
        seg = parse_circuit("NOT(a)")
        assert insert_segment(host, seg, 0).gates == seg.gates + host.gates
        assert insert_segment(host, seg, 2).gates == host.gates + seg.gates

    def test_inverse_reverses_gate_order(self):
        c = parse_circuit("NOT(a) CNOT(a, b)")
        assert format_circuit(inverse(c)) == "CNOT(a, b) NOT(a)"

    def test_inverse_of_empty(self):
        assert inverse(Circuit.empty(2)) == Circuit.empty(2)
