"""Machine parsing and classical execution against hand-worked oracles.

Expected values in this file were derived by hand on paper (parse trees,
step-by-step tape traces) before the implementation existed; they must not
be regenerated from the code under test.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from support import (
    BINARY_INC,
    CENSUS_SIZE,
    HALT_NOW,
    LOOP_STAY,
    MOVE_RIGHT_3,
    census_machine,
    corpus_machine,
    corpus_text,
    machines,
)

from pulsehit import machine
from pulsehit.errors import (
    IllFormedMachineError,
    MachineSemanticsError,
    MachineSyntaxError,
    ParameterRangeError,
)
from pulsehit.machine import (
    Configuration,
    Halted,
    Rule,
    StillRunning,
    classical_run,
    classical_trace,
    parse_machine,
    read_document,
    serialize_machine,
)

def test_parse_move_right_3_field_by_field():
    spec = parse_machine(corpus_text("move-right-3"))
    assert spec.states == ("q0", "q1", "q2", "qH")
    assert spec.alphabet == ("_",)
    assert spec.blank == "_"
    assert spec.start_state == "q0"
    assert spec.halt_state == "qH"
    assert spec.input_word == ()
    assert spec.rules == (
        Rule("q0", "_", "q1", "_", "R"),
        Rule("q1", "_", "q2", "_", "R"),
        Rule("q2", "_", "qH", "_", "R"),
    )


def test_parse_compact_input_splits_into_characters():
    spec = parse_machine(corpus_text("binary-inc"))
    assert spec.input_word == ("1", "1", "1")


def test_parse_multichar_symbols_input_stays_tokenized():
    doc = """\
states: q0 qH
alphabet: _ aa bb
start: q0
halt: qH
input: aa bb
rule: q0 aa -> qH bb S
"""
    spec = parse_machine(doc)
    assert spec.alphabet == ("_", "aa", "bb")
    assert spec.input_word == ("aa", "bb")


def test_initial_configuration_lays_out_input_from_cell_zero():
    c = next(classical_trace(BINARY_INC, 10))
    assert c == Configuration("q0", 0, {0: "1", 1: "1", 2: "1"}, 0)


def test_classical_run_move_right_3_halts_at_step_3():
    out = classical_run(MOVE_RIGHT_3, 100)
    assert isinstance(out, Halted)
    assert out.steps == 3
    assert out.final == Configuration("qH", 3, {}, 3)


def test_classical_run_binary_inc_hand_trace():
    # hand trace: three 1s flip to 0 while moving right (steps 1..3), then
    # the blank at cell 3 becomes 1 and the machine halts in place (step 4)
    out = classical_run(BINARY_INC, 100)
    assert isinstance(out, Halted)
    assert out.steps == 4
    assert out.final == Configuration("qH", 3, {0: "0", 1: "0", 2: "0", 3: "1"}, 4)


def test_classical_run_halt_now_is_zero_steps():
    out = classical_run(HALT_NOW, 10)
    assert isinstance(out, Halted)
    assert out.steps == 0
    assert out.final == Configuration("q0", 0, {}, 0)


def test_classical_run_loop_reports_still_running_at_bound():
    out = classical_run(LOOP_STAY, 57)
    assert isinstance(out, StillRunning)
    assert out.at == Configuration("q0", 0, {}, 57)


def test_classical_run_exact_boundary():
    # halting exactly at the bound still counts as halted
    assert isinstance(classical_run(MOVE_RIGHT_3, 3), Halted)
    out = classical_run(MOVE_RIGHT_3, 2)
    assert isinstance(out, StillRunning)
    assert out.at.state == "q2"


def test_classical_run_rejects_a_cap_that_is_not_a_nonnegative_int():
    # scan-5 halts at step 6: an unchecked 2.5 would run past the cap to
    # Halted(6) instead of stopping, and -1 would be a bare ValueError
    spec = corpus_machine("scan-5")
    for cap in (2.5, -1):
        with pytest.raises(ParameterRangeError, match="max_steps"):
            classical_run(spec, cap)


def test_trace_of_halted_start_yields_one_configuration():
    assert list(classical_trace(HALT_NOW, 10)) == [Configuration("q0", 0, {}, 0)]


def test_trace_missing_rule_raises():
    doc = """\
states: q0 qH
alphabet: _ 1
start: q0
halt: qH
input: 1
rule: q0 _ -> qH _ S
"""
    spec = parse_machine(doc)
    trace = classical_trace(spec, 10)
    assert next(trace) == Configuration("q0", 0, {0: "1"}, 0)
    with pytest.raises(IllFormedMachineError, match=r"^no rule for \('q0', '1'\) at step 0$"):
        next(trace)


def test_classical_trace_yields_each_configuration():
    cs = list(classical_trace(MOVE_RIGHT_3, 10))
    assert [c.step_count for c in cs] == [0, 1, 2, 3]
    assert [c.state for c in cs] == ["q0", "q1", "q2", "qH"]
    assert [c.head for c in cs] == [0, 1, 2, 3]


def test_trace_truncates_at_bound():
    cs = list(classical_trace(LOOP_STAY, 4))
    assert len(cs) == 5
    assert all(c.state == "q0" for c in cs)


def test_trace_builds_the_rule_table_once_and_matches_stepping(monkeypatch):
    # the hand trace of test_classical_run_binary_inc_hand_trace, one
    # snapshot per step
    stepped = [
        Configuration("q0", 0, {0: "1", 1: "1", 2: "1"}, 0),
        Configuration("q0", 1, {0: "0", 1: "1", 2: "1"}, 1),
        Configuration("q0", 2, {0: "0", 1: "0", 2: "1"}, 2),
        Configuration("q0", 3, {0: "0", 1: "0", 2: "0"}, 3),
        Configuration("qH", 3, {0: "0", 1: "0", 2: "0", 3: "1"}, 4),
    ]
    builds = []
    real = machine.rule_table

    def counting_table(s):
        builds.append(s)
        return real(s)

    monkeypatch.setattr(machine, "rule_table", counting_table)
    assert list(classical_trace(BINARY_INC, 20)) == stepped
    assert len(builds) == 1


def test_same_snapshot_ignores_step_count():
    a = Configuration("q0", 0, {}, 0)
    b = Configuration("q0", 0, {}, 7)
    assert a != b
    assert a.same_snapshot(b)


def test_serialize_round_trip_on_fixture():
    again = parse_machine(serialize_machine(BINARY_INC))
    assert again == BINARY_INC


# -- error reporting --------------------------------------------------------


# tab, no-break space and em space are whitespace; each shifts a column by one
WHITESPACE_PREFIXES = [("", 0), ("\t", 1), ("\u00a0", 1), ("\u2003", 1), (" \t\u2003", 3)]


def test_unknown_directive_has_line_and_col():
    for prefix, shift in WHITESPACE_PREFIXES:
        with pytest.raises(MachineSyntaxError) as ei:
            parse_machine("states: q0\n" + prefix + "bogus: x\n")
        assert ei.value.line == 2
        assert ei.value.col == 1 + shift
        assert "bogus" in str(ei.value)


def test_a_byte_that_is_not_utf8_has_line_and_col(tmp_path):
    # columns count characters, as the parser's do: the em space and the
    # two-byte e-acute before the bad byte are one column each
    path = tmp_path / "bad.tm"
    for raw, line, col in (
        (b"\xff", 1, 1),
        (b"states: q0\n", 2, 1),
        (b"states: q0\r\nalphabet:\xe2\x80\x83_ \xc3\xa9", 2, 14),
        (b"# \xc3\xa9\n\nstart: q\xe2\x82", 3, 9),  # a truncated sequence
    ):
        path.write_bytes(raw + b"\xff\n")
        with pytest.raises(MachineSyntaxError, match="is not UTF-8") as ei:
            read_document(path)
        assert (ei.value.line, ei.value.col) == (line, col)
    path.write_bytes("states: q\u00e9 qH\n".encode("utf-8"))
    assert read_document(path) == "states: q\u00e9 qH\n"


def test_malformed_rule_line():
    doc = corpus_text("move-right-3") + "rule: q0 _ q1 _ R\n"
    with pytest.raises(MachineSyntaxError, match="rule line must read"):
        parse_machine(doc)


def test_bad_move_token_reports_column():
    for prefix, shift in WHITESPACE_PREFIXES:
        doc = "states: a h\nalphabet: _\nstart: a\nhalt: h\nrule: a _ -> h _ " + prefix + "X\n"
        with pytest.raises(MachineSyntaxError) as ei:
            parse_machine(doc)
        assert ei.value.line == 5
        assert ei.value.col == 18 + shift
        assert "'X'" in str(ei.value)


def test_duplicate_rule_names_the_pair():
    doc = corpus_text("move-right-3") + "rule: q0 _ -> q2 _ L\n"
    with pytest.raises(MachineSemanticsError, match=r"\('q0', '_'\)"):
        parse_machine(doc)


def test_rule_out_of_halt_state_rejected():
    doc = corpus_text("move-right-3") + "rule: qH _ -> q0 _ S\n"
    with pytest.raises(MachineSemanticsError, match="halt state"):
        parse_machine(doc)


def test_missing_section_rejected():
    with pytest.raises(MachineSemanticsError, match="missing mandatory"):
        parse_machine("states: q0\nalphabet: _\nstart: q0\n")


def test_duplicate_section_rejected():
    with pytest.raises(MachineSemanticsError, match="duplicate section"):
        parse_machine(corpus_text("halt-now") + "start: q0\n")


def test_undeclared_state_in_rule():
    doc = "states: a h\nalphabet: _\nstart: a\nhalt: h\nrule: a _ -> zz _ S\n"
    with pytest.raises(MachineSemanticsError, match="'zz'"):
        parse_machine(doc)


def test_blank_in_input_rejected():
    doc = "states: a h\nalphabet: _ 1\nstart: a\nhalt: h\ninput: _ 1\n"
    with pytest.raises(MachineSemanticsError, match="blank"):
        parse_machine(doc)


def test_compact_input_with_undeclared_character():
    doc = "states: a h\nalphabet: _ 1\nstart: a\nhalt: h\ninput: 12\n"
    with pytest.raises(MachineSemanticsError, match="'2'"):
        parse_machine(doc)


HEAD = "states: a h\nalphabet: _ 1\nstart: a\nhalt: h\n"


@pytest.mark.parametrize(
    "doc, error, message",
    [
        ("states:\nalphabet: _\nstart: a\nhalt: a\n", MachineSyntaxError,
         r"^line 1, col 1: empty 'states:' line$"),
        ("states: a a\nalphabet: _\nstart: a\nhalt: a\n", MachineSemanticsError,
         r"^duplicate state name in 'states:'$"),
        ("states: a\nalphabet:\nstart: a\nhalt: a\n", MachineSyntaxError,
         r"^line 2, col 1: empty 'alphabet:' line$"),
        ("states: a\nalphabet: _ 1 _\nstart: a\nhalt: a\n", MachineSemanticsError,
         r"^duplicate symbol in 'alphabet:'$"),
        ("states: a h\nalphabet: _\nstart: a h\nhalt: h\n", MachineSyntaxError,
         r"^line 3, col 8: 'start:' takes exactly one token$"),
        ("states: a h\nalphabet: _\nstart: b\nhalt: h\n", MachineSemanticsError,
         r"^start state 'b' is not declared$"),
        ("states: a h\nalphabet: _\nstart: a\nhalt: z\n", MachineSemanticsError,
         r"^halt state 'z' is not declared$"),
        (HEAD + "input: 1 x\n", MachineSemanticsError,
         r"^input symbol 'x' is not declared$"),
        (HEAD + "rule: a 1 -> h 2 S\n", MachineSemanticsError,
         r"^rule on line 5 references undeclared symbol '2'$"),
    ],
    ids=["empty-states", "duplicate-state", "empty-alphabet", "duplicate-symbol",
         "start-tokens", "undeclared-start", "undeclared-halt", "input-symbol",
         "rule-symbol"],
)
def test_parse_machine_refusals_name_their_rule(doc, error, message):
    with pytest.raises(error, match=message):
        parse_machine(doc)


def test_classical_run_missing_rule_raises():
    spec = parse_machine(HEAD + "input: 1\nrule: a 1 -> a 1 R\n")
    with pytest.raises(IllFormedMachineError, match=r"^no rule for \('a', '_'\) at step 1$"):
        classical_run(spec, 10)


# -- property tests ---------------------------------------------------------


@given(machines())
def test_serialize_parse_round_trip(spec):
    assert parse_machine(serialize_machine(spec)) == spec


@settings(max_examples=60)
@given(
    st.one_of(machines(), st.integers(0, CENSUS_SIZE - 1).map(census_machine)),
    st.integers(min_value=0, max_value=30),
)
def test_fast_run_agrees_with_pure_stepping(spec, n):
    # dual route: the mutable-tape loop versus the last snapshot of the
    # trace, two loops that share no code.  A machine that falls off its
    # rule table must do so in both, with the same message
    try:
        out = classical_run(spec, n)
    except IllFormedMachineError as exc:
        with pytest.raises(IllFormedMachineError) as ei:
            list(classical_trace(spec, n))
        assert str(ei.value) == str(exc)
        return
    *_, c = classical_trace(spec, n)
    if isinstance(out, Halted):
        assert c.state == spec.halt_state
        assert out.steps == c.step_count
        assert out.final == c
    else:
        assert c.state != spec.halt_state
        assert out.at == c
