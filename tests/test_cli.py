"""Command-line surface: exit codes, byte determinism, and the emitted
formats, driven through main() with in-process capture."""

import hashlib
import json
from dataclasses import replace
from fractions import Fraction
from importlib import resources
from pathlib import Path
from unittest.mock import patch

import pytest
from cli_pins import BY_NAME, PINS, ROOT, write_inputs

from pulsehit import cli
from pulsehit.cli import main
from pulsehit.hitting import fidelity_trace, hit_report_json, trace_to_csv, uhit_semidecide
from pulsehit.machine import parse_machine, read_document
from pulsehit.reduction import encode
from pulsehit.reversible import BeaconStep, BeaconSubspace, Cyclic, ExactLabel, Unbounded

def _corpus_file(name):
    return str(Path(str(resources.files("pulsehit"))) / "corpus" / name)


@pytest.fixture
def mover():
    return _corpus_file("move-right-3.tm")


@pytest.fixture
def looper():
    return _corpus_file("loop-stay.tm")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- range checks ------------------------------------------------------------------

# The shortest valid invocation of each command; MOVER and EMPTY stand for
# a machine file and an empty corpus manifest.
BASE = {
    "compile": ("compile", "MOVER"),
    "hit": ("hit", "MOVER"),
    "trace": ("trace", "MOVER"),
    "evolve": ("evolve", "MOVER", "--time", "1"),
    "verify": ("verify",),
    "sweep": ("sweep", "--budgets", "10"),
}


def _case(cmd, *flags, want):
    return pytest.param((*BASE[cmd], *flags), want, id=" ".join((cmd, *flags)))


# Each flag value below parses, and is then rejected by the library's own
# typed check: the CLI adds no range check of its own.
@pytest.mark.parametrize(
    "argv, want",
    [
        *(
            _case(cmd, "--epsilon", eps, want="pulsehit: error: epsilon must")
            for cmd in ("compile", "hit", "trace", "verify", "sweep")
            for eps in ("1/2", "0")
        ),
        *(
            _case(cmd, "--delta", "1", want="pulsehit: error: delta must")
            for cmd in ("compile", "hit", "trace", "evolve", "verify", "sweep")
        ),
        *(
            _case(cmd, "--horizon", "0", want="pulsehit: error: horizon must")
            for cmd in ("compile", "hit", "trace", "verify")
        ),
        *(
            _case(cmd, "--grid", "0", want="pulsehit: error: grid must")
            for cmd in ("compile", "hit", "trace")
        ),
        _case("hit", "--epsilon", "1/2", "--grid", "3", want="pulsehit: error: epsilon must"),
        pytest.param(("evolve", "MOVER", "--time=-1/2"), "pulsehit: error: time must",
                     id="evolve --time=-1/2"),
        _case("trace", "--format", "xml",
              want="pulsehit trace: error: argument --format: invalid choice: 'xml'"),
        _case("verify", "--corpus", "EMPTY", "--delta", "1", want="pulsehit: error: delta must"),
        _case("verify", "--corpus", "EMPTY", "--epsilon", "1/2",
              want="pulsehit: error: epsilon must"),
        _case("verify", "--corpus", "EMPTY", "--horizon", "0",
              want="pulsehit: error: horizon must"),
        _case("sweep", "--budgets", "100", "--family-cap", "5", "--epsilon", "1/2",
              want="pulsehit: error: epsilon must"),
    ],
)
def test_out_of_range_flags_exit_one_naming_the_parameter(capsys, mover, tmp_path, argv, want):
    empty = tmp_path / "empty.json"
    empty.write_text("[]")
    argv = [{"MOVER": mover, "EMPTY": str(empty)}.get(arg, arg) for arg in argv]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert any(line.startswith(want) for line in err.splitlines()), err


def test_parameters_are_checked_before_an_exact_target_walks(capsys, mover, monkeypatch):
    def no_walk(self, label):
        raise AssertionError("stepped before the range check")

    monkeypatch.setattr(BeaconStep, "forward", no_walk)
    code, out, err = run(capsys, "hit", mover, "--target", "exact:5", "--epsilon", "1/2")
    assert (code, out) == (1, "")
    assert "pulsehit: error: epsilon must" in err


@pytest.mark.parametrize("bad", ["machine", "manifest", "listed machine"])
def test_a_document_that_is_not_utf8_exits_one_without_a_traceback(capsys, tmp_path, bad):
    machine = tmp_path / "m.tm"
    manifest = tmp_path / "manifest.json"
    machine.write_bytes(
        b"states: q0 q1 q2 qH\nalphabet: _\nstart: q0\nhalt: qH\n"
        b"rule: q0 _ -> q1 _ R\nrule: q1 _ -> q2 _ R\nrule: q2 _ -> qH _ R\n"
        + (b"# \xff\n" if bad != "manifest" else b"")
    )
    manifest.write_bytes(
        b'[{"name": "m", "machine_file": "m.tm", "ground_truth": {"kind": "halts", "K": 3}}]'
        + (b"\xff" if bad == "manifest" else b"")
    )
    argv = ("hit", str(machine)) if bad == "machine" else ("verify", "--corpus", str(manifest))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    want = "manifest is not valid JSON: line 1, col 83" if bad == "manifest" else "line 8, col 3"
    assert err == f"pulsehit: error: {want}: byte 0xff is not UTF-8\n"


@pytest.mark.parametrize(
    "cmd, flag, value",
    [(cmd, "--format", "json") for cmd in ("compile", "hit", "evolve", "verify", "sweep")]
    + [("verify", "--grid", "3"), ("verify", "--target", "beacon")],
)
def test_flags_a_command_does_not_read_are_rejected(capsys, mover, cmd, flag, value):
    argv = [mover if arg == "MOVER" else arg for arg in (*BASE[cmd], flag, value)]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert f"pulsehit: error: unrecognized arguments: {flag} {value}" in err


# -- compile -----------------------------------------------------------------------


def test_compile_defaults_echo_the_instance(capsys, mover):
    code, out, err = run(capsys, "compile", mover)
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["epsilon"] == "1/4"
    assert payload["delta"] == "1/2"
    assert payload["grid"] == 6
    assert payload["horizon"] == 100
    assert payload["clock"] == "unbounded"
    assert payload["target"] == "beacon"
    assert payload["machine"]["start"] == "q0"
    assert payload["machine"]["rules"][0] == ["q0", "_", "q1", "_", "R"]


def test_compile_is_byte_deterministic(capsys, mover):
    first = run(capsys, "compile", mover)
    second = run(capsys, "compile", mover)
    assert first == second


def test_compile_rejects_out_of_range_epsilon(capsys, mover):
    code, out, err = run(capsys, "compile", mover, "--epsilon", "3/4")
    assert code == 1 and out == ""
    assert "epsilon" in err


def test_float_spellings_are_rejected(capsys, mover):
    code, _out, err = run(capsys, "compile", mover, "--epsilon", "0.25")
    assert code == 1
    assert "exact rational" in err
    code, _out, err = run(capsys, "compile", mover, "--delta", "0.5")
    assert code == 1


# Digits of other scripts ("٣" is ARABIC-INDIC THREE, "²" SUPERSCRIPT TWO)
# and int()'s underscores are refused with the CLI's own message, like any
# other malformed number.
@pytest.mark.parametrize(
    "argv, want",
    [
        _case("evolve", "--time", "٣", want="argument --time: expected an exact rational"),
        _case("hit", "--epsilon", "١/٥", want="argument --epsilon: expected an exact rational"),
        _case("hit", "--delta", "1/٢", want="argument --delta: expected an exact rational"),
        _case("hit", "--clock", "cyclic:٣", want="argument --clock: expected unbounded or cyclic:L"),
        _case("trace", "--target", "exact:٣",
              want="argument --target: expected beacon, exact, or exact:N"),
        _case("sweep", "--budgets", "²", want="argument --budgets: expected a comma list"),
        _case("sweep", "--budgets", "10,٣", want="argument --budgets: expected a comma list"),
        *(
            _case(cmd, flag, value, want=f"argument {flag}: expected an integer")
            for cmd, flag in (("compile", "--horizon"), ("verify", "--horizon"),
                              ("hit", "--grid"), ("sweep", "--family-cap"))
            for value in ("٣", "1_000", "+5", "")
        ),
    ],
)
def test_numbers_are_ascii_digits_only(capsys, mover, argv, want):
    argv = [mover if arg == "MOVER" else arg for arg in argv]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert want in err.splitlines()[-1], err


def test_integer_flags_take_ascii_digits_and_a_sign(capsys, mover):
    code, out, _err = run(capsys, "compile", mover, "--horizon", "0042", "--grid", "5")
    assert code == 0 and json.loads(out)["horizon"] == 42
    code, out, err = run(capsys, "compile", mover, "--horizon", "-5")
    assert (code, out) == (1, "")
    assert err.startswith("pulsehit: error: horizon must"), err


# -- hit ---------------------------------------------------------------------------


def test_hit_exit_zero_and_report(capsys, mover):
    code, out, err = run(capsys, "hit", mover, "--horizon", "10")
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["outcome"] == "hit"
    assert payload["t"] == "7/2"


def test_hit_exhausted_exits_two(capsys, looper):
    code, out, _err = run(capsys, "hit", looper, "--horizon", "10")
    assert code == 2
    payload = json.loads(out)
    assert payload["outcome"] == "exhausted"
    assert payload["max_fidelity"] == 0.0


def test_hit_on_cyclic_clock_finds_the_mid_pulse_crossing(capsys, mover):
    # the exact label 4 steps in sits on the 2-cycle past the halt, lit on
    # every other position like the beacon, so its crossing is the same
    # exact Niven value
    for extra in ([], ["--grid", "3", "--target", "exact:4"]):
        argv = ["hit", mover, "--clock", "cyclic:2", "--horizon", "10", *extra]
        code, out, _err = run(capsys, *argv)
        assert code == 0
        payload = json.loads(out)
        assert payload["t"] == "10/3" and payload["fidelity"] == 0.75


def test_hit_exact_targets(capsys, mover):
    code, out, _err = run(capsys, "hit", mover, "--target", "exact", "--horizon", "10")
    assert code == 0 and json.loads(out)["t"] == "0"
    code, out, _err = run(capsys, "hit", mover, "--target", "exact:2", "--horizon", "10")
    assert code == 0 and json.loads(out)["t"] == "3/2"
    code, _out, err = run(capsys, "hit", mover, "--target", "nearby")
    assert code == 1 and "target" in err


@pytest.mark.parametrize("clock", [(), ("--clock", "cyclic:7", "--grid", "5")],
                         ids=["unbounded", "cyclic:7"])
@pytest.mark.parametrize("cmd", ["hit", "trace"])
def test_an_exact_label_past_the_scan_costs_the_horizon_not_n(capsys, cmd, clock):
    # loop-blink never halts, so no label past step horizon + 1 = 11 is
    # one the scan meets: exact:1000000 walks 11 steps and reads 0 where
    # the true label 12 steps in reads 0
    argv = (cmd, _corpus_file("loop-blink.tm"), "--horizon", "10", *clock)
    far = run(capsys, *argv, "--target", "exact:1000000")
    near = run(capsys, *argv, "--target", "exact:12")
    assert far == near
    inst = encode(parse_machine(read_document(Path(argv[1]))), Fraction(1, 4), Fraction(1, 2),
                  Cyclic(7) if clock else Unbounded(), BeaconSubspace(), 10, 5 if clock else None)
    step = BeaconStep(inst.machine, inst.schedule.clock)
    inst = replace(inst, target=ExactLabel(step.advance(step.initial_label(), 12)))
    if cmd == "hit":
        want = (2, hit_report_json(uhit_semidecide(inst)) + "\n", "")
    else:
        want = (0, trace_to_csv(fidelity_trace(inst)), "")
    assert near == want


def test_an_exact_label_off_the_cycle_reads_zero_mid_pulse(capsys):
    # move-right-3's initial label is not on its post-halt cycle
    code, out, err = run(capsys, "trace", _corpus_file("move-right-3.tm"), "--clock",
                         "cyclic:3", "--grid", "5", "--target", "exact", "--horizon", "6")
    assert (code, err) == (0, "")
    rows = [line.split(",") for line in out.splitlines()[1:]]
    mid = [fid for t, fid in rows if Fraction(t) % 1 not in (0, Fraction(1, 2))]
    assert len(mid) == 4 * 3  # G - 1 points in each pulse from the halt at 3
    assert set(mid) == {"0.000000000000"}


def test_bad_machine_file_exits_one_with_diagnostics(capsys, tmp_path):
    bad = tmp_path / "bad.tm"
    bad.write_text("states q0\n")
    code, out, err = run(capsys, "hit", str(bad))
    assert code == 1 and out == ""
    assert "error" in err
    code, _out, err = run(capsys, "hit", str(tmp_path / "missing.tm"))
    assert code == 1


def test_cyclic_period_below_two_exits_one(capsys, mover):
    code, _out, err = run(capsys, "hit", mover, "--clock", "cyclic:1")
    assert code == 1 and "period" in err
    code, _out, err = run(capsys, "hit", mover, "--clock", "sometimes")
    assert code == 1


# -- trace -------------------------------------------------------------------------


def test_trace_header_and_looper_cells(capsys, looper):
    code, out, _err = run(capsys, "trace", looper, "--horizon", "8")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "t,fidelity"
    for line in lines[1:]:
        assert line.endswith(",0.000000000000")


def test_trace_integer_rows_alternate_after_first_lit_pulse(capsys, mover):
    code, out, _err = run(capsys, "trace", mover, "--horizon", "8", "--grid", "1")
    assert code == 0
    integer_fids = []
    for line in out.splitlines()[1:]:
        t, fid = line.split(",")
        if "/" not in t and "." not in t:
            integer_fids.append(fid)
    assert integer_fids == [
        "0.000000000000",
        "0.000000000000",
        "0.000000000000",
        "0.000000000000",
        "1.000000000000",
        "0.000000000000",
        "1.000000000000",
        "0.000000000000",
        "1.000000000000",
    ]


def test_trace_json_format(capsys, mover):
    code, out, _err = run(capsys, "trace", mover, "--horizon", "5", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert rows[0] == ["0", 0.0]
    assert ["7/2", 1.0] in rows


def test_csv_format_is_only_for_trace(capsys, mover):
    _code, default, _err = run(capsys, "trace", mover, "--horizon", "5")
    assert run(capsys, "trace", mover, "--horizon", "5", "--format", "csv") == (0, default, "")
    code, out, err = run(capsys, "hit", mover, "--format", "csv")
    assert (code, out) == (1, "")
    assert "pulsehit: error: unrecognized arguments: --format csv" in err


# -- evolve ------------------------------------------------------------------------


def test_evolve_dumps_the_state(capsys, mover):
    code, out, err = run(capsys, "evolve", mover, "--time", "7/2")
    assert code == 0 and err == ""
    rows = json.loads(out)
    assert len(rows) == 1
    serial, re_part, im_part = rows[0]
    bytes.fromhex(serial)
    assert (re_part, im_part) == (1.0, 0.0)


def test_evolve_mid_pulse_superposition(capsys, mover):
    code, out, _err = run(capsys, "evolve", mover, "--time", "13/4", "--clock", "cyclic:2")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 2
    total = sum(re * re + im * im for _, re, im in rows)
    assert abs(total - 1.0) < 1e-12


def test_evolve_requires_a_time(capsys, mover):
    code, _out, err = run(capsys, "evolve", mover)
    assert code == 1 and "--time" in err


def test_evolve_rejects_negative_time(capsys, mover):
    code, out, err = run(capsys, "evolve", mover, "--time=-1/2")
    assert (code, out) == (1, "")
    assert "pulsehit: error: time must be nonnegative, got -1/2" in err


def test_evolve_mid_pulse_refusal_exits_one(capsys, mover):
    # pre-halt mid-pulse points have no finite description on a cyclic clock
    code, _out, err = run(capsys, "evolve", mover, "--time", "1/4", "--clock", "cyclic:2")
    assert code == 1 and err != ""


# -- verify ------------------------------------------------------------------------


def test_verify_builtin_corpus_agrees(capsys):
    code, out, err = run(capsys, "verify", "--horizon", "300")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert len(lines) == 17
    for line in lines:
        assert json.loads(line)["verdict"] == "agree"


def test_verify_explicit_corpus_path(capsys):
    manifest = _corpus_file("manifest.json")
    code, out, _err = run(capsys, "verify", "--corpus", manifest, "--horizon", "250")
    assert code == 0
    assert len(out.splitlines()) == 17


def test_verify_is_byte_deterministic(capsys):
    first = run(capsys, "verify", "--horizon", "300")
    second = run(capsys, "verify", "--horizon", "300")
    assert first == second


# -- sweep -------------------------------------------------------------------------


def test_sweep_emits_witness_lines(capsys):
    code, out, err = run(capsys, "sweep", "--budgets", "10,20")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert len(lines) == 2
    first = json.loads(lines[0])
    assert first["witness"] == {"K": 11, "n": 10, "name": "counter-10"}
    assert first["outcome"] == "reported-unreachable"
    assert json.loads(lines[1])["witness"]["n"] == 20


def test_sweep_rejects_malformed_budget_lists(capsys):
    code, _out, err = run(capsys, "sweep", "--budgets", "10,x")
    assert code == 1 and "positive integers" in err
    code, _out, _err = run(capsys, "sweep", "--budgets", "0")
    assert code == 1


def test_sweep_family_cap_failure_exits_one(capsys):
    code, _out, err = run(capsys, "sweep", "--budgets", "50", "--family-cap", "10")
    assert code == 1 and "witness" in err


def test_sweep_rejects_a_negative_family_cap(capsys):
    code, out, err = run(capsys, "sweep", "--budgets", "5", "--family-cap", "-3")
    assert (code, out) == (1, "")
    assert "family_cap must be a nonnegative integer" in err


# -- plumbing ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv, want",
    [
        *((argv, 0) for argv in BASE.values()),
        (("hit", "MOVER", "--horizon", "1"), 2),  # exhausted: a negative verdict
    ],
    ids=[*BASE, "hit exhausted"],
)
def test_out_flag_writes_the_same_bytes(capsys, mover, tmp_path, argv, want):
    argv = [mover if arg == "MOVER" else arg for arg in argv]
    dest = tmp_path / "out.txt"
    assert run(capsys, *argv, "--out", str(dest)) == (want, "", "")
    assert run(capsys, *argv) == (want, dest.read_text(), "")


def test_no_command_exits_one(capsys):
    code, _out, err = run(capsys)
    assert code == 1 and err != ""


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [("hit", "MOVER"), ("compile", "MOVER"), ("trace", "MOVER", "--horizon", "6")],
    ids=["hit", "compile", "trace"],
)
def test_spelled_out_defaults_print_the_defaults_bytes(capsys, mover, argv):
    argv = [mover if arg == "MOVER" else arg for arg in argv]
    default = run(capsys, *argv)
    assert run(capsys, *argv, "--clock", "unbounded", "--target", "beacon") == default


def test_main_builds_one_parser_per_process(capsys, mover):
    built = []
    init = cli._Parser.__init__

    def spy(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    with patch.object(cli._Parser, "__init__", spy):
        run(capsys, "hit", mover)
        run(capsys, "verify", "--horizon", "10")
    assert built.count("pulsehit") <= 1
    assert cli.build_parser() is cli.build_parser()


def test_a_shared_parser_answers_as_a_fresh_one(capsys, mover):
    # an argument error and --help first, then three commands, all in one
    # process: the same bytes and exit codes as a new parser for each call
    sequence = [
        ("hit", mover, "--clock", "bogus"),
        ("--help",),
        ("verify", "--horizon", "100"),
        ("hit", mover, "--clock", "cyclic:3"),
        ("sweep", "--budgets", "10,20"),
    ]
    shared = [run(capsys, *argv) for argv in sequence]
    with patch.object(cli, "build_parser", cli.build_parser.__wrapped__):
        fresh = [run(capsys, *argv) for argv in sequence]
    assert shared == fresh
    assert [code for code, _out, _err in shared] == [1, 0, 0, 0, 0]


# -- frozen stdout bytes -----------------------------------------------------------

# Exact stdout of three commands, checked byte for byte rather than through
# parsed fields: a changed byte here is a changed output format.
FROZEN_TRACE_CSV = (
    't,fidelity\n'
    '0,0.000000000000\n'
    '0.5,0.000000000000\n'
    '1,0.000000000000\n'
    '1.5,0.000000000000\n'
    '2,0.000000000000\n'
    '2.5,0.000000000000\n'
    '3,0.000000000000\n'
    '3.1,0.014662890139\n'
    '3.2,0.045494954396\n'
    '3.3,0.056116213642\n'
    '3.4,0.027777777778\n'
    '3.5,0.000000000000\n'
    '4,0.000000000000\n'
    '4.1,0.058010721896\n'
    '4.2,0.263114887639\n'
    '4.3,0.581235765013\n'
    '4.4,0.878346223893\n'
    '4.5,1.000000000000\n'
    '5,1.000000000000\n'
    '5.1,0.878346223893\n'
    '5.2,0.581235765013\n'
    '5.3,0.263114887639\n'
    '5.4,0.058010721896\n'
    '5.5,0.000000000000\n'
    '6,0.000000000000\n'
    '6.1,0.027777777778\n'
    '6.2,0.056116213642\n'
    '6.3,0.045494954396\n'
    '6.4,0.014662890139\n'
    '6.5,0.000000000000\n'
    '7,0.000000000000\n'
    '7.1,0.011499383155\n'
    '7.2,0.027777777778\n'
    '7.3,0.026260401531\n'
    '7.4,0.009703003139\n'
    '7.5,0.000000000000\n'
    '8,0.000000000000\n'
)

FROZEN_HIT = (
    '{"fidelity": 0.9045084971874736, "outcome": "hit", "t": "17/5", "window": ["3", "7/2"]}\n'
)

FROZEN_SWEEP = (
    '{"budget": {"e_max": 10, "tau_max": "10"}, "outcome": "reported-unreachable", "resources": {"time_used": "10", "work_used": 10}, "witness": {"K": 11, "n": 10, "name": "counter-10"}}\n'
    '{"budget": {"e_max": 20, "tau_max": "20"}, "outcome": "reported-unreachable", "resources": {"time_used": "20", "work_used": 20}, "witness": {"K": 21, "n": 20, "name": "counter-20"}}\n'
)

CYCLIC_FLAGS = ("--clock", "cyclic:3", "--grid", "5")


@pytest.mark.parametrize(
    "argv, want",
    [
        (
            ("trace", "MOVER", *CYCLIC_FLAGS, "--target", "exact:5", "--horizon", "8",
             "--format", "csv"),
            FROZEN_TRACE_CSV,
        ),
        (("hit", "MOVER", *CYCLIC_FLAGS), FROZEN_HIT),
        (("sweep", "--budgets", "10,20"), FROZEN_SWEEP),
    ],
    ids=["trace-csv", "hit", "sweep"],
)
def test_stdout_bytes_are_frozen(capsys, mover, argv, want):
    argv = [mover if arg == "MOVER" else arg for arg in argv]
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (0, want, "")


# The exact-label scan of scan-20 on a 14-cycle: 2318 lines, 1516 of them
# mid-pulse closed-form weight sums, too long to keep inline; its SHA-256
# was recorded from the output before labels were compared by their fields.
FROZEN_EXACT_TRACE_SHA256 = "f90b866a9d42635b9081c206e92539aa6e40b34a71083e5de346f64810fd5516"


def test_exact_label_trace_bytes_are_frozen(capsys):
    code, out, err = run(
        capsys, "trace", _corpus_file("scan-20.tm"), "--clock", "cyclic:7", "--grid", "5",
        "--target", "exact:30", "--horizon", "400",
    )
    assert (code, err) == (0, "")
    assert out.count("\n") == 2318
    assert hashlib.sha256(out.encode()).hexdigest() == FROZEN_EXACT_TRACE_SHA256


# The same exact-label scan on longer cycles, each frozen as (line count, MD5):
# - a 2048-cycle (period 1024) at grid 5, recorded when every point summed
#   all 2048 weights;
# - a 194-cycle (period 97) at grid 6, where j/G reduces for j = 2, 3, 4,
#   recorded when the closed form's arguments were reduced as Fractions.
@pytest.mark.parametrize(
    "period, grid, horizon, lines, md5",
    [
        (1024, 5, 3000, 17918, "e416b369404abf883248ab57080c74ff"),
        (97, 6, 800, 5497, "374cee08a25f8e0211537ebac5c018dc"),
    ],
    ids=["cyclic:1024-grid:5", "cyclic:97-grid:6"],
)
def test_long_cycle_exact_label_trace_bytes_are_frozen(capsys, period, grid, horizon, lines, md5):
    code, out, err = run(
        capsys, "trace", _corpus_file("scan-20.tm"), "--clock", f"cyclic:{period}",
        "--grid", str(grid), "--target", "exact:30", "--horizon", str(horizon),
    )
    assert (code, err) == (0, "")
    assert out.count("\n") == lines
    assert hashlib.md5(out.encode()).hexdigest() == md5


# -- the pinned outputs ------------------------------------------------------------


@pytest.mark.parametrize("pin", PINS, ids=lambda pin: pin.name)
def test_pinned_cli_output(pin, capsys, monkeypatch, tmp_path):
    # the table in tests/cli_pins.py, run in process; CI runs the same rows
    # as subprocesses, without the test dependencies installed
    monkeypatch.chdir(ROOT)
    write_inputs(tmp_path)
    outputs = {}
    for row in ([BY_NAME[pin.same]] if pin.same else []) + [pin]:
        code = main(row.args(str(tmp_path)))
        out, err = capsys.readouterr()
        outputs[row.name] = output = row.output(out.encode(), str(tmp_path))
    assert pin.problems(code, output, outputs, err.encode()) == []
