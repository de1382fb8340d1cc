"""Corpus loading, certificate replay, and halting-versus-hitting agreement.

Ground-truth step counts for the shipped corpus were traced by hand (and
are re-verified mechanically by certificate replay before every scan, so a
drift between file and manifest surfaces as a corpus bug, not a verdict).
"""

import json
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from support import HALF, QUARTER, corpus_text

import pulsehit
from pulsehit.cli import main
from pulsehit.errors import (
    CorpusBugError,
    IllFormedMachineError,
    MachineSyntaxError,
    ParameterRangeError,
)
from pulsehit.hitting import Exhausted, Hit, uhit_semidecide
from pulsehit.machine import Halted, classical_run, parse_machine
from pulsehit.reduction import (
    CorpusEntry,
    Halts,
    LoopsForever,
    _agrees,
    builtin_corpus,
    counter_family,
    encode,
    load_corpus,
    reduction_report_json,
    validate_entry,
    verify_corpus,
)
from pulsehit.reversible import BeaconSubspace, Cyclic, Unbounded

EXPECTED_K = {
    "halt-now": 0,
    "write-one": 1,
    "stay-then-halt": 2,
    "move-right-3": 3,
    "binary-inc": 4,
    "zigzag": 4,
    "erase-input": 4,
    "scan-5": 6,
    "scan-20": 21,
    "scan-100": 101,
    "scan-199": 200,
}

EXPECTED_LOOPERS = {
    "loop-stay",
    "loop-blink",
    "loop-write-erase",
    "loop-three-cycle",
    "loop-shuttle",
    "loop-with-prefix",
}


def by_name(corpus):
    return {e.name: e for e in corpus}


# -- corpus shape and certificates ----------------------------------------------


def test_builtin_corpus_shape():
    corpus = builtin_corpus()
    names = [e.name for e in corpus]
    assert len(names) == len(set(names)) == 17
    halting = {e.name: e.ground_truth.steps for e in corpus if isinstance(e.ground_truth, Halts)}
    loopers = {e.name for e in corpus if isinstance(e.ground_truth, LoopsForever)}
    assert halting == EXPECTED_K
    assert loopers == EXPECTED_LOOPERS
    assert len(halting) >= 10 and len(loopers) >= 5
    assert min(halting.values()) == 0 and max(halting.values()) == 200


def test_certificates_replay_for_every_entry():
    for entry in builtin_corpus():
        validate_entry(entry)


def test_manifest_step_counts_match_fresh_classical_runs():
    for entry in builtin_corpus():
        run = classical_run(entry.machine, 250)
        if isinstance(entry.ground_truth, Halts):
            assert isinstance(run, Halted)
            assert run.steps == entry.ground_truth.steps
        else:
            assert not isinstance(run, Halted)


def test_false_certificates_raise_corpus_bug():
    """Each false certificate is refused with its whole message."""
    entries = by_name(builtin_corpus())
    cases = [
        ("move-right-3", Halts(5), "claimed to halt at step 5 but the trace ended at 3"),
        ("move-right-3", Halts(2), "still in state q2 after 2 steps, not halted"),
        ("loop-stay", Halts(3), "still in state q0 after 3 steps, not halted"),
        ("halt-now", LoopsForever((0, 1)), "halts at step 0, cannot loop"),
        ("move-right-3", LoopsForever((1, 5)), "halts at step 3, cannot loop"),
        ("move-right-3", LoopsForever((1, 3)), "halts at step 3, cannot loop"),
        ("move-right-3", LoopsForever((4, 6)), "halts at step 3, cannot loop"),
        (
            "loop-shuttle",
            LoopsForever((0, 2)),
            "configurations at steps 0 and 2 differ, revisit certificate is false",
        ),
        ("loop-stay", LoopsForever((1, 1)), "malformed revisit pair (1, 1)"),
    ]
    for machine, claim, message in cases:
        with pytest.raises(CorpusBugError, match=f"^{re.escape('bad: ' + message)}$"):
            validate_entry(CorpusEntry("bad", entries[machine].machine, claim))


def test_an_unknown_ground_truth_is_a_corpus_bug():
    entry = CorpusEntry("odd", by_name(builtin_corpus())["halt-now"].machine, "halts")
    with pytest.raises(CorpusBugError, match="^odd: unknown ground truth 'halts'$"):
        validate_entry(entry)


@pytest.mark.parametrize(
    "claim", [Halts(3), LoopsForever((0, 3)), LoopsForever((2, 3))], ids=str
)
def test_a_missing_rule_before_the_claimed_step_is_an_ill_formed_machine(claim):
    """The replay runs into the missing rule before it reaches any step the
    certificate names, and reports the rule and the step."""
    machine = parse_machine(
        "states: q0 q1 qH\nalphabet: _ 1\nstart: q0\nhalt: qH\n"
        "rule: q0 _ -> q1 1 R\n"
    )
    message = "no rule for ('q1', '_') at step 1"
    with pytest.raises(IllFormedMachineError, match=f"^{re.escape(message)}$"):
        validate_entry(CorpusEntry("bad", machine, claim))


@pytest.mark.parametrize(
    "machine, claim",
    [
        ("halt-now", Halts(False)),
        ("write-one", Halts(True)),
        ("loop-stay", LoopsForever((False, True))),
        ("halt-now", Halts(0.0)),
        ("halt-now", Halts("0")),
        ("loop-stay", LoopsForever(5)),
        ("loop-stay", LoopsForever((0, 1, 2))),
    ],
    ids=str,
)
def test_certificates_built_in_code_need_integer_step_counts(machine, claim):
    """Bools would replay as 0 and 1 and print as JSON false/true, a float
    or str would escape the replay as a bare TypeError, and a revisit that
    is not a pair as a bare TypeError or ValueError; the replay refuses
    each as a corpus bug that names the entry."""
    entry = CorpusEntry("typed", by_name(builtin_corpus())[machine].machine, claim)
    with pytest.raises(CorpusBugError, match="^typed: "):
        verify_corpus([entry], QUARTER, HALF, Unbounded(), 10)


# -- verification ----------------------------------------------------------------


def test_verify_corpus_all_agree_unbounded():
    reports = verify_corpus(
        builtin_corpus(), QUARTER, HALF, Unbounded(), 300
    )
    assert len(reports) == 17
    for rep in reports:
        assert rep.verdict == "agree", rep.entry.name
        if isinstance(rep.entry.ground_truth, Halts):
            assert isinstance(rep.observed, Hit)
            assert rep.observed.t_hit == rep.entry.ground_truth.steps + HALF
            assert rep.observed.fidelity_at_hit == 1
        else:
            assert isinstance(rep.observed, Exhausted)
            assert rep.observed.max_fidelity_seen == 0


def test_verify_corpus_all_agree_cyclic():
    reports = verify_corpus(
        builtin_corpus(), QUARTER, HALF, Cyclic(8), 300
    )
    for rep in reports:
        assert rep.verdict == "agree", rep.entry.name
        if isinstance(rep.entry.ground_truth, Halts):
            k = rep.entry.ground_truth.steps
            assert Fraction(k) <= rep.observed.t_hit <= k + HALF


def test_finite_size_recovery_verdicts_match_unbounded():
    # a period comfortably above twice the largest halting step: the clock
    # cannot wrap before any hit, so verdicts coincide with the open line
    horizon = 600
    open_reports = verify_corpus(
        builtin_corpus(), QUARTER, HALF, Unbounded(), horizon
    )
    wrapped_reports = verify_corpus(
        builtin_corpus(), QUARTER, HALF, Cyclic(512), horizon
    )
    assert [r.verdict for r in open_reports] == [r.verdict for r in wrapped_reports]
    assert all(r.verdict == "agree" for r in wrapped_reports)


def test_agreement_rule_cases():
    hit_at_3 = Hit(Fraction(7, 2), 1, (Fraction(3), Fraction(7, 2)))
    assert _agrees(Halts(3), hit_at_3, QUARTER, HALF, 100)
    # detectable halt answered with exhaustion: disagree
    assert not _agrees(Halts(3), Exhausted(100, 0), QUARTER, HALF, 100)
    # window far from the halting step: disagree
    far = Hit(Fraction(21, 2), 1, (Fraction(10), Fraction(21, 2)))
    assert not _agrees(Halts(3), far, QUARTER, HALF, 100)
    # halt beyond the horizon: exhaustion is the correct answer
    assert _agrees(Halts(200), Exhausted(100, 0), QUARTER, HALF, 100)
    assert not _agrees(Halts(200), far, QUARTER, HALF, 100)
    # loopers must exhaust with the maximum under epsilon
    assert _agrees(LoopsForever((0, 1)), Exhausted(100, 0), QUARTER, HALF, 100)
    assert not _agrees(LoopsForever((0, 1)), hit_at_3, QUARTER, HALF, 100)
    assert not _agrees(LoopsForever((0, 1)), Exhausted(100, 0.5), QUARTER, HALF, 100)
    # the bounds themselves: a window that overlaps [3, 7/2] only at one
    # end agrees, one that misses it by 1/100 does not
    for window, agrees in (
        ((Fraction(7, 2), Fraction(4)), True),
        ((Fraction(7, 2) + Fraction(1, 100), Fraction(4)), False),
        ((Fraction(5, 2), Fraction(3)), True),
        ((Fraction(2), Fraction(3) - Fraction(1, 100)), False),
    ):
        assert _agrees(Halts(3), Hit(window[0], 1, window), QUARTER, HALF, 100) == agrees
    # a halt at step horizon - 1 is detectable, one at the horizon is not
    assert not _agrees(Halts(99), Exhausted(100, 0), QUARTER, HALF, 100)
    assert _agrees(Halts(100), Exhausted(100, 0), QUARTER, HALF, 100)


def test_verify_corpus_rejects_corpus_bugs_before_scanning():
    entries = by_name(builtin_corpus())
    bad = CorpusEntry("bad", entries["loop-stay"].machine, Halts(3))
    with pytest.raises(CorpusBugError):
        verify_corpus([bad], QUARTER, HALF, Unbounded(), 50)


@pytest.mark.parametrize(
    "epsilon, delta, mode, horizon, name",
    [
        (HALF, HALF, Unbounded(), 50, "epsilon"),
        (QUARTER, Fraction(1), Unbounded(), 50, "delta"),
        (QUARTER, HALF, "cyclic", 50, "clock"),
        (QUARTER, HALF, Unbounded(), 0, "horizon"),
        (QUARTER, HALF, Unbounded(), 2.5, "horizon"),
    ],
    ids=["epsilon", "delta", "clock", "horizon-0", "horizon-float"],
)
@pytest.mark.parametrize("corpus", ["empty", "corpus-bug"])
def test_verify_corpus_rejects_bad_parameters_before_any_replay(
    epsilon, delta, mode, horizon, name, corpus
):
    # an empty corpus has nothing to encode, and a lying certificate would
    # raise CorpusBugError if it were replayed first
    lying = CorpusEntry("bad", by_name(builtin_corpus())["loop-stay"].machine, Halts(3))
    rows = {"empty": [], "corpus-bug": [lying]}[corpus]
    with pytest.raises(ParameterRangeError, match=name):
        verify_corpus(rows, epsilon, delta, mode, horizon)


# -- encode ----------------------------------------------------------------------


def test_encode_defaults_and_override():
    machine = counter_family(3)
    inst = encode(machine, QUARTER, HALF, Unbounded(), BeaconSubspace(), 100)
    assert inst.grid == 6  # the epsilon-derived refinement
    assert inst.epsilon == QUARTER
    assert inst.schedule.delta == HALF
    assert inst.horizon == 100
    custom = encode(machine, QUARTER, HALF, Unbounded(), BeaconSubspace(), 100, grid=9)
    assert custom.grid == 9
    assert encode(machine, QUARTER, HALF, Unbounded(), BeaconSubspace(), 100) == inst


# -- the adversarial family -------------------------------------------------------


def test_counter_family_halting_steps_grow_one_per_index():
    seen = []
    for n in range(21):
        run = classical_run(counter_family(n), 50)
        assert isinstance(run, Halted)
        seen.append(run.steps)
    assert seen == [n + 1 for n in range(21)]
    assert seen == sorted(set(seen))  # strictly increasing


def test_counter_family_validation():
    with pytest.raises(ParameterRangeError):
        counter_family(-1)
    with pytest.raises(ParameterRangeError):
        counter_family("3")


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 30))
def test_counter_family_hit_exactly_when_horizon_allows(n):
    machine = counter_family(n)
    k = n + 1
    tight = encode(machine, QUARTER, HALF, Unbounded(), BeaconSubspace(), k + 1)
    report = uhit_semidecide(tight)
    assert isinstance(report, Hit)
    assert report.t_hit == k + HALF
    short = encode(machine, QUARTER, HALF, Unbounded(), BeaconSubspace(), k)
    assert isinstance(uhit_semidecide(short), Exhausted)


# -- serialization ----------------------------------------------------------------


def test_reduction_report_json_frozen_lines():
    entries = by_name(builtin_corpus())
    reports = verify_corpus(
        [entries["halt-now"], entries["loop-stay"]],
        QUARTER,
        HALF,
        Unbounded(),
        10,
    )
    blob = reduction_report_json(reports)
    assert blob == (
        '{"expected": {"K": 0, "kind": "halts"}, "name": "halt-now", '
        '"observed": {"fidelity": 1.0, "outcome": "hit", "t": "1/2", '
        '"window": ["0", "1/2"]}, "verdict": "agree"}\n'
        '{"expected": {"kind": "loops", "revisit": [0, 1]}, "name": "loop-stay", '
        '"observed": {"horizon": 10, "max_fidelity": 0.0, "outcome": "exhausted"}, '
        '"verdict": "agree"}\n'
    )
    again = reduction_report_json(
        verify_corpus(
            [entries["halt-now"], entries["loop-stay"]],
            QUARTER,
            HALF,
            Unbounded(),
            10,
        )
    )
    assert again == blob


def test_an_empty_corpus_reports_no_lines(tmp_path, capsys):
    # no entry, no line: an empty line is not a JSON object
    assert reduction_report_json([]) == ""
    manifest = tmp_path / "manifest.json"
    manifest.write_text("[]")
    assert main(["verify", "--corpus", str(manifest)]) == 0
    assert capsys.readouterr() == ("", "")


# -- loading ----------------------------------------------------------------------


def test_builtin_corpus_matches_direct_path_load():
    direct = load_corpus(Path(pulsehit.__file__).parent / "corpus" / "manifest.json")
    assert builtin_corpus() == direct


def test_load_corpus_from_directory(tmp_path):
    (tmp_path / "m.tm").write_text(corpus_text("halt-now"))
    (tmp_path / "manifest.json").write_text(
        '[{"name": "m", "machine_file": "m.tm", '
        '"ground_truth": {"kind": "halts", "K": 0}}]'
    )
    corpus = load_corpus(tmp_path / "manifest.json")
    assert len(corpus) == 1
    validate_entry(corpus[0])
    # any manifest file name is read, not a fixed manifest.json beside it
    (tmp_path / "other.json").write_text(
        '[{"name": "n", "machine_file": "m.tm", '
        '"ground_truth": {"kind": "loops", "revisit": [0, 1]}}]'
    )
    other = load_corpus(str(tmp_path / "other.json"))
    assert [(e.name, e.machine, e.ground_truth) for e in other] == [
        ("n", corpus[0].machine, LoopsForever((0, 1)))
    ]


def test_load_corpus_rejects_malformed_manifests(tmp_path):
    (tmp_path / "manifest.json").write_text("not json")
    with pytest.raises(CorpusBugError, match="valid JSON"):
        load_corpus(tmp_path / "manifest.json")
    (tmp_path / "manifest.json").write_text('{"name": "m", "machine_file": "m.tm"}')
    with pytest.raises(CorpusBugError, match="^manifest must be a JSON list$"):
        load_corpus(tmp_path / "manifest.json")
    (tmp_path / "m.tm").write_text(corpus_text("halt-now"))
    (tmp_path / "manifest.json").write_text(
        '[{"name": "m", "machine_file": "m.tm", "ground_truth": {"kind": "halts", "K": 0}},'
        ' {"name": "m", "machine_file": "m.tm", "ground_truth": {"kind": "halts", "K": 0}}]'
    )
    with pytest.raises(CorpusBugError, match="duplicate"):
        load_corpus(tmp_path / "manifest.json")
    (tmp_path / "manifest.json").write_text(
        '[{"name": "m", "machine_file": "m.tm", "ground_truth": {"kind": "maybe"}}]'
    )
    with pytest.raises(CorpusBugError, match="unknown ground truth kind"):
        load_corpus(tmp_path / "manifest.json")
    (tmp_path / "manifest.json").write_text(
        '[{"name": "m", "machine_file": "m.tm", "ground_truth": {"kind": "loops", "revisit": [1]}}]'
    )
    with pytest.raises(CorpusBugError, match="revisit"):
        load_corpus(tmp_path / "manifest.json")
    # the manifest and the machine files it lists are UTF-8 documents
    (tmp_path / "manifest.json").write_bytes(b"[\xff]")
    with pytest.raises(CorpusBugError, match="line 1, col 2: byte 0xff is not UTF-8"):
        load_corpus(tmp_path / "manifest.json")
    (tmp_path / "bad.tm").write_bytes(b"states: q0\nalphabet: \xc3\n")
    (tmp_path / "manifest.json").write_text(
        '[{"name": "m", "machine_file": "bad.tm", "ground_truth": {"kind": "halts", "K": 0}}]'
    )
    with pytest.raises(MachineSyntaxError, match="byte 0xc3 is not UTF-8") as ei:
        load_corpus(tmp_path / "manifest.json")
    assert (ei.value.line, ei.value.col) == (2, 11)
    # JSON true/false load as Python bools, which are ints: not step counts
    for truth, message in (
        ('{"kind": "halts", "K": true}', "integer K"),
        ('{"kind": "loops", "revisit": [false, true]}', "revisit"),
    ):
        (tmp_path / "manifest.json").write_text(
            f'[{{"name": "m", "machine_file": "m.tm", "ground_truth": {truth}}}]'
        )
        with pytest.raises(CorpusBugError, match=message):
            load_corpus(tmp_path / "manifest.json")


GOOD_ROW = {"name": "m", "machine_file": "m.tm", "ground_truth": {"kind": "halts", "K": 0}}


@pytest.mark.parametrize(
    "row",
    [
        {"name": "m", "machine_file": "m.tm"},
        {**GOOD_ROW, "machine_file": 5},
        {**GOOD_ROW, "name": 7},
    ],
    ids=["no-ground-truth", "int-machine-file", "int-name"],
)
def test_malformed_manifest_rows_are_corpus_bugs(tmp_path, capsys, row):
    (tmp_path / "m.tm").write_text(corpus_text("halt-now"))
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps([GOOD_ROW | {"name": "ok"}, row]))
    with pytest.raises(CorpusBugError, match="malformed"):
        load_corpus(manifest)
    code = main(["verify", "--corpus", str(manifest), "--horizon", "5"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err.startswith("pulsehit: error: ") and "malformed" in captured.err
