"""Reversible beacon step: hand-traced orbits, inversion, injectivity.

The labeled orbit tables in this file were worked out on paper from the
step conventions (rule firing appends the rule index and ticks the clock;
halting freezes the work half, latches the flag and toggles the beacon;
negative unbounded times shift idly) and serve as frozen oracles.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from support import (
    BINARY_INC,
    CENSUS_SIZE,
    HALT_NOW,
    LOOP_STAY,
    MOVE_RIGHT_3,
    NAMED_CENSUS,
    census_machine,
    machines,
    walk,
)

from pulsehit.errors import (
    IllFormedMachineError,
    LabelError,
    ParameterRangeError,
)
from pulsehit.machine import (
    Halted,
    MachineSpec,
    Rule,
    StillRunning,
    classical_run,
    classical_trace,
    parse_machine,
)
from pulsehit.reduction import Halts, builtin_corpus
from pulsehit.reversible import (
    BeaconStep,
    BeaconSubspace,
    Cyclic,
    ExactLabel,
    ExtendedBasisState,
    LiveRun,
    Unbounded,
)

# -- hand-traced orbits -------------------------------------------------------


def test_move_right_3_unbounded_orbit_field_by_field():
    step = BeaconStep(MOVE_RIGHT_3, Unbounded())
    labels = walk(step, step.initial_label(), 6)
    expect = [
        ("q0", 0, [], 0, 0, 0),
        ("q1", 1, [0], 1, 0, 0),
        ("q2", 2, [0, 1], 2, 0, 0),
        ("qH", 3, [0, 1, 2], 3, 1, 0),
        ("qH", 3, [0, 1, 2], 4, 1, 1),
        ("qH", 3, [0, 1, 2], 5, 1, 0),
        ("qH", 3, [0, 1, 2], 6, 1, 1),
    ]
    for lab, (state, head, hist, tau, h, b) in zip(labels, expect):
        assert lab.state == state
        assert lab.head == head
        assert lab.tape == {}
        assert list(lab.hist) == hist
        assert lab.tau == tau
        assert lab.h == h
        assert lab.b == b


def test_binary_inc_unbounded_orbit_checkpoints():
    step = BeaconStep(BINARY_INC, Unbounded())
    labels = walk(step, step.initial_label(), 6)
    assert labels[0].tape == {0: "1", 1: "1", 2: "1"}
    # halts at classical step 4 with the carry written
    l4 = labels[4]
    assert (l4.state, l4.head, l4.h, l4.b) == ("qH", 3, 1, 0)
    assert l4.tape == {0: "0", 1: "0", 2: "0", 3: "1"}
    assert list(l4.hist) == [0, 0, 0, 2]
    # beacon first on at clock 5 = K + 1
    assert [lab.b for lab in labels] == [0, 0, 0, 0, 0, 1, 0]


def test_halt_now_beacon_lights_at_clock_one():
    step = BeaconStep(HALT_NOW, Unbounded())
    labels = walk(step, step.initial_label(), 4)
    assert [lab.h for lab in labels] == [0, 1, 1, 1, 1]
    assert [lab.b for lab in labels] == [0, 1, 0, 1, 0]
    assert all(list(lab.hist) == [] for lab in labels)


def test_looper_beacon_stays_dark():
    step = BeaconStep(LOOP_STAY, Unbounded())
    labels = walk(step, step.initial_label(), 50)
    assert all(lab.b == 0 and lab.h == 0 for lab in labels)
    assert [lab.tau for lab in labels] == list(range(51))


def test_work_half_frozen_after_halt():
    step = BeaconStep(BINARY_INC, Unbounded())
    labels = walk(step, step.initial_label(), 12)
    halted = [lab for lab in labels if lab.h == 1]
    first = halted[0]
    for lab in halted[1:]:
        assert lab.state == first.state
        assert lab.head == first.head
        assert lab.tape is first.tape  # shared, not merely equal
        assert lab.hist is first.hist


def test_forward_raises_on_missing_rule():
    spec = parse_machine(
        "states: q0 qH\nalphabet: _ 1\nstart: q0\nhalt: qH\ninput: 1\nrule: q0 _ -> qH _ S\n"
    )
    step = BeaconStep(spec, Unbounded())
    with pytest.raises(IllFormedMachineError, match="no rule"):
        step.forward(step.initial_label())


def test_a_rule_into_an_undeclared_state_is_a_typed_error():
    # a spec built in code skips the parser's checks: its one rule enters
    # qX, which no table has an entry for, so the lookup at step 1 fails
    # on the state, not on the symbol, and must still be a typed error
    spec = MachineSpec(("q0", "qH"), ("_", "1"), "q0", "qH", (Rule("q0", "_", "qX", "1", "R"),), ())
    at_step_1 = r"^no rule for \('qX', '_'\) at step 1$"
    with pytest.raises(IllFormedMachineError, match=at_step_1):
        classical_run(spec, 5)
    with pytest.raises(IllFormedMachineError, match=at_step_1):
        list(classical_trace(spec, 5))
    step = BeaconStep(spec, Unbounded())
    with pytest.raises(IllFormedMachineError, match=r"^no rule for \('qX', '_'\) at clock 1$"):
        step.advance(step.initial_label(), 5)


# -- backward: unbounded ------------------------------------------------------


def test_backward_retraces_orbit_across_the_rise():
    step = BeaconStep(MOVE_RIGHT_3, Unbounded())
    labels = walk(step, step.initial_label(), 8)
    for earlier, later in zip(labels, labels[1:]):
        assert step.backward(later) == earlier


def test_backward_of_an_out_of_range_rule_index_has_no_preimage():
    # move-right-3 has rules 0..2; no rule 3 or -1 can be undone
    for clock in (Unbounded(), Cyclic(3)):
        step = BeaconStep(MOVE_RIGHT_3, clock)
        for idx in (3, -1):
            y = ExtendedBasisState("q1", 1, {}, (idx,), 1, 0, 0)
            assert step.backward(y) is None


def test_backward_of_initial_is_idle_shift():
    step = BeaconStep(MOVE_RIGHT_3, Unbounded())
    init = step.initial_label()
    prev = step.backward(init)
    assert prev == ExtendedBasisState("q0", 0, {}, (), -1, 0, 0)
    assert step.forward(prev) == init
    # and the idle region extends indefinitely backward
    prev2 = step.backward(prev)
    assert prev2.tau == -2
    assert step.forward(prev2) == prev


def test_backward_k0_rise_recovers_initial():
    step = BeaconStep(HALT_NOW, Unbounded())
    init = step.initial_label()
    one = step.forward(init)
    assert (one.tau, one.h, one.b) == (1, 1, 1)
    assert step.backward(one) == init


def test_backward_no_preimage_cases_unbounded():
    step = BeaconStep(MOVE_RIGHT_3, Unbounded())
    # initial-shaped label at positive clock: history too short
    orphan = step.make_label("q0", 0, {}, [], 1, 0, 0)
    assert step.backward(orphan) is None
    # nonempty history at clock <= 0
    assert step.backward(step.make_label("q1", 1, {}, [0], 0, 0, 0)) is None
    # halt flag set before the history could have produced it
    early = step.make_label("qH", 3, {}, [0, 1, 2], 2, 1, 1)
    assert step.backward(early) is None
    # halt entry with the beacon already lit: its rule preimage would be a
    # pre-halt label with b = 1
    assert step.backward(step.make_label("qH", 3, {}, [0, 1, 2], 3, 1, 1)) is None
    # a pre-halt label with b = 1, and its idle counterpart below clock 0
    assert step.backward(step.make_label("q2", 2, {}, [0, 1], 2, 0, 1)) is None
    assert step.backward(step.make_label("q0", 0, {}, [], 0, 0, 1)) is None
    # a halted label with the wrong beacon parity for its clock
    assert step.backward(step.make_label("qH", 3, {}, [0, 1, 2], 5, 1, 1)) is None
    # a step-0 halt that rose with the beacon dark
    halt_now = BeaconStep(HALT_NOW, Unbounded())
    assert halt_now.backward(halt_now.make_label("q0", 0, {}, [], 1, 1, 0)) is None


def test_backward_skips_a_candidate_with_no_rule():
    # the step-0 rise's candidate (q0 at clock 0 on a blank tape) keeps
    # the run rule, but the machine has no rule on a blank, so stepping
    # it forward raises; backward skips it and finds no other preimage
    spec = parse_machine(
        "states: q0 qH\nalphabet: _ 1\nstart: q0\nhalt: qH\nrule: q0 1 -> qH 1 S\n"
    )
    step = BeaconStep(spec, Unbounded())
    with pytest.raises(IllFormedMachineError):
        step.forward(step.initial_label())
    assert step.backward(step.make_label("q0", 0, {}, [], 1, 1, 1)) is None


@pytest.mark.parametrize("period", [2, 3, 4])
def test_backward_no_preimage_cases_cyclic(period):
    step = BeaconStep(MOVE_RIGHT_3, Cyclic(period))
    # a pre-halt label with b = 1
    assert step.backward(step.make_label("q2", 2, {}, [0, 1], 2 % period, 0, 1)) is None
    # halted at clock K mod L with the beacon lit: off an even cycle, which
    # keeps b = (tau - K) mod 2, while an odd cycle passes there with b = 1
    lit = step.make_label("qH", 3, {}, [0, 1, 2], 3 % period, 1, 1)
    if period % 2:
        assert step.backward(lit) == step.make_label("qH", 3, {}, [0, 1, 2], 2 % period, 1, 0)
    else:
        assert step.backward(lit) is None
        assert step.backward(step.make_label("qH", 3, {}, [0, 1, 2], 1, 1, 1)) is None

def test_halt_entry_collision_resolves_to_rule_preimage():
    step = BeaconStep(MOVE_RIGHT_3, Unbounded())
    labels = walk(step, step.initial_label(), 4)
    entry = labels[3]
    # the ill-formed toggle twin maps onto the same image
    twin = step.make_label("qH", 3, {}, [0, 1, 2], 2, 1, 1)
    assert step.forward(twin) == entry
    assert step.backward(entry) == labels[2]
    # one step later the toggle preimage is the well-formed one
    after = labels[4]
    ill = step.make_label("qH", 3, {}, [0, 1, 2], 3, 0, 0)
    assert step.forward(ill) == after
    assert step.backward(after) == entry


# -- cyclic clock -------------------------------------------------------------


def test_cyclic_orbit_wraps_and_closes():
    step = BeaconStep(MOVE_RIGHT_3, Cyclic(3))
    labels = walk(step, step.initial_label(), 9)
    assert [lab.tau for lab in labels] == [0, 1, 2, 0, 1, 2, 0, 1, 2, 0]
    assert [lab.b for lab in labels] == [0, 0, 0, 0, 1, 0, 1, 0, 1, 0]
    # post-halt cycle has length lcm(3, 2) = 6
    assert labels[9] == labels[3]
    assert labels[6] != labels[3]


def test_cyclic_even_period_cycle_length_two():
    step = BeaconStep(MOVE_RIGHT_3, Cyclic(2))
    labels = walk(step, step.initial_label(), 5)
    assert labels[5] == labels[3]
    assert labels[4] != labels[3]


def test_cyclic_halted_power_identity():
    for period in (2, 3, 5):
        step = BeaconStep(BINARY_INC, Cyclic(period))
        lab = step.initial_label()
        for _ in range(4):
            lab = step.forward(lab)
        assert lab.h == 1
        again = lab
        for _ in range(2 * period):
            again = step.forward(again)
        assert again == lab


def test_cyclic_backward_walks_tail_to_initial():
    step = BeaconStep(BINARY_INC, Cyclic(2))
    labels = walk(step, step.initial_label(), 4)
    cur = labels[4]
    for expect in reversed(labels[:4]):
        cur = step.backward(cur)
        assert cur == expect
    assert step.backward(labels[0]) is None


def test_cyclic_backward_around_cycle_prefers_tail_at_entry():
    step = BeaconStep(MOVE_RIGHT_3, Cyclic(3))
    labels = walk(step, step.initial_label(), 9)
    entry = labels[3]
    # interior cycle points step back along the cycle
    for i in range(4, 9):
        assert step.backward(labels[i]) == labels[i - 1]
    # the entry point steps back onto the tail, pinching the cycle open
    assert step.backward(entry) == labels[2]
    assert step.forward(labels[8]) == entry


HALTING_CORPUS = [e for e in builtin_corpus() if isinstance(e.ground_truth, Halts)]


@pytest.mark.parametrize("entry", HALTING_CORPUS, ids=[e.name for e in HALTING_CORPUS])
def test_cyclic_step_is_injective_on_a_run_but_for_the_halt_entry_pinch(entry):
    # a run enters its post-halt cycle at the first halted label, step
    # max(K, 1); that label has two reached preimages, the tail label
    # before it and its cycle predecessor, and every other reached label
    # has at most one.  backward resolves the pinch to the tail.
    for period in range(2, 8):
        step = BeaconStep(entry.machine, Cyclic(period))
        entry_step = max(entry.ground_truth.steps, 1)
        run = walk(step, step.initial_label(), entry_step + step.cycle_length)
        reached, closing = run[:-1], run[-1]
        assert len(set(reached)) == len(reached)
        assert closing == run[entry_step]
        preimages = {}
        for lab in reached:
            preimages.setdefault(step.forward(lab), []).append(lab)
        pinch = run[entry_step]
        assert preimages.pop(pinch) == [run[entry_step - 1], reached[-1]]
        assert all(len(pre) == 1 for pre in preimages.values())
        assert step.backward(pinch) == run[entry_step - 1]


def test_cyclic_backward_odd_period_interior_congruence_point():
    # half way around an odd-period cycle the clock congruence recurs with
    # beacon parity 1; backward must keep following the cycle there
    step = BeaconStep(MOVE_RIGHT_3, Cyclic(3))
    labels = walk(step, step.initial_label(), 7)
    mid = labels[6]
    assert (mid.tau, mid.h, mid.b) == (0, 1, 1)
    assert len(list(mid.hist)) == 3
    assert step.backward(mid) == labels[5]


def test_cyclic_backward_k0_rise_and_its_odd_shadow():
    step = BeaconStep(HALT_NOW, Cyclic(3))
    labels = walk(step, step.initial_label(), 6)
    assert step.backward(labels[1]) == labels[0]
    # clock 1 recurs at orbit position 4 with beacon 0: not a rise image
    four = labels[4]
    assert (four.tau, four.h, four.b) == (1, 1, 0)
    assert step.backward(four) == labels[3]
    assert step.backward(labels[0]) is None


# -- label plumbing -----------------------------------------------------------


def test_make_label_validation():
    step = BeaconStep(BINARY_INC, Unbounded())
    with pytest.raises(LabelError, match="undeclared state"):
        step.make_label("zz", 0, {}, [], 0, 0, 0)
    with pytest.raises(LabelError, match="undeclared tape symbol"):
        step.make_label("q0", 0, {0: "x"}, [], 0, 0, 0)
    with pytest.raises(LabelError, match="omit blank"):
        step.make_label("q0", 0, {0: "_"}, [], 0, 0, 0)
    with pytest.raises(LabelError, match="out of range"):
        step.make_label("q0", 0, {}, [7], 0, 0, 0)
    with pytest.raises(LabelError, match="must be 0 or 1"):
        step.make_label("q0", 0, {}, [], 0, 2, 0)
    cyc = BeaconStep(BINARY_INC, Cyclic(2))
    with pytest.raises(LabelError, match="cyclic range"):
        cyc.make_label("q0", 0, {}, [], 2, 0, 0)
    # every field is an int, never a float or a bool, on either clock
    for s in (step, cyc):
        for head, tape, hist, tau in (
            (0.5, {}, [], 0),
            (True, {}, [], 0),
            (0, {1.0: "1"}, [], 0),
            (0, {}, ["a"], 0),
            (0, {}, [0.0], 0),
            (0, {}, [False], 0),
            (0, {}, [], 1.5),
            (0, {}, [], True),
        ):
            with pytest.raises(LabelError, match="must be integers"):
                s.make_label("q0", head, tape, hist, tau, 0, 0)
        for h, b in ((True, 0), (0, True), (1.0, 0), (0, 0.0), (0, -1)):
            with pytest.raises(LabelError, match="must be 0 or 1"):
                s.make_label("q0", 0, {}, [], 0, h, b)


@pytest.mark.parametrize(
    "call",
    [
        lambda step, y: step.forward("x"),
        lambda step, y: step.advance("x", 2),
        lambda step, y: step.backward("x"),
        lambda step, y: step.cycle_offset("x", y),
        lambda step, y: step.cycle_offset(y, "x"),
    ],
    ids=["forward", "advance", "backward", "cycle_offset-from", "cycle_offset-to"],
)
def test_label_entry_points_refuse_a_non_label(call):
    step = BeaconStep(MOVE_RIGHT_3, Cyclic(3))
    y = step.advance(step.initial_label(), 4)  # halted, on a 6-cycle
    with pytest.raises(LabelError, match="^not a basis label: 'x'$"):
        call(step, y)


@pytest.mark.parametrize("phi", ["x", None, 3])
def test_exact_label_refuses_a_non_label(phi):
    with pytest.raises(LabelError, match=f"^not a basis label: {phi!r}$"):
        ExactLabel(phi)


def test_clock_mode_validation():
    with pytest.raises(ParameterRangeError):
        Cyclic(1)
    with pytest.raises(ParameterRangeError):
        BeaconStep(BINARY_INC, "unbounded")


def test_step_rejects_rules_out_of_halt():
    spec = MachineSpec(
        ("a", "h"), ("_",), "a", "h", (Rule("h", "_", "a", "_", "S"),), ()
    )
    with pytest.raises(IllFormedMachineError, match="halt state"):
        BeaconStep(spec, Unbounded())


def test_history_is_a_plain_tuple():
    # on the initial label, after advance (live and past the halt), on a
    # live run's label, and from make_label given a list
    step = BeaconStep(BINARY_INC, Cyclic(3))
    init = step.initial_label()
    assert init.hist == () and type(init.hist) is tuple
    for n in (2, 4, 9):
        assert type(step.advance(init, n).hist) is tuple
    run = LiveRun(step, init)
    run.run(1)
    run.run(1)
    lab = run.label()
    assert type(lab.hist) is tuple and lab.hist == (0, 0)
    run.run(1)
    assert lab.hist == (0, 0)  # a label keeps its history as the run goes on
    assert run.label().hist == (0, 0, 0)
    built = step.make_label("q0", 0, {}, [2, 0, 1], 0, 0, 0)
    assert type(built.hist) is tuple and built.hist == (2, 0, 1)


def test_serialization_separates_all_orbit_labels():
    # serial bytes must coincide exactly when the raw field tuples do
    def fields(lab):
        return (
            lab.state,
            lab.head,
            tuple(sorted(lab.tape.items())),
            tuple(lab.hist),
            lab.tau,
            lab.h,
            lab.b,
        )

    by_serial = {}
    by_fields = {}
    for spec in (MOVE_RIGHT_3, BINARY_INC, HALT_NOW, LOOP_STAY):
        for clock in (Unbounded(), Cyclic(2), Cyclic(3)):
            step = BeaconStep(spec, clock)
            for lab in walk(step, step.initial_label(), 12):
                by_serial[lab.serial] = fields(lab)
                by_fields[fields(lab)] = lab.serial
    assert len(by_serial) == len(by_fields)
    for serial, f in by_serial.items():
        assert by_fields[f] == serial


def _uvarint(out: bytearray, n: int) -> None:
    while n > 0x7F:
        out.append((n & 0x7F) | 0x80)
        n >>= 7
    out.append(n)


def _zigzag(n: int) -> int:
    return (n << 1) if n >= 0 else ((-n << 1) - 1)


def _field(out: bytearray, tag: int, payload: bytes) -> None:
    out.append(tag)
    _uvarint(out, len(payload))
    out.extend(payload)


def _field_by_field_serial(lab):
    """The label bytes written one tag/length/value field per call."""
    out = bytearray()
    _field(out, 0x01, lab.state.encode("utf-8"))
    head = bytearray()
    _uvarint(head, _zigzag(lab.head))
    _field(out, 0x02, bytes(head))
    tp = bytearray()
    _uvarint(tp, len(lab.tape))
    for cell in sorted(lab.tape):
        _uvarint(tp, _zigzag(cell))
        sym = lab.tape[cell].encode("utf-8")
        _uvarint(tp, len(sym))
        tp.extend(sym)
    _field(out, 0x03, bytes(tp))
    hs = bytearray()
    _uvarint(hs, len(lab.hist))
    for idx in lab.hist:
        _uvarint(hs, idx)
    _field(out, 0x04, bytes(hs))
    tv = bytearray()
    _uvarint(tv, _zigzag(lab.tau))
    _field(out, 0x05, bytes(tv))
    _field(out, 0x06, bytes([lab.h]))
    _field(out, 0x07, bytes([lab.b]))
    return bytes(out)


_WITHIN_A_MILLION = st.integers(-(10**6), 10**6)


@settings(max_examples=200, deadline=None)
@given(
    st.text(min_size=1, max_size=8),
    _WITHIN_A_MILLION,
    st.dictionaries(_WITHIN_A_MILLION, st.text(min_size=1, max_size=4), max_size=200),
    st.lists(st.integers(0, 1000), max_size=300).map(tuple),
    _WITHIN_A_MILLION,
    st.integers(0, 1),
    st.integers(0, 1),
)
def test_label_bytes_keep_their_field_layout(state, head, tape, hist, tau, h, b):
    # any text (multi-byte UTF-8 too), heads and clocks of either sign and
    # long histories and tapes: the one framing loop writes the same bytes
    lab = ExtendedBasisState(state, head, tape, hist, tau, h, b)
    assert lab.serial == _field_by_field_serial(lab)


def test_equal_labels_from_different_construction_paths():
    step = BeaconStep(BINARY_INC, Unbounded())
    walked = walk(step, step.initial_label(), 2)[2]
    built = step.make_label("q0", 2, {0: "0", 1: "0", 2: "1"}, [0, 0], 2, 0, 0)
    assert walked == built
    assert hash(walked) == hash(built)
    assert walked.serial == built.serial


def test_a_label_is_unequal_to_a_non_label():
    label = BeaconStep(BINARY_INC, Unbounded()).initial_label()
    assert label.__eq__("x") is NotImplemented
    assert (label == "x") is False
    assert (label != 3) is True


def _one_field_mutants(step, lab):
    """Labels that differ from ``lab`` in exactly one field, built directly
    (they need not be reachable or well formed)."""
    spec = step.spec
    tape = dict(lab.tape)
    if lab.head in tape:
        del tape[lab.head]
    else:
        tape[lab.head] = spec.alphabet[-1]
    hists = [lab.hist + (0,)]
    if lab.hist:
        # same length, last rule index changed
        hists.append(lab.hist[:-1] + (lab.hist[-1] + 1,))
    fields = (lab.state, lab.head, lab.tape, lab.hist, lab.tau, lab.h, lab.b)
    changes = [
        (0, next(q for q in spec.states if q != lab.state)),
        (1, lab.head + 1),
        (2, tape),
        *((3, hist) for hist in hists),
        (4, lab.tau + 1),
        (5, lab.h ^ 1),
        (6, lab.b ^ 1),
    ]
    out = []
    for pos, value in changes:
        changed = list(fields)
        changed[pos] = value
        out.append(ExtendedBasisState(*changed))
    return out


@settings(max_examples=60, deadline=None)
@given(
    machines(total=True),
    st.sampled_from([None, 2, 3, 4, 5]),
    st.integers(0, 12),
    st.data(),
)
def test_label_identity_agrees_with_serial_bytes(spec, period, steps, data):
    # equality and hashing use the fields; serial is the canonical byte form
    # of the same identity, so the two must never disagree
    step = BeaconStep(spec, Unbounded() if period is None else Cyclic(period))
    orbit = walk(step, step.initial_label(), steps)
    lab = data.draw(st.sampled_from(orbit))
    twin = step.make_label(
        lab.state, lab.head, lab.tape, list(lab.hist), lab.tau, lab.h, lab.b
    )
    assert twin is not lab
    mutants = _one_field_mutants(step, lab)
    pool = orbit + [twin] + mutants
    for a in pool:
        for b in pool:
            assert (a == b) == (a.serial == b.serial)
            if a == b:
                assert hash(a) == hash(b)
    assert twin == lab
    assert all(mutant != lab for mutant in mutants)


def test_labels_differing_only_in_tape_are_distinct_keys():
    step = BeaconStep(BINARY_INC, Unbounded())
    a = step.make_label("q0", 0, {0: "1"}, [], 0, 0, 0)
    b = step.make_label("q0", 0, {0: "0"}, [], 0, 0, 0)
    assert a != b and not a == b
    keyed = {a: "a", b: "b"}
    assert len(keyed) == 2
    assert keyed[step.make_label("q0", 0, {0: "0"}, [], 0, 0, 0)] == "b"


def test_target_predicates():
    step = BeaconStep(MOVE_RIGHT_3, Unbounded())
    labels = walk(step, step.initial_label(), 4)
    beacon = step.target_predicate(BeaconSubspace())
    assert [beacon(lab) for lab in labels] == [False, False, False, False, True]
    exact = step.target_predicate(ExactLabel(labels[2]))
    assert exact(labels[2])
    assert not exact(labels[3])
    with pytest.raises(ParameterRangeError):
        step.target_predicate("beacon")


# -- property tests -----------------------------------------------------------


@st.composite
def made_labels(draw, step):
    """A label from make_label: any work half, any clock the step allows
    (negative ones too on an unbounded clock), any flags."""
    spec = step.spec
    tape = draw(
        st.dictionaries(
            st.integers(-3, 3),
            st.sampled_from(spec.alphabet[1:]) if len(spec.alphabet) > 1 else st.nothing(),
            max_size=3,
        )
    )
    hist = draw(st.lists(st.integers(0, max(len(spec.rules) - 1, 0)), max_size=4))
    if not spec.rules:
        hist = []
    if isinstance(step.clock, Cyclic):
        tau = draw(st.integers(0, step.clock.period - 1))
    else:
        tau = draw(st.integers(-5, 8))
    return step.make_label(
        draw(st.sampled_from(spec.states)),
        draw(st.integers(-3, 3)),
        tape,
        hist,
        tau,
        draw(st.integers(0, 1)),
        draw(st.integers(0, 1)),
    )


@st.composite
def machine_and_labels(draw, cyclic=False):
    spec = draw(machines(total=True))
    clock = Cyclic(draw(st.integers(2, 5))) if cyclic else Unbounded()
    step = BeaconStep(spec, clock)
    return step, draw(st.lists(made_labels(step), max_size=3))


def keeps_the_run_rule(step, x):
    """Whether x's clock, history length K, halt flag and beacon can occur
    together on a run, restated from the step conventions: before the
    halt the beacon is dark and the clock counts the rules fired; after it
    the beacon toggles every step from the entry, at clock K with b = 0
    (K >= 1) or at clock 1 with b = 1 (K = 0)."""
    k = len(list(x.hist))
    if isinstance(step.clock, Cyclic):
        period = step.clock.period
        if x.h == 0:
            return x.b == 0 and x.tau % period == k % period
        # an odd period returns to every clock value with either beacon
        return period % 2 == 1 or (x.tau + x.b - k) % 2 == 0
    if x.tau < 0:
        return (k, x.h, x.b) == (0, 0, 0)
    if x.h == 0:
        return x.b == 0 and x.tau == k
    entry = max(k, 1)
    return x.tau >= entry and x.b == (x.tau - entry + (k == 0)) % 2


@settings(max_examples=80)
@given(machine_and_labels())
def test_forward_of_backward_is_identity_unbounded(pair):
    step, labels = pair
    for y in labels:
        x = step.backward(y)
        if x is not None:
            assert keeps_the_run_rule(step, x)
            assert step.forward(x) == y


@settings(max_examples=80)
@given(machine_and_labels(cyclic=True))
def test_forward_of_backward_is_identity_cyclic(pair):
    step, labels = pair
    for y in labels:
        x = step.backward(y)
        if x is not None:
            assert keeps_the_run_rule(step, x)
            assert step.forward(x) == y


@settings(max_examples=60)
@given(machines(total=True))
def test_cyclic_backward_retraces_every_walk(spec):
    # every label a run reaches after step 0 steps back to its walk
    # predecessor, but the halt entry, reached again when the cycle closes,
    # steps back to the tail
    for period in range(2, 8):
        step = BeaconStep(spec, Cyclic(period))
        run = [step.initial_label()]
        while len(run) < 20 and run[-1].h == 0:
            run.append(step.forward(run[-1]))
        entry_step = len(run) - 1 if run[-1].h else None
        if entry_step is not None:
            run += walk(step, run[-1], step.cycle_length)[1:]
        for i in range(1, len(run)):
            want = run[i - 1]
            if entry_step is not None and run[i] == run[entry_step]:
                want = run[entry_step - 1]
            assert step.backward(run[i]) == want


@settings(max_examples=60)
@given(machines(total=True), st.integers(0, 25))
def test_backward_inverts_forward_along_unbounded_orbits(spec, n):
    step = BeaconStep(spec, Unbounded())
    labels = walk(step, step.initial_label(), n)
    for earlier, later in zip(labels, labels[1:]):
        assert step.backward(later) == earlier


@settings(max_examples=60)
@given(machines(total=True), st.integers(1, 30))
def test_forward_is_injective_on_orbit_labels(spec, n):
    step = BeaconStep(spec, Unbounded())
    labels = set(walk(step, step.initial_label(), n))
    # widen with idle history: distinct labels must keep distinct images
    idle = step.backward(step.initial_label())
    for _ in range(3):
        labels.add(idle)
        idle = step.backward(idle)
    images = {step.forward(lab) for lab in labels}
    assert len(images) == len(labels)


@settings(max_examples=60)
@given(machines(total=True), st.integers(0, 40))
def test_beacon_parity_matches_classical_halting_step(spec, n):
    # dual route: the classical runner provides the ground-truth halting
    # step K, and the beacon must read (n - K) mod 2 from clock K + 1 on
    step = BeaconStep(spec, Unbounded())
    labels = walk(step, step.initial_label(), n)
    out = classical_run(spec, n)
    for i, lab in enumerate(labels):
        if isinstance(out, Halted) and i >= out.steps + 1:
            assert lab.b == (i - out.steps) % 2
            assert lab.h == 1
        else:
            assert lab.b == 0
            if isinstance(out, Halted):
                assert lab.h == (1 if 0 < out.steps <= i else 0)
            else:
                assert lab.h == 0


def _label_from_the_classical_run(spec, clock, n):
    """The label n steps into the run of ``spec`` on ``clock``, rebuilt
    from ``classical_trace`` and ``spec.rules`` alone: the work half of
    configuration min(n, K), with K the halting step (infinite if the run
    has not halted by step n); the indices of the rules fired at the
    configurations before it; clock n (mod L on a cyclic clock); the halt
    flag from step max(K, 1) on; and the beacon (n - K) mod 2 once the flag
    is up, else 0."""
    configs = list(classical_trace(spec, n))
    last = configs[-1]
    k = last.step_count if last.state == spec.halt_state else math.inf
    hist = tuple(
        next(
            i
            for i, rule in enumerate(spec.rules)
            if (rule.state, rule.read) == (c.state, c.tape.get(c.head, spec.blank))
        )
        for c in configs[:-1]
    )
    tau = n % clock.period if isinstance(clock, Cyclic) else n
    h = 1 if n >= max(k, 1) else 0
    b = (n - k) % 2 if h else 0
    return ExtendedBasisState(last.state, last.head, dict(last.tape), hist, tau, h, b)


# named census machines (translated and in-place loopers, loopers that
# erase cells, and 30355, which erases a cell and halts at K = 5), then
# the whole census
CENSUS_INDEX = st.one_of(st.sampled_from([4, 0, 47764, 2, 30355]), st.integers(0, CENSUS_SIZE - 1))
CLOCKS = st.one_of(st.just(Unbounded()), st.integers(2, 7).map(Cyclic))


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(machines(total=True), CENSUS_INDEX.map(census_machine)),
    CLOCKS,
    st.integers(0, 60),
)
def test_the_step_rebuilds_the_classical_run(spec, clock, n):
    # the classical run shares no code with the step, so it is the
    # reference for the one step engine: the label n steps into the run,
    # by advance and by n forward calls, is the one it rebuilds
    step = BeaconStep(spec, clock)
    want = _label_from_the_classical_run(spec, clock, n)
    init = step.initial_label()
    for got in (step.advance(init, n), walk(step, init, n)[n]):
        assert got == want and got.serial == want.serial


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(machines(total=True), CENSUS_INDEX.map(census_machine)),
    CLOCKS,
    st.integers(0, 60),
)
def test_run_k_takes_k_steps_of_the_classical_run(spec, clock, k):
    # one run(k) call takes k steps, or stops after the one where the flag
    # rises; a revisit on the way is recorded, as Brent's pair (checked
    # against the classical run below), and does not stop it; the label it
    # leaves is the one the classical run rebuilds, and advance's
    step = BeaconStep(spec, clock)
    init = step.initial_label()
    run = LiveRun(step, init)
    run.run(k)
    assert run.n == k or (run.h and run.n < k)
    assert run.revisit == _brent_pair(spec, run.n)
    got = run.label()
    want = _label_from_the_classical_run(spec, clock, run.n)
    assert got == want and got.serial == want.serial
    assert got == step.advance(init, run.n)
    if run.h:  # the flag rose on the last step taken, not before it
        assert run.n >= 1 and _label_from_the_classical_run(spec, clock, run.n - 1).h == 0


def _first_repeat(spec, cap):
    """(mu, lam) for the first classical configuration, at step mu + lam
    <= cap, that repeats the one at step mu; None if none does."""
    seen = {}
    for c in classical_trace(spec, cap):
        key = (c.state, c.head, frozenset(c.tape.items()))
        if key in seen:
            return seen[key], c.step_count - seen[key]
        seen[key] = c.step_count
    return None


def _brent_pair(spec, cap):
    """The revisit (s, n) that Brent's bound in the LiveRun docstring names
    from the classical run's first repeat, if n <= cap; else None."""
    repeat = _first_repeat(spec, cap)
    if repeat is None:
        return None
    mu, lam = repeat
    save = 0  # the first save point at or past mu whose window holds mu + lam
    while save < mu or save + lam > max(2 * save, 1):
        save = max(2 * save, 1)
    assert save + lam <= 2 * max(mu, lam) + lam - 1
    return (save, save + lam) if save + lam <= cap else None


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.sampled_from(NAMED_CENSUS), st.integers(0, CENSUS_SIZE - 1)), CLOCKS)
def test_a_revisit_is_a_loops_forever_certificate(index, clock):
    # the run's revisit (s, n) is the pair a LoopsForever certificate
    # carries: the classical run, which shares no code with the step, has
    # the same state, head and tape at steps s and n and has not halted;
    # n is the step Brent's bound in the LiveRun docstring names; and the
    # run, which records the revisit without stopping, goes on to the cap
    spec = census_machine(index)
    cap = 64
    step = BeaconStep(spec, clock)
    run = LiveRun(step, step.initial_label())
    run.run(cap)
    want = _brent_pair(spec, cap)
    assert run.revisit == want
    if want is None:
        assert run.h or run.n == cap
        assert isinstance(classical_run(spec, run.n), Halted) == bool(run.h)
        return
    s, n = want
    assert run.n == cap and not run.h
    at_s, at_n = classical_run(spec, s), classical_run(spec, n)
    assert isinstance(at_s, StillRunning) and isinstance(at_n, StillRunning)
    assert at_s.at.same_snapshot(at_n.at)


@settings(max_examples=80, deadline=None)
@given(machines(total=True), st.sampled_from([None, 2, 3, 4, 5, 6]), st.data())
def test_advance_equals_repeated_forward(spec, period, data):
    # a composition check: advance(x, n) is n calls of advance(x, 1)
    # (forward), up to three cycles past the halt, from the initial label
    # or from a made label (any flags, the halt state or not, negative
    # clocks on an unbounded clock)
    step = BeaconStep(spec, Unbounded() if period is None else Cyclic(period))
    run = classical_run(spec, 30)
    halt = run.steps if isinstance(run, Halted) else 30
    start = step.initial_label()
    if data.draw(st.booleans()):
        start = data.draw(made_labels(step))
        halt = 30 + 5  # at most five idle steps up to clock 0 first
    n = data.draw(st.integers(0, halt + 1 + 3 * (step.cycle_length or 12)))
    want = start
    for _ in range(n):
        want = step.forward(want)
    assert step.advance(start, n) == want


@settings(max_examples=120, deadline=None)
@given(CENSUS_INDEX, CLOCKS, st.integers(0, 40), st.integers(0, 60))
def test_advance_equals_repeated_forward_on_census_runs(index, clock, k, n):
    # a composition check: from the initial label or a mid-run label k
    # steps in, advance(x, n) is n calls of advance(x, 1) (forward), and
    # the start label's tape is left as it was
    step = BeaconStep(census_machine(index), clock)
    start = step.initial_label()
    for _ in range(k):
        start = step.forward(start)
    tape = dict(start.tape)
    want = start
    for _ in range(n):
        want = step.forward(want)
    got = step.advance(start, n)
    assert got == want and got.serial == want.serial
    assert start.tape == tape


def test_a_live_run_label_keeps_its_tape_while_the_run_steps_on():
    # the run's tape changes in place, so a label it built must not share it
    step = BeaconStep(BINARY_INC, Unbounded())
    run = LiveRun(step, step.initial_label())
    run.run(1)
    first = run.label()
    run.run(1)
    assert first == step.forward(step.initial_label())
    assert run.label() == step.advance(step.initial_label(), 2)


def test_advance_on_an_unbounded_clock_costs_the_halt_not_the_time():
    # move-right-3 halts at K = 3 (b = 0) and toggles from then on
    step = BeaconStep(MOVE_RIGHT_3, Unbounded())
    halted = step.advance(step.initial_label(), 3)
    n = 10**12
    got = step.advance(step.initial_label(), n)
    assert (got.tau, got.h, got.b) == (n, 1, (n - 3) % 2)
    assert (got.state, got.head, got.hist) == (halted.state, halted.head, halted.hist)
    # a made halted label at a negative clock idles up to clock 0 first,
    # keeping its beacon bit, and only then toggles
    early = step.make_label("qH", 3, {}, [0, 1, 2], -3, 1, 1)
    got = step.advance(early, n)
    assert (got.tau, got.h, got.b) == (n - 3, 1, 1 ^ (n - 3) % 2)
    # the idle line below clock 0 is one jump too: from clock -n, n + 10
    # steps are the initial label's first 10
    idle = step.make_label("q0", 0, {}, [], -n, 0, 0)
    assert step.advance(idle, n + 10) == step.advance(step.initial_label(), 10)


@pytest.mark.parametrize("period,want", [(None, None), (2, 2), (3, 6), (4, 4), (7, 14)])
def test_cycle_length_is_lcm_of_period_and_two(period, want):
    step = BeaconStep(MOVE_RIGHT_3, Unbounded() if period is None else Cyclic(period))
    assert step.cycle_length == want


@pytest.mark.parametrize("n", [-1, 2.5, "3"])
def test_advance_rejects_a_step_count_that_is_not_a_nonnegative_int(n):
    step = BeaconStep(MOVE_RIGHT_3, Cyclic(3))
    with pytest.raises(ParameterRangeError, match="step count"):
        step.advance(step.initial_label(), n)
