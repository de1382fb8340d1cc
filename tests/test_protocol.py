"""Budgeted protocols: gate-before-evaluate accounting, the adversarial
counter-family sweep, and noisy classification.

The sweep expectations follow from the family's halting step growing one
per index: the beacon first becomes samplable at K + delta, so any member
with K past tau_max must be reported unreachable, and the minimal such
index sits right above the time budget.
"""

import json
import math
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from support import (
    CENSUS_SIZE,
    HALF,
    HALT_NOW,
    LOOP_STAY,
    MOVE_RIGHT_3,
    QUARTER,
    beacon_instance,
    census_machine,
)

from pulsehit.dynamics import (
    PulseSchedule,
    SparseState,
    approx_unitary,
    evolve_integer,
    evolve_to,
    fractional_coeffs,
)
from pulsehit.errors import (
    NoiseMarginError,
    ParameterRangeError,
    SearchRangeExhaustedError,
)
from pulsehit.hitting import (
    Exhausted,
    Hit,
    InstanceDescriptor,
    fidelity_trace,
    grid_for,
    uhit_semidecide,
)
from pulsehit import protocol
from pulsehit.machine import Halted, StillRunning, classical_run
from pulsehit.protocol import (
    NoiseModel,
    ProtocolBudget,
    ProtocolOutcome,
    ReachableAt,
    ReportedUnreachable,
    Resources,
    SweepWitness,
    adversarial_sweep,
    classify_with_noise,
    run_bounded_protocol,
    sweep_report_json,
    work_to_reach,
)
from pulsehit.reduction import Halts, builtin_corpus, counter_family, encode, verify_corpus
from pulsehit.reversible import BeaconStep, BeaconSubspace, Cyclic, ExactLabel, LiveRun, Unbounded

# -- budgets and accounting -------------------------------------------------------


def test_budget_validation():
    b = ProtocolBudget(10, 10)
    assert b.tau_max == Fraction(10)
    with pytest.raises(ParameterRangeError):
        ProtocolBudget(0, 10)
    with pytest.raises(ParameterRangeError):
        ProtocolBudget(-1, 10)
    with pytest.raises(ParameterRangeError):
        ProtocolBudget(10, 0)
    with pytest.raises(ParameterRangeError):
        ProtocolBudget(10, 10.0)


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: encode(MOVE_RIGHT_3, QUARTER, "nonsense", Unbounded(), BeaconSubspace(), 10),
         "delta"),
        (lambda: encode(MOVE_RIGHT_3, "nonsense", HALF, Unbounded(), BeaconSubspace(), 10),
         "epsilon"),
        (lambda: grid_for("nonsense"), "epsilon"),
        (lambda: InstanceDescriptor(MOVE_RIGHT_3, "x", PulseSchedule(HALF, Unbounded()),
                                    BeaconSubspace(), 10, 2), "epsilon"),
        (lambda: verify_corpus([], "nonsense", HALF, Unbounded(), 10),
         "epsilon"),
        (lambda: verify_corpus([], QUARTER, "nonsense", Unbounded(), 10),
         "delta"),
        (lambda: adversarial_sweep([ProtocolBudget(5, 5)], epsilon="nonsense"), "epsilon"),
        (lambda: ProtocolBudget("nonsense", 3), "tau_max"),
        (lambda: ProtocolBudget(None, 3), "tau_max"),
        (lambda: NoiseModel("nonsense"), "gamma"),
        (lambda: work_to_reach("nonsense"), "t"),
    ],
    ids=["encode-delta", "encode-epsilon", "grid_for", "InstanceDescriptor",
         "verify_corpus-epsilon", "verify_corpus-delta", "adversarial_sweep",
         "ProtocolBudget-str", "ProtocolBudget-None", "NoiseModel", "work_to_reach"],
)
def test_a_parameter_that_is_not_rational_is_a_typed_error(call, name):
    with pytest.raises(ParameterRangeError, match=f"^{name} must be rational, got "):
        call()


def test_work_to_reach_counts_begun_pulses():
    assert work_to_reach(Fraction(0)) == 0
    assert work_to_reach(Fraction(1, 2)) == 1
    assert work_to_reach(Fraction(1)) == 1
    assert work_to_reach(Fraction(3, 2)) == 2
    assert work_to_reach(Fraction(7, 2)) == 4
    assert work_to_reach(Fraction(10)) == 10
    assert work_to_reach(Fraction(41, 4)) == 11
    with pytest.raises(ParameterRangeError):
        work_to_reach(Fraction(-1, 2))


@given(
    st.one_of(
        st.fractions(min_value=0),
        st.integers(min_value=0),
        st.integers(0, 10**30).map(lambda n: Fraction(n, 10**15 + 1)),
    )
)
def test_work_to_reach_is_ceiling_off_integers(t):
    t = Fraction(t)
    whole = t.numerator // t.denominator
    want = whole if t == whole else whole + 1
    assert work_to_reach(t) == want


# -- the bounded scan -------------------------------------------------------------


def test_generous_budget_finds_the_hit():
    inst = beacon_instance(MOVE_RIGHT_3, Unbounded(), 10)
    out = run_bounded_protocol(inst, ProtocolBudget(100, 100))
    assert out == ProtocolOutcome(
        ReachableAt(Fraction(7, 2)), Resources(Fraction(7, 2), 4)
    )
    assert out.correct is None


def test_time_gate_stops_before_the_hit():
    inst = beacon_instance(MOVE_RIGHT_3, Unbounded(), 10)
    out = run_bounded_protocol(inst, ProtocolBudget(3, 100))
    assert out.verdict == ReportedUnreachable()
    assert out.resources == Resources(Fraction(3), 3)


def test_work_gate_stops_before_the_hit():
    inst = beacon_instance(MOVE_RIGHT_3, Unbounded(), 10)
    out = run_bounded_protocol(inst, ProtocolBudget(100, 2))
    assert out.verdict == ReportedUnreachable()
    assert out.resources == Resources(Fraction(2), 2)


def test_observing_the_initial_state_is_free():
    step = BeaconStep(MOVE_RIGHT_3, Unbounded())
    sched = PulseSchedule(HALF, Unbounded())
    inst = InstanceDescriptor(
        MOVE_RIGHT_3, QUARTER, sched, ExactLabel(step.initial_label()), 10, 6
    )
    out = run_bounded_protocol(inst, ProtocolBudget(Fraction(1, 100), 1))
    assert out == ProtocolOutcome(ReachableAt(Fraction(0)), Resources(Fraction(0), 0))


def test_looper_exhausts_the_grid_not_the_budget():
    inst = beacon_instance(LOOP_STAY, Unbounded(), 20)
    out = run_bounded_protocol(inst, ProtocolBudget(1000, 1000))
    assert out.verdict == ReportedUnreachable()
    assert out.resources == Resources(Fraction(20), 20)


@pytest.mark.parametrize("tau_num", range(1, 13))
@pytest.mark.parametrize("e_max", [1, 2, 3, 4, 5, 8])
def test_budget_compliance_and_exact_verdict_boundary(tau_num, e_max):
    # the hit needs the point t = 7/2, which costs 7/2 time and 4 pulses
    tau = Fraction(tau_num, 2)
    inst = beacon_instance(MOVE_RIGHT_3, Unbounded(), 10)
    out = run_bounded_protocol(inst, ProtocolBudget(tau, e_max))
    assert out.resources.time_used <= tau
    assert out.resources.work_used <= e_max
    if tau >= Fraction(7, 2) and e_max >= 4:
        assert out.verdict == ReachableAt(Fraction(7, 2))
    else:
        assert out.verdict == ReportedUnreachable()


def test_a_budget_stops_the_run_near_its_last_pulse(monkeypatch):
    # census 4 is the translated looper q0 _ -> q0 1 R, which never
    # revisits, so only the budget stops its run: pulse 10 is the last the
    # budget reaches, and the scan's chunks double, so the run steps at
    # most 2 * 10 + 2 steps, not up to the horizon
    steps = []
    run = LiveRun.run

    def counting_run(self, limit):
        run(self, limit)
        steps.append(self.n)

    monkeypatch.setattr(LiveRun, "run", counting_run)
    inst = beacon_instance(census_machine(4), Unbounded(), 10**9)
    out = run_bounded_protocol(inst, ProtocolBudget(10, 10))
    assert out == ProtocolOutcome(ReportedUnreachable(), Resources(Fraction(10), 10))
    assert 10 < max(steps) <= 22


def _fraction_gated_protocol(inst, budget):
    """The budgeted scan walked over the trace's Fraction times: a point is
    gated by t > tau_max or ceil(t) pulses > e_max, and the first point at
    or past 1 - epsilon is the verdict."""
    threshold = 1 - inst.epsilon
    spent = Resources(Fraction(0), 0)
    for t, fid in fidelity_trace(inst):
        work = math.ceil(t)
        if t > budget.tau_max or work > budget.e_max:
            break
        spent = Resources(t, work)
        if fid >= threshold:
            return ProtocolOutcome(ReachableAt(t), spent)
    return ProtocolOutcome(ReportedUnreachable(), spent)


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from([MOVE_RIGHT_3, HALT_NOW, LOOP_STAY]),
    st.sampled_from([Unbounded(), Cyclic(2), Cyclic(3)]),
    st.fractions(min_value=0, max_value=1, max_denominator=12).filter(lambda d: 0 < d < 1),
    st.integers(1, 7),
    st.data(),
)
def test_time_gate_at_a_grid_point_and_a_tick_either_side(spec, clock, delta, grid, data):
    # the protocol gates in integer ticks of 1/(G den(delta)); set tau_max
    # on a grid point, one tick and half a tick either side of it, with the
    # work budget at, below and well above the point's pulse count
    inst = beacon_instance(spec, clock, 6, delta=delta, grid=grid)
    t = data.draw(st.sampled_from([t for t, _ in fidelity_trace(inst)][1:]))
    tick = Fraction(1, grid * delta.denominator)
    for tau_max in (t - tick, t - tick / 2, t, t + tick / 2, t + tick):
        for e_max in {max(1, math.ceil(t) - 1), math.ceil(t), 100}:
            if tau_max <= 0:
                continue
            budget = ProtocolBudget(tau_max, e_max)
            assert run_bounded_protocol(inst, budget) == _fraction_gated_protocol(inst, budget)


CORPUS_HALTERS = [e.machine for e in builtin_corpus() if isinstance(e.ground_truth, Halts)]


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(st.integers(0, CENSUS_SIZE - 1).map(census_machine), st.sampled_from(CORPUS_HALTERS)),
    st.one_of(st.just(Unbounded()), st.integers(2, 6).map(Cyclic)),
    st.one_of(st.none(), st.integers(0, 40)),
    st.sampled_from([HALF, Fraction(1, 3), Fraction(3, 5)]),
    st.integers(1, 6),
    st.integers(1, 40),
    st.data(),
)
def test_one_gate_decides_what_the_fraction_gated_scan_does(
    spec, clock, exact, delta, grid, horizon, data
):
    # tau_max and e_max range past the horizon, so on a cyclic clock the
    # cut lands inside pulses with mid-pulse points as well as between them
    step = BeaconStep(spec, clock)
    target = BeaconSubspace()
    if exact is not None:
        target = ExactLabel(step.advance(step.initial_label(), exact))
    inst = InstanceDescriptor(spec, QUARTER, PulseSchedule(delta, clock), target, horizon, grid)
    den = data.draw(st.integers(1, 2 * grid * delta.denominator))
    tau_max = Fraction(data.draw(st.integers(1, (horizon + 2) * den)), den)
    budget = ProtocolBudget(tau_max, data.draw(st.integers(1, horizon + 2)))
    assert run_bounded_protocol(inst, budget) == _fraction_gated_protocol(inst, budget)


# -- the adversarial sweep --------------------------------------------------------


def test_sweep_finds_minimal_witness_past_each_budget():
    budgets = [ProtocolBudget(10, 10), ProtocolBudget(100, 100)]
    witnesses = adversarial_sweep(budgets)
    assert [w.n for w in witnesses] == [10, 100]
    for w, budget in zip(witnesses, budgets):
        assert w.name == f"counter-{w.n}"
        assert w.halting_step == w.n + 1
        assert w.halting_step > budget.tau_max
        assert w.outcome.verdict == ReportedUnreachable()
        assert w.outcome.correct is False
        assert w.outcome.resources.time_used <= budget.tau_max
        assert w.outcome.resources.work_used <= budget.e_max
        # the witness really does halt, just past the time budget
        run = classical_run(counter_family(w.n), w.n + 2)
        assert isinstance(run, Halted) and run.steps == w.halting_step
        # minimality: the previous member's halting step fits the budget
        prev = classical_run(counter_family(w.n - 1), w.n + 1)
        assert prev.steps <= budget.tau_max


def test_sweep_witness_moves_when_the_budget_doubles():
    ns = [
        adversarial_sweep([ProtocolBudget(tau, tau)])[0].n
        for tau in (5, 10, 20, 40)
    ]
    assert ns == [5, 10, 20, 40]
    assert all(a < b for a, b in zip(ns, ns[1:]))


def test_sweep_handles_fractional_time_budgets():
    (w,) = adversarial_sweep([ProtocolBudget(Fraction(21, 2), 50)])
    assert w.n == 10 and w.halting_step == 11


def test_sweep_raises_when_the_family_cap_is_too_small():
    with pytest.raises(SearchRangeExhaustedError):
        adversarial_sweep([ProtocolBudget(50, 50)], family_cap=10)


@pytest.mark.parametrize("family_cap", [-1, 2.5, "10", None])
def test_sweep_rejects_a_family_cap_that_is_not_a_nonnegative_int(family_cap):
    with pytest.raises(ParameterRangeError, match="family_cap"):
        adversarial_sweep([ProtocolBudget(5, 5)], family_cap=family_cap)


@pytest.mark.parametrize(
    "epsilon, delta, name",
    [(Fraction(1, 2), Fraction(1, 2), "epsilon"), (Fraction(1, 4), Fraction(1), "delta")],
)
def test_sweep_rejects_bad_parameters_before_searching(epsilon, delta, name):
    # a cap of 5 rules out the witness for budget 100 before any member is built
    with pytest.raises(ParameterRangeError, match=name):
        adversarial_sweep([ProtocolBudget(100, 100)], epsilon=epsilon, delta=delta, family_cap=5)


def test_sweep_report_json_is_frozen_and_deterministic():
    witnesses = adversarial_sweep([ProtocolBudget(10, 10)])
    text = sweep_report_json(witnesses)
    assert text == (
        '{"budget": {"e_max": 10, "tau_max": "10"}, '
        '"outcome": "reported-unreachable", '
        '"resources": {"time_used": "10", "work_used": 10}, '
        '"witness": {"K": 11, "n": 10, "name": "counter-10"}}\n'
    )
    assert sweep_report_json(adversarial_sweep([ProtocolBudget(10, 10)])) == text
    for line in text.splitlines():
        json.loads(line)


def test_no_budgets_report_no_lines():
    assert sweep_report_json(adversarial_sweep([])) == ""


def _linear_sweep(budget, family_cap):
    """The witness search as an upward walk over every family index."""
    for n in range(family_cap + 1):
        machine = counter_family(n)
        run = classical_run(machine, n + 2)
        if run.steps <= budget.tau_max:
            continue
        horizon = max(math.ceil(budget.tau_max) + 2, run.steps + 2)
        inst = encode(machine, QUARTER, HALF, Unbounded(), BeaconSubspace(), horizon)
        outcome = run_bounded_protocol(inst, budget)
        if not isinstance(outcome.verdict, ReachableAt):
            return SweepWitness(budget, f"counter-{n}", n, run.steps,
                                replace(outcome, correct=False))
    return None


@settings(max_examples=40, deadline=None)
@given(
    st.fractions(min_value=0, max_value=60, max_denominator=6).filter(lambda t: t > 0),
    st.integers(1, 70),
    st.integers(0, 70),
)
def test_sweep_matches_a_linear_walk(tau_max, e_max, family_cap):
    budget = ProtocolBudget(tau_max, e_max)
    want = _linear_sweep(budget, family_cap)
    if want is None:
        with pytest.raises(SearchRangeExhaustedError):
            adversarial_sweep([budget], family_cap=family_cap)
    else:
        assert adversarial_sweep([budget], family_cap=family_cap) == [want]


@pytest.mark.parametrize(
    "budget",
    [ProtocolBudget(Fraction(3, 2), 1), ProtocolBudget(1, 1), ProtocolBudget(10, 10),
     ProtocolBudget(Fraction(21, 2), 50), ProtocolBudget(100, 7)],
    ids=["3/2", "1", "10", "21/2", "100-work-7"],
)
def test_family_cap_at_the_witness_finds_it_and_one_below_raises(budget):
    (w,) = adversarial_sweep([budget])
    assert adversarial_sweep([budget], family_cap=w.n) == [w]
    with pytest.raises(SearchRangeExhaustedError, match=f"0..{w.n - 1}$"):
        adversarial_sweep([budget], family_cap=w.n - 1)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 3000))
def test_counter_family_member_n_halts_in_n_plus_one_steps(n):
    # the sweep names counter-floor(tau_max) as its witness because of this
    run = classical_run(counter_family(n), n + 2)
    assert isinstance(run, Halted) and run.steps == n + 1
    assert isinstance(classical_run(counter_family(n), n), StillRunning)


@pytest.mark.parametrize("tau_max", [Fraction(1, 2), 1, 10, 100, 1000, 10_000], ids=str)
def test_sweep_makes_two_classical_runs_per_budget(monkeypatch, tau_max):
    calls = []

    def counting_run(machine, max_steps):
        calls.append(max_steps)
        return classical_run(machine, max_steps)

    monkeypatch.setattr(protocol, "classical_run", counting_run)
    (w,) = adversarial_sweep([ProtocolBudget(tau_max, 20_000)], family_cap=20_000)
    assert w.n == math.floor(tau_max)
    # the witness, and the member below it when there is one
    assert calls == ([w.n + 2, w.n + 1] if w.n else [2])


@pytest.mark.parametrize(
    "name, sabotage",
    [
        ("counter_family", lambda n: counter_family(n + 1)),
        ("run_bounded_protocol",
         lambda inst, budget: ProtocolOutcome(ReachableAt(Fraction(1)), Resources(1, 1))),
    ],
    ids=["family-halts-a-step-late", "protocol-reports-a-hit"],
)
def test_sweep_asserts_what_the_construction_guarantees(monkeypatch, name, sabotage):
    monkeypatch.setattr(protocol, name, sabotage)
    with pytest.raises(AssertionError):
        adversarial_sweep([ProtocolBudget(10, 10)])


# -- noise ------------------------------------------------------------------------


def test_noise_model_validation():
    assert NoiseModel(Fraction(1, 8), 3).gamma == Fraction(1, 8)
    with pytest.raises(ParameterRangeError):
        NoiseModel(Fraction(-1, 8))
    with pytest.raises(ParameterRangeError):
        NoiseModel(Fraction(1, 8), "seed")


def test_noise_margin_is_enforced():
    inst = beacon_instance(MOVE_RIGHT_3, Unbounded(), 10)
    with pytest.raises(NoiseMarginError):
        classify_with_noise(inst, NoiseModel(Fraction(1, 2)))
    tight = beacon_instance(MOVE_RIGHT_3, Unbounded(), 10, epsilon=Fraction(49, 100))
    with pytest.raises(NoiseMarginError):
        classify_with_noise(tight, NoiseModel(Fraction(1, 8)))
    # at epsilon = 1/4 the bound is (1 - epsilon)/2 = 3/8, below 1 - 2*epsilon
    with pytest.raises(NoiseMarginError, match="3/8"):
        classify_with_noise(inst, NoiseModel(Fraction(3, 8)))
    just_inside = NoiseModel(Fraction(3, 8) - Fraction(1, 10**9))
    assert isinstance(classify_with_noise(inst, just_inside), Hit)


@pytest.mark.parametrize("seed", range(3))
def test_noise_past_the_margin_cannot_light_a_looper(seed):
    # loop-stay never halts, so every point reads 0; gamma = 2/5 used to
    # be accepted (below 1 - 2*epsilon = 1/2) and read a hit off the noise
    inst = InstanceDescriptor(
        LOOP_STAY, QUARTER, PulseSchedule(HALF, Unbounded()), BeaconSubspace(), 100, 7
    )
    for gamma in (Fraction(2, 5), Fraction(49, 100)):
        with pytest.raises(NoiseMarginError):
            classify_with_noise(inst, NoiseModel(gamma, seed))
    assert isinstance(classify_with_noise(inst, NoiseModel(Fraction(1, 5), seed)), Exhausted)


CORPUS_LOOPERS = [e.machine for e in builtin_corpus() if not isinstance(e.ground_truth, Halts)]
EPSILONS = st.fractions(Fraction(1, 100), Fraction(49, 100), max_denominator=100)
NOISE_CLOCKS = st.one_of(st.just(Unbounded()), st.integers(2, 6).map(Cyclic))


def _inside_the_margin(epsilon, data):
    """A noise model with gamma drawn inside the margin for epsilon."""
    margin = min(1 - 2 * epsilon, (1 - epsilon) / 2)
    gamma = margin * Fraction(data.draw(st.integers(0, 999)), 1000)
    return NoiseModel(gamma, data.draw(st.integers(0, 2**32)))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(CORPUS_LOOPERS), NOISE_CLOCKS, EPSILONS, st.integers(1, 200), st.data())
def test_noise_inside_the_margin_never_lights_a_looper(spec, clock, epsilon, horizon, data):
    inst = beacon_instance(spec, clock, horizon, epsilon=epsilon)
    assert isinstance(classify_with_noise(inst, _inside_the_margin(epsilon, data)), Exhausted)


@settings(max_examples=100, deadline=None)
@given(
    st.one_of(st.sampled_from(CORPUS_HALTERS), st.integers(0, CENSUS_SIZE - 1).map(census_machine)),
    NOISE_CLOCKS,
    EPSILONS,
    st.integers(1, 40),
    st.data(),
)
def test_a_noisy_hit_is_a_point_of_fidelity_at_least_the_bound(spec, clock, epsilon, horizon, data):
    # the noiseless trace holds every evaluated point with its fidelity
    inst = beacon_instance(spec, clock, horizon, epsilon=epsilon)
    noise = _inside_the_margin(epsilon, data)
    report = classify_with_noise(inst, noise)
    if isinstance(report, Hit):
        fid = dict(fidelity_trace(inst))[report.t_hit]
        assert fid >= 1 - epsilon - 2 * noise.gamma - 1e-12


def test_zero_noise_is_bitwise_the_noiseless_scan():
    # the cyclic instance hits on an exact rational mid-pulse value, so any
    # float round-trip would show up as an equality failure here
    inst = beacon_instance(MOVE_RIGHT_3, Cyclic(2), 10)
    want = uhit_semidecide(inst)
    got = classify_with_noise(inst, NoiseModel(Fraction(0), seed=7))
    assert got == want
    assert isinstance(got.fidelity_at_hit, Fraction)
    assert got.fidelity_at_hit == Fraction(3, 4)


@pytest.mark.parametrize("seed", range(10))
def test_noise_within_margin_keeps_every_verdict(seed):
    noise = NoiseModel(Fraction(1, 8), seed)
    # dark points read at most 1/8 < 5/8, lit points at least 7/8, so the
    # noisy scan must hit exactly where the noiseless one does
    hit_inst = beacon_instance(MOVE_RIGHT_3, Unbounded(), 10)
    noisy = classify_with_noise(hit_inst, noise)
    assert isinstance(noisy, Hit)
    assert noisy.t_hit == Fraction(7, 2)
    assert 1 - Fraction(1, 8) <= Fraction(noisy.fidelity_at_hit) <= 1

    now = classify_with_noise(beacon_instance(HALT_NOW, Unbounded(), 10), noise)
    assert isinstance(now, Hit) and now.t_hit == HALF

    loop = classify_with_noise(beacon_instance(LOOP_STAY, Unbounded(), 50), noise)
    assert isinstance(loop, Exhausted)
    assert 0 <= loop.max_fidelity_seen <= 0.125


def test_noise_is_reproducible_per_seed():
    inst = beacon_instance(MOVE_RIGHT_3, Unbounded(), 10)
    noise = NoiseModel(Fraction(1, 8), 42)
    assert classify_with_noise(inst, noise) == classify_with_noise(inst, noise)



# -- integer parameters ------------------------------------------------------------


def _step():
    return BeaconStep(MOVE_RIGHT_3, Cyclic(3))


def _psi():
    return SparseState.basis_state(_step().initial_label())


def _instance(**kw):
    fields = {"horizon": 10, "grid": 5, **kw}
    sched = PulseSchedule(HALF, Unbounded())
    return InstanceDescriptor(MOVE_RIGHT_3, QUARTER, sched, BeaconSubspace(), **fields)


# (parameter named in the message, call taking the value); bool is a subclass
# of int, and every one of these must refuse True and False alike
INTEGER_PARAMETERS = {
    "instance-horizon": ("horizon", lambda v: _instance(horizon=v)),
    "instance-grid": ("grid", lambda v: _instance(grid=v)),
    "encode-horizon": (
        "horizon",
        lambda v: encode(MOVE_RIGHT_3, QUARTER, HALF, Unbounded(), BeaconSubspace(), v),
    ),
    "verify-horizon": (
        "horizon",
        lambda v: verify_corpus([], QUARTER, HALF, Unbounded(), v),
    ),
    "budget-e_max": ("e_max", lambda v: ProtocolBudget(10, v)),
    "sweep-family_cap": (
        "family_cap",
        lambda v: adversarial_sweep([ProtocolBudget(1, 1)], family_cap=v),
    ),
    "advance-steps": ("step count", lambda v: _step().advance(_step().initial_label(), v)),
    "evolve-steps": ("step count", lambda v: evolve_integer(_step(), _psi(), v)),
    "evolve-precision": (
        "precision exponent",
        lambda v: evolve_to(_step(), PulseSchedule(HALF, Cyclic(3)), _psi(), 1, m=v),
    ),
    "classical-max_steps": ("max_steps", lambda v: classical_run(MOVE_RIGHT_3, v)),
    "family-index": ("family index", lambda v: counter_family(v)),
    "coeffs-cycle-length": ("cycle length", lambda v: fractional_coeffs(v, HALF)),
    "noise-seed": ("seed", lambda v: NoiseModel(Fraction(1, 10), v)),
}


# (parameter named in the message, call taking the value); a bool would
# pass Fraction() as 0 or 1, so every rational parameter refuses it too
RATIONAL_PARAMETERS = {
    "budget-tau_max": ("tau_max", lambda v: ProtocolBudget(v, 3)),
    "noise-gamma": ("gamma", lambda v: NoiseModel(v)),
    "evolve-time": ("t", lambda v: evolve_to(_step(), PulseSchedule(HALF, Cyclic(3)), _psi(), v)),
    "approx-time": (
        "t",
        lambda v: approx_unitary(
            _step(), PulseSchedule(HALF, Cyclic(3)), [_step().initial_label()], v, 10
        ),
    ),
    "work-time": ("t", lambda v: work_to_reach(v)),
    "state-time_tag": ("time_tag", lambda v: SparseState([], v)),
    "coeffs-alpha": ("alpha", lambda v: fractional_coeffs(3, v)),
    "schedule-delta": ("delta", lambda v: PulseSchedule(v, Unbounded())),
    "grid-epsilon": ("epsilon", lambda v: grid_for(v)),
}


@pytest.mark.parametrize("value", [True, False])
@pytest.mark.parametrize("case", sorted(RATIONAL_PARAMETERS))
def test_booleans_are_not_rational_parameters(case, value):
    name, call = RATIONAL_PARAMETERS[case]
    with pytest.raises(ParameterRangeError, match=f"^{name} must be rational, got {value}$"):
        call(value)


@pytest.mark.parametrize("value", [True, False])
@pytest.mark.parametrize("case", sorted(INTEGER_PARAMETERS))
def test_booleans_are_not_integer_parameters(case, value):
    name, call = INTEGER_PARAMETERS[case]
    with pytest.raises(ParameterRangeError, match=name):
        call(value)
