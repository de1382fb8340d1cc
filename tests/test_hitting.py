"""Grid scanner: frozen first-hit expectations, skip semantics, exhaustion,
and the serialized report formats.

The frozen scan tables were worked out by hand: the beacon first lights at
clock K + 1, so an unbounded-clock scan (which can evaluate only integer
and pulse-end points) first hits at t = K + delta with fidelity exactly 1,
while a cyclic clock exposes the mid-pulse ramp sin^2(pi j / 2G) inside
the window [K, K + delta], whose first crossing of 3/4 at G = 6 is the
Niven point j = 4, t = K + 1/3, with fidelity exactly 3/4.
"""

import contextlib
import gc
import itertools
import math
import re
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import stepwise_scan, stepwise_scans, transfer_amplitudes_oracle
from support import (
    CENSUS_SIZE,
    HALF,
    HALT_NOW,
    LOOP_STAY,
    MOVE_RIGHT_3,
    NAMED_CENSUS,
    QUARTER,
    beacon_instance,
    census_machine,
    corpus_machine,
    count_forward,
    machines,
    walk,
)

from pulsehit.cli import main
from pulsehit.dynamics import (
    PulseSchedule,
    SparseState,
    approx_unitary,
    cycle_of,
    evolve_to,
    fractional_coeffs,
    subspace_fidelity,
)
from pulsehit.errors import IllFormedMachineError, LabelError, NoiseMarginError, ParameterRangeError
from pulsehit.hitting import (
    Exhausted,
    Hit,
    InstanceDescriptor,
    _decimal_or_ratio,
    _float_ceiling,
    _scan,
    fidelity_trace,
    grid_for,
    hit_report_json,
    trace_to_csv,
    uhit_semidecide,
)
from pulsehit.machine import Halted, classical_run, parse_machine
from pulsehit.protocol import (
    NoiseModel,
    ProtocolBudget,
    ReachableAt,
    classify_with_noise,
    run_bounded_protocol,
)
from pulsehit.reduction import counter_family, encode
from pulsehit.reversible import (
    BeaconStep,
    BeaconSubspace,
    Cyclic,
    ExactLabel,
    ExtendedBasisState,
    Unbounded,
)

# -- grid refinement ------------------------------------------------------------


def test_grid_for_frozen_values():
    # derived offline at 50-digit precision from the ramp formula
    for eps, want in [
        (Fraction(1, 4), 6),
        (Fraction(1, 8), 9),
        (Fraction(1, 3), 6),
        (Fraction(1, 10), 10),
        (Fraction(49, 100), 5),
        (Fraction(1, 100), 32),
        # just below a boundary sin^2(pi/G), the grid is G + 1
        (Fraction(math.sin(math.pi / 7) ** 2) - Fraction(1, 10**12), 8),
        (Fraction(math.sin(math.pi / 5) ** 2) - Fraction(1, 10**10), 6),
    ]:
        assert grid_for(eps) == want


def test_grid_for_rejects_bad_epsilon():
    for eps in (Fraction(0), Fraction(1, 2), Fraction(3, 4)):
        with pytest.raises(ParameterRangeError):
            grid_for(eps)


def _least_grid(eps: Fraction) -> int:
    """The least G >= 2 with sin^2(pi/G) <= eps, by bisection at 60 digits."""
    import mpmath

    def ok(g):
        return mpmath.sin(mpmath.pi / g) ** 2 <= bound

    with mpmath.workdps(60):
        bound = mpmath.mpf(eps.numerator) / eps.denominator
        lo, hi = 1, 2
        while not ok(hi):
            lo, hi = hi, 2 * hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if ok(mid) else (mid, hi)
        return hi


def test_grid_for_is_the_least_grid_up_to_the_cap():
    # the least grids for eps = 10**-k, k = 1..30, all below the 2**52 cap
    frozen = [
        10, 32, 100, 315, 994, 3142, 9935, 31416, 99346, 314160, 993459,
        3141593, 9934589, 31415927, 99345883, 314159266, 993458827,
        3141592654, 9934588266, 31415926536, 99345882658, 314159265359,
        993458826580, 3141592653590, 9934588265797, 31415926535898,
        99345882657962, 314159265358980, 993458826579611, 3141592653589794,
    ]
    for k, want in enumerate(frozen, start=1):
        eps = Fraction(1, 10**k)
        assert grid_for(eps) == want == _least_grid(eps)
    for eps in (Fraction(1, 4), Fraction(1, 3), Fraction(2, 5)):
        assert grid_for(eps) == _least_grid(eps)


@pytest.mark.parametrize("k", [32, 100, 300, 400])
def test_grid_for_refuses_an_epsilon_past_the_cap(k):
    # past the cap: 10**-32 needs G above 2**53, where consecutive float(1/G)
    # coincide (10**-100, 10**-300), and 10**-400 is 0.0 as a float
    start = time.perf_counter()
    with pytest.raises(ParameterRangeError, match="epsilon"):
        grid_for(Fraction(1, 10**k))
    assert time.perf_counter() - start < 0.5


# -- instance validation ---------------------------------------------------------


def test_instance_descriptor_validation():
    sched = PulseSchedule(HALF, Unbounded())
    good = InstanceDescriptor(MOVE_RIGHT_3, QUARTER, sched, BeaconSubspace(), 10, 6)
    assert good.epsilon == QUARTER
    with pytest.raises(ParameterRangeError):
        InstanceDescriptor(MOVE_RIGHT_3, Fraction(1, 2), sched, BeaconSubspace(), 10, 6)
    with pytest.raises(ParameterRangeError):
        InstanceDescriptor(MOVE_RIGHT_3, QUARTER, sched, BeaconSubspace(), 0, 6)
    with pytest.raises(ParameterRangeError):
        InstanceDescriptor(MOVE_RIGHT_3, QUARTER, sched, BeaconSubspace(), 10, 0)
    with pytest.raises(ParameterRangeError):
        InstanceDescriptor(MOVE_RIGHT_3, QUARTER, sched, "beacon", 10, 6)
    with pytest.raises(ParameterRangeError):
        InstanceDescriptor("machine", QUARTER, sched, BeaconSubspace(), 10, 6)
    with pytest.raises(ParameterRangeError):
        InstanceDescriptor(MOVE_RIGHT_3, QUARTER, "sched", BeaconSubspace(), 10, 6)


@pytest.mark.parametrize("phi", ["x", None, 3])
def test_exact_target_refuses_a_non_label(phi):
    # refused where the target is built, before any scan reads phi.hist
    sched = PulseSchedule(HALF, Unbounded())
    with pytest.raises(LabelError, match=f"^not a basis label: {phi!r}$"):
        InstanceDescriptor(MOVE_RIGHT_3, QUARTER, sched, ExactLabel(phi), 10, 6)
    with pytest.raises(LabelError, match=f"^not a basis label: {phi!r}$"):
        uhit_semidecide(encode(MOVE_RIGHT_3, QUARTER, HALF, Unbounded(), ExactLabel(phi), 10))


# -- frozen first hits -----------------------------------------------------------


def test_unbounded_beacon_hit_at_pulse_end_after_halt():
    report = uhit_semidecide(beacon_instance(MOVE_RIGHT_3, Unbounded(), 10))
    assert report == Hit(Fraction(7, 2), 1, (Fraction(3), Fraction(7, 2)))
    assert isinstance(report.fidelity_at_hit, int)  # certified exactly


def test_cyclic_beacon_hit_mid_pulse_at_niven_tie():
    report = uhit_semidecide(beacon_instance(MOVE_RIGHT_3, Cyclic(2), 10))
    assert isinstance(report, Hit)
    assert report.t_hit == Fraction(10, 3)  # K + 4/6 of the half-width pulse
    assert report.fidelity_at_hit == Fraction(3, 4)  # exact threshold tie
    assert isinstance(report.fidelity_at_hit, Fraction)
    assert report.window == (Fraction(3), Fraction(7, 2))


def test_immediate_halter_hits_in_first_window():
    for clock in (Unbounded(), Cyclic(2)):
        report = uhit_semidecide(beacon_instance(HALT_NOW, clock, 5))
        assert isinstance(report, Hit)
        # initial label is pre-halt, so the first window has no usable
        # mid-pulse points in either mode and the pulse end hits first
        assert report.t_hit == HALF
        assert report.fidelity_at_hit == 1
        assert report.window == (Fraction(0), HALF)


def test_looper_exhausts_with_exact_zero_maximum():
    for clock in (Unbounded(), Cyclic(3)):
        report = uhit_semidecide(beacon_instance(LOOP_STAY, clock, 50))
        assert report == Exhausted(50, 0)
        assert isinstance(report.max_fidelity_seen, int)


def test_horizon_boundary_is_inclusive_but_not_beyond():
    # the hit lives at 7/2, so horizon 3 scans past t = 3 and stops
    assert uhit_semidecide(beacon_instance(MOVE_RIGHT_3, Unbounded(), 3)) == Exhausted(3, 0)
    report = uhit_semidecide(beacon_instance(MOVE_RIGHT_3, Unbounded(), 4))
    assert report == Hit(Fraction(7, 2), 1, (Fraction(3), Fraction(7, 2)))


def test_exact_label_targets():
    step = BeaconStep(MOVE_RIGHT_3, Unbounded())
    labels = [step.initial_label()]
    for _ in range(2):
        labels.append(step.forward(labels[-1]))
    sched = PulseSchedule(HALF, Unbounded())
    inst = InstanceDescriptor(
        MOVE_RIGHT_3, QUARTER, sched, ExactLabel(labels[2]), 10, 6
    )
    report = uhit_semidecide(inst)
    assert report == Hit(Fraction(3, 2), 1, (Fraction(1), Fraction(3, 2)))
    at_start = InstanceDescriptor(
        MOVE_RIGHT_3, QUARTER, sched, ExactLabel(labels[0]), 10, 6
    )
    report0 = uhit_semidecide(at_start)
    assert report0 == Hit(Fraction(0), 1, (Fraction(0), Fraction(0)))


# -- traces and skip semantics ----------------------------------------------------


def test_trace_point_counts_reflect_skips():
    # unbounded: integer + pulse-end points only, two per interval plus the
    # final integer
    tr_u = fidelity_trace(beacon_instance(MOVE_RIGHT_3, Unbounded(), 10))
    assert len(tr_u) == 2 * 10 + 1
    # cyclic: three pre-halt intervals at two points, seven post-halt
    # intervals at G + 1 = 7 points, plus the final integer
    tr_c = fidelity_trace(beacon_instance(MOVE_RIGHT_3, Cyclic(2), 10))
    assert len(tr_c) == 3 * 2 + 7 * 7 + 1
    assert [t for t, _ in tr_u] == sorted(t for t, _ in tr_u)
    assert [t for t, _ in tr_c] == sorted(t for t, _ in tr_c)
    # no point lands in the idle segment (n + delta, n + 1)
    for t, _ in tr_c:
        assert t - t.numerator // t.denominator <= HALF


@settings(max_examples=40, deadline=None)
@given(
    machines(total=True),
    st.sampled_from([None, 2, 3, 5]),
    st.fractions(min_value=0, max_value=1).filter(lambda d: 0 < d < 1),
    st.integers(1, 12),
    st.integers(1, 12),
)
def test_trace_times_are_the_grid_points(spec, period, delta, grid, horizon):
    # the scan carries points as integer ticks; its times must be exactly
    # {n + j*delta/G}, enumerated here from the halting step alone: the
    # integer n, the pulse end n + delta, and on a cyclic clock the G - 1
    # mid-pulse points of every pulse from a label with the halt flag set,
    # which the step sets on reaching the halt state (n >= K), or on its
    # first step for a machine that starts there (K = 0)
    clock = Unbounded() if period is None else Cyclic(period)
    inst = beacon_instance(spec, clock, horizon, delta=delta, grid=grid)
    run = classical_run(spec, horizon)
    halted_from = max(run.steps, 1) if isinstance(run, Halted) else horizon + 1
    want = []
    for n in range(horizon + 1):
        want.append(Fraction(n))
        if n == horizon:
            break
        if period is not None and n >= halted_from:
            want.extend(n + Fraction(j * delta.numerator, grid * delta.denominator)
                        for j in range(1, grid))
        want.append(n + delta)
    got = [t for t, _ in fidelity_trace(inst)]
    assert got == want
    assert all(type(t) is Fraction for t in got)


_deltas = st.integers(2, 10**30).flatmap(
    lambda den: st.integers(1, den - 1).map(lambda num: Fraction(num, den))
)


@settings(max_examples=300, deadline=None)
@given(_deltas, st.integers(1, 5), st.integers(1, 6))
def test_coprime_rows_are_the_constructors_fractions(delta, grid, horizon):
    # the trace sets each row's time from its coprime pair and skips
    # Fraction's gcd; every row, integer, mid-pulse (past the halt at 3)
    # and pulse end, is indistinguishable from the constructor's, also
    # once used in arithmetic
    inst = beacon_instance(MOVE_RIGHT_3, Cyclic(3), horizon, delta=delta, grid=grid)
    third = Fraction(1, 3)
    for got, _ in fidelity_trace(inst):
        want = Fraction(got.numerator, got.denominator)
        assert type(got) is Fraction
        assert got == want and hash(got) == hash(want) and str(got) == str(want)
        assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
        assert got + third == want + third and str(got + third) == str(want + third)


def test_trace_fraction_constructions_do_not_grow_with_the_horizon(monkeypatch):
    # each row's time is set from its coprime pair, so the Fraction
    # constructor runs a fixed number of times per trace (offsets,
    # threshold, Niven lookups), not once per row
    spec = corpus_machine("scan-199")
    made = []
    original = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(cls)
        return original(cls, *args, **kwargs)

    counts = []
    for horizon in (300, 3000):
        inst = beacon_instance(spec, Cyclic(14), horizon, grid=5)
        monkeypatch.setattr(Fraction, "__new__", counting_new)
        rows = fidelity_trace(inst)
        monkeypatch.undo()
        counts.append(len(made))
        del made[:]
        assert all(type(t) is Fraction for t, _ in rows)
    assert 0 < counts[0] == counts[1] < 100


def test_trace_rows_start_no_collection_and_leave_no_cycle():
    # the rows are built with the cyclic collector paused: without the
    # pause this trace of 17 201 rows sets off 49 collections, each of
    # which only re-walks live rows; dropping the rows leaves nothing
    # unreachable, so the pause defers no garbage
    inst = beacon_instance(corpus_machine("scan-199"), Cyclic(14), 3000, grid=5)
    started = []

    def count(phase, info):
        if phase == "start":
            started.append(info["generation"])

    gc.collect()
    gc.callbacks.append(count)
    try:
        rows = fidelity_trace(inst)
    finally:
        gc.callbacks.remove(count)
    assert len(rows) == 17_201
    assert started == []
    del rows
    assert gc.collect() == 0


def test_a_trace_leaves_a_caller_paused_collector_paused():
    inst = beacon_instance(MOVE_RIGHT_3, Cyclic(3), 8, grid=5)
    gc.disable()
    try:
        assert fidelity_trace(inst)
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_first_integer_hit_is_k_plus_one():
    tr = fidelity_trace(beacon_instance(MOVE_RIGHT_3, Unbounded(), 10))
    integers = [(t, f) for t, f in tr if t.denominator == 1]
    first = next(t for t, f in integers if f >= 0.75)
    assert first == 4  # K + 1
    assert [f for t, f in integers[:4]] == [0.0, 0.0, 0.0, 0.0]
    # beacon parity alternates at integer times past the halt
    assert [f for t, f in integers[4:]] == [1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0]


# (clock, target: None for the beacon or N for the label N steps in, grid,
# horizon); the -wraps cases run three or more whole post-halt cycles past
# the halt at step 3, so the scan's cycle position wraps around
SCANNER_ROUTE_CASES = {
    "beacon-cyclic2": (Cyclic(2), None, 6, 8),
    "beacon-cyclic3-grid5": (Cyclic(3), None, 5, 8),
    "exact5-cyclic3-grid5": (Cyclic(3), 5, 5, 8),
    "exact5-cyclic4-grid5": (Cyclic(4), 5, 5, 8),
    "exact7-cyclic5-grid5-wraps": (Cyclic(5), 7, 5, 36),
    "beacon-cyclic5-grid4-wraps": (Cyclic(5), None, 4, 36),
    "exact12-cyclic3-grid4-wraps": (Cyclic(3), 12, 4, 24),
}


@pytest.mark.parametrize(
    "clock, target_steps, grid, horizon",
    list(SCANNER_ROUTE_CASES.values()),
    ids=list(SCANNER_ROUTE_CASES),
)
def test_scanner_fidelities_match_dynamics_route(clock, target_steps, grid, horizon):
    # every evaluated grid point, recomputed through evolve_to; each
    # mid-pulse point also against the eigendecomposition oracle, on a
    # cycle found here by walking the step, so the check shares no cycle
    # code with the scanner
    step = BeaconStep(MOVE_RIGHT_3, clock)
    start = step.initial_label()
    if target_steps is None:
        target = BeaconSubspace()
    else:
        target = ExactLabel(walk(step, start, target_steps)[-1])
    sched = PulseSchedule(HALF, clock)
    inst = InstanceDescriptor(MOVE_RIGHT_3, QUARTER, sched, target, horizon, grid)
    pred = step.target_predicate(target)
    psi0 = SparseState.basis_state(start)
    mid_points = 0
    for t, fid in fidelity_trace(inst):
        out = evolve_to(step, sched, psi0, t)
        assert abs(fid - float(subspace_fidelity(out, pred))) < 1e-12
        n, s = divmod(t, 1)
        if 0 < s < HALF:
            cyc = [walk(step, start, n)[-1]]
            nxt = step.forward(cyc[0])
            while nxt != cyc[0]:
                cyc.append(nxt)
                nxt = step.forward(nxt)
            amps = transfer_amplitudes_oracle(len(cyc), float(s / HALF))
            want = sum(abs(amps[r]) ** 2 for r, lab in enumerate(cyc) if pred(lab))
            assert abs(fid - want) < 1e-12
            mid_points += 1
    assert mid_points > 0


@settings(max_examples=30, deadline=None)
@given(st.integers(3, 9), st.integers(3, 40), st.integers(2, 8))
def test_mid_pulse_values_match_the_full_coefficient_vector_exactly(period, target_steps, grid):
    # the scan evaluates an exact-label row only at its lit offset; each
    # value must still be, to the last bit, the squared modulus of that
    # entry of the whole fractional_coeffs vector.  The target sits
    # target_steps >= K = 3 steps in, so it is on the post-halt cycle, and
    # the horizon runs two whole cycles past it
    clock = Cyclic(period)
    step = BeaconStep(MOVE_RIGHT_3, clock)
    k = step.cycle_length
    target = ExactLabel(walk(step, step.initial_label(), target_steps)[-1])
    sched = PulseSchedule(HALF, clock)
    horizon = target_steps + 2 * k
    inst = InstanceDescriptor(MOVE_RIGHT_3, QUARTER, sched, target, horizon, grid)
    mid_points = 0
    for t, fid in fidelity_trace(inst):
        n, s = divmod(t, 1)
        if 0 < s < HALF:
            g, _ = fractional_coeffs(k, s / HALF)
            assert fid == abs(g[(target_steps - n) % k]) ** 2
            mid_points += 1
    assert mid_points == (horizon - 3) * (grid - 1)


def test_mid_pulse_rows_cost_no_walk_of_a_long_cycle(monkeypatch):
    # past the halt at K = 3 the target is placed on the 10^4-label cycle
    # by arithmetic and the scan steps no further, and the K = 3 steps up
    # to the halt run in place, so no forward call is made, whatever the
    # report
    clock = Cyclic(10**4)
    step = BeaconStep(MOVE_RIGHT_3, clock)
    sched = PulseSchedule(HALF, clock)
    # (target, frozen first hit, or None for exhaustion)
    cases = [
        (BeaconSubspace(), Fraction(17, 5)),
        (ExactLabel(walk(step, step.initial_label(), 5)[-1]), Fraction(22, 5)),
        (ExactLabel(walk(step, step.initial_label(), 5000)[-1]), None),
    ]
    calls = count_forward(monkeypatch)
    for target, want in cases:
        del calls[:]
        inst = InstanceDescriptor(MOVE_RIGHT_3, QUARTER, sched, target, 10, 5)
        report = uhit_semidecide(inst)
        if want is None:
            assert isinstance(report, Exhausted)
        else:
            assert report.t_hit == want
        assert len(calls) == 0


@pytest.mark.parametrize(
    "name, clock, exact",
    [("scan-199", Cyclic(14), None), ("scan-199", Cyclic(14), 210), ("scan-20", Unbounded(), 30)],
    ids=["scan-199-cyclic14-beacon", "scan-199-cyclic14-exact210", "scan-20-unbounded-exact30"],
)
def test_trace_steps_only_to_the_halt_whatever_the_horizon(name, clock, exact, monkeypatch):
    # every pulse past the halt at K comes from its offset on the orbit,
    # so a longer trace makes no further forward call
    spec = corpus_machine(name)
    k = classical_run(spec, 10**4).steps
    step = BeaconStep(spec, clock)
    target = BeaconSubspace() if exact is None else ExactLabel(step.advance(step.initial_label(), exact))
    calls = count_forward(monkeypatch)
    counts = []
    for horizon in (300, 3000):
        del calls[:]
        fidelity_trace(InstanceDescriptor(spec, QUARTER, PulseSchedule(HALF, clock), target, horizon, 5))
        counts.append(len(calls))
    assert counts[0] == counts[1] <= k + 1



def test_a_lit_integer_point_is_met_before_the_step_after_it():
    # before the halt the scan yields a lit integer point on its own, so a
    # report there never takes the next step, which this machine lacks
    spec = parse_machine("states: q0 qH\nalphabet: _\nstart: q0\nhalt: qH\n")
    step = BeaconStep(spec, Unbounded())
    sched = PulseSchedule(HALF, Unbounded())
    inst = InstanceDescriptor(spec, QUARTER, sched, ExactLabel(step.initial_label()), 10, 6)
    assert uhit_semidecide(inst) == Hit(Fraction(0), 1, (Fraction(0), Fraction(0)))
    assert run_bounded_protocol(inst, ProtocolBudget(Fraction(10), 10)).verdict.t == 0

def test_scans_and_certified_route_never_build_serial_bytes(monkeypatch):
    # label identity is the fields: the exact-label predicate, the cycle
    # engine and approx_unitary's basis index never build the O(history)
    # byte form, and give the same answers as before it was taken away
    clock = Cyclic(7)
    step = BeaconStep(MOVE_RIGHT_3, clock)
    sched = PulseSchedule(HALF, clock)
    phi = walk(step, step.initial_label(), 10)[-1]  # post-halt, on a 14-cycle
    exact = InstanceDescriptor(MOVE_RIGHT_3, QUARTER, sched, ExactLabel(phi), 40, 5)
    beacon = beacon_instance(MOVE_RIGHT_3, clock, 40, grid=5)
    cycle = cycle_of(step, phi)

    def run():
        return (
            fidelity_trace(exact),
            fidelity_trace(beacon),
            approx_unitary(step, sched, cycle, Fraction(21, 5), 30).entries,
        )

    want = run()

    def refuse(_label):
        raise AssertionError("serial bytes were built")

    monkeypatch.setattr(ExtendedBasisState, "serial", property(refuse))
    got = run()
    assert got == want
    assert len(cycle) == 14
    assert any(0 < f < 1 for t, f in got[0] if t.denominator == 10)


def test_looper_trace_is_identically_zero():
    tr = fidelity_trace(beacon_instance(LOOP_STAY, Cyclic(2), 40))
    assert len(tr) == 2 * 40 + 1
    assert all(f == 0.0 for _, f in tr)


# -- report serialization ----------------------------------------------------------


def test_hit_report_json_frozen():
    hit = uhit_semidecide(beacon_instance(MOVE_RIGHT_3, Unbounded(), 10))
    assert hit_report_json(hit) == (
        '{"fidelity": 1.0, "outcome": "hit", "t": "7/2", "window": ["3", "7/2"]}'
    )
    miss = uhit_semidecide(beacon_instance(LOOP_STAY, Unbounded(), 50))
    assert hit_report_json(miss) == (
        '{"horizon": 50, "max_fidelity": 0.0, "outcome": "exhausted"}'
    )
    with pytest.raises(ParameterRangeError):
        hit_report_json("hit")


def test_trace_csv_format_and_time_rendering():
    tr = fidelity_trace(beacon_instance(LOOP_STAY, Unbounded(), 1))
    blob = trace_to_csv(tr)
    assert blob == "t,fidelity\n0,0.000000000000\n0.5,0.000000000000\n1,0.000000000000\n"
    niven = trace_to_csv([(Fraction(10, 3), 0.75), (Fraction(13, 4), 0.5)])
    assert niven == "t,fidelity\n10/3,0.750000000000\n3.25,0.500000000000\n"


def test_time_rendering_cases():
    assert _decimal_or_ratio(Fraction(7, 2)) == "3.5"
    assert _decimal_or_ratio(Fraction(10, 3)) == "10/3"
    assert _decimal_or_ratio(Fraction(4)) == "4"
    assert _decimal_or_ratio(Fraction(0)) == "0"
    assert _decimal_or_ratio(Fraction(1, 8)) == "0.125"
    assert _decimal_or_ratio(Fraction(3, 25)) == "0.12"
    assert _decimal_or_ratio(Fraction(7, 20)) == "0.35"
    assert _decimal_or_ratio(Fraction(1, 12)) == "1/12"


# -- scanner versus the classical runner -------------------------------------------


@settings(max_examples=60, deadline=None)
@given(machines(total=True), st.integers(5, 30))
def test_hit_iff_halt_within_horizon(spec, horizon):
    inst = beacon_instance(spec, Unbounded(), horizon)
    report = uhit_semidecide(inst)
    run = classical_run(spec, horizon)
    if isinstance(run, Halted) and run.steps <= horizon - 1:
        k = run.steps
        assert isinstance(report, Hit)
        assert report.t_hit == k + HALF
        assert report.fidelity_at_hit == 1
        assert report.window[0] <= report.t_hit <= report.window[1]
        # the window overlaps [K, K + delta]
        assert report.window[0] <= k + HALF and report.window[1] >= k
    else:
        assert isinstance(report, Exhausted)
        assert report.max_fidelity_seen == 0


@settings(max_examples=25, deadline=None)
@given(machines(total=True), st.integers(2, 6))
def test_cyclic_hit_lands_inside_the_halt_window(spec, period):
    horizon = 40
    run = classical_run(spec, horizon)
    if not isinstance(run, Halted) or run.steps > horizon - 1:
        return
    k = run.steps
    inst = beacon_instance(spec, Cyclic(period), horizon)
    report = uhit_semidecide(inst)
    assert isinstance(report, Hit)
    assert Fraction(k) <= report.t_hit <= k + HALF
    assert report.fidelity_at_hit >= Fraction(3, 4)


# -- trace rows and threshold ceilings against independent oracles ---------------


def _per_row_decimal_or_ratio(t: Fraction) -> str:
    """The old per-row rendering of a trace time, kept verbatim as the
    oracle.  It holds only for t >= 0: its digits come from floor division
    of the numerator, so it renders -1/2 as -1.5."""
    den = t.denominator
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        return f"{t.numerator}/{t.denominator}"
    places = max(twos, fives)
    if places == 0:
        return str(t.numerator)
    scaled = t.numerator * 10**places // t.denominator
    return f"{scaled // 10**places}.{scaled % 10**places:0{places}d}"


def _fractions(numerators):
    """Fractions over denominators 2^a 5^b r: an exact decimal when r = 1,
    a ratio otherwise."""
    return st.builds(
        lambda num, a, b, r: Fraction(num, 2**a * 5**b * r),
        numerators,
        st.integers(0, 12),
        st.integers(0, 12),
        st.sampled_from([1, 1, 3, 7, 11, 49, 97]),
    )


# times as Fractions, plus the ints and floats that the CSV converts itself
_trace_times = st.one_of(
    st.integers(0, 10**6),
    st.floats(0, 10**6),
    _fractions(st.integers(0, 10**9)),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_trace_times, st.floats(0, 1)), max_size=30))
def test_trace_csv_matches_per_row_rendering(trace):
    want = ["t,fidelity"]
    want += [f"{_per_row_decimal_or_ratio(Fraction(t))},{float(f):.12f}" for t, f in trace]
    assert trace_to_csv(trace) == "\n".join(want) + "\n"


@settings(max_examples=300, deadline=None)
@given(_fractions(st.integers(-(10**9), 10**9)))
def test_a_rendered_time_reads_back_as_the_same_number(t):
    assert Fraction(_decimal_or_ratio(t)) == t


@pytest.mark.parametrize("t", [math.nan, math.inf, True, "x"], ids=["nan", "inf", "True", "x"])
def test_trace_csv_refuses_a_time_that_is_not_rational(t):
    with pytest.raises(ParameterRangeError, match=r"^t must be rational"):
        trace_to_csv([(t, 0.5)])


# thresholds in (1/2, 1): doubles themselves, ratios with large denominators,
# and ratios within a hair of the Niven value 3/4
_thresholds = st.one_of(
    st.integers(1, 2**52 - 1).map(lambda p: Fraction(2**52 + p, 2**53)),
    st.integers(3, 10**18).flatmap(
        lambda q: st.integers(q // 2 + 1, q - 1).map(lambda p: Fraction(p, q))
    ),
    st.integers(-4, 4).map(lambda k: Fraction(3, 4) + Fraction(k, 3 * 2**60)),
)


@settings(max_examples=300, deadline=None)
@given(_thresholds, st.integers(-4, 4))
def test_float_ceiling_decides_the_exact_compare(threshold, ulps):
    f = float(threshold)
    toward = math.inf if ulps > 0 else -math.inf
    for _ in range(abs(ulps)):
        f = math.nextafter(f, toward)
    ceiling = _float_ceiling(threshold)
    assert ceiling >= threshold > math.nextafter(ceiling, -math.inf)
    assert (f >= ceiling) == (f >= threshold)
    # mid-pulse rows compare Niven Fractions against the same ceiling
    for v in (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)):
        assert (v >= ceiling) == (v >= threshold)


# -- loopers: the revisit jump ------------------------------------------------------

def _points(scan):
    # one row per point, however a scan splits its pulses between items
    return [(n, j, type(f), f, reached) for n, points in scan for j, f, reached in points]


@settings(max_examples=120, deadline=None)
@given(
    st.one_of(st.sampled_from(NAMED_CENSUS), st.integers(0, CENSUS_SIZE - 1)),
    st.one_of(
        st.just(Unbounded()),
        st.one_of(st.integers(2, 7), st.sampled_from([13, 64])).map(Cyclic),
    ),
    st.one_of(st.none(), st.integers(0, 300)),
    st.integers(1, 6),
    st.integers(1, 300),
    st.sampled_from([Fraction(1, 4), Fraction(1, 8)]),
    st.sampled_from([Fraction(1, 2), Fraction(1, 3), Fraction(3, 5)]),
    st.data(),
)
def test_scan_equals_the_stepwise_scan(index, clock, exact, grid, horizon, eps, delta, data):
    # the revisit jump changes no point, report, trace row, protocol
    # verdict or noisy draw: each consumer reads the same as it does
    # through the oracle scan that steps every pulse to the horizon
    spec = census_machine(index)
    step = BeaconStep(spec, clock)
    target = BeaconSubspace()
    if exact is not None:
        target = ExactLabel(step.advance(step.initial_label(), exact))
    inst = InstanceDescriptor(spec, eps, PulseSchedule(delta, clock), target, horizon, grid)
    budget = ProtocolBudget(
        Fraction(data.draw(st.integers(1, 400)), data.draw(st.integers(1, 3))),
        data.draw(st.integers(1, 400)),
    )
    gamma = Fraction(data.draw(st.integers(1, 49)), 100)
    noise = NoiseModel(gamma, data.draw(st.integers(0, 2**32)))

    def noisy():
        # a gamma past the margin is refused, the same on either scan
        try:
            return classify_with_noise(inst, noise)
        except NoiseMarginError as exc:
            return type(exc), str(exc)

    def consumers():
        report = uhit_semidecide(inst)
        return (
            report,
            type(report.fidelity_at_hit if isinstance(report, Hit) else report.max_fidelity_seen),
            fidelity_trace(inst),
            run_bounded_protocol(inst, budget),
            noisy(),
        )

    assert _points(_scan(inst)) == _points(stepwise_scan(inst))
    # the sparse tail misses no pulse below the horizon that shows a
    # nonzero point, which is all uhit_semidecide reads
    news = {points for _, points in _scan(inst, dark_tail=False)}
    for n, points in _scan(inst):
        if n < horizon and any(fid for _, fid, _ in points):
            assert points in news
    got = consumers()
    with stepwise_scans():
        want = consumers()
    assert got == want
    # a hit's window is the pulse from floor(t), or (0, 0) at t = 0
    for report in (got[0], got[4]):
        if isinstance(report, Hit):
            n = math.floor(report.t_hit)
            assert report.window == ((0, 0) if report.t_hit == 0 else (n, n + delta))


@pytest.mark.parametrize("name", ["loop-blink", "loop-with-prefix"])
@pytest.mark.parametrize("clock", [Unbounded(), Cyclic(7)], ids=["unbounded", "cyclic7"])
def test_looper_exhaustion_costs_its_loop_not_the_horizon(name, clock, monkeypatch):
    spec = corpus_machine(name)
    uhit_semidecide(beacon_instance(spec, clock, 10))  # warm any lazy state
    calls = count_forward(monkeypatch)
    peaks = {}
    for horizon in (10**3, 10**9):
        del calls[:]
        tracemalloc.start()
        try:
            report = uhit_semidecide(beacon_instance(spec, clock, horizon))
            peaks[horizon] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report == Exhausted(horizon, 0)
        assert type(report.max_fidelity_seen) is int
        assert len(calls) < 20
    assert abs(peaks[10**9] - peaks[10**3]) <= 64 * 1024


def test_verify_steps_its_loopers_only_to_their_revisits(capsys, monkeypatch):
    calls = count_forward(monkeypatch)
    assert main(["verify", "--horizon", "10000"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 17 and all('"verdict": "agree"' in line for line in lines)
    assert len(calls) < 1000


def test_an_exact_target_ahead_of_the_revisit_is_still_met():
    # loop-blink revisits at step 2, but the label 40 steps in is still a
    # point of the run: the scan keeps stepping until it is past it
    spec = corpus_machine("loop-blink")
    for clock in (Unbounded(), Cyclic(7)):
        step = BeaconStep(spec, clock)
        phi = step.advance(step.initial_label(), 40)
        sched = PulseSchedule(HALF, clock)
        inst = InstanceDescriptor(spec, QUARTER, sched, ExactLabel(phi), 10**9, 6)
        assert uhit_semidecide(inst) == Hit(Fraction(79, 2), 1, (Fraction(39), Fraction(79, 2)))
        late = InstanceDescriptor(spec, QUARTER, sched, ExactLabel(phi), 39, 6)
        assert uhit_semidecide(late) == Exhausted(39, 0)


# -- before the halt: the work half in place ----------------------------------------


def test_a_beacon_scan_builds_as_many_labels_at_any_halting_step(monkeypatch):
    # the run before the halt steps its work half in place, and a beacon
    # reads the first halted label's bit off the run, so the number of
    # labels built does not grow with the halting step K = n + 1
    built = []
    init = ExtendedBasisState.__init__

    def counting_init(self, *fields):
        built.append(fields)
        init(self, *fields)

    monkeypatch.setattr(ExtendedBasisState, "__init__", counting_init)
    counts = []
    for n in (100, 10_000):
        del built[:]
        report = uhit_semidecide(beacon_instance(counter_family(n), Unbounded(), n + 10))
        assert report.t_hit == n + 1 + HALF  # the beacon lights at clock K + 1
        counts.append(len(built))
    assert counts[0] == counts[1]


def test_a_missing_rule_raises_the_same_error_after_the_same_points():
    # q2 reads the 1 that step 0 wrote and has no rule for it, so the step
    # out of label 2 raises, with the clock of label 2 in the message
    spec = parse_machine(
        "states: q0 q1 q2 qH\nalphabet: _ 1\nstart: q0\nhalt: qH\n"
        "rule: q0 _ -> q1 1 R\nrule: q1 _ -> q2 _ L\nrule: q2 _ -> qH _ S\n"
    )

    def points_before_the_error(scan, message):
        rows = []
        with pytest.raises(IllFormedMachineError, match=message):
            for n, points in scan:
                rows.extend((n, j, f, reached) for j, f, reached in points)
        return rows

    consumers = [
        uhit_semidecide,
        fidelity_trace,
        lambda inst: run_bounded_protocol(inst, ProtocolBudget(100, 100)),
    ]
    for clock, tau in ((Unbounded(), 2), (Cyclic(2), 0), (Cyclic(5), 2)):
        message = re.escape(f"no rule for ('q2', '1') at clock {tau}")
        inst = beacon_instance(spec, clock, 10, grid=4)
        got = points_before_the_error(_scan(inst), message)
        assert got == points_before_the_error(stepwise_scan(inst), message)
        assert [(n, j) for n, j, *_ in got] == [(0, 0), (0, 4), (1, 0), (1, 4)]
        step = BeaconStep(spec, clock)
        with pytest.raises(IllFormedMachineError, match=message):
            step.advance(step.initial_label(), 3)
        for consume in consumers:
            with pytest.raises(IllFormedMachineError, match=message):
                consume(inst)
            assert gc.isenabled()
            with stepwise_scans():
                with pytest.raises(IllFormedMachineError, match=message):
                    consume(inst)
    # here the step out of label 0 raises, but an exact target at label 0
    # is lit there: a consumer that stops at the lit integer point never
    # takes that step, on either scan
    spec = parse_machine(
        "states: q0 qH\nalphabet: _ 1\nstart: q0\nhalt: qH\nrule: q0 1 -> qH 1 S\n"
    )
    message = re.escape("no rule for ('q0', '_') at clock 0")
    for clock in (Unbounded(), Cyclic(3)):
        step = BeaconStep(spec, clock)
        target = ExactLabel(step.initial_label())
        inst = InstanceDescriptor(spec, QUARTER, PulseSchedule(HALF, clock), target, 10, 6)
        got = points_before_the_error(_scan(inst), message)
        assert got == points_before_the_error(stepwise_scan(inst), message) == [(0, 0, 1, True)]
        for scans in (contextlib.nullcontext, stepwise_scans):
            with scans():
                assert uhit_semidecide(inst) == Hit(Fraction(0), 1, (Fraction(0), Fraction(0)))
                out = run_bounded_protocol(inst, ProtocolBudget(100, 100))
                assert out.verdict == ReachableAt(Fraction(0))
                with pytest.raises(IllFormedMachineError, match=message):
                    fidelity_trace(inst)


def test_a_long_input_is_scanned_without_a_copy_of_its_tape():
    # Brent's save keeps (head, state) and an undo log of the cells written
    # since, so past the first item, where the run and its tape are built,
    # scanning counter-n (which writes no cell) grows its history list and
    # allocates nothing the size of its tape
    n = 10**5
    spec = counter_family(n)
    tape = BeaconStep(spec, Unbounded()).initial_label().tape
    tracemalloc.start()
    try:
        copy = dict(tape)
        size = tracemalloc.get_traced_memory()[0]
        del copy
        scan = _scan(beacon_instance(spec, Unbounded(), n + 3))
        next(scan)
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        rest = sum(1 for _ in scan)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert rest == n + 3
    assert peak < size / 2


@pytest.mark.parametrize("horizon, want", [(10**7, Exhausted(10**7, 0)),
                                           (10**9, Hit(10**9 - HALF, 1, (10**9 - 1, 10**9 - HALF)))])
def test_an_exact_target_far_past_the_halt_is_reached_by_arithmetic(horizon, want):
    # move-right-3 halts at K = 3, and the label 10^9 steps in is met at
    # one pulse of the unbounded clock: the scan yields the first pulse
    # past the halt, then jumps to the lit pulses if the horizon has them
    step = BeaconStep(MOVE_RIGHT_3, Unbounded())
    phi = step.advance(step.initial_label(), 10**9)
    inst = InstanceDescriptor(MOVE_RIGHT_3, QUARTER, PulseSchedule(HALF, Unbounded()),
                              ExactLabel(phi), horizon, 5)
    assert len(list(itertools.islice(_scan(inst, dark_tail=False), 10))) <= 6
    assert uhit_semidecide(inst) == want


@pytest.mark.parametrize("where", ["before-the-halt", "another-work-half"])
def test_an_unbounded_exact_target_off_the_post_halt_run(where):
    # move-right-3 halts at K = 3; a target at step 1, or at clock 7 with
    # its head one cell past the halted one, is not on the run past the
    # halt, so every pulse from the halt on is dark
    step = BeaconStep(MOVE_RIGHT_3, Unbounded())
    phi = {
        "before-the-halt": step.advance(step.initial_label(), 1),
        "another-work-half": step.make_label("qH", 4, {}, [0, 1, 2], 7, 1, 0),
    }[where]
    inst = InstanceDescriptor(MOVE_RIGHT_3, QUARTER, PulseSchedule(HALF, Unbounded()),
                              ExactLabel(phi), 10, 6)
    noise = NoiseModel(Fraction(1, 8), 7)

    def consumers():
        return (
            uhit_semidecide(inst),
            fidelity_trace(inst),
            run_bounded_protocol(inst, ProtocolBudget(8, 8)),
            classify_with_noise(inst, noise),
        )

    want = _points(stepwise_scan(inst))
    assert _points(_scan(inst)) == want
    sparse = list(_scan(inst, dark_tail=False))
    ns = [n for n, _ in sparse]
    assert ns == sorted(ns)
    ticks = [(n, j) for n, j, *_ in _points(sparse)]
    assert ticks == sorted(set(ticks))
    assert set(_points(sparse)) <= set(want)
    got = consumers()
    with stepwise_scans():
        assert got == consumers()


@pytest.mark.parametrize("clock", [Cyclic(7), Cyclic(10**6)], ids=["cyclic7", "cyclic1e6"])
def test_an_exhausted_past_the_halt_scans_one_period_not_the_horizon(clock):
    # the first halted label is the frozen work half at K = 3; a label
    # off its cycle is never met, and a repeat of a yielded pulse changes
    # no report, so the scan stops after the halt's first pulse, and a
    # beacon scan after the period m = 2 at most
    step = BeaconStep(MOVE_RIGHT_3, clock)
    sched = PulseSchedule(HALF, clock)
    off = step.make_label("qH", 4, {}, [0, 1, 2], 0, 1, 0)
    never = InstanceDescriptor(MOVE_RIGHT_3, QUARTER, sched, ExactLabel(off), 10**9, 6)
    beacon = InstanceDescriptor(MOVE_RIGHT_3, QUARTER, sched, BeaconSubspace(), 10**9, 6)
    for inst in (never, beacon):
        assert len(list(itertools.islice(_scan(inst, dark_tail=False), 10))) <= 3 + 2
    assert uhit_semidecide(never) == Exhausted(10**9, 0)
    assert uhit_semidecide(beacon) == Hit(Fraction(10, 3), Fraction(3, 4), (Fraction(3), Fraction(7, 2)))
