"""Acceptance gate: one test per shipped criterion, at the stated
tolerances, printing one PASS line each.

Covers the corpus-wide halting/hitting agreement, bit-exact integer
evolution, hit-window placement, mid-pulse route agreement against the
certified rational operator, the two-cycle interpolation profile, the
budgeted-protocol no-go witnesses, noise robustness of verdicts, and the
exact zero ceiling for loopers.
"""

import math
import random
import time
from fractions import Fraction

from oracles import cycle_power_oracle
from support import walk

from pulsehit.dynamics import (
    PulseSchedule,
    SparseState,
    approx_unitary,
    cycle_of,
    evolve_integer,
    evolve_to,
)
from pulsehit.hitting import Exhausted, Hit, fidelity_trace, uhit_semidecide
from pulsehit.machine import classical_trace
from pulsehit.protocol import (
    NoiseModel,
    ProtocolBudget,
    ReportedUnreachable,
    adversarial_sweep,
    classify_with_noise,
    sweep_report_json,
)
from pulsehit.reduction import Halts, LoopsForever, builtin_corpus, encode, verify_corpus
from pulsehit.reversible import BeaconStep, BeaconSubspace, Cyclic, Unbounded

EPSILON = Fraction(1, 4)
DELTA = Fraction(1, 2)
CORPUS = builtin_corpus()
HALTERS = [e for e in CORPUS if isinstance(e.ground_truth, Halts)]
LOOPERS = [e for e in CORPUS if isinstance(e.ground_truth, LoopsForever)]


def _passed(number: int, text: str) -> None:
    print(f"criterion {number}: PASS - {text}")


def test_criterion_1_reduction_biconditional_on_corpus():
    assert len(HALTERS) >= 10 and len(LOOPERS) >= 5
    assert all(0 <= e.ground_truth.steps <= 200 for e in HALTERS)
    started = time.monotonic()
    reports = verify_corpus(CORPUS, EPSILON, DELTA, Unbounded(), 10_000)
    elapsed = time.monotonic() - started
    assert all(rep.verdict == "agree" for rep in reports)
    assert len(reports) == len(CORPUS)
    assert elapsed < 60.0
    _passed(1, f"all {len(reports)} corpus entries agree at horizon 10^4 "
               f"in {elapsed:.2f}s")


def test_criterion_2_integer_time_exactness():
    steps = 10_000
    for entry in CORPUS:
        step = BeaconStep(entry.machine, Unbounded())
        trace = list(classical_trace(entry.machine, steps))
        label = step.initial_label()
        for n in range(steps + 1):
            config = trace[min(n, len(trace) - 1)]
            assert label.state == config.state
            assert label.head == config.head
            assert label.tape == config.tape
            if n < steps:
                label = step.forward(label)
        psi0 = SparseState.basis_state(step.initial_label())
        whole = evolve_integer(step, psi0, steps)
        assert [lab for lab, _ in whole.items()] == [label]
        split = evolve_integer(step, evolve_integer(step, psi0, steps // 3),
                               steps - steps // 3)
        assert split == whole
    _passed(2, f"label walk matches classical replay bit-exactly to {steps} "
               f"steps on all {len(CORPUS)} machines")


def test_criterion_3_hit_window_placement():
    for entry in HALTERS:
        k = entry.ground_truth.steps
        inst = encode(entry.machine, EPSILON, DELTA, Unbounded(),
                      BeaconSubspace(), k + 3)
        integer_points = [(t, f) for t, f in fidelity_trace(inst)
                          if t.denominator == 1]
        first_lit = next(t for t, f in integer_points if f >= 0.75)
        assert first_lit == k + 1
        for grid in (4, 6, 12):
            for clock in (Unbounded(), Cyclic(8)):
                report = uhit_semidecide(
                    encode(entry.machine, EPSILON, DELTA, clock,
                           BeaconSubspace(), k + 3, grid)
                )
                assert isinstance(report, Hit)
                assert k <= report.t_hit <= k + DELTA + DELTA / grid
    _passed(3, "first integer hit at K + 1 and sub-grid hits inside "
               "[K, K + delta + delta/G] on all halting entries")


def test_criterion_4_mid_pulse_oracle_agreement():
    rng = random.Random(415)
    clocks = [2, 3, 5, 8, 16, 33, 64]
    for i, entry in enumerate(HALTERS):
        period = clocks[i % len(clocks)]
        clock = Cyclic(period)
        step = BeaconStep(entry.machine, clock)
        sched = PulseSchedule(DELTA, clock)
        psi0 = SparseState.basis_state(step.initial_label())
        k = entry.ground_truth.steps
        lo = max(k, 1)
        labels = walk(step, step.initial_label(), lo + period)
        for _ in range(20):
            n = rng.randint(lo, lo + period)
            s = Fraction(rng.randint(1, 63), 64) * DELTA
            out = evolve_to(step, sched, psi0, n + s)
            assert abs(float(out.norm2()) - 1.0) <= 1e-12
            basis = cycle_of(step, labels[n])
            column = approx_unitary(step, sched, basis, s, 40).column(0)
            weight = 0.0
            for row, lab in enumerate(basis):
                amp = out.amplitude(lab)
                got = amp.as_complex() if amp else 0j
                want = complex(float(column[row][0]), float(column[row][1]))
                assert abs(got - want) <= 1e-9
                weight += abs(got) ** 2
            assert abs(weight - 1.0) <= 1e-12  # no support outside the cycle
    _passed(4, "evolve_to matches the certified operator within 1e-9 at 20 "
               "random fractional times per halted cyclic instance")


def test_criterion_5_two_cycle_profile():
    halt_now = next(e for e in HALTERS if e.ground_truth.steps == 0)
    clock = Cyclic(2)
    step = BeaconStep(halt_now.machine, clock)
    sched = PulseSchedule(DELTA, clock)
    lit = step.forward(step.initial_label())
    cycle = cycle_of(step, lit)
    assert len(cycle) == 2
    for numer in (1, 2, 3):
        s = DELTA * Fraction(numer, 4)
        alpha = numer / 4
        psi = evolve_to(step, sched, SparseState.basis_state(lit), s)
        amp = psi.amplitude(cycle[1])
        got = abs(amp.as_complex()) ** 2 if amp else 0.0
        assert abs(got - math.sin(math.pi * alpha / 2) ** 2) <= 1e-9
        oracle = cycle_power_oracle(2, alpha)
        assert abs(got - abs(oracle[1, 0]) ** 2) <= 1e-9
        if numer == 2:
            assert abs(got - 0.5) <= 1e-9
    _passed(5, "mid-pulse transfer follows sin^2(pi s / (2 delta)) within "
               "1e-9, including 1/2 at s = delta/2")


def test_criterion_6_operational_no_go_witnesses():
    budgets = [ProtocolBudget(n, n) for n in (10, 100, 1000)]
    started = time.monotonic()
    witnesses = adversarial_sweep(budgets)
    elapsed = time.monotonic() - started
    assert elapsed < 120.0
    for witness, budget in zip(witnesses, budgets):
        assert witness.halting_step > budget.tau_max
        assert witness.outcome.verdict == ReportedUnreachable()
        assert witness.outcome.correct is False
        assert witness.outcome.resources.time_used <= budget.tau_max
        assert witness.outcome.resources.work_used <= budget.e_max
    assert len(sweep_report_json(witnesses).splitlines()) == 3
    _passed(6, f"each budget in {{10, 100, 1000}} misclassifies a halting "
               f"witness past tau_max without overdrawing ({elapsed:.2f}s)")


def test_criterion_7_noise_robust_verdicts():
    gamma = Fraction(1, 8)
    for entry in CORPUS:
        inst = encode(entry.machine, EPSILON, DELTA, Unbounded(),
                      BeaconSubspace(), 300)
        clean = uhit_semidecide(inst)
        for seed in range(10):
            noisy = classify_with_noise(inst, NoiseModel(gamma, seed))
            assert type(noisy) is type(clean)
            if isinstance(clean, Hit):
                assert noisy.t_hit == clean.t_hit
                assert noisy.window == clean.window
            else:
                assert noisy.max_fidelity_seen <= float(gamma)
    _passed(7, "verdicts under gamma = 1/8 readout noise match the "
               "noiseless scan across 10 seeds on every corpus entry")


def test_criterion_8_non_halting_ceiling():
    for entry in LOOPERS:
        inst = encode(entry.machine, EPSILON, DELTA, Unbounded(),
                      BeaconSubspace(), 10_000)
        report = uhit_semidecide(inst)
        assert isinstance(report, Exhausted)
        assert report.max_fidelity_seen == 0
        assert isinstance(report.max_fidelity_seen, int)  # exact, not rounded
    _passed(8, "every looper's maximum fidelity over the full horizon is "
               "exactly zero")
