"""Budgeted observation protocols and the operational consequence.

A protocol owns a time budget and a work budget: evolving to a grid point
t costs t units of time, and one unit of work per pulse begun (floor(t)
completed pulses, plus one if t lands inside or at the end of a pulse).
The scan checks each point against both budgets before it is examined,
so a reported verdict never spends past its budget; observing the
initial state at t = 0 is free.

Within any fixed budget there are halting machines whose beacon lights
only after the budget is spent: the unary counter family pushes its
halting step past any tau_max, and the protocol must then report the
beacon unreachable even though it is hit slightly later.  Member n
halts at step n + 1, so the sweep names the minimal such witness per
budget, counter-floor(tau_max), and confirms it with two classical runs.
The reported-unreachable verdict is the honest one: these protocols
never guess.

Noise is modelled as a seeded uniform perturbation of each sampled
fidelity by at most gamma, compared against the relaxed threshold
1 - epsilon - gamma.  The margin requirement gamma < min(1 - 2*epsilon,
(1 - epsilon)/2) keeps the lit and dark plateaus separated and a point of
fidelity 0 below the relaxed threshold, so a noisy hit is a point of
true fidelity at least 1 - epsilon - 2*gamma.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Sequence, Union

from .dynamics import PulseSchedule
from .errors import (
    NoiseMarginError,
    ParameterRangeError,
    SearchRangeExhaustedError,
    as_count,
    as_rational,
    as_time,
    is_count,
)
from .hitting import (
    Exhausted,
    HitReport,
    InstanceDescriptor,
    _float_ceiling,
    _hit,
    _json_lines,
    _plain_pulses,
    _scan,
    _time,
    grid_for,
    uhit_semidecide,
)
from .machine import Halted, MachineSpec, classical_run
from .reduction import counter_family, encode
from .reversible import BeaconSubspace, Unbounded


@dataclass(frozen=True)
class ProtocolBudget:
    """Hard caps on observation time and applied pulses."""

    tau_max: Fraction
    e_max: int

    def __post_init__(self):
        object.__setattr__(self, "tau_max", as_rational(self.tau_max, "tau_max"))
        if self.tau_max <= 0:
            raise ParameterRangeError(f"tau_max must be positive, got {self.tau_max}")
        as_count(self.e_max, "e_max", 1)


@dataclass(frozen=True)
class Resources:
    time_used: Fraction
    work_used: int


@dataclass(frozen=True)
class ReachableAt:
    t: Fraction


@dataclass(frozen=True)
class ReportedUnreachable:
    pass


Verdict = Union[ReachableAt, ReportedUnreachable]


@dataclass(frozen=True)
class ProtocolOutcome:
    verdict: Verdict
    resources: Resources
    correct: Optional[bool] = None  # filled by a harness with ground truth


def work_to_reach(t: Fraction) -> int:
    """Pulses begun by time t: one per completed unit interval, plus one
    when t lands inside or at the end of a pulse window."""
    return math.ceil(as_time(t))


def run_bounded_protocol(inst: InstanceDescriptor, budget: ProtocolBudget) -> ProtocolOutcome:
    """Scan the instance's grid until a hit, the horizon, or the budget.

    Each grid point is checked once, before it is examined: if reaching
    it would exceed tau_max or e_max, the scan stops and reports
    unreachable with the resources actually spent.  A verdict therefore
    never overdraws, which the returned resources make checkable.  The
    scan's dark pulse with no mid-pulse point (every pre-halt pulse but
    an exact target's) is passed with one check when it fits the budget
    whole, that is when its end does; the spent time is then read off the
    last pulse passed.  The scan has stepped at most about twice as far as
    the last pulse the budget reaches."""
    delta = inst.schedule.delta
    ticks = inst.grid * delta.denominator  # grid ticks per unit of time
    # the point (n, j) lies n*ticks + j*num(delta) ticks in, so it is past
    # tau_max iff that count exceeds floor(tau_max*ticks); it has begun n
    # pulses, plus one if j > 0 (delta < 1 keeps it inside pulse n)
    tick_limit = math.floor(budget.tau_max * ticks)
    num, e_max = delta.numerator, budget.e_max
    # the dark pulse with no mid-pulse point fits whole iff its end does,
    # which is so for the pulses from n < whole
    dark = _plain_pulses(inst.grid)[2][0][0]
    whole = min(e_max, (tick_limit - inst.grid * num) // ticks + 1)
    at, found = (0, 0), False  # (0, 0) fits every budget: observing is free
    for n, points in _scan(inst):
        if points is dark and n < whole:
            continue
        if n:  # every pulse before n was passed whole, up to its end
            at = max(at, (n - 1, inst.grid))
        for j, _fid, reached in points:
            if n * ticks + j * num > tick_limit or n + (j > 0) > e_max:
                break
            at = (n, j)
            if reached:
                found = True
                break
        else:
            continue
        break
    t = _time(inst, *at)
    verdict = ReachableAt(t) if found else ReportedUnreachable()
    outcome = ProtocolOutcome(verdict, Resources(t, work_to_reach(t)))
    _assert_compliant(outcome, budget)
    return outcome


def _assert_compliant(outcome: ProtocolOutcome, budget: ProtocolBudget) -> None:
    if outcome.resources.time_used > budget.tau_max:
        raise AssertionError("protocol overdrew its time budget")
    if outcome.resources.work_used > budget.e_max:
        raise AssertionError("protocol overdrew its work budget")


# ---------------------------------------------------------------------------
# the adversarial sweep


@dataclass(frozen=True)
class SweepWitness:
    budget: ProtocolBudget
    name: str
    n: int
    halting_step: int
    outcome: ProtocolOutcome


def _member(n: int) -> tuple[MachineSpec, int]:
    """Counter-family member n and its halting step, confirmed by running
    it classically."""
    machine = counter_family(n)
    run = classical_run(machine, n + 2)
    if not isinstance(run, Halted):
        raise AssertionError("counter family member failed to halt")
    return machine, run.steps


def adversarial_sweep(
    budgets: Sequence[ProtocolBudget],
    *,
    epsilon: Fraction = Fraction(1, 4),
    delta: Fraction = Fraction(1, 2),
    family_cap: int = 10_000,
) -> list[SweepWitness]:
    """For each budget, the minimal counter-family index whose halting
    step exceeds tau_max, with the budgeted run that misclassifies it.

    Member n halts at step n + 1, so the witness is n = floor(tau_max):
    two classical runs confirm that it halts past tau_max and that member
    n - 1 halts within it, which with the family's growth makes it minimal.
    Its beacon first lights at K + delta > tau_max, so the budgeted protocol
    must report it unreachable.  The scan costs O(tau_max), so a cap on the
    family index turns an oversized witness into a typed error before any
    machine is built.  The parameters are checked before any budget, so a
    bad one is rejected even when the cap leaves no witness."""
    as_count(family_cap, "family_cap")
    grid = grid_for(epsilon)
    PulseSchedule(delta, Unbounded())
    witnesses = []
    for budget in budgets:
        n = math.floor(budget.tau_max)
        if n > family_cap:
            raise SearchRangeExhaustedError(
                f"no witness with halting step past {budget.tau_max} and an "
                f"incorrect verdict within family indices 0..{family_cap}"
            )
        machine, steps = _member(n)
        if steps <= budget.tau_max or (n and _member(n - 1)[1] > budget.tau_max):
            raise AssertionError(f"counter-{n} is not the least member past {budget.tau_max}")
        inst = encode(machine, epsilon, delta, Unbounded(), BeaconSubspace(), steps + 2, grid)
        outcome = run_bounded_protocol(inst, budget)
        # the machine halts, so the beacon is reachable: the unreachable
        # report the gate forces is the misclassification
        if isinstance(outcome.verdict, ReachableAt):
            raise AssertionError("protocol saw a beacon that lights past its budget")
        witnesses.append(
            SweepWitness(
                budget=budget,
                name=f"counter-{n}",
                n=n,
                halting_step=steps,
                outcome=replace(outcome, correct=False),
            )
        )
    return witnesses


def _verdict_payload(verdict: Verdict) -> str:
    return "reachable-at" if isinstance(verdict, ReachableAt) else "reported-unreachable"


def sweep_report_json(witnesses: Sequence[SweepWitness]) -> str:
    """One JSON object per budget, one line each."""
    return _json_lines(
        {
            "budget": {"tau_max": str(w.budget.tau_max), "e_max": w.budget.e_max},
            "witness": {"name": w.name, "n": w.n, "K": w.halting_step},
            "outcome": _verdict_payload(w.outcome.verdict),
            "resources": {
                "time_used": str(w.outcome.resources.time_used),
                "work_used": w.outcome.resources.work_used,
            },
        }
        for w in witnesses
    )


# ---------------------------------------------------------------------------
# noise


@dataclass(frozen=True)
class NoiseModel:
    """Per-sample fidelity perturbation, uniform in [-gamma, gamma], drawn
    from a seeded generator so runs are reproducible."""

    gamma: Fraction
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "gamma", as_rational(self.gamma, "gamma"))
        if self.gamma < 0:
            raise ParameterRangeError(f"gamma must be nonnegative, got {self.gamma}")
        if not is_count(self.seed):
            raise ParameterRangeError(f"seed must be an integer, got {self.seed!r}")


def classify_with_noise(inst: InstanceDescriptor, noise: NoiseModel) -> HitReport:
    """The scan under perturbed readout with the threshold relaxed by
    gamma; at gamma = 0 this is exactly the noiseless scan, bit for bit.

    A sample reads its fidelity moved by at most gamma, so a noisy ``Hit``
    at a point, mid-pulse points included, means that the point's true
    fidelity is at least 1 - epsilon - 2*gamma.  The margin rule is gamma
    < min(1 - 2*epsilon, (1 - epsilon)/2): below 1 - 2*epsilon a lit
    plateau (at least 1 - epsilon) cannot read below a dark one (at most
    epsilon), and below (1 - epsilon)/2 a point of fidelity 0, which reads
    at most gamma, stays under the relaxed threshold, so it never hits.
    Any other gamma raises :class:`NoiseMarginError`."""
    margin = min(1 - 2 * inst.epsilon, (1 - inst.epsilon) / 2)
    if noise.gamma >= margin:
        raise NoiseMarginError(
            f"gamma {noise.gamma} leaves no margin below "
            f"min(1 - 2*epsilon, (1 - epsilon)/2) = {margin}"
        )
    if noise.gamma == 0:
        return uhit_semidecide(inst)
    rng = random.Random(noise.seed)
    gamma = float(noise.gamma)
    ceiling = _float_ceiling(1 - inst.epsilon - noise.gamma)
    best = 0.0
    for n, points in _scan(inst):
        for j, fid, _reached in points:
            wobble = rng.uniform(-gamma, gamma)
            noisy = min(1.0, max(0.0, float(fid) + wobble))
            if noisy >= ceiling:
                return _hit(inst, n, j, noisy)
            if noisy > best:
                best = noisy
    return Exhausted(inst.horizon, best)
