"""Semi-decision of fidelity threshold hitting times on a rational grid.

An instance fixes a machine, a threshold margin epsilon, a pulse schedule,
a target (the lit-beacon subspace or one exact label), a horizon and a
grid refinement G.  The scanner walks the grid points {n + j*delta/G},
ascending, and reports the first point whose fidelity reaches 1 - epsilon,
or exhaustion of the horizon.  Exhaustion is a statement about the scanned
range only, never a claim that no hit exists later.

The scan carries each point as the integer pair (n, j), 0 <= j <= G: j = 0
is the integer time n and j = G the end of the pulse that starts there.
It hands its consumers one item per pulse, the pulse's points as one
tuple, so a consumer's per-pulse work (a budget gate, a trace row's
shape) is paid once per pulse, not once per point.  An exact ``Fraction``
time is built only for a point that is reported (a hit, a protocol's
spent time, a trace row), so the time is never a float and the per-point
cost is integer work.  A trace row's time is the coprime pair n*q + p
over q, where p/q = (j/G)*delta is reduced once per j; since that pair is
already in lowest terms, :func:`fidelity_trace` sets it into a
``Fraction`` directly, without the constructor's type dispatch and gcd.
It builds the rows with the cyclic garbage collector paused, the only
``gc`` call in the package; the one proof obligation of that pause is
that the row loop builds no reference cycle, so no garbage waits for it.

Grid points that land strictly inside a pulse are only evaluable where the
support orbit closes (a halted label on a cyclic clock); everywhere else
they are skipped rather than guessed, so a reported hit is always a
certified fidelity value.  Integer and pulse-end points are exact 0/1
projections and are available in every mode.

Before the halt the scan steps the work half (state, head, tape) in
place, in chunks of :meth:`LiveRun.run` that double, one loop with no
label, history or tape copy per step, whose Brent detector records a
revisit of the work half; a chunk's dark pulses are handed on with no
Python work per pulse.  Past the halt it steps nothing.  How either end
of the live run hands over to the rest of the scan is :func:`_scan`'s
one-tail rule.

The label r steps after the first halted label x is x's frozen work
half with the clock moved by r and the beacon toggled r times, so the
target is lit at the positions r = q (mod m): m = 2 and q = 1 - x.b
for the beacon on either clock; for an exact label q is its offset
:meth:`BeaconStep._offset` past x (none if it is not on x's run), with
m the cycle length on a cyclic clock, and on the unbounded clock, where
q is met once, no m.  Every later pulse, its integer point, its
mid-pulse points and its pulse end, is then fixed by its offset (q - r)
mod m, and is built once per offset.
Mid-pulse points are evaluable only on a cyclic clock, where the orbit
past the halt is one closed cycle, and their fidelities have a closed
form: the beacon alternates around any post-halt cycle, and pairing each
cycle eigenvalue with its antipode shows the odd-offset weight of the
fractional power is exactly sin^2(pi j / 2G).  An exact-label fidelity is
the squared transfer amplitude to the one offset where the label sits.

Every mid-pulse value is compared against the threshold's float ceiling
(the least double at or above it), which decides a double's comparison
with the rational threshold exactly.  Where the value is itself rational
(only at 0, 1/4, 1/2, 3/4, 1, by Niven's theorem) it is a dyadic, hence a
double, so grid hits that tie the threshold do not depend on floating
rounding.  Every other mid-pulse value
(the remaining sin^2 points, and the closed-form weights of exact-label
targets) is a rounded float, so a value within rounding of the threshold
is not yet certified; the certified threshold comparisons item in
ROADMAP.md tracks the fix.
"""

from __future__ import annotations

import functools
import gc
import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Union

from .dynamics import PulseSchedule, _float_coeffs
from .errors import IllFormedMachineError, ParameterRangeError, as_count, as_rational
from .machine import MachineSpec
from .reversible import BeaconStep, BeaconSubspace, ExactLabel, ExtendedBasisState, LiveRun

Number = Union[int, float, Fraction]

_GRID_CAP = 2**52  # most points per pulse: up to it, float(1/G) still tells G apart


def grid_for(epsilon: Fraction) -> int:
    """Grid refinement fine enough that a fidelity ramp from 0 to 1 over
    one pulse cannot step over the 1 - epsilon threshold between samples:
    G = max(2, ceil(2*delta / (delta - (2*delta/pi) asin sqrt(1-eps)))),
    that is the least G >= 2 with sin^2(pi/G) <= eps (delta cancels).
    The search starts below the float estimate and compares
    :func:`_sin2_pi`, exact at the Niven G = 2, 3, 4 and 6, with eps.  An
    eps that needs more than 2**52 points per pulse (eps below about
    4.9e-31) is refused."""
    epsilon = _as_epsilon(epsilon)
    eps = float(epsilon)
    estimate = math.pi / math.asin(math.sqrt(eps)) if eps else math.inf
    g = max(2, math.floor(min(estimate, _GRID_CAP)) - 1)
    while g <= _GRID_CAP and _sin2_pi(Fraction(1, g)) > epsilon:
        g += 1
    if g > _GRID_CAP:
        raise ParameterRangeError(f"epsilon {epsilon} needs more than 2**52 grid points per pulse")
    return g


def _as_epsilon(epsilon) -> Fraction:
    epsilon = as_rational(epsilon, "epsilon")
    if not 0 < epsilon < Fraction(1, 2):
        raise ParameterRangeError(f"epsilon must lie in (0, 1/2), got {epsilon}")
    return epsilon


@dataclass(frozen=True)
class InstanceDescriptor:
    """One hitting problem: machine, threshold margin, schedule, target,
    scan horizon and grid refinement."""

    machine: MachineSpec
    epsilon: Fraction
    schedule: PulseSchedule
    target: Union[BeaconSubspace, ExactLabel]
    horizon: int
    grid: int

    def __post_init__(self):
        object.__setattr__(self, "epsilon", _as_epsilon(self.epsilon))
        if not isinstance(self.machine, MachineSpec):
            raise ParameterRangeError(f"not a machine: {self.machine!r}")
        if not isinstance(self.schedule, PulseSchedule):
            raise ParameterRangeError(f"not a schedule: {self.schedule!r}")
        if not isinstance(self.target, (BeaconSubspace, ExactLabel)):
            raise ParameterRangeError(f"unknown target {self.target!r}")
        as_count(self.horizon, "horizon", 1)
        as_count(self.grid, "grid", 1)


@dataclass(frozen=True)
class Hit:
    """First grid point at or past the threshold, with the certified
    fidelity there and the enclosing pulse window."""

    t_hit: Fraction
    fidelity_at_hit: Number
    window: tuple[Fraction, Fraction]


@dataclass(frozen=True)
class Exhausted:
    """Every evaluable grid point up to the horizon stayed below the
    threshold.  Says nothing about later times."""

    horizon: int
    max_fidelity_seen: Number


HitReport = Union[Hit, Exhausted]


# sin^2(pi x) at the rational x in [0, 1/2] where it is itself rational
_NIVEN_SIN2 = {
    Fraction(0): Fraction(0),
    Fraction(1, 6): Fraction(1, 4),
    Fraction(1, 4): Fraction(1, 2),
    Fraction(1, 3): Fraction(3, 4),
    Fraction(1, 2): Fraction(1),
}


def _float_ceiling(x: Fraction) -> float:
    """The least double >= x.  A double f satisfies f >= x exactly when
    f >= _float_ceiling(x), so a float compares against a rational
    threshold without converting itself to a Fraction."""
    f = float(x)
    return math.nextafter(f, math.inf) if f < x else f


def _sin2_pi(x: Fraction) -> Number:
    exact = _NIVEN_SIN2.get(x)
    if exact is not None:
        return exact
    return math.sin(math.pi * float(x)) ** 2


Pulse = tuple[tuple[int, Number, bool], ...]  # (j, fidelity, reached) per point


def _mid_fidelities(m: int, off: Optional[int], grid: int) -> list[Number]:
    """Fidelities at the mid-pulse points 0 < j < G of a pulse on an
    m-cycle whose target sits ``off`` positions past the pulse's start
    (``None``: nowhere on the cycle).  A target lit on every other
    position (the beacon, or an exact label on a 2-cycle) has the sin^2
    closed form; otherwise weight off carries the start to the target."""
    if off is None:
        return [0.0] * (grid - 1)
    if m == 2:
        s2 = [_sin2_pi(Fraction(j, 2 * grid)) for j in range(1, grid)]
        return [1 - v for v in s2] if off == 0 else s2
    return [abs(_float_coeffs(m, j, grid, [off])[0]) ** 2 for j in range(1, grid)]


def _post_halt_pulses(
    step: BeaconStep,
    target: Union[BeaconSubspace, ExactLabel],
    run: LiveRun,
    grid: int,
    ceiling: float,
    plain: tuple[tuple[Pulse, Pulse], tuple[Pulse, Pulse]],
) -> tuple[bool, Iterator[Pulse], Iterable[tuple[int, Pulse]]]:
    """Whether the first halted label x, where ``run`` stands, is lit;
    the points of the pulses from x on, one tuple per pulse, without end;
    and the (r, points) of the new pulses r steps past x, those that can
    change a report.  The pulse r steps past x is fixed by its offset
    (q - r) mod m to the target's positions q mod m (see the module
    docstring), where an exact target's q is :meth:`BeaconStep._offset`
    on either clock, with no step taken.  The pulse's integer point is
    lit at offset 0, its end at offset 1, and on a cyclic clock its
    mid-pulse points come from :func:`_mid_fidelities`.  A pulse that repeats an
    earlier one, or is dark at every point, can neither be the first hit
    nor raise the maximum, so the new pulses are r < m; for an exact
    label on the unbounded clock, met at r = q alone, r = q - 1 and q
    (r = 0 alone when q = 0); for a target never met, none.  A beacon
    reads the run's bit b, so only an exact target builds x.  Each
    offset's tuple is built when the scan first reaches it and repeated
    from then on; ``plain[a][b]`` is the pulse with no mid-pulse points
    whose integer point reads a and whose end reads b.  A Niven fidelity
    is a dyadic ``Fraction``, so its compare with the float ceiling is
    exact too."""
    cyclic = step.cycle_length is not None
    if isinstance(target, BeaconSubspace):
        m, q = 2, 1 - run.b
    else:
        m, q = step.cycle_length, step._offset(run.label(), target.phi)

    def pulse(off: Optional[int]) -> Pulse:
        ends = plain[off == 0][off == 1]
        if not cyclic:
            return ends
        mids = enumerate(_mid_fidelities(m, off, grid), 1)
        return (ends[0], *((j, f, f >= ceiling) for j, f in mids), ends[1])

    if q is None:
        return False, itertools.repeat(pulse(None)), ()
    if m is None:  # lit once: the offsets count down to q, then stay dark
        return (
            q == 0,
            itertools.chain(map(pulse, range(q, -1, -1)), itertools.repeat(pulse(None))),
            ((r, pulse(q - r)) for r in range(max(q - 1, 0), q + 1)),
        )
    return (
        q == 0,
        itertools.cycle(pulse((q - r) % m) for r in range(m)),
        ((r, pulse((q - r) % m)) for r in range(m)),
    )


@functools.lru_cache(maxsize=64)
def _plain_pulses(
    grid: int,
) -> tuple[tuple[Pulse, Pulse], tuple[Pulse, Pulse], tuple[tuple[Pulse, Pulse], ...]]:
    """The points tuples with no mid-pulse point, indexed by lit: an
    integer point alone, a pulse end alone, and ``plain[a][b]``, the
    pulse whose integer point reads a and whose end reads b.  Integer and
    pulse-end points are 0/1 projections, and 0 < 1 - epsilon < 1, so the
    projection itself says whether the threshold is reached; the label at
    n + delta is the one at n + 1 (the line idles between).  Cached, so
    every scan on one grid yields the same objects."""
    alone = ((0, 0, False),), ((0, 1, True),)
    ends = ((grid, 0, False),), ((grid, 1, True),)
    plain = tuple(tuple(a + e for e in ends) for a in alone)
    return alone, ends, plain


def _scan(inst: InstanceDescriptor, *, dark_tail: bool = True) -> Iterator[tuple[int, Pulse]]:
    """Yield (n, points) for the pulse that starts at each integer n below
    the horizon, in ascending order, and last (horizon, (integer point,)).
    ``points`` is a tuple of (j, fidelity, reached), ascending in j, for
    every evaluable grid point t = n + j*delta/G of the pulse: j = 0 is
    the integer point n, j = G the end of the pulse, and 0 < j < G a
    mid-pulse point.  ``reached`` is fidelity >= 1 - epsilon, decided
    exactly.  Before the halt, a pulse whose integer point is lit comes as
    two items, the integer point and then the end, so that a consumer
    that stops at the first never takes the step to the second.

    Points are carried as these integer ticks; :func:`_time` and
    :func:`_hit` build the ``Fraction`` time and window of the few points
    that are reported.  Every points tuple is one of a fixed few (shared
    by every scan on the grid, :func:`_plain_pulses`), or one built once
    per offset past the halt, and each is yielded as the same object every
    time, so a consumer may keep per-pulse work by identity.

    Before the halt the scan is one loop of chunks: the chunk from step n
    ends at the nearest of step 2n (step 1 from n = 0; from step 0 these
    are the points where the run's Brent detector saves), step
    len(phi.hist) of an exact target phi, and the horizon, or one step on
    from a lit label; :meth:`LiveRun.run` takes its steps in place, fewer
    only at the halt.  A label is built only where phi can match: at step
    len(phi.hist), and at the first halted label.  Every other pre-halt
    label is dark (a beacon reads b = 0), so a chunk's pulses but its last
    come as one ``zip`` of the same dark pulse, with no step or compare
    per pulse, and without ``dark_tail`` as nothing, since they cannot
    change a report.  The chunks double, so a consumer that stops at pulse
    s has stepped at most about 2s + 1 steps.  A missing rule raises once
    the pulses stepped before it are yielded.

    The one-tail rule: the live run ends at a chunk's end past a revisit
    or at the halt, and either end hands one tail the same pair, the
    pulses from there on, without end, and the (r, points) of the new
    pulses r steps on, those that can change a report: a pulse that
    repeats an earlier one, or is dark at every point, can neither be the
    first hit nor raise the maximum.  A revisit the run recorded proves it
    never halts, so once the scan is past the one step an exact target can
    match, every later pulse is a dark integer 0 and none is new; at the
    first halted label the pair comes from :func:`_post_halt_pulses`, with
    no step and no target compare.  The tail yields its pulses up to the
    horizon and then the horizon's integer point; with ``dark_tail`` false
    it yields only the new pulses below the horizon, so no report changes.
    So a looper that revisits costs O(prefix + period) steps whatever the
    horizon, and a halter one period past its halt (an exact label on the
    unbounded clock, its two lit pulses); a translated looper (one that
    never revisits, like a right-mover writing 1s) is stepped up to the
    horizon, at a flat cost per step (a save copies no tape), as the jump
    over its translated cycle is missing."""
    step = BeaconStep(inst.machine, inst.schedule.clock)
    target = inst.target
    grid = inst.grid
    horizon = inst.horizon
    ceiling = _float_ceiling(1 - inst.epsilon)
    last = len(target.phi.hist) if isinstance(target, ExactLabel) else -1
    alone, ends, plain = _plain_pulses(grid)
    dark = plain[0][0]
    # the initial label, with its tape built once, as the run's own: the
    # run copies the tape of the label it starts from, here an empty one
    run = LiveRun(step, ExtendedBasisState(inst.machine.start_state, 0, {}, (), 0, 0, 0))
    run.tape = dict(enumerate(inst.machine.input_word))
    lit = last == 0 and run.label() == target.phi
    n = 0
    while not run.h:
        if run.revisit is not None and n >= last and not lit:
            pulses, news = itertools.repeat(dark), ()
            break
        if lit or n == horizon:
            yield n, alone[lit]
            if n == horizon:
                return
        stop = n + 1 if lit else min(2 * n or 1, horizon, last if n < last else horizon)
        error = None
        try:
            run.run(stop - n)
        except IllFormedMachineError as exc:
            error = exc
        was, m = lit, run.n
        if run.h:
            lit, pulses, news = _post_halt_pulses(step, target, run, grid, ceiling, plain)
        else:
            lit = m == last and run.label() == target.phi
        if m > n:
            if was:
                yield n, ends[lit]
            else:
                if dark_tail:
                    yield from zip(range(n, m - 1), itertools.repeat(dark))
                if dark_tail or lit:
                    yield m - 1, plain[0][lit]
        if error is not None:
            raise error
        n = m
    if dark_tail:
        yield from zip(range(n, horizon), pulses)
        yield horizon, alone[next(pulses)[0][2]]  # read off the horizon's pulse
        return
    for r, points in news:
        if n + r >= horizon:
            return
        yield n + r, points


def _time(inst: InstanceDescriptor, n: int, j: int) -> Fraction:
    """The time n + j*delta/G of the grid point (n, j)."""
    return n + Fraction(j, inst.grid) * inst.schedule.delta


def _hit(inst: InstanceDescriptor, n: int, j: int, fid: Number) -> Hit:
    """The report of grid point (n, j), with the pulse window that encloses
    it: (n, n + delta), the pulse from n, or (0, 0) at t = 0, where
    nothing was pulsed yet.  No consumer reports an integer point at
    n > 0: it carries the label of the end of pulse n - 1, which every
    consumer meets first, and under the noise margin a lit point always
    hits and a dark one never does."""
    if n or j:
        window = (Fraction(n), n + inst.schedule.delta)
    else:
        window = (Fraction(0), Fraction(0))  # nothing was pulsed before t = 0
    return Hit(_time(inst, n, j), fid, window)


def uhit_semidecide(inst: InstanceDescriptor) -> HitReport:
    """First grid point with fidelity >= 1 - epsilon, or exhaustion.

    Threshold comparisons are exact at integer and pulse-end points (0/1
    projections) and at Niven-point mid-pulse values (rational).  Every
    other mid-pulse value is a float, compared exactly against the
    rational threshold through its float ceiling; the float itself is
    rounded, so one within rounding of 1 - epsilon can decide the
    comparison wrongly (see the certified threshold comparisons item in
    ROADMAP.md).

    It reads only the points that repeat no earlier one and are not dark
    before the halt, so an ``Exhausted`` costs the live run's steps, in
    :func:`_scan`'s chunks, and what its one-tail rule says."""
    best: Number = 0
    for n, points in _scan(inst, dark_tail=False):
        for j, fid, reached in points:
            if reached:
                return _hit(inst, n, j, fid)
            if fid > best:
                best = fid
    return Exhausted(inst.horizon, best)


def fidelity_trace(inst: InstanceDescriptor) -> list[tuple[Fraction, float]]:
    """All evaluated grid points with their fidelities, as floats.

    The offset p/q = (j/G)*delta is reduced once per j (q >= 1), and each
    distinct pulse the scan yields is turned once into its points'
    (p, q, float(fidelity)).  The row (n, j) gets the time n*q + p over
    q, with the ``Fraction``'s two slots set directly, as CPython 3.12's
    ``Fraction._from_coprime_ints`` does.  That pair is in lowest terms:
    any common divisor of n*q + p and q divides p, so gcd(n*q + p, q) =
    gcd(p, q) = 1.  The time is therefore the ``Fraction`` n + p/q
    itself, equal in value, hash and ``str``, and a row costs no rational
    sum, no gcd and no call but ``object.__new__``.

    The cyclic garbage collector is paused while the rows are built, and
    this is the only ``gc`` call in the package.  Each row is one tuple
    and one ``Fraction``, both tracked, so without the pause the growing
    list sets off young, middle and full collections that re-walk the
    live rows and free nothing.  The pause's one proof obligation is that
    the loop builds no reference cycle (the rows, the pulse tuples and
    the shape cache are all acyclic), so no garbage waits for it.  It is
    library code changing global state, which is safe here because the
    pause covers this one call, the caller's state is restored on return
    or raise (a caller who disabled the collector keeps it disabled), and
    the only work deferred is one young collection of the new rows, at
    the caller's next allocation."""
    offsets = [
        (Fraction(j, inst.grid) * inst.schedule.delta).as_integer_ratio()
        for j in range(inst.grid + 1)
    ]
    new = object.__new__
    rows = []
    append = rows.append
    # id(points) -> (points, its rows' shape); holding the tuple keeps its
    # id from being reused by another while the trace runs
    shapes: dict[int, tuple[Pulse, list[tuple[int, int, float]]]] = {}
    enabled = gc.isenabled()
    gc.disable()
    try:
        for n, points in _scan(inst):
            seen = shapes.get(id(points))
            if seen is None:
                seen = shapes[id(points)] = points, [
                    (*offsets[j], float(fid)) for j, fid, _ in points
                ]
            for p, q, fid in seen[1]:
                t = new(Fraction)
                t._numerator = n * q + p
                t._denominator = q
                append((t, fid))
    finally:
        if enabled:
            gc.enable()
    return rows


# ---------------------------------------------------------------------------
# serialization


def _frac_str(x: Fraction) -> str:
    return str(Fraction(x))


def _report_payload(report: HitReport) -> dict:
    """The JSON-ready fields of a hit report, shared by every serializer
    that prints one."""
    if isinstance(report, Hit):
        return {
            "outcome": "hit",
            "t": _frac_str(report.t_hit),
            "fidelity": float(report.fidelity_at_hit),
            "window": [_frac_str(report.window[0]), _frac_str(report.window[1])],
        }
    if isinstance(report, Exhausted):
        return {
            "outcome": "exhausted",
            "horizon": report.horizon,
            "max_fidelity": float(report.max_fidelity_seen),
        }
    raise ParameterRangeError(f"not a hit report: {report!r}")


def hit_report_json(report: HitReport) -> str:
    return json.dumps(_report_payload(report), sort_keys=True)


def _json_lines(payloads: Iterable[dict]) -> str:
    """One sorted-key JSON object per line, each line ended; no records
    give no text."""
    return "".join(json.dumps(payload, sort_keys=True) + "\n" for payload in payloads)


@functools.lru_cache(maxsize=256)
def _decimal_scale(den: int) -> Optional[tuple[int, int, int]]:
    """``(places, 10**places // den, 10**places)`` for the exact decimal of
    a fraction with denominator den, places being the larger of its powers
    of 2 and 5, or None when den does not divide a power of ten.  Cached: a
    trace has at most G + 1 denominators."""
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        return None
    places = max(twos, fives)
    return places, 2 ** (places - twos) * 5 ** (places - fives), 10**places


def _decimal_or_ratio(t: Fraction) -> str:
    """Exact decimal when the denominator divides a power of ten,
    otherwise the reduced ratio; the sign is rendered apart from the
    digits of the magnitude."""
    scale = _decimal_scale(t.denominator)
    if scale is None:
        return f"{t.numerator}/{t.denominator}"
    places, mult, unit = scale
    if places == 0:
        return str(t.numerator)
    whole, frac = divmod(abs(t.numerator) * mult, unit)
    sign = "-" if t.numerator < 0 else ""
    return f"{sign}{whole}.{frac:0{places}d}"


def trace_to_csv(trace: list[tuple[Fraction, float]]) -> str:
    lines = ["t,fidelity"]
    for t, fid in trace:
        if type(t) is not Fraction:
            t = as_rational(t, "t")
        lines.append(f"{_decimal_or_ratio(t)},{float(fid):.12f}")
    return "\n".join(lines) + "\n"
