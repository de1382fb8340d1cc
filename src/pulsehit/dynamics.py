"""Sparse states and pulsed continuous-time evolution of the beacon step.

Integer times are pure permutation dynamics: amplitudes ride along labels
unchanged and stay exact Gaussian rationals.  Between integers the step
permutation is driven by a pulse of width ``delta``: on [n, n + delta] the
generator is the principal logarithm of the permutation restricted to its
orbit cycles, and on [n + delta, n + 1] nothing happens.  Mid-pulse states
therefore exist only where the support's orbits close into finite cycles,
which on a cyclic clock happens exactly for halted labels; everywhere else
the evaluation refuses with a typed error instead of truncating.

Every post-halt cycle of a cyclic clock has the step's ``cycle_length``
labels; :func:`cycle_of` lists a cycle's members by the step's closed form,
for callers that need all of them (the scan places one label by
arithmetic).  The fractional cycle power has a closed form whose arguments
share one denominator and are reduced exactly in integers by
:func:`_closed_form_arg`.  Two computations of the same mid-pulse
operator are built on it: :func:`evolve_to` evaluates it in floating point
with tracked absolute error bounds, and :func:`approx_unitary` evaluates it
in integer fixed point and rounds dyadically, returning an exact rational
matrix with a certified operator-norm distance to the true evolution.  Only
that route uses mpmath, for four constants per call, and imports it on its
first call, so importing this module, or running any scan or CLI command,
does not load it.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Callable, Iterable, Optional, Sequence, Union

from .errors import (
    BasisNotClosedError,
    LabelError,
    OrbitNotClosedError,
    ParameterRangeError,
    PrecisionBudgetError,
    StateNormError,
    TimeTagError,
    as_count,
    as_rational,
    as_time,
)
from .reversible import (
    BeaconStep,
    ClockMode,
    Cyclic,
    ExtendedBasisState,
    Unbounded,
    _require_label,
)

_EPS = 2.220446049250313e-16  # double-precision unit roundoff (2^-52)
# a real product that underflows loses up to half the least subnormal,
# which no relative term covers; the four real products of a complex one
# lose at most 2^-1073 together, and twice that leaves room for the
# rounding of the bound's own sum
_UNDERFLOW = 2.0**-1072

Rational = Union[Fraction, int]


# ---------------------------------------------------------------------------
# amplitudes


@dataclass(frozen=True)
class Amplitude:
    """One complex amplitude, either exact (both parts Fraction, zero error)
    or floating with a tracked absolute error bound on the complex value."""

    re: Union[Fraction, float]
    im: Union[Fraction, float]
    err: float = 0.0

    def __post_init__(self):
        # a plain float answers before the ABCMeta isinstance check runs
        exact = type(self.re) is not float and isinstance(self.re, Fraction)
        if exact != (type(self.im) is not float and isinstance(self.im, Fraction)):
            raise LabelError("amplitude parts must be both exact or both floating")
        if exact and self.err != 0.0:
            raise LabelError("exact amplitudes carry no error bound")
        if not exact and not (math.isfinite(self.re) and math.isfinite(self.im)):
            raise LabelError(f"non-finite amplitude {self.re!r} + {self.im!r}i")
        if self.err < 0.0 or not math.isfinite(self.err):
            raise LabelError(f"bad amplitude error bound {self.err!r}")

    @classmethod
    def exact(cls, re: Rational, im: Rational = 0) -> "Amplitude":
        return cls(Fraction(re), Fraction(im), 0.0)

    @classmethod
    def approx(cls, z: complex, err: float) -> "Amplitude":
        return cls(float(z.real), float(z.imag), float(err))

    @property
    def is_exact(self) -> bool:
        return type(self.re) is not float and isinstance(self.re, Fraction)

    def as_complex(self) -> complex:
        return complex(float(self.re), float(self.im))

    def mag_upper(self) -> float:
        """Upper bound on the true |value| including the error bound."""
        return math.hypot(float(self.re), float(self.im)) * (1.0 + 4.0 * _EPS) + self.err

    def abs2(self) -> Union[Fraction, float]:
        if self.is_exact:
            return self.re * self.re + self.im * self.im
        return float(self.re) * float(self.re) + float(self.im) * float(self.im)

    def conj(self) -> "Amplitude":
        return Amplitude(self.re, -self.im, self.err)

    def add(self, other: "Amplitude") -> "Amplitude":
        if self.is_exact and other.is_exact:
            return Amplitude(self.re + other.re, self.im + other.im, 0.0)
        z = self.as_complex() + other.as_complex()
        err = self.err + other.err + _EPS * (
            self.mag_upper() + other.mag_upper() + abs(z)
        )
        return Amplitude.approx(z, err)

    def mul(self, other: "Amplitude") -> "Amplitude":
        if self.is_exact and other.is_exact:
            return Amplitude(
                self.re * other.re - self.im * other.im,
                self.re * other.im + self.im * other.re,
                0.0,
            )
        return self.mul_each((other.as_complex(),), other.err)[0]

    def mul_each(self, zs: Iterable[complex], zerr: float) -> list["Amplitude"]:
        """This amplitude times each floating coefficient of ``zs``, every
        coefficient within ``zerr`` of its true value, in order.  The
        amplitude's complex value, :meth:`mag_upper` and ``err`` are read
        once per vector, not once per coefficient; each product's bound is
        the one formula, summed in the same order, so a coefficient gives
        the same bits alone or in a vector.  A ``zerr`` that is negative,
        NaN or infinite is refused before any product: it would bound
        nothing."""
        if not 0.0 <= zerr < math.inf:
            raise ParameterRangeError(
                f"coefficient error bound must be finite and nonnegative, got {zerr!r}"
            )
        v = self.as_complex()
        a = self.mag_upper()
        e = self.err
        za = zerr * a
        ea = 8.0 * _EPS * a
        new = Amplitude
        out = []
        for z in zs:
            w = v * z
            zmag = abs(z) + zerr
            out.append(new(w.real, w.imag, e * zmag + za + ea * zmag + _UNDERFLOW))
        return out


AMP_ONE = Amplitude.exact(1)

_NORM_TOL = 1e-12


# ---------------------------------------------------------------------------
# states


class SparseState:
    """Finitely supported assignment of amplitudes to basis labels, tagged
    with the time it represents.  Amplitudes are keyed by the labels
    themselves.  :meth:`items` yields the canonical byte order of label
    serializations, which the sums whose floating result depends on their
    order read (the mid-pulse accumulation, :func:`fidelity`, and
    :func:`state_to_json`); the ``math.fsum`` sums of :meth:`norm2` and
    :func:`subspace_fidelity` are correctly rounded whatever the order, so
    they skip the sort."""

    __slots__ = ("_amps", "time_tag")

    def __init__(
        self,
        pairs: Iterable[tuple[ExtendedBasisState, Amplitude]],
        time_tag: Rational = 0,
    ):
        tag = as_rational(time_tag, "time_tag")
        if tag < 0:
            raise TimeTagError(f"time_tag must be nonnegative, got {tag}")
        amps: dict[ExtendedBasisState, Amplitude] = {}
        for label, amp in pairs:
            _require_label(label)
            if not isinstance(amp, Amplitude):
                raise LabelError(f"not an amplitude: {amp!r}")
            if amp.is_exact and amp.re == 0 and amp.im == 0:
                continue
            if label in amps:
                raise LabelError(f"duplicate support label {label!r}")
            amps[label] = amp
        self._amps = amps
        self.time_tag = tag
        n2 = self.norm2()
        if isinstance(n2, Fraction):
            if n2 != 1:
                raise StateNormError(f"exact squared norm is {n2}, not 1")
        elif abs(n2 - 1.0) > _NORM_TOL:
            raise StateNormError(f"squared norm {n2!r} outside 1 +/- {_NORM_TOL}")

    @classmethod
    def basis_state(cls, label: ExtendedBasisState, time_tag: Rational = 0) -> "SparseState":
        return cls([(label, AMP_ONE)], time_tag)

    def items(self) -> list[tuple[ExtendedBasisState, Amplitude]]:
        return sorted(self._amps.items(), key=lambda pair: pair[0].serial)

    def amplitude(self, label: ExtendedBasisState) -> Optional[Amplitude]:
        return self._amps.get(label)

    @property
    def support_size(self) -> int:
        return len(self._amps)

    @property
    def is_exact(self) -> bool:
        return all(amp.is_exact for amp in self._amps.values())

    def norm2(self) -> Union[Fraction, float]:
        return _weight(self)

    def max_err(self) -> float:
        return max((amp.err for amp in self._amps.values()), default=0.0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseState):
            return NotImplemented
        return self.time_tag == other.time_tag and self._amps == other._amps

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"<SparseState t={self.time_tag} support={self.support_size}>"


def _weight(
    state: SparseState, predicate: Optional[Callable[[ExtendedBasisState], bool]] = None
) -> Union[Fraction, float]:
    """Total squared weight of the labels satisfying ``predicate`` (every
    label when it is None): an exact sum when every amplitude is exact,
    else ``math.fsum``, which is correctly rounded, so the order is free."""
    lit = [amp.abs2() for lab, amp in state._amps.items() if predicate is None or predicate(lab)]
    if state.is_exact:
        return sum(lit, Fraction(0))
    return math.fsum(map(float, lit))


def state_to_json(psi: SparseState) -> str:
    """JSON array of (hex label serialization, real, imag) triples."""
    rows = [
        [lab.serial.hex(), float(amp.re), float(amp.im)] for lab, amp in psi.items()
    ]
    return json.dumps(rows)


# ---------------------------------------------------------------------------
# schedules and integer-time evolution


@dataclass(frozen=True)
class PulseSchedule:
    """Pulse width delta in (0, 1); the step acts on [n, n + delta] and the
    line is idle on [n + delta, n + 1]."""

    delta: Fraction
    clock: ClockMode

    def __post_init__(self):
        object.__setattr__(self, "delta", as_rational(self.delta, "delta"))
        if not 0 < self.delta < 1:
            raise ParameterRangeError(f"delta must lie in (0, 1), got {self.delta}")
        if not isinstance(self.clock, (Unbounded, Cyclic)):
            raise ParameterRangeError(f"unknown clock mode {self.clock!r}")


def _pulsed_time(step: BeaconStep, sched: PulseSchedule, t, m) -> tuple[Fraction, int, Fraction]:
    """The checks :func:`evolve_to` and :func:`approx_unitary` share
    (matching clocks, a precision exponent m >= 1, a rational time t >= 0),
    then (t, n, alpha): n whole steps (a completed pulse counts) and the
    fraction alpha of the next pulse, 0 exactly at a permutation time."""
    if sched.clock != step.clock:
        raise ParameterRangeError(
            f"schedule clock {sched.clock!r} does not match step clock {step.clock!r}"
        )
    as_count(m, "precision exponent", 1)
    t = as_time(t)
    n, s = divmod(t, 1)
    return (t, n + 1, Fraction(0)) if s >= sched.delta else (t, n, s / sched.delta)


def evolve_integer(step: BeaconStep, psi: SparseState, n: int) -> SparseState:
    """Apply the step permutation ``n`` times; amplitudes ride unchanged.
    Each label takes :meth:`BeaconStep.advance`, so on either clock a label
    whose run halts at step K costs at most K + 1 forward steps whatever
    ``n`` is."""
    as_count(n, "step count")
    if psi.time_tag.denominator != 1:
        raise TimeTagError(
            f"cannot integer-evolve a state tagged mid-pulse at t={psi.time_tag}"
        )
    pairs = [(step.advance(label, n), amp) for label, amp in psi.items()]
    return SparseState(pairs, psi.time_tag + n)


# ---------------------------------------------------------------------------
# cycles and fractional powers


def cycle_of(step: BeaconStep, label: ExtendedBasisState) -> list[ExtendedBasisState]:
    """The forward orbit of ``label`` as a closed cycle starting at
    ``label``, or a typed refusal when the orbit does not close.

    On an unbounded clock no orbit ever closes (the clock strictly
    increases).  On a cyclic clock a label recurs iff its halt flag is set:
    a closed loop cannot contain a rule step (histories only grow), so
    every step on it is a post-halt toggle, which forces h = 1 throughout.
    The cycle length comes from the step (:attr:`BeaconStep.cycle_length`);
    member r, r steps after ``label``, is the closed form
    :meth:`BeaconStep._halted_after`, which :meth:`BeaconStep.cycle_offset`
    inverts, and one :meth:`BeaconStep.forward` call from the last member
    checks that the cycle closed.  The label n steps after ``label`` is
    entry n mod ``cycle_length``.
    """
    step._require_cycle(label)
    out = [step._halted_after(label, r) for r in range(step.cycle_length)]
    if step.forward(out[-1]) != label:
        raise OrbitNotClosedError(f"orbit did not close after {len(out)} labels")
    return out


def _closed_form_arg(k: int, a: int, g: int, r: int) -> tuple[int, int]:
    """Exact arguments of offset r of the alpha-th principal power of a
    k-cycle, alpha = a/g in (0, 1) (a/g need not be reduced), as integer
    numerators over the one denominator D = k g.  Summing its eigenvalue
    powers as two geometric series (angles -2 pi j/k for j < J = ceil(k/2),
    shifted by 2 pi from there on) gives the amplitude to offset r as
    e^{i pi P/D} sin(pi s) / (k sin(pi Y/D)) with X = r g - a,
    P = (2J - 1) X + a k + D mod 2D (in (-D, D]), Y = min(X, D - X) and
    s = min(alpha, 1 - alpha).  Returns (P, Y); s is the caller's, once per
    vector.  The reductions are exact and keep every sine argument in
    [-pi/2, pi/2], where rounding it costs no relative accuracy."""
    d = k * g
    x = r * g - a
    p = ((2 * ((k + 1) // 2) - 1) * x + a * k + d) % (2 * d)
    return p - 2 * d if p > d else p, min(x, d - x)


def _float_coeffs(k: int, a: int, g: int, offsets: Iterable[int]) -> list[complex]:
    """The closed form of :func:`_closed_form_arg` in floats at the given
    offsets of a k-cycle, alpha = a/g in (0, 1); each argument is one
    correctly rounded division of integers."""
    d = k * g
    scale = math.sin(math.pi * (min(a, g - a) / g)) / k
    out = []
    for r in offsets:
        p, y = _closed_form_arg(k, a, g, r)
        out.append(cmath.rect(scale / math.sin(math.pi * (y / d)), math.pi * (p / d)))
    return out


def fractional_coeffs(k: int, alpha) -> tuple[list[complex], float]:
    """Transfer amplitudes of the alpha-th principal power of a k-cycle, for
    alpha rational (or a finite float, taken exactly) in [0, 1]: entry r is
    carried from any cycle position p to p + r (mod k); alpha = 0 and 1 give
    e_0 and e_1 exactly.  Otherwise the closed form of
    :func:`_closed_form_arg` in floats at every offset; the returned scalar
    bounds every entry's absolute error (a few rounded operations on
    magnitudes <= 1)."""
    as_count(k, "cycle length", 1)
    alpha = as_rational(alpha, "alpha")
    if not 0 <= alpha <= 1:
        raise ParameterRangeError(f"alpha must lie in [0, 1], got {alpha}")
    err = (6.0 + math.log2(k)) * 1e-15
    if alpha.denominator == 1:
        return [1 + 0j if r == alpha % k else 0j for r in range(k)], err
    return _float_coeffs(k, alpha.numerator, alpha.denominator, range(k)), err


def _rational_coeffs(k: int, alpha: Fraction, entry_bits: int) -> list[tuple[Fraction, Fraction]]:
    """:func:`fractional_coeffs` for 0 < alpha < 1, each entry an exact
    dyadic within 2^-entry_bits of the true value.  With D = k g and T[q] =
    e^{i pi q/k}, entry r of the closed form is e^{i pi P_0/D} T[(2J - 1) r
    mod 2k] sin(pi s) / (k Im(T[r] e^{-i pi a/D})), as P steps by (2J - 1) g
    and X by g with r, and sin(pi Y/D) = sin(pi X/D).  mpmath gives four
    constants within 2^-W; T comes from rounded integer rotation at W bits,
    each unit-modulus product adding at most about 2 ulps, so products are
    within (2k + 2) 2^-W.  Dividing by |sin(pi Y/D)| >= sin(pi s/k) >= 2/D
    amplifies that by at most D/2, so W = entry_bits + bitlen k + bitlen D
    + 32 keeps each part within 2^-(entry_bits + 30) before the final round
    to nearest, whose numerator over 2^entry_bits :func:`_dyadic` puts in
    lowest terms by a shift, not a gcd.  Cost: O(1) mpmath calls and O(k)
    integer operations."""
    import mpmath  # the certified route is the only one that needs it

    a, g = alpha.numerator, alpha.denominator
    d = k * g
    w = entry_bits + k.bit_length() + d.bit_length() + 32
    args = ((1, k), (_closed_form_arg(k, a, g, 0)[0], d), (-a, d), (min(a, g - a), g))
    with mpmath.workprec(w + 8):
        (sr, si), (cr, ci), (er, ei), (_, sine) = (
            [int(mpmath.nint(mpmath.ldexp(v, w))) for v in (z.real, z.imag)]
            for z in (mpmath.expjpi(mpmath.mpf(p) / q) for p, q in args)
        )
    half = 1 << (w - 1)
    turn = [(1 << w, 0)]
    for _ in range(k - 1):
        x, y = turn[-1]
        turn.append(((x * sr - y * si + half) >> w, (x * si + y * sr + half) >> w))
    turn += [(-x, -y) for x, y in turn]
    stride = 2 * ((k + 1) // 2) - 1
    out = []
    for r in range(k):  # each part rounds: floor(num / den + 1/2), either sign of den
        x, y = turn[r]
        den = (x * ei + y * er) * k << (w - entry_bits)
        x, y = turn[stride * r % (2 * k)]
        re, im = (x * cr - y * ci) * sine * 2 + den, (x * ci + y * cr) * sine * 2 + den
        out.append((_dyadic(re // (2 * den), entry_bits), _dyadic(im // (2 * den), entry_bits)))
    return out


def _dyadic(num: int, bits: int) -> Fraction:
    """num / 2^bits as the ``Fraction`` in lowest terms, built without a
    gcd.  The only prime dividing 2^bits is 2, so shifting out the
    min(trailing zeros of num, bits) factors of 2 the two share leaves
    either an odd numerator or the denominator 1, a coprime pair with a
    positive denominator; 0 becomes 0/1.  That is the pair
    ``Fraction(num, 2**bits)`` normalizes to, so value, hash, ``str`` and
    ``==`` agree, and setting the two slots directly (as
    :func:`hitting.fidelity_trace` does) skips only the gcd."""
    shift = min((num & -num).bit_length() - 1, bits) if num else bits
    q = object.__new__(Fraction)
    q._numerator, q._denominator = num >> shift, 1 << (bits - shift)
    return q


# ---------------------------------------------------------------------------
# continuous-time evolution


def _mid_pulse_pairs(
    step: BeaconStep,
    pairs: list[tuple[ExtendedBasisState, Amplitude]],
    alpha: Fraction,
) -> list[tuple[ExtendedBasisState, Amplitude]]:
    """The alpha-th cycle power applied to ``pairs``, a state's support in
    canonical order.  Each cycle starts at its support label, so entry r of
    the one coefficient vector (every post-halt cycle has
    ``step.cycle_length`` labels) carries the label to member r.  Each
    support amplitude takes one :meth:`Amplitude.mul_each` over the whole
    vector, which reads its value and bound once; the parts are added in
    member order, since a float sum of overlapping parts depends on it."""
    # listing every cycle first keeps the refusals of cycle_of
    cycles = [(cycle_of(step, label), amp) for label, amp in pairs]
    g, gerr = fractional_coeffs(step.cycle_length, alpha)
    acc: dict[ExtendedBasisState, Amplitude] = {}
    for cyc, amp in cycles:
        for target, part in zip(cyc, amp.mul_each(g, gerr)):
            prev = acc.get(target)
            acc[target] = part if prev is None else prev.add(part)
    return list(acc.items())


def evolve_to(
    step: BeaconStep,
    sched: PulseSchedule,
    psi0: SparseState,
    t,
    *,
    m: Optional[int] = None,
) -> SparseState:
    """The state U(t)|psi0> under the pulsed lift.

    ``psi0`` must be tagged t = 0.  The n whole steps of :func:`_pulsed_time`
    are the exact permutation power, tagged at t at a permutation time;
    otherwise the fractional cycle power alpha follows on every support
    orbit (typed refusal where orbits do not close).  When ``m`` is given,
    a tracked floating error above 2^-m raises :class:`PrecisionBudgetError`.
    """
    t, n, alpha = _pulsed_time(step, sched, t, 1 if m is None else m)
    if psi0.time_tag != 0:
        raise TimeTagError(
            f"evolve_to starts from the t=0 state, got time_tag {psi0.time_tag}"
        )
    base = evolve_integer(step, psi0, n)
    if not alpha:
        return SparseState(base.items(), t)
    pairs = _mid_pulse_pairs(step, base.items(), alpha)
    out = SparseState(pairs, t)
    if m is not None and out.max_err() > 0.5 ** m:
        raise PrecisionBudgetError(
            f"tracked amplitude error {out.max_err():.3e} exceeds 2^-{m}"
        )
    return out


# ---------------------------------------------------------------------------
# fidelity


def _clamp01(x: float) -> float:
    return 0.0 if x < 0.0 else (1.0 if x > 1.0 else x)


def fidelity(alpha: SparseState, beta: SparseState) -> Union[Fraction, float]:
    """|<alpha|beta>|^2 over the support intersection; exact Fraction when
    both states are exact, clamped float otherwise."""
    amps = beta._amps
    terms = [a.conj().mul(amps[lab]) for lab, a in alpha.items() if lab in amps]
    if alpha.is_exact and beta.is_exact:
        re = sum((z.re for z in terms), Fraction(0))
        im = sum((z.im for z in terms), Fraction(0))
        return re * re + im * im
    # a += loop, not sum(): sum compensates float sums from Python 3.12 on
    total = complex(0.0)
    for z in terms:
        total += z.as_complex()
    return _clamp01(abs(total) ** 2)


def subspace_fidelity(
    alpha: SparseState, predicate: Callable[[ExtendedBasisState], bool]
) -> Union[Fraction, float]:
    """Total squared weight of the labels satisfying the predicate."""
    w = _weight(alpha, predicate)
    return w if isinstance(w, Fraction) else _clamp01(w)


# ---------------------------------------------------------------------------
# the rational approximation oracle


@dataclass(frozen=True)
class RationalMatrix:
    """Exact rational matrix certified within ``bound`` of U(t) in operator
    norm on the span of ``basis`` (entry [i][j] is (re, im) of
    <basis_i|U(t)|basis_j>)."""

    basis: tuple[ExtendedBasisState, ...]
    entries: tuple[tuple[tuple[Fraction, Fraction], ...], ...]
    bound: Fraction
    t: Fraction

    def column(self, j: int) -> list[tuple[Fraction, Fraction]]:
        as_count(j, "column", 0)
        if j >= len(self.basis):
            raise ParameterRangeError(f"column must be below {len(self.basis)}, got {j}")
        return [row[j] for row in self.entries]


def approx_unitary(
    step: BeaconStep,
    sched: PulseSchedule,
    basis: Sequence[ExtendedBasisState],
    t,
    m: int,
) -> RationalMatrix:
    """Rational matrix within 2^-m of U(t) restricted to ``basis``.

    The basis must be closed under the evolution at time t (permutation
    images inside the basis for integer or completed-pulse times, whole
    orbit cycles for mid-pulse times); anything else is a
    :class:`BasisNotClosedError`, never a silent truncation.

    Mid-pulse, the work is O(k) for :func:`_rational_coeffs` plus an
    O(size^2) fill in C: each row is a rotation slice of the reversed
    vector, gathered by the cycle's column map unless the basis lists the
    cycle in member order.
    """
    t, n, alpha = _pulsed_time(step, sched, t, m)
    basis = tuple(basis)
    size = len(basis)
    if size == 0:
        raise ParameterRangeError("basis must be nonempty")
    index: dict[ExtendedBasisState, int] = {}
    for i, lab in enumerate(basis):
        _require_label(lab)
        if lab in index:
            raise LabelError(f"duplicate basis label {lab!r}")
        index[lab] = i
    zeros = ((Fraction(0), Fraction(0)),) * size

    if not alpha:
        taken: dict[int, int] = {}
        for j, lab in enumerate(basis):
            i = index.get(step.advance(lab, n))
            if i is None:
                raise BasisNotClosedError(
                    f"image of basis label {j} at t={t} leaves the basis"
                )
            if i in taken:
                # the halt-entry pinch of a cyclic clock: the tail label and
                # the last cycle label share an image, so no basis spanning
                # both sides is carried unitarily
                raise BasisNotClosedError(
                    f"basis labels {taken[i]} and {j} collide at t={t}; "
                    "restrict the basis to one side of the halt entry"
                )
            taken[i] = j
        one = ((Fraction(1), Fraction(0)),)  # size distinct images: one 1 per row
        rows = [zeros[: taken[i]] + one + zeros[taken[i] + 1 :] for i in range(size)]
        return RationalMatrix(basis, tuple(rows), Fraction(1, 2**m), t)

    # mid-pulse: entrywise precision gets log2(size) headroom so the
    # operator-norm bound ||A||_2 <= size * max|entry error| lands under 2^-m
    entry_bits = m + size.bit_length() + 1
    rows: list = [None] * size
    rev2: tuple = ()
    for j, lab in enumerate(basis):
        if rows[j] is not None:
            continue
        # basis positions of the cycle's members, in cycle_of's order
        members = [index.get(member) for member in cycle_of(step, lab)]
        if None in members:
            raise BasisNotClosedError(
                f"cycle of basis label {j} is not contained in the basis"
            )
        k = len(members)
        if not rev2:  # one vector serves every cycle: each has step.cycle_length labels
            rev2 = tuple(reversed(_rational_coeffs(k, alpha, entry_bits))) * 2
        col = [k] * size  # column i reads cycle position col[i]; k reads 0
        for c, i in enumerate(members):
            col[i] = c
        gather = None if col == list(range(size)) else itemgetter(*col)
        # U(t) carries member c' to member c' + n + r with entry r of the
        # vector (the n whole steps rotate the cycle), so row c reads entry
        # c - n - c' mod k at position c': rev2 from (n - c - 1) mod k on
        for c, i in enumerate(members):
            o = (n - c - 1) % k
            rows[i] = rev2[o : o + k] if gather is None else gather(rev2[o : o + k] + zeros[:1])
    return RationalMatrix(basis, tuple(rows), Fraction(1, 2**m), t)
