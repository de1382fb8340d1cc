"""Independent numerical oracles for the dynamics tests.

Everything here deliberately avoids the package's own coefficient
machinery: the fractional power of a cycle is rebuilt from a dense
permutation matrix via numpy's eigendecomposition, with eigenvalues
snapped to exact roots of unity before taking principal-branch powers.
Agreement between this route and the package is then a meaningful check.

:func:`rational_coeffs_oracle` is the certified coefficient vector computed
entry by entry in mpmath, the route the package's integer rotation
replaced; it shares only the exact argument reduction with the package.

:func:`stepwise_scan` is the grid scan without its cycle detector and
without its post-halt arithmetic: it calls ``forward`` (one step of the
package's one step engine, which ``test_reversible`` checks against the
classical run) and the target predicate once per pulse up to the
horizon, so a looper's dark tail and every pulse past the halt are
stepped through rather than inferred.  It
places each pulse's mid-pulse points from that pulse's own stepped label
and shares with the package only the closed form at a placed offset,
because what it checks is the jump and the placement, not the closed
form.
"""

from __future__ import annotations

import contextlib
import math
from fractions import Fraction
from unittest.mock import patch

import numpy as np

from pulsehit import hitting, protocol
from pulsehit.dynamics import _closed_form_arg
from pulsehit.hitting import _float_ceiling, _mid_fidelities
from pulsehit.reversible import BeaconStep, BeaconSubspace


def cycle_permutation(k: int) -> np.ndarray:
    """Dense matrix of the k-cycle e_m -> e_{m+1 mod k}."""
    mat = np.zeros((k, k))
    for m in range(k):
        mat[(m + 1) % k, m] = 1.0
    return mat


def cycle_power_oracle(k: int, alpha: float) -> np.ndarray:
    """The alpha-th principal power of the k-cycle, by eigendecomposition.

    Eigenvalues of the cycle are exactly the k-th roots of unity; the
    computed ones are snapped to the nearest root so the principal angles
    (in (-pi, pi], with -1 mapped to +pi) are exact before exponentiation.
    """
    w, v = np.linalg.eig(cycle_permutation(k))
    js = np.mod(np.rint(np.angle(w) * k / (2.0 * np.pi)), k)
    theta = 2.0 * np.pi * js / k
    theta = np.where(theta > np.pi + 1e-9, theta - 2.0 * np.pi, theta)
    powered = v @ np.diag(np.exp(1j * alpha * theta)) @ np.linalg.inv(v)
    return powered


def transfer_amplitudes_oracle(k: int, alpha: float) -> np.ndarray:
    """Transfer amplitude from cycle position 0 to position r, r = 0..k-1."""
    return cycle_power_oracle(k, alpha)[:, 0]


def rational_coeffs_oracle(
    k: int, alpha: Fraction, entry_bits: int
) -> list[tuple[Fraction, Fraction]]:
    """The certified transfer amplitudes of the alpha-th power of a k-cycle,
    0 < alpha < 1, each an exact rational within 2^-entry_bits of the true
    value: two mpmath transcendentals per entry at entry_bits + 32 bits."""
    import mpmath

    # error budget: a few operations of relative error 2^(1-prec) per entry
    # of magnitude <= 1, far below the final rounding of 2^-(entry_bits+1),
    # which rounds to the nearest multiple of 2^-entry_bits exactly
    a, g = alpha.numerator, alpha.denominator
    d = k * g
    unit = 1 << entry_bits
    with mpmath.workprec(entry_bits + 32):
        scale = mpmath.sinpi(mpmath.mpf(min(a, g - a)) / g) / k
        out = []
        for r in range(k):
            p, y = _closed_form_arg(k, a, g, r)
            z = mpmath.expjpi(mpmath.mpf(p) / d) * (scale / mpmath.sinpi(mpmath.mpf(y) / d))
            re, im = (int(mpmath.nint(mpmath.ldexp(v, entry_bits))) for v in (z.real, z.imag))
            out.append((Fraction(re, unit), Fraction(im, unit)))
    return out


def two_cycle_profile(alpha: float) -> float:
    """Closed-form squared overlap with the next label on a two-cycle."""
    return math.sin(math.pi * alpha / 2.0) ** 2


def stepwise_scan(inst):
    """(n, points) per pulse of the instance, as ``hitting._scan`` yields
    them (up to how a pulse is split between items), from one forward
    step (``advance(x, 1)``) and one predicate call per pulse to the
    horizon.  A lit integer point is yielded alone, before the step out
    of its label, so a consumer that stops there never takes that step."""
    step = BeaconStep(inst.machine, inst.schedule.clock)
    pred = step.target_predicate(inst.target)
    ceiling = _float_ceiling(1 - inst.epsilon)
    grid = inst.grid
    horizon = inst.horizon
    cyclic = step.cycle_length is not None

    cur = step.initial_label()
    lit = pred(cur)
    for n in range(horizon + 1):
        head = ((0, 1 if lit else 0, lit),)
        if n == horizon:
            yield n, head
            return
        if lit:  # before the step, which a consumer that stops here never takes
            yield n, head
            head = ()
        mids = []
        if cyclic and cur.h == 1:
            if isinstance(inst.target, BeaconSubspace):
                m, off = 2, 1 - cur.b
            else:
                m, off = step.cycle_length, step.cycle_offset(cur, inst.target.phi)
            fids = _mid_fidelities(m, off, grid)
            mids = [(j, f, f >= ceiling) for j, f in enumerate(fids, 1)]
        cur = step.forward(cur)
        lit = pred(cur)
        yield n, (*head, *mids, (grid, 1 if lit else 0, lit))


@contextlib.contextmanager
def stepwise_scans():
    """Within the block, ``hitting._scan`` and ``protocol._scan`` are
    :func:`stepwise_scan`, which yields the dark tail whatever it is asked,
    so every report, trace, protocol verdict and noisy draw is read off
    the oracle scan."""

    def scan(inst, dark_tail=True):
        return stepwise_scan(inst)

    with patch.object(hitting, "_scan", scan), patch.object(protocol, "_scan", scan):
        yield
