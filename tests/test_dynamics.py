"""Pulsed evolution: exact permutation times, mid-pulse cycle powers,
certified rational approximants, and the fidelity functionals.

Frozen mid-pulse numbers were derived by hand from the two- and four-cycle
eigendecompositions: a k-cycle has eigenvalues e^{-2 pi i j / k}, the
principal alpha-th power scales their arguments (with -1 raised along the
+pi branch), and the transfer amplitude to offset r is the inverse DFT of
those powers.  The eigendecomposition oracle in oracles.py recomputes the
same operator from a dense matrix without any of the package's code.
"""

import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from oracles import (
    cycle_power_oracle,
    rational_coeffs_oracle,
    transfer_amplitudes_oracle,
    two_cycle_profile,
)
from support import (
    HALF,
    HALT_NOW,
    LOOP_STAY,
    MOVE_RIGHT_3,
    corpus_machine,
    count_forward,
    machines,
    walk,
)

from pulsehit.dynamics import (
    _EPS,
    _UNDERFLOW,
    AMP_ONE,
    Amplitude,
    PulseSchedule,
    SparseState,
    _clamp01,
    _closed_form_arg,
    _dyadic,
    _float_coeffs,
    _pulsed_time,
    _rational_coeffs,
    approx_unitary,
    cycle_of,
    evolve_integer,
    evolve_to,
    fidelity,
    fractional_coeffs,
    state_to_json,
    subspace_fidelity,
)
from pulsehit.errors import (
    BasisNotClosedError,
    LabelError,
    OrbitNotClosedError,
    ParameterRangeError,
    PrecisionBudgetError,
    StateNormError,
    TimeTagError,
    as_rational,
)
import pulsehit
from pulsehit.machine import Halted, classical_run, serialize_machine
from pulsehit.reversible import (
    BeaconStep,
    BeaconSubspace,
    Cyclic,
    ExtendedBasisState,
    Unbounded,
)

# -- fractional cycle coefficients against the eigendecomposition oracle ------


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 8, 12, 7, 14, 31, 64])
@pytest.mark.parametrize("alpha", [0.25, 1.0 / 3.0, 0.5, 0.9, Fraction(1, 5), Fraction(63, 64)])
def test_fractional_coeffs_match_eig_oracle(k, alpha):
    g, err = fractional_coeffs(k, alpha)
    want = transfer_amplitudes_oracle(k, float(alpha))
    assert np.max(np.abs(g - want)) < 1e-12
    assert 0.0 < err < 1e-13


def test_fractional_coeffs_frozen_two_cycle():
    g, _ = fractional_coeffs(2, 0.5)
    assert abs(g[0] - (0.5 + 0.5j)) < 1e-15
    assert abs(g[1] - (0.5 - 0.5j)) < 1e-15
    # |g(1)|^2 = sin^2(pi alpha / 2): (2 - sqrt 2)/4, 1/2, (2 + sqrt 2)/4
    for alpha, want in [
        (0.25, 0.14644660940672624),
        (0.5, 0.5),
        (0.75, 0.8535533905932738),
    ]:
        g, _ = fractional_coeffs(2, alpha)
        assert abs(abs(g[1]) ** 2 - want) < 1e-14
        assert abs(want - two_cycle_profile(alpha)) < 1e-14


def test_fractional_coeffs_frozen_four_cycle_half_step():
    # hand-derived: |g|^2 = ((2+s)/8, (2+s)/8, (2-s)/8, (2-s)/8), s = sqrt 2
    g, _ = fractional_coeffs(4, 0.5)
    heavy = 0.42677669529663687
    light = 0.07322330470336311
    assert abs(abs(g[0]) ** 2 - heavy) < 1e-14
    assert abs(abs(g[1]) ** 2 - heavy) < 1e-14
    assert abs(abs(g[2]) ** 2 - light) < 1e-14
    assert abs(abs(g[3]) ** 2 - light) < 1e-14


@pytest.mark.parametrize("k", [2, 5, 8])
def test_fractional_coeffs_boundaries(k):
    g0, _ = fractional_coeffs(k, 0.0)
    g1, _ = fractional_coeffs(k, 1.0)
    want0 = np.zeros(k, dtype=complex)
    want0[0] = 1.0
    want1 = np.zeros(k, dtype=complex)
    want1[1 % k] = 1.0
    assert np.max(np.abs(g0 - want0)) < 1e-14
    assert np.max(np.abs(g1 - want1)) < 1e-14


@pytest.mark.parametrize(
    "k, alpha",
    [(4, math.nan), (4, math.inf), (4, -0.3), (4, 2.5), (2.5, 0.5), (0, 0.5)],
)
def test_fractional_coeffs_rejects_bad_input(k, alpha):
    with pytest.raises(ParameterRangeError):
        fractional_coeffs(k, alpha)


@pytest.mark.parametrize("k", [2, 3, 7, 14, 64, 256, 1024, 4096])
def test_fractional_coeffs_within_bound_of_certified_route(k):
    # the certified entries are within 2^-60 of the truth, so every float
    # entry must lie within its returned bound less that, compared exactly
    for alpha in [Fraction(1, 128), Fraction(1, 5), Fraction(37, 64), Fraction(63, 64)]:
        g, err = fractional_coeffs(k, alpha)
        room = (Fraction(err) - Fraction(1, 2**60)) ** 2
        for z, (re, im) in zip(g, _rational_coeffs(k, alpha, 60), strict=True):
            assert (Fraction(z.real) - re) ** 2 + (Fraction(z.imag) - im) ** 2 <= room


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 300), st.integers(2, 130), st.integers(8, 120), st.data())
def test_rational_coeffs_within_their_bound_of_the_mpmath_route(k, g, entry_bits, data):
    # each entry is a multiple of 2^-entry_bits within 2^-entry_bits of the
    # per-entry mpmath route run 64 bits finer, compared exactly
    alpha = Fraction(data.draw(st.integers(1, g - 1)), g)
    unit = 2**entry_bits
    got = _rational_coeffs(k, alpha, entry_bits)
    want = rational_coeffs_oracle(k, alpha, entry_bits + 64)
    for (re, im), (wre, wim) in zip(got, want, strict=True):
        assert (re * unit).denominator == 1 and (im * unit).denominator == 1
        assert (re - wre) ** 2 + (im - wim) ** 2 <= Fraction(1, unit * unit)


# (k, alpha, entry_bits) of the certified tests below, of the bound test
# above, and of approx_unitary(m=40) on a 2^p-cycle (entry_bits m + p + 2)
EXACT_COEFF_CASES = (
    [(k, Fraction(3, 5), 51 + k.bit_length()) for k in (2, 6, 10, 14, 16)]
    + [(2, Fraction(2, 5), 43), (6, Fraction(4, 7), 44)]
    + [
        (k, alpha, 60)
        for k in (2, 3, 7, 14, 64, 256)
        for alpha in (Fraction(1, 128), Fraction(1, 5), Fraction(37, 64), Fraction(63, 64))
    ]
    + [(2**p, alpha, 42 + p) for p in range(5, 13) for alpha in (Fraction(1, 2), Fraction(37, 64))]
)


@pytest.mark.parametrize(
    "k, alpha, entry_bits",
    EXACT_COEFF_CASES,
    ids=[f"k{k}-a{a.numerator}_{a.denominator}-e{e}" for k, a, e in EXACT_COEFF_CASES],
)
def test_rational_coeffs_equal_the_mpmath_route(k, alpha, entry_bits):
    assert _rational_coeffs(k, alpha, entry_bits) == rational_coeffs_oracle(k, alpha, entry_bits)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 120), st.data())
def test_dyadic_entries_equal_the_reduced_fraction(bits, data):
    # the certified entries are built by a shift, not a gcd: the result must
    # be the very Fraction the constructor gives, in every observable
    num = data.draw(
        st.one_of(
            st.sampled_from([0, 1, -1, 2 ** (bits + 3), -(2 ** (bits + 3))]),
            st.integers(-(2**200), 2**200),
            st.builds(lambda n, j: n << j, st.integers(-(2**64), 2**64), st.integers(0, 130)),
        )
    )
    got, want = _dyadic(num, bits), Fraction(num, 2**bits)
    assert type(got) is Fraction
    assert got.numerator == want.numerator and got.denominator == want.denominator
    assert hash(got) == hash(want) and str(got) == str(want)
    assert got == want


def _fraction_closed_form_arg(k, alpha, r):
    # the closed form's argument reduction as first written, in Fractions
    x = (r - alpha) / k
    p = ((2 * ((k + 1) // 2) - 1) * x + alpha + 1) % 2
    return p - 2 if p > 1 else p, min(x, 1 - x)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 70000), st.integers(2, 1000), st.integers(1, 12), st.data())
def test_integer_closed_form_arg_matches_fraction_reduction(k, g, c, data):
    # about 40 % of the drawn a/g are unreduced, and c unreduces them further
    a = data.draw(st.integers(1, g - 1))
    offsets = data.draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=4))
    d = k * g * c
    for r in offsets:
        p, y = _closed_form_arg(k, a * c, g * c, r)
        assert -d < p <= d
        assert (Fraction(p, d), Fraction(y, d)) == _fraction_closed_form_arg(k, Fraction(a, g), r)
    assert _float_coeffs(k, a * c, g * c, offsets) == _float_coeffs(k, a, g, offsets)


@pytest.mark.parametrize("k", [2, 3, 4, 7, 16, 30])
@pytest.mark.parametrize("alpha", [0.1, 0.5, 0.93])
def test_fractional_coeffs_unitary_rows(k, alpha):
    g, _ = fractional_coeffs(k, alpha)
    assert abs(np.sum(np.abs(g) ** 2) - 1.0) < 1e-13


@pytest.mark.parametrize("k", [2, 4, 6, 8, 12, 20])
@pytest.mark.parametrize("alpha", [0.2, 0.5, 0.77])
def test_even_cycle_odd_offset_weight_law(k, alpha):
    # pairing eigenvalue j with j - k/2 shifts the principal angle by
    # exactly pi, which forces the odd-offset weight to sin^2(pi alpha/2)
    # on every even cycle, not just k = 2
    g, _ = fractional_coeffs(k, alpha)
    odd_weight = sum(abs(g[r]) ** 2 for r in range(1, k, 2))
    assert abs(odd_weight - math.sin(math.pi * alpha / 2.0) ** 2) < 1e-12


# -- amplitudes ----------------------------------------------------------------


def test_amplitude_exact_arithmetic():
    a = Amplitude.exact(Fraction(3, 5))
    b = Amplitude.exact(0, Fraction(4, 5))
    assert a.is_exact and a.err == 0.0
    s = a.add(b)
    assert (s.re, s.im) == (Fraction(3, 5), Fraction(4, 5))
    p = a.mul(b)
    assert (p.re, p.im) == (Fraction(0), Fraction(12, 25))
    assert b.conj().im == Fraction(-4, 5)
    assert s.abs2() == 1
    assert s.is_exact


def test_amplitude_float_error_propagation():
    a = Amplitude.approx(0.6 + 0.0j, 1e-14)
    b = Amplitude.approx(0.0 + 0.8j, 2e-14)
    s = a.add(b)
    assert not s.is_exact
    assert s.err >= a.err + b.err
    p = a.mul(b)
    # |a| db + |b| da, conservatively inflated
    assert p.err >= 0.6 * 2e-14 + 0.8 * 1e-14
    mixed = Amplitude.exact(1).mul(b)
    assert not mixed.is_exact
    assert mixed.err >= b.err
    scaled = b.mul(Amplitude.approx(0.5 + 0.5j, 1e-13))
    assert abs(scaled.as_complex() - (0.8j * (0.5 + 0.5j))) < 1e-15
    assert scaled.err >= 0.8 * 1e-13


_PART = st.floats(-1, 1)
_EXACT_AMP = st.builds(
    Amplitude.exact,
    st.fractions(-1, 1, max_denominator=10**6),
    st.fractions(-1, 1, max_denominator=10**6),
)
_FLOAT_AMP = st.builds(Amplitude, _PART, _PART, st.floats(0, 1e-12))


def _exact_product(a, b):
    """The product of the stored values, in Fractions."""
    are, aim, bre, bim = (Fraction(x) for x in (a.re, a.im, b.re, b.im))
    return are * bre - aim * bim, are * bim + aim * bre


def _within_err(p, want):
    dre, dim = Fraction(p.re) - want[0], Fraction(p.im) - want[1]
    return dre * dre + dim * dim <= Fraction(p.err) ** 2


@given(
    st.one_of(
        st.tuples(_EXACT_AMP, _EXACT_AMP),
        st.tuples(_FLOAT_AMP, _FLOAT_AMP),
        st.tuples(_EXACT_AMP, _FLOAT_AMP),
        st.tuples(_FLOAT_AMP, _EXACT_AMP),
    ),
    _PART,
    _PART,
    st.floats(0, 1e-12),
)
def test_amplitude_products_bound_their_rounding(pair, zre, zim, zerr):
    # the error bound of mul and of mul_each covers the distance from
    # the float product to the exact product of the stored values
    a, b = pair
    p = a.mul(b)
    assert _within_err(p, _exact_product(a, b))
    if a.is_exact and b.is_exact:
        assert p.is_exact and (p.re, p.im) == _exact_product(a, b)
    else:
        z = a.as_complex() * b.as_complex()
        assert (p.re, p.im) == (z.real, z.imag)
    z = complex(zre, zim)
    (q,) = a.mul_each((z,), zerr)
    assert _within_err(q, _exact_product(a, Amplitude.approx(z, 0.0)))
    w = a.as_complex() * z
    assert (q.re, q.im) == (w.real, w.imag)


def _per_entry_mul_complex(self, z, zerr):
    # the one-coefficient product before the vector product, body verbatim
    w = self.as_complex() * z
    a = self.mag_upper()
    zmag = abs(z) + zerr
    err = self.err * zmag + zerr * a + 8.0 * _EPS * a * zmag + _UNDERFLOW
    return Amplitude.approx(w, err)


def _bits(amp):
    return float.hex(amp.re), float.hex(amp.im), float.hex(amp.err)


# coefficient parts from the least subnormal to about 1e150, with both zeros
_COEFF_PART = st.one_of(
    _PART,
    st.floats(-1e150, 1e150),
    st.floats(-1e-300, 1e-300),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0]),
)


# error bounds of comparable size, so that a reordered sum of the bound's
# terms rounds differently, also at the scale of the underflow term
_TINY = st.builds(math.ldexp, st.floats(0, 1), st.integers(-1074, -990))
_SMALL_ERR = st.one_of(st.floats(1e-18, 1e-6), _TINY)
_TINY_PART = st.one_of(_TINY, _TINY.map(float.__neg__))


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        _EXACT_AMP,
        _FLOAT_AMP,
        st.builds(Amplitude, _PART, _PART, _SMALL_ERR),
        st.builds(Amplitude, _TINY_PART, _TINY_PART, _TINY),
    ),
    st.lists(st.builds(complex, _COEFF_PART, _COEFF_PART), max_size=40),
    st.one_of(st.sampled_from([0.0, -0.0]), _SMALL_ERR, st.floats(0, 1e150)),
)
# a bound just above 2^-1022, where the place of the underflow term
# in the sum changes the last bit
@example(Amplitude(math.ldexp(1.75, -1018), 0.0, math.ldexp(1.25, -1020)), [0.625 + 0j], 0.25)
def test_vector_product_keeps_every_bit_of_the_per_entry_product(amp, zs, zerr):
    # one call per vector gives, coefficient by coefficient, the bits of the
    # per-entry product (float.hex tells -0.0 from 0.0), and so does a
    # one-coefficient vector; a zerr of -0.0 is drawn and must be taken
    want = [_bits(_per_entry_mul_complex(amp, z, zerr)) for z in zs]
    assert [_bits(p) for p in amp.mul_each(zs, zerr)] == want
    assert [_bits(amp.mul_each((z,), zerr)[0]) for z in zs] == want


@pytest.mark.parametrize("zerr", [-0.1, math.nan, math.inf])
def test_vector_product_refuses_a_bad_coefficient_error_bound(zerr):
    # a negative bound would shrink the product's bound below that of an
    # exact coefficient (err 0.70 where zerr = 0 gives 1.0)
    amp = Amplitude.approx(1 + 0j, 1.0)
    with pytest.raises(ParameterRangeError, match="coefficient error bound"):
        amp.mul_each((1 + 0j,), zerr)
    with pytest.raises(ParameterRangeError, match="coefficient error bound"):
        amp.mul_each([], zerr)


def test_amplitude_validation():
    with pytest.raises(LabelError):
        Amplitude(Fraction(1), 0.0)
    with pytest.raises(LabelError):
        Amplitude(Fraction(1), Fraction(0), 1e-9)
    with pytest.raises(LabelError):
        Amplitude(0.5, 0.5, -1e-9)
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(LabelError, match="non-finite"):
            Amplitude(bad, 0.0)
        with pytest.raises(LabelError, match="non-finite"):
            Amplitude(0.0, bad)


# -- sparse states -------------------------------------------------------------


def test_sparse_state_basics_and_ordering():
    step = BeaconStep(MOVE_RIGHT_3, Unbounded())
    labels = walk(step, step.initial_label(), 2)
    psi = SparseState(
        [
            (labels[2], Amplitude.exact(Fraction(4, 5))),
            (labels[0], Amplitude.exact(Fraction(3, 5))),
        ]
    )
    assert psi.support_size == 2
    assert psi.norm2() == 1
    assert psi.is_exact
    got = [lab.serial for lab, _ in psi.items()]
    assert got == sorted(got)
    assert psi.amplitude(labels[0]).re == Fraction(3, 5)
    assert psi.amplitude(labels[1]) is None


def test_sparse_state_drops_exact_zeros_and_rejects_duplicates():
    step = BeaconStep(MOVE_RIGHT_3, Unbounded())
    labels = walk(step, step.initial_label(), 1)
    psi = SparseState(
        [
            (labels[0], AMP_ONE),
            (labels[1], Amplitude.exact(0)),
        ]
    )
    assert psi.support_size == 1
    with pytest.raises(LabelError, match="duplicate"):
        SparseState([(labels[0], AMP_ONE), (labels[0], AMP_ONE)])
    with pytest.raises(LabelError, match="^not a basis label: 'x'$"):
        SparseState([("x", AMP_ONE)])
    with pytest.raises(LabelError, match="^not an amplitude: 1$"):
        SparseState([(labels[0], 1)])


def test_sparse_state_equality_checks_every_part():
    step = BeaconStep(MOVE_RIGHT_3, Unbounded())
    labels = walk(step, step.initial_label(), 2)
    three, four = Amplitude.exact(Fraction(3, 5)), Amplitude.exact(Fraction(4, 5))
    psi = SparseState([(labels[0], three), (labels[2], four)], 1)
    assert psi == SparseState([(labels[2], four), (labels[0], three)], 1)
    assert psi.__eq__("x") is NotImplemented and psi != "x"
    assert psi != SparseState([(labels[0], three), (labels[2], four)], 2)  # time tag
    assert psi != SparseState.basis_state(labels[0], 1)  # support size
    assert psi != SparseState([(labels[0], four), (labels[2], three)], 1)  # amplitude


def test_sparse_state_repr_names_its_tag_and_support():
    step = BeaconStep(MOVE_RIGHT_3, Unbounded())
    psi = SparseState.basis_state(step.initial_label(), Fraction(3, 2))
    assert repr(psi) == "<SparseState t=3/2 support=1>"


def test_sparse_state_norm_enforcement():
    step = BeaconStep(MOVE_RIGHT_3, Unbounded())
    lab = step.initial_label()
    with pytest.raises(StateNormError):
        SparseState([(lab, Amplitude.exact(HALF))])
    with pytest.raises(StateNormError):
        SparseState([(lab, Amplitude.approx(1.0 + 1e-5j, 0.0))])
    # a NaN squared norm compares False against the tolerance either way
    for bad in (float("nan"), float("inf")):
        with pytest.raises(LabelError, match="non-finite"):
            SparseState([(lab, Amplitude(bad, 0.0))])
        with pytest.raises(LabelError, match="non-finite"):
            SparseState([(lab, Amplitude.approx(complex(1.0, bad), 0.0))])
    ok = SparseState([(lab, Amplitude.approx(1.0 + 0j, 1e-15))])
    assert abs(ok.norm2() - 1.0) <= 1e-12


def test_sparse_state_rejects_negative_tag():
    lab = BeaconStep(MOVE_RIGHT_3, Unbounded()).initial_label()
    with pytest.raises(TimeTagError):
        SparseState.basis_state(lab, Fraction(-1, 2))


# -- integer-time evolution ----------------------------------------------------


def test_evolve_integer_rides_the_orbit():
    step = BeaconStep(MOVE_RIGHT_3, Unbounded())
    labels = walk(step, step.initial_label(), 6)
    psi = SparseState.basis_state(step.initial_label())
    for n in (0, 1, 3, 4, 6):
        out = evolve_integer(step, psi, n)
        assert out.time_tag == n
        (lab, amp), = out.items()
        assert lab == labels[n]
        assert amp == AMP_ONE


def test_evolve_integer_superposition_linearity_and_exactness():
    step = BeaconStep(MOVE_RIGHT_3, Unbounded())
    labels = walk(step, step.initial_label(), 4)
    psi = SparseState(
        [
            (labels[0], Amplitude.exact(Fraction(3, 5))),
            (labels[1], Amplitude.exact(0, Fraction(4, 5))),
        ]
    )
    out = evolve_integer(step, psi, 3)
    assert out.is_exact
    assert out.amplitude(labels[3]).re == Fraction(3, 5)
    assert out.amplitude(labels[4]).im == Fraction(4, 5)
    target = SparseState.basis_state(labels[3], 3)
    assert fidelity(out, target) == Fraction(9, 25)


def test_evolve_integer_validation():
    step = BeaconStep(MOVE_RIGHT_3, Unbounded())
    psi = SparseState.basis_state(step.initial_label())
    with pytest.raises(ParameterRangeError):
        evolve_integer(step, psi, -1)
    mid = SparseState.basis_state(step.initial_label(), Fraction(1, 4))
    with pytest.raises(TimeTagError):
        evolve_integer(step, mid, 1)


@settings(max_examples=40, deadline=None)
@given(machines(total=True), st.integers(0, 12), st.integers(2, 5))
def test_evolve_integer_two_route_composition(spec, n, period):
    # one hop at a time against one n-step jump, on both clock modes
    for clock in (Unbounded(), Cyclic(period)):
        step = BeaconStep(spec, clock)
        psi = SparseState.basis_state(step.initial_label())
        stepped = psi
        for _ in range(n):
            stepped = evolve_integer(step, stepped, 1)
        jumped = evolve_integer(step, psi, n)
        assert stepped == jumped


# -- continuous-time evolution -------------------------------------------------


def test_evolve_to_integer_times_bit_identical():
    step = BeaconStep(MOVE_RIGHT_3, Unbounded())
    sched = PulseSchedule(HALF, Unbounded())
    psi = SparseState.basis_state(step.initial_label())
    for n in (0, 2, 5):
        assert evolve_to(step, sched, psi, n) == evolve_integer(step, psi, n)


def test_evolve_to_completed_pulse_and_idle_flatness():
    step = BeaconStep(MOVE_RIGHT_3, Unbounded())
    sched = PulseSchedule(HALF, Unbounded())
    psi = SparseState.basis_state(step.initial_label())
    done = evolve_integer(step, psi, 3)
    target = SparseState.basis_state(done.items()[0][0], 0)
    seen = []
    for s in (HALF, Fraction(7, 10), Fraction(99, 100)):
        out = evolve_to(step, sched, psi, 2 + s)
        assert out.time_tag == 2 + s
        assert out.items() == done.items()
        seen.append(fidelity(out, target))
    assert seen[0] == seen[1] == seen[2] == 1


def test_evolve_to_mid_pulse_refusals():
    sched_u = PulseSchedule(HALF, Unbounded())
    step_u = BeaconStep(MOVE_RIGHT_3, Unbounded())
    psi_u = SparseState.basis_state(step_u.initial_label())
    with pytest.raises(OrbitNotClosedError):
        evolve_to(step_u, sched_u, psi_u, Fraction(17, 4))  # past halt, still open
    step_c = BeaconStep(LOOP_STAY, Cyclic(3))
    sched_c = PulseSchedule(HALF, Cyclic(3))
    psi_c = SparseState.basis_state(step_c.initial_label())
    with pytest.raises(OrbitNotClosedError):
        evolve_to(step_c, sched_c, psi_c, Fraction(1, 4))  # pre-halt label
    step_h = BeaconStep(MOVE_RIGHT_3, Cyclic(4))
    sched_h = PulseSchedule(HALF, Cyclic(4))
    psi_h = SparseState.basis_state(step_h.initial_label())
    with pytest.raises(OrbitNotClosedError):
        evolve_to(step_h, sched_h, psi_h, Fraction(1, 4))  # halts later, open now


def test_evolve_to_validation():
    step = BeaconStep(MOVE_RIGHT_3, Cyclic(2))
    sched = PulseSchedule(HALF, Cyclic(2))
    psi = SparseState.basis_state(step.initial_label())
    with pytest.raises(ParameterRangeError):
        evolve_to(step, sched, psi, -1)
    with pytest.raises(ParameterRangeError):
        evolve_to(step, PulseSchedule(HALF, Unbounded()), psi, 1)
    late = SparseState.basis_state(step.initial_label(), 1)
    with pytest.raises(TimeTagError):
        evolve_to(step, sched, late, 2)
    # the precision budget is checked the way approx_unitary checks it
    for m in ("20", 0, -5, 2.5):
        with pytest.raises(ParameterRangeError, match="precision exponent"):
            evolve_to(step, sched, psi, Fraction(13, 4), m=m)


def test_evolve_to_two_cycle_profile_matches_frozen_and_oracle():
    # move-right-3 on a period-2 clock: after halting at K = 3 the orbit
    # is the two-cycle (label_3, label_4)
    step = BeaconStep(MOVE_RIGHT_3, Cyclic(2))
    sched = PulseSchedule(HALF, Cyclic(2))
    psi = SparseState.basis_state(step.initial_label())
    labels = walk(step, step.initial_label(), 4)
    nxt = SparseState.basis_state(labels[4], 0)
    for s, want in [
        (Fraction(1, 8), 0.14644660940672624),
        (Fraction(1, 4), 0.5),
        (Fraction(3, 8), 0.8535533905932738),
    ]:
        out = evolve_to(step, sched, psi, 3 + s)
        got = fidelity(out, nxt)
        alpha = float(s / sched.delta)
        assert abs(got - want) < 1e-12
        assert abs(got - two_cycle_profile(alpha)) < 1e-12
        oracle_amp = transfer_amplitudes_oracle(2, alpha)[1]
        assert abs(got - abs(oracle_amp) ** 2) < 1e-12
        assert abs(float(out.norm2()) - 1.0) < 1e-12


def test_evolve_to_mid_pulse_superposition_linearity():
    step = BeaconStep(MOVE_RIGHT_3, Cyclic(2))
    sched = PulseSchedule(HALF, Cyclic(2))
    labels = walk(step, step.initial_label(), 4)
    # both support labels live on the same two-cycle after three steps
    a = SparseState.basis_state(labels[0])
    b = SparseState.basis_state(labels[1])
    combo = SparseState(
        [
            (labels[0], Amplitude.exact(Fraction(3, 5))),
            (labels[1], Amplitude.exact(0, Fraction(4, 5))),
        ]
    )
    t = Fraction(13, 4)
    out = evolve_to(step, sched, combo, t)
    ea = evolve_to(step, sched, a, t)
    eb = evolve_to(step, sched, b, t)
    assert out.support_size == 2
    for lab, _ in out.items():
        za = ea.amplitude(lab)
        zb = eb.amplitude(lab)
        want = 0.6 * (za.as_complex() if za else 0) + 0.8j * (
            zb.as_complex() if zb else 0
        )
        assert abs(out.amplitude(lab).as_complex() - want) < 1e-14


def _per_entry_mid_pulse_pairs(step, pairs, alpha):
    # _mid_pulse_pairs before the vector product, loop verbatim, with the
    # per-entry product above in place of the method call
    walks = [(cycle_of(step, label), amp) for label, amp in pairs]
    g, gerr = fractional_coeffs(step.cycle_length, alpha)
    acc = {}
    for cyc, amp in walks:
        for target, z in zip(cyc, g):
            part = _per_entry_mul_complex(amp, z, gerr)
            prev = acc.get(target)
            acc[target] = part if prev is None else prev.add(part)
    return list(acc.items())


_EXACT_3_4 = (Amplitude.exact(Fraction(3, 5)), Amplitude.exact(Fraction(4, 5)))
# (machine, period, walk positions at t = 0, amplitudes, time): every case
# overlaps several support labels on one cycle, where the float sum of
# their parts depends on its order
MID_PULSE_SUPERPOSITIONS = [
    (MOVE_RIGHT_3, 5, (0, 2), _EXACT_3_4, Fraction(53, 10)),  # alpha 3/5
    (MOVE_RIGHT_3, 5, (0, 2), _EXACT_3_4, Fraction(27, 5)),  # alpha 4/5
    (MOVE_RIGHT_3, 2, (0, 1), _EXACT_3_4, Fraction(13, 4)),
    (
        MOVE_RIGHT_3,
        4,
        (1, 4),
        (Amplitude.approx(0.6 + 0j, 1e-16), Amplitude.approx(0.8j, 2e-16)),
        Fraction(57, 8),  # alpha 1/4
    ),
    (
        corpus_machine("scan-20"),
        6,
        (0, 1, 3),
        (
            Amplitude.exact(Fraction(2, 3)),
            Amplitude.exact(0, Fraction(2, 3)),
            Amplitude.exact(Fraction(-1, 3)),
        ),
        Fraction(101, 4),
    ),
]


@pytest.mark.parametrize(
    "spec, period, positions, amps, t",
    MID_PULSE_SUPERPOSITIONS,
    ids=[
        f"p{p}-at{len(at)}-t{t.numerator}_{t.denominator}"
        for _, p, at, _, t in MID_PULSE_SUPERPOSITIONS
    ],
)
def test_evolve_to_mid_pulse_superposition_keeps_every_bit(spec, period, positions, amps, t):
    step = BeaconStep(spec, Cyclic(period))
    sched = PulseSchedule(HALF, Cyclic(period))
    labels = walk(step, step.initial_label(), max(positions))
    psi0 = SparseState([(labels[i], amp) for i, amp in zip(positions, amps)])
    _, n, alpha = _pulsed_time(step, sched, t, 1)
    assert 0 < alpha < 1
    base = evolve_integer(step, psi0, n)
    want = SparseState(_per_entry_mid_pulse_pairs(step, base.items(), alpha), t)
    got = evolve_to(step, sched, psi0, t)
    assert [(lab, _bits(amp)) for lab, amp in got.items()] == [
        (lab, _bits(amp)) for lab, amp in want.items()
    ]
    assert got.support_size == step.cycle_length


def test_evolve_to_precision_budget():
    step = BeaconStep(MOVE_RIGHT_3, Cyclic(2))
    sched = PulseSchedule(HALF, Cyclic(2))
    psi = SparseState.basis_state(step.initial_label())
    t = Fraction(13, 4)
    out = evolve_to(step, sched, psi, t, m=20)
    assert out.max_err() <= 0.5**20
    with pytest.raises(PrecisionBudgetError):
        evolve_to(step, sched, psi, t, m=60)


# -- cycles and reachability ---------------------------------------------------


@pytest.mark.parametrize("period,want", [(2, 2), (3, 6), (5, 10), (4, 4)])
def test_cycle_of_post_halt_lengths(period, want):
    step = BeaconStep(MOVE_RIGHT_3, Cyclic(period))
    labels = walk(step, step.initial_label(), 3)
    cyc = cycle_of(step, labels[3])
    assert len(cyc) == want
    assert cyc[0] == labels[3]
    assert step.forward(cyc[-1]) == cyc[0]


def test_cycle_of_refusals():
    step_u = BeaconStep(MOVE_RIGHT_3, Unbounded())
    with pytest.raises(OrbitNotClosedError):
        cycle_of(step_u, step_u.initial_label())
    step_c = BeaconStep(MOVE_RIGHT_3, Cyclic(3))
    with pytest.raises(OrbitNotClosedError):
        cycle_of(step_c, step_c.initial_label())
    with pytest.raises(LabelError, match="^not a basis label: 'x'$"):
        cycle_of(step_c, "x")
    # the walk takes the step's cycle length on trust and checks it closed
    labels = walk(step_c, step_c.initial_label(), 3)
    step_c.cycle_length = 5
    with pytest.raises(OrbitNotClosedError, match="did not close after 5 labels"):
        cycle_of(step_c, labels[3])


def _variant(y, **fields):
    """``y`` with the given fields replaced, built without validation so
    that out-of-range clocks can be made."""
    old = dict(state=y.state, head=y.head, tape=y.tape, hist=y.hist, tau=y.tau, h=y.h, b=y.b)
    return ExtendedBasisState(**{**old, **fields})


@settings(max_examples=60, deadline=None)
@given(machines(total=True), st.one_of(st.none(), st.integers(2, 41)), st.data())
def test_cycle_offset_is_the_position_in_the_cycle_walk(spec, period, data):
    # the forward walk from x is the oracle (cycle_of lists its members by
    # the closed form cycle_offset inverts): every member sits at its index
    # in the walk, and no variant off the cycle is placed anywhere;
    # _offset, which cycle_offset returns, is the same there, and on the
    # unbounded clock (period None) it is the step count from the first
    # halted label x to advance's label, and None for a label off x's run
    assume(isinstance(classical_run(spec, 20), Halted))
    step = BeaconStep(spec, Unbounded() if period is None else Cyclic(period))
    pre_halt = [step.initial_label()]
    while not step.forward(pre_halt[-1]).h:
        pre_halt.append(step.forward(pre_halt[-1]))
    first = step.forward(pre_halt[-1])
    if period is None:
        for r in (0, 1, 2, data.draw(st.integers(0, 10**9))):
            y = step.advance(first, r)
            assert step._offset(first, y) == r
            for z in [_variant(y, head=y.head + 1), _variant(y, b=y.b ^ 1)] + pre_halt:
                assert step._offset(first, z) is None
        before = _variant(first, tau=first.tau - 1, b=first.b ^ 1)
        assert step._offset(first, before) is None
        with pytest.raises(OrbitNotClosedError, match="unbounded"):
            step.cycle_offset(first, first)
        return
    x = step.advance(first, data.draw(st.integers(0, step.cycle_length - 1)))
    k = step.cycle_length
    cycle = walk(step, x, k - 1)
    assert step.forward(cycle[-1]) == x
    for r, y in enumerate(cycle):
        assert step.cycle_offset(x, y) == step._offset(x, y) == r
        off = [
            _variant(y, h=0),
            _variant(y, head=y.head + 1),
            _variant(y, tau=y.tau + period),
            _variant(y, tau=y.tau - period),
        ]
        flipped = _variant(y, b=y.b ^ 1)
        if period % 2:
            # on an odd period the same clock recurs half way round with
            # the other beacon parity
            assert step.cycle_offset(x, flipped) == (r + period) % k
        else:
            off.append(flipped)
        for z in off + pre_halt:
            assert z not in cycle
            assert step.cycle_offset(x, z) is step._offset(x, z) is None
    with pytest.raises(OrbitNotClosedError, match="pre-halt"):
        step.cycle_offset(pre_halt[-1], x)


def test_cycle_of_walks_cycles_past_any_fixed_cap():
    step = BeaconStep(MOVE_RIGHT_3, Cyclic(32769))
    halted = step.advance(step.initial_label(), 3)
    cyc = cycle_of(step, halted)
    assert len(cyc) == 65538
    assert step.forward(cyc[-1]) == halted


def test_integer_evolution_on_a_cyclic_clock_costs_the_cycle_not_the_time(monkeypatch):
    # move-right-3 halts at K = 3; on Cyclic(3) its orbit then has 6 labels
    step = BeaconStep(MOVE_RIGHT_3, Cyclic(3))
    psi = SparseState.basis_state(step.initial_label())
    want = evolve_integer(step, psi, 10**6 % 6 + 6)
    calls = count_forward(monkeypatch)
    got = evolve_integer(step, psi, 10**6)
    assert len(calls) <= 3  # the steps up to the halt; the rest is arithmetic
    assert got.items() == want.items()


def test_certified_route_on_a_cyclic_clock_costs_the_cycle_not_the_time(monkeypatch):
    step = BeaconStep(MOVE_RIGHT_3, Cyclic(3))
    sched = PulseSchedule(HALF, Cyclic(3))
    basis = cycle_of(step, step.advance(step.initial_label(), 3))
    calls = count_forward(monkeypatch)
    matrix = approx_unitary(step, sched, basis, 10**6, 20)
    # each basis label is advanced on its own, and each is already halted,
    # so an integer time takes no step at all
    assert calls == []
    # 10^6 = 4 (mod 6): basis label j is carried to basis label j + 4
    assert all(matrix.column(j)[(j + 4) % 6] == (1, 0) for j in range(6))
    # mid-pulse, cycle_of lists the one cycle by the closed form: the one
    # forward call is its closing check
    del calls[:]
    approx_unitary(step, sched, basis, 10**6 + Fraction(1, 5), 20)
    assert len(calls) == 1
    del calls[:]
    evolve_to(step, sched, SparseState.basis_state(basis[0]), 10**6 + Fraction(1, 5))
    assert len(calls) == 1


def test_forward_walk_saturates_on_cycles():
    step = BeaconStep(HALT_NOW, Cyclic(2))
    got = walk(step, step.initial_label(), 10)
    ring = cycle_of(step, got[1])
    assert len(ring) == 2 and len(set(got)) == 3  # initial, then the two-cycle
    assert got[1:] == [ring[k % 2] for k in range(10)]
    assert len({lab.serial for lab in got}) == 3
    open_step = BeaconStep(MOVE_RIGHT_3, Unbounded())
    line = walk(open_step, open_step.initial_label(), 10)
    assert len(set(line)) == 11


# -- fidelity ------------------------------------------------------------------


def test_fidelity_exact_cases():
    step = BeaconStep(MOVE_RIGHT_3, Unbounded())
    labels = walk(step, step.initial_label(), 2)
    a = SparseState.basis_state(labels[0])
    b = SparseState.basis_state(labels[1])
    combo = SparseState(
        [
            (labels[0], Amplitude.exact(Fraction(3, 5))),
            (labels[1], Amplitude.exact(Fraction(4, 5))),
        ]
    )
    assert fidelity(a, a) == 1
    assert fidelity(a, b) == 0
    assert fidelity(combo, a) == Fraction(9, 25)
    assert fidelity(combo, b) == Fraction(16, 25)
    assert fidelity(a, combo) == fidelity(combo, a)
    assert isinstance(fidelity(combo, a), Fraction)


def test_fidelity_float_route_clamps():
    step = BeaconStep(MOVE_RIGHT_3, Unbounded())
    lab = step.initial_label()
    x = SparseState([(lab, Amplitude.approx(1.0 + 4e-13j, 1e-12))])
    got = fidelity(x, x)
    assert isinstance(got, float)
    assert 0.0 <= got <= 1.0


def test_subspace_fidelity_beacon_weights():
    step = BeaconStep(MOVE_RIGHT_3, Unbounded())
    on_beacon = step.target_predicate(BeaconSubspace())
    labels = walk(step, step.initial_label(), 4)
    dark = SparseState.basis_state(labels[3])
    lit = SparseState.basis_state(labels[4])
    assert subspace_fidelity(dark, on_beacon) == 0
    assert subspace_fidelity(lit, on_beacon) == 1
    combo = SparseState(
        [
            (labels[3], Amplitude.exact(Fraction(3, 5))),
            (labels[4], Amplitude.exact(Fraction(4, 5))),
        ]
    )
    assert subspace_fidelity(combo, on_beacon) == Fraction(16, 25)


# The two-branch formulas that fidelity, norm2, subspace_fidelity and
# SparseState.__eq__ replaced with one sum each, kept verbatim as the
# reference the folded code must match bit for bit.


def _old_conj(a):
    if a.is_exact:
        return Amplitude(a.re, -a.im, 0.0)
    return Amplitude(a.re, -a.im, a.err)


def _old_fidelity(alpha, beta):
    if alpha.is_exact and beta.is_exact:
        re = Fraction(0)
        im = Fraction(0)
        for lab, a in alpha.items():
            b = beta.amplitude(lab)
            if b is None:
                continue
            prod = _old_conj(a).mul(b)
            re += prod.re
            im += prod.im
        return re * re + im * im
    total = complex(0.0)
    for lab, a in alpha.items():
        b = beta.amplitude(lab)
        if b is None:
            continue
        total += _old_conj(a).mul(b).as_complex()
    return _clamp01(abs(total) ** 2)


def _old_norm2(psi):
    if psi.is_exact:
        total = Fraction(0)
        for amp in psi._amps.values():
            total += amp.abs2()
        return total
    return math.fsum(float(amp.abs2()) for amp in psi._amps.values())


def _old_subspace_fidelity(alpha, predicate):
    lit = [amp.abs2() for lab, amp in alpha._amps.items() if predicate(lab)]
    if alpha.is_exact:
        return sum(lit, Fraction(0))
    return _clamp01(math.fsum(map(float, lit)))


def _old_eq(psi, other):
    if psi.time_tag != other.time_tag or len(psi._amps) != len(other._amps):
        return False
    for label, amp in psi._amps.items():
        if other._amps.get(label) != amp:
            return False
    return True


_RUN = BeaconStep(MOVE_RIGHT_3, Unbounded())
RUN_LABELS = walk(_RUN, _RUN.initial_label(), 8)  # live, halt and post-halt labels


@st.composite
def run_states(draw):
    """A unit state on some labels of one run, with exact, float or mixed
    amplitudes.  Exact parts are a rational point of the unit sphere (the
    inverse stereographic image of 2n - 1 rationals); a mixed state rounds
    some of them to floats; a float state is normalized in floats."""
    labels = draw(st.lists(st.sampled_from(RUN_LABELS), min_size=1, max_size=6, unique=True))
    kind = draw(st.sampled_from(["exact", "float", "mixed"]))
    err = st.floats(0.0, 1e-15)
    if kind == "float":
        part = st.floats(-1.0, 1.0, allow_subnormal=False)
        zs = [complex(draw(part), draw(part)) for _ in labels]
        norm = math.sqrt(math.fsum(abs(z) ** 2 for z in zs))
        assume(norm > 1e-3)
        return SparseState(
            [(lab, Amplitude.approx(z / norm, draw(err))) for lab, z in zip(labels, zs)]
        )
    ts = [
        Fraction(draw(st.integers(-30, 30)), draw(st.integers(1, 30)))
        for _ in range(2 * len(labels) - 1)
    ]
    s = sum(t * t for t in ts)
    coords = [(1 - s) / (1 + s)] + [2 * t / (1 + s) for t in ts]
    pairs = []
    for lab, re, im in zip(labels, coords[::2], coords[1::2]):
        if kind == "mixed" and draw(st.booleans()):
            pairs.append((lab, Amplitude(float(re), float(im), draw(err))))
        else:
            pairs.append((lab, Amplitude.exact(re, im)))
    return SparseState(pairs)


@settings(max_examples=300, deadline=None)
@given(run_states(), run_states(), st.sets(st.sampled_from(RUN_LABELS)))
def test_folded_sums_keep_the_bits_of_the_two_branch_formulas(alpha, beta, lit):
    def same(new, old):
        assert type(new) is type(old) and new == old, (new, old)

    same(fidelity(alpha, beta), _old_fidelity(alpha, beta))
    same(fidelity(beta, alpha), _old_fidelity(beta, alpha))
    same(alpha.norm2(), _old_norm2(alpha))
    in_lit = lit.__contains__
    same(subspace_fidelity(alpha, in_lit), _old_subspace_fidelity(alpha, in_lit))
    assert (alpha == beta) is _old_eq(alpha, beta)
    twin = SparseState(reversed(alpha.items()), alpha.time_tag)
    assert (alpha == twin) is _old_eq(alpha, twin) is True


# -- the rational approximation oracle -----------------------------------------


def test_approx_unitary_integer_time_is_exact_permutation():
    step = BeaconStep(MOVE_RIGHT_3, Cyclic(2))
    sched = PulseSchedule(HALF, Cyclic(2))
    labels = walk(step, step.initial_label(), 3)
    basis = cycle_of(step, labels[3])
    swap = approx_unitary(step, sched, basis, 1, 30)
    assert swap.bound == Fraction(1, 2**30)
    assert swap.column(0)[1] == (Fraction(1), Fraction(0))
    assert swap.column(1)[0] == (Fraction(1), Fraction(0))
    ident = approx_unitary(step, sched, basis, 2, 30)
    assert ident.column(0)[0] == (Fraction(1), Fraction(0))
    assert swap.entries == (
        ((Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))),
        ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(0))),
    )
    still = approx_unitary(step, sched, basis, 0, 30)
    assert still.entries == ident.entries


def test_approx_unitary_completed_pulse_matches_next_integer():
    step = BeaconStep(MOVE_RIGHT_3, Cyclic(2))
    sched = PulseSchedule(HALF, Cyclic(2))
    labels = walk(step, step.initial_label(), 3)
    basis = cycle_of(step, labels[3])
    att = approx_unitary(step, sched, basis, Fraction(5, 2), 20)
    idle = approx_unitary(step, sched, basis, Fraction(29, 10), 20)
    whole = approx_unitary(step, sched, basis, 3, 20)
    assert att.entries == whole.entries == idle.entries
    assert att.t == Fraction(5, 2)


def test_approx_unitary_leaving_basis_refuses():
    step = BeaconStep(MOVE_RIGHT_3, Unbounded())
    sched = PulseSchedule(HALF, Unbounded())
    basis = walk(step, step.initial_label(), 3)
    with pytest.raises(BasisNotClosedError):
        approx_unitary(step, sched, basis, 4, 20)


def test_approx_unitary_mid_pulse_refuses_part_of_a_cycle():
    step = BeaconStep(MOVE_RIGHT_3, Cyclic(3))
    sched = PulseSchedule(HALF, Cyclic(3))
    labels = walk(step, step.initial_label(), 3)
    cycle = cycle_of(step, labels[3])
    assert len(cycle) == 6
    with pytest.raises(BasisNotClosedError, match="cycle of basis label 0 is not contained"):
        approx_unitary(step, sched, cycle[:5], Fraction(1, 5), 20)
    # the whole cycle is carried at the same time
    assert approx_unitary(step, sched, cycle, Fraction(1, 5), 20).t == Fraction(1, 5)


def test_approx_unitary_halt_pinch_collision_refuses():
    # immediate halter on a period-2 clock: the initial label and the far
    # cycle label share their image, so a basis holding both is rejected
    step = BeaconStep(HALT_NOW, Cyclic(2))
    sched = PulseSchedule(HALF, Cyclic(2))
    basis = walk(step, step.initial_label(), 2)
    assert len(set(basis)) == 3
    with pytest.raises(BasisNotClosedError, match="collide"):
        approx_unitary(step, sched, basis, 1, 20)


def test_evolve_integer_halt_pinch_collision_refuses():
    step = BeaconStep(HALT_NOW, Cyclic(2))
    labels = walk(step, step.initial_label(), 2)
    psi = SparseState(
        [
            (labels[0], Amplitude.exact(Fraction(3, 5))),
            (labels[2], Amplitude.exact(Fraction(4, 5))),
        ]
    )
    with pytest.raises(LabelError, match="duplicate"):
        evolve_integer(step, psi, 1)


@pytest.mark.parametrize("period", [2, 3, 5, 7, 16])
def test_approx_unitary_mid_pulse_certified_against_oracle(period):
    step = BeaconStep(MOVE_RIGHT_3, Cyclic(period))
    sched = PulseSchedule(HALF, Cyclic(period))
    labels = walk(step, step.initial_label(), 3)
    basis = cycle_of(step, labels[3])
    k = len(basis)
    m = 50
    s = Fraction(3, 10)
    mat = approx_unitary(step, sched, basis, s, m)
    assert mat.bound == Fraction(1, 2**m)
    want = cycle_power_oracle(k, float(s / sched.delta))
    got = np.array([[complex(float(re), float(im)) for re, im in row] for row in mat.entries])
    assert np.max(np.abs(got - want)) < 1e-12
    # rational column stays a unit vector up to the certified bound
    col = mat.column(0)
    norm2 = sum(re * re + im * im for re, im in col)
    assert abs(float(norm2) - 1.0) < 1e-12


def test_approx_unitary_whole_steps_rotate_the_cycle():
    # t = n + s with n > 0 on a closed cycle: the integer part is an exact
    # rotation, the fraction rides on top
    step = BeaconStep(MOVE_RIGHT_3, Cyclic(2))
    sched = PulseSchedule(HALF, Cyclic(2))
    labels = walk(step, step.initial_label(), 3)
    basis = cycle_of(step, labels[3])
    s = Fraction(1, 5)
    plain = approx_unitary(step, sched, basis, s, 40)
    shifted = approx_unitary(step, sched, basis, 2 + s, 40)
    assert plain.entries == shifted.entries  # full turn on a two-cycle
    one = approx_unitary(step, sched, basis, 1 + s, 40)
    assert one.entries != plain.entries


def test_approx_unitary_agrees_with_evolve_to():
    step = BeaconStep(MOVE_RIGHT_3, Cyclic(3))
    sched = PulseSchedule(HALF, Cyclic(3))
    psi = SparseState.basis_state(step.initial_label())
    n, s = 7, Fraction(2, 7)
    out = evolve_to(step, sched, psi, n + s)
    labels = walk(step, step.initial_label(), n)
    basis = cycle_of(step, labels[n])
    mat = approx_unitary(step, sched, basis, s, 40)
    col = mat.column(0)
    for i, lab in enumerate(basis):
        amp = out.amplitude(lab)
        got = amp.as_complex() if amp else 0j
        want = complex(float(col[i][0]), float(col[i][1]))
        assert abs(got - want) < 1e-9


@pytest.mark.parametrize("period", [1024, 2048, 4096])
def test_approx_unitary_agrees_with_evolve_to_at_scale(period):
    # criterion 4's 1e-9 check on the post-halt cycle of move-right-3 at
    # t = 13/4, on sampled columns: column j is U(t) applied to label j
    step = BeaconStep(MOVE_RIGHT_3, Cyclic(period))
    sched = PulseSchedule(HALF, Cyclic(period))
    basis = cycle_of(step, step.advance(step.initial_label(), 3))
    t = Fraction(13, 4)
    mat = approx_unitary(step, sched, basis, t, 40)
    assert len(basis) == period and mat.bound == Fraction(1, 2**40)
    for j in random.Random(period).sample(range(period), 3):
        out = evolve_to(step, sched, SparseState.basis_state(basis[j]), t)
        assert {lab for lab, _amp in out.items()} <= set(basis)
        for lab, (re, im) in zip(basis, mat.column(j)):
            amp = out.amplitude(lab)
            got = amp.as_complex() if amp else 0j
            assert abs(got - complex(float(re), float(im))) <= 1e-9


def test_approx_unitary_shuffled_basis_permutes_the_matrix():
    # one cycle, and two (the halted label's and its twin's one cell over),
    # listed in a random order: entry [i][j] is the ordered basis's entry at
    # the labels' ordered positions, which the column maps gather
    step = BeaconStep(MOVE_RIGHT_3, Cyclic(5))
    sched = PulseSchedule(HALF, Cyclic(5))
    lab = step.advance(step.initial_label(), 3)
    twin = ExtendedBasisState(lab.state, lab.head + 1, lab.tape, lab.hist, lab.tau, lab.h, lab.b)
    one = cycle_of(step, lab)
    k = len(one)
    rng = random.Random(18)
    for ordered in (one, one + cycle_of(step, twin)):
        size = len(ordered)
        perm = rng.sample(range(size), size)
        for t in (Fraction(7, 5), 2 + Fraction(1, 10), 3):
            want = approx_unitary(step, sched, ordered, t, 30).entries
            got = approx_unitary(step, sched, [ordered[p] for p in perm], t, 30).entries
            assert got == tuple(tuple(want[p][q] for q in perm) for p in perm)
            # with two cycles, their blocks are equal and nothing crosses
            assert all(
                want[i][j] == (want[i % k][j % k] if i // k == j // k else (0, 0))
                for i in range(size)
                for j in range(size)
            )


def test_rational_matrix_column_takes_an_index_below_the_size():
    step = BeaconStep(MOVE_RIGHT_3, Cyclic(2))
    sched = PulseSchedule(HALF, Cyclic(2))
    basis = cycle_of(step, step.advance(step.initial_label(), 3))
    mat = approx_unitary(step, sched, basis, Fraction(1, 5), 20)
    assert mat.column(1) == [row[1] for row in mat.entries]
    for j, message in [
        (-1, "column must be a nonnegative integer, got -1"),
        (True, "column must be a nonnegative integer, got True"),
        (1.0, "column must be a nonnegative integer, got 1.0"),
        (2, "column must be below 2, got 2"),
    ]:
        with pytest.raises(ParameterRangeError) as refused:
            mat.column(j)
        assert str(refused.value) == message


def test_approx_unitary_validation():
    step = BeaconStep(MOVE_RIGHT_3, Cyclic(2))
    sched = PulseSchedule(HALF, Cyclic(2))
    basis = [step.initial_label()]
    with pytest.raises(ParameterRangeError):
        approx_unitary(step, sched, basis, 1, 0)
    with pytest.raises(ParameterRangeError):
        approx_unitary(step, sched, basis, -1, 20)
    with pytest.raises(ParameterRangeError):
        approx_unitary(step, sched, [], 1, 20)
    with pytest.raises(LabelError):
        approx_unitary(step, sched, basis * 2, 1, 20)
    for t in (1, HALF):
        with pytest.raises(LabelError, match="^not a basis label: 'x'$"):
            approx_unitary(step, sched, ["x"], t, 20)
    with pytest.raises(ParameterRangeError):
        approx_unitary(step, PulseSchedule(HALF, Unbounded()), basis, 1, 20)


def test_as_rational_passes_a_fraction_through_and_refuses_as_before():
    class Ratio(Fraction):
        pass

    q = Fraction(3, 7)
    assert as_rational(q, "x") is q
    for x, want in [(Ratio(3, 7), q), (3, Fraction(3)), ("3/7", q), (0.5, HALF)]:
        got = as_rational(x, "x")
        assert type(got) is Fraction and got == want
    for x in (True, False, float("nan"), float("inf"), "x", None):
        with pytest.raises(ParameterRangeError) as refused:
            as_rational(x, "x")
        assert str(refused.value) == f"x must be rational, got {x!r}"


# -- schedules and serialization ------------------------------------------------


def test_pulse_schedule_validation():
    PulseSchedule(Fraction(1, 3), Unbounded())
    with pytest.raises(ParameterRangeError):
        PulseSchedule(Fraction(0), Unbounded())
    with pytest.raises(ParameterRangeError):
        PulseSchedule(Fraction(1), Unbounded())
    with pytest.raises(ParameterRangeError):
        PulseSchedule(HALF, "cyclic")


def test_state_to_json_sorted_and_stable():
    step = BeaconStep(MOVE_RIGHT_3, Unbounded())
    labels = walk(step, step.initial_label(), 1)
    psi = SparseState(
        [
            (labels[1], Amplitude.exact(Fraction(4, 5))),
            (labels[0], Amplitude.exact(Fraction(3, 5))),
        ]
    )
    blob = state_to_json(psi)
    rows = json.loads(blob)
    assert [len(r) for r in rows] == [3, 3]
    assert rows == sorted(rows)
    assert {r[1] for r in rows} == {0.6, 0.8}
    assert state_to_json(psi) == blob


@settings(max_examples=25, deadline=None)
@given(machines(total=True), st.integers(2, 4), st.integers(0, 6))
def test_evolve_to_completed_pulse_property(spec, period, n):
    # pulse-complete times equal the next integer hop on any machine
    step = BeaconStep(spec, Cyclic(period))
    sched = PulseSchedule(Fraction(2, 5), Cyclic(period))
    psi = SparseState.basis_state(step.initial_label())
    out = evolve_to(step, sched, psi, n + Fraction(1, 2))
    hop = evolve_integer(step, psi, n + 1)
    assert out.items() == hop.items()
    assert out.time_tag == n + Fraction(1, 2)


# -- runtime dependencies ------------------------------------------------------

NUMPY_FREE_RUN = """
import sys
from fractions import Fraction

import pulsehit as ph

spec = ph.parse_machine(sys.argv[1])
clock = ph.Cyclic(3)
step = ph.BeaconStep(spec, clock)
sched = ph.PulseSchedule(Fraction(1, 2), clock)
label = step.initial_label()
for _ in range(5):
    label = step.forward(label)
psi0 = ph.SparseState.basis_state(step.initial_label())
assert ph.evolve_to(step, sched, psi0, Fraction(26, 5)).support_size > 1
ph.approx_unitary(step, sched, ph.cycle_of(step, label), Fraction(1, 5), 40)
inst = ph.InstanceDescriptor(spec, Fraction(1, 4), sched, ph.ExactLabel(label), 8, 5)
ph.fidelity_trace(inst)
assert "numpy" not in sys.modules, "the runtime imported numpy"
"""


def _run_python(script, *args):
    """Run ``script`` in a fresh interpreter that imports this package."""
    src = str(Path(pulsehit.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", script, *args], env=env, capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr
    return run.stdout


def test_runtime_does_not_import_numpy():
    # numpy is a test-only dependency: the mid-pulse float route, the
    # certified route and an exact-target scan must all run without it
    _run_python(NUMPY_FREE_RUN, serialize_machine(MOVE_RIGHT_3))


# Each command, and the float mid-pulse and exact-target library calls, in
# one interpreter; with "refuse" as its first argument a meta-path finder
# makes every import of mpmath fail before pulsehit is imported.
MPMATH_FREE_RUN = """
import contextlib
import io
import json
import sys
from fractions import Fraction
from pathlib import Path


class RefuseMpmath:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "mpmath":
            raise ImportError(f"{name} is refused in this run")
        return None


if sys.argv[1] == "refuse":
    sys.meta_path.insert(0, RefuseMpmath())

import pulsehit as ph
from pulsehit.cli import main

corpus = sys.argv[2]
mover, scan20 = f"{corpus}/move-right-3.tm", f"{corpus}/scan-20.tm"
results = []
for argv in (
    ["compile", mover],
    ["hit", mover],
    ["hit", scan20, "--clock", "cyclic:4096", "--grid", "5", "--target", "exact:30"],
    ["trace", mover],
    ["evolve", mover, "--time", "23/5", "--clock", "cyclic:3"],
    ["verify", "--horizon", "1000"],
    ["sweep", "--budgets", "10,100"],
):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    results.append([code, out.getvalue()])

clock = ph.Cyclic(64)
sched = ph.PulseSchedule(Fraction(1, 2), clock)
step = ph.BeaconStep(ph.parse_machine(Path(mover).read_text()), clock)
psi0 = ph.SparseState.basis_state(step.initial_label())
results.append(json.loads(ph.state_to_json(ph.evolve_to(step, sched, psi0, Fraction(21, 5)))))
spec = ph.parse_machine(Path(scan20).read_text())
step = ph.BeaconStep(spec, clock)
label = ph.ExactLabel(step.advance(step.initial_label(), 30))
inst = ph.InstanceDescriptor(spec, Fraction(1, 4), sched, label, 40, 5)
results.append([[str(t), fid] for t, fid in ph.fidelity_trace(inst)])
assert "mpmath" not in sys.modules, "the run loaded mpmath"
print(json.dumps(results))
"""


def test_commands_and_scans_run_without_mpmath():
    # mpmath serves the certified route alone: every CLI command, the
    # float mid-pulse route and an exact-label scan on a long cycle give
    # the same codes and bytes when it cannot be imported at all
    corpus = str(Path(pulsehit.__file__).resolve().parent / "corpus")
    refused = json.loads(_run_python(MPMATH_FREE_RUN, "refuse", corpus))
    usual = json.loads(_run_python(MPMATH_FREE_RUN, "allow", corpus))
    assert refused == usual
    assert [code for code, _out in refused[:7]] == [0] * 7
    assert all(out for _code, out in refused[:7])
    assert len(refused[7]) == 64  # the mid-pulse state spreads over the halted cycle
    assert max(fid for _t, fid in refused[8]) == 1.0


LAZY_MPMATH_RUN = """
import json
import sys
from fractions import Fraction

import pulsehit as ph

assert "mpmath" not in sys.modules, "import pulsehit loaded mpmath"
spec = ph.parse_machine(sys.argv[1])
clock = ph.Cyclic(3)
step = ph.BeaconStep(spec, clock)
sched = ph.PulseSchedule(Fraction(1, 2), clock)
basis = ph.cycle_of(step, step.advance(step.initial_label(), 5))
matrix = ph.approx_unitary(step, sched, basis, Fraction(1, 5), 40)
assert "mpmath" in sys.modules, "the certified route ran without mpmath"
print(json.dumps([[[str(x) for x in z] for z in row] for row in matrix.entries]))
"""


def test_mpmath_loads_on_the_first_certified_call_with_the_same_matrix():
    entries = json.loads(_run_python(LAZY_MPMATH_RUN, serialize_machine(MOVE_RIGHT_3)))
    step = BeaconStep(MOVE_RIGHT_3, Cyclic(3))
    sched = PulseSchedule(Fraction(1, 2), Cyclic(3))
    basis = cycle_of(step, step.advance(step.initial_label(), 5))
    matrix = approx_unitary(step, sched, basis, Fraction(1, 5), 40)
    assert entries == [[[str(x) for x in z] for z in row] for row in matrix.entries]
    assert any(Fraction(x).denominator > 1 for row in entries for z in row for x in z)
