"""Reservoir integrals against closed forms and frozen high-precision values.

The frozen numbers were produced once with mpmath at 30 digits (adaptive
tanh-sinh quadrature over [0, w_c], [w_c, 10 w_c], [10 w_c, inf)); the
superohmic exponent-3 rows double as closed forms, Q1 = 0.2 t/(1+t^2)^2 and
Q2 = 0.1 (1 - (1-t^2)/(1+t^2)^2), which mpmath reproduced to all printed
digits.
"""

import math

import numpy as np
import pytest

from cqdeph.bath import (
    BathState,
    OhmicSpectralDensity,
    TabulatedSpectralDensity,
    damping,
    phase_shift,
    q1,
    q1_full,
    q1_grid,
    q2,
    q2_full,
    q2_grid,
    r_factor,
)
from cqdeph.errors import IntegrabilityError, InvalidArgumentError

OHMIC = OhmicSpectralDensity(coupling=0.1, exponent=1.0, omega_c=1.0)

# (exponent, t, beta or None for T=0, kind, value)
MPMATH_GOLD = [
    (1.0, 0.5, 1.0, "q2", 0.027031922271645385),
    (1.0, 2.0, 1.0, "q2", 0.29474386166448085),
    (1.0, 10.0, 1.0, "q2", 2.4967904118073935),
    (0.5, 0.5, None, "q1", 0.08611790893078744),
    (0.5, 0.5, None, "q2", 0.010310546129848623),
    (0.5, 2.0, None, "q1", 0.27868340738016439),
    (0.5, 2.0, None, "q2", 0.096428455060636063),
    (3.0, 0.5, None, "q1", 0.064),
    (3.0, 0.5, None, "q2", 0.052),
    (3.0, 2.0, None, "q1", 0.016),
    (3.0, 2.0, None, "q2", 0.112),
    (3.0, 2.0, 2.0, "q2", 0.13290388243018324),
]


def test_ohmic_density_shape():
    assert OHMIC.density(0.0) == 0.0
    assert OHMIC.density(1.0) == pytest.approx(0.1 * math.exp(-1.0))
    w = np.array([0.5, 2.0])
    assert np.allclose(OHMIC.density(w), 0.1 * w * np.exp(-w))


def test_ohmic_rejects_bad_parameters():
    with pytest.raises(InvalidArgumentError):
        OhmicSpectralDensity(coupling=-0.1)
    with pytest.raises(InvalidArgumentError):
        OhmicSpectralDensity(coupling=0.1, exponent=0.0)
    with pytest.raises(InvalidArgumentError):
        OhmicSpectralDensity(coupling=0.1, omega_c=-1.0)


def test_q1_ohmic_closed_form():
    # T-independent: Q1 = alpha arctan(w_c t), over nine decades of w_c t,
    # and the reported error covers the true one
    for t in np.geomspace(1e-3, 1e6, 37):
        res = q1_full(OHMIC, float(t))
        law = 0.1 * math.atan(t)
        assert abs(res.value - law) <= min(1e-8 * law, res.error)


def test_q2_ohmic_zero_t_closed_form():
    # Q2 = (alpha/2) ln(1 + w_c^2 t^2)
    state = BathState()
    for t in np.geomspace(1e-3, 1e6, 37):
        res = q2_full(OHMIC, state, float(t))
        law = 0.05 * math.log1p(t * t)
        assert abs(res.value - law) <= min(1e-8 * law, res.error)


def _q2_thermal_law(t, beta, alpha=0.1, omega_c=1.0, terms=100_000):
    """Linear ohmic q2 at finite temperature, independent of the quadrature.

    alpha [ln(1 + w_c^2 t^2) / 2 + ln(Gamma(b)^2 / |Gamma(b + i y)|^2)] with
    y = t / beta and b = 1 + 1 / (beta w_c); the Gamma ratio is the product
    over n >= 0 of 1 + y^2 / (b + n)^2, summed for n < terms and closed by
    its midpoint-rule integral from u = b + terms - 1/2 to infinity.
    """
    y = t / beta
    b = 1.0 + 1.0 / (beta * omega_c)
    head = float(np.log1p((y / (b + np.arange(terms))) ** 2).sum())
    u = b + terms - 0.5
    tail = 2.0 * y * (math.pi / 2.0 - math.atan(u / y)) - u * math.log1p((y / u) ** 2)
    return alpha * (0.5 * math.log1p((omega_c * t) ** 2) + head + tail)


def _ohmic_zero_t_law(s, t, alpha=0.1):
    """(q1, q2) at T = 0 and omega_c = 1 for exponent s != 1:
    alpha Gamma(s - 1) (Im, Re 1 -) of (1 - i t)^(1 - s)."""
    z = (1.0 - 1j * t) ** (1.0 - s)
    return alpha * math.gamma(s - 1.0) * z.imag, alpha * math.gamma(s - 1.0) * (1.0 - z).real


@pytest.mark.parametrize("beta", [1.0, 2.0])
def test_linear_ohmic_thermal_q2_up_to_a_million(beta):
    state = BathState(beta=beta)
    for t in np.geomspace(1e-3, 1e6, 19):
        law = _q2_thermal_law(float(t), beta)
        assert q2(OHMIC, state, float(t)) == pytest.approx(law, rel=1e-8)


def test_thermal_law_reference_is_converged():
    # the test-only reference itself: closing the sum earlier moves it by
    # far less than the 1e-8 the quadrature is held to
    for t in (3.0, 2e3, 1e6):
        assert _q2_thermal_law(t, 1.0, terms=20_000) == pytest.approx(
            _q2_thermal_law(t, 1.0), rel=1e-11)


# below s = 0.036 the ray's head cut is clamped at the smallest normal float
# and the analytic head carries most of the integral
@pytest.mark.parametrize("s", [1e-4, 0.01, 0.03, 0.5, 2.0, 3.0, 20.0])
@pytest.mark.parametrize("t", [10.0, 400.0, 1e5])
def test_other_exponents_within_reported_error(s, t):
    model = OhmicSpectralDensity(coupling=0.1, exponent=s, omega_c=1.0)
    law1, law2 = _ohmic_zero_t_law(s, t)
    r1 = q1_full(model, t)
    r2 = q2_full(model, BathState(), t)
    # for s > 1, q1 falls like t^(1-s), so only its absolute error is asked for
    assert abs(r1.value - law1) <= (r1.error if s > 1
                                    else min(r1.error, 1e-8 * abs(law1)))
    assert abs(r2.value - law2) <= min(r2.error, 1e-8 * law2)


@pytest.mark.parametrize("t,rtol", [
    (math.nan, 1e-8), (math.inf, 1e-8), (-math.inf, 1e-8),
    (1.0, 0.0), (1.0, -1e-8), (1.0, math.nan), (1.0, math.inf), (0.0, 0.0),
])
def test_non_finite_t_and_bad_rtol_rejected(t, rtol):
    with pytest.raises(InvalidArgumentError):
        q1_full(OHMIC, t, rtol)
    with pytest.raises(InvalidArgumentError):
        q2_full(OHMIC, BathState(beta=2.0), t, rtol)


@pytest.mark.parametrize("s,t,beta,kind,value", MPMATH_GOLD)
def test_frozen_goldens(s, t, beta, kind, value):
    model = OhmicSpectralDensity(coupling=0.1, exponent=s, omega_c=1.0)
    if kind == "q1":
        got = q1(model, t)
    else:
        state = BathState() if beta is None else BathState(beta=beta)
        got = q2(model, state, t)
    assert got == pytest.approx(value, rel=2e-8)


def test_q1_is_odd_q2_is_even():
    state = BathState(beta=2.0)
    assert q1(OHMIC, -3.0) == pytest.approx(-q1(OHMIC, 3.0), rel=1e-12)
    assert q2(OHMIC, state, -3.0) == pytest.approx(
        q2(OHMIC, state, 3.0), rel=1e-12)
    assert q1(OHMIC, 0.0) == 0.0
    assert q2(OHMIC, state, 0.0) == 0.0


def test_q2_grows_with_temperature():
    cold = q2(OHMIC, BathState(beta=5.0), 2.0)
    warm = q2(OHMIC, BathState(beta=1.0), 2.0)
    zero = q2(OHMIC, BathState(), 2.0)
    assert zero < cold < warm


def test_q2_nondecreasing_in_time_ohmic():
    state = BathState()
    vals = q2_grid(OHMIC, state, np.linspace(0.0, 10.0, 21))
    assert np.all(np.diff(vals) >= -1e-12)


def test_grid_matches_scalar_calls():
    t = np.array([0.3, 1.7, 6.0])
    g1 = q1_grid(OHMIC, t)
    g2 = q2_grid(OHMIC, BathState(beta=3.0), t)
    for k, tk in enumerate(t):
        assert g1[k] == pytest.approx(q1(OHMIC, float(tk)), rel=1e-12)
        assert g2[k] == pytest.approx(
            q2(OHMIC, BathState(beta=3.0), float(tk)), rel=1e-12)


def test_error_estimate_brackets_refinement():
    for t in (0.4, 3.0, 20.0):
        coarse = q1_full(OHMIC, t, rtol=1e-5)
        fine = q1_full(OHMIC, t, rtol=1e-10)
        assert abs(coarse.value - fine.value) <= max(coarse.error, 1e-14)
        assert fine.error < coarse.error + 1e-14


def test_q2_full_reports_error():
    res = q2_full(OHMIC, BathState(beta=2.0), 4.0, rtol=1e-9)
    assert res.error < 1e-6 * abs(res.value) + 1e-12


def test_zero_coupling_is_exactly_zero():
    dead = OhmicSpectralDensity(coupling=0.0)
    assert q1(dead, 5.0) == 0.0
    assert q2(dead, BathState(), 5.0) == 0.0


def test_tabulated_matches_ohmic_on_dense_grid():
    w = np.linspace(1e-4, 40.0, 6000)
    tab = TabulatedSpectralDensity(w, OHMIC.density(w))
    for t in (0.5, 2.0, 7.0):
        assert q1(tab, t) == pytest.approx(q1(OHMIC, t), rel=2e-3)
        assert q2(tab, BathState(), t) == pytest.approx(
            q2(OHMIC, BathState(), t), rel=2e-3)


def test_tabulated_rejects_nonintegrable_origin():
    w = np.array([0.0, 1.0, 2.0])
    with pytest.raises(IntegrabilityError):
        TabulatedSpectralDensity(w, np.array([0.5, 1.0, 0.5]))
    # an identically-zero first segment is integrable
    TabulatedSpectralDensity(w, np.array([0.0, 0.0, 0.5]))


def test_tabulated_rejects_malformed():
    with pytest.raises(InvalidArgumentError):
        TabulatedSpectralDensity(np.array([1.0, 1.0]), np.array([0.1, 0.1]))
    with pytest.raises(InvalidArgumentError):
        TabulatedSpectralDensity(np.array([1.0, 2.0]), np.array([-0.1, 0.1]))


def test_bath_state_constructors():
    assert BathState().zero_temperature
    assert not BathState(beta=2.0).zero_temperature
    with pytest.raises(InvalidArgumentError):
        BathState(beta=-1.0)


def test_phase_shift_and_damping_composition():
    t = 2.0
    q1c = q1(OHMIC, t)
    q2c = q2(OHMIC, BathState(), t)
    assert phase_shift(2.0, 0.0, OHMIC, t) == pytest.approx(4.0 * q1c)
    assert damping(2.0, 0.0, OHMIC, BathState(), t) == pytest.approx(4.0 * q2c)
    r = r_factor(2.0, 0.0, OHMIC, BathState(), t)
    assert abs(r) == pytest.approx(math.exp(-4.0 * q2c), rel=1e-10)
    assert np.angle(r) == pytest.approx(
        math.atan2(math.sin(-4.0 * q1c), math.cos(-4.0 * q1c)), rel=1e-8)


def test_r_factor_degenerate_pair_is_unity():
    assert r_factor(1.3, 1.3, OHMIC, BathState(beta=1.0), 9.0) == 1.0


def test_mirrored_pair_keeps_modulus_but_gains_phase():
    # E' = -E: damping sees (E'-E)^2 > 0, the quadratic phase cancels
    r = r_factor(1.0, -1.0, OHMIC, BathState(), 2.0)
    assert abs(r) == pytest.approx(math.exp(-4.0 * q2(OHMIC, BathState(), 2.0)))
    assert phase_shift(1.0, -1.0, OHMIC, 2.0) == 0.0
