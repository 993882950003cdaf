"""Reservoir integrals against closed forms and frozen high-precision values.

The frozen numbers were produced once with mpmath at 30 digits (adaptive
tanh-sinh quadrature over [0, w_c], [w_c, 10 w_c], [10 w_c, inf)); the
superohmic exponent-3 rows double as closed forms, Q1 = 0.2 t/(1+t^2)^2 and
Q2 = 0.1 (1 - (1-t^2)/(1+t^2)^2), which mpmath reproduced to all printed
digits.  The package evaluates the ohmic Q1 and Q2 in closed form, the
thermal Q2 as a sum of T = 0 closed forms over its images, so the
independent references for them are the frozen mpmath values (MPMATH_GOLD,
ZERO_T_GOLD, THERMAL_GOLD, LOG_GAMMA_GOLD) and a Gamma-product law.
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from cqdeph import bath
from cqdeph.bath import (
    DEFAULT_RTOL,
    EXPONENT_MAX,
    BathState,
    OhmicSpectralDensity,
    TabulatedSpectralDensity,
    q1_grid,
    q2_grid,
    q_grids,
    r_factor,
)
from cqdeph.errors import IntegrabilityError, InvalidArgumentError, NumericsError

OHMIC = OhmicSpectralDensity(coupling=0.1, exponent=1.0, omega_c=1.0)


def _q1(model, t, rtol=DEFAULT_RTOL):
    """q1 at the one time t, from a grid of that time."""
    return float(q1_grid(model, [t], rtol)[0])


def _q2(model, state, t, rtol=DEFAULT_RTOL):
    """q2 at the one time t, from a grid of that time."""
    return float(q2_grid(model, state, [t], rtol)[0])


def _at(model, state, t, rtol=DEFAULT_RTOL):
    """((q1, q2), (their error estimates)) at the one time t, from q_grids."""
    values, errors = q_grids(model, state, [t], rtol)
    return tuple(values[:, 0].tolist()), tuple(errors[:, 0].tolist())

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

# (exponent, t, beta, q2) of ohmic baths at a finite temperature, from
# tools/thermal_gold.py: mpmath along the real axis with the head below w0 in
# closed form; the variants w0 = 1e-12, 1e-16, 1e-20 at 30 and 40 digits
# agreed to 2e-23 relative (the script requires 1e-15)
THERMAL_GOLD = [
    (0.03, 0.5, 2.0, 0.41268154800565032),
    (0.03, 1.52, 2.0, 3.7890599915000477),
    (0.03, 10.0, 2.0, 158.7132032841462),
    (0.5, 0.5, 2.0, 0.025524100281413654),
    (0.5, 1.52, 2.0, 0.20381309356240301),
    (0.5, 10.0, 2.0, 4.7512514893096008),
    (3.0, 0.5, 2.0, 0.054114541092598458),
    (3.0, 1.52, 2.0, 0.12659504925258494),
    (3.0, 10.0, 2.0, 0.14576961693829871),
    (20.0, 0.5, 2.0, 702992932274408.17),
    (20.0, 1.52, 2.0, 640230015169681.28),
    (20.0, 10.0, 2.0, 640237371674576.99),
]

# (t, beta, q2) of the linear bath (s = 1, alpha = 0.1, omega_c = 1) at a
# finite temperature, from tools/thermal_gold.py: the Gamma-function product
# alpha [log1p(t^2) / 2 + 2 ln Gamma(b) - 2 Re ln Gamma(b + i t / beta)],
# b = 1 + 1 / beta, at 40 and 60 digits, which agreed to 1e-35 relative
LOG_GAMMA_GOLD = [
    (0.001, 0.01, 1.0000164996500914e-5),
    (0.5, 0.01, 2.4050739097148746),
    (10.0, 0.01, 248.07449470828028),
    (1000.0, 0.01, 31257.771593650903),
    (1000000.0, 0.01, 31415630.22585344),
    (1000000000.0, 0.01, 31415926101.432783),
    (0.001, 1.0, 1.1449337756867821e-7),
    (0.5, 1.0, 0.027031922271645387),
    (10.0, 1.0, 2.4967904118073913),
    (1000.0, 1.0, 312.593926546542),
    (1000000.0, 1.0, 314156.31846916111),
    (1000000000.0, 1.0, 314159261.03053847),
    (0.001, 100.0, 5.0016187135299283e-8),
    (0.5, 100.0, 0.011161230566974157),
    (10.0, 100.0, 0.2323720618852888),
    (1000.0, 100.0, 3.4125770650994503),
    (1000000.0, 100.0, 3141.8498241594165),
    (1000000000.0, 100.0, 3141592.8969448525),
]

# (exponent, omega_c t, q1, q2) of ohmic baths at T = 0, from
# tools/zero_t_gold.py: mpmath along the ray w = r e^{i pi/4} with the head
# below r0 from its series, at r0 = 1e-12, 1e-16, 1e-20 and at 40 and 60
# digits beyond those that cancel, and the Gamma-function form; the seven
# agreed to 1e-30 relative or better (the script requires 1e-15)
ZERO_T_GOLD = [
    (0.0001, 10.0, 9997.9683406712044, 1.2401004590786013),
    (0.0001, 400.0, 399777.15830367996, 62.097925257091674),
    (0.0001, 100000.0, 99889159.993361586, 15689.302133903773),
    (0.01, 10.0, 97.990847302601663, 1.2136258931402384),
    (0.01, 400.0, 3783.2276396163915, 58.754156379920168),
    (0.01, 100000.0, 895034.72964084853, 14059.148427896007),
    (0.03, 10.0, 31.368468428827307, 1.1623198833920019),
    (0.03, 400.0, 1128.1571630069035, 52.5648231540154),
    (0.03, 100000.0, 239012.62644498432, 11270.493018611905),
    (0.5, 10.0, 0.75406926428829811, 0.47874638782847984),
    (0.5, 400.0, 5.0069939000701983, 4.6650362614707603),
    (0.5, 100000.0, 79.266149620381301, 78.912451515659711),
    (1.0, 10.0, 0.14711276743037347, 0.23075602584206298),
    (1.0, 400.0, 0.15682963320032105, 0.59914676720982163),
    (1.0, 100000.0, 0.1570786326794897, 1.151292546502023),
    (2.0, 10.0, 0.0099009900990099015, 0.099009900990099015),
    (2.0, 400.0, 0.00024999843750976558, 0.099999375003906238),
    (2.0, 100000.0, 9.9999999990000006e-7, 0.099999999990000005),
    (3.0, 10.0, 0.00019605920988138419, 0.10097049308891286),
    (3.0, 400.0, 3.1249609378662081e-9, 0.10000062498828138),
    (3.0, 100000.0, 1.9999999996000001e-16, 0.10000000001000001),
    (20.0, 10.0, 1.8483881484242774e-5, 640237370572800.0),
    (20.0, 400.0, -2.3264047617596033e-35, 640237370572800.0),
    (20.0, 100000.0, -6.4023735840829004e-81, 640237370572800.0),
    (20.0, 2.0, 119696731.09166977, 640237455210035.75),
    (3.0, 560000.0, 1.1388483964941947e-18, 0.10000000000031889),
    (1.0, 0.001, 9.9999966666686674e-5, 4.9999975000016669e-8),
    (1.0, 0.5, 0.046364760900080614, 0.011157177565710488),
    (1.0, 1000000.0, 0.15707953267948967, 1.3815510557964774),
]
_ZERO_T = {(s, t): (q1, q2) for s, t, q1, q2 in ZERO_T_GOLD}


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
    # Gamma(s) of the closed forms overflows from s = 171.6
    OhmicSpectralDensity(coupling=0.1, exponent=EXPONENT_MAX)
    for s in (np.nextafter(EXPONENT_MAX, math.inf), 300.0):
        with pytest.raises(InvalidArgumentError, match="exponent must be > 0 and <= 100"):
            OhmicSpectralDensity(coupling=0.1, exponent=s)


@pytest.mark.parametrize("field, value", [
    ("coupling", math.nan), ("coupling", math.inf), ("exponent", math.nan),
    ("exponent", math.inf), ("omega_c", math.nan), ("omega_c", math.inf),
])
def test_ohmic_rejects_non_finite(field, value):
    kwargs = {"coupling": 0.1, field: value}
    with pytest.raises(InvalidArgumentError, match=f"{field} must be finite"):
        OhmicSpectralDensity(**kwargs)


# (omega_c t, q1, q2) of the linear ohmic bath at T = 0, from 1e-3 to 1e6
_LINEAR = sorted((t, q1, q2) for s, t, q1, q2 in ZERO_T_GOLD if s == 1.0)


def test_q1_ohmic_closed_form():
    # T-independent: Q1 = alpha arctan(w_c t), held to mpmath over nine
    # decades of w_c t, and the reported error covers the distance
    for t, law, _ in _LINEAR:
        (value, _), (error, _) = _at(OHMIC, BathState(), t)
        assert abs(value - law) <= min(1e-8 * law, error)


def test_q2_ohmic_zero_t_closed_form():
    # Q2 = (alpha/2) ln(1 + w_c^2 t^2), held to mpmath
    state = BathState()
    for t, _, law in _LINEAR:
        (_, value), (_, error) = _at(OHMIC, state, t)
        assert abs(value - law) <= min(1e-8 * law, error)


def test_grid_errors_cover_the_ohmic_closed_forms():
    # T = 0: the error rows of one q_grids call bound the distance of each
    # time's values to the mpmath values of both integrals
    t, q1, q2 = np.array(_LINEAR).T
    (v1, v2), (e1, e2) = q_grids(OHMIC, BathState(), t)
    assert np.all(np.abs(v1 - q1) <= np.minimum(1e-8 * q1, e1))
    assert np.all(np.abs(v2 - q2) <= np.minimum(1e-8 * q2, e2))


def _q2_thermal_law(t, beta, alpha=0.1, omega_c=1.0, terms=100_000):
    """Linear ohmic q2 at finite temperature, independent of the image sum.

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


@pytest.mark.parametrize("beta", [1.0, 2.0])
def test_linear_ohmic_thermal_q2_up_to_a_million(beta):
    state = BathState(beta=beta)
    for t in np.geomspace(1e-3, 1e6, 19):
        law = _q2_thermal_law(float(t), beta)
        assert _q2(OHMIC, state, float(t)) == pytest.approx(law, rel=1e-8)


def test_thermal_law_reference_is_converged():
    # the test-only reference itself: closing the sum earlier moves it by
    # far less than the 1e-8 the image sum is held to
    for t in (3.0, 2e3, 1e6):
        assert _q2_thermal_law(t, 1.0, terms=20_000) == pytest.approx(
            _q2_thermal_law(t, 1.0), rel=1e-11)


@pytest.mark.parametrize("s", [1e-4, 0.01, 0.03, 0.5, 2.0, 3.0, 20.0])
@pytest.mark.parametrize("t", [10.0, 400.0, 1e5])
def test_other_exponents_within_reported_error(s, t):
    model = OhmicSpectralDensity(coupling=0.1, exponent=s, omega_c=1.0)
    law1, law2 = _ZERO_T[(s, t)]
    (v1, v2), (e1, e2) = _at(model, BathState(), t)
    # for s > 1, q1 falls like t^(1-s), so only its absolute error is asked for
    assert abs(v1 - law1) <= (e1 if s > 1 else min(e1, 1e-8 * abs(law1)))
    assert abs(v2 - law2) <= min(e2, 1e-8 * law2)


@pytest.mark.parametrize("s,t,q1,q2", ZERO_T_GOLD)
def test_zero_t_gold(s, t, q1, q2):
    """The closed forms meet mpmath to 1e-8 relative, and their error rows
    cover the distance; the ray quadrature they replace missed q1 at s = 20
    (omega_c t = 2, 10, 400) by ~200 absolute and at s = 3 (5.6e5) by 5.6x."""
    model = OhmicSpectralDensity(coupling=0.1, exponent=s, omega_c=1.0)
    (v1, v2), (e1, e2) = _at(model, BathState(), t)
    assert abs(v1 - q1) <= min(e1, 1e-8 * abs(q1))
    assert abs(v2 - q2) <= min(e2, 1e-8 * q2)


# zeta(s + 1) at the exponents of the large-beta check, from mpmath
_ZETA = {0.5: 2.612375348685488, 1.0: math.pi ** 2 / 6.0, 3.0: math.pi ** 4 / 90.0,
         20.0: 1.0000004769329869}


@pytest.mark.parametrize("s", [0.5, 1.0, 3.0, 20.0])
def test_thermal_ray_at_large_beta_meets_the_zero_t_form(s):
    """At beta omega_c = 1e8 and omega_c t <= 50 the thermal q2 exceeds the
    T = 0 one by alpha t^2 Gamma(s + 1) zeta(s + 1) / beta^(s + 1), up to
    relative corrections of order 1 / (beta omega_c), since
    coth(beta w / 2) - 1 = 2 / (e^(beta w) - 1) lives at w ~ 1 / beta, where
    sin^2(w t / 2) = (w t / 2)^2.  The thermal q2 is the T = 0 closed form
    plus its images, so the two share that closed form; what this holds is
    the sum of the images, almost all of it the Euler-Maclaurin tail, to
    that excess, within the reported error."""
    model = OhmicSpectralDensity(coupling=0.1, exponent=s, omega_c=1.0)
    t = np.geomspace(0.02, 50.0, 12)
    cold = q2_grid(model, BathState(), t)
    (_, warm), (_, error) = q_grids(model, BathState(beta=1e8), t)
    excess = 0.1 * t * t * math.gamma(s + 1.0) * _ZETA[s] / 1e8 ** (s + 1.0)
    assert np.all(np.abs(warm - excess - cold) <= np.minimum(error, 1e-11 * cold))


@pytest.mark.parametrize("beta", [2.0, math.inf])
@pytest.mark.parametrize("t", [1e-170, 1e185])
def test_extreme_times_give_finite_values(t, beta):
    """No accepted time gives NaN, and no numpy warning leaks: q_grids is
    finite at t = 1e-170 and 1e185, except that the thermal q2 at an
    exponent below 1, which grows like t^(2-s) / beta, leaves the floats at
    t = 1e185 and raises NumericsError naming the time."""
    for s in (1e-4, 1.0, 3.0):
        model = OhmicSpectralDensity(coupling=0.1, exponent=s)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if t > 1.0 and s < 1.0 and beta < math.inf:
                with pytest.raises(NumericsError,
                                   match=r"at t = 1e\+185 is not finite: it leaves the floats"):
                    q_grids(model, BathState(beta=beta), [t, -t])
                continue
            values, errors = q_grids(model, BathState(beta=beta), [t, -t])
        assert np.isfinite(values).all() and np.isfinite(errors).all()
        assert values[0, 0] == -values[0, 1] and values[1, 0] == values[1, 1]


def test_sub_ohmic_thermal_q2_is_finite_at_1e130():
    """At exponent 1e-4 and beta = 2 the thermal q2 at t = 1e130 is within
    the floats, where the ray quadrature this replaces raised NumericsError
    from about t = 1e114, and it grows like t^(2-s) there."""
    model = OhmicSpectralDensity(coupling=0.1, exponent=1e-4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (_, (late, early)), (_, (error, _)) = q_grids(model, BathState(beta=2.0),
                                                      [1e130, 1e129])
    assert math.isfinite(late) and 0.0 <= error <= 1e-10 * late
    assert late / early == pytest.approx(10.0 ** (2.0 - 1e-4), rel=1e-6)


@pytest.mark.parametrize("s0", [1.0, 2.0])
@pytest.mark.parametrize("beta", [1e-3, 2.0])
def test_thermal_q2_is_continuous_through_its_limit_exponents(s0, beta):
    """The image sum takes limits at s = 1 (its terms and its tail
    integral) and s = 2 (the tail integral).  At s0 +- 1e-9, where it takes
    the general forms, it moves from its value at s0 by the slope over
    1e-9, up to the reported errors."""
    t = np.geomspace(1e-3, 1e5, 17)

    def at(s):
        (_, value), (_, error) = q_grids(OhmicSpectralDensity(0.1, s), BathState(beta), t)
        return value, error

    mid, mid_err = at(s0)
    slope = (at(s0 + 1e-6)[0] - at(s0 - 1e-6)[0]) / 2e-6
    for step in (-1e-9, 1e-9):
        value, error = at(s0 + step)
        assert np.all(np.abs(value - mid - step * slope) <= error + mid_err + 1e-15 * mid)


def test_underflowing_beta_omega_c_is_a_numerics_error():
    # beta omega_c = 1e-400 is 0 in floats: no image sum exists there
    model = OhmicSpectralDensity(coupling=0.1, omega_c=1e-200)
    with pytest.raises(NumericsError, match="underflows to 0"):
        q_grids(model, BathState(beta=1e-200), [1.0])


@pytest.mark.parametrize("t,rtol", [
    (math.nan, 1e-8), (math.inf, 1e-8), (-math.inf, 1e-8),
    (1.0, 0.0), (1.0, -1e-8), (1.0, math.nan), (1.0, math.inf), (0.0, 0.0),
])
def test_non_finite_t_and_bad_rtol_rejected(t, rtol):
    with pytest.raises(InvalidArgumentError):
        _q1(OHMIC, t, rtol)
    with pytest.raises(InvalidArgumentError):
        _at(OHMIC, BathState(beta=2.0), t, rtol)


@pytest.mark.parametrize("s,t,beta,kind,value", MPMATH_GOLD)
def test_frozen_goldens(s, t, beta, kind, value):
    model = OhmicSpectralDensity(coupling=0.1, exponent=s, omega_c=1.0)
    if kind == "q1":
        got = _q1(model, t)
    else:
        state = BathState() if beta is None else BathState(beta=beta)
        got = _q2(model, state, t)
    assert got == pytest.approx(value, rel=2e-8)


def _meets_gold(s, t, beta, value):
    model = OhmicSpectralDensity(coupling=0.1, exponent=s, omega_c=1.0)
    (_, got), (_, error) = _at(model, BathState(beta=beta), t)
    assert abs(got - value) <= min(1e-14 * value, error)


@pytest.mark.parametrize("s,t,beta,value", [r for r in THERMAL_GOLD if r[0] < 1.0])
def test_thermal_sub_ohmic_gold(s, t, beta, value):
    _meets_gold(s, t, beta, value)


@pytest.mark.parametrize("s,t,beta,value", [r for r in THERMAL_GOLD if r[0] > 1.0])
def test_thermal_super_ohmic_gold(s, t, beta, value):
    _meets_gold(s, t, beta, value)


@pytest.mark.parametrize("t,beta,value", LOG_GAMMA_GOLD)
def test_linear_thermal_log_gamma_gold(t, beta, value):
    """The linear bath's thermal q2 against the Gamma-function product, over
    twelve decades of t and four of beta."""
    _meets_gold(1.0, t, beta, value)


def test_thermal_rtol_1e_11_meets_rtol():
    """At s = 0.5 and beta = 2 every time of a log grid reports an error
    below rtol 1e-11 |q2|, and the gold values are met within the reported
    error; the tolerance moves no ohmic value."""
    model = OhmicSpectralDensity(coupling=0.1, exponent=0.5, omega_c=1.0)
    t = np.geomspace(1e-2, 1e3, 24)
    (_, values), (_, errors) = q_grids(model, BathState(beta=2.0), t, 1e-11)
    assert np.all(errors <= 1e-11 * np.abs(values))
    assert np.array_equal(values, q2_grid(model, BathState(beta=2.0), t, 1e-4))
    for s, tg, beta, value in THERMAL_GOLD:
        if s == 0.5:
            (_, got), (_, error) = _at(model, BathState(beta=beta), tg, 1e-11)
            assert abs(got - value) <= error


# a 60-point table of the linear density on [0.05, 10]
_TABLE_W = np.linspace(0.05, 10.0, 60)
TABLE = TabulatedSpectralDensity(_TABLE_W, OHMIC.density(_TABLE_W))


def test_thermal_q2_that_misses_its_tolerance_warns_once():
    """On a 60-point table the tabulated thermal q2 at t = 2500 and rtol
    1e-14 reports an error of 12 x rtol |q2|: one warning names the worst
    time and ratio.  The ohmic closed forms take no tolerance, and a grid
    that meets it is quiet."""
    t = np.array([5.0, 2500.0])
    with pytest.warns(UserWarning) as caught:
        q2_grid(TABLE, BathState(beta=2.0), t, 1e-14)
    assert len(caught) == 1
    assert str(caught[0].message).startswith(
        "tabulated q2 misses its tolerance: the reported error is 12.1 x "
        "rtol |q2| at t = 2500 (rtol = 1e-14), the worst time of 2")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        q_grids(TABLE, BathState(beta=2.0), [5.0], 1e-6)
        q_grids(OhmicSpectralDensity(0.1, 100.0, 1e-3), BathState(beta=2.0),
                np.geomspace(1e-3, 1e6, 40), 1e-15)


def test_tabulated_q1_that_misses_its_tolerance_warns():
    """Kind 1 warns the same way: 34 x rtol |q1| at t = 1000, rtol 1e-12."""
    with pytest.warns(UserWarning, match=r"tabulated q1 misses its tolerance: "
                      r"the reported error is 34.4 x rtol \|q1\| at t = 1000 "):
        q1_grid(TABLE, [1000.0], 1e-12)


def test_q1_is_odd_q2_is_even():
    state = BathState(beta=2.0)
    assert _q1(OHMIC, -3.0) == pytest.approx(-_q1(OHMIC, 3.0), rel=1e-12)
    assert _q2(OHMIC, state, -3.0) == pytest.approx(
        _q2(OHMIC, state, 3.0), rel=1e-12)
    assert _q1(OHMIC, 0.0) == 0.0
    assert _q2(OHMIC, state, 0.0) == 0.0


def test_q2_grows_with_temperature():
    cold = _q2(OHMIC, BathState(beta=5.0), 2.0)
    warm = _q2(OHMIC, BathState(beta=1.0), 2.0)
    zero = _q2(OHMIC, BathState(), 2.0)
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
        assert g1[k] == pytest.approx(_q1(OHMIC, float(tk)), rel=1e-12)
        assert g2[k] == pytest.approx(
            _q2(OHMIC, BathState(beta=3.0), float(tk)), rel=1e-12)


@pytest.mark.parametrize("rtol", [1e-8, 1e-11])
@pytest.mark.parametrize("beta", [2.0, math.inf])
@pytest.mark.parametrize("s", [0.03, 0.5, 1.0, 3.0, 20.0])
def test_grid_kernel_matches_scalar_rule(s, beta, rtol, monkeypatch):
    """One grid call gives each time what a call for that time alone gives,
    on negative times, t = 0, a tiny time and linear and log grids over
    [1e-2, 1e6], where the blocks of the image sum differ from those of a
    single time; q_grids gives what the grids of one integral give, the
    thermal q2 is the T = 0 closed form plus its images, and rtol moves no
    value.  q1 and q2 at T = 0 never reach the image sum."""
    model = OhmicSpectralDensity(coupling=0.1, exponent=s)
    state = BathState(beta=beta)
    t = np.concatenate([[-5.0, -0.3, 0.0, 1e-4], np.linspace(1e-2, 1e6, 9),
                        np.geomspace(1e-2, 1e6, 13)])
    monkeypatch.setattr(bath, "_BLOCK", 4 * bath._direct_images(s))
    g1 = q1_grid(model, t, rtol)
    g2 = q2_grid(model, state, t, rtol)
    (j1, j2), (_, e2) = q_grids(model, state, t, rtol)
    np.testing.assert_allclose(j1, g1, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(j2, g2, rtol=1e-12, atol=0.0)
    assert np.array_equal(j2, q2_grid(model, state, t, 1e-4))
    on = np.abs(t[t != 0.0])
    cold, cold_err = bath._ohmic_closed_forms(model, on)[:, 1]
    if beta < math.inf:
        images, images_err = bath._thermal_images(model, beta, on)
        assert np.array_equal(j2[t != 0.0], cold + images)
        assert np.array_equal(e2[t != 0.0], cold_err + images_err)
    else:
        assert np.array_equal(j2[t != 0.0], cold)
    for k, tk in enumerate(t):
        assert g1[k] == pytest.approx(_q1(model, tk, rtol), rel=1e-12, abs=0.0)
        assert g2[k] == pytest.approx(_q2(model, state, tk, rtol), rel=1e-12, abs=0.0)


def test_grid_memory_is_bounded():
    """The image sum works through the times in blocks, so 2000 times cost
    no more memory than a few dozen, for one integral or both, and at the
    largest exponent, whose sum takes 200 images term by term."""
    state = BathState(beta=2.0)
    t = np.linspace(0.01, 400.0, 2000)
    steep = OhmicSpectralDensity(coupling=0.1, exponent=EXPONENT_MAX)
    for grid in (lambda tg: q2_grid(OHMIC, state, tg),
                 lambda tg: q_grids(OHMIC, state, tg),
                 lambda tg: q_grids(steep, state, tg)):
        grid(t[:20])
        tracemalloc.start()
        try:
            grid(t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6


def test_joint_grid_of_tabulated_density_is_its_single_kinds():
    w = np.linspace(0.05, 5.0, 60)
    model = TabulatedSpectralDensity(w, OHMIC.density(w))
    state = BathState(beta=2.0)
    t = np.array([-1.5, 0.0, 0.7, 3.0])
    (j1, j2), _ = q_grids(model, state, t)
    assert np.array_equal(j1, q1_grid(model, t))
    assert np.array_equal(j2, q2_grid(model, state, t))
    assert j1[0] == -_q1(model, 1.5)


@pytest.mark.parametrize("t,rtol", [
    ([0.5, math.nan, 2.0], 1e-8), ([0.5, math.inf], 1e-8),
    ([-math.inf, 0.0], 1e-8), ([0.5, 2.0], 0.0), ([0.5, 2.0], -1e-8),
    ([0.5, 2.0], math.nan), ([0.5, 2.0], math.inf), ([[0.5, 2.0]], 1e-8),
])
def test_grid_rejects_non_finite_times_and_bad_rtol(t, rtol):
    with pytest.raises(InvalidArgumentError):
        q1_grid(OHMIC, np.array(t), rtol)
    with pytest.raises(InvalidArgumentError):
        q2_grid(OHMIC, BathState(beta=2.0), np.array(t), rtol)


def test_error_estimate_brackets_refinement():
    # q1 and q2 at T = 0
    for t in (0.4, 3.0, 20.0):
        coarse, coarse_err = _at(OHMIC, BathState(), t, 1e-5)
        fine, fine_err = _at(OHMIC, BathState(), t, 1e-10)
        for k in range(2):
            assert abs(coarse[k] - fine[k]) <= max(coarse_err[k], 1e-14)
            assert fine_err[k] < coarse_err[k] + 1e-14


def test_q_grids_reports_error():
    (_, value), (_, error) = _at(OHMIC, BathState(beta=2.0), 4.0, 1e-9)
    assert error < 1e-6 * abs(value) + 1e-12


def test_zero_coupling_is_exactly_zero():
    dead = OhmicSpectralDensity(coupling=0.0)
    assert _at(dead, BathState(), 5.0) == ((0.0, 0.0), (0.0, 0.0))


def test_tabulated_matches_ohmic_on_dense_grid():
    w = np.linspace(1e-4, 40.0, 6000)
    tab = TabulatedSpectralDensity(w, OHMIC.density(w))
    for t in (0.5, 2.0, 7.0):
        assert _q1(tab, t) == pytest.approx(_q1(OHMIC, t), rel=2e-3)
        assert _q2(tab, BathState(), t) == pytest.approx(
            _q2(OHMIC, BathState(), t), rel=2e-3)


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


def test_r_factor_composition():
    t = 2.0
    (q1c, q2c), _ = _at(OHMIC, BathState(), t)
    r = r_factor(2.0, 0.0, OHMIC, BathState(), t)
    assert abs(r) == pytest.approx(math.exp(-4.0 * q2c), rel=1e-10)
    assert np.angle(r) == pytest.approx(
        math.atan2(math.sin(-4.0 * q1c), math.cos(-4.0 * q1c)), rel=1e-8)


def test_r_factor_degenerate_pair_is_unity():
    assert r_factor(1.3, 1.3, OHMIC, BathState(beta=1.0), 9.0) == 1.0


def test_r_factor_broadcasts_with_one_pass(monkeypatch):
    state = BathState(beta=3.0)
    e1 = np.array([-1.7, 0.0, 0.4, 1.3, 2.0])
    e2 = np.array([0.9, -0.3, 1.3])
    calls = []
    images = bath._thermal_images
    monkeypatch.setattr(bath, "_thermal_images",
                        lambda *args: calls.append(args) or images(*args))
    r = r_factor(e1[:, None], e2[None, :], OHMIC, state, 2.0)
    assert len(calls) == 1 and r.shape == (5, 3)
    for j, a in enumerate(e1.tolist()):
        for k, b in enumerate(e2.tolist()):
            one = r_factor(a, b, OHMIC, state, 2.0)
            assert type(one) is complex
            assert one == r[j, k]
    assert r[3, 2] == 1.0  # the degenerate pair (1.3, 1.3)


def test_mirrored_pair_keeps_modulus_but_gains_phase():
    # E' = -E: damping sees (E'-E)^2 > 0, the quadratic phase cancels
    r = r_factor(1.0, -1.0, OHMIC, BathState(), 2.0)
    assert abs(r) == pytest.approx(math.exp(-4.0 * _q2(OHMIC, BathState(), 2.0)))
    assert r.imag == 0.0
