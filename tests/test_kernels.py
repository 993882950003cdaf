"""Quadrature and multiplier kernels."""

import math

import numpy as np
import pytest

from cqdeph import kernels
from cqdeph.errors import InvalidArgumentError, NumericsError


def test_active_backend_consistent():
    assert kernels.active_backend() == "numpy"


def _head_cut(t, omega_c, s, rtol, beta=0.0):
    """Where the head remainder bound meets 1e-3 rtol: the cut rule of
    kernels.initial_panels, with p = s."""
    c = t + 1.0 / omega_c + beta
    return (math.log(1e-3 * rtol) + s * math.log(min(1.0 / t, omega_c))
            - math.log(2.0 * c)) / (s + 1.0)


def test_initial_panels_structure():
    a, b = kernels.initial_panels(3.0, 1.0, 1.0, 1e-8, 2.0)
    assert a.shape == b.shape
    widths = b - a
    width = float(widths[0])
    assert np.allclose(widths, width)
    assert np.all(a[1:] == b[:-1])
    # the head cut sits where the remainder bound of the closed-form head
    # is 1e-3 rtol of the integrand at the scale min(1/t, omega_c) = 1/3,
    # and the first panel is the last one that fits above it; beta enters
    # the bound, and a larger beta moves the cut down
    for beta in (0.5, 2.0):
        cut = _head_cut(3.0, 1.0, 1.0, 1e-8, beta)
        first = kernels.initial_panels(3.0, 1.0, 1.0, 1e-8, beta)[0][0]
        assert cut <= first < cut + width
    assert a.size >= kernels.initial_panels(3.0, 1.0, 1.0, 1e-8, 0.5)[0].size
    # the panels are laid down from the tail, so a tighter rtol only adds
    # panels at the head
    fine = kernels.initial_panels(3.0, 1.0, 1.0, 1e-12, 2.0)[0]
    assert fine.size > a.size
    assert np.array_equal(fine[-a.size:], a)
    # the ray ends where exp(-Re w / omega_c) = exp(-42) has closed it
    assert b[-1] >= math.log(42.0 / math.cos(math.pi / 4.0))
    # the count grows like ln(omega_c t), not like t
    n1 = kernels.initial_panels(1.0, 1.0, 1.0, 1e-8, 2.0)[0].size
    n6 = kernels.initial_panels(1e6, 1.0, 1.0, 1e-8, 2.0)[0].size
    assert n6 <= n1 + math.ceil(math.log(1e6) / width)
    # a tiny exponent costs at most twice the panels of s = 1
    for t in (1.0, 1e6):
        for beta in (0.5, 2.0):
            tiny = kernels.initial_panels(t, 1.0, 1e-4, 1e-8, beta)[0].size
            assert tiny <= 2 * kernels.initial_panels(t, 1.0, 1.0, 1e-8, beta)[0].size
    with pytest.raises(NumericsError):
        kernels.initial_panels(0.0, 1.0, 1.0, 1e-8, 2.0)


@pytest.mark.parametrize("s,rtol", [(1e-4, 1e-8), (0.5, 1e-11), (1.0, 1e-8),
                                    (3.0, 1e-6)])
def test_initial_panels_of_every_time_are_the_top_panels_of_the_latest(s, rtol):
    # quad_ohmic_grid evaluates the nodes of the largest time once and
    # gives every earlier time the top panels of that set
    times = np.geomspace(1e-3, 1e6, 40)
    a_max, b_max = kernels.initial_panels(float(times[-1]), 2.0, s, rtol, 1.0)
    for t in times:
        a, b = kernels.initial_panels(float(t), 2.0, s, rtol, 1.0)
        assert 0 < a.size <= a_max.size
        assert np.array_equal(a, a_max[a_max.size - a.size:])
        assert np.array_equal(b, b_max[b_max.size - b.size:])


@pytest.mark.parametrize("beta", [1e8, 2.0])
@pytest.mark.parametrize("s", [1e-4, 0.5, 1.0, 3.0, 20.0])
def test_head_and_tail_series_match_the_direct_integrand(s, beta):
    """Panel by panel, the head and tail moments give the GK15 value and
    error estimate of the direct integrand, here evaluated in long double,
    to a few eps of the panel's mass sum_j W_j |f_j|, at a temperature
    where coth(beta w / 2) is 1 on most of the ray (beta = 1e8) and at
    one where it is not.  Head panels below u = 1e-2 are left out: there
    the direct h - expm1(i w t) cancels even in long double, and the series
    is the accurate form."""
    ld = np.longdouble
    if np.finfo(ld).eps > 1e-18:
        pytest.skip("the reference needs an extended-precision long double")
    a, _ = kernels.initial_panels(1e6, 1.0, s, 1e-11, beta)
    half, re, im = kernels._ray_factors(s, 0.1, 1.0, beta, a[:, None], kernels._D16)
    checked = 0
    for t in (0.5, 30.0, 400.0):
        u = 2.0 * t * half
        hu = ld(t) * half.astype(ld)
        regions = ((u[:, 14] <= kernels._U_LO) & (u[:, 14] >= 1e-2),
                   u[:, 15] >= kernels._U_HI)
        fv = kernels._ray_kernel(hu, *kernels._expm1_iwt(hu), re.astype(ld), im.astype(ld))
        direct = fv @ kernels._W_RAY[:, :2].astype(ld)
        mass = np.abs(fv) @ kernels._W_RAY[:, 0].astype(ld)
        moments = (kernels._MOMENTS
                   @ np.concatenate([re, im, np.hypot(re, im)], axis=1).T
                   ).reshape(kernels._N.size, 4, -1)
        powers = u[:, 15] ** kernels._N[:, None]
        for sel, n in zip(regions, (slice(0, kernels._N_HEAD),
                                    slice(kernels._N_HEAD, None))):
            series = np.einsum("np,ncp->pc", powers[n][:, sel], moments[n][:, :2, sel])
            assert np.all(np.abs(series - direct[sel]) <= 1e-15 * mass[sel, None])
            # the truncation bound is far below the panel's mass
            bound = np.einsum("np,np->p", powers[n][:, sel], moments[n][:, 3, sel])
            assert np.all((0.0 <= bound) & (bound <= 1e-15 * mass[sel]))
            checked += np.count_nonzero(sel)
    assert checked > 0


def test_grid_evaluates_only_the_live_bands(monkeypatch):
    """A grid evaluates the integrand node by node on at most _LIVE panels
    per time, those that meet _U_LO <= u <= _U_HI, against 36 per time for
    all of them on this grid."""
    width = kernels._RAY_WIDTH
    # a live panel's lower edge lies within ln(_U_HI / _U_LO) plus the
    # offset of its top node below the edge that starts the band
    span = math.log(kernels._U_HI / kernels._U_LO) + kernels._D16[14]
    assert kernels._LIVE == math.ceil(span / width)
    shapes = []
    expm1 = kernels._expm1_iwt

    def counting(hu):
        if hu.ndim == 3:  # the time blocks, not coth(beta w / 2) of the nodes
            shapes.append(hu.shape)
        return expm1(hu)

    monkeypatch.setattr(kernels, "_expm1_iwt", counting)
    t = np.linspace(0.01, 400.0, 150)
    kernels.quad_ohmic_grid(1.0, 0.1, 1.0, 2.0, t, 1e-8)
    assert sum(nb for nb, _, _ in shapes) == t.size
    assert max(panels for _, panels, _ in shapes) <= kernels._LIVE
    assert sum(nb * panels for nb, panels, _ in shapes) <= 12 * t.size
    # the panels every time would otherwise evaluate
    assert kernels._panel_counts(t, 1.0, 1.0, 1e-8, 2.0).mean() > 36


def test_quad_ohmic_grid_needs_positive_times():
    for t in ([1.0, 0.0], [-2.0], [[1.0]], [1.0, math.nan]):
        with pytest.raises(NumericsError):
            kernels.quad_ohmic_grid(1.0, 0.1, 1.0, 2.0, np.array(t), 1e-8)


def test_grid_kernel_rejects_zero_temperature():
    """The kernel integrates the thermal q2 only; bath takes the T = 0 q2
    from its closed form."""
    for beta in (math.inf, 0.0, -2.0, math.nan):
        with pytest.raises(InvalidArgumentError, match="thermal q2 only"):
            kernels.quad_ohmic_grid(1.0, 0.1, 1.0, beta, np.array([1.0]), 1e-8)


def test_quad_ohmic_closed_form_point():
    # at s = 1 and beta = omega_c = 1 the Gamma product of the thermal q2
    # closes: |Gamma(2 + i t)|^2 = (1 + t^2) pi t / sinh(pi t), so
    # q2 = alpha [ln(sinh(pi t) / (pi t)) - log1p(t^2) / 2]
    val, err = kernels.quad_ohmic(1.0, 0.1, 1.0, 1.0, 2.0, 1e-10)
    law = 0.1 * (math.log(math.sinh(2.0 * math.pi) / (2.0 * math.pi)) - 0.5 * math.log1p(4.0))
    assert val == pytest.approx(law, rel=1e-9)
    assert abs(val - law) <= err < 1e-8


def test_multipliers_match_scalar_law():
    energies = np.array([0.0, 0.3, -1.1])
    t, q1t, q2t = 2.0, 0.11, 0.08
    m = kernels.dephasing_multipliers(energies, t, q1t, q2t)
    assert m.shape == (3, 3)
    assert np.allclose(np.diag(m), 1.0)
    assert np.all(np.abs(m) <= 1.0 + 1e-15)
    for j in range(3):
        for k in range(3):
            de = energies[j] - energies[k]
            sq = energies[j] ** 2 - energies[k] ** 2
            want = np.exp(-1j * (de * t + sq * q1t) - de * de * q2t)
            assert m[j, k] == pytest.approx(want, rel=1e-13)


def test_multipliers_clamp_moves_nothing_above_1e_150():
    # damping exponents down to -(40^2)(0.9) = -1440, past numpy's slow
    # exp path below about -708
    energies = np.linspace(0.0, 40.0, 60)
    t, q1t, q2t = 3.0, 0.2, 0.9
    de = np.subtract.outer(energies, energies)
    sq = np.subtract.outer(energies ** 2, energies ** 2)
    assert np.any(de ** 2 * q2t > 708.0)
    law = np.exp(-1j * (de * t + sq * q1t) - de ** 2 * q2t)
    m = kernels.dephasing_multipliers(energies, t, q1t, q2t)
    assert np.max(np.abs(m - law)) <= 1e-150


def test_multipliers_hermitian_up_to_conjugate():
    rng = np.random.default_rng(4)
    e = rng.normal(size=8)
    m = kernels.dephasing_multipliers(e, 1.3, 0.05, 0.02)
    assert np.allclose(m, m.conj().T)


def test_quad_tabulated_matches_interpolant():
    # the table supports [1e-4, 30]; the untabulated head contributes
    # ~ alpha * t * w_min = 2e-5, so 1e-3 relative agreement is expected
    w = np.linspace(1e-4, 30.0, 6000)
    dens = 0.1 * w * np.exp(-w)
    val, err = kernels.quad_tabulated(1, w, dens, math.inf, 2.0, 1e-9)
    assert val == pytest.approx(0.1 * math.atan(2.0), rel=1e-3)


def test_quad_tabulated_guards():
    w = np.linspace(0.01, 30.0, 50)
    dens = np.ones_like(w)
    with pytest.raises(NumericsError):
        kernels.quad_tabulated(1, w, dens, math.inf, 0.0, 1e-8)
    with pytest.raises(NumericsError):
        kernels.quad_tabulated(1, w, dens, math.inf, 5e4, 1e-8)
