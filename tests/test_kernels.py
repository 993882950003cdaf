"""Quadrature and multiplier kernels."""

import math

import numpy as np
import pytest

from cqdeph import bath, kernels
from cqdeph.errors import NumericsError


def test_active_backend_consistent():
    assert kernels.active_backend() == "numpy"


def test_initial_panels_structure():
    """initial_panels, kept for the benchmark's traced runs, lays out the
    images that the thermal q2 sums term by term, k = 1 .. N - 1 with
    N = max(10, ceil(2 s)), as unit intervals; only s moves them."""
    a, b = kernels.initial_panels(3.0, 1.0, 1.0, 1e-8, 2.0)
    assert np.array_equal(a, np.arange(1.0, 10.0))
    assert np.array_equal(b, a + 1.0)
    for args in ((1e6, 5.0, 1.0, 1e-12, 0.5), (1e-3, 1.0, 1.0, 1e-4, 1e8)):
        assert np.array_equal(kernels.initial_panels(*args)[0], a)
    assert kernels.initial_panels(3.0, 1.0, 20.0, 1e-8, 2.0)[0].size == 39
    assert kernels.initial_panels(3.0, 1.0, 100.0, 1e-8, 2.0)[0].size == 199


@pytest.mark.parametrize("s,rtol", [(1e-4, 1e-8), (0.5, 1e-11), (1.0, 1e-8),
                                    (3.0, 1e-6)])
def test_initial_panels_of_every_time_are_the_top_panels_of_the_latest(s, rtol):
    # every time of a grid shares the images of the latest one
    times = np.geomspace(1e-3, 1e6, 40)
    a_max, b_max = kernels.initial_panels(float(times[-1]), 2.0, s, rtol, 1.0)
    for t in times:
        a, b = kernels.initial_panels(float(t), 2.0, s, rtol, 1.0)
        assert 0 < a.size <= a_max.size
        assert np.array_equal(a, a_max[a_max.size - a.size:])
        assert np.array_equal(b, b_max[b_max.size - b.size:])


@pytest.mark.parametrize("beta", [1e8, 2.0, 1.0, 1e-3])
@pytest.mark.parametrize("s", [1e-4, 0.03, 0.5, 1.0, 2.0, 3.0, 20.0, 100.0])
def test_head_and_tail_series_match_the_direct_integrand(s, beta, monkeypatch):
    """The thermal q2 sums its first N images term by term and closes the
    rest by the Euler-Maclaurin series.  Summing 4N images term by term
    instead moves it by less than the two reported errors, over ten decades
    of omega_c t, at temperatures where the images are all below rounding
    (beta = 1e8) and where a thousand of them matter (beta = 1e-3)."""
    model = bath.OhmicSpectralDensity(coupling=0.1, exponent=s)
    state = bath.BathState(beta=beta)
    t = np.geomspace(1e-5, 1e5, 31)
    (_, short), (_, short_err) = bath.q_grids(model, state, t)
    direct = bath._direct_images(s)
    monkeypatch.setattr(bath, "_direct_images", lambda s: 4 * direct)
    (_, long), (_, long_err) = bath.q_grids(model, state, t)
    assert np.all(np.abs(short - long) <= short_err + long_err)
    assert np.all(short_err <= 1e-9 * short)


def test_quad_ohmic_closed_form_point():
    # at s = 1 and beta = omega_c = 1 the Gamma product of the thermal q2
    # closes: |Gamma(2 + i t)|^2 = (1 + t^2) pi t / sinh(pi t), so
    # q2 = alpha [ln(sinh(pi t) / (pi t)) - log1p(t^2) / 2]
    val, err = kernels.quad_ohmic(1.0, 0.1, 1.0, 1.0, 2.0, 1e-10)
    law = 0.1 * (math.log(math.sinh(2.0 * math.pi) / (2.0 * math.pi)) - 0.5 * math.log1p(4.0))
    assert val == pytest.approx(law, rel=1e-14)
    assert abs(val - law) <= err < 1e-14
    assert kernels.quad_ohmic(1.0, 0.1, 1.0, 1.0, 2.0, 1e-4) == (val, err)


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
