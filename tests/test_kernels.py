"""Quadrature and multiplier kernels."""

import math

import numpy as np
import pytest

from cqdeph import kernels
from cqdeph.errors import NumericsError


def test_active_backend_consistent():
    assert kernels.active_backend() == "numpy"


def test_initial_panels_structure():
    a, b = kernels.initial_panels(3.0, 1.0, 1.0, 1e-8)
    assert a.shape == b.shape
    widths = b - a
    width = float(widths[0])
    assert np.allclose(widths, width)
    assert np.all(a[1:] == b[:-1])
    # the head cut sits 1e-3 * rtol below the scale min(1/t, omega_c) = 1/3,
    # and the first panel is the last one that fits above it
    cut = math.log(1.0 / 3.0) + math.log(1e-11)
    assert cut <= a[0] < cut + width
    # the panels are laid down from the tail, so a tighter rtol only adds
    # panels at the head
    fine = kernels.initial_panels(3.0, 1.0, 1.0, 1e-12)[0]
    assert fine.size > a.size
    assert np.array_equal(fine[-a.size:], a)
    # the ray ends where exp(-Re w / omega_c) = exp(-42) has closed it
    assert b[-1] >= math.log(42.0 / math.cos(math.pi / 4.0))
    # the count grows like ln(omega_c t), not like t
    n1 = kernels.initial_panels(1.0, 1.0, 1.0, 1e-8)[0].size
    n6 = kernels.initial_panels(1e6, 1.0, 1.0, 1e-8)[0].size
    assert n6 <= n1 + math.ceil(math.log(1e6) / width)
    # a tiny exponent moves the head cut far out, but never below the
    # smallest normal float, so the layout stays bounded
    assert kernels.initial_panels(1.0, 1.0, 1e-4, 1e-8)[0].size < 2000
    with pytest.raises(NumericsError):
        kernels.initial_panels(0.0, 1.0, 1.0, 1e-8)


def test_quad_ohmic_closed_form_point():
    val, err = kernels.quad_ohmic(1, 1.0, 0.1, 1.0, math.inf, True, 2.0, 1e-10)
    assert val == pytest.approx(0.1 * math.atan(2.0), rel=1e-9)
    assert err < 1e-8
    val2, _ = kernels.quad_ohmic(2, 1.0, 0.1, 1.0, math.inf, True, 2.0, 1e-10)
    assert val2 == pytest.approx(0.05 * math.log1p(4.0), rel=1e-9)


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
    val, err = kernels.quad_tabulated(1, w, dens, math.inf, True, 2.0, 1e-9)
    assert val == pytest.approx(0.1 * math.atan(2.0), rel=1e-3)


def test_quad_tabulated_guards():
    w = np.linspace(0.01, 30.0, 50)
    dens = np.ones_like(w)
    with pytest.raises(NumericsError):
        kernels.quad_tabulated(1, w, dens, math.inf, True, 0.0, 1e-8)
    with pytest.raises(NumericsError):
        kernels.quad_tabulated(1, w, dens, math.inf, True, 5e4, 1e-8)
