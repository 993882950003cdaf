"""The invariant suite itself: registry, scaling, failure reporting."""

import math

import numpy as np
import pytest

from cqdeph import bath, dynamics, hamiltonians, kernels, validation


def test_all_checks_pass():
    results = validation.run_all()
    assert len(results) == len(validation.CHECK_NAMES)
    failed = [r.name for r in results if not r.passed]
    assert failed == []


def test_registry_names_match():
    results = validation.run_all()
    assert tuple(r.name for r in results) == validation.CHECK_NAMES


def test_run_all_quadrature_and_kron_budget(monkeypatch):
    # each thermal bath state's times go to the image sum as one grid, and
    # tensor3 builds its products without np.kron
    calls = {"images": 0, "kron": 0}
    images, kron = bath._thermal_images, np.kron

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(bath, "_thermal_images", counted("images", images))
    monkeypatch.setattr(np, "kron", counted("kron", kron))
    validation.run_all()
    assert calls["images"] <= 26
    assert calls["kron"] == 0


def _scaled(monkeypatch, name, scale, row=...):
    """Replace bath.name, which returns [values, errors], by one that scales
    its values (only their row ``row``, if given)."""
    inner = getattr(bath, name)

    def scaled(*args, **kwargs):
        out = inner(*args, **kwargs).copy()
        out[0][row] *= scale
        return out

    monkeypatch.setattr(bath, name, scaled)


@pytest.mark.parametrize("scale", [1.0, 1.0 + 1e-4])
def test_small_t_check_fails_a_scaled_quadrature(scale, monkeypatch):
    # the small-t limits of q1 and q2 are fixed numbers, so a thermal q2
    # whose images are off by 1e-4 relative fails the check
    _scaled(monkeypatch, "_thermal_images", scale)
    residual, tolerance, _ = validation._check_q1_q2_small_t()
    assert (residual <= tolerance) == (scale == 1.0)


@pytest.mark.parametrize("scale", [1.0, 1.0 + 1e-4])
def test_closed_form_check_fails_a_scaled_zero_t_q2(scale, monkeypatch):
    # ohmic_closed_form_q1q2 holds the T = 0 q2 to frozen mpmath values
    _scaled(monkeypatch, "_ohmic_closed_forms", scale, row=1)
    residual, tolerance, _ = validation._check_ohmic_closed_form()
    assert (residual <= tolerance) == (scale == 1.0)


@pytest.mark.parametrize("scale", [1.0, 1.001])
def test_offdiag_contraction_fails_scaled_class_gaps(scale, monkeypatch):
    # the class-gap fold gives only the purity and fidelity columns, which
    # the row holds to the dense snapshots
    inner = dynamics._class_gaps

    def scaled(levels):
        gaps, gap_of = inner(levels)
        return gaps * scale, gap_of

    monkeypatch.setattr(dynamics, "_class_gaps", scaled)
    residual, tolerance, _ = validation._check_offdiag_contraction()
    assert (residual <= tolerance) == (scale == 1.0)


@pytest.mark.parametrize("scale", [1.0, 1.0 + 1e-9])
def test_log_gamma_check_fails_scaled_images(scale, monkeypatch):
    # q2_thermal_ohmic1_gold holds the thermal q2 of the linear bath to
    # frozen mpmath values of its Gamma-function product
    _scaled(monkeypatch, "_thermal_images", scale)
    residual, tolerance, _ = validation._check_q2_thermal_ohmic1()
    assert (residual <= tolerance) == (scale == 1.0)


def _scaled_stage(monkeypatch, name, scale):
    """Replace validation.name, a stage builder, by one whose energy vector
    or dense matrix is scaled by scale."""
    inner = getattr(validation, name)

    def scaled(*args, **kwargs):
        stage = inner(*args, **kwargs)
        if isinstance(stage, np.ndarray):
            return stage * scale
        return type(stage)(stage.mat * scale, stage.cutoff)

    monkeypatch.setattr(validation, name, scaled)


@pytest.mark.parametrize("scale", [1.0, 1.0 + 1e-9])
@pytest.mark.parametrize("name", ["build_dispersive", "build_diagonal"])
def test_chain_check_fails_a_scaled_diagonal_stage(name, scale, monkeypatch):
    # chain_consistency: the dispersive energies minus the free part are
    # the cross-Kerr energies, so either vector scaled by 1 + 1e-9 fails
    _scaled_stage(monkeypatch, name, scale)
    residual, tolerance, _ = validation._check_chain_consistency()
    assert (residual <= tolerance) == (scale == 1.0)


@pytest.mark.parametrize("scale", [1.0, 1.0 + 1e-9])
def test_eigenvalue_check_fails_a_scaled_diagonal_stage(scale, monkeypatch):
    # eigenvalue_matches_diagonal holds the cross-Kerr energies to the
    # closed-form level function of spectrum
    _scaled_stage(monkeypatch, "build_diagonal", scale)
    residual, tolerance, _ = validation._check_eigenvalue_diagonal()
    assert (residual <= tolerance) == (scale == 1.0)


@pytest.mark.parametrize("scale", [1.0, 1.0 + 1e-9j])
@pytest.mark.parametrize("name", ["build_full", "build_rotated", "build_quadratic",
                                  "build_jc"])
def test_hermiticity_check_fails_a_phase_scaled_dense_stage(name, scale, monkeypatch):
    # a real factor keeps any stage hermitian, so stage_hermiticity is shown
    # a dense stage scaled by 1 + 1e-9 i, whose anti-hermitian part is 1e-9
    # of the stage
    _scaled_stage(monkeypatch, name, scale)
    residual, tolerance, _ = validation._check_stage_hermiticity()
    assert (residual <= tolerance) == (scale == 1.0)


@pytest.mark.parametrize("drift", [0.0, 10.0])
def test_quadrature_error_check_fails_a_drifting_tabulated_rule(drift, monkeypatch):
    # a tabulated rule whose value moves by drift x rtol when rtol is
    # halved, beyond its reported error, fails quadrature_error_estimate
    quad = kernels.quad_tabulated

    def drifting(kind, omega, values, beta, t, rtol):
        value, error = quad(kind, omega, values, beta, t, rtol)
        return value * (1.0 + drift * rtol), error

    monkeypatch.setattr(kernels, "quad_tabulated", drifting)
    residual, tolerance, _ = validation._check_quadrature_error()
    assert (residual <= tolerance) == (drift == 0.0)


def test_tiny_tolerance_fails_and_reports(monkeypatch):
    # a residual above its tolerance fails its row, and the row reports both
    monkeypatch.setattr(validation, "_CHECKS", tuple(
        (name, lambda check=check: (check()[0], 1e-30, "tiny"))
        for name, check in validation._CHECKS[:4]))
    results = validation.run_all()
    bad = [r for r in results if not r.passed]
    assert bad
    assert all(r.residual > r.tolerance for r in bad)
    assert all(r.passed == (r.residual <= 1e-30) for r in results)


def test_non_finite_residual_never_passes(monkeypatch):
    # an infinite tolerance does not pass an infinite residual
    monkeypatch.setattr(validation, "_CHECKS", (
        ("diverged", lambda: (math.inf, math.inf, "")),
        ("nan", lambda: (math.nan, 1.0, "")),
        ("fine", lambda: (0.5, 1.0, "")),
    ))
    results = validation.run_all()
    assert [r.passed for r in results] == [False, False, True]
    assert [r.tolerance for r in results] == [math.inf, 1.0, 1.0]


@pytest.mark.parametrize("scale", [1.0, 1.001])
def test_jc_gold_check_fails_a_scaled_doublet_coupling(scale, monkeypatch):
    # dispersive_fidelity_quick only asks for fidelity >= 0.99, which a
    # coupling off by 1e-3 still meets; the frozen fidelities move by 3.4e-4
    inner = hamiltonians.jc_doublets

    def scaled(*args):
        diag, lower, upper, coupling = inner(*args)
        return diag, lower, upper, coupling * scale

    monkeypatch.setattr(hamiltonians, "jc_doublets", scaled)
    residual, tolerance, _ = validation._check_jc_gold()
    assert (residual <= tolerance) == (scale == 1.0)
    assert validation._check_dispersive_fidelity()[0] <= 1e-2
