"""The invariant suite itself: registry, scaling, failure reporting."""

import math

import numpy as np
import pytest

from cqdeph import kernels, validation
from cqdeph.errors import InvalidArgumentError, ValidationFailure


def test_all_checks_pass():
    results = validation.run_all()
    assert len(results) == len(validation.CHECK_NAMES)
    failed = [r.name for r in results if not r.passed]
    assert failed == []
    validation.require_all(results)  # must not raise


def test_registry_names_match():
    results = validation.run_all()
    assert tuple(r.name for r in results) == validation.CHECK_NAMES


def test_run_all_quadrature_and_kron_budget(monkeypatch):
    # each bath state's times go to the kernel as one grid, and tensor3
    # builds its products without np.kron
    calls = {"grid": 0, "kron": 0}
    grid, kron = kernels.quad_ohmic_grid, np.kron

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(kernels, "quad_ohmic_grid", counted("grid", grid))
    monkeypatch.setattr(np, "kron", counted("kron", kron))
    validation.run_all()
    assert calls["grid"] <= 26
    assert calls["kron"] == 0


@pytest.mark.parametrize("scale", [1.0, 1.0 + 1e-4])
def test_small_t_check_fails_a_scaled_quadrature(scale, monkeypatch):
    # the small-t limits of q1 and q2 are fixed numbers, so a quadrature
    # that is off by 1e-4 relative fails the check
    grid = kernels.quad_ohmic_grid

    def scaled(*args, **kwargs):
        values, errors = grid(*args, **kwargs)
        return values * scale, errors

    monkeypatch.setattr(kernels, "quad_ohmic_grid", scaled)
    residual, tolerance, _ = validation._check_q1_q2_small_t()
    assert (residual <= tolerance) == (scale == 1.0)


def test_tol_scale_zero_rejected():
    with pytest.raises(InvalidArgumentError):
        validation.run_all(tol_scale=0.0)


def test_tiny_tolerance_fails_and_reports():
    results = validation.run_all(tol_scale=1e-12)
    bad = [r for r in results if not r.passed]
    assert bad
    with pytest.raises(ValidationFailure) as exc:
        validation.require_all(results)
    assert bad[0].name in str(exc.value)


def test_summary_text_shape():
    results = validation.run_all()
    text = validation.summary_text(results)
    lines = text.splitlines()
    assert len(lines) == len(results) + 1
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert f"{len(results)}/{len(results)} checks passed" in lines[-1]


@pytest.mark.parametrize("scale", [math.inf, math.nan, -1.0])
def test_non_finite_or_negative_tol_scale_rejected(scale):
    with pytest.raises(InvalidArgumentError, match="finite and > 0"):
        validation.run_all(tol_scale=scale)


def test_regrading_keeps_the_finite_residual_rule(monkeypatch):
    # 1e308 * 10 overflows to an infinite tolerance, which an infinite
    # residual would meet if the regrade only compared the two
    monkeypatch.setattr(validation, "_CHECKS", (
        ("diverged", lambda: (math.inf, 1e308, "")),
        ("nan", lambda: (math.nan, 1.0, "")),
        ("fine", lambda: (0.5, 1.0, "")),
    ))
    results = validation.run_all(tol_scale=10.0)
    assert [r.passed for r in results] == [False, False, True]
    assert [r.tolerance for r in results] == [math.inf, 10.0, 10.0]
