"""The invariant suite itself: registry, scaling, failure reporting."""

import math

import pytest

from cqdeph import validation
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
