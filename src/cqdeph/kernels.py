"""Numeric hot paths: the quadrature of tabulated densities and dephasing
multipliers.

Everything here is vectorized numpy.  Panels get the 15-point Gauss-Kronrod
rule with the embedded 7-point Gauss value as the error estimate, and the
worst panels are bisected until the summed estimate meets the relative
tolerance.

An ohmic density needs no quadrature: bath evaluates q1, and q2 at every
temperature, in closed form, the thermal q2 as a sum of zero-temperature
closed forms over its images.  Tabulated densities are piecewise linear,
not analytic, and keep real-axis panels of at most half an oscillation
period, at most PANEL_CAP of them; for them zero temperature is
beta = inf, where the coth(beta w / 2) of q2 is 1.

quad_ohmic, initial_panels and dephasing_multipliers have no caller in the
package.  The first two stay only because the traced runs of the benchmark
wrap them by name, until the benchmark measures today's layers;
dephasing_multipliers is also the independent reference that the tests
hold the element law of dynamics against.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericsError

__all__ = ["active_backend", "quad_ohmic", "quad_tabulated", "dephasing_multipliers",
           "initial_panels", "PANEL_CAP"]


def active_backend() -> str:
    """Name of the kernel backend; numpy is the only one."""
    return "numpy"


# 15-point Kronrod nodes/weights with the embedded 7-point Gauss weights,
# ascending order on [-1, 1] (standard QUADPACK dqk15 table).
_X15 = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0, 0.207784955007898, 0.405845151377397,
    0.586087235467691, 0.741531185599394, 0.864864423359769,
    0.949107912342759, 0.991455371120813,
])
_W15 = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728, 0.204432940075298,
    0.190350578064785, 0.169004726639267, 0.140653259715525,
    0.104790010322250, 0.063092092629979, 0.022935322010529,
])
_W7 = np.array([
    0.0, 0.129484966168870, 0.0, 0.279705391489277, 0.0,
    0.381830050505119, 0.0, 0.417959183673469, 0.0,
    0.381830050505119, 0.0, 0.279705391489277, 0.0,
    0.129484966168870, 0.0,
])
for _arr in (_X15, _W15, _W7):
    _arr.flags.writeable = False

PANEL_CAP = 16384  # real-axis panels of a tabulated density; see quad_tabulated


def initial_panels(t: float, omega_c: float, s: float, rtol: float,
                   beta: float) -> tuple[np.ndarray, np.ndarray]:
    """The images that quad_ohmic sums term by term, as unit intervals
    (a, b) = (k, k + 1) of the image index k = 1 .. N - 1; beyond them the
    Euler-Maclaurin sum takes over.  Only the exponent s moves them.

    No caller in the package; kept because the benchmark's traced runs
    wrap it by name."""
    from . import bath  # bath imports this module

    a = np.arange(1.0, bath._direct_images(s))
    return a, a + 1.0


def _gk15_batch(f, a, b):
    mid = 0.5 * (a + b)
    hw = 0.5 * (b - a)
    fv = f(mid[:, None] + hw[:, None] * _X15[None, :])
    vals = (fv * _W15).sum(axis=1) * hw
    errs = np.abs((fv * (_W15 - _W7)).sum(axis=1) * hw)
    return vals, errs


_MAX_ROUNDS = 60  # bisection rounds of _adaptive


def _adaptive(f, a, b, vals, errs, rtol, cap):
    """Bisect the worst of the panels (a, b), whose GK15 values and error
    estimates are vals and errs, until the summed estimate meets rtol."""
    for _ in range(_MAX_ROUNDS):
        total = float(vals.sum())
        err_total = float(errs.sum())
        floor = 30.0 * np.finfo(float).eps * float(np.abs(vals).sum())
        if err_total <= max(rtol * abs(total), floor) or a.size >= cap:
            break
        split = errs > max(rtol * abs(total), floor) / (2.0 * a.size)
        if not split.any():
            split = errs >= 0.5 * errs.max()
        if a.size + split.sum() > cap:
            keep_n = cap - a.size
            order = np.argsort(errs[split])[::-1][:keep_n]
            idx = np.flatnonzero(split)[order]
            split = np.zeros_like(split)
            split[idx] = True
            if not split.any():
                break
        am, bm = a[split], b[split]
        mids = 0.5 * (am + bm)
        new_vals, new_errs = _gk15_batch(f, np.concatenate([am, mids]),
                                         np.concatenate([mids, bm]))
        a = np.concatenate([a[~split], am, mids])
        b = np.concatenate([b[~split], mids, bm])
        vals = np.concatenate([vals[~split], new_vals])
        errs = np.concatenate([errs[~split], new_errs])
    return float(vals.sum()), float(errs.sum())


def quad_ohmic(s: float, alpha: float, omega_c: float, beta: float,
               t: float, rtol: float) -> tuple[float, float]:
    """q2 of the ohmic density of bath at the one time t and beta (inf for
    T = 0), as floats (value, error): the closed form, plus its images at a
    finite temperature; rtol is checked and moves nothing.

    No caller in the package; kept because the benchmark's traced runs
    wrap it by name."""
    from . import bath  # bath imports this module

    model = bath.OhmicSpectralDensity(alpha, s, omega_c)
    (value,), (error,) = bath._dispatch(model, (2,), beta, [t], rtol)[:, 0].tolist()
    return value, error


def quad_tabulated(kind: int, omega_s: np.ndarray, density_s: np.ndarray,
                   beta: float, t: float, rtol: float) -> tuple[float, float]:
    """Reservoir integral for a tabulated density.

    The integrals of bath on the real axis: kind 1 D(w)/w^2 sin(w t),
    kind 2 2 D(w)/w^2 sin^2(w t / 2) coth(beta w / 2), with
    beta = inf for zero temperature.  The density is linearly interpolated
    between samples and taken as zero outside the tabulated range, so the
    integral runs over [omega_s[0], omega_s[-1]] with oscillation-resolved
    panels.
    """
    lo, hi = float(omega_s[0]), float(omega_s[-1])
    if t <= 0.0:
        raise NumericsError("quad_tabulated needs t > 0")
    width = min(math.pi / t, (hi - lo) / 8.0)
    n = int(math.ceil((hi - lo) / width))
    if n + 1 > PANEL_CAP // 2:
        raise NumericsError(f"t = {t:g} needs {n} panels over the tabulated range, beyond capacity")
    edges = np.linspace(lo, hi, n + 1)
    a, b = edges[:-1], edges[1:]

    def f(w):
        g = np.interp(w, omega_s, density_s) / w**2
        if kind == 1:
            return g * np.sin(w * t)
        # coth(beta w / 2) as -1 - 2 / expm1(-beta w): exactly 1 at beta = inf
        return g * (2.0 * np.sin(0.5 * w * t) ** 2) * (-1.0 - 2.0 / np.expm1(-beta * w))

    return _adaptive(f, a, b, *_gk15_batch(f, a, b), rtol, cap=PANEL_CAP)


def dephasing_multipliers(energies: np.ndarray, t: float, q1t: float,
                          q2t: float) -> np.ndarray:
    """Matrix M[j, k] = exp(-i (E_j - E_k) t - i (E_j^2 - E_k^2) q1 - (E_j - E_k)^2 q2).

    One complex exponential per element.  No caller in the package:
    dynamics evaluates the same law in its own code, and the tests hold
    that against this matrix, an independent reference; the benchmark's
    traced runs also wrap it by name.  The damping exponent is clamped at
    -350, as in evolve_reduced: numpy's exp slows down below about -708,
    and a modulus below e^-350 ~ 1e-152 moves no observable.
    """
    energies = np.ascontiguousarray(energies, dtype=np.float64)
    de = energies[:, None] - energies[None, :]
    sq = energies[:, None] ** 2 - energies[None, :] ** 2
    # the exponent is built in place in the result: the snapshot tensor
    # calls this once per time on the full matrix
    out = np.empty(de.shape, dtype=complex)
    np.multiply(de * de, -q2t, out=out.real)
    np.maximum(out.real, -350.0, out=out.real)
    np.multiply(de, -t, out=out.imag)
    out.imag -= sq * q1t
    return np.exp(out, out=out)
