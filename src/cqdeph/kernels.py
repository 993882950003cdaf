"""Numeric hot paths: reservoir-integral quadrature and dephasing multipliers.

Everything here is vectorized numpy.  Panels get the 15-point Gauss-Kronrod
rule with the embedded 7-point Gauss value as the error estimate, and the
worst panels are bisected until the summed estimate meets the relative
tolerance.  Ohmic densities are integrated along the ray w = r e^{i pi/4},
where nothing oscillates (numerical steepest descent; Huybrechs and
Vandewalle, SIAM J. Numer. Anal. 44, 1026 (2006)), on fixed-width panels in
ln r, so their cost grows like ln(omega_c t) and t has no limit.  Tabulated
densities are piecewise linear, not analytic, and keep real-axis panels of
at most half an oscillation period, at most PANEL_CAP of them.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericsError

__all__ = ["active_backend", "quad_ohmic", "quad_tabulated",
           "dephasing_multipliers", "initial_panels", "PANEL_CAP"]


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

_ROT = complex(math.sqrt(0.5), math.sqrt(0.5))  # e^{i pi/4}, the integration ray
_RAY_WIDTH = 0.6  # width of the initial ray panels in x = ln r
_X_MIN = math.log(np.finfo(float).tiny)  # below this r = e^x is no longer a normal float
_EPS = float(np.finfo(float).eps)


def initial_panels(t: float, omega_c: float, s: float,
                   rtol: float) -> tuple[np.ndarray, np.ndarray]:
    """Panel edges (a, b) in x = ln r along the ray w = r e^{i pi/4}.

    The panels have width _RAY_WIDTH and run down from Re w = (40 + 2 s)
    omega_c, where exp(-w/omega_c) ends the integrand, to the head cut,
    where it has fallen to 1e-3 * rtol of its size at the scale
    min(1/t, omega_c); the last panel that fits above the cut is the
    first.  Their count grows like ln(omega_c t), not like t, and a tighter
    rtol only adds panels at the head.
    """
    if t <= 0.0:
        raise NumericsError("initial_panels needs t > 0")
    lo = max(math.log(min(1.0 / t, omega_c)) + math.log(1e-3 * rtol) / s, _X_MIN)
    hi = math.log((40.0 + 2.0 * s) * omega_c / _ROT.real)
    n = max(1, math.floor((hi - lo) / _RAY_WIDTH))
    edges = hi - _RAY_WIDTH * np.arange(n, -1, -1)
    return edges[:-1], edges[1:]


def _times_kernel(dens_over_w2, w, kind, beta, zero_t, t):
    """Multiply D(w)/w^2 by the kernel of reservoir integral ``kind``.

    kind 1: sin(w t); kind 2: 2 sin^2(w t / 2) coth(beta w / 2), where the
    coth factor is 1 at zero temperature.
    """
    if kind == 1:
        return dens_over_w2 * np.sin(w * t)
    out = dens_over_w2 * (2.0 * np.sin(0.5 * w * t) ** 2)
    if zero_t:
        return out
    x = 0.5 * beta * w
    cth = np.where(x < 1e-4, 1.0 / np.where(x > 0, x, 1.0) + x / 3.0,
                   1.0 / np.tanh(np.where(x > 0, x, 1.0)))
    return out * cth


def _gk15_batch(f, a, b):
    mid = 0.5 * (a + b)
    hw = 0.5 * (b - a)
    fv = f(mid[:, None] + hw[:, None] * _X15[None, :])
    vals = (fv * _W15).sum(axis=1) * hw
    errs = np.abs((fv * (_W15 - _W7)).sum(axis=1) * hw)
    return vals, errs


def _adaptive(f, a, b, rtol, cap, max_rounds=60):
    vals, errs = _gk15_batch(f, a, b)
    for _ in range(max_rounds):
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


def quad_ohmic(kind: int, s: float, alpha: float, omega_c: float, beta: float,
               zero_t: bool, t: float, rtol: float) -> tuple[float, float]:
    """Reservoir integral for the ohmic family at one time point.

    kind 1: integral of D(w)/w^2 * sin(w t)
    kind 2: integral of 2 D(w)/w^2 * sin^2(w t / 2) * coth(beta w / 2)
    with D(w) = alpha * w^s * omega_c^(1-s) * exp(-w / omega_c).

    g = D/w^2 is analytic in the open first quadrant and the poles of coth
    lie on the imaginary axis, so both are integrals along w = r e^{i pi/4}:
    kind 1: Im of the integral of g(w) expm1(i w t) dw,
    kind 2: Re of the integral of g(w) coth(beta w / 2) (h(w) - expm1(i w t)) dw
    with h = i w t / (1 + w^2 t^2).  On the real axis h is imaginary and
    drops out; on the ray it cancels the 2/(beta w) pole of coth at the
    origin, and it decays beyond w ~ 1/t, so no large cancelling term is
    left where the panels are wide.

    Below the first panel, x < x_lo, the integrand in x = ln r is a power
    law f(x) ~ f(x_lo) e^{p (x - x_lo)}, with p = s, or s + 1 for kind 2 at
    zero temperature, up to a relative correction of order
    r (t + 1/omega_c + beta) with r = e^x.  So f(x_lo) / p is added to the
    value.  That matters for small s, where the head cut is clamped at the
    smallest normal float and the head holds most of the integral.
    Returns (value, error); the error includes the bound
    2 |f(x_lo)| r_lo (t + 1/omega_c + beta) / p on the head remainder and
    the rounding 4 eps |x_lo| |f(x_lo)| / p of the head itself.
    t must be positive; callers handle t = 0 and the symmetry in t.
    """
    a, b = initial_panels(t, omega_c, s, rtol)
    scale = alpha * omega_c ** (1.0 - s)
    # in x = ln r, dw = w dx: f is w g(w) = scale w^(s-1) exp(-w/omega_c),
    # with ln w = x + i pi/4, times the kernel
    log_phase = 1j * (s - 1.0) * (math.pi / 4.0)

    def f(x):
        w = np.exp(x) * _ROT
        wg = scale * np.exp((s - 1.0) * x + log_phase - w / omega_c)
        iwt = (1j * t) * w
        e = np.expm1(iwt)
        if kind == 1:
            return (wg * e).imag
        v = wg * (iwt / (1.0 - iwt * iwt) - e)  # h - expm1(i w t)
        if not zero_t:
            v *= -1.0 - 2.0 / np.expm1(-beta * w)  # coth(beta w / 2)
        return v.real

    # six bisections of every panel: far more than the analytic integrand needs
    val, err = _adaptive(f, a, b, rtol, cap=64 * a.size)
    p = s + 1.0 if kind == 2 and zero_t else s
    head = float(f(a[:1])[0]) / p
    # the remainder, plus the rounding of exponents of size |x_lo|, which
    # the exponential turns into a relative error of f
    rel = (2.0 * math.exp(a[0]) * (t + 1.0 / omega_c + (0.0 if zero_t else beta))
           + 4.0 * _EPS * abs(a[0]))
    return val + head, err + abs(head) * rel


def quad_tabulated(kind: int, omega_s: np.ndarray, density_s: np.ndarray,
                   beta: float, zero_t: bool, t: float,
                   rtol: float) -> tuple[float, float]:
    """Reservoir integral for a tabulated density.

    The density is linearly interpolated between samples and taken as zero
    outside the tabulated range, so the integral runs over
    [omega_s[0], omega_s[-1]] with oscillation-resolved panels.
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
        dens = np.interp(w, omega_s, density_s)
        return _times_kernel(dens / w**2, w, kind, beta, zero_t, t)

    return _adaptive(f, a, b, rtol, cap=PANEL_CAP)


def dephasing_multipliers(energies: np.ndarray, t: float, q1t: float,
                          q2t: float) -> np.ndarray:
    """Matrix M[j, k] = exp(-i (E_j - E_k) t - i (E_j^2 - E_k^2) q1 - (E_j - E_k)^2 q2)."""
    energies = np.ascontiguousarray(energies, dtype=np.float64)
    de = energies[:, None] - energies[None, :]
    sq = energies[:, None] ** 2 - energies[None, :] ** 2
    return np.exp(-1j * (de * t + sq * q1t) - de**2 * q2t)
