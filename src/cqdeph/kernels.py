"""Numeric hot paths: oscillatory panel quadrature and dephasing multipliers.

Everything here is vectorized numpy.  The reservoir integrals are evaluated
on panels that resolve the oscillation scale 2*pi/t: the head [0, w_c] is
integrated directly, the tail is mapped to u in [0, 1) through
w = w_c / (1 - u), and every panel is no wider than half an oscillation
period.  Each panel uses the 15-point Gauss-Kronrod rule with the embedded
7-point Gauss value as the error estimate; the worst panels are bisected
until the summed estimate meets the relative tolerance.
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

PANEL_CAP = 16384
_TAIL_STOP = 60.0  # integrate the mapped tail out to w = _TAIL_STOP * w_c, then one panel to u = 1


def initial_panels(t: float, omega_c: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Panel edges (a, b, in_u) resolving oscillations of period 2*pi/t.

    Head panels live in w on [0, omega_c]; tail panels live in u with
    w = omega_c / (1 - u).  Raises NumericsError when the oscillation scale
    would need more panels than the refinement cap allows.
    """
    if t <= 0.0:
        raise NumericsError("initial_panels needs t > 0")
    half_period = math.pi / t
    head_w = min(half_period, omega_c / 4.0)
    n_head = max(4, int(math.ceil(omega_c / head_w)))
    tail_w = min(half_period, omega_c / 2.0)
    n_tail = int(math.ceil((_TAIL_STOP - 1.0) * omega_c / tail_w))
    if n_head + n_tail + 1 > PANEL_CAP // 2:
        raise NumericsError(
            f"t = {t:g} needs {n_head + n_tail + 1} oscillation-resolved panels, "
            f"beyond the capacity {PANEL_CAP // 2}; reduce t or omega_c * t"
        )
    head_edges = np.linspace(0.0, omega_c, n_head + 1)
    omega_edges = omega_c + tail_w * np.arange(n_tail + 1)
    u_edges = 1.0 - omega_c / omega_edges
    a = np.concatenate([head_edges[:-1], u_edges[:-1], [u_edges[-1]]])
    b = np.concatenate([head_edges[1:], u_edges[1:], [1.0]])
    in_u = np.zeros(a.size, dtype=np.bool_)
    in_u[n_head:] = True
    return a, b, in_u


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


def _ohmic_values(w, kind, s, alpha, omega_c, beta, zero_t, t):
    # merged exponent avoids inf * 0 at the extremes of the mapped tail
    expo = (s - 2.0) * np.log(w) - w / omega_c
    env = alpha * omega_c ** (1.0 - s) * np.exp(expo)
    return _times_kernel(env, w, kind, beta, zero_t, t)


def _gk15_batch(f, a, b, in_u, omega_c):
    mid = 0.5 * (a + b)
    hw = 0.5 * (b - a)
    x = mid[:, None] + hw[:, None] * _X15[None, :]
    jac = np.ones_like(x)
    w = x.copy()
    if in_u.any():
        rem = 1.0 - x[in_u]
        w[in_u] = omega_c / rem
        jac[in_u] = omega_c / rem**2
    fv = f(w) * jac
    vals = (fv * _W15).sum(axis=1) * hw
    errs = np.abs((fv * (_W15 - _W7)).sum(axis=1) * hw)
    return vals, errs


def _adaptive(f, a, b, in_u, omega_c, rtol, cap=PANEL_CAP, max_rounds=60):
    a = a.copy()
    b = b.copy()
    in_u = in_u.copy()
    vals, errs = _gk15_batch(f, a, b, in_u, omega_c)
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
        am, bm, um = a[split], b[split], in_u[split]
        mids = 0.5 * (am + bm)
        na = np.concatenate([a[~split], am, mids])
        nb = np.concatenate([b[~split], mids, bm])
        nu = np.concatenate([in_u[~split], um, um])
        new_vals, new_errs = _gk15_batch(f, np.concatenate([am, mids]),
                                            np.concatenate([mids, bm]),
                                            np.concatenate([um, um]), omega_c)
        vals = np.concatenate([vals[~split], new_vals])
        errs = np.concatenate([errs[~split], new_errs])
        a, b, in_u = na, nb, nu
    return float(vals.sum()), float(errs.sum()), a.size


def quad_ohmic(kind: int, s: float, alpha: float, omega_c: float, beta: float,
               zero_t: bool, t: float, rtol: float) -> tuple[float, float]:
    """Reservoir integral for the ohmic family at one time point.

    kind 1: integral of D(w)/w^2 * sin(w t)
    kind 2: integral of 2 D(w)/w^2 * sin^2(w t / 2) * coth(beta w / 2)
    with D(w) = alpha * w^s * omega_c^(1-s) * exp(-w / omega_c).

    Returns (value, error_estimate).  t must be positive here; callers handle
    t = 0 and the odd/even symmetry in sign of t.
    """
    a, b, in_u = initial_panels(t, omega_c)

    def f(w):
        return _ohmic_values(w, kind, s, alpha, omega_c, beta, zero_t, t)

    val, err, _ = _adaptive(f, a, b, in_u, omega_c, rtol)
    return val, err


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
    in_u = np.zeros(a.size, dtype=np.bool_)

    def f(w):
        dens = np.interp(w, omega_s, density_s)
        return _times_kernel(dens / w**2, w, kind, beta, zero_t, t)

    val, err, _ = _adaptive(f, a, b, in_u, 1.0, rtol)
    return val, err


def dephasing_multipliers(energies: np.ndarray, t: float, q1t: float,
                          q2t: float) -> np.ndarray:
    """Matrix M[j, k] = exp(-i (E_j - E_k) t - i (E_j^2 - E_k^2) q1 - (E_j - E_k)^2 q2)."""
    energies = np.ascontiguousarray(energies, dtype=np.float64)
    de = energies[:, None] - energies[None, :]
    sq = energies[:, None] ** 2 - energies[None, :] ** 2
    return np.exp(-1j * (de * t + sq * q1t) - de**2 * q2t)
