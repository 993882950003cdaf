"""Reservoir spectral densities and the two dephasing integrals.

The integrals evaluated here are

    q1(t) = integral_0^inf  D(w)/w^2 * sin(w t)                    dw
    q2(t) = integral_0^inf 2 D(w)/w^2 * sin^2(w t/2) coth(beta w/2) dw

with coth -> 1 at T = 0, which is beta = inf.  A coherence between system
levels E1 and E2 (hbar = 1) then picks up the factor

    r_factor = exp(-i (E1^2 - E2^2) q1) * exp(-(E1 - E2)^2 q2),

so energies, frequencies, 1/t, and 1/beta must share one frequency unit and
the coupling strength is dimensionless in that system.  The element law
that applies these integrals to a density-matrix element, with the free
phase exp(-i dE t), is written once, in ``_element_law``: ``r_factor`` is
that law without the free phase, and :mod:`cqdeph.dynamics` writes every
element with it.

For an ohmic density, q1 at every temperature and q2 at T = 0 are
Gamma-function integrals, evaluated in closed form (``_ohmic_closed_forms``),
and the thermal q2, which has none, is integrated along the complex ray
w = r e^{i pi/4} (``kernels.quad_ohmic_grid``); a whole grid is one call of
each.  Tabulated densities keep real-axis panels that resolve the
oscillation of sin(w t), one time at a time, and stop at
``kernels.PANEL_CAP``.  Every call checks, once per grid, that the times are
finite and that rtol is finite and positive.

The closed forms that ship are held to references that do not use them:
frozen mpmath values of both integrals (``tools/zero_t_gold.py``), the
thermal ray quadrature at beta omega_c = 1e8, whose q2 lies within 4.1e-10
relative of the T = 0 one for omega_c t up to 50, and the finite-bath
oracle of :mod:`cqdeph.dynamics` in its continuum limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import IntegrabilityError, InvalidArgumentError, _require_finite

__all__ = [
    "OhmicSpectralDensity",
    "TabulatedSpectralDensity",
    "BathState",
    "q1_grid",
    "q2_grid",
    "q_grids",
    "r_factor",
]

DEFAULT_RTOL = 1e-8
# the largest ohmic exponent: Gamma(s) of the closed forms and the peak
# ~ Gamma(s - 1) 2^(s/2) of the thermal ray integrand stay far inside the
# floats (Gamma overflows from s = 171.6, the ray's peak near s = 160)
EXPONENT_MAX = 100.0
# 16 eps: the rounding bound of the closed forms (_ohmic_closed_forms)
_ROUND = 16.0 * float(np.finfo(float).eps)


@dataclass(frozen=True)
class OhmicSpectralDensity:
    """D(w) = coupling * w^exponent * omega_c^(1-exponent) * exp(-w/omega_c),
    with finite parameters and 0 < exponent <= EXPONENT_MAX."""

    coupling: float
    exponent: float = 1.0
    omega_c: float = 1.0

    def __post_init__(self):
        _require_finite(self)
        if self.coupling < 0:
            raise InvalidArgumentError(f"coupling must be >= 0, got {self.coupling}")
        if not 0 < self.exponent <= EXPONENT_MAX:
            raise InvalidArgumentError(
                f"exponent must be > 0 and <= {EXPONENT_MAX:g}, got {self.exponent}")
        if self.omega_c <= 0:
            raise InvalidArgumentError(f"omega_c must be > 0, got {self.omega_c}")

    def density(self, omega):
        omega = np.asarray(omega, dtype=float)
        out = self.coupling * omega**self.exponent * self.omega_c**(1.0 - self.exponent) \
            * np.exp(-omega / self.omega_c)
        return float(out) if out.ndim == 0 else out


@dataclass(frozen=True, eq=False)
class TabulatedSpectralDensity:
    """Sampled density, linearly interpolated, zero outside the sample range.

    Samples must be strictly increasing in omega with non-negative values.
    Integrability against 1/w^2 near zero requires either omega[0] > 0 or an
    identically-zero first segment (with linear interpolation any other
    behavior at the origin diverges); the constructor enforces this.
    """

    omega: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.omega, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if w.ndim != 1 or w.shape != v.shape or w.size < 2:
            raise InvalidArgumentError("need matching 1-d omega/value arrays with >= 2 samples")
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(v))):
            raise InvalidArgumentError("tabulated density contains non-finite entries")
        if np.any(np.diff(w) <= 0) or w[0] < 0:
            raise InvalidArgumentError("omega samples must be strictly increasing and >= 0")
        if np.any(v < 0):
            raise InvalidArgumentError("density values must be >= 0")
        if w[0] == 0.0 and not (v[0] == 0.0 and v[1] == 0.0):
            raise IntegrabilityError(
                "tabulated density is not integrable against 1/w^2 at w = 0; "
                "start the table at omega > 0 or zero out the first segment"
            )
        wr = np.array(w)
        vr = np.array(v)
        wr.flags.writeable = False
        vr.flags.writeable = False
        object.__setattr__(self, "omega", wr)
        object.__setattr__(self, "values", vr)

    def density(self, omega):
        omega = np.asarray(omega, dtype=float)
        out = np.interp(omega, self.omega, self.values, left=0.0, right=0.0)
        return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class BathState:
    """Inverse temperature beta = hbar/(k_B T), in the inverse frequency unit
    of the energies; beta = inf is the T = 0 state."""

    beta: float = math.inf

    def __post_init__(self):
        if not self.beta > 0:
            raise InvalidArgumentError(f"beta must be positive (inf for T = 0), got {self.beta}")

    @property
    def zero_temperature(self) -> bool:
        return math.isinf(self.beta)


def _ohmic_closed_forms(model: OhmicSpectralDensity, t: np.ndarray) -> np.ndarray:
    """[values, errors] of q1 and of the T = 0 q2 of the ohmic density at
    the times t > 0, rows (q1, q2): shape (2, 2, t.size).

    With x = omega_c t and L = ln(1 - i x) = log1p(x^2) / 2 - i arctan(x),
    both are Gamma-function integrals (Gradshteyn & Ryzhik 3.944):

        q1 = alpha Gamma(s) Im[expm1((1 - s) L)] / (s - 1),
        q2 = -alpha Gamma(s) Re[expm1((1 - s) L)] / (s - 1),

    with the limits alpha arctan(x) and (alpha / 2) log1p(x^2) at s = 1.
    The expm1 of z = (1 - s) L = a + ib is taken from real functions,
    Im = e^a sin b and Re = expm1(a) cos b - 2 sin^2(b / 2), so q1 keeps its
    relative accuracy as s -> 1 and t -> 0, and from x = 1e8 on Re L is
    ln omega_c + ln t, which stays a float where x^2 does not.

    The errors are a rounding bound, 16 eps |alpha Gamma(s) / (s - 1)|
    times e^a |z| + |Im| for q1 and e^a |z| + |expm1(a) cos b| +
    2 sin^2(b / 2) for q2: an error of 16 eps |z| in z moves expm1(z) by
    e^a 16 eps |z|, and each term and the prefactor round to 16 eps.  At
    small t and s -> 0 the two terms of Re cancel, and the bound of q2
    grows with them.  At s = 1 the errors are 16 eps times the values.
    """
    s, alpha = model.exponent, model.coupling
    x = model.omega_c * t
    lr = np.log(t) + math.log(model.omega_c)  # Re L from x = 1e8 on
    small = x < 1e8
    lr[small] = 0.5 * np.log1p(x[small] ** 2)
    if s == 1.0:
        values = alpha * np.stack([np.arctan(x), lr])
        return np.stack([values, _ROUND * values])
    a, b = (1.0 - s) * lr, (s - 1.0) * np.arctan(x)
    ea, em1, sin2 = np.exp(a), np.expm1(a), 2.0 * np.sin(0.5 * b) ** 2
    scale = alpha * math.gamma(s) / (s - 1.0)
    im, re = ea * np.sin(b), em1 * np.cos(b)
    errors = ea * np.hypot(a, b)
    errors = _ROUND * abs(scale) * np.stack([errors + np.abs(im), errors + np.abs(re) + sin2])
    return np.stack([scale * np.stack([im, sin2 - re]), errors])


def _dispatch(model, kinds: tuple[int, ...], beta: float, t,
              rtol: float) -> np.ndarray:
    """[values, errors] at the 1-d times t, one row per integral of
    ``kinds`` ((1,), (2,) or (1, 2)): shape (2, len(kinds), t.size)."""
    t = np.asarray(t, dtype=float)
    if t.ndim != 1:
        raise InvalidArgumentError(f"t must be a 1-d grid, got shape {t.shape}")
    if not np.isfinite(t).all():
        raise InvalidArgumentError(f"t must be finite, got {t[~np.isfinite(t)][0]}")
    if not (math.isfinite(rtol) and rtol > 0):
        raise InvalidArgumentError(f"rtol must be finite and > 0, got {rtol}")
    out = np.zeros((2, len(kinds), t.size))
    # symmetry: q1 is odd in t, q2 even; both vanish at t = 0
    on = np.flatnonzero(t)
    t_on = np.abs(t[on])
    if isinstance(model, OhmicSpectralDensity):
        if model.coupling != 0.0 and on.size:
            # q1 and the T = 0 q2 in closed form, the thermal q2 (always the
            # last kind) on the ray
            out[:, :, on] = _ohmic_closed_forms(model, t_on)[:, np.subtract(kinds, 1)]
            if kinds[-1] == 2 and not math.isinf(beta):
                out[:, -1, on] = kernels.quad_ohmic_grid(
                    model.exponent, model.coupling, model.omega_c, beta, t_on, rtol)
    elif isinstance(model, TabulatedSpectralDensity):
        for row, kind in enumerate(kinds):
            for k in on:
                out[:, row, k] = kernels.quad_tabulated(
                    kind, model.omega, model.values, beta, abs(float(t[k])), rtol)
    else:
        raise InvalidArgumentError(f"unsupported spectral density {type(model).__name__}")
    if kinds[0] == 1:
        np.negative(out[0, 0], out=out[0, 0], where=t < 0.0)
    return out


def q1_grid(model, t_grid, rtol: float = DEFAULT_RTOL) -> np.ndarray:
    """q1 at every time of the 1-d grid t_grid, one evaluation for the grid."""
    return _dispatch(model, (1,), math.inf, t_grid, rtol)[0, 0]


def q2_grid(model, state: BathState, t_grid, rtol: float = DEFAULT_RTOL) -> np.ndarray:
    """q2 at every time of the 1-d grid t_grid, one evaluation for the grid."""
    return _dispatch(model, (2,), state.beta, t_grid, rtol)[0, 0]


def q_grids(model, state: BathState, t_grid,
            rtol: float = DEFAULT_RTOL) -> tuple[np.ndarray, np.ndarray]:
    """``(values, errors)`` at every time of the 1-d grid t_grid: the rows
    (q1, q2) and their error estimates, each of shape (2, nt).  For an
    ohmic bath q1 is a closed form, and so is q2 at T = 0; the thermal q2
    is one quadrature pass for the grid."""
    values, errors = _dispatch(model, (1, 2), state.beta, t_grid, rtol)
    return values, errors


def _element_law(rho_jk: np.ndarray, e_row: np.ndarray, e_col: np.ndarray,
                 t: np.ndarray, q1_vals: np.ndarray, q2_vals: np.ndarray):
    """The closed-form law for the elements rho_jk between levels e_row and
    e_col, which broadcast against each other: the arrays phase
    (E_row^2 - E_col^2) Q1, damping (E_row - E_col)^2 Q2 and
    rho_jk exp(-i (dE t + phase) - damping), of shape t.shape + the shape
    of the elements.  The exponent is built in place in the result, so a
    call holds at most five real arrays of that shape at once."""
    de = e_row - e_col
    # damping and the result first, so that de is freed before the phase is
    # formed: the other order holds the same arrays but left a larger heap
    damping = np.multiply.outer(q2_vals, de * de)
    element = np.empty(damping.shape, dtype=complex)
    np.negative(damping, out=element.real)
    np.multiply.outer(t, de, out=element.imag)
    del de
    phase = np.multiply.outer(q1_vals, e_row ** 2 - e_col ** 2)
    element.imag += phase
    np.negative(element.imag, out=element.imag)
    np.exp(element, out=element)
    # rho_jk stays the left operand: the product is not bitwise commutative
    return phase, damping, np.multiply(rho_jk, element, out=element)


def r_factor(e1, e2, model, state: BathState, t: float,
             rtol: float = DEFAULT_RTOL) -> complex | np.ndarray:
    """Coherence multiplier exp(-i (e1^2 - e2^2) q1(t) - (e1 - e2)^2 q2(t));
    |r| <= 1.

    The energies e1 and e2 broadcast against each other: arrays give the
    array of multipliers, from one quadrature pass at t for all of them,
    and two scalars give a Python complex through the same formula:
    ``_element_law`` for rho_jk = 1 with its free phase dE t set to 0."""
    (q1t,), (q2t,) = q_grids(model, state, [float(t)], rtol)[0].tolist()
    r = _element_law(1.0, np.asarray(e1, dtype=float),
                     np.asarray(e2, dtype=float), 0.0, q1t, q2t)[2]
    return complex(r) if r.ndim == 0 else r
