"""Reservoir spectral densities and the two dephasing integrals.

The integrals evaluated here are

    q1(t) = integral_0^inf  D(w)/w^2 * sin(w t)                    dw
    q2(t) = integral_0^inf 2 D(w)/w^2 * sin^2(w t/2) coth(beta w/2) dw

with coth -> 1 at T = 0, which is beta = inf.  A coherence between system
levels E1 and E2 (hbar = 1) then picks up the factor

    r_factor = exp(-i (E1^2 - E2^2) q1) * exp(-(E1 - E2)^2 q2),

so energies, frequencies, 1/t, and 1/beta must share one frequency unit and
the coupling strength is dimensionless in that system.

Ohmic densities are integrated along the complex ray w = r e^{i pi/4}
(``kernels.quad_ohmic_grid``), whose cost barely grows with t, so they have
no limit on t.  A whole grid is one kernel call: the times share the ray
nodes and the t-independent part of the integrand, and ``q_grids`` takes
q1 and q2 from one pass that also shares expm1(i w t).  Tabulated
densities keep real-axis panels that resolve the oscillation of sin(w t),
one time at a time, and stop at ``kernels.PANEL_CAP``.  Every call checks, once per grid, that the times are
finite and that rtol is finite and positive.

Closed forms (arctan / log for the strictly ohmic case) are deliberately NOT
used here: the quadrature is the product, and tests compare it against those
forms independently.
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


@dataclass(frozen=True)
class OhmicSpectralDensity:
    """D(w) = coupling * w^exponent * omega_c^(1-exponent) * exp(-w/omega_c),
    with finite parameters."""

    coupling: float
    exponent: float = 1.0
    omega_c: float = 1.0

    def __post_init__(self):
        _require_finite(self)
        if self.coupling < 0:
            raise InvalidArgumentError(f"coupling must be >= 0, got {self.coupling}")
        if self.exponent <= 0:
            raise InvalidArgumentError(f"exponent must be > 0, got {self.exponent}")
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
    if isinstance(model, OhmicSpectralDensity):
        if model.coupling != 0.0 and on.size:
            out[:, :, on] = kernels.quad_ohmic_grid(
                kinds, model.exponent, model.coupling, model.omega_c, beta,
                np.abs(t[on]), rtol)
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
    """q1 at every time of the 1-d grid t_grid, one quadrature for the grid."""
    return _dispatch(model, (1,), math.inf, t_grid, rtol)[0, 0]


def q2_grid(model, state: BathState, t_grid, rtol: float = DEFAULT_RTOL) -> np.ndarray:
    """q2 at every time of the 1-d grid t_grid, one quadrature for the grid."""
    return _dispatch(model, (2,), state.beta, t_grid, rtol)[0, 0]


def q_grids(model, state: BathState, t_grid,
            rtol: float = DEFAULT_RTOL) -> tuple[np.ndarray, np.ndarray]:
    """``(values, errors)`` at every time of the 1-d grid t_grid: the rows
    (q1, q2) and their quadrature error estimates, each of shape (2, nt).
    For an ohmic bath one quadrature pass computes both integrals."""
    values, errors = _dispatch(model, (1, 2), state.beta, t_grid, rtol)
    return values, errors


def r_factor(e1, e2, model, state: BathState, t: float,
             rtol: float = DEFAULT_RTOL) -> complex | np.ndarray:
    """Coherence multiplier exp(-i (e1^2 - e2^2) q1(t) - (e1 - e2)^2 q2(t));
    |r| <= 1.

    The energies e1 and e2 broadcast against each other: arrays give the
    array of multipliers, from one quadrature pass at t for all of them,
    and two scalars give a Python complex through the same formula."""
    (q1t,), (q2t,) = q_grids(model, state, [float(t)], rtol)[0].tolist()
    e1 = np.asarray(e1, dtype=float)
    e2 = np.asarray(e2, dtype=float)
    de = e1 - e2
    r = np.empty(de.shape, dtype=complex)
    r.real = -(de * de * q2t)
    r.imag = -((e1 * e1 - e2 * e2) * q1t)
    np.exp(r, out=r)
    return complex(r) if r.ndim == 0 else r
