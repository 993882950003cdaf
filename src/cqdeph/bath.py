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

For an ohmic density both integrals are closed forms at every
temperature, and a whole grid is one evaluation: q1, and q2 at T = 0, are
Gamma-function integrals (``_ohmic_closed_forms``), and the thermal q2 is
that T = 0 form plus its images, the same form at the cutoffs
omega_c / (1 + k beta omega_c), k >= 1, summed term by term and closed by
Euler-Maclaurin (``_thermal_images``).  Their errors are rounding and
truncation bounds; rtol moves no ohmic value.  Tabulated densities keep
real-axis panels that resolve the oscillation of sin(w t) and end on the
table's samples, one time at a time, and stop at ``kernels.PANEL_CAP``; a
tabulated integral whose reported error exceeds rtol |q| at some time of
the grid warns once, naming the worst time.  Every call checks, once per grid, that the times
are finite and that rtol is finite and positive.

The closed forms that ship are held to references that do not use them:
frozen mpmath values of both integrals at T = 0 (``tools/zero_t_gold.py``)
and of the thermal q2 along the real axis and from its Gamma-function
product at s = 1 (``tools/thermal_gold.py``), and the finite-bath oracle
of :mod:`cqdeph.dynamics` in its continuum limit.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import IntegrabilityError, InvalidArgumentError, NumericsError, _require_finite

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
# the largest ohmic exponent: Gamma(s) of the closed forms and the
# Gamma(s + 14) of the images' Euler-Maclaurin terms stay far inside the
# floats (Gamma overflows from s = 171.6)
EXPONENT_MAX = 100.0
# 16 eps: the rounding bound of the closed forms (_ohmic_closed_forms)
_EPS = float(np.finfo(float).eps)
_ROUND = 16.0 * _EPS


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


def _ln_one_minus_ix(x: np.ndarray, ln_x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Re L and -Im L of L = ln(1 - i x) at x >= 0: log1p(x^2) / 2, or ln_x,
    which it overwrites, from x = 1e8 on, where x^2 may leave the floats;
    and arctan(x)."""
    small = x < 1e8
    ln_x[small] = 0.5 * np.log1p(x[small] ** 2)
    return ln_x, np.arctan(x)


def _expm1_nu_l(nu, lr: np.ndarray, at: np.ndarray):
    """Re and Im of expm1(nu L) for L = lr - i at (``_ln_one_minus_ix``),
    with nu broadcast against lr, and the sizes that bound their rounding.

    With z = nu L = a + ib, Im = e^a sin b and Re = expm1(a) cos b -
    2 sin^2(b / 2), from real functions, so both keep their relative
    accuracy as nu L goes to 0.  An error of 16 eps in a and in b moves Re
    by at most 16 eps e^a (|a| + |b sin b|) and Im by 16 eps e^a
    (|a sin b| + |b|), and each term rounds to 16 eps, so 16 eps times the
    third value, e^a (|a| + |b sin b|) + |expm1(a) cos b| + 2 sin^2(b / 2),
    bounds the rounding of Re, and 16 eps times the fourth, e^a (|a sin b|
    + |b|) + |Im|, that of Im.  For 0 < nu < 1 the two terms of Re cancel,
    by a factor near 1 / (1 - nu) at small x, and the bound of Re grows with
    them; ``_re_expm1`` avoids that for nu above 1/2."""
    a, b = nu * lr, -nu * at
    ea, em1, sin2, sin_b = np.exp(a), np.expm1(a), 2.0 * np.sin(0.5 * b) ** 2, np.sin(b)
    em1 *= np.cos(b)
    im = ea * sin_b
    a, b = np.abs(a), np.abs(b)
    return (em1 - sin2, im, ea * (a + b * np.abs(sin_b)) + np.abs(em1) + sin2,
            ea * (a * np.abs(sin_b) + b) + np.abs(im))


def _re_expm1(s: float, x: np.ndarray, lr: np.ndarray, at: np.ndarray,
              re: np.ndarray, size: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Re expm1((1 - s) L) and the size that bounds its rounding, as
    ``_expm1_nu_l`` gives them (re, size) for L = ln(1 - i x).

    Below s = 1/2 they come instead from the exact identity
    Re expm1((1 - s) L) = Re[(1 - i x) expm1(-s L)] = R + x I, with R and I
    the parts of expm1(-s L): expm1((1 - s) L) cancels to O(s) at every x,
    and R + x I by at most a factor 2.  The rounding of R and I is bounded
    by 16 eps times their sizes, and x, the product and the sum add at most
    3 eps (|R| + x |I|) to it, so 16 eps times 1.25 (size R + x size I)
    bounds that of R + x I.  From s = 1/2 on, re and size are returned as
    given, so those exponents keep their values bit for bit."""
    if s >= 0.5:
        return re, size
    r, i, r_size, i_size = _expm1_nu_l(-s, lr, at)
    return r + x * i, 1.25 * (r_size + x * i_size)


def _ohmic_closed_forms(model: OhmicSpectralDensity, t: np.ndarray) -> np.ndarray:
    """[values, errors] of q1 and of the T = 0 q2 of the ohmic density at
    the times t > 0, rows (q1, q2): shape (2, 2, t.size).

    With x = omega_c t and L = ln(1 - i x) = log1p(x^2) / 2 - i arctan(x),
    both are Gamma-function integrals (Gradshteyn & Ryzhik 3.944):

        q1 = alpha Gamma(s) Im[expm1((1 - s) L)] / (s - 1),
        q2 = -alpha Gamma(s) Re[expm1((1 - s) L)] / (s - 1),

    with the limits alpha arctan(x) and (alpha / 2) log1p(x^2) at s = 1.
    ``_expm1_nu_l`` takes expm1 from real functions, so q1 keeps its
    relative accuracy as s -> 1 and t -> 0, and from x = 1e8 on Re L is
    ln omega_c + ln t, which stays a float where x^2 does not.  Below
    s = 1/2 the real part comes from ``_re_expm1``, which keeps q2's
    relative accuracy as s -> 0.

    The errors are its rounding bounds times 16 eps |alpha Gamma(s) /
    (s - 1)|; at s = 1 they are 16 eps times the values.
    """
    s, alpha, x = model.exponent, model.coupling, model.omega_c * t
    lr, at = _ln_one_minus_ix(x, np.log(t) + math.log(model.omega_c))
    if s == 1.0:
        values = alpha * np.stack([at, lr])
        return np.stack([values, _ROUND * values])
    re, im, re_size, im_size = _expm1_nu_l(1.0 - s, lr, at)
    re, re_size = _re_expm1(s, x, lr, at, re, re_size)
    scale = alpha * math.gamma(s) / (s - 1.0)
    errors = _ROUND * abs(scale) * np.stack([im_size, re_size])
    return np.stack([scale * np.stack([im, -re]), errors])


def _direct_images(s: float) -> int:
    """N, the images k = 1 .. N - 1 that ``_thermal_images`` sums term by
    term; from k = N on the Euler-Maclaurin sum takes over."""
    return max(10, math.ceil(2.0 * s))


# the Euler-Maclaurin sum: the derivative orders m = 2j - 1 of its
# correction terms, j = 1 .. 8, and B_2j / (2j)!
_ORDERS = np.arange(1.0, 16.0, 2.0)
_BERNOULLI = np.array([1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6,
                       -3617 / 510]) / np.array([math.factorial(j) for j in range(2, 17, 2)])
# (image, time) pairs that _thermal_images evaluates at once
_BLOCK = 1 << 14


def _thermal_images(model: OhmicSpectralDensity, beta: float, t: np.ndarray) -> np.ndarray:
    """[values, errors] of what a finite temperature adds to the T = 0 q2
    of the ohmic density at the times t > 0: shape (2, t.size).

    coth(beta w / 2) = 1 + 2 sum_{k >= 1} e^{-k beta w} makes the thermal
    q2 a sum of T = 0 integrals at the cutoffs omega_c / c_k, its images.
    In units of omega_c, with x = omega_c t, h = beta omega_c and
    c_k = 1 + k h,

        q2 = alpha [G(c_0) + 2 sum_{k >= 1} G(c_k)],
        G(c) = int w^(s-2) e^{-c w} (1 - cos w x) dw = c^(1-s) q2_0(x / c) / alpha,

    with q2_0 the T = 0 q2 of ``_ohmic_closed_forms``, whose value is the
    k = 0 term.  At s = 1 this is the Gamma-function product
    alpha [log1p(x^2) / 2 + 2 ln Gamma(b) - 2 Re ln Gamma(b + i t / beta)],
    b = 1 + 1 / h (Abramowitz & Stegun 6.1.25; Palma, Suominen & Ekert,
    Proc. R. Soc. A 452, 567 (1996)).  The images k < N (``_direct_images``)
    are summed term by term, and those from N on by Euler-Maclaurin with
    the Bernoulli numbers up to B_16, every piece of it closed-form:

        G^(m)(c) = (-1)^m Gamma(s - 1 + m) [c^(1-s-m) - Re (c - ix)^(1-s-m)],
        int_c^inf G = Gamma(s - 1) / (2 - s) [Re (c - ix)^(2-s) - c^(2-s)],

    the integral written as -Gamma(s) c^(2-s) Re[(1 - ix/c) expm1((1 - s) L)]
    / ((2 - s)(1 - s)) below s = 1.5, with the limit -c Re[(1 - ix/c) L] at
    s = 1, and as Gamma(s - 1) c^(2-s) Re[expm1((2 - s) L)] / (2 - s) from
    there, with the limit Re L at s = 2; L = ln(1 - ix/c).  Every expm1
    goes through ``_expm1_nu_l``.  No quadrature and no tolerance: the
    error is the rounding bound of every term, 16 eps plus N eps for the
    sum times their rounding sizes, and the Euler-Maclaurin remainder,
    which G^(16) >= 0 bounds by the size of the last correction term.  The
    sum is taken in blocks of times, so memory does not grow with the
    grid.  beta omega_c is capped at 1e300, where the images are below
    rounding.  A time whose value leaves the floats (at s < 1 q2 grows
    like t^(2-s) / beta) is a NumericsError that names it.
    """
    s = model.exponent
    n, h = _direct_images(s), min(beta * model.omega_c, 1e300)
    if not h > 0.0:
        raise NumericsError(f"beta omega_c = {beta:g} x {model.omega_c:g} underflows to 0")
    c = 1.0 + h * np.arange(1.0, n + 1.0)
    ln_x = np.log(t) + math.log(model.omega_c)
    out = np.empty((2, t.size))
    step = max(1, _BLOCK // n)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(0, t.size, step):
            k = slice(i, i + step)
            out[:, k] = _image_sum(s, h, c, model.omega_c * t[k], ln_x[k])
    out *= model.coupling
    bad = ~np.isfinite(out).all(axis=0)
    if bad.any():
        raise NumericsError(
            f"the thermal q2 at t = {t[bad][0]:g} is not finite: it leaves the "
            f"floats (at exponent {s:g} it grows like t^{2.0 - s:g} / beta)")
    return out


def _image_sum(s: float, h: float, c: np.ndarray, x: np.ndarray,
               ln_x: np.ndarray) -> np.ndarray:
    """[values, errors] of 2 sum_{k >= 1} G(c_k) (``_thermal_images``) at the
    times x = omega_c t, from the cutoffs c = c_1 .. c_N."""
    y = x / c[:, None]
    lr, at = _ln_one_minus_ix(y, ln_x - np.log(c)[:, None])
    cn, yn, lrn, atn = c[-1], y[-1], lr[-1], at[-1]
    # G(c_k) and its rounding size
    if s == 1.0:
        g, g_mass = lr, lr
        tail, tail_mass = cn * (yn * atn - lrn), cn * (yn * atn + lrn)
    else:
        re, im, mass, im_size = _expm1_nu_l(1.0 - s, lr, at)
        scale = (math.gamma(s) / (s - 1.0)) * c[:, None] ** (1.0 - s)
        re_g, mass_g = _re_expm1(s, y, lr, at, re, mass)
        g, g_mass = -scale * re_g, np.abs(scale) * mass_g
        if s < 1.5:
            pre = scale[-1] * cn / (2.0 - s)
            tail = pre * (re[-1] + yn * im[-1])
            tail_mass = abs(pre) * (mass[-1] + yn * im_size[-1])
        elif s == 2.0:
            tail, tail_mass = lrn, lrn
        else:
            re2, _, mass2, _ = _expm1_nu_l(2.0 - s, lrn, atn)
            pre = math.gamma(s - 1.0) * cn ** (2.0 - s) / (2.0 - s)
            tail, tail_mass = pre * re2, abs(pre) * mass2
    # -sum_j B_2j / (2j)! f^(2j-1)(N), f(k) = G(1 + k h), f^(m) = h^m G^(m)
    re_m, _, mass_m, _ = _expm1_nu_l((1.0 - s - _ORDERS)[:, None], lrn, atn)
    coef = _BERNOULLI * np.exp(_ORDERS * math.log(h / cn) + (1.0 - s) * math.log(cn)
                               + np.array([math.lgamma(s - 1.0 + m) for m in _ORDERS]))
    # G(c_N) weighs 1/2 in the Euler-Maclaurin sum
    value = 2.0 * (g.sum(axis=0) + tail / h - coef @ re_m) - g[-1]
    mass = 2.0 * (g_mass.sum(axis=0) + tail_mass / h + np.abs(coef) @ mass_m) - g_mass[-1]
    remainder = 2.0 * np.abs(coef[-1] * re_m[-1])
    return np.stack([value, (_ROUND + c.size * _EPS) * mass + remainder])


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
            # q1 and the T = 0 q2 in closed form; the thermal q2 (always the
            # last kind) adds its images
            out[:, :, on] = _ohmic_closed_forms(model, t_on)[:, np.subtract(kinds, 1)]
            if kinds[-1] == 2 and not math.isinf(beta):
                out[:, -1, on] += _thermal_images(model, beta, t_on)
    elif isinstance(model, TabulatedSpectralDensity):
        for row, kind in enumerate(kinds):
            for k in on:
                out[:, row, k] = kernels.quad_tabulated(
                    kind, model.omega, model.values, beta, abs(float(t[k])), rtol)
            _warn_missed_rtol(kind, out[:, row, on], t_on, rtol)
    else:
        raise InvalidArgumentError(f"unsupported spectral density {type(model).__name__}")
    if kinds[0] == 1:
        np.negative(out[0, 0], out=out[0, 0], where=t < 0.0)
    return out


def _warn_missed_rtol(kind: int, q: np.ndarray, t: np.ndarray, rtol: float) -> None:
    """Warn the caller of a grid function, once per integral, when the
    reported error of the tabulated q1 or q2 (``kind``), the rows (values,
    errors) q, exceeds rtol |q| at any time of the grid, naming the time
    where it exceeds it most.  The ohmic integrals are not checked: they
    take no tolerance, and their errors are rounding and truncation bounds.
    A value that is 0 with a nonzero error reads an infinite ratio."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(q[1] > 0.0, q[1] / (rtol * np.abs(q[0])), 0.0)
    if ratio.size and ratio.max() > 1.0:
        k = int(np.argmax(ratio))
        warnings.warn(f"tabulated q{kind} misses its tolerance: the reported error is "
                      f"{ratio[k]:.3g} x rtol |q{kind}| at t = {t[k]:.6g} (rtol = "
                      f"{rtol:.3g}), the worst time of {t.size}", stacklevel=4)


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
    ohmic bath both are closed forms, one evaluation for the grid, and the
    thermal q2 adds one image sum; a tabulated bath takes a quadrature per
    time."""
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
    array of multipliers, from one evaluation of q1 and q2 at t for all of them,
    and two scalars give a Python complex through the same formula:
    ``_element_law`` for rho_jk = 1 with its free phase dE t set to 0."""
    (q1t,), (q2t,) = q_grids(model, state, [float(t)], rtol)[0].tolist()
    r = _element_law(1.0, np.asarray(e1, dtype=float),
                     np.asarray(e2, dtype=float), 0.0, q1t, q2t)[2]
    return complex(r) if r.ndim == 0 else r
