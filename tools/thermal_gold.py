"""Reference values of the thermal q2 of ohmic baths, with mpmath.

    python3 tools/thermal_gold.py

Prints the ``THERMAL_GOLD`` and ``LOG_GAMMA_GOLD`` rows of
``tests/test_bath.py``; the ``LOG_GAMMA_GOLD`` rows at t = 0.5, 10 and 1e6
are also the ``_LOG_GAMMA_GOLD`` values of ``cqdeph.validation``.  For
the ohmic density D(w) = alpha w^s exp(-w) (omega_c = 1, alpha = 0.1) at
inverse temperature beta,

    q2(t) = integral_0^inf 2 D(w)/w^2 sin^2(w t / 2) coth(beta w / 2) dw.

``THERMAL_GOLD`` integrates along the real axis, at beta = 2 and
exponents 0.03, 0.5, 3 and 20, and at beta = 1e8, t = 0.01 and exponents
1e-4 and 0.01.  At small s the integrand goes like
alpha t^2 w^(s-1) / beta near w = 0, a singularity that plain
``mpmath.quad`` from 0 misses by several percent.  So the integral is split
at w0: below w0 the expansion alpha t^2 / beta (w^(s-1) - w^s + O(w^(s+1)))
is integrated in closed form, and above it mpmath's tanh-sinh rule runs
over one panel per decade up to w = 1 and then over half periods pi / t of
sin^2 up to w = 80, where exp(-w) has ended the integrand, and on to
infinity.  Every value is computed at w0 = 1e-12, 1e-16 and 1e-20 and at
30 and 40 digits.

``LOG_GAMMA_GOLD`` holds the linear bath (s = 1) at beta = 0.01, 1 and 100
and t up to 1e9, from the Gamma-function product of Abramowitz & Stegun
6.1.25, with no quadrature:

    q2 = alpha [log1p(t^2) / 2 + 2 ln Gamma(b) - 2 Re ln Gamma(b + i t / beta)],

b = 1 + 1 / beta, evaluated at 40 and 60 digits, since ln Gamma(b) and
Re ln Gamma(b + i t / beta) cancel to about (t / beta)^2 at small t.

The script fails unless the variants of every value agree to 1e-15
relative.  Written with mpmath 1.3.0.
"""

from __future__ import annotations

import sys

import mpmath

ALPHA = 0.1
CASES = ([(s, t, 2.0) for s in (0.03, 0.5, 3.0, 20.0) for t in (0.5, 1.52, 10.0)]
         # nearly cold and far sub-ohmic, where Re expm1((1 - s) L) cancels
         + [(s, 0.01, 1e8) for s in (1e-4, 0.01)])
LOG_GAMMA_CASES = [(t, beta) for beta in (0.01, 1.0, 100.0)
                   for t in (1e-3, 0.5, 10.0, 1e3, 1e6, 1e9)]
W0S = ("1e-12", "1e-16", "1e-20")
DIGITS = (30, 40)
LOG_GAMMA_DIGITS = (40, 60)
AGREE = 1e-15


def q2_thermal(s: float, t: float, beta: float, w0: str) -> mpmath.mpf:
    """q2 at the current mpmath precision, along the real axis, split at w0."""
    s, t, beta, alpha = (mpmath.mpf(x) for x in (s, t, beta, ALPHA))
    w0 = mpmath.mpf(w0)
    # 2 sin^2(wt/2) coth(beta w/2) w^(s-2) e^-w = t^2/beta w^(s-1) (1 - w + ...)
    head = alpha * t * t / beta * (w0 ** s / s - w0 ** (s + 1) / (s + 1))

    def f(w):
        return (2 * alpha * w ** (s - 2) * mpmath.exp(-w)
                * mpmath.sin(w * t / 2) ** 2 * mpmath.coth(beta * w / 2))

    points = [w0]
    while points[-1] * 10 < 1:
        points.append(points[-1] * 10)
    step = mpmath.pi / t
    w = mpmath.mpf(1)
    while w < 80:
        points.append(w)
        w += step
    points += [mpmath.mpf(80), mpmath.inf]
    return head + mpmath.quad(f, points)


def q2_log_gamma(t: float, beta: float) -> mpmath.mpf:
    """q2 of the linear bath from the Gamma-function product, at the current
    mpmath precision."""
    t, beta, alpha = (mpmath.mpf(x) for x in (t, beta, ALPHA))
    b = 1 + 1 / beta
    return alpha * (mpmath.log1p(t * t) / 2 + 2 * mpmath.loggamma(b)
                    - 2 * mpmath.re(mpmath.loggamma(b + 1j * t / beta)))


def _row(values: list) -> tuple[mpmath.mpf, mpmath.mpf]:
    """The value at the highest precision and the relative spread of all."""
    ref = values[-1]
    return ref, max(abs(v - ref) for v in values) / abs(ref)


def main() -> int:
    ok = True
    print("THERMAL_GOLD = [")
    for s, t, beta in CASES:
        values = []
        for digits in DIGITS:
            with mpmath.workdps(digits):
                values += [q2_thermal(s, t, beta, w0) for w0 in W0S]
        ref, spread = _row(values)
        ok &= spread <= AGREE
        print(f"    ({s!r}, {t!r}, {beta!r}, {mpmath.nstr(ref, 17)}),"
              f"  # spread {mpmath.nstr(spread, 2)}")
    print("]\nLOG_GAMMA_GOLD = [")
    for t, beta in LOG_GAMMA_CASES:
        values = []
        for digits in LOG_GAMMA_DIGITS:
            with mpmath.workdps(digits):
                values.append(q2_log_gamma(t, beta))
        ref, spread = _row(values)
        ok &= spread <= AGREE
        print(f"    ({t!r}, {beta!r}, {mpmath.nstr(ref, 17)}),"
              f"  # spread {mpmath.nstr(spread, 2)}")
    print("]")
    if not ok:
        print(f"the variants disagree beyond {AGREE}", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
