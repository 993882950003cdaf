"""Reference values of the thermal q2 for sub-ohmic baths, with mpmath.

    python3 tools/thermal_gold.py

Prints the ``THERMAL_GOLD`` rows of ``tests/test_bath.py``: for the ohmic
density D(w) = alpha w^s exp(-w) (omega_c = 1, alpha = 0.1) at beta = 2,

    q2(t) = integral_0^inf 2 D(w)/w^2 sin^2(w t / 2) coth(beta w / 2) dw.

At small s the integrand goes like alpha t^2 w^(s-1) / beta near w = 0, a
singularity that plain ``mpmath.quad`` from 0 misses by several percent.
So the integral is split at w0: below w0 the expansion
alpha t^2 / beta (w^(s-1) - w^s + O(w^(s+1))) is integrated in closed form,
and above it mpmath's tanh-sinh rule runs over one panel per decade up to
w = 1 and then over half periods pi / t of sin^2 up to w = 80, where
exp(-w) has ended the integrand, and on to infinity.  Every value is
computed at w0 = 1e-12, 1e-16 and 1e-20 and at 30 and 40 digits; the
script fails unless all six agree to 1e-15 relative.  Written with mpmath
1.3.0.
"""

from __future__ import annotations

import sys

import mpmath

ALPHA = 0.1
BETA = 2.0
CASES = [(s, t) for s in (0.03, 0.5) for t in (0.5, 1.52, 10.0)]
W0S = ("1e-12", "1e-16", "1e-20")
DIGITS = (30, 40)
AGREE = 1e-15


def q2_thermal(s: float, t: float, w0: str) -> mpmath.mpf:
    """q2 at the current mpmath precision, split at w0."""
    s, t, beta, alpha = (mpmath.mpf(x) for x in (s, t, BETA, ALPHA))
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


def main() -> int:
    print("THERMAL_GOLD = [")
    ok = True
    for s, t in CASES:
        values = []
        for digits in DIGITS:
            with mpmath.workdps(digits):
                values += [q2_thermal(s, t, w0) for w0 in W0S]
        ref = values[-1]
        spread = max(abs(v - ref) for v in values) / abs(ref)
        ok &= spread <= AGREE
        print(f"    ({s!r}, {t!r}, {BETA!r}, {mpmath.nstr(ref, 17)}),"
              f"  # spread {mpmath.nstr(spread, 2)}")
    print("]")
    if not ok:
        print(f"the w0 and digit variants disagree beyond {AGREE}", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
