"""Reference values of the zero-temperature q1 and q2 of ohmic baths, with mpmath.

    python3 tools/zero_t_gold.py

Prints the ``ZERO_T_GOLD`` rows of ``tests/test_bath.py`` and the
``_ZERO_T_GOLD`` rows of ``cqdeph.validation``: for the ohmic density
D(w) = alpha w^s exp(-w) (omega_c = 1, alpha = 0.1) at T = 0,

    q1(t) = integral_0^inf D(w)/w^2 sin(w t) dw = Im J,
    q2(t) = integral_0^inf 2 D(w)/w^2 sin^2(w t / 2) dw = -Re J,
    J(t) = integral_0^inf alpha w^(s-2) (e^(-w (1 - i t)) - e^(-w)) dw.

The integrand of J is analytic in the open first quadrant and decays there,
so J is integrated along the ray w = r e^(i pi/4), where nothing
oscillates.  Below r0 its power series in w, sum over n >= 1 of
(-w)^n ((1 - i t)^n - 1) / n!, is integrated term by term in closed form;
above r0 mpmath's tanh-sinh rule runs over panels that end at every decade
of r, at the first 40 units of r t, where e^(i w t) turns and decays, and at
every doubling of r up to 1024, and on to infinity.  At large exponents
the imaginary part of the integrand cancels over the ray by up to 95
digits (s = 20, t = 1e5), so each value is computed at 40 and at 60 digits
beyond those that cancel, and at r0 = 1e-12, 1e-16 and 1e-20,
and the script fails unless all six agree with one another and with
alpha Gamma(s - 1) ((1 - i t)^(1 - s) - 1) (-alpha log(1 - i t) at s = 1),
the Gamma-function integral of Gradshteyn & Ryzhik 3.944 evaluated by
mpmath, to 1e-15 relative.  Written with mpmath 1.3.0.
"""

from __future__ import annotations

import sys

import mpmath

ALPHA = 0.1
# the times of test_other_exponents_within_reported_error at each of its
# exponents, the points where the ray quadrature of the parent code
# missed: s = 20 at omega_c t = 2, s = 3 at omega_c t = 5.6e5, and the ends
# and middle of the range of the s = 1 closed-form tests
TEST_CASES = ([(s, t) for s in (1e-4, 0.01, 0.03, 0.5, 1.0, 2.0, 3.0, 20.0)
               for t in (10.0, 400.0, 1e5)]
              + [(20.0, 2.0), (3.0, 5.6e5)]
              + [(1.0, t) for t in (1e-3, 0.5, 1e6)])
# the q1 and q2 values of validation's ohmic_closed_form_q1q2 check
VALIDATE_EXPONENTS = (0.5, 1.0, 3.0, 20.0)
VALIDATE_TIMES = (0.02, 50.0)
R0S = ("1e-12", "1e-16", "1e-20")
DIGITS = (40, 60)  # beyond the digits that the ray integrand cancels
AGREE = 1e-15


def j_ray(s: float, t: float, r0: str) -> mpmath.mpc:
    """J at the current mpmath precision, along the ray, split at r0."""
    s, t, alpha = mpmath.mpf(s), mpmath.mpf(t), mpmath.mpf(ALPHA)
    rot = mpmath.expjpi(mpmath.mpf(1) / 4)
    c = 1 - 1j * t
    w0 = mpmath.mpf(r0) * rot
    head, n, term = mpmath.mpc(0), 1, mpmath.mpc(1)
    while True:
        # term = (-w0)^n / n!, integrated against w^(s-2): w0^(s-1) / (s-1+n)
        term *= -w0 / n
        piece = term * (c ** n - 1) * w0 ** (s - 1) / (s - 1 + n)
        head += piece
        if abs(piece) <= mpmath.eps * abs(head):
            break
        n += 1

    def f(r):
        w = r * rot
        return w ** (s - 2) * (mpmath.exp(-w * c) - mpmath.exp(-w)) * rot

    # decades of r from r0, the first 40 units of r t, where e^(i w t) turns
    # and decays, and doublings of r up to 1024, where e^(-w) has ended J
    points = {mpmath.mpf(r0) * 10 ** k for k in range(40)}
    points |= {k / t for k in range(1, 41)} | {mpmath.mpf(2) ** k for k in range(11)}
    points = sorted(p for p in points if mpmath.mpf(r0) <= p <= 1024) + [mpmath.inf]
    return alpha * (head + mpmath.quad(f, points))


def j_gamma(s: float, t: float) -> mpmath.mpc:
    """J from the Gamma-function integral, at the current precision."""
    s, t, alpha = mpmath.mpf(s), mpmath.mpf(t), mpmath.mpf(ALPHA)
    c = 1 - 1j * t
    if s == 1:
        return -alpha * mpmath.log(c)
    return alpha * mpmath.gamma(s - 1) * (c ** (1 - s) - 1)


def reference(s: float, t: float) -> tuple[mpmath.mpc, float]:
    """J at the highest precision and the largest relative spread of the
    six ray variants and the Gamma form, per part (q1 and q2).  The
    integrand has the size of |J| on the ray, so log10 |J| / min(|Re J|,
    |Im J|) digits cancel, judged from the Gamma form, and the working
    precisions are DIGITS beyond those."""
    with mpmath.workdps(30):
        j = j_gamma(s, t)
        lost = max(0, int(mpmath.ceil(mpmath.log10(abs(j) / min(abs(j.real), abs(j.imag))))))
    values = []
    for digits in DIGITS:
        with mpmath.workdps(digits + lost):
            values += [j_ray(s, t, r0) for r0 in R0S]
    with mpmath.workdps(DIGITS[-1] + lost):
        values.append(j_gamma(s, t))
    ref = values[-2]
    spread = max(max(abs((v - ref).imag) / abs(ref.imag),
                     abs((v - ref).real) / abs(ref.real)) for v in values)
    return ref, spread


def main() -> int:
    ok = True
    print("ZERO_T_GOLD = [")
    for s, t in TEST_CASES:
        ref, spread = reference(s, t)
        ok &= spread <= AGREE
        print(f"    ({s!r}, {t!r}, {mpmath.nstr(ref.imag, 17)}, "
              f"{mpmath.nstr(-ref.real, 17)}),  # spread {mpmath.nstr(spread, 2)}")
    print("]\n_ZERO_T_GOLD = {")
    for s in VALIDATE_EXPONENTS:
        q1s, q2s = [], []
        for t in VALIDATE_TIMES:
            ref, spread = reference(s, t)
            ok &= spread <= AGREE
            q1s.append(mpmath.nstr(ref.imag, 17))
            q2s.append(mpmath.nstr(-ref.real, 17))
        print(f"    {s!r}: (({', '.join(q1s)}),\n{' ' * (len(repr(s)) + 7)}"
              f"({', '.join(q2s)})),")
    print("}")
    if not ok:
        print(f"the r0, digit and Gamma-form variants disagree beyond {AGREE}",
              file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
