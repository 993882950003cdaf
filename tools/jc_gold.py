"""Reference fidelities of the dispersive check on a small JC stage, with mpmath.

    python3 tools/jc_gold.py

Prints the ``JC_GOLD`` rows: the fidelity |<psi_jc(t)|psi_cmp(t)>|^2
that ``dynamics.dispersive_check`` returns for cutoff (3, 2), E_J = 0.4,
g_a = 0.05, phi_b = 0.1, omega_a = 1, omega_a' = 0.9, chi = 0.3, a random
state of ``numpy.random.default_rng(5)`` and 23 times on [0, 40].  Two
places hold them: all 23 rows are ``JC_GOLD`` of ``tests/test_dynamics.py``
(``test_dispersive_check_meets_the_40_digit_propagation``), and four are
``_JC_GOLD`` of ``cqdeph.validation``, the ``jc_doublet_gold`` row of the
validate scenario.

The floats that define the problem are taken from the package: the state
vector as ``StateVector.normalized`` stores it and omega_q(n_b) from
``device.qubit_frequency``.  Everything else is exact arithmetic on those
floats at the working precision.  The JC stage

    H = w_a n_a + omega_q(n_b) sigma_z / 2 - g_a (a sigma_+ + a^dag sigma_-)

is built as a dense matrix from its operator products, psi_jc(t) =
expm(-i H t) psi by mpmath's ``expm`` at every time, and psi_cmp(t) takes
the phase of the cross-Kerr level (w' - chi n)(m - i (2m + 1)) plus the
free part w_a m + omega_q(n) s / 2 of each label (s = 2 i - 1).  No part of
this uses the doublet structure that the package propagates.  The script
runs at 40 and at 60 digits and fails unless the two agree to 1e-30 at
every time.  Written with mpmath 1.3.0.
"""

from __future__ import annotations

import os
import sys

import mpmath
import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

from cqdeph.device import EffectiveParams, qubit_frequency  # noqa: E402
from cqdeph.hilbert import FockCutoff, StateVector  # noqa: E402

EFF = EffectiveParams(g_a=0.05, phi_b=0.1, phi_e=0.0, n_g_dc=0.5,
                      omega_a=1.0, omega_a_prime=0.9, chi=0.3)
E_J = 0.4
CUTOFF = FockCutoff(3, 2)
TIMES = np.linspace(0.0, 40.0, 23)
DIGITS = (40, 60)
AGREE = 1e-30


def state() -> np.ndarray:
    """The test's initial state, as the package stores it."""
    rng = np.random.default_rng(5)
    dim = CUTOFF.dim
    return StateVector.normalized(rng.normal(size=dim) + 1j * rng.normal(size=dim),
                                  CUTOFF).vec


def fidelities() -> list[mpmath.mpf]:
    """The fidelity at every time of TIMES, at the current precision."""
    labels = list(zip(*CUTOFF.numbers()))  # (m, n, i) in flat-index order
    wq = [mpmath.mpf(float(w)) for w in
          qubit_frequency(EFF, E_J, np.arange(CUTOFF.dim_b))]
    w_a, g = mpmath.mpf(EFF.omega_a), mpmath.mpf(EFF.g_a)
    w_p, chi = mpmath.mpf(EFF.omega_a_prime), mpmath.mpf(EFF.chi)
    free = [w_a * m + wq[n] * (2 * i - 1) / 2 for m, n, i in labels]
    h_cmp = [f + (w_p - chi * n) * (m - i * (2 * m + 1))
             for f, (m, n, i) in zip(free, labels)]
    dim = CUTOFF.dim
    h = mpmath.matrix(dim, dim)
    index = {lab: k for k, lab in enumerate(labels)}
    for k, (m, n, i) in enumerate(labels):
        h[k, k] = free[k]
        # a sigma_+ takes (m, n, 0) to sqrt(m) (m - 1, n, 1)
        if i == 0 and m > 0:
            j = index[(m - 1, n, 1)]
            h[j, k] = h[k, j] = -g * mpmath.sqrt(m)
    psi = mpmath.matrix([mpmath.mpc(complex(x)) for x in state()])
    out = []
    for t in TIMES:
        t = mpmath.mpf(float(t))
        psi_jc = mpmath.expm(-1j * t * h) * psi
        overlap = mpmath.fsum(mpmath.conj(psi_jc[k]) * mpmath.expj(-e * t) * psi[k]
                              for k, e in enumerate(h_cmp))
        out.append(abs(overlap) ** 2)
    return out


def main() -> int:
    runs = []
    for digits in DIGITS:
        with mpmath.workdps(digits):
            runs.append(fidelities())
    spread = max(abs(a - b) for a, b in zip(*runs))
    print("JC_GOLD = [")
    for t, f in zip(TIMES, runs[-1]):
        print(f"    ({float(t)!r}, {mpmath.nstr(f, 17)}),")
    print(f"]  # {DIGITS[0]} against {DIGITS[1]} digits: {mpmath.nstr(spread, 2)}")
    if not spread <= AGREE:
        print(f"the {DIGITS} digit runs disagree beyond {AGREE}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
