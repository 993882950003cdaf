"""Self-consistency suite behind the ``validate`` scenario.

Each check restates one documented invariant of the hilbert / device /
hamiltonians / spectrum / bath / dynamics modules as a measured residual
held against a fixed tolerance.  All inputs are frozen (seeded generators,
fixed parameter sets), so repeated runs produce identical rows; the CLI
serializes them into the validate report and maps any failure onto its
validation exit code.

Checks that drive builders outside their comfort zone on purpose (random
parameter draws deep in the non-dispersive regime) silence the advisory
warnings those builders emit; the warning behavior itself is covered by the
unit tests, not here.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import bath, spectrum
from .device import (
    DeviceParams,
    EffectiveParams,
    cross_kerr,
    cross_phase,
    dressed_mode_frequency,
    qubit_frequency,
)
from .dynamics import (
    FiniteBathSpec,
    dispersive_check,
    evolve_reduced,
    finite_bath_oracle,
)
from .errors import InvalidArgumentError
from .hamiltonians import (
    build_diagonal,
    build_dispersive,
    build_full,
    build_jc,
    build_quadratic,
    build_rotated,
    frame_free_part,
)
from .hilbert import (
    SIGMA_Z,
    FockCutoff,
    OperatorMatrix,
    StateVector,
    TensorBasisLabel,
    annihilation,
    number_operator,
    partial_trace,
    tensor3,
)

__all__ = ["CheckResult", "CHECK_NAMES", "run_all"]


@dataclass(frozen=True)
class CheckResult:
    """One validate row: measured residual against its tolerance."""

    name: str
    residual: float
    tolerance: float
    passed: bool
    detail: str = ""


# what a check measures: (residual, tolerance, detail)
_Measured = tuple[float, float, str]


def _row(name: str, residual: float, tolerance: float, detail: str) -> CheckResult:
    residual = float(residual)
    return CheckResult(
        name=name,
        residual=residual,
        tolerance=tolerance,
        passed=math.isfinite(residual) and residual <= tolerance,
        detail=detail,
    )


def _kerr_effective(omega_a_prime: float, chi: float) -> EffectiveParams:
    # spectrum and dephasing dynamics read only omega_a_prime and chi
    return EffectiveParams(g_a=0.1, phi_b=0.1, phi_e=0.0, n_g_dc=0.5,
                           omega_a=1.0, omega_a_prime=omega_a_prime, chi=chi)


def _natural(phi_b: float = 0.1, g_a: float = 0.3, e_j: float = 0.8,
             omega_a: float = 1.0) -> tuple[DeviceParams, EffectiveParams]:
    """hbar = 1 reference circuit used across the suite."""
    p = DeviceParams(E_C=0.25, E_J_max=e_j, omega_a=omega_a, omega_b=1.3,
                     L_a=1.0, L_b=1.0, c_cap=1.0, l_ind=1.0, C_g=1.0, C_a=1.0,
                     V_g_dc=1.0, S_loop=1.0, d_dist=1.0, Phi_e=0.0,
                     hbar=1.0, e_charge=1.0, mu_0=1.0, Phi_0=1.0)
    eff = EffectiveParams(
        g_a=g_a, phi_b=phi_b, phi_e=0.0, n_g_dc=0.5, omega_a=omega_a,
        omega_a_prime=dressed_mode_frequency(g_a, phi_b, e_j, omega_a),
        chi=cross_kerr(g_a, phi_b, e_j, omega_a),
    )
    return p, eff


def _random_density(dim: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


def _probe_state(cutoff: FockCutoff, seed: int = 7) -> OperatorMatrix:
    rng = np.random.default_rng(seed)
    amp = rng.normal(size=cutoff.dim) + 1j * rng.normal(size=cutoff.dim)
    return StateVector.normalized(amp, cutoff).density()


# ---------------------------------------------------------------- hilbert

def _check_ladder_number() -> _Measured:
    n_max = 10
    a = annihilation(n_max).mat
    resid = np.max(np.abs(a.conj().T @ a - np.diag(np.arange(n_max + 1.0))))
    return (resid, 1e-12,
            "a^dag a equals diag(0..n_max) on the whole truncated space")


def _check_ladder_commutator() -> _Measured:
    n_max = 10
    a = annihilation(n_max).mat
    comm = a @ a.conj().T - a.conj().T @ a
    resid = np.max(np.abs(comm[:n_max, :n_max] - np.eye(n_max)))
    corner = comm[n_max, n_max].real
    return (resid, 1e-12,
            f"[a, a^dag] = 1 below the top level; corner entry {corner:g} "
            "is the unavoidable truncation signature (-n_max)")


def _check_tensor_index() -> _Measured:
    cut = FockCutoff(3, 4)
    rng = np.random.default_rng(21)
    dq = np.array([2.0, 5.0])
    da = 3.0 + np.arange(cut.dim_a)
    db = 7.0 + np.arange(cut.dim_b)
    t3 = tensor3(np.diag(dq), np.diag(da), np.diag(db)).mat
    worst = 0.0
    for _ in range(20):
        lab = TensorBasisLabel(m=int(rng.integers(0, cut.dim_a)),
                               n=int(rng.integers(0, cut.dim_b)),
                               i=int(rng.integers(0, 2)))
        k = lab.flat_index(cut)
        worst = max(worst, abs(t3[k, k] - dq[lab.i] * da[lab.m] * db[lab.n]))
    return (worst, 1e-12,
            "diagonal of qubit x A x B Kronecker product matches the "
            "flat-index formula on random labels")


def _check_partial_trace() -> _Measured:
    cut = FockCutoff(3, 4)
    rho = OperatorMatrix(_random_density(cut.dim, seed=7), cut)
    mid = partial_trace(rho, ("qubit", "A")).mat
    da = cut.dim_a
    two_step = np.trace(mid.reshape(2, da, 2, da), axis1=1, axis2=3)
    direct = partial_trace(rho, "qubit").mat
    resid = np.max(np.abs(two_step - direct))
    return (resid, 1e-12,
            "tracing out B then A equals tracing out both at once")


# ----------------------------------------------------------------- device

def _check_dressing_identity() -> _Measured:
    _, eff = _natural()
    n = np.arange(9)
    lam = (eff.g_a**2 / eff.omega_a) * (1.0 + qubit_frequency(eff, 0.8, n) / eff.omega_a)
    ladder = eff.omega_a_prime - eff.chi * n
    resid = np.max(np.abs(lam - ladder)) / np.max(np.abs(ladder))
    return (resid, 1e-12,
            "photon-number-resolved dispersive shift reproduces the "
            "dressed-frequency ladder omega_a' - chi*n exactly")


def _check_chi_scalings() -> _Measured:
    base = cross_kerr(0.3, 0.1, 0.8, 1.0)
    ratios = (
        cross_kerr(0.6, 0.1, 0.8, 1.0) / base / 4.0,
        cross_kerr(0.3, 0.2, 0.8, 1.0) / base / 4.0,
        cross_kerr(0.3, 0.1, 1.6, 1.0) / base / 2.0,
        cross_kerr(0.3, 0.1, 0.8, 2.0) / base / 0.25,
    )
    resid = max(abs(r - 1.0) for r in ratios)
    return (resid, 1e-12,
            "chi scales as g^2, phi_b^2, E_J, 1/omega_a^2 under doubling")


def _check_cross_phase_linearity() -> _Measured:
    chi, tau = 3.6e8, 1.6e-7
    c1 = cross_phase(chi, tau)
    resid = max(
        abs(cross_phase(2 * chi, tau).radians - 2 * c1.radians) / c1.radians,
        abs(cross_phase(chi, 2 * tau).radians - 2 * c1.radians) / c1.radians,
        abs(c1.cycles * 2 * math.pi - c1.radians) / c1.radians,
    )
    return (resid, 1e-12,
            "accumulated phase is linear in chi and in tau; cycles and "
            "radians stay consistent")


# ----------------------------------------------------------- hamiltonians

def _check_stage_hermiticity() -> _Measured:
    p, eff = _natural()
    cut = FockCutoff(3, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        # the dispersive and cross-Kerr stages are real energy vectors, so
        # hermitian and diagonal by type
        stages = (
            build_full(p, eff, cut),
            build_rotated(p, eff, cut),
            build_quadratic(p, eff, cut),
            build_jc(eff, p.E_J_max, cut),
        )
    resid = max(s.hermiticity_defect() for s in stages)
    return (resid, 1e-12,
            "all six stages hermitian; the cross-Kerr stage strictly "
            "diagonal in the numbered basis")


def _check_rotation_spectrum() -> _Measured:
    p, eff = _natural()
    cut = FockCutoff(4, 4)
    e_full = np.linalg.eigvalsh(build_full(p, eff, cut).mat)
    e_rot = np.linalg.eigvalsh(build_rotated(p, eff, cut).mat)
    resid = np.max(np.abs(e_full - e_rot))
    return (resid, 1e-10,
            "qubit-axis rotation leaves the spectrum untouched")


def _check_quadratic_scaling() -> _Measured:
    cut = FockCutoff(2, 10)
    keep = cut.numbers()[1] != cut.n_max_b
    devs = {}
    for pb in (0.1, 0.05):
        p, eff = _natural(phi_b=pb)
        diff = build_quadratic(p, eff, cut).mat - build_rotated(p, eff, cut).mat
        devs[pb] = float(np.max(np.abs(diff[np.ix_(keep, keep)])))
    ratio = devs[0.1] / devs[0.05]
    return (abs(ratio / 16.0 - 1.0), 0.2,
            f"halving phi_b shrinks the expansion error 16x (measured "
            f"{ratio:.3f}); measured away from the top mode-B level, "
            "whose corner carries an O(phi^2 n_max) truncation artifact "
            "of the exact cosine rather than an expansion error")


def _check_jc_conserved() -> _Measured:
    p, eff = _natural()
    cut = FockCutoff(3, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        h = build_jc(eff, p.E_J_max, cut).mat
    eye_q = np.eye(2)
    eye_a = np.eye(cut.dim_a)
    eye_b = np.eye(cut.dim_b)
    n_exc = tensor3((SIGMA_Z + eye_q) / 2.0, eye_a, eye_b).mat \
        + tensor3(eye_q, number_operator(cut.n_max_a), eye_b).mat
    n_b = tensor3(eye_q, eye_a, number_operator(cut.n_max_b)).mat
    scale = np.max(np.abs(h))
    resid = max(np.max(np.abs(h @ n_exc - n_exc @ h)),
                np.max(np.abs(h @ n_b - n_b @ h))) / scale
    return (resid, 1e-12,
            "the excitation-conserving stage commutes with "
            "n_a + qubit projector and with n_b")


def _check_chain_consistency() -> _Measured:
    rng = np.random.default_rng(42)
    cut = FockCutoff(4, 4)
    worst = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for _ in range(20):
            g = rng.uniform(0.1, 1.0)
            w = rng.uniform(0.5, 2.0)
            ej = rng.uniform(0.1, 2.0)
            pb = rng.uniform(0.01, 0.3)
            eff = EffectiveParams(
                g_a=g, phi_b=pb, phi_e=0.0, n_g_dc=0.5, omega_a=w,
                omega_a_prime=dressed_mode_frequency(g, pb, ej, w),
                chi=cross_kerr(g, pb, ej, w),
            )
            disp = build_dispersive(eff, ej, cut)
            free = frame_free_part(eff, ej, cut)
            diag = build_diagonal(eff, cut)
            scale = max(1.0, float(np.max(np.abs(disp))))
            worst = max(worst, float(np.max(np.abs(disp - free - diag))) / scale)
    return (worst, 1e-12,
            "shifted-frequency stage minus its free part equals the "
            "cross-Kerr stage entrywise over 20 random parameter draws")


# --------------------------------------------------------------- spectrum

def _check_eigenvalue_diagonal() -> _Measured:
    _, eff = _natural()
    cut = FockCutoff(8, 8)
    ev = spectrum.energies_vector(eff, cut)
    resid = np.max(np.abs(build_diagonal(eff, cut) - ev)) / np.max(np.abs(ev))
    return (resid, 1e-12,
            "closed-form level function agrees with the dense diagonal "
            "construction on every one of the 2*9*9 labels")


def _check_diagonal_level_values() -> _Measured:
    eff = _kerr_effective(5.0, 1.0)
    resid = max(
        abs(spectrum.eigenvalue(TensorBasisLabel(2, 3, 0), eff) - 4.0),
        abs(spectrum.eigenvalue(TensorBasisLabel(2, 3, 1), eff) + 6.0),
        max(abs(spectrum.eigenvalue(TensorBasisLabel(0, n, 0), eff))
            for n in range(4)),
        abs(spectrum.eigenvalue(TensorBasisLabel(1, 0, 0), eff)
            - spectrum.eigenvalue(TensorBasisLabel(1, 1, 0), eff) - 1.0),
    )
    return (resid, 1e-12,
            "hand-computed levels at ladder 5, coupling 1: "
            "E(2,3,0) = 4, E(2,3,1) = -6, E(0,n,0) = 0")


def _check_dfs_zero_class() -> _Measured:
    rng = np.random.default_rng(3)
    cut = FockCutoff(3, 4)
    worst = 0.0
    for _ in range(5):
        eff = _kerr_effective(rng.uniform(0.5, 3.0), rng.uniform(0.05, 0.8))
        res = spectrum.dfs_find(eff, cut)
        cls = res.class_of(TensorBasisLabel(0, 0, 0))
        members = set(cls.members)
        for n in range(cut.dim_b):
            if TensorBasisLabel(0, n, 0) not in members:
                return (math.inf, 1e-8,
                        f"label (0,{n},0) missing from the zero class")
        worst = max(worst, abs(cls.energy))
    return (worst, 1e-8,
            "the m = 0, i = 0 column always lands in one zero-energy "
            "class, for every parameter draw")


def _check_dfs_rescaling() -> _Measured:
    cut = FockCutoff(3, 3)

    def partition(eff):
        res = spectrum.dfs_find(eff, cut)
        return frozenset(
            frozenset(lab.flat_index(cut) for lab in c.members) for c in res
        )

    same = partition(_kerr_effective(0.9, 0.3)) == partition(_kerr_effective(4.5, 1.5))
    return (0.0 if same else 1.0, 0.5,
            "scaling every energy by 5 leaves class membership intact")


def _check_cluster_shift() -> _Measured:
    energies = np.array([0.0, 1e-12, 0.0, 0.5, 0.5 + 2e-12, 1.7, 2.0, 2.0])
    tol = 1e-9
    base = [g.tolist() for g in spectrum.cluster_energies(energies, tol)]
    shifted = [g.tolist() for g in spectrum.cluster_energies(energies + 7.25, tol)]
    scaled = [g.tolist() for g in spectrum.cluster_energies(energies * 3.0, 3.0 * tol)]
    ok = base == shifted == scaled
    return (0.0 if ok else 1.0, 0.5,
            "energy clustering is invariant under a uniform shift and "
            "under positive rescaling with the tolerance scaled along")


# ------------------------------------------------------------------- bath

_OHMIC = bath.OhmicSpectralDensity(coupling=0.1, exponent=1.0, omega_c=1.0)


def _check_q1_q2_small_t() -> _Measured:
    # at s = 1, omega_c = 1 and beta = 2, q1(t) / t -> alpha omega_c Gamma(s)
    # and 2 q2(t) / t^2 -> int D(w) coth(w) dw = alpha (pi^2/4 - 1), since
    # int w e^-w coth(w) dw = 1 + 2 sum_{k>=1} (2k + 1)^-2 and that sum is
    # pi^2/8 - 1; the next terms are O(t^2), 3e-11 at t = 1e-5
    t = 1e-5
    q1 = bath.q1_grid(_OHMIC, [0.0, t]).tolist()
    warm = float(bath.q2_grid(_OHMIC, bath.BathState(beta=2.0), [t])[0])
    cold = bath.q2_grid(_OHMIC, bath.BathState(), [0.0, 3.0]).tolist()
    resid = max(
        abs(q1[0]),
        abs(cold[0]),
        abs(q1[1] / (t * 0.1 * math.gamma(1.0)) - 1.0),
        abs(2.0 * warm / (t * t * 0.1 * (math.pi ** 2 / 4.0 - 1.0)) - 1.0),
        max(0.0, -cold[1]),
    )
    return (resid, 1e-7,
            "q1(t)/t and 2 q2(t)/t^2 meet their small-t limits at t = 1e-5; "
            "both zero at t = 0, q2 >= 0")


# q1 and q2 of the ohmic density (alpha = 0.1, omega_c = 1) at T = 0 and
# t = 0.02 and 50, by exponent, from mpmath (tools/zero_t_gold.py)
_ZERO_T_GOLD = {
    0.5: ((0.0035447304874365748, 1.7548188100853677),
          (1.7722323406891891e-5, 1.4357753447786303)),
    1.0: ((0.0019997333973150535, 0.15507989928217462),
          (1.9996001066346772e-5, 0.39122229654388097)),
    3.0: ((0.0039968019189765121, 1.5987207675906048e-6),
          (0.00011992004477697126, 0.1000399520319821)),
    20.0: ((236546621502402.76, -3.1054793259136016e-18),
           (47914195921920.82, 640237370572800.0)),
}


def _check_ohmic_closed_form() -> _Measured:
    # q1 and the T = 0 q2 meet frozen mpmath values, a reference that does
    # not evaluate the closed forms
    worst = 0.0
    for s, gold in _ZERO_T_GOLD.items():
        model = bath.OhmicSpectralDensity(coupling=0.1, exponent=s, omega_c=1.0)
        values = bath.q_grids(model, bath.BathState(), [0.02, 50.0])[0]
        worst = max(worst, float(np.max(np.abs(values / np.array(gold) - 1.0))))
    return (worst, 1e-6,
            "ohmic q1 and T = 0 q2 at exponents 0.5, 1, 3 and 20 meet frozen "
            "mpmath values at t = 0.02 and 50")


# the thermal q2 of the linear bath (alpha = 0.1, omega_c = 1) at t = 0.5,
# 10 and 1e6, by beta, from the Gamma-function product in 40-digit mpmath
# (tools/thermal_gold.py)
_LOG_GAMMA_GOLD = {
    0.01: (2.405073909714875, 248.07449470828027, 31415630.22585344),
    1.0: (0.027031922271645387, 2.496790411807391, 314156.3184691611),
    100.0: (0.011161230566974156, 0.2323720618852888, 3141.8498241594166),
}


def _check_q2_thermal_ohmic1() -> _Measured:
    worst = 0.0
    for beta, gold in _LOG_GAMMA_GOLD.items():
        q2 = bath.q2_grid(_OHMIC, bath.BathState(beta), [0.5, 10.0, 1e6])
        worst = max(worst, float(np.max(np.abs(q2 / np.array(gold) - 1.0))))
    return (worst, 1e-12,
            "thermal q2 of the linear reservoir meets frozen mpmath values of "
            "its Gamma-function product at beta = 0.01, 1 and 100, t = 0.5 to 1e6")


def _check_q2_temperature() -> _Measured:
    states = (bath.BathState(beta=2.0), bath.BathState(beta=5.0), bath.BathState())
    hot, mid, cold = (bath.q2_grid(_OHMIC, s, [0.5, 2.0, 10.0]) for s in states)
    worst = max(0.0, float(np.max(mid - hot)), float(np.max(cold - mid)))
    return (worst, 1e-12,
            "warming the reservoir can only increase q2, pointwise in t")


def _check_r_factor_modulus() -> _Measured:
    rng = np.random.default_rng(11)
    warm = bath.BathState(beta=3.0)
    hot = bath.BathState(beta=1.0)
    e1, e2 = rng.uniform(-2.0, 2.0, size=(10, 2)).T
    mods = [np.abs(bath.r_factor(e1, e2, _OHMIC, warm, t)) for t in (0.5, 2.0)]
    worst = max(0.0, float(np.max(mods)) - 1.0)
    worst = max(worst, abs(abs(bath.r_factor(1.3, 1.3, _OHMIC, warm, 2.0)) - 1.0))
    # the composition at t = 2, levels 2 and 0, of frozen mpmath values:
    # q1 = 0.1 arctan(2) at any temperature, q2 at beta = 1 (the
    # MPMATH_GOLD rows of tests/test_bath.py)
    q1c, q2c = 0.11071487177940905, 0.29474386166448085
    expected = cmath.exp(complex(-4.0 * q2c, -4.0 * q1c))
    worst = max(worst, abs(bath.r_factor(2.0, 0.0, _OHMIC, hot, 2.0) - expected))
    return (worst, 1e-6,
            "|r| <= 1 always, = 1 on degenerate pairs; frozen mpmath "
            "q1/q2 composition reproduced at t = 2, beta = 1")


# a 60-point table of the linear density (alpha = 0.1, omega_c = 1)
_TABLE_W = np.linspace(0.05, 10.0, 60)


def _check_quadrature_error() -> _Measured:
    # the tabulated q1 and q2 at beta = 2 and t = 2: the quadrature that
    # takes rtol; the ohmic integrals are closed forms and take none
    model = bath.TabulatedSpectralDensity(_TABLE_W, _OHMIC.density(_TABLE_W))
    state = bath.BathState(beta=2.0)
    coarse, error = bath.q_grids(model, state, [2.0], 1e-5)
    fine = bath.q_grids(model, state, [2.0], 5e-6)[0]
    return (max(0.0, float(np.max(np.abs(coarse - fine) - error))), 1e-15,
            "halving the tolerance moves the tabulated q1 and q2 by less than "
            "their own reported error estimates")


# --------------------------------------------------------------- dynamics

def _check_factorization() -> _Measured:
    cut = FockCutoff(1, 1)
    eff = _kerr_effective(1.0, 0.3)
    rho0 = _probe_state(cut, seed=5)
    t0 = bath.BathState()
    ts = np.array([0.0, 0.7, 2.0, 5.0])
    traj = evolve_reduced(rho0, eff, _OHMIC, t0, ts)
    # the products (E_j^2 - E_k^2) q1 and (E_j - E_k)^2 q2, from q1/q2 over ts
    q1s = bath.q1_grid(_OHMIC, ts).tolist()
    q2s = bath.q2_grid(_OHMIC, t0, ts).tolist()
    rho0 = traj.rho0
    worst = 0.0
    for (row, col), element in zip(traj.pairs, traj.element.T):
        e_hi = traj.energies[row]
        e_lo = traj.energies[col]
        for k, t in enumerate(ts):
            free = cmath.exp(-1j * float(e_hi - e_lo) * t)
            lamb = cmath.exp(-1j * ((e_hi * e_hi - e_lo * e_lo) * q1s[k]))
            damp = math.exp(-((e_hi - e_lo) ** 2 * q2s[k]))
            rebuilt = rho0[row, col] * free * lamb * damp
            worst = max(worst, abs(element[k] - rebuilt))
    return (worst, 1e-12,
            "every evolved coherence factorizes into free phase x "
            "reservoir phase x damping, rebuilt element by element")


def _check_dfs_constant_modulus() -> _Measured:
    eff = _kerr_effective(0.9, 0.3)
    cut = FockCutoff(2, 3)
    res = spectrum.dfs_find(eff, cut, ratio=Fraction(3))
    cls = res.class_of(TensorBasisLabel(1, 3, 0))
    lab_a, lab_b = cls.members[0], cls.members[-1]
    ia, ib = lab_a.flat_index(cut), lab_b.flat_index(cut)
    amp = np.zeros(cut.dim, dtype=complex)
    amp[ia] = amp[ib] = 1.0
    rho0 = StateVector.normalized(amp, cut).density()
    traj = evolve_reduced(rho0, eff, _OHMIC, bath.BathState(),
                          np.linspace(0.0, 50.0, 9), pairs=[(ia, ib)])
    mods = np.abs(traj.element[:, 0])
    resid = np.max(np.abs(mods - mods[0]))
    return (resid, 1e-12,
            f"coherence between degenerate labels ({lab_a.m},{lab_a.n},"
            f"{lab_a.i}) and ({lab_b.m},{lab_b.n},{lab_b.i}) keeps "
            "constant modulus over the whole grid")


def _check_offdiag_contraction() -> _Measured:
    cut = FockCutoff(1, 1)
    eff = _kerr_effective(1.0, 0.3)
    rho0 = _probe_state(cut, seed=5)
    traj = evolve_reduced(rho0, eff, _OHMIC, bath.BathState(),
                          np.linspace(0.0, 10.0, 6))
    rho0 = traj.rho0
    diag0 = np.diagonal(rho0).real
    snaps = traj.snapshots
    # rho0 = |psi><psi|, so <psi|rho(t)|psi> = Tr rho0 rho(t)
    purity = np.sum(np.abs(snaps) ** 2, axis=(1, 2))
    fidelity = np.einsum("jk,tjk->t", rho0.conj(), snaps).real
    worst = max(
        float(np.max(np.abs(np.diagonal(snaps, axis1=1, axis2=2) - diag0))),
        max(0.0, float(np.max(np.abs(snaps) - np.abs(rho0)))),
        float(np.max(np.abs(traj.purity - purity))),
        float(np.max(np.abs(traj.fidelity_to_initial - fidelity))),
    )
    worst = max(worst, max(0.0, float(np.max(traj.damping[:-1] - traj.damping[1:]))))
    return (worst, 1e-12,
            "populations frozen, |coherences| never above their initial "
            "value, damping exponents non-decreasing at T = 0, purity and "
            "fidelity columns equal Tr rho(t)^2 and <psi|rho(t)|psi> of the "
            "dense rho(t)")


def _check_finite_bath_quick() -> _Measured:
    cut = FockCutoff(1, 1)
    eff = _kerr_effective(1.0, 0.3)
    rho0 = _probe_state(cut, seed=7)
    spec_b = FiniteBathSpec((1.3,), (0.065,), (3,))
    rep = finite_bath_oracle(rho0, eff, spec_b, np.linspace(2.0, 20.0, 5))
    return (rep.max_deviation, 1e-6,
            f"single-mode brute-force propagation matches the closed "
            f"form (displacement metric {rep.displacement_metric:.2f})")


def _check_finite_bath_convergence() -> _Measured:
    cut = FockCutoff(1, 1)
    eff = _kerr_effective(1.0, 0.3)
    rho0 = _probe_state(cut, seed=7)
    ts = np.linspace(2.0, 20.0, 5)
    devs = []
    for cuts in ((2, 2), (3, 3), (4, 4)):
        spec_b = FiniteBathSpec((1.3, 2.7), (0.06, 0.12), cuts)
        devs.append(finite_bath_oracle(rho0, eff, spec_b, ts).max_deviation)
    resid = max(devs[1] / devs[0], devs[2] / devs[1])
    return (resid, 0.999,
            "two-mode oracle deviation falls strictly with the bath "
            "truncation: " + " -> ".join(f"{d:.3e}" for d in devs))


def _check_dispersive_fidelity() -> _Measured:
    g = 0.04
    eff = EffectiveParams(g_a=g, phi_b=0.0, phi_e=0.0, n_g_dc=0.5, omega_a=1.0,
                          omega_a_prime=dressed_mode_frequency(g, 0.0, 0.1, 1.0),
                          chi=0.0)
    cut = FockCutoff(4, 2)
    amp = np.zeros(cut.dim, dtype=complex)
    amp[TensorBasisLabel(0, 0, 0).flat_index(cut)] = 1.0
    amp[TensorBasisLabel(0, 0, 1).flat_index(cut)] = 1.0
    psi0 = StateVector.normalized(amp, cut)
    ts = np.linspace(1e-3, 2.0 * 2.0 * np.pi / 0.8, 80)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        chk = dispersive_check(psi0, eff, 0.1, ts)
    return (1.0 - chk.min_fidelity, 1e-2,
            "photon-shift propagation tracks the excitation-conserving "
            f"stage at coupling/detuning = 0.05 (worst infidelity "
            f"{1.0 - chk.min_fidelity:.2e}); the quadratic coupling "
            "scaling lives in the acceptance suite")


# (t, fidelity) of the dispersive check at cutoff (3, 2) below, rows of
# JC_GOLD in tests/test_dynamics.py: mpmath expm of the dense JC matrix at
# 40 digits (tools/jc_gold.py)
_JC_GOLD = (
    (10.909090909090908, 0.15213786311816519),
    (14.545454545454545, 0.11484930272232673),
    (21.818181818181817, 0.50029749664134508),
    (36.36363636363636, 0.069859508794679241),
)


def _check_jc_gold() -> _Measured:
    cut = FockCutoff(3, 2)
    eff = EffectiveParams(g_a=0.05, phi_b=0.1, phi_e=0.0, n_g_dc=0.5,
                          omega_a=1.0, omega_a_prime=0.9, chi=0.3)
    rng = np.random.default_rng(5)
    psi0 = StateVector.normalized(rng.normal(size=cut.dim)
                                  + 1j * rng.normal(size=cut.dim), cut)
    t, gold = np.array(_JC_GOLD).T
    fidelity = dispersive_check(psi0, eff, 0.4, t).fidelity
    return (float(np.max(np.abs(fidelity - gold))), 1e-12,
            "the closed-form JC doublets meet frozen 40-digit mpmath "
            "fidelities of the dense JC propagation at cutoff (3, 2), "
            "t = 10.9 to 36.4")


# the registry: every check under its report name, in report order
_CHECKS = (
    ("ladder_number_eigenvalues", _check_ladder_number),
    ("ladder_commutator", _check_ladder_commutator),
    ("tensor_index_consistency", _check_tensor_index),
    ("partial_trace_composition", _check_partial_trace),
    ("device_dressing_identity", _check_dressing_identity),
    ("chi_scalings", _check_chi_scalings),
    ("cross_phase_linearity", _check_cross_phase_linearity),
    ("stage_hermiticity", _check_stage_hermiticity),
    ("rotation_spectrum_match", _check_rotation_spectrum),
    ("quadratic_quartic_scaling", _check_quadratic_scaling),
    ("jc_conserved_quantities", _check_jc_conserved),
    ("chain_consistency", _check_chain_consistency),
    ("eigenvalue_matches_diagonal", _check_eigenvalue_diagonal),
    ("diagonal_level_values", _check_diagonal_level_values),
    ("dfs_zero_class", _check_dfs_zero_class),
    ("dfs_rescaling_invariance", _check_dfs_rescaling),
    ("cluster_shift_invariance", _check_cluster_shift),
    ("q1_q2_small_t", _check_q1_q2_small_t),
    ("ohmic_closed_form_q1q2", _check_ohmic_closed_form),
    ("q2_temperature_monotonic", _check_q2_temperature),
    ("q2_thermal_ohmic1_gold", _check_q2_thermal_ohmic1),
    ("r_factor_modulus", _check_r_factor_modulus),
    ("quadrature_error_estimate", _check_quadrature_error),
    ("factorization_reconstruction", _check_factorization),
    ("dfs_constant_modulus", _check_dfs_constant_modulus),
    ("offdiag_contraction", _check_offdiag_contraction),
    ("finite_bath_quick", _check_finite_bath_quick),
    ("finite_bath_convergence", _check_finite_bath_convergence),
    ("dispersive_fidelity_quick", _check_dispersive_fidelity),
    ("jc_doublet_gold", _check_jc_gold),
)

CHECK_NAMES = tuple(name for name, _ in _CHECKS)


def run_all(tol_scale: float = 1.0) -> list[CheckResult]:
    """Every check, in registry order, with its tolerance times ``tol_scale``.

    ``tol_scale`` must be finite and > 0; a non-finite residual never passes.
    """
    if not (math.isfinite(tol_scale) and tol_scale > 0):
        raise InvalidArgumentError(
            f"tol_scale must be finite and > 0, got {tol_scale}")
    results = []
    for name, check in _CHECKS:
        residual, tolerance, detail = check()
        results.append(_row(name, residual, tolerance * tol_scale, detail))
    return results

