"""Acceptance gate: one test per shipped guarantee, one summary line each.

Every test records its line through conftest.record before asserting, so the
terminal summary always shows the full scoreboard.  Tolerances are stated in
the recorded lines.
"""

import math
import subprocess
import sys
import warnings
from fractions import Fraction

import numpy as np

from cqdeph.bath import BathState, OhmicSpectralDensity, q1_grid, q2_grid
from cqdeph.device import (
    EffectiveParams,
    cross_kerr,
    cross_phase,
    dressed_mode_frequency,
)
from cqdeph.dynamics import (
    FiniteBathSpec,
    dispersive_check,
    evolve_reduced,
    finite_bath_oracle,
)
from cqdeph.hamiltonians import (
    build_diagonal,
    build_dispersive,
    build_quadratic,
    build_rotated,
    frame_free_part,
)
from cqdeph.hilbert import FockCutoff, StateVector, TensorBasisLabel
from cqdeph.spectrum import dfs_find, eigenvalue, energies_vector

from conftest import record

OHMIC = OhmicSpectralDensity(coupling=0.1, exponent=1.0, omega_c=1.0)


def _report(num: int, ok: bool, text: str) -> None:
    record(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {text}")
    assert ok, f"criterion {num}: {text}"


def _eff(omega_a_prime: float, chi: float) -> EffectiveParams:
    return EffectiveParams(g_a=0.1, phi_b=0.1, phi_e=0.0, n_g_dc=0.5,
                           omega_a=1.0, omega_a_prime=omega_a_prime, chi=chi)


def test_criterion_1_cross_phase():
    ph = cross_phase(3.6e8, 160e-9)
    ok = abs(ph.cycles - 9.17) <= 0.01
    _report(1, ok,
            f"conditional phase {ph.cycles:.6f} cycles "
            f"(need 9.17 +/- 0.01) at chi = 3.6e8 rad/s, tau = 160 ns")


def test_criterion_2_eigen_spectrum_exact():
    eff = _eff(0.9, 0.3)
    cut = FockCutoff(8, 8)
    diag = build_diagonal(eff, cut)
    dense = np.linalg.eigvalsh(np.diag(diag))
    analytic = np.sort(energies_vector(eff, cut))
    scale = max(1.0, float(np.max(np.abs(analytic))))
    worst_sorted = float(np.max(np.abs(dense - analytic))) / scale
    # per-label: the diagonal entry at each flat index is that label's value
    worst_label = 0.0
    for flat in range(cut.dim):
        lab = TensorBasisLabel.from_flat(flat, cut)
        worst_label = max(worst_label,
                          abs(diag[flat] - eigenvalue(lab, eff)) / scale)
    worst = max(worst_sorted, worst_label)
    ok = worst < 1e-12
    _report(2, ok,
            f"analytic levels vs dense diagonalization at (8,8): worst "
            f"relative deviation {worst:.3e} over all {cut.dim} labels "
            f"(need < 1e-12)")


def test_criterion_3_chain_consistency():
    rng = np.random.default_rng(42)
    cut = FockCutoff(6, 6)
    worst = 0.0
    with warnings.catch_warnings():
        # random draws roam outside the dispersive regime on purpose; the
        # identity under test is algebraic and holds regardless
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
            recon = frame_free_part(eff, ej, cut) + build_diagonal(eff, cut)
            scale = max(1.0, float(np.max(np.abs(disp))))
            worst = max(worst, float(np.max(np.abs(disp - recon))) / scale)
    ok = worst < 1e-12
    _report(3, ok,
            f"number-resolved stage vs dressed-constant stage at (6,6), 20 "
            f"random draws: worst entrywise deviation {worst:.3e} "
            f"(need < 1e-12)")


def test_criterion_4_dfs_protection():
    eff = _eff(0.9, 0.3)  # dressed/cross-Kerr ratio exactly 3
    cut = FockCutoff(3, 4)
    res = dfs_find(eff, cut, ratio=Fraction(3))

    # the degenerate class contains every n = 3 label (all m, both levels)
    zero = res.class_of(TensorBasisLabel(0, 3, 0))
    members = {(l.m, l.n, l.i) for l in zero.members}
    n3 = {(m, 3, i) for m in range(4) for i in (0, 1)}
    class_ok = n3 <= members

    # the report states the index-convention discrepancy
    note_ok = "Index convention" in res.to_text()

    protected = sorted(TensorBasisLabel(m, 3, i) for m in range(4)
                       for i in (0, 1))
    control_hi = TensorBasisLabel(1, 2, 0)   # energy chi
    control_lo = TensorBasisLabel(0, 0, 0)   # energy 0
    support = protected + [control_hi, control_lo]
    amp = np.zeros(cut.dim, dtype=complex)
    for lab in support:
        amp[lab.flat_index(cut)] = 1.0
    rho0 = StateVector.normalized(amp, cut).density()
    w0 = 1.0 / len(support)

    pairs = [(a.flat_index(cut), b.flat_index(cut))
             for k, a in enumerate(protected) for b in protected[k + 1:]]
    t_grid = np.unique(np.concatenate([np.linspace(0.0, 50.0, 26),
                                       [0.5, 2.0, 10.0]]))

    chi = eff.chi
    worst_const = 0.0
    worst_control = 0.0
    for beta, gold in (
        (math.inf, None),
        (1.0, {0.5: 0.027031922271645385, 2.0: 0.29474386166448085,
               10.0: 2.4967904118073935}),
    ):
        state = BathState(beta=beta)
        traj = evolve_reduced(rho0, eff, OHMIC, state, t_grid,
                              pairs=pairs + [(control_hi.flat_index(cut),
                                              control_lo.flat_index(cut))])
        for row, col in traj.pairs[:-1]:
            mods = np.abs(traj.snapshots[:, row, col])
            worst_const = max(worst_const, float(np.max(np.abs(mods - w0))))
        row, col = traj.pairs[-1]
        mods = np.abs(traj.snapshots[:, row, col]) / w0
        if gold is None:
            expect = np.exp(-chi**2 * 0.05 * np.log1p(t_grid**2))
            worst_control = max(worst_control, float(np.max(
                np.abs(mods - expect) / expect)))
        else:
            for tv, q2v in gold.items():
                k = int(np.nonzero(t_grid == tv)[0][0])
                expect = math.exp(-chi**2 * q2v)
                worst_control = max(worst_control,
                                    abs(mods[k] - expect) / expect)

    ok = class_ok and note_ok and worst_const < 1e-12 \
        and worst_control < 1e-6
    _report(4, ok,
            f"protected-class coherences constant to {worst_const:.3e} "
            f"(need < 1e-12) over t in [0, 50] at T = 0 and beta*w_c = 1; "
            f"control pair with gap chi matches its closed-form decay to "
            f"{worst_control:.3e} relative (need < 1e-6); class membership "
            f"and convention note verified")


def test_criterion_5_reservoir_integral_oracles():
    # the T = 0 q2 is also the limit of the thermal q2, which at
    # beta*w_c = 1e8 exceeds it by alpha t^2 zeta(2) / beta^2, 1.0e-13
    # relative at t = 50
    t = np.geomspace(0.02, 50.0, 50)
    got_q1 = q1_grid(OHMIC, t)
    got_q2 = q2_grid(OHMIC, BathState(), t)
    warm_q2 = q2_grid(OHMIC, BathState(beta=1e8), t)
    want_q1 = 0.1 * np.arctan(t)
    want_q2 = 0.05 * np.log1p(t * t)
    worst = max(float(np.max(np.abs(got_q1 / want_q1 - 1.0))),
                float(np.max(np.abs(got_q2 / want_q2 - 1.0))),
                float(np.max(np.abs(warm_q2 / want_q2 - 1.0))))
    ok = worst < 1e-6
    _report(5, ok,
            f"ohmic q1/q2 and the thermal q2 at beta*w_c = 1e8 "
            f"vs arctan/log closed forms on 50 log-spaced times: worst "
            f"relative deviation {worst:.3e} (need < 1e-6)")


def test_criterion_6_finite_bath_equivalence():
    cut = FockCutoff(1, 1)
    eff = _eff(1.0, 0.3)
    gen = np.random.default_rng(7)
    psi = StateVector.normalized(
        gen.normal(size=cut.dim) + 1j * gen.normal(size=cut.dim), cut)
    rho0 = psi.density()
    t_grid = np.linspace(2.0, 20.0, 5)

    def run(nb):
        spec = FiniteBathSpec(frequencies=(1.3, 2.7),
                              couplings=(0.06, 0.12), cutoffs=(nb, nb))
        return finite_bath_oracle(rho0, eff, spec, t_grid)

    reports = {nb: run(nb) for nb in (8, 12, 15)}
    devs = {nb: r.max_deviation for nb, r in reports.items()}
    metric = reports[15].displacement_metric

    # at this displacement metric the closed-form law is exact to rounding:
    # all three deviations sit at the 1e-15 arithmetic floor, where their
    # ordering is noise; monotonicity is asserted against that floor and
    # demonstrated strictly where the truncation error is still resolvable
    small = {nb: run(nb).max_deviation for nb in (2, 3, 4)}
    floor = 1e-12
    sharp_ok = all(d < 1e-6 for d in devs.values())
    mono_ok = (devs[8] >= devs[12] >= devs[15]) or max(devs.values()) < floor
    strict_ok = small[2] > small[3] > small[4]
    ok = metric <= 0.1 and sharp_ok and mono_ok and strict_ok
    _report(6, ok,
            f"two-mode brute force vs closed form, displacement metric "
            f"{metric:.3f} <= 0.1: deviations {devs[8]:.3e} / {devs[12]:.3e} "
            f"/ {devs[15]:.3e} at bath cutoffs 8/12/15 (need < 1e-6; all at "
            f"the {floor:.0e} arithmetic floor, satisfying monotone "
            f"non-increase), strictly decreasing {small[2]:.3e} > "
            f"{small[3]:.3e} > {small[4]:.3e} at cutoffs 2/3/4")


def test_criterion_7_dispersive_validity():
    e_j = 0.1  # qubit at 0.2, mode at 1.0: detuning magnitude 0.8
    cut = FockCutoff(4, 2)
    amp = np.zeros(cut.dim, dtype=complex)
    amp[TensorBasisLabel(0, 0, 0).flat_index(cut)] = 1.0
    amp[TensorBasisLabel(0, 0, 1).flat_index(cut)] = 1.0
    psi0 = StateVector.normalized(amp, cut)
    t_det = 2.0 * math.pi / 0.8
    t_grid = np.linspace(1e-3, 3 * t_det, 240)

    results = {}
    with warnings.catch_warnings():
        # the qubit sits far below the mode, so the counter-rotating ratio
        # trips the builder's RWA caution; the fidelity bound is the test
        warnings.simplefilter("ignore")
        for frac in (0.05, 0.025):
            g = frac * 0.8
            eff = EffectiveParams(
                g_a=g, phi_b=0.0, phi_e=0.0, n_g_dc=0.5, omega_a=1.0,
                omega_a_prime=dressed_mode_frequency(g, 0.0, e_j, 1.0),
                chi=0.0,
            )
            results[frac] = dispersive_check(psi0, eff, e_j, t_grid)
    min_fid = results[0.05].min_fidelity
    ratio = (1.0 - results[0.05].min_fidelity) / \
        (1.0 - results[0.025].min_fidelity)
    ok = min_fid >= 0.99 and 4.0 * 0.7 <= ratio <= 4.0 * 1.3
    _report(7, ok,
            f"number-resolved vs dressed-constant fidelity at g/Delta = "
            f"0.05: minimum {min_fid:.6f} over three detuning periods "
            f"(need >= 0.99); halving the ratio shrinks infidelity "
            f"{ratio:.2f}x (need 4x +/- 30%)")


def test_criterion_8_quadratic_expansion_scaling():
    from cqdeph.device import DeviceParams
    p = DeviceParams(
        E_C=1.0, E_J_max=0.8, omega_a=1.0, omega_b=1.0,
        L_a=1.0, L_b=1.0, c_cap=1.0, l_ind=1.0,
        C_g=1.0, C_a=1.0, V_g_dc=1.0, S_loop=1.0, d_dist=1.0,
        hbar=1.0, e_charge=1.0, mu_0=1.0, Phi_0=1.0,
    )
    cut = FockCutoff(2, 10)
    # compare away from the top kept flux level, where truncating the
    # quartic and truncating its expansion disagree by construction
    keep = np.array([k % cut.dim_b != cut.n_max_b for k in range(cut.dim)])
    devs = {}
    for pb in (0.1, 0.05):
        eff = EffectiveParams(
            g_a=0.3, phi_b=pb, phi_e=0.0, n_g_dc=0.5, omega_a=1.0,
            omega_a_prime=dressed_mode_frequency(0.3, pb, 0.8, 1.0),
            chi=cross_kerr(0.3, pb, 0.8, 1.0),
        )
        diff = build_rotated(p, eff, cut).mat - build_quadratic(p, eff, cut).mat
        devs[pb] = float(np.linalg.norm(diff[np.ix_(keep, keep)]))
    ratio = devs[0.1] / devs[0.05]
    ok = abs(ratio - 16.0) <= 0.2 * 16.0
    _report(8, ok,
            f"harmonic-expansion residual ratio {ratio:.3f} between "
            f"phi_b = 0.1 and 0.05 at flux cutoff 10 (need 16 +/- 20%)")


def test_criterion_9_determinism(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("""
scenario = dephasing

[effective]
omega_a = 1 Hz_rad
omega_a_prime = 0.9 Hz_rad
chi = 0.3 Hz_rad

[cutoff]
n_max_a = 1
n_max_b = 3

[bath]
family = ohmic
coupling = 0.1
omega_c = 1 Hz_rad
beta = 2 s

[grid]
t_start = 0 s
t_stop = 30 s
t_count = 16

[state]
kind = labels
amp_0 = 0 0 0 : 0.7071067811865476 0
amp_1 = 1 2 1 : 0 0.7071067811865476
""")
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        res = subprocess.run(
            [sys.executable, "-m", "cqdeph", "dephasing",
             "--config", str(cfg), "--out", str(out)],
            capture_output=True, text=True,
        )
        assert res.returncode == 0, res.stderr
        outs.append(out)
    same = all(
        (outs[0] / f).read_bytes() == (outs[1] / f).read_bytes()
        for f in ("trajectory.csv", "observables.csv", "report.json")
    )
    _report(9, same,
            "repeated dephasing runs produce byte-identical trajectory.csv, "
            "observables.csv, report.json" if same else
            "repeated dephasing runs DIFFER")
