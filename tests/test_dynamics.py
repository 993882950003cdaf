"""Closed-form evolution, observables, and the brute-force oracles."""

import numpy as np
import pytest

from cqdeph.bath import (
    BathState,
    OhmicSpectralDensity,
    q1,
    q1_grid,
    q2,
    q2_grid,
)
from cqdeph.device import EffectiveParams
from cqdeph.dynamics import (
    FiniteBathSpec,
    dispersive_check,
    evolve_reduced,
    finite_bath_oracle,
    observables,
)
from cqdeph.errors import CapacityError, InvalidArgumentError
from cqdeph.hilbert import (
    FockCutoff,
    OperatorMatrix,
    StateVector,
    TensorBasisLabel,
    coherent_state,
)
from cqdeph.kernels import dephasing_multipliers
from cqdeph.spectrum import eigenvalue, energies_vector

OHMIC = OhmicSpectralDensity(coupling=0.1, exponent=1.0, omega_c=1.0)


def _eff(omega_a_prime=0.9, chi=0.3) -> EffectiveParams:
    return EffectiveParams(g_a=0.1, phi_b=0.1, phi_e=0.0, n_g_dc=0.5,
                           omega_a=1.0, omega_a_prime=omega_a_prime, chi=chi)


def _plus_state(cut: FockCutoff, labels) -> StateVector:
    amp = np.zeros(cut.dim, dtype=complex)
    for lab in labels:
        amp[lab.flat_index(cut)] = 1.0
    return StateVector.normalized(amp, cut)


def test_populations_frozen_coherences_damped():
    cut = FockCutoff(1, 1)
    eff = _eff()
    rho0 = _plus_state(cut, [TensorBasisLabel(0, 0, 0),
                             TensorBasisLabel(1, 0, 0)]).density()
    t = np.linspace(0.0, 12.0, 7)
    traj = evolve_reduced(rho0, eff, OHMIC, BathState(), t)
    diag0 = np.real(np.diagonal(traj.snapshots[0]))
    for k in range(t.size):
        assert np.allclose(np.real(np.diagonal(traj.snapshots[k])), diag0)
    mods = np.abs(traj.snapshots[:, traj.pairs[0].row, traj.pairs[0].col])
    assert np.all(np.diff(mods) < 0)


def test_element_matches_scalar_closed_form():
    cut = FockCutoff(1, 1)
    eff = _eff()
    hi, lo = TensorBasisLabel(1, 1, 0), TensorBasisLabel(0, 0, 0)
    rho0 = _plus_state(cut, [hi, lo]).density()
    state = BathState(beta=2.0)
    t_grid = np.array([0.5, 3.0, 9.0])
    traj = evolve_reduced(rho0, eff, OHMIC, state, t_grid,
                          pairs=[(hi, lo)])
    e1, e2 = eigenvalue(hi, eff), eigenvalue(lo, eff)
    k_hi, k_lo = hi.flat_index(cut), lo.flat_index(cut)
    for k, t in enumerate(t_grid):
        q1c, q2c = q1(OHMIC, float(t)), q2(OHMIC, state, float(t))
        want = 0.5 * np.exp(-1j * (e1 - e2) * t
                            - 1j * (e1**2 - e2**2) * q1c
                            - (e1 - e2) ** 2 * q2c)
        assert traj.snapshots[k, k_hi, k_lo] == pytest.approx(want, rel=1e-9)
        rec = traj.pairs[0]
        assert rec.damping[k] == pytest.approx((e1 - e2) ** 2 * q2c, rel=1e-9)
        assert rec.phase[k] == pytest.approx((e1**2 - e2**2) * q1c, rel=1e-9)


def test_protected_pair_keeps_modulus():
    cut = FockCutoff(2, 3)
    eff = _eff()  # ratio exactly 3
    hi, lo = TensorBasisLabel(0, 1, 0), TensorBasisLabel(0, 0, 0)
    assert eigenvalue(hi, eff) == eigenvalue(lo, eff) == 0.0
    rho0 = _plus_state(cut, [hi, lo]).density()
    t = np.linspace(0.0, 50.0, 11)
    for state in (BathState(), BathState(beta=1.0)):
        traj = evolve_reduced(rho0, eff, OHMIC, state, t, pairs=[(hi, lo)])
        mods = np.abs(traj.snapshots[:, traj.pairs[0].row, traj.pairs[0].col])
        assert np.max(np.abs(mods - 0.5)) < 1e-12


def test_default_pairs_cover_upper_triangle():
    cut = FockCutoff(1, 1)
    labels = [TensorBasisLabel(0, 0, 0), TensorBasisLabel(1, 0, 0),
              TensorBasisLabel(0, 1, 1)]
    rho0 = _plus_state(cut, labels).density()
    traj = evolve_reduced(rho0, _eff(), OHMIC, BathState(),
                          np.array([0.0, 1.0]))
    got = {(r.row, r.col) for r in traj.pairs}
    idx = sorted(lab.flat_index(cut) for lab in labels)
    want = {(a, b) for a in idx for b in idx if a < b}
    assert got == want
    for rec in traj.pairs:
        assert rec.label_row.flat_index(cut) == rec.row


def test_pairs_accept_flat_indices_and_labels():
    cut = FockCutoff(1, 1)
    hi, lo = TensorBasisLabel(1, 0, 0), TensorBasisLabel(0, 0, 0)
    rho0 = _plus_state(cut, [hi, lo]).density()
    t = np.array([2.0])
    a = evolve_reduced(rho0, _eff(), OHMIC, BathState(), t, pairs=[(hi, lo)])
    b = evolve_reduced(rho0, _eff(), OHMIC, BathState(), t,
                       pairs=[(hi.flat_index(cut), lo.flat_index(cut))])
    assert a.pairs[0].row == b.pairs[0].row
    assert np.allclose(a.pairs[0].damping, b.pairs[0].damping)


def test_t_grid_validation():
    cut = FockCutoff(1, 1)
    rho0 = _plus_state(cut, [TensorBasisLabel(0, 0, 0)]).density()
    with pytest.raises(InvalidArgumentError):
        evolve_reduced(rho0, _eff(), OHMIC, BathState(), np.array([1.0, 1.0]))
    with pytest.raises(InvalidArgumentError):
        evolve_reduced(rho0, _eff(), OHMIC, BathState(), np.array([-1.0, 1.0]))


def test_t_grid_rejects_non_finite_entries():
    cut = FockCutoff(1, 1)
    rho0 = _plus_state(cut, [TensorBasisLabel(0, 0, 0)]).density()
    for bad in ([0.0, np.nan], [0.0, np.inf]):
        with pytest.raises(InvalidArgumentError, match="finite"):
            evolve_reduced(rho0, _eff(), OHMIC, BathState(), bad)


def test_pair_index_outside_space_rejected():
    cut = FockCutoff(1, 1)
    rho0 = _plus_state(cut, [TensorBasisLabel(0, 0, 0)]).density()
    with pytest.raises(InvalidArgumentError, match="outside dimension 8"):
        evolve_reduced(rho0, _eff(), OHMIC, BathState(), [1.0],
                       pairs=[(0, 8)])


def test_capacity_guard_on_snapshots():
    # 40 snapshots of dim 1250 exceed the cap; only reading them allocates
    cut = FockCutoff(24, 24)
    rho0 = _plus_state(cut, [TensorBasisLabel(0, 0, 0)]).density()
    traj = evolve_reduced(rho0, _eff(), OHMIC, BathState(),
                          np.linspace(0.0, 1.0, 40))
    assert np.allclose(traj.purity, 1.0)
    with pytest.raises(CapacityError):
        traj.snapshots


def test_observables_behave():
    cut = FockCutoff(1, 1)
    eff = _eff()
    rho0 = _plus_state(cut, [TensorBasisLabel(0, 0, 0),
                             TensorBasisLabel(0, 0, 1)]).density()
    t = np.linspace(0.0, 10.0, 6)
    traj = evolve_reduced(rho0, eff, OHMIC, BathState(), t)
    purity = observables(traj, "purity")
    assert purity[0] == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.diff(purity) <= 1e-12)
    fid = observables(traj, "fidelity_to_initial")
    assert fid[0] == pytest.approx(1.0, abs=1e-10)
    assert np.all(fid <= 1.0 + 1e-10)
    coh = observables(traj, "qubit_coherence")
    # qubit coherence starts at 1/2 for the equal superposition and decays
    assert coh[0] == pytest.approx(0.5, abs=1e-12)
    assert abs(coh[-1]) < 0.5
    with pytest.raises(InvalidArgumentError):
        observables(traj, "entropy")


def _uhlmann(rho_a, rho_b):
    """Reference fidelity: full-space matrix square root of rho_a."""
    w, v = np.linalg.eigh(rho_a)
    s = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    lam = np.linalg.eigvalsh(s @ rho_b @ s)
    return float(np.sum(np.sqrt(np.clip(lam, 0.0, None))) ** 2)


def _mixed(cut, rng, rank, labels=None):
    """Random density matrix of the given rank on labels (default: all)."""
    idx = (np.arange(cut.dim) if labels is None
           else [lab.flat_index(cut) for lab in labels])
    g = np.zeros((cut.dim, rank), dtype=complex)
    g[idx] = rng.normal(size=(len(idx), rank)) \
        + 1j * rng.normal(size=(len(idx), rank))
    rho = g @ g.conj().T
    return OperatorMatrix(rho / np.trace(rho).real, cut)


def test_pure_state_fidelity_exact_at_dim_512():
    cut = FockCutoff(15, 15)
    with pytest.warns(UserWarning, match="coherent state truncation"):
        psi = coherent_state("A", 1.5, cut)
    state = BathState(beta=2.0)
    t = np.linspace(0.0, 50.0, 150)
    traj = evolve_reduced(psi.density(), _eff(), OHMIC, state, t)
    fid = observables(traj, "fidelity_to_initial")
    assert abs(fid[0] - 1.0) <= 1e-14
    assert np.all(fid <= 1.0 + 1e-14)
    # <psi|rho(t)|psi> = Re sum_jk p_j p_k M_jk(t) with p = |psi|^2
    p = np.abs(psi.vec) ** 2
    on = p > 0
    energies = energies_vector(_eff(), cut)[on]
    want = [np.real(p[on] @ dephasing_multipliers(
        energies, tk, q1k, q2k) @ p[on])
        for tk, q1k, q2k in zip(t, traj.q1_vals, traj.q2_vals)]
    assert np.max(np.abs(fid - want)) <= 1e-13


def test_mixed_state_fidelity_matches_reference(rng):
    cut = FockCutoff(1, 1)
    t = np.linspace(0.0, 10.0, 6)
    full = _mixed(cut, rng, rank=cut.dim)
    traj = evolve_reduced(full, _eff(), OHMIC, BathState(), t)
    ref = [_uhlmann(traj.rho0, snap) for snap in traj.snapshots]
    assert np.max(np.abs(traj.fidelity_to_initial - ref)) <= 1e-12

    rank2 = _mixed(cut, rng, rank=2)
    traj = evolve_reduced(rank2, _eff(), OHMIC, BathState(), t)
    assert abs(traj.fidelity_to_initial[0] - 1.0) <= 1e-14


def test_support_restriction_matches_snapshots(rng):
    cut = FockCutoff(2, 3)
    labels = [TensorBasisLabel(0, 0, 0), TensorBasisLabel(1, 2, 0),
              TensorBasisLabel(2, 1, 0), TensorBasisLabel(0, 0, 1),
              TensorBasisLabel(1, 2, 1)]
    rho0 = _mixed(cut, rng, rank=3, labels=labels)
    traj = evolve_reduced(rho0, _eff(), OHMIC, BathState(beta=2.0),
                          np.linspace(0.0, 20.0, 9))
    snaps = traj.snapshots
    assert len(traj.pairs) == len(labels) * (len(labels) - 1) // 2
    purity = np.einsum("tij,tji->t", snaps, snaps).real
    dab = cut.dim_a * cut.dim_b
    coherence = np.einsum("tiaja->tij", snaps.reshape(-1, 2, dab, 2, dab))
    assert np.max(np.abs(traj.purity - purity)) <= 1e-14
    assert np.max(np.abs(traj.qubit_coherence - coherence[:, 0, 1])) <= 1e-14
    assert np.abs(traj.qubit_coherence[0]) > 0.01
    for rec in traj.pairs:
        assert np.max(np.abs(rec.element - snaps[:, rec.row, rec.col])) <= 1e-14


def test_finite_bath_oracle_quick_agreement(rng):
    cut = FockCutoff(1, 1)
    eff = _eff(omega_a_prime=1.0, chi=0.3)
    psi = StateVector.normalized(
        rng.normal(size=cut.dim) + 1j * rng.normal(size=cut.dim), cut)
    spec = FiniteBathSpec(frequencies=(1.3,), couplings=(0.065,), cutoffs=(3,))
    rep = finite_bath_oracle(psi.density(), eff, spec,
                             np.linspace(2.0, 20.0, 5))
    assert rep.max_deviation < 1e-6
    assert rep.displacement_metric < 0.15
    assert rep.total_dim == cut.dim * 4


def test_finite_bath_oracle_thermal_occupation(rng):
    # nonzero occupation feeds (1 + 2 nbar) into the discrete Q2; the law
    # must still match the brute-force propagation
    cut = FockCutoff(1, 1)
    eff = _eff(omega_a_prime=1.0, chi=0.3)
    psi = StateVector.normalized(
        rng.normal(size=cut.dim) + 1j * rng.normal(size=cut.dim), cut)
    spec = FiniteBathSpec(frequencies=(1.3,), couplings=(0.05,), cutoffs=(7,),
                          occupations=(0.2,))
    rep = finite_bath_oracle(psi.density(), eff, spec,
                             np.linspace(1.0, 10.0, 4))
    assert rep.max_deviation < 1e-5


def test_finite_bath_oracle_warns_on_large_displacement(rng):
    cut = FockCutoff(1, 1)
    eff = _eff(omega_a_prime=1.0, chi=0.3)
    psi = StateVector.normalized(
        rng.normal(size=cut.dim) + 1j * rng.normal(size=cut.dim), cut)
    spec = FiniteBathSpec(frequencies=(1.3,), couplings=(0.3,), cutoffs=(3,))
    with pytest.warns(UserWarning, match="displacement metric"):
        finite_bath_oracle(psi.density(), eff, spec, np.array([1.0]))


def _dense_reduced(rho0, eff, spec, t_grid):
    """Reference propagation: diagonalize the dense composite Hamiltonian."""
    rho_s = np.array(rho0.mat, dtype=complex)
    energies = energies_vector(eff, rho0.cutoff)
    dim_s = rho_s.shape[0]
    dims_b = [c + 1 for c in spec.cutoffs]
    dim_b = int(np.prod(dims_b))
    renorm = sum(c * c / w for c, w in zip(spec.couplings, spec.frequencies))
    h = np.kron(np.diag(energies + energies**2 * renorm), np.eye(dim_b))
    rho_b = np.ones((1, 1))
    for k, nbar in enumerate(spec.mean_occupations()):
        b = np.diag(np.sqrt(np.arange(1, dims_b[k], dtype=float)), k=1)
        left = np.eye(int(np.prod(dims_b[:k])))
        right = np.eye(int(np.prod(dims_b[k + 1:])))
        num = np.kron(np.kron(left, b.T @ b), right)
        x = np.kron(np.kron(left, b + b.T), right)
        h = h + spec.frequencies[k] * np.kron(np.eye(dim_s), num)
        h = h + spec.couplings[k] * np.kron(np.diag(energies), x)
        # 0.0 ** 0 == 1: the vacuum at nbar = 0
        p = (nbar / (1.0 + nbar)) ** np.arange(dims_b[k])
        rho_b = np.kron(rho_b, np.diag(p / p.sum()))
    w, v = np.linalg.eigh(h)
    rho_tilde = v.conj().T @ np.kron(rho_s, rho_b) @ v
    out = []
    for t in t_grid:
        vt = v * np.exp(-1j * w * t)
        rho_t = vt @ rho_tilde @ vt.conj().T
        out.append(np.einsum("abcb->ac",
                             rho_t.reshape(dim_s, dim_b, dim_s, dim_b)))
    return np.array(out)


@pytest.mark.parametrize("spec, t_grid", [
    (FiniteBathSpec((1.3, 2.7), (0.06, 0.12), (nb, nb)),
     np.linspace(2.0, 20.0, 5)) for nb in (2, 3, 4)
] + [(FiniteBathSpec((1.3,), (0.05,), (7,), occupations=(0.2,)),
      np.linspace(1.0, 10.0, 4))])
def test_finite_bath_oracle_matches_dense_reference(spec, t_grid):
    cut = FockCutoff(1, 1)
    eff = _eff(omega_a_prime=1.0, chi=0.3)
    gen = np.random.default_rng(7)
    rho0 = StateVector.normalized(
        gen.normal(size=cut.dim) + 1j * gen.normal(size=cut.dim),
        cut).density()
    rep = finite_bath_oracle(rho0, eff, spec, t_grid)
    dense = _dense_reduced(rho0, eff, spec, t_grid)
    assert np.max(np.abs(rep.reduced - dense)) <= 1e-12


def test_finite_bath_no_composite_cap():
    # composite dimension 32000; the factored propagation never forms it
    cut = FockCutoff(3, 3)
    rho0 = _plus_state(cut, [TensorBasisLabel(0, 0, 0),
                             TensorBasisLabel(1, 0, 0)]).density()
    spec = FiniteBathSpec(frequencies=(1.0, 2.0, 3.0),
                          couplings=(0.01, 0.01, 0.01),
                          cutoffs=(9, 9, 9))
    rep = finite_bath_oracle(rho0, _eff(), spec, np.array([1.0]))
    assert rep.total_dim == 32000
    assert rep.max_deviation < 1e-6


def test_finite_bath_continuum_limit():
    # 120 Gauss-Legendre modes sample D(w) on [0, 40]; the discrete sums and
    # the exact propagation must reproduce the adaptive quadrature of Q1/Q2
    model = OhmicSpectralDensity(0.05, exponent=3.0, omega_c=1.0)
    nodes, weights = np.polynomial.legendre.leggauss(120)
    ws = 20.0 * (nodes + 1.0)
    cs = np.sqrt(model.density(ws) * 20.0 * weights)
    spec = FiniteBathSpec(tuple(ws), tuple(cs), (3,) * 120)
    cut = FockCutoff(1, 1)
    eff = _eff(omega_a_prime=1.0, chi=0.3)
    rho0 = _plus_state(cut, [TensorBasisLabel(0, 0, 0),
                             TensorBasisLabel(1, 1, 0),
                             TensorBasisLabel(1, 0, 1)]).density()
    t = np.linspace(0.5, 6.0, 6)
    rep = finite_bath_oracle(rho0, eff, spec, t)
    assert rep.total_dim == cut.dim * 4 ** 120
    q1_vals = q1_grid(model, t)
    q2_vals = q2_grid(model, BathState(), t)
    assert np.max(np.abs(rep.q1_vals - q1_vals)) < 1e-12
    assert np.max(np.abs(rep.q2_vals - q2_vals)) < 1e-12
    energies = energies_vector(eff, cut)
    closed = np.array([
        rho0.mat * dephasing_multipliers(energies, tk, a, b)
        for tk, a, b in zip(t, q1_vals, q2_vals)])
    assert np.max(np.abs(rep.reduced - closed)) < 1e-6


def test_finite_bath_spec_needs_a_mode():
    with pytest.raises(InvalidArgumentError, match="mode count"):
        FiniteBathSpec((), (), ())


def test_dispersive_check_fidelity_high_in_regime():
    e_j = 0.1  # omega_q = 0.2, detuning 0.8, g/Delta = 0.05
    from cqdeph.device import cross_kerr, dressed_mode_frequency
    g = 0.04
    eff = EffectiveParams(
        g_a=g, phi_b=0.0, phi_e=0.0, n_g_dc=0.5, omega_a=1.0,
        omega_a_prime=dressed_mode_frequency(g, 0.0, e_j, 1.0),
        chi=0.0,
    )
    cut = FockCutoff(4, 2)
    amp = np.zeros(cut.dim, dtype=complex)
    amp[TensorBasisLabel(0, 0, 0).flat_index(cut)] = 1.0
    amp[TensorBasisLabel(0, 0, 1).flat_index(cut)] = 1.0
    psi0 = StateVector.normalized(amp, cut)
    t_det = 2 * np.pi / 0.8
    # omega_q + omega_a = 1.2 against |detuning| 0.8 is outside the RWA
    # comfort zone, and the builder says so; the fidelity billboard is the
    # point of this test, the warning is expected
    with pytest.warns(UserWarning, match="rotating-wave"):
        chk = dispersive_check(psi0, eff, e_j,
                               np.linspace(1e-3, 3 * t_det, 60))
    assert chk.min_fidelity > 0.99
    assert chk.fidelity.shape == (60,)
    assert np.all(chk.fidelity <= 1.0 + 1e-9)
