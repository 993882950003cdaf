"""Closed-form evolution, observables, and the brute-force oracles."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from cqdeph import bath, hilbert, kernels
from cqdeph.bath import (
    BathState,
    OhmicSpectralDensity,
    q1_grid,
    q2_grid,
    q_grids,
)
from cqdeph.device import EffectiveParams
from cqdeph.dynamics import (
    DEFAULT_PAIR_CAP,
    FiniteBathSpec,
    _class_gaps,
    dispersive_check,
    evolve_reduced,
    finite_bath_oracle,
    observables,
)
from cqdeph.errors import CapacityError, InvalidArgumentError, NumericsError
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
    row, col = traj.pairs[0]
    mods = np.abs(traj.snapshots[:, row, col])
    assert np.all(np.diff(mods) < 0)


def test_element_matches_scalar_closed_form():
    cut = FockCutoff(1, 1)
    eff = _eff()
    hi, lo = TensorBasisLabel(1, 1, 0), TensorBasisLabel(0, 0, 0)
    rho0 = _plus_state(cut, [hi, lo]).density()
    state = BathState(beta=2.0)
    t_grid = np.array([0.5, 3.0, 9.0])
    k_hi, k_lo = hi.flat_index(cut), lo.flat_index(cut)
    traj = evolve_reduced(rho0, eff, OHMIC, state, t_grid,
                          pairs=[(k_hi, k_lo)])
    e1, e2 = eigenvalue(hi, eff), eigenvalue(lo, eff)
    for k, t in enumerate(t_grid):
        q1c = float(q1_grid(OHMIC, [t])[0])
        q2c = float(q2_grid(OHMIC, state, [t])[0])
        want = 0.5 * np.exp(-1j * (e1 - e2) * t
                            - 1j * (e1**2 - e2**2) * q1c
                            - (e1 - e2) ** 2 * q2c)
        assert traj.snapshots[k, k_hi, k_lo] == pytest.approx(want, rel=1e-9)
        assert traj.damping[k, 0] == pytest.approx((e1 - e2) ** 2 * q2c, rel=1e-9)
        assert traj.phase[k, 0] == pytest.approx((e1**2 - e2**2) * q1c, rel=1e-9)


def test_protected_pair_keeps_modulus():
    cut = FockCutoff(2, 3)
    eff = _eff()  # ratio exactly 3
    hi, lo = TensorBasisLabel(0, 1, 0), TensorBasisLabel(0, 0, 0)
    assert eigenvalue(hi, eff) == eigenvalue(lo, eff) == 0.0
    rho0 = _plus_state(cut, [hi, lo]).density()
    t = np.linspace(0.0, 50.0, 11)
    row, col = hi.flat_index(cut), lo.flat_index(cut)
    for state in (BathState(), BathState(beta=1.0)):
        traj = evolve_reduced(rho0, eff, OHMIC, state, t, pairs=[(row, col)])
        mods = np.abs(traj.snapshots[:, row, col])
        assert np.max(np.abs(mods - 0.5)) < 1e-12


def test_default_pairs_cover_upper_triangle():
    cut = FockCutoff(1, 1)
    labels = [TensorBasisLabel(0, 0, 0), TensorBasisLabel(1, 0, 0),
              TensorBasisLabel(0, 1, 1)]
    rho0 = _plus_state(cut, labels).density()
    traj = evolve_reduced(rho0, _eff(), OHMIC, BathState(),
                          np.array([0.0, 1.0]))
    idx = sorted(lab.flat_index(cut) for lab in labels)
    want = [[a, b] for a in idx for b in idx if a < b]
    assert traj.pairs.dtype == np.intp and traj.pairs.tolist() == want
    assert traj.element.shape == (2, len(want))


def _default_pairs(rho0):
    """The (row, col) of evolve_reduced's default pairs and its warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        traj = evolve_reduced(rho0, _eff(), OHMIC, BathState(),
                              np.array([0.0, 1.0]))
    return ([tuple(p) for p in traj.pairs.tolist()],
            [str(w.message) for w in caught])


def test_default_pairs_capped_at_the_largest_elements(rng):
    cut = FockCutoff(3, 3)
    assert DEFAULT_PAIR_CAP == 256
    # equal amplitudes: 23 labels give 253 pairs, all tracked; 24 give 276,
    # every one a tie, so the 256 lowest flat indices
    for n, warned in ((23, 0), (24, 1)):
        labels = [TensorBasisLabel.from_flat(k, cut) for k in range(n)]
        got, caught = _default_pairs(_plus_state(cut, labels).density())
        upper = [(a, b) for a in range(n) for b in range(a + 1, n)]
        assert got == upper[:DEFAULT_PAIR_CAP]
        assert len(caught) == warned
    assert caught[0].startswith("rho0 has 276 nonzero elements")
    # a seeded state on all 32 labels: the 256 largest |rho_jk| of 496
    psi = StateVector.normalized(rng.normal(size=32) + 1j * rng.normal(size=32),
                                 cut)
    rho = np.outer(psi.vec, psi.vec.conj())
    ranked = sorted(((-abs(rho[a, b]), a, b) for a in range(32)
                     for b in range(a + 1, 32)))
    got, caught = _default_pairs(psi.density())
    assert got == sorted((a, b) for _, a, b in ranked[:DEFAULT_PAIR_CAP])
    assert len(caught) == 1


def test_pairs_take_flat_indices_only():
    cut = FockCutoff(1, 1)
    hi, lo = TensorBasisLabel(1, 0, 0), TensorBasisLabel(0, 0, 0)
    rho0 = _plus_state(cut, [hi, lo]).density()
    t = np.array([2.0])
    flat = [lo.flat_index(cut), hi.flat_index(cut)]
    given = evolve_reduced(rho0, _eff(), OHMIC, BathState(), t, pairs=[flat])
    default = evolve_reduced(rho0, _eff(), OHMIC, BathState(), t)
    assert given.pairs.tolist() == default.pairs.tolist() == [flat]
    assert np.array_equal(given.element, default.element)
    assert np.array_equal(given.damping, default.damping)
    # labels, floats and triplets are not flat index pairs
    for bad in ([(hi, lo)], [(0.0, 1.0)], [(0, 1, 0)]):
        with pytest.raises(InvalidArgumentError, match="pairs of flat indices"):
            evolve_reduced(rho0, _eff(), OHMIC, BathState(), t, pairs=bad)


def test_no_pairs_track_nothing_and_leave_the_observables(rng):
    cut = FockCutoff(2, 3)
    rho0 = _random_pure(cut, rng)
    t = np.linspace(0.0, 20.0, 5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the default caps its 276 pairs
        default = evolve_reduced(rho0, _eff(), OHMIC, BathState(beta=2.0), t)
    none = evolve_reduced(rho0, _eff(), OHMIC, BathState(beta=2.0), t,
                          pairs=())
    assert none.pairs.shape == (0, 2) and none.pairs.dtype == np.intp
    for name in ("element", "phase", "damping"):
        assert getattr(none, name).shape == (t.size, 0)
    for name in ("purity", "qubit_coherence", "fidelity_to_initial"):
        assert np.array_equal(getattr(none, name), getattr(default, name))


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


@pytest.mark.parametrize("pair", [(0, 8), (-1, 0)],
                         ids=["past-the-end", "negative"])
def test_pair_index_outside_space_rejected(pair):
    # a negative index would wrap to the end of the space
    cut = FockCutoff(1, 1)
    rho0 = _plus_state(cut, [TensorBasisLabel(0, 0, 0)]).density()
    with pytest.raises(InvalidArgumentError, match="outside dimension 8"):
        evolve_reduced(rho0, _eff(), OHMIC, BathState(), [1.0],
                       pairs=[pair])


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
    """Reference fidelity: full-space matrix square roots; eigenvalues at
    roundoff (up to w_max dim eps) count as zero, as they are in exact
    arithmetic for a rank-deficient rho_a."""
    def _root(w):
        return np.sqrt(np.where(w > w[-1] * w.size * np.finfo(float).eps, w, 0.0))

    w, v = np.linalg.eigh(rho_a)
    s = (v * _root(w)) @ v.conj().T
    return float(np.sum(_root(np.linalg.eigvalsh(s @ rho_b @ s))) ** 2)


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


def _law_reference(rho0, energies, t, q1_vals, q2_vals):
    """rho0 * kernels.dephasing_multipliers at every time, an evaluation of
    the law independent of dynamics, and the mask of the elements whose
    damping exponent that kernel clamps at 350."""
    ref = np.array([rho0 * dephasing_multipliers(energies, tk, a, b)
                    for tk, a, b in zip(t, q1_vals, q2_vals)])
    de = np.subtract.outer(energies, energies)
    return ref, np.multiply.outer(q2_vals, de * de) > 350.0


def test_support_restriction_matches_snapshots(rng):
    cut = FockCutoff(2, 3)
    labels = [TensorBasisLabel(0, 0, 0), TensorBasisLabel(1, 2, 0),
              TensorBasisLabel(2, 1, 0), TensorBasisLabel(0, 0, 1),
              TensorBasisLabel(1, 2, 1)]
    rho0 = _mixed(cut, rng, rank=3, labels=labels)
    traj = evolve_reduced(rho0, _eff(), OHMIC, BathState(beta=2.0),
                          np.linspace(0.0, 20.0, 9))
    # the reference, not snapshots: snapshots and the tracked elements come
    # from the same law in dynamics
    snaps, clamped = _law_reference(rho0.mat, traj.energies, traj.t_grid,
                                    traj.q1_vals, traj.q2_vals)
    assert not clamped.any()
    assert len(traj.pairs) == len(labels) * (len(labels) - 1) // 2
    purity = np.einsum("tij,tji->t", snaps, snaps).real
    dab = cut.dim_a * cut.dim_b
    coherence = np.einsum("tiaja->tij", snaps.reshape(-1, 2, dab, 2, dab))
    assert np.max(np.abs(traj.purity - purity)) <= 1e-14
    assert np.max(np.abs(traj.qubit_coherence - coherence[:, 0, 1])) <= 1e-14
    assert np.abs(traj.qubit_coherence[0]) > 0.01
    rows, cols = traj.pairs.T
    assert np.max(np.abs(traj.element - snaps[:, rows, cols])) <= 1e-14


@pytest.mark.parametrize("case", ["pure", "coherent", "mixed"])
def test_snapshots_and_oracle_follow_the_reference_law(rng, case):
    """snapshots and the oracle's analytic side against rho0 times
    kernels.dephasing_multipliers: the diagonal exactly, every other
    element within 1e-15 |rho_jk|, except where that kernel clamps."""
    cut = FockCutoff(11, 1)
    if case == "pure":
        rho0 = _random_pure(cut, rng)
    elif case == "coherent":
        rho0 = coherent_state("A", 1.0, cut).density()
    else:
        rho0 = _mixed(cut, rng, rank=3)
    support = np.flatnonzero(np.diagonal(rho0.mat).real)
    assert support.size == (12 if case == "coherent" else cut.dim)
    diag = np.arange(cut.dim)

    def check(got, rho, ref, clamped):
        assert np.array_equal(got[:, diag, diag], ref[:, diag, diag])
        bound = 1e-15 * np.broadcast_to(np.abs(rho), got.shape)
        assert np.all((np.abs(got - ref) <= bound) | clamped)

    traj = evolve_reduced(rho0, _eff(), OHMIC, BathState(beta=2.0),
                          np.linspace(0.0, 30.0, 7), pairs=())
    ref, clamped = _law_reference(traj.rho0, traj.energies, traj.t_grid,
                                  traj.q1_vals, traj.q2_vals)
    check(traj.snapshots, traj.rho0, ref, clamped)

    spec = FiniteBathSpec(frequencies=(1.3,), couplings=(0.02,), cutoffs=(3,))
    rep = finite_bath_oracle(rho0, _eff(), spec, np.linspace(2.0, 20.0, 4))
    ref, clamped = _law_reference(rho0.mat, traj.energies, rep.t_grid,
                                  rep.q1_vals, rep.q2_vals)
    check(rep.analytic, rho0.mat, ref, clamped)
    assert rep.max_deviation < 1e-3


def _from_snapshots(traj):
    """Purity, qubit coherence and fidelity of the (nt, dim, dim) tensor."""
    snaps = traj.snapshots
    dab = traj.cutoff.dim_a * traj.cutoff.dim_b
    return (np.einsum("tij,tji->t", snaps, snaps).real,
            np.einsum("tiaja->tij", snaps.reshape(-1, 2, dab, 2, dab))[:, 0, 1],
            np.array([_uhlmann(traj.rho0, snap) for snap in snaps]))


def _random_pure(cut, rng):
    amp = rng.normal(size=cut.dim) + 1j * rng.normal(size=cut.dim)
    return StateVector.normalized(amp, cut).density()


# E = (w' - chi n)(m - i (2 m + 1)) is exactly 0 for m = i = 0
_PARTIAL = [TensorBasisLabel(0, 0, 0), TensorBasisLabel(0, 2, 0),
            TensorBasisLabel(1, 2, 0), TensorBasisLabel(0, 0, 1),
            TensorBasisLabel(1, 2, 1), TensorBasisLabel(0, 3, 0)]


@pytest.mark.parametrize("case, omega_a_prime, t_stop, classes", [
    # w'/chi = 3, the shipped ratio: many labels share an energy
    ("pure", 0.9, 30.0, "degenerate"),
    # w'/chi = pi: only the m = 0, i = 0 labels (all at E = 0) share one
    ("pure", 0.3 * math.pi, 30.0, "distinct"),
    ("rank3", 0.9, 30.0, "degenerate"),
    ("pure", 0.9, 1e3, "degenerate"),
])
def test_class_factored_observables_match_snapshots(rng, case, omega_a_prime,
                                                    t_stop, classes):
    cut = FockCutoff(2, 3)
    rho0 = (_random_pure(cut, rng) if case == "pure"
            else _mixed(cut, rng, rank=3, labels=_PARTIAL))
    eff = _eff(omega_a_prime=omega_a_prime)
    traj = evolve_reduced(rho0, eff, OHMIC, BathState(beta=2.0),
                          np.linspace(0.0, t_stop, 25), pairs=())
    support = np.flatnonzero(np.diagonal(traj.rho0).real)
    u = np.unique(traj.energies[support]).size
    if classes == "degenerate":
        assert u < 0.8 * support.size
    else:
        assert u == support.size - cut.n_max_b
    purity, coherence, fidelity = _from_snapshots(traj)
    assert np.max(np.abs(traj.purity - purity)) <= 1e-12
    assert np.max(np.abs(traj.qubit_coherence - coherence)) <= 1e-12
    assert np.max(np.abs(traj.fidelity_to_initial - fidelity)) <= 1e-12
    assert np.abs(traj.qubit_coherence[0]) > 0.01


def test_class_sums_match_snapshots_at_the_workload_size(rng):
    # a seeded pure state on every label of the benchmark's cutoff, read
    # from its vector (StateVector.density) and, as a matrix that carries
    # no vector, through the detected rank-1 exit
    cut = FockCutoff(11, 11)
    rho0 = _random_pure(cut, rng)
    for rho in (rho0, OperatorMatrix(rho0.mat, cut)):
        traj = evolve_reduced(rho, _eff(), OHMIC, BathState(beta=2.0),
                              np.linspace(0.0, 30.0, 5), pairs=())
        assert traj.root.shape == (cut.dim, 1)
        purity, coherence, fidelity = _from_snapshots(traj)
        assert np.max(np.abs(traj.purity - purity)) <= 1e-12
        assert np.max(np.abs(traj.qubit_coherence - coherence)) <= 1e-12
        assert np.max(np.abs(traj.fidelity_to_initial - fidelity)) <= 1e-12
        assert np.all(traj.purity <= 1.0)
        assert np.all(traj.fidelity_to_initial <= 1.0)
        assert traj.fidelity_to_initial[-1] < 0.9


class _NoDense:
    """Stands in for a dense matrix: any use of it fails the test."""

    def __getattr__(self, name):
        raise AssertionError(f"the dense rho0 was read (.{name})")

    def __getitem__(self, key):
        raise AssertionError("the dense rho0 was indexed")

    def __array__(self, *args, **kwargs):
        raise AssertionError("the dense rho0 was converted")


def _raise(*args, **kwargs):
    raise AssertionError("called on a state built by StateVector.density")


def test_density_state_is_read_from_its_vector(rng, monkeypatch):
    """A StateVector.density matrix is read through its vector alone: no
    hermiticity check, no eigh, no read of the dense matrix.  The same
    matrix without its vector takes the detected rank-1 exit, still without
    an eigh, and gives the same observables."""
    cut = FockCutoff(2, 3)
    labels = [TensorBasisLabel(0, 0, 0), TensorBasisLabel(0, 1, 0),
              TensorBasisLabel(0, 0, 1), TensorBasisLabel(2, 3, 1),
              TensorBasisLabel(2, 3, 0)]
    amp = np.zeros(cut.dim, dtype=complex)
    for lab in labels:
        amp[lab.flat_index(cut)] = rng.normal() + 1j * rng.normal()
    psi = StateVector.normalized(amp, cut)
    state = BathState(beta=2.0)
    t = np.linspace(0.0, 30.0, 7)
    monkeypatch.setattr(np.linalg, "eigh", _raise)
    plain = evolve_reduced(OperatorMatrix(psi.density().mat, cut), _eff(),
                           OHMIC, state, t)
    assert plain.root.shape == (len(labels), 1)

    monkeypatch.setattr(hilbert, "hermiticity_defect", _raise)
    rho0 = psi.density()
    object.__setattr__(rho0, "mat", _NoDense())
    traj = evolve_reduced(rho0, _eff(), OHMIC, state, t)
    assert np.array_equal(traj.root[:, 0], psi.vec[traj.support])
    (q1_vals, q2_vals), (q1_err, q2_err) = q_grids(OHMIC, state, t)
    assert np.array_equal(traj.q1_vals, q1_vals)
    assert np.array_equal(traj.q1_err, q1_err)
    assert np.array_equal(traj.q2_err, q2_err)
    for name in ("purity", "qubit_coherence", "fidelity_to_initial"):
        assert np.max(np.abs(getattr(traj, name) - getattr(plain, name))) <= 1e-15
    assert np.array_equal(traj.pairs, plain.pairs)
    assert np.max(np.abs(traj.element - plain.element)) <= 1e-15
    assert np.array_equal(traj.rho0, np.outer(psi.vec, psi.vec.conj()))
    # a requested element off the support stays 0
    off = evolve_reduced(rho0, _eff(), OHMIC, state, t,
                         pairs=[(labels[0].flat_index(cut),
                                 TensorBasisLabel(1, 0, 0).flat_index(cut))])
    assert not np.any(off.element)


def test_mixed_state_keeps_its_exact_zeros(rng):
    # a mixed rho0 with zeros off its blocks: the default pairs are its
    # nonzero upper elements, with their exact values, although the factor
    # root root^dag fills the zeros with rounding
    cut = FockCutoff(2, 3)
    rho = np.zeros((cut.dim, cut.dim), dtype=complex)
    idx = rng.choice(cut.dim, 6, replace=False)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    rho[np.ix_(idx[:3], idx[:3])] = a @ a.conj().T
    rho[idx[3:], idx[3:]] = [1.0, 0.5, 0.7]
    rho /= np.trace(rho).real
    traj = evolve_reduced(OperatorMatrix(rho, cut), _eff(), OHMIC,
                          BathState(beta=2.0), np.array([0.0, 2.0]))
    rows, cols = np.nonzero(np.triu(rho, k=1))
    assert np.array_equal(traj.pairs, np.stack((rows, cols), axis=1))
    assert np.array_equal(traj.element[0], rho[rows, cols])


def test_density_state_costs_no_dense_pass():
    # three labels of a dim-968 space: evolve_reduced allocates far less
    # than one dim x dim complex array (15 MB), which the dense path copied
    cut = FockCutoff(21, 21)
    rho0 = _plus_state(cut, [TensorBasisLabel(0, 0, 0), TensorBasisLabel(1, 2, 0),
                             TensorBasisLabel(1, 2, 1)]).density()
    args = (rho0, _eff(), OHMIC, BathState(beta=2.0), np.linspace(0.0, 30.0, 30))
    evolve_reduced(*args)
    tracemalloc.start()
    try:
        traj = evolve_reduced(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * cut.dim ** 2 * 16
    assert traj.support.size == 3 and abs(traj.qubit_coherence[0]) > 0.3


@pytest.mark.parametrize("cut", [FockCutoff(11, 11), FockCutoff(2, 3)])
def test_class_gaps_are_numpy_unique(cut):
    # the energy classes of every label of the benchmark's cutoff (208 of
    # them) and of a small one: the same gaps and inverse as np.unique of
    # the full matrix of squared gaps
    levels = np.unique(energies_vector(_eff(), cut))
    gaps, gap_of = _class_gaps(levels)
    want, inverse = np.unique(np.subtract.outer(levels, levels) ** 2,
                              return_inverse=True)
    assert np.array_equal(gaps, want)
    assert np.array_equal(gap_of, inverse.reshape(levels.size, levels.size))
    assert gap_of.dtype == np.intp


def test_nearly_pure_state_takes_the_general_fidelity(rng):
    # a second eigenvalue of 1e-9 is above the density check's tolerance,
    # so the fidelity is Uhlmann's on the rank-2 range, not <psi|rho|psi>
    cut = FockCutoff(2, 3)
    q, _ = np.linalg.qr(rng.normal(size=(cut.dim, 2))
                        + 1j * rng.normal(size=(cut.dim, 2)))
    rho0 = np.outer(q[:, 0], q[:, 0].conj()) \
        + 1e-9 * np.outer(q[:, 1], q[:, 1].conj())
    traj = evolve_reduced(OperatorMatrix(rho0 / np.trace(rho0).real, cut),
                          _eff(), OHMIC, BathState(beta=2.0),
                          np.linspace(0.0, 30.0, 7), pairs=())
    assert abs(traj.fidelity_to_initial[0] - 1.0) <= 1e-15
    # at t = 0 the reference's cutoff drops the eigenvalue 1e-18 of rho0^2;
    # later the range adds the root of an eigenvalue near 1e-10 to
    # sqrt(F), whose rounding (about 1e-17) moves F by about 1e-12
    ref = [_uhlmann(traj.rho0, snap) for snap in traj.snapshots[1:]]
    assert np.max(np.abs(traj.fidelity_to_initial[1:] - ref)) <= 1e-11
    pure = evolve_reduced(OperatorMatrix(np.outer(q[:, 0], q[:, 0].conj()), cut),
                          _eff(), OHMIC, BathState(beta=2.0), traj.t_grid,
                          pairs=())
    assert np.min(np.abs(traj.fidelity_to_initial - pure.fidelity_to_initial)[1:]) > 1e-7


def test_observables_need_no_element_multipliers(rng, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("dephasing_multipliers called")

    monkeypatch.setattr(kernels, "dephasing_multipliers", refuse)
    cut = FockCutoff(3, 3)
    traj = evolve_reduced(_random_pure(cut, rng), _eff(), OHMIC,
                          BathState(beta=2.0), np.linspace(0.0, 20.0, 11),
                          pairs=())
    assert abs(traj.fidelity_to_initial[0] - 1.0) <= 1e-14
    assert abs(traj.purity[0] - 1.0) <= 1e-14
    assert np.all(np.diff(traj.purity) <= 1e-14)


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
    for k, nbar in enumerate(spec.occupations or (0.0,) * len(spec.cutoffs)):
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
    closed, _ = _law_reference(rho0.mat, energies_vector(eff, cut), t,
                               q1_vals, q2_vals)
    assert np.max(np.abs(rep.reduced - closed)) < 1e-6


def test_finite_bath_spec_needs_a_mode():
    with pytest.raises(InvalidArgumentError, match="mode count"):
        FiniteBathSpec((), (), ())


@pytest.mark.parametrize("spec, field", [
    (((np.nan,), (0.05,), (3,)), "frequencies"),
    (((np.inf,), (0.05,), (3,)), "frequencies"),
    (((1.3,), (np.nan,), (3,)), "couplings"),
    (((1.3,), (0.05,), (3,), (np.nan,)), "occupations"),
])
def test_finite_bath_spec_rejects_non_finite(spec, field):
    with pytest.raises(InvalidArgumentError, match=field):
        FiniteBathSpec(*spec)


@pytest.mark.parametrize("cutoff", [3, 3.0, np.int64(3), np.float64(3.0)])
def test_finite_bath_spec_accepts_integer_cutoffs(cutoff):
    spec = FiniteBathSpec((1.3,), (0.05,), (cutoff,))
    assert spec.cutoffs == (3,) and type(spec.cutoffs[0]) is int


@pytest.mark.parametrize("cutoff", [2.7, 1.3, np.float64(3.5), np.nan,
                                    np.inf, "3"])
def test_finite_bath_spec_rejects_non_integer_cutoffs(cutoff):
    with pytest.raises(InvalidArgumentError, match="cutoffs must be integers"):
        FiniteBathSpec((1.3,), (0.05,), (cutoff,))


def test_evolve_reduced_makes_one_ohmic_kernel_pass(monkeypatch):
    """Q1 of an ohmic bath, and Q2 at T = 0, are closed forms: the grid
    makes one pass of the image sum at a finite temperature, for the
    thermal Q2, and none at T = 0."""
    calls = []
    images = bath._thermal_images

    def counted(model, beta, *args, **kwargs):
        calls.append(beta)
        return images(model, beta, *args, **kwargs)

    monkeypatch.setattr(bath, "_thermal_images", counted)
    cut = FockCutoff(2, 2)
    labels = [TensorBasisLabel(0, 0, 0), TensorBasisLabel(1, 2, 0),
              TensorBasisLabel(2, 1, 1)]
    for state, kernel_calls in ((BathState(), []), (BathState(beta=2.0), [2.0])):
        del calls[:]
        evolve_reduced(_plus_state(cut, labels).density(), _eff(), OHMIC, state,
                       np.linspace(0.0, 400.0, 150))
        assert calls == kernel_calls


def test_evolve_reduced_eigendecomposes_only_mixed_states(rng, monkeypatch):
    cut = FockCutoff(2, 2)
    labels = [TensorBasisLabel(0, 0, 0), TensorBasisLabel(1, 2, 0),
              TensorBasisLabel(2, 1, 1), TensorBasisLabel(0, 1, 1)]
    calls = []
    for name in ("eigh", "eigvalsh"):
        def counted(a, *args, _inner=getattr(np.linalg, name), _name=name,
                    **kwargs):
            calls.append((_name, np.shape(a)))
            return _inner(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    t = np.linspace(0.0, 3.0, 4)
    traj = evolve_reduced(_plus_state(cut, labels).density(), _eff(), OHMIC,
                          BathState(beta=2.0), t)
    assert calls == []
    assert abs(traj.fidelity_to_initial[0] - 1.0) <= 1e-15

    evolve_reduced(_mixed(cut, rng, rank=3, labels=labels), _eff(), OHMIC,
                   BathState(beta=2.0), t)
    # one eigh of the 4 x 4 support block, then eigvalsh on the rank-3 range
    # once per time, in stacks over blocks of times
    assert [c for c in calls if c[0] == "eigh"] == [("eigh", (4, 4))]
    stacks = [c[1] for c in calls if c[0] == "eigvalsh"]
    assert all(shape[-2:] == (3, 3) for shape in stacks)
    assert sum(math.prod(shape[:-2]) for shape in stacks) == t.size


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


def _eigh_propagate(h: np.ndarray, psi0: np.ndarray,
                    t: np.ndarray) -> np.ndarray:
    """Rows are psi0 propagated by the dense hermitian h at each time."""
    w, v = np.linalg.eigh(h)
    return (np.exp(-1j * np.outer(t, w)) * (v.conj().T @ psi0)) @ v.T


def _dense_fidelity(psi0: StateVector, eff: EffectiveParams, e_j: float,
                    t: np.ndarray) -> np.ndarray:
    """The dispersive check by dense eigh of build_jc's operator-product
    matrix, against the phases of the diagonal of build_diagonal plus
    frame_free_part: a reference that shares neither the doublet layout
    nor the level law of dispersive_check."""
    from cqdeph.hamiltonians import build_diagonal, build_jc, frame_free_part
    cut = psi0.cutoff
    h_cmp = build_diagonal(eff, cut) + frame_free_part(eff, e_j, cut)
    psi = psi0.vec
    psi_jc = _eigh_propagate(build_jc(eff, e_j, cut).mat, psi, t)
    psi_cmp = np.exp(-1j * np.outer(t, h_cmp)) * psi
    return np.abs(np.einsum("tj,tj->t", psi_jc.conj(), psi_cmp)) ** 2


_JC_EFF = EffectiveParams(g_a=0.05, phi_b=0.1, phi_e=0.0, n_g_dc=0.5,
                          omega_a=1.0, omega_a_prime=0.9, chi=0.3)


def _random_state(cut: FockCutoff, seed: int = 5) -> StateVector:
    rng = np.random.default_rng(seed)
    return StateVector.normalized(rng.normal(size=cut.dim)
                                  + 1j * rng.normal(size=cut.dim), cut)


# (t, fidelity) of dispersive_check's input in the test below, from
# tools/jc_gold.py: mpmath expm of the dense JC matrix at 40 and 60 digits,
# which agreed to 5.2e-42
JC_GOLD = [
    (0.0, 1.0000000000000001),
    (1.8181818181818181, 0.048149556664542062),
    (3.6363636363636362, 0.017325495035236607),
    (5.454545454545454, 0.017575815805696553),
    (7.2727272727272725, 0.12103371907136424),
    (9.09090909090909, 0.047914693708932853),
    (10.909090909090908, 0.15213786311816519),
    (12.727272727272727, 0.0625177248419519),
    (14.545454545454545, 0.11484930272232673),
    (16.363636363636363, 0.0072236241026447916),
    (18.18181818181818, 0.023995435566183886),
    (20.0, 0.067468842218770648),
    (21.818181818181817, 0.50029749664134508),
    (23.636363636363637, 0.020329912291044787),
    (25.454545454545453, 0.0065816023210241142),
    (27.272727272727273, 0.013762731289441742),
    (29.09090909090909, 0.0045491866662226565),
    (30.909090909090907, 0.20697354417318867),
    (32.72727272727273, 0.12053564885068115),
    (34.54545454545455, 0.0037673826841160257),
    (36.36363636363636, 0.069859508794679241),
    (38.18181818181818, 0.00046839743373480091),
    (40.0, 0.044571183886126321),
]


def test_dispersive_check_meets_the_40_digit_propagation():
    # the closed-form doublets read 1.2e-15 from these values, a few eps of
    # rounding in the 24-term overlap; the dense eigh reference reads
    # 4.6e-15, its eigenvalue rounding grown over t = 40
    t, gold = np.array(JC_GOLD).T
    psi0 = _random_state(FockCutoff(3, 2))
    chk = dispersive_check(psi0, _JC_EFF, 0.4, t)
    assert np.max(np.abs(chk.fidelity - gold)) <= 1.7e-15
    assert np.max(np.abs(_dense_fidelity(psi0, _JC_EFF, 0.4, t) - gold)) <= 1e-13


def test_validate_jc_gold_rows_are_rows_of_jc_gold():
    # the jc_doublet_gold validate row holds four of these rows; a
    # regenerated gold must reach both copies
    from cqdeph.validation import _JC_GOLD
    assert set(_JC_GOLD) <= set(JC_GOLD)


def test_dispersive_check_phases_match_dense_propagation():
    # the closed-form doublets against dense eigh propagation of the JC
    # matrix, over random states up to dim 462
    t = np.linspace(0.0, 40.0, 23)
    for cut in (FockCutoff(3, 2), FockCutoff(8, 4), FockCutoff(20, 10)):
        psi0 = _random_state(cut)
        chk = dispersive_check(psi0, _JC_EFF, 0.4, t)
        assert np.max(np.abs(chk.fidelity
                             - _dense_fidelity(psi0, _JC_EFF, 0.4, t))) <= 1e-12


def test_dispersive_check_runs_past_the_dense_cap(monkeypatch):
    # dim 5002 > DENSE_DIM_CAP: a state over low labels reads as it does at
    # (4, 2), where it lies inside the same doublets; (4, n, 1) is left
    # empty, a singleton at (4, 2) but paired with (5, n, 0) here
    small, big = FockCutoff(4, 2), FockCutoff(60, 40)
    assert big.dim > hilbert.DENSE_DIM_CAP
    rng = np.random.default_rng(11)
    labels = [TensorBasisLabel(m, n, i) for m in range(5) for n in range(3)
              for i in range(2) if (m, i) != (4, 1)]
    amp = rng.normal(size=len(labels)) + 1j * rng.normal(size=len(labels))
    states = []
    for cut in (small, big):
        vec = np.zeros(cut.dim, dtype=complex)
        vec[[lab.flat_index(cut) for lab in labels]] = amp
        states.append(StateVector.normalized(vec, cut))

    def refuse(*args, **kwargs):
        raise AssertionError("dispersive_check diagonalised a matrix")
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    t = np.linspace(0.0, 200.0, 41)
    fids = [dispersive_check(psi0, _JC_EFF, 0.4, t).fidelity for psi0 in states]
    assert np.max(np.abs(fids[1] - fids[0])) <= 1e-15


@pytest.mark.parametrize("e_j", [math.nan, math.inf])
def test_dispersive_check_non_finite_stage_raises(e_j):
    with pytest.raises(NumericsError, match="jc stage is not finite"):
        dispersive_check(_random_state(FockCutoff(2, 1)), _JC_EFF, e_j, [0.0, 1.0])
