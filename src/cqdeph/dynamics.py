"""Reduced dephasing dynamics and the brute-force checks that certify it.

Everything here works in hbar = 1 units: energies are angular frequencies
and time grids are in the inverse unit.  The closed-form evolution
multiplies each density-matrix element by

    exp(-i dE t) * exp(-i (E'^2 - E^2) Q1(t)) * exp(-(dE)^2 Q2(t))

with the level energies from :mod:`cqdeph.spectrum` used for all three
factors.  Populations are exactly frozen; only coherences move, and a zero
of rho0 stays zero, so `evolve_reduced` works on the support of rho0 alone.

Two independent validators live here as well: a finite-mode bath propagated
exactly, one displaced oscillator per mode and system energy
(`finite_bath_oracle`), and a fidelity comparison of the number-dependent
JC stage against its dispersive normal form (`dispersive_check`).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import bath, kernels, spectrum
from .device import EffectiveParams
from .errors import CapacityError, InvalidArgumentError, NumericsError
from .hamiltonians import (
    FRAME_B_ROTATING,
    build_diagonal,
    build_jc,
    frame_free_part,
)
from .hilbert import (
    FockCutoff,
    OperatorMatrix,
    StateVector,
    TensorBasisLabel,
    require_density_matrix,
)

OBSERVABLE_NAMES = ("purity", "qubit_coherence", "fidelity_to_initial")

# largest number of complex elements DephasingTrajectory.snapshots may hold
SNAPSHOT_CAP = 50_000_000


@dataclass(frozen=True)
class PairRecord:
    """Per-element bookkeeping for one coherence rho[row, col]."""

    row: int
    col: int
    label_row: TensorBasisLabel
    label_col: TensorBasisLabel
    delta_e: float
    square_diff: float
    phase: np.ndarray     # dphi(t) = (E_row^2 - E_col^2) Q1(t)
    damping: np.ndarray   # Gamma(t) = (E_row - E_col)^2 Q2(t)
    element: np.ndarray   # rho[row, col](t)


@dataclass(frozen=True)
class DephasingTrajectory:
    """Observables of rho(t) = rho0 * M(t) at each grid time.

    rho(t) itself is not stored; ``snapshots`` rebuilds it on each access.
    """

    cutoff: FockCutoff
    t_grid: np.ndarray
    rho0: np.ndarray
    energies: np.ndarray
    q1_vals: np.ndarray
    q2_vals: np.ndarray
    pairs: tuple[PairRecord, ...]
    purity: np.ndarray
    qubit_coherence: np.ndarray
    fidelity_to_initial: np.ndarray

    @property
    def dim(self) -> int:
        return self.rho0.shape[0]

    @property
    def snapshots(self) -> np.ndarray:
        """rho(t) at every grid time, (nt, dim, dim), built on each access."""
        return _closed_form(self.rho0, self.energies, self.t_grid,
                            self.q1_vals, self.q2_vals)


def _closed_form(rho0: np.ndarray, energies: np.ndarray, t: np.ndarray,
                 q1_vals: np.ndarray, q2_vals: np.ndarray) -> np.ndarray:
    """rho0 * M(t) for every grid time, filled into one (nt, dim, dim) array."""
    dim = rho0.shape[0]
    if t.size * dim ** 2 > SNAPSHOT_CAP:
        raise CapacityError(f"{t.size} snapshots of a {dim}x{dim} matrix "
                            "exceed SNAPSHOT_CAP; shrink the grid or cutoff")
    out = np.empty((t.size, dim, dim), dtype=complex)
    for k in range(t.size):
        out[k] = rho0 * kernels.dephasing_multipliers(
            energies, float(t[k]), float(q1_vals[k]), float(q2_vals[k]))
    return out


def _check_t_grid(t_grid) -> np.ndarray:
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size == 0:
        raise InvalidArgumentError("t_grid must be a nonempty 1-D array")
    if not np.all(np.isfinite(t)):
        raise InvalidArgumentError("t_grid entries must be finite")
    if t[0] < 0 or np.any(np.diff(t) <= 0):
        raise InvalidArgumentError(
            "t_grid must be strictly increasing and non-negative"
        )
    return t


def _need_cutoff(op) -> FockCutoff:
    if op.cutoff is None:
        raise InvalidArgumentError(
            "operator carries no FockCutoff; construct it with one"
        )
    return op.cutoff


def evolve_reduced(rho0: OperatorMatrix, eff: EffectiveParams, model,
                   state: bath.BathState, t_grid, *,
                   rtol: float = bath.DEFAULT_RTOL,
                   pairs=None) -> DephasingTrajectory:
    """Closed-form reduced evolution of a density matrix under dephasing.

    Q1/Q2 are evaluated once per grid time and shared by all element pairs.
    ``pairs`` selects which coherences get PairRecords (defaults to every
    nonzero element above the diagonal of rho0).  One pass over the grid
    evolves the block of rho0 on its support S (the rows with a nonzero
    entry) and keeps the observables.  Uhlmann's fidelity
    (Tr sqrt(sqrt(rho0) rho sqrt(rho0)))^2 is taken on the range of rho0:
    with the eigenpairs (w, V) of rho0 above w_max |S| eps and
    W = V sqrt(w), sqrt(rho0) rho sqrt(rho0) has the eigenvalues of
    W^dag rho W.  For a pure state that is <psi|rho|psi>, so F(0) = 1.
    """
    cutoff = _need_cutoff(rho0)
    t = _check_t_grid(t_grid)
    support, w, v = require_density_matrix(rho0)
    rho = np.array(rho0.mat, dtype=complex)

    energies = spectrum.energies_vector(eff, cutoff)
    q1_vals = bath.q1_grid(model, t, rtol)
    q2_vals = bath.q2_grid(model, state, t, rtol)

    rho_s, e_s = rho[np.ix_(support, support)], energies[support]
    # the qubit coherence sums rho[(m, n, 0), (m, n, 1)] over (m, n)
    m, n, i = (x[support] for x in cutoff.numbers())
    qubit = (m[:, None] == m) & (n[:, None] == n) & (i[:, None] < i)
    keep = w > w[-1] * support.size * np.finfo(float).eps
    root = v[:, keep] * np.sqrt(w[keep])
    series = []
    for k in range(t.size):
        blk = rho_s * kernels.dephasing_multipliers(
            e_s, float(t[k]), float(q1_vals[k]), float(q2_vals[k]))
        lam = np.clip(np.linalg.eigvalsh(root.conj().T @ blk @ root), 0.0, None)
        series.append((np.einsum("ij,ji->", blk, blk).real,
                       blk[qubit].sum(), np.sum(np.sqrt(lam)) ** 2))
    purity, coherence, fidelity = (np.array(x) for x in zip(*series))

    if pairs is None:
        rows, cols = np.nonzero(np.triu(np.abs(rho_s), k=1))
        req = list(zip(support[rows].tolist(), support[cols].tolist()))
    else:
        req = []
        for pa, pb in pairs:
            if isinstance(pa, TensorBasisLabel):
                pa = pa.flat_index(cutoff)
            if isinstance(pb, TensorBasisLabel):
                pb = pb.flat_index(cutoff)
            req.append((int(pa), int(pb)))

    records = []
    for row, col in req:
        # from_flat rejects an index outside the space before it is used
        label_row = TensorBasisLabel.from_flat(row, cutoff)
        label_col = TensorBasisLabel.from_flat(col, cutoff)
        de = float(energies[row] - energies[col])
        sq = float(energies[row] ** 2 - energies[col] ** 2)
        phase = sq * q1_vals
        damping = de * de * q2_vals
        records.append(PairRecord(
            row=row, col=col, label_row=label_row, label_col=label_col,
            delta_e=de, square_diff=sq, phase=phase, damping=damping,
            element=rho[row, col] * np.exp(-1j * (de * t + phase) - damping),
        ))
    return DephasingTrajectory(
        cutoff=cutoff, t_grid=t, rho0=rho, energies=energies,
        q1_vals=q1_vals, q2_vals=q2_vals, pairs=tuple(records),
        purity=purity, qubit_coherence=coherence, fidelity_to_initial=fidelity,
    )


def observables(traj: DephasingTrajectory, which: str) -> np.ndarray:
    """Scalar time series derived from a trajectory.

    purity               Tr rho(t)^2 (real)
    qubit_coherence      the (0, 1) element of the qubit state after tracing
                         out both resonators (complex)
    fidelity_to_initial  Uhlmann fidelity of the full reduced state rho(t)
                         against rho(0) -- the three-factor system is itself
                         the subsystem left after the reservoir trace
    """
    if which not in OBSERVABLE_NAMES:
        raise InvalidArgumentError(
            f"unknown observable {which!r}; expected one of {OBSERVABLE_NAMES}")
    return getattr(traj, which)


@dataclass(frozen=True)
class FiniteBathSpec:
    """A small explicit reservoir: K modes with truncations and occupancies.

    occupations are mean thermal photon numbers per mode (None = vacuum);
    the initial bath state is the exact truncated thermal density matrix,
    never a sampled ensemble, so runs are deterministic.
    """

    frequencies: tuple[float, ...]
    couplings: tuple[float, ...]
    cutoffs: tuple[int, ...]
    occupations: tuple[float, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "frequencies", tuple(float(w) for w in self.frequencies))
        object.__setattr__(self, "couplings", tuple(float(c) for c in self.couplings))
        object.__setattr__(self, "cutoffs", tuple(int(c) for c in self.cutoffs))
        if self.occupations is not None:
            object.__setattr__(
                self, "occupations", tuple(float(x) for x in self.occupations)
            )
        k = len(self.frequencies)
        if k < 1:
            raise InvalidArgumentError(f"mode count must be >= 1, got {k}")
        if len(self.couplings) != k or len(self.cutoffs) != k:
            raise InvalidArgumentError(
                "frequencies, couplings, cutoffs must have equal length"
            )
        if self.occupations is not None and len(self.occupations) != k:
            raise InvalidArgumentError("occupations length must match modes")
        if not all(math.isfinite(w) and w > 0 for w in self.frequencies):
            raise InvalidArgumentError(
                "mode frequencies must be finite and positive")
        if not all(math.isfinite(c) for c in self.couplings):
            raise InvalidArgumentError("mode couplings must be finite")
        if any(c < 1 for c in self.cutoffs):
            raise InvalidArgumentError("mode cutoffs must be >= 1")
        if self.occupations is not None and not all(
                math.isfinite(x) and x >= 0 for x in self.occupations):
            raise InvalidArgumentError("occupations must be finite and >= 0")

    @property
    def n_modes(self) -> int:
        return len(self.frequencies)

    def mean_occupations(self) -> tuple[float, ...]:
        if self.occupations is None:
            return (0.0,) * self.n_modes
        return self.occupations


@dataclass(frozen=True)
class FiniteBathReport:
    t_grid: np.ndarray
    reduced: np.ndarray         # (nt, dim_S, dim_S), brute-force propagation
    analytic: np.ndarray        # (nt, dim_S, dim_S), closed-form law
    deviation: np.ndarray       # per-t max entrywise |reduced - analytic|
    max_deviation: float
    displacement_metric: float
    total_dim: int
    q1_vals: np.ndarray
    q2_vals: np.ndarray


def _thermal_diag(n_levels: int, nbar: float) -> np.ndarray:
    if nbar == 0.0:
        p = np.zeros(n_levels)
        p[0] = 1.0
        return p
    r = nbar / (1.0 + nbar)
    p = r ** np.arange(n_levels)
    return p / p.sum()


def finite_bath_oracle(rho0_system: OperatorMatrix, eff: EffectiveParams,
                       spec: FiniteBathSpec, t_grid) -> FiniteBathReport:
    """Exact finite-bath propagation against the closed-form dephasing law.

    The composite Hamiltonian is

        H_T = H_S + sum_k w_k n_k + H_S sum_k c_k (b_k + b_k^dag)
              + H_S^2 sum_k c_k^2 / w_k

    with H_S the diagonal system Hamiltonian.  The quadratic term is the
    displacement counter-term: each bath mode is displaced by -E c_k/w_k in
    the eigenspace at system energy E, at polaron energy -E^2 c_k^2/w_k, and
    the counter-term cancels exactly that shift.  With it the reduced
    coherences obey the closed-form law with the discrete sums

        Q1(t) = sum_k (c_k^2/w_k^2) sin(w_k t)
        Q2(t) = 2 sum_k (c_k^2/w_k^2) sin^2(w_k t/2) (1 + 2 nbar_k)

    (a 1/w_k^2 weight in the counter-term would instead leave secular
    phases growing linearly in t, and the law would fail).

    H_S is diagonal, so H_T is block diagonal in the system labels and each
    block at energy E is a sum of independent displaced oscillators (the
    independent-boson structure).  The propagation is therefore factored:
    one small eigh of w_k n + c_k E (b + b^dag) per mode and distinct E
    gives u_k(E, t), and

        reduced[j, l](t) = rho_s[j, l] exp(-i (eps_j - eps_l) t)
                           prod_k Tr[u_k(E_j, t) rho_k u_k(E_l, t)^dag]

    with eps = E + E^2 sum_k c_k^2/w_k.  This is the exact propagation of
    the truncated bath, no composite matrix is formed, and the Q1/Q2 sums
    enter only the analytic side.

    The only approximation left is the bath Fock truncation; its reach is
    the displacement metric max |E c_k / w_k|, warned about above 0.3 and
    rejected above 1.0.
    """
    cutoff = _need_cutoff(rho0_system)
    require_density_matrix(rho0_system)
    rho_s = np.array(rho0_system.mat, dtype=complex)
    t = _check_t_grid(t_grid)

    energies = spectrum.energies_vector(eff, cutoff)
    e_scale = float(np.max(np.abs(energies)))
    metric = max(
        e_scale * abs(c) / w
        for c, w in zip(spec.couplings, spec.frequencies)
    )
    if metric > 1.0:
        raise NumericsError(
            f"displacement metric {metric:.3g} > 1.0: bath truncation "
            "cannot represent the displaced states"
        )
    if metric > 0.3:
        warnings.warn(
            f"displacement metric {metric:.3g} > 0.3: bath-truncation error "
            "may dominate the comparison",
            stacklevel=2,
        )

    occ = spec.mean_occupations()
    levels, index = np.unique(energies, return_inverse=True)
    # bath[a, b, t] = prod_k Tr[u_k(E_a, t) rho_k u_k(E_b, t)^dag]
    bath_factor = np.ones((levels.size, levels.size, t.size), dtype=complex)
    for w, c, nb, nbar in zip(spec.frequencies, spec.couplings, spec.cutoffs,
                              occ):
        b = np.diag(np.sqrt(np.arange(1, nb + 1, dtype=float)), k=1)
        x = b + b.T
        lam, v = np.linalg.eigh(w * np.diag(np.arange(nb + 1.0))
                                + c * levels[:, None, None] * x)
        u = np.einsum("amn,atn,akn->atmk", v,
                      np.exp(-1j * lam[:, None, :] * t[:, None]), v)
        p = _thermal_diag(nb + 1, nbar)
        bath_factor *= np.einsum("atmn,n,btmn->abt", u, p, u.conj())
    renorm = sum(c * c / w for c, w in zip(spec.couplings, spec.frequencies))
    eps = levels + levels**2 * renorm
    phase = np.exp(-1j * np.subtract.outer(eps, eps)[:, :, None] * t)
    blocks = np.moveaxis(phase * bath_factor, 2, 0)
    reduced = rho_s * blocks[:, index][:, :, index]

    ws = np.array(spec.frequencies)
    cs = np.array(spec.couplings)
    coth = 1.0 + 2.0 * np.array(occ)
    weight = cs * cs / (ws * ws)
    q1_vals = np.array([np.sum(weight * np.sin(ws * tk)) for tk in t])
    q2_vals = np.array(
        [2.0 * np.sum(weight * np.sin(0.5 * ws * tk) ** 2 * coth) for tk in t]
    )

    analytic = _closed_form(rho_s, energies, t, q1_vals, q2_vals)
    deviation = np.max(np.abs(reduced - analytic), axis=(1, 2))
    return FiniteBathReport(
        t_grid=t, reduced=reduced, analytic=analytic, deviation=deviation,
        max_deviation=float(np.max(deviation)),
        displacement_metric=float(metric),
        total_dim=rho_s.shape[0] * math.prod(c + 1 for c in spec.cutoffs),
        q1_vals=q1_vals, q2_vals=q2_vals,
    )


@dataclass(frozen=True)
class DispersiveCheck:
    t_grid: np.ndarray
    fidelity: np.ndarray
    min_fidelity: float
    mean_photons_a: float
    jc_frame: str
    comparison_frame: str


def dispersive_check(psi0: StateVector, eff: EffectiveParams, e_j_max: float,
                     t_grid) -> DispersiveCheck:
    """Fidelity of the dispersive normal form against the JC stage.

    Both states are propagated in the mode-B picture: the JC stage lives
    there already, and the diagonal stage is pulled back by re-adding the
    free part that was rotated away.  That comparison Hamiltonian is
    diagonal, so each label just picks up its own phase.  ``e_j_max`` is an
    angular frequency, as for the reduced builders.

    The initial mean photon number of mode A is reported because the
    dispersive approximation degrades as photons increase.
    """
    cutoff = _need_cutoff(psi0)
    t = _check_t_grid(t_grid)
    jc = build_jc(eff, e_j_max, cutoff)
    h_cmp = np.real(np.diagonal(build_diagonal(eff, cutoff).matrix.mat)
                    + np.diagonal(frame_free_part(eff, e_j_max, cutoff).mat))

    psi = np.array(psi0.vec, dtype=complex)
    mean_photons = float(np.sum(cutoff.numbers()[0] * np.abs(psi) ** 2))

    psi_jc = _propagate_states(jc.matrix.mat, psi, t)
    psi_cmp = np.exp(-1j * np.outer(t, h_cmp)) * psi
    overlap = np.einsum("tj,tj->t", psi_jc.conj(), psi_cmp)
    fid = np.abs(overlap) ** 2
    return DispersiveCheck(
        t_grid=t, fidelity=fid, min_fidelity=float(np.min(fid)),
        mean_photons_a=mean_photons, jc_frame=jc.frame,
        comparison_frame=FRAME_B_ROTATING,
    )


def _propagate_states(h: np.ndarray, psi0: np.ndarray,
                      t_grid: np.ndarray) -> np.ndarray:
    """Rows are the propagated state at each grid time."""
    w, v = np.linalg.eigh(h)
    coeff = v.conj().T @ psi0
    return (np.exp(-1j * np.outer(t_grid, w)) * coeff) @ v.T
