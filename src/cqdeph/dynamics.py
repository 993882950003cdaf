"""Reduced dephasing dynamics and the brute-force checks that certify it.

Everything here works in hbar = 1 units: energies are angular frequencies
and time grids are in the inverse unit.  The closed-form evolution
multiplies each density-matrix element by

    exp(-i dE t) * exp(-i (E'^2 - E^2) Q1(t)) * exp(-(dE)^2 Q2(t))

with the level energies from :mod:`cqdeph.spectrum` used for all three
factors.  Populations are exactly frozen; only coherences move, and a zero
of rho0 stays zero, so `evolve_reduced` works on the support of rho0 alone.
The multiplier factors as a_j conj(a_k) g_c(j)c(k), a phase per level times
a real damping per pair of energy classes that is 1 inside a class (the
decoherence-free subspace), so `evolve_reduced` computes |S| phases and
one damping per distinct squared gap between the u energies of a support
S per time, not a complex exponential per element.  The element-wise law
is written once, in `bath._element_law`: it gives the tracked elements and
the qubit coherence that the CLI writes, `DephasingTrajectory.snapshots`
and the analytic side of `finite_bath_oracle`, so the oracle checks the
law whose numbers are written.  A pure rho0, the
state every CLI run starts from, needs no eigendecomposition, and one
built by ``StateVector.density`` is read from its vector alone: its
observables are sums over the u energy classes.

Two independent validators live here as well: a finite-mode bath propagated
exactly, one displaced oscillator per mode and system energy
(`finite_bath_oracle`), and a fidelity comparison of the number-dependent
JC stage against its dispersive normal form (`dispersive_check`).  The JC
stage conserves n_b and n_a + sigma_+ sigma_-, so it is a direct sum of 2 x 2
doublets and singletons; `dispersive_check` propagates it in closed form in
O(nt dim), with no dense matrix and no dimension cap.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import bath, spectrum
from .device import EffectiveParams
from .errors import CapacityError, InvalidArgumentError, NumericsError
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
# most coherences evolve_reduced tracks when it is given no pairs
DEFAULT_PAIR_CAP = 256
# elements of the gathered damping g that evolve_reduced's observables hold
# for a block of times: 150 times of a few classes form one block, and a
# 208-class state takes one time per block
_OBS_BLOCK = 1 << 13


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
class DephasingTrajectory:
    """Observables of rho(t) = rho0 * M(t) at each grid time.

    rho0 is held through its support and a factor root of the support
    block (``require_density_matrix``): ``rho0`` and ``snapshots`` rebuild
    the dense matrices on each access.  For a pure rho0 that is exact; a
    mixed rho0 comes back as root root^dag, its numerical range, within
    rounding of the matrix given.  ``q1_err`` and
    ``q2_err`` are the error estimates of ``q1_vals`` and ``q2_vals``:
    rounding and truncation bounds for an ohmic bath, quadrature estimates
    for a tabulated one.
    """

    cutoff: FockCutoff
    t_grid: np.ndarray
    support: np.ndarray
    root: np.ndarray
    energies: np.ndarray
    q1_vals: np.ndarray
    q2_vals: np.ndarray
    q1_err: np.ndarray
    q2_err: np.ndarray
    pairs: tuple[PairRecord, ...]
    purity: np.ndarray
    qubit_coherence: np.ndarray
    fidelity_to_initial: np.ndarray

    @property
    def dim(self) -> int:
        return self.cutoff.dim

    @property
    def rho0(self) -> np.ndarray:
        """rho(0) as a dim x dim array, built on each access."""
        rho = np.zeros((self.dim, self.dim), dtype=complex)
        rho[np.ix_(self.support, self.support)] = _support_block(self.root)
        return rho

    @property
    def snapshots(self) -> np.ndarray:
        """rho(t) at every grid time, (nt, dim, dim), built on each access.

        Each time fills the support block from ``bath._element_law``, the law
        that gives the tracked elements and the qubit coherence, so a time
        holds temporaries of the size of the block, not of the tensor."""
        nt, dim = self.t_grid.size, self.dim
        if nt * dim ** 2 > SNAPSHOT_CAP:
            raise CapacityError(f"{nt} snapshots of a {dim}x{dim} matrix "
                                "exceed SNAPSHOT_CAP; shrink the grid or cutoff")
        rho_s = _support_block(self.root)
        e = self.energies[self.support]
        block = np.ix_(self.support, self.support)
        out = np.zeros((nt, dim, dim), dtype=complex)
        for k in range(nt):
            out[k][block] = bath._element_law(rho_s, e[:, None], e[None, :],
                                              self.t_grid[k], self.q1_vals[k],
                                              self.q2_vals[k])[2]
        return out


def _support_block(root: np.ndarray) -> np.ndarray:
    """rho0 on its support, root root^dag; a pure root gives the products
    psi_j conj(psi_k) that np.outer gives."""
    if root.shape[1] == 1:
        return np.multiply.outer(root[:, 0], root[:, 0].conj())
    return root @ root.conj().T


def _elements(root: np.ndarray, rho_s: np.ndarray | None, a: np.ndarray,
              b: np.ndarray) -> np.ndarray:
    """The elements rho0[S[a], S[b]]: the products psi_a conj(psi_b) of a
    pure root, or the entries of the support block rho_s of a mixed rho0."""
    if rho_s is None:
        return root[a, 0] * root[b, 0].conj()
    return rho_s[a, b]


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


def _class_gaps(levels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.unique of the squared gaps (levels_a - levels_b)^2 with its
    inverse as a (u, u) array.  The squares are exactly symmetric, so the
    unique runs on the upper triangle and its inverse is mirrored, half
    the sort of the full matrix."""
    u = levels.size
    upper = np.tri(u, dtype=bool).T
    gaps, gap_up = np.unique((np.subtract.outer(levels, levels) ** 2)[upper],
                             return_inverse=True)
    gap_of = np.empty((u, u), dtype=np.intp)
    gap_of[upper] = gap_up
    gap_of.T[upper] = gap_up
    return gaps, gap_of


def evolve_reduced(rho0: OperatorMatrix, eff: EffectiveParams, model,
                   state: bath.BathState, t_grid, *,
                   rtol: float = bath.DEFAULT_RTOL,
                   pairs=None) -> DephasingTrajectory:
    """Closed-form reduced evolution of a density matrix under dephasing.

    Q1 and Q2 come from one evaluation over the grid (bath.q_grids)
    and are shared by all element pairs; the trajectory keeps their error
    estimates.  rho0 is read only through ``require_density_matrix``: its
    support S (the rows with a nonzero entry) and a factor root of the
    support block, root root^dag = rho_S.  For a ``StateVector.density``
    matrix root is psi on S, so no step reads the dense matrix, and every
    element rho_jk is the product psi_j conj(psi_k) that np.outer forms.
    A mixed rho0 also gathers its support block rho_S, whose elements and
    exact zeros root root^dag keeps only to rounding.
    ``pairs`` selects which coherences get PairRecords (a requested element
    off S is 0).  It defaults to every nonzero element above the diagonal
    of rho0; above DEFAULT_PAIR_CAP of them, to the DEFAULT_PAIR_CAP largest
    in |rho_jk| (ties to the lower flat index), in flat order, with a
    warning.  The tracked elements and the qubit coherence follow the law
    rho_jk exp(-i (dE t + (E_j^2 - E_k^2) Q1) - dE^2 Q2), written once in
    ``bath._element_law``.  The observables come from the factored law

        M_jk(t) = a_j(t) conj(a_k(t)) g_c(j)c(k)(t),
        a_j = exp(-i (E_j t + E_j^2 Q1)),  g_ab = exp(-Q2 (E_a - E_b)^2),

    where the classes c(j) group S by exact float energy (u classes) and
    g = 1 inside a class, the decoherence-free subspace.  The u^2 class
    pairs share K distinct squared gaps, so a grid time takes K real
    exponentials for g and, for the phases, |S| complex ones.  From root
    and the classes:

    - purity(t) = sum_ab P_ab g_ab^2, with P_ab the sum of |rho_jk|^2 over
      j in a, k in b, folded once onto the K gaps; the phases cancel;
    - the qubit coherence sums its <= |S|/2 elements
      rho[(m, n, 0), (m, n, 1)] over the grid as one (nt, pairs) array,
      each (m, n, 0) of S paired with its (m, n, 1) through
      ``FockCutoff.flat_indices``;
    - a pure rho0 = |psi><psi| (root is one column, found without an
      eigendecomposition) has P_ab = p_a p_b with p_a the class sums of
      p_j = |psi_j|^2, and Uhlmann's fidelity is <psi|rho(t)|psi> =
      sum_ab conj(A_a) g_ab A_b with A_a(t) = sum_{j in a} p_j a_j(t); g
      is real symmetric, so that is Re(A) g Re(A) + Im(A) g Im(A), O(u^2)
      per time, and no |S|^2 array is built;
    - a mixed rho0 keeps the general fidelity
      (Tr sqrt(sqrt(rho0) rho sqrt(rho0)))^2 on the range of rho0: with
      Wa = diag(conj a) root, sqrt(rho0) rho sqrt(rho0) has the eigenvalues
      of X(t) = Wa^dag (rho_S o g[c, c]) Wa, one eigvalsh of r x r per time
      for root of r columns, and forming X costs O(|S|^2 r).

    Purity and fidelity are at most 1 in exact arithmetic; the written
    values are capped at 1, which moves only a rounding excess.  So a run
    costs O(nt (|S| + K)) exponentials, against nt |S|^2 for the
    element-wise multipliers, plus O(nt u^2) multiplications for a pure
    rho0.  The phase is rounded as E_j t rather than (E_j - E_k) t, an
    absolute error of about eps |E| t: the order of the rounding of E
    itself.
    """
    cutoff = _need_cutoff(rho0)
    t = _check_t_grid(t_grid)
    support, root = require_density_matrix(rho0)

    energies = spectrum.energies_vector(eff, cutoff)
    (q1_vals, q2_vals), (q1_err, q2_err) = bath.q_grids(model, state, t, rtol)

    e_s = energies[support]
    levels, cls = np.unique(e_s, return_inverse=True)
    u = levels.size
    # g depends on a class pair only through its squared gap
    gaps, gap_of = _class_gaps(levels)

    pure = root.shape[1] == 1
    # a mixed rho0 is read from its support block: root root^dag differs
    # from it by rounding and would turn its exact zeros into tiny elements
    rho_s = None if pure else rho0.mat[np.ix_(support, support)]
    # the position of each label in S, -1 off the support
    at = np.full(cutoff.dim, -1)
    at[support] = np.arange(support.size)
    # each (m, n, 0) label of S with its partner (m, n, 1), where that is
    # in S too
    m, n, i = cutoff.numbers()
    lo = support[i[support] == 0]
    hi = cutoff.flat_indices(m[lo], n[lo], np.ones_like(lo))
    both = at[hi] >= 0
    lo, hi = lo[both], hi[both]
    coherence = bath._element_law(_elements(root, rho_s, at[lo], at[hi]),
                                  energies[lo], energies[hi], t, q1_vals,
                                  q2_vals)[2].sum(axis=1)

    if pure:
        p = np.abs(root[:, 0]) ** 2
        p_cls = np.bincount(cls, p, minlength=u)
        weights = np.bincount(gap_of.ravel(), np.outer(p_cls, p_cls).ravel(),
                              minlength=gaps.size)
        order = np.argsort(cls, kind="stable")
        starts = np.searchsorted(cls[order], np.arange(u))
        e_o = e_s[order]
        amp = np.add.reduceat(p[order] * np.exp(
            -1j * (np.outer(t, e_o) + np.outer(q1_vals, e_o ** 2))),
            starts, axis=1)
        # (nt, 2, u): Re A_a(t) and Im A_a(t)
        amp = np.stack((amp.real, amp.imag), axis=1)
    else:
        gap_s = gap_of[np.ix_(cls, cls)]  # the gap of each element of rho_S
        weights = np.bincount(gap_s.ravel(), (np.abs(rho_s) ** 2).ravel(),
                              minlength=gaps.size)
    purity = np.empty(t.size)
    fidelity = np.empty(t.size)
    # g gathered onto the class pairs (pure) or onto rho_S (mixed), for a
    # block of times at once
    gap_idx = gap_of if pure else gap_s
    step = max(1, _OBS_BLOCK // gap_idx.size)
    for i in range(0, t.size, step):
        k = slice(i, i + step)
        # below e^-350 a factor moves no observable; the clamp keeps g, g^2
        # and rho g out of the subnormal range, where arithmetic is slow
        g = np.exp(np.maximum(-q2_vals[k, None] * gaps, -350.0))
        purity[k] = (g * g) @ weights
        g = g.take(gap_idx, axis=1)
        if pure:
            fidelity[k] = np.sum((amp[k] @ g) * amp[k], axis=(1, 2))
        else:
            wa = np.exp(1j * (np.outer(t[k], e_s) + np.outer(q1_vals[k], e_s ** 2)))
            wa = wa[:, :, None] * root
            lam = np.linalg.eigvalsh(np.swapaxes(wa.conj(), 1, 2) @ ((rho_s * g) @ wa))
            fidelity[k] = np.sum(np.sqrt(np.clip(lam, 0.0, None)), axis=1) ** 2
    np.minimum(purity, 1.0, out=purity)
    np.minimum(fidelity, 1.0, out=fidelity)

    if pairs is None:
        upper = np.triu(_support_block(root) if pure else rho_s, k=1)
        a, b = np.nonzero(upper)
        if a.size > DEFAULT_PAIR_CAP:
            # the largest |rho_jk|, ties to the lower flat index, in flat order
            keep = np.sort(np.argsort(-np.abs(upper[a, b]),
                                      kind="stable")[:DEFAULT_PAIR_CAP])
            warnings.warn(
                f"rho0 has {a.size} nonzero elements above the diagonal; "
                f"tracking the {DEFAULT_PAIR_CAP} largest in |rho_jk| "
                "(give pairs, or a [pairs] section, to choose them)",
                stacklevel=2,
            )
            a, b = a[keep], b[keep]
        req = list(zip(support[a].tolist(), support[b].tolist()))
    else:
        req = []
        for pa, pb in pairs:
            if isinstance(pa, TensorBasisLabel):
                pa = pa.flat_index(cutoff)
            if isinstance(pb, TensorBasisLabel):
                pb = pb.flat_index(cutoff)
            req.append((int(pa), int(pb)))
    # from_flat rejects an index outside the space before it is used
    labels = [(TensorBasisLabel.from_flat(row, cutoff),
               TensorBasisLabel.from_flat(col, cutoff)) for row, col in req]
    rows, cols = np.array(req, dtype=np.intp).reshape(-1, 2).T
    at_row, at_col = at[rows], at[cols]
    # an element off the support is 0
    rho_jk = np.where((at_row >= 0) & (at_col >= 0),
                      _elements(root, rho_s, at_row, at_col), 0.0)
    e_row, e_col = energies[rows], energies[cols]
    phase, damping, element = bath._element_law(rho_jk, e_row, e_col, t,
                                                q1_vals, q2_vals)
    records = tuple(
        PairRecord(row=row, col=col, label_row=label_row, label_col=label_col,
                   delta_e=float(e_row[k] - e_col[k]),
                   square_diff=float(e_row[k] ** 2 - e_col[k] ** 2),
                   phase=phase[:, k], damping=damping[:, k],
                   element=element[:, k])
        for k, ((row, col), (label_row, label_col)) in enumerate(zip(req, labels)))
    return DephasingTrajectory(
        cutoff=cutoff, t_grid=t, support=support, root=root,
        energies=energies, q1_vals=q1_vals, q2_vals=q2_vals, q1_err=q1_err,
        q2_err=q2_err, pairs=records, purity=purity,
        qubit_coherence=coherence, fidelity_to_initial=fidelity,
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


def _integer_value(c) -> int:
    """``c`` as an int; a float is accepted only when it holds an integer."""
    if isinstance(c, (int, np.integer)) or (
            isinstance(c, (float, np.floating)) and float(c).is_integer()):
        return int(c)
    raise InvalidArgumentError(f"mode cutoffs must be integers, got {c!r}")


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
        object.__setattr__(self, "cutoffs",
                           tuple(_integer_value(c) for c in self.cutoffs))
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


@dataclass(frozen=True, eq=False)
class FiniteBathReport:
    t_grid: np.ndarray
    reduced: np.ndarray         # (nt, dim_S, dim_S), brute-force propagation
    analytic: np.ndarray        # (nt, dim_S, dim_S), bath._element_law
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
    enter only the analytic side, which ``bath._element_law`` evaluates: the
    law that writes every tracked element and the qubit coherence.

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

    analytic = bath._element_law(rho_s, energies[:, None], energies[None, :],
                                 t, q1_vals, q2_vals)[2]
    deviation = np.max(np.abs(reduced - analytic), axis=(1, 2))
    return FiniteBathReport(
        t_grid=t, reduced=reduced, analytic=analytic, deviation=deviation,
        max_deviation=float(np.max(deviation)),
        displacement_metric=float(metric),
        total_dim=rho_s.shape[0] * math.prod(c + 1 for c in spec.cutoffs),
        q1_vals=q1_vals, q2_vals=q2_vals,
    )


@dataclass(frozen=True, eq=False)
class DispersiveCheck:
    t_grid: np.ndarray
    fidelity: np.ndarray
    min_fidelity: float
    mean_photons_a: float


def dispersive_check(psi0: StateVector, eff: EffectiveParams, e_j_max: float,
                     t_grid) -> DispersiveCheck:
    """Fidelity of the dispersive normal form against the JC stage.

    Both states are propagated in the mode-B picture: the JC stage lives
    there already, and the cross-Kerr levels of :mod:`cqdeph.spectrum` are
    pulled back by re-adding the free part that was rotated away, the
    diagonal of the JC stage.  That comparison Hamiltonian is diagonal, so
    each label just picks up its own phase.  ``e_j_max`` is an angular
    frequency, as for the reduced builders.

    The JC stage is a direct sum of doublets and singletons
    (``hamiltonians.jc_doublets``), so it is propagated in closed form, in
    O(nt dim) and with no dimension cap: a singleton takes its phase, and
    a doublet H = mu + delta Z + c X evolves by

        exp(-i mu t) [cos(W t) - i sin(W t)/W (delta Z + c X)],
        W = hypot(delta, c),

    with sin(W t)/W = t sinc(W t / pi), which is t at W = 0.

    The initial mean photon number of mode A is reported because the
    dispersive approximation degrades as photons increase.
    """
    # the dephasing path never imports the Hamiltonian builders
    from .hamiltonians import jc_doublets

    cutoff = _need_cutoff(psi0)
    t = _check_t_grid(t_grid)
    diag, lo, hi, c = jc_doublets(eff, e_j_max, cutoff)

    psi = np.array(psi0.vec, dtype=complex)
    mean_photons = float(np.sum(cutoff.numbers()[0] * np.abs(psi) ** 2))

    # singletons take a phase; the doublets' labels are overwritten below
    psi_jc = np.exp(-1j * np.outer(t, diag)) * psi
    mu, delta = 0.5 * (diag[lo] + diag[hi]), 0.5 * (diag[lo] - diag[hi])
    wt = np.outer(t, np.hypot(delta, c))
    phase, cos = np.exp(-1j * np.outer(t, mu)), np.cos(wt)
    sin_w = t[:, None] * np.sinc(wt / np.pi)
    a, b = psi[lo], psi[hi]
    psi_jc[:, lo] = phase * (cos * a - 1j * sin_w * (delta * a + c * b))
    psi_jc[:, hi] = phase * (cos * b - 1j * sin_w * (c * a - delta * b))
    psi_cmp = np.exp(-1j * np.outer(t, spectrum.energies_vector(eff, cutoff) + diag)) * psi
    fid = np.abs(np.einsum("tj,tj->t", psi_jc.conj(), psi_cmp)) ** 2
    return DispersiveCheck(t_grid=t, fidelity=fid, min_fidelity=float(np.min(fid)),
                           mean_photons_a=mean_photons)
