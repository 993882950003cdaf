"""Builders for the reduction chain of circuit Hamiltonians.

Every builder returns a :class:`HamiltonianStage` whose matrix is H/hbar on
the truncated qubit (x) A (x) B space, so entries are angular frequencies.
Builders that take a :class:`~cqdeph.device.DeviceParams` divide energies by
``p.hbar``; the reduced-model builders take the Josephson energy
``e_j_max`` as an angular frequency.

The six stages and the frames they live in:

==========  =========================================================
full        lab frame, charge basis; exact operator cosine
rotated     lab frame, qubit axes rotated so the Josephson term is
            diagonal (charge sigma_z -> sigma_x, sigma_x -> -sigma_z)
quadratic   same frame, cosine expanded to second order in phi_b
jc          interaction picture w.r.t. the mode-B free part, after the
            rotating-wave approximation; excitation-conserving
dispersive  same picture, coupling folded into photon-number shifts
diagonal    additionally in the interaction picture w.r.t.
            omega_a a^dag a + omega_q(n_b) sigma_z / 2; pure cross-Kerr
==========  =========================================================

Qubit rotation convention: with SIGMA_Y as defined in :mod:`cqdeph.hilbert`
(ordering ``|0>, |1>``, sigma_z = diag(-1, +1)), the fixed rotation is
R = (I - i sigma_y)/sqrt(2), which maps sigma_z -> sigma_x and
sigma_x -> -sigma_z.  This is the sign choice under which the rotated stage
has +E_J cos(...) sigma_z and -g_a (a + a^dag) sigma_x.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .device import (
    REGIME_THRESHOLDS,
    DeviceParams,
    EffectiveParams,
    regime_flag,
    regime_ratios,
)
from .errors import InvalidArgumentError, NumericsError
from .hilbert import (
    SIGMA_MINUS,
    SIGMA_PLUS,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    FockCutoff,
    OperatorMatrix,
    annihilation,
    check_dense_dim,
    hermiticity_defect,
    tensor3,
)

STAGE_FULL = "full"
STAGE_ROTATED = "rotated"
STAGE_QUADRATIC = "quadratic"
STAGE_JC = "jc"
STAGE_DISPERSIVE = "dispersive"
STAGE_DIAGONAL = "diagonal"

FRAME_CHARGE = "lab frame, charge basis"
FRAME_JOSEPHSON = "lab frame, Josephson basis"
FRAME_B_ROTATING = "mode-B interaction picture, Josephson basis"
FRAME_FULLY_ROTATING = (
    "mode-B interaction picture, then interaction picture w.r.t. "
    "omega_a*n_a + omega_q(n_b)*sigma_z/2"
)

# dim above which rebuilding a stage through a second route for a self-check
# would dominate the construction cost
_SELF_CHECK_DIM = 512

_HERM_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class HamiltonianStage:
    """One rung of the reduction chain."""

    stage: str
    matrix: OperatorMatrix
    frame: str

    @property
    def dim(self) -> int:
        return self.matrix.dim


def _warn_regime(name: str, ratios, what: str, consequence: str) -> None:
    """Warn the builder's caller when the worst of ratios reads "warn" by
    device.regime_flag."""
    worst = float(np.max(ratios))
    if regime_flag(name, worst) == "warn":
        warnings.warn(f"{what} = {worst:.3g} >= {REGIME_THRESHOLDS[name]}: "
                      f"{consequence}", stacklevel=3)


def _checked(stage: str, mat: np.ndarray, cutoff: FockCutoff) -> OperatorMatrix:
    defect = hermiticity_defect(mat)
    # written so that a nan defect, from a matrix that is not finite, fails
    if not defect < _HERM_TOL:
        raise NumericsError(f"{stage} stage hermiticity defect {defect:.3e}")
    return OperatorMatrix(mat, cutoff)


def operator_cosine(mat: np.ndarray) -> np.ndarray:
    """cos of a hermitian matrix by eigendecomposition, symmetrized."""
    lam, v = np.linalg.eigh(mat)
    out = (v * np.cos(lam)) @ v.conj().T
    return 0.5 * (out + out.conj().T)


def _ladders(cutoff: FockCutoff) -> tuple[np.ndarray, ...]:
    """Check the dense-matrix cap; return a, b and the qubit, A, B identities."""
    check_dense_dim(cutoff)
    return (annihilation(cutoff.n_max_a).mat, annihilation(cutoff.n_max_b).mat,
            np.eye(2, dtype=complex), np.eye(cutoff.dim_a, dtype=complex),
            np.eye(cutoff.dim_b, dtype=complex))


def sweet_spot_rotation() -> np.ndarray:
    """The fixed 2x2 qubit rotation R = (I - i sigma_y)/sqrt(2)."""
    return (np.eye(2, dtype=complex) - 1j * SIGMA_Y) / np.sqrt(2.0)


def build_full(p: DeviceParams, eff: EffectiveParams,
               cutoff: FockCutoff) -> HamiltonianStage:
    """Exact circuit Hamiltonian: charge qubit coupled to both resonators.

    H/hbar = w_a n_a + w_b n_b + (2 E_C/hbar)(2 n_g_dc - 1) sigma_z
             - g_a (a + a^dag) sigma_z
             - (E_J_max/hbar) cos[phi_e + phi_b (b + b^dag)] sigma_x

    The operator cosine is evaluated exactly on the truncated space (no
    series expansion), so the only approximation at this stage is the Fock
    cutoff itself.
    """
    a, b, i2, ia, ib = _ladders(cutoff)
    cos_b = operator_cosine(eff.phi_e * ib + eff.phi_b * (b + b.conj().T))
    h = (
        p.omega_a * tensor3(i2, a.conj().T @ a, ib).mat
        + p.omega_b * tensor3(i2, ia, b.conj().T @ b).mat
        + (2.0 * p.E_C / p.hbar) * (2.0 * eff.n_g_dc - 1.0)
        * tensor3(SIGMA_Z, ia, ib).mat
        - eff.g_a * tensor3(SIGMA_Z, a + a.conj().T, ib).mat
        - (p.E_J_max / p.hbar) * tensor3(SIGMA_X, ia, cos_b).mat
    )
    return HamiltonianStage(STAGE_FULL, _checked(STAGE_FULL, h, cutoff),
                            FRAME_CHARGE)


def build_rotated(p: DeviceParams, eff: EffectiveParams,
                  cutoff: FockCutoff) -> HamiltonianStage:
    """Sweet-spot Hamiltonian after the qubit-axis rotation.

    Requires the charge degeneracy point n_g_dc = 1/2 and zero flux bias
    phi_e = 0; away from those the rotated form used here is simply wrong,
    so both are hard preconditions.

    H'/hbar = w_a n_a + w_b n_b - g_a (a + a^dag) sigma_x
              + (E_J_max/hbar) cos[phi_b (b + b^dag)] sigma_z
    """
    a, b, i2, ia, ib = _ladders(cutoff)
    if abs(eff.n_g_dc - 0.5) > 1e-12:
        raise InvalidArgumentError(
            f"build_rotated needs the charge degeneracy point n_g_dc = 1/2, "
            f"got {eff.n_g_dc}"
        )
    if abs(eff.phi_e) > 1e-12:
        raise InvalidArgumentError(
            f"build_rotated needs zero flux bias phi_e = 0, got {eff.phi_e}"
        )
    cos_b = operator_cosine(eff.phi_b * (b + b.conj().T))
    h = (
        p.omega_a * tensor3(i2, a.conj().T @ a, ib).mat
        + p.omega_b * tensor3(i2, ia, b.conj().T @ b).mat
        - eff.g_a * tensor3(SIGMA_X, a + a.conj().T, ib).mat
        + (p.E_J_max / p.hbar) * tensor3(SIGMA_Z, ia, cos_b).mat
    )
    if cutoff.dim <= _SELF_CHECK_DIM:
        full = build_full(p, eff, cutoff).matrix.mat
        r = tensor3(sweet_spot_rotation(), ia, ib).mat
        defect = np.max(np.abs(h - r @ full @ r.conj().T))
        scale = max(np.max(np.abs(h)), 1.0)
        if defect > 1e-10 * scale:
            raise NumericsError(
                f"rotated stage disagrees with R H R^dag by {defect:.3e}"
            )
    return HamiltonianStage(STAGE_ROTATED, _checked(STAGE_ROTATED, h, cutoff),
                            FRAME_JOSEPHSON)


def build_quadratic(p: DeviceParams, eff: EffectiveParams,
                    cutoff: FockCutoff) -> HamiltonianStage:
    """Rotated Hamiltonian with the cosine expanded to O(phi_b^2).

    H''/hbar = w_a n_a + w_b n_b
               + (E_J_max/hbar) [1 - phi_b^2 (1 + 2 n_b)/2] sigma_z
               - (E_J_max/hbar) (phi_b^2/2) (b^2 + b^dag^2) sigma_z
               - g_a (a + a^dag) sigma_x

    The discarded remainder is O(phi_b^4 E_J_max); a warning is emitted
    when device.regime_flag flags phi_b, where that is no longer
    comfortably small.
    """
    a, b, i2, ia, ib = _ladders(cutoff)
    _warn_regime("phi_b", eff.phi_b, "phi_b", "quadratic expansion error "
                 "O(phi_b^4 E_J) is no longer negligible")
    ej = p.E_J_max / p.hbar
    n_b = b.conj().T @ b
    squeeze = b @ b + b.conj().T @ b.conj().T
    h = (
        p.omega_a * tensor3(i2, a.conj().T @ a, ib).mat
        + p.omega_b * tensor3(i2, ia, n_b).mat
        + ej * tensor3(SIGMA_Z, ia,
                       ib - 0.5 * eff.phi_b**2 * (ib + 2.0 * n_b)).mat
        - 0.5 * ej * eff.phi_b**2 * tensor3(SIGMA_Z, ia, squeeze).mat
        - eff.g_a * tensor3(SIGMA_X, a + a.conj().T, ib).mat
    )
    return HamiltonianStage(
        STAGE_QUADRATIC, _checked(STAGE_QUADRATIC, h, cutoff),
        FRAME_JOSEPHSON,
    )


def build_jc(eff: EffectiveParams, e_j_max: float,
             cutoff: FockCutoff) -> HamiltonianStage:
    """Number-dependent Jaynes-Cummings stage.

    H/hbar = w_a n_a + omega_q(n_b) sigma_z / 2 - g_a (a sigma_+ + a^dag sigma_-)

    Mode B enters only through its number operator, so [H, n_b] = 0, and the
    coupling conserves N = n_a + sigma_+ sigma_-.  Two terms were dropped to
    get here:

    * the counter-rotating coupling g_a (a sigma_- + a^dag sigma_+), valid
      while |omega_q + omega_a| >> |omega_q - omega_a|, g_a; a warning
      reports the worst RWA ratio of device.regime_ratios over the kept
      n_b range when device.regime_flag flags it;
    * the non-secular squeeze term (E_J phi_b^2 / 2hbar)(b^2 + b^dag^2) sigma_z
      removed by the mode-B interaction picture.
    """
    a, _, i2, ia, ib = _ladders(cutoff)
    wq, _, _, rwa = _kept_regime(eff, e_j_max, cutoff)
    wq_op = np.diag(wq.astype(complex))
    h = (
        eff.omega_a * tensor3(i2, a.conj().T @ a, ib).mat
        + 0.5 * tensor3(SIGMA_Z, ia, wq_op).mat
        - eff.g_a * (tensor3(SIGMA_PLUS, a, ib).mat
                     + tensor3(SIGMA_MINUS, a.conj().T, ib).mat)
    )
    _warn_regime("rwa", rwa, "worst |w_q - w_a|/|w_q + w_a| over the kept "
                 "n_b range", "rotating-wave step is unreliable here")
    return HamiltonianStage(STAGE_JC, _checked(STAGE_JC, h, cutoff),
                            FRAME_B_ROTATING)


def _kept_regime(eff: EffectiveParams, e_j_max: float, cutoff: FockCutoff):
    """device.regime_ratios over the kept n_b = 0 .. n_max_b."""
    return regime_ratios(eff, e_j_max, eff.omega_a, np.arange(cutoff.dim_b))


def _free_entries(eff: EffectiveParams, wq: np.ndarray,
                  cutoff: FockCutoff) -> np.ndarray:
    """w_a m + omega_q(n) s / 2 per label, s = 2 i - 1 the sigma_z value."""
    m, n, i = cutoff.numbers()
    return eff.omega_a * m + 0.5 * wq[n] * (2.0 * i - 1.0)


def _diag_stage(stage: str, entries: np.ndarray, cutoff: FockCutoff,
                frame: str) -> HamiltonianStage:
    mat = np.diag(entries.astype(complex))
    return HamiltonianStage(stage, _checked(stage, mat, cutoff), frame)


def build_dispersive(eff: EffectiveParams, e_j_max: float,
                     cutoff: FockCutoff) -> HamiltonianStage:
    """Dispersive-limit stage: coupling folded into number-dependent shifts.

    Diagonal with entries (per label (m, n, i), s = +/-1 the sigma_z value)

        w_a m + omega_q(n) s / 2 - lam(n) [s m + (s + 1)/2],
        lam(n) = (g_a^2/w_a) (1 + omega_q(n)/w_a)

    that is, the free part of :func:`frame_free_part` plus the shift.
    Valid for |omega_q - omega_a| >> g_a; a warning reports the worst
    g_a/|detuning| of device.regime_ratios over the kept n_b range when
    device.regime_flag flags it.
    """
    check_dense_dim(cutoff)
    wq, _, g_over, _ = _kept_regime(eff, e_j_max, cutoff)
    lam = (eff.g_a**2 / eff.omega_a) * (1.0 + wq / eff.omega_a)
    m, n, i = cutoff.numbers()
    # (s + 1)/2 is the qubit level i
    ent = _free_entries(eff, wq, cutoff) - lam[n] * ((2.0 * i - 1.0) * m + i)
    _warn_regime("dispersive", g_over, "worst g_a/|w_q - w_a| over the kept "
                 "n_b range", "dispersive stage outside its validity regime")
    return _diag_stage(STAGE_DISPERSIVE, ent, cutoff, FRAME_B_ROTATING)


def build_diagonal(eff: EffectiveParams, cutoff: FockCutoff) -> HamiltonianStage:
    """Cross-Kerr normal form H_S = H_0 |0><0| + H_1 |1><1|.

    H_0/hbar = w_a' n_a - chi n_a n_b
    H_1/hbar = -w_a' (n_a + 1) + chi n_b + chi n_a n_b

    Built from the two qubit-sector operator products (not from the factored
    eigenvalue formula, which lives in :mod:`cqdeph.spectrum` as the
    independent route).
    """
    check_dense_dim(cutoff)
    m, n, i = cutoff.numbers()
    h0 = eff.omega_a_prime * m - eff.chi * m * n
    h1 = -eff.omega_a_prime * (m + 1.0) + eff.chi * n + eff.chi * m * n
    return _diag_stage(STAGE_DIAGONAL, np.where(i == 0, h0, h1), cutoff,
                       FRAME_FULLY_ROTATING)


def frame_free_part(eff: EffectiveParams, e_j_max: float,
                    cutoff: FockCutoff) -> OperatorMatrix:
    """The free part w_a n_a + omega_q(n_b) sigma_z / 2 as a diagonal matrix.

    Subtracting it from the dispersive stage lands in the fully rotating
    frame of the diagonal stage; adding it to the diagonal stage lands back
    in the mode-B picture of the jc/dispersive stages.
    """
    check_dense_dim(cutoff)
    ent = _free_entries(eff, _kept_regime(eff, e_j_max, cutoff)[0], cutoff)
    return OperatorMatrix(np.diag(ent.astype(complex)), cutoff)
