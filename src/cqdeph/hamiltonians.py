"""Builders for the reduction chain of circuit Hamiltonians.

Each stage is H/hbar on the truncated qubit (x) A (x) B space, so entries
are angular frequencies, held in the structure it has.  The stages that mix
labels (full, rotated, quadratic and jc) are checked hermitian
:class:`~cqdeph.hilbert.OperatorMatrix` values, under the dense cap of
``hilbert.check_dense_dim``.  The diagonal stages (dispersive, diagonal)
and the frame's free part are real energy vectors in flat-index order, with
no cap.  :func:`jc_doublets` gives the JC stage without a matrix, as its
diagonal and the 2 x 2 doublets its coupling forms, for
``dynamics.dispersive_check``; :func:`build_jc` is its dense reference.
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

_HERM_TOL = 1e-12


def _warn_regime(name: str, ratios, what: str, consequence: str, stacklevel=3) -> None:
    """Warn the builder's caller when the worst of ratios reads "warn" by
    device.regime_flag."""
    worst = float(np.max(ratios))
    if regime_flag(name, worst) == "warn":
        warnings.warn(f"{what} = {worst:.3g} >= {REGIME_THRESHOLDS[name]}: "
                      f"{consequence}", stacklevel=stacklevel)


def _checked(stage: str, mat: np.ndarray, cutoff: FockCutoff) -> OperatorMatrix:
    """The dense stage, once its hermiticity defect is below _HERM_TOL."""
    defect = hermiticity_defect(mat)
    # written so that a nan defect, from a matrix that is not finite, fails
    if not defect < _HERM_TOL:
        raise NumericsError(f"{stage} stage hermiticity defect {defect:.3e}")
    return OperatorMatrix(mat, cutoff)


def _finite(what: str, energies: np.ndarray) -> np.ndarray:
    """The energies of a diagonal stage, once every one is finite."""
    if not np.isfinite(energies).all():
        raise NumericsError(f"{what} is not finite")
    return energies


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
               cutoff: FockCutoff) -> OperatorMatrix:
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
    return _checked("full", h, cutoff)


def build_rotated(p: DeviceParams, eff: EffectiveParams,
                  cutoff: FockCutoff) -> OperatorMatrix:
    """Sweet-spot Hamiltonian after the qubit-axis rotation.

    Requires the charge degeneracy point n_g_dc = 1/2 and zero flux bias
    phi_e = 0; away from those the rotated form used here is simply wrong,
    so both are hard preconditions.

    H'/hbar = w_a n_a + w_b n_b - g_a (a + a^dag) sigma_x
              + (E_J_max/hbar) cos[phi_b (b + b^dag)] sigma_z

    Built once, from its own operator products: this stage does not
    rebuild :func:`build_full`.  The identity R H_full R^dag = H' with R
    from :func:`sweet_spot_rotation` is held entrywise by the tests, and
    validation's ``rotation_spectrum_match`` row compares the two spectra.
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
    return _checked("rotated", h, cutoff)


def build_quadratic(p: DeviceParams, eff: EffectiveParams,
                    cutoff: FockCutoff) -> OperatorMatrix:
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
    return _checked("quadratic", h, cutoff)


def build_jc(eff: EffectiveParams, e_j_max: float,
             cutoff: FockCutoff) -> OperatorMatrix:
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

    The diagonal and the warning come from :func:`jc_doublets`; the
    coupling is built here from the operator products, so this dense
    matrix is a reference independent of the doublet layout that
    ``dynamics.dispersive_check`` propagates.
    """
    a, _, _, _, ib = _ladders(cutoff)
    diag = jc_doublets(eff, e_j_max, cutoff)[0]
    h = np.diag(diag.astype(complex)) - eff.g_a * (
        tensor3(SIGMA_PLUS, a, ib).mat + tensor3(SIGMA_MINUS, a.conj().T, ib).mat)
    return _checked("jc", h, cutoff)


def jc_doublets(eff: EffectiveParams, e_j_max: float, cutoff: FockCutoff
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The JC stage of :func:`build_jc` without its matrix:
    ``(diagonal, lower, upper, coupling)``.

    ``diagonal`` is w_a m + omega_q(n) s / 2 per label in flat-index order.
    The coupling joins only the labels (m, n, 0) and (m - 1, n, 1), which
    share n_b and N = m: entry -g_a sqrt(m) for m = 1 .. n_max_a, with the
    flat indices of the two labels in ``lower`` and ``upper``.  Every other
    label, (0, n, 0) and (n_max_a, n, 1), is alone.  So the stage is a
    direct sum of 2 x 2 doublets and singletons, the Jaynes-Cummings ladder.

    Raises NumericsError when the diagonal is not finite, and warns as
    build_jc does; the warning names the line that called build_jc or
    ``dynamics.dispersive_check``, one frame above this function's caller.
    """
    wq, _, _, rwa = _kept_regime(eff, e_j_max, cutoff)
    diag = _finite("jc stage", _free_entries(eff, wq, cutoff))
    m, n, i = cutoff.numbers()
    lower = np.flatnonzero((i == 0) & (m > 0))
    upper = cutoff.flat_indices(m[lower] - 1, n[lower], 1)
    _warn_regime("rwa", rwa, "worst |w_q - w_a|/|w_q + w_a| over the kept n_b range",
                 "rotating-wave step is unreliable here", stacklevel=4)
    return diag, lower, upper, -eff.g_a * np.sqrt(m[lower])


def _kept_regime(eff: EffectiveParams, e_j_max: float, cutoff: FockCutoff):
    """device.regime_ratios over the kept n_b = 0 .. n_max_b."""
    return regime_ratios(eff, e_j_max, eff.omega_a, np.arange(cutoff.dim_b))


def _free_entries(eff: EffectiveParams, wq: np.ndarray,
                  cutoff: FockCutoff) -> np.ndarray:
    """w_a m + omega_q(n) s / 2 per label, s = 2 i - 1 the sigma_z value."""
    m, n, i = cutoff.numbers()
    return eff.omega_a * m + 0.5 * wq[n] * (2.0 * i - 1.0)


def build_dispersive(eff: EffectiveParams, e_j_max: float,
                     cutoff: FockCutoff) -> np.ndarray:
    """Dispersive-limit stage: coupling folded into number-dependent shifts.

    Diagonal, returned as its energies in flat-index order (per label
    (m, n, i), s = +/-1 the sigma_z value)

        w_a m + omega_q(n) s / 2 - lam(n) [s m + (s + 1)/2],
        lam(n) = (g_a^2/w_a) (1 + omega_q(n)/w_a)

    that is, the free part of :func:`frame_free_part` plus the shift.
    Valid for |omega_q - omega_a| >> g_a; a warning reports the worst
    g_a/|detuning| of device.regime_ratios over the kept n_b range when
    device.regime_flag flags it.
    """
    wq, _, g_over, _ = _kept_regime(eff, e_j_max, cutoff)
    lam = (eff.g_a**2 / eff.omega_a) * (1.0 + wq / eff.omega_a)
    m, n, i = cutoff.numbers()
    # (s + 1)/2 is the qubit level i
    ent = _free_entries(eff, wq, cutoff) - lam[n] * ((2.0 * i - 1.0) * m + i)
    _warn_regime("dispersive", g_over, "worst g_a/|w_q - w_a| over the kept "
                 "n_b range", "dispersive stage outside its validity regime")
    return _finite("dispersive stage", ent)


def build_diagonal(eff: EffectiveParams, cutoff: FockCutoff) -> np.ndarray:
    """Cross-Kerr normal form H_S = H_0 |0><0| + H_1 |1><1|, as its energies
    in flat-index order.

    H_0/hbar = w_a' n_a - chi n_a n_b
    H_1/hbar = -w_a' (n_a + 1) + chi n_b + chi n_a n_b

    Built from the two qubit-sector operator products (not from the factored
    eigenvalue formula, which lives in :mod:`cqdeph.spectrum` as the
    independent route).
    """
    m, n, i = cutoff.numbers()
    h0 = eff.omega_a_prime * m - eff.chi * m * n
    h1 = -eff.omega_a_prime * (m + 1.0) + eff.chi * n + eff.chi * m * n
    return _finite("diagonal stage", np.where(i == 0, h0, h1))


def frame_free_part(eff: EffectiveParams, e_j_max: float,
                    cutoff: FockCutoff) -> np.ndarray:
    """The free part w_a n_a + omega_q(n_b) sigma_z / 2, as its energies in
    flat-index order: the diagonal of :func:`jc_doublets`.

    Subtracting it from the dispersive stage lands in the fully rotating
    frame of the diagonal stage; adding it to the diagonal stage lands back
    in the mode-B picture of the jc/dispersive stages.
    """
    ent = _free_entries(eff, _kept_regime(eff, e_j_max, cutoff)[0], cutoff)
    return _finite("free part", ent)
