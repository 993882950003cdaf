"""Reduction-chain stages: structure, spectra, warnings, capacity."""

import dataclasses
import warnings

import numpy as np
import pytest

from cqdeph.device import DeviceParams, EffectiveParams
from cqdeph.errors import CapacityError, NumericsError
from cqdeph.hamiltonians import (
    STAGE_DIAGONAL,
    STAGE_DISPERSIVE,
    STAGE_FULL,
    STAGE_JC,
    STAGE_QUADRATIC,
    STAGE_ROTATED,
    build_diagonal,
    build_dispersive,
    build_full,
    build_jc,
    build_quadratic,
    build_rotated,
    frame_free_part,
    operator_cosine,
    sweet_spot_rotation,
)
from cqdeph.hilbert import FockCutoff
from cqdeph.spectrum import eigenvalue, levels


def _device() -> DeviceParams:
    return DeviceParams(
        E_C=1.0, E_J_max=0.8, omega_a=1.0, omega_b=1.0,
        L_a=1.0, L_b=1.0, c_cap=1.0, l_ind=1.0,
        C_g=1.0, C_a=1.0, V_g_dc=1.0, S_loop=1.0, d_dist=1.0,
        hbar=1.0, e_charge=1.0, mu_0=1.0, Phi_0=1.0,
    )


def _eff(g_a=0.3, phi_b=0.1, omega_a=1.0, e_j=0.8) -> EffectiveParams:
    from cqdeph.device import cross_kerr, dressed_mode_frequency
    return EffectiveParams(
        g_a=g_a, phi_b=phi_b, phi_e=0.0, n_g_dc=0.5, omega_a=omega_a,
        omega_a_prime=dressed_mode_frequency(g_a, phi_b, e_j, omega_a),
        chi=cross_kerr(g_a, phi_b, e_j, omega_a),
    )


def test_operator_cosine_of_diagonal():
    d = np.diag([0.0, 0.5, -1.2])
    assert np.allclose(operator_cosine(d), np.diag(np.cos([0.0, 0.5, -1.2])))


def test_sweet_spot_rotation_is_unitary():
    r = sweet_spot_rotation()
    assert np.allclose(r @ r.conj().T, np.eye(2))


def test_all_stages_hermitian_and_tagged():
    cut = FockCutoff(2, 2)
    p, eff = _device(), _eff()
    with warnings.catch_warnings():
        # the fixture sits outside the dispersive regime on purpose; only
        # structure is checked here
        warnings.simplefilter("ignore")
        stages = [
            (build_full(p, eff, cut), STAGE_FULL),
            (build_rotated(p, eff, cut), STAGE_ROTATED),
            (build_quadratic(p, eff, cut), STAGE_QUADRATIC),
            (build_jc(eff, p.E_J_max, cut), STAGE_JC),
            (build_dispersive(eff, p.E_J_max, cut), STAGE_DISPERSIVE),
            (build_diagonal(eff, cut), STAGE_DIAGONAL),
        ]
    for st, tag in stages:
        assert st.stage == tag
        assert st.frame
        h = st.matrix.mat
        assert np.max(np.abs(h - h.conj().T)) < 1e-12


def test_rotation_preserves_spectrum():
    cut = FockCutoff(3, 3)
    p, eff = _device(), _eff()
    e_full = np.linalg.eigvalsh(build_full(p, eff, cut).matrix.mat)
    e_rot = np.linalg.eigvalsh(build_rotated(p, eff, cut).matrix.mat)
    assert np.max(np.abs(e_full - e_rot)) < 1e-10 * max(1, np.max(np.abs(e_full)))


def test_quadratic_tracks_rotated_for_small_flux():
    cut = FockCutoff(2, 6)
    p = _device()
    devs = {}
    for phi in (0.1, 0.05):
        eff = _eff(phi_b=phi)
        rot = build_rotated(p, eff, cut).matrix.mat
        quad = build_quadratic(p, eff, cut).matrix.mat
        # skip rows/cols at the top kept B level: the truncated quartic and
        # the truncated expansion disagree there by construction
        keep = np.array([k % cut.dim_b != cut.n_max_b for k in range(cut.dim)])
        devs[phi] = np.linalg.norm((rot - quad)[np.ix_(keep, keep)])
    assert devs[0.05] < devs[0.1] / 8


def test_jc_resonant_splitting():
    # phi_b = 0 makes the qubit frequency exactly 2 E_J; E_J = 0.5 puts it
    # on resonance with omega_a = 1, so the one-excitation doublet splits
    # by exactly 2 g
    g = 0.05
    eff = _eff(g_a=g, phi_b=0.0, e_j=0.5)
    st = build_jc(eff, 0.5, FockCutoff(1, 1))
    # phi_b = 0 makes mode B inert, so every level appears twice; dedupe
    e = np.unique(np.round(np.linalg.eigvalsh(st.matrix.mat), 12))
    assert e.size == 4  # ground, doublet pair, double excitation
    assert e[2] - e[1] == pytest.approx(2 * g, rel=1e-12)


def test_jc_detuned_splitting():
    # detuning 0.2, coupling 0.05: splitting sqrt(delta^2 + 4 g^2)
    g = 0.05
    eff = _eff(g_a=g, phi_b=0.0, e_j=0.6)
    st = build_jc(eff, 0.6, FockCutoff(1, 1))
    e = np.unique(np.round(np.linalg.eigvalsh(st.matrix.mat), 12))
    assert e[2] - e[1] == pytest.approx(np.sqrt(0.2**2 + 4 * g**2), rel=1e-9)


def test_quadratic_warns_on_large_flux():
    cut = FockCutoff(1, 1)
    p = _device()
    with pytest.warns(UserWarning, match="quadratic expansion"):
        build_quadratic(p, _eff(phi_b=0.25), cut)


def test_jc_warns_outside_rwa():
    # omega_q = 0.2 against omega_a = 1: |diff|/(sum) = 0.67 > 0.5
    eff = _eff(g_a=0.01, phi_b=0.0, e_j=0.1)
    with pytest.warns(UserWarning, match="rotating-wave"):
        build_jc(eff, 0.1, FockCutoff(1, 1))


def test_dispersive_warns_when_coupling_comparable_to_detuning():
    eff = _eff(g_a=0.3, phi_b=0.0, e_j=0.5001)
    with pytest.warns(UserWarning, match="dispersive"):
        build_dispersive(eff, 0.5001, FockCutoff(1, 1))


def test_dispersive_quiet_in_regime():
    eff = _eff(g_a=0.04, phi_b=0.0, e_j=0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        build_dispersive(eff, 0.1, FockCutoff(2, 2))


def test_capacity_guard():
    eff = _eff()
    with pytest.raises(CapacityError):
        build_diagonal(eff, FockCutoff(50, 49))


def test_non_finite_stage_is_a_numerics_error():
    # every field is finite, but E_J_max / hbar overflows: the stage's
    # hermiticity defect is nan, which its bound must not let through
    p = dataclasses.replace(_device(), E_J_max=1e300, hbar=1e-10)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(NumericsError, match="hermiticity defect nan"):
            build_full(p, _eff(), FockCutoff(2, 2))


def test_capacity_guard_comes_first_in_every_builder():
    # dim 5100 > 5000; build_rotated's preconditions fail too, later
    p, eff, cut = _device(), _eff(), FockCutoff(50, 49)
    off_point = dataclasses.replace(eff, n_g_dc=0.3, phi_e=0.1)
    builders = (
        lambda: build_full(p, eff, cut),
        lambda: build_rotated(p, off_point, cut),
        lambda: build_quadratic(p, eff, cut),
        lambda: build_jc(eff, 0.8, cut),
        lambda: build_dispersive(eff, 0.8, cut),
        lambda: frame_free_part(eff, 0.8, cut),
    )
    for build in builders:
        with pytest.raises(CapacityError):
            build()


def test_diagonal_matches_level_table():
    eff = _eff()
    cut = FockCutoff(3, 4)
    st = build_diagonal(eff, cut)
    diag = np.real(np.diag(st.matrix.mat))
    for lv in levels(eff, cut):
        k = lv.label.flat_index(cut)
        assert diag[k] == pytest.approx(lv.energy, abs=1e-15)


def test_dispersive_splits_into_free_plus_diagonal():
    eff = _eff(g_a=0.05, phi_b=0.02, e_j=2.0)
    cut = FockCutoff(3, 3)
    disp = build_dispersive(eff, 2.0, cut).matrix.mat
    free = frame_free_part(eff, 2.0, cut).mat
    diag = build_diagonal(eff, cut).matrix.mat
    scale = max(1.0, float(np.max(np.abs(disp))))
    assert np.max(np.abs(disp - free - diag)) < 1e-12 * scale


def test_dispersive_diagonal_conditional_shift():
    # the qubit-conditioned mode-A frequency differs between qubit levels by
    # 2 chi n_b + const: check the (m, n, i) energy pattern on raw entries
    eff = _eff()
    cut = FockCutoff(2, 2)
    diag = build_diagonal(eff, cut).matrix.mat
    for m in range(3):
        for n in range(3):
            e0 = eigenvalue_of(diag, m, n, 0, cut)
            e1 = eigenvalue_of(diag, m, n, 1, cut)
            assert e0 == pytest.approx((eff.omega_a_prime - eff.chi * n) * m,
                                       abs=1e-14)
            assert e1 == pytest.approx(
                -(eff.omega_a_prime - eff.chi * n) * (m + 1), abs=1e-14)


def eigenvalue_of(diag: np.ndarray, m: int, n: int, i: int,
                  cut: FockCutoff) -> float:
    from cqdeph.hilbert import TensorBasisLabel
    return float(np.real(diag[(i * cut.dim_a + m) * cut.dim_b + n,
                              (i * cut.dim_a + m) * cut.dim_b + n]))
