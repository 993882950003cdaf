"""Device map, effective rates, regime flags, conditional phase."""

import dataclasses
import math

import numpy as np
import pytest

from cqdeph.device import (
    DeviceParams,
    EffectiveParams,
    cross_kerr,
    cross_phase,
    dressed_mode_frequency,
    effective_couplings,
    qubit_frequency,
    regime_report,
)
from cqdeph.errors import InvalidArgumentError


def _natural_device() -> DeviceParams:
    # all-ones geometry with unit constants: the effective rates become
    # simple closed numbers, good for hand-checking the map
    return DeviceParams(
        E_C=1.0, E_J_max=1.0, omega_a=1.0, omega_b=1.0,
        L_a=1.0, L_b=1.0, c_cap=1.0, l_ind=1.0,
        C_g=1.0, C_a=1.0, V_g_dc=1.0, S_loop=1.0, d_dist=1.0,
        hbar=1.0, e_charge=1.0, mu_0=1.0, Phi_0=1.0,
    )


def test_cross_kerr_closed_value():
    assert cross_kerr(0.3, 0.1, 0.8, 1.0) == pytest.approx(0.00144, rel=1e-14)


def test_cross_kerr_scalings():
    base = cross_kerr(0.3, 0.1, 0.8, 1.0)
    assert cross_kerr(0.6, 0.1, 0.8, 1.0) == pytest.approx(4 * base)
    assert cross_kerr(0.3, 0.2, 0.8, 1.0) == pytest.approx(4 * base)
    assert cross_kerr(0.3, 0.1, 1.6, 1.0) == pytest.approx(2 * base)
    assert cross_kerr(0.3, 0.1, 0.8, 2.0) == pytest.approx(base / 4)


def test_dressed_frequency_closed_value():
    # g^2/w + 2 g^2 E/w^2 - chi/2 at g=0.3, phi=0.1, E=0.8, w=1
    expect = 0.09 + 0.144 - 0.00144 / 2
    assert dressed_mode_frequency(0.3, 0.1, 0.8, 1.0) == pytest.approx(
        expect, rel=1e-14)


def test_effective_couplings_natural_units():
    eff = effective_couplings(_natural_device())
    assert eff.g_a == pytest.approx(2.0)
    assert eff.phi_b == pytest.approx(0.5)
    assert eff.n_g_dc == pytest.approx(0.5)
    assert eff.phi_e == 0.0
    assert eff.chi == pytest.approx(cross_kerr(2.0, 0.5, 1.0, 1.0))
    assert eff.omega_a_prime == pytest.approx(
        dressed_mode_frequency(2.0, 0.5, 1.0, 1.0))


def test_device_rejects_nonpositive():
    with pytest.raises(InvalidArgumentError):
        DeviceParams(
            E_C=1.0, E_J_max=1.0, omega_a=-1.0, omega_b=1.0,
            L_a=1.0, L_b=1.0, c_cap=1.0, l_ind=1.0,
            C_g=1.0, C_a=1.0, V_g_dc=1.0, S_loop=1.0, d_dist=1.0,
        )


@pytest.mark.parametrize("field, value", [
    *((f.name, math.inf) for f in dataclasses.fields(DeviceParams)),
    *((name, math.nan) for name in ("C_g", "S_loop", "V_g_dc", "Phi_e")),
])
def test_device_rejects_non_finite(field, value):
    with pytest.raises(InvalidArgumentError, match=f"DeviceParams.{field} "):
        dataclasses.replace(_natural_device(), **{field: value})


@pytest.mark.parametrize("field", ["g_a", "phi_b", "phi_e", "n_g_dc",
                                   "omega_a", "omega_a_prime", "chi"])
def test_effective_rejects_nan(field):
    kwargs = dict(g_a=0.1, phi_b=0.1, phi_e=0.0, n_g_dc=0.5, omega_a=1.0,
                  omega_a_prime=0.9, chi=0.3)
    kwargs[field] = math.nan
    with pytest.raises(InvalidArgumentError, match=f"EffectiveParams.{field} "):
        EffectiveParams(**kwargs)


def test_effective_rejects_negative_coupling():
    with pytest.raises(InvalidArgumentError):
        EffectiveParams(g_a=-0.1, phi_b=0.1, phi_e=0.0, n_g_dc=0.5,
                        omega_a=1.0, omega_a_prime=0.9, chi=0.3)


def test_qubit_frequency_values():
    eff = EffectiveParams(g_a=0.3, phi_b=0.1, phi_e=0.0, n_g_dc=0.5,
                          omega_a=1.0, omega_a_prime=0.9, chi=0.3)
    assert qubit_frequency(eff, 0.8, 0) == pytest.approx(1.592, rel=1e-14)
    assert qubit_frequency(eff, 0.8, 1) == pytest.approx(1.576, rel=1e-14)
    arr = qubit_frequency(eff, 0.8, np.arange(3))
    assert arr[2] == pytest.approx(1.56, rel=1e-14)
    # each photon in B lowers the qubit frequency by 2 E_J phi_b^2
    steps = -np.diff(arr)
    assert np.allclose(steps, 2 * 0.8 * 0.1**2)


def test_qubit_frequency_rejects_negative_n():
    eff = EffectiveParams(g_a=0.3, phi_b=0.1, phi_e=0.0, n_g_dc=0.5,
                          omega_a=1.0, omega_a_prime=0.9, chi=0.3)
    with pytest.raises(InvalidArgumentError):
        qubit_frequency(eff, 0.8, -1)


def test_cross_phase_radians_and_cycles():
    ph = cross_phase(2.0 * math.pi, 1.0)
    assert ph.radians == pytest.approx(2 * math.pi)
    assert ph.cycles == pytest.approx(1.0)


def test_cross_phase_rejects_negative_tau():
    with pytest.raises(InvalidArgumentError):
        cross_phase(1.0, -1e-9)


def test_cross_phase_linear_in_both_arguments():
    base = cross_phase(0.3, 2.0)
    assert cross_phase(0.6, 2.0).radians == pytest.approx(2 * base.radians)
    assert cross_phase(0.3, 4.0).radians == pytest.approx(2 * base.radians)


def test_regime_report_flags_and_text():
    p = _natural_device()
    eff = effective_couplings(p)  # phi_b = 0.5: loud warn territory
    rep = regime_report(p, eff)
    assert rep.phi_b_flag == "warn"
    assert rep.worst_flag() == "warn"
    assert len(rep.rows) == 5
    text = rep.to_text()
    assert "phi_b" in text and "warn" in text


def test_regime_report_pass_case():
    # small coupling, deep dispersive: every flag should be quiet
    p = _natural_device()
    eff = EffectiveParams(g_a=0.01, phi_b=0.05, phi_e=0.0, n_g_dc=0.5,
                          omega_a=1.0, omega_a_prime=0.9, chi=0.001)
    rep = regime_report(p, eff, n_b_max=2)
    assert rep.worst_flag() == "pass"
    assert all(r.dispersive_flag == "pass" and r.rwa_flag == "pass"
               for r in rep.rows)
