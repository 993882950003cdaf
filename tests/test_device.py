"""Device map, effective rates, regime flags, conditional phase."""

import dataclasses
import math
import warnings

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
    regime_ratios,
    regime_report,
)
from cqdeph.errors import InvalidArgumentError
from cqdeph.hamiltonians import build_dispersive, build_jc, build_quadratic
from cqdeph.hilbert import FockCutoff


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


def test_overrides_apply_before_the_derived_rates():
    p = _natural_device()
    # g_a and omega_a overridden: chi and omega_a' follow the new values
    eff = effective_couplings(p, g_a=0.3, omega_a=2.0, phi_e=0.1)
    assert (eff.g_a, eff.phi_b, eff.phi_e, eff.omega_a) == (0.3, 0.5, 0.1, 2.0)
    assert eff.chi == cross_kerr(0.3, 0.5, 1.0, 2.0)
    assert eff.omega_a_prime == dressed_mode_frequency(0.3, 0.5, 1.0, 2.0)
    # a derived rate's own override wins
    eff = effective_couplings(p, g_a=0.3, chi=0.25)
    assert eff.chi == 0.25
    assert eff.omega_a_prime == dressed_mode_frequency(0.3, 0.5, 1.0, 1.0)


@pytest.mark.parametrize("change", [{"omega_a": 1e-300}, {"E_C": 1e300}])
def test_device_map_arithmetic_failure_is_invalid(change):
    # omega_a^2 underflows to 0, and g_a^2 overflows
    p = dataclasses.replace(_natural_device(), **change)
    with pytest.raises(InvalidArgumentError, match="fails in float arithmetic"):
        effective_couplings(p)


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


def test_regime_report_flags():
    p = _natural_device()
    eff = effective_couplings(p)  # phi_b = 0.5: loud warn territory
    rep = regime_report(p, eff)
    assert rep.phi_b_flag == "warn"
    assert rep.worst_flag() == "warn"
    assert len(rep.rows) == 5


def test_regime_report_pass_case():
    # small coupling, deep dispersive: every flag should be quiet
    p = _natural_device()
    eff = EffectiveParams(g_a=0.01, phi_b=0.05, phi_e=0.0, n_g_dc=0.5,
                          omega_a=1.0, omega_a_prime=0.9, chi=0.001)
    rep = regime_report(p, eff, n_b_max=2)
    assert rep.worst_flag() == "pass"
    assert all(r.dispersive_flag == "pass" and r.rwa_flag == "pass"
               for r in rep.rows)


def _caught(build, *args) -> list:
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        build(*args)
    return caught


def test_rwa_ratio_is_non_negative_where_omega_q_plus_omega_a_is_not():
    # S_loop = 2 gives phi_b = 1, so omega_q(n_b) = 1 - 2 n_b: omega_q +
    # omega_a is 2, 0, -2, -4, -6 over n_b = 0..4
    p = dataclasses.replace(_natural_device(), S_loop=2.0)
    eff = effective_couplings(p)
    assert eff.phi_b == 1.0
    rows = regime_report(p, eff).rows
    assert [r.rwa_ratio for r in rows] == [0.0, math.inf, 2.0, 1.5, 8.0 / 6.0]
    assert [r.rwa_flag for r in rows] == ["pass"] + ["warn"] * 4
    # the report's columns are those of the shared function
    columns = regime_ratios(eff, p.E_J_max, p.omega_a, np.arange(5), p.hbar)
    for r, *col in zip(rows, *columns):
        assert (r.omega_q, r.detuning, r.g_over_delta, r.rwa_ratio) == \
            tuple(col)
    # the zero denominator at n_b = 1 gives inf without numpy's warning
    caught = _caught(build_jc, eff, p.E_J_max, FockCutoff(1, 4))
    assert len(caught) == 1
    assert caught[0].category is UserWarning
    assert "rotating-wave" in str(caught[0].message)


def test_a_ratio_at_its_threshold_warns_in_the_report_and_its_builder():
    # omega_q = 2 E_J = 3 against omega_a = 1: |Delta| / |omega_q + omega_a|
    # is 2 / 4 = 0.5 and g_a / |Delta| is 0.2 / 2 = 0.1, both exactly
    p = dataclasses.replace(_natural_device(), E_J_max=1.5)
    eff = EffectiveParams(g_a=0.2, phi_b=0.0, phi_e=0.0, n_g_dc=0.5,
                          omega_a=1.0, omega_a_prime=0.9, chi=0.0)
    row = regime_report(p, eff).rows[0]
    assert (row.rwa_ratio, row.g_over_delta) == (0.5, 0.1)
    assert (row.rwa_flag, row.dispersive_flag) == ("warn", "warn")
    cut = FockCutoff(1, 1)
    with pytest.warns(UserWarning, match="rotating-wave"):
        build_jc(eff, p.E_J_max, cut)
    with pytest.warns(UserWarning, match="dispersive stage"):
        build_dispersive(eff, p.E_J_max, cut)
    at_phi = dataclasses.replace(eff, phi_b=0.2)
    assert regime_report(p, at_phi).phi_b_flag == "warn"
    with pytest.warns(UserWarning, match="quadratic expansion"):
        build_quadratic(p, at_phi, cut)
    # one ulp below each threshold is quiet
    below = math.nextafter(0.2, 0.0)
    below_g = dataclasses.replace(eff, g_a=below)
    assert regime_report(p, below_g).rows[0].dispersive_flag == "pass"
    assert not _caught(build_dispersive, below_g, p.E_J_max, cut)
    below_phi = dataclasses.replace(eff, phi_b=below)
    assert regime_report(p, below_phi).phi_b_flag == "pass"
    assert not _caught(build_quadratic, p, below_phi, cut)
    e_j = math.nextafter(1.5, 0.0)
    assert regime_report(dataclasses.replace(p, E_J_max=e_j), eff).rows[0] \
        .rwa_flag == "pass"
    assert not _caught(build_jc, eff, e_j, cut)


@pytest.mark.parametrize("n_max_b", [1, 3, 5])
def test_each_builder_warns_with_the_worst_shared_ratio_over_the_cutoff(
        n_max_b):
    # phi_b = 0.3 moves omega_q with n_b, so the worst ratio depends on the
    # kept range
    eff = EffectiveParams(g_a=0.3, phi_b=0.3, phi_e=0.0, n_g_dc=0.5,
                          omega_a=1.0, omega_a_prime=0.9, chi=0.01)
    cut = FockCutoff(1, n_max_b)
    n_b = np.arange(n_max_b + 1)
    for build, e_j, column in ((build_jc, 0.1, 3), (build_dispersive, 0.6, 2)):
        ratios = regime_ratios(eff, e_j, eff.omega_a, n_b)[column]
        worst = np.max(ratios)
        assert worst > ratios[0]
        (caught,) = _caught(build, eff, e_j, cut)
        assert f"= {worst:.3g} >=" in str(caught.message)
    (caught,) = _caught(build_quadratic, _natural_device(), eff, cut)
    assert f"phi_b = {eff.phi_b:.3g} >=" in str(caught.message)
