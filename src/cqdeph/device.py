"""Circuit parameters and the effective couplings derived from them.

This module owns all SI bookkeeping.  A DeviceParams record describes the
physical circuit (a SQUID-type charge qubit voltage-coupled to resonator A
and flux-coupled through its loop to resonator B); effective_couplings()
reduces it to the handful of rates the rest of the package consumes.  The
physical constants are explicit fields so tests can run in natural units.

Frequencies are angular (rad/s) throughout; energies are Joules unless a
function takes an explicit hbar, in which case hbar = 1 means "energies are
angular frequencies".
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, _require_finite

__all__ = [
    "DeviceParams",
    "EffectiveParams",
    "effective_couplings",
    "cross_kerr",
    "dressed_mode_frequency",
    "qubit_frequency",
    "regime_ratios",
    "regime_flag",
    "REGIME_THRESHOLDS",
    "cross_phase",
    "CrossPhase",
    "regime_report",
    "RegimeReport",
    "RegimeRow",
]

HBAR_SI = 1.054571817e-34     # J s
E_CHARGE_SI = 1.602176634e-19  # C
MU_0_SI = 1.25663706212e-6     # H/m
PHI_0_SI = 2.067833848e-15     # Wb, flux quantum h/(2e)
K_B_SI = 1.380649e-23          # J/K


@dataclass(frozen=True)
class DeviceParams:
    """Raw circuit parameters in SI units.

    Attributes
    ----------
    E_C, E_J_max : float
        Charging energy and maximum Josephson energy (J).
    omega_a, omega_b : float
        Bare angular frequencies of the relevant modes of resonators A
        and B (rad/s).
    L_a, L_b : float
        Resonator lengths (m).
    c_cap, l_ind : float
        Capacitance per unit length of resonator A (F/m) and inductance per
        unit length of resonator B (H/m).
    C_g, C_a : float
        Gate capacitance and coupling capacitance to resonator A (F).
    V_g_dc : float
        DC gate voltage (V).
    S_loop : float
        SQUID loop area threaded by resonator B's magnetic field (m^2).
    d_dist : float
        Distance from resonator B's center line to the loop (m).
    Phi_e : float
        External DC flux bias through the loop (Wb).
    hbar, e_charge, mu_0, Phi_0 : float
        Physical constants, SI by default; override for natural-unit work.

    Every field must be finite.
    """

    E_C: float
    E_J_max: float
    omega_a: float
    omega_b: float
    L_a: float
    L_b: float
    c_cap: float
    l_ind: float
    C_g: float
    C_a: float
    V_g_dc: float
    S_loop: float
    d_dist: float
    Phi_e: float = 0.0
    hbar: float = HBAR_SI
    e_charge: float = E_CHARGE_SI
    mu_0: float = MU_0_SI
    Phi_0: float = PHI_0_SI

    def __post_init__(self):
        _require_finite(self)
        positive = ("E_C", "E_J_max", "omega_a", "omega_b", "L_a", "L_b",
                    "c_cap", "l_ind", "C_a", "d_dist",
                    "hbar", "e_charge", "mu_0", "Phi_0")
        for name in positive:
            if not getattr(self, name) > 0:
                raise InvalidArgumentError(f"DeviceParams.{name} must be positive")
        for name in ("C_g", "S_loop"):
            if getattr(self, name) < 0:
                raise InvalidArgumentError(f"DeviceParams.{name} must be >= 0")


@dataclass(frozen=True)
class EffectiveParams:
    """Reduced parameters the spectrum and dynamics run on.

    omega_a is the bare resonator-A frequency carried through so frame
    reconstruction never needs the full DeviceParams.  All frequencies are
    angular, in whatever unit system produced them (SI rad/s from
    effective_couplings, or hbar = 1 natural units when built directly).
    Every field must be finite.
    """

    g_a: float
    phi_b: float
    phi_e: float
    n_g_dc: float
    omega_a: float
    omega_a_prime: float
    chi: float

    def __post_init__(self):
        _require_finite(self)
        if self.g_a < 0 or self.phi_b < 0 or self.omega_a <= 0:
            raise InvalidArgumentError(
                "EffectiveParams needs g_a >= 0, phi_b >= 0, omega_a > 0"
            )


def cross_kerr(g_a: float, phi_b: float, e_j_max: float, omega_a: float,
               hbar: float = 1.0) -> float:
    """Cross-Kerr rate chi = 2 g_a^2 phi_b^2 E_J_max / (hbar omega_a^2)."""
    return 2.0 * g_a**2 * phi_b**2 * e_j_max / (hbar * omega_a**2)


def dressed_mode_frequency(g_a: float, phi_b: float, e_j_max: float,
                           omega_a: float, hbar: float = 1.0) -> float:
    """Dressed resonator-A rate omega_a' = g^2/w_a + 2 g^2 E_J/(hbar w_a^2) - chi/2."""
    chi = cross_kerr(g_a, phi_b, e_j_max, omega_a, hbar)
    return g_a**2 / omega_a + 2.0 * g_a**2 * e_j_max / (hbar * omega_a**2) - chi / 2.0


def effective_couplings(p: DeviceParams, **overrides: float) -> EffectiveParams:
    """Reduce DeviceParams to the effective rates, with optional overrides.

    g_a    = 2 E_C C_a sqrt(hbar w_a / (L_a c)) / (hbar e)
    phi_b  = mu_0 S sqrt(hbar w_b / (L_b l)) / (2 d Phi_0)
    phi_e  = pi Phi_e / Phi_0
    n_g_dc = C_g V_g_dc / (2 e)
    omega_a = w_a

    An override, keyed by the EffectiveParams field it sets, replaces one of
    these first.  chi and omega_a_prime then come from their own override,
    or from cross_kerr / dressed_mode_frequency of the values above after
    the overrides, so without one chi = 2 g_a^2 phi_b^2 E_J_max / (hbar
    omega_a^2) holds by construction.  A map whose float arithmetic fails
    (omega_a^2 underflowing to 0, a g_a^2 that overflows) raises
    InvalidArgumentError, as does a rate that is not finite.
    """
    try:
        v_rms_a = math.sqrt(p.hbar * p.omega_a / (p.L_a * p.c_cap))
        i_rms_b = math.sqrt(p.hbar * p.omega_b / (p.L_b * p.l_ind))
        vals = {
            "g_a": 2.0 * p.E_C * p.C_a * v_rms_a / (p.hbar * p.e_charge),
            "phi_b": p.mu_0 * p.S_loop * i_rms_b / (2.0 * p.d_dist * p.Phi_0),
            "phi_e": math.pi * p.Phi_e / p.Phi_0,
            "n_g_dc": p.C_g * p.V_g_dc / (2.0 * p.e_charge),
            "omega_a": p.omega_a,
            **overrides,
        }
        rates = (vals["g_a"], vals["phi_b"], p.E_J_max, vals["omega_a"], p.hbar)
        vals = {"omega_a_prime": dressed_mode_frequency(*rates),
                "chi": cross_kerr(*rates), **vals}
    except ArithmeticError as exc:
        raise InvalidArgumentError(f"the device map fails in float arithmetic "
                                   f"({type(exc).__name__}: {exc})") from None
    return EffectiveParams(**vals)


def qubit_frequency(eff: EffectiveParams, e_j_max: float, n_b,
                    hbar: float = 1.0):
    """Flux-dressed qubit frequency at mode-B photon number n_b.

    omega_q(n_b) = 2 E_J_max [1 - phi_b^2 (1 + 2 n_b) / 2] / hbar.
    n_b may be a scalar or an array.  With hbar = 1 pass e_j_max as an
    angular frequency.
    """
    n_b = np.asarray(n_b)
    if np.any(n_b < 0):
        raise InvalidArgumentError("n_b must be >= 0")
    out = 2.0 * e_j_max * (1.0 - eff.phi_b**2 * (1.0 + 2.0 * n_b) / 2.0) / hbar
    return float(out) if out.ndim == 0 else out


# a regime ratio at or above its threshold reads "warn"
REGIME_THRESHOLDS = {"phi_b": 0.2, "dispersive": 0.1, "rwa": 0.5}


def regime_flag(name: str, ratio: float) -> str:
    """"warn" when ratio is at or above REGIME_THRESHOLDS[name] (or nan),
    else "pass"."""
    return "pass" if ratio < REGIME_THRESHOLDS[name] else "warn"


def regime_ratios(eff: EffectiveParams, e_j_max: float, omega_a: float,
                  n_b, hbar: float = 1.0):
    """The regime quantities at mode-B photon numbers n_b, arrays of its
    shape: omega_q(n_b), the detuning Delta = omega_q - omega_a, the
    dispersive ratio g_a/|Delta| and the RWA ratio |Delta|/|omega_q +
    omega_a|, the kept slow scale over the dropped fast one.  A ratio
    whose denominator is 0 is inf.  regime_report tabulates them, and the
    reduced builders of :mod:`cqdeph.hamiltonians` warn from their worst
    over the kept n_b, both by regime_flag.
    """
    wq = np.asarray(qubit_frequency(eff, e_j_max, n_b, hbar), dtype=float)
    delta = wq - omega_a
    fast = np.abs(wq + omega_a)
    with np.errstate(divide="ignore", invalid="ignore"):
        g_over = np.where(delta == 0.0, np.inf, eff.g_a / np.abs(delta))
        rwa = np.where(fast == 0.0, np.inf, np.abs(delta) / fast)
    return wq, delta, g_over, rwa


@dataclass(frozen=True)
class CrossPhase:
    radians: float
    cycles: float


def cross_phase(chi: float, tau: float) -> CrossPhase:
    """Accumulated two-mode phase chi * tau, reported in radians and cycles."""
    if tau < 0:
        raise InvalidArgumentError(f"tau must be >= 0, got {tau}")
    radians = chi * tau
    return CrossPhase(radians=radians, cycles=radians / (2.0 * math.pi))


@dataclass(frozen=True)
class RegimeRow:
    n_b: int
    omega_q: float
    detuning: float
    g_over_delta: float
    rwa_ratio: float
    dispersive_flag: str
    rwa_flag: str


@dataclass(frozen=True)
class RegimeReport:
    phi_b: float
    phi_b_flag: str
    rows: tuple[RegimeRow, ...]
    thresholds: dict

    def worst_flag(self) -> str:
        flags = [self.phi_b_flag] + [f for r in self.rows for f in (r.dispersive_flag, r.rwa_flag)]
        return "warn" if "warn" in flags else "pass"


def regime_report(p: DeviceParams, eff: EffectiveParams,
                  n_b_max: int = 4) -> RegimeReport:
    """Diagnostic table of approximation-validity ratios; never raises.

    Per mode-B photon number n_b = 0 .. n_b_max it lists the columns of
    regime_ratios and flags each ratio by regime_flag: "pass" below its
    threshold in REGIME_THRESHOLDS, "warn" at or above it.
    """
    table = np.stack(regime_ratios(eff, p.E_J_max, p.omega_a,
                                   np.arange(n_b_max + 1), p.hbar), axis=1)
    rows = tuple(RegimeRow(n, wq, delta, g_over, rwa,
                           regime_flag("dispersive", g_over),
                           regime_flag("rwa", rwa))
                 for n, (wq, delta, g_over, rwa) in enumerate(table.tolist()))
    return RegimeReport(
        phi_b=eff.phi_b,
        phi_b_flag=regime_flag("phi_b", eff.phi_b),
        rows=rows,
        thresholds=dict(REGIME_THRESHOLDS),
    )
