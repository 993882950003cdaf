"""cqdeph: circuit-QED cross-Kerr model with exact pure-dephasing dynamics.

A charge qubit couples two transmission-line resonators: mode A through its
gate voltage, mode B through the flux threading its SQUID loop.  At the
charge sweet spot the stack of standard reductions (harmonic expansion,
rotating-wave, dispersive) lands on a diagonal cross-Kerr model whose
energies are linear in the qubit-conditioned photon numbers.  Because that
final Hamiltonian commutes with itself at all times, its pure-dephasing
dynamics under a bosonic reservoir factorizes exactly into per-element
multipliers; no master equation, no time stepping.

Modules
-------
hilbert       truncated two-mode-plus-qubit tensor algebra
device        circuit parameters -> effective couplings, regime checks
hamiltonians  every stage of the reduction chain in the structure it has:
              dense where labels mix, energy vectors where it is diagonal
spectrum      diagonal-model levels and degenerate (protected) subspaces
bath          spectral densities and the two dephasing integrals
kernels       quadrature and multiplier hot loops (vectorized numpy)
dynamics      closed-form reduced evolution plus brute-force oracles
validation    cross-module invariant suite; its report's verdict is the
              CLI's exit code 3
cli           config-driven command line front end
"""

__version__ = "0.1.0"

import importlib

# module -> the public names it defines.  Each module, and each name, is
# imported on first access (PEP 562), so a CLI call loads only the modules
# its scenario uses.  Every function listed has a caller outside its own
# module, in the package, the README quick start or the benchmark.
_EXPORTS = {
    "errors": ("CqdephError", "InvalidArgumentError", "CapacityError",
               "IntegrabilityError", "NumericsError", "ConfigError"),
    "hilbert": ("FockCutoff", "OperatorMatrix", "StateVector", "annihilation",
                "number_operator", "tensor3", "coherent_state", "partial_trace"),
    "device": ("DeviceParams", "EffectiveParams", "CrossPhase", "RegimeReport",
               "cross_kerr", "dressed_mode_frequency", "effective_couplings",
               "qubit_frequency", "cross_phase", "regime_report"),
    "hamiltonians": ("build_full", "build_rotated", "build_quadratic",
                     "build_jc", "build_dispersive", "build_diagonal",
                     "frame_free_part"),
    "spectrum": ("DfsResult", "dfs_find"),
    "bath": ("OhmicSpectralDensity", "TabulatedSpectralDensity", "BathState",
             "q1_grid", "q2_grid", "q_grids", "r_factor"),
    "kernels": (),
    "dynamics": ("DephasingTrajectory", "FiniteBathSpec", "FiniteBathReport",
                 "DispersiveCheck", "evolve_reduced", "observables",
                 "finite_bath_oracle", "dispersive_check"),
    "validation": ("CheckResult", "run_all"),
    "cli": (),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_ORIGIN]


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_ORIGIN[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
