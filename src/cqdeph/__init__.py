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
hamiltonians  every stage of the reduction chain as an explicit matrix
spectrum      diagonal-model levels and degenerate (protected) subspaces
bath          spectral densities and the two dephasing integrals
kernels       quadrature and multiplier hot loops (vectorized numpy)
dynamics      closed-form reduced evolution plus brute-force oracles
validation    cross-module invariant suite
cli           config-driven command line front end
"""

__version__ = "0.1.0"

from .bath import (
    BathState,
    OhmicSpectralDensity,
    QuadratureResult,
    TabulatedSpectralDensity,
    damping,
    phase_shift,
    q1,
    q2,
    q1_grid,
    q2_grid,
    q_grids,
    r_factor,
)
from .device import (
    CrossPhase,
    DeviceParams,
    EffectiveParams,
    RegimeReport,
    cross_kerr,
    cross_phase,
    dressed_mode_frequency,
    effective_couplings,
    qubit_frequency,
    regime_report,
)
from .dynamics import (
    DephasingTrajectory,
    DispersiveCheck,
    FiniteBathReport,
    FiniteBathSpec,
    dispersive_check,
    evolve_reduced,
    finite_bath_oracle,
    observables,
)
from .errors import (
    CapacityError,
    ConfigError,
    CqdephError,
    IntegrabilityError,
    InvalidArgumentError,
    NumericsError,
    ValidationFailure,
)
from .hamiltonians import (
    HamiltonianStage,
    build_diagonal,
    build_dispersive,
    build_full,
    build_jc,
    build_quadratic,
    build_rotated,
    frame_free_part,
)
from .hilbert import (
    FockCutoff,
    OperatorMatrix,
    StateVector,
    TensorBasisLabel,
    annihilation,
    coherent_state,
    identity,
    number_operator,
    number_state,
    partial_trace,
    tensor3,
)
from .spectrum import (
    DegeneracyClass,
    DfsResult,
    DfsVerification,
    dfs_find,
    dfs_verify,
    eigenvalue,
    levels,
)
from .validation import CheckResult, run_all, summary_text

__all__ = [
    "__version__",
    # errors
    "CqdephError", "InvalidArgumentError", "CapacityError",
    "IntegrabilityError", "NumericsError", "ConfigError", "ValidationFailure",
    # hilbert
    "FockCutoff", "TensorBasisLabel", "OperatorMatrix", "StateVector",
    "annihilation", "number_operator", "identity", "tensor3", "number_state",
    "coherent_state", "partial_trace",
    # device
    "DeviceParams", "EffectiveParams", "CrossPhase", "RegimeReport",
    "cross_kerr", "dressed_mode_frequency", "effective_couplings",
    "qubit_frequency", "cross_phase", "regime_report",
    # hamiltonians
    "HamiltonianStage", "build_full", "build_rotated", "build_quadratic",
    "build_jc", "build_dispersive", "build_diagonal", "frame_free_part",
    # spectrum
    "DegeneracyClass", "DfsResult", "DfsVerification", "eigenvalue", "levels",
    "dfs_find", "dfs_verify",
    # bath
    "OhmicSpectralDensity", "TabulatedSpectralDensity", "BathState",
    "QuadratureResult", "q1", "q2", "q1_grid", "q2_grid", "q_grids",
    "phase_shift", "damping", "r_factor",
    # dynamics
    "DephasingTrajectory", "FiniteBathSpec", "FiniteBathReport",
    "DispersiveCheck", "evolve_reduced", "observables", "finite_bath_oracle",
    "dispersive_check",
    # validation
    "CheckResult", "run_all", "summary_text",
]
