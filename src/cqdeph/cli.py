"""Config-driven command line front end.

Four subcommands, one per scenario:

    cqdeph device    --config run.cfg --out results/
    cqdeph spectrum  --config run.cfg --out results/
    cqdeph dephasing --config run.cfg --out results/
    cqdeph validate  --config run.cfg --out results/

The config is line-oriented ``key = value`` text with ``[section]`` headers.
Every dimensional value carries an explicit unit suffix (``omega_a = 6
GHz_cyc``, ``tau = 160 ns``); a bare number on a dimensional key is an
error, as is any unknown key or section.  All quantities are normalized to
SI at load time: angular frequencies in rad/s, times in seconds, energies in
Joules (entered as frequencies, i.e. E/hbar, or directly in J).

Two tables hold the rules.  The scenario table ``_SCENARIOS`` has one row
per scenario: its help text, the sections it allows and requires, its runner
and its summary line; the subcommands, the dispatch of ``run`` and the
section checks read it.  The key table ``_SCHEMA`` has one row per config
key: section, value kind, whether it is required, its choices or bound, the
key value it depends on and its default; parsing, the echo and the error
messages read it.  A RunConfig holds each section of the file as
``{key: value}`` in the table's own terms, so the runners read the keys the
table names.  ``_cross_key_rules`` holds the few rules that read two keys
at once.  Every config error names its line.

Every successful run writes ``report.json`` plus ``config_echo.cfg`` into
the output directory; the echo is normalized to base units and loads back
into the identical RunConfig, and the report lists the warnings the run
raised under ``warnings``.  Scenario payloads: ``device`` adds nothing
else, ``spectrum`` adds ``levels.csv``, ``dephasing`` adds
``trajectory.csv`` and ``observables.csv``.  CSV integer cells are plain
ints and float cells ``%.17g``, 17 significant digits, so repeated runs are
byte-identical.

Exit codes: 0 success, 1 config or argument error, 2 capacity or numeric
error, 3 a validate report with a failed check.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings
from dataclasses import asdict, dataclass, field
from types import MappingProxyType
from typing import TYPE_CHECKING, Callable

import numpy as np

from . import __version__, hilbert
from .bath import (
    DEFAULT_RTOL,
    EXPONENT_MAX,
    BathState,
    OhmicSpectralDensity,
    TabulatedSpectralDensity,
)
from .device import (
    HBAR_SI,
    K_B_SI,
    PHI_0_SI,
    DeviceParams,
    EffectiveParams,
    cross_phase,
    effective_couplings,
    regime_report,
)
from .dynamics import evolve_reduced, observables
from .errors import (
    CapacityError,
    ConfigError,
    CqdephError,
    InvalidArgumentError,
    NumericsError,
)
from .hilbert import FockCutoff, StateVector, TensorBasisLabel, coherent_state
from .spectrum import TRUNCATION_NOTE, _check_ratio, dfs_find, energies_vector

if TYPE_CHECKING:
    from collections.abc import Mapping

__all__ = ["RunConfig", "load_config", "render_config", "run", "main"]

_TWO_PI = 2.0 * math.pi

# unit suffix tables; every dimensional key names one of these kinds
_FREQ = {
    "Hz_rad": 1.0, "kHz_rad": 1e3, "MHz_rad": 1e6, "GHz_rad": 1e9,
    "Hz_cyc": _TWO_PI, "kHz_cyc": _TWO_PI * 1e3,
    "MHz_cyc": _TWO_PI * 1e6, "GHz_cyc": _TWO_PI * 1e9,
}
_ENERGY = {"J": 1.0}
_ENERGY.update({k: v * HBAR_SI for k, v in _FREQ.items()})
_TIME = {"s": 1.0, "ms": 1e-3, "us": 1e-6, "ns": 1e-9, "ps": 1e-12}
_LENGTH = {"m": 1.0, "mm": 1e-3, "um": 1e-6, "nm": 1e-9}
_CAP = {"F": 1.0, "pF": 1e-12, "fF": 1e-15}
_CAP_PER_LEN = {"F_per_m": 1.0, "pF_per_m": 1e-12, "fF_per_m": 1e-15}
_IND_PER_LEN = {"H_per_m": 1.0, "uH_per_m": 1e-6, "nH_per_m": 1e-9}
_VOLT = {"V": 1.0, "mV": 1e-3, "uV": 1e-6}
_AREA = {"m2": 1.0, "mm2": 1e-6, "um2": 1e-12}
_FLUX = {"Wb": 1.0, "Phi0": PHI_0_SI}
_TEMPERATURE = {"K": 1.0, "mK": 1e-3, "uK": 1e-6}

_KINDS = {
    "frequency": _FREQ, "energy": _ENERGY, "time": _TIME, "length": _LENGTH,
    "capacitance": _CAP, "capacitance_per_length": _CAP_PER_LEN,
    "inductance_per_length": _IND_PER_LEN, "voltage": _VOLT, "area": _AREA,
    "flux": _FLUX, "temperature": _TEMPERATURE,
}

# base-unit suffix of each kind: the one whose factor is exactly 1
_BASE_SUFFIX = {kind: next(s for s, f in table.items() if f == 1.0)
                for kind, table in _KINDS.items()}


@dataclass(frozen=True)
class DensityTable:
    """A density table file and the density load_config read from it, so
    that a run uses the table the load checked and reads no file."""

    path: str
    density: TabulatedSpectralDensity = field(compare=False, repr=False)

    def __fspath__(self) -> str:
        return self.path


@dataclass(frozen=True)
class RunConfig:
    """A fully normalized run description: each section the file gives, as
    ``{key: value}`` in the key table's terms, everything SI, defaults filled
    in, everything frozen.  The top level is the section ``""``."""

    sections: Mapping[str, Mapping]

    @property
    def scenario(self) -> str:
        return self.sections[""]["scenario"]

    def __getitem__(self, section: str) -> Mapping:
        """The keys of ``section``; {} for a section the file does not give."""
        return self.sections.get(section, {})


# --------------------------------------------------------------- execution

def _device(cfg: RunConfig) -> DeviceParams:
    return DeviceParams(**{k: v for k, v in cfg["device"].items() if k != "tau"})


def resolve_effective(cfg: RunConfig) -> EffectiveParams:
    """The device map with the [effective] overrides (the rule of
    ``device.effective_couplings``), or pure effective parameters."""
    if cfg["device"]:
        return effective_couplings(_device(cfg), **cfg["effective"])
    return EffectiveParams(**{"g_a": 0.0, "phi_b": 0.0, "phi_e": 0.0,
                              "n_g_dc": 0.5, **cfg["effective"]})


def _time_grid(grid: Mapping) -> np.ndarray:
    space = np.geomspace if grid["spacing"] == "log" else np.linspace
    return space(grid["t_start"], grid["t_stop"], grid["t_count"])


def _tabulated(path: str, line: int | None = None) -> TabulatedSpectralDensity:
    """Read and check a density table; any problem is a ConfigError."""
    try:
        with warnings.catch_warnings():
            # an empty file is a warning of loadtxt, and an error here
            warnings.filterwarnings("error", category=UserWarning)
            table = np.loadtxt(path, ndmin=2)
        if table.shape[1] != 2:
            raise InvalidArgumentError(
                f"expected two columns (omega rad/s, density rad/s), got "
                f"{table.shape[1]}")
        return TabulatedSpectralDensity(table[:, 0], table[:, 1])
    except (OSError, ValueError, UserWarning) as exc:
        raise ConfigError(f"table: {path}: {exc}", line) from None


def _bath_model(bath: Mapping):
    if bath["family"] == "ohmic":
        return OhmicSpectralDensity(coupling=bath["coupling"],
                                    exponent=bath["exponent"],
                                    omega_c=bath["omega_c"])
    return bath["table"].density


def _initial_state(state: Mapping, cut: FockCutoff) -> StateVector:
    if state["kind"] == "coherent":
        return coherent_state(state["mode"],
                              complex(state["alpha_re"], state["alpha_im"]),
                              cut, state["qubit_level"])
    m, n, i, re_part, im_part = zip(*state["amp"])
    index = cut.flat_indices(m, n, i)
    # a label given twice adds its amplitudes, in the order given
    amp = np.empty(cut.dim, dtype=complex)
    amp.real = np.bincount(index, re_part, cut.dim)
    amp.imag = np.bincount(index, im_part, cut.dim)
    return StateVector.normalized(amp, cut)


# cells formatted by one %-format call of _write_csv
_CSV_BLOCK = 1 << 16


def _json_float(x: float):
    return float(x) if math.isfinite(x) else None


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(text)


def _write_csv(path: str, header: list[str], columns: list) -> None:
    """Write equal-length columns as CSV: integer columns as plain ints,
    every other column as %.17g floats.  The columns are gathered into one
    table, and each block of about _CSV_BLOCK cells is formatted by one
    %-format string over its rows and written straight to the file."""
    cols = [np.asarray(col) for col in columns]
    ints = [col.dtype.kind in "iu" for col in cols]
    row = ",".join("%d" if is_int else "%.17g" for is_int in ints) + "\n"
    # Python objects keep every int of a table with int columns exact
    table = np.empty((len(cols[0]), len(cols)),
                     dtype=object if any(ints) else float)
    for k, col in enumerate(cols):
        table[:, k] = col
    step = max(1, _CSV_BLOCK // len(cols))
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(",".join(header) + "\n")
        for i in range(0, len(table), step):
            block = table[i:i + step]
            f.write(row * len(block) % tuple(block.ravel().tolist()))


def _first_non_finite(header: list[str], columns: list) -> tuple[str, int] | None:
    """The name and the row of the first column that holds a non-finite
    value, at its first such row; None when every value is finite."""
    for name, col in zip(header, columns):
        finite = np.isfinite(col)
        if not finite.all():
            return name, int(np.argmin(finite))
    return None


def _run_device(cfg: RunConfig, out_dir: str, tol) -> dict:
    eff = resolve_effective(cfg)
    rep = regime_report(_device(cfg), eff)
    regime = {**asdict(rep), "worst_flag": rep.worst_flag()}
    # a ratio is inf where its denominator is 0, which JSON cannot hold
    regime["rows"] = [{**row, "g_over_delta": _json_float(row["g_over_delta"]),
                       "rwa_ratio": _json_float(row["rwa_ratio"])}
                      for row in regime["rows"]]
    payload = {"effective": asdict(eff), "regime": regime}
    tau = cfg["device"].get("tau")
    if tau is not None:
        payload["cross_phase"] = {"chi_rad_per_s": eff.chi, "tau_s": tau,
                                  **asdict(cross_phase(eff.chi, tau))}
    return payload


def _run_spectrum(cfg: RunConfig, out_dir: str, tol) -> dict:
    eff = resolve_effective(cfg)
    cut = FockCutoff(**cfg["cutoff"])
    spec = cfg["spectrum"]
    cluster_tol = tol if tol is not None else spec.get("tol")
    res = dfs_find(eff, cut, cluster_tol, ratio=spec.get("ratio"))

    _write_csv(os.path.join(out_dir, "levels.csv"),
               ["flat_index", "m", "n", "i", "energy"],
               [np.arange(cut.dim), *cut.numbers(), energies_vector(eff, cut)])
    return {
        "ratio": _json_float(res.ratio),
        "exact": res.exact,
        "cluster_tolerance": res.tolerance,
        "class_count": len(res),
        "protected_class_count": len(res.multi_member()),
        "classes": [
            {
                "energy": c.energy,
                "size": len(c),
                "members": [[lab.m, lab.n, lab.i] for lab in c.members],
            }
            for c in res
        ],
        "index_convention_note": res.note,
        "truncation_note": TRUNCATION_NOTE,
        "tables": {"levels": "levels.csv"},
    }


def _run_dephasing(cfg: RunConfig, out_dir: str, tol) -> dict:
    eff = resolve_effective(cfg)
    cut, bath, grid = FockCutoff(**cfg["cutoff"]), cfg["bath"], cfg["grid"]
    # refuse before materializing a dim x dim density matrix
    hilbert.check_dense_dim(cut)
    rho0 = _initial_state(cfg["state"], cut).density()
    rtol = tol if tol is not None else DEFAULT_RTOL
    pairs = [
        (TensorBasisLabel(*hi), TensorBasisLabel(*lo))
        for hi, lo in cfg["pairs"].get("pair", ())
    ] or None
    traj = evolve_reduced(rho0, eff, _bath_model(bath),
                          BathState(beta=bath["beta"]), _time_grid(grid),
                          rtol=rtol, pairs=pairs)

    header = ["t"]
    columns: list = [traj.t_grid]
    legend = []
    for k, rec in enumerate(traj.pairs):
        name = f"p{k}"
        header += [f"abs_{name}", f"arg_{name}", f"gamma_{name}",
                   f"dphi_{name}"]
        columns += [np.abs(rec.element), np.angle(rec.element), rec.damping,
                    rec.phase]
        legend.append({
            "column": name,
            "row_label": [rec.label_row.m, rec.label_row.n, rec.label_row.i],
            "col_label": [rec.label_col.m, rec.label_col.n, rec.label_col.i],
            "delta_e": rec.delta_e,
            "square_diff": rec.square_diff,
        })
    coherence = observables(traj, "qubit_coherence")
    obs_header = ["t", "purity", "qubit_coherence_re", "qubit_coherence_im",
                  "fidelity_to_initial"]
    obs_columns = [traj.t_grid, observables(traj, "purity"), coherence.real,
                   coherence.imag, observables(traj, "fidelity_to_initial")]
    # every float is checked before any file is written; a non-finite
    # delta_e or square_diff of the legend makes its pair's gamma or dphi
    # column, Q2 delta_e^2 or Q1 square_diff, non-finite too
    for table, names, cols in (("trajectory.csv", header, columns),
                               ("observables.csv", obs_header, obs_columns)):
        bad = _first_non_finite(names, cols)
        if bad is not None:
            raise NumericsError(
                f"{table} column {bad[0]} is not finite, first at "
                f"t = {float(traj.t_grid[bad[1]])!r}; no output file was written")
    _write_csv(os.path.join(out_dir, "trajectory.csv"), header, columns)
    _write_csv(os.path.join(out_dir, "observables.csv"), obs_header,
               obs_columns)
    return {
        "pairs": legend,
        "grid": {
            "t_start": grid["t_start"],
            "t_stop": grid["t_stop"],
            "count": grid["t_count"],
            "spacing": grid["spacing"],
        },
        "bath": {
            "family": bath["family"],
            "coupling": bath.get("coupling"),
            "exponent": bath.get("exponent"),
            "omega_c": bath.get("omega_c"),
            "table": bath["table"].path if "table" in bath else None,
            "beta": _json_float(bath["beta"]),
            "zero_temperature": math.isinf(bath["beta"]),
        },
        "quadrature_rtol": rtol,
        "tables": {"trajectory": "trajectory.csv",
                   "observables": "observables.csv"},
    }


def _run_validate(cfg: RunConfig, out_dir: str, tol) -> dict:
    from . import validation  # only this scenario loads the check suite

    results = validation.run_all(tol_scale=tol if tol is not None else 1.0)
    return {
        "checks": [{**asdict(r), "residual": _json_float(r.residual)}
                   for r in results],
        "passed_count": sum(r.passed for r in results),
        "check_count": len(results),
        "all_passed": all(r.passed for r in results),
    }


def _device_summary(report: dict) -> str:
    parts = [f"regime worst flag: {report['regime']['worst_flag']}"]
    if "cross_phase" in report:
        parts.append(f"cross-phase {report['cross_phase']['cycles']:.4f} cycles")
    return "; ".join(parts)


# ----------------------------------------------------------- scenario table

@dataclass(frozen=True)
class _Scenario:
    """One scenario: its subcommand help, the sections it allows, the
    sections it requires, the runner that computes its report payload from
    ``(cfg, out_dir, tol)``, and the summary line of its report.  Each entry
    of ``requires`` lists alternatives, one of which must be present."""

    blurb: str
    sections: tuple[str, ...]
    requires: tuple[tuple[str, ...], ...]
    runner: Callable[[RunConfig, str, float | None], dict]
    summary: Callable[[dict], str]


# effective parameters come from the device map or directly from [effective]
_PARAMS = ("device", "effective")

_SCENARIOS = {
    "device": _Scenario(
        "effective couplings and regime diagnostics",
        _PARAMS, (("device",),), _run_device, _device_summary),
    "spectrum": _Scenario(
        "level table and degeneracy classes",
        _PARAMS + ("cutoff", "spectrum"), (_PARAMS, ("cutoff",)),
        _run_spectrum,
        lambda r: (f"{r['class_count']} degeneracy classes, "
                   f"{r['protected_class_count']} protected")),
    "dephasing": _Scenario(
        "reduced-density-matrix trajectories",
        _PARAMS + ("cutoff", "bath", "grid", "state", "pairs"),
        (_PARAMS, ("cutoff",), ("bath",), ("grid",), ("state",)),
        _run_dephasing,
        lambda r: (f"{len(r['pairs'])} tracked pairs over "
                   f"{r['grid']['count']} grid points")),
    "validate": _Scenario(
        "run the cross-module invariant suite", (), (), _run_validate,
        lambda r: f"{r['passed_count']}/{r['check_count']} checks passed"),
}

SCENARIOS = tuple(_SCENARIOS)


# ---------------------------------------------------------------- key table

@dataclass(frozen=True)
class _Key:
    """One config key: where it lives, how its value reads, its default.

    ``kind`` is a unit kind of _KINDS, or number (dimensionless), integer,
    word, rational, path, beta (a time or ``inf``), amplitude
    (``m n i : re im``) or pair (``m n i : m n i``).  Amplitude and pair
    keys are indexed: the file spells them ``amp_0``, ``amp_1``, ... and
    the section holds their values as one tuple under the key.
    ``required`` asks for the key, or for at least one line of an indexed
    key.  ``choices`` lists the values a word or integer may take;
    ``bound = (op, limit)`` asks for ``value op limit`` with op ``>`` or
    ``>=``, and ``at_most`` asks for ``value <= at_most``.  ``when = (key,
    value)`` accepts the key only when that other key of the section holds
    that value.  ``default``, in SI units, is the value a section the key
    is accepted in holds when the file omits the key; None leaves it out.
    """

    section: str
    key: str
    kind: str
    required: bool = False
    choices: tuple = ()
    when: tuple[str, str] | None = None
    bound: tuple[str, int] | None = None
    at_most: float | None = None
    default: object = None

    @property
    def indexed(self) -> bool:
        return self.kind in ("amplitude", "pair")


_OHMIC = ("family", "ohmic")
_TABULATED = ("family", "tabulated")
_LABELS = ("kind", "labels")
_COHERENT = ("kind", "coherent")
_GT0 = (">", 0)
_GE0 = (">=", 0)
_GE1 = (">=", 1)

# sections are parsed and echoed in this order, keys within a section too;
# the bounds restate those of DeviceParams, EffectiveParams, FockCutoff,
# OhmicSpectralDensity, BathState and cross_phase, so that they name a line
_SCHEMA = (
    _Key("", "scenario", "word", True, SCENARIOS),
    _Key("device", "E_C", "energy", True, bound=_GT0),
    _Key("device", "E_J_max", "energy", True, bound=_GT0),
    _Key("device", "omega_a", "frequency", True, bound=_GT0),
    _Key("device", "omega_b", "frequency", True, bound=_GT0),
    _Key("device", "L_a", "length", True, bound=_GT0),
    _Key("device", "L_b", "length", True, bound=_GT0),
    _Key("device", "c_cap", "capacitance_per_length", True, bound=_GT0),
    _Key("device", "l_ind", "inductance_per_length", True, bound=_GT0),
    _Key("device", "C_g", "capacitance", True, bound=_GE0),
    _Key("device", "C_a", "capacitance", True, bound=_GT0),
    _Key("device", "V_g_dc", "voltage", True),
    _Key("device", "S_loop", "area", True, bound=_GE0),
    _Key("device", "d_dist", "length", True, bound=_GT0),
    _Key("device", "Phi_e", "flux", default=0.0),
    _Key("device", "tau", "time", bound=_GE0),
    # the EffectiveParams fields a config may set
    _Key("effective", "chi", "frequency"),
    _Key("effective", "g_a", "frequency", bound=_GE0),
    _Key("effective", "n_g_dc", "number"),
    _Key("effective", "omega_a", "frequency", bound=_GT0),
    _Key("effective", "omega_a_prime", "frequency"),
    _Key("effective", "phi_b", "number", bound=_GE0),
    _Key("effective", "phi_e", "number"),
    _Key("cutoff", "n_max_a", "integer", True, bound=_GE1),
    _Key("cutoff", "n_max_b", "integer", True, bound=_GE1),
    _Key("bath", "family", "word", True, ("ohmic", "tabulated")),
    _Key("bath", "coupling", "number", True, when=_OHMIC, bound=_GE0),
    _Key("bath", "exponent", "number", when=_OHMIC, bound=_GT0,
         at_most=EXPONENT_MAX, default=1.0),
    _Key("bath", "omega_c", "frequency", True, when=_OHMIC, bound=_GT0),
    _Key("bath", "table", "path", True, when=_TABULATED),
    _Key("bath", "beta", "beta", bound=_GT0, default=math.inf),
    # read into beta by _cross_key_rules, and not kept
    _Key("bath", "temperature", "temperature", bound=_GE0),
    _Key("grid", "t_start", "time", bound=_GE0, default=0.0),
    _Key("grid", "t_stop", "time", True),
    _Key("grid", "t_count", "integer", True, bound=_GE1),
    _Key("grid", "spacing", "word", choices=("linear", "log"), default="linear"),
    _Key("state", "kind", "word", True, ("labels", "coherent")),
    _Key("state", "amp", "amplitude", True, when=_LABELS),
    _Key("state", "mode", "word", True, ("A", "B"), _COHERENT),
    _Key("state", "alpha_re", "number", when=_COHERENT, default=0.0),
    _Key("state", "alpha_im", "number", when=_COHERENT, default=0.0),
    _Key("state", "qubit_level", "integer", False, (0, 1), _COHERENT, default=0),
    _Key("pairs", "pair", "pair", True),
    _Key("spectrum", "ratio", "rational"),
    _Key("spectrum", "tol", "number", bound=_GT0),
)

_SECTIONS = tuple(dict.fromkeys(row.section for row in _SCHEMA))
_ROWS = {s: tuple(row for row in _SCHEMA if row.section == s) for s in _SECTIONS}


# ------------------------------------------------------------------ parsing

def _tokenize(path: str) -> tuple[dict, dict]:
    """Split the file into {(section, key): (value, line)} plus header lines."""
    try:
        with open(path, encoding="utf-8") as f:
            raw_lines = f.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    entries: dict[tuple[str, str], tuple[str, int]] = {}
    headers: dict[str, int] = {}
    section = ""
    for lineno, raw in enumerate(raw_lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if not section:
                raise ConfigError("empty section header", lineno)
            if section in headers:
                raise ConfigError(f"duplicate section [{section}]", lineno)
            headers[section] = lineno
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {line!r}", lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ConfigError(f"expected 'key = value', got {line!r}", lineno)
        if (section, key) in entries:
            where = "top level" if not section else f"[{section}]"
            raise ConfigError(f"duplicate key {key!r} in {where}", lineno)
        entries[(section, key)] = (value, lineno)
    return entries, headers


def _number(raw: str, key: str, line: int) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"{key}: not a number: {raw!r}", line) from None
    if not math.isfinite(value):
        raise ConfigError(f"{key}: not a finite number: {raw!r}", line)
    return value


def _integer(raw: str, key: str, line: int) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{key}: not an integer: {raw!r}", line) from None


def _dimensional(raw: str, kind: str, key: str, line: int) -> float:
    parts = raw.split()
    if len(parts) == 1:
        raise ConfigError(
            f"{key}: unit suffix missing on a dimensional quantity "
            f"(expected one of {', '.join(sorted(_KINDS[kind]))})", line)
    if len(parts) != 2:
        raise ConfigError(f"{key}: expected '<number> <suffix>', got {raw!r}", line)
    num, suffix = parts
    table = _KINDS[kind]
    if suffix not in table:
        raise ConfigError(
            f"{key}: unknown {kind} suffix {suffix!r} "
            f"(expected one of {', '.join(sorted(table))})", line)
    return _number(num, key, line) * table[suffix]


def _dimensionless(raw: str, key: str, line: int) -> float:
    if len(raw.split()) != 1:
        raise ConfigError(f"{key}: dimensionless quantity takes no suffix", line)
    return _number(raw, key, line)


def _label_triplet(raw: str, key: str, line: int,
                   cutoff: Mapping | None) -> tuple[int, int, int]:
    """Read ``m n i``; with a [cutoff] section, the label must lie inside it."""
    parts = raw.split()
    if len(parts) != 3:
        raise ConfigError(f"{key}: expected 'm n i', got {raw!r}", line)
    m, n, i = (_integer(p, key, line) for p in parts)
    if m < 0 or n < 0 or i not in (0, 1):
        raise ConfigError(f"{key}: label out of range: {raw!r}", line)
    if cutoff is not None and (m > cutoff["n_max_a"] or n > cutoff["n_max_b"]):
        raise ConfigError(
            f"{key}: label {raw!r} outside the cutoff (n_max_a = "
            f"{cutoff['n_max_a']}, n_max_b = {cutoff['n_max_b']})", line)
    return m, n, i


def _indexed_lines(entries: dict, section: str, prefix: str):
    """Collect prefix_0, prefix_1, ... keys sorted by their integer index."""
    found = []
    for (sec, key), (value, line) in list(entries.items()):
        if sec != section:
            continue
        if key.startswith(prefix + "_") and key[len(prefix) + 1:].isdigit():
            found.append((int(key[len(prefix) + 1:]), key, value, line))
            del entries[(sec, key)]
    found.sort()
    return found


def _convert(row: _Key, raw: str, key: str, line: int, config_dir: str,
             cutoff: Mapping | None):
    """Read one value of ``row`` and check its choices and bound; ``key`` is
    the key as spelled (``amp_3``)."""
    value = _read_kind(row.kind, raw, key, line, config_dir, cutoff)
    if row.choices and value not in row.choices:
        raise ConfigError(
            f"{key}: expected one of {', '.join(map(str, row.choices))}, "
            f"got {raw!r}", line)
    if row.bound is not None:
        op, limit = row.bound
        if not (value > limit if op == ">" else value >= limit):
            raise ConfigError(f"{key} must be {op} {limit}, got {value}", line)
    if row.at_most is not None and not value <= row.at_most:
        raise ConfigError(f"{key} must be <= {row.at_most:g}, got {value}", line)
    return value


def _read_kind(kind: str, raw: str, key: str, line: int, config_dir: str,
               cutoff: Mapping | None):
    if kind in _KINDS:
        return _dimensional(raw, kind, key, line)
    if kind == "number":
        return _dimensionless(raw, key, line)
    if kind == "integer":
        return _integer(raw, key, line)
    if kind == "word":
        return raw
    if kind == "beta":
        return math.inf if raw == "inf" else _dimensional(raw, "time", key, line)
    if kind == "rational":
        from fractions import Fraction

        try:
            value = Fraction(raw)
        except (ValueError, ZeroDivisionError):
            raise ConfigError(
                f"{key}: not a rational number: {raw!r}", line) from None
        if abs(value) > sys.float_info.max:  # dfs_find also reads it as a float
            raise ConfigError(f"{key}: not a finite number: {raw!r}", line)
        return value
    if kind == "path":
        path = os.path.abspath(os.path.join(config_dir, raw))
        if not os.path.isfile(path):
            raise ConfigError(f"{key}: no such file: {path}", line)
        return path
    shape = "m n i : re im" if kind == "amplitude" else "m n i : m n i"
    if ":" not in raw:
        raise ConfigError(f"{key}: expected '{shape}', got {raw!r}", line)
    left, right = raw.split(":", 1)
    label = _label_triplet(left.strip(), key, line, cutoff)
    if kind == "pair":
        return label, _label_triplet(right.strip(), key, line, cutoff)
    parts = right.split()
    if len(parts) != 2:
        raise ConfigError(
            f"{key}: expected two amplitude components, got {raw!r}", line)
    return (*label, _number(parts[0], key, line), _number(parts[1], key, line))


def _cross_key_rules(section: str, vals: dict, lines: dict,
                     header: int) -> None:
    """The rules of a section that read two keys, every line of an indexed
    key, or a file's contents; a row of the key table holds each rule on one
    value."""
    if section == "bath":
        if "table" in vals:
            vals["table"] = DensityTable(
                vals["table"], _tabulated(vals["table"], lines["table"]))
        if "beta" in lines and "temperature" in lines:
            raise ConfigError("give either 'beta' or 'temperature', not both",
                              lines["temperature"])
        if "temperature" in vals:
            t_kelvin = vals.pop("temperature")
            # beta multiplies angular frequency, so it is hbar/(k_B T), seconds
            vals["beta"] = (math.inf if t_kelvin == 0
                            else HBAR_SI / (K_B_SI * t_kelvin))
    elif section == "grid":
        start = vals["t_start"]
        if vals["spacing"] == "log" and start <= 0:
            raise ConfigError("log spacing requires t_start > 0",
                              lines.get("t_start", lines.get("spacing")))
        if vals["t_count"] > 1 and vals["t_stop"] <= start:
            raise ConfigError("t_stop must exceed t_start", lines["t_stop"])
    elif section == "state" and vals["kind"] == "labels":
        # StateVector.normalized refuses the zero vector; repeated labels add
        amp: dict = {}
        for m, n, i, re_part, im_part in vals["amp"]:
            amp[m, n, i] = amp.get((m, n, i), 0) + complex(re_part, im_part)
        if not any(amp.values()):
            raise ConfigError("state kind 'labels' sums to the zero vector",
                              header)


def _parse_section(section: str, entries: dict, headers: dict,
                   config_dir: str, cutoff: Mapping | None) -> dict:
    """Pop and check one section's keys; returns its ``{key: value}``, with
    the defaults of the keys it accepts but does not give.

    A key's own value is checked as it is read; then come unknown keys,
    missing required keys (at the section header; the top level starts at
    line 1), and last the cross-key rules.
    """
    vals: dict = {}
    lines: dict = {}
    accepted = []
    for row in _ROWS[section]:
        if row.when is not None and vals.get(row.when[0]) != row.when[1]:
            continue
        accepted.append(row)
        if row.indexed:
            vals[row.key] = tuple(
                _convert(row, value, key, line, config_dir, cutoff)
                for _, key, value, line in _indexed_lines(entries, section,
                                                          row.key))
            continue
        raw, line = entries.pop((section, row.key), (None, None))
        if raw is not None:
            vals[row.key] = _convert(row, raw, row.key, line, config_dir,
                                     cutoff)
            lines[row.key] = line
        elif row.default is not None:
            vals[row.key] = row.default

    known = ", ".join(f"{row.key}_<k>" if row.indexed else row.key
                      for row in accepted)
    where = f"[{section}]" if section else "the top level"
    for (sec, key), (_, line) in entries.items():
        if sec == section:
            raise ConfigError(
                f"unknown key {key!r} in {where} (known: {known})", line)
    header = headers.get(section, 1)
    for row in accepted:
        if row.required and vals.get(row.key) in (None, ()):
            if row.indexed:
                raise ConfigError(f"[{section}] needs at least one "
                                  f"{row.key}_<k> line", header)
            raise ConfigError(f"{where} is missing required key "
                              f"{row.key!r}", header)
    _cross_key_rules(section, vals, lines, header)
    return vals


def load_config(path: str) -> RunConfig:
    """Parse and normalize a config file.

    Every problem is a ConfigError that names its line, except a file that
    cannot be read.  A section the scenario does not use is reported at its
    header, a missing section at the ``scenario =`` line, after the
    sections that are present have been read.  A density ``table`` is read
    and checked here, once: the run uses the density kept in the
    DensityTable of ``cfg["bath"]["table"]``.  The effective parameters are
    resolved here too, so a device map or an override set that fails is
    reported at the header of [device], or of [effective] without one; so
    is, with a [bath], a level-energy span over [cutoff] whose square is
    not finite.  An exact ``ratio`` must agree with the effective
    parameters the run will use (the rule of ``dfs_find``); both are
    reported at their key's line.
    """
    entries, headers = _tokenize(path)
    config_dir = os.path.dirname(os.path.abspath(path))
    at = entries.get(("", "scenario"), ("", 1))[1]
    ratio_at = entries.get(("spectrum", "ratio"), ("", None))[1]

    sections = {"": MappingProxyType(
        _parse_section("", entries, headers, config_dir, None))}
    name = sections[""]["scenario"]
    scenario = _SCENARIOS[name]
    for section, line in headers.items():
        if section not in scenario.sections:
            raise ConfigError(
                f"section [{section}] is not used by scenario {name!r}"
                + (f" (allowed: {', '.join(sorted(scenario.sections))})"
                   if scenario.sections else " (it takes no sections)"), line)

    # the top level "" is never a header, so it is not parsed twice
    for section in _SECTIONS:
        if section in headers:
            vals = _parse_section(section, entries, headers, config_dir,
                                  sections.get("cutoff"))
            if vals:
                sections[section] = MappingProxyType(vals)

    for alternatives in scenario.requires:
        if not any(section in headers for section in alternatives):
            raise ConfigError(
                f"scenario {name!r} requires section "
                + " or ".join(f"[{section}]" for section in alternatives), at)
    cfg = RunConfig(MappingProxyType(sections))
    if "effective" in headers and "device" not in headers:
        missing = [k for k in ("omega_a", "omega_a_prime", "chi")
                   if k not in cfg["effective"]]
        if missing:
            raise ConfigError("[effective] without [device] must supply "
                              + ", ".join(missing), headers["effective"])
    params = "device" if "device" in headers else "effective"
    if params in headers:
        # the effective parameters every run of this config uses
        try:
            eff = resolve_effective(cfg)
        except InvalidArgumentError as exc:
            raise ConfigError(f"[{params}]: {exc}", headers[params]) from None
        cut = FockCutoff(**cfg["cutoff"]) if cfg["bath"] else None
        # a cutoff over the dense cap is refused by the run before any
        # level is built, so no dim-sized vector is built for it here
        if cut is not None and cut.dim <= hilbert.DENSE_DIM_CAP:
            # evolve_reduced squares the levels and their gaps; the label
            # (0, n, 0) sits at 0, so none of them is larger than the span
            with np.errstate(all="ignore"):
                levels = energies_vector(eff, cut)
                span = float(levels.max() - levels.min())
            if not math.isfinite(span * span):
                raise ConfigError(
                    f"[{params}]: the level energies over [cutoff] span "
                    f"{span!r} rad/s, whose square is not finite",
                    headers[params])
    if "ratio" in cfg["spectrum"]:
        # the rule dfs_find holds the ratio to, on the parameters run uses
        try:
            _check_ratio(eff, cfg["spectrum"]["ratio"])
        except InvalidArgumentError as exc:
            raise ConfigError(f"ratio: {exc}", ratio_at) from None
    return cfg


# --------------------------------------------------------------- rendering

def _g17(x: float) -> str:
    return f"{x:.17g}"


def _format(kind: str, value) -> str:
    if kind in _KINDS:
        return f"{_g17(value)} {_BASE_SUFFIX[kind]}"
    if kind == "number":
        return _g17(value)
    if kind == "beta":
        return "inf" if math.isinf(value) else f"{_g17(value)} s"
    if kind == "amplitude":
        m, n, i, re_part, im_part = value
        return f"{m} {n} {i} : {_g17(re_part)} {_g17(im_part)}"
    if kind == "pair":
        (m, n, i), (m2, n2, i2) = value
        return f"{m} {n} {i} : {m2} {n2} {i2}"
    if kind == "path":
        return os.fspath(value)
    return str(value)


def render_config(cfg: RunConfig) -> str:
    """Echo a RunConfig as normalized config text; load_config inverts it."""
    lines = []
    for section in _SECTIONS:
        vals = cfg[section]
        if not vals:
            continue
        if section:
            lines.append(f"[{section}]")
        for row in _ROWS[section]:
            if row.key not in vals:
                continue
            if row.indexed:
                lines += [f"{row.key}_{k} = {_format(row.kind, item)}"
                          for k, item in enumerate(vals[row.key])]
            else:
                lines.append(f"{row.key} = {_format(row.kind, vals[row.key])}")
        lines.append("")
    return "\n".join(lines)


# ------------------------------------------------------------------ running

def run(cfg: RunConfig, out_dir: str, tol: float | None = None) -> dict:
    """Execute one scenario, writing report.json and config_echo.cfg.

    Returns the report tree.  Both files are written only after the
    scenario has computed its payload, so a run that raises leaves neither.
    The messages of the warnings raised on the way are kept, in order,
    under ``warnings``; a run that raises shows them on stderr instead.
    A ``tol`` override must be finite and > 0, whatever the scenario.
    """
    if tol is not None and not (math.isfinite(tol) and tol > 0):
        raise InvalidArgumentError(f"tol must be finite and > 0, got {tol}")
    os.makedirs(out_dir, exist_ok=True)
    try:
        with warnings.catch_warnings(record=True) as caught:
            # "always": a repeated run in one process records the same list
            warnings.simplefilter("always")
            payload = _SCENARIOS[cfg.scenario].runner(cfg, out_dir, tol)
    except Exception:
        # no report will list them, so show them as Python would have
        for w in caught:
            warnings.showwarning(w.message, w.category, w.filename, w.lineno)
        raise
    _write_text(os.path.join(out_dir, "config_echo.cfg"), render_config(cfg))

    report = {
        "scenario": cfg.scenario,
        "version": __version__,
        "provenance": {"config_echo": "config_echo.cfg"},
        "warnings": [str(w.message) for w in caught],
    }
    report.update(payload)
    _write_text(
        os.path.join(out_dir, "report.json"),
        json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n",
    )
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cqdeph",
        description="charge-qubit cross-Kerr dephasing toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, scenario in _SCENARIOS.items():
        p = sub.add_parser(name, help=scenario.blurb)
        p.add_argument("--config", required=True, help="path to the run config")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--tol", type=float, default=None,
                       help="tolerance override: quadrature rtol of a "
                            "tabulated bath (dephasing), "
                            "clustering tol (spectrum), tolerance scale "
                            "(validate)")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        if cfg.scenario != args.command:
            raise ConfigError(
                f"config declares scenario {cfg.scenario!r} but subcommand "
                f"{args.command!r} was invoked")
        report = run(cfg, args.out, tol=args.tol)
        for message in report["warnings"]:
            print(f"cqdeph: warning: {message}", file=sys.stderr)
        print(f"{args.command}: {_SCENARIOS[cfg.scenario].summary(report)}")
        print(f"report: {os.path.join(args.out, 'report.json')}")
        # only the validate report carries a verdict
        if not report.get("all_passed", True):
            bad = [c["name"] for c in report["checks"] if not c["passed"]]
            print(f"cqdeph: validation failed: {', '.join(bad)}",
                  file=sys.stderr)
            return 3
        return 0
    except (ConfigError, InvalidArgumentError) as exc:
        print(f"cqdeph: config error: {exc}", file=sys.stderr)
        return 1
    except (CapacityError, NumericsError) as exc:
        print(f"cqdeph: numeric error: {exc}", file=sys.stderr)
        return 2
    except CqdephError as exc:  # pragma: no cover - safety net
        print(f"cqdeph: error: {exc}", file=sys.stderr)
        return 2
