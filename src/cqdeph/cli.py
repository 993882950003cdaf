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

Every successful run writes ``report.json`` plus ``config_echo.cfg`` into
the output directory; the echo is normalized to base units and loads back
into the identical RunConfig, and the report lists the warnings the run
raised under ``warnings``.  Scenario payloads: ``device`` adds nothing
else, ``spectrum`` adds ``levels.csv``, ``dephasing`` adds
``trajectory.csv`` and ``observables.csv``.  CSV cells are printed with 17 significant digits so
repeated runs are byte-identical.

Exit codes: 0 success, 1 config or argument error, 2 capacity or numeric
error, 3 validation failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings
from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from . import __version__, hilbert, validation
from .bath import (
    DEFAULT_RTOL,
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
    cross_kerr,
    cross_phase,
    dressed_mode_frequency,
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
    ValidationFailure,
)
from .hilbert import FockCutoff, StateVector, TensorBasisLabel, coherent_state
from .spectrum import TRUNCATION_NOTE, dfs_find, levels

__all__ = ["RunConfig", "load_config", "render_config", "run", "main"]

SCENARIOS = ("device", "spectrum", "dephasing", "validate")

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

_SECTIONS_BY_SCENARIO = {
    "device": {"device", "effective"},
    "spectrum": {"device", "effective", "cutoff", "spectrum"},
    "dephasing": {"device", "effective", "cutoff", "bath", "grid", "state",
                  "pairs"},
    "validate": set(),
}


@dataclass(frozen=True)
class RunConfig:
    """A fully normalized run description; everything SI, everything frozen."""

    scenario: str
    device: DeviceParams | None = None
    tau: float | None = None
    eff_overrides: tuple[tuple[str, float], ...] = ()
    cutoff: FockCutoff | None = None
    bath_family: str | None = None
    bath_coupling: float | None = None
    bath_exponent: float = 1.0
    bath_omega_c: float | None = None
    bath_table: str | None = None
    beta: float = math.inf
    grid_start: float = 0.0
    grid_stop: float | None = None
    grid_count: int | None = None
    grid_spacing: str = "linear"
    state_kind: str | None = None
    state_labels: tuple[tuple[int, int, int, float, float], ...] = ()
    state_mode: str | None = None
    state_alpha: complex = 0j
    state_qubit: int = 0
    pairs: tuple[tuple[tuple[int, int, int], tuple[int, int, int]], ...] = ()
    ratio: Fraction | None = None
    cluster_tol: float | None = None


# ---------------------------------------------------------------- key table

@dataclass(frozen=True)
class _Key:
    """One config key: where it lives, how its value reads, what it fills.

    ``kind`` is a unit kind of _KINDS, or number (dimensionless), integer,
    word (one of ``choices``), rational, path, beta (a time or ``inf``),
    amplitude (``m n i : re im``) or pair (``m n i : m n i``).  Amplitude
    and pair keys are indexed: the file spells them ``amp_0``, ``amp_1``, ...
    ``field`` is the RunConfig field filled; ``group.attr`` fills one part of
    a compound field (see _COMPOUND), and None marks a key that only a
    cross-key rule reads.  ``when = (key, value)`` accepts the key only when
    that other key of the section holds that value.
    """

    section: str
    key: str
    kind: str
    field: str | None
    required: bool = False
    choices: tuple[str, ...] = ()
    when: tuple[str, str] | None = None

    @property
    def indexed(self) -> bool:
        return self.kind in ("amplitude", "pair")


_OHMIC = ("family", "ohmic")
_TABULATED = ("family", "tabulated")
_LABELS = ("kind", "labels")
_COHERENT = ("kind", "coherent")

# sections are parsed and echoed in this order, keys within a section too
_SCHEMA = (
    _Key("", "scenario", "word", "scenario", True, SCENARIOS),
    _Key("device", "E_C", "energy", "device.E_C", True),
    _Key("device", "E_J_max", "energy", "device.E_J_max", True),
    _Key("device", "omega_a", "frequency", "device.omega_a", True),
    _Key("device", "omega_b", "frequency", "device.omega_b", True),
    _Key("device", "L_a", "length", "device.L_a", True),
    _Key("device", "L_b", "length", "device.L_b", True),
    _Key("device", "c_cap", "capacitance_per_length", "device.c_cap", True),
    _Key("device", "l_ind", "inductance_per_length", "device.l_ind", True),
    _Key("device", "C_g", "capacitance", "device.C_g", True),
    _Key("device", "C_a", "capacitance", "device.C_a", True),
    _Key("device", "V_g_dc", "voltage", "device.V_g_dc", True),
    _Key("device", "S_loop", "area", "device.S_loop", True),
    _Key("device", "d_dist", "length", "device.d_dist", True),
    _Key("device", "Phi_e", "flux", "device.Phi_e"),
    _Key("device", "tau", "time", "tau"),
    # alphabetical, the order in which eff_overrides is stored and echoed
    _Key("effective", "chi", "frequency", "eff_overrides.chi"),
    _Key("effective", "g_a", "frequency", "eff_overrides.g_a"),
    _Key("effective", "n_g_dc", "number", "eff_overrides.n_g_dc"),
    _Key("effective", "omega_a", "frequency", "eff_overrides.omega_a"),
    _Key("effective", "omega_a_prime", "frequency", "eff_overrides.omega_a_prime"),
    _Key("effective", "phi_b", "number", "eff_overrides.phi_b"),
    _Key("effective", "phi_e", "number", "eff_overrides.phi_e"),
    _Key("cutoff", "n_max_a", "integer", "cutoff.n_max_a", True),
    _Key("cutoff", "n_max_b", "integer", "cutoff.n_max_b", True),
    _Key("bath", "family", "word", "bath_family", True, ("ohmic", "tabulated")),
    _Key("bath", "coupling", "number", "bath_coupling", when=_OHMIC),
    _Key("bath", "exponent", "number", "bath_exponent", when=_OHMIC),
    _Key("bath", "omega_c", "frequency", "bath_omega_c", when=_OHMIC),
    _Key("bath", "table", "path", "bath_table", when=_TABULATED),
    _Key("bath", "beta", "beta", "beta"),
    _Key("bath", "temperature", "temperature", None),
    _Key("grid", "t_start", "time", "grid_start"),
    _Key("grid", "t_stop", "time", "grid_stop", True),
    _Key("grid", "t_count", "integer", "grid_count", True),
    _Key("grid", "spacing", "word", "grid_spacing", choices=("linear", "log")),
    _Key("state", "kind", "word", "state_kind", True, ("labels", "coherent")),
    _Key("state", "amp", "amplitude", "state_labels", when=_LABELS),
    _Key("state", "mode", "word", "state_mode", choices=("A", "B"), when=_COHERENT),
    _Key("state", "alpha_re", "number", "state_alpha.real", when=_COHERENT),
    _Key("state", "alpha_im", "number", "state_alpha.imag", when=_COHERENT),
    _Key("state", "qubit_level", "integer", "state_qubit", when=_COHERENT),
    _Key("pairs", "pair", "pair", "pairs"),
    _Key("spectrum", "ratio", "rational", "ratio"),
    _Key("spectrum", "tol", "number", "cluster_tol"),
)

_SECTIONS = tuple(dict.fromkeys(row.section for row in _SCHEMA))
_ROWS = {s: tuple(row for row in _SCHEMA if row.section == s) for s in _SECTIONS}
_ROW = {(row.section, row.key): row for row in _SCHEMA}

# compound fields: (build from {attr: value}, read one attr back)
_COMPOUND = {
    "device": (lambda parts: DeviceParams(**parts), getattr),
    "cutoff": (lambda parts: FockCutoff(**parts), getattr),
    "eff_overrides": (lambda parts: tuple(sorted(parts.items())),
                      lambda overrides, key: dict(overrides).get(key)),
    "state_alpha": (lambda parts: complex(parts.get("real", 0.0),
                                          parts.get("imag", 0.0)), getattr),
}


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


def _word(raw: str, key: str, line: int, allowed: tuple[str, ...]) -> str:
    if raw not in allowed:
        raise ConfigError(
            f"{key}: expected one of {', '.join(allowed)}, got {raw!r}", line)
    return raw


def _label_triplet(raw: str, key: str, line: int) -> tuple[int, int, int]:
    parts = raw.split()
    if len(parts) != 3:
        raise ConfigError(f"{key}: expected 'm n i', got {raw!r}", line)
    m, n, i = (_integer(p, key, line) for p in parts)
    if m < 0 or n < 0 or i not in (0, 1):
        raise ConfigError(f"{key}: label out of range: {raw!r}", line)
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


def _convert(row: _Key, raw: str, key: str, line: int, config_dir: str):
    """Read one value of ``row``; ``key`` is the key as spelled (``amp_3``)."""
    kind = row.kind
    if kind in _KINDS:
        return _dimensional(raw, kind, key, line)
    if kind == "number":
        return _dimensionless(raw, key, line)
    if kind == "integer":
        return _integer(raw, key, line)
    if kind == "word":
        return _word(raw, key, line, row.choices)
    if kind == "beta":
        return math.inf if raw == "inf" else _dimensional(raw, "time", key, line)
    if kind == "rational":
        try:
            return Fraction(raw)
        except (ValueError, ZeroDivisionError):
            raise ConfigError(
                f"{key}: not a rational number: {raw!r}", line) from None
    if kind == "path":
        path = os.path.abspath(os.path.join(config_dir, raw))
        if not os.path.isfile(path):
            raise ConfigError(f"{key}: no such file: {path}", line)
        return path
    shape = "m n i : re im" if kind == "amplitude" else "m n i : m n i"
    if ":" not in raw:
        raise ConfigError(f"{key}: expected '{shape}', got {raw!r}", line)
    left, right = raw.split(":", 1)
    label = _label_triplet(left.strip(), key, line)
    if kind == "pair":
        return label, _label_triplet(right.strip(), key, line)
    parts = right.split()
    if len(parts) != 2:
        raise ConfigError(
            f"{key}: expected two amplitude components, got {raw!r}", line)
    return (*label, _number(parts[0], key, line), _number(parts[1], key, line))


# lower bounds of single keys; the model enforces them too, but only the
# parser knows the line
_LOWER_BOUNDS = {
    "bath": (("beta", ">"), ("coupling", ">="), ("exponent", ">"),
             ("omega_c", ">"), ("temperature", ">=")),
    "grid": (("t_start", ">="),),
    "spectrum": (("tol", ">"),),
}


def _cross_key_rules(section: str, vals: dict, lines: dict, header) -> None:
    """Value bounds, and the checks that one row of the key table cannot
    express."""
    if section == "bath" and "beta" in vals and "temperature" in vals:
        raise ConfigError("give either 'beta' or 'temperature', not both",
                          lines["temperature"])
    for key, op in _LOWER_BOUNDS.get(section, ()):
        value = vals.get(key, 1.0)
        if not (value > 0 if op == ">" else value >= 0):
            raise ConfigError(f"{key} must be {op} 0, got {value}", lines[key])
    if section == "bath":
        if "temperature" in vals:
            t_kelvin = vals["temperature"]
            # beta multiplies angular frequency, so it is hbar/(k_B T), seconds
            vals["beta"] = (math.inf if t_kelvin == 0
                            else HBAR_SI / (K_B_SI * t_kelvin))
        family = vals["family"]
        for key in ("coupling", "omega_c") if family == "ohmic" else ("table",):
            if key not in vals:
                raise ConfigError(f"{family} bath requires key {key!r}", header)
    elif section == "grid":
        if vals["t_count"] < 1:
            raise ConfigError("t_count must be >= 1", header)
    elif section == "state":
        if vals["kind"] == "labels":
            if not vals["amp"]:
                raise ConfigError(
                    "state kind 'labels' needs at least one amp_<k> line",
                    header)
        elif "mode" not in vals:
            raise ConfigError("coherent state requires key 'mode'", header)
        elif vals.get("qubit_level", 0) not in (0, 1):
            raise ConfigError(
                f"qubit_level must be 0 or 1, got {vals['qubit_level']}",
                lines["qubit_level"])
    elif section == "pairs":
        if not vals["pair"]:
            raise ConfigError("[pairs] needs at least one pair_<k> line",
                              header)


def _parse_section(section: str, entries: dict, headers: dict,
                   config_dir: str) -> dict:
    """Pop and check one section's keys; returns the RunConfig fields."""
    header = headers.get(section)
    vals: dict = {}
    lines: dict = {}
    accepted = []
    for row in _ROWS[section]:
        if row.when is not None and vals.get(row.when[0]) != row.when[1]:
            continue
        accepted.append(row)
        if row.indexed:
            vals[row.key] = tuple(
                _convert(row, value, key, line, config_dir)
                for _, key, value, line in _indexed_lines(entries, section,
                                                          row.key))
            continue
        raw, line = entries.pop((section, row.key), (None, None))
        if raw is None:
            if row.required:
                where = f"[{section}] is " if section else ""
                raise ConfigError(f"{where}missing required key {row.key!r}",
                                  header)
            continue
        vals[row.key] = _convert(row, raw, row.key, line, config_dir)
        lines[row.key] = line

    known = ", ".join(f"{row.key}_<k>" if row.indexed else row.key
                      for row in accepted)
    for (sec, key), (_, line) in entries.items():
        if sec == section:
            raise ConfigError(
                f"unknown key {key!r} in [{section}] (known: {known})", line)
    _cross_key_rules(section, vals, lines, header)

    fields: dict = {}
    parts: dict = {}
    for row in accepted:
        if row.field is None or row.key not in vals:
            continue
        name, _, attr = row.field.partition(".")
        if attr:
            parts.setdefault(name, {})[attr] = vals[row.key]
        else:
            fields[name] = vals[row.key]
    for name, attrs in parts.items():
        fields[name] = _COMPOUND[name][0](attrs)
    return fields


def load_config(path: str) -> RunConfig:
    """Parse and normalize a config file; every problem is a ConfigError."""
    entries, headers = _tokenize(path)
    config_dir = os.path.dirname(os.path.abspath(path))

    fields = _parse_section("", entries, headers, config_dir)
    scenario = fields["scenario"]
    allowed = _SECTIONS_BY_SCENARIO[scenario]
    for section, line in headers.items():
        if section not in allowed:
            raise ConfigError(
                f"section [{section}] is not used by scenario {scenario!r}"
                + (f" (allowed: {', '.join(sorted(allowed))})" if allowed
                   else " (it takes no sections)"), line)

    # the top level "" is never a header, so it is not parsed twice
    for section in _SECTIONS:
        if section in headers:
            fields.update(_parse_section(section, entries, headers, config_dir))

    cfg = RunConfig(**fields)
    _require_scenario_inputs(cfg)
    return cfg


def _require_scenario_inputs(cfg: RunConfig) -> None:
    need = {
        "device": ("device",),
        "spectrum": ("cutoff",),
        "dephasing": ("cutoff", "bath_family", "grid_count", "state_kind"),
        "validate": (),
    }[cfg.scenario]
    missing_sections = {
        "device": "[device]", "cutoff": "[cutoff]", "bath_family": "[bath]",
        "grid_count": "[grid]", "state_kind": "[state]",
    }
    for attr in need:
        if getattr(cfg, attr) is None:
            raise ConfigError(
                f"scenario {cfg.scenario!r} requires section "
                f"{missing_sections[attr]}")
    if cfg.scenario in ("spectrum", "dephasing") and cfg.device is None:
        over = dict(cfg.eff_overrides)
        missing = [k for k in ("omega_a", "omega_a_prime", "chi")
                   if k not in over]
        if missing:
            raise ConfigError(
                "[effective] without [device] must supply "
                + ", ".join(missing))
    if cfg.grid_count is not None:
        if cfg.grid_spacing == "log" and cfg.grid_start <= 0:
            raise ConfigError("log spacing requires t_start > 0")
        if cfg.grid_stop is not None and cfg.grid_count > 1 \
                and cfg.grid_stop <= cfg.grid_start:
            raise ConfigError("t_stop must exceed t_start")


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
    return str(value)


def _read(cfg: RunConfig, row: _Key):
    """The value ``row`` filled in ``cfg``, or None."""
    if row.field is None:
        return None
    name, _, attr = row.field.partition(".")
    value = getattr(cfg, name)
    if attr and value is not None:
        value = _COMPOUND[name][1](value, attr)
    return value


def render_config(cfg: RunConfig) -> str:
    """Echo a RunConfig as normalized config text; load_config inverts it."""
    lines = []
    for section in _SECTIONS:
        rows = _ROWS[section]
        anchors = [row for row in rows if row.required] or rows
        if all(_read(cfg, row) in (None, ()) for row in anchors):
            continue
        if section:
            lines.append(f"[{section}]")
        for row in rows:
            if row.when is not None and \
                    _read(cfg, _ROW[section, row.when[0]]) != row.when[1]:
                continue
            value = _read(cfg, row)
            if value is None:
                continue
            if row.indexed:
                lines += [f"{row.key}_{k} = {_format(row.kind, item)}"
                          for k, item in enumerate(value)]
            else:
                lines.append(f"{row.key} = {_format(row.kind, value)}")
        lines.append("")
    return "\n".join(lines)


# --------------------------------------------------------------- execution

def resolve_effective(cfg: RunConfig) -> EffectiveParams:
    """Device map plus overrides, or pure effective parameters.

    Overriding g_a, phi_b, or omega_a with a device present recomputes
    omega_a_prime and chi unless those are overridden too.
    """
    over = dict(cfg.eff_overrides)
    if cfg.device is not None:
        base = effective_couplings(cfg.device)
        vals = asdict(base)
        vals.update(over)
        if {"g_a", "phi_b", "omega_a"} & over.keys():
            if "chi" not in over:
                vals["chi"] = cross_kerr(vals["g_a"], vals["phi_b"],
                                         cfg.device.E_J_max, vals["omega_a"],
                                         cfg.device.hbar)
            if "omega_a_prime" not in over:
                vals["omega_a_prime"] = dressed_mode_frequency(
                    vals["g_a"], vals["phi_b"], cfg.device.E_J_max,
                    vals["omega_a"], cfg.device.hbar)
        return EffectiveParams(**vals)
    vals = {"g_a": 0.0, "phi_b": 0.0, "phi_e": 0.0, "n_g_dc": 0.5}
    vals.update(over)
    return EffectiveParams(**vals)


def _time_grid(cfg: RunConfig) -> np.ndarray:
    if cfg.grid_spacing == "log":
        return np.geomspace(cfg.grid_start, cfg.grid_stop, cfg.grid_count)
    return np.linspace(cfg.grid_start, cfg.grid_stop, cfg.grid_count)


def _bath_model(cfg: RunConfig):
    if cfg.bath_family == "ohmic":
        return OhmicSpectralDensity(coupling=cfg.bath_coupling,
                                    exponent=cfg.bath_exponent,
                                    omega_c=cfg.bath_omega_c)
    table = np.loadtxt(cfg.bath_table, ndmin=2)
    if table.shape[1] != 2:
        raise ConfigError(
            f"bath table {cfg.bath_table} must have two columns "
            "(omega rad/s, density rad/s)")
    return TabulatedSpectralDensity(table[:, 0], table[:, 1])


def _initial_state(cfg: RunConfig) -> StateVector:
    cut = cfg.cutoff
    if cfg.state_kind == "coherent":
        return coherent_state(cfg.state_mode, cfg.state_alpha, cut,
                              cfg.state_qubit)
    amp = np.zeros(cut.dim, dtype=complex)
    for m, n, i, re_part, im_part in cfg.state_labels:
        lab = TensorBasisLabel(m, n, i)
        amp[lab.flat_index(cut)] += complex(re_part, im_part)
    try:
        return StateVector.normalized(amp, cut)
    except InvalidArgumentError as exc:
        raise ConfigError(f"initial state is not normalizable: {exc}") from exc


def _json_float(x: float):
    return float(x) if math.isfinite(x) else None


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(text)


def _write_csv(path: str, header: list[str], columns: list) -> None:
    # integer columns as plain ints, every other column as %.17g floats
    cells = []
    for col in columns:
        arr = np.asarray(col)
        values = arr.tolist()
        cells.append([str(v) for v in values] if arr.dtype.kind in "iu"
                     else [f"{v:.17g}" for v in values])
    lines = [",".join(header)] + [",".join(row) for row in zip(*cells)]
    _write_text(path, "\n".join(lines) + "\n")


def _run_device(cfg: RunConfig, out_dir: str) -> dict:
    eff = resolve_effective(cfg)
    rep = regime_report(cfg.device, eff)
    payload = {
        "effective": asdict(eff),
        "regime": {
            "phi_b": rep.phi_b,
            "phi_b_flag": rep.phi_b_flag,
            "thresholds": rep.thresholds,
            "worst_flag": rep.worst_flag(),
            "rows": [
                {
                    "n_b": r.n_b,
                    "omega_q": r.omega_q,
                    "detuning": r.detuning,
                    "g_over_delta": _json_float(r.g_over_delta),
                    "rwa_ratio": _json_float(r.rwa_ratio),
                    "dispersive_flag": r.dispersive_flag,
                    "rwa_flag": r.rwa_flag,
                }
                for r in rep.rows
            ],
        },
    }
    if cfg.tau is not None:
        ph = cross_phase(eff.chi, cfg.tau)
        payload["cross_phase"] = {
            "chi_rad_per_s": eff.chi,
            "tau_s": cfg.tau,
            "radians": ph.radians,
            "cycles": ph.cycles,
        }
    return payload


def _run_spectrum(cfg: RunConfig, out_dir: str, tol) -> dict:
    eff = resolve_effective(cfg)
    cluster_tol = tol if tol is not None else cfg.cluster_tol
    res = dfs_find(eff, cfg.cutoff, cluster_tol, ratio=cfg.ratio)

    table = levels(eff, cfg.cutoff)
    _write_csv(
        os.path.join(out_dir, "levels.csv"),
        ["flat_index", "m", "n", "i", "energy"],
        [
            [lv.label.flat_index(cfg.cutoff) for lv in table],
            [lv.label.m for lv in table],
            [lv.label.n for lv in table],
            [lv.label.i for lv in table],
            [lv.energy for lv in table],
        ],
    )
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
    # refuse before materializing a dim x dim density matrix
    hilbert.check_dense_dim(cfg.cutoff)
    rho0 = _initial_state(cfg).density()
    model = _bath_model(cfg)
    state = BathState(beta=cfg.beta)
    grid = _time_grid(cfg)
    rtol = tol if tol is not None else DEFAULT_RTOL
    pairs = [
        (TensorBasisLabel(*hi), TensorBasisLabel(*lo))
        for hi, lo in cfg.pairs
    ] or None
    traj = evolve_reduced(rho0, eff, model, state, grid, rtol=rtol,
                          pairs=pairs)

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
    _write_csv(os.path.join(out_dir, "trajectory.csv"), header, columns)

    coherence = observables(traj, "qubit_coherence")
    _write_csv(
        os.path.join(out_dir, "observables.csv"),
        ["t", "purity", "qubit_coherence_re", "qubit_coherence_im",
         "fidelity_to_initial"],
        [traj.t_grid, observables(traj, "purity"), coherence.real,
         coherence.imag, observables(traj, "fidelity_to_initial")],
    )
    return {
        "pairs": legend,
        "grid": {
            "t_start": cfg.grid_start,
            "t_stop": cfg.grid_stop,
            "count": cfg.grid_count,
            "spacing": cfg.grid_spacing,
        },
        "bath": {
            "family": cfg.bath_family,
            "coupling": cfg.bath_coupling,
            "exponent": (cfg.bath_exponent
                         if cfg.bath_family == "ohmic" else None),
            "omega_c": cfg.bath_omega_c,
            "table": cfg.bath_table,
            "beta": _json_float(cfg.beta),
            "zero_temperature": math.isinf(cfg.beta),
        },
        "quadrature_rtol": rtol,
        "tables": {"trajectory": "trajectory.csv",
                   "observables": "observables.csv"},
    }


def _run_validate(cfg: RunConfig, out_dir: str, tol) -> tuple[dict, list]:
    results = validation.run_all(tol_scale=tol if tol is not None else 1.0)
    payload = {
        "checks": [
            {
                "name": r.name,
                "residual": _json_float(r.residual),
                "tolerance": r.tolerance,
                "passed": r.passed,
                "detail": r.detail,
            }
            for r in results
        ],
        "passed_count": sum(r.passed for r in results),
        "check_count": len(results),
        "all_passed": all(r.passed for r in results),
    }
    return payload, results


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
            if cfg.scenario == "device":
                payload = _run_device(cfg, out_dir)
            elif cfg.scenario == "spectrum":
                payload = _run_spectrum(cfg, out_dir, tol)
            elif cfg.scenario == "dephasing":
                payload = _run_dephasing(cfg, out_dir, tol)
            else:
                payload, _ = _run_validate(cfg, out_dir, tol)
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


def _summary_line(report: dict) -> str:
    scenario = report["scenario"]
    if scenario == "device":
        parts = [f"regime worst flag: {report['regime']['worst_flag']}"]
        if "cross_phase" in report:
            parts.append(f"cross-phase {report['cross_phase']['cycles']:.4f} cycles")
        return "; ".join(parts)
    if scenario == "spectrum":
        return (f"{report['class_count']} degeneracy classes, "
                f"{report['protected_class_count']} protected")
    if scenario == "dephasing":
        return (f"{len(report['pairs'])} tracked pairs over "
                f"{report['grid']['count']} grid points")
    return f"{report['passed_count']}/{report['check_count']} checks passed"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cqdeph",
        description="charge-qubit cross-Kerr dephasing toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, blurb in (
        ("device", "effective couplings and regime diagnostics"),
        ("spectrum", "level table and degeneracy classes"),
        ("dephasing", "reduced-density-matrix trajectories"),
        ("validate", "run the cross-module invariant suite"),
    ):
        p = sub.add_parser(name, help=blurb)
        p.add_argument("--config", required=True, help="path to the run config")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--tol", type=float, default=None,
                       help="tolerance override: quadrature rtol (dephasing), "
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
        print(f"{args.command}: {_summary_line(report)}")
        print(f"report: {os.path.join(args.out, 'report.json')}")
        if cfg.scenario == "validate" and not report["all_passed"]:
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
    except ValidationFailure as exc:
        print(f"cqdeph: validation failure: {exc}", file=sys.stderr)
        return 3
    except CqdephError as exc:  # pragma: no cover - safety net
        print(f"cqdeph: error: {exc}", file=sys.stderr)
        return 2
