"""Config parsing, echo roundtrip, scenario runs, exit codes."""

import glob
import json
import math
import os
import re
import subprocess
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest

from cqdeph import cli
from cqdeph.cli import (
    load_config,
    main,
    render_config,
    resolve_effective,
    run,
)
from cqdeph.device import HBAR_SI, K_B_SI
from cqdeph.errors import ConfigError, InvalidArgumentError
from cqdeph.hilbert import FockCutoff

DEVICE_BODY = """
scenario = device

[device]
E_C = 5 GHz_cyc
E_J_max = 10 GHz_cyc
omega_a = 6 GHz_cyc
omega_b = 6.5 GHz_cyc
L_a = 12 mm
L_b = 11 mm
c_cap = 170 pF_per_m
l_ind = 420 nH_per_m
C_g = 0.6 fF
C_a = 1.2 fF
V_g_dc = 0.267029439 mV
S_loop = 60 um2
d_dist = 2 um
tau = 160 ns

[effective]
chi = 360 MHz_rad
"""

SPECTRUM_BODY = """
scenario = spectrum

[effective]
omega_a = 1 Hz_rad
omega_a_prime = 0.9 Hz_rad
chi = 0.3 Hz_rad

[cutoff]
n_max_a = 2
n_max_b = 4

[spectrum]
ratio = 3
"""

DEPHASING_BODY = """
scenario = dephasing

[effective]
omega_a = 1 Hz_rad
omega_a_prime = 0.9 Hz_rad
chi = 0.3 Hz_rad

[cutoff]
n_max_a = 1
n_max_b = 3

[bath]
family = ohmic
coupling = 0.1
omega_c = 1 Hz_rad
beta = inf

[grid]
t_start = 0 s
t_stop = 20 s
t_count = 6
spacing = linear

[state]
kind = labels
amp_0 = 0 0 0 : 0.7071067811865476 0
amp_1 = 0 1 0 : 0 0.7071067811865476

[pairs]
pair_0 = 0 1 0 : 0 0 0
"""

# the truncation tail of alpha = 1.5 at n_max_a = 1 raises a warning
COHERENT_BODY = DEPHASING_BODY.replace(
    "kind = labels\namp_0 = 0 0 0 : 0.7071067811865476 0\n"
    "amp_1 = 0 1 0 : 0 0.7071067811865476\n",
    "kind = coherent\nmode = A\nalpha_re = 1.5\n")

SHIPPED_DEPHASING = os.path.join(os.path.dirname(__file__), os.pardir,
                                 "configs", "dephasing_dfs.cfg")
SHIPPED_CONFIGS = sorted(glob.glob(os.path.join(
    os.path.dirname(__file__), os.pardir, "configs", "*.cfg")))


def _write(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def _cli(args, cwd=None):
    return subprocess.run([sys.executable, "-m", "cqdeph", *args],
                          capture_output=True, text=True, cwd=cwd)


# ------------------------------------------------------------------ parsing

def test_unit_conversions(tmp_path):
    cfg = load_config(_write(tmp_path, DEVICE_BODY))
    device = cfg["device"]
    assert cfg["effective"]["chi"] == pytest.approx(3.6e8)
    assert device["tau"] == pytest.approx(1.6e-7)
    assert device["omega_a"] == pytest.approx(2 * math.pi * 6e9)
    # energies are entered as frequencies and converted through hbar
    assert device["E_C"] == pytest.approx(HBAR_SI * 2 * math.pi * 5e9)
    assert device["L_a"] == pytest.approx(0.012)
    assert device["C_g"] == pytest.approx(0.6e-15)


def test_empty_file_names_scenario(tmp_path):
    with pytest.raises(ConfigError, match="scenario"):
        load_config(_write(tmp_path, "\n"))


def test_missing_suffix_reports_key_and_line(tmp_path):
    body = "scenario = spectrum\n\n[effective]\nomega_a = 1\n"
    with pytest.raises(ConfigError, match=r"line 4: omega_a.*suffix"):
        load_config(_write(tmp_path, body))


def test_unknown_suffix_rejected(tmp_path):
    body = "scenario = spectrum\n\n[effective]\nomega_a = 1 THz_rad\n"
    with pytest.raises(ConfigError, match="THz_rad"):
        load_config(_write(tmp_path, body))


def test_unknown_key_reports_line(tmp_path):
    body = "scenario = spectrum\n[effective]\nomega_a = 1 Hz_rad\nzeta = 2\n"
    with pytest.raises(ConfigError, match=r"line 4: unknown key 'zeta'"):
        load_config(_write(tmp_path, body))


def test_unknown_section_rejected(tmp_path):
    body = "scenario = device\n[device]\n[plotting]\nstyle = fancy\n"
    with pytest.raises(ConfigError, match=r"\[plotting\]"):
        load_config(_write(tmp_path, body))


def test_section_not_allowed_for_scenario(tmp_path):
    body = "scenario = validate\n[cutoff]\nn_max_a = 2\nn_max_b = 2\n"
    with pytest.raises(ConfigError, match="validate"):
        load_config(_write(tmp_path, body))


def test_duplicate_key_rejected(tmp_path):
    body = ("scenario = spectrum\n[effective]\nomega_a = 1 Hz_rad\n"
            "omega_a = 2 Hz_rad\n")
    with pytest.raises(ConfigError, match="duplicate key"):
        load_config(_write(tmp_path, body))


def test_missing_required_device_key(tmp_path):
    body = "scenario = device\n\n[device]\nE_C = 5 GHz_cyc\n"
    with pytest.raises(ConfigError, match="E_J_max"):
        load_config(_write(tmp_path, body))


def test_bad_number_rejected(tmp_path):
    body = "scenario = spectrum\n[cutoff]\nn_max_a = two\nn_max_b = 2\n"
    with pytest.raises(ConfigError, match="not an integer"):
        load_config(_write(tmp_path, body))


def test_effective_without_device_needs_rates(tmp_path):
    body = ("scenario = spectrum\n[effective]\nomega_a = 1 Hz_rad\n"
            "[cutoff]\nn_max_a = 2\nn_max_b = 2\n")
    with pytest.raises(ConfigError, match="omega_a_prime"):
        load_config(_write(tmp_path, body))


def test_beta_and_temperature_conflict(tmp_path):
    body = (DEPHASING_BODY.replace("beta = inf",
                                   "beta = 2 s\ntemperature = 20 mK"))
    with pytest.raises(ConfigError, match="not both"):
        load_config(_write(tmp_path, body))


def test_temperature_converts_to_beta(tmp_path):
    body = DEPHASING_BODY.replace("beta = inf", "temperature = 20 mK")
    cfg = load_config(_write(tmp_path, body))
    assert cfg["bath"]["beta"] == pytest.approx(HBAR_SI / (K_B_SI * 0.020))


def test_comments_and_blank_lines_ignored(tmp_path):
    body = "# top\nscenario = validate  # trailing\n\n# done\n"
    assert load_config(_write(tmp_path, body)).scenario == "validate"


@pytest.mark.parametrize("key, bad", [
    ("beta", "-2 s"), ("t_start", "-1 s"), ("coupling", "-0.1"),
    ("exponent", "0"), ("omega_c", "0 Hz_rad"),
])
def test_model_bounds_rejected_at_their_line(tmp_path, key, bad):
    with open(SHIPPED_DEPHASING, encoding="utf-8") as f:
        lines = f.read().splitlines()
    at = next(k for k, line in enumerate(lines) if line.startswith(key + " "))
    lines[at] = f"{key} = {bad}"
    with pytest.raises(ConfigError, match=f"{key} must be") as err:
        load_config(_write(tmp_path, "\n".join(lines) + "\n"))
    assert err.value.line == at + 1


@pytest.mark.parametrize("key, bad", [
    ("amp_0", "0 0 0 : nan 0"), ("chi", "nan Hz_rad"), ("coupling", "inf"),
    ("t_stop", "inf s"), ("t_stop", "nan s"), ("omega_a", "inf Hz_rad"),
])
def test_non_finite_numbers_rejected_at_their_line(tmp_path, capsys, key,
                                                   bad):
    with open(SHIPPED_DEPHASING, encoding="utf-8") as f:
        lines = f.read().splitlines()
    at = next(k for k, line in enumerate(lines) if line.startswith(key + " "))
    lines[at] = f"{key} = {bad}"
    cfg = _write(tmp_path, "\n".join(lines) + "\n")
    code = main(["dephasing", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 1
    assert f"line {at + 1}: {key}: not a finite number" in capsys.readouterr().err
    assert not (tmp_path / "o" / "report.json").exists()


def test_exponent_whose_gamma_overflows_rejected_at_its_line(tmp_path, capsys):
    # Gamma(300) of the ohmic closed forms is beyond the floats: the key
    # table bounds the exponent at bath.EXPONENT_MAX, so no run starts
    with open(SHIPPED_DEPHASING, encoding="utf-8") as f:
        lines = f.read().splitlines()
    at = next(k for k, line in enumerate(lines) if line.startswith("exponent "))
    lines[at] = "exponent = 300"
    cfg = _write(tmp_path, "\n".join(lines) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["dephasing", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 1
    assert f"line {at + 1}: exponent must be <= 100, got 300" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


SHIPPED_DEVICE = os.path.join(os.path.dirname(SHIPPED_DEPHASING), "device_headline.cfg")


@pytest.mark.parametrize("key, value, error", [
    ("omega_a", "1e-308 GHz_cyc", "ZeroDivisionError"),
    ("E_C", "1e300 GHz_cyc", "OverflowError"),
])
def test_device_map_arithmetic_failure_is_a_config_error(tmp_path, key, value, error):
    # omega_a^2 underflows to 0 in cross_kerr, and g_a^2 overflows: both
    # ended in a traceback; the map is resolved at load time, so the
    # message names the [device] header and no file is written
    with open(SHIPPED_DEVICE, encoding="utf-8") as f:
        lines = f.read().splitlines()
    at = next(k for k, line in enumerate(lines) if line.startswith(f"{key} "))
    header = lines.index("[device]") + 1
    lines[at] = f"{key} = {value}"
    cfg = _write(tmp_path, "\n".join(lines) + "\n")
    res = _cli(["device", "--config", cfg, "--out", str(tmp_path / "o")])
    assert res.returncode == 1
    assert res.stderr.startswith(f"cqdeph: config error: line {header}: [device]: "
                                 f"the device map fails in float arithmetic ({error}")
    assert "Traceback" not in res.stderr
    assert not (tmp_path / "o").exists()


def test_non_finite_dephasing_output_is_a_numerics_error(tmp_path, capsys):
    # the squared levels and t_stop times their span are finite, but q1(t)
    # times the squares is not by t = 1e299 s: the tables held NaN and inf,
    # and report.json ended in a ValueError traceback after config_echo.cfg
    # and both CSVs were written
    with open(SHIPPED_DEPHASING, encoding="utf-8") as f:
        text = f.read()
    text = re.sub(r"(?m)^omega_a_prime = .*$", "omega_a_prime = 1e7 Hz_rad", text)
    text = re.sub(r"(?m)^exponent = .*$", "exponent = 0.01", text)
    text = re.sub(r"(?m)^t_stop = .*$", "t_stop = 1e299 s", text)
    cfg = _write(tmp_path, text)
    # a failed run shows the warnings it raised on the way
    with pytest.warns(RuntimeWarning):
        code = main(["dephasing", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 2
    assert capsys.readouterr().err.endswith(
        "cqdeph: numeric error: trajectory.csv column abs_p1 is not finite, "
        "first at t = 4e+297; no output file was written\n")
    assert os.listdir(tmp_path / "o") == []


def test_free_phase_past_the_float_range_is_a_config_error(tmp_path, capsys):
    # the squared levels are finite, but t_stop times their span is not:
    # the free phase overflowed in the element law, which printed numpy
    # RuntimeWarnings before the writer guard refused the tables
    with open(SHIPPED_DEPHASING, encoding="utf-8") as f:
        text = f.read()
    text = re.sub(r"(?m)^omega_a_prime = .*$", "omega_a_prime = 1e150 Hz_rad", text)
    text = re.sub(r"(?m)^t_stop = .*$", "t_stop = 1e300 s", text)
    line = text.splitlines().index("t_stop = 1e300 s") + 1
    cfg = _write(tmp_path, text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["dephasing", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 1
    assert capsys.readouterr().err == (
        f"cqdeph: config error: line {line}: t_stop: 1e+300 s times the "
        "level-energy span 4.999999999999999e+150 rad/s over [cutoff] is not "
        "finite\n")
    assert not (tmp_path / "o").exists()


def test_level_span_whose_square_overflows_is_a_config_error(tmp_path, capsys):
    # omega_a_prime = 1e300 squares past the float range in evolve_reduced,
    # which printed 15 RuntimeWarnings before the writer guard refused the
    # tables; the span is checked at load time, at the [effective] header
    with open(SHIPPED_DEPHASING, encoding="utf-8") as f:
        text = f.read()
    text = re.sub(r"(?m)^omega_a_prime = .*$", "omega_a_prime = 1e300 Hz_rad", text)
    header = text.splitlines().index("[effective]") + 1
    cfg = _write(tmp_path, text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["dephasing", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 1
    assert capsys.readouterr().err == (
        f"cqdeph: config error: line {header}: [effective]: the level energies "
        "over [cutoff] span 5e+300 rad/s, whose square is not finite\n")
    assert not (tmp_path / "o").exists()


def test_cutoff_over_the_dense_cap_is_refused_before_any_level_is_built(
        tmp_path, capsys):
    # dim 2e10: the load-time span check must not build the level vector,
    # so the run refuses the cutoff at once, as it does with a small span
    with open(SHIPPED_DEPHASING, encoding="utf-8") as f:
        text = f.read()
    text = re.sub(r"(?m)^omega_a_prime = .*$", "omega_a_prime = 1e300 Hz_rad", text)
    text = re.sub(r"(?m)^n_max_(a|b) = .*$", r"n_max_\1 = 100000", text)
    cfg = _write(tmp_path, text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["dephasing", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 2
    assert capsys.readouterr().err == (
        "cqdeph: numeric error: dimension 20000400002 exceeds the "
        "dense-matrix cap 5000\n")
    assert os.listdir(tmp_path / "o") == []


# a body that holds each section, for the key-table tests
SECTION_BODY = {"device": DEVICE_BODY, "effective": DEVICE_BODY,
                "cutoff": DEPHASING_BODY, "bath": DEPHASING_BODY,
                "grid": DEPHASING_BODY, "state": COHERENT_BODY,
                "spectrum": SPECTRUM_BODY}


def _set_key(body, section, key, value):
    """``body`` with ``key = value`` in [section], replacing the key's line or
    adding one under the header; returns the text and that line's number."""
    lines = body.splitlines()
    start = lines.index(f"[{section}]")
    end = next((k for k in range(start + 1, len(lines))
                if lines[k].startswith("[")), len(lines))
    at = next((k for k in range(start + 1, end)
               if lines[k].split("=")[0].strip() == key), None)
    if at is None:
        at = start + 1
        lines.insert(at, "")
    lines[at] = f"{key} = {value}"
    return "\n".join(lines) + "\n", at + 1


def _out_of_range(row):
    """A value just outside a row's bound or integer choices."""
    if row.choices:
        return str(max(row.choices) + 1)
    op, limit = row.bound
    number = limit if op == ">" else limit - 1
    suffix = "s" if row.kind == "beta" else cli._BASE_SUFFIX.get(row.kind)
    return f"{number} {suffix}" if suffix else str(number)


LIMITED_ROWS = [row for row in cli._SCHEMA
                if row.bound or (row.choices and row.kind == "integer")]


@pytest.mark.parametrize("row", LIMITED_ROWS,
                         ids=[f"{row.section}.{row.key}" for row in LIMITED_ROWS])
def test_every_bound_and_choice_rejected_at_its_line(tmp_path, row):
    text, line = _set_key(SECTION_BODY[row.section], row.section, row.key,
                          _out_of_range(row))
    # a model constructor's InvalidArgumentError would escape this block
    with pytest.raises(ConfigError) as err:
        load_config(_write(tmp_path, text))
    assert err.value.line == line
    assert str(err.value).startswith(f"line {line}: {row.key}")


@pytest.mark.parametrize("edits, line, message", [
    # labels outside [cutoff] (n_max_a = 2, n_max_b = 3)
    ((("amp_0 = 0 0 0 : 0.577350269189626 0", "amp_0 = 7 0 0 : 1 0"),), 32,
     "amp_0: label '7 0 0' outside the cutoff"),
    ((("pair_1 = 0 0 1 : 0 0 0", "pair_1 = 0 0 1 : 0 4 0"),), 38,
     "pair_1: label '0 4 0' outside the cutoff"),
    # labels states whose amplitudes sum to zero, at the [state] header
    ((("0.577350269189626 0\n", "0 0\n"),), 30, "sums to the zero vector"),
    ((("amp_1 = 0 1 0 : 0.577350269189626", "amp_1 = 0 0 0 : -0.577350269189626"),
      ("amp_2 = 0 0 1 : 0.577350269189626", "amp_2 = 0 0 1 : 0")), 30,
     "sums to the zero vector"),
])
def test_state_and_pair_errors_at_load(tmp_path, edits, line, message):
    with open(SHIPPED_DEPHASING, encoding="utf-8") as f:
        text = f.read()
    for old, new in edits:
        assert old in text
        text = text.replace(old, new)
    with pytest.raises(ConfigError, match=message) as err:
        load_config(_write(tmp_path, text))
    assert err.value.line == line


@pytest.mark.parametrize("old, new, key, message", [
    ("[bath]", "[spectrum]", "[spectrum]", "not used by scenario"),
    ("[grid]\nt_start = 0 s\nt_stop = 20 s\nt_count = 6\nspacing = linear\n",
     "", "scenario", r"requires section \[grid\]"),
    ("[effective]\nomega_a = 1 Hz_rad\nomega_a_prime = 0.9 Hz_rad\n"
     "chi = 0.3 Hz_rad\n", "", "scenario",
     r"requires section \[device\] or \[effective\]"),
    ("chi = 0.3 Hz_rad\n", "", "[effective]", "must supply chi"),
    ("coupling = 0.1\n", "", "[bath]", "missing required key 'coupling'"),
    ("kind = labels\n", "kind = coherent\n", "amp_0", "unknown key 'amp_0'"),
    ("[pairs]\npair_0 = 0 1 0 : 0 0 0\n", "[pairs]\n", "[pairs]",
     r"needs at least one pair_<k> line"),
    ("t_start = 0 s", "t_start = 30 s", "t_stop", "t_stop must exceed"),
    ("spacing = linear", "spacing = log", "t_start",
     "log spacing requires t_start > 0"),
    ("scenario = dephasing", "scenaro = dephasing", "scenaro",
     "unknown key 'scenaro' in the top level"),
])
def test_rules_name_their_line(tmp_path, old, new, key, message):
    body = DEPHASING_BODY.replace(old, new)
    assert body != DEPHASING_BODY
    with pytest.raises(ConfigError, match=message) as err:
        load_config(_write(tmp_path, body))
    line = next(k for k, text in enumerate(body.splitlines(), start=1)
                if text.startswith(key))
    assert err.value.line == line


def test_missing_table_file(tmp_path):
    body = DEPHASING_BODY.replace(
        "family = ohmic\ncoupling = 0.1\nomega_c = 1 Hz_rad",
        "family = tabulated\ntable = nope.txt")
    with pytest.raises(ConfigError, match="no such file"):
        load_config(_write(tmp_path, body))


def test_table_path_resolves_relative_to_config(tmp_path):
    w = np.linspace(0.01, 20.0, 200)
    np.savetxt(tmp_path / "dens.txt", np.column_stack([w, 0.1 * w * np.exp(-w)]))
    body = DEPHASING_BODY.replace(
        "family = ohmic\ncoupling = 0.1\nomega_c = 1 Hz_rad",
        "family = tabulated\ntable = dens.txt")
    cfg = load_config(_write(tmp_path, body))
    assert os.path.isabs(cfg["bath"]["table"])
    assert os.path.isfile(cfg["bath"]["table"])


def test_tabulated_run_reads_its_table_once(tmp_path, monkeypatch):
    w = np.linspace(0.01, 20.0, 200)
    table = tmp_path / "dens.txt"
    np.savetxt(table, np.column_stack([w, 0.1 * w * np.exp(-w)]))
    body = DEPHASING_BODY.replace(
        "family = ohmic\ncoupling = 0.1\nomega_c = 1 Hz_rad",
        "family = tabulated\ntable = dens.txt")
    calls = []
    loadtxt = np.loadtxt

    def counted(*args, **kwargs):
        calls.append(args[0])
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", counted)
    cfg = load_config(_write(tmp_path, body))
    # the run uses the density the load checked, not the file as it is now
    table.write_text("not a table\n")
    report = run(cfg, str(tmp_path / "o"))
    assert calls == [str(table)]
    assert report["bath"]["table"] == str(table)
    echo = (tmp_path / "o" / "config_echo.cfg").read_text()
    assert f"table = {table}\n" in echo


def test_tabulated_bath_rejects_ohmic_keys(tmp_path):
    w = np.linspace(0.01, 20.0, 50)
    np.savetxt(tmp_path / "dens.txt", np.column_stack([w, 0.1 * w]))
    body = DEPHASING_BODY.replace(
        "family = ohmic\ncoupling = 0.1\nomega_c = 1 Hz_rad",
        "family = tabulated\ntable = dens.txt\nomega_c = 5 Hz_rad\n"
        "exponent = 3")
    with pytest.raises(ConfigError, match=r"line 16: unknown key 'omega_c'"):
        load_config(_write(tmp_path, body))


def test_ohmic_bath_rejects_table(tmp_path):
    w = np.linspace(0.01, 20.0, 50)
    np.savetxt(tmp_path / "dens.txt", np.column_stack([w, 0.1 * w]))
    body = DEPHASING_BODY.replace("omega_c = 1 Hz_rad",
                                  "omega_c = 1 Hz_rad\ntable = dens.txt")
    with pytest.raises(ConfigError, match=r"line 17: unknown key 'table'"):
        load_config(_write(tmp_path, body))


def _line_of(body, key):
    return next(k for k, text in enumerate(body.splitlines(), start=1)
                if text.startswith(key))


@pytest.mark.parametrize("old, new", [
    ("ratio = 3", "ratio = 3/2"),
    ("chi = 0.3 Hz_rad", "chi = 0 Hz_rad"),
    ("chi = 0.3 Hz_rad", "chi = -0.3 Hz_rad"),
])
def test_ratio_must_match_the_effective_parameters(tmp_path, old, new):
    body = SPECTRUM_BODY.replace(old, new)
    with pytest.raises(ConfigError, match=r"ratio: exact-ratio "
                       r"classification needs chi != 0") as err:
        load_config(_write(tmp_path, body))
    assert err.value.line == _line_of(body, "ratio")


def test_ratio_rule_reads_the_device_derived_chi(tmp_path):
    # the device block gives omega_a_prime/chi far from 3
    body = DEVICE_BODY.replace("scenario = device", "scenario = spectrum") \
        .replace("tau = 160 ns\n", "").replace("chi = 360 MHz_rad\n", "") \
        + "\n[cutoff]\nn_max_a = 1\nn_max_b = 1\n\n[spectrum]\nratio = 3\n"
    with pytest.raises(ConfigError, match="ratio: exact-ratio") as err:
        load_config(_write(tmp_path, body))
    assert err.value.line == _line_of(body, "ratio")


def test_negative_chi_with_its_negative_ratio_runs(tmp_path):
    body = SPECTRUM_BODY.replace("chi = 0.3 Hz_rad", "chi = -0.3 Hz_rad") \
        .replace("ratio = 3", "ratio = -3")
    report = run(load_config(_write(tmp_path, body)), str(tmp_path / "out"))
    assert report["exact"] is True
    floats = run(load_config(_write(tmp_path, body.replace(
        "ratio = -3", "tol = 1e-12"), "f.cfg")), str(tmp_path / "f"))
    exact = [(c["members"], c["energy"]) for c in report["classes"]]
    clustered = [(c["members"], c["energy"]) for c in floats["classes"]]
    assert [m for m, _ in exact] == [m for m, _ in clustered]
    for (_, energy), (_, other) in zip(exact, clustered):
        assert energy == pytest.approx(other, abs=1e-12)


@pytest.mark.parametrize("text, message", [
    ("0.1 1\n0.2 abc\n", "could not convert string 'abc'"),
    ("0.1\n0.2\n", "expected two columns"),
    ("0.2 1\n0.1 1\n", "strictly increasing"),
    ("", "no data"),
])
def test_bad_table_rejected_at_its_line(tmp_path, text, message):
    (tmp_path / "dens.txt").write_text(text)
    body = DEPHASING_BODY.replace(
        "family = ohmic\ncoupling = 0.1\nomega_c = 1 Hz_rad",
        "family = tabulated\ntable = dens.txt")
    with pytest.raises(ConfigError, match=f"table: .*{message}") as err:
        load_config(_write(tmp_path, body))
    assert err.value.line == _line_of(body, "table")


# ------------------------------------------------------- echo and resolution

def test_echo_roundtrips_every_section(tmp_path):
    w = np.linspace(0.01, 20.0, 50)
    np.savetxt(tmp_path / "dens.txt", np.column_stack([w, 0.1 * w]))
    body = f"""
scenario = dephasing

[effective]
omega_a = 1.25 GHz_cyc
omega_a_prime = 1.1 GHz_cyc
chi = 360 MHz_rad
phi_b = 0.07

[cutoff]
n_max_a = 2
n_max_b = 2

[bath]
family = tabulated
table = dens.txt
beta = 0.3 ns

[grid]
t_start = 1 ns
t_stop = 400 ns
t_count = 7
spacing = log

[state]
kind = coherent
mode = A
alpha_re = 0.4
alpha_im = -0.2
qubit_level = 1
"""
    cfg = load_config(_write(tmp_path, body))
    echo_path = tmp_path / "echo.cfg"
    echo_path.write_text(render_config(cfg))
    assert load_config(str(echo_path)) == cfg


def test_echo_roundtrips_rational_ratio(tmp_path):
    body = SPECTRUM_BODY.replace("ratio = 3", "ratio = 3/2\ntol = 1e-10") \
        .replace("omega_a_prime = 0.9 Hz_rad", "omega_a_prime = 0.45 Hz_rad")
    cfg = load_config(_write(tmp_path, body))
    assert cfg["spectrum"]["ratio"] == Fraction(3, 2)
    echo = tmp_path / "echo.cfg"
    echo.write_text(render_config(cfg))
    assert load_config(str(echo)) == cfg


def test_override_recomputes_derived_rates(tmp_path):
    base = load_config(_write(tmp_path, DEVICE_BODY, "a.cfg"))
    eff_base = resolve_effective(base)
    assert eff_base.chi == pytest.approx(3.6e8)  # explicit override wins

    body = DEVICE_BODY.replace("chi = 360 MHz_rad", "g_a = 100 MHz_rad")
    moved = load_config(_write(tmp_path, body, "b.cfg"))
    eff_moved = resolve_effective(moved)
    from cqdeph.device import cross_kerr
    assert eff_moved.chi == pytest.approx(cross_kerr(
        1e8, eff_moved.phi_b, moved["device"]["E_J_max"], eff_moved.omega_a,
        HBAR_SI))


# ------------------------------------------------------------ scenario runs

def test_run_device_report(tmp_path):
    cfg = load_config(_write(tmp_path, DEVICE_BODY))
    report = run(cfg, str(tmp_path / "out"))
    assert report["cross_phase"]["cycles"] == pytest.approx(9.1673, abs=1e-3)
    assert report["regime"]["worst_flag"] in ("pass", "warn")
    on_disk = json.loads((tmp_path / "out" / "report.json").read_text())
    assert on_disk == report


def test_run_spectrum_report(tmp_path):
    cfg = load_config(_write(tmp_path, SPECTRUM_BODY))
    report = run(cfg, str(tmp_path / "out"))
    assert report["exact"] is True
    zero = [c for c in report["classes"] if abs(c["energy"]) < 1e-30]
    assert len(zero) == 1
    assert [0, 3, 0] in zero[0]["members"]
    assert "Index convention" in report["index_convention_note"]
    levels_csv = (tmp_path / "out" / "levels.csv").read_text().splitlines()
    assert levels_csv[0] == "flat_index,m,n,i,energy"
    assert len(levels_csv) == 1 + 2 * 3 * 5


def test_run_dephasing_tables(tmp_path):
    cfg = load_config(_write(tmp_path, DEPHASING_BODY))
    report = run(cfg, str(tmp_path / "out"))
    traj = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
    assert traj[0] == "t,abs_p0,arg_p0,gamma_p0,dphi_p0"
    assert len(traj) == 1 + 6
    # the tracked pair is protected (both energies are 0 at ratio 3)
    first = [float(x) for x in traj[1].split(",")]
    last = [float(x) for x in traj[-1].split(",")]
    assert first[1] == pytest.approx(0.5)
    assert last[1] == pytest.approx(0.5, abs=1e-12)
    obs = (tmp_path / "out" / "observables.csv").read_text().splitlines()
    assert obs[0] == ("t,purity,qubit_coherence_re,qubit_coherence_im,"
                      "fidelity_to_initial")
    assert report["pairs"][0]["delta_e"] == pytest.approx(0.0, abs=1e-15)


def _written_maxima(out_dir):
    rows = (out_dir / "observables.csv").read_text().splitlines()
    header = rows[0].split(",")
    cols = [[float(x) for x in r.split(",")] for r in rows[1:]]
    return tuple(max(r[header.index(name)] for r in cols)
                 for name in ("purity", "fidelity_to_initial"))


def _dense_body(rng) -> str:
    """DEPHASING_BODY with a seeded pure state on all 288 labels of the
    (11, 11) cutoff; its one [pairs] entry stays."""
    amps = rng.normal(size=(288, 2)).tolist()
    lines = [f"amp_{k} = {m} {n} {i} : {re!r} {im!r}"
             for k, ((i, m, n), (re, im)) in enumerate(
                 zip(np.ndindex(2, 12, 12), amps))]
    body = DEPHASING_BODY.replace("n_max_a = 1\nn_max_b = 3",
                                  "n_max_a = 11\nn_max_b = 11")
    return body.replace("amp_0 = 0 0 0 : 0.7071067811865476 0\n"
                        "amp_1 = 0 1 0 : 0 0.7071067811865476",
                        "\n".join(lines))


def test_written_purity_and_fidelity_are_at_most_one(tmp_path, rng):
    run(load_config(SHIPPED_DEPHASING), str(tmp_path / "shipped"))
    assert max(_written_maxima(tmp_path / "shipped")) <= 1.0
    run(load_config(_write(tmp_path, _dense_body(rng))), str(tmp_path / "dense"))
    purity, fidelity = _written_maxima(tmp_path / "dense")
    assert purity <= 1.0 and fidelity <= 1.0


def test_dense_state_without_pairs_tracks_the_capped_default(tmp_path, rng):
    # 41,328 nonzero upper elements: all of them wrote a 96 MB trajectory
    body = _dense_body(rng).split("[pairs]")[0]
    report = run(load_config(_write(tmp_path, body)), str(tmp_path / "o"))
    assert len(report["pairs"]) == 256
    assert len(report["warnings"]) == 1
    assert "41328 nonzero elements" in report["warnings"][0]
    assert "256 largest" in report["warnings"][0]
    # in flat order: a label (m, n, i) sorts as (i, m, n) does
    keys = [(r[2], r[0], r[1], c[2], c[0], c[1]) for r, c in
            ((p["row_label"], p["col_label"]) for p in report["pairs"])]
    assert keys == sorted(keys)
    table = tmp_path / "o" / "trajectory.csv"
    assert len(table.read_text().splitlines()[0].split(",")) == 1 + 4 * 256
    assert table.stat().st_size < 1_000_000


def test_run_validate_report(tmp_path):
    cfg = load_config(_write(tmp_path, "scenario = validate\n"))
    report = run(cfg, str(tmp_path / "out"))
    assert report["all_passed"] is True
    assert report["check_count"] == report["passed_count"]


def test_missed_q2_tolerance_reaches_the_report(tmp_path):
    # a 60-point table at t = 2500 and tol 1e-15: the reported errors of the
    # tabulated q1 and q2 exceed tol times their values, and both warnings
    # reach report.json
    w = np.linspace(0.05, 10.0, 60)
    np.savetxt(tmp_path / "dens.txt", np.column_stack([w, 0.1 * w * np.exp(-w)]))
    body = DEPHASING_BODY.replace(
        "family = ohmic\ncoupling = 0.1\nomega_c = 1 Hz_rad",
        "family = tabulated\ntable = dens.txt")
    for section, key, value in (
            ("bath", "beta", "2 s"), ("grid", "t_start", "2500 s"),
            ("grid", "t_stop", "2500 s"), ("grid", "t_count", "1")):
        body, _ = _set_key(body, section, key, value)
    report = run(load_config(_write(tmp_path, body)), str(tmp_path / "o"), tol=1e-15)
    assert len(report["warnings"]) == 2
    assert report["warnings"][0].startswith("tabulated q1 misses its tolerance")
    assert report["warnings"][1].startswith(
        "tabulated q2 misses its tolerance: the reported error is 5.88 x rtol |q2| "
        "at t = 2500 (rtol = 1e-15)")


def test_run_records_warnings_in_report(tmp_path):
    cfg = load_config(_write(tmp_path, COHERENT_BODY))
    texts = []
    for name in ("a", "b"):
        report = run(cfg, str(tmp_path / name))
        assert len(report["warnings"]) == 1
        assert "coherent state truncation tail" in report["warnings"][0]
        texts.append((tmp_path / name / "report.json").read_bytes())
    assert texts[0] == texts[1]


# --------------------------------------------------------------- CSV tables

def _reference_cell(v) -> str:
    """One CSV cell formatted on its own, the independent reference for
    cli._write_csv, which formats a block of rows per call."""
    return str(v) if isinstance(v, int) else f"{v:.17g}"


def _reference_csv(header, columns) -> str:
    cells = [[_reference_cell(v) for v in np.asarray(col).tolist()]
             for col in columns]
    lines = [",".join(header)] + [",".join(row) for row in zip(*cells)]
    return "\n".join(lines) + "\n"


def _first_difference(got: str, want: str):
    """(line number, got line, wanted line) of the first line that differs,
    or None: a short message where pytest would diff megabytes."""
    a, b = got.split("\n"), want.split("\n")
    for k, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return k, x, y
    return None if len(a) == len(b) else (min(len(a), len(b)), "", "")


def _parse_cell(cell: str):
    # str never writes "-0": that is a float cell
    if re.fullmatch(r"-?[0-9]+", cell) and cell != "-0":
        return int(cell)
    return float(cell)


_EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                9.9999999999999991e-06, 1e-5, 9.9999999999999991e-05, 1e-4,
                0.1, 1.0, -3.0, 1e16, 12345678901234568.0, 1e17,
                1.7976931348623157e308, float("nan"), float("inf"),
                float("-inf")]


def _block_rows(columns: int) -> int:
    """Rows that fill two blocks of the writer and start a third."""
    return 2 * (cli._CSV_BLOCK // columns) + 5


def _csv_case(name, rng):
    if name == "edges":
        n = len(_EDGE_FLOATS)
        labels = np.array([0, -1, 7, 2 ** 53 + 1, 2 ** 63 - 1, -2 ** 63]
                          + list(range(n - 6)), dtype=np.int64)
        return ["x", "n", "t"], [_EDGE_FLOATS, labels, np.arange(n) * 0.25]
    if name == "one row":
        return ["t", "x", "n"], [np.array([0.5]), np.array([1e-4]),
                                 np.array([3], dtype=np.int64)]
    if name == "floats over blocks":
        n = _block_rows(3)
        # random odd bit patterns (every sign and exponent, nan payloads) and
        # magnitudes over every decade
        bits = rng.integers(0, 2 ** 63, size=n, dtype=np.int64) * 2 + 1
        mags = rng.random(n) * 10.0 ** rng.integers(-320, 300, n)
        return ["bits", "mag", "t"], [bits.view(float), mags,
                                      np.linspace(0.0, 30.0, n)]
    n = _block_rows(5)
    return (["flat_index", "m", "n", "i", "energy"],
            [np.arange(n), rng.integers(0, 40, n), rng.integers(0, 40, n),
             rng.integers(0, 2, n), rng.normal(size=n) * 1e9])


@pytest.mark.parametrize("case", ["edges", "one row", "floats over blocks",
                                  "ints and floats over blocks"])
def test_write_csv_matches_the_per_cell_reference(tmp_path, rng, case):
    header, columns = _csv_case(case, rng)
    path = tmp_path / "t.csv"
    cli._write_csv(str(path), header, columns)
    got = path.read_bytes().decode("ascii")
    assert _first_difference(got, _reference_csv(header, columns)) is None


@pytest.mark.parametrize("config", SHIPPED_CONFIGS,
                         ids=[os.path.basename(p) for p in SHIPPED_CONFIGS])
def test_shipped_tables_reparse_to_the_same_text(tmp_path, config):
    report = run(load_config(config), str(tmp_path))
    tables = sorted(tmp_path.glob("*.csv"))
    assert {t.name for t in tables} == set(report.get("tables", {}).values())
    for table in tables:
        text = table.read_text()
        header, *rows = text.splitlines()
        again = [header] + [",".join(_reference_cell(_parse_cell(c))
                                     for c in row.split(",")) for row in rows]
        assert _first_difference(text, "\n".join(again) + "\n") is None, \
            table.name


# --------------------------------------------------------------- subprocess

def test_cli_spectrum_subprocess(tmp_path):
    cfg = _write(tmp_path, SPECTRUM_BODY)
    res = _cli(["spectrum", "--config", cfg, "--out", str(tmp_path / "o")])
    assert res.returncode == 0, res.stderr
    assert "degeneracy classes" in res.stdout
    assert (tmp_path / "o" / "report.json").is_file()
    assert (tmp_path / "o" / "config_echo.cfg").is_file()


def test_cli_config_error_exit_1(tmp_path):
    cfg = _write(tmp_path, "scenario = spectrum\n[effective]\nomega_a = 1\n")
    res = _cli(["spectrum", "--config", cfg, "--out", str(tmp_path / "o")])
    assert res.returncode == 1
    assert "config error" in res.stderr


def test_cli_scenario_mismatch_exit_1(tmp_path):
    cfg = _write(tmp_path, SPECTRUM_BODY)
    res = _cli(["device", "--config", cfg, "--out", str(tmp_path / "o")])
    assert res.returncode == 1


def test_cli_capacity_exit_2(tmp_path):
    body = DEPHASING_BODY.replace("n_max_a = 1", "n_max_a = 80").replace(
        "n_max_b = 3", "n_max_b = 80")
    cfg = _write(tmp_path, body)
    res = _cli(["dephasing", "--config", cfg, "--out", str(tmp_path / "o")])
    assert res.returncode == 2
    assert "numeric error" in res.stderr
    assert not (tmp_path / "o" / "config_echo.cfg").exists()


def test_cli_failed_run_still_shows_its_warnings(tmp_path):
    # the coherent state warns, then t = 2000 needs more real-axis panels
    # over the tabulated density than its panel cap allows
    w = np.linspace(0.01, 20.0, 200)
    np.savetxt(tmp_path / "dens.txt", np.column_stack([w, 0.1 * w * np.exp(-w)]))
    body = COHERENT_BODY.replace(
        "family = ohmic\ncoupling = 0.1\nomega_c = 1 Hz_rad",
        "family = tabulated\ntable = dens.txt").replace(
        "t_stop = 20 s", "t_stop = 10000 s")
    cfg = _write(tmp_path, body)
    res = _cli(["dephasing", "--config", cfg, "--out", str(tmp_path / "o")])
    assert res.returncode == 2
    assert "beyond capacity" in res.stderr
    assert "coherent state truncation tail" in res.stderr
    assert not (tmp_path / "o" / "config_echo.cfg").exists()


def test_cli_ohmic_dephasing_has_no_time_limit(tmp_path):
    # omega_c t = 1e4: far beyond the old oscillation-resolved panel layout
    body = DEPHASING_BODY.replace("t_stop = 20 s", "t_stop = 10000 s")
    cfg = _write(tmp_path, body)
    res = _cli(["dephasing", "--config", cfg, "--out", str(tmp_path / "o")])
    assert res.returncode == 0, res.stderr
    rows = np.loadtxt(tmp_path / "o" / "trajectory.csv", delimiter=",",
                      skiprows=1, ndmin=2)
    # pair (0,1,0)-(0,0,0): Gamma = dE^2 q2 with q2 = (alpha/2) ln(1 + t^2)
    header = (tmp_path / "o" / "trajectory.csv").read_text().splitlines()[0]
    gamma = rows[:, header.split(",").index("gamma_p0")]
    de2 = json.loads((tmp_path / "o" / "report.json").read_text())["pairs"][0]["delta_e"] ** 2
    assert gamma[-1] == pytest.approx(de2 * 0.05 * math.log1p(1e8), rel=1e-8)


BODIES = {"device": DEVICE_BODY, "spectrum": SPECTRUM_BODY,
          "dephasing": DEPHASING_BODY, "validate": "scenario = validate\n"}


@pytest.mark.parametrize("tol", [-1.0, 0.0, math.nan, math.inf])
@pytest.mark.parametrize("scenario", sorted(BODIES))
def test_run_rejects_bad_tol(tmp_path, scenario, tol):
    cfg = load_config(_write(tmp_path, BODIES[scenario]))
    with pytest.raises(InvalidArgumentError, match="tol must be finite and > 0"):
        run(cfg, str(tmp_path / "o"), tol=tol)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["dephasing", "spectrum"])
@pytest.mark.parametrize("tol", ["-1", "0", "nan"])
def test_cli_bad_tol_exit_1(tmp_path, capsys, command, tol):
    cfg = _write(tmp_path, BODIES[command])
    code = main([command, "--config", cfg, "--out", str(tmp_path / "o"),
                 "--tol", tol])
    assert code == 1
    assert "tol must be finite and > 0" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cli_validation_failure_exit_3(tmp_path):
    cfg = _write(tmp_path, "scenario = validate\n")
    res = _cli(["validate", "--config", cfg, "--out", str(tmp_path / "o"),
                "--tol", "1e-12"])
    assert res.returncode == 3
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert report["all_passed"] is False


def test_initial_state_adds_a_repeated_label_and_rejects_one_outside(tmp_path):
    body = DEPHASING_BODY.replace(
        "amp_1 = 0 1 0 : 0 0.7071067811865476\n",
        "amp_1 = 0 1 0 : 0 0.5\namp_2 = 0 0 0 : 0.25 -0.5\n")
    cfg = load_config(_write(tmp_path, body))
    state, cut = cfg["state"], FockCutoff(**cfg["cutoff"])
    amp = np.zeros(cut.dim, dtype=complex)
    amp[0] = complex(0.7071067811865476, 0.0) + complex(0.25, -0.5)
    amp[1] = 0.5j
    psi = cli._initial_state(state, cut)
    assert np.array_equal(psi.vec, amp / np.linalg.norm(amp))
    outside = {**state, "amp": state["amp"] + ((2, 0, 0, 0.1, 0.0),)}
    with pytest.raises(InvalidArgumentError, match="exceeds cutoff"):
        cli._initial_state(outside, cut)
