"""Output checks run after every workload run.

Each check returns a list of problems; an empty list means the outputs are
correct.  The checks read the files ``cqdeph.cli.run`` wrote (and, for the
oracle, the file the benchmark wrote from the oracle's reports) and never
loosen a tolerance of the package's own acceptance suite.  A fidelity above
one is counted by ``fidelity_over_one`` and is deliberately not a failure.
"""

from __future__ import annotations

import csv
import json
import math
import os

COHERENCE_SLACK = 1e-12       # |rho_jk(t)| <= |rho_jk(0)| + slack
PURITY_SLACK = 1e-12          # purity <= 1 + slack
POPULATION_SLACK = 1e-12      # |rho_jj(t) - rho_jj(0)| <= slack
ARCTAN_RTOL = 1e-6            # dphi / square_diff vs coupling * arctan(omega_c t)
ORACLE_LIMIT = 1e-6           # acceptance criterion 6


def read_columns(path: str) -> dict[str, list[float]]:
    with open(path, newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    header, body = rows[0], rows[1:]
    return {name: [float(row[k]) for row in body] for k, name in enumerate(header)}


def _report(out_dir: str) -> dict:
    with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as f:
        return json.load(f)


def check_dephasing(out_dir: str, populations, initial) -> list[str]:
    """Frozen populations, non-growing tracked coherences, purity <= 1.

    ``populations`` is the (nt, dim) diagonal of the computed trajectory and
    ``initial`` the diagonal of rho(0); the outputs carry no populations.
    """
    problems = []
    drift = max((abs(p - q) for row in populations for p, q in zip(row, initial)),
                default=0.0)
    if not drift <= POPULATION_SLACK:
        problems.append(f"populations moved by {drift:.3g}")
    traj = read_columns(os.path.join(out_dir, "trajectory.csv"))
    if traj["t"][0] != 0.0:
        problems.append("trajectory.csv does not start at t = 0")
    for name, values in traj.items():
        if name.startswith("abs_"):
            worst = max(values) - values[0]
            if not worst <= COHERENCE_SLACK:
                problems.append(f"{name} grew by {worst:.3g}")
    obs = read_columns(os.path.join(out_dir, "observables.csv"))
    purity = max(obs["purity"])
    if not purity <= 1.0 + PURITY_SLACK:
        problems.append(f"purity reached {purity!r}")
    return problems


def fidelity_over_one(out_dir: str) -> int:
    """Grid points whose written fidelity to the initial state exceeds 1."""
    obs = read_columns(os.path.join(out_dir, "observables.csv"))
    return sum(f > 1.0 for f in obs["fidelity_to_initial"])


def check_reservoir(out_dir: str, coupling: float, omega_c: float) -> list[str]:
    """dphi / square_diff must equal Q1 = coupling * arctan(omega_c t).

    Q1 does not depend on temperature, so this closed form holds at any beta.
    Pairs with square_diff = 0 must carry no phase at all.
    """
    problems = []
    traj = read_columns(os.path.join(out_dir, "trajectory.csv"))
    for k, pair in enumerate(_report(out_dir)["pairs"]):
        sq = pair["square_diff"]
        dphi = traj[f"dphi_p{k}"]
        if sq == 0.0:
            if any(dphi):
                problems.append(f"dphi_p{k} is nonzero on a pair with square_diff 0")
            continue
        worst = max(abs(d / sq - coupling * math.atan(omega_c * t)) /
                    (coupling * math.atan(omega_c * t))
                    for t, d in zip(traj["t"], dphi))
        if not worst <= ARCTAN_RTOL:
            problems.append(f"dphi_p{k} off the arctan law by {worst:.3g}")
    return problems


def check_oracles(out_dir: str) -> list[str]:
    """Oracle deviation below the criterion-6 limit; validate all green."""
    problems = []
    with open(os.path.join(out_dir, "oracle.json"), encoding="utf-8") as f:
        oracle = json.load(f)
    for cut, dev in zip(oracle["bath_cutoffs"], oracle["max_deviation"]):
        if not dev < ORACLE_LIMIT:
            problems.append(f"oracle deviation {dev:.3g} at bath cutoff {cut}")
    if _report(out_dir).get("all_passed") is not True:
        problems.append("validate did not pass every check")
    return problems


def same_outputs(dir_a: str, dir_b: str) -> list[str]:
    """Every file of two runs' output directories, compared byte for byte."""
    if not (os.path.isdir(dir_a) and os.path.isdir(dir_b)):
        return ["one of the two runs wrote no outputs"]
    names_a, names_b = sorted(os.listdir(dir_a)), sorted(os.listdir(dir_b))
    if names_a != names_b:
        return [f"different files: {names_a} vs {names_b}"]
    problems = []
    for name in names_a:
        with open(os.path.join(dir_a, name), "rb") as fa, \
                open(os.path.join(dir_b, name), "rb") as fb:
            if fa.read() != fb.read():
                problems.append(f"{name} differs between two runs")
    return problems
