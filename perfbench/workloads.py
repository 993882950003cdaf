"""Seeded workload generator: writes the plain inputs each workload runs on.

Every workload is a directory of generated files.  The dephasing workloads
get one ``run.cfg`` in the package's own config format; ``oracles`` gets
``oracle.json`` (the finite-bath oracle has no config scenario, so its spec
is a small JSON file read by the benchmark) plus a ``validate.cfg``.  Floats
are written with ``repr`` so that one seed always gives byte-identical files.
Only ``dephasing-dense`` and ``oracles`` depend on the seed.
"""

from __future__ import annotations

import json
import os
import random

WORKLOADS = ("dephasing-sparse", "dephasing-dense", "reservoir-long", "oracles")

# the dephasing_dfs model shared by every dephasing workload
_EFFECTIVE = """\
[effective]
omega_a = 1 Hz_rad
omega_a_prime = 0.9 Hz_rad
chi = 0.3 Hz_rad
"""

BATH_COUPLING = 0.1
OMEGA_C = 1.0             # rad/s, so omega_c * t is t in seconds
_BATH = f"""\
[bath]
family = ohmic
coupling = {BATH_COUPLING!r}
exponent = 1
omega_c = {OMEGA_C!r} Hz_rad
beta = 2 s
"""

BIG_CUTOFF = (11, 11)    # dim 2 * 12 * 12 = 288
DENSE_PAIRS = 8

# criterion 6 of the acceptance suite: two bath modes around a (1, 1) system
ORACLE_SPEC = {
    "effective": {"g_a": 0.1, "phi_b": 0.1, "phi_e": 0.0, "n_g_dc": 0.5,
                  "omega_a": 1.0, "omega_a_prime": 1.0, "chi": 0.3},
    "system_cutoff": [1, 1],
    "frequencies": [1.3, 2.7],
    "couplings": [0.06, 0.12],
    "bath_cutoffs": [8, 12],
    "t_grid": [2.0, 6.5, 11.0, 15.5, 20.0],
}


def _dephasing_cfg(cutoff, grid, state_lines, pair_lines=()) -> str:
    t_start, t_stop, t_count = grid
    parts = [
        "scenario = dephasing\n",
        _EFFECTIVE,
        f"[cutoff]\nn_max_a = {cutoff[0]}\nn_max_b = {cutoff[1]}\n",
        _BATH,
        f"[grid]\nt_start = {t_start!r} s\nt_stop = {t_stop!r} s\n"
        f"t_count = {t_count}\nspacing = linear\n",
        "[state]\n" + "".join(line + "\n" for line in state_lines),
    ]
    if pair_lines:
        parts.append("[pairs]\n" + "".join(line + "\n" for line in pair_lines))
    return "\n".join(parts)


def _labels(cutoff):
    """Every (m, n, i) label of the cutoff, in the package's flat order."""
    return [(m, n, i) for i in (0, 1) for m in range(cutoff[0] + 1)
            for n in range(cutoff[1] + 1)]


def _sparse() -> dict[str, str]:
    state = ["kind = coherent", "mode = A", "alpha_re = 1.5", "qubit_level = 0"]
    return {"run.cfg": _dephasing_cfg(BIG_CUTOFF, (0.0, 30.0, 60), state)}


def _dense(rng: random.Random) -> dict[str, str]:
    labels = _labels(BIG_CUTOFF)
    state = ["kind = labels"] + [
        f"amp_{k} = {m} {n} {i} : {rng.gauss(0.0, 1.0)!r} {rng.gauss(0.0, 1.0)!r}"
        for k, (m, n, i) in enumerate(labels)
    ]
    pairs = []
    for k in range(DENSE_PAIRS):
        a, b = rng.sample(labels, 2)
        pairs.append(f"pair_{k} = {a[0]} {a[1]} {a[2]} : {b[0]} {b[1]} {b[2]}")
    return {"run.cfg": _dephasing_cfg(BIG_CUTOFF, (0.0, 30.0, 30), state, pairs)}


def _reservoir() -> dict[str, str]:
    amp = "0.577350269189626 0"
    state = ["kind = labels", f"amp_0 = 0 0 0 : {amp}", f"amp_1 = 0 1 0 : {amp}",
             f"amp_2 = 0 0 1 : {amp}"]
    pairs = ["pair_0 = 0 1 0 : 0 0 0", "pair_1 = 0 0 1 : 0 0 0"]
    return {"run.cfg": _dephasing_cfg((2, 3), (0.01, 400.0, 150), state, pairs)}


def _oracles(rng: random.Random) -> dict[str, str]:
    dim = 2 * (ORACLE_SPEC["system_cutoff"][0] + 1) * (ORACLE_SPEC["system_cutoff"][1] + 1)
    spec = dict(ORACLE_SPEC)
    spec["state_re"] = [rng.gauss(0.0, 1.0) for _ in range(dim)]
    spec["state_im"] = [rng.gauss(0.0, 1.0) for _ in range(dim)]
    return {"oracle.json": json.dumps(spec, indent=1) + "\n",
            "validate.cfg": "scenario = validate\n"}


def generate(workload: str, seed: int) -> dict[str, str]:
    """File name -> text of every input file of ``workload`` for ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "dephasing-sparse":
        return _sparse()
    if workload == "dephasing-dense":
        return _dense(rng)
    if workload == "reservoir-long":
        return _reservoir()
    if workload == "oracles":
        return _oracles(rng)
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def write(workload: str, seed: int, directory: str) -> dict[str, str]:
    """Write the inputs into ``directory``; returns name -> path."""
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for name, text in generate(workload, seed).items():
        path = os.path.join(directory, name)
        with open(path, "w", encoding="utf-8", newline="\n") as f:
            f.write(text)
        paths[name] = path
    return paths
