"""Write every output file of the shipped configs and benchmark inputs.

    python3 tools/cli_outputs.py <checkout> <dest>

Imports ``cqdeph`` from ``<checkout>/src`` and runs ``cli.run`` on each
``<checkout>/configs/*.cfg``, on the seed-1 ``dephasing-sparse``,
``dephasing-dense`` and ``reservoir-long`` inputs of
``<checkout>/perfbench/workloads.py``, and on two variants of
``configs/dephasing_dfs.cfg`` with another bath: ``tabulated-bath`` (a
60-point table of 0.1 w exp(-w) over [0.05, 10] rad/s at beta = 2 s) and
``subohmic-thermal`` (the ohmic bath at exponent 0.3 and beta = 2 s).  The
files of each run go into ``<dest>/<config stem or workload name>/``; the
two variants write their inputs, ``run.cfg`` and the table ``dens.txt``,
there too, not under ``configs/``, whose every file the benchmark runs.
The table's absolute path is echoed in ``report.json`` and
``config_echo.cfg``, so those two files of ``tabulated-bath`` differ
between destinations in that path, which ``tools/compare_outputs.py``
reads as one placeholder.  Run it on two checkouts and compare the
destinations with ``tools/compare_outputs.py`` to see every number a
change moved.
"""

from __future__ import annotations

import glob
import math
import os
import sys
import tempfile

WORKLOADS = ("dephasing-sparse", "dephasing-dense", "reservoir-long")
SEED = 1
# the [bath] section of each variant of configs/dephasing_dfs.cfg
VARIANTS = {
    "tabulated-bath": "family = tabulated\ntable = dens.txt\nbeta = 2 s\n",
    "subohmic-thermal": ("family = ohmic\ncoupling = 0.1\nexponent = 0.3\n"
                         "omega_c = 1 Hz_rad\nbeta = 2 s\n"),
}


def write_variants(checkout: str, dest: str) -> dict[str, str]:
    """Write the inputs of each variant into ``<dest>/<name>/``; return the
    path of each ``run.cfg`` by name."""
    with open(os.path.join(checkout, "configs", "dephasing_dfs.cfg"),
              encoding="utf-8") as f:
        text = f.read()
    start = text.index("[bath]\n")
    end = text.index("\n[", start) + 1
    paths = {}
    for name, bath in VARIANTS.items():
        os.makedirs(os.path.join(dest, name), exist_ok=True)
        paths[name] = os.path.join(dest, name, "run.cfg")
        with open(paths[name], "w", encoding="utf-8", newline="\n") as f:
            f.write(text[:start] + "[bath]\n" + bath + "\n" + text[end:])
    w = [0.05 + k * (10.0 - 0.05) / 59 for k in range(60)]
    with open(os.path.join(dest, "tabulated-bath", "dens.txt"), "w",
              encoding="utf-8", newline="\n") as f:
        f.writelines(f"{x!r} {0.1 * x * math.exp(-x)!r}\n" for x in w)
    return paths


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 tools/cli_outputs.py <checkout> <dest>",
              file=sys.stderr)
        return 2
    checkout, dest = (os.path.abspath(a) for a in argv)
    sys.dont_write_bytecode = True  # leave the checkout as it was
    sys.path[:0] = [os.path.join(checkout, "src"),
                    os.path.join(checkout, "perfbench")]
    import workloads
    from cqdeph import cli

    if not cli.__file__.startswith(os.path.join(checkout, "src")):
        print(f"cqdeph was imported from {cli.__file__}, not {checkout}",
              file=sys.stderr)
        return 2
    configs = {os.path.splitext(os.path.basename(p))[0]: p
               for p in sorted(glob.glob(os.path.join(checkout, "configs",
                                                      "*.cfg")))}
    configs.update(write_variants(checkout, dest))
    with tempfile.TemporaryDirectory() as inputs:
        for name in WORKLOADS:
            configs[name] = workloads.write(
                name, SEED, os.path.join(inputs, name))["run.cfg"]
        for name, path in configs.items():
            report = cli.run(cli.load_config(path), os.path.join(dest, name))
            print(f"{name}: {len(report['warnings'])} warnings")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
