"""Write every output file of the shipped configs and benchmark inputs.

    python3 tools/cli_outputs.py <checkout> <dest>

Imports ``cqdeph`` from ``<checkout>/src`` and runs ``cli.run`` on each
``<checkout>/configs/*.cfg``, on the seed-1 ``dephasing-sparse``,
``dephasing-dense`` and ``reservoir-long`` inputs of
``<checkout>/perfbench/workloads.py``, and on the variants of VARIANTS.
A variant is a shipped config with some of its sections replaced or added
to; between them the variants set every config key that no shipped config
or benchmark input sets, so that the echoes hold a line of every key-table
row, and ``pairs-edge`` gives the pairs that no shipped config does: one
below the diagonal, one off the state's support, a repeated one and a
diagonal one, and ``spectrum-float`` runs the float clustering of the
degeneracy classes, at cutoff (30, 30).  ``tabulated-bath`` reads a
60-point table of 0.1 w exp(-w) over [0.05, 10] rad/s.  The files of each run go into ``<dest>/<config stem,
workload or variant name>/``; each variant writes its inputs, ``run.cfg``
and the table ``dens.txt``, there too, not under ``configs/``, whose every
file the benchmark runs.  The table's absolute path is echoed in
``report.json`` and ``config_echo.cfg``, so those two files of
``tabulated-bath`` differ between destinations in that path, which
``tools/compare_outputs.py`` reads as one placeholder.  Run it on two
checkouts and compare the destinations with ``tools/compare_outputs.py``
to see every number a change moved.
"""

from __future__ import annotations

import glob
import math
import os
import sys
import tempfile

WORKLOADS = ("dephasing-sparse", "dephasing-dense", "reservoir-long")
SEED = 1
# name: (the shipped config it starts from, {section: its new body}); a
# "+section" entry adds its lines to the section instead
VARIANTS = {
    "tabulated-bath": ("dephasing_dfs", {
        "bath": "family = tabulated\ntable = dens.txt\nbeta = 2 s\n"}),
    "subohmic-thermal": ("dephasing_dfs", {
        "bath": ("family = ohmic\ncoupling = 0.1\nexponent = 0.3\n"
                 "omega_c = 1 Hz_rad\nbeta = 2 s\n")}),
    # beta = hbar / (k_B T) is 1.9 s
    "temperature-log-grid": ("dephasing_dfs", {
        "bath": ("family = ohmic\ncoupling = 0.1\nomega_c = 1 Hz_rad\n"
                 "temperature = 4e-6 uK\n"),
        "grid": "t_start = 0.01 s\nt_stop = 50 s\nt_count = 26\nspacing = log\n"}),
    "coherent-mode-b": ("dephasing_dfs", {
        "state": ("kind = coherent\nmode = B\nalpha_re = 0.6\nalpha_im = -0.3\n"
                  "qubit_level = 1\n"),
        "pairs": "pair_0 = 0 1 1 : 0 0 1\npair_1 = 0 2 1 : 1 0 1\n"}),
    # a lower-triangle pair, a pair off the state's support, that first
    # pair again and a diagonal pair
    "pairs-edge": ("dephasing_dfs", {
        "pairs": ("pair_0 = 0 0 1 : 0 1 0\npair_1 = 2 3 1 : 1 2 0\n"
                  "pair_2 = 0 0 1 : 0 1 0\npair_3 = 0 0 0 : 0 0 0\n")}),
    "device-flux": ("device_headline", {"+device": "Phi_e = 0.1 Phi0\n"}),
    "device-overrides": ("device_headline", {
        "effective": ("g_a = 100 MHz_rad\nn_g_dc = 0.45\nomega_a = 6.1 GHz_cyc\n"
                      "omega_a_prime = 6.05 GHz_cyc\nphi_b = 0.05\nphi_e = 0.2\n")}),
    "spectrum-rational": ("spectrum_dfs", {
        "effective": "omega_a = 1 Hz_rad\nomega_a_prime = 0.45 Hz_rad\nchi = 0.3 Hz_rad\n",
        "spectrum": "ratio = 3/2\n"}),
    # no ratio: the float clustering path of dfs_find, which no shipped
    # config runs
    "spectrum-float": ("spectrum_dfs", {
        "cutoff": "n_max_a = 30\nn_max_b = 30\n",
        "spectrum": "tol = 1e-12\n"}),
}


def _edit(text: str, section: str, body: str) -> str:
    """``text`` with the lines of [section] replaced by ``body``, or, for
    ``+section``, with ``body`` put after the header of [section]."""
    header = f"[{section.lstrip('+')}]\n"
    start = text.index(header) + len(header)
    if section.startswith("+"):
        return text[:start] + body + text[start:]
    end = text.find("\n[", start)
    end = len(text) if end < 0 else end + 1
    return text[:start] + body + "\n" + text[end:]


def write_variants(checkout: str, dest: str) -> dict[str, str]:
    """Write the inputs of each variant into ``<dest>/<name>/``; return the
    path of each ``run.cfg`` by name."""
    paths = {}
    for name, (base, sections) in VARIANTS.items():
        with open(os.path.join(checkout, "configs", base + ".cfg"),
                  encoding="utf-8") as f:
            text = f.read()
        for section, body in sections.items():
            text = _edit(text, section, body)
        os.makedirs(os.path.join(dest, name), exist_ok=True)
        paths[name] = os.path.join(dest, name, "run.cfg")
        with open(paths[name], "w", encoding="utf-8", newline="\n") as f:
            f.write(text)
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
