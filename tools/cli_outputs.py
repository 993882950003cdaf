"""Write every output file of the shipped configs and benchmark inputs.

    python3 tools/cli_outputs.py <checkout> <dest>

Imports ``cqdeph`` from ``<checkout>/src`` and runs ``cli.run`` on each
``<checkout>/configs/*.cfg`` and on the seed-1 ``dephasing-sparse``,
``dephasing-dense`` and ``reservoir-long`` inputs of
``<checkout>/perfbench/workloads.py``, writing the files of each run into
``<dest>/<config stem or workload name>/``.  Run it on two checkouts and
``diff -r`` the two destinations to see every byte a change moved.
"""

from __future__ import annotations

import glob
import os
import sys
import tempfile

WORKLOADS = ("dephasing-sparse", "dephasing-dense", "reservoir-long")
SEED = 1


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
