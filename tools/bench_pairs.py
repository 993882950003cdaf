"""Run the benchmark on two checkouts in alternating pairs and record both.

    python3 tools/bench_pairs.py <parent-checkout> <change-checkout> --out BENCH_<n>.json
        [--workloads a,b,...] [--pairs 10] [--seconds 25] [--first-seed 1]

For every workload, pair p runs ``python3 perfbench/run.py --workload <w>
--seed <first-seed + p> --seconds <s> --trace 0`` once in each checkout, as
the checkout has it: the parent first in even pairs, the change first in odd
ones.  Then each side makes one traced run (``--trace 1``, the first seed,
parent first).  The record holds, per workload and end-to-end metric, each
side's runs with their median and quartiles, the ratio of the medians
(change over parent), the number of pairs the change won and whether a gain
holds (at least 9 of 10 pairs won, and the medians further apart than the
parent's quartiles, in the change's favour); the failed and
attempted operations of every run; the per-layer metrics of the traced runs;
and the environment that ``perfbench/run.py`` reports.  It also records the
``PYTHONDONTWRITEBYTECODE`` setting and whether each checkout held
``__pycache__`` directories before the first run and after the last: a
process that compiles the package from source pays that in ``setup_s``, and
the compiler's leftover heap shows in ``peak_rss_mb``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

SIDES = ("parent", "change")


def quartiles(runs: list[float]) -> dict:
    """Median and quartiles, interpolated linearly between order statistics."""
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": round(median, 6), "q1": round(q1, 6), "q3": round(q3, 6),
            "runs": [round(x, 6) for x in runs]}


def summarize(parent: list[float], change: list[float], better: str) -> dict:
    """One metric over the pairs (parent[p], change[p]); ``better`` is
    "lower" or "higher".  A tie counts for neither side.

    ``gain_holds`` is the verdict on a claimed gain: the change won at least
    nine tenths of the pairs, and its median is better than the parent's by
    more than the parent's interquartile range (``median_gain`` against
    ``parent_iqr``)."""
    sign = 1.0 if better == "lower" else -1.0
    won = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    gain = sign * (statistics.median(parent) - statistics.median(change))
    return {"parent": quartiles(parent), "change": quartiles(change),
            "change_over_parent": round(statistics.median(change)
                                        / statistics.median(parent), 4),
            "change_better_pairs": won,
            "median_gain": round(gain, 6), "parent_iqr": round(q3 - q1, 6),
            "gain_holds": 10 * won >= 9 * len(parent) and gain > q3 - q1}


def run_bench(checkout: str, workload: str, seed: int, seconds: float,
              trace: int) -> tuple[dict, dict]:
    """One benchmark run in ``checkout``: (result line, environment)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          check=True)
    lines = [json.loads(line) for line in done.stdout.splitlines() if line.startswith("{")]
    return lines[-1], lines[0]["environment"]


def has_pycache(checkout: str) -> bool:
    """Whether ``checkout`` holds a ``__pycache__`` directory."""
    return any("__pycache__" in dirs for _, dirs, _ in os.walk(checkout))


def git_head(checkout: str) -> str:
    got = subprocess.run(["git", "-C", checkout, "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return got.stdout.strip() or "unknown (not a git checkout)"


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--out", required=True)
    parser.add_argument("--workloads",
                        default="dephasing-sparse,dephasing-dense,reservoir-long,oracles")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    checkouts = dict(zip(SIDES, (os.path.abspath(args.parent),
                                 os.path.abspath(args.change))))
    with open(os.path.join(checkouts["change"], "BENCHMARK.json"), encoding="utf-8") as f:
        better = {m["name"]: m["better"] for m in json.load(f)["end_to_end"]}

    record = {
        "parent_commit": git_head(checkouts["parent"]),
        "change_commit": git_head(checkouts["change"]),
        "command": f"python3 perfbench/run.py --workload <name> --seed <pair + "
                   f"{args.first_seed}> --seconds {args.seconds:g} --trace 0",
        "pairs": f"{args.pairs} on each workload, pair p at seed p + "
                 f"{args.first_seed} on both sides, alternating: parent first "
                 "in even pairs, change first in odd ones; then one traced run "
                 f"per side and workload (--trace 1, seed {args.first_seed}), "
                 "parent first. Each side ran from its own checkout",
        "environment": None,
        "python_dont_write_bytecode": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "pycache": {side: {"before": has_pycache(path)}
                    for side, path in checkouts.items()},
        "workloads": {}, "traced": {},
    }
    for workload in args.workloads.split(","):
        results = {side: [] for side in SIDES}
        for p in range(args.pairs):
            order = SIDES if p % 2 == 0 else SIDES[::-1]
            for side in order:
                result, env = run_bench(checkouts[side], workload,
                                        p + args.first_seed, args.seconds, 0)
                results[side].append(result)
                record["environment"] = {k: v for k, v in env.items() if k != "commit"}
                print(f"{workload} pair {p} {side}: run_s "
                      f"{result['metrics']['run_s']['value']:.6f}", file=sys.stderr)
        row = {name: summarize(*([r["metrics"][name]["value"] for r in results[side]]
                                 for side in SIDES), better[name])
               for name in better}
        for count in ("failed", "attempted"):
            row[count] = {side: [r[count] for r in results[side]] for side in SIDES}
        record["workloads"][workload] = row
        traced = {}
        for side in SIDES:
            result, _ = run_bench(checkouts[side], workload, args.first_seed,
                                  args.seconds, 1)
            traced[side] = {name: m["value"] for name, m in result["metrics"].items()}
            traced[side]["failed"] = result["failed"]
        record["traced"][workload] = traced
    for side, path in checkouts.items():
        record["pycache"][side]["after"] = has_pycache(path)
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
