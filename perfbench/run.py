"""Benchmark of the cqdeph package: four workloads, timed end to end.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the package is imported from
``src/`` and nothing is installed.  One process runs the chosen workload
back to back (a closed loop with one caller) for ``--seconds`` seconds and
checks the outputs of every run.  Before the timed runs it runs the four
shipped ``configs/*.cfg`` once (smoke pass, also the warm-up); afterwards it
compares the outputs of the first two runs byte for byte and times set-up
in fresh interpreters.  The last line of standard output is the result
object; the lines before it record the environment and the raw samples.

With ``--trace 1`` every second run is traced (see ``layers.py``) and the
result carries the per-layer metrics instead of the end-to-end ones.
Inputs, outputs and traces live under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import checks
import workloads
from spans import Patch, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CONFIGS = os.path.join(ROOT, "configs")
STATE_DIR = os.path.join(ROOT, ".perfbench")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 5       # at least; one more after each run, up to the maximum
MAX_SETUP_SAMPLES = 9
MIN_RUNS = 2        # the determinism check compares two runs


class Workload:
    """One workload's generated inputs and a single run over them."""

    def __init__(self, cqdeph, name: str, inputs: dict[str, str]):
        self.cqdeph = cqdeph
        self.name = name
        self.trajectory = None
        self.patch = Patch()
        if name == "oracles":
            with open(inputs["oracle.json"], encoding="utf-8") as f:
                spec = json.load(f)
            cut = cqdeph.FockCutoff(*spec["system_cutoff"])
            amp = [complex(re, im) for re, im in zip(spec["state_re"], spec["state_im"])]
            self.rho0 = cqdeph.StateVector.normalized(amp, cut).density()
            self.eff = cqdeph.EffectiveParams(**spec["effective"])
            self.spec = spec
            self.config = inputs["validate.cfg"]
        else:
            self.config = inputs["run.cfg"]
            # the outputs carry no populations, so the trajectory that
            # cli.run computed is kept for the population check
            evolve = cqdeph.cli.evolve_reduced

            def keep(*args, **kwargs):
                self.trajectory = evolve(*args, **kwargs)
                return self.trajectory

            self.patch.set(cqdeph.cli, "evolve_reduced", keep)

    def close(self) -> None:
        self.patch.restore()

    def run(self, out_dir: str) -> None:
        cq = self.cqdeph
        if self.name == "oracles":
            spec = self.spec
            reports = [
                cq.dynamics.finite_bath_oracle(
                    self.rho0, self.eff,
                    cq.FiniteBathSpec(spec["frequencies"], spec["couplings"], (nb, nb)),
                    spec["t_grid"])
                for nb in spec["bath_cutoffs"]
            ]
            os.makedirs(out_dir, exist_ok=True)
            with open(os.path.join(out_dir, "oracle.json"), "w", encoding="utf-8") as f:
                json.dump({"bath_cutoffs": spec["bath_cutoffs"],
                           "composite_dim": [r.total_dim for r in reports],
                           "max_deviation": [r.max_deviation for r in reports],
                           "deviation": [r.deviation.tolist() for r in reports]},
                          f, indent=1)
        cq.cli.run(cq.cli.load_config(self.config), out_dir)

    def check(self, out_dir: str) -> tuple[list[str], int]:
        """Problems found in one run's outputs, and its count of F > 1."""
        if self.name == "oracles":
            return checks.check_oracles(out_dir), 0
        if self.name == "reservoir-long":
            return checks.check_reservoir(out_dir, workloads.BATH_COUPLING,
                                          workloads.OMEGA_C), 0
        traj = self.trajectory
        if traj is None:
            return ["cli.run computed no trajectory"], 0
        populations = traj.snapshots.diagonal(axis1=1, axis2=2)
        problems = checks.check_dephasing(out_dir, populations, traj.rho0.diagonal())
        return problems, checks.fidelity_over_one(out_dir)


def smoke_pass(cqdeph, work: str) -> tuple[int, list[str]]:
    """Run every shipped config once: (configs run, one line per failure)."""
    names = sorted(n for n in os.listdir(CONFIGS) if n.endswith(".cfg"))
    problems = []
    for name in names:
        try:
            cfg = cqdeph.cli.load_config(os.path.join(CONFIGS, name))
            report = cqdeph.cli.run(cfg, os.path.join(work, "smoke", name))
        except Exception as exc:  # a failing config is a counted failure
            problems.append(f"{name}: {type(exc).__name__}: {exc}")
            continue
        if report.get("all_passed") is False:
            problems.append(f"{name}: validate reported failures")
    return len(names), problems


def setup_seconds(config: str) -> float:
    """Import plus load_config, in a fresh interpreter."""
    probe = os.path.join(HERE, "setup_probe.py")
    out = subprocess.run([sys.executable, probe, SRC, config], check=True,
                         capture_output=True, text=True, timeout=60)
    return float(out.stdout.split()[-1])


def tail(samples: list[float]) -> dict:
    """Highest percentile with at least ten samples beyond it, if any."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        return {"value": None, "percentile": None, "samples": n}
    return {"value": ordered[n - 11], "percentile": 100.0 * (n - 11) / (n - 1),
            "samples": n}


def environment(cqdeph) -> dict:
    import numpy as np

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        got = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        commit = got.stdout.strip() or commit
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ[BLAS_THREAD_VARS[0]]),
        "backend": cqdeph.kernels.active_backend(),
        "commit": commit,
    }


def measure(workload: Workload, seconds: float, trace: bool, work: str) -> dict:
    """Timed closed loop; with ``trace`` every second run is traced."""
    import gc

    import layers

    walls = {False: [], True: []}
    per_layer, traces, problems = [], [], []
    fid_over_one, setup = [], []
    start = time.perf_counter()
    k = failed = 0
    while True:
        traced = trace and k % 2 == 1
        out = os.path.join(work, "out", f"run-{min(k, MIN_RUNS)}")
        gc.collect()
        tracer = Tracer(f"run-{k}")
        patch = layers.install(tracer, workload.cqdeph) if traced else None
        t0 = time.perf_counter()
        try:
            workload.run(out)
        except Exception as exc:  # a raising run is a counted failure
            found = [f"{type(exc).__name__}: {exc}"]
        else:
            found = []
        finally:
            wall = time.perf_counter() - t0
            if patch:
                patch.restore()
        if not found:
            try:
                found, over = workload.check(out)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                found, over = [f"unreadable outputs: {exc!r}"], 0
            fid_over_one.append(over)
            walls[traced].append(wall)
            if traced:
                traces.append(tracer.spans)
                per_layer.append(layers.run_metrics(tracer.spans, over))
        workload.trajectory = None
        problems += [f"run {k}: {p}" for p in found]
        failed += bool(found)
        k += 1
        # set-up samples taken between runs spread over the whole loop
        if len(setup) < MAX_SETUP_SAMPLES:
            setup.append(setup_seconds(workload.config))
        if k >= MIN_RUNS and time.perf_counter() - start + wall > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while len(setup) < SETUP_SAMPLES:
        setup.append(setup_seconds(workload.config))
    return {"runs": k, "failed": failed, "walls": walls[False], "traced_walls": walls[True],
            "per_layer": per_layer, "problems": problems, "traces": traces,
            "fidelity_over_one": fid_over_one, "peak_rss_mb": peak_rss_mb,
            "setup": setup}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (os.path.isfile(os.path.join(SRC, "cqdeph", "__init__.py"))
            and os.path.isdir(CONFIGS)):
        print(f"perfbench: no cqdeph sources under {ROOT}; run from a source "
              "checkout", file=sys.stderr)
        return 2

    threads = str(len(os.sched_getaffinity(0)))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = threads
    sys.path.insert(0, SRC)
    import cqdeph
    import cqdeph.cli  # noqa: F401  (the package does not import its CLI)
    import layers

    os.makedirs(STATE_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix="work-", dir=STATE_DIR)
    try:
        inputs = workloads.write(args.workload, args.seed, os.path.join(work, "inputs"))
        workload = Workload(cqdeph, args.workload, inputs)
        try:
            configs_run, smoke = smoke_pass(cqdeph, work)
            got = measure(workload, args.seconds, bool(args.trace), work)
        finally:
            workload.close()
        same = checks.same_outputs(os.path.join(work, "out", "run-0"),
                                   os.path.join(work, "out", "run-1"))
        env = environment(cqdeph)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems = got["problems"] + [f"smoke {p}" for p in smoke] + \
        [f"determinism: {p}" for p in same]
    if not got["walls"] or (args.trace and not got["traced_walls"]):
        print("perfbench: every run raised:", *got["problems"], sep="\n", file=sys.stderr)
        return 1
    # operations: each run, the determinism check and each shipped config
    attempted = got["runs"] + 1 + configs_run
    failed = got["failed"] + bool(same) + len(smoke)
    untraced = statistics.median(got["walls"])
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "runs": got["runs"], "run_s_samples": got["walls"],
        "run_tail_s": tail(got["walls"]), "setup_s_samples": got["setup"],
        "failed_share": failed / attempted, "problems": problems,
        "fidelity_over_one": got["fidelity_over_one"],
    }
    if args.trace:
        traced = statistics.median(got["traced_walls"])
        values = layers.medians(got["per_layer"])
        values["trace.overhead_s"] = traced - untraced
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in layers.PER_LAYER.items()}
        detail["self_time_s"] = layers.self_time_table(got["traces"])
    else:
        metrics = {
            "setup_s": {"value": statistics.median(got["setup"]), "unit": "s"},
            "run_s": {"value": untraced, "unit": "s"},
            "peak_rss_mb": {"value": got["peak_rss_mb"], "unit": "MB"},
        }
    record = {"environment": env, "detail": detail, "metrics": metrics}
    if args.trace:
        record["spans"] = [vars(s) for run in got["traces"] for s in run]
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(STATE_DIR, name), "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)

    print(json.dumps({"environment": env}))
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
