"""Which public calls are traced, and the per-layer metrics built from them.

Every wrapper is installed at the module attribute the caller looks up, so
``cli`` calling ``evolve_reduced`` is traced at ``cqdeph.cli.evolve_reduced``
and ``validate`` calling the oracle at ``cqdeph.validation.finite_bath_oracle``.
Values marked *computed* come from sizes, not from a measurement.
"""

from __future__ import annotations

import statistics

import numpy as np

from spans import Patch, Tracer, self_times

# name -> unit, in the order BENCHMARK.json lists them
PER_LAYER = {
    "cli.load_config.s": "s",
    "cli.run.self_s": "s",
    "bath.q_grid.self_s": "s",
    "bath.integrals": "count",
    "kernels.quad_ohmic.s": "s",
    "kernels.quad_ohmic.calls": "count",
    "kernels.quad_ohmic.us_per_call": "us",
    "kernels.quad_ohmic.max_err_ratio": "1",
    "kernels.initial_panels.total": "count",
    "kernels.initial_panels.max": "count",
    "kernels.multipliers.s": "s",
    "kernels.multipliers.calls": "count",
    "kernels.multipliers.elements": "count",
    "kernels.multipliers.bytes_computed": "B",
    "kernels.multipliers.useful_ratio": "1",
    "dynamics.evolve_reduced.self_s": "s",
    "dynamics.snapshot_bytes": "B",
    "dynamics.observables.purity.s": "s",
    "dynamics.observables.qubit_coherence.s": "s",
    "dynamics.observables.fidelity_to_initial.s": "s",
    "dynamics.fidelity_over_one": "count",
    "dynamics.finite_bath_oracle.s": "s",
    "dynamics.finite_bath_oracle.calls": "count",
    "dynamics.finite_bath_oracle.composite_dim_max": "count",
    "dynamics.finite_bath_oracle.max_deviation": "1",
    "validation.run_all.s": "s",
    "validation.finite_bath_oracle.s": "s",
    "validation.checks_passed": "count",
    "trace.overhead_s": "s",
}


def _support(rho) -> int:
    """Labels on which the density matrix has weight."""
    return int(np.count_nonzero(np.diagonal(np.asarray(rho.mat))))


def install(tracer: Tracer, cqdeph) -> Patch:
    """Trace every public call the workloads make; returns the undo handle."""
    cli, bath, kernels = cqdeph.cli, cqdeph.bath, cqdeph.kernels
    dynamics, validation = cqdeph.dynamics, cqdeph.validation
    patch = Patch()

    def wrap(module, attr, name, before=None, after=None):
        patch.set(module, attr, tracer.wrap(getattr(module, attr), name, before, after))

    wrap(cli, "load_config", "cli.load_config")
    wrap(cli, "run", "cli.run")

    wrap(bath, "q1_grid", "bath.q1_grid", after=lambda r, a, k: {"integrals": int(np.size(r))})
    wrap(bath, "q2_grid", "bath.q2_grid", after=lambda r, a, k: {"integrals": int(np.size(r))})

    def quad_after(result, args, kwargs):
        value, error = result
        return {"err_ratio": abs(error) / abs(value) if value else 0.0}

    wrap(kernels, "quad_ohmic", "kernels.quad_ohmic", after=quad_after)
    wrap(kernels, "initial_panels", "kernels.initial_panels",
         after=lambda r, a, k: {"panels": int(r[0].size)})

    def mult_before(args, kwargs):
        dim = int(np.size(args[0]))
        support = tracer.enclosing_attr("support")
        return {"dim": dim, "support": dim if support is None else support}

    wrap(kernels, "dephasing_multipliers", "kernels.dephasing_multipliers",
         before=mult_before)

    def evolve_before(args, kwargs):
        rho0, t_grid = args[0], args[4] if len(args) > 4 else kwargs["t_grid"]
        dim = rho0.mat.shape[0]
        return {"support": _support(rho0),
                "snapshot_bytes": int(np.size(t_grid)) * dim * dim * 16}

    for module in (cli, validation):
        wrap(module, "evolve_reduced", "dynamics.evolve_reduced", before=evolve_before)
    wrap(cli, "observables", lambda a, k: f"dynamics.observables.{a[1]}")

    def oracle_after(report, args, kwargs):
        return {"composite_dim": report.total_dim,
                "max_deviation": report.max_deviation}

    oracle_before = lambda a, k: {"support": _support(a[0])}  # noqa: E731
    wrap(dynamics, "finite_bath_oracle", "dynamics.finite_bath_oracle",
         oracle_before, oracle_after)
    wrap(validation, "finite_bath_oracle", "validation.finite_bath_oracle",
         oracle_before, oracle_after)
    wrap(validation, "run_all", "validation.run_all",
         after=lambda r, a, k: {"passed": sum(x.passed for x in r)})
    return patch


def run_metrics(spans, fidelity_over_one: int) -> dict[str, float]:
    """Per-layer figures of one traced workload run."""
    own = self_times(spans)
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    for span, own_s in zip(spans, own):
        total[span.name] = total.get(span.name, 0.0) + span.end - span.start
        self_s[span.name] = self_s.get(span.name, 0.0) + own_s
        calls[span.name] = calls.get(span.name, 0) + 1

    def attrs(name, key):
        return [s.attrs[key] for s in spans if s.name == name and key in s.attrs]

    quad_calls = calls.get("kernels.quad_ohmic", 0)
    quad_s = total.get("kernels.quad_ohmic", 0.0)
    mult_dims = attrs("kernels.dephasing_multipliers", "dim")
    mult_support = attrs("kernels.dephasing_multipliers", "support")
    elements = sum(d * d for d in mult_dims)
    panels = attrs("kernels.initial_panels", "panels")
    oracle = "dynamics.finite_bath_oracle"
    return {
        "cli.load_config.s": total.get("cli.load_config", 0.0),
        "cli.run.self_s": self_s.get("cli.run", 0.0),
        "bath.q_grid.self_s": self_s.get("bath.q1_grid", 0.0) + self_s.get("bath.q2_grid", 0.0),
        "bath.integrals": sum(attrs("bath.q1_grid", "integrals") + attrs("bath.q2_grid", "integrals")),
        "kernels.quad_ohmic.s": quad_s,
        "kernels.quad_ohmic.calls": quad_calls,
        "kernels.quad_ohmic.us_per_call": 1e6 * quad_s / quad_calls if quad_calls else 0.0,
        "kernels.quad_ohmic.max_err_ratio": max(attrs("kernels.quad_ohmic", "err_ratio"), default=0.0),
        "kernels.initial_panels.total": sum(panels),
        "kernels.initial_panels.max": max(panels, default=0),
        "kernels.multipliers.s": total.get("kernels.dephasing_multipliers", 0.0),
        "kernels.multipliers.calls": len(mult_dims),
        "kernels.multipliers.elements": elements,
        "kernels.multipliers.bytes_computed": 16 * elements,
        "kernels.multipliers.useful_ratio": (sum(s * s for s in mult_support) / elements
                                             if elements else 0.0),
        "dynamics.evolve_reduced.self_s": self_s.get("dynamics.evolve_reduced", 0.0),
        "dynamics.snapshot_bytes": sum(attrs("dynamics.evolve_reduced", "snapshot_bytes")),
        "dynamics.observables.purity.s": total.get("dynamics.observables.purity", 0.0),
        "dynamics.observables.qubit_coherence.s": total.get("dynamics.observables.qubit_coherence", 0.0),
        "dynamics.observables.fidelity_to_initial.s": total.get("dynamics.observables.fidelity_to_initial", 0.0),
        "dynamics.fidelity_over_one": fidelity_over_one,
        "dynamics.finite_bath_oracle.s": total.get(oracle, 0.0),
        "dynamics.finite_bath_oracle.calls": calls.get(oracle, 0),
        "dynamics.finite_bath_oracle.composite_dim_max": max(attrs(oracle, "composite_dim"), default=0),
        "dynamics.finite_bath_oracle.max_deviation": max(attrs(oracle, "max_deviation"), default=0.0),
        "validation.run_all.s": total.get("validation.run_all", 0.0),
        "validation.finite_bath_oracle.s": total.get("validation.finite_bath_oracle", 0.0),
        "validation.checks_passed": sum(attrs("validation.run_all", "passed")),
    }


def self_time_table(traces) -> dict[str, float]:
    """Self time per span name over all traced runs, largest first."""
    table: dict[str, float] = {}
    for spans in traces:
        for span, own in zip(spans, self_times(spans)):
            table[span.name] = table.get(span.name, 0.0) + own
    return dict(sorted(table.items(), key=lambda kv: -kv[1]))


def medians(per_run: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median(run[name] for run in per_run)
            for name in per_run[0]}
