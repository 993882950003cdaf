"""Tests of the benchmark's own code.

    python3 -m pytest perfbench -q

The output-check tests run three real workloads once each (about ten
seconds) and then corrupt copies of their output files.
"""

import json
import os
import shutil
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from spans import Span, Tracer, self_times  # noqa: E402


# ------------------------------------------------------------- generator

@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(name, tmp_path):
    a = workloads.write(name, 11, str(tmp_path / "a"))
    b = workloads.write(name, 11, str(tmp_path / "b"))
    assert a.keys() == b.keys()
    for key in a:
        with open(a[key], "rb") as fa, open(b[key], "rb") as fb:
            assert fa.read() == fb.read()


def test_seed_moves_only_the_seeded_workloads():
    for name in workloads.WORKLOADS:
        differs = workloads.generate(name, 1) != workloads.generate(name, 2)
        assert differs == (name in ("dephasing-dense", "oracles"))


def test_dense_workload_shape():
    text = workloads.generate("dephasing-dense", 3)["run.cfg"]
    lines = text.splitlines()
    assert sum(line.startswith("amp_") for line in lines) == 288
    assert sum(line.startswith("pair_") for line in lines) == workloads.DENSE_PAIRS


# ------------------------------------------------------------- self time

def _span(name, start, end, parent=None):
    return Span(name, start, end, parent, "run-0")


def test_self_time_of_nested_spans():
    spans = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 4.0, parent=0),
        _span("a.inner", 2.0, 3.0, parent=1),
        _span("b", 5.0, 9.0, parent=0),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_self_time_counts_overlapping_children_once():
    spans = [
        _span("root", 0.0, 10.0),
        _span("x", 2.0, 6.0, parent=0),
        _span("y", 4.0, 8.0, parent=0),
        _span("z", 9.0, 12.0, parent=0),   # runs past its parent's end
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_run_metrics_use_self_time_of_nested_layers():
    import layers

    spans = [
        _span("cli.run", 0.0, 10.0),
        _span("dynamics.evolve_reduced", 1.0, 9.0, parent=0),
        _span("kernels.dephasing_multipliers", 2.0, 3.0, parent=1),
        _span("kernels.dephasing_multipliers", 4.0, 6.0, parent=1),
    ]
    spans[1].attrs["snapshot_bytes"] = 64
    for span in spans[2:]:
        span.attrs.update(dim=4, support=2)
    got = layers.run_metrics(spans, fidelity_over_one=0)
    assert got["cli.run.self_s"] == pytest.approx(2.0)
    assert got["dynamics.evolve_reduced.self_s"] == pytest.approx(5.0)
    assert got["kernels.multipliers.s"] == pytest.approx(3.0)
    assert got["kernels.multipliers.elements"] == 32
    assert got["kernels.multipliers.useful_ratio"] == pytest.approx(0.25)
    assert got["dynamics.snapshot_bytes"] == 64
    assert set(got) | {"trace.overhead_s"} == set(layers.PER_LAYER)


def test_tracer_links_parents_and_run_ids():
    tracer = Tracer("run-7")
    inner = tracer.wrap(lambda x: x + 1, "inner")
    outer = tracer.wrap(lambda x: inner(x) * 2, "outer")
    assert outer(1) == 4
    assert [(s.name, s.parent, s.run_id) for s in tracer.spans] == [
        ("outer", None, "run-7"), ("inner", 0, "run-7")]
    own = self_times(tracer.spans)
    assert own[0] <= tracer.spans[0].end - tracer.spans[0].start
    assert all(t >= 0.0 for t in own)


# ------------------------------------------------------------- output checks

@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """One clean run of each kind of workload: name -> (out dir, trajectory)."""
    import cqdeph
    import cqdeph.cli  # noqa: F401
    import run

    base = tmp_path_factory.mktemp("runs")
    done = {}
    for name in ("dephasing-dense", "reservoir-long", "oracles"):
        inputs = workloads.write(name, 5, str(base / name / "inputs"))
        workload = run.Workload(cqdeph, name, inputs)
        out = str(base / name / "out")
        try:
            workload.run(out)
        finally:
            workload.close()
        done[name] = (out, workload.trajectory)
    return done


def _copy(out, tmp_path):
    dest = str(tmp_path / "copy")
    shutil.copytree(out, dest)
    return dest


def _set_cell(path, column, row, value):
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()
    header = lines[0].split(",")
    cells = lines[row + 1].split(",")
    cells[header.index(column)] = repr(value)
    lines[row + 1] = ",".join(cells)
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


def _edit_json(path, key, value):
    with open(path, encoding="utf-8") as f:
        data = json.load(f)
    data[key] = value
    with open(path, "w", encoding="utf-8") as f:
        json.dump(data, f)


@pytest.fixture(scope="module")
def dephasing(outputs):
    out, traj = outputs["dephasing-dense"]
    pops = np.einsum("tii->ti", traj.snapshots).copy()
    return out, pops, traj.rho0.diagonal().copy()


def test_dephasing_check_passes_clean_outputs(dephasing):
    out, pops, initial = dephasing
    assert checks.check_dephasing(out, pops, initial) == []


def test_dephasing_check_flags_a_grown_coherence(dephasing, tmp_path):
    out, pops, initial = dephasing
    bad = _copy(out, tmp_path)
    path = os.path.join(bad, "trajectory.csv")
    first = checks.read_columns(path)["abs_p0"][0]
    _set_cell(path, "abs_p0", 5, first + 1e-9)
    assert any("abs_p0" in p for p in checks.check_dephasing(bad, pops, initial))


def test_dephasing_check_flags_purity_above_one(dephasing, tmp_path):
    out, pops, initial = dephasing
    bad = _copy(out, tmp_path)
    _set_cell(os.path.join(bad, "observables.csv"), "purity", 3, 1.0 + 1e-9)
    assert any("purity" in p for p in checks.check_dephasing(bad, pops, initial))


def test_dephasing_check_flags_moving_populations(dephasing):
    out, pops, initial = dephasing
    moved = pops.copy()
    moved[-1, 7] += 1e-9
    assert any("populations" in p for p in checks.check_dephasing(out, moved, initial))


def test_fidelity_over_one_counts_and_does_not_fail(dephasing, tmp_path):
    out, pops, initial = dephasing
    bad = _copy(out, tmp_path)
    path = os.path.join(bad, "observables.csv")
    before = checks.fidelity_over_one(bad)
    _set_cell(path, "fidelity_to_initial", 10, 1.5)
    assert checks.fidelity_over_one(bad) == before + 1
    assert checks.check_dephasing(bad, pops, initial) == []


def test_reservoir_check(outputs, tmp_path):
    out, _ = outputs["reservoir-long"]
    assert checks.check_reservoir(out, workloads.BATH_COUPLING, workloads.OMEGA_C) == []
    bad = _copy(out, tmp_path)
    path = os.path.join(bad, "trajectory.csv")
    dphi = checks.read_columns(path)["dphi_p1"][100]
    _set_cell(path, "dphi_p1", 100, dphi * (1.0 + 1e-5))
    problems = checks.check_reservoir(bad, workloads.BATH_COUPLING, workloads.OMEGA_C)
    assert any("dphi_p1" in p for p in problems)


def test_reservoir_check_flags_phase_on_a_protected_pair(outputs, tmp_path):
    out, _ = outputs["reservoir-long"]
    bad = _copy(out, tmp_path)
    _set_cell(os.path.join(bad, "trajectory.csv"), "dphi_p0", 40, 1e-9)
    problems = checks.check_reservoir(bad, workloads.BATH_COUPLING, workloads.OMEGA_C)
    assert any("dphi_p0" in p for p in problems)


def test_oracle_check(outputs, tmp_path):
    out, _ = outputs["oracles"]
    assert checks.check_oracles(out) == []
    bad = _copy(out, tmp_path)
    _edit_json(os.path.join(bad, "oracle.json"), "max_deviation", [1e-15, 2e-6])
    assert any("bath cutoff 12" in p for p in checks.check_oracles(bad))
    bad = str(tmp_path / "second")
    shutil.copytree(out, bad)
    _edit_json(os.path.join(bad, "report.json"), "all_passed", False)
    assert any("validate" in p for p in checks.check_oracles(bad))


def test_same_outputs_flags_one_changed_byte(outputs, tmp_path):
    out, _ = outputs["reservoir-long"]
    bad = _copy(out, tmp_path)
    assert checks.same_outputs(out, bad) == []
    path = os.path.join(bad, "report.json")
    with open(path, "rb") as f:
        data = bytearray(f.read())
    data[-2] ^= 1
    with open(path, "wb") as f:
        f.write(bytes(data))
    assert checks.same_outputs(out, bad) == ["report.json differs between two runs"]


def test_benchmark_json_names_every_per_layer_metric():
    import layers

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    listed = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert listed == layers.PER_LAYER
