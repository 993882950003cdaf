"""What importing the package and running its CLI loads: numpy, never scipy or
mpmath, and only the modules a scenario uses."""

import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
CONFIGS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "configs")


def test_import_loads_neither_scipy_nor_mpmath():
    # a fresh interpreter, since this one may already hold them
    code = ("import sys, cqdeph, cqdeph.cli; "
            "print(sorted(m for m in ('scipy', 'mpmath') if m in sys.modules))")
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": path})
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


@pytest.mark.parametrize("scenario, config, unused", [
    ("dephasing", "dephasing_dfs.cfg", ["cqdeph.validation", "cqdeph.hamiltonians", "fractions"]),
    ("spectrum", "spectrum_dfs.cfg", ["cqdeph.validation"]),
])
def test_cli_call_loads_only_what_its_scenario_uses(scenario, config, unused, tmp_path):
    # a fresh interpreter, since this one has imported every module
    code = ("import sys; from cqdeph import cli; "
            f"code = cli.main([{scenario!r}, '--config', {os.path.join(CONFIGS, config)!r}, "
            f"'--out', {str(tmp_path)!r}]); "
            f"print(code, sorted(m for m in {unused!r} if m in sys.modules))")
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": path})
    assert res.returncode == 0, res.stderr
    assert res.stdout.split()[-2:] == ["0", "[]"]


def test_package_names_resolve_on_first_access():
    import cqdeph

    assert set(cqdeph.__all__) <= set(dir(cqdeph))
    for name in cqdeph.__all__:
        assert getattr(cqdeph, name) is not None
    assert cqdeph.run_all is cqdeph.validation.run_all
    with pytest.raises(AttributeError):
        cqdeph.no_such_name


def test_classes_holding_arrays_compare_by_identity():
    # a generated __eq__ would compare array fields and raise on the
    # ambiguous truth value of the result
    import dataclasses
    import importlib
    import pkgutil

    import cqdeph

    held = ("np.ndarray", "OperatorMatrix", "TabulatedSpectralDensity")
    found = []
    for mod in pkgutil.iter_modules(cqdeph.__path__):
        module = importlib.import_module(f"cqdeph.{mod.name}")
        for obj in vars(module).values():
            if not (dataclasses.is_dataclass(obj) and obj.__module__ == module.__name__):
                continue
            if any(f.compare and any(h in str(f.type) for h in held)
                   for f in dataclasses.fields(obj)):
                found.append(obj.__name__)
                assert obj.__eq__ is object.__eq__, obj.__name__
                assert obj.__hash__ is object.__hash__, obj.__name__
    assert {"OperatorMatrix", "StateVector", "DephasingTrajectory"} <= set(found)
