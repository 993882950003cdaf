"""The package imports numpy only: neither scipy nor mpmath may load."""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")


def test_import_loads_neither_scipy_nor_mpmath():
    # a fresh interpreter, since this one may already hold them
    code = ("import sys, cqdeph, cqdeph.cli; "
            "print(sorted(m for m in ('scipy', 'mpmath') if m in sys.modules))")
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": path})
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


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
