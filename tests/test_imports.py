"""What importing the package and running its CLI loads: numpy, never scipy or
mpmath, and only the modules a scenario uses; and that every exported
function has a caller."""

import ast
import glob
import inspect
import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
SRC = os.path.join(ROOT, "src")
CONFIGS = os.path.join(ROOT, "configs")


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


def _references(source: str, strings: bool = False) -> set[str]:
    """The names a module refers to as an attribute (``spectrum.levels``) or
    an imported name (``from .spectrum import levels``), and with
    ``strings`` as a string too (the benchmark patches a function by its
    name, ``wrap(bath, "q1_grid", ...)``); a local variable of the same name
    is none of these."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
        elif strings and isinstance(node, ast.Constant) and \
                isinstance(node.value, str):
            found.add(node.value)
    return found


def test_every_exported_function_has_a_caller():
    # a caller is a src/cqdeph module other than the function's own and
    # the export table, the README's python quick start, or the benchmark
    # under perfbench/
    import cqdeph

    refs = {}
    for path in glob.glob(os.path.join(SRC, "cqdeph", "*.py")):
        if os.path.basename(path) != "__init__.py":  # not the export table
            with open(path, encoding="utf-8") as f:
                refs[os.path.realpath(path)] = _references(f.read())
    for path in glob.glob(os.path.join(ROOT, "perfbench", "*.py")):
        with open(path, encoding="utf-8") as f:
            refs[path] = _references(f.read(), strings=True)
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as f:
        blocks = re.findall(r"```python\n(.*?)```", f.read(), re.S)
    assert blocks
    refs["README.md"] = set().union(*map(_references, blocks))
    uncalled = []
    for name in cqdeph.__all__:
        obj = getattr(cqdeph, name)
        if not inspect.isfunction(obj):
            continue
        own = os.path.realpath(inspect.getsourcefile(obj))
        if not any(name in found for path, found in refs.items() if path != own):
            uncalled.append(name)
    assert uncalled == []
