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
