"""The README's Python quick start runs against the current API."""

import os
import re

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_readme_quick_start_runs(capsys):
    with open(README, encoding="utf-8") as f:
        text = f.read()
    block = re.search(r"^```python\n(.*?)^```", text, re.M | re.S)
    assert block is not None, "README has no python block"
    exec(compile(block.group(1), "README.md", "exec"), {})
    assert "|rho| = " in capsys.readouterr().out
