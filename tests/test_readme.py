"""The README's Python quick start runs against the current API, and its
config key table lists every key of the parser's table."""

import os
import re

from cqdeph import cli

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_readme_quick_start_runs(capsys):
    with open(README, encoding="utf-8") as f:
        text = f.read()
    block = re.search(r"^```python\n(.*?)^```", text, re.M | re.S)
    assert block is not None, "README has no python block"
    exec(compile(block.group(1), "README.md", "exec"), {})
    assert "|rho| = " in capsys.readouterr().out


def test_readme_key_table_lists_every_config_key():
    with open(README, encoding="utf-8") as f:
        text = f.read()
    section = text.split("## Config format", 1)[1].split("\n## ", 1)[0]
    table = re.search(r"^\| section \| key \|.*?\n\n", section, re.M | re.S)
    assert table is not None, "README has no config key table"
    # (section, key) -> the "required" column
    listed = {(row[0], row[1]): row[3] for row in
              ([cell.strip() for cell in line.strip("|").split("|")]
               for line in table.group(0).strip().splitlines()[2:])}
    for row in cli._SCHEMA:
        section_name = f"[{row.section}]" if row.section else "top level"
        key = f"`{row.key}_<k>`" if row.indexed else f"`{row.key}`"
        assert (section_name, key) in listed, (section_name, key)
        # a default is stated where the key table holds one, and only there
        assert ("default" in listed[section_name, key]) == \
            (row.default is not None), (section_name, key)
    assert len(listed) == len(cli._SCHEMA)
