"""The repository tools under tools/."""

import importlib.util
import pathlib

_TOOLS = pathlib.Path(__file__).resolve().parent.parent / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, _TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_SOURCE = '''"""Module docstring,
over two lines."""

# a comment line
import math


class Box:
    """Class docstring."""

    size = 2  # a trailing comment keeps the line


def area(r):
    """Function docstring
    over two lines.
    """
    text = """a string that is
    not a docstring"""
    return math.pi * r * r, text
'''


def test_code_lines_skips_docstrings_comments_and_blank_lines(tmp_path,
                                                               capsys):
    code_lines = _load("code_lines")
    # import, class, size, def, the two lines of text, return
    assert code_lines.code_lines(_SOURCE) == 7
    for name, text in (("a", _SOURCE), ("b", _SOURCE + "x = 1\n")):
        package = tmp_path / name / "src" / "cqdeph"
        package.mkdir(parents=True)
        (package / "mod.py").write_text(text)
    assert code_lines.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["module", "a", "b"], ["mod.py", "7", "8"],
                    ["total", "7", "8"]]
