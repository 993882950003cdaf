"""The repository tools under tools/."""

import importlib.util
import json
import pathlib
import subprocess
import sys

from cqdeph import cli

_ROOT = pathlib.Path(__file__).resolve().parent.parent
_TOOLS = _ROOT / "tools"


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


def test_compare_outputs_reports_each_difference(tmp_path, capsys):
    compare_outputs = _load("compare_outputs")
    files = {
        "run/config_echo.cfg": ("a = 1\n", "a = 1\n"),
        "run/observables.csv": ("t,purity,fid\n0,1,1\n1,0.5,0.25\n",
                                "t,purity,fid\n0,1,1\n1,0.5000001,0.25\n"),
        "run/report.json": ('{"x": 1, "y": [1, 2]}', '{"x": 1, "y": [1, 3], "z": true}'),
        "run/notes.txt": ("a\n", "b\n"),
        "run/levels.csv": ("n\n1\n", None),
    }
    for rel, texts in files.items():
        for side, text in zip("ab", texts):
            if text is not None:
                (tmp_path / side / rel).parent.mkdir(parents=True, exist_ok=True)
                (tmp_path / side / rel).write_text(text)
    assert compare_outputs.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "run/config_echo.cfg: identical",
        "run/levels.csv: only in A",
        "run/notes.txt: differ",
        "run/observables.csv: purity: max abs 1.000e-07, max rel 2.000e-07 "
        "(1 of 2 rows)",
        "run/report.json: y[1]: 2 against 3",
        "run/report.json: z: (absent) against True",
        "largest relative difference over all CSV cells: 2.000e-07 in "
        "run/observables.csv, column purity",
    ]
    assert compare_outputs.main([str(tmp_path / "a"), str(tmp_path / "a")]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == (
        "largest relative difference over all CSV cells: none")


def test_compare_outputs_summary_takes_the_largest_cell_of_all_files(tmp_path, capsys):
    compare_outputs = _load("compare_outputs")
    files = {
        "one/trajectory.csv": ("t,re\n1,2\n2,4\n", "t,re\n1,2.000002\n2,4.00004\n"),
        "two/trajectory.csv": ("t,im\n1,-8\n", "t,im\n1,-8.0008\n"),
        "two/levels.csv": ("n,e\n1,3\n", "n,e\n1,3\n"),
    }
    for rel, texts in files.items():
        for side, text in zip("ab", texts):
            (tmp_path / side / rel).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / side / rel).write_text(text)
    assert compare_outputs.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 1
    # 8e-4 / 8.0008 beats 4e-5 / 4.00004 and 2e-6 / 2.000002
    assert capsys.readouterr().out.splitlines()[-1] == (
        "largest relative difference over all CSV cells: 9.999e-05 in "
        "two/trajectory.csv, column im")


def test_compare_outputs_reads_each_tree_root_as_one_placeholder(tmp_path, capsys):
    # a tabulated run echoes its table's absolute path, inside its own tree
    compare_outputs = _load("compare_outputs")
    for side in "ab":
        run = tmp_path / side / "run"
        run.mkdir(parents=True)
        table = str(run / "dens.txt")
        (run / "config_echo.cfg").write_text(f"table = {table}\n")
        (run / "report.json").write_text(json.dumps({"table": table}))
    assert compare_outputs.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 0
    assert capsys.readouterr().out.splitlines()[:2] == [
        "run/config_echo.cfg: identical", "run/report.json: identical"]
    # a path outside the tree still differs
    (tmp_path / "b" / "run" / "config_echo.cfg").write_text(
        f"table = {tmp_path / 'c' / 'run' / 'dens.txt'}\n")
    assert compare_outputs.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 1
    assert capsys.readouterr().out.splitlines()[0] == "run/config_echo.cfg: differ"


def test_bench_pairs_summarizes_each_metric():
    bench_pairs = _load("bench_pairs")
    # the reservoir-long run_s pairs of BENCH_13.json
    parent = [0.019973, 0.020158, 0.021821, 0.018073, 0.019081, 0.018442,
              0.019667, 0.016638, 0.017514, 0.019792]
    change = [0.01341, 0.01433, 0.014147, 0.014812, 0.013193, 0.013694,
              0.011817, 0.013521, 0.013023, 0.013354]
    got = bench_pairs.summarize(parent, change, "lower")
    assert got["parent"] == {"median": 0.019374, "q1": 0.018165,
                             "q3": 0.019928, "runs": parent}
    # BENCH_13.json took the quartiles before rounding the runs: q1 0.013234
    assert (got["change"]["median"], got["change"]["q1"],
            got["change"]["q3"]) == (0.013466, 0.013233, 0.014034)
    assert got["change_over_parent"] == 0.695
    assert got["change_better_pairs"] == 10
    assert (got["median_gain"], got["parent_iqr"]) == (0.005909, 0.001763)
    assert got["gain_holds"] is True
    # ties count for neither side; "higher" turns the comparison round
    flipped = bench_pairs.summarize([1.0, 2.0, 3.0], [1.0, 3.0, 2.0], "higher")
    assert flipped["change_better_pairs"] == 1
    assert flipped["change_over_parent"] == 1.0
    assert flipped["gain_holds"] is False
    # 9 of 10 pairs won is enough, but not with medians inside the parent's
    # quartiles; nor 8 of 10 with them far apart
    base = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    close = bench_pairs.summarize(base, [x - 1.0 for x in base[:9]] + [20.0], "lower")
    assert close["change_better_pairs"] == 9
    assert close["median_gain"] < close["parent_iqr"]
    assert close["gain_holds"] is False
    far = [x - 5.0 for x in base]
    assert bench_pairs.summarize(base, far, "lower")["gain_holds"] is True
    far[:2] = [30.0, 30.0]
    assert bench_pairs.summarize(base, far, "lower")["gain_holds"] is False
    assert bench_pairs.summarize(far, base, "higher")["gain_holds"] is False


def test_bench_pairs_finds_a_nested_pycache(tmp_path):
    bench_pairs = _load("bench_pairs")
    (tmp_path / "src" / "cqdeph").mkdir(parents=True)
    assert bench_pairs.has_pycache(str(tmp_path)) is False
    (tmp_path / "src" / "cqdeph" / "__pycache__").mkdir()
    assert bench_pairs.has_pycache(str(tmp_path)) is True


def test_cli_outputs_writes_one_run_per_config_and_workload(tmp_path):
    # every byte-identity check of a change reads these directories
    dest = tmp_path / "out"
    done = subprocess.run(
        [sys.executable, str(_TOOLS / "cli_outputs.py"), str(_ROOT), str(dest)],
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    configs = {p.stem for p in (_ROOT / "configs").glob("*.cfg")}
    tool = _load("cli_outputs")
    workloads, variants = set(tool.WORKLOADS), set(tool.VARIANTS)
    assert configs and workloads and variants == {
        "tabulated-bath", "subohmic-thermal", "temperature-log-grid",
        "coherent-mode-b", "pairs-edge", "device-flux", "device-overrides",
        "spectrum-rational"}
    expected = configs | workloads | variants
    assert {p.name for p in dest.iterdir()} == expected
    for name in expected:
        assert (dest / name / "report.json").is_file(), name
        assert (dest / name / "config_echo.cfg").is_file(), name
    # the variants' inputs sit beside their outputs, and each ran its bath
    assert (dest / "tabulated-bath" / "dens.txt").is_file()
    for name, family in (("tabulated-bath", "tabulated"), ("subohmic-thermal", "ohmic")):
        bath = json.loads((dest / name / "report.json").read_text())["bath"]
        assert bath["family"] == family and bath["beta"] == 2.0
        assert (dest / name / "observables.csv").is_file()
    assert json.loads((dest / "subohmic-thermal" / "report.json").read_text()
                      )["bath"]["exponent"] == 0.3
    # the shipped configs and the variants set every key of the key table
    given = set()
    for path in [*(_ROOT / "configs").glob("*.cfg"), *dest.glob("*/run.cfg")]:
        given.update(cli._tokenize(str(path))[0])
    for row in cli._SCHEMA:
        key = f"{row.key}_0" if row.indexed else row.key
        assert (row.section, key) in given, (row.section, key)
