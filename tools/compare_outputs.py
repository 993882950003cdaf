"""Compare two output trees of tools/cli_outputs.py number by number.

    python3 tools/compare_outputs.py <destA> <destB>

For every file under either tree it prints one line: ``identical`` when
the bytes agree, ``only in A``/``only in B`` when one tree lacks it, and
otherwise, for a CSV file, one line per column that differs with its
largest absolute and relative difference (relative to the larger
magnitude of the two cells), for a JSON file one line per differing leaf
with both values, and for any other file ``differ``.  A last line gives
the largest relative difference over all CSV cells, with its file and
column, so that the drift between two trees reads in one line.  Each
tree's own absolute path, which a run echoes where its config names a file
inside the tree (the table of ``tabulated-bath``), is read as one
placeholder, so two destinations of the same outputs compare identical.
The exit code is 0 when the trees are identical in that sense, 1 when
anything differs, 2 on a usage error.  Where ``diff -r`` only says that two
CSVs differ, this says by how much.
"""

from __future__ import annotations

import csv
import json
import os
import sys


def _files(root: str) -> set[str]:
    return {os.path.relpath(os.path.join(d, name), root)
            for d, _, names in os.walk(root) for name in names}


def _read(root: str, rel: str) -> bytes:
    """The bytes of ``root/rel`` with every ``root/`` in them, as an
    absolute path, replaced by ``<root>/``."""
    with open(os.path.join(root, rel), "rb") as f:
        data = f.read()
    prefix = os.path.join(os.path.abspath(root), "")
    return data.replace(os.fsencode(prefix), os.fsencode(os.path.join("<root>", "")))


def _csv_columns(data: bytes) -> dict[str, list[float]]:
    rows = list(csv.reader(data.decode("utf-8").splitlines()))
    return {name: [float(row[k]) for row in rows[1:]]
            for k, name in enumerate(rows[0])}


def compare_csv(data_a: bytes, data_b: bytes) -> tuple[list[str], tuple[float, str] | None]:
    """One line per column whose values differ, or whose presence or
    length does, and the largest relative difference of a cell with its
    column (None when no cell differs)."""
    a, b = _csv_columns(data_a), _csv_columns(data_b)
    worst = None
    lines = [f"{name}: only in {side}"
             for side, this, other in (("A", a, b), ("B", b, a))
             for name in this if name not in other]
    for name in (n for n in a if n in b):
        if len(a[name]) != len(b[name]):
            lines.append(f"{name}: {len(a[name])} rows against {len(b[name])}")
            continue
        diffs = [(abs(x - y), abs(x - y) / max(abs(x), abs(y)))
                 for x, y in zip(a[name], b[name]) if x != y]
        if diffs:
            largest = max(d[1] for d in diffs)
            lines.append(f"{name}: max abs {max(d[0] for d in diffs):.3e}, "
                         f"max rel {largest:.3e} "
                         f"({len(diffs)} of {len(a[name])} rows)")
            if worst is None or largest > worst[0]:
                worst = (largest, name)
    return lines, worst


def _leaves(tree, path: str = ""):
    if isinstance(tree, dict):
        for key in sorted(tree):
            yield from _leaves(tree[key], f"{path}.{key}" if path else key)
    elif isinstance(tree, list):
        for k, item in enumerate(tree):
            yield from _leaves(item, f"{path}[{k}]")
    else:
        yield path, tree


def compare_json(data_a: bytes, data_b: bytes) -> list[str]:
    """One line per leaf that differs or exists on one side only."""
    a, b = dict(_leaves(json.loads(data_a))), dict(_leaves(json.loads(data_b)))

    def show(leaves: dict, key: str) -> str:
        return repr(leaves[key]) if key in leaves else "(absent)"

    return [f"{key}: {show(a, key)} against {show(b, key)}"
            for key in sorted(a.keys() | b.keys())
            if key not in a or key not in b or a[key] != b[key]]


def compare_trees(dest_a: str, dest_b: str) -> tuple[list[str], bool]:
    """The report lines, and whether the two trees are identical, each
    with its own root read as ``<root>``."""
    files_a, files_b = _files(dest_a), _files(dest_b)
    lines = []
    same = True
    worst = None  # (relative difference, file, column)
    for rel in sorted(files_a | files_b):
        if rel not in files_b or rel not in files_a:
            lines.append(f"{rel}: only in {'A' if rel in files_a else 'B'}")
            same = False
            continue
        data_a, data_b = _read(dest_a, rel), _read(dest_b, rel)
        if data_a == data_b:
            lines.append(f"{rel}: identical")
            continue
        same = False
        if rel.endswith(".csv"):
            found, cell = compare_csv(data_a, data_b)
            if cell is not None and (worst is None or cell[0] > worst[0]):
                worst = (cell[0], rel, cell[1])
        elif rel.endswith(".json"):
            found = compare_json(data_a, data_b)
        else:
            found = []
        lines += [f"{rel}: {line}" for line in found] or [f"{rel}: differ"]
    lines.append("largest relative difference over all CSV cells: "
                 + (f"{worst[0]:.3e} in {worst[1]}, column {worst[2]}" if worst else "none"))
    return lines, same


def main(argv: list[str]) -> int:
    if len(argv) != 2 or not all(os.path.isdir(a) for a in argv):
        print("usage: python3 tools/compare_outputs.py <destA> <destB>",
              file=sys.stderr)
        return 2
    lines, same = compare_trees(*argv)
    print("\n".join(lines))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
