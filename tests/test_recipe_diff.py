"""Tests for the cell-by-cell CSV and JSON comparison in tools/."""

import importlib.util
import json
import os

_PATH = os.path.join(os.path.dirname(__file__), "..", "tools", "recipe_diff.py")
_SPEC = importlib.util.spec_from_file_location("recipe_diff", _PATH)
recipe_diff = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(recipe_diff)


def _tree(root, files):
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    return root


def test_reports_differing_cells_and_their_largest_relative_difference(tmp_path, capsys):
    same = "theta,el\n0.5,1.25\n"
    a = _tree(tmp_path / "a", {
        "csv/same.csv": same,
        "csv/last_bits.csv": "theta,el,lower_bound\n0.1,2,1\n0.5,3,4\n",
        "json/text.csv": "method,value\nscore,1\n",
        "json/shape.csv": "x\n1\n",
        "csv/only_a.csv": same,
        "csv/same.stdout": "not compared",
    })
    b = _tree(tmp_path / "b", {
        "csv/same.csv": same,
        "csv/last_bits.csv": "theta,el,lower_bound\n0.1,2.000000000000001,1\n0.5,3,3.9999\n",
        "json/text.csv": "method,value\nproposed,1\n",
        "json/shape.csv": "x,y\n1,2\n",
        "csv/same.stdout": "differs, but is no CSV",
    })
    assert recipe_diff.main([str(a), str(b)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "csv/last_bits.csv: 2 cells differ, max relative difference 2.5e-05",
        f"csv/only_a.csv: only in {a}",
        "json/shape.csv: differ in shape",
        "json/text.csv: 1 cells differ, max relative difference nan",
    ]


def _json(rows, notes=None, indent=None):
    payload = {"columns": ["theta", "el"], "rows": rows}
    if notes is not None:
        payload["notes"] = notes
    return json.dumps(payload, indent=indent) + "\n"


def test_reads_json_as_json(tmp_path, capsys):
    # recipe --format json writes JSON into the recipe's .csv names, in any
    # layout: its columns, rows and notes are the cells.
    a = _tree(tmp_path / "a", {
        "json/last_bits.csv": _json([[0.5, 1.25], [0.7, 2.0]]),
        "json/rows.csv": _json([[1, 2]]),
        "json/type.csv": _json([[0.5, 1.0]], indent=2),
        "json/notes.csv": _json([[0.5, 1.25]], notes=["n = 5"], indent=2),
        "json/same.csv": _json([[0.5, 1.25]], indent=2),
    })
    b = _tree(tmp_path / "b", {
        "json/last_bits.csv": _json([[0.5, 1.25], [0.7, 2.0000000000000004]]),
        "json/rows.csv": _json([[1], [2]]),
        "json/type.csv": _json([[0.5, 1]], indent=2),
        "json/notes.csv": _json([[0.5, 1.25]], notes=["n = 6"], indent=2),
        "json/same.csv": _json([[0.5, 1.25]], indent=2),
    })
    assert recipe_diff.main([str(a), str(b)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "json/last_bits.csv: 1 cells differ, max relative difference 2.22e-16",
        "json/notes.csv: 1 cells differ, max relative difference nan",
        "json/rows.csv: differ in shape",
        "json/type.csv: 1 cells differ, max relative difference 0",
    ]


def test_identical_trees_print_nothing(tmp_path, capsys):
    files = {"csv/fig.csv": "theta,el\n0.5,1\n"}
    a, b = _tree(tmp_path / "a", files), _tree(tmp_path / "b", files)
    assert recipe_diff.main([str(a), str(b)]) == 0
    assert capsys.readouterr().out == ""


def test_usage(capsys):
    assert recipe_diff.main(["only-one"]) == 2
    assert "usage" in capsys.readouterr().err
