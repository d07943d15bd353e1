"""Smoke runs of the experiment scripts at a tiny size."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _script_env():
    """The environment with this checkout's src first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


@pytest.mark.parametrize(
    "script, outputs",
    [
        (
            "run_figure1.py",
            ["metrics.csv", "replications.csv", "bias_over_stde.svg", "relative_rmse.svg",
             "coverage.svg"],
        ),
        ("run_overlap_sweep.py", ["sweep.csv"]),
    ],
)
def test_experiment_script_writes_its_outputs(tmp_path, script, outputs):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), "--out-dir", str(tmp_path),
         "--q", "2", "--n", "60"],
        capture_output=True, text=True, env=_script_env(), cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(outputs)
    for name in outputs:
        text = (tmp_path / name).read_text()
        if name.endswith(".svg"):
            assert text.startswith("<svg") and text.rstrip().endswith("</svg>")
        else:
            assert len(text.splitlines()) > 1  # a header and at least one row


ESTIMATE_HEADER = "estimator,a,t,point,std_error,ci_low,ci_high,n\n"
ESTIMATE_ROWS = (
    "dr,diff,5,0.065247621752669961,0.045090260578838699,-0.023127665035380066,"
    "0.15362290854071997,200\n"
    "balance,diff,10,0.041,0.02,0.0024,0.0796,200\n"
)


BOUND_CASES = pytest.mark.parametrize(
    "old, new, agree",
    [
        # dr by 1e-15 relative; balance's ci_low near 0 by 4e-12, 1.7e-9
        # relative but 2e-10 of its SE of 0.02
        ("0.065247621752669961", "0.065247621752670026", True),
        ("0.0024,0.0796", "0.0024000000040000002,0.0796", True),
        # balance's ci_low by 4e-10, 2e-8 of its SE
        ("0.0024,0.0796", "0.0024000004,0.0796", False),
        # dr's point by 1e-9 relative: the SE bound holds for balance only
        ("0.065247621752669961", "0.065247621817917583", False),
        ("dr,diff,5", "dr,1,5", False),
    ],
    ids=["dr-inside", "balance-inside", "balance-outside", "dr-outside", "label"],
)


def _compare_main():
    """scripts/compare_outputs.py's main, loaded in this process."""
    spec = importlib.util.spec_from_file_location("compare_outputs",
                                                  ROOT / "scripts" / "compare_outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


def _not_compared(out, first, second):
    """The summary of a pair that could not be compared: no deviation figures."""
    return (out.endswith(f"{first} vs {second}: could not be compared\n")
            and "largest deviation" not in out and "cells outside" not in out)


def test_compare_outputs_exits_with_its_status_and_usage(tmp_path):
    # the one run in a fresh interpreter: the script's exit code and usage line
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "compare_outputs.py"), str(tmp_path / "one.csv")],
        capture_output=True, text=True, env=_script_env(),
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("usage: python scripts/compare_outputs.py FIRST SECOND")


@BOUND_CASES
def test_compare_outputs_checks_the_reordering_bounds(tmp_path, capsys, old, new, agree):
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    first.write_text(ESTIMATE_HEADER + ESTIMATE_ROWS)
    assert old in ESTIMATE_ROWS
    second.write_text(ESTIMATE_HEADER + ESTIMATE_ROWS.replace(old, new, 1))
    assert _compare_main()([str(first), str(second)]) == (0 if agree else 1)
    out = capsys.readouterr().out
    assert ("0 cells outside the bounds" in out) == agree
    assert "largest deviation" in out


def test_compare_outputs_reports_a_short_row(tmp_path, capsys):
    # the second file's last row is cut after four of its eight cells
    last = "or,diff,25,0.1,0.02,0.06,0.14,200\n"
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    first.write_text(ESTIMATE_HEADER + ESTIMATE_ROWS + last)
    second.write_text(ESTIMATE_HEADER + ESTIMATE_ROWS + "or,diff,25,0.1\n")
    assert _compare_main()([str(first), str(second)]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    assert f"{second}: line 4 has 4 cells, expected 8" in captured.out
    assert _not_compared(captured.out, first, second)


def _jsonl(rows):
    """`estimate --format jsonl` records of ESTIMATE_HEADER-style CSV rows."""
    keys = ESTIMATE_HEADER.strip().split(",")
    lines = []
    for row in rows.splitlines():
        values = [json.loads(cell) if cell[0].isdigit() or cell[0] == "-" else cell
                  for cell in row.split(",")]
        lines.append(json.dumps(dict(zip(keys, values))) + "\n")
    return "".join(lines)


@BOUND_CASES
def test_compare_outputs_reads_jsonl_with_the_same_bounds(tmp_path, capsys, old, new, agree):
    first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
    first.write_text(_jsonl(ESTIMATE_ROWS))
    second.write_text(_jsonl(ESTIMATE_ROWS.replace(old, new, 1)))
    assert first.read_text() != second.read_text()
    assert _compare_main()([str(first), str(second)]) == (0 if agree else 1)
    out = capsys.readouterr().out
    assert ("0 cells outside the bounds" in out) == agree
    assert "header" not in out


def test_compare_outputs_names_a_bad_jsonl_line(tmp_path, capsys):
    first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
    first.write_text(_jsonl(ESTIMATE_ROWS))
    records = _jsonl(ESTIMATE_ROWS).splitlines()
    for text, problem in (
        (records[0] + "\n{\"estimator\": ", "line 2 is not JSON"),
        (records[0] + "\n" + records[1].replace('"n"', '"m"'), "line 2 is not an object with keys"),
        ("", "no records"),
    ):
        second.write_text(text)
        assert _compare_main()([str(first), str(second)]) == 1
        out = capsys.readouterr().out
        assert f"{second}: {problem}" in out
        assert _not_compared(out, first, second)


@pytest.mark.parametrize("missing", ["absent", "directory"])
def test_compare_outputs_reports_a_file_it_cannot_read(tmp_path, capsys, missing):
    first = tmp_path / "first.csv"
    first.write_text(ESTIMATE_HEADER + ESTIMATE_ROWS)
    second = tmp_path / "second.csv"
    if missing == "directory":
        second.mkdir()
    assert _compare_main()([str(first), str(second)]) == 1
    reason = "Is a directory" if missing == "directory" else "No such file or directory"
    out = capsys.readouterr().out
    assert f"cannot read {second}: {reason}" in out
    assert _not_compared(out, first, second)
