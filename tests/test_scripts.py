"""Smoke runs of the experiment scripts at a tiny size."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


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
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), "--out-dir", str(tmp_path),
         "--q", "2", "--n", "60"],
        capture_output=True, text=True, env=env, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(outputs)
    for name in outputs:
        text = (tmp_path / name).read_text()
        if name.endswith(".svg"):
            assert text.startswith("<svg") and text.rstrip().endswith("</svg>")
        else:
            assert len(text.splitlines()) > 1  # a header and at least one row
