"""Smoke test of the benchmark harness at tiny sizes (small n and Q).

    python3 -m pytest benchmark/test_smoke.py -q

Each workload runs once untraced and once traced; the result line must
carry exactly the metrics BENCHMARK.json declares, and every check must
pass. A directory without cfsurv's sources must make the harness fail
without printing a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--scale", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_result_line(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr + proc.stdout
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace:
        metrics = {name: v["value"] for name, v in result["metrics"].items()}
        layer_self = sum(v for name, v in metrics.items() if name.endswith(".self_s"))
        assert layer_self + metrics["remainder_s"] == pytest.approx(metrics["traced_wall_s"])
        assert metrics["hazard.fit_event.calls"] > 0 and metrics["hazard.newton_cells"] > 0
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_sources():
    bare = ROOT / "benchmark" / ".work" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "benchmark", bare / "benchmark",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = _run(bare, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
