import csv
import os

import numpy as np
import pytest

from cfsurv.cli import main
from cfsurv.dgp import surrogate_twins_table
from cfsurv.survival import Dataset, TimeGrid, write_dataset_csv

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_datagen_deterministic(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["datagen", "--dgp", "synthetic", "--n", "200", "--xi", "0.3", "--seed", "7"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_datagen_rejects_zero_n(tmp_path):
    code = main(
        ["datagen", "--dgp", "synthetic", "--n", "0", "--out", str(tmp_path / "x.csv")]
    )
    assert code == 2


def test_datagen_summary_counts(tmp_path, capsys):
    out = tmp_path / "d.csv"
    assert main(["datagen", "--dgp", "synthetic", "--n", "300", "--seed", "3", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    rows = read_rows(out)
    n_event = sum(int(r["event"]) for r in rows)
    assert f"events={n_event}" in text
    assert f"censored={300 - n_event}" in text


def test_datagen_twins_like(tmp_path):
    out = tmp_path / "t.csv"
    assert main(
        ["datagen", "--dgp", "twins-like", "--n", "120", "--seed", "2", "--out", str(out)]
    ) == 0
    rows = read_rows(out)
    assert len(rows) == 120
    assert "x29" in rows[0]


def test_datagen_twins_csv_input(tmp_path):
    x, t0, t1 = surrogate_twins_table(50, seed=8)
    table = tmp_path / "table.csv"
    header = ",".join([f"x{j}" for j in range(30)] + ["t0", "t1"])
    lines = [header] + [
        ",".join([format(v, ".17g") for v in x[i]] + [str(t0[i]), str(t1[i])])
        for i in range(50)
    ]
    table.write_text("\n".join(lines) + "\n")
    out = tmp_path / "gen.csv"
    assert main(
        ["datagen", "--dgp", "twins-like", "--n", "40", "--twins-csv", str(table),
         "--seed", "1", "--out", str(out)]
    ) == 0
    assert len(read_rows(out)) == 40
    # asking for more rows than the table holds is a usage error
    assert main(
        ["datagen", "--dgp", "twins-like", "--n", "60", "--twins-csv", str(table),
         "--seed", "1", "--out", str(tmp_path / "no.csv")]
    ) == 2


def _datagen(tmp_path, n=150, seed=5):
    path = tmp_path / "data.csv"
    assert main(
        ["datagen", "--dgp", "synthetic", "--n", str(n), "--seed", str(seed),
         "--out", str(path)]
    ) == 0
    return path


def test_estimate_or_at_time_zero(tmp_path):
    data = _datagen(tmp_path)
    out = tmp_path / "res.csv"
    assert main(
        ["estimate", "--data", str(data), "--estimator", "or", "--t", "0",
         "--arm", "1", "--out", str(out)]
    ) == 0
    row = read_rows(out)[0]
    assert float(row["point"]) == 1.0
    assert float(row["std_error"]) == 0.0


def test_estimate_deterministic_bytes(tmp_path):
    data = _datagen(tmp_path)
    out1 = tmp_path / "r1.csv"
    out2 = tmp_path / "r2.csv"
    args = ["estimate", "--data", str(data), "--estimator", "balance", "--t", "5,8",
            "--arm", "diff", "--seed", "11"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_estimate_missing_columns(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("x0,x1,treat,time,event\n0,0,1,3,1\n")
    code = main(
        ["estimate", "--data", str(bad), "--estimator", "or", "--t", "3",
         "--out", str(tmp_path / "o.csv")]
    )
    assert code == 2


def test_estimate_rejects_time_past_horizon(tmp_path):
    data = _datagen(tmp_path, n=60)
    assert main(
        ["estimate", "--data", str(data), "--estimator", "or", "--t", "99",
         "--out", str(tmp_path / "o.csv")]
    ) == 2


def test_estimate_jsonl(tmp_path):
    data = _datagen(tmp_path, n=80)
    out = tmp_path / "res.jsonl"
    assert main(
        ["estimate", "--data", str(data), "--estimator", "or", "--t", "4",
         "--arm", "diff", "--format", "jsonl", "--out", str(out)]
    ) == 0
    import json

    rec = json.loads(out.read_text().splitlines()[0])
    assert rec["estimator"] == "or" and rec["t"] == 4 and rec["a"] == "diff"


def _write_enumerable_toy(path, n=400, seed=6, t_max=12):
    """Four-point covariate support, no censoring, known constant hazards."""
    rng = np.random.default_rng(seed)
    support = np.array([-1.5, -0.5, 0.5, 1.5])
    x = rng.choice(support, size=n)
    a = rng.integers(0, 2, size=n)
    # hazard depends on sign(x) and arm; absorbing at the horizon
    haz = 0.25 + 0.1 * (x > 0) - 0.12 * a
    times = np.full(n, t_max, dtype=np.int64)
    for i in range(n):
        for u in range(1, t_max):
            if rng.random() < haz[i]:
                times[i] = u
                break
    data = Dataset(
        x=x.reshape(-1, 1), a=a, time=times, event=np.ones(n, dtype=np.int64),
        grid=TimeGrid(t_max),
    )
    write_dataset_csv(data, str(path))
    return support, haz


def _toy_truth(support, t, arm):
    haz = 0.25 + 0.1 * (support > 0) - 0.12 * arm
    return float(np.mean((1.0 - haz) ** t))


def test_estimate_balance_covers_enumerable_truth(tmp_path):
    data = tmp_path / "toy.csv"
    support, _ = _write_enumerable_toy(data)
    out = tmp_path / "res.csv"
    assert main(
        ["estimate", "--data", str(data), "--estimator", "balance", "--t", "3",
         "--arm", "diff", "--length-scale", "2.0", "--seed", "9", "--out", str(out)]
    ) == 0
    row = read_rows(out)[0]
    truth = _toy_truth(support, 3, 1) - _toy_truth(support, 3, 0)
    assert float(row["ci_low"]) <= truth <= float(row["ci_high"])


def test_simulate_minimal_run(tmp_path):
    out = tmp_path / "m.csv"
    args = [
        "simulate", "--dgp", "synthetic", "--q", "2", "--n", "40",
        "--estimators", "or,balance", "--times", "3,5", "--master-seed", "4",
        "--mc", "10000", "--out", str(out),
    ]
    assert main(args) == 0
    rows = read_rows(out)
    assert len(rows) == 4  # 2 estimators x 2 times
    for row in rows:
        if row["estimator"] == "or":
            assert float(row["relative_rmse"]) == 1.0
    out2 = tmp_path / "m2.csv"
    assert main(args[:-1] + [str(out2)]) == 0
    assert out.read_bytes() == out2.read_bytes()


def test_simulate_unknown_estimator(tmp_path):
    assert main(
        ["simulate", "--q", "2", "--n", "30", "--estimators", "or,zzz",
         "--times", "3", "--out", str(tmp_path / "m.csv")]
    ) == 2


def test_simulate_rejects_small_mc(tmp_path):
    assert main(
        ["simulate", "--q", "2", "--n", "30", "--estimators", "or", "--times", "3",
         "--mc", "5000", "--out", str(tmp_path / "m.csv")]
    ) == 2


def test_simulate_xi_sweep_is_synthetic_only(tmp_path):
    assert main(
        ["simulate", "--dgp", "twins-like", "--q", "2", "--n", "30", "--estimators", "or",
         "--times", "3", "--xi-sweep", "0.2", "--out", str(tmp_path / "m.csv")]
    ) == 2


def test_simulate_twins_like(tmp_path):
    out = tmp_path / "twins_metrics.csv"
    assert main(
        ["simulate", "--dgp", "twins-like", "--q", "2", "--n", "60",
         "--estimators", "or", "--times", "5", "--master-seed", "2",
         "--out", str(out)]
    ) == 0
    rows = read_rows(out)
    assert len(rows) == 1
    assert np.isfinite(float(rows[0]["rmse"]))


def test_simulate_raw_output(tmp_path):
    out = tmp_path / "m.csv"
    raw = tmp_path / "raw.csv"
    assert main(
        ["simulate", "--q", "2", "--n", "40", "--estimators", "or", "--times", "3",
         "--master-seed", "4", "--mc", "10000", "--out", str(out), "--raw", str(raw)]
    ) == 0
    raw_rows = read_rows(raw)
    assert len(raw_rows) == 2
    assert set(raw_rows[0]) == {"estimator", "t", "q", "estimate", "ci_low", "ci_high"}


def test_simulate_xi_sweep_columns(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(
        ["simulate", "--q", "2", "--n", "40", "--estimators", "or", "--times", "3",
         "--xi-sweep", "0.2,0.4", "--master-seed", "4", "--mc", "10000",
         "--out", str(out)]
    ) == 0
    with open(out) as fh:
        header = fh.readline().strip()
    assert header.endswith("n_failed,xi,risb,rise")
    rows = read_rows(out)
    assert len(rows) == 2
    assert {float(r["xi"]) for r in rows} == {0.2, 0.4}


def test_truth_output(tmp_path):
    out = tmp_path / "truth.csv"
    assert main(["truth", "--dgp", "synthetic", "--mc", "20000", "--seed", "3",
                 "--out", str(out)]) == 0
    rows = read_rows(out)
    assert len(rows) == 31
    first = rows[0]
    assert float(first["psi0"]) == 1.0 and float(first["psi1"]) == 1.0
    assert float(first["delta"]) == 0.0
    # treatment lowers the hazard, so the survival effect is positive
    assert all(float(r["delta"]) > 0.0 for r in rows[1:])


def test_truth_rejects_small_mc(tmp_path):
    assert main(["truth", "--mc", "5000", "--out", str(tmp_path / "t.csv")]) == 2


def test_truth_se_halves_when_mc_doubles(tmp_path):
    out1 = tmp_path / "t1.csv"
    out2 = tmp_path / "t2.csv"
    assert main(["truth", "--mc", "10000", "--seed", "5", "--out", str(out1)]) == 0
    assert main(["truth", "--mc", "40000", "--seed", "5", "--out", str(out2)]) == 0
    se1 = float(read_rows(out1)[15]["mc_se"])
    se2 = float(read_rows(out2)[15]["mc_se"])
    assert 2.0 * 0.8 <= se1 / se2 <= 2.0 * 1.2


GOLDEN_METRICS = os.path.join(DATA_DIR, "golden_metrics.csv")
GOLDEN_SVG = os.path.join(DATA_DIR, "golden_plot.svg")


def test_plot_golden_bytes(tmp_path):
    out = tmp_path / "plot.svg"
    assert main(
        ["plot", "--metrics", GOLDEN_METRICS, "--y", "bias_over_stde", "--out", str(out)]
    ) == 0
    assert out.read_bytes() == open(GOLDEN_SVG, "rb").read()


def test_plot_legend_lists_estimators(tmp_path):
    out = tmp_path / "plot.svg"
    assert main(
        ["plot", "--metrics", GOLDEN_METRICS, "--y", "coverage", "--out", str(out)]
    ) == 0
    text = out.read_text()
    assert ">or</text>" in text and ">balance</text>" in text
    assert ">ipw</text>" not in text


def test_plot_empty_metrics(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text(
        "estimator,t,n,Q,rmse,relative_rmse,mae,mse,bias,std_err,"
        "bias_over_stde,coverage,n_failed\n"
    )
    assert main(["plot", "--metrics", str(empty), "--y", "coverage",
                 "--out", str(tmp_path / "p.svg")]) == 2


def test_plot_unknown_metric(tmp_path):
    assert main(["plot", "--metrics", GOLDEN_METRICS, "--y", "nope",
                 "--out", str(tmp_path / "p.svg")]) == 2


def test_plot_missing_input(tmp_path):
    assert main(["plot", "--metrics", str(tmp_path / "missing.csv"), "--y", "coverage",
                 "--out", str(tmp_path / "p.svg")]) == 2


def test_config_file_merging(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# datagen settings\nn = 50\nseed = 3\nxi = 0.3\n")
    out1 = tmp_path / "c1.csv"
    assert main(["datagen", "--config", str(cfg), "--dgp", "synthetic",
                 "--out", str(out1)]) == 0
    assert len(read_rows(out1)) == 50
    # explicit flags override file values
    out2 = tmp_path / "c2.csv"
    assert main(["datagen", "--config", str(cfg), "--dgp", "synthetic", "--n", "60",
                 "--out", str(out2)]) == 0
    assert len(read_rows(out2)) == 60


def test_config_file_unknown_key(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 50\nbogus = 1\n")
    assert main(["datagen", "--config", str(cfg), "--dgp", "synthetic",
                 "--out", str(tmp_path / "c.csv")]) == 2


def test_round_trip_datagen_estimate(tmp_path):
    data = _datagen(tmp_path, n=100, seed=9)
    out = tmp_path / "res.csv"
    assert main(
        ["estimate", "--data", str(data), "--estimator", "ipw", "--t", "5",
         "--arm", "diff", "--out", str(out)]
    ) == 0
    row = read_rows(out)[0]
    assert row["estimator"] == "ipw"
    assert np.isfinite(float(row["point"]))


def test_unknown_flag_exits_2(tmp_path, capsys):
    assert main(["datagen", "--nonsense", "1"]) == 2
    capsys.readouterr()
