import csv
import os

import numpy as np
import pytest

import cfsurv.cli as cli_module
from cfsurv.cli import main
from cfsurv.dgp import ground_truth, surrogate_twins_table
from cfsurv.survival import Dataset, TimeGrid, read_dataset_csv, write_dataset_csv

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


def test_estimate_reads_whole_valued_floats_and_names_a_bad_cell(tmp_path, capsys):
    # a/time/event cells written as 1.0 read as 1; a cell that is not a
    # number fails with the file and the column, not a bare int() error
    data = _datagen(tmp_path, n=40)
    header, *lines = data.read_text().splitlines()
    as_floats = tmp_path / "floats.csv"
    as_floats.write_text("\n".join(
        [header] + [",".join([*row[:-3], *(f"{c}.0" for c in row[-3:])])
                    for row in (line.split(",") for line in lines)]
    ) + "\n")
    args = ["estimate", "--estimator", "or", "--t", "5", "--arm", "diff"]
    outs = []
    for path in (data, as_floats):
        outs.append(tmp_path / f"o-{path.stem}.csv")
        assert main(args + ["--data", str(path), "--out", str(outs[-1])]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    bad = tmp_path / "bad.csv"
    bad.write_text(f"{header}\n{lines[0].rsplit(',', 2)[0]},x,1\n")
    assert main(args + ["--data", str(bad), "--out", str(tmp_path / "o.csv")]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {bad}: column time: could not convert string to float: 'x'\n"


def test_estimate_rejects_time_past_horizon(tmp_path):
    data = _datagen(tmp_path, n=60)
    assert main(
        ["estimate", "--data", str(data), "--estimator", "or", "--t", "99",
         "--out", str(tmp_path / "o.csv")]
    ) == 2


def test_estimate_rejects_repeated_times(tmp_path, capsys):
    data = _datagen(tmp_path, n=60)
    assert main(
        ["estimate", "--data", str(data), "--estimator", "balance", "--t", "5,5",
         "--out", str(tmp_path / "o.csv")]
    ) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("ridge", ["0", "-1", "inf"])
def test_estimate_rejects_nonpositive_ridge(tmp_path, capsys, ridge):
    data = _datagen(tmp_path, n=60)
    assert main(
        ["estimate", "--data", str(data), "--estimator", "or", "--t", "5",
         "--ridge", ridge, "--out", str(tmp_path / "o.csv")]
    ) == 2
    assert "must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["or", "balance"])
def test_estimate_rejects_a_sample_without_treated_units(tmp_path, capsys, kind):
    data = read_dataset_csv(str(_datagen(tmp_path, n=40)))
    control = tmp_path / "control.csv"
    write_dataset_csv(Dataset(data.x, 0 * data.a, data.time, data.event, data.grid), str(control))
    assert main(
        ["estimate", "--data", str(control), "--estimator", kind, "--t", "5,10",
         "--arm", "1", "--out", str(tmp_path / "o.csv")]
    ) == 2
    assert "training fold 0 of " in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()


def test_simulate_rejects_zero_ridge(tmp_path):
    assert main(
        ["simulate", "--q", "2", "--n", "30", "--estimators", "or", "--times", "3",
         "--ridge", "0", "--out", str(tmp_path / "m.csv")]
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
        "--out", str(out),
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


def _count_truth_calls(monkeypatch):
    calls = []
    original = cli_module.dgp_mod.ground_truth

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli_module.dgp_mod, "ground_truth", counting)
    return calls


def test_simulate_rejects_repeated_times(tmp_path, capsys, monkeypatch):
    truth_calls = _count_truth_calls(monkeypatch)
    assert main(
        ["simulate", "--q", "2", "--n", "30", "--estimators", "or,balance",
         "--times", "5,5", "--out", str(tmp_path / "m.csv")]
    ) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert truth_calls == []  # rejected with the other checks, before the truth


def test_simulate_rejects_raw_with_xi_sweep(tmp_path, capsys, monkeypatch):
    # a sweep writes no per-replication file, so --raw would be silently dropped
    truth_calls = _count_truth_calls(monkeypatch)
    assert main(
        ["simulate", "--q", "2", "--n", "60", "--estimators", "or", "--times", "5",
         "--xi-sweep", "0.3", "--out", str(tmp_path / "m.csv"),
         "--raw", str(tmp_path / "raw.csv")]
    ) == 2
    assert capsys.readouterr().err.startswith("error: --raw")
    assert truth_calls == [] and list(tmp_path.iterdir()) == []


def test_simulate_unknown_estimator(tmp_path):
    assert main(
        ["simulate", "--q", "2", "--n", "30", "--estimators", "or,zzz",
         "--times", "3", "--out", str(tmp_path / "m.csv")]
    ) == 2


def test_simulate_ignores_mc(tmp_path):
    # the truth is exact, so --mc is accepted for older command lines and ignored
    args = ["simulate", "--q", "2", "--n", "30", "--estimators", "or", "--times", "3"]
    assert main(args + ["--out", str(tmp_path / "a.csv")]) == 0
    assert main(args + ["--mc", "5000", "--out", str(tmp_path / "b.csv")]) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


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
         "--master-seed", "4", "--out", str(out), "--raw", str(raw)]
    ) == 0
    raw_rows = read_rows(raw)
    assert len(raw_rows) == 2
    assert set(raw_rows[0]) == {"estimator", "t", "q", "estimate", "ci_low", "ci_high"}


def test_simulate_xi_sweep_columns(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(
        ["simulate", "--q", "2", "--n", "40", "--estimators", "or", "--times", "3",
         "--xi-sweep", "0.2,0.4", "--master-seed", "4", "--out", str(out)]
    ) == 0
    with open(out) as fh:
        header = fh.readline().strip()
    assert header.endswith("n_failed,xi,risb,rise")
    rows = read_rows(out)
    assert len(rows) == 2
    assert {float(r["xi"]) for r in rows} == {0.2, 0.4}


def test_truth_output(tmp_path):
    out = tmp_path / "truth.csv"
    assert main(["truth", "--dgp", "synthetic", "--out", str(out)]) == 0
    gt = ground_truth()
    want = "t,psi0,psi1,delta\n" + "".join(
        f"{t},{gt.psi[0, t]:.17g},{gt.psi[1, t]:.17g},{gt.delta[t]:.17g}\n"
        for t in range(gt.delta.size)
    )
    assert out.read_bytes() == want.encode()


@pytest.mark.parametrize("flag", ["--mc", "--seed"])
def test_truth_takes_no_sampling_flags(tmp_path, flag):
    # the truth is exact: no draw count and no seed
    assert main(["truth", flag, "5", "--out", str(tmp_path / "t.csv")]) == 2


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


def test_plot_skips_infinite_values(tmp_path):
    # a bias_over_stde cell is inf where std_err is 0 and bias is not
    rows = ["or,5,0.5", "or,10,inf", "or,15,-inf", "balance,5,0.2", "balance,10,0.3"]
    svgs = []
    for name, kept in (("all", rows), ("finite", [rows[0], rows[3], rows[4]])):
        metrics = tmp_path / f"{name}.csv"
        metrics.write_text("estimator,t,bias_over_stde\n" + "\n".join(kept) + "\n")
        out = tmp_path / f"{name}.svg"
        assert main(["plot", "--metrics", str(metrics), "--y", "bias_over_stde",
                     "--out", str(out)]) == 0
        svgs.append(out.read_bytes())
    assert b"nan" not in svgs[0] and b"inf" not in svgs[0]
    assert svgs[0] == svgs[1]


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
