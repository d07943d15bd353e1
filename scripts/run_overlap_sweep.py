"""Overlap sweep: re-run the synthetic study across assignment sharpness.

Higher xi saturates the assignment sigmoid faster, shrinking overlap.
Writes the sweep CSV (with per-xi RISB/RISE summaries) and prints one
RISB/RISE line per (xi, estimator).

Usage:
    python scripts/run_overlap_sweep.py --out-dir out/overlap [--q 50 --n 200]
"""

from __future__ import annotations

import argparse
import os

from cfsurv.cli import main as cli_main
from cfsurv.survival import read_csv


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", type=str, default="out/overlap")
    parser.add_argument("--q", type=int, default=50)
    parser.add_argument("--n", type=int, default=200)
    parser.add_argument("--xis", type=str, default="0.1,0.2,0.3,0.4,0.5")
    parser.add_argument("--estimators", type=str, default="or,dr,balance")
    parser.add_argument("--times", type=str, default="5,10,15,20,25")
    parser.add_argument("--master-seed", type=int, default=0)
    args = parser.parse_args()

    os.makedirs(args.out_dir, exist_ok=True)
    sweep_path = os.path.join(args.out_dir, "sweep.csv")
    code = cli_main(
        [
            "simulate", "--dgp", "synthetic",
            "--q", str(args.q), "--n", str(args.n),
            "--estimators", args.estimators, "--times", args.times,
            "--xi-sweep", args.xis, "--master-seed", str(args.master_seed),
            "--out", sweep_path,
        ]
    )
    if code != 0:
        raise SystemExit(code)

    header, cells = read_csv(sweep_path)
    rows = [dict(zip(header, row)) for row in cells]
    print(f"{'xi':>5} {'estimator':>9} {'risb':>10} {'rise':>10}")
    seen = set()
    for row in rows:
        key = (row["xi"], row["estimator"])
        if key in seen:
            continue
        seen.add(key)
        print(
            f"{float(row['xi']):5.2f} {row['estimator']:>9} "
            f"{float(row['risb']):10.5f} {float(row['rise']):10.5f}"
        )
    print(f"wrote {sweep_path}")


if __name__ == "__main__":
    main()
