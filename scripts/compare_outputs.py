"""Check that two cfsurv output CSVs agree within the reordering bounds.

    python scripts/compare_outputs.py FIRST.csv SECOND.csv

Reads `estimate` output, `simulate` metrics or `simulate --raw` output.
Both files must have the same header, the same number of rows, and the
same text in every cell that is not a number. Two numbers agree when
they differ by at most 1e-10 of the larger magnitude or, in a balance
row, by at most 1e-8 of the row's standard error. The balance solve
amplifies roundoff about 1e4-fold and some of its interval bounds sit
near 0, so a relative bound cannot hold there. The standard error is
the `std_error` column of `estimate` output, the `std_err` column of
`simulate` metrics, or the one the interval implies in `--raw` output,
(ci_high - ci_low) / (2 z_0.975). Two NaNs agree.

Prints the largest deviation of each file pair and exits 0 when every
cell agrees, 1 otherwise, naming the cells that do not.
"""

from __future__ import annotations

import csv
import math
import sys

REL_BOUND = 1e-10
SE_BOUND = 1e-8
Z_975 = 1.959963984540054


def _number(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def _standard_error(row: dict[str, str]) -> float | None:
    if "std_error" in row:
        return float(row["std_error"])
    if "std_err" in row:
        return float(row["std_err"])
    if "ci_low" in row and "ci_high" in row:
        return (float(row["ci_high"]) - float(row["ci_low"])) / (2.0 * Z_975)
    return None


def compare(first: str, second: str) -> tuple[list[str], float, float]:
    """(problems, largest relative deviation, largest balance deviation in SEs)."""
    with open(first, newline="") as fh:
        rows_a = list(csv.DictReader(fh))
    with open(second, newline="") as fh:
        rows_b = list(csv.DictReader(fh))
    if not rows_a or not rows_b or list(rows_a[0]) != list(rows_b[0]):
        return [f"{first} and {second} differ in header or are empty"], math.inf, math.inf
    if len(rows_a) != len(rows_b):
        return [f"{first} has {len(rows_a)} rows, {second} {len(rows_b)}"], math.inf, math.inf
    problems, worst, worst_se = [], 0.0, 0.0
    for line, (row_a, row_b) in enumerate(zip(rows_a, rows_b), start=2):
        se = _standard_error(row_a) if row_a.get("estimator") == "balance" else None
        for col, text_a in row_a.items():
            text_b = row_b[col]
            x, y = _number(text_a), _number(text_b)
            if x is None or y is None:
                if text_a != text_b:
                    problems.append(f"line {line}, {col}: {text_a!r} != {text_b!r}")
                continue
            if math.isnan(x) or math.isnan(y):
                if not (math.isnan(x) and math.isnan(y)):
                    problems.append(f"line {line}, {col}: {x!r} vs {y!r}")
                continue
            gap = abs(x - y)
            scale = max(abs(x), abs(y))
            if gap == 0.0:
                continue
            worst = max(worst, gap / scale)
            if se:
                worst_se = max(worst_se, gap / abs(se))
            if gap <= REL_BOUND * scale:
                continue
            if se is not None and gap <= SE_BOUND * abs(se):
                continue
            problems.append(
                f"line {line}, {col}: {x!r} vs {y!r} differ by {gap:.3g}"
                + (f" ({gap / abs(se):.3g} of the SE)" if se else "")
            )
    return problems, worst, worst_se


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python scripts/compare_outputs.py FIRST.csv SECOND.csv", file=sys.stderr)
        return 2
    problems, worst, worst_se = compare(*argv)
    for problem in problems:
        print(f"{argv[0]} vs {argv[1]}: {problem}")
    print(f"{argv[0]} vs {argv[1]}: largest deviation {worst:.3g} relative, "
          f"{worst_se:.3g} of the SE in balance rows; "
          f"{len(problems)} cells outside the bounds")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
