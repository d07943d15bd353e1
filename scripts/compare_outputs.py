"""Check that two cfsurv output CSVs agree within the reordering bounds.

    python scripts/compare_outputs.py FIRST.csv SECOND.csv

Reads `estimate` output, `simulate` metrics or `simulate --raw` output
through `cfsurv.survival.read_csv`, which names the file and line of a
row with the wrong number of cells (and the file, if it is empty or has
no data rows); such a file is reported as a problem. Both files must
have the same header, the same number of rows, and the same text in
every cell that is not a number. Two numbers agree when they differ by
at most 1e-10 of the larger magnitude or, in a balance row, by at most
1e-8 of the row's standard error. The balance solve amplifies roundoff
about 1e4-fold and some of its interval bounds sit near 0, so a
relative bound cannot hold there. The standard error is the
`std_error` column of `estimate` output, the `std_err` column of
`simulate` metrics, or the one the interval implies in `--raw` output,
(ci_high - ci_low) / (2 z_0.975). Two NaNs agree.

Prints the largest deviation of each file pair and exits 0 when every
cell agrees, 1 otherwise, naming the cells that do not.
"""

from __future__ import annotations

import math
import sys

from cfsurv.survival import read_csv

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
    try:
        (header_a, cells_a), (header_b, cells_b) = read_csv(first), read_csv(second)
    except ValueError as err:
        return [str(err)], math.inf, math.inf
    if header_a != header_b:
        return [f"{first} and {second} differ in header"], math.inf, math.inf
    if len(cells_a) != len(cells_b):
        return [f"{first} has {len(cells_a)} rows, {second} {len(cells_b)}"], math.inf, math.inf
    rows_a = [dict(zip(header_a, row)) for row in cells_a]
    rows_b = [dict(zip(header_b, row)) for row in cells_b]
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
