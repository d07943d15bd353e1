"""Check that two cfsurv output files agree within the reordering bounds.

    python scripts/compare_outputs.py FIRST.csv SECOND.csv
    python scripts/compare_outputs.py FIRST.jsonl SECOND.jsonl

Reads `estimate` output, `simulate` metrics or `simulate --raw` output.
A CSV is read through `cfsurv.survival.read_csv`, which names the file
and line of a row with the wrong number of cells (and the file, if it
is empty or has no data rows). A `.jsonl` file, as `estimate --format
jsonl` writes it, holds one JSON object a line: its keys are the
header and its values the cells, a line that is not an object with the
first line's keys is named by its number, and a file without records
is named too. Such a file, or one that is missing or cannot be read, is
reported as a problem. Both files must have the same header, the same
number of rows, and the same text in every cell that is not a number.
Two numbers agree when they differ by at most 1e-10 of the larger
magnitude or, in a balance row, by at most 1e-8 of the row's standard
error. The balance solve amplifies roundoff about 1e4-fold and some of
its interval bounds sit near 0, so a relative bound cannot hold there. The standard error is the
`std_error` column of `estimate` output, the `std_err` column of
`simulate` metrics, or the one the interval implies in `--raw` output,
(ci_high - ci_low) / (2 z_0.975). Two NaNs agree.

Prints the largest deviation of each file pair and exits 0 when every
cell agrees, 1 otherwise, naming the cells that do not. A pair whose
files cannot be read, or differ in header or row count, is reported as
not compared, with no deviation figures, and exits 1.
"""

from __future__ import annotations

import json
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


def _read_jsonl(path: str) -> tuple[list[str], list[list[str]]]:
    """The keys and the records of a JSON-lines file, each value as text."""
    header, rows = None, []
    with open(path) as fh:
        for line, text in enumerate(fh, start=1):
            if not text.strip():
                continue
            try:
                record = json.loads(text)
            except ValueError as err:
                raise ValueError(f"{path}: line {line} is not JSON: {err}") from None
            if header is None and isinstance(record, dict):
                header = list(record)
            if not isinstance(record, dict) or list(record) != header:
                raise ValueError(f"{path}: line {line} is not an object with keys {header}")
            rows.append([v if isinstance(v, str) else repr(v) for v in record.values()])
    if header is None:
        raise ValueError(f"{path}: no records")
    return header, rows


def _read(path: str) -> tuple[list[str], list[list[str]]]:
    return _read_jsonl(path) if path.endswith(".jsonl") else read_csv(path)


def _standard_error(row: dict[str, str]) -> float | None:
    if "std_error" in row:
        return float(row["std_error"])
    if "std_err" in row:
        return float(row["std_err"])
    if "ci_low" in row and "ci_high" in row:
        return (float(row["ci_high"]) - float(row["ci_low"])) / (2.0 * Z_975)
    return None


def compare(first: str, second: str) -> tuple[list[str], float | None, float | None]:
    """(problems, largest relative deviation, largest balance deviation in SEs).

    Both deviations are None when the files could not be compared cell by cell.
    """
    try:
        (header_a, cells_a), (header_b, cells_b) = _read(first), _read(second)
    except OSError as err:
        return [f"cannot read {err.filename}: {err.strerror}"], None, None
    except ValueError as err:
        return [str(err)], None, None
    if header_a != header_b:
        return [f"{first} and {second} differ in header"], None, None
    if len(cells_a) != len(cells_b):
        return [f"{first} has {len(cells_a)} rows, {second} {len(cells_b)}"], None, None
    rows_a = [dict(zip(header_a, row)) for row in cells_a]
    rows_b = [dict(zip(header_b, row)) for row in cells_b]
    problems, worst, worst_se = [], 0.0, 0.0
    # a CSV's first row is on line 2, after its header
    first_line = 1 if first.endswith(".jsonl") else 2
    for line, (row_a, row_b) in enumerate(zip(rows_a, rows_b), start=first_line):
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
        print("usage: python scripts/compare_outputs.py FIRST SECOND (CSV or .jsonl files)",
              file=sys.stderr)
        return 2
    problems, worst, worst_se = compare(*argv)
    for problem in problems:
        print(f"{argv[0]} vs {argv[1]}: {problem}")
    if worst is None:
        print(f"{argv[0]} vs {argv[1]}: could not be compared")
    else:
        print(f"{argv[0]} vs {argv[1]}: largest deviation {worst:.3g} relative, "
              f"{worst_se:.3g} of the SE in balance rows; "
              f"{len(problems)} cells outside the bounds")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
