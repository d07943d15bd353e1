import math

import numpy as np
import pytest

from cfsurv.cli import main
from cfsurv.dgp import load_twins_table
from cfsurv.survival import (
    Dataset,
    TimeGrid,
    active_matrix,
    at_risk_matrix,
    csv_bytes,
    dataset_csv_bytes,
    event_matrix,
    read_dataset_csv,
    write_dataset_csv,
)


def test_time_grid_validation():
    assert TimeGrid(30).n_points == 31
    with pytest.raises(ValueError):
        TimeGrid(0)
    with pytest.raises(ValueError):
        TimeGrid(-3)


def test_indicators_examples():
    # unit 0 has its event at 5, unit 1 is censored at 5
    data = Dataset(
        x=np.zeros((2, 2)), a=np.array([1, 1]), time=np.array([5, 5]),
        event=np.array([1, 0]), grid=TimeGrid(10),
    )
    risk = at_risk_matrix(data, 10)
    events = event_matrix(data, 10)
    assert (risk[0, 5], events[0, 5]) == (1, 1)
    assert (risk[1, 5], events[1, 5]) == (1, 0)
    assert (risk[0, 6], events[0, 6]) == (0, 0)
    assert (risk[0, 3], events[0, 3]) == (1, 0)
    with pytest.raises(ValueError):
        at_risk_matrix(data, 11)
    with pytest.raises(ValueError):
        event_matrix(data, 11)


def test_observed_unit_validation():
    def unit(a, t_obs, e):
        return Dataset(
            x=np.zeros((1, 2)), a=np.array([a]), time=np.array([t_obs]),
            event=np.array([e]), grid=TimeGrid(10),
        )

    unit(1, 5, 1)
    with pytest.raises(ValueError):
        unit(a=2, t_obs=5, e=1)
    with pytest.raises(ValueError):
        unit(a=1, t_obs=0, e=1)
    with pytest.raises(ValueError):
        unit(a=1, t_obs=5, e=3)


def _toy_dataset():
    return Dataset(
        x=np.array([[0.5, -1.0], [1.5, 2.0], [0.0, 0.0]]),
        a=np.array([1, 0, 1]),
        time=np.array([2, 3, 1]),
        event=np.array([1, 0, 1]),
        grid=TimeGrid(3),
    )


def test_dataset_validation():
    data = _toy_dataset()
    assert data.n == 3 and data.d == 2
    with pytest.raises(ValueError):
        Dataset(
            x=np.zeros((2, 2)), a=np.array([1, 0]), time=np.array([1, 5]),
            event=np.array([0, 0]), grid=TimeGrid(3),
        )
    with pytest.raises(ValueError):
        Dataset(
            x=np.zeros((2, 2)), a=np.array([1, 0]), time=np.array([0, 1]),
            event=np.array([0, 0]), grid=TimeGrid(3),
        )


@pytest.mark.parametrize(
    "column, values",
    [
        ("a", [0.6, 1, 0]),
        ("time", [2.5, 3, 1.9]),
        ("event", [0.7, 1, 0]),
        ("time", [2, np.nan, 1]),
        ("time", [2, np.inf, 1]),
    ],
    ids=["a", "time", "event", "time-nan", "time-inf"],
)
def test_dataset_rejects_fractional_columns(column, values):
    # a cast to int would truncate these to valid-looking 0/1 flags and times
    columns = {"a": [0, 1, 0], "time": [2, 3, 1], "event": [0, 1, 0], column: values}
    with pytest.raises(ValueError, match=f"column {column} must hold whole numbers"):
        Dataset(x=np.zeros((3, 1)), grid=TimeGrid(5), **columns)


def test_dataset_accepts_whole_valued_floats():
    data = Dataset(
        x=np.zeros((3, 1)), a=[0.0, 1.0, 0.0], time=[2.0, 3.0, 1.0], event=[False, True, False],
        grid=TimeGrid(5),
    )
    assert data.a.dtype == data.time.dtype == data.event.dtype == np.int64
    assert data.time.tolist() == [2, 3, 1] and data.event.tolist() == [0, 1, 0]


def test_dataset_arrays_are_readonly():
    data = _toy_dataset()
    with pytest.raises(ValueError):
        data.time[0] = 9


def test_subset_keeps_the_units_readonly():
    data = _toy_dataset()
    for idx in (np.array([2, 0]), data.time >= 2):
        sub = data.subset(idx)
        want = Dataset(data.x[idx], data.a[idx], data.time[idx], data.event[idx], data.grid)
        for name in ("x", "a", "time", "event"):
            got = getattr(sub, name)
            np.testing.assert_array_equal(got, getattr(want, name))
            assert got.dtype == getattr(want, name).dtype and not got.flags.writeable
        assert sub.grid == data.grid
    with pytest.raises(ValueError, match="at least one unit"):
        data.subset(np.array([], dtype=int))


def test_indicator_matrices():
    data = _toy_dataset()
    risk = at_risk_matrix(data, 3)
    assert risk[0].tolist() == [True, True, True, False]
    ev = event_matrix(data, 3)
    assert ev[0].tolist() == [0.0, 0.0, 1.0, 0.0]
    assert ev[1].tolist() == [0.0, 0.0, 0.0, 0.0]  # censored unit never fires
    act = active_matrix(data, 1, 3)
    assert act[1].tolist() == [False, False, False, False]
    assert act[2].tolist() == [True, True, False, False]


def test_csv_round_trip(tmp_path):
    data = _toy_dataset()
    path = tmp_path / "toy.csv"
    write_dataset_csv(data, str(path))
    again = read_dataset_csv(str(path), t_max=3)
    assert np.array_equal(again.x, data.x)
    assert np.array_equal(again.a, data.a)
    assert np.array_equal(again.time, data.time)
    assert np.array_equal(again.event, data.event)
    # serialization is stable byte for byte
    assert dataset_csv_bytes(again) == dataset_csv_bytes(data)


def test_csv_header_checked(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x0,x1,a,when,event\n0,0,1,1,1\n")
    with pytest.raises(ValueError):
        read_dataset_csv(str(path))


def test_csv_bytes_cells():
    row = [None, 3, np.int64(-4), 0.1, np.float64(1 / 3), math.nan, "or"]
    payload = csv_bytes(list("abcdefg"), [row])
    assert payload == b"a,b,c,d,e,f,g\n,3,-4,0.10000000000000001,0.33333333333333331,nan,or\n"
    cells = payload.decode().splitlines()[1].split(",")
    for j in (3, 4):
        assert float(cells[j]) == row[j]
    assert math.isnan(float(cells[5]))


_TWINS_HEADER = ",".join([f"x{j}" for j in range(30)] + ["t0", "t1"])
_TWINS_ROW = ",".join(["0.5"] * 30 + ["3", "4"])

#: per table cfsurv reads: its header, a well-formed row, its library reader
#: (None when only the CLI reads it) and a command reading PATH and writing OUT
_TABLES = {
    "dataset": ("x0,x1,a,time,event", "0,0,1,2,1", read_dataset_csv,
                ["estimate", "--data", "PATH", "--estimator", "or", "--t", "2", "--out", "OUT"]),
    "twins": (_TWINS_HEADER, _TWINS_ROW, load_twins_table,
              ["datagen", "--dgp", "twins-like", "--n", "2", "--twins-csv", "PATH",
               "--out", "OUT"]),
    "metrics": ("estimator,t,coverage", "or,5,0.9", None,
                ["plot", "--metrics", "PATH", "--y", "coverage", "--out", "OUT"]),
}


@pytest.mark.parametrize("table", ["dataset", "twins"])
def test_readers_take_whole_valued_floats_in_integer_columns(tmp_path, table):
    # the integer columns go through the whole-number check Dataset uses
    header, good, reader, _ = _TABLES[table]
    cells = good.split(",")
    n_whole = 3 if table == "dataset" else 2
    floats = cells[:-n_whole] + [f"{cell}.0" for cell in cells[-n_whole:]]
    ints, whole = tmp_path / "ints.csv", tmp_path / "floats.csv"
    ints.write_text(f"{header}\n{good}\n")
    whole.write_text(f"{header}\n{','.join(floats)}\n")
    got, want = reader(str(whole)), reader(str(ints))
    if table == "dataset":
        got, want = [[getattr(d, c) for c in ("x", "a", "time", "event")] for d in (got, want)]
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


@pytest.mark.parametrize(
    "table, column, cell, message",
    [
        ("dataset", "time", "abc", "column time: could not convert string to float: 'abc'"),
        ("dataset", "x1", "", "column x1: could not convert string to float: ''"),
        ("dataset", "a", "1.5", "column a must hold whole numbers"),
        ("twins", "t0", "three", "column t0: could not convert string to float: 'three'"),
        ("twins", "t1", "4.5", "column t1 must hold whole numbers"),
    ],
)
def test_readers_name_the_file_and_column_of_a_bad_cell(tmp_path, table, column, cell, message):
    header, good, reader, _ = _TABLES[table]
    cells = good.split(",")
    cells[header.split(",").index(column)] = cell
    path = tmp_path / "bad.csv"
    path.write_text(f"{header}\n{good}\n{','.join(cells)}\n")
    with pytest.raises(ValueError) as err:
        reader(str(path))
    assert str(err.value) == f"{path}: {message}"


@pytest.mark.parametrize(
    "table, row, cells",
    [
        ("dataset", "0.5,0,1,3,1,7,8", 7),
        ("dataset", "0.5,0,1,3", 4),
        ("twins", _TWINS_ROW.rsplit(",", 1)[0], 31),
        ("twins", _TWINS_ROW + ",5", 33),
        ("metrics", "or,10", 2),
        ("metrics", "or,10,0.9,1", 4),
    ],
    ids=["two-extra-cells", "short-row", "twins-short-row", "twins-extra-cell",
         "metrics-short-row", "metrics-extra-cell"],
)
def test_csv_row_width_checked(tmp_path, capsys, table, row, cells):
    header, good, reader, argv = _TABLES[table]
    path = tmp_path / "ragged.csv"
    path.write_text(f"{header}\n{good}\n\n{row}\n")
    message = f"{path}: line 4 has {cells} cells, expected {header.count(',') + 1}"
    if reader is not None:
        with pytest.raises(ValueError) as err:
            reader(str(path))
        assert str(err.value) == message
    out = tmp_path / "o.csv"
    paths = {"PATH": str(path), "OUT": str(out)}
    assert main([paths.get(arg, arg) for arg in argv]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()
