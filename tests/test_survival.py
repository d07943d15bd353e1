import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfsurv.cli import main
from cfsurv.survival import (
    Dataset,
    TimeGrid,
    active_matrix,
    at_risk_matrix,
    dataset_csv_bytes,
    event_matrix,
    hazard_from_survival,
    read_dataset_csv,
    survival_from_hazard,
    write_dataset_csv,
)


def test_time_grid_validation():
    assert TimeGrid(30).n_points == 31
    with pytest.raises(ValueError):
        TimeGrid(0)
    with pytest.raises(ValueError):
        TimeGrid(-3)


def test_survival_from_zero_hazard():
    s = survival_from_hazard(np.zeros(6))
    assert np.array_equal(s, np.ones(6))


def test_survival_from_constant_hazard():
    s = survival_from_hazard(np.array([0.0, 0.1, 0.1, 0.1]))
    np.testing.assert_allclose(s, [1.0, 0.9, 0.81, 0.729], rtol=0, atol=1e-15)


def test_survival_absorbing_hazard():
    s = survival_from_hazard(np.array([0.0, 1.0, 0.5]))
    np.testing.assert_allclose(s, [1.0, 0.0, 0.0], atol=0)


def test_survival_rejects_nonzero_origin():
    with pytest.raises(ValueError):
        survival_from_hazard(np.array([0.1, 0.1]))


def test_survival_grid_length_mismatch():
    with pytest.raises(ValueError):
        survival_from_hazard(np.zeros(5), grid=TimeGrid(30))


def test_hazard_from_survival_examples():
    np.testing.assert_allclose(
        hazard_from_survival(np.array([1.0, 0.9, 0.81])), [0.0, 0.1, 0.1], atol=1e-15
    )
    assert np.array_equal(hazard_from_survival(np.ones(3)), np.zeros(3))


def test_hazard_after_absorption_convention():
    with pytest.warns(UserWarning, match="absorption"):
        h = hazard_from_survival(np.array([1.0, 0.0, 0.0]))
    np.testing.assert_allclose(h, [0.0, 1.0, 0.0], atol=0)


def test_hazard_rejects_rise_after_zero():
    # survival values must stay in [0, 1] and non-increasing before inversion
    with pytest.raises(ValueError):
        hazard_from_survival(np.array([1.0, 0.0, 0.5]))
    with pytest.raises(ValueError):
        hazard_from_survival(np.array([0.5, 0.9]))


@given(
    st.lists(st.floats(min_value=0.0, max_value=0.95), min_size=1, max_size=32)
)
@settings(max_examples=100, deadline=None)
def test_round_trip_and_monotonicity(tail):
    h = np.array([0.0] + tail)
    s = survival_from_hazard(h)
    assert np.all(np.diff(s) <= 1e-15)
    back = hazard_from_survival(s)
    np.testing.assert_allclose(back, h, atol=1e-12)


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


def test_dataset_arrays_are_readonly():
    data = _toy_dataset()
    with pytest.raises(ValueError):
        data.time[0] = 9


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


@pytest.mark.parametrize(
    "row, cells",
    [("0.5,0,1,3,1,7,8", 7), ("0.5,0,1,3", 4)],
    ids=["two-extra-cells", "short-row"],
)
def test_csv_row_width_checked(tmp_path, capsys, row, cells):
    path = tmp_path / "ragged.csv"
    path.write_text(f"x0,x1,a,time,event\n0,0,1,2,1\n\n{row}\n")
    message = f"{path}: line 4 has {cells} cells, expected 5"
    with pytest.raises(ValueError) as err:
        read_dataset_csv(str(path))
    assert str(err.value) == message
    out = tmp_path / "o.csv"
    assert main(["estimate", "--data", str(path), "--estimator", "or", "--t", "2",
                 "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()
