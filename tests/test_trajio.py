"""Trajectory export schemas and deterministic serialization."""

import json

import numpy as np
import pytest

from zsim.constants import T0
from zsim.dynamics import integrate, matched_initial_states
from zsim.emfield import FreeField
from zsim.trajio import (
    column_names,
    read_csv,
    row_table,
    write_columns_csv,
    write_csv,
    write_json_report,
)


def short_run(formulation: str):
    state = matched_initial_states(np.pi / 3, 0.4, velocity=np.array([0.6, 0, 0]))[
        formulation
    ]
    return integrate(state, FreeField(), T0 / 200, 100, record_every=10)


def test_column_layouts():
    assert len(column_names("position")) == 21
    assert len(column_names("spintensor")) == 23
    assert len(column_names("spinor")) == 25
    for name in ("tau", "t", "u0", "pi3", "res_g"):
        assert name in column_names("position")
    assert "y0" in column_names("position")
    assert "d1" in column_names("spintensor")
    assert "phi4_im" in column_names("spinor")
    with pytest.raises(KeyError):
        column_names("nonsense")


def test_row_table_shapes():
    for formulation in ("position", "spintensor", "spinor"):
        traj = short_run(formulation)
        table = row_table(traj)
        assert table.shape == (11, len(column_names(formulation)))
        assert np.array_equal(table[:, 0], traj.taus)


def test_csv_round_trip_exact(tmp_path):
    """repr-serialized floats survive the round trip bit for bit."""
    traj = short_run("position")
    path = tmp_path / "traj.csv"
    write_csv(traj, path)
    cols = read_csv(path)
    assert set(cols) == set(column_names("position"))
    assert np.array_equal(cols["tau"], traj.taus)
    assert np.array_equal(cols["u1"], traj.states.u[:, 1])
    assert np.array_equal(cols["res_c1"], traj.residuals["c1"])


def test_csv_deterministic_bytes(tmp_path):
    traj = short_run("spintensor")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(traj, a)
    write_csv(traj, b)
    assert a.read_bytes() == b.read_bytes()


def test_spinor_csv_holds_amplitudes(tmp_path):
    traj = short_run("spinor")
    path = tmp_path / "traj.csv"
    write_csv(traj, path)
    cols = read_csv(path)
    assert np.array_equal(cols["phi1_re"], traj.states.phi[:, 0].real)
    assert np.array_equal(cols["phi3_im"], traj.states.phi[:, 2].imag)


def test_columns_csv(tmp_path):
    path = tmp_path / "cols.csv"
    write_columns_csv(path, {"tau": np.array([0.0, 0.5]), "x1": np.array([1.0, 2.0])})
    cols = read_csv(path)
    assert np.array_equal(cols["x1"], [1.0, 2.0])


def test_csv_bytes_of_special_floats(tmp_path):
    path = tmp_path / "cols.csv"
    write_columns_csv(path, {"tau": np.array([-0.0, 5e-324, 1e16]),
                             "x1": np.array([np.nan, -np.inf, 0.1])})
    assert path.read_bytes() == b"tau,x1\n-0.0,nan\n5e-324,-inf\n1e+16,0.1\n"


def test_json_report_format(tmp_path):
    path = tmp_path / "report.json"
    write_json_report(path, {"b": 2, "a": {"y": 1.5, "x": [1, 2]}})
    text = path.read_text()
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"'), "keys not sorted"
    assert json.loads(text) == {"b": 2, "a": {"y": 1.5, "x": [1, 2]}}
    # NaN and Infinity are not JSON; refuse them instead of writing them
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            write_json_report(tmp_path / "bad.json", {"drift": bad})
