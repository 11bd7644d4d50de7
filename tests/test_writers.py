"""The text-table writers emit exactly the bytes of a per-value ``%.17g`` join."""

import json
import math

import numpy as np
import pytest

from maxent_hjb import Trajectory
from maxent_hjb.dynamics import write_json, write_table
from maxent_hjb.errors import MaxEntError
from maxent_hjb.godunov import Grid2D, GridFunction
from maxent_hjb.lq import save_matrix

AWKWARD = [
    math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308,
    3.0, -7.0, 1e16, 2.0**53 + 1, 0.1, 1.0 / 3.0,
]


def legacy_table(header_line, rows, sep=", "):
    """The reference format: one f-string per value, joined row by row."""
    lines = [header_line] + [sep.join(f"{v:.17g}" for v in row) for row in rows]
    return "".join(line + "\n" for line in lines).encode("ascii")


def awkward_table(rows, cols, finite=False, seed=0):
    """Values across the whole exponent range, with every awkward value planted
    in every column; ``rows`` above the writer's block size spans blocks."""
    rng = np.random.default_rng(seed)
    table = rng.standard_normal((rows, cols)) * 10.0 ** rng.integers(-300, 300, (rows, cols))
    special = [v for v in AWKWARD if math.isfinite(v) or not finite]
    flat = table.reshape(-1)
    flat[::7] = np.resize(np.array(special), len(flat[::7]))
    return table


def test_trajectory_to_csv(tmp_path):
    table = awkward_table(2500, 5)
    times = np.arange(2500.0)
    times[0] = -0.0
    times[1] = 5e-324
    traj = Trajectory(times=times, states=table[:, :3], controls=table[:, 3:])
    path = tmp_path / "traj.csv"
    traj.to_csv(path)
    rows = [(t, *x, *u) for t, x, u in zip(traj.times, traj.states, traj.controls)]
    assert path.read_bytes() == legacy_table("t, x_0, x_1, x_2, u_0, u_1", rows)


def test_grid_function_to_csv(tmp_path):
    grid = Grid2D(x_min=-1e300, x_max=1e300, y_min=-0.5, y_max=1.0 / 3.0, nx=41, ny=31)
    values = awkward_table(41, 31, finite=True)
    path = tmp_path / "grid.csv"
    GridFunction(values=values, grid=grid, time=0.0).to_csv(path)
    rows = [(x, y, w) for (x, y), w in zip(grid.points(), values.ravel())]
    assert path.read_bytes() == legacy_table("x, y, W", rows)


def test_cli_write_csv(tmp_path):
    table = awkward_table(1500, 4)
    rows = [tuple(row) for row in table]
    path = tmp_path / "sweep.csv"
    write_table(path, "alpha, H_alpha, H_tilde, H0", rows)  # the call ham-sweep makes
    assert path.read_bytes() == legacy_table("alpha, H_alpha, H_tilde, H0", rows)


@pytest.mark.parametrize("shape", [(1500, 3), (1, 7), (4, 1)])
def test_save_matrix(tmp_path, shape):
    mat = awkward_table(*shape)
    path = tmp_path / "mat.txt"
    save_matrix(path, mat)
    assert path.read_bytes() == legacy_table(f"{shape[0]} {shape[1]}", mat, sep=" ")


def test_save_matrix_promotes_vectors(tmp_path):
    path = tmp_path / "vec.txt"
    save_matrix(path, [1.0, -0.0, 2.5])
    assert path.read_bytes() == b"1 3\n1 -0 2.5\n"


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_write_json_rejects_non_finite_before_opening(tmp_path, bad):
    path = tmp_path / "summary.json"
    with pytest.raises(MaxEntError, match="summary.json"):
        write_json(path, {"fine": 1.0, "nested": [0.5, bad]})
    assert not path.exists()


def test_write_json_matches_streamed_dump(tmp_path):
    payload = {"b": [1.0, 0.1, None, True, -0.0], "a": {"z": 1e-300, "y": "t\u00e9xt"}}
    write_json(tmp_path / "new.json", payload)
    with open(tmp_path / "old.json", "w", encoding="ascii") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    assert (tmp_path / "new.json").read_bytes() == (tmp_path / "old.json").read_bytes()
