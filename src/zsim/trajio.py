"""Trajectory export: CSV with a fixed column schema, and JSON reports.

Column order (one row per recorded sample):

    tau, t, x1, x2, x3, u0, u1, u2, u3, <formulation block>,
    pi0, pi1, pi2, pi3, res_c1, res_c2, res_c3, res_g

where t is the coordinate time x0 and the formulation block is

    position:   y0, y1, y2, y3
    spintensor: d1, d2, d3, s1, s2, s3
    spinor:     phi1_re, phi1_im, ..., phi4_re, phi4_im

Floats are written with repr (shortest round-trip form), so identical
trajectories serialize to identical bytes.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .states import Trajectory

_COMMON_HEAD = ["tau", "t", "x1", "x2", "x3", "u0", "u1", "u2", "u3"]
_COMMON_TAIL = ["pi0", "pi1", "pi2", "pi3", "res_c1", "res_c2", "res_c3", "res_g"]

_BLOCKS = {
    "position": ["y0", "y1", "y2", "y3"],
    "spintensor": ["d1", "d2", "d3", "s1", "s2", "s3"],
    "spinor": [f"phi{i}_{part}" for i in range(1, 5) for part in ("re", "im")],
}


def column_names(formulation: str) -> list[str]:
    return _COMMON_HEAD + _BLOCKS[formulation] + _COMMON_TAIL


def row_table(traj: Trajectory) -> np.ndarray:
    """All columns as one float array (samples, columns)."""
    if traj.formulation == "spinor":
        block = traj.states.phi.view(np.float64)  # re and im interleaved
    else:
        block = traj.states.y if traj.formulation == "position" else traj.spins
    res = traj.residuals
    return np.column_stack(
        [traj.taus, traj.xs, traj.us, block, traj.pis, *(res[k] for k in ("c1", "c2", "c3", "g"))]
    )


def _write_table(path, names: list[str], table: np.ndarray) -> None:
    # a float's repr holds no character that csv would quote
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerow(names)
        fh.writelines(",".join(map(repr, row)) + "\n"
                      for row in np.asarray(table, dtype=np.float64).tolist())


def write_csv(traj: Trajectory, path) -> None:
    _write_table(path, column_names(traj.formulation), row_table(traj))


def read_csv(path) -> dict[str, np.ndarray]:
    """Columns of an exported CSV, keyed by name."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        names = next(reader)
        rows = [[float(v) for v in row] for row in reader]
    table = np.asarray(rows)
    return {name: table[:, j] for j, name in enumerate(names)}


def write_columns_csv(path, named_columns: dict[str, np.ndarray]) -> None:
    """Small helper for column extracts (tau plus requested variables)."""
    names = list(named_columns)
    _write_table(path, names, np.column_stack([named_columns[n] for n in names]))


def write_json_report(path, payload: dict) -> None:
    """Deterministic JSON artifact: sorted keys, trailing newline.

    Raises ValueError for NaN or infinite floats, which JSON cannot hold.
    """
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n")
