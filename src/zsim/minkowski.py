"""Minkowski four-vector algebra and standard-configuration boosts.

Four-vectors are plain numpy arrays of shape (4,) holding contravariant
components (c t, x, y, z) with metric signature (+, -, -, -).  Functions
accept stacked arrays of shape (..., 4) and broadcast over the leading
axes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

Vec4 = NDArray[np.float64]

#: Metric tensor diag(1, -1, -1, -1).
METRIC = np.diag([1.0, -1.0, -1.0, -1.0])

_METRIC_SIGNS = np.array([1.0, -1.0, -1.0, -1.0])


def assert_finite(a: np.ndarray, name: str = "array") -> None:
    """Raise ValueError if any component is NaN or infinite."""
    if not np.isfinite(a).all():
        raise ValueError(f"{name} has non-finite components: {a!r}")


def mdot(a: np.ndarray, b: np.ndarray) -> np.ndarray | float:
    """Minkowski inner product a0*b0 - a1*b1 - a2*b2 - a3*b3.

    Broadcasts over leading axes for stacked inputs of shape (..., 4).
    """
    a = np.asarray(a)
    b = np.asarray(b)
    out = a[..., 0] * b[..., 0] - (a[..., 1:] * b[..., 1:]).sum(axis=-1)
    return float(out) if np.ndim(out) == 0 else out


def lower(a: np.ndarray) -> np.ndarray:
    """Lower the index: (a0, a1, a2, a3) -> (a0, -a1, -a2, -a3)."""
    return np.asarray(a) * _METRIC_SIGNS


def wedge(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Antisymmetric product a^mu b^nu - b^mu a^nu, shape (..., 4, 4)."""
    a = np.asarray(a)
    b = np.asarray(b)
    return a[..., :, None] * b[..., None, :] - b[..., :, None] * a[..., None, :]


def antisymmetric_tensor(d: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Antisymmetric 4x4 tensor T from its time-space part d and space part s.

    T[0][i] = d_i, T[i][0] = -d_i and T[i][j] = -eps_ijk s_k, so
    T[3][2] = s_1, T[1][3] = s_2, T[2][1] = s_3.  This is the layout of
    the spin tensor (d, s) and of the field tensor (-E, B).  Inputs of
    shape (..., 3) give a stack of shape (..., 4, 4).
    """
    d = np.asarray(d, dtype=np.float64)
    s = np.asarray(s, dtype=np.float64)
    t = np.zeros(np.broadcast_shapes(d.shape[:-1], s.shape[:-1]) + (4, 4))
    t[..., 0, 1:] = d
    t[..., 1:, 0] = -d
    t[..., 1, 2], t[..., 2, 1] = -s[..., 2], s[..., 2]
    t[..., 1, 3], t[..., 3, 1] = s[..., 1], -s[..., 1]
    t[..., 2, 3], t[..., 3, 2] = -s[..., 0], s[..., 0]
    return t


def antisymmetric_parts(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of antisymmetric_tensor: the (d, s) parts of T, shape (..., 3)."""
    t = np.asarray(t)
    d = t[..., 0, 1:].copy()
    s = np.stack([t[..., 3, 2], t[..., 1, 3], t[..., 2, 1]], axis=-1)
    return d, s


def gamma_of(v: np.ndarray) -> float:
    """Lorentz factor of a three-velocity with |v| < c (= 1)."""
    v = np.asarray(v, dtype=np.float64)
    v2 = float(np.dot(v, v))
    if v2 >= 1.0:
        raise ValueError(f"speed must be below c: |v|^2 = {v2}")
    return 1.0 / math.sqrt(1.0 - v2)


@dataclass(frozen=True)
class BoostParams:
    """Velocity and Lorentz factor of a frame moving at velocity v.

    Transforms components given in the rest frame of the particle into
    the observer frame in which the particle moves with velocity v
    (axes aligned, origins coincident unless offsets are supplied).
    """

    velocity: np.ndarray
    gamma: float = field(init=False)

    def __post_init__(self) -> None:
        v = np.asarray(self.velocity, dtype=np.float64).reshape(3)
        object.__setattr__(self, "velocity", v)
        object.__setattr__(self, "gamma", gamma_of(v))


def boost_coords(
    r: np.ndarray,
    tau: float | np.ndarray,
    params: BoostParams,
) -> tuple[np.ndarray, np.ndarray]:
    """Observer-frame coordinates (t, x) of a rest-frame event (tau, r).

    r may have shape (3,) or (N, 3) with tau scalar or shape (N,).
    Returns (t, x) with shapes matching the broadcast inputs.
    """
    v = params.velocity
    g = params.gamma
    r = np.asarray(r, dtype=np.float64)
    vdotr = r @ v
    t = g * vdotr + g * np.asarray(tau)
    x = r + np.multiply.outer((g * g / (1.0 + g)) * vdotr + g * np.asarray(tau), v)
    return t, x


def boost_matrix(params: BoostParams) -> np.ndarray:
    """4x4 matrix form of the boost used by boost_coords."""
    v = params.velocity
    g = params.gamma
    lam = np.empty((4, 4))
    lam[0, 0] = g
    lam[0, 1:] = g * v
    lam[1:, 0] = g * v
    lam[1:, 1:] = np.eye(3) + (g * g / (1.0 + g)) * np.outer(v, v)
    return lam


def boost_vector(a: np.ndarray, params: BoostParams) -> np.ndarray:
    """Boost a four-vector (or stack of shape (..., 4)) to the observer frame."""
    return np.asarray(a) @ boost_matrix(params).T

