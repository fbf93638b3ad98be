"""External electromagnetic field models and the Lorentz force.

Field strengths are dimensionless natural-unit values (see constants.SI_UNITS
for the Tesla / V/m conversion factors).  Three static models are provided:

* ``FreeField``: no field.
* ``UniformEB``: constant electric and magnetic fields.
* ``CoulombField``: point-charge electric field ``Z * rhat / r^2``.

The antisymmetric field tensor follows the convention ``F[0][i] = -E_i / c``,
``F[i][0] = +E_i / c``, ``F[i][j] = -eps_ijk B_k``, which is the unique
assignment that makes ``q F u`` reproduce the four-force

    f0 = (q / c) E . xdot,      f = q (tdot E + xdot x B).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .minkowski import Vec4, antisymmetric_tensor, lower


class FieldSingularityError(ValueError):
    """Raised when a field model is evaluated at a singular point."""


@dataclass(frozen=True)
class FreeField:
    """Field-free vacuum."""

    def eb_at(self, x: Vec4) -> tuple[np.ndarray, np.ndarray]:
        return np.zeros(3), np.zeros(3)

    def potential_at(self, x: Vec4) -> Vec4:
        return np.zeros(4)


@dataclass(frozen=True)
class UniformEB:
    """Constant electric field e0 and magnetic field b0."""

    e0: np.ndarray = field(default_factory=lambda: np.zeros(3))
    b0: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self) -> None:
        object.__setattr__(self, "e0", np.asarray(self.e0, dtype=np.float64).reshape(3))
        object.__setattr__(self, "b0", np.asarray(self.b0, dtype=np.float64).reshape(3))

    def eb_at(self, x: Vec4) -> tuple[np.ndarray, np.ndarray]:
        return self.e0.copy(), self.b0.copy()

    def potential_at(self, x: Vec4) -> Vec4:
        # Gauge A = (-e0 . r, b0 x r / 2); any gauge differing by a constant
        # or pure gradient is equally valid for the diagnostics that use it.
        r = np.asarray(x)[1:]
        a = np.empty(4)
        a[0] = -np.dot(self.e0, r)
        a[1:] = 0.5 * np.cross(self.b0, r)
        return a


@dataclass(frozen=True)
class CoulombField:
    """Point-charge field E = z_charge * rhat / r^2 centered at ``center``."""

    z_charge: float = 1.0
    center: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "center", np.asarray(self.center, dtype=np.float64).reshape(3)
        )

    def eb_at(self, x: Vec4) -> tuple[np.ndarray, np.ndarray]:
        r = np.asarray(x)[1:] - self.center
        r2 = float(np.dot(r, r))
        if r2 == 0.0:
            raise FieldSingularityError("Coulomb field evaluated at its center")
        e = self.z_charge * r / r2**1.5
        return e, np.zeros(3)

    def potential_at(self, x: Vec4) -> Vec4:
        r = np.asarray(x)[1:] - self.center
        rnorm = float(np.linalg.norm(r))
        if rnorm == 0.0:
            raise FieldSingularityError("Coulomb potential evaluated at its center")
        a = np.zeros(4)
        a[0] = self.z_charge / rnorm
        return a


FieldModel = Union[FreeField, UniformEB, CoulombField]


def field_tensor(e: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Contravariant field tensor F for fields (e, b), c = 1."""
    return antisymmetric_tensor(-np.asarray(e, dtype=np.float64), b)


def lorentz_force(q: float, e: np.ndarray, b: np.ndarray, u: Vec4) -> Vec4:
    """Four-force on charge q moving with four-velocity u (c = 1).

    Components are (q E . xdot, q (tdot E + xdot x B)) with tdot = u[0]
    and xdot the spatial part of u.  Broadcasts over leading axes: e and b
    of shape (..., 3) with u of shape (..., 4).
    """
    u = np.asarray(u, dtype=np.float64)
    e = np.asarray(e, dtype=np.float64)
    xdot = u[..., 1:]
    space = q * (u[..., 0:1] * e + np.cross(xdot, b))
    f = np.empty(space.shape[:-1] + (4,))
    f[..., 0] = q * np.sum(e * xdot, axis=-1)
    f[..., 1:] = space
    return f


def lorentz_force_tensor(q: float, e: np.ndarray, b: np.ndarray, u: Vec4) -> Vec4:
    """Same force computed by contracting the field tensor: q F^{mu nu} u_nu."""
    return q * field_tensor(e, b) @ lower(u)


def force_at(model: FieldModel, q: float, x: Vec4, u: Vec4) -> Vec4:
    """Lorentz four-force of ``model`` on charge q at event x with velocity u."""
    e, b = model.eb_at(x)
    return lorentz_force(q, e, b, u)
