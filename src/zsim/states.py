"""State containers for the three equivalent dynamical formulations.

* ``PositionState``: total position x, total velocity u, spin-center
  position y, and conjugate momentum pi.
* ``SpinTensorState``: x, u, the antisymmetric spin tensor S, and pi.
* ``SpinorState``: x, complex amplitudes phi, and pi.

Every state answers for its own formulation: the class constant
``formulation`` names it, and the properties ``u``, ``z`` (the local
spin-motion vector x - y) and ``spin`` (the tensor S) give the same
physical quantities whichever fields the formulation stores.  All are
immutable records of contravariant components in natural units.
``Trajectory`` stores the sampled output of an integration run together
with per-sample constraint residuals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Union

import numpy as np

from .minkowski import Vec4, antisymmetric_tensor, assert_finite
from .spinor import spin_tensor_observable, velocity_observable
from .spintensor import build_spin_tensor, z_from_spin


def _as_vec4(a, name: str) -> np.ndarray:
    arr = np.asarray(a, dtype=np.float64).reshape(4)
    assert_finite(arr, name)
    return arr


@dataclass(frozen=True)
class PositionState:
    formulation: ClassVar[str] = "position"
    x: Vec4
    u: Vec4
    y: Vec4
    pi: Vec4

    def __post_init__(self) -> None:
        for name in ("x", "u", "y", "pi"):
            object.__setattr__(self, name, _as_vec4(getattr(self, name), name))

    @property
    def z(self) -> Vec4:
        """Local spin-motion vector z = x - y."""
        return self.x - self.y

    @property
    def spin(self) -> np.ndarray:
        """Spin tensor S = -m (z ^ u)."""
        return build_spin_tensor(self.z, self.u)


@dataclass(frozen=True)
class SpinTensorState:
    formulation: ClassVar[str] = "spintensor"
    x: Vec4
    u: Vec4
    spin: np.ndarray
    pi: Vec4

    def __post_init__(self) -> None:
        for name in ("x", "u", "pi"):
            object.__setattr__(self, name, _as_vec4(getattr(self, name), name))
        s = np.asarray(self.spin, dtype=np.float64).reshape(4, 4)
        assert_finite(s, "spin")
        if not np.allclose(s, -s.T, rtol=0.0, atol=1e-12 * max(1.0, np.abs(s).max())):
            raise ValueError("spin tensor must be antisymmetric")
        object.__setattr__(self, "spin", s)

    @property
    def z(self) -> Vec4:
        """Local spin-motion vector z = -S pi / (m c)^2."""
        return z_from_spin(self.spin, self.pi)


@dataclass(frozen=True)
class SpinorState:
    formulation: ClassVar[str] = "spinor"
    x: Vec4
    phi: np.ndarray
    pi: Vec4

    def __post_init__(self) -> None:
        for name in ("x", "pi"):
            object.__setattr__(self, name, _as_vec4(getattr(self, name), name))
        phi = np.asarray(self.phi, dtype=np.complex128).reshape(4)
        if not np.all(np.isfinite(phi.view(np.float64))):
            raise ValueError("phi has non-finite components")
        object.__setattr__(self, "phi", phi)

    @property
    def u(self) -> Vec4:
        """Four-velocity u = phibar c gamma phi."""
        return velocity_observable(self.phi)

    @property
    def spin(self) -> np.ndarray:
        """Spin tensor S = phibar S-op phi."""
        return spin_tensor_observable(self.phi)

    @property
    def z(self) -> Vec4:
        """Local spin-motion vector z = -S pi / (m c)^2."""
        return z_from_spin(self.spin, self.pi)


DynState = Union[PositionState, SpinTensorState, SpinorState]

FORMULATIONS = ("position", "spintensor", "spinor")


@dataclass
class Trajectory:
    """Sampled integration output for one formulation.

    Arrays are indexed by sample.  ``us`` and ``spins``, the six
    independent spin-tensor components ordered (d1, d2, d3, s1, s2, s3),
    are stored for every formulation (derived from z and u for position
    runs, from phi for spinor runs).
    Residual arrays hold the per-sample constraint values, which are all
    zero for exact states:

    * ``c1``: u.u
    * ``c2``: z.z + r0^2
    * ``c3``: pi.u / m - c^2
    * ``g``:  z.pi
    """

    formulation: str
    taus: np.ndarray
    xs: np.ndarray
    us: np.ndarray
    pis: np.ndarray
    spins: np.ndarray
    ys: np.ndarray | None = None
    phis: np.ndarray | None = None
    residuals: dict[str, np.ndarray] = field(default_factory=dict)

    def __len__(self) -> int:
        return self.taus.shape[0]

    @property
    def dt(self) -> float:
        """Sampling interval; raises for non-uniform sampling."""
        steps = np.diff(self.taus)
        if steps.size == 0:
            raise ValueError("trajectory has a single sample")
        dt = float(steps[0])
        if not np.allclose(steps, dt, rtol=1e-9, atol=1e-12):
            raise ValueError("trajectory is not uniformly sampled")
        return dt

    def state_at(self, i: int) -> DynState:
        """Reconstruct the typed state at sample index i."""
        i = int(i)
        if self.formulation == "position":
            assert self.ys is not None
            return PositionState(self.xs[i], self.us[i], self.ys[i], self.pis[i])
        if self.formulation == "spintensor":
            spin = antisymmetric_tensor(self.spins[i, :3], self.spins[i, 3:])
            return SpinTensorState(self.xs[i], self.us[i], spin, self.pis[i])
        if self.formulation == "spinor":
            assert self.phis is not None
            return SpinorState(self.xs[i], self.phis[i], self.pis[i])
        raise ValueError(f"unknown formulation {self.formulation!r}")

    def max_residuals(self) -> dict[str, float]:
        return {k: float(np.abs(v).max()) for k, v in self.residuals.items()}
