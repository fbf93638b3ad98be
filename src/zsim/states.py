"""State containers for the three equivalent dynamical formulations.

* ``PositionState``: total position x, total velocity u, spin-center
  position y, and conjugate momentum pi.
* ``SpinTensorState``: x, u, the antisymmetric spin tensor S, and pi.
* ``SpinorState``: x, complex amplitudes phi, and pi.

Every state answers for its own formulation: the class constant
``formulation`` names it, and the properties ``u``, ``z`` (the local
spin-motion vector x - y) and ``spin`` (the tensor S) give the same
physical quantities whichever fields the formulation stores.  A state
holds one sample, or a stack of samples indexed by sample first (four-
vectors of shape (N, 4), spin tensors (N, 4, 4)); the properties then
answer per sample.  All are immutable records of contravariant
components in natural units.  ``Trajectory`` stores the sampled output
of an integration run as one such stack, together with per-sample
constraint residuals.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property
from typing import ClassVar, Union

import numpy as np

from .minkowski import Vec4, assert_finite
from .spinor import spin_tensor_observable, velocity_observable
from .spintensor import build_spin_tensor, z_from_spin


def _as_vec4(a, name: str, dtype=np.float64) -> np.ndarray:
    arr = np.asarray(a, dtype=dtype)
    if arr.shape[-1:] != (4,):
        raise ValueError(f"{name} must have shape (4,) or (N, 4), got {arr.shape}")
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
        s = np.asarray(self.spin, dtype=np.float64)
        if s.shape[-2:] != (4, 4):
            raise ValueError(f"spin must have shape (4, 4) or (N, 4, 4), got {s.shape}")
        assert_finite(s, "spin")
        if np.abs(s + s.swapaxes(-1, -2)).max() > 1e-12 * max(1.0, np.abs(s).max()):
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
        object.__setattr__(self, "phi", _as_vec4(self.phi, "phi", np.complex128))

    @cached_property
    def u(self) -> Vec4:
        """Four-velocity u = phibar c gamma phi."""
        return velocity_observable(self.phi)

    @cached_property
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

    ``states`` is one state of the run's formulation that holds every
    sample, its fields stacked and indexed by sample first.
    ``residuals`` holds the per-sample constraint values, which are all
    zero for exact states:

    * ``c1``: u.u
    * ``c2``: z.z + r0^2
    * ``c3``: pi.u / m - c^2
    * ``g``:  z.pi
    """

    taus: np.ndarray
    states: DynState
    residuals: dict[str, np.ndarray]

    formulation = property(lambda self: self.states.formulation)

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
        """The typed state at sample index i."""
        return type(self.states)(*(getattr(self.states, f.name)[i] for f in fields(self.states)))

    def max_residuals(self) -> dict[str, float]:
        return {k: float(np.abs(v).max()) for k, v in self.residuals.items()}
