"""Equations of motion, integration driver, closed forms, and matched states.

The model splits the total motion x(tau) into a spin center y(tau) and a
local circular motion z(tau) = x - y at radius r0 and angular frequency
w0.  Three equivalent first-order formulations are integrated:

* position:    xdot = u, udot = -w0^2 (x - y), ydot = pi / m, pidot = q F u
* spintensor:  xdot = u, udot = (4 c^2 / hbar^2) S pi,
               Sdot^{mu nu} = pi^mu u^nu - pi^nu u^mu, pidot = q F u
* spinor:      xdot = u = phibar c gamma phi, i hbar phidot = H phi,
               pidot = q F u

Valid initial states satisfy (and the flow preserves)

* C1: u.u = 0              (the total motion is light-like)
* C2: z.z = -r0^2          (equivalently udotdot.udotdot = -c^2 w0^2)
* C3: pi.u = m c^2         (fixes the zitter frequency scale)
* G:  z.pi = 0             (phase constraint, follows from C1..C3)

Integration uses fixed-step classical RK4 (kernels module); constraints
are monitored along the trajectory, never projected, so constraint drift
is a direct quality metric of the integration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .constants import C, HBAR, MASS, OMEGA0, Q_ELECTRON, R0
from .emfield import CoulombField, FieldModel, FreeField, UniformEB, force_at, lorentz_force
from .minkowski import (
    BoostParams,
    antisymmetric_parts,
    antisymmetric_tensor,
    boost_vector,
    lower,
    mdot,
    wedge,
)
from .spinor import (
    boost_state,
    evolve_amplitudes,
    spin_tensor_observable,
    state_derivative,
    velocity_observable,
)
from .spinstates import spin_amplitudes
from .spintensor import angular_momentum, z_from_spin
from .states import (
    DynState,
    PositionState,
    SpinorState,
    SpinTensorState,
    Trajectory,
)


class ConstraintViolationError(ValueError):
    """Initial state violates the motion constraints.

    ``failures`` lists (constraint name, residual) pairs beyond tolerance.
    """

    def __init__(self, failures: list[tuple[str, float]]):
        self.failures = failures
        msg = ", ".join(f"{name}: {res:.3e}" for name, res in failures)
        super().__init__(f"constraint validation failed: {msg}")

    def __reduce__(self):
        # rebuild from the failures, so the error crosses a process pool
        return type(self), (self.failures,)


class IntegrationDivergedError(RuntimeError):
    """Integration hit a non-finite state at proper time ``tau``."""

    def __init__(self, tau: float):
        self.tau = tau
        super().__init__(f"integration diverged near tau = {tau:.6g}")

    def __reduce__(self):
        return type(self), (self.tau,)


# ---------------------------------------------------------------------------
# Derivatives at dataclass level (reference implementation; the packed
# kernels must agree with these, see tests).


def deriv_position(state: PositionState, model: FieldModel, q: float = Q_ELECTRON) -> PositionState:
    """Time derivative of a position-formulation state, packaged in kind."""
    f = force_at(model, q, state.x, state.u)
    return PositionState(
        x=state.u,
        u=-(OMEGA0**2) * state.z,
        y=state.pi / MASS,
        pi=f,
    )


def deriv_spintensor(state: SpinTensorState, model: FieldModel, q: float = Q_ELECTRON) -> SpinTensorState:
    f = force_at(model, q, state.x, state.u)
    udot = (4.0 * C**2 / HBAR**2) * (state.spin @ lower(state.pi))
    sdot = np.outer(state.pi, state.u) - np.outer(state.u, state.pi)
    return SpinTensorState(x=state.u, u=udot, spin=sdot, pi=f)


def deriv_spinor(state: SpinorState, model: FieldModel, q: float = Q_ELECTRON) -> SpinorState:
    u = state.u
    f = force_at(model, q, state.x, u)
    phidot = state_derivative(state.phi, state.pi)
    return SpinorState(x=u, phi=phidot, pi=f)


# ---------------------------------------------------------------------------
# Constraint residuals and validation.


def constraint_residuals(state: DynState) -> dict[str, float | np.ndarray]:
    """Residuals of C1..C3 and G (all zero for exact states).

    * c1 = u.u
    * c2 = z.z + r0^2
    * c3 = pi.u / m - c^2
    * g  = z.pi

    Floats for a single state, per-sample arrays for a stack.
    """
    u, z = state.u, state.z
    dots = mdot(np.array([u, z, state.pi, z]), np.array([u, z, u, state.pi]))
    uu, zz, piu, zpi = dots.tolist() if dots.ndim == 1 else dots
    return {"c1": uu, "c2": zz + R0**2, "c3": piu / MASS - C**2, "g": zpi}


def _one_sample(state: DynState) -> None:
    if state.x.ndim != 1:
        raise ValueError(f"state must be one sample, got a stack of shape {state.x.shape}")


def validate_state(state: DynState, tol: float = 1e-10) -> None:
    """Raise ConstraintViolationError for residuals beyond ``tol`` or tdot = u^0 <= 0.

    ``state`` is one sample; a stack raises ValueError.
    """
    _one_sample(state)
    res = constraint_residuals(state)
    failures = [(k, v) for k, v in res.items() if abs(v) > tol]
    if state.u[0] <= 0.0:
        failures.append(("tdot_positive", float(state.u[0])))
    if failures:
        raise ConstraintViolationError(failures)


# ---------------------------------------------------------------------------
# Free-electron closed form.


def free_motion(state0: PositionState, taus) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact field-free trajectory arrays (xs, us, centers) at proper times taus.

    x(tau) = y(0) + (pi / m) tau + (u(0) - pi / m) sin(w0 tau) / w0
             + z(0) cos(w0 tau)
    u(tau) = pi / m + (u(0) - pi / m) cos(w0 tau) - w0 z(0) sin(w0 tau)
    y(tau) = y(0) + (pi / m) tau
    """
    taus = np.atleast_1d(np.asarray(taus, dtype=np.float64))
    drift = state0.pi / MASS
    osc_u = state0.u - drift
    z0 = state0.z
    cos = np.cos(OMEGA0 * taus)[:, None]
    sin = np.sin(OMEGA0 * taus)[:, None]
    lin = taus[:, None] * drift[None, :]
    centers = state0.y[None, :] + lin
    xs = centers + (osc_u / OMEGA0)[None, :] * sin + z0[None, :] * cos
    us = drift[None, :] + osc_u[None, :] * cos - (OMEGA0 * z0)[None, :] * sin
    return xs, us, centers


# ---------------------------------------------------------------------------
# Packing between dataclasses and kernel layouts.


def _field_code(model: FieldModel) -> tuple[int, np.ndarray]:
    if isinstance(model, FreeField):
        return kernels.FIELD_FREE, np.zeros(1)
    if isinstance(model, UniformEB):
        return kernels.FIELD_UNIFORM, np.concatenate([model.e0, model.b0])
    if isinstance(model, CoulombField):
        return kernels.FIELD_COULOMB, np.concatenate([[model.z_charge], model.center])
    raise TypeError(f"unsupported field model: {type(model)!r}")


def pack_state(state: DynState) -> np.ndarray:
    if isinstance(state, PositionState):
        return np.concatenate([state.x, state.u, state.y, state.pi])
    if isinstance(state, SpinTensorState):
        return np.concatenate([state.x, state.u, state.pi, *antisymmetric_parts(state.spin)])
    return np.concatenate([state.x, state.pi, state.phi.view(np.float64)])


def unpack_state(formulation: str, packed: np.ndarray) -> DynState:
    """The state in one packed row, or the stacked states of a record array."""
    x = packed[..., 0:4]
    if formulation == "position":
        return PositionState(x, packed[..., 4:8], packed[..., 8:12], packed[..., 12:16])
    if formulation == "spintensor":
        spin = antisymmetric_tensor(packed[..., 12:15], packed[..., 15:18])
        return SpinTensorState(x, packed[..., 4:8], spin, packed[..., 8:12])
    return SpinorState(x, packed[..., 8:16].view(np.complex128), packed[..., 4:8])


# ---------------------------------------------------------------------------
# Integration driver.


def integrate(
    state: DynState,
    model: FieldModel,
    dt: float,
    n_steps: int,
    q: float = Q_ELECTRON,
    record_every: int = 1,
    validate: bool = True,
) -> Trajectory:
    """Fixed-step RK4 integration, recording every ``record_every`` steps.

    ``state`` is one sample, ``q`` is finite, and ``n_steps`` must be a
    positive multiple of ``record_every`` >= 1.  With
    ``validate=True`` (default) the initial state must pass the constraint
    validator; integration never projects constraints afterwards.
    Non-finite states, or finite states with non-finite constraint
    residuals, abort with IntegrationDivergedError.
    """
    if record_every < 1 or n_steps < 1:
        raise ValueError("n_steps and record_every must be at least 1")
    if n_steps % record_every != 0:
        raise ValueError("n_steps must be a multiple of record_every")
    if not 0.0 < dt < np.inf:
        raise ValueError("dt must be positive and finite")
    if not np.isfinite(q):
        raise ValueError("q must be finite")
    _one_sample(state)
    if validate:
        validate_state(state)
    formulation = state.formulation
    fcode, fparams = _field_code(model)
    packed = pack_state(state)
    n_rec = n_steps // record_every + 1
    out = np.empty((n_rec, packed.shape[0]), dtype=packed.dtype)
    status = kernels.INTEGRATORS[formulation](
        packed, fcode, fparams, float(q), float(dt), int(n_steps), int(record_every), out
    )
    if status != -1:
        raise IntegrationDivergedError(status * record_every * dt)
    taus = dt * record_every * np.arange(n_rec)
    states = unpack_state(formulation, out)
    with np.errstate(over="ignore", invalid="ignore"):
        residuals = constraint_residuals(states)
    finite = np.logical_and.reduce([np.isfinite(v) for v in residuals.values()])
    if not finite.all():
        raise IntegrationDivergedError(float(taus[np.argmin(finite)]))
    return Trajectory(taus, states, residuals)


# ---------------------------------------------------------------------------
# Matched initial states.


def matched_initial_states(
    theta: float,
    phi: float = 0.0,
    velocity: np.ndarray | None = None,
    origin: np.ndarray | None = None,
    phase: float = 0.0,
) -> dict[str, DynState]:
    """Consistent initial states of all three formulations.

    The electron starts as the rest-frame spin state with axis
    (theta, phi), optionally boosted to ``velocity``; the spin center
    starts at ``origin`` (a four-vector event, default the coordinate
    origin).  ``phase`` rotates the zitter motion forward by that angle
    (rest frame, before the boost), selecting where on the circular
    path tau = 0 falls.  Observables of the spinor state define the
    position and spin-tensor data, so the three returned states
    describe the same physical motion exactly.
    """
    amps = spin_amplitudes(theta, phi)
    pi = np.array([MASS * C, 0.0, 0.0, 0.0])
    if phase != 0.0:
        amps = evolve_amplitudes(amps, pi, phase / OMEGA0)
    if velocity is not None and float(np.linalg.norm(velocity)) > 0.0:
        params = BoostParams(np.asarray(velocity, dtype=np.float64))
        amps = boost_state(amps, params)
        pi = boost_vector(pi, params)
    u0 = velocity_observable(amps)
    spin0 = spin_tensor_observable(amps)
    z0 = z_from_spin(spin0, pi)
    y0 = np.zeros(4) if origin is None else np.asarray(origin, dtype=np.float64)
    x0 = y0 + z0
    return {
        "position": PositionState(x0, u0, y0, pi),
        "spintensor": SpinTensorState(x0, u0, spin0, pi),
        "spinor": SpinorState(x0, amps, pi),
    }


# ---------------------------------------------------------------------------
# Trajectory-level diagnostics.


def oracle_errors(traj: Trajectory, state0: PositionState) -> dict[str, float]:
    """Max scaled error of a field-free run against the closed form.

    The scale for each variable is max(1, closed-form magnitude), so the
    numbers read as relative errors for order-one quantities.
    """
    xs, us, centers = free_motion(state0, traj.taus)
    def err(a, b):
        return float((np.abs(a - b) / max(1.0, np.abs(b).max())).max())
    states = traj.states
    out = {"x": err(states.x, xs), "u": err(states.u, us)}
    if traj.formulation == "position":
        out["y"] = err(states.y, centers)
    out["pi"] = err(states.pi, np.broadcast_to(state0.pi, states.pi.shape))
    out["overall"] = max(out.values())
    return out


@dataclass
class ComparisonReport:
    """Pairwise max divergence between formulations sharing a tau grid."""

    per_pair: dict[str, dict[str, float]]
    overall: float


def compare_trajectories(trajs: dict[str, Trajectory]) -> ComparisonReport:
    """Pairwise divergence of already-integrated trajectories.

    Divergence is the max absolute componentwise difference over the
    shared sample grid, per variable (x, u, pi, d, s).
    """
    arrays = {}
    for name, tr in trajs.items():
        d, s = antisymmetric_parts(tr.states.spin)
        arrays[name] = {"x": tr.states.x, "u": tr.states.u, "pi": tr.states.pi, "d": d, "s": s}
    names = sorted(trajs)
    per_pair: dict[str, dict[str, float]] = {}
    overall = 0.0
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            entry = {
                var: float(np.abs(arrays[a][var] - arrays[b][var]).max())
                for var in arrays[a]
            }
            per_pair[f"{a}|{b}"] = entry
            overall = max(overall, max(entry.values()))
    return ComparisonReport(per_pair, overall)


def fourth_order_residual(
    traj: Trajectory, model: FieldModel, q: float = Q_ELECTRON
) -> dict[str, np.ndarray | float]:
    """Residual of the single-equation form of the dynamics along a run.

    Checks x'''' + w0^2 xdotdot - (q w0^2 / m) F xdot = 0 per component
    with central differences (interior samples only), and evaluates the
    Lagrangian

        L = (m/2) u.u + q A.u - (m / (2 w0^2)) udot.udot

    whose field-free value is m c^2 / 2.  Returns per-sample arrays
    ``residual`` (max-norm over components) and ``lagrangian`` plus the
    scalar ``max_residual``.
    """
    dt = traj.dt
    xs = traj.states.x
    if len(traj) < 5:
        raise ValueError("need at least five samples")
    x4 = (xs[:-4] - 4 * xs[1:-3] + 6 * xs[2:-2] - 4 * xs[3:-1] + xs[4:]) / dt**4
    x2 = (xs[1:-3] - 2 * xs[2:-2] + xs[3:-1]) / dt**2
    x1 = (xs[3:-1] - xs[1:-3]) / (2 * dt)
    inner = slice(2, len(traj) - 2)
    es, bs = map(np.array, zip(*(model.eb_at(xrow) for xrow in xs[inner])))
    resid = x4 + OMEGA0**2 * x2 - (OMEGA0**2 / MASS) * lorentz_force(q, es, bs, x1)
    resid_norm = np.abs(resid).max(axis=1)

    us = traj.states.u
    udot = (us[2:] - us[:-2]) / (2 * dt)
    pot = np.stack([model.potential_at(xrow) for xrow in xs[1:-1]])
    lag = (
        0.5 * MASS * mdot(us[1:-1], us[1:-1])
        + q * mdot(pot, us[1:-1])
        - (MASS / (2.0 * OMEGA0**2)) * mdot(udot, udot)
    )
    return {
        "residual": resid_norm,
        "lagrangian": lag,
        "max_residual": float(resid_norm.max()),
    }


def conservation_drift(traj: Trajectory, model: FieldModel, q: float = Q_ELECTRON) -> dict[str, float]:
    """Drift diagnostics along a trajectory.

    For free runs the total angular momentum tensor J = x ^ pi + S is
    constant; in a field its rate matches the torque x ^ f.  Also reports
    max constraint residuals and the energy-equation residual
    (1/m) pi.pi - m c^2 - f.z.
    """
    xs, us, pis = traj.states.x, traj.states.u, traj.states.pi
    js = angular_momentum(traj.states)
    fs = np.stack([force_at(model, q, x, u) for x, u in zip(xs, us)])

    out = dict(traj.max_residuals())
    if isinstance(model, FreeField):
        out["j_drift"] = float(np.abs(js - js[0]).max())
        out["pi_drift"] = float(np.abs(pis - pis[0]).max())
    else:
        jdot = (js[2:] - js[:-2]) / (2 * traj.dt)
        torque = wedge(xs[1:-1], fs[1:-1])
        out["torque_residual"] = float(np.abs(jdot - torque).max())

    # Energy equation along the run.
    out["energy_residual"] = float(
        np.abs(mdot(pis, pis) / MASS - MASS * C**2 - mdot(fs, traj.states.z)).max()
    )
    return out
