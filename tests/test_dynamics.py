"""Integration drivers, state constructions, closed-form oracle agreement."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zsim import kernels
from zsim.constants import C, MASS, OMEGA0, Q_ELECTRON, R0, T0
from zsim.dynamics import (
    ConstraintViolationError,
    IntegrationDivergedError,
    compare_trajectories,
    conservation_drift,
    constraint_residuals,
    deriv_position,
    deriv_spinor,
    deriv_spintensor,
    fourth_order_residual,
    free_motion,
    integrate,
    matched_initial_states,
    oracle_errors,
    pack_state,
    unpack_state,
    validate_state,
)
from zsim.emfield import FreeField, UniformEB
from zsim.minkowski import antisymmetric_parts, antisymmetric_tensor, mdot
from zsim.scenario import load_scenario
from zsim.states import FORMULATIONS, PositionState, SpinTensorState

theta_st = st.floats(min_value=0.0, max_value=np.pi, allow_nan=False)
phi_st = st.floats(min_value=-np.pi, max_value=np.pi, allow_nan=False)

BOOST = np.array([0.6, 0.0, 0.0])


def boosted_states():
    return matched_initial_states(np.pi / 3, 0.4, velocity=BOOST)


def test_pack_unpack_round_trip():
    states = boosted_states()
    for name, state in states.items():
        packed = pack_state(state)
        assert packed.shape[0] == {"position": 16, "spintensor": 18, "spinor": 16}[name]
        assert packed.dtype == kernels.STATE_DTYPE[name]  # integrate passes it on as is
        back = unpack_state(name, packed)
        assert np.allclose(pack_state(back), packed, atol=0.0)
    # the layout pair on a stack: (N, 6) parts -> (N, 4, 4) tensors -> parts
    parts = np.random.default_rng(3).normal(size=(5, 6))
    tensors = antisymmetric_tensor(parts[:, :3], parts[:, 3:])
    assert tensors.shape == (5, 4, 4)
    assert np.array_equal(tensors, -np.swapaxes(tensors, 1, 2))
    for row, tensor in zip(parts, tensors):
        assert np.array_equal(tensor, antisymmetric_tensor(row[:3], row[3:]))
    assert np.array_equal(np.concatenate(antisymmetric_parts(tensors), axis=1), parts)


def test_kernel_rhs_matches_reference_derivatives():
    """The packed RK4 kernels and the dataclass derivatives are one flow."""
    states = boosted_states()
    model = UniformEB(e0=np.array([1e-4, 0.0, 0.0]), b0=np.array([0.0, 0.0, 2e-3]))
    fcode, fparams = 1, np.concatenate([np.array([1e-4, 0.0, 0.0]), [0.0, 0.0, 2e-3]])
    derivs = {
        "position": deriv_position,
        "spintensor": deriv_spintensor,
        "spinor": deriv_spinor,
    }
    for name, state in states.items():
        packed = pack_state(state).astype(kernels.STATE_DTYPE[name])
        out = np.empty_like(packed)
        kernels.RHS[name](packed, fcode, fparams, Q_ELECTRON, out)
        want = pack_state(derivs[name](state, model, Q_ELECTRON))
        assert np.allclose(out, want, atol=1e-14), f"{name} kernel disagrees"


def test_free_oracle_all_formulations():
    """Ten periods of field-free integration against the closed form."""
    dt = T0 / 1000
    for name, state in boosted_states().items():
        traj = integrate(state, FreeField(), dt, 10_000, record_every=10)
        pos0 = boosted_states()["position"]
        errs = oracle_errors(traj, pos0)
        assert errs["overall"] < 1e-9, f"{name} oracle error {errs}"


def test_rk4_convergence_fourth_order():
    """Halving dt shrinks the closed-form error by roughly 2^4."""
    state = boosted_states()["position"]
    errs = []
    for n in (250, 500):
        traj = integrate(state, FreeField(), T0 / n, n, record_every=n)
        errs.append(oracle_errors(traj, state)["overall"])
    ratio = errs[0] / errs[1]
    assert 10.0 < ratio < 22.0, f"convergence ratio {ratio}, errors {errs}"


def test_free_motion_preserves_constraints():
    state = boosted_states()["position"]
    taus = np.linspace(0.0, 5 * T0, 64)
    xs, us, centers = free_motion(state, taus)
    for x, u, y in zip(xs, us, centers):
        res = constraint_residuals(PositionState(x, u, y, state.pi))
        assert max(abs(v) for v in res.values()) < 1e-12


@given(theta=theta_st, phi=phi_st)
@settings(max_examples=100, deadline=None)
def test_matched_states_are_consistent(theta, phi):
    """All three formulations start from the same physical data."""
    states = matched_initial_states(theta, phi, velocity=np.array([0.3, -0.1, 0.2]))
    pos, tensor, spinor = states["position"], states["spintensor"], states["spinor"]
    assert np.allclose(pos.x, tensor.x, atol=0.0)
    assert np.allclose(pos.x, spinor.x, atol=0.0)
    assert np.allclose(spinor.u, pos.u, atol=1e-13)
    assert np.allclose(tensor.z, pos.z, atol=1e-13)
    assert np.allclose(spinor.z, pos.z, atol=1e-13)
    assert np.allclose(tensor.spin, pos.spin, atol=1e-13)
    assert np.allclose(spinor.spin, pos.spin, atol=1e-13)
    for state in states.values():
        validate_state(state, tol=1e-10)


def test_matched_states_constraint_residuals_tiny():
    states = matched_initial_states(np.pi / 3, 0.4, velocity=np.array([0.6, 0.2, 0.0]))
    for name, state in states.items():
        res = constraint_residuals(state)
        worst = max(abs(v) for v in res.values())
        assert worst < 1e-13, f"{name}: {res}"


def test_matched_states_phase_rotates_start_point():
    """The phase argument selects where on the zitter circle tau=0 sits.

    A quarter turn moves the spin-up internal velocity from the first
    axis onto the second and the local radius onto +e1; the spin vector
    and all constraints are untouched.
    """
    quarter = matched_initial_states(0.0, phase=np.pi / 2)["position"]
    assert np.allclose(quarter.u, [1.0, 0.0, 1.0, 0.0], atol=1e-14)
    assert np.allclose(quarter.z, [0.0, 0.5, 0.0, 0.0], atol=1e-14)

    states = matched_initial_states(1.1, 0.3, velocity=np.array([0.5, 0.0, 0.0]),
                                    phase=0.7)
    for state in states.values():
        validate_state(state, tol=1e-12)
    assert np.allclose(states["spinor"].u, states["position"].u, atol=1e-13)

    # phase advances the same free motion: state at phase p equals the
    # phase-0 state evolved by p / w0 (up to the spin-center drift).
    base = matched_initial_states(1.1, 0.3)["position"]
    xs, us, _ = free_motion(base, np.array([0.7 / OMEGA0]))
    shifted = matched_initial_states(1.1, 0.3, phase=0.7)["position"]
    assert np.allclose(us[0], shifted.u, atol=1e-13)
    assert np.allclose(xs[0] - base.pi / MASS * (0.7 / OMEGA0) + shifted.y,
                       shifted.x, atol=1e-13)


def test_position_and_tensor_states_round_trip():
    states = boosted_states()
    pos = states["position"]
    tensor = SpinTensorState(pos.x, pos.u, pos.spin, pos.pi)
    back = PositionState(tensor.x, tensor.u, tensor.x - tensor.z, tensor.pi)
    assert np.allclose(back.x, pos.x, atol=1e-13)
    assert np.allclose(back.u, pos.u, atol=1e-13)
    assert np.allclose(back.y, pos.y, atol=1e-12)
    assert np.allclose(back.pi, pos.pi, atol=1e-13)


def test_spinor_state_gives_position_and_tensor_states():
    states = boosted_states()
    spinor = states["spinor"]
    pos = PositionState(spinor.x, spinor.u, spinor.x - spinor.z, spinor.pi)
    tensor = SpinTensorState(spinor.x, spinor.u, spinor.spin, spinor.pi)
    assert np.allclose(pos.u, states["position"].u, atol=1e-13)
    assert np.allclose(pos.y, states["position"].y, atol=1e-13)
    assert np.allclose(tensor.spin, states["spintensor"].spin, atol=1e-13)


def test_validator_catches_each_constraint():
    pos = boosted_states()["position"]
    bad_u = pos.u.copy()
    bad_u[0] *= 1.001
    with pytest.raises(ConstraintViolationError) as exc:
        validate_state(PositionState(pos.x, bad_u, pos.y, pos.pi))
    assert any(name == "c1" for name, _ in exc.value.failures)

    bad_y = pos.y.copy()
    bad_y[1] += 0.01
    with pytest.raises(ConstraintViolationError) as exc:
        validate_state(PositionState(pos.x, pos.u, bad_y, pos.pi))
    names = [name for name, _ in exc.value.failures]
    assert "c2" in names or "g" in names, f"got {names}"

    bad_pi = pos.pi.copy()
    bad_pi[0] *= 1.001
    with pytest.raises(ConstraintViolationError) as exc:
        validate_state(PositionState(pos.x, pos.u, pos.y, bad_pi))
    assert any(name == "c3" for name, _ in exc.value.failures)

    # negating u and pi keeps c1, c2, c3 and g but runs coordinate time backwards
    reversed_pos = PositionState(pos.x, -pos.u, pos.y, -pos.pi)
    reversed_tensor = SpinTensorState(reversed_pos.x, reversed_pos.u, reversed_pos.spin,
                                      reversed_pos.pi)
    for state in (reversed_pos, reversed_tensor):
        with pytest.raises(ConstraintViolationError) as exc:
            validate_state(state)
        assert [name for name, _ in exc.value.failures] == ["tdot_positive"]


def test_integrate_rejects_bad_arguments():
    pos = boosted_states()["position"]
    with pytest.raises(ValueError):
        integrate(pos, FreeField(), T0 / 100, 101, record_every=10)
    for dt in (-0.1, 0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="dt must be positive"):
            integrate(pos, FreeField(), dt, 100)
    with pytest.raises(ValueError, match="at least 1"):
        integrate(pos, FreeField(), T0 / 100, 100, record_every=0)
    with pytest.raises(ValueError, match="at least 1"):
        integrate(pos, FreeField(), T0 / 100, 0)
    for q in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="q must be finite"):
            integrate(pos, FreeField(), T0 / 100, 100, q=q)
    bad_u = pos.u.copy()
    bad_u[0] *= 1.01
    with pytest.raises(ConstraintViolationError):
        integrate(PositionState(pos.x, bad_u, pos.y, pos.pi), FreeField(), 1e-3, 10)


def test_stacked_state_is_rejected():
    """A trajectory's stacked states are not an initial state."""
    traj = integrate(matched_initial_states(0.3)["spinor"], FreeField(), 0.01, 10)
    calls = (lambda: validate_state(traj.states),
             lambda: integrate(traj.states, FreeField(), 0.01, 10),
             lambda: integrate(traj.states, FreeField(), 0.01, 10, validate=False))
    for call in calls:
        with pytest.raises(ValueError, match=r"^state must be one sample, got a stack of "
                                             r"shape \(11, 4\)$"):
            call()


def test_integrate_divergence_detected():
    """A grossly unstable step size must raise instead of returning junk."""
    pos = boosted_states()["position"]
    with pytest.raises(IntegrationDivergedError):
        integrate(pos, FreeField(), 10.0, 2000, record_every=100)
    # a finite state whose residuals overflow diverges at that sample's tau
    model = UniformEB(b0=np.array([0.0, 0.0, 1e16]))
    with pytest.raises(IntegrationDivergedError) as info:
        integrate(boosted_states()["spinor"], model, T0 / 1000, 1)
    assert info.value.tau == T0 / 1000


@pytest.mark.parametrize("formulation", ["position", "spintensor", "spinor"])
@pytest.mark.parametrize("model", [FreeField(), UniformEB(b0=np.array([0.0, 0.0, 1e-3]))],
                         ids=["free", "uniform"])
def test_trajectory_residuals_equal_single_sample_residuals(formulation, model):
    """The stacked residual arrays and constraint_residuals share one formula."""
    traj = integrate(boosted_states()[formulation], model, T0 / 1000, 1000, record_every=10)
    for i in range(len(traj)):
        single = constraint_residuals(traj.state_at(i))
        for key, values in traj.residuals.items():
            assert values[i] == single[key], (key, i)


@pytest.mark.parametrize("formulation", FORMULATIONS)
def test_trajectory_states_stack_the_single_states(formulation):
    """Row i of the stacked u, z and S is, bit for bit, that of record i unpacked
    alone; sample 0 packs to the initial state's bytes; each is computed once."""
    state0 = boosted_states()[formulation]
    traj = integrate(state0, UniformEB(b0=np.array([0.0, 0.0, 1e-3])), T0 / 1000, 100,
                     record_every=10)
    assert pack_state(traj.state_at(0)).tobytes() == pack_state(state0).tobytes()
    assert traj.states.u is traj.states.u
    for i in range(len(traj)):
        single = unpack_state(formulation, pack_state(traj.state_at(i)))
        for name in ("u", "z", "spin"):
            assert getattr(traj.states, name)[i].tobytes() == getattr(single, name).tobytes()


def test_states_reject_misshapen_fields():
    pos, st = boosted_states()["position"], boosted_states()["spintensor"]
    with pytest.raises(ValueError, match="shape"):
        PositionState(pos.x.reshape(2, 2), pos.u, pos.y, pos.pi)
    with pytest.raises(ValueError, match="shape"):
        SpinTensorState(st.x, st.u, st.spin[:, :3], st.pi)
    with pytest.raises(ValueError, match="antisymmetric"):
        SpinTensorState(st.x, st.u, st.spin + np.diag([0.0, 1e-3, 0.0, 0.0]), st.pi)


def test_trajectory_grid_and_offset():
    pos = boosted_states()["position"]
    traj = integrate(pos, FreeField(), 1e-3, 100, record_every=10)
    assert len(traj) == 11
    assert traj.taus[0] == 0.0
    assert traj.dt == pytest.approx(1e-2)
    first = traj.state_at(0)
    assert np.allclose(first.x, pos.x, atol=0.0)


def test_conservation_free_run():
    """Total angular momentum and momentum are flat without fields."""
    pos = boosted_states()["position"]
    traj = integrate(pos, FreeField(), T0 / 1000, 2000, record_every=10)
    drift = conservation_drift(traj, FreeField())
    assert drift["j_drift"] < 1e-11, f"J drift {drift['j_drift']}"
    assert drift["pi_drift"] == 0.0
    assert drift["energy_residual"] < 1e-12


def test_conservation_uniform_field_spintensor():
    """In a uniform field dJ/dtau equals the applied torque x ^ f."""
    tensor = boosted_states()["spintensor"]
    model = UniformEB(b0=np.array([0.0, 0.0, 1e-3]))
    traj = integrate(tensor, model, T0 / 1000, 2000, record_every=1)
    drift = conservation_drift(traj, model)
    assert drift["torque_residual"] < 1e-6, f"torque residual {drift}"
    for key in ("c1", "c2", "c3", "g"):
        assert drift[key] < 1e-10, f"{key} residual {drift[key]}"


@pytest.mark.parametrize("formulation", ["position", "spintensor", "spinor"])
def test_uniform_field_linear_invariant(formulation):
    """pi - q F x is conserved in a uniform field, to round-off.

    pi' = q F u = q F x' makes pi - q F x a linear invariant of all three
    formulations, and RK4 keeps linear invariants exactly in exact
    arithmetic.  In floating point each step rounds the updates pi + dpi
    and x + dx, by at most eps/2 of |pi| and of |x|; through q F the
    latter moves the invariant by at most eps/2 |q| |F| |x|, with |F| the
    largest row sum of |F|.  The rounding of the increments themselves is
    smaller by dt |f| / |pi|.  So each step moves the invariant by at most
    eps * scale, scale = |pi| + |q| |F| |x|.  As a random walk of n steps
    with errors uniform in +-eps * scale / 2 per term, the drift has
    sigma <= 0.41 sqrt(n) eps scale, and k = 2 in k sqrt(n) eps scale is
    a 5-sigma bound.  Measured over 40k steps: 48, 35 and 33 eps * scale
    (position, spin tensor, spinor), against 400.
    """
    e0, b0 = np.array([2e-7, 0.0, -1e-7]), np.array([0.0, 0.0, 1e-3])
    state = matched_initial_states(0.0, 0.0, velocity=np.array([0.25, 0.0, 0.0]))[formulation]
    n = 40_000
    traj = integrate(state, UniformEB(e0=e0, b0=b0), T0 / 1000, n, record_every=200)
    x, pi = traj.states.x, traj.states.pi
    fx = np.empty_like(x)
    fx[:, 0] = x[:, 1:] @ e0
    fx[:, 1:] = x[:, :1] * e0 + np.cross(x[:, 1:], b0)
    drift = np.abs(pi - Q_ELECTRON * fx - (pi[0] - Q_ELECTRON * fx[0])).max()
    f_norm = np.abs(e0).sum() + np.abs(b0).sum()
    scale = np.abs(pi).max() + abs(Q_ELECTRON) * f_norm * np.abs(x).max()
    assert drift <= 2.0 * np.sqrt(n) * np.finfo(float).eps * scale, drift


def test_fourth_order_equation_of_motion():
    """Sampled runs satisfy the one-variable form of the dynamics.

    The residual is finite-difference limited; it must shrink about 4x
    when dt halves while truncation dominates, and the field-free
    Lagrangian evaluates to m c^2 / 2.
    """
    pos = boosted_states()["position"]
    res_coarse = fourth_order_residual(
        integrate(pos, FreeField(), T0 / 100, 300), FreeField()
    )
    res_fine = fourth_order_residual(
        integrate(pos, FreeField(), T0 / 200, 600), FreeField()
    )
    ratio = res_coarse["max_residual"] / res_fine["max_residual"]
    assert 3.0 < ratio < 5.5, f"residual ratio {ratio}"
    assert np.allclose(res_fine["lagrangian"], 0.5 * MASS * C**2, atol=1e-3)

    model = UniformEB(b0=np.array([0.0, 0.0, 1e-3]))
    traj = integrate(pos, model, T0 / 200, 600, validate=True)
    res_field = fourth_order_residual(traj, model, Q_ELECTRON)
    assert res_field["max_residual"] < 10 * res_fine["max_residual"]


def test_compare_formulations_free():
    """All three formulations follow the same free trajectory."""
    report = compare_trajectories({
        name: integrate(state, FreeField(), T0 / 1000, 2000, record_every=10)
        for name, state in boosted_states().items()
    })
    assert report.overall < 1e-9, f"free divergence {report.per_pair}"
    assert set(report.per_pair) == {"position|spinor", "position|spintensor",
                                    "spinor|spintensor"}
    assert report.overall == max(max(entry.values()) for entry in report.per_pair.values())


def test_position_flow_constraint_resonance_in_field():
    """Documented flow property: the position-variable reduction lets the
    c1 residual grow linearly with field strength for boosted starts in a
    magnetic field, while the spin-tensor flow holds constraints at
    machine precision.  Doubling B doubles the drift."""
    drifts = []
    for b in (1e-6, 2e-6):
        model = UniformEB(b0=np.array([0.0, 0.0, b]))
        traj = integrate(
            boosted_states()["position"], model, T0 / 1000, 10_000, record_every=100
        )
        drifts.append(conservation_drift(traj, model)["c1"])
    ratio = drifts[1] / drifts[0]
    assert 1.6 < ratio < 2.4, f"drift scaling {drifts}"

    model = UniformEB(b0=np.array([0.0, 0.0, 2e-6]))
    traj = integrate(
        boosted_states()["spintensor"], model, T0 / 1000, 10_000, record_every=100
    )
    tensor_drift = conservation_drift(traj, model)
    assert tensor_drift["c3"] < 1e-10
    assert tensor_drift["g"] < 1e-10


@pytest.mark.parametrize("preset", ["uniform-b-weak", "uniform-b-cyclotron",
                                    "uniform-b-precession", "coulomb-orbit"])
def test_spinor_and_spin_tensor_are_one_flow_in_field(preset):
    """In a field the spinor and spin-tensor forms agree up to RK4's h^4 term.

    Model: both forms carry the zitter oscillation of u, of angular frequency
    w = OMEGA0 and amplitude A.  RK4 advances a harmonic of frequency w by
    the phase w h - (w h)^5 / 120 per step, so over t the spin tensor's u
    lags by w t (w h)^4 / 120.  The spinor's phi turns at w / 2, so its lag
    is 16 times smaller and has the same sign.  Hence the gap is about
    (15/16) A w t (w h)^4 / 120, which is at most A w t (w h)^4 / 120, and
    A <= max |u^i|.  Halving h divides it by 16, up to the next term of the
    error expansion, a relative O(w h), and round-off (about 1e-13 here).
    Measured: the gap falls 16.0x per halving (3.6e-8 to 3.9e-8 at 250
    steps per period)."""
    sc = load_scenario(preset)
    t = 2 * T0
    gaps = []
    for n in (250, 500):  # steps per period T0, recorded every T0 / 10
        h = T0 / n
        trajs = {f: integrate(sc.states[f], sc.field, h, 2 * n, sc.charge, n // 10)
                 for f in ("spinor", "spintensor")}
        gap = compare_trajectories(trajs).overall
        amplitude = np.abs(trajs["spintensor"].states.u[:, 1:]).max()
        bound = amplitude * OMEGA0 * t * (OMEGA0 * h) ** 4 / 120
        assert gap <= bound, f"{preset} at h = T0/{n}: gap {gap:.3e} > bound {bound:.3e}"
        gaps.append(gap)
    wh = OMEGA0 * T0 / 250
    ratio = gaps[0] / gaps[1]
    assert 16 * (1 - wh) < ratio < 16 * (1 + wh), f"{preset}: gaps {gaps}, ratio {ratio:.3f}"


def test_spinor_velocity_stays_null_under_field():
    model = UniformEB(b0=np.array([0.0, 0.0, 1e-3]))
    traj = integrate(boosted_states()["spinor"], model, T0 / 1000, 2000)
    nulls = np.abs(mdot(traj.states.u, traj.states.u)).max()
    assert nulls < 1e-10, f"null residual {nulls}"


def test_spin_tensor_state_z_radius():
    state = boosted_states()["spintensor"]
    z = state.z
    assert mdot(z, z) == pytest.approx(-(R0**2), abs=1e-13)
    assert OMEGA0 * R0 == pytest.approx(C)
