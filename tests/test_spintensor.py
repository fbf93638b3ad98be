"""Spin tensor identities, dipole energies, angular momentum conservation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zsim.constants import C, H_STAR, HBAR, MASS, OMEGA0, Q_ELECTRON, R0, T0
from zsim.dynamics import free_motion, matched_initial_states
from zsim.emfield import CoulombField, FreeField, UniformEB
from zsim.minkowski import antisymmetric_parts, lower
from zsim.spinstates import axis_vector
from zsim.spintensor import (
    accel_spin_tensor,
    angular_momentum,
    build_spin_tensor,
    identity_suite,
    interaction_energy,
    scalar_invariant,
    triad_residuals,
)
from zsim.states import PositionState

theta_st = st.floats(min_value=0.0, max_value=np.pi, allow_nan=False)
phi_st = st.floats(min_value=-np.pi, max_value=np.pi, allow_nan=False)
speed_st = st.floats(min_value=-0.8, max_value=0.8, allow_nan=False)


def test_rest_spin_up_components():
    """Spin-up at rest: s = (0, 0, 1/2) and d = (0, -1/2, 0) at tau = 0."""
    state = matched_initial_states(0.0)["position"]
    assert np.allclose(state.u, [1.0, 1.0, 0.0, 0.0], atol=1e-15)
    assert np.allclose(state.z, [0.0, 0.0, -0.5, 0.0], atol=1e-15)
    d, s = antisymmetric_parts(build_spin_tensor(state.z, state.u))
    assert np.allclose(s, [0.0, 0.0, 0.5], atol=1e-15), f"s = {s}"
    assert np.allclose(d, [0.0, -0.5, 0.0], atol=1e-15), f"d = {d}"


def test_rest_spin_vector_follows_axis():
    """At rest the spin three-vector is (hbar / 2) times the chosen axis."""
    theta, phi = np.pi / 3, 0.4
    state = matched_initial_states(theta, phi)["position"]
    _, s = antisymmetric_parts(build_spin_tensor(state.z, state.u))
    assert np.allclose(s, H_STAR * axis_vector(theta, phi), atol=1e-14)
    assert np.linalg.norm(s) == pytest.approx(H_STAR, abs=1e-14)


def test_acceleration_form_equals_wedge_form():
    """S = (m / w0^2)(udot ^ u) with udot = -w0^2 z equals -m (z ^ u)."""
    state = matched_initial_states(0.5, 1.3)["position"]
    udot = -(OMEGA0**2) * state.z
    assert np.allclose(
        accel_spin_tensor(state.u, udot),
        build_spin_tensor(state.z, state.u),
        atol=1e-14,
    )


@given(theta=theta_st, phi=phi_st, vx=speed_st, vy=speed_st)
@settings(max_examples=100, deadline=None)
def test_identity_suite_on_matched_states(theta, phi, vx, vy):
    """All contraction identities hold on constraint-satisfying states."""
    v = np.array([vx, vy, 0.0])
    n = np.linalg.norm(v)
    if n >= 0.95:
        v *= 0.9 / n
    state = matched_initial_states(theta, phi, velocity=v)["position"]
    res = identity_suite(state)
    for name, val in res.items():
        assert val < 1e-10, f"{name} residual {val} for theta={theta} v={v}"


def _scaled_one(lhs, rhs) -> float:
    lhs = np.atleast_1d(np.asarray(lhs, dtype=np.float64))
    rhs = np.atleast_1d(np.asarray(rhs, dtype=np.float64))
    scale = max(1.0, float(np.abs(lhs).max()), float(np.abs(rhs).max()))
    return float(np.abs(lhs - rhs).max()) / scale


def identity_suite_loops(state: PositionState) -> dict[str, float]:
    """Reference: identity_suite with one matrix-vector product and one scaled
    residual per identity."""
    z, u, pi = state.z, state.u, state.pi
    spin = build_spin_tensor(z, u)
    udot = -(OMEGA0**2) * z
    zdot = u - pi / MASS
    out = {
        "s_u": _scaled_one(spin @ lower(u), np.zeros(4)),
        "s_udot": _scaled_one(spin @ lower(udot), MASS * C**2 * u),
        "s_pi": _scaled_one(spin @ lower(pi), -((MASS * C) ** 2) * z),
        "s_z": _scaled_one(spin @ lower(z), -(HBAR / (2.0 * OMEGA0)) * u),
        "s_zdot": _scaled_one(spin @ lower(zdot), MASS * C**2 * z),
    }
    d, s = antisymmetric_parts(spin)
    out["scalar"] = _scaled_one(scalar_invariant(spin), 0.0)
    out["scalar_vector_form"] = _scaled_one(
        scalar_invariant(spin), 2.0 * (np.dot(s, s) - np.dot(d, d))
    )
    tdot = u[0] / C
    out["magnitude_s"] = _scaled_one(np.linalg.norm(s), H_STAR * tdot)
    out["magnitude_d"] = _scaled_one(np.linalg.norm(d), H_STAR * tdot)
    xdot = u[1:]
    rows = np.vstack([2.0 * d / (HBAR * tdot), xdot / (C * tdot), 2.0 * s / (HBAR * tdot)])
    out["triad_orthonormal"] = float(np.abs(rows @ rows.T - np.eye(3)).max())
    out["triad_handedness"] = abs(float(np.linalg.det(rows)) - 1.0)
    out["cyclic_d"] = _scaled_one(d, np.cross(xdot, s) / (C * tdot))
    out["cyclic_s"] = _scaled_one(s, np.cross(d, xdot) / (C * tdot))
    out["cyclic_u"] = _scaled_one(xdot, (4.0 * C**2 / HBAR**2) * np.cross(s, d) / (C * tdot))
    return out


_CONTRACTIONS = {"s_u": "u", "s_udot": "udot", "s_pi": "pi", "s_z": "z", "s_zdot": "zdot"}


def test_identity_suite_matches_loops():
    """The stacked suite equals the per-identity reference over a seeded grid of
    matched states up to gamma ~ 10.

    Only the five contractions S v changed their arithmetic (one matrix product
    in place of five matrix-vector products); every other key must match bit
    for bit.  For the contractions the round-off model (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., section 3.5) bounds each entry
    of a 4-term product, in any summation order, within gamma_4 (|S| |v|)_i of
    the exact value, gamma_4 = 4 u / (1 - 4 u).  So the two lhs differ by at
    most delta = 2 gamma_4 max (|S| |v|); the residual's numerator and its
    scale max(1, |lhs|, |rhs|) >= 1 then each move by at most delta, which
    moves the scaled residual r by at most delta (1 + r) / (1 - delta).
    """
    u_round = np.finfo(np.float64).eps / 2.0
    gamma4 = 4 * u_round / (1.0 - 4 * u_round)
    rng = np.random.default_rng(14)
    for speed in np.linspace(0.0, 0.995, 40):
        direction = rng.normal(size=3)
        state = matched_initial_states(
            rng.uniform(0.0, np.pi), rng.uniform(-np.pi, np.pi),
            velocity=speed * direction / np.linalg.norm(direction),
            phase=rng.uniform(0.0, 2.0 * np.pi),
        )["position"]
        stacked = identity_suite(state)
        loops = identity_suite_loops(state)
        assert stacked.keys() == loops.keys()
        spin = np.abs(build_spin_tensor(state.z, state.u))
        vectors = {"u": state.u, "udot": -(OMEGA0**2) * state.z, "pi": state.pi,
                   "z": state.z, "zdot": state.u - state.pi / MASS}
        for key, ref in loops.items():
            if key in _CONTRACTIONS:
                v = np.abs(lower(vectors[_CONTRACTIONS[key]]))
                delta = 2.0 * gamma4 * float((spin @ v).max())
                bound = delta * (1.0 + ref) / (1.0 - delta)
                assert abs(stacked[key] - ref) <= bound, (key, stacked[key], ref, bound)
            else:
                assert stacked[key] == ref, (key, stacked[key], ref)


def test_identity_suite_detects_shifted_spin_center():
    """Moving y by 1e-3 r0 moves z, which each of S pi, S z and S zdot sees
    against its own right-hand side.  The state moves: at rest a spatial shift
    leaves S pi = -(m c)^2 z exact, because z0 stays 0."""
    state = matched_initial_states(np.pi / 3, 0.4, velocity=np.array([0.3, -0.2, 0.1]))[
        "position"
    ]
    shifted = PositionState(x=state.x, u=state.u, y=state.y + np.array([0.0, 1e-3 * R0, 0.0, 0.0]),
                            pi=state.pi)
    res = identity_suite(shifted)
    for key in ("s_pi", "s_z", "s_zdot"):
        assert res[key] > 1e-6, f"shifted spin center went undetected by {key}: {res[key]}"


def test_identity_suite_detects_scaled_velocity():
    """A 0.1% error in the spatial velocity breaks S u = 0 detectably."""
    state = matched_initial_states(np.pi / 3, 0.4)["position"]
    bad_u = state.u.copy()
    bad_u[1:] *= 1.001
    bad = PositionState(x=state.x, u=bad_u, y=state.y, pi=state.pi)
    res = identity_suite(bad)
    assert res["s_u"] > 1e-4, f"corruption went undetected: {res['s_u']}"


def test_scalar_invariant_forms():
    state = matched_initial_states(0.9, 2.2, velocity=np.array([0.5, 0.0, 0.0]))[
        "position"
    ]
    spin = build_spin_tensor(state.z, state.u)
    d, s = antisymmetric_parts(spin)
    assert scalar_invariant(spin) == pytest.approx(0.0, abs=1e-13)
    assert scalar_invariant(spin) == pytest.approx(
        2.0 * (np.dot(s, s) - np.dot(d, d)), abs=1e-13
    )


def test_triad_orthonormal_and_right_handed():
    state = matched_initial_states(2.0, -1.0, velocity=np.array([0.0, 0.6, 0.0]))[
        "position"
    ]
    spin = build_spin_tensor(state.z, state.u)
    res = triad_residuals(spin, state.u)
    for name, val in res.items():
        assert val < 1e-12, f"{name} residual {val}"


def test_interaction_energy_routes_agree():
    """Force contraction, tensor contraction, and dipole form all agree."""
    state = matched_initial_states(
        np.pi / 3, 0.4, velocity=np.array([0.3, -0.2, 0.1])
    )["position"]
    model = UniformEB(e0=np.array([2e-4, 0.0, -1e-4]), b0=np.array([0.0, 5e-4, 3e-4]))
    rep = interaction_energy(state, model, Q_ELECTRON)
    assert rep["phi_via_tensor"] == pytest.approx(rep["phi"], abs=1e-12)
    assert rep["phi_via_vectors"] == pytest.approx(rep["phi"], abs=1e-12)
    assert rep["u_magnetic"] + rep["u_electric"] == pytest.approx(rep["phi"], abs=1e-15)


def test_magnetic_dipole_energy_aligned():
    """Electron spin aligned with B: U_m = (hbar / 2)(e / m) B, U_e = 0."""
    state = matched_initial_states(0.0)["position"]
    b = 1e-3
    rep = interaction_energy(state, UniformEB(b0=np.array([0.0, 0.0, b])), Q_ELECTRON)
    assert rep["u_magnetic"] == pytest.approx(H_STAR * b / MASS, rel=1e-12)
    assert rep["u_electric"] == pytest.approx(0.0, abs=1e-18)
    assert np.allclose(rep["magnetic_moment"], [0.0, 0.0, Q_ELECTRON * H_STAR])


def test_magnetic_dipole_energy_anti_aligned():
    state = matched_initial_states(np.pi)["position"]
    b = 1e-3
    rep = interaction_energy(state, UniformEB(b0=np.array([0.0, 0.0, b])), Q_ELECTRON)
    assert rep["u_magnetic"] == pytest.approx(-H_STAR * b / MASS, rel=1e-12)


def test_energy_residual_zero_for_free_states():
    state = matched_initial_states(1.0, 0.5, velocity=np.array([0.4, 0.2, 0.0]))[
        "position"
    ]
    diag = interaction_energy(state, FreeField(), Q_ELECTRON)
    assert abs(diag["energy_residual"]) < 1e-12
    assert diag["gamma_implied"] == pytest.approx(diag["gamma_momentum"], rel=1e-12)


def test_moving_dipole_electric_term():
    """Averaged over a revolution, U_e reduces to the (E x P).s drift term.

    The instantaneous electric-dipole energy oscillates at the orbit
    frequency; its period mean is the motional term carried by the drift
    momentum, up to the small field variation across the orbit.
    """
    state0 = matched_initial_states(0.0, velocity=np.array([0.0, 0.05, 0.0]))[
        "position"
    ]
    model = CoulombField(z_charge=1.0, center=np.array([300.0, 0.0, 0.0]))
    taus = np.linspace(0.0, T0, 64, endpoint=False)
    xs, us, centers = free_motion(state0, taus)
    u_e, dominant = [], []
    for x, u, y in zip(xs, us, centers):
        st8 = PositionState(x=x, u=u, y=y, pi=state0.pi)
        diag = interaction_energy(st8, model, Q_ELECTRON)
        u_e.append(diag["u_electric_dominant"] + diag["u_electric_remainder"])
        dominant.append(diag["u_electric_dominant"])
    mean_ue, mean_dom = np.mean(u_e), np.mean(dominant)
    assert abs(mean_dom) > 1e-8, "test geometry degenerate"
    assert mean_ue == pytest.approx(mean_dom, rel=0.05), f"{mean_ue} vs {mean_dom}"


def test_angular_momentum_conserved_free():
    """J = x ^ pi + S is constant along free motion."""
    state0 = matched_initial_states(
        np.pi / 3, 0.4, velocity=np.array([0.6, 0.0, 0.0])
    )["position"]
    taus = np.linspace(0.0, 10 * T0, 101)
    xs, us, centers = free_motion(state0, taus)
    totals = []
    for x, u, y in zip(xs, us, centers):
        st8 = PositionState(x=x, u=u, y=y, pi=state0.pi)
        totals.append(angular_momentum(st8))
    totals = np.array(totals)
    drift = np.abs(totals - totals[0]).max()
    assert drift < 1e-12, f"angular momentum drift {drift}"


def test_angular_momentum_vector_form():
    """The space part of J in the (d, s) layout, negated, is x cross P - s."""
    state = matched_initial_states(0.7, -0.9, velocity=np.array([0.2, 0.3, 0.0]))[
        "position"
    ]
    _, j_space = antisymmetric_parts(angular_momentum(state))
    _, s = antisymmetric_parts(state.spin)
    want = np.cross(state.x[1:], state.pi[1:]) - s
    assert np.allclose(-j_space, want, atol=1e-15)


def test_spin_magnitude_scales_with_tdot():
    """|s| = (hbar / 2) tdot grows with the Lorentz factor of the drift."""
    v = np.array([0.6, 0.0, 0.0])
    state = matched_initial_states(np.pi / 2, 0.0, velocity=v)["position"]
    d, s = antisymmetric_parts(build_spin_tensor(state.z, state.u))
    tdot = state.u[0]
    assert np.linalg.norm(s) == pytest.approx(H_STAR * tdot, rel=1e-12)
    assert np.linalg.norm(d) == pytest.approx(H_STAR * tdot, rel=1e-12)
    assert HBAR == 2 * H_STAR
