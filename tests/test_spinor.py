"""Gamma-algebra operators, closed-form state evolution, spinor boosts."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zsim.constants import C, HBAR, MASS, OMEGA0, REST_ENERGY, T0
from zsim.dynamics import free_motion, matched_initial_states
from zsim.minkowski import METRIC, BoostParams, boost_vector, gamma_of, lower, mdot
from zsim.spinor import (
    GAMMA,
    GAMMA0,
    SPIN_OP,
    U_OP,
    boost_state,
    energy_projectors,
    energy_split,
    evolve_amplitudes,
    hamiltonian,
    is_observable,
    normalization,
    observable,
    operator_identity_suite,
    spin_tensor_observable,
    state_derivative,
    velocity_observable,
)
from zsim.spinstates import PI_REST, spin_amplitudes

theta_st = st.floats(min_value=0.0, max_value=np.pi, allow_nan=False)
phi_st = st.floats(min_value=-np.pi, max_value=np.pi, allow_nan=False)
speed_st = st.floats(min_value=-0.9, max_value=0.9, allow_nan=False)


def momentum_of(v3: np.ndarray) -> np.ndarray:
    g = gamma_of(v3)
    return MASS * np.concatenate(([g * C], g * np.asarray(v3)))


def operator_identity_loops(pi: np.ndarray) -> dict[str, float]:
    """Reference: the operator identities evaluated one Lorentz index at a time."""
    h = hamiltonian(pi)
    pi = np.asarray(pi, dtype=np.float64)
    pi_low = lower(pi)
    eye = np.eye(4, dtype=np.complex128)

    res_anti = 0.0
    for mu in range(4):
        for nu in range(4):
            lhs = GAMMA[mu] @ GAMMA[nu] + GAMMA[nu] @ GAMMA[mu]
            target = 2.0 * METRIC[mu, nu] * eye
            res_anti = max(res_anti, float(np.abs(lhs - target).max()))

    res_h2 = float(np.abs(h @ h - C**2 * mdot(pi, pi) * eye).max())

    res_vel = 0.0
    for mu in range(4):
        lhs = (1j / HBAR) * (h @ U_OP[mu] - U_OP[mu] @ h)
        rhs = (4.0 * C**2 / HBAR**2) * sum(
            SPIN_OP[mu][nu] * pi_low[nu] for nu in range(4)
        )
        res_vel = max(res_vel, float(np.abs(lhs - rhs).max()))

    res_spin = 0.0
    for mu in range(4):
        for nu in range(4):
            lhs = (1j / HBAR) * (h @ SPIN_OP[mu][nu] - SPIN_OP[mu][nu] @ h)
            rhs = pi[mu] * U_OP[nu] - pi[nu] * U_OP[mu]
            res_spin = max(res_spin, float(np.abs(lhs - rhs).max()))

    res_hgh = 0.0
    for mu in range(4):
        lhs = h @ GAMMA[mu] @ h
        rhs = -(REST_ENERGY**2) * GAMMA[mu] + 2.0 * C * pi[mu] * h
        res_hgh = max(res_hgh, float(np.abs(lhs - rhs).max()))

    return {
        "anticommutator": res_anti,
        "h_squared": res_h2,
        "velocity_commutator": res_vel,
        "spin_commutator": res_spin,
        "h_gamma_h": res_hgh,
    }


def operator_roundoff_bounds(pi: np.ndarray) -> dict[str, float]:
    """Worst-case round-off of each operator identity residual.

    Model (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    sections 3.1 and 3.6): an entry formed by n real roundings of terms whose
    magnitudes sum to M is off by at most gamma_n M, gamma_n = n u / (1 - n u),
    and a complex rounding costs at most sqrt(2) times a real one.  Every
    entry here takes at most two chained 4-term complex products and one
    difference, so n = 16 is an upper count.  With P = max |pi^mu|, the
    entries of H are at most 2 c P, those of gamma^mu and u^mu at most c and
    those of S^{mu nu} at most hbar / 2, which bounds M per identity.  The
    gamma-products are exact (entries 0, +-1, +-i), so the anticommutator's
    bound is 0.  h_gamma_h uses (m c^2)^2 for c^2 pi.pi, so it also carries
    the momentum's own distance from the mass shell (times |gamma^mu| <= 1).
    """
    u = np.finfo(np.float64).eps / 2.0
    g16 = np.sqrt(2.0) * 16 * u / (1.0 - 16 * u)
    p = float(np.abs(pi).max())
    off_shell = abs(C**2 * mdot(pi, pi) - REST_ENERGY**2)
    return {
        "anticommutator": 0.0,
        "h_squared": g16 * 20.0 * (C * p) ** 2,
        "velocity_commutator": g16 * 24.0 * C**2 * p / HBAR,
        "spin_commutator": g16 * 10.0 * C * p,
        "h_gamma_h": g16 * (68.0 * (C * p) ** 2 + REST_ENERGY**2) + off_shell,
    }


def test_operator_identities_match_index_loops():
    """The stacked battery equals the per-index reference within round-off,
    key by key, over a seeded grid of on-shell momenta up to gamma ~ 10."""
    rng = np.random.default_rng(14)
    momenta = [PI_REST]
    for speed in np.linspace(0.05, 0.995, 40):
        direction = rng.normal(size=3)
        momenta.append(momentum_of(speed * direction / np.linalg.norm(direction)))
    for pi in momenta:
        stacked = operator_identity_suite(pi)
        loops = operator_identity_loops(pi)
        bounds = operator_roundoff_bounds(pi)
        assert stacked.keys() == loops.keys() == bounds.keys()
        for key, bound in bounds.items():
            assert loops[key] <= bound, (key, loops[key], bound, pi)
            assert abs(stacked[key] - loops[key]) <= bound, (key, stacked[key], loops[key], pi)


def test_operator_identities_at_rest():
    res = operator_identity_suite(PI_REST)
    for name, val in res.items():
        assert val < 1e-13, f"{name} residual {val}"


def test_operator_identities_boosted():
    pi = momentum_of(np.array([0.6, -0.2, 0.3]))
    res = operator_identity_suite(pi)
    for name, val in res.items():
        assert val < 1e-13, f"{name} residual {val}"


def test_hamiltonian_is_observable_with_rest_value():
    h = hamiltonian(PI_REST)
    assert is_observable(h)
    amps = spin_amplitudes(0.3, -1.1)
    assert observable(amps, h) == pytest.approx(REST_ENERGY, abs=1e-14)


def test_non_observable_operator_rejected():
    assert not is_observable(1j * np.eye(4, dtype=np.complex128))
    with pytest.raises(ValueError):
        observable(spin_amplitudes(0.0), 1j * np.eye(4, dtype=np.complex128))


def test_evolution_sign_flip_after_one_orbit():
    """One zitter period advances the state phase by pi: phi -> -phi."""
    amps = spin_amplitudes(np.pi / 3, 0.4)
    out = evolve_amplitudes(amps, PI_REST, T0)
    assert np.allclose(out, -amps, atol=1e-14)
    out2 = evolve_amplitudes(amps, PI_REST, 2 * T0)
    assert np.allclose(out2, amps, atol=1e-13)


def test_evolution_preserves_normalization():
    amps = spin_amplitudes(1.2, 2.0)
    taus = np.linspace(0.0, 7.0, 40)
    evolved = evolve_amplitudes(amps, PI_REST, taus)
    norms = [normalization(p, PI_REST) for p in evolved]
    assert np.allclose(norms, REST_ENERGY, atol=1e-13)


def test_state_derivative_matches_evolution():
    amps = spin_amplitudes(0.8, -0.3)
    h = 1e-6
    fd = (
        evolve_amplitudes(amps, PI_REST, h) - evolve_amplitudes(amps, PI_REST, -h)
    ) / (2 * h)
    assert np.allclose(fd, state_derivative(amps, PI_REST), atol=1e-9)


def test_energy_projectors_reject_off_shell_momentum():
    with pytest.raises(ValueError, match="off shell"):
        energy_projectors(np.array([2.0, 0.0, 0.0, 0.0]))


@given(theta=theta_st, phi=phi_st)
@settings(max_examples=100, deadline=None)
def test_velocity_closed_form_matches_evolution(theta, phi):
    """The free-motion velocity of the matched rest state equals the
    bilinear of the evolved spinor."""
    taus = np.linspace(0.0, 2 * T0, 17)
    via_state = velocity_observable(evolve_amplitudes(spin_amplitudes(theta, phi), PI_REST, taus))
    direct = free_motion(matched_initial_states(theta, phi)["position"], taus)[1]
    assert np.abs(via_state - direct).max() < 1e-13


@given(theta=theta_st, phi=phi_st)
@settings(max_examples=100, deadline=None)
def test_velocity_observable_is_null(theta, phi):
    """The velocity bilinear is a null four-vector with unit time component."""
    amps = spin_amplitudes(theta, phi)
    taus = np.linspace(0.0, T0, 9)
    us = velocity_observable(evolve_amplitudes(amps, PI_REST, taus))
    assert np.abs(mdot(us, us)).max() < 1e-13
    assert np.allclose(us[:, 0], C, atol=1e-13)


def test_velocity_derivative_from_spin_tensor():
    """udot = (4 c^2 / hbar^2) S pi_low reproduces the finite difference."""
    amps = spin_amplitudes(0.9, 0.7)
    s0 = spin_tensor_observable(amps)
    udot = (4.0 * C**2 / HBAR**2) * (s0 @ (PI_REST * np.array([1, -1, -1, -1])))
    h = 1e-6
    fd = (
        velocity_observable(evolve_amplitudes(amps, PI_REST, h))
        - velocity_observable(evolve_amplitudes(amps, PI_REST, -h))
    ) / (2 * h)
    assert np.allclose(udot, fd, atol=1e-8)
    assert np.linalg.norm(udot[1:]) == pytest.approx(C * OMEGA0, abs=1e-12)


@pytest.mark.parametrize("n", [1, 2, 7, 50])
def test_stacked_bilinears_match_single_state_bytes(n):
    """Row i of the stacked u and S is the single-state result on amplitude row i, byte
    for byte: initial states take the single form, trajectory records the
    stacked one, also as a strided column view of the packed records."""
    pi = momentum_of(np.array([0.3, -0.6, 0.2]))
    amps = boost_state(spin_amplitudes(0.0), BoostParams(pi[1:] / pi[0]))
    evolved = evolve_amplitudes(amps, pi, np.linspace(0.0, 3 * T0, n))
    packed = np.zeros((n, 16))
    packed[:, 8:16] = evolved.view(np.float64)
    for stack in (evolved, packed[:, 8:16].view(np.complex128)):
        us = velocity_observable(stack)
        spins = spin_tensor_observable(stack)
        assert us.shape == (n, 4) and spins.shape == (n, 4, 4)
        for phi, u, spin in zip(stack, us, spins):
            assert u.tobytes() == velocity_observable(phi).tobytes()
            assert spin.tobytes() == spin_tensor_observable(phi).tobytes()


def test_energy_projectors_algebra():
    pi = momentum_of(np.array([0.2, 0.5, -0.1]))
    p_plus, p_minus = energy_projectors(pi)
    eye = np.eye(4)
    assert np.allclose(p_plus + p_minus, eye, atol=1e-15)
    assert np.allclose(p_plus @ p_plus, p_plus, atol=1e-14)
    assert np.allclose(p_minus @ p_minus, p_minus, atol=1e-14)
    assert np.abs(p_plus @ p_minus).max() < 1e-14


def test_energy_split_recombines_and_diagonalizes():
    amps = spin_amplitudes(np.pi / 4, 0.0)
    plus, minus = energy_split(amps, PI_REST)
    assert np.allclose(plus + minus, amps, atol=1e-15)
    h = hamiltonian(PI_REST)
    assert np.allclose(h @ plus, REST_ENERGY * plus, atol=1e-14)
    assert np.allclose(h @ minus, -REST_ENERGY * minus, atol=1e-14)


def test_boost_maps_rest_velocity_example():
    """Boost at 0.6c along x sends the null velocity (1,1,0,0) to (2,2,0,0)."""
    amps = spin_amplitudes(0.0)
    u0 = velocity_observable(amps)
    assert np.allclose(u0, [1.0, 1.0, 0.0, 0.0], atol=1e-14)
    params = BoostParams(np.array([0.6, 0.0, 0.0]))
    u1 = velocity_observable(boost_state(amps, params))
    assert np.allclose(u1, [2.0, 2.0, 0.0, 0.0], atol=1e-13), f"boosted u {u1}"


@given(theta=theta_st, phi=phi_st, vx=speed_st, vy=st.floats(min_value=-0.4, max_value=0.4, allow_nan=False))
@settings(max_examples=100, deadline=None)
def test_boost_state_consistent_with_vector_boost(theta, phi, vx, vy):
    """Spinor boost and coordinate boost give the same velocity bilinear,
    and the energy normalization against the boosted momentum is preserved."""
    v = np.array([vx, vy, 0.0])
    if np.linalg.norm(v) >= 0.95:
        v = 0.9 * v / np.linalg.norm(v)
    params = BoostParams(v)
    amps = spin_amplitudes(theta, phi)
    boosted = boost_state(amps, params)
    u_spinor = velocity_observable(boosted)
    u_vector = boost_vector(velocity_observable(amps), params)
    assert np.allclose(u_spinor, u_vector, atol=1e-12)
    pi1 = boost_vector(PI_REST, params)
    assert normalization(boosted, pi1) == pytest.approx(REST_ENERGY, abs=1e-12)


def test_gamma_matrices_dirac_basis():
    assert np.allclose(GAMMA0, np.diag([1, 1, -1, -1]))
    for k in range(1, 4):
        assert np.allclose(GAMMA[k][:2, :2], 0.0)
        assert np.allclose(GAMMA[k][2:, 2:], 0.0)
