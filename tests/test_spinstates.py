"""Spin axis states, measurement statistics, mixture reconstruction."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zsim.constants import C, H_STAR, HBAR, OMEGA0, T0
from zsim.minkowski import mdot
from zsim.spinor import evolve_amplitudes, observable, velocity_observable
from zsim.spinstates import (
    PI_REST,
    axis_noncommutativity,
    axis_vector,
    fix_global_phase,
    malus_probability,
    pauli_spinor,
    polarization_vector,
    reconstruct_mean_velocity,
    sample_measurements,
    sigma_axis,
    sigma_axis_observable,
    spin_amplitudes,
    spin_operator_axis,
    superposition_amplitude_identity,
    transition_probability,
    velocity_down,
    velocity_superposition,
    velocity_up,
)

theta_st = st.floats(min_value=0.0, max_value=np.pi, allow_nan=False)
phi_st = st.floats(min_value=-np.pi, max_value=np.pi, allow_nan=False)


def test_cardinal_amplitudes():
    """Spin up is (1, 0, 0, 1)/sqrt(2); spin down is (0, 1, -1, 0)/sqrt(2)."""
    s = 1.0 / np.sqrt(2.0)
    assert np.allclose(spin_amplitudes(0.0), [s, 0, 0, s], atol=1e-15)
    assert np.allclose(spin_amplitudes(np.pi), [0, s, -s, 0], atol=1e-15)


@given(theta=theta_st, phi=phi_st)
@settings(max_examples=100, deadline=None)
def test_superposition_entrywise_identity(theta, phi):
    """Tilted amplitudes equal the weighted up/down combination entrywise."""
    assert superposition_amplitude_identity(theta, phi) < 1e-14


@given(theta=theta_st, phi=phi_st)
@settings(max_examples=100, deadline=None)
def test_polarization_recovers_axis(theta, phi):
    amps = spin_amplitudes(theta, phi)
    assert np.allclose(polarization_vector(amps), axis_vector(theta, phi), atol=1e-12)


@given(theta=theta_st, phi=phi_st)
@settings(max_examples=100, deadline=None)
def test_spin_expectation_is_half_axis_component(theta, phi):
    """<spin along m> = (hbar/2) n.m for the state polarized along n."""
    amps = spin_amplitudes(theta, phi)
    for m_theta, m_phi in ((0.0, 0.0), (np.pi / 2, 0.0), (np.pi / 2, np.pi / 2)):
        want = H_STAR * float(
            np.dot(axis_vector(theta, phi), axis_vector(m_theta, m_phi))
        )
        got = observable(amps, spin_operator_axis(m_theta, m_phi))
        assert got == pytest.approx(want, abs=1e-12)


def test_sigma_observable_plain_expectation():
    """phi^dagger Sigma_n phi equals n.m with the unit time density."""
    theta, phi = 1.1, -0.4
    amps = spin_amplitudes(theta, phi)
    assert float(np.real(amps.conj() @ amps)) == pytest.approx(1.0, abs=1e-15)
    for ax in ((0.3, 0.9), (np.pi / 2, 0.0), (2.4, -2.0)):
        got = float(np.real(amps.conj() @ sigma_axis_observable(*ax) @ amps))
        want = float(np.dot(axis_vector(theta, phi), axis_vector(*ax)))
        assert got == pytest.approx(want, abs=1e-13)


def test_sigma_axis_eigenvalues():
    vals = np.linalg.eigvalsh(sigma_axis(0.77, 1.3))
    assert np.allclose(sorted(vals), [-1.0, 1.0], atol=1e-14)


@given(theta=theta_st, phi=phi_st)
@settings(max_examples=100, deadline=None)
def test_velocity_closed_forms_match_bilinear(theta, phi):
    """The cos/sin component formulas equal the amplitude-route velocity."""
    taus = np.linspace(0.0, T0, 13)
    direct = velocity_superposition(theta, phi, taus)
    via_amps = velocity_observable(evolve_amplitudes(spin_amplitudes(theta, phi), PI_REST, taus))
    assert np.abs(direct - via_amps).max() < 1e-13


def test_velocity_up_down_special_cases():
    taus = np.linspace(0.0, T0, 9)
    assert np.abs(velocity_up(taus) - velocity_superposition(0.0, 0.0, taus)).max() < 1e-15
    assert (
        np.abs(velocity_down(taus) - velocity_superposition(np.pi, 0.0, taus)).max()
        < 1e-15
    )


@given(theta=theta_st, phi=phi_st)
@settings(max_examples=100, deadline=None)
def test_local_velocity_geometry(theta, phi):
    """u is null, has speed c, and circulates perpendicular to the axis."""
    taus = np.linspace(0.0, T0, 11)
    us = velocity_superposition(theta, phi, taus)
    n = axis_vector(theta, phi)
    assert np.abs(mdot(us, us)).max() < 1e-10
    speeds = np.linalg.norm(us[:, 1:], axis=1)
    assert np.abs(speeds - C).max() < 1e-10
    assert np.abs(us[:, 1:] @ n).max() < 1e-10, "velocity not orthogonal to axis"


def test_malus_closed_form():
    assert malus_probability(0.0) == pytest.approx(1.0)
    assert malus_probability(np.pi) == pytest.approx(0.0, abs=1e-16)
    assert malus_probability(np.pi / 2) == pytest.approx(0.5)
    for theta in (0.3, 1.2, 2.9):
        want = transition_probability(axis_vector(theta, 0.7), np.array([0, 0, 1.0]))
        assert malus_probability(theta) == pytest.approx(want, abs=1e-15)


@given(theta=theta_st, phi=phi_st)
@settings(max_examples=100, deadline=None)
def test_axis_noncommutativity_closed_form(theta, phi):
    a = axis_vector(theta, phi)
    b = np.array([0.0, 0.0, 1.0])
    res = axis_noncommutativity(a, b)
    assert res["measured"] == pytest.approx(res["expected"], abs=1e-12)
    same = axis_noncommutativity(a, a)
    assert same["measured"] == pytest.approx(0.0, abs=1e-13)


def test_sampling_frozen_tallies():
    """Seeded tallies are reproducible and within 3 sigma of the law."""
    expect = {np.pi / 6: 93450, np.pi / 2: 50250, 2 * np.pi / 3: 24920}
    for theta, n_up in expect.items():
        rep = sample_measurements(theta, count=100_000, seed=0)
        assert rep["n_up"] == n_up, f"tally changed: {rep['n_up']} != {n_up}"
        assert rep["n_up"] + rep["n_dn"] == 100_000
        assert abs(rep["z_score"]) < 3.0, f"theta={theta}: z={rep['z_score']}"
    assert sample_measurements(np.pi / 2, count=100_000, seed=1)["n_up"] == 50090


def test_sampling_device_axis_aligned():
    """Measuring along the polarization axis gives all-up with certainty."""
    rep = sample_measurements(0.9, 0.4, count=1000, seed=3, device_axis=axis_vector(0.9, 0.4))
    assert rep["n_up"] == 1000
    assert rep["z_score"] == 0.0


def test_sampling_rejects_bad_count():
    with pytest.raises(ValueError):
        sample_measurements(0.5, count=0)


def test_reconstruction_transverse_exact_axial_gap():
    """The up/down mixture recovers the transverse velocity exactly but
    averages the axial oscillation c sin(theta) cos(w0 tau) to zero."""
    theta, phi = 2 * np.pi / 3, 0.8
    taus = np.linspace(0.0, 2 * T0, 128, endpoint=False)
    rep = reconstruct_mean_velocity(theta, phi, taus)
    assert rep["max_transverse_error"] < 1e-14, f"transverse {rep['max_transverse_error']}"
    want_gap = -C * np.sin(theta) * np.cos(OMEGA0 * taus)
    assert np.allclose(rep["axial_gap"], want_gap, atol=1e-14)
    assert np.abs(rep["u_mixture"][:, 3]).max() == 0.0


def test_reconstruction_with_sampled_weight():
    """A sampled Malus weight reproduces the transverse motion to O(1/sqrt(N))."""
    theta = np.pi / 3
    rep_meas = sample_measurements(theta, count=100_000, seed=0)
    rep = reconstruct_mean_velocity(theta, 0.0, p_up=rep_meas["p_up_hat"])
    scatter = abs(rep_meas["p_up_hat"] - malus_probability(theta))
    assert rep["max_transverse_error"] <= 2.0 * C * scatter + 1e-14


def test_spin_amplitude_weights():
    """The four components split the state over spin (up/down) x energy sign:
    up+, down+, down-, up- weigh cos^2(t/2)/2, sin^2(t/2)/2, sin^2(t/2)/2, cos^2(t/2)/2."""
    theta, phi = 1.0, -0.6
    c2, s2 = np.cos(theta / 2) ** 2 / 2, np.sin(theta / 2) ** 2 / 2
    weights = np.abs(spin_amplitudes(theta, phi)) ** 2
    assert np.allclose(weights, [c2, s2, s2, c2], rtol=0.0, atol=1e-14)


@given(theta=theta_st, phi=phi_st, tau=st.floats(min_value=0.0, max_value=10.0, allow_nan=False))
@settings(max_examples=100, deadline=None)
def test_pauli_reduction_recovers_two_spinor(theta, phi, tau):
    """The positive-frequency reduction is the static two-component spinor."""
    chi = np.array(
        [
            np.exp(-0.5j * phi) * np.cos(theta / 2),
            np.exp(+0.5j * phi) * np.sin(theta / 2),
        ]
    )
    red = pauli_spinor(evolve_amplitudes(spin_amplitudes(theta, phi), PI_REST, tau), tau)
    assert np.allclose(fix_global_phase(red), fix_global_phase(chi), atol=1e-12)


def test_fix_global_phase_normalizes_leading_component():
    v = np.array([0.3 - 0.4j, 0.8j])
    out = fix_global_phase(v)
    assert out[np.argmax(np.abs(out))].imag == pytest.approx(0.0, abs=1e-15)
    assert np.allclose(np.abs(out), np.abs(v), atol=1e-15)


def test_spin_state_velocity_matches_rest_bilinear():
    u = velocity_observable(evolve_amplitudes(spin_amplitudes(0.7, 0.2), PI_REST, 0.9))
    want = velocity_superposition(0.7, 0.2, 0.9)[0]
    assert np.allclose(u, want, atol=1e-13)
    assert mdot(PI_REST, u) == pytest.approx(1.0, abs=1e-13)


def test_spin_magnitude_constant():
    assert HBAR / 2 == H_STAR
