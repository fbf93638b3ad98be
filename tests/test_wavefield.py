"""Space-time wave function, field equations, ensemble density transport."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import chi2

from zsim import wavefield
from zsim.constants import C, MASS, OMEGA0, T0
from zsim.dynamics import matched_initial_states
from zsim.minkowski import BoostParams, boost_vector, gamma_of, mdot
from zsim.spinor import boost_state, velocity_observable
from zsim.spinstates import PI_REST, spin_amplitudes
from zsim.states import SpinorState
from zsim.wavefield import (
    continuity_divergence,
    current_density,
    de_broglie,
    dirac_residual,
    energy_split_fields,
    ensemble_uniformity,
    gradient_analytic,
    gradient_fd,
    klein_gordon_residual,
    momentum_extraction,
    proper_time_of,
    velocity_field,
    wave_function_at,
)

theta_st = st.floats(min_value=0.0, max_value=np.pi, allow_nan=False)
speed_st = st.floats(min_value=-0.8, max_value=0.8, allow_nan=False)


def moving_wave(theta=np.pi / 3, phi=0.4, v=(0.6, 0.0, 0.0)) -> SpinorState:
    params = BoostParams(np.array(v))
    amps = boost_state(spin_amplitudes(theta, phi), params)
    pi = boost_vector(PI_REST, params)
    return SpinorState(np.zeros(4), amps, pi)


def event_cloud(n=200, seed=7) -> np.ndarray:
    return np.random.default_rng(seed).uniform(-5.0, 5.0, size=(n, 4))


def test_wave_function_validates_shapes():
    with pytest.raises(ValueError):
        SpinorState(np.zeros(4), np.zeros(3, dtype=complex), PI_REST)
    with pytest.raises(ValueError):
        SpinorState(np.zeros(4), np.zeros(4, dtype=complex), np.zeros(3))


def test_synchronized_proper_time_example():
    """At 0.6c the event (1.25, 0.75, 0, 0) is one unit of proper time."""
    wave = moving_wave()
    assert np.allclose(wave.pi, [1.25, 0.75, 0.0, 0.0], atol=1e-14)
    tau = proper_time_of(wave, np.array([1.25, 0.75, 0.0, 0.0]))
    assert tau == pytest.approx(1.0, abs=1e-14)
    assert proper_time_of(wave, np.zeros(4)) == pytest.approx(0.0, abs=1e-16)


def test_proper_time_constant_on_phase_planes():
    """tau(x) is constant on planes orthogonal (in the metric) to pi."""
    wave = moving_wave()
    base = np.array([2.0, 1.0, 0.0, 0.0])
    normal = np.array([wave.pi[1], wave.pi[0], 0.0, 0.0])  # pi.normal = 0
    assert mdot(wave.pi, normal) == pytest.approx(0.0, abs=1e-15)
    for lam in (-3.0, 0.5, 8.0):
        assert proper_time_of(wave, base + lam * normal) == pytest.approx(
            proper_time_of(wave, base), abs=1e-12
        )


def test_wave_agrees_with_state_on_worldline():
    """Along the spin-center worldline the wave reduces to the time state."""
    wave = moving_wave()
    v = wave.pi[1:] / wave.pi[0]
    g = gamma_of(v)
    taus = np.linspace(0.0, 3 * T0, 11)
    events = np.column_stack([g * taus, np.outer(g * taus, v)])
    from zsim.spinor import evolve_amplitudes

    assert np.allclose(
        wave_function_at(wave, events),
        evolve_amplitudes(wave.phi, wave.pi, taus),
        atol=1e-12,
    )


def test_wave_is_its_state_at_the_state_event():
    """tau is measured from the state's own event, so psi(x_s) = phi there
    exactly, also for a state away from the origin, and the wave moves with it."""
    state = matched_initial_states(np.pi / 3, 0.4, velocity=np.array([0.3, 0.0, 0.1]),
                                   origin=np.array([0.5, 1.0, -2.0, 3.0]),
                                   phase=2 * np.pi / 3)["spinor"]
    assert mdot(state.pi, state.x) != 0.0
    assert np.array_equal(wave_function_at(state, state.x), state.phi)
    xs = event_cloud(20)
    at_origin = SpinorState(np.zeros(4), state.phi, state.pi)
    assert np.allclose(wave_function_at(state, xs + state.x), wave_function_at(at_origin, xs),
                       atol=1e-12)


def test_first_order_field_equation_analytic():
    """u_op^mu (i hbar d_mu) psi = m c^2 psi at rounding level."""
    wave = moving_wave()
    assert dirac_residual(wave, event_cloud(1000)) < 1e-12


def test_field_equation_fd_second_order():
    """Central-difference residuals fall ~4x when h halves."""
    wave = moving_wave()
    xs = event_cloud(100)
    r1 = dirac_residual(wave, xs, h=1e-3)
    r2 = dirac_residual(wave, xs, h=5e-4)
    assert 3.5 < r1 / r2 < 4.5, f"dirac fd ratio {r1 / r2}"
    k1 = klein_gordon_residual(wave, xs, h=1e-3)
    k2 = klein_gordon_residual(wave, xs, h=5e-4)
    assert 3.5 < k1 / k2 < 4.5, f"kg fd ratio {k1 / k2}"


def test_second_order_field_equation_analytic():
    wave = moving_wave(theta=1.2, phi=-0.5, v=(0.3, 0.2, -0.4))
    assert klein_gordon_residual(wave, event_cloud(500)) < 1e-12


def test_gradient_fd_converges_to_analytic():
    wave = moving_wave()
    xs = event_cloud(50)
    err = np.abs(gradient_fd(wave, xs, h=1e-4) - gradient_analytic(wave, xs)).max()
    assert err < 1e-8


@given(theta=theta_st, vx=speed_st)
@settings(max_examples=50, deadline=None)
def test_momentum_extraction_exact(theta, vx):
    """psibar (i hbar d^mu) psi returns the momentum four-vector."""
    wave = moving_wave(theta=theta, phi=0.3, v=(vx, 0.0, 0.0))
    got = momentum_extraction(wave, event_cloud(64))
    assert np.abs(got - wave.pi[None, :]).max() < 1e-10


def test_continuity_equation():
    wave = moving_wave()
    xs = event_cloud(200)
    d1 = continuity_divergence(wave, xs, h=1e-3)
    d2 = continuity_divergence(wave, xs, h=5e-4)
    assert d1 < 1e-5
    assert 3.5 < d1 / d2 < 4.5, f"continuity fd ratio {d1 / d2}"


def test_current_is_null_with_positive_density():
    wave = moving_wave(theta=0.9, phi=1.7, v=(0.2, -0.5, 0.1))
    xs = event_cloud(300)
    j = current_density(wave, xs)
    assert np.abs(mdot(j, j)).max() < 1e-12
    assert j[:, 0].min() > 0.0
    speeds = np.linalg.norm(velocity_field(wave, xs), axis=1)
    assert np.abs(speeds - C).max() < 1e-12


def test_energy_split_fields_are_eigenfunctions():
    """psi = psi_+ + psi_- with i hbar d_mu psi_pm = +- pi_mu psi_pm."""
    wave = moving_wave()
    xs = event_cloud(40)
    plus, minus = energy_split_fields(wave, xs)
    assert np.allclose(plus + minus, wave_function_at(wave, xs), atol=1e-13)
    h = 1e-4
    pi_low = wave.pi * np.array([1.0, -1.0, -1.0, -1.0])
    for mu in (0, 2):
        step = np.zeros(4)
        step[mu] = h
        dplus = (
            energy_split_fields(wave, xs + step)[0]
            - energy_split_fields(wave, xs - step)[0]
        ) * (1j / (2 * h))
        assert np.abs(dplus - pi_low[mu] * plus).max() < 1e-7
        dminus = (
            energy_split_fields(wave, xs + step)[1]
            - energy_split_fields(wave, xs - step)[1]
        ) * (1j / (2 * h))
        assert np.abs(dminus + pi_low[mu] * minus).max() < 1e-7


def test_de_broglie_kinematics():
    """Moving electron: omega = gamma w0, superluminal phase speed c^2/V."""
    wave = moving_wave()
    info = de_broglie(wave)
    g = 1.25
    assert info["omega"] == pytest.approx(g * OMEGA0, rel=1e-12)
    assert np.allclose(info["k"], [g * 0.6 * MASS / 0.5, 0.0, 0.0])
    assert info["phase_speed"] == pytest.approx(C**2 / 0.6, rel=1e-12)
    assert info["group_speed"] == pytest.approx(0.6, rel=1e-12)
    assert info["phase_speed"] * info["group_speed"] == pytest.approx(C**2, rel=1e-12)
    rest = de_broglie(SpinorState(np.zeros(4), spin_amplitudes(0.2), PI_REST))
    assert rest["wavelength"] == np.inf
    assert rest["phase_speed"] == np.inf


def drifting_state():
    return matched_initial_states(np.pi / 3, 0.0, velocity=np.array([0.7, 0.0, 0.0]))[
        "position"
    ]


def test_ensemble_free_flow_stays_uniform():
    """Whole-period free transport is rigid, so uniformity survives."""
    rep = ensemble_uniformity(drifting_state(), n=20_000, periods=2.0, seed=0, bins=8)
    assert rep["p_value"] > 0.05, f"chi2 {rep['chi2']}, p {rep['p_value']}"
    assert rep["dof"] == 8**3 - 1
    assert (abs(rep["p_value"] - chi2.sf(rep["chi2"], rep["dof"]))
            <= _chi2_sf_bound(rep["dof"], rep["chi2"]))


def test_ensemble_corrupted_flow_rejected():
    """Reversing the zitter velocity breaks volume preservation hard."""
    rep = ensemble_uniformity(
        drifting_state(), n=20_000, periods=2.0, seed=0, bins=8, flow="corrupted"
    )
    assert rep["p_value"] < 1e-6, f"chi2 {rep['chi2']}, p {rep['p_value']}"
    assert rep["chi2"] > 10 * rep["dof"]
    assert (abs(rep["p_value"] - chi2.sf(rep["chi2"], rep["dof"]))
            <= _chi2_sf_bound(rep["dof"], rep["chi2"]))


def test_ensemble_corrupted_needs_drift():
    """At rest the corrupted flow is still rigid over whole periods: the
    phase rate stays 1 (P = 0) and the period displacement vanishes, so
    the control only bites for a moving ensemble."""
    rest = matched_initial_states(0.0)["position"]
    rep = ensemble_uniformity(rest, n=20_000, periods=2.0, seed=0, bins=8, flow="corrupted")
    base = ensemble_uniformity(rest, n=20_000, periods=0.0, seed=0, bins=8)
    assert rep["counts_sha256"] == base["counts_sha256"]


def test_ensemble_zero_periods_is_plain_draw():
    rep = ensemble_uniformity(drifting_state(), n=20_000, periods=0.0, seed=0, bins=8)
    assert rep["p_value"] > 0.05


def test_ensemble_deterministic_and_serializable():
    rep1 = ensemble_uniformity(drifting_state(), n=5_000, periods=1.0, seed=11, bins=4)
    rep2 = ensemble_uniformity(drifting_state(), n=5_000, periods=1.0, seed=11, bins=4)
    assert rep1["counts_sha256"] == rep2["counts_sha256"]
    assert rep1["chi2"] == rep2["chi2"]
    assert rep1["flow"] == "free" and rep1["n"] == 5_000 and len(rep1["counts_sha256"]) == 64


def _corrupted_flow_reference(x0, tau0, drift, osc_a, osc_b, pvec, span, n_steps):
    """The numpy corrupted flow as first written: one (n, 3) pass per stage."""
    pa = 2.0 * float(pvec @ osc_a)
    pb = 2.0 * float(pvec @ osc_b)
    h = span / n_steps
    x = np.ascontiguousarray(x0, dtype=np.float64).copy()
    theta = np.ascontiguousarray(tau0, dtype=np.float64).copy()

    def rates(th):
        c = np.cos(OMEGA0 * th)
        s = np.sin(OMEGA0 * th)
        dx = (
            drift[None, :]
            - osc_a[None, :] * c[:, None]
            - osc_b[None, :] * s[:, None]
        )
        return 1.0 + pa * c + pb * s, dx

    for _ in range(n_steps):
        k1t, k1x = rates(theta)
        k2t, k2x = rates(theta + 0.5 * h * k1t)
        k3t, k3x = rates(theta + 0.5 * h * k2t)
        k4t, k4x = rates(theta + h * k3t)
        theta += (h / 6.0) * (k1t + 2.0 * k2t + 2.0 * k3t + k4t)
        x += (h / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
    return x


def _flow_args(theta, phi, v, r=None, n=64):
    """Arguments of the corrupted flow for a matched state, with the
    momentum rescaled so that the phase coupling R is ``r`` if given."""
    state = matched_initial_states(theta, phi, velocity=np.array(v))["position"]
    drift, osc_a, osc_b = wavefield._oscillation_coefficients(state)
    pvec = state.pi[1:]
    if r is not None:
        pvec = pvec * (r / np.hypot(2.0 * pvec @ osc_a, 2.0 * pvec @ osc_b))
    x0 = np.random.default_rng(3).random((n, 3)) * 2.0
    tau0 = -(x0 @ pvec) / (MASS * C**2)
    return x0, tau0, drift, osc_a, osc_b, pvec


@pytest.mark.parametrize("theta, phi, v, r, regime", [
    (0.0, 0.0, [0.3, 0.1, 0.0], None, "winds"),
    (1.1, 0.4, [0.3, -0.2, 0.4], None, "locks"),
    (0.0, 0.0, [0.7, 0.0, 0.0], 1.0 - 1e-9, "winds"),
    (0.0, 0.0, [0.7, 0.0, 0.0], 1.0 + 1e-9, "locks"),
    (0.0, 0.0, [0.0, 0.0, 0.0], None, "rest"),
])
def test_corrupted_flow_closed_form_matches_rk4(theta, phi, v, r, regime):
    """The closed-form corrupted flow is the limit of the RK4 reference.

    RK4's global error is C h^4 + O(h^5), so with N and 2N steps
    RK4_N - RK4_2N = 15 C (h/2)^4 and the closed form lies within
    |RK4_N - RK4_2N| / 15 of RK4_2N, up to RK4_2N's rounding of x once per
    step, 2N eps X with X bounding every |x|.  The measured ratio of the
    two errors is 15.8-16.3 in these cases; a factor 2 covers the O(h^5)
    part.
    """
    args = _flow_args(theta, phi, v, r)
    x0, _, drift, osc_a, osc_b, pvec = args
    coupling = np.hypot(2.0 * pvec @ osc_a, 2.0 * pvec @ osc_b)
    assert {"winds": 0.0 < coupling < 1.0, "locks": coupling > 1.0,
            "rest": coupling == 0.0}[regime]
    span = 1.5 * T0
    got = wavefield._corrupted_flow(*args, span)
    coarse, fine = (_corrupted_flow_reference(*args, span, n) for n in (100, 200))
    x_max = np.abs(x0).max() + span * (np.abs(drift) + np.abs(osc_a) + np.abs(osc_b)).max()
    bound = 2.0 * (np.abs(coarse - fine).max() / 15.0 + 200 * np.finfo(float).eps * x_max)
    assert np.abs(got - fine).max() <= bound


def test_corrupted_flow_long_span_past_cosh_overflow():
    """At R = 2.75 cosh(lambda s) overflows from about 88 periods on; the
    scaled hyperbolic form stays finite and the verdict holds."""
    state = matched_initial_states(0.0, velocity=np.array([0.7, 0.0, 0.0]))["position"]
    args = _flow_args(0.0, 0.0, [0.7, 0.0, 0.0])
    assert np.isfinite(wavefield._corrupted_flow(*args, 1000.0 * T0)).all()
    reps = [ensemble_uniformity(state, n=20_000, periods=p, seed=0, bins=8, flow="corrupted")
            for p in (10.0, 1000.0)]
    assert [rep["p_value"] < 0.01 for rep in reps] == [True, True]


def test_ensemble_without_finite_positions_gives_no_verdict():
    """histogramdd drops NaN positions; a report on no data must not pass."""
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="finite position"):
        ensemble_uniformity(drifting_state(), n=10, periods=1e308, bins=4)


def _chi2_sf_bound(dof, x):
    """Absolute bound on _chi2_sf - scipy's chi2.sf from the error model in
    _chi2_sf's docstring, (|z| + |a ln z| + lgamma(a) + 16) eps relative,
    z = x/2, a = dof/2.  scipy's igamc forms the same prefactor, so each
    side is within the model and their difference within twice it (the
    largest measured difference is 0.91 of one model over the grid below)."""
    a, z = 0.5 * dof, 0.5 * x
    if z <= 0.0:
        return 0.0
    model = abs(z) + abs(a * np.log(z)) + math.lgamma(a) + 16.0
    return 2.0 * model * np.finfo(float).eps * chi2.sf(x, dof)


def test_chi2_sf_matches_scipy_within_error_model():
    for bins in range(2, 129):
        dof = bins**3 - 1
        sigma = math.sqrt(2.0 * dof)
        for k in np.linspace(-6.0, 12.0, 25):
            x = dof + k * sigma
            got = wavefield._chi2_sf(dof, x)
            assert abs(got - chi2.sf(x, dof)) <= _chi2_sf_bound(dof, x), (bins, k)


def test_ensemble_rejects_bad_arguments():
    with pytest.raises(ValueError):
        ensemble_uniformity(drifting_state(), n=0)
    with pytest.raises(ValueError):
        ensemble_uniformity(drifting_state(), flow="sideways")


def test_wave_matches_spinor_velocity_bilinear():
    wave = moving_wave()
    xs = event_cloud(20)
    psi = wave_function_at(wave, xs)
    assert np.allclose(current_density(wave, xs), velocity_observable(psi), atol=0.0)
