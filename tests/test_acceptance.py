"""Acceptance suite: one test per release criterion, pinned tolerances.

Each test prints a PASS/FAIL line with the measured value so a verbose
run (``pytest -v -s tests/test_acceptance.py``) reads as a checklist.
The criteria are:

 1. field-free oracle: 1e-8 over 100 periods, < 5 s per formulation
 2. formulation equivalence: 1e-6 free / 1e-5 weak uniform B, 10 periods
 3. constraint drift 1e-8 with corruption negative controls
 4. spin vector values 1e-12, co-moving triad 1e-10
 5. spin tensor identity battery 1e-10
 6. operator identity battery 1e-13
 7. wave function field equations 1e-12, FD ratio in [3.5, 4.5],
    momentum extraction 1e-10
 8. superposition amplitudes 1e-14, velocity geometry 1e-10
 9. measurement statistics within 3 sigma at N = 100000
10. ensemble uniformity chi-squared at 1% with a failing corrupted flow
11. uniform-B orbital frequency within 1% (precession ratio logged)
12. byte-identical artifacts on repeated runs
"""

import time

import numpy as np
import pytest

from zsim.cli import EXIT_OK, main
from zsim.constants import C, H_STAR, MASS, OMEGA0, Q_ELECTRON, T0
from zsim.dynamics import (
    ConstraintViolationError,
    compare_trajectories,
    free_motion,
    integrate,
    matched_initial_states,
    oracle_errors,
    validate_state,
)
from zsim.emfield import FreeField, UniformEB
from zsim.minkowski import BoostParams, antisymmetric_parts, boost_vector, mdot
from zsim.scenario import load_scenario
from zsim.spinor import (
    boost_state,
    energy_projectors,
    evolve_amplitudes,
    operator_identity_suite,
    velocity_observable,
)
from zsim.spinstates import (
    PI_REST,
    axis_vector,
    malus_probability,
    reconstruct_mean_velocity,
    sample_measurements,
    spin_amplitudes,
    superposition_amplitude_identity,
    velocity_superposition,
)
from zsim.spintensor import build_spin_tensor, identity_suite, interaction_energy
from zsim.states import PositionState, SpinorState
from zsim.wavefield import (
    dirac_residual,
    ensemble_uniformity,
    klein_gordon_residual,
    momentum_extraction,
    proper_time_of,
)

BOOST = np.array([0.6, 0.0, 0.0])
THETA, PHI = np.pi / 3, 0.4


def report(criterion: str, value: float, tol: float, note: str = "") -> None:
    ok = value <= tol
    tag = "PASS" if ok else "FAIL"
    extra = f" ({note})" if note else ""
    print(f"{tag} {criterion}: {value:.3e} <= {tol:.3e}{extra}")
    assert ok, f"{criterion}: {value:.3e} exceeds {tol:.3e}{extra}"


def boosted_states():
    return matched_initial_states(THETA, PHI, velocity=BOOST)


@pytest.fixture(scope="module")
def warmed_up():
    """Compile / cache the integration kernels outside the timed runs."""
    for state in boosted_states().values():
        integrate(state, FreeField(), T0 / 100, 10)
    return True


@pytest.fixture(scope="module")
def free_runs(warmed_up):
    """100 field-free periods per formulation, with wall-clock timings."""
    runs = {}
    for name, state in boosted_states().items():
        t0 = time.perf_counter()
        traj = integrate(state, FreeField(), T0 / 1000, 100_000, record_every=100)
        runs[name] = (traj, time.perf_counter() - t0)
    return runs


def test_criterion_01_free_oracle(free_runs):
    """Closed-form agreement and runtime over 100 periods."""
    pos0 = boosted_states()["position"]
    for name, (traj, seconds) in free_runs.items():
        errs = oracle_errors(traj, pos0)
        report(f"criterion 1 oracle[{name}]", errs["overall"], 1e-8)
        report(f"criterion 1 runtime[{name}]", seconds, 5.0, "seconds")


def equivalence(preset: str) -> tuple[float, float]:
    """Largest divergence between the preset's formulations, and its tolerance."""
    sc = load_scenario(preset)
    rep = compare_trajectories({
        name: integrate(state, sc.field, sc.dt, sc.n_steps,
                        q=sc.charge, record_every=sc.record_every)
        for name, state in sc.states.items()
    })
    return rep.overall, sc.tolerances["compare"]


def test_criterion_02_equivalence_free(warmed_up):
    report("criterion 2 equivalence[free, boosted]", *equivalence("free-boosted"))


def test_criterion_02_equivalence_weak_field(warmed_up):
    report("criterion 2 equivalence[uniform B]", *equivalence("uniform-b-weak"))


def test_criterion_03_constraint_drift(free_runs, warmed_up):
    """Free runs hold all four constraints; field runs hold them in the
    spin-tensor and spinor formulations.  The position formulation's
    field drift is a flow property and is reported, not gated."""
    for name, (traj, _) in free_runs.items():
        worst = max(traj.max_residuals().values())
        report(f"criterion 3 drift[free, {name}]", worst, 1e-8)

    sc = load_scenario("uniform-b-weak")
    model = sc.field
    states = sc.states
    for name in ("spintensor", "spinor"):
        traj = integrate(states[name], model, sc.dt, sc.n_steps,
                         q=sc.charge, record_every=sc.record_every)
        worst = max(traj.max_residuals().values())
        report(f"criterion 3 drift[uniform B, {name}]", worst, 1e-8)
    pos_traj = integrate(states["position"], model, sc.dt, sc.n_steps,
                         q=sc.charge, record_every=sc.record_every)
    pos_worst = max(pos_traj.max_residuals().values())
    print(f"INFO criterion 3: position-formulation field drift "
          f"{pos_worst:.3e} (reported only; grows linearly with B)")

    sc400 = load_scenario("uniform-b-cyclotron")
    traj = integrate(sc400.initial_state(), sc400.field, sc400.dt,
                     sc400.n_steps, q=sc400.charge,
                     record_every=sc400.record_every)
    worst = max(traj.max_residuals().values())
    report("criterion 3 drift[cyclotron, 400 periods]", worst, 1e-8)


def test_criterion_03_negative_controls():
    """Corrupted states must be caught, not silently integrated."""
    pos = boosted_states()["position"]
    bad_u = pos.u.copy()
    bad_u[1:] *= 1.0 + 1e-6
    with pytest.raises(ConstraintViolationError):
        validate_state(PositionState(pos.x, bad_u, pos.y, pos.pi))
    bad_pi = pos.pi * (1.0 + 1e-6)
    with pytest.raises(ConstraintViolationError):
        validate_state(PositionState(pos.x, pos.u, pos.y, bad_pi))

    states = boosted_states()
    states["position"] = PositionState(pos.x, pos.u, pos.y, pos.pi * (1 + 1e-4))
    rep = compare_trajectories({
        name: integrate(state, FreeField(), T0 / 1000, 2000, record_every=10, validate=False)
        for name, state in states.items()
    })
    detected = rep.overall > 1e-6
    print(f"{'PASS' if detected else 'FAIL'} criterion 3 negative control: "
          f"corrupted momentum diverges {rep.overall:.3e} > 1e-6")
    assert detected


def test_criterion_04_spin_vector_values():
    """s = (hbar/2) n at rest (1e-12); magnitudes scale with tdot."""
    worst = 0.0
    for theta, phi in ((0.0, 0.0), (np.pi / 2, 0.0), (THETA, PHI), (2.4, -1.3)):
        state = matched_initial_states(theta, phi)["position"]
        d, s = antisymmetric_parts(build_spin_tensor(state.z, state.u))
        worst = max(worst, float(np.abs(s - H_STAR * axis_vector(theta, phi)).max()))
        worst = max(worst, abs(float(np.linalg.norm(d)) - H_STAR))
    report("criterion 4 rest spin vectors", worst, 1e-12)

    state = matched_initial_states(THETA, PHI, velocity=BOOST)["position"]
    d, s = antisymmetric_parts(build_spin_tensor(state.z, state.u))
    tdot = state.u[0] / C
    worst = max(
        abs(float(np.linalg.norm(s)) - H_STAR * tdot),
        abs(float(np.linalg.norm(d)) - H_STAR * tdot),
    )
    report("criterion 4 boosted spin magnitudes", worst, 1e-12)

    res = identity_suite(state)
    triad = max(v for k, v in res.items() if k.startswith(("triad", "cyclic")))
    report("criterion 4 co-moving triad", triad, 1e-10)


def test_criterion_05_identity_battery():
    """Contraction identities on a grid of states, plus the dipole-energy
    dual routes."""
    worst = 0.0
    rng = np.random.default_rng(3)
    for _ in range(25):
        theta = rng.uniform(0.0, np.pi)
        phi = rng.uniform(-np.pi, np.pi)
        v = rng.uniform(-0.5, 0.5, 3)
        state = matched_initial_states(theta, phi, velocity=v)["position"]
        worst = max(worst, max(identity_suite(state).values()))
    report("criterion 5 identity battery", worst, 1e-10)

    model = UniformEB(e0=np.array([1e-4, -2e-4, 0.0]), b0=np.array([0.0, 3e-4, 5e-4]))
    state = matched_initial_states(THETA, PHI, velocity=BOOST)["position"]
    rep = interaction_energy(state, model, Q_ELECTRON)
    spread = max(
        abs(rep["phi_via_tensor"] - rep["phi"]),
        abs(rep["phi_via_vectors"] - rep["phi"]),
    )
    report("criterion 5 dipole energy routes", spread, 1e-12)

    b = 1e-3
    aligned = matched_initial_states(0.0)["position"]
    rep_b = interaction_energy(aligned, UniformEB(b0=np.array([0.0, 0.0, b])),
                               Q_ELECTRON)
    expected = H_STAR * abs(Q_ELECTRON) * b / MASS
    report("criterion 5 aligned-spin magnetic energy",
           abs(rep_b["u_magnetic"] - expected) / expected, 1e-10, "relative")


def test_criterion_06_operator_identities():
    worst = 0.0
    proj_worst = 0.0
    eye = np.eye(4)
    for v in (np.zeros(3), BOOST, np.array([0.2, -0.5, 0.3])):
        pi = boost_vector(PI_REST, BoostParams(v)) if v.any() else PI_REST
        worst = max(worst, max(operator_identity_suite(pi).values()))
        p_plus, p_minus = energy_projectors(pi)
        proj_worst = max(
            proj_worst,
            float(np.abs(p_plus + p_minus - eye).max()),
            float(np.abs(p_plus @ p_plus - p_plus).max()),
            float(np.abs(p_minus @ p_minus - p_minus).max()),
            float(np.abs(p_plus @ p_minus).max()),
        )
    report("criterion 6 operator identities", worst, 1e-13)
    report("criterion 6 eigenprojectors", proj_worst, 1e-13)

    taus = np.linspace(0.0, 2 * T0, 37)
    vel_worst = 0.0
    for theta, phi in ((0.0, 0.0), (THETA, PHI), (2.1, -0.7)):
        closed = free_motion(matched_initial_states(theta, phi)["position"], taus)[1]
        observed = velocity_observable(
            evolve_amplitudes(spin_amplitudes(theta, phi), PI_REST, taus))
        vel_worst = max(vel_worst, float(np.abs(closed - observed).max()))
    report("criterion 6 velocity closed form vs observable", vel_worst, 1e-13)


def test_criterion_07_wave_function():
    params = BoostParams(BOOST)
    wave = SpinorState(
        np.zeros(4),
        boost_state(spin_amplitudes(THETA, PHI), params),
        boost_vector(PI_REST, params),
    )
    tau = proper_time_of(wave, np.array([1.25, 0.75, 0.0, 0.0]))
    report("criterion 7 synchronization example", abs(tau - 1.0), 1e-12)

    xs = np.random.default_rng(5).uniform(-5.0, 5.0, size=(1000, 4))
    report("criterion 7 first-order equation", dirac_residual(wave, xs), 1e-12)
    report("criterion 7 second-order equation",
           klein_gordon_residual(wave, xs), 1e-12)

    for label, residual in (("first-order", dirac_residual),
                            ("second-order", klein_gordon_residual)):
        ratio = residual(wave, xs[:100], h=1e-3) / residual(wave, xs[:100], h=5e-4)
        ok = 3.5 <= ratio <= 4.5
        print(f"{'PASS' if ok else 'FAIL'} criterion 7 FD ratio[{label}]: "
              f"{ratio:.3f} in [3.5, 4.5]")
        assert ok, f"{label} FD convergence ratio {ratio}"

    extracted = momentum_extraction(wave, xs)
    report("criterion 7 momentum extraction",
           float(np.abs(extracted - wave.pi[None, :]).max()), 1e-10)


def test_criterion_08_superposition():
    rng = np.random.default_rng(11)
    taus = np.linspace(0.0, 2 * T0, 41)
    quarter = np.array([0.0, T0 / 4.0])
    worst_amp, worst_vel, worst_geom, worst_acc = 0.0, 0.0, 0.0, 0.0
    for _ in range(100):
        theta = rng.uniform(0.0, np.pi)
        phi = rng.uniform(-np.pi, np.pi)
        worst_amp = max(worst_amp, superposition_amplitude_identity(theta, phi))
        us = velocity_superposition(theta, phi, taus)
        worst_vel = max(
            worst_vel,
            float(np.abs(us - velocity_observable(
                evolve_amplitudes(spin_amplitudes(theta, phi), PI_REST, taus))).max()),
        )
        n = axis_vector(theta, phi)
        worst_geom = max(
            worst_geom,
            float(np.abs(us[:, 1:] @ n).max()),
            float(np.abs(np.linalg.norm(us[:, 1:], axis=1) - C).max()),
            float(np.abs(mdot(us, us)).max()),
        )
        # The spatial velocity is harmonic at w0: read off the cosine and
        # sine vectors at tau = 0 and T0/4, then |udot| = c w0 follows.
        a_vec, b_vec = velocity_superposition(theta, phi, quarter)[:, 1:]
        cos, sin = np.cos(OMEGA0 * taus)[:, None], np.sin(OMEGA0 * taus)[:, None]
        worst_acc = max(
            worst_acc,
            float(np.abs(a_vec * cos + b_vec * sin - us[:, 1:]).max()),
            float(np.abs(
                OMEGA0 * np.linalg.norm(-a_vec * sin + b_vec * cos, axis=1)
                - C * OMEGA0
            ).max()),
        )
    report("criterion 8 amplitude split", worst_amp, 1e-14)
    report("criterion 8 velocity closed forms", worst_vel, 1e-10)
    report("criterion 8 velocity geometry", worst_geom, 1e-10)
    report("criterion 8 acceleration magnitude", worst_acc, 1e-10)


def test_criterion_09_measurement_statistics():
    """Sampled up-fractions within 3 sigma, and the axial mean-velocity
    gap of the post-measurement mixture reported alongside."""
    taus = np.linspace(0.0, T0, 201)
    for theta in (np.pi / 6, np.pi / 2, 2 * np.pi / 3):
        rep = sample_measurements(theta, count=100_000, seed=0)
        z = abs(rep["z_score"])
        report(f"criterion 9 tally[theta={theta:.3f}]", z, 3.0, "|z|")

        recon = reconstruct_mean_velocity(theta, taus=taus, p_up=rep["p_up_hat"])
        bound = 2.0 * C * abs(rep["p_up_hat"] - malus_probability(theta)) + 1e-14
        report(f"criterion 9 mixture transverse[theta={theta:.3f}]",
               recon["max_transverse_error"], bound, "sampling bound")
        print(f"INFO criterion 9: axial velocity gap amplitude "
              f"{np.abs(recon['axial_gap']).max():.4f} "
              f"(mixture averages the c sin(theta) = {C * np.sin(theta):.4f} "
              f"oscillation to zero)")


def test_criterion_10_ensemble_uniformity():
    state = matched_initial_states(0.0, velocity=np.array([0.7, 0.0, 0.0]))[
        "position"
    ]
    free = ensemble_uniformity(state, n=100_000, periods=10.0, seed=0, bins=16)
    ok_free = free["p_value"] > 0.01
    print(f"{'PASS' if ok_free else 'FAIL'} criterion 10 free flow uniform: "
          f"chi2={free['chi2']:.1f} dof={free['dof']} p={free['p_value']:.4f} > 0.01")
    assert ok_free

    bad = ensemble_uniformity(state, n=100_000, periods=10.0, seed=0, bins=16,
                              flow="corrupted")
    ok_bad = bad["p_value"] < 0.01
    print(f"{'PASS' if ok_bad else 'FAIL'} criterion 10 corrupted flow rejected: "
          f"chi2={bad['chi2']:.1f} dof={bad['dof']} p={bad['p_value']:.4g} < 0.01")
    assert ok_bad


def test_criterion_11_uniform_field_frequencies(warmed_up):
    """Momentum rotation at the cyclotron rate (1% gate); spin precession
    at half the cyclotron rate (logged, 5% band)."""
    sc = load_scenario("uniform-b-cyclotron")
    traj = integrate(sc.initial_state(), sc.field, sc.dt, sc.n_steps,
                     q=sc.charge, record_every=sc.record_every)
    angles = np.unwrap(np.arctan2(traj.states.pi[:, 2], traj.states.pi[:, 1]))
    slope_lab = np.polyfit(traj.states.x[:, 0], angles, 1)[0]
    gamma = traj.states.pi[0, 0] / (MASS * C)
    b = float(sc.field.b0[2])
    expected = abs(Q_ELECTRON) * b / (gamma * MASS)
    rel = abs(abs(slope_lab) - expected) / expected
    report("criterion 11 orbital frequency", rel, 0.01, "relative error")

    sc2 = load_scenario("uniform-b-precession")
    traj2 = integrate(sc2.initial_state(), sc2.field, sc2.dt,
                      sc2.n_steps, q=sc2.charge, record_every=sc2.record_every)
    _, s = antisymmetric_parts(traj2.states.spin)
    s_angles = np.unwrap(np.arctan2(s[:, 1], s[:, 0]))
    slope_spin = np.polyfit(traj2.taus, s_angles, 1)[0]
    half_cyclotron = abs(Q_ELECTRON) * float(sc2.field.b0[2]) / (2.0 * MASS)
    ratio = abs(slope_spin) / half_cyclotron
    ok = abs(ratio - 1.0) < 0.05
    print(f"{'PASS' if ok else 'FAIL'} criterion 11 precession (logged): "
          f"measured/expected = {ratio:.4f} within 5%")
    assert ok


def test_criterion_12_deterministic_artifacts(tmp_path):
    """Identical inputs produce byte-identical CSV and JSON artifacts."""
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        rc = main(["run", "--scenario", "free-boosted",
                   "--formulation", "spintensor", "--out", str(out)])
        assert rc == EXIT_OK
        rc = main(["sample", "--theta", "pi/2", "--count", "20000",
                   "--seed", "0", "--tag", "det", "--out", str(out)])
        assert rc == EXIT_OK
        rc = main(["ensemble", "--n", "20000", "--periods", "2", "--bins", "8",
                   "--seed", "0", "--out", str(out)])
        assert rc == EXIT_OK
    same = True
    for name in ("free-boosted-spintensor.csv", "free-boosted-spintensor-summary.json",
                 "sample-det.json", "ensemble-free-0.json"):
        same = same and (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
    print(f"{'PASS' if same else 'FAIL'} criterion 12 determinism: "
          f"4 artifact kinds byte-identical across repeated runs")
