"""Scenario configuration parsing and presets."""

import numpy as np
import pytest

from zsim.constants import Q_ELECTRON, T0
from zsim.dynamics import matched_initial_states
from zsim.emfield import CoulombField, FreeField, UniformEB
from zsim.scenario import (
    PRESETS,
    ScenarioError,
    load_scenario,
    parse_angle,
    preset_names,
)
from zsim.states import PositionState, SpinTensorState


def _assert_states_equal(got: dict, want: dict) -> None:
    assert list(got) == list(want)
    for name, state in want.items():
        for key, value in vars(state).items():
            assert np.array_equal(getattr(got[name], key), value), (name, key)


def test_parse_angle_forms():
    assert parse_angle("0.25") == 0.25
    assert parse_angle("pi") == pytest.approx(np.pi)
    assert parse_angle("pi/3") == pytest.approx(np.pi / 3)
    assert parse_angle("2*pi/3") == pytest.approx(2 * np.pi / 3)
    assert parse_angle("-pi/2") == pytest.approx(-np.pi / 2)
    with pytest.raises(ScenarioError):
        parse_angle("two pi")


def test_all_presets_load():
    assert preset_names() == sorted(PRESETS)
    for name in preset_names():
        sc = load_scenario(name)
        assert sc.name == name
        assert sc.n_steps % sc.record_every == 0
        assert sc.dt > 0


def test_free_boosted_preset_values():
    sc = load_scenario("free-boosted")
    assert sc.formulation == "all"
    assert sc.field_variant == "free"
    _assert_states_equal(sc.states, matched_initial_states(
        np.pi / 3, 0.4, velocity=np.array([0.6, 0.0, 0.0])))
    assert sc.steps_per_period == 1000
    assert sc.periods == 10
    assert sc.n_steps == 10_000
    assert sc.dt == pytest.approx(T0 / 1000)
    assert sc.charge == Q_ELECTRON
    assert sc.tolerances["compare"] == 1e-6
    assert isinstance(sc.field, FreeField)


def test_field_variants_build():
    assert isinstance(load_scenario("uniform-b-weak").field, UniformEB)
    coulomb = load_scenario("coulomb-orbit").field
    assert isinstance(coulomb, CoulombField)
    assert coulomb.z_charge == 1.0


def test_scenario_states_match_formulations():
    sc = load_scenario("free-boosted")
    states = sc.states
    assert set(states) == {"position", "spintensor", "spinor"}
    sc2 = load_scenario("uniform-b-cyclotron")
    assert isinstance(sc2.initial_state(), SpinTensorState)


def test_ini_file_round_trip(tmp_path):
    path = tmp_path / "custom.ini"
    path.write_text(
        """
[scenario]
name = custom
formulation = position
[field]
variant = uniform
b0 = 0 0 1e-6
[initial]
theta = pi/2
velocity = 0.1 0 0
[run]
periods = 2
steps_per_period = 500
record_every = 5
"""
    )
    sc = load_scenario(str(path))
    assert sc.name == "custom"
    _assert_states_equal(sc.states, matched_initial_states(
        np.pi / 2, velocity=np.array([0.1, 0.0, 0.0])))
    assert sc.n_steps == 1000
    assert sc.dt == pytest.approx(T0 / 500)
    assert np.array_equal(sc.field.b0, [0, 0, 1e-6])
    assert isinstance(sc.initial_state("position"), PositionState)


def test_initial_phase_selects_zitter_start(tmp_path):
    """phase = pi/2 starts spin-up a quarter turn along the circle."""
    path = tmp_path / "phased.ini"
    path.write_text(
        """
[scenario]
name = phased
formulation = all
[initial]
theta = 0
phase = pi/2
"""
    )
    sc = load_scenario(str(path))
    _assert_states_equal(sc.states, matched_initial_states(0.0, phase=np.pi / 2))
    state = sc.initial_state("position")
    assert np.allclose(state.u, [1.0, 0.0, 1.0, 0.0], atol=1e-14)
    assert np.allclose(state.z, [0.0, 0.5, 0.0, 0.0], atol=1e-14)
    _assert_states_equal(load_scenario("free-rest").states, matched_initial_states(0.0))


def test_raw_initial_mode(tmp_path):
    path = tmp_path / "raw.ini"
    path.write_text(
        """
[scenario]
name = raw-start
formulation = position
[initial]
mode = raw
x = 0 0 -0.5 0
u = 1 1 0 0
y = 0 0 0 0
pi = 1 0 0 0
"""
    )
    sc = load_scenario(str(path))
    states = sc.states
    assert set(states) == {"position", "spintensor"}
    assert np.allclose(states["position"].u, [1, 1, 0, 0])
    with pytest.raises(ScenarioError):
        sc.initial_state("spinor")


def test_raw_mode_requires_all_vectors(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text(
        """
[scenario]
name = incomplete
[initial]
mode = raw
x = 0 0 0 0
u = 1 1 0 0
"""
    )
    with pytest.raises(ScenarioError, match="raw initial mode needs"):
        load_scenario(str(path))


@pytest.mark.parametrize(
    "body, message",
    [
        ("[scenario]\nformulation = banana\n", "unknown formulation"),
        ("[initial]\nmode = sideways\n", "unknown initial mode"),
        ("[run]\nperiods = -1\n", "must be positive"),
        ("[run]\nsteps_per_period = zero\n", "bad numeric"),
        ("[initial]\nvelocity = 1 2\n", "components"),
        ("[initial]\ntheta = about-pi\n", "cannot parse angle"),
        ("[initial]\ntheta = nan\n", "angle must be finite"),
        ("[initial]\nphi = 2*pi/0\n", "division by zero"),
        ("[initial]\nvelocity = 1.5 0 0\n", "slower than light"),
        ("[initial]\nvelocity = 0.6 0.8 0\n", "slower than light"),
        ("[field]\nvariant = uniform\nb0 = nan 0 0\n", "non-finite"),
        ("[field]\ne0 = 0 -inf 0\n", "non-finite"),
        ("[field]\nz = nan\n", "field.z must be finite"),
        ("[run]\nperiods = 0.001\n", "no steps"),
        ("[run]\nperiods = 1\nrecord_every = 5000\n", "no steps"),
        ("[run]\nperiods = nan\n", "run.periods must be finite"),
        ("[run]\nperiods = inf\n", "run.periods must be finite"),
        ("[run]\ncharge = nan\n", "run.charge must be finite"),
        ("[tolerances]\ndrift = nan\n", "tolerances.drift must be finite"),
        ("[run]\nperiods = 1e300\n", r"exceeds 2\*\*53 steps"),
        ("[run]\nperiods = 1e308\n", r"exceeds 2\*\*53 steps"),
        (f"[run]\nsteps_per_period = {10**60}\n", r"exceeds 2\*\*53 steps"),
        # a name that is not one path component would put artifacts outside --out
        ("[scenario]\nname = ../../evil\n", "one plain path component"),
        ("[scenario]\nname = a/b\n", "one plain path component"),
        ("[scenario]\nname = ..\n", "one plain path component"),
        ("[scenario]\nname =\n", "one plain path component"),
        ("[scenario]\nname = a\0b\n", "one plain path component"),
        # finite raw vectors whose spin tensor overflows
        ("[initial]\nmode = raw\nx = 0 0 -1e200 0\nu = 1e200 1e200 0 0\ny = 0 0 0 0\n"
         "pi = 1 0 0 0\n", "cannot build the initial states"),
        ("[tolerances]\ndrift = -1\n", "tolerances.drift must be positive"),
        ("[tolerances]\ncompare = 0\n", "tolerances.compare must be positive"),
    ],
)
def test_invalid_configs_rejected(tmp_path, body, message):
    path = tmp_path / "bad.ini"
    path.write_text(body)
    with pytest.raises(ScenarioError, match=message):
        load_scenario(str(path))


def test_unknown_source_rejected():
    with pytest.raises(ScenarioError, match="neither a preset"):
        load_scenario("no-such-preset")


def test_unknown_field_variant_raises(tmp_path):
    path = tmp_path / "field.ini"
    path.write_text("[field]\nvariant = dipole\n")
    with pytest.raises(ScenarioError, match="unknown field variant"):
        load_scenario(str(path))


def test_n_steps_truncated_to_record_multiple(tmp_path):
    path = tmp_path / "trunc.ini"
    path.write_text(
        """
[run]
steps_per_period = 100
periods = 1.55
record_every = 10
"""
    )
    sc = load_scenario(str(path))
    assert sc.n_steps == 150
    assert sc.n_steps % sc.record_every == 0
