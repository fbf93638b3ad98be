"""Scenario configuration: INI files and named presets.

A scenario fixes the field, the initial state, the integration grid,
and the pass/fail tolerances used by the command-line tools.  Example:

    [scenario]
    name = free-boosted
    formulation = all

    [field]
    variant = free

    [initial]
    mode = rest_spin
    theta = pi/3
    phi = 0.4
    velocity = 0.6 0 0

    [run]
    steps_per_period = 1000
    periods = 10
    record_every = 10

    [tolerances]
    oracle = 1e-8
    drift = 1e-8
    compare = 1e-6

Angles accept plain floats or simple multiples of pi ("pi/3", "2*pi/3",
"-pi/2").  Initial states come from a rest-frame spin axis plus optional
zitter phase and boost (mode rest_spin) or raw four-vectors x, u, y, pi
(mode raw, which supports the position and spin-tensor formulations
only).  ``phase`` rotates the starting point on the zitter circle; the
default 0 starts with the internal velocity along the first axis.  An
unknown section or key is an error.
"""

from __future__ import annotations

import configparser
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .constants import Q_ELECTRON, T0
from .dynamics import matched_initial_states
from .emfield import CoulombField, FieldModel, FreeField, UniformEB
from .states import DynState, FORMULATIONS, PositionState, SpinTensorState


class ScenarioError(Exception):
    """Invalid scenario configuration (maps to CLI exit code 2)."""


_PI_FORM = re.compile(
    r"^\s*(-?)\s*(?:(\d+(?:\.\d*)?)\s*\*\s*)?pi\s*(?:/\s*(\d+(?:\.\d*)?))?\s*$"
)

_DEFAULTS = {
    "scenario": {"name": "unnamed", "formulation": "position"},
    "field": {"variant": "free", "e0": "0 0 0", "b0": "0 0 0", "z": "1.0",
              "center": "0 0 0"},
    "initial": {"mode": "rest_spin", "theta": "0.0", "phi": "0.0",
                "phase": "0.0", "velocity": "0 0 0", "origin": "0 0 0 0"},
    "run": {"steps_per_period": "1000", "periods": "10", "record_every": "10",
            "charge": str(Q_ELECTRON)},
    "tolerances": {"oracle": "1e-8", "drift": "1e-8", "compare": "1e-6"},
}
_RAW_KEYS = ("x", "u", "y", "pi")  # [initial] vectors of raw mode


def _finite(value: float, what: str) -> float:
    if not math.isfinite(value):
        raise ScenarioError(f"{what} must be finite, got {value!r}")
    return value


def parse_angle(text: str) -> float:
    """Float literal or a simple multiple of pi such as '2*pi/3'."""
    try:
        return _finite(float(text), "angle")
    except ValueError:
        pass
    m = _PI_FORM.match(text)
    if not m:
        raise ScenarioError(f"cannot parse angle {text!r}")
    sign = -1.0 if m.group(1) == "-" else 1.0
    num = float(m.group(2)) if m.group(2) else 1.0
    den = float(m.group(3)) if m.group(3) else 1.0
    if den == 0.0:
        raise ScenarioError(f"cannot parse angle {text!r}: division by zero")
    return _finite(sign * num * math.pi / den, "angle")


def _parse_vector(text: str, length: int, what: str) -> np.ndarray:
    parts = text.replace(",", " ").split()
    if len(parts) != length:
        raise ScenarioError(f"{what} needs {length} components, got {text!r}")
    try:
        vec = np.array([float(p) for p in parts])
    except ValueError as exc:
        raise ScenarioError(f"bad number in {what}: {exc}") from None
    if not np.all(np.isfinite(vec)):
        raise ScenarioError(f"{what} has non-finite components: {text!r}")
    return vec


def parse_velocity(text: str, what: str) -> np.ndarray:
    """Three-velocity from text, rejecting speeds at or above c (= 1)."""
    v = _parse_vector(text, 3, what)
    speed = float(np.linalg.norm(v))
    if speed >= 1.0:
        raise ScenarioError(f"{what} must be slower than light, got |v| = {speed!r}")
    return v


@dataclass(frozen=True)
class Scenario:
    """A validated scenario: the field and initial states it denotes, built at load."""

    name: str
    formulation: str
    field_variant: str
    field: FieldModel
    states: dict[str, DynState]  # every formulation the initial mode can express
    steps_per_period: int
    periods: float
    record_every: int
    charge: float
    tolerances: dict[str, float]

    @property
    def dt(self) -> float:
        return T0 / self.steps_per_period

    @property
    def n_steps(self) -> int:
        steps = round(self.periods * self.steps_per_period)
        # keep recording aligned with the final step
        return int(steps - steps % self.record_every)

    def initial_state(self, formulation: str | None = None) -> DynState:
        name = formulation or self.formulation
        if name not in self.states:
            raise ScenarioError(f"scenario {self.name!r} has no {name!r} initial state")
        return self.states[name]


def path_component(name: str, what: str) -> str:
    """``name`` if it is one plain path component, so artifacts stay in --out."""
    if name in ("", ".", "..") or "/" in name or "\0" in name:
        raise ScenarioError(f"{what} must be one plain path component, got {name!r}")
    return name


def _scenario_from_parser(cp: configparser.ConfigParser) -> Scenario:
    # a misspelt name would silently keep its default; [DEFAULT] keys reach every section
    for section in ([cp.default_section] if cp.defaults() else []) + cp.sections():
        if section not in _DEFAULTS:
            raise ScenarioError(f"unknown section [{section}]; known: {', '.join(_DEFAULTS)}")
        known = [*_DEFAULTS[section], *(_RAW_KEYS if section == "initial" else ())]
        unknown = [k for k in cp.options(section) if k not in known]
        if unknown:
            raise ScenarioError(f"unknown key {unknown[0]!r} in [{section}]; "
                                f"known: {', '.join(known)}")
    name = path_component(cp.get("scenario", "name"), "scenario.name")
    formulation = cp.get("scenario", "formulation").strip()
    if formulation not in FORMULATIONS + ("all",):
        raise ScenarioError(f"unknown formulation {formulation!r}")
    mode = cp.get("initial", "mode").strip()
    raw = None
    if mode == "raw":
        missing = [k for k in _RAW_KEYS if not cp.has_option("initial", k)]
        if missing:
            raise ScenarioError(f"raw initial mode needs vectors {missing}")
        raw = {k: _parse_vector(cp.get("initial", k), 4, f"initial.{k}")
               for k in _RAW_KEYS}
    elif mode != "rest_spin":
        raise ScenarioError(f"unknown initial mode {mode!r}")
    try:
        steps_per_period = cp.getint("run", "steps_per_period")
        record_every = cp.getint("run", "record_every")
        periods = _finite(cp.getfloat("run", "periods"), "run.periods")
        charge = _finite(cp.getfloat("run", "charge"), "run.charge")
        tolerances = {k: _finite(float(v), f"tolerances.{k}")
                      for k, v in cp.items("tolerances")}
        z_charge = _finite(cp.getfloat("field", "z"), "field.z")
    except ValueError as exc:
        raise ScenarioError(f"bad numeric value: {exc}") from None
    if steps_per_period <= 0 or record_every <= 0 or periods <= 0:
        raise ScenarioError("run parameters must be positive")
    for key, tol in tolerances.items():  # no value passes a gate of zero or below
        if tol <= 0:
            raise ScenarioError(f"tolerances.{key} must be positive, got {tol!r}")
    # tau = k * dt is exact only while the step index k fits a float's mantissa
    if steps_per_period > 2**53 or periods * steps_per_period > 2**53:
        raise ScenarioError(
            f"run too long: periods * steps_per_period = {periods!r} * {steps_per_period!r} "
            "exceeds 2**53 steps"
        )
    variant = cp.get("field", "variant").strip()
    e0 = _parse_vector(cp.get("field", "e0"), 3, "field.e0")
    b0 = _parse_vector(cp.get("field", "b0"), 3, "field.b0")
    center = _parse_vector(cp.get("field", "center"), 3, "field.center")
    theta = parse_angle(cp.get("initial", "theta"))
    phi = parse_angle(cp.get("initial", "phi"))
    phase = parse_angle(cp.get("initial", "phase"))
    velocity = parse_velocity(cp.get("initial", "velocity"), "initial.velocity")
    origin = _parse_vector(cp.get("initial", "origin"), 4, "initial.origin")
    if variant == "free":
        field = FreeField()
    elif variant == "uniform":
        field = UniformEB(e0=e0, b0=b0)
    elif variant == "coulomb":
        field = CoulombField(z_charge=z_charge, center=center)
    else:
        raise ScenarioError(f"unknown field variant {variant!r}")
    try:  # the state classes reject what overflows, so numpy need not warn
        with np.errstate(over="ignore", invalid="ignore"):
            if raw is None:
                states = matched_initial_states(theta, phi, velocity=velocity, origin=origin,
                                                phase=phase)
            else:
                pos = PositionState(**raw)
                states = {"position": pos,
                          "spintensor": SpinTensorState(pos.x, pos.u, pos.spin, pos.pi)}
    except ValueError as exc:
        raise ScenarioError(f"cannot build the initial states: {str(exc).split(':')[0]}") from None
    sc = Scenario(name=name, formulation=formulation, field_variant=variant, field=field,
                  states=states, steps_per_period=steps_per_period, periods=periods,
                  record_every=record_every, charge=charge, tolerances=tolerances)
    if sc.n_steps == 0:
        raise ScenarioError(
            f"run has no steps: periods * steps_per_period = "
            f"{periods * steps_per_period!r} rounds to fewer than record_every = {record_every}"
        )
    return sc


PRESETS: dict[str, str] = {
    "free-rest": """
[scenario]
name = free-rest
formulation = all
[initial]
theta = 0
phi = 0
""",
    "free-boosted": """
[scenario]
name = free-boosted
formulation = all
[initial]
theta = pi/3
phi = 0.4
velocity = 0.6 0 0
[tolerances]
compare = 1e-6
""",
    "uniform-b-weak": """
[scenario]
name = uniform-b-weak
formulation = all
[field]
variant = uniform
b0 = 0 0 5e-7
[initial]
theta = pi/3
phi = 0.4
[tolerances]
compare = 1e-5
drift = 1e-5
""",
    "uniform-b-cyclotron": """
[scenario]
name = uniform-b-cyclotron
formulation = spintensor
[field]
variant = uniform
b0 = 0 0 1e-3
[initial]
theta = 0
phi = 0
velocity = 0.25 0 0
[run]
periods = 400
record_every = 200
""",
    "uniform-b-precession": """
[scenario]
name = uniform-b-precession
formulation = spintensor
[field]
variant = uniform
b0 = 0 0 1e-3
[initial]
theta = pi/3
phi = 0
[run]
periods = 400
record_every = 200
""",
    "coulomb-orbit": """
[scenario]
name = coulomb-orbit
formulation = spintensor
[field]
variant = coulomb
z = 1.0
center = 0 0 0
[initial]
theta = 0
phi = 0
velocity = 0 0.05 0
origin = 0 30 0 0
[run]
periods = 50
record_every = 100
[tolerances]
drift = 1e-6
""",
}


def preset_names() -> list[str]:
    return sorted(PRESETS)


def load_scenario(source: str) -> Scenario:
    """Load from a preset name or an INI file path."""
    cp = configparser.ConfigParser()
    cp.read_dict(_DEFAULTS)
    if source in PRESETS:
        cp.read_string(PRESETS[source])
    else:
        path = Path(source)
        if not path.is_file():
            raise ScenarioError(
                f"{source!r} is neither a preset ({', '.join(preset_names())}) "
                "nor a readable file"
            )
        try:
            cp.read_string(path.read_text(), source=source)
        except (configparser.Error, UnicodeDecodeError) as exc:
            detail = " ".join(str(exc).split())  # configparser's spans several lines
            raise ScenarioError(f"bad INI syntax in {source}: {detail}") from None
    return _scenario_from_parser(cp)
