"""The pure-Python float driver and the array RK4 kernels are one flow.

``kernels.FLOAT_INTEGRATORS`` is what runs without numba; the array
``integrate_*`` kernels are what numba compiles.  They are compared here
with the array kernels run as plain Python, so the test holds under
either backend: same records byte for byte, same return value, also
when the state turns non-finite.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import zsim
from zsim import kernels
from zsim.constants import Q_ELECTRON, T0
from zsim.dynamics import matched_initial_states, pack_state, unpack_state

FORMULATIONS = ("position", "spintensor", "spinor")
ARRAY_KERNELS = {
    name: getattr(fn, "py_func", fn)
    for name, fn in (
        ("position", kernels.integrate_position),
        ("spintensor", kernels.integrate_spintensor),
        ("spinor", kernels.integrate_spinor),
    )
}
FIELDS = {
    "free": (kernels.FIELD_FREE, np.zeros(1)),
    "uniform": (kernels.FIELD_UNIFORM, np.array([1e-4, -2e-4, 3e-4, 4e-4, -5e-4, 2e-3])),
    "coulomb": (kernels.FIELD_COULOMB, np.array([1.0, 0.0, 30.0, 0.0])),
    # zero field components, whose Lorentz terms the float driver leaves out
    "uniform-bz": (kernels.FIELD_UNIFORM, np.array([0.0, 0.0, 0.0, 0.0, 0.0, 2e-3])),
    "uniform-ex": (kernels.FIELD_UNIFORM, np.array([3e-4, 0.0, 0.0, 0.0, 0.0, 0.0])),
}
# spatial u and pi, and d and s, in each packed layout
SPATIAL = {"position": np.r_[5:8, 13:16], "spintensor": np.r_[5:8, 9:18],
           "spinor": np.r_[5:8]}


def signed_zeros(states):
    """The states with -0.0 for every zero of spatial u, pi, d and s."""
    out = {}
    for name, state in states.items():
        s = pack_state(state)
        s[SPATIAL[name]] = np.where(s[SPATIAL[name]] == 0, -0.0, s[SPATIAL[name]])
        out[name] = unpack_state(name, s)
        assert pack_state(out[name]).tobytes() == s.tobytes()
    return out


STATES = {
    "boosted": lambda: matched_initial_states(np.pi / 3, 0.4, velocity=np.array([0.6, 0.0, 0.0])),
    # all four momenta nonzero, so that in free space the float driver holds them all
    "boosted-oblique": lambda: matched_initial_states(
        np.pi / 3, 0.4, velocity=np.array([0.3, -0.2, 0.1])),
    "rest-theta0": lambda: matched_initial_states(0.0, 0.0),
    "rest-signed-zeros": lambda: signed_zeros(matched_initial_states(0.0, 0.0)),
}


def packed(states, name):
    return pack_state(states[name]).astype(kernels.STATE_DTYPE[name])


def run_both(name, state, fcode, fparams, dt, n_steps, record_every, q=Q_ELECTRON):
    results = []
    for kernel in (kernels.FLOAT_INTEGRATORS[name], ARRAY_KERNELS[name]):
        out = np.zeros((n_steps // record_every + 1, state.shape[0]), dtype=state.dtype)
        with np.errstate(all="ignore"):
            status = kernel(state.copy(), fcode, fparams, q, dt, n_steps, record_every, out)
        results.append((status, out))
    (status, out), (want_status, want) = results
    assert status == want_status
    assert out.tobytes() == want.tobytes()
    return status


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("which", STATES)
@pytest.mark.parametrize("name", FORMULATIONS)
def test_float_driver_matches_array_kernels(name, which, field):
    fcode, fparams = FIELDS[field]
    # both charge signs: with q > 0 the free-field force rounds to +0.0, which
    # turns the -0.0 momenta of rest-signed-zeros into +0.0
    for q in (Q_ELECTRON, 1.0):
        state = packed(STATES[which](), name)
        assert run_both(name, state, fcode, fparams, T0 / 1000, 300, 3, q) == -1
        for n in (1, 7):  # a record after every step, and only after the last
            assert run_both(name, state, fcode, fparams, T0 / 1000, n, n, q) == -1


@pytest.mark.parametrize("name", FORMULATIONS)
def test_divergence_index_matches_on_blow_up(name):
    state = packed(STATES["boosted"](), name)
    fcode, fparams = FIELDS["free"]
    assert run_both(name, state, fcode, fparams, 10.0, 2000, 100) > 0


@pytest.mark.parametrize("name", FORMULATIONS)
def test_divergence_index_matches_when_coulomb_denominator_underflows(name):
    # |r| = 1e-110: r^2 sqrt(r^2) underflows to 0, and Z / 0 must give inf
    # rather than ZeroDivisionError; |r| = 0 takes the field's nan branch
    fcode, fparams = FIELDS["coulomb"]
    for offset in (1e-110, 0.0):
        state = packed(STATES["boosted"](), name)
        state[1:4] = fparams[1:4] + np.array([offset, 0.0, 0.0])
        assert run_both(name, state, fcode, fparams, T0 / 1000, 10, 1) == 1


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("name", FORMULATIONS)
def test_divergence_index_matches_for_non_finite_charge(name, field):
    # q * 0 is nan, so a momentum with no field term is not held fixed either
    fcode, fparams = FIELDS[field]
    for q in (np.nan, np.inf):
        state = packed(STATES["boosted-oblique"](), name)
        assert run_both(name, state, fcode, fparams, T0 / 1000, 10, 1, q) == 1


def test_divergence_index_matches_when_amplitude_squares_overflow():
    # finite amplitude parts whose squares overflow: u0, and so x0, is
    # inf after the first step
    state = packed(STATES["boosted"](), "spinor")
    state[8:10] = 1.7e308
    fcode, fparams = FIELDS["free"]
    assert run_both("spinor", state, fcode, fparams, T0 / 1000, 10, 1) == 1


def test_loops_are_built_on_first_use():
    """``import zsim.cli`` compiles no pure-Python loop; one integration
    compiles the one loop of its formulation, field and held momenta (none
    where numba runs): at rest in free space only pi^0 is nonzero."""
    src = str(Path(zsim.__file__).resolve().parents[1])
    built = "print(sorted(f for f in linecache.cache if f.startswith('<zsim.kernels:')))"
    code = (f"import linecache, zsim.cli; {built}; "
            "from zsim import dynamics, emfield, kernels; "
            "state = dynamics.matched_initial_states(0.0, 0.0)['spintensor']; "
            f"dynamics.integrate(state, emfield.FreeField(), 0.01, 1); {built}; "
            "print(kernels.JITTED)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True, timeout=120)
    after_import, after_integrate, jitted = proc.stdout.splitlines()
    assert after_import == "[]"
    loop = "<zsim.kernels:spintensor zero=e1,e2,e3,b1,b2,b3 held=p0>"
    assert after_integrate == ("[]" if jitted == "True" else repr([loop]))


def generic_spinor_states(n, seed=2027):
    """Seeded spinor states with a random axis, phase and 3-velocity up to 0.6."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        direction = rng.normal(size=3)
        velocity = rng.uniform(0.0, 0.6) * direction / np.linalg.norm(direction)
        states = matched_initial_states(rng.uniform(0.0, np.pi), rng.uniform(-np.pi, np.pi),
                                        velocity=velocity, phase=rng.uniform(0.0, 2 * np.pi))
        yield packed(states, "spinor")


@pytest.fixture
def requested(monkeypatch):
    """The formulations of the loops the float drivers ask for, in order."""
    calls = []
    fused = kernels._fused_rk4
    monkeypatch.setattr(kernels, "_fused_rk4", lambda *key: calls.append(key[0]) or fused(*key))
    return calls


@pytest.mark.parametrize("field", ["free", "uniform", "coulomb"])
def test_spinor_float_pairs_match_array_kernel_on_seeded_states(field, requested):
    """The spinor loop keeps the array kernel's bits on generic states."""
    fcode, fparams = FIELDS[field]
    for state in generic_spinor_states(20):
        for q in (Q_ELECTRON, 1.0):
            for n in (1, 7):
                assert run_both("spinor", state, fcode, fparams, T0 / 1000, 28, n, q) == -1
    assert set(requested) == {"spinor"}


def test_spinor_loop_choice_ignores_the_amplitude_zeros(requested):
    """The spinor loops are built per field and held momenta only.  A theta = 0
    rest state, whose amplitude has exactly zero parts, builds one loop per
    field, as a generic state does, and so does an amplitude with signed
    zeros; both keep the array kernel's bits."""
    src = str(Path(zsim.__file__).resolve().parents[1])
    built = "print(sorted(f for f in linecache.cache if f.startswith('<zsim.kernels:')))"
    run = ("kernels.FLOAT_INTEGRATORS['spinor'](s, 0, np.zeros(1), -1.0, 0.01, 20, 1, "
           "np.zeros((21, 16)))")
    code = ("import linecache, numpy as np; from zsim import dynamics, kernels; "
            "states = dynamics.matched_initial_states(np.pi / 3, 0.4, velocity=np.array("
            "[0.3, -0.2, 0.1])); s = dynamics.pack_state(states['spinor']); "
            f"{run}; {built}; "
            "s = dynamics.pack_state(dynamics.matched_initial_states(0.0)['spinor']); "
            f"{run}; {built}")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True, timeout=120)
    after_generic, after_rest = proc.stdout.splitlines()
    free = "zero=e1,e2,e3,b1,b2,b3 held=p0,p1,p2,p3>"
    assert after_generic == repr([f"<zsim.kernels:spinor {free}"])
    assert after_rest == repr([f"<zsim.kernels:spinor {free}",
                               "<zsim.kernels:spinor zero=e1,e2,e3,b1,b2,b3 held=p0>"])
    rest = packed(STATES["rest-theta0"](), "spinor")
    # not a physical state: signed-zero momenta and amplitude parts
    signed = np.array([0, 0, 0, 0, 1, -0.0, -0.0, -0.0,
                       0, 0, 0, -0.0, 0.5, -0.5, -0.5, -0.0])
    for state in (rest, signed):
        for field in ("free", "uniform", "coulomb"):
            fcode, fparams = FIELDS[field]
            assert run_both("spinor", state, fcode, fparams, T0 / 1000, 40, 1) == -1
    assert requested == ["spinor"] * 6


@pytest.mark.parametrize("block", [1, 3, 7])
def test_records_keep_their_bits_across_block_boundaries(block, monkeypatch, requested):
    """The float loops write their records in blocks of at most
    ``kernels._BLOCK`` steps, read at call time, so no loop is rebuilt.  With
    blocks of 1, 3 and 7 steps a block ends after every record, or mid-way
    through the runs of the pins above, also at and past a non-finite state."""
    monkeypatch.setattr(kernels, "_BLOCK", block)
    for field in ("free", "uniform", "coulomb"):
        test_spinor_float_pairs_match_array_kernel_on_seeded_states(field, requested)
    for name in FORMULATIONS:
        test_divergence_index_matches_on_blow_up(name)
        for field in FIELDS:
            test_divergence_index_matches_for_non_finite_charge(name, field)
    test_divergence_index_matches_when_amplitude_squares_overflow()


@pytest.mark.parametrize("name", FORMULATIONS)
def test_records_keep_their_bits_over_several_blocks(name):
    """2500 steps recorded after each fill three blocks of the default size."""
    fcode, fparams = FIELDS["uniform"]
    state = packed(STATES["boosted"](), name)
    assert 2500 > 2 * kernels._BLOCK
    assert run_both(name, state, fcode, fparams, T0 / 1000, 2500, 1) == -1


@pytest.mark.parametrize("name", FORMULATIONS)
def test_blow_up_stops_within_one_block(name, monkeypatch):
    """A run of 10**7 steps that blows up in its first block returns the
    array kernel's index and records.  The array kernel stops at the first
    non-finite record; the float loop runs on to the end of its block, which
    spans at most ``kernels._BLOCK`` steps, and no further."""
    records = []
    store = kernels._store
    monkeypatch.setattr(kernels, "_store", lambda out, base, rows: records.append(
        len(rows) * 8 // out[0].nbytes) or store(out, base, rows))
    state = packed(STATES["boosted"](), name)
    fcode, fparams = FIELDS["free"]
    for every in (1, 10):
        results = []
        for kernel in (kernels.FLOAT_INTEGRATORS[name], ARRAY_KERNELS[name]):
            # room for two blocks: a loop that ran on would write past them
            out = np.zeros((2 * kernels._BLOCK // every + 1, state.shape[0]), dtype=state.dtype)
            with np.errstate(all="ignore"):
                status = kernel(state.copy(), fcode, fparams, Q_ELECTRON, 10.0, 10**7, every, out)
            results.append((status, out.tobytes()))
        assert 0 < results[1][0] < kernels._BLOCK // every
        assert results[0] == results[1]
        assert records == [kernels._BLOCK // every]
        records.clear()
