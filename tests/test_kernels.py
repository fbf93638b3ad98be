"""The pure-Python float driver and the array RK4 kernels are one flow.

``kernels.FLOAT_INTEGRATORS`` is what runs without numba; the array
``integrate_*`` kernels are what numba compiles.  They are compared here
with the array kernels run as plain Python, so the test holds under
either backend: same records byte for byte, same return value, also
when the state turns non-finite.
"""

import numpy as np
import pytest

from zsim import kernels
from zsim.constants import Q_ELECTRON, T0
from zsim.dynamics import matched_initial_states, pack_state

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
    "uniform": (kernels.FIELD_UNIFORM, np.array([1e-4, 0.0, 0.0, 0.0, 0.0, 2e-3])),
    "coulomb": (kernels.FIELD_COULOMB, np.array([1.0, 0.0, 30.0, 0.0])),
}
STATES = {
    "boosted": lambda: matched_initial_states(np.pi / 3, 0.4, velocity=np.array([0.6, 0.0, 0.0])),
    "rest-theta0": lambda: matched_initial_states(0.0, 0.0),
}


def packed(states, name):
    return pack_state(states[name]).astype(kernels.STATE_DTYPE[name])


def run_both(name, state, fcode, fparams, dt, n_steps, record_every):
    results = []
    for kernel in (kernels.FLOAT_INTEGRATORS[name], ARRAY_KERNELS[name]):
        out = np.zeros((n_steps // record_every + 1, state.shape[0]), dtype=state.dtype)
        with np.errstate(all="ignore"):
            status = kernel(state.copy(), fcode, fparams, Q_ELECTRON, dt, n_steps, record_every, out)
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
    state = packed(STATES[which](), name)
    assert run_both(name, state, fcode, fparams, T0 / 1000, 300, 3) == -1


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


def test_divergence_index_matches_when_complex_modulus_overflows():
    # finite parts whose modulus overflows: numpy's abs gives inf, Python's
    # abs raises OverflowError
    state = packed(STATES["boosted"](), "spinor")
    state[0] = complex(1.7e308, 1.7e308)
    fcode, fparams = FIELDS["free"]
    assert run_both("spinor", state, fcode, fparams, T0 / 1000, 10, 1) == 1
