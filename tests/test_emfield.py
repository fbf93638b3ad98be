"""Field models and Lorentz force tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zsim.emfield import (
    CoulombField,
    FieldSingularityError,
    FreeField,
    UniformEB,
    field_tensor,
    force_at,
    lorentz_force,
    lorentz_force_tensor,
)
from zsim.minkowski import antisymmetric_tensor, mdot

component = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)


def vec3s():
    return st.tuples(component, component, component).map(np.array)


def vec4s():
    return st.tuples(component, component, component, component).map(np.array)


def test_lorentz_force_example():
    """Electron moving along x through B = z_hat feels f = (0, 0, 1, 0)."""
    e = np.zeros(3)
    b = np.array([0.0, 0.0, 1.0])
    u = np.array([1.0, 1.0, 0.0, 0.0])
    f = lorentz_force(-1.0, e, b, u)
    assert np.allclose(f, [0.0, 0.0, 1.0, 0.0]), f"unexpected force {f}"
    # stacked fields and velocities give the per-sample forces
    rng = np.random.default_rng(6)
    es, bs, us = rng.normal(size=(10, 3)), rng.normal(size=(10, 3)), rng.normal(size=(10, 4))
    got = lorentz_force(-1.0, es, bs, us)
    assert got.shape == (10, 4)
    for row, e_k, b_k, u_k in zip(got, es, bs, us):
        assert np.array_equal(row, lorentz_force(-1.0, e_k, b_k, u_k))


def test_force_time_component_is_power():
    e = np.array([2.0, 0.0, 0.0])
    u = np.array([1.5, 0.5, 0.25, 0.0])
    f = lorentz_force(-1.0, e, np.zeros(3), u)
    assert f[0] == pytest.approx(-1.0 * np.dot(e, u[1:]))


@given(q=component, e=vec3s(), b=vec3s(), u=vec4s())
@settings(max_examples=200, deadline=None)
def test_tensor_route_matches_direct_force(q, e, b, u):
    """q F^{mu nu} u_nu and the explicit E/B cross-product form agree."""
    direct = lorentz_force(q, e, b, u)
    tensor = lorentz_force_tensor(q, e, b, u)
    assert np.allclose(direct, tensor, atol=1e-12), f"{direct} vs {tensor}"


@given(e=vec3s(), b=vec3s(), u=vec4s())
@settings(max_examples=100, deadline=None)
def test_force_is_metric_orthogonal_to_velocity(e, b, u):
    """F^{mu nu} is antisymmetric, so the force never changes u.u."""
    f = lorentz_force_tensor(1.0, e, b, u)
    scale = max(1.0, float(np.abs(u).max()) ** 2 * (np.abs(e).max() + np.abs(b).max() + 1.0))
    assert abs(mdot(f, u)) / scale < 1e-12


def test_field_tensor_antisymmetry():
    e, b = np.array([1.0, -2.0, 0.5]), np.array([0.3, 0.0, 4.0])
    f = field_tensor(e, b)
    assert np.array_equal(f, -f.T)
    # F has the spin-tensor layout with (d, s) = (-E, B)
    assert np.array_equal(f, antisymmetric_tensor(-e, b))
    assert f[0, 1] == -e[0] and f[1, 0] == e[0] and f[3, 2] == b[0] and f[2, 1] == b[2]


def test_free_field_is_zero():
    model = FreeField()
    e, b = model.eb_at(np.array([0.0, 1.0, 2.0, 3.0]))
    assert not e.any() and not b.any()
    assert not model.potential_at(np.array([0.0, 1.0, 2.0, 3.0])).any()


def test_uniform_field_constant_everywhere():
    model = UniformEB(e0=np.array([0.1, 0.0, 0.0]), b0=np.array([0.0, 0.0, 2.0]))
    for x in (np.array([0.0, 0.0, 0.0, 0.0]), np.array([5.0, -3.0, 2.0, 1.0])):
        e, b = model.eb_at(x)
        assert np.array_equal(e, [0.1, 0.0, 0.0])
        assert np.array_equal(b, [0.0, 0.0, 2.0])


def test_uniform_potential_gauge():
    """A = (-E.r, B x r / 2) reproduces the stated fields."""
    e0 = np.array([0.2, -0.1, 0.4])
    b0 = np.array([1.0, 0.5, -0.3])
    model = UniformEB(e0=e0, b0=b0)
    h = 1e-6
    x = np.array([0.0, 0.7, -0.2, 0.9])
    grad = np.empty((3, 4))
    for i in range(3):
        dx = np.zeros(4)
        dx[i + 1] = h
        grad[i] = (model.potential_at(x + dx) - model.potential_at(x - dx)) / (2 * h)
    e_rec = -grad[:, 0]
    curl = np.array([
        grad[1, 3] - grad[2, 2],
        grad[2, 1] - grad[0, 3],
        grad[0, 2] - grad[1, 1],
    ])
    assert np.allclose(e_rec, e0, atol=1e-8)
    assert np.allclose(curl, b0, atol=1e-8)


def test_coulomb_field_example():
    """Unit charge at the origin: |E| = 1/r^2 pointing outward."""
    model = CoulombField(z_charge=1.0)
    e, b = model.eb_at(np.array([0.0, 2.0, 0.0, 0.0]))
    assert np.allclose(e, [0.25, 0.0, 0.0])
    assert not b.any()
    assert model.potential_at(np.array([0.0, 2.0, 0.0, 0.0]))[0] == pytest.approx(0.5)


def test_coulomb_center_offset():
    model = CoulombField(z_charge=2.0, center=np.array([1.0, 0.0, 0.0]))
    e, _ = model.eb_at(np.array([0.0, 3.0, 0.0, 0.0]))
    assert np.allclose(e, [0.5, 0.0, 0.0])


def test_coulomb_singularity_raises():
    model = CoulombField(z_charge=1.0, center=np.array([0.5, 0.0, 0.0]))
    with pytest.raises(FieldSingularityError):
        model.eb_at(np.array([0.0, 0.5, 0.0, 0.0]))
    with pytest.raises(FieldSingularityError):
        model.potential_at(np.array([1.0, 0.5, 0.0, 0.0]))


def test_force_at_dispatches_model():
    model = UniformEB(b0=np.array([0.0, 0.0, 1.0]))
    f = force_at(model, -1.0, np.array([0.0, 0.0, 0.0, 0.0]), np.array([1.0, 1.0, 0.0, 0.0]))
    assert np.allclose(f, [0.0, 0.0, 1.0, 0.0])
