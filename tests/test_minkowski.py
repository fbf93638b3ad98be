"""Metric algebra and boost tests."""

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zsim.minkowski import (
    BoostParams,
    METRIC,
    boost_coords,
    boost_matrix,
    boost_vector,
    gamma_of,
    lower,
    mdot,
    wedge,
)

component = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
speed = st.floats(min_value=-0.95, max_value=0.95, allow_nan=False)


def vec4s():
    return st.tuples(component, component, component, component).map(np.array)


def boost_params():
    return st.tuples(speed, speed, speed).map(
        lambda t: np.array(t) * (0.99 / max(1.0, np.linalg.norm(t)))
    ).map(BoostParams)


def test_metric_signature():
    assert np.array_equal(np.diag(METRIC), [1.0, -1.0, -1.0, -1.0])


def test_mdot_signs():
    a = np.array([2.0, 1.0, 0.0, 0.0])
    assert mdot(a, a) == pytest.approx(4.0 - 1.0)
    assert np.allclose(lower(a), [2.0, -1.0, 0.0, 0.0])


def test_mdot_broadcasts_over_stacks():
    rows = np.arange(12.0).reshape(3, 4)
    got = mdot(rows, rows)
    want = rows[:, 0] ** 2 - np.sum(rows[:, 1:] ** 2, axis=1)
    assert np.allclose(got, want)
    # one formula: a stack gives the same bits as per-row calls
    a, b = np.random.default_rng(4).normal(size=(2, 50, 4))
    assert np.array_equal(mdot(a, b), [mdot(x, y) for x, y in zip(a, b)])


def test_wedge_broadcasts_over_stacks():
    a, b = np.random.default_rng(5).normal(size=(2, 20, 4))
    got = wedge(a, b)
    assert got.shape == (20, 4, 4)
    assert np.array_equal(got, -np.swapaxes(got, 1, 2))
    for x, y, row in zip(a, b, got):
        assert np.array_equal(row, np.outer(x, y) - np.outer(y, x))
        assert np.array_equal(row, wedge(x, y))


def test_gamma_of_rejects_superluminal():
    with pytest.raises(ValueError):
        gamma_of(np.array([1.0, 0.0, 0.0]))
    assert gamma_of(np.array([0.6, 0.0, 0.0])) == pytest.approx(1.25)


def test_boost_example_along_x():
    """Event (tau=0) at r=(1,0,0) seen from a frame moving at 0.6c.

    gamma = 1.25, so t = gamma V x = 0.75 and x' = x + (gamma^2/(1+gamma)) V.(V.r) V
    = 1 + 0.25 = 1.25; the interval x.x = -1 is preserved.
    """
    params = BoostParams(np.array([0.6, 0.0, 0.0]))
    t, x = boost_coords(np.array([1.0, 0.0, 0.0]), 0.0, params)
    assert t == pytest.approx(0.75, abs=1e-15)
    assert np.allclose(x, [1.25, 0.0, 0.0])
    ev = np.array([t, *x])
    assert mdot(ev, ev) == pytest.approx(-1.0, abs=1e-14)


def test_boost_matrix_matches_coords():
    params = BoostParams(np.array([0.3, -0.2, 0.5]))
    r = np.array([0.7, -1.1, 0.4])
    tau = 0.9
    t, x = boost_coords(r, tau, params)
    ev = boost_vector(np.array([tau, *r]), params)
    assert ev[0] == pytest.approx(t, abs=1e-14)
    assert np.allclose(ev[1:], x, atol=1e-14)


# Rounding bound on |mdot(boost a, boost b) - mdot(a, b)| in units of
# gamma^2 |a| |b| eps, to first order in the unit roundoff u = eps / 2.
# |Lambda| (entrywise absolute values) is itself a boost, so its 2-norm is
# gamma (1 + |v|) <= 2 gamma, and |x|_1 <= 2 |x| for four-vectors:
# * boosted components: 6u on the matrix entries plus 4u on the 4-term
#   products give |d(Lambda a)| <= 10u * 2 gamma |a|; against |Lambda b| <= 2 gamma |b|,
#   twice: 80 gamma^2 u;
# * the product of the boosted vectors: 4u * (2 gamma)^2 = 16 gamma^2 u;
# * gamma itself: 1 - v.v cancels, so |dgamma / gamma| <= 1.5 gamma^2 v^2 u + 2.5u
#   <= 4 gamma^2 u, which moves every entry of Lambda^T G Lambda off G by up
#   to 2 |dgamma / gamma|: 2 * 4 gamma^2 u * |a|_1 |b|_1 <= 32 gamma^2 u;
# * the unboosted product: 4u <= 4 gamma^2 u.
# Sum: 132 gamma^2 u = 66 gamma^2 eps.  Products that underflow lose up to
# half a subnormal unit each instead; 64 units cover the 14 such operations.
BOOST_PRODUCT_K = 66.0


def _boost_product_bound(a, b, params):
    eps = np.finfo(np.float64).eps
    norms = math.hypot(*a) * math.hypot(*b)  # hypot does not underflow like a.a
    return BOOST_PRODUCT_K * params.gamma**2 * norms * eps + 64 * 2.0**-1074


@given(a=vec4s(), b=vec4s(), params=boost_params())
@settings(max_examples=200, deadline=None)
def test_boost_preserves_inner_product(a, b, params):
    """Lorentz boosts leave the Minkowski product invariant, to rounding."""
    ga, gb = boost_vector(a, params), boost_vector(b, params)
    assert abs(mdot(ga, gb) - mdot(a, b)) <= _boost_product_bound(a, b, params)


def _exact_mdot(a, b) -> Fraction:
    a, b = [Fraction(float(c)) for c in a], [Fraction(float(c)) for c in b]
    return a[0] * b[0] - a[1] * b[1] - a[2] * b[2] - a[3] * b[3]


def _correctly_rounded_boost(a, v) -> list[float]:
    """boost_vector evaluated in 60-digit decimals, each output rounded once."""
    with localcontext() as ctx:
        ctx.prec = 60
        a = [Decimal(float(c)) for c in a]
        v = [Decimal(float(c)) for c in v]
        g = 1 / (1 - sum(c * c for c in v)).sqrt()
        vr = sum(v[i] * a[i + 1] for i in range(3))
        out = [g * a[0] + g * vr]
        out += [a[i + 1] + g * v[i] * a[0] + (g * g / (1 + g)) * v[i] * vr for i in range(3)]
        return [float(c) for c in out]


@pytest.mark.parametrize("a, b, v", [
    ([7.31835713719672, -8.697602193094284, 6.502659886345903, -5.530852422080299],
     [7.985337101641978, -9.096993753184414, -5.728756644702077, -2.8685870498591592],
     [-0.7157303491021669, 0.11723847832961674, -0.6738584469850075]),
    ([-5.632571692897423, 6.84958148915381, -6.843559370695909, 9.556708496557217],
     [6.602768299185282, 9.635216973860949, 8.467719946476723, -4.754566416702836],
     [0.6730566811512492, 0.32451635675872653, -0.6494488726248654]),
])
def test_boost_inner_product_error_is_at_the_rounding_floor(a, b, v):
    """Draws (gamma = 7.09) where even correctly rounded outputs miss 1e-12.

    Evaluated exactly with fractions, the boosted outputs' product differs
    from a.b by more than 1e-12 max(1, |a.b|), the bound the inner-product
    test used before: that bound sits below the rounding floor of its own
    inputs.  Both the rounded and the computed outputs meet the error model.
    """
    a, b, params = np.array(a), np.array(b), BoostParams(np.array(v))
    exact = _exact_mdot(a, b)
    old_bound = 1e-12 * max(1.0, abs(float(exact)))
    bound = _boost_product_bound(a, b, params)
    rounded = _correctly_rounded_boost(a, v), _correctly_rounded_boost(b, v)
    assert abs(float(_exact_mdot(*rounded) - exact)) > old_bound
    assert abs(float(_exact_mdot(*rounded) - exact)) <= bound
    computed = boost_vector(a, params), boost_vector(b, params)
    assert abs(float(_exact_mdot(*computed) - exact)) <= bound


@given(a=vec4s(), params=boost_params())
@settings(max_examples=200, deadline=None)
def test_boost_round_trip(a, params):
    again = boost_vector(boost_vector(a, params), BoostParams(-params.velocity))
    assert np.allclose(again, a, atol=1e-10 * max(1.0, np.abs(a).max()))


@given(a=vec4s(), b=vec4s())
@settings(max_examples=100, deadline=None)
def test_mdot_symmetry_and_linearity(a, b):
    assert mdot(a, b) == pytest.approx(mdot(b, a), abs=1e-12)
    assert mdot(a + b, a + b) == pytest.approx(
        mdot(a, a) + 2 * mdot(a, b) + mdot(b, b), abs=1e-9
    )


def test_boost_matrix_is_lorentz():
    params = BoostParams(np.array([0.6, 0.0, 0.0]))
    lam = boost_matrix(params)
    assert np.allclose(lam.T @ METRIC @ lam, METRIC, atol=1e-14)
