"""Space-time wave function of the free electron and ensemble density checks.

The state function phi(tau) of a ``SpinorState`` extends to a field by
synchronizing proper time over space-time events, measured from the
state's own event x_s: tau(x) = pi.(x - x_s)/(m c^2), so

    psi(x) = phi(tau(x)),    d_mu tau = pi_mu / (m c^2),    psi(x_s) = phi.

psi satisfies the free wave equation u_op^mu (i hbar d_mu) psi = m c^2 psi
and the Klein-Gordon equation, carries a conserved current
j^mu = psibar u_op^mu psi with j^0 > 0, and returns the momentum as the
bilinear psibar (i hbar d_mu) psi = pi_mu.  There is no probabilistic
content; the ensemble checks below treat densities of many independent
electrons.

An initially uniform spatial density of free electrons stays uniform:
after a whole number of zitter periods the flow map is a rigid
translation.  A corrupted flow that reverses the oscillatory part of the
spatial velocity (a sign flip of the spatial zitter acceleration) while
keeping the same synchronization breaks pi.u = m c^2 and is no longer
measure preserving; a chi-squared test detects the density distortion.
Its velocity still depends on the zitter phase alone, whose equation is
Adler's; both flows are evaluated in closed form, with no integrator, and
the chi-squared tail is computed with ``math`` alone.
"""

from __future__ import annotations

import hashlib
import math
from functools import partial

import numpy as np

from .constants import C, HBAR, MASS, OMEGA0, OMEGA1
from .minkowski import lower, mdot
from .spinor import (
    GAMMA0,
    U_OP,
    energy_split,
    evolve_amplitudes,
    hamiltonian,
    velocity_observable,
)
from .states import PositionState, SpinorState


def proper_time_of(wave: SpinorState, x) -> np.ndarray | float:
    """Synchronized proper time tau(x) = (pi.x - pi.x_s)/(m c^2), zero at x_s."""
    # not pi.(x - x_s): pi.x_s = 0.0 at the origin, where tau keeps the bits of pi.x / (m c^2)
    return (mdot(wave.pi, np.asarray(x, dtype=np.float64)) - mdot(wave.pi, wave.x)) / (MASS * C**2)


def wave_function_at(wave: SpinorState, x) -> np.ndarray:
    """psi(x) = phi(tau(x)); accepts one event (4,) or a stack (N, 4)."""
    return evolve_amplitudes(wave.phi, wave.pi, proper_time_of(wave, x))


def _as_events(xs) -> np.ndarray:
    xs = np.asarray(xs, dtype=np.float64)
    return xs[None, :] if xs.ndim == 1 else xs


def _shifted(f, xs, h: float):
    """Yield (mu, f(xs + h e_mu), f(xs - h e_mu)) for each axis mu."""
    for mu in range(4):
        step = np.zeros(4)
        step[mu] = h
        yield mu, f(xs + step), f(xs - step)


def gradient_analytic(wave: SpinorState, xs) -> np.ndarray:
    """Exact i hbar d_mu psi = (pi_mu / m c^2) H psi, shape (N, 4, 4).

    Index order: sample, mu, spinor component.  pi_mu is the lowered
    momentum.
    """
    xs = _as_events(xs)
    psi = wave_function_at(wave, xs)
    hpsi = psi @ hamiltonian(wave.pi).T
    return lower(wave.pi)[None, :, None] / (MASS * C**2) * hpsi[:, None, :]


def gradient_fd(wave: SpinorState, xs, h: float = 1e-3) -> np.ndarray:
    """Central-difference i hbar d_mu psi, same shape as the analytic form."""
    xs = _as_events(xs)
    out = np.empty((xs.shape[0], 4, 4), dtype=np.complex128)
    for mu, fwd, back in _shifted(partial(wave_function_at, wave), xs, h):
        out[:, mu, :] = (fwd - back) * (1j * HBAR / (2.0 * h))
    return out


def dirac_residual(wave: SpinorState, xs, h: float | None = None) -> float:
    """Max norm of u_op^mu (i hbar d_mu) psi - m c^2 psi over the events.

    With ``h`` None the gradient is analytic (residual at rounding level
    for on-shell momenta); a float ``h`` uses central differences and the
    residual shrinks as O(h^2).
    """
    xs = _as_events(xs)
    grad = gradient_analytic(wave, xs) if h is None else gradient_fd(wave, xs, h)
    slashed = np.einsum("mij,nmj->ni", U_OP, grad)
    psi = wave_function_at(wave, xs)
    return float(np.abs(slashed - MASS * C**2 * psi).max())


def klein_gordon_residual(wave: SpinorState, xs, h: float | None = None) -> float:
    """Max norm of (d.d + (m c / hbar)^2) psi.

    Analytic when ``h`` is None, else second central differences per axis
    with the metric signs.
    """
    xs = _as_events(xs)
    psi = wave_function_at(wave, xs)
    if h is None:
        box = -(mdot(wave.pi, wave.pi) / HBAR**2) * psi
    else:
        box = np.zeros_like(psi)
        for mu, fwd, back in _shifted(partial(wave_function_at, wave), xs, h):
            second = (fwd - 2.0 * psi + back) / h**2
            box += second if mu == 0 else -second
    return float(np.abs(box + (MASS * C / HBAR) ** 2 * psi).max())


def momentum_extraction(wave: SpinorState, xs) -> np.ndarray:
    """Contravariant momenta psibar (i hbar d^mu) psi / (psibar psi ... ).

    For the model's states psibar H psi = m c^2, so the bilinear
    psibar (i hbar d_mu) psi returns pi_mu exactly; shape (N, 4),
    raised index to compare with ``wave.pi``.
    """
    xs = _as_events(xs)
    psi = wave_function_at(wave, xs)
    bar = psi.conj() @ GAMMA0
    grad = gradient_analytic(wave, xs)
    lowered = np.real(np.einsum("ni,nmi->nm", bar, grad))
    out = lowered.copy()
    out[:, 1:] = -out[:, 1:]
    return out


def current_density(wave: SpinorState, xs) -> np.ndarray:
    """Conserved current j^mu = psibar u_op^mu psi (N, 4); j^0 = c psi*psi > 0."""
    xs = _as_events(xs)
    psi = wave_function_at(wave, xs)
    return velocity_observable(psi)


def continuity_divergence(wave: SpinorState, xs, h: float = 1e-3) -> float:
    """Max |d_mu j^mu| by central differences (zero up to O(h^2))."""
    xs = _as_events(xs)
    div = np.zeros(xs.shape[0])
    for mu, fwd, back in _shifted(partial(current_density, wave), xs, h):
        # d_mu j^mu contracts upper index with plain d/dx^mu
        div += (fwd[:, mu] - back[:, mu]) / (2.0 * h)
    return float(np.abs(div).max())


def velocity_field(wave: SpinorState, xs) -> np.ndarray:
    """Three-velocity field U = c u_vec / u0 of the current; |U| = c."""
    j = current_density(wave, xs)
    return C * j[:, 1:] / j[:, 0:1]


def energy_split_fields(wave: SpinorState, xs) -> tuple[np.ndarray, np.ndarray]:
    """Positive/negative frequency parts psi_pm(x) = exp(-+ i theta) A_pm.

    theta(x) is the phase OMEGA1 tau(x); the parts are eigenfunctions of
    i hbar d_mu with eigenvalues +-pi_mu and they sum to psi.
    """
    xs = _as_events(xs)
    taus = np.atleast_1d(proper_time_of(wave, xs))
    plus, minus = energy_split(wave.phi, wave.pi)
    theta = OMEGA1 * taus[:, None]
    return np.exp(-1j * theta) * plus[None, :], np.exp(+1j * theta) * minus[None, :]


def de_broglie(wave: SpinorState) -> dict[str, float]:
    """Wave kinematics: angular frequency E/(hbar/2), wave vector P/(hbar/2).

    The phase speed is c^2 / V, superluminal for a moving electron, while
    the current's speed is |U| = c.
    """
    energy = C * wave.pi[0]
    pvec = wave.pi[1:]
    omega = energy / (HBAR / 2.0)
    kvec = pvec / (HBAR / 2.0)
    knorm = float(np.linalg.norm(kvec))
    vel = C**2 * float(np.linalg.norm(pvec)) / energy
    return {
        "omega": float(omega),
        "k": [float(v) for v in kvec],
        "wavelength": float("inf") if knorm == 0.0 else 2.0 * math.pi / knorm,
        "phase_speed": float("inf") if vel == 0.0 else C**2 / vel,
        "group_speed": vel,
    }


# ---------------------------------------------------------------------------
# Ensemble density transport.


def _oscillation_coefficients(state0: PositionState) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Spatial drift and zitter coefficients of the free velocity.

    u_vec(tau) = drift + a cos(w0 tau) + b sin(w0 tau) with
    a = u_vec(0) - drift and b = udot_vec(0)/w0 = -w0 z_vec(0).
    """
    drift = state0.pi[1:] / MASS
    a = state0.u[1:] - drift
    b = -OMEGA0 * state0.z[1:]
    return drift, a, b


def ensemble_uniformity(
    state0: PositionState,
    n: int = 100_000,
    periods: float = 10.0,
    seed: int = 0,
    bins: int = 16,
    box: float = 2.0,
    flow: str = "free",
    steps_per_period: int = 50,
) -> dict:
    """Transport a uniform ensemble and chi-squared test the final density.

    Positions start uniform in a periodic box; each electron carries the
    zitter phase of the synchronization tau(x) = (pi.x)/(m c^2) at its
    start point, so phases vary across the box for a moving state.  The
    free flow advances every sample by ``periods`` zitter periods of
    proper time along the exact closed form; for whole periods that map
    is a rigid translation, so uniformity is preserved.  ``flow`` set to
    "corrupted" evaluates the exact solution of the sign-flipped zitter
    velocity (see ``_corrupted_flow``), which distorts the density; its
    cost does not depend on ``periods``.  ``steps_per_period`` is not
    used; it stays for callers that bind it by name (the benchmark's
    tracer).  Returns the inputs with chi2, dof, p_value and the bin
    counts' min, max and SHA-256.  Raises ValueError unless every particle
    ends at a finite position, so a verdict always counts all ``n`` of them.
    """
    if flow not in ("free", "corrupted"):
        raise ValueError("flow must be 'free' or 'corrupted'")
    if n <= 0 or bins <= 0 or box <= 0.0:
        raise ValueError("n, bins, box must be positive")
    drift, osc_a, osc_b = _oscillation_coefficients(state0)
    rng = np.random.default_rng(seed)
    x0 = rng.random((n, 3)) * box
    tau0 = -(x0 @ state0.pi[1:]) / (MASS * C**2)
    span = periods * 2.0 * math.pi / OMEGA0

    if span == 0.0:
        xf = x0
    elif flow == "free":
        def osc_disp(tau):
            # integral of the oscillatory velocity from 0 to tau
            return (
                osc_a[None, :] * np.sin(OMEGA0 * tau)[:, None]
                - osc_b[None, :] * (np.cos(OMEGA0 * tau)[:, None] - 1.0)
            ) / OMEGA0
        xf = x0 + span * drift[None, :] + osc_disp(tau0 + span) - osc_disp(tau0)
    else:
        xf = _corrupted_flow(x0, tau0, drift, osc_a, osc_b, state0.pi[1:], span)

    xf = np.mod(xf, box)
    edges = np.linspace(0.0, box, bins + 1)
    counts, _ = np.histogramdd(xf, bins=(edges, edges, edges))
    counts = counts.astype(np.int64)
    if counts.sum() != n:
        # histogramdd drops NaN positions: no verdict on particles it did not count
        raise ValueError(f"{n - int(counts.sum())} of {n} particles left no finite position")
    expected = n / bins**3
    stat = float(((counts - expected) ** 2 / expected).sum())
    dof = bins**3 - 1
    p = _chi2_sf(dof, stat)
    return {
        "flow": flow,
        "n": n,
        "periods": periods,
        "bins": bins,
        "box": box,
        "seed": seed,
        "chi2": stat,
        "dof": dof,
        "p_value": p,
        "counts_min": int(counts.min()),
        "counts_max": int(counts.max()),
        "counts_sha256": hashlib.sha256(np.ascontiguousarray(counts).tobytes()).hexdigest(),
    }


def _corrupted_flow(
    x0: np.ndarray,
    tau0: np.ndarray,
    drift: np.ndarray,
    osc_a: np.ndarray,
    osc_b: np.ndarray,
    pvec: np.ndarray,
    span: float,
) -> np.ndarray:
    """Flow with the zitter part of the spatial velocity negated, in closed form.

    Keeping the synchronization tau(x) while reversing the oscillatory
    velocity makes the phase advance at rate 1 + pa cos(w0 theta) +
    pb sin(w0 theta) = 1 + R cos(chi), chi = w0 theta - phi, with
    (pa, pb) = 2 P.(a, b) = R (cos phi, sin phi), instead of 1 (that is,
    pi.u != m c^2), so phases bunch and the x-map stops preserving volume.
    This is Adler's equation.  The half angles (p, q) = (sin chi/2,
    cos chi/2) flow linearly, (p, q)' = (alpha q, -delta p) with
    alpha = w0 (1 + R)/2, delta = w0 (1 - R)/2, and conserve
    (1 + R) q^2 + (1 - R) p^2, so 1 + R cos chi = Q / (p^2 + q^2) along
    the flow started on the unit circle.  With A, B the coefficients a, b
    rotated by phi, dx/ds = drift - A cos chi - B sin chi integrates to

        x = x0 + drift s - A (dtheta - s)/R - B ln(p1^2 + q1^2)/(w0 R).

    For R < 1 the flow is a rotation: chi winds, and the angle beta with
    tan(chi/2) = kappa tan(beta/2), kappa^2 = (1 + R)/(1 - R), advances
    uniformly at w0 sqrt(1 - R^2) (the eccentric anomaly of a Kepler
    orbit of eccentricity R).  chi/2 - beta/2 = arg(1 + k e^(i chi)),
    k = R/(1 + sqrt(1 - R^2)), is bounded, so it unwraps dtheta, and
    p1^2 + q1^2 = (1 + R cos chi0)/(1 + R cos chi1) = (1 - R cos beta1)
    /(1 - R cos beta0).  Both terms are formed as O(R) quantities over R
    (no cancellation for small R, the limit at R = 0) and from the
    sums of non-negative parts (1 - k) + 2k sin^2 and (1 - R) + 2R sin^2
    (no cancellation near the slow point as R -> 1).  For R >= 1 the
    flow is hyperbolic (a shear at R = 1) and chi locks to a fixed point
    without crossing one, so the angle between (p0, q0) and (p1, q1) is
    below pi; (p1, q1) is scaled by exp(-lambda s), lambda = w0
    sqrt(R^2 - 1)/2, so that no cosh overflows on long spans.
    """
    pa = 2.0 * float(pvec @ osc_a)
    pb = 2.0 * float(pvec @ osc_b)
    r = math.hypot(pa, pb)
    phi = math.atan2(pb, pa)
    big_a = osc_a * math.cos(phi) + osc_b * math.sin(phi)
    big_b = osc_b * math.cos(phi) - osc_a * math.sin(phi)
    chi0 = OMEGA0 * tau0 - phi
    if r < 1.0:
        root = math.sqrt((1.0 - r) * (1.0 + r))
        k = r / (1.0 + root)
        one_k = (root + (1.0 - r)) / (1.0 + root)  # 1 - k without cancellation

        def lag_over_k(sin_angle, sq):
            # the lag chi/2 - beta/2 over k: atan(k y)/k, y = sin / ((1 - k) + 2k sq)
            y = sin_angle / (one_k + 2.0 * k * sq)
            return y * _ratio(np.arctan, k * y)

        lag0 = lag_over_k(np.sin(chi0), np.cos(0.5 * chi0) ** 2)
        beta0 = chi0 - 2.0 * k * lag0
        beta1 = beta0 + OMEGA0 * root * span
        lag1 = lag_over_k(np.sin(beta1), np.sin(0.5 * beta1) ** 2)
        # 1 - R cos beta = (1 - R)(1 + R w), w = 2 sin^2(beta/2)/(1 - R)
        w0 = 2.0 * np.sin(0.5 * beta0) ** 2 / (1.0 - r)
        w1 = 2.0 * np.sin(0.5 * beta1) ** 2 / (1.0 - r)
        int_cos = 2.0 * (lag1 - lag0) / (OMEGA0 * (1.0 + root)) - k * span
        int_sin = (w1 * _ratio(np.log1p, r * w1) - w0 * _ratio(np.log1p, r * w0)) / OMEGA0
    else:
        # e^(-lambda s) (p1, q1) = ((1 + E) (p0, q0) + G ((1 + R) q0, (R - 1) p0)) / 2,
        # E = e^(-2 lambda s) and G = w0 s (1 - E)/(2 lambda s) (w0 s at R = 1);
        # cross and dot (doubled) with (p0, q0) give the angle and the norm
        two_ls = OMEGA0 * math.sqrt((r - 1.0) * (r + 1.0)) * span
        g = OMEGA0 * span * (-math.expm1(-two_ls) / two_ls if two_ls > 0.0 else 1.0)
        cross = g * (1.0 + r * np.cos(chi0))
        dot = (1.0 + math.exp(-two_ls)) + r * g * np.sin(chi0)
        int_cos = (2.0 * np.arctan2(cross, dot) / OMEGA0 - span) / r
        int_sin = (two_ls + 2.0 * np.log(0.5 * np.hypot(cross, dot))) / (OMEGA0 * r)
    return x0 + span * drift - np.outer(int_cos, big_a) - np.outer(int_sin, big_b)


def _ratio(f, u: np.ndarray) -> np.ndarray:
    """f(u)/u for f = np.arctan or np.log1p, with its limit 1 at u = 0."""
    return np.divide(f(u), u, out=np.ones_like(u), where=u != 0.0)


def _chi2_sf(dof: int, x: float) -> float:
    """Chi-squared survival function, Q(a, z) = Gamma(a, z)/Gamma(a) at
    a = dof/2, z = x/2 (Numerical Recipes, section 6.2).

    Below z = a + 1 the series for P = 1 - Q, above it the continued
    fraction for Q by the modified Lentz method; each runs until its next
    factor changes the sum by under eps, in O(sqrt(a)) steps.  Both
    multiply by exp(a ln z - z - lgamma(a)), whose argument rounds to
    within (|z| + |a ln z| + lgamma(a)) eps.  The relative error model is
    that plus 16 eps for the sums and for 1 - P, which Q >= 0.08 below
    z = a + 1 keeps within 12.5 eps.
    """
    a, z = 0.5 * dof, 0.5 * x
    if z <= 0.0:
        return 1.0
    eps = 2.0**-52
    scale = math.exp(a * math.log(z) - z - math.lgamma(a))
    if z < a + 1.0:
        term = total = 1.0 / a
        n = a
        while term > total * eps:
            n += 1.0
            term *= z / n
            total += term
        return 1.0 - total * scale
    tiny = 1e-300
    b = z + 1.0 - a
    c, d = 1.0 / tiny, 1.0 / b
    h = d
    i = 0
    while True:
        i += 1
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        c = b + an / c
        d = 1.0 / (d if abs(d) > tiny else tiny)
        c = c if abs(c) > tiny else tiny
        delta = d * c
        h *= delta
        if not abs(delta - 1.0) > eps:  # also ends on NaN
            return h * scale
