"""Rest-frame spin states along an arbitrary axis, and spin measurement.

A spin axis n = (sin t cos p, sin t sin p, cos t) defines a rest-frame
state whose spin vector observable is (hbar/2) n.  The amplitudes are
eigenvectors of the observable-form axis operator

    Sigma_n = diag(sigma_n, -sigma_n),   sigma_n = n . sigma_pauli

with eigenvalue +1 (plain expectation, since the time-density phi*phi
is 1 for these states).  Measurement along a device axis m is a
Bernoulli draw with p_up = (1 + n.m) / 2, the Malus law for spin.

The local velocity of the superposition state rotates in a tilted
circle; a measured up/down mixture reproduces its transverse components
exactly but averages the axial component to zero.  That discrepancy is
reported, not corrected.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .constants import C, HBAR, MASS, OMEGA0, OMEGA1
from .minkowski import antisymmetric_parts
from .spinor import (
    PAULI,
    StateFunction,
    evolve_amplitudes,
    spin_tensor_observable,
    tdot_of,
)

PI_REST = np.array([MASS * C, 0.0, 0.0, 0.0])


def axis_vector(theta: float, phi: float = 0.0) -> np.ndarray:
    """Unit 3-vector with polar angle theta and azimuth phi."""
    return np.array(
        [math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta)]
    )


def _sigma(n: np.ndarray) -> np.ndarray:
    return n[0] * PAULI[0] + n[1] * PAULI[1] + n[2] * PAULI[2]


def _observable_of(n: np.ndarray) -> np.ndarray:
    s = _sigma(n)
    out = np.zeros((4, 4), dtype=np.complex128)
    out[:2, :2] = s
    out[2:, 2:] = -s
    return out


def sigma_axis(theta: float, phi: float = 0.0) -> np.ndarray:
    """2x2 axis operator sigma_n, eigenvalues +-1."""
    return _sigma(axis_vector(theta, phi))


def spin_operator_axis(theta: float, phi: float = 0.0) -> np.ndarray:
    """4x4 spin-component operator (hbar/2) diag(sigma_n, sigma_n)."""
    s = sigma_axis(theta, phi)
    out = np.zeros((4, 4), dtype=np.complex128)
    out[:2, :2] = s
    out[2:, 2:] = s
    return (HBAR / 2.0) * out


def sigma_axis_observable(theta: float, phi: float = 0.0) -> np.ndarray:
    """Observable form Sigma_n = diag(sigma_n, -sigma_n).

    Plain expectations of this operator equal the bilinear spin-vector
    components projected on the axis, scaled by 2/hbar.
    """
    return _observable_of(axis_vector(theta, phi))


def spin_amplitudes(theta: float, phi: float = 0.0) -> np.ndarray:
    """Rest-frame amplitudes for the spin state along axis (theta, phi).

    Equal-weight positive and negative energy parts; the time density
    phi*phi is 1 and the spin vector is (hbar/2) n.
    """
    half = theta / 2.0
    em = np.exp(-0.5j * phi) / math.sqrt(2.0)
    ep = np.exp(+0.5j * phi) / math.sqrt(2.0)
    return np.array(
        [em * math.cos(half), ep * math.sin(half), -em * math.sin(half), ep * math.cos(half)],
        dtype=np.complex128,
    )


def spin_state(theta: float, phi: float = 0.0, tau: float = 0.0) -> StateFunction:
    """Rest-frame spin state evolved to proper time tau."""
    amps = spin_amplitudes(theta, phi)
    evolved = evolve_amplitudes(amps, PI_REST, tau)
    return StateFunction(evolved, tau)


def polarization_vector(amps: np.ndarray) -> np.ndarray:
    """Unit polarization 2 s / (hbar tdot) of an amplitude vector."""
    _, s = antisymmetric_parts(spin_tensor_observable(amps))
    return (2.0 / HBAR) * s / tdot_of(amps)


def superposition_amplitude_identity(theta: float, phi: float = 0.0) -> float:
    """Max residual of the two-term split of a tilted spin state.

    The state along (theta, phi) equals cos(theta/2) times the spin-up
    state plus sin(theta/2) times the spin-down state at the same
    azimuth, entrywise.
    """
    combo = math.cos(theta / 2.0) * spin_amplitudes(0.0, phi) + math.sin(
        theta / 2.0
    ) * spin_amplitudes(math.pi, phi)
    return float(np.abs(spin_amplitudes(theta, phi) - combo).max())


# ---------------------------------------------------------------------------
# Closed-form rest-frame velocities.


def velocity_up(taus, phase: float = 0.0) -> np.ndarray:
    """Local velocity of the spin-up state: circle in the 1-2 plane."""
    taus = np.atleast_1d(np.asarray(taus, dtype=np.float64))
    arg = OMEGA0 * taus + phase
    out = np.empty((taus.size, 4))
    out[:, 0] = C
    out[:, 1] = C * np.cos(arg)
    out[:, 2] = C * np.sin(arg)
    out[:, 3] = 0.0
    return out


def velocity_down(taus, phase: float = 0.0) -> np.ndarray:
    """Local velocity of the spin-down state: reversed circulation."""
    taus = np.atleast_1d(np.asarray(taus, dtype=np.float64))
    arg = OMEGA0 * taus - phase
    out = np.empty((taus.size, 4))
    out[:, 0] = C
    out[:, 1] = -C * np.cos(arg)
    out[:, 2] = C * np.sin(arg)
    out[:, 3] = 0.0
    return out


def velocity_superposition(theta: float, phi: float, taus) -> np.ndarray:
    """Local velocity of the tilted state: circle about the (theta, phi) axis."""
    taus = np.atleast_1d(np.asarray(taus, dtype=np.float64))
    cw, sw = np.cos(OMEGA0 * taus), np.sin(OMEGA0 * taus)
    ct, st = math.cos(theta), math.sin(theta)
    cp, sp = math.cos(phi), math.sin(phi)
    out = np.empty((taus.size, 4))
    out[:, 0] = C
    out[:, 1] = C * (ct * cp * cw - sp * sw)
    out[:, 2] = C * (cp * sw + ct * sp * cw)
    out[:, 3] = -C * st * cw
    return out


# ---------------------------------------------------------------------------
# Measurement statistics.


def malus_probability(theta: float) -> float:
    """Up probability for a state tilted by theta from the device axis."""
    return math.cos(theta / 2.0) ** 2


def transition_probability(axis: np.ndarray, device_axis: np.ndarray) -> float:
    """Up probability (1 + n.m)/2 for unit axis n measured along m."""
    n = np.asarray(axis, dtype=np.float64)
    m = np.asarray(device_axis, dtype=np.float64)
    return 0.5 * (1.0 + float(np.dot(n, m)))


def axis_noncommutativity(axis_a: np.ndarray, axis_b: np.ndarray) -> dict[str, float]:
    """Frobenius norm of [Sigma_a, Sigma_b] against its closed form 4 |a x b|.

    Different-axis spin components do not commute, so no joint
    distribution backs consecutive measurements along skew axes.
    """
    a = np.asarray(axis_a, dtype=np.float64)
    b = np.asarray(axis_b, dtype=np.float64)
    obs_a, obs_b = _observable_of(a), _observable_of(b)
    comm = obs_a @ obs_b - obs_b @ obs_a
    measured = float(np.linalg.norm(comm))
    expected = 4.0 * float(np.linalg.norm(np.cross(a, b)))
    return {"measured": measured, "expected": expected}


@dataclass(frozen=True)
class MeasurementReport:
    """Outcome tally of repeated two-channel spin measurements."""

    theta: float
    phi: float
    device_axis: np.ndarray
    count: int
    seed: int
    n_up: int
    n_dn: int
    p_up_theory: float

    @property
    def p_up_hat(self) -> float:
        return self.n_up / self.count

    @property
    def z_score(self) -> float:
        p = self.p_up_theory
        sigma = math.sqrt(self.count * p * (1.0 - p))
        if sigma == 0.0:
            return 0.0
        return (self.n_up - self.count * p) / sigma

    def to_dict(self) -> dict:
        return {**asdict(self), "device_axis": [float(v) for v in self.device_axis],
                "p_up_hat": self.p_up_hat, "z_score": self.z_score}


def sample_measurements(
    theta: float,
    phi: float = 0.0,
    count: int = 100_000,
    seed: int = 0,
    device_axis: np.ndarray | None = None,
) -> MeasurementReport:
    """Bernoulli sampling of up/down outcomes along a device axis.

    Each electron enters the device with an independent uniform zitter
    phase; the phase is drawn (and discarded) to model distinct arrivals
    but the outcome law depends only on the axes.  The generator is the
    seeded numpy default (PCG64), so tallies are reproducible.
    """
    if count <= 0:
        raise ValueError("count must be positive")
    m = np.array([0.0, 0.0, 1.0]) if device_axis is None else np.asarray(device_axis, float)
    m = m / np.linalg.norm(m)
    p = transition_probability(axis_vector(theta, phi), m)
    rng = np.random.default_rng(seed)
    rng.uniform(0.0, 2.0 * math.pi, size=count)  # arrival phases, outcome-independent
    n_up = int(np.count_nonzero(rng.random(count) < p))
    return MeasurementReport(
        theta=theta,
        phi=phi,
        device_axis=m,
        count=count,
        seed=seed,
        n_up=n_up,
        n_dn=count - n_up,
        p_up_theory=p,
    )


@dataclass(frozen=True)
class ReconstructionReport:
    """Mean local velocity of a measured mixture against the pure state.

    The up/down mixture with the theoretical (or sampled) weights
    reproduces the transverse velocity components of the tilted input
    exactly, but its axial component averages to zero while the input
    oscillates with amplitude c sin(theta).  ``axial_gap`` records that
    unrecovered part.
    """

    taus: np.ndarray
    u_input: np.ndarray
    u_mixture: np.ndarray
    max_transverse_error: float
    axial_gap: np.ndarray


def reconstruct_mean_velocity(
    theta: float,
    phi: float = 0.0,
    taus=None,
    p_up: float | None = None,
) -> ReconstructionReport:
    """Mix the closed-form up/down velocities with the given weights.

    ``p_up`` defaults to the exact Malus probability; pass a sampled
    estimate to see finite-count scatter.  The device axis is the polar
    axis.
    """
    if taus is None:
        taus = np.linspace(0.0, 2.0 * math.pi / OMEGA0, 64, endpoint=False)
    taus = np.atleast_1d(np.asarray(taus, dtype=np.float64))
    p = malus_probability(theta) if p_up is None else float(p_up)
    u_in = velocity_superposition(theta, phi, taus)
    u_mix = p * velocity_up(taus, phi) + (1.0 - p) * velocity_down(taus, phi)
    max_t = float(np.abs(u_in[:, 1:3] - u_mix[:, 1:3]).max())
    return ReconstructionReport(
        taus=taus,
        u_input=u_in,
        u_mixture=u_mix,
        max_transverse_error=max_t,
        axial_gap=u_in[:, 3] - u_mix[:, 3],
    )


# ---------------------------------------------------------------------------
# Two-component reduction.


def energy_split_terms(theta: float, phi: float = 0.0) -> dict[str, np.ndarray]:
    """Four-term split over spin (up/down) x energy sign, rest frame."""
    amps = spin_amplitudes(theta, phi)
    basis = {
        "up_plus": np.array([1, 0, 0, 0], dtype=np.complex128),
        "down_plus": np.array([0, 1, 0, 0], dtype=np.complex128),
        "down_minus": np.array([0, 0, 1, 0], dtype=np.complex128),
        "up_minus": np.array([0, 0, 0, 1], dtype=np.complex128),
    }
    return {name: amps[idx] * vec for idx, (name, vec) in enumerate(basis.items())}


def pauli_spinor(state: StateFunction) -> np.ndarray:
    """Two-component reduction of a rest-frame state.

    Rescales by the positive-frequency phase and keeps the upper pair;
    for rest spin states this recovers the time-independent Pauli spinor
    of the axis, up to the fixed normalization 1/sqrt(2).
    """
    factor = np.exp(1j * OMEGA1 * state.tau) * math.sqrt(2.0)
    return factor * state.phi[:2]


def fix_global_phase(v: np.ndarray) -> np.ndarray:
    """Rotate a complex vector so its largest component is real positive."""
    idx = int(np.argmax(np.abs(v)))
    ph = v[idx] / abs(v[idx])
    return v / ph
