"""Four-spinor state functions and the operator algebra acting on them.

The state of the electron can be carried by a complex four-component
amplitude phi(tau) evolving as i hbar dphi/dtau = H phi with
H = c pi_mu gamma^mu.  Expectation values use the adjoint row
phibar = phi^* gamma^0, never the plain Hermitian inner product:
a matrix Q is a physical observable exactly when gamma^0 Q is Hermitian,
which makes phibar Q phi real.

Gamma matrices are in the standard Dirac basis.  Natural units
(hbar = m = c = 1) throughout; factors are kept in symbolic form in
formulas via the constants module.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray

from .constants import C, HBAR, MASS, OMEGA1, REST_ENERGY
from .minkowski import METRIC, BoostParams, Vec4, lower, mdot

Amplitudes = NDArray[np.complex128]

PAULI = [
    np.array([[0, 1], [1, 0]], dtype=np.complex128),
    np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    np.array([[1, 0], [0, -1]], dtype=np.complex128),
]

_I2 = np.eye(2, dtype=np.complex128)
_Z2 = np.zeros((2, 2), dtype=np.complex128)

GAMMA0 = np.block([[_I2, _Z2], [_Z2, -_I2]])
#: gamma^0..gamma^3 stacked, shape (4, 4, 4).
GAMMA = np.stack([GAMMA0] + [np.block([[_Z2, s], [-s, _Z2]]) for s in PAULI])

#: Velocity operators u^mu = c gamma^mu, shape (4, 4, 4).
U_OP = C * GAMMA

#: Spin-tensor operators S^{mu nu} = -(i hbar / 4) [gamma^mu, gamma^nu],
#: shape (4, 4, 4, 4), indexed [mu][nu].
SPIN_OP = (-1j * HBAR / 4.0) * (GAMMA[:, None] @ GAMMA - GAMMA @ GAMMA[:, None])

#: The six independent pairs mu < nu and their S^{mu nu}, shape (6, 4, 4).
_PAIRS = np.triu_indices(4, 1)
_SPIN_PAIRS = SPIN_OP[_PAIRS]

#: Boost generators alpha^k = gamma^0 gamma^k, shape (3, 4, 4).
_ALPHA = GAMMA0 @ GAMMA[1:]


def hamiltonian(pi: Vec4) -> np.ndarray:
    """Matrix Hamiltonian H = c pi_mu gamma^mu for conjugate momentum pi."""
    pi_low = lower(pi)
    h = np.zeros((4, 4), dtype=np.complex128)
    for mu in range(4):
        h += C * pi_low[mu] * GAMMA[mu]
    return h


def _amps(state) -> Amplitudes:
    return np.asarray(state, dtype=np.complex128)


def adjoint_row(state) -> Amplitudes:
    """Adjoint row phibar = phi^* gamma^0."""
    return _amps(state).conj() @ GAMMA0


def bilinear(state, op: np.ndarray) -> complex:
    """Unchecked sandwich phibar op phi."""
    phi = _amps(state)
    return complex(adjoint_row(phi) @ op @ phi)


def is_observable(op: np.ndarray) -> bool:
    """True when gamma^0 op is Hermitian, so phibar op phi is always real."""
    m = GAMMA0 @ op
    return bool(np.allclose(m, m.conj().T, rtol=0.0, atol=1e-12))


def observable(state, op: np.ndarray) -> float:
    """Real expectation value phibar op phi of an observable operator."""
    if not is_observable(op):
        raise ValueError("operator is not observable: gamma^0 op is not Hermitian")
    val = bilinear(state, op)
    if abs(val.imag) > 1e-10 * max(1.0, abs(val.real)):
        raise ValueError(f"expectation value has imaginary residue {val.imag}")
    return val.real


def velocity_observable(state) -> Vec4:
    """Four-velocity u^mu = phibar c gamma^mu phi.

    Accepts a single amplitude vector or a stack of shape (N, 4) and then
    returns shape (N, 4).
    """
    phi = _amps(state)
    single = phi.ndim == 1
    rows = phi.reshape(-1, 4)
    bar = rows.conj() @ GAMMA0
    # a copy, so the float rows do not hold the complex product alive
    u = np.einsum("ni,mij,nj->nm", bar, U_OP, rows).real.copy()
    return u[0] if single else u


def spin_tensor_observable(state) -> np.ndarray:
    """Spin tensor S^{mu nu} = phibar S-op^{mu nu} phi (antisymmetric, real).

    Accepts a single amplitude vector or a stack of shape (N, 4) and then
    returns shape (N, 4, 4).
    """
    phi = _amps(state)
    bar = adjoint_row(phi)[..., None, None, :]
    col = phi[..., None, :, None]
    val = np.real(bar @ _SPIN_PAIRS @ col)[..., 0, 0]
    s = np.zeros(phi.shape[:-1] + (4, 4))
    s[(..., *_PAIRS)] = val
    s[(..., *_PAIRS[::-1])] = -val
    return s


def normalization(state, pi: Vec4) -> float:
    """Energy normalization phibar H phi; equals m c^2 for physical states."""
    return float(np.real(bilinear(state, hamiltonian(pi))))


def state_derivative(state, pi: Vec4) -> Amplitudes:
    """Proper-time derivative dphi/dtau = -(i / hbar) H phi."""
    return (-1j / HBAR) * (hamiltonian(pi) @ _amps(state))


def _require_on_shell(pi: Vec4) -> None:
    p2 = mdot(pi, pi)
    if abs(p2 - (MASS * C) ** 2) > 1e-8:
        raise ValueError(f"momentum is off shell: pi.pi = {p2}")


def evolve_amplitudes(amps, pi: Vec4, taus) -> Amplitudes:
    """Closed-form evolution phi(tau) for one or many proper times.

    phi(tau) = [cos(w1 tau) I - (i / m c^2) sin(w1 tau) H] phi(0), using
    H^2 = (m c^2)^2 on shell.  Returns shape (4,) for scalar tau, else
    (N, 4).
    """
    a = _amps(amps)
    taus_arr = np.atleast_1d(np.asarray(taus, dtype=np.float64))
    h = hamiltonian(pi)
    ha = h @ a
    phase = OMEGA1 * taus_arr
    out = (
        np.cos(phase)[:, None] * a[None, :]
        - (1j / REST_ENERGY) * np.sin(phase)[:, None] * ha[None, :]
    )
    return out[0] if np.ndim(taus) == 0 else out


def energy_projectors(pi: Vec4) -> tuple[np.ndarray, np.ndarray]:
    """Projectors (P+, P-) onto the +/- m c^2 eigenspaces of H."""
    _require_on_shell(pi)
    h = hamiltonian(pi)
    eye = np.eye(4, dtype=np.complex128)
    return 0.5 * (eye + h / REST_ENERGY), 0.5 * (eye - h / REST_ENERGY)


def energy_split(amps, pi: Vec4) -> tuple[Amplitudes, Amplitudes]:
    """Split amplitudes into positive and negative energy parts."""
    p_plus, p_minus = energy_projectors(pi)
    a = _amps(amps)
    return p_plus @ a, p_minus @ a


def boost_state(amps, params: BoostParams) -> Amplitudes:
    """Boost amplitudes with the standard spinor boost matrix.

    The matrix cosh(eta/2) I + sinh(eta/2) (vhat . gamma^0 gamma) preserves
    the energy normalization and maps every bilinear four-vector with the
    coordinate boost of the same velocity.
    """
    v = params.velocity
    speed = float(np.linalg.norm(v))
    a = _amps(amps)
    if speed == 0.0:
        return a.copy()
    g = params.gamma
    nhat = v / speed
    alpha = (nhat[:, None, None] * _ALPHA).sum(axis=0)
    mat = np.sqrt((1.0 + g) / 2.0) * np.eye(4, dtype=np.complex128)
    # g*speed/sqrt(2(1+g)) = sqrt((g-1)/2) without cancellation at small speeds
    mat += (g * speed / np.sqrt(2.0 * (1.0 + g))) * alpha
    return mat @ a


def operator_identity_suite(pi: Vec4) -> dict[str, float]:
    """Max-norm residuals of the core operator identities at momentum pi.

    Keys: anticommutator, h_squared, velocity_commutator, spin_commutator,
    h_gamma_h.  The momentum must be on shell.
    """
    _require_on_shell(pi)
    h = hamiltonian(pi)
    pi = np.asarray(pi, dtype=np.float64)
    pi_low = lower(pi)
    eye = np.eye(4, dtype=np.complex128)

    gg = GAMMA[:, None] @ GAMMA  # gg[mu, nu] = gamma^mu gamma^nu
    sides = {
        "anticommutator": (gg + gg.swapaxes(0, 1), 2.0 * METRIC[:, :, None, None] * eye),
        "h_squared": (h @ h, C**2 * mdot(pi, pi) * eye),
        "velocity_commutator": (
            (1j / HBAR) * (h @ U_OP - U_OP @ h),
            (4.0 * C**2 / HBAR**2) * np.einsum("mnij,n->mij", SPIN_OP, pi_low),
        ),
        "spin_commutator": (
            (1j / HBAR) * (h @ SPIN_OP - SPIN_OP @ h),
            pi[:, None, None, None] * U_OP - pi[None, :, None, None] * U_OP[:, None],
        ),
        "h_gamma_h": (
            h @ GAMMA @ h,
            -(REST_ENERGY**2) * GAMMA + 2.0 * C * pi[:, None, None] * h,
        ),
    }
    return {key: float(np.abs(lhs - rhs).max()) for key, (lhs, rhs) in sides.items()}
