"""Spin tensor construction, identities, dipole energies, angular momentum.

The spin tensor of the moving electron is S = -m (z ^ u) built from the
local spin-motion vector z and the total velocity u.  Its six independent
components split into two three-vectors,

    s = z x (m xdot)            (rows/columns 1..3)
    d = m (u0 z - z0 u)         (row 0),

stored in the layout of ``minkowski.antisymmetric_tensor``:
S[0][i] = d_i, S[2][1] = s_3, S[1][3] = s_2, S[3][2] = s_1.  All
identities here are exact consequences of the constraints; the suites
report scaled max-norm residuals so corrupted states are detectable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .constants import C, H_STAR, HBAR, MASS, OMEGA0
from .emfield import FieldModel, field_tensor, force_at
from .minkowski import METRIC, Vec4, antisymmetric_parts, lower, mdot, wedge

if TYPE_CHECKING:  # states imports this module at run time
    from .states import PositionState


def build_spin_tensor(z: Vec4, u: Vec4) -> np.ndarray:
    """S^{mu nu} = -m (z^mu u^nu - z^nu u^mu)."""
    return -MASS * wedge(z, u)


def z_from_spin(spin: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """z = -S pi / (m c)^2 for a spin tensor (..., 4, 4) and momentum (..., 4)."""
    return -(spin @ lower(pi)[..., None])[..., 0] / (MASS * C) ** 2


def accel_spin_tensor(u: Vec4, udot: Vec4) -> np.ndarray:
    """Equivalent acceleration form S = (m / w0^2) (udot ^ u)."""
    return (MASS / OMEGA0**2) * wedge(udot, u)


def spin_vectors_direct(z: Vec4, u: Vec4) -> tuple[np.ndarray, np.ndarray]:
    """(d, s) computed directly from z and u, bypassing the matrix.

    Accepts single four-vectors or stacks of shape (N, 4).
    """
    z = np.asarray(z)
    u = np.asarray(u)
    d = MASS * (u[..., 0:1] * z[..., 1:] - z[..., 0:1] * u[..., 1:])
    s = MASS * np.cross(z[..., 1:], u[..., 1:])
    return d, s


def scalar_invariant(spin: np.ndarray) -> float:
    """Full contraction S^{mu nu} S_{mu nu} (zero for valid states)."""
    spin_low = METRIC @ spin @ METRIC
    return float(np.sum(spin * spin_low))


def _scaled(lhs: np.ndarray, rhs: np.ndarray) -> list[float]:
    """Per row, max|lhs - rhs| / max(1, max|lhs|, max|rhs|) over the last axis."""
    scale = np.maximum(1.0, np.maximum(np.abs(lhs).max(-1), np.abs(rhs).max(-1)))
    return (np.abs(lhs - rhs).max(-1) / scale).tolist()


def triad_residuals(spin: np.ndarray, u: Vec4) -> dict[str, float]:
    """Orthonormality and handedness of the co-moving triad.

    The rows (2 d / (hbar tdot), xdot / (c tdot), 2 s / (hbar tdot)) form a
    right-handed orthonormal set, equivalently d = (xdot x s) / (c tdot),
    s = (d x xdot) / (c tdot) and xdot = (4 c^2 / hbar^2)(s x d) / (c tdot).
    """
    d, s = antisymmetric_parts(spin)
    u = np.asarray(u)
    tdot = u[0] / C
    xdot = u[1:]
    rows = np.vstack(
        [
            2.0 * d / (HBAR * tdot),
            xdot / (C * tdot),
            2.0 * s / (HBAR * tdot),
        ]
    )
    res_ortho = float(np.abs(rows @ rows.T - np.eye(3)).max())
    res_det = abs(float(np.linalg.det(rows)) - 1.0)
    # d = xdot x s, s = d x xdot and xdot = (4 c^2 / hbar^2) s x d, each / (c tdot)
    cyclic = _scaled(
        np.array([d, s, xdot]),
        np.array([[1.0], [1.0], [4.0 * C**2 / HBAR**2]])
        * np.cross(np.array([xdot, d, s]), np.array([s, xdot, d]))
        / (C * tdot),
    )
    return {
        "triad_orthonormal": res_ortho,
        "triad_handedness": res_det,
        **dict(zip(("cyclic_d", "cyclic_s", "cyclic_u"), cyclic)),
    }


def identity_suite(state: PositionState) -> dict[str, float]:
    """Scaled residuals of the five contraction identities plus invariants.

    For a state satisfying the constraints every entry is zero:

    * ``s_u``:      S u = 0 (holds iff u.u = 0)
    * ``s_udot``:   S udot = m c^2 u with udot = -w0^2 z
    * ``s_pi``:     S pi = -(m c)^2 z
    * ``s_z``:      S z = -(hbar / (2 w0)) u
    * ``s_zdot``:   S zdot = m c^2 z with zdot = u - pi / m
    * ``scalar``:   S^{mu nu} S_{mu nu} = 0 and its 2(s.s - d.d) form
    * ``magnitude``: |s| = |d| = (hbar / 2) tdot
    * triad entries from ``triad_residuals``
    """
    z = state.z
    u = state.u
    pi = state.pi
    spin = state.spin
    udot = -(OMEGA0**2) * z
    zdot = u - pi / MASS

    # row k is S v_k for v = (u, udot, pi, z, zdot), against its right-hand side
    contractions = _scaled(
        lower(np.array([u, udot, pi, z, zdot])) @ spin.T,
        np.array([np.zeros(4), MASS * C**2 * u, -((MASS * C) ** 2) * z,
                  -(HBAR / (2.0 * OMEGA0)) * u, MASS * C**2 * z]),
    )
    out = dict(zip(("s_u", "s_udot", "s_pi", "s_z", "s_zdot"), contractions))
    d, s = antisymmetric_parts(spin)
    invariant = scalar_invariant(spin)
    tdot = u[0] / C
    # one-entry rows: each scalar is scaled by itself and its own right-hand side
    scalars = _scaled(
        np.array([invariant, invariant, np.linalg.norm(s), np.linalg.norm(d)])[:, None],
        np.array([0.0, 2.0 * (np.dot(s, s) - np.dot(d, d)), H_STAR * tdot, H_STAR * tdot])[:, None],
    )
    out.update(zip(("scalar", "scalar_vector_form", "magnitude_s", "magnitude_d"), scalars))
    out.update(triad_residuals(spin, u))
    return out


@dataclass(frozen=True)
class DipoleReport:
    """Field interaction energy split into dipole pieces.

    ``phi`` is the total interaction energy; the three ``phi_via_*``
    entries are independent computation routes that must agree.
    """

    phi: float
    u_magnetic: float
    u_electric: float
    magnetic_moment: np.ndarray
    electric_moment: np.ndarray
    gamma_implied: float
    phi_via_force: float
    phi_via_tensor: float
    phi_via_vectors: float


def interaction_energy(
    state: PositionState, model: FieldModel, q: float
) -> DipoleReport:
    """Interaction energy Phi = f.z and its dipole decomposition.

    Routes: (a) the defining contraction f.z with the Lorentz force,
    (b) the tensor contraction -(q / 2m) F^{mu nu} S_{mu nu}, and
    (c) the dipole form -(q / m)(B.s + E.d / c) = U_m + U_e with moments
    mu = (q / m) s and eps = (q / (m c)) d.
    """
    e_vec, b_vec = model.eb_at(state.x)
    f = force_at(model, q, state.x, state.u)
    spin = state.spin
    d, s = antisymmetric_parts(spin)

    phi_force = float(mdot(f, state.z))
    f_tensor = field_tensor(e_vec, b_vec)
    spin_low = METRIC @ spin @ METRIC
    phi_tensor = float(-(q / (2.0 * MASS)) * np.sum(f_tensor * spin_low))
    u_m = float(-(q / MASS) * np.dot(b_vec, s))
    u_e = float(-(q / (MASS * C)) * np.dot(e_vec, d))

    energy = C * state.pi[0]
    vel = C**2 * state.pi[1:] / energy
    v2 = float(np.dot(vel, vel))
    gamma_implied = float(np.sqrt((1.0 + (u_m + u_e) / (MASS * C**2)) / (1.0 - v2 / C**2)))

    return DipoleReport(
        phi=phi_force,
        u_magnetic=u_m,
        u_electric=u_e,
        magnetic_moment=(q / MASS) * s,
        electric_moment=(q / (MASS * C)) * d,
        gamma_implied=gamma_implied,
        phi_via_force=phi_force,
        phi_via_tensor=phi_tensor,
        phi_via_vectors=u_m + u_e,
    )


def energy_diagnostics(
    state: PositionState, model: FieldModel, q: float
) -> dict[str, float]:
    """Energy-equation residual and low-speed expansion terms.

    * ``energy_residual``: (1/m) pi.pi - m c^2 - Phi, identically zero on
      exact states.
    * ``kinetic_error``: E - (m c^2 + m V^2 / 2 + Phi / 2), the error of the
      low-speed expansion (meaningful for |V| << c).
    * ``u_electric_dominant``: leading moving-dipole term
      -(q / (m^2 c^2)) (E x P).s / tdot, and ``u_electric_remainder`` the
      rest of U_e.
    """
    report = interaction_energy(state, model, q)
    phi = report.phi
    pi = state.pi
    residual = float(mdot(pi, pi)) / MASS - MASS * C**2 - phi

    energy = C * pi[0]
    vel = C**2 * pi[1:] / energy
    v2 = float(np.dot(vel, vel))
    kinetic_error = energy - (MASS * C**2 + 0.5 * MASS * v2 + 0.5 * phi)

    e_vec, _ = model.eb_at(state.x)
    _, s = antisymmetric_parts(state.spin)
    tdot = state.u[0] / C
    dominant = float(
        -(q / (MASS**2 * C**2)) * np.dot(np.cross(e_vec, pi[1:]), s) / tdot
    )
    return {
        "energy_residual": residual,
        "kinetic_error": float(kinetic_error),
        "u_electric_dominant": dominant,
        "u_electric_remainder": report.u_electric - dominant,
        "gamma_implied": report.gamma_implied,
        "gamma_momentum": float(pi[0] / (MASS * C)),
    }


@dataclass(frozen=True)
class AngularMomentum:
    orbital: np.ndarray
    spin: np.ndarray
    total: np.ndarray
    total_vector: np.ndarray


def angular_momentum(state: PositionState) -> AngularMomentum:
    """Orbital x ^ pi, spin, and conserved total J = L + S.

    The three-vector form is J = x cross P - s.
    """
    orbital = wedge(state.x, state.pi)
    spin = state.spin
    _, s = antisymmetric_parts(spin)
    total = orbital + spin
    j_vec = np.cross(state.x[1:], state.pi[1:]) - s
    return AngularMomentum(orbital=orbital, spin=spin, total=total, total_vector=j_vec)

