"""Packed fixed-step RK4 kernels for the three formulations.

These are the hot loops: states are packed into flat arrays and advanced
with classical RK4 at constant proper-time step.  The layouts are

* position:    float64[16]    = x(4) u(4) y(4) pi(4)
* spintensor:  float64[18]    = x(4) u(4) pi(4) d(3) s(3)
* spinor:      complex128[12] = x(4) pi(4) phi(4)   (x, pi stay real)

Field models are encoded as (code, params): 0 = free, 1 = uniform with
params (e0, b0), 2 = point charge with params (Z, center).  Recording
happens every ``record_every`` steps into a caller-allocated array; the
return value is -1 on success or the record index at which a non-finite
state was detected.

The array kernels are compiled with numba at import time when numba is
installed.  Without it ``INTEGRATORS`` holds a separate pure-Python driver
instead: one RK4 loop on Python floats (complex for the spinor) with scalar
rhs functions that keep every floating-point operation of the array kernels
in the same order, so its records and divergence indices are bit-identical
to theirs (pinned by the test suite).  On one core of a 2-core machine
(Python 3.11) it runs 100k steps in about 1.4-2.1 s (position, spin tensor)
and 3.1-3.8 s (spinor), against 7-11 s for the array kernels run as plain
Python.  Each backend has one RK4 driver that closes over a formulation's
rhs (``_array_rk4``, ``_float_rk4``), and both evaluate the field with
``_field_eb``.

The equations of motion also exist at dataclass level in dynamics.deriv_*;
the test suite pins agreement between the two implementations.
"""

from __future__ import annotations

import math

import numpy as np

FIELD_FREE = 0
FIELD_UNIFORM = 1
FIELD_COULOMB = 2

# omega0^2 in natural units, kept literal so kernels are self-contained.
_W0SQ = 4.0

try:
    from numba import njit as _njit

    JITTED = True
except ImportError:
    JITTED = False


def _jit(fn):
    return _njit(cache=True)(fn) if JITTED else fn


@_jit
def _field_eb(fcode, fp, x1, x2, x3):
    if fcode == 1:
        return fp[0], fp[1], fp[2], fp[3], fp[4], fp[5]
    if fcode == 2:
        r1 = x1 - fp[1]
        r2 = x2 - fp[2]
        r3 = x3 - fp[3]
        rsq = r1 * r1 + r2 * r2 + r3 * r3
        if rsq == 0.0:
            return math.nan, math.nan, math.nan, 0.0, 0.0, 0.0
        den = rsq * math.sqrt(rsq)
        # rsq**1.5 can underflow to +0.0; IEEE gives Z / +0.0 == Z * inf
        scale = fp[0] / den if den else fp[0] * math.inf
        return scale * r1, scale * r2, scale * r3, 0.0, 0.0, 0.0
    return 0.0, 0.0, 0.0, 0.0, 0.0, 0.0


@_jit
def _force(q, e1, e2, e3, b1, b2, b3, u0, u1, u2, u3):
    f0 = q * (e1 * u1 + e2 * u2 + e3 * u3)
    f1 = q * (u0 * e1 + u2 * b3 - u3 * b2)
    f2 = q * (u0 * e2 + u3 * b1 - u1 * b3)
    f3 = q * (u0 * e3 + u1 * b2 - u2 * b1)
    return f0, f1, f2, f3


@_jit
def rhs_position(s, fcode, fp, q, out):
    e1, e2, e3, b1, b2, b3 = _field_eb(fcode, fp, s[1], s[2], s[3])
    f0, f1, f2, f3 = _force(q, e1, e2, e3, b1, b2, b3, s[4], s[5], s[6], s[7])
    for i in range(4):
        out[i] = s[4 + i]
        out[4 + i] = -_W0SQ * (s[i] - s[8 + i])
        out[8 + i] = s[12 + i]
    out[12] = f0
    out[13] = f1
    out[14] = f2
    out[15] = f3


@_jit
def rhs_spintensor(s, fcode, fp, q, out):
    e1, e2, e3, b1, b2, b3 = _field_eb(fcode, fp, s[1], s[2], s[3])
    u0, u1, u2, u3 = s[4], s[5], s[6], s[7]
    p0, p1, p2, p3 = s[8], s[9], s[10], s[11]
    d1, d2, d3 = s[12], s[13], s[14]
    sv1, sv2, sv3 = s[15], s[16], s[17]
    f0, f1, f2, f3 = _force(q, e1, e2, e3, b1, b2, b3, u0, u1, u2, u3)
    out[0] = u0
    out[1] = u1
    out[2] = u2
    out[3] = u3
    # udot = (4 c^2 / hbar^2) S pi, spelled out in (d, s) components
    out[4] = -4.0 * (d1 * p1 + d2 * p2 + d3 * p3)
    out[5] = -4.0 * (d1 * p0 + sv2 * p3 - sv3 * p2)
    out[6] = -4.0 * (d2 * p0 + sv3 * p1 - sv1 * p3)
    out[7] = -4.0 * (d3 * p0 + sv1 * p2 - sv2 * p1)
    out[8] = f0
    out[9] = f1
    out[10] = f2
    out[11] = f3
    # ddot^i = pi^0 u^i - pi^i u^0,  sdot = xdot x P
    out[12] = p0 * u1 - p1 * u0
    out[13] = p0 * u2 - p2 * u0
    out[14] = p0 * u3 - p3 * u0
    out[15] = u2 * p3 - u3 * p2
    out[16] = u3 * p1 - u1 * p3
    out[17] = u1 * p2 - u2 * p1


@_jit
def rhs_spinor(s, fcode, fp, q, out):
    p0 = s[4].real
    p1 = s[5].real
    p2 = s[6].real
    p3 = s[7].real
    ph1, ph2, ph3, ph4 = s[8], s[9], s[10], s[11]
    c1 = np.conj(ph1)
    c2 = np.conj(ph2)
    u0 = (
        ph1.real * ph1.real + ph1.imag * ph1.imag
        + ph2.real * ph2.real + ph2.imag * ph2.imag
        + ph3.real * ph3.real + ph3.imag * ph3.imag
        + ph4.real * ph4.real + ph4.imag * ph4.imag
    )
    u1 = 2.0 * (c1 * ph4 + c2 * ph3).real
    u2 = 2.0 * (c1 * ph4).imag - 2.0 * (c2 * ph3).imag
    u3 = 2.0 * (c1 * ph3 - c2 * ph4).real
    e1, e2, e3, b1, b2, b3 = _field_eb(fcode, fp, s[1].real, s[2].real, s[3].real)
    f0, f1, f2, f3 = _force(q, e1, e2, e3, b1, b2, b3, u0, u1, u2, u3)
    out[0] = u0
    out[1] = u1
    out[2] = u2
    out[3] = u3
    out[4] = f0
    out[5] = f1
    out[6] = f2
    out[7] = f3
    # dphi/dtau = -i H phi, H = pi0 g0 - pi1 g1 - pi2 g2 - pi3 g3
    h1 = p0 * ph1 - p1 * ph4 + 1j * p2 * ph4 - p3 * ph3
    h2 = p0 * ph2 - p1 * ph3 - 1j * p2 * ph3 + p3 * ph4
    h3 = -p0 * ph3 + p1 * ph2 - 1j * p2 * ph2 + p3 * ph1
    h4 = -p0 * ph4 + p1 * ph1 + 1j * p2 * ph1 - p3 * ph2
    out[8] = -1j * h1
    out[9] = -1j * h2
    out[10] = -1j * h3
    out[11] = -1j * h4


def _array_rk4(rhs):
    """The RK4 driver of the array kernels, advancing ``rhs`` in place on a
    packed state; numba freezes ``rhs`` into the compiled driver."""

    @_jit
    def integrate(state, fcode, fp, q, dt, n_steps, record_every, out):
        s = state.copy()
        k1 = np.empty_like(s)
        k2 = np.empty_like(s)
        k3 = np.empty_like(s)
        k4 = np.empty_like(s)
        tmp = np.empty_like(s)
        n = s.shape[0]
        for i in range(n):
            out[0, i] = s[i]
        rec = 1
        half = 0.5 * dt
        sixth = dt / 6.0
        for step in range(1, n_steps + 1):
            rhs(s, fcode, fp, q, k1)
            for i in range(n):
                tmp[i] = s[i] + half * k1[i]
            rhs(tmp, fcode, fp, q, k2)
            for i in range(n):
                tmp[i] = s[i] + half * k2[i]
            rhs(tmp, fcode, fp, q, k3)
            for i in range(n):
                tmp[i] = s[i] + dt * k3[i]
            rhs(tmp, fcode, fp, q, k4)
            for i in range(n):
                s[i] = s[i] + sixth * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i])
            if step % record_every == 0:
                ok = True
                for i in range(n):
                    if not np.isfinite(abs(s[i])):
                        ok = False
                if not ok:
                    return rec
                for i in range(n):
                    out[rec, i] = s[i]
                rec += 1
        return -1

    return integrate


integrate_position = _array_rk4(rhs_position)
integrate_spintensor = _array_rk4(rhs_spintensor)
integrate_spinor = _array_rk4(rhs_spinor)


# The pure-Python path: scalar twins of the array rhs above, on Python floats.
# Each expression keeps its operand order, so results match the array kernels
# bit for bit; where Python raises and numpy returns inf (division by zero in
# _field_eb, abs of a huge complex in _all_finite) the shared code says so.

_force_floats = getattr(_force, "py_func", _force)
_field_eb_floats = getattr(_field_eb, "py_func", _field_eb)


def _rhs_position_floats(s, fcode, fp, q):
    x0, x1, x2, x3, u0, u1, u2, u3, y0, y1, y2, y3, p0, p1, p2, p3 = s
    e1, e2, e3, b1, b2, b3 = _field_eb_floats(fcode, fp, x1, x2, x3)
    f0, f1, f2, f3 = _force_floats(q, e1, e2, e3, b1, b2, b3, u0, u1, u2, u3)
    return (
        u0, u1, u2, u3,
        -_W0SQ * (x0 - y0), -_W0SQ * (x1 - y1), -_W0SQ * (x2 - y2), -_W0SQ * (x3 - y3),
        p0, p1, p2, p3,
        f0, f1, f2, f3,
    )


def _rhs_spintensor_floats(s, fcode, fp, q):
    _, x1, x2, x3, u0, u1, u2, u3, p0, p1, p2, p3, d1, d2, d3, sv1, sv2, sv3 = s
    e1, e2, e3, b1, b2, b3 = _field_eb_floats(fcode, fp, x1, x2, x3)
    f0, f1, f2, f3 = _force_floats(q, e1, e2, e3, b1, b2, b3, u0, u1, u2, u3)
    return (
        u0, u1, u2, u3,
        -4.0 * (d1 * p1 + d2 * p2 + d3 * p3),
        -4.0 * (d1 * p0 + sv2 * p3 - sv3 * p2),
        -4.0 * (d2 * p0 + sv3 * p1 - sv1 * p3),
        -4.0 * (d3 * p0 + sv1 * p2 - sv2 * p1),
        f0, f1, f2, f3,
        p0 * u1 - p1 * u0,
        p0 * u2 - p2 * u0,
        p0 * u3 - p3 * u0,
        u2 * p3 - u3 * p2,
        u3 * p1 - u1 * p3,
        u1 * p2 - u2 * p1,
    )


def _rhs_spinor_floats(s, fcode, fp, q):
    _, x1, x2, x3, p0, p1, p2, p3, ph1, ph2, ph3, ph4 = s
    p0 = p0.real
    p1 = p1.real
    p2 = p2.real
    p3 = p3.real
    c1 = ph1.conjugate()
    c2 = ph2.conjugate()
    c1ph4 = c1 * ph4
    c2ph3 = c2 * ph3
    u0 = (
        ph1.real * ph1.real + ph1.imag * ph1.imag
        + ph2.real * ph2.real + ph2.imag * ph2.imag
        + ph3.real * ph3.real + ph3.imag * ph3.imag
        + ph4.real * ph4.real + ph4.imag * ph4.imag
    )
    u1 = 2.0 * (c1ph4 + c2ph3).real
    u2 = 2.0 * c1ph4.imag - 2.0 * c2ph3.imag
    u3 = 2.0 * (c1 * ph3 - c2 * ph4).real
    e1, e2, e3, b1, b2, b3 = _field_eb_floats(fcode, fp, x1.real, x2.real, x3.real)
    f0, f1, f2, f3 = _force_floats(q, e1, e2, e3, b1, b2, b3, u0, u1, u2, u3)
    ip2 = 1j * p2
    h1 = p0 * ph1 - p1 * ph4 + ip2 * ph4 - p3 * ph3
    h2 = p0 * ph2 - p1 * ph3 - ip2 * ph3 + p3 * ph4
    h3 = -p0 * ph3 + p1 * ph2 - ip2 * ph2 + p3 * ph1
    h4 = -p0 * ph4 + p1 * ph1 + ip2 * ph1 - p3 * ph2
    return u0, u1, u2, u3, f0, f1, f2, f3, -1j * h1, -1j * h2, -1j * h3, -1j * h4


def _all_finite(s):
    # the array kernels test isfinite(abs(v)); abs of a complex with finite
    # parts raises OverflowError where numpy's modulus overflows to inf
    try:
        return all(map(math.isfinite, map(abs, s)))
    except OverflowError:
        return False


def _float_rk4(rhs):
    """The RK4 driver of the pure-Python path, with the array kernels'
    signature and return value, advancing ``rhs`` on Python scalars."""

    def integrate(state, fcode, fp, q, dt, n_steps, record_every, out):
        s = state.tolist()
        fp = fp.tolist()
        out[0] = s
        rec = 1
        half = 0.5 * dt
        sixth = dt / 6.0
        for step in range(1, n_steps + 1):
            k1 = rhs(s, fcode, fp, q)
            k2 = rhs([a + half * k for a, k in zip(s, k1)], fcode, fp, q)
            k3 = rhs([a + half * k for a, k in zip(s, k2)], fcode, fp, q)
            k4 = rhs([a + dt * k for a, k in zip(s, k3)], fcode, fp, q)
            s = [
                a + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
                for a, b1, b2, b3, b4 in zip(s, k1, k2, k3, k4)
            ]
            if step % record_every == 0:
                if not _all_finite(s):
                    return rec
                out[rec] = s
                rec += 1
        return -1

    return integrate


FLOAT_INTEGRATORS = {
    "position": _float_rk4(_rhs_position_floats),
    "spintensor": _float_rk4(_rhs_spintensor_floats),
    "spinor": _float_rk4(_rhs_spinor_floats),
}

INTEGRATORS = {
    "position": integrate_position,
    "spintensor": integrate_spintensor,
    "spinor": integrate_spinor,
} if JITTED else dict(FLOAT_INTEGRATORS)

RHS = {
    "position": rhs_position,
    "spintensor": rhs_spintensor,
    "spinor": rhs_spinor,
}

STATE_WIDTH = {"position": 16, "spintensor": 18, "spinor": 12}
STATE_DTYPE = {
    "position": np.float64,
    "spintensor": np.float64,
    "spinor": np.complex128,
}
