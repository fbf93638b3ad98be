"""Packed fixed-step RK4 kernels for the three formulations.

These are the hot loops: states are packed into flat arrays and advanced
with classical RK4 at constant proper-time step.  The layouts are

* position:    float64[16]    = x(4) u(4) y(4) pi(4)
* spintensor:  float64[18]    = x(4) u(4) pi(4) d(3) s(3)
* spinor:      float64[16]    = x(4) pi(4) re1 im1 ... re4 im4   (phi_n = re_n + i im_n)

Field models are encoded as (code, params): 0 = free, 1 = uniform with
params (e0, b0), 2 = point charge with params (Z, center).  Recording
happens every ``record_every`` steps into a caller-allocated array; the
return value is -1 on success or the record index at which a non-finite
state was detected.

The array kernels, one RK4 driver (``_array_rk4``) closing over each rhs,
are compiled with numba at import time when numba is installed.  Without
it ``INTEGRATORS`` holds the pure-Python drivers: straight-line RK4 loops
on Python scalars that ``_fused_rk4`` generates and compiles on first use,
not at import, one per formulation, zero pattern of the field components
e1..b3 and set of held momenta.  The rhs is inlined into each stage with
the array kernels' floating-point operations in order, less those that
cannot change a result, so records and divergence indices are
bit-identical to theirs (pinned by the test suite):

* A free or uniform field is read once, before the loop; only the point
  charge's loop evaluates its e, at every stage.  A Lorentz term whose
  field component is exactly zero is left out: a +-0 addend changes a sum
  only when the rest of it is zero, so a force row whose kept terms give
  exactly zero falls back to its full form.
* A force row with no term left adds +-0 to its momentum, which changes
  only a zero momentum; so a nonzero one is held fixed, and what reads
  only held momenta (the position form's y increments, the spinor's -p0)
  is computed before the loop.  That needs a finite q (else nothing is
  held); a left-out term or increment is nan otherwise only through a
  non-finite stage u or dt, which makes x non-finite in the same step in
  both loops.  A non-finite field value is not zero.
* The spinor carries each phi_n as the float pair re_n, im_n (CPython 3.11
  specializes float ops, not mixed float-complex ones), and both the array
  rhs and the loops evaluate -i H phi as the same float lines.
* Records leave a loop in blocks of at most ``_BLOCK`` steps and at least
  one record: each record appends its floats to one flat list, and
  ``_store`` writes the block with one numpy call.  ``struct`` packs each
  Python float as its C double, exactly (in half the time of
  ``np.fromiter``).  The first non-finite record is found by the array
  kernels' test, isfinite(v), and no record from it on is written.
  Running past a non-finite state to the end of its block raises nothing:
  float overflow gives inf or nan, the one division is guarded by
  ``if den``, and sqrt sees only rsq >= 0, inf or nan.  Steps after the
  last record set no record and no status, so they are not run.  A
  diverging run thus overshoots by at most one block, and a block's list
  stays under about 0.8 MB.

``perfbench``'s warm-up builds 9 loops (3 formulations; free, uniform b,
point charge) in 19-21 ms (medians of 15 processes).  On one core of a
2-core machine (Python 3.11) criterion 1's 100k free-field steps take
0.25-0.27 s (position) and 0.39-0.44 s (spin tensor), against 4.4-6.4 s
for the array kernels run as plain Python; the spinor's take 0.74-0.89 s
in a slower hour, in which the position's took 0.27-0.41 s.  A record
costs about 0.4-0.5, 0.6-0.9 and 0.3-1.1 us (1.6-1.8, 1.9-2.3 and
2.8-3.2 us when each was checked and written on its own).

The equations of motion also exist at dataclass level in dynamics.deriv_*;
the test suite pins agreement between the two implementations.
"""

from __future__ import annotations

import functools
import linecache
import math
import re
import struct

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
    p0, p1, p2, p3 = s[4], s[5], s[6], s[7]
    re1, im1, re2, im2 = s[8], s[9], s[10], s[11]
    re3, im3, re4, im4 = s[12], s[13], s[14], s[15]
    # u = phibar gamma phi, with conj(phi_m) phi_n on the float parts
    u0 = (
        re1 * re1 + im1 * im1
        + re2 * re2 + im2 * im2
        + re3 * re3 + im3 * im3
        + re4 * re4 + im4 * im4
    )
    u1 = 2.0 * ((re1 * re4 + im1 * im4) + (re2 * re3 + im2 * im3))
    u2 = 2.0 * (re1 * im4 - im1 * re4) - 2.0 * (re2 * im3 - im2 * re3)
    u3 = 2.0 * ((re1 * re3 + im1 * im3) - (re2 * re4 + im2 * im4))
    e1, e2, e3, b1, b2, b3 = _field_eb(fcode, fp, s[1], s[2], s[3])
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
    neg_p0 = -p0
    out[8] = p0 * im1 - p1 * im4 + p2 * re4 - p3 * im3
    out[9] = neg_p0 * re1 + p1 * re4 + p2 * im4 + p3 * re3
    out[10] = p0 * im2 - p1 * im3 - p2 * re3 + p3 * im4
    out[11] = neg_p0 * re2 + p1 * re3 - p2 * im3 - p3 * re4
    out[12] = neg_p0 * im3 + p1 * im2 - p2 * re2 + p3 * im1
    out[13] = p0 * re3 - p1 * re2 - p2 * im2 - p3 * re1
    out[14] = neg_p0 * im4 + p1 * im1 + p2 * re1 - p3 * im2
    out[15] = p0 * re4 - p1 * re1 + p2 * im1 + p3 * re2


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
                    if not np.isfinite(s[i]):
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


# The pure-Python path: each formulation's rhs written once as source over
# its named state components, in the array rhs' operand order, assigning the
# derivative of component n to k_n; LORENTZ stands for the force rows.

# _field_eb's point-charge branch, evaluated at x before the force rows
_COULOMB = """r1 = x1 - cx1
r2 = x2 - cx2
r3 = x3 - cx3
rsq = r1 * r1 + r2 * r2 + r3 * r3
if rsq == 0.0:
    e1 = e2 = e3 = nan
else:
    den = rsq * sqrt(rsq)
    scale = charge / den if den else charge * inf
    e1 = scale * r1
    e2 = scale * r2
    e3 = scale * r3"""

# _force's rows, one per momentum, and the field components each row reads
_FORCE = {"p0": "e1 * u1 + e2 * u2 + e3 * u3", "p1": "u0 * e1 + u2 * b3 - u3 * b2",
          "p2": "u0 * e2 + u3 * b1 - u1 * b3", "p3": "u0 * e3 + u1 * b2 - u2 * b1"}
_FACTORS = {p: set(re.findall(r"[eb]\d", row)) for p, row in _FORCE.items()}
_EB = ("e1", "e2", "e3", "b1", "b2", "b3")


def _lorentz(coulomb, zero, held):
    """The force rows without the terms whose field component is in ``zero``.
    A row whose kept terms give exactly zero falls back to its full form, so
    the sign of zero is kept; a held momentum has no row."""
    rows = [_COULOMB] if coulomb else []
    for p, full in _FORCE.items():
        terms = re.findall(r"[+-]? ?\w+ \* \w+", full)
        kept = " ".join(t for t in terms if re.search(r"[eb]\d", t)[0] not in zero)
        if kept and kept != full:
            rows.append(f"k_{p} = q * ({kept.removeprefix('+ ')} or {full})")
        elif p not in held:
            rows.append(f"k_{p} = q * ({full})")
    return "\n".join(rows)


_POSITION_RHS = f"""LORENTZ
k_x0 = u0
k_x1 = u1
k_x2 = u2
k_x3 = u3
k_u0 = {-_W0SQ!r} * (x0 - y0)
k_u1 = {-_W0SQ!r} * (x1 - y1)
k_u2 = {-_W0SQ!r} * (x2 - y2)
k_u3 = {-_W0SQ!r} * (x3 - y3)
k_y0 = p0
k_y1 = p1
k_y2 = p2
k_y3 = p3
"""

_SPINTENSOR_RHS = """LORENTZ
k_x0 = u0
k_x1 = u1
k_x2 = u2
k_x3 = u3
k_u0 = -4.0 * (d1 * p1 + d2 * p2 + d3 * p3)
k_u1 = -4.0 * (d1 * p0 + s2 * p3 - s3 * p2)
k_u2 = -4.0 * (d2 * p0 + s3 * p1 - s1 * p3)
k_u3 = -4.0 * (d3 * p0 + s1 * p2 - s2 * p1)
k_d1 = p0 * u1 - p1 * u0
k_d2 = p0 * u2 - p2 * u0
k_d3 = p0 * u3 - p3 * u0
k_s1 = u2 * p3 - u3 * p2
k_s2 = u3 * p1 - u1 * p3
k_s3 = u1 * p2 - u2 * p1
"""

# rhs_spinor's lines: u and dphi/dtau = -i H phi on the float parts re_n,
# im_n of phi_n.  They are the real and imaginary rows of
# spinor.state_derivative's complex products: conj(phi_m) * phi_n is
# (re_m*re_n + im_m*im_n, re_m*im_n - im_m*re_n), and -i * h is
# (h.imag, -h.real).
_SPINOR_U = """k_x0 = u0 = (
    re1 * re1 + im1 * im1
    + re2 * re2 + im2 * im2
    + re3 * re3 + im3 * im3
    + re4 * re4 + im4 * im4
)
k_x1 = u1 = 2.0 * ((re1 * re4 + im1 * im4) + (re2 * re3 + im2 * im3))
k_x2 = u2 = 2.0 * (re1 * im4 - im1 * re4) - 2.0 * (re2 * im3 - im2 * re3)
k_x3 = u3 = 2.0 * ((re1 * re3 + im1 * im3) - (re2 * re4 + im2 * im4))
LORENTZ
"""
_SPINOR_RHS = _SPINOR_U + """neg_p0 = -p0
k_re1 = p0 * im1 - p1 * im4 + p2 * re4 - p3 * im3
k_im1 = neg_p0 * re1 + p1 * re4 + p2 * im4 + p3 * re3
k_re2 = p0 * im2 - p1 * im3 - p2 * re3 + p3 * im4
k_im2 = neg_p0 * re2 + p1 * re3 - p2 * im3 - p3 * re4
k_re3 = neg_p0 * im3 + p1 * im2 - p2 * re2 + p3 * im1
k_im3 = p0 * re3 - p1 * re2 - p2 * im2 - p3 * re1
k_re4 = neg_p0 * im4 + p1 * im1 + p2 * re1 - p3 * im2
k_im4 = p0 * re4 - p1 * re1 + p2 * im1 + p3 * re2
"""

# per formulation: its state components in packed order, and its rhs
_LOOPS = {
    "position": ("x0 x1 x2 x3 u0 u1 u2 u3 y0 y1 y2 y3 p0 p1 p2 p3", _POSITION_RHS),
    "spintensor": ("x0 x1 x2 x3 u0 u1 u2 u3 p0 p1 p2 p3 d1 d2 d3 s1 s2 s3", _SPINTENSOR_RHS),
    "spinor": ("x0 x1 x2 x3 p0 p1 p2 p3 re1 im1 re2 im2 re3 im3 re4 im4", _SPINOR_RHS),
}


# the most steps a loop runs between two writes of its records
_BLOCK = 1024


def _store(out, base, rows):
    """Write the records whose parts ``rows`` lists flat into ``out`` from
    row ``base`` on, up to the first one that fails the array kernels' test
    isfinite(v); return that one's index in the block, or -1."""
    block = np.frombuffer(struct.pack(f"{len(rows)}d", *rows)).reshape(-1, out.shape[1])
    finite = np.isfinite(block).all(axis=1)
    if finite.all():
        out[base:base + len(block)] = block
        return -1
    bad = int(finite.argmin())
    out[base:base + bad] = block[:bad]
    return bad


@functools.cache
def _fused_rk4(formulation, coulomb, zero, held):
    """Compile the pure-Python RK4 driver of ``formulation`` for one field
    kind, with the array kernels' signature and return value: one loop with
    the state, the stage states t_<n> and k1..k4 as locals, and the rhs
    inlined per stage without the Lorentz terms of the field components in
    ``zero``.  The momenta in ``held`` stay fixed; rhs lines that read only
    them run once before the loop, and a derivative k_n they fix becomes
    the increments <step>_k_n.  The rhs must not assign to a component's
    name, nor hold a brace."""
    packed, rhs_template = _LOOPS[formulation]
    names, body, hoisted = packed.split(), [], []
    rhs = rhs_template.replace("LORENTZ", _lorentz(coulomb, zero, held))
    for line in filter(None, rhs.split("\n")):
        reads = set(re.findall(r"\b[a-z_]\w*", line.partition(" = ")[2]))
        (hoisted if reads and reads <= set(held) else body).append(line)
    body = "\n".join(body)
    words = set(re.findall(r"\w+", body))
    used = [n for n in names if n in words and n not in held]
    const = [line[2:line.index(" ")] for line in hoisted if line.startswith("k_")]
    # stage j reads k<j>_n, and from stage 2 on t_n for each component n
    stage = re.sub(rf"\b(?=({'|'.join(used)})\b)", "{t}", re.sub(r"\bk_", "k{j}_", body))
    lines = []
    for j, step in enumerate(("half", "half", "dt", None), 1):
        lines.append(stage.format(j=j, t="t_" if j > 1 else ""))
        if step:  # the state the next stage evaluates
            lines += [f"t_{n} = {n} + {step}_k_{n}" if n in const else
                      f"t_{n} = {n} + {step} * k{j}_{n}" for n in used]
    lines += [f"{n} = {n} + sixth_k_{n}" if n in const else
              f"{n} = {n} + sixth * (k1_{n} + 2.0 * k2_{n} + 2.0 * k3_{n} + k4_{n})"
              for n in names if n not in held]
    hoisted += [f"{step}_k_{n} = {step} * k_{n}" for n in const for step in ("half", "dt")]
    hoisted += [f"sixth_k_{n} = sixth * (k_{n} + 2.0 * k_{n} + 2.0 * k_{n} + k_{n})"
                for n in const]
    loop = "\n".join(lines).replace("\n", "\n                ")
    pre = "".join(f"{line}\n    " for line in hoisted)
    state = ", ".join(names)
    charge = ("charge, cx1, cx2, cx3 = fp[:4]\n    sqrt, nan, inf = math.sqrt, math.nan, "
              "math.inf\n    ") if coulomb else ""
    src = f"""def integrate(state, fcode, fp, q, dt, n_steps, record_every, out):
    s = state.tolist()
    fp = fp.tolist()
    out[0] = s
    {state} = s
    e1, e2, e3, b1, b2, b3 = _FIELD_EB(fcode, fp, x1, x2, x3)
    {charge}half = 0.5 * dt
    sixth = dt / 6.0
    {pre}n_rec = n_steps // record_every
    per_block = max(1, _BLOCK // record_every)
    for base in range(1, n_rec + 1, per_block):
        rows = []
        for _ in range(min(per_block, n_rec + 1 - base)):
            for _ in range(record_every):
                {loop}
            rows += ({state})
        bad = _store(out, base, rows)
        if bad >= 0:
            return base + bad
    return -1
"""
    field = "coulomb" if coulomb else "zero=" + ",".join(zero)
    filename = f"<zsim.kernels:{formulation} {field} held={','.join(held)}>"
    linecache.cache[filename] = (len(src), None, src.splitlines(True), filename)
    scope = {}
    exec(compile(src, filename, "exec"), globals(), scope)
    return scope["integrate"]


_FIELD_EB = getattr(_field_eb, "py_func", _field_eb)


def _float_integrator(formulation):
    names = _LOOPS[formulation][0].split()

    def integrate(state, fcode, fp, q, dt, n_steps, record_every, out):
        # the point charge's e varies along the path; its b is zero
        coulomb = fcode == FIELD_COULOMB
        eb = (1.0,) * 3 + (0.0,) * 3 if coulomb else _FIELD_EB(fcode, fp, 0.0, 0.0, 0.0)
        zero = tuple(n for n, v in zip(_EB, eb) if v == 0.0)
        start = dict(zip(names, state.tolist()))
        held = tuple(p for p in _FORCE if _FACTORS[p] <= set(zero) and start[p] != 0.0
                     and math.isfinite(q))
        loop = _fused_rk4(formulation, coulomb, zero, held)
        return loop(state, fcode, fp, q, dt, n_steps, record_every, out)

    return integrate


FLOAT_INTEGRATORS = {formulation: _float_integrator(formulation)
                     for formulation in ("position", "spintensor", "spinor")}

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

STATE_DTYPE = {
    "position": np.float64,
    "spintensor": np.float64,
    "spinor": np.float64,
}
