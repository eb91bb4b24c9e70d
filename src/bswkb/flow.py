"""Dormand-Prince 5(4) integration of the p0 flow, for the cold paths:
integrate_flow from arbitrary starts, Orbit.state_at and focal-point polish.

The kernels are scalar loops over the monomial arrays of pack_flow.
"""

from __future__ import annotations

import math

import numpy as np

STATUS_OK = 0
STATUS_STEP_UNDERFLOW = 1
STATUS_MAX_STEPS = 3
STATUS_NAMES = {STATUS_OK: "ok", STATUS_STEP_UNDERFLOW: "step size underflow",
                STATUS_MAX_STEPS: "step limit"}

_SAFETY = 0.9
_MIN_FAC = 0.2
_MAX_FAC = 5.0
_MAX_STEPS = 2_000_000


def _poly_eval(coeff, xp, kp, x, xi):
    s = 0.0
    for i in range(coeff.shape[0]):
        s += coeff[i] * x ** xp[i] * xi ** kp[i]
    return s


def _vprime(vkind, A, a, x):
    if vkind == 1:  # morse: V = A(e^{-2ax} - 2 e^{-ax})
        return A * (-2.0 * a * math.exp(-2.0 * a * x) + 2.0 * a * math.exp(-a * x))
    if vkind == 2:  # poschl-teller: V = -A sech^2(ax)
        t = math.tanh(a * x)
        c = 1.0 / math.cosh(a * x)
        return 2.0 * A * a * c * c * t
    return 0.0


def _rhs(cx, xpx, kpx, cxi, xpxi, kpxi, vkind, vA, va, x, xi):
    # xdot = d_xi p0, xidot = -d_x p0 (potential part enters d_x only)
    xdot = _poly_eval(cxi, xpxi, kpxi, x, xi)
    xidot = -(_poly_eval(cx, xpx, kpx, x, xi) + _vprime(vkind, vA, va, x))
    return xdot, xidot


def _advance(cx, xpx, kpx, cxi, xpxi, kpxi, vkind, vA, va,
             x, xi, t0, t1, rtol, atol, h0):
    """Integrate from t0 to exactly t1; returns (x, xi, h_last, status)."""
    t = t0
    span = t1 - t0
    if span == 0.0:
        return x, xi, h0, STATUS_OK
    direction = 1.0 if span > 0.0 else -1.0
    h = abs(h0)
    if h == 0.0 or h > abs(span):
        h = abs(span)
    k1x, k1xi = _rhs(cx, xpx, kpx, cxi, xpxi, kpxi, vkind, vA, va, x, xi)
    nsteps = 0
    while direction * (t1 - t) > 0.0:
        if nsteps > _MAX_STEPS:
            return x, xi, h, STATUS_MAX_STEPS
        remaining = direction * (t1 - t)
        clipped = h >= remaining
        if clipped:
            h = remaining
        elif h < 1e-14 * max(1.0, abs(t)):
            return x, xi, h, STATUS_STEP_UNDERFLOW
        dt = direction * h

        k2x, k2xi = _rhs(cx, xpx, kpx, cxi, xpxi, kpxi, vkind, vA, va,
                         x + dt * 0.2 * k1x, xi + dt * 0.2 * k1xi)
        k3x, k3xi = _rhs(cx, xpx, kpx, cxi, xpxi, kpxi, vkind, vA, va,
                         x + dt * (3.0 / 40.0 * k1x + 9.0 / 40.0 * k2x),
                         xi + dt * (3.0 / 40.0 * k1xi + 9.0 / 40.0 * k2xi))
        k4x, k4xi = _rhs(cx, xpx, kpx, cxi, xpxi, kpxi, vkind, vA, va,
                         x + dt * (44.0 / 45.0 * k1x - 56.0 / 15.0 * k2x + 32.0 / 9.0 * k3x),
                         xi + dt * (44.0 / 45.0 * k1xi - 56.0 / 15.0 * k2xi + 32.0 / 9.0 * k3xi))
        k5x, k5xi = _rhs(cx, xpx, kpx, cxi, xpxi, kpxi, vkind, vA, va,
                         x + dt * (19372.0 / 6561.0 * k1x - 25360.0 / 2187.0 * k2x
                                   + 64448.0 / 6561.0 * k3x - 212.0 / 729.0 * k4x),
                         xi + dt * (19372.0 / 6561.0 * k1xi - 25360.0 / 2187.0 * k2xi
                                    + 64448.0 / 6561.0 * k3xi - 212.0 / 729.0 * k4xi))
        k6x, k6xi = _rhs(cx, xpx, kpx, cxi, xpxi, kpxi, vkind, vA, va,
                         x + dt * (9017.0 / 3168.0 * k1x - 355.0 / 33.0 * k2x
                                   + 46732.0 / 5247.0 * k3x + 49.0 / 176.0 * k4x
                                   - 5103.0 / 18656.0 * k5x),
                         xi + dt * (9017.0 / 3168.0 * k1xi - 355.0 / 33.0 * k2xi
                                    + 46732.0 / 5247.0 * k3xi + 49.0 / 176.0 * k4xi
                                    - 5103.0 / 18656.0 * k5xi))
        x5 = x + dt * (35.0 / 384.0 * k1x + 500.0 / 1113.0 * k3x + 125.0 / 192.0 * k4x
                       - 2187.0 / 6784.0 * k5x + 11.0 / 84.0 * k6x)
        xi5 = xi + dt * (35.0 / 384.0 * k1xi + 500.0 / 1113.0 * k3xi + 125.0 / 192.0 * k4xi
                         - 2187.0 / 6784.0 * k5xi + 11.0 / 84.0 * k6xi)
        k7x, k7xi = _rhs(cx, xpx, kpx, cxi, xpxi, kpxi, vkind, vA, va, x5, xi5)

        ex = dt * (71.0 / 57600.0 * k1x - 71.0 / 16695.0 * k3x + 71.0 / 1920.0 * k4x
                   - 17253.0 / 339200.0 * k5x + 22.0 / 525.0 * k6x - 1.0 / 40.0 * k7x)
        exi = dt * (71.0 / 57600.0 * k1xi - 71.0 / 16695.0 * k3xi + 71.0 / 1920.0 * k4xi
                    - 17253.0 / 339200.0 * k5xi + 22.0 / 525.0 * k6xi - 1.0 / 40.0 * k7xi)
        sx = atol + rtol * max(abs(x), abs(x5))
        sxi = atol + rtol * max(abs(xi), abs(xi5))
        err = math.sqrt(0.5 * ((ex / sx) ** 2 + (exi / sxi) ** 2))

        if err <= 1.0:
            t = t1 if clipped else t + dt
            x, xi = x5, xi5
            k1x, k1xi = k7x, k7xi  # FSAL
            nsteps += 1
            fac = _MAX_FAC if err == 0.0 else min(_MAX_FAC, _SAFETY * err ** -0.2)
            h = h * max(_MIN_FAC, fac)
        else:
            h = h * max(_MIN_FAC, _SAFETY * err ** -0.2)
    return x, xi, h, STATUS_OK


# -- packing ------------------------------------------------------------------

_VKINDS = {None: 0, "morse": 1, "poschl-teller": 2}


def pack_flow(model) -> tuple:
    """Monomial arrays of (d_x p0, d_xi p0) plus potential codes, kernel-ready."""
    coeff, xp, kp = model.term_arrays(0)
    cx, xpx, kpx = [], [], []
    cxi, xpxi, kpxi = [], [], []
    for c, a, b in zip(coeff, xp, kp):
        if a >= 1:
            cx.append(c * a)
            xpx.append(a - 1)
            kpx.append(b)
        if b >= 1:
            cxi.append(c * b)
            xpxi.append(a)
            kpxi.append(b - 1)
    pot = model.potential
    kind = _VKINDS[None if pot is None else pot.kind]
    return (np.array(cx, dtype=float), np.array(xpx, dtype=np.int64),
            np.array(kpx, dtype=np.int64),
            np.array(cxi, dtype=float), np.array(xpxi, dtype=np.int64),
            np.array(kpxi, dtype=np.int64),
            kind, 0.0 if pot is None else pot.A, 0.0 if pot is None else pot.a)


def advance(pack, x, xi, t0, t1, rtol=1e-12, atol=1e-12):
    x1, xi1, _, status = _advance(*pack, x, xi, t0, t1, rtol, atol, 0.0)
    return x1, xi1, status

