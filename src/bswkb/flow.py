"""Hamiltonian-flow integration kernels for the p0 flow.

Dormand-Prince 5(4) with adaptive steps, a Poincare-return period finder and
equispaced loop sampling.  The kernels are scalar loops: with numba available
(and BSWKB_NUMBA != "0") they are compiled with @njit; otherwise the same
functions run as pure Python/numpy.  Both paths produce identical results,
see benchmarks/bench_flow.py for the speed comparison.
"""

from __future__ import annotations

import math
import os

import numpy as np

_want_numba = os.environ.get("BSWKB_NUMBA", "1") != "0"
NUMBA_ENABLED = False
if _want_numba:
    try:
        from numba import njit

        NUMBA_ENABLED = True
    except ImportError:
        pass
if not NUMBA_ENABLED:
    def njit(*args, **kwargs):
        if args and callable(args[0]):
            return args[0]

        def wrap(func):
            return func

        return wrap


STATUS_OK = 0
STATUS_STEP_UNDERFLOW = 1
STATUS_NO_RETURN = 2
STATUS_MAX_STEPS = 3
STATUS_NAMES = {STATUS_OK: "ok", STATUS_STEP_UNDERFLOW: "step size underflow",
                STATUS_NO_RETURN: "no Poincare return", STATUS_MAX_STEPS: "step limit"}

_SAFETY = 0.9
_MIN_FAC = 0.2
_MAX_FAC = 5.0
_MAX_STEPS = 2_000_000


@njit(cache=True)
def _poly_eval(coeff, xp, kp, x, xi):
    s = 0.0
    for i in range(coeff.shape[0]):
        s += coeff[i] * x ** xp[i] * xi ** kp[i]
    return s


@njit(cache=True)
def _vprime(vkind, A, a, x):
    if vkind == 1:  # morse: V = A(e^{-2ax} - 2 e^{-ax})
        return A * (-2.0 * a * math.exp(-2.0 * a * x) + 2.0 * a * math.exp(-a * x))
    if vkind == 2:  # poschl-teller: V = -A sech^2(ax)
        t = math.tanh(a * x)
        c = 1.0 / math.cosh(a * x)
        return 2.0 * A * a * c * c * t
    return 0.0


@njit(cache=True)
def _rhs(cx, xpx, kpx, cxi, xpxi, kpxi, vkind, vA, va, x, xi):
    # xdot = d_xi p0, xidot = -d_x p0 (potential part enters d_x only)
    xdot = _poly_eval(cxi, xpxi, kpxi, x, xi)
    xidot = -(_poly_eval(cx, xpx, kpx, x, xi) + _vprime(vkind, vA, va, x))
    return xdot, xidot


@njit(cache=True)
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


@njit(cache=True)
def _find_period(cx, xpx, kpx, cxi, xpxi, kpxi, vkind, vA, va,
                 x0, xi0, t_max, rtol, atol):
    """First directional return to the section xi = 0 (decreasing crossing).

    Starts at (x0, 0) where the flow leaves the section downward; the full
    loop crosses the section upward once (at the far turning point) and comes
    back down exactly at the period.  Returns (T, x_T, xi_T, status).
    """
    t = 0.0
    x, xi = x0, xi0
    h = 1e-4 * max(1.0, abs(t_max))
    t_prev, x_prev, xi_prev = t, x, xi
    found = False
    while t < t_max:
        t_next = min(t + max(h, 1e-8), t_max)
        x_n, xi_n, h, status = _advance(cx, xpx, kpx, cxi, xpxi, kpxi, vkind, vA, va,
                                        x, xi, t, t_next, rtol, atol, h)
        if status != STATUS_OK:
            return 0.0, x_n, xi_n, status
        if xi > 0.0 and xi_n <= 0.0:
            t_prev, x_prev, xi_prev = t, x, xi
            found = True
            t, x, xi = t_next, x_n, xi_n
            break
        t, x, xi = t_next, x_n, xi_n
    if not found:
        return 0.0, x, xi, STATUS_NO_RETURN

    # bisect the bracket [t_prev, t] on xi(t)
    t_lo, x_lo, xi_lo = t_prev, x_prev, xi_prev
    t_hi, xi_hi = t, xi
    for _ in range(200):
        if t_hi - t_lo <= 4.0 * 2.220446049250313e-16 * t_hi:
            break
        t_mid = 0.5 * (t_lo + t_hi)
        x_m, xi_m, _, status = _advance(cx, xpx, kpx, cxi, xpxi, kpxi, vkind, vA, va,
                                        x_lo, xi_lo, t_lo, t_mid, rtol, atol, 0.0)
        if status != STATUS_OK:
            return 0.0, x_m, xi_m, status
        if xi_m > 0.0:
            t_lo, x_lo, xi_lo = t_mid, x_m, xi_m
        else:
            t_hi, xi_hi = t_mid, xi_m
    # linear interpolation inside the final bracket
    T = t_lo + (t_hi - t_lo) * xi_lo / (xi_lo - xi_hi) if xi_lo != xi_hi else t_lo
    x_T, xi_T, _, status = _advance(cx, xpx, kpx, cxi, xpxi, kpxi, vkind, vA, va,
                                    x_lo, xi_lo, t_lo, T, rtol, atol, 0.0)
    return T, x_T, xi_T, status


@njit(cache=True)
def _sample_loop(cx, xpx, kpx, cxi, xpxi, kpxi, vkind, vA, va,
                 x0, xi0, T, n, rtol, atol):
    """States at t_j = j*T/n, j = 0..n-1 (loop start excluded from the end)."""
    xs = np.empty(n)
    xis = np.empty(n)
    xs[0] = x0
    xis[0] = xi0
    x, xi = x0, xi0
    h = 0.0
    status = STATUS_OK
    for j in range(1, n):
        x, xi, h, status = _advance(cx, xpx, kpx, cxi, xpxi, kpxi, vkind, vA, va,
                                    x, xi, (j - 1) * T / n, j * T / n, rtol, atol, h)
        if status != STATUS_OK:
            break
        xs[j] = x
        xis[j] = xi
    return xs, xis, status


# -- python-side packing ------------------------------------------------------

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


def find_period(pack, x0, t_max, rtol=1e-12, atol=1e-12):
    return _find_period(*pack, x0, 0.0, t_max, rtol, atol)


def sample_loop(pack, x0, xi0, T, n, rtol=1e-12, atol=1e-12):
    return _sample_loop(*pack, x0, xi0, T, n, rtol, atol)
