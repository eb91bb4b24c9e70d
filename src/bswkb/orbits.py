"""Closed energy orbits of the principal symbol: period, samples, focal points."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.optimize import brentq

from . import flow
from .symbols import SymbolModel


class OrbitError(RuntimeError):
    """Level-set or flow-topology failure (no closed orbit, wrong focal count)."""


@dataclass(frozen=True)
class Orbit:
    """One closed orbit of the p0 flow, sampled equispaced in time.

    Samples cover [0, T) flow-oriented starting at (x_right, 0); the loop is
    closed, so sample j sits at t_j = j*T/n.  Focal and Fourier-singular
    points are polished on first access and cached.
    """

    energy: float
    t: np.ndarray
    x: np.ndarray
    xi: np.ndarray
    period: float
    energy_drift: float
    closure_error: float
    model: SymbolModel = field(repr=False)
    pack: tuple = field(repr=False)

    @property
    def n_samples(self) -> int:
        return self.t.size

    @cached_property
    def focal_points(self) -> tuple:
        """(t, x, xi) with d_xi p0 = 0."""
        return _roots_along_orbit(
            self, lambda x, xi: self.model.eval_partial(0, 0, 1, x, xi))

    @cached_property
    def fourier_singular_points(self) -> tuple:
        """(t, x, xi) with d_x p0 = 0."""
        return _roots_along_orbit(
            self, lambda x, xi: self.model.eval_partial(0, 1, 0, x, xi))

    def state_at(self, t: float, rtol: float = 1e-12) -> tuple[float, float]:
        """Integrate from the nearest earlier sample to time t (mod T)."""
        T = self.period
        t = t % T
        j = min(int(t / T * self.n_samples), self.n_samples - 1)
        x, xi, status = flow.advance(self.pack, self.x[j], self.xi[j],
                                     self.t[j], t, rtol=rtol)
        if status != flow.STATUS_OK:
            raise OrbitError(f"state_at on the orbit at E = {self.energy:g}: "
                             f"{flow.STATUS_NAMES[status]}")
        return x, xi


def integrate_flow(model: SymbolModel, start, duration: float, tol: float = 1e-9,
                   n_samples: int = 256):
    """Samples (t, x, xi) of the Hamilton flow of p0 from `start` over `duration`."""
    pack = flow.pack_flow(model)
    step_tol = min(max(tol / 100.0, 1e-13), 1e-8)
    x, xi = float(start[0]), float(start[1])
    E0 = model.eval(0, x, xi)
    ts = np.linspace(0.0, duration, n_samples + 1)
    xs = np.empty_like(ts)
    xis = np.empty_like(ts)
    xs[0], xis[0] = x, xi
    for j in range(1, ts.size):
        x, xi, status = flow.advance(pack, x, xi, ts[j - 1], ts[j],
                                     rtol=step_tol, atol=step_tol)
        if status != flow.STATUS_OK:
            raise OrbitError(f"integrate_flow at E = {E0:g}: {flow.STATUS_NAMES[status]}")
        xs[j], xis[j] = x, xi
    drift = float(np.abs(model.eval_partial_array(0, 0, 0, xs, xis) - E0).max())
    if drift > tol * max(1.0, abs(E0)):
        raise OrbitError(f"integrate_flow at E = {E0:g}: drift {drift:.3e} > {tol:.1e}")
    return ts, xs, xis


def _rightmost_root(model: SymbolModel, E: float) -> float:
    """Largest x >= 0 with p0(x, 0) = E, by expanding scan + Brent."""
    f = lambda x: model.eval(0, x, 0.0) - E
    if f(0.0) >= 0.0:
        raise OrbitError("p0(0,0) >= E: energy not above the well interior")
    x_hi = 1.0
    for _ in range(80):
        if f(x_hi) > 0.0:
            break
        x_hi *= 1.6
    else:
        raise OrbitError("no right turning point found (level set unbounded?)")
    # walk down to the last sign change so we bracket the largest root
    grid = np.linspace(x_hi, 0.0, 257)
    vals = model.eval_partial_array(0, 0, 0, grid, 0.0) - E
    idx = np.nonzero(vals[:-1] * vals[1:] <= 0.0)[0]
    if idx.size == 0:
        raise OrbitError("failed to bracket p0(x,0) = E")
    a, b = grid[idx[0] + 1], grid[idx[0]]
    return brentq(f, a, b, xtol=1e-15, rtol=8.9e-16)


def _refine_root_in_t(orbit: Orbit, g, t_lo, s_lo, t_hi, g_lo, rtol=1e-12):
    """Bisect g(state(t)) = 0 inside [t_lo, t_hi]; states by re-integration."""
    x_lo, xi_lo = s_lo
    for _ in range(200):
        if t_hi - t_lo <= 8.0 * np.finfo(float).eps * max(1.0, t_hi):
            break
        t_m = 0.5 * (t_lo + t_hi)
        x_m, xi_m, status = flow.advance(orbit.pack, x_lo, xi_lo, t_lo, t_m, rtol=rtol)
        if status != flow.STATUS_OK:
            raise OrbitError(f"root polish at E = {orbit.energy:g}: "
                             f"{flow.STATUS_NAMES[status]}")
        g_m = g(x_m, xi_m)
        if g_m == 0.0:
            return t_m, x_m, xi_m
        if (g_m > 0.0) == (g_lo > 0.0):
            t_lo, x_lo, xi_lo, g_lo = t_m, x_m, xi_m, g_m
        else:
            t_hi = t_m
    return t_lo, x_lo, xi_lo


def _roots_along_orbit(orbit: Orbit, g) -> tuple:
    """All roots of g along the loop from sample sign changes, polished in t."""
    n, period, xs, xis = orbit.n_samples, orbit.period, orbit.x, orbit.xi
    vals = np.array([g(xs[j], xis[j]) for j in range(n)])
    roots = []
    for j in range(n):
        k = (j + 1) % n
        t_j = orbit.t[j]
        t_k = orbit.t[k] if k else period
        if vals[j] == 0.0:
            roots.append((t_j, xs[j], xis[j]))
        elif vals[j] * vals[k] < 0.0:
            t_r, x_r, xi_r = _refine_root_in_t(orbit, g, t_j, (xs[j], xis[j]), t_k, vals[j])
            roots.append((t_r % period, x_r, xi_r))
    # deduplicate near-coincident roots (loop wrap)
    out = []
    for r in sorted(roots):
        if not out or abs(r[0] - out[-1][0]) > 1e-9 * period:
            out.append(r)
    if out and len(out) > 1 and abs(out[0][0] + period - out[-1][0]) < 1e-9 * period:
        out.pop()
    for t_r, x_r, xi_r in out:
        if abs(g(x_r, xi_r)) > 1e-10:
            raise OrbitError(f"root polish stalled: |g| = {abs(g(x_r, xi_r)):.2e}")
    return tuple(out)


def find_orbit(model: SymbolModel, E: float, n_samples: int = 2048,
               t_max: float = 500.0, rtol: float = 5e-14) -> Orbit:
    """Locate the closed orbit p0 = E through (x_right, 0) and sample one period."""
    if n_samples < 512:
        raise ValueError("n_samples must be >= 512")
    pack = flow.pack_flow(model)
    x0 = _rightmost_root(model, E)
    T, x_T, xi_T, status = flow.find_period(pack, x0, t_max, rtol=rtol, atol=rtol)
    if status != flow.STATUS_OK:
        raise OrbitError(f"find_orbit period search at E = {E:g}: "
                         f"{flow.STATUS_NAMES[status]} (t_max = {t_max:g})")
    xs, xis, status = flow.sample_loop(pack, x0, 0.0, T, n_samples, rtol=rtol, atol=rtol)
    if status != flow.STATUS_OK:
        raise OrbitError(f"find_orbit sampling at E = {E:g}: {flow.STATUS_NAMES[status]}")
    ts = np.arange(n_samples) * (T / n_samples)

    closure = float(np.hypot(x_T - x0, xi_T - 0.0))
    diameter = float(np.hypot(xs.max() - xs.min(), xis.max() - xis.min()))
    if closure > 1e-8 * diameter:
        raise OrbitError(f"orbit at E = {E:g} does not close: gap {closure:.3e}")

    drift = float(np.abs(model.eval_partial_array(0, 0, 0, xs, xis) - E).max())
    if drift > 1e-9 * max(1.0, abs(E)):
        raise OrbitError(f"energy drift {drift:.3e} along the orbit at E = {E:g}")

    # focal points = cyclic sign changes of d_xi p0 over the samples, zeros dropped
    sign = np.sign(model.eval_partial_array(0, 0, 1, xs, xis))
    sign = sign[sign != 0.0]
    n_focal = int(np.count_nonzero(sign != np.roll(sign, 1)))
    if n_focal != 2:
        raise OrbitError(f"unsupported topology: {n_focal} focal points at E = {E:g}")

    return Orbit(energy=E, t=ts, x=xs, xi=xis, period=T, energy_drift=drift,
                 closure_error=closure, model=model, pack=pack)
