"""Closed energy orbits of the principal symbol: polar samples, time weights,
focal points."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import flow
from .symbols import SymbolModel

_MAX_SAMPLES = 1 << 16


class OrbitError(RuntimeError):
    """Level-set or flow-topology failure (no closed orbit, wrong focal count)."""


@dataclass(frozen=True)
class Orbit:
    """One closed orbit p0 = E, sampled at equispaced angles about the well
    minimum in the flow's (clockwise) sense.

    Sample k carries the time weight w[k], so T = sum(w) and a loop integral
    of f dt is sum(f w) (periodic trapezoid in the angle), and grad p0 =
    (p_x[k], p_xi[k]): the flow's velocity is (p_xi, -p_x).  The sample times
    t, the flow pack and the focal and Fourier-singular points are computed
    on first access and cached.
    """

    energy: float
    x: np.ndarray
    xi: np.ndarray
    w: np.ndarray
    p_x: np.ndarray
    p_xi: np.ndarray
    period: float
    energy_drift: float
    model: SymbolModel = field(repr=False)

    @property
    def n_samples(self) -> int:
        return self.x.size

    @cached_property
    def t(self) -> np.ndarray:
        """Sample times from 0: the spectral antiderivative of dt/dtheta."""
        n = self.n_samples
        m = np.arange(n // 2 + 1)
        coeff = np.zeros(m.size, dtype=complex)
        coeff[1:-1] = np.fft.rfft(self.w)[1:-1] / (2j * np.pi * m[1:-1])
        periodic = n * np.fft.irfft(coeff, n)
        return self.period * np.arange(n) / n + periodic - periodic[0]

    @cached_property
    def pack(self) -> tuple:
        return flow.pack_flow(self.model)

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
        t = t % self.period
        j = int(np.searchsorted(self.t, t, side="right")) - 1
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


def _polar_samples(model: SymbolModel, E: float, n: int) -> Orbit:
    """The level set p0 = E on n rays from the well minimum, with every check."""
    x0, xi0, _ = model.well_minimum
    pa = model.eval_partial_array

    # R: a power of two with p0 > E at radius R on every ray, but not at R / 2;
    # radii R and R / 2 are rows 31 and 15 of the polar scan at R
    scan = lambda R: model.polar_scan(n, R)[2]
    R = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(64):
            if np.all(scan(R)[31] > E):
                break
            R *= 2.0
        else:
            raise OrbitError(f"find_orbit ray bracket at E = {E:g}: "
                             f"p0 < E at radius {R:.3g} (level set unbounded)")
        while np.all(scan(R)[15] > E):
            R *= 0.5
    ux, uxi, grid = model.polar_scan(n, R)

    # scan each ray, bracket its first crossing, then safeguarded Newton
    radii = R * np.arange(1, 33) / 32
    outside = np.vstack([np.zeros(n, dtype=bool), grid > E])
    crossings = np.count_nonzero(np.diff(outside, axis=0), axis=0)
    outside = outside[1:]
    j = np.argmax(outside, axis=0)
    lo = np.where(j > 0, radii[j - 1], 0.0)
    hi = radii[j]
    r = 0.5 * (lo + hi)
    active = np.arange(n)
    for _ in range(200):
        xa, xia = x0 + r[active] * ux[active], xi0 + r[active] * uxi[active]
        fa = pa(0, 0, 0, xa, xia) - E
        dfa = ux[active] * pa(0, 1, 0, xa, xia) + uxi[active] * pa(0, 0, 1, xa, xia)
        lo[active] = np.where(fa < 0.0, r[active], lo[active])
        hi[active] = np.where(fa > 0.0, r[active], hi[active])
        with np.errstate(divide="ignore", invalid="ignore"):
            r_new = r[active] - fa / dfa
        newton = (r_new >= lo[active]) & (r_new <= hi[active])
        r_new = np.where(newton, r_new, 0.5 * (lo[active] + hi[active]))
        done = ((fa == 0.0) | (newton & (np.abs(r_new - r[active]) <= 1e-12 * r[active]))
                | (hi[active] - lo[active] <= 4.0 * np.finfo(float).eps * hi[active]))
        r[active] = np.where(fa == 0.0, r[active], r_new)
        active = active[~done]
        if active.size == 0:
            break

    xs, xis = x0 + r * ux, xi0 + r * uxi
    px, pxi = pa(0, 1, 0, xs, xis), pa(0, 0, 1, xs, xis)
    radial = ux * px + uxi * pxi

    drift = float(np.abs(pa(0, 0, 0, xs, xis) - E).max())
    if active.size or drift > 1e-9 * max(1.0, abs(E)):
        raise OrbitError(f"find_orbit Newton residual at E = {E:g}: "
                         f"|p0 - E| = {drift:.3e} on {active.size} unconverged rays")

    # focal points = cyclic sign changes of d_xi p0 over the samples, zeros dropped
    sign = np.sign(pxi)
    sign = sign[sign != 0.0]
    n_focal = int(np.count_nonzero(sign != np.roll(sign, 1)))
    if n_focal != 2:
        raise OrbitError(f"unsupported topology: {n_focal} focal points at E = {E:g}")

    if np.any(radial <= 0.0) or np.any(crossings != 1):
        raise OrbitError(
            f"find_orbit star-shape check at E = {E:g}: the level set is not "
            f"star-shaped about the well minimum ({x0:.6g}, {xi0:.6g}); rays cross "
            f"it up to {crossings.max()} times, min u.grad p0 = {radial.min():.3e}")

    w = (2.0 * np.pi / n) * r / radial
    return Orbit(energy=E, x=xs, xi=xis, w=w, p_x=px, p_xi=pxi, period=float(w.sum()),
                 energy_drift=drift, model=model)


def find_orbit(model: SymbolModel, E: float, n_samples: int = 2048) -> Orbit:
    """The closed orbit p0 = E as a polar level set about the well minimum.

    Ray k leaves (x*, xi*) at angle -2 pi k / n (the flow runs clockwise;
    angle 0 points along +x) and meets p0 = E once, at radius r_k; its time
    weight is (2 pi / n) r_k / (u_k . grad p0).  Checks, in order: the Newton
    residual, the focal-point count, the star shape; then n doubles until
    the period and the action S0 agree with their half-resolution values to
    1e-12 relative.
    """
    if n_samples < 512:
        raise ValueError("n_samples must be >= 512")
    E_min = model.well_minimum[2]
    if not E > E_min:
        raise OrbitError(f"find_orbit at E = {E:g}: not above the well minimum "
                         f"E_min = {E_min:g}")
    n = n_samples
    while True:
        orbit = _polar_samples(model, E, n)
        w = orbit.w
        s0 = orbit.xi * orbit.p_xi
        pairs = ((orbit.period, 2.0 * w[::2].sum()), (s0 @ w, 2.0 * (s0[::2] @ w[::2])))
        if all(abs(full - half) <= 1e-12 * abs(full) for full, half in pairs):
            return orbit
        n *= 2
        if n > _MAX_SAMPLES:
            raise OrbitError(f"find_orbit resolution check at E = {E:g}: period and "
                             f"action unresolved at n = {n // 2}")
