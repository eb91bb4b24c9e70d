"""Order-h^2 WKB wavefunctions in the spatial representation and residuals.

Phases are accumulated along the flow in the time parameterization (smooth
through the branch, anchored at the right focal point); the h^2 phase term
uses the full spatial-chart transport.  The operator is applied on a grid via
Weyl-quantized finite differences to measure ||(P - E) u|| / ||u||.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .charts import eikonal_spatial
from .orbits import Orbit, find_orbit
from .symbols import SymbolModel

AMP_CORRECTIONS = ("printed", "swapped", "mixed", "none")


class QuasimodeError(RuntimeError):
    """Region, branch or grid-resolution failure."""


@dataclass(frozen=True)
class Quasimode:
    E: float
    h: float
    x_grid: np.ndarray
    branch_plus: np.ndarray
    branch_minus: np.ndarray
    combined: np.ndarray
    region: tuple
    amp_correction: str


def branch_xi(model: SymbolModel, E: float, x: float, sign: int) -> float:
    """The xi-root of p0(x, xi) = E with sign * d_xi p0 > 0, Newton-polished."""
    # seed from the xi^2-dominated balance, then polish
    lo, hi = 0.0, 1.0
    f = lambda xi: model.eval(0, x, xi) - E
    if f(0.0) >= 0.0:
        raise QuasimodeError(f"x = {x} outside the classically allowed region")
    while f(sign * hi) < 0.0:
        hi *= 1.6
        if hi > 1e8:
            raise QuasimodeError("no xi-root bracket")
    from scipy.optimize import brentq

    xi = brentq(f, sign * lo, sign * hi, xtol=1e-15, rtol=8.9e-16)
    # guard + final Newton polish
    for _ in range(8):
        df = model.eval_partial(0, 0, 1, x, xi)
        if df == 0.0:
            raise QuasimodeError("roots coalesce (focal point)")
        step = (model.eval(0, x, xi) - E) / df
        xi -= step
        if abs(step) <= 1e-13 * max(1.0, abs(xi)):
            break
    if sign * model.eval_partial(0, 0, 1, x, xi) <= 0.0:
        raise QuasimodeError("branch sign condition violated")
    return xi


# -- time-parameterized branch geometry -----------------------------------------


class _BranchGeometry:
    """Cumulative phase integrals along one branch, anchored at the right focal
    point; states between orbit samples come from cubic Hermite interpolation."""

    def __init__(self, model: SymbolModel, orbit: Orbit):
        self.model = model
        self.orbit = orbit
        self.xdot = orbit.p_xi
        self.xidot = -orbit.p_x
        focal = sorted(orbit.focal_points, key=lambda p: p[1])
        self.t_left, self.x_left = focal[0][0], focal[0][1]
        self.t_right, self.x_right = focal[1][0], focal[1][1]
        self.xi_right = focal[1][2]
        self.t_edges = np.append(orbit.t, orbit.period)
        if abs(self.t_right) > 1e-9 * orbit.period and \
           abs(self.t_right - orbit.period) > 1e-9 * orbit.period:
            raise QuasimodeError("orbit does not start at the right focal point")

    def _hermite_state(self, t):
        """(x, xi) at arbitrary times (vectorized) from the sample grid."""
        orb = self.orbit
        n = orb.n_samples
        t = np.asarray(t, dtype=float) % orb.period
        j = np.clip(np.searchsorted(self.t_edges, t, side="right") - 1, 0, n - 1)
        jp = (j + 1) % n
        dt = self.t_edges[j + 1] - self.t_edges[j]
        s = (t - self.t_edges[j]) / dt
        h00 = (1 + 2 * s) * (1 - s) ** 2
        h10 = s * (1 - s) ** 2
        h01 = s * s * (3 - 2 * s)
        h11 = s * s * (s - 1)
        x = (h00 * orb.x[j] + h10 * dt * self.xdot[j]
             + h01 * orb.x[jp] + h11 * dt * self.xdot[jp])
        xi = (h00 * orb.xi[j] + h10 * dt * self.xidot[j]
              + h01 * orb.xi[jp] + h11 * dt * self.xidot[jp])
        return x, xi

    def t_of_x(self, x_vals, branch: int):
        """Flow times on the requested branch (branch = sign of d_xi p0)."""
        orb = self.orbit
        n = orb.n_samples
        # branch sample index ranges: minus-branch runs t in (0, t_left),
        # plus-branch t in (t_left, T)
        if branch < 0:
            j_lo, j_hi = 0, int(np.searchsorted(orb.t, self.t_left, side="right")) - 1
        else:
            j_lo, j_hi = int(np.searchsorted(orb.t, self.t_left, side="left")), n - 1
        xs = orb.x[j_lo:j_hi + 1]
        xv = np.atleast_1d(np.asarray(x_vals, dtype=float))
        # bracketing sample interval on the monotone branch, then bisection of
        # every point at once; `active` holds the points not yet converged
        k = np.searchsorted(xs, xv) if branch > 0 else np.searchsorted(-xs, -xv)
        k = np.clip(k, 1, xs.size - 1) + j_lo
        t_lo, t_hi = self.t_edges[k - 1], self.t_edges[k]
        active = np.arange(xv.size)
        for _ in range(80):
            t_m = 0.5 * (t_lo[active] + t_hi[active])
            x_m, _ = self._hermite_state(t_m)
            up = (x_m < xv[active]) == (branch > 0)
            t_lo[active] = np.where(up, t_m, t_lo[active])
            t_hi[active] = np.where(up, t_hi[active], t_m)
            active = active[t_hi[active] - t_lo[active] >= 1e-15 * orb.period]
            if active.size == 0:
                break
        return 0.5 * (t_lo + t_hi)

    def segment_integrals(self, t_a: float, t_b: float, n_panels: int = 8):
        """(int xi dx, int p1 dt) over [t_a, t_b] along the flow (composite
        4-point Gauss with Hermite-interpolated states)."""
        from .charts import _GN, _GW

        edges = np.linspace(t_a, t_b, n_panels + 1)
        w = np.diff(edges)
        nodes = (edges[:-1, None] + w[:, None] * _GN[None, :]).ravel()
        x, xi = self._hermite_state(nodes)
        pa = self.model.eval_partial_array
        f_xi = xi * pa(0, 0, 1, x, xi)
        f_p1 = pa(1, 0, 0, x, xi)
        wts = (w[:, None] * _GW[None, :]).ravel()
        return float(wts @ f_xi), float(wts @ f_p1)


def phase_S(model: SymbolModel, E: float, h: float, sign: int, x: float,
            anchor: str = "right", orbit: Orbit | None = None,
            h2_anchor: float | None = None, h2_term: bool = True) -> float:
    """Branch phase x_a xi_a + int xi dy - h int p1 dt + h^2 (Im transport term).

    `anchor` picks the focal point ("left" or "right"); the h^2 term is the
    full spatial-transport Im increment anchored at `h2_anchor` (branch
    midpoint by default), a per-branch constant away from the published
    focal anchoring, at which the transport density is not integrable.
    """
    if orbit is None:
        orbit = find_orbit(model, E)
    geo = _BranchGeometry(model, orbit)
    if anchor == "right":
        x_a, xi_a = geo.x_right, geo.xi_right
        t_a = orbit.period if sign > 0 else 0.0
    elif anchor == "left":
        x_a = geo.x_left
        xi_a = orbit.state_at(geo.t_left)[1]
        t_a = geo.t_left
    else:
        raise ValueError("anchor must be 'left' or 'right'")
    const = x_a * xi_a
    if abs(x - x_a) <= 1e-12 * max(1.0, abs(x_a)):
        return const
    t_x = float(geo.t_of_x([x], sign)[0])
    I_xi, I_p1 = geo.segment_integrals(t_a, t_x, n_panels=96)
    if not h2_term or h == 0.0:
        return const + I_xi - h * I_p1
    width = geo.x_right - geo.x_left
    mid = 0.5 * (geo.x_left + geo.x_right) if h2_anchor is None else h2_anchor
    pad = 0.02 * width
    lo = min(x, mid) - pad
    hi = max(x, mid) + pad
    schart = eikonal_spatial(model, E, (lo, hi), branch=sign, n=201, anchor=mid)
    im2 = schart.frame.sqrt2_im_d1(x)
    return const + I_xi - h * I_p1 + h * h * im2


def build_wkb(model: SymbolModel, E: float, h: float, region,
              amp_correction: str = "printed", pts_per_h: float = 10.0,
              orbit: Orbit | None = None) -> Quasimode:
    """Two-branch WKB quasimode on `region`, combined per the e^{+-i pi/4} rule.

    Per-branch amplitude (2 (+-d_xi p0) exp[h corr])^{-1/2} with the
    amplitude-correction variant selected by flag ("printed" uses the
    d_x(p1/d_xi p0) index pattern as published, "swapped" the x<->xi
    symmetric d_xi(p1/d_xi p0), "mixed" d_xi(p1/d_x p0)); phases per the
    anchored action integrals with the h^2 spatial-transport term.
    """
    if amp_correction not in AMP_CORRECTIONS:
        raise ValueError(f"unknown amp_correction {amp_correction!r}")
    if model.xi_degree > 2:
        raise QuasimodeError("quasimode grids require xi_degree <= 2")
    x_lo, x_hi = float(region[0]), float(region[1])
    if orbit is None:
        orbit = find_orbit(model, E)
    geo = _BranchGeometry(model, orbit)
    width = geo.x_right - geo.x_left
    margin = min(geo.x_right - x_hi, x_lo - geo.x_left)
    if margin <= 0.05 * width:
        raise QuasimodeError("region too close to a focal point")

    dx = h / pts_per_h
    n = int(np.ceil((x_hi - x_lo) / dx)) + 1
    grid = np.linspace(x_lo, x_hi, n)
    anchor_phase = geo.x_right * geo.xi_right

    # h^2 phase via the full spatial transport on each branch (the constant
    # anchor offset is a global phase per branch pair, removed by symmetry)
    pad = 0.02 * width
    mid = 0.5 * (x_lo + x_hi)

    branches = {}
    for sign in (+1, -1):
        t_grid = geo.t_of_x(grid, sign)
        # cumulative integrals from the right focal point (t = T on branch +,
        # t = 0 on branch -) to each grid time, in grid order
        I_xi = np.empty(n)
        I_p1 = np.empty(n)
        t_anchor = orbit.period if sign > 0 else 0.0
        # first grid point from the focal anchor (long smooth segment)
        a_xi, a_p1 = geo.segment_integrals(t_anchor, t_grid[0], n_panels=64)
        I_xi[0], I_p1[0] = a_xi, a_p1
        for i in range(1, n):
            d_xi, d_p1 = geo.segment_integrals(t_grid[i - 1], t_grid[i], n_panels=2)
            I_xi[i] = I_xi[i - 1] + d_xi
            I_p1[i] = I_p1[i - 1] + d_p1

        schart = eikonal_spatial(model, E, (x_lo - pad, x_hi + pad),
                                 branch=sign, n=max(201, n // 2), anchor=mid)
        im2 = np.array([schart.frame.sqrt2_im_d1(xv) for xv in grid])

        xi_b = np.array([branch_xi(model, E, xv, sign) for xv in grid])
        pa = model.eval_partial_array
        pxi = pa(0, 0, 1, grid, xi_b)
        if amp_correction == "printed":
            corr = (pa(1, 1, 0, grid, xi_b) * pxi
                    - pa(1, 0, 0, grid, xi_b) * pa(0, 1, 1, grid, xi_b)) / pxi ** 2
        elif amp_correction == "swapped":
            corr = (pa(1, 0, 1, grid, xi_b) * pxi
                    - pa(1, 0, 0, grid, xi_b) * pa(0, 0, 2, grid, xi_b)) / pxi ** 2
        elif amp_correction == "mixed":
            px = pa(0, 1, 0, grid, xi_b)
            corr = (pa(1, 0, 1, grid, xi_b) * px
                    - pa(1, 0, 0, grid, xi_b) * pa(0, 1, 1, grid, xi_b)) / px ** 2
        else:
            corr = np.zeros_like(grid)

        S = anchor_phase + I_xi - h * I_p1 + h * h * im2
        amp = (2.0 * sign * pxi * np.exp(h * corr)) ** -0.5
        branches[sign] = amp * np.exp(1j * S / h)

    combined = (1.0 / math.sqrt(2.0)) * (
        np.exp(1j * math.pi / 4.0) * branches[+1]
        + np.exp(-1j * math.pi / 4.0) * branches[-1])
    return Quasimode(E=E, h=h, x_grid=grid, branch_plus=branches[+1],
                     branch_minus=branches[-1], combined=combined,
                     region=(x_lo, x_hi), amp_correction=amp_correction)


# -- grid operator and residuals ---------------------------------------------------


def _derivatives(u: np.ndarray, dx: float):
    """4th-order first and second derivatives on the interior (2-node margin)."""
    d1 = (u[:-4] - 8.0 * u[1:-3] + 8.0 * u[3:-1] - u[4:]) / (12.0 * dx)
    d2 = (-u[:-4] + 16.0 * u[1:-3] - 30.0 * u[2:-2] + 16.0 * u[3:-1] - u[4:]) / (12.0 * dx * dx)
    return d1, d2


def apply_operator(model: SymbolModel, h: float, u: np.ndarray,
                   x_grid: np.ndarray):
    """(P u) on the interior of the grid (Weyl quantization, xi_degree <= 2).

    Returns (interior_x, P u restricted to the interior).  Levels are
    assembled as p0-part + h p1-part + h^2 p2-part; the degree-1 term uses
    the symmetrized c(x) hD + (hD c)/2 arrangement whose symbol is c(x) xi.
    """
    if model.xi_degree > 2:
        raise QuasimodeError("xi_degree > 2 not quantizable on a grid")
    dx = float(x_grid[1] - x_grid[0])
    if not np.allclose(np.diff(x_grid), dx, rtol=1e-12, atol=0):
        raise QuasimodeError("apply_operator requires a uniform grid")
    if dx > h / 10.0 * (1.0 + 1e-12):
        raise QuasimodeError(f"grid too coarse: dx = {dx:.3e} > h/10")
    xin = x_grid[2:-2]
    u1, u2 = _derivatives(u, dx)
    uin = u[2:-2]
    out = np.zeros_like(uin, dtype=complex)
    from .oracle import _level_coefficients, _poly_on_grid

    for level in range(3):
        cs = _level_coefficients(model, level)
        part = np.zeros_like(uin, dtype=complex)
        c0 = _poly_on_grid(cs[0], xin)
        if level == 0 and model.potential is not None:
            c0 = c0 + model.potential.deriv_array(0, xin)
        part += c0 * uin
        if cs[1]:
            c1 = _poly_on_grid(cs[1], xin)
            c1p = _poly_on_grid(cs[1], xin, deriv=1)
            part += -1j * h * (c1 * u1 + 0.5 * c1p * uin)
        if cs[2]:
            c2 = _poly_on_grid(cs[2], xin)
            c2p = _poly_on_grid(cs[2], xin, deriv=1)
            c2pp = _poly_on_grid(cs[2], xin, deriv=2)
            part += -h * h * (c2 * u2 + c2p * u1 + 0.25 * c2pp * uin)
        out += h ** level * part
    return xin, out


def residual_norm(model: SymbolModel, E: float, h: float, region,
                  amp_correction: str = "printed", pts_per_h: float = 10.0,
                  orbit: Orbit | None = None) -> float:
    """Discrete L2 residual ||(P - E) u|| / ||u|| over the interior of region."""
    x_lo, x_hi = float(region[0]), float(region[1])
    pad = 4.0 * h / pts_per_h
    qm = build_wkb(model, E, h, (x_lo - pad, x_hi + pad),
                   amp_correction=amp_correction, pts_per_h=pts_per_h,
                   orbit=orbit)
    xin, pu = apply_operator(model, h, qm.combined, qm.x_grid)
    uin = qm.combined[2:-2]
    keep = (xin >= x_lo) & (xin <= x_hi)
    res = pu[keep] - E * uin[keep]
    return float(np.linalg.norm(res) / np.linalg.norm(uin[keep]))
