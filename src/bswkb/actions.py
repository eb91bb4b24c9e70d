"""Loop integrals over closed orbits and the action series S0 + h S1 + h^2 S2.

All loop integrals are taken in the time parameterization (periodic trapezoid
on equispaced samples, spectrally accurate for smooth loops); E-derivatives
in S2 are Gelfand-Leray derivatives on the one orbit at E (loop_dE_dt).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .orbits import Orbit, find_orbit
from .symbols import SymbolModel


@dataclass(frozen=True)
class SignCalibration:
    """Signs attached to the three h^2 action terms.

    Defaults reproduce the shifted-harmonic closed forms (sigma_p1sq on the
    +(1/2) d/dE loop(p1^2 dt) term, sigma_p2 on loop(p2 dt)); sigma_Gamma is
    pinned by the quartic-well oracle benchmark.
    """

    sigma_Gamma: int = -1
    sigma_p1sq: int = +1
    sigma_p2: int = -1
    provenance: dict = field(default_factory=lambda: {
        "sigma_Gamma": "quartic-well oracle convergence benchmark (frozen default)",
        "sigma_p1sq": "shifted harmonic p1 = x: E0 = h - h^2/4 closed form",
        "sigma_p2": "constant p2 = c: E_n = h(2n+1) + c h^2 closed form",
    })


DEFAULT_CALIBRATION = SignCalibration()


@dataclass(frozen=True)
class LoopIntegrals:
    S0: float       # loop xi dx, flow orientation
    I_p1: float     # loop p1 dt
    I_p2: float     # loop p2 dt
    period: float


@dataclass(frozen=True)
class ActionSeries:
    E: float
    S0: float
    S1: float
    S2: float
    calibration: SignCalibration
    loops: LoopIntegrals


def _integrand_values(orbit: Orbit, integrand) -> np.ndarray:
    try:
        vals = np.asarray(integrand(orbit.x, orbit.xi), dtype=float)
        if vals.shape == orbit.x.shape:
            return vals
    except (TypeError, ValueError):
        pass
    return np.array([integrand(a, b) for a, b in zip(orbit.x, orbit.xi)])


def loop_integral_dt(orbit: Orbit, integrand, with_error: bool = False):
    """Time integral of a smooth phase-space function over one period.

    Periodic trapezoid = T * mean(f); the reported error estimate compares
    against the half-resolution subsample.
    """
    vals = _integrand_values(orbit, integrand)
    full = orbit.period * float(vals.mean())
    if not with_error:
        return full
    half = orbit.period * float(vals[::2].mean())
    return full, abs(full - half)


def action_S0(orbit: Orbit) -> float:
    """Principal action: loop xi dx = loop xi * xdot dt (no turning singularity)."""
    xdot = orbit.model.eval_partial_array(0, 0, 1, orbit.x, orbit.xi)
    return orbit.period * float((orbit.xi * xdot).mean())


def gamma_density(model: SymbolModel, x, xi):
    """Curvature density Gamma whose loop time-integral feeds the h^2 action.

    Contraction of the second-derivative 1-form with the Hamilton field:
    Gamma = p_xx p_xi^2 - 2 p_xxi p_x p_xi + p_xixi p_x^2.
    """
    scalar = np.isscalar(x) and np.isscalar(xi)
    pa = model.eval_partial_array
    px = pa(0, 1, 0, x, xi)
    pxi = pa(0, 0, 1, x, xi)
    pxx = pa(0, 2, 0, x, xi)
    pxxi = pa(0, 1, 1, x, xi)
    pxixi = pa(0, 0, 2, x, xi)
    out = pxx * pxi ** 2 - 2.0 * pxxi * px * pxi + pxixi * px ** 2
    return float(out) if scalar else out


def dE_derivative(f, E: float, order: int, d_step: float | None = None,
                  full: bool = False):
    """Central-difference d/dE or (d/dE)^2 of f with one Richardson level."""
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    d = d_step if d_step is not None else max(1e-3, 1e-2 * abs(E))
    fp, fm = f(E + d), f(E - d)
    fp2, fm2 = f(E + d / 2.0), f(E - d / 2.0)
    if order == 1:
        coarse = (fp - fm) / (2.0 * d)
        fine = (fp2 - fm2) / d
    else:
        f0 = f(E)
        coarse = (fp - 2.0 * f0 + fm) / d ** 2
        fine = (fp2 - 2.0 * f0 + fm2) / (d / 2.0) ** 2
    value = (4.0 * fine - coarse) / 3.0
    if full:
        return value, {"raw_coarse": coarse, "raw_fine": fine,
                       "err_est": abs(value - fine), "d_step": d}
    return value


def loop_dE_dt(model: SymbolModel, orbit: Orbit, f, f_x, f_xi) -> float:
    """d/dE loop(f dt) from f, f_x, f_xi on the samples of the orbit at E.

    Equals loop(div(f Y) dt) with Y = grad p0 / |grad p0|^2, which carries the
    level set p0 = E to p0 = E + dE in unit time (divergence theorem).
    """
    p = lambda i, j: model.eval_partial_array(0, i, j, orbit.x, orbit.xi)
    px, pxi, pxx, pxxi, pxixi = p(1, 0), p(0, 1), p(2, 0), p(1, 1), p(0, 2)
    g = px * px + pxi * pxi
    div_Y = (pxx + pxixi - 2.0 * (px * px * pxx + 2.0 * px * pxi * pxxi
                                  + pxi * pxi * pxixi) / g) / g
    return orbit.period * float(((f_x * px + f_xi * pxi) / g + f * div_Y).mean())


def loop_integrals(model: SymbolModel, orbit: Orbit) -> LoopIntegrals:
    pa = model.eval_partial_array
    return LoopIntegrals(
        S0=action_S0(orbit),
        I_p1=loop_integral_dt(orbit, lambda x, xi: pa(1, 0, 0, x, xi)),
        I_p2=loop_integral_dt(orbit, lambda x, xi: pa(2, 0, 0, x, xi)),
        period=orbit.period,
    )


def action_series(model: SymbolModel, E: float,
                  cal: SignCalibration = DEFAULT_CALIBRATION,
                  n_samples: int = 1024) -> ActionSeries:
    """S0, S1, S2 at energy E with the calibrated h^2 assembly, on one orbit.

    S1 = -loop(p1 dt); S2 combines (1/24)(d/dE) loop(Delta dt), Delta =
    p_xx p_xixi - p_xxi^2 (equal to (1/48)(d/dE)^2 loop(Gamma dt), the form of
    Colin de Verdiere, Ann. Henri Poincare 6, 2005), (1/2)(d/dE) loop(p1^2 dt)
    and loop(p2 dt) with the calibration signs.
    """
    orbit = find_orbit(model, E, n_samples=n_samples)
    loops = loop_integrals(model, orbit)
    p = lambda level, i, j: model.eval_partial_array(level, i, j, orbit.x, orbit.xi)
    pxx, pxxi, pxixi, p1 = p(0, 2, 0), p(0, 1, 1), p(0, 0, 2), p(1, 0, 0)
    pxxx, pxxxi, pxxixi, pxixixi = p(0, 3, 0), p(0, 2, 1), p(0, 1, 2), p(0, 0, 3)
    d_delta = loop_dE_dt(model, orbit, pxx * pxixi - pxxi ** 2,
                         pxxx * pxixi + pxx * pxxixi - 2.0 * pxxi * pxxxi,
                         pxxxi * pxixi + pxx * pxixixi - 2.0 * pxxi * pxxixi)
    d_p1sq = loop_dE_dt(model, orbit, p1 ** 2,
                        2.0 * p1 * p(1, 1, 0), 2.0 * p1 * p(1, 0, 1))

    S2 = (cal.sigma_Gamma * d_delta / 24.0
          + cal.sigma_p1sq * 0.5 * d_p1sq
          + cal.sigma_p2 * loops.I_p2)
    return ActionSeries(E=E, S0=loops.S0, S1=-loops.I_p1, S2=S2,
                        calibration=cal, loops=loops)


# -- Stokes / period identity --------------------------------------------------

def poly_terms_eval(terms, dx_order: int, dxi_order: int, x, xi):
    """Evaluate a mixed partial of a monomial list [(c, a, b), ...]."""
    x = np.asarray(x, dtype=float)
    xi = np.asarray(xi, dtype=float)
    out = np.zeros(np.broadcast(x, xi).shape)
    for c, a, b in terms:
        if a < dx_order or b < dxi_order:
            continue
        fa = 1.0
        for j in range(dx_order):
            fa *= a - j
        fb = 1.0
        for j in range(dxi_order):
            fb *= b - j
        out += c * fa * fb * x ** int(a - dx_order) * xi ** int(b - dxi_order)
    return out


def stokes_check(model: SymbolModel, E: float, f_terms, g_terms,
                 n_samples: int = 1024) -> float:
    """Residual of the differentiated Stokes identity for Omega = f dx + g dxi.

    Returns |d/dE loop(f dx + g dxi) + int_0^T (d_x g - d_xi f) dt|; with the
    flow orientation the enclosed disk is negatively oriented, hence the
    relative plus sign (fixed by the harmonic f = xi, g = 0 benchmark).
    """
    def loop_form(e: float) -> float:
        orb = find_orbit(model, e, n_samples=n_samples)
        xdot = model.eval_partial_array(0, 0, 1, orb.x, orb.xi)
        xidot = -model.eval_partial_array(0, 1, 0, orb.x, orb.xi)
        fv = poly_terms_eval(f_terms, 0, 0, orb.x, orb.xi)
        gv = poly_terms_eval(g_terms, 0, 0, orb.x, orb.xi)
        return orb.period * float((fv * xdot + gv * xidot).mean())

    lhs = dE_derivative(loop_form, E, 1)
    orb = find_orbit(model, E, n_samples=n_samples)
    curl = (poly_terms_eval(g_terms, 1, 0, orb.x, orb.xi)
            - poly_terms_eval(f_terms, 0, 1, orb.x, orb.xi))
    rhs = orb.period * float(curl.mean())
    return abs(lhs + rhs)
