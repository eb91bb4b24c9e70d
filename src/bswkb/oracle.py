"""Reference spectra by direct diagonalization of the Weyl-quantized operator.

4th-order grid stencils with Dirichlet truncation, held only as the upper
band (3, N): banded LAPACK eigenvalues (*sbevx / *hbevx) and banded inverse
iteration for the boundary check, at N and 2N with a Richardson estimate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eig_banded, solve_banded
from scipy.optimize import brentq
from scipy.sparse import dia_matrix

from .symbols import SymbolModel


class OracleError(RuntimeError):
    """Discretization or refinement failure."""


@dataclass(frozen=True)
class OracleSpectrum:
    h: float
    domain: tuple
    grid_size: int
    eigenvalues: np.ndarray      # Richardson-extrapolated, lowest m
    error_estimates: np.ndarray  # |E_2N - E_N| / 15 per eigenvalue
    raw_coarse: np.ndarray
    raw_fine: np.ndarray


def _level_coefficients(model: SymbolModel, level: int):
    """Collect x-polynomial coefficient arrays per xi-power for one level."""
    coeff, xp, kp = model.term_arrays(level)
    out = {0: [], 1: [], 2: []}
    for c, a, b in zip(coeff, xp, kp):
        if b > 2:
            raise OracleError("xi_degree > 2 not quantizable on a grid")
        out[int(b)].append((float(c), int(a)))
    return out


def _poly_on_grid(pairs, x, deriv=0):
    out = np.zeros_like(x)
    for c, a in pairs:
        if a < deriv:
            continue
        f = 1.0
        for j in range(deriv):
            f *= a - j
        out += c * f * x ** (a - deriv)
    return out


def _band(model: SymbolModel, h: float, domain, N: int) -> np.ndarray:
    """Upper band of P on the interior grid, 4th-order stencils, Dirichlet.

    Row 2 - k of the (3, N) array holds diagonal k (``eig_banded(lower=False)``).
    The xi^2 coefficient must be x-independent (true for all supported
    families); degree-1 Weyl terms use the exactly symmetrized form
    (c hD + hD c)/2 and make the band complex Hermitian.
    """
    if model.xi_degree > 2:
        raise OracleError("xi_degree > 2 not quantizable on a grid")
    if N < 64:
        raise OracleError("N must be >= 64")
    lo, hi = float(domain[0]), float(domain[1])
    dx = (hi - lo) / (N + 1)
    x = lo + dx * np.arange(1, N + 1)
    d2 = np.array([-30.0, 16.0, -1.0]) / (12.0 * dx * dx)  # offsets 0, 1, 2
    d1 = np.array([0.0, 8.0, -1.0]) / (12.0 * dx)

    levels = [_level_coefficients(model, level) for level in range(3)]
    band = np.zeros((3, N), dtype=complex)
    for scale, level, cs in zip((1.0, h, h * h), range(3), levels):
        c0, c1, c2 = (_poly_on_grid(cs[b], x) for b in range(3))
        if level == 0 and model.potential is not None:
            c0 = c0 + model.potential.deriv_array(0, x)
        if np.ptp(c2) > 1e-14 * max(1.0, np.abs(c2).max()):
            raise OracleError("x-dependent xi^2 coefficient unsupported")
        for k in range(3):
            # -h^2 c2 D2 and (c1 hD + hD c1)/2 between nodes i and i + k
            B = -h * h * c2[0] * d2[k] + (-0.5j * h) * (c1[:N - k] * d1[k] + d1[k] * c1[k:])
            band[2 - k, k:] += scale * (B + c0 if k == 0 else B)
    return band if any(cs[1] for cs in levels) else band.real.copy()


def _hermitian_dia(band: np.ndarray) -> dia_matrix:
    """The operator from its upper band; the data rows (diagonals 2 .. -2)
    are also the (l, u) = (2, 2) layout of ``solve_banded``."""
    N = band.shape[1]
    rows = np.zeros((5, N), dtype=band.dtype)
    rows[:3] = band
    rows[3, :-1] = band[1, 1:].conj()
    rows[4, :-2] = band[0, 2:].conj()
    return dia_matrix((rows, (2, 1, 0, -1, -2)), shape=(N, N))


def discretize(model: SymbolModel, h: float, domain, N: int) -> np.ndarray:
    """Dense Hermitian matrix of P on the interior grid (Dirichlet boundary).

    The dense view of the band the oracle works on, for tests and users; the
    lower triangle mirrors the upper one, so A == A^H holds exactly.
    """
    return _hermitian_dia(_band(model, h, domain, N)).toarray()


def _lowest_eigs(band: np.ndarray, m: int, vectors: bool = False):
    """Lowest m eigenvalues (ascending) of the banded operator; with
    ``vectors``, unit eigenvectors by two inverse-iteration steps just below
    each eigenvalue, checked by their residuals."""
    vals = eig_banded(band, lower=False, eigvals_only=True,
                      select="i", select_range=(0, m - 1))
    if not vectors:
        return vals
    A = _hermitian_dia(band)
    start = np.random.default_rng(0).standard_normal(band.shape[1])
    vecs = np.empty((band.shape[1], m), dtype=band.dtype)
    for j, lam in enumerate(vals):
        shifted = A.data.copy()
        shifted[2] -= lam - 1e-10 * max(1.0, abs(lam))
        v = start
        for _ in range(2):
            v = solve_banded((2, 2), shifted, v)
            v /= np.linalg.norm(v)
        vecs[:, j] = v
    res = np.linalg.norm(A @ vecs - vecs * vals, axis=0)
    norm_inf = abs(A).sum(axis=1).max()
    if np.any(res > 1e-10 * norm_inf):
        raise OracleError(f"inverse iteration residual {res.max():.2e}, ||A|| {norm_inf:.2e}")
    return vals, vecs


def _auto_domain(model: SymbolModel, E_top: float, h: float):
    """Symmetric-ish box: turning points at E_top plus a forbidden margin
    thick enough that the tunneling integral kills boundary mass."""
    def outer_root(side):
        x = 1.0 * side
        for _ in range(90):
            if model.eval(0, x, 0.0) > E_top:
                break
            x *= 1.5
        else:
            raise OracleError("potential does not confine at requested energy")
        return brentq(lambda y: model.eval(0, y, 0.0) - E_top,
                      min(0.0, x), max(0.0, x), xtol=1e-12)

    x_r = outer_root(+1)
    x_l = outer_root(-1)
    width = x_r - x_l

    def widen(x_edge, side):
        # extend until int sqrt(V - E_top)/h dx >= 24 (boundary mass ~ e^-48)
        step = 0.05 * width
        x = x_edge
        acc = 0.0
        while acc < 24.0 * h and abs(x - x_edge) < 50.0 * width:
            v = model.eval(0, x + side * 0.5 * step, 0.0) - E_top
            acc += np.sqrt(max(v, 0.0)) * step
            x += side * step
        if acc < 24.0 * h:
            raise OracleError("cannot build a forbidden margin (well too shallow)")
        return x

    lo = widen(x_l, -1)
    hi = widen(x_r, +1)
    pad = 0.08 * (hi - lo)
    return lo - pad, hi + pad


def _auto_N(model: SymbolModel, E_top: float, h: float, domain) -> int:
    # resolve the fastest oscillation: k_max dx <= 0.1
    vmin = min(model.eval(0, x, 0.0) for x in np.linspace(domain[0], domain[1], 512))
    # xi^2 coefficient (constant by construction)
    cs = _level_coefficients(model, 0)
    c2 = cs[2][0][0] if cs[2] else 1.0
    k_max = np.sqrt(max(E_top - vmin, 1e-12) / c2) / h
    L = domain[1] - domain[0]
    N = int(np.ceil(k_max * L / 0.1))
    return int(np.clip(512 * int(np.ceil(N / 512)), 512, 2048))


def classical_energy_top(model: SymbolModel, h: float, m: int) -> float:
    """Rough upper energy for m levels from the leading action (box sizing only)."""
    from .actions import action_S0
    from .orbits import find_orbit

    target = 2.0 * np.pi * h * (m + 1.5)
    E_min = well_minimum(model)
    E = E_min + max(0.5 * h, 1e-4 * max(1.0, abs(E_min)))
    for _ in range(200):
        orb = find_orbit(model, E, n_samples=512)
        S = action_S0(orb)
        if S >= target:
            return E
        step = (E - E_min) * 0.6
        E = E + max(step, 0.05 * h)
    raise OracleError("requested level count outside the well")


def well_minimum(model: SymbolModel) -> float:
    """Minimum of p0 over phase space (well bottom)."""
    from scipy.optimize import minimize

    best = None
    for x0 in np.linspace(-3.0, 3.0, 13):
        res = minimize(lambda z: model.eval(0, z[0], z[1]), np.array([x0, 0.0]),
                       method="Nelder-Mead",
                       options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 2000})
        if best is None or res.fun < best:
            best = float(res.fun)
    return best


def oracle_spectrum(model: SymbolModel, h: float, m: int, domain=None,
                    N: int | None = None) -> OracleSpectrum:
    """Lowest m eigenvalues with N -> 2N Richardson refinement (4th order)."""
    if domain is None or N is None:
        E_top = classical_energy_top(model, h, m)
        if domain is None:
            domain = _auto_domain(model, E_top, h)
        if N is None:
            N = _auto_N(model, E_top, h, domain)
    lo, hi = float(domain[0]), float(domain[1])
    e_coarse = _lowest_eigs(_band(model, h, (lo, hi), N), m)
    e_fine, vecs = _lowest_eigs(_band(model, h, (lo, hi), 2 * N), m, vectors=True)
    edge = max(8, int(0.05 * 2 * N))
    mass = (np.abs(vecs[:edge]) ** 2 + np.abs(vecs[-edge:]) ** 2).sum(axis=0)
    if np.any(mass > 1e-8):  # the vectors are unit vectors
        raise OracleError("boundary-truncation check failed: enlarge domain")
    extrap = (16.0 * e_fine - e_coarse) / 15.0
    est = np.abs(e_fine - e_coarse) / 15.0
    bad = est > 1e-7 * np.maximum(1.0, np.abs(extrap))
    if np.any(bad):
        raise OracleError(
            f"refinement estimate too large for levels {np.nonzero(bad)[0].tolist()}")
    return OracleSpectrum(h=h, domain=(lo, hi), grid_size=N,
                          eigenvalues=extrap, error_estimates=est,
                          raw_coarse=e_coarse, raw_fine=e_fine)
