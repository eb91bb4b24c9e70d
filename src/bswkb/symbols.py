"""Phase-space symbols p(x, xi; h) = p0 + h*p1 + h^2*p2 and their partial derivatives.

Symbols are sums of monomials c * x^a * xi^b per level, optionally augmented
(level 0 only) by a named potential term with closed-form x-derivatives
(Morse, Poschl-Teller).  All evaluators are pure; models are immutable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

FAMILIES = ("polynomial", "harmonic", "quartic-well", "morse", "poschl-teller", "custom")

_EPS = np.finfo(float).eps

_POLAR_SCAN_BYTES = 1 << 25  # polar scans kept per model: one at n = 65536

# central stencils for derivative orders 1..4, second-order accurate
_STENCILS = {
    0: ((0,), (1.0,)),
    1: ((-1, 1), (-0.5, 0.5)),
    2: ((-1, 0, 1), (1.0, -2.0, 1.0)),
    3: ((-2, -1, 1, 2), (-0.5, 1.0, -1.0, 0.5)),
    4: ((-2, -1, 0, 1, 2), (1.0, -4.0, 6.0, -4.0, 1.0)),
}


class SymbolError(ValueError):
    """Malformed symbol configuration or unsupported evaluation request."""


def _tanh_poly_table(max_order: int) -> list[np.poly1d]:
    # d^k/du^k sech^2(u) as polynomials in t = tanh(u), via t' = 1 - t^2
    polys = [np.poly1d([-1.0, 0.0, 1.0])]  # 1 - t^2
    for _ in range(max_order):
        p = polys[-1]
        polys.append(np.poly1d(p.deriv() * np.poly1d([-1.0, 0.0, 1.0])))
    return polys


_SECH2_POLYS = _tanh_poly_table(8)


@dataclass(frozen=True)
class PotentialTerm:
    """Named x-only potential added to p0, with exact derivatives up to order 8."""

    kind: str  # "morse" | "poschl-teller"
    A: float
    a: float

    def deriv(self, order: int, x: float) -> float:
        A, a = self.A, self.a
        if self.kind == "morse":
            # V = A (e^{-2ax} - 2 e^{-ax})
            return A * ((-2.0 * a) ** order * math.exp(-2.0 * a * x)
                        - 2.0 * (-a) ** order * math.exp(-a * x))
        if self.kind == "poschl-teller":
            # V = -A sech^2(ax)
            t = math.tanh(a * x)
            return -A * a ** order * float(_SECH2_POLYS[order](t))
        raise SymbolError(f"unknown potential kind {self.kind!r}")

    def deriv_array(self, order: int, x: np.ndarray) -> np.ndarray:
        A, a = self.A, self.a
        if self.kind == "morse":
            return A * ((-2.0 * a) ** order * np.exp(-2.0 * a * x)
                        - 2.0 * (-a) ** order * np.exp(-a * x))
        return -A * a ** order * _SECH2_POLYS[order](np.tanh(a * x))


def _as_term_arrays(terms) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    if not terms:
        return (np.zeros(0), np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
    coeff = np.array([t[0] for t in terms], dtype=float)
    xp = np.array([t[1] for t in terms], dtype=np.int64)
    kp = np.array([t[2] for t in terms], dtype=np.int64)
    if not np.all(np.isfinite(coeff)):
        raise SymbolError("non-finite monomial coefficient")
    if np.any(xp < 0) or np.any(kp < 0):
        raise SymbolError("negative monomial power")
    return coeff, xp, kp


def _falling(k: int, d: int) -> float:
    # k (k-1) ... (k-d+1); zero once d > k
    out = 1.0
    for j in range(d):
        out *= k - j
    return out


@dataclass(frozen=True)
class SymbolModel:
    """Immutable symbol p = p0 + h p1 + h^2 p2 with monomial levels."""

    family: str
    terms_p0: tuple = ()
    terms_p1: tuple = ()
    terms_p2: tuple = ()
    potential: PotentialTerm | None = None
    derivative_mode: str = "analytic"
    _levels: tuple = field(init=False, repr=False, default=())

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise SymbolError(f"unknown family {self.family!r}")
        if self.derivative_mode not in ("analytic", "finite-difference"):
            raise SymbolError(f"unknown derivative_mode {self.derivative_mode!r}")
        levels = tuple(_as_term_arrays(t) for t in
                       (self.terms_p0, self.terms_p1, self.terms_p2))
        object.__setattr__(self, "_levels", levels)

    @property
    def xi_degree(self) -> int:
        deg = 0
        for _, _, kp in self._levels:
            if kp.size:
                deg = max(deg, int(kp.max()))
        return deg

    def term_arrays(self, level: int):
        """(coeff, x_pow, xi_pow) arrays for one level (kernel packing)."""
        return self._levels[level]

    # -- evaluation ----------------------------------------------------------

    def eval(self, level: int, x: float, xi: float) -> float:
        return self.eval_partial(level, 0, 0, x, xi)

    def eval_partial(self, level: int, dx_order: int, dxi_order: int,
                     x: float, xi: float) -> float:
        """Mixed partial d^dx/dx^dx d^dxi/dxi^dxi of the level symbol at (x, xi)."""
        if not (0 <= dx_order <= 4 and 0 <= dxi_order <= 4 and dx_order + dxi_order <= 8):
            raise SymbolError(f"derivative order ({dx_order},{dxi_order}) out of range")
        if self.derivative_mode == "finite-difference" and dx_order + dxi_order > 0:
            return self._eval_partial_fd(level, dx_order, dxi_order, x, xi)
        return self._eval_partial_analytic(level, dx_order, dxi_order, x, xi)

    def _eval_partial_analytic(self, level, dx, dxi, x, xi) -> float:
        coeff, xp, kp = self._levels[level]
        out = 0.0
        for c, a, b in zip(coeff, xp, kp):
            if a < dx or b < dxi:
                continue
            out += (c * _falling(int(a), dx) * x ** int(a - dx)
                    * _falling(int(b), dxi) * xi ** int(b - dxi))
        if level == 0 and self.potential is not None and dxi == 0:
            out += self.potential.deriv(dx, x)
        return out

    def _eval_partial_fd(self, level, dx, dxi, x, xi) -> float:
        def stencil_sum(eps_x, eps_xi):
            ox, wx = _STENCILS[dx]
            oxi, wxi = _STENCILS[dxi]
            s = 0.0
            for i, wi in zip(ox, wx):
                for j, wj in zip(oxi, wxi):
                    s += wi * wj * self._eval_partial_analytic(
                        level, 0, 0, x + i * eps_x, xi + j * eps_xi)
            return s / (eps_x ** dx * eps_xi ** dxi if dx and dxi else
                        eps_x ** dx if dx else eps_xi ** dxi)

        # step balances roundoff eps/step^k against the extrapolated truncation
        # O(step^4), with k the total order; the Richardson pair goes upward
        # (step, 2*step) so cancellation noise is not amplified
        k = dx + dxi
        base = _EPS ** (1.0 / (k + 4))
        ex = base * (1.0 + abs(x)) if dx else 1.0
        exi = base * (1.0 + abs(xi)) if dxi else 1.0
        d_coarse = stencil_sum(2.0 * ex, 2.0 * exi)
        d_fine = stencil_sum(ex, exi)
        return (4.0 * d_fine - d_coarse) / 3.0

    def eval_partial_array(self, level: int, dx_order: int, dxi_order: int,
                           x, xi) -> np.ndarray:
        """Vectorized analytic eval_partial over sample arrays."""
        x = np.asarray(x, dtype=float)
        xi = np.asarray(xi, dtype=float)
        coeff, xp, kp = self._levels[level]
        out = np.zeros(np.broadcast(x, xi).shape)
        for c, a, b in zip(coeff, xp, kp):
            if a < dx_order or b < dxi_order:
                continue
            out += (c * _falling(int(a), dx_order) * x ** int(a - dx_order)
                    * _falling(int(b), dxi_order) * xi ** int(b - dxi_order))
        if level == 0 and self.potential is not None and dxi_order == 0:
            out += self.potential.deriv_array(dx_order, x)
        return out

    # -- convenience views ---------------------------------------------------

    def swapped(self) -> "SwappedSymbol":
        return SwappedSymbol(self)

    # -- well minimum ----------------------------------------------------------

    @cached_property
    def well_minimum(self) -> tuple[float, float, float]:
        """(x*, xi*, E_min): the minimum of p0 over phase space.

        Seeded by the lowest node of a grid on [-4, 4]^2, then damped Newton
        on grad p0 = 0 with the analytic Hessian; a singular or indefinite
        Hessian (degenerate minima such as x^4) falls back to a gradient step,
        and every step must lower p0.
        """
        pa = lambda i, j, x, xi: float(self.eval_partial_array(0, i, j, x, xi))
        grid = np.linspace(-4.0, 4.0, 65)
        vals = self.eval_partial_array(0, 0, 0, grid[:, None], grid[None, :])
        i, j = np.unravel_index(np.argmin(vals), vals.shape)
        z = np.array([grid[i], grid[j]])
        p = float(vals[i, j])
        for _ in range(200):
            g = np.array([pa(1, 0, *z), pa(0, 1, *z)])
            H = np.array([[pa(2, 0, *z), pa(1, 1, *z)], [pa(1, 1, *z), pa(0, 2, *z)]])
            step = -g
            if H[0, 0] > 0.0 and np.linalg.det(H) > 0.0:
                step = -np.linalg.solve(H, g)
            for _ in range(60):
                p_new = pa(0, 0, *(z + step))
                if p_new < p:
                    break
                step = 0.5 * step
            else:
                break
            z, p = z + step, p_new
            if np.hypot(*step) <= 1e-15 * (1.0 + np.hypot(*z)):
                break
        return float(z[0]), float(z[1]), p

    @cached_property
    def _polar_scans(self) -> dict:
        return {}

    def polar_scan(self, n: int, R: float):
        """(ux, uxi, grid): the n rays from the well minimum at angles
        -2 pi k / n (clockwise; angle 0 points along +x) and p0 at radii
        R i / 32, i = 1..32, on them (grid row i - 1).

        Energy-independent, so kept per (n, R) for later orbits; the oldest
        scans are dropped to hold the model's scans to 32 MB.
        """
        scans = self._polar_scans
        scan = scans.get((n, R))
        if scan is None:
            x0, xi0, _ = self.well_minimum
            theta = -2.0 * np.pi * np.arange(n) / n
            ux, uxi = np.cos(theta), np.sin(theta)
            radii = R * np.arange(1, 33) / 32
            grid = self.eval_partial_array(0, 0, 0, x0 + radii[:, None] * ux,
                                           xi0 + radii[:, None] * uxi)
            scan = ux, uxi, grid
            for a in scan:
                a.flags.writeable = False
            size = lambda s: sum(a.nbytes for a in s)
            held = sum(size(s) for s in scans.values())
            while scans and held + size(scan) > _POLAR_SCAN_BYTES:
                held -= size(scans.pop(next(iter(scans))))
            if size(scan) <= _POLAR_SCAN_BYTES:
                scans[(n, R)] = scan
        return scan


class SwappedSymbol:
    """View of a model under the metaplectic exchange (x, xi) -> (xi, -x).

    eval_partial of the view at (u, v) equals (-1)^dx * d_x^dxi d_xi^dx of the
    base symbol at (v, -u); used to drive the Fourier-side chart machinery on
    the spatial side.
    """

    def __init__(self, base: SymbolModel):
        self.base = base

    @property
    def xi_degree(self):  # max x-power of the base, unused by charts
        return max((int(xp.max()) if xp.size else 0)
                   for _, xp, _ in (self.base.term_arrays(k) for k in range(3)))

    def eval(self, level, x, xi):
        return self.eval_partial(level, 0, 0, x, xi)

    def eval_partial(self, level, dx_order, dxi_order, x, xi):
        sign = -1.0 if dx_order % 2 else 1.0
        return sign * self.base.eval_partial(level, dxi_order, dx_order, xi, -x)


# -- builtin families and config parsing -------------------------------------

def _builtin_p0(family: str, params: dict):
    if family == "harmonic":
        return ((1.0, 0, 2), (1.0, 2, 0)), None
    if family == "quartic-well":
        return ((1.0, 0, 2), (1.0, 4, 0)), None
    if family in ("morse", "poschl-teller"):
        A = float(params.get("A", 1.0))
        a = float(params.get("a", 1.0))
        if A <= 0 or a <= 0:
            raise SymbolError(f"{family} parameters must be positive")
        return ((1.0, 0, 2),), PotentialTerm(family, A, a)
    return (), None


def make_model(family: str, p0=None, p1=None, p2=None, params=None,
               derivative_mode: str = "analytic") -> SymbolModel:
    """Assemble a model; builtin families expand to explicit p0 terms."""
    params = params or {}
    if family not in FAMILIES:
        raise SymbolError(f"unknown family {family!r}")
    potential = None
    terms0 = tuple(tuple(t) for t in (p0 or ()))
    if family not in ("polynomial", "custom"):
        base0, potential = _builtin_p0(family, params)
        terms0 = base0 + terms0
    elif not terms0:
        raise SymbolError("polynomial family requires explicit p0 terms")
    return SymbolModel(
        family=family,
        terms_p0=terms0,
        terms_p1=tuple(tuple(t) for t in (p1 or ())),
        terms_p2=tuple(tuple(t) for t in (p2 or ())),
        potential=potential,
        derivative_mode=derivative_mode,
    )


_KNOWN_KEYS = {"family", "p0", "p1", "p2", "morse", "poschl-teller", "derivative_mode"}


def parse_symbol_config(text: str) -> SymbolModel:
    """Parse a YAML/JSON config document into a SymbolModel.

    Schema: family: str; p0/p1/p2: lists of [coeff, x_power, xi_power];
    optional family parameter blocks (morse: {A, a}).  Unknown keys rejected.
    """
    import yaml

    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise SymbolError(f"malformed config document: {exc}") from exc
    if not isinstance(doc, dict):
        raise SymbolError("config must be a mapping")
    unknown = set(doc) - _KNOWN_KEYS
    if unknown:
        raise SymbolError(f"unknown config keys: {sorted(unknown)}")
    family = doc.get("family")
    if family not in FAMILIES:
        raise SymbolError(f"unknown family {family!r}")

    def term_list(key):
        raw = doc.get(key)
        if raw is None:
            return None
        if not isinstance(raw, list):
            raise SymbolError(f"{key} must be a list of [coeff, x_power, xi_power]")
        terms = []
        for entry in raw:
            if not (isinstance(entry, (list, tuple)) and len(entry) == 3):
                raise SymbolError(f"bad monomial in {key}: {entry!r}")
            c, a, b = entry
            if int(a) != a or int(b) != b or int(a) < 0 or int(b) < 0:
                raise SymbolError(f"powers must be nonnegative integers in {key}: {entry!r}")
            terms.append((float(c), int(a), int(b)))
        return terms

    params = doc.get(family, {}) if family in ("morse", "poschl-teller") else {}
    if params and not isinstance(params, dict):
        raise SymbolError(f"{family} parameters must be a mapping")
    return make_model(
        family,
        p0=term_list("p0"),
        p1=term_list("p1"),
        p2=term_list("p2"),
        params=params,
        derivative_mode=doc.get("derivative_mode", "analytic"),
    )
