"""Reference eigenvalues computed without bswkb.

Closed-form Bohr-Sommerfeld levels and a sinc-DVR (discrete variable
representation) diagonalizer for ``-h^2 d^2/dx^2 + V(x)``.  The benchmark
checks bswkb's outputs against these values outside its timed interval.

Run ``python3 perfbench/ref.py`` for the self-test.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import eigh
from scipy.special import beta

# S0(E) = B(1/4, 3/2) E^(3/4) on the quartic well xi^2 + x^4
QUARTIC_ACTION = beta(0.25, 1.5)


def quartic_level(n: int, h: float) -> float:
    """Order-0 level of xi^2 + x^4; also order 1 when p1 is odd in x."""
    return (2.0 * math.pi * h * (n + 0.5) / QUARTIC_ACTION) ** (4.0 / 3.0)


def exp_well_level(n: int, h: float, A: float, a: float) -> float:
    """Order-0/1 level of the Morse and Poschl-Teller wells (p1 = 0).

    Both have loop action (2 pi / a)(sqrt(A) - sqrt(-E)).
    """
    return -(math.sqrt(A) - a * h * (n + 0.5)) ** 2


def sinc_dvr(V, h: float, m: int, lo: float, hi: float, dx: float) -> np.ndarray:
    """Lowest m eigenvalues of -h^2 d^2/dx^2 + V on a sinc grid over [lo, hi]."""
    n = int(math.ceil((hi - lo) / dx)) + 1
    x = np.linspace(lo, hi, n)
    dx = x[1] - x[0]
    k = np.arange(n)
    d = (k[:, None] - k[None, :]).astype(float)
    off = d != 0.0
    T = np.full((n, n), math.pi ** 2 / 3.0)
    T[off] = 2.0 * np.where(d[off] % 2 == 0, 1.0, -1.0) / d[off] ** 2
    H = (h / dx) ** 2 * T
    H[np.diag_indices(n)] += V(x)
    return eigh(H, eigvals_only=True, subset_by_index=(0, m - 1))


def _box(V, E_top: float, h: float):
    """Box around x = 0 whose edges lie deep in the forbidden region at E_top.

    Each edge sits where the tunnelling integral from the turning point,
    int sqrt(V - E_top) dx / h, reaches 40 (boundary weight ~ e^-80).
    """
    def edge(side):
        x, step = 0.0, 1e-3
        while V(x) < E_top:
            x += side * step
            step *= 1.05
        acc, step = 0.0, 1e-3
        while acc < 40.0 * h:
            acc += math.sqrt(max(V(x + 0.5 * side * step) - E_top, 0.0)) * step
            x += side * step
            step = min(step * 1.05, 0.01)
        return x

    return edge(-1), edge(+1)


def well_levels(V, h: float, m: int, E_top: float, V_min: float,
                refine: float = 1.0) -> np.ndarray:
    """Lowest m levels of a single well, sinc grid sized from E_top.

    The spacing resolves momenta up to 3 sqrt(E_top - V_min) with margin;
    ``refine`` > 1 shrinks it and widens the box for a convergence check.
    """
    lo, hi = _box(V, E_top, h)
    pad = (refine - 1.0) * (hi - lo)
    p_max = 3.0 * math.sqrt(max(E_top - V_min, h))
    dx = 0.5 * math.pi * h / p_max / refine
    return sinc_dvr(V, h, m, lo - pad, hi + pad, dx)


def quartic_levels(h: float, m: int, c: float = 0.0, c2: float = 0.0,
                   refine: float = 1.0) -> np.ndarray:
    """Exact lowest m levels of Op_w(xi^2 + x^4 + h c x + h^2 c2)."""
    V = lambda x: x ** 4 + h * c * x + h * h * c2
    E_top = 1.5 * quartic_level(m, h) + h * abs(c) + h * h * abs(c2)
    return well_levels(V, h, m, E_top, -abs(h * c) ** (4.0 / 3.0), refine=refine)


def self_test() -> list[str]:
    """Failures of the DVR against the harmonic spectrum and a finer grid."""
    fails = []
    h = 0.1
    got = well_levels(lambda x: x * x, h, 12, 3.0, 0.0)
    exact = h * (2.0 * np.arange(12) + 1.0)
    err = float(np.abs(got - exact).max())
    if err > 1e-12:
        fails.append(f"harmonic DVR error {err:.2e} > 1e-12")
    for hq, m, c, c2 in ((0.1, 5, 1.0, 0.5), (0.02, 20, 1.0, 0.0)):
        a = quartic_levels(hq, m, c, c2)
        b = quartic_levels(hq, m, c, c2, refine=1.3)
        err = float(np.abs(a - b).max())
        if err > 1e-12:
            fails.append(f"quartic DVR h={hq} grid change {err:.2e} > 1e-12")
    return fails


if __name__ == "__main__":
    import sys
    import time

    t0 = time.perf_counter()
    failures = self_test()
    for line in failures:
        print("FAIL", line)
    print(f"sinc-DVR self-test: {'FAIL' if failures else 'ok'} "
          f"({time.perf_counter() - t0:.3f} s)")
    sys.exit(1 if failures else 0)
