"""Bohr-Sommerfeld quantization to order h^2 and the Gram-determinant locator."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import brentq

from .actions import (DEFAULT_CALIBRATION, SignCalibration, action_S0,
                      action_series, loop_integral_dt)
from .oracle import oracle_spectrum
from .orbits import find_orbit
from .symbols import SymbolModel, make_model


class QuantizeError(RuntimeError):
    """Bracketing or root-refinement failure."""


class CalibrationError(RuntimeError):
    """Sign calibration indeterminate or inconsistent."""


@dataclass(frozen=True)
class SpectrumEntry:
    n: int
    E: float
    bs_residual: float
    bracket: tuple


@dataclass(frozen=True)
class SpectrumResult:
    h: float
    order: int
    entries: tuple
    calibration: SignCalibration

    @property
    def energies(self) -> np.ndarray:
        return np.array([e.E for e in self.entries])


class BSSolver:
    """Caches action evaluations S(E) for one (model, h, order, cal)."""

    def __init__(self, model: SymbolModel, h: float, order: int = 2,
                 cal: SignCalibration = DEFAULT_CALIBRATION, n_samples: int = 1024):
        if order not in (0, 1, 2):
            raise ValueError("order must be 0, 1 or 2")
        self.model = model
        self.h = h
        self.order = order
        self.cal = cal
        self.n_samples = n_samples
        self._S_cache: dict[float, float] = {}

    @property
    def E_min(self) -> float:
        return self.model.well_minimum[2]

    def S(self, E: float) -> float:
        """Total action S0 + h S1 [order>=1] + h^2 S2 [order>=2]."""
        val = self._S_cache.get(E)
        if val is not None:
            return val
        if self.order == 2:
            ser = action_series(self.model, E, self.cal, n_samples=self.n_samples)
            val = ser.S0 + self.h * ser.S1 + self.h * self.h * ser.S2
        else:
            orb = find_orbit(self.model, E, n_samples=self.n_samples)
            val = action_S0(orb)
            if self.order >= 1:
                pa = self.model.eval_partial_array
                val += self.h * (-loop_integral_dt(
                    orb, lambda x, xi: pa(1, 0, 0, x, xi)))
        self._S_cache[E] = val
        return val

    # -- root finding -----------------------------------------------------------

    def _bracket(self, target: float, where: str):
        E_min = self.E_min
        span0 = max(0.25 * self.h, 1e-4 * max(1.0, abs(E_min)))
        E_lo = E_min + span0
        S_lo = self.S(E_lo)
        while S_lo > target:
            span0 *= 0.25
            if span0 < 1e-12 * max(1.0, abs(E_min)):
                raise QuantizeError(f"{where}: target below the well, S = {S_lo:.10g} "
                                    f"at E = {E_lo:.10g} (E_min = {E_min:.10g})")
            E_lo = E_min + span0
            S_lo = self.S(E_lo)
        E_hi = E_lo
        step = max(self.h, 0.1 * max(1.0, abs(E_lo)))
        for _ in range(200):
            E_hi = E_hi + step
            try:
                S_hi = self.S(E_hi)
            except Exception as exc:
                raise QuantizeError(f"{where}: level outside the well, S(E) failed at "
                                    f"E = {E_hi:.10g} (bracket from E = {E_lo:.10g}): "
                                    f"{exc}") from exc
            if S_hi > target:
                return E_lo, E_hi
            step *= 1.5
        raise QuantizeError(f"{where}: failed to bracket the quantization target, "
                            f"S = {S_hi:.10g} at E = {E_hi:.10g} "
                            f"(bracket from E = {E_lo:.10g})")

    def quantize(self, n: int) -> SpectrumEntry:
        target = 2.0 * math.pi * self.h * (n + 0.5)
        where = f"level n = {n}, target 2 pi h (n + 1/2) = {target:.10g}"
        E_lo, E_hi = self._bracket(target, where)
        root = brentq(lambda e: self.S(e) - target, E_lo, E_hi,
                      xtol=1e-14, rtol=8.9e-16, maxiter=200)
        res = abs(self.S(root) - target)
        if res > 1e-10 * target:
            raise QuantizeError(f"{where}: root polish stalled, residual {res:.2e} at "
                                f"E = {root:.10g} (bracket [{E_lo:.10g}, {E_hi:.10g}])")
        return SpectrumEntry(n=n, E=float(root), bs_residual=float(res),
                             bracket=(E_lo, E_hi))

    def spectrum(self, n_max: int) -> SpectrumResult:
        entries = tuple(self.quantize(n) for n in range(n_max + 1))
        for a, b in zip(entries, entries[1:]):
            if not b.E > a.E:
                raise QuantizeError(f"energies not strictly increasing: level {a.n} at "
                                    f"E = {a.E:.10g}, level {b.n} at E = {b.E:.10g}")
        return SpectrumResult(h=self.h, order=self.order, entries=entries,
                              calibration=self.cal)

    def gram_determinant(self, E: float) -> float:
        """-cos^2(S(E,h)/2h): zero exactly at the BS energies, in [-1, 0]."""
        return -math.cos(self.S(E) / (2.0 * self.h)) ** 2


def bs_function(model: SymbolModel, h: float, order: int, cal: SignCalibration,
                E: float) -> float:
    return BSSolver(model, h, order, cal).S(E)


def quantize(model: SymbolModel, h: float, n: int, order: int = 2,
             cal: SignCalibration = DEFAULT_CALIBRATION) -> float:
    return BSSolver(model, h, order, cal).quantize(n).E


def gram_determinant(model: SymbolModel, h: float, E: float,
                     cal: SignCalibration = DEFAULT_CALIBRATION) -> float:
    return BSSolver(model, h, 2, cal).gram_determinant(E)


def spectrum(model: SymbolModel, h: float, n_max: int, order: int = 2,
             cal: SignCalibration = DEFAULT_CALIBRATION) -> SpectrumResult:
    return BSSolver(model, h, order, cal).spectrum(n_max)


# -- sign calibration -------------------------------------------------------------


def _fit_order(hs, errs) -> float:
    hs = np.asarray(hs, dtype=float)
    errs = np.maximum(np.asarray(errs, dtype=float), 1e-16)
    return float(np.polyfit(np.log(hs), np.log(errs), 1)[0])


def calibrate_signs(suite=None, h: float = 0.1,
                    quartic_hs=(0.2, 0.1, 0.05)) -> SignCalibration:
    """Pin the three h^2-term signs against exactly solvable benchmarks.

    sigma_p1sq from the shifted harmonic p1 = x (E0 = h - h^2/4), sigma_p2
    from constant p2 (E_n = h(2n+1) + c h^2), sigma_Gamma from the quartic
    well against the diagonalization oracle (smaller h = 0.05 error wins and
    the winner must converge at order >= 2.8).
    """
    if suite is not None:
        models = list(suite)
        trivial = all(
            not mod.term_arrays(1)[0].size and not mod.term_arrays(2)[0].size
            and mod.family == "harmonic"
            for mod in models)
        if trivial:
            raise CalibrationError(
                "calibration indeterminate: all correction terms vanish on the suite")

    prov = {}

    # sigma_p1sq: harmonic + p1 = x, closed form E0 = h - h^2/4
    mx = make_model("harmonic", p1=[[1.0, 1, 0]])
    closed = h - h * h / 4.0
    errs = {}
    for sig in (+1, -1):
        cal = replace(DEFAULT_CALIBRATION, sigma_p1sq=sig)
        errs[sig] = abs(BSSolver(mx, h, 2, cal).quantize(0).E - closed)
    sigma_p1sq = +1 if errs[+1] < errs[-1] else -1
    if errs[sigma_p1sq] > 1e-7:
        raise CalibrationError(
            f"p1^2 term: neither sign reproduces the closed form ({errs})")
    prov["sigma_p1sq"] = (f"harmonic + p1=x at h={h}: |E0 - (h - h^2/4)| = "
                          f"{errs[sigma_p1sq]:.2e} (other sign {errs[-sigma_p1sq]:.2e})")

    # sigma_p2: harmonic + p2 = 1, closed form E_n = h(2n+1) + h^2
    mc = make_model("harmonic", p2=[[1.0, 0, 0]])
    closed = h + h * h
    errs = {}
    for sig in (+1, -1):
        cal = replace(DEFAULT_CALIBRATION, sigma_p2=sig)
        errs[sig] = abs(BSSolver(mc, h, 2, cal).quantize(0).E - closed)
    sigma_p2 = +1 if errs[+1] < errs[-1] else -1
    if errs[sigma_p2] > 1e-7:
        raise CalibrationError(
            f"p2 term: neither sign reproduces the closed form ({errs})")
    prov["sigma_p2"] = (f"harmonic + p2=1 at h={h}: |E0 - (h + h^2)| = "
                        f"{errs[sigma_p2]:.2e} (other sign {errs[-sigma_p2]:.2e})")

    # sigma_Gamma: quartic well vs oracle
    mq = make_model("quartic-well")
    h_ref = min(quartic_hs)
    by_sign = {}
    for sig in (+1, -1):
        cal = SignCalibration(sigma_Gamma=sig, sigma_p1sq=sigma_p1sq, sigma_p2=sigma_p2)
        errs_h = []
        for hq in sorted(quartic_hs, reverse=True):
            solver = BSSolver(mq, hq, 2, cal)
            n_mid = max(1, int(round(1.748 / (2.0 * math.pi * hq) - 0.5)))
            e_bs = solver.quantize(n_mid).E
            orc = oracle_spectrum(mq, hq, n_mid + 1)
            errs_h.append(abs(e_bs - orc.eigenvalues[n_mid]))
        by_sign[sig] = errs_h
    e_plus, e_minus = by_sign[+1][-1], by_sign[-1][-1]
    sigma_Gamma = +1 if e_plus < e_minus else -1
    order_fit = _fit_order(sorted(quartic_hs, reverse=True), by_sign[sigma_Gamma])
    if order_fit < 2.8:
        raise CalibrationError(
            f"quartic benchmark: winning sign converges at order {order_fit:.2f} < 2.8")
    prov["sigma_Gamma"] = (
        f"quartic well vs oracle at h={h_ref}: err {by_sign[sigma_Gamma][-1]:.2e} "
        f"(other sign {by_sign[-sigma_Gamma][-1]:.2e}), order {order_fit:.2f}")

    return SignCalibration(sigma_Gamma=sigma_Gamma, sigma_p1sq=sigma_p1sq,
                           sigma_p2=sigma_p2, provenance=prov)
