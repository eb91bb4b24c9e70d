import importlib
import math

import numpy as np
import pytest

from bswkb.actions import DEFAULT_CALIBRATION, SignCalibration
from bswkb.quantize import (BSSolver, CalibrationError, QuantizeError,
                            bs_function, calibrate_signs, gram_determinant,
                            quantize, spectrum)
from bswkb.symbols import make_model

HARMONIC = make_model("harmonic")


def test_bs_function_harmonic():
    for E in (0.4, 1.0, 2.3):
        assert bs_function(HARMONIC, 0.1, 2, DEFAULT_CALIBRATION, E) == \
            pytest.approx(math.pi * E, abs=1e-8)


def test_bs_function_constant_p1():
    m = make_model("harmonic", p1=[[1.0, 0, 0]])
    val = bs_function(m, 0.1, 1, DEFAULT_CALIBRATION, 1.0)
    assert val == pytest.approx(math.pi * 1.0 - 0.1 * math.pi, abs=1e-10)


def test_bs_function_linear_p1():
    m = make_model("harmonic", p1=[[1.0, 1, 0]])
    h = 0.1
    val = bs_function(m, h, 2, DEFAULT_CALIBRATION, 1.0)
    assert val == pytest.approx(math.pi + h * h * math.pi / 4, abs=1e-8)


def test_quantize_harmonic():
    assert quantize(HARMONIC, 0.1, 0) == pytest.approx(0.1, abs=1e-9)
    assert quantize(HARMONIC, 0.1, 2) == pytest.approx(0.5, abs=1e-9)


def test_quantize_constant_p1():
    m = make_model("harmonic", p1=[[1.0, 0, 0]])
    assert quantize(m, 0.1, 0, order=1) == pytest.approx(0.2, abs=1e-9)


def test_quantize_linear_p1_order2():
    m = make_model("harmonic", p1=[[1.0, 1, 0]])
    assert quantize(m, 0.1, 0, order=2) == pytest.approx(0.0975, abs=1e-9)


def test_spectrum_orders_agree_for_harmonic():
    s0 = spectrum(HARMONIC, 0.1, 4, order=0)
    s2 = spectrum(HARMONIC, 0.1, 4, order=2)
    want = 0.1 * (2 * np.arange(5) + 1)
    assert np.abs(s0.energies - want).max() < 1e-9
    assert np.abs(s2.energies - s0.energies).max() < 1e-8
    for e in s2.entries:
        assert e.bs_residual <= 1e-10 * 2 * math.pi * 0.1
        assert e.bracket[0] < e.E < e.bracket[1]


def test_spectrum_monotone_and_gram_zero():
    s = spectrum(HARMONIC, 0.1, 4, order=2)
    assert np.all(np.diff(s.energies) > 0)
    solver = BSSolver(HARMONIC, 0.1, 2)
    for e in s.entries:
        assert abs(solver.gram_determinant(e.E)) <= 1e-10


def test_gram_range_and_midpoint():
    solver = BSSolver(HARMONIC, 0.1, 2)
    assert solver.gram_determinant(0.2) == pytest.approx(-1.0, abs=1e-9)
    for E in np.linspace(0.12, 0.95, 40):
        g = solver.gram_determinant(float(E))
        assert -1.0 - 1e-12 <= g <= 0.0


def test_gram_zero_locator_scan():
    """No spurious zeros of the Gram locator between consecutive levels."""
    solver = BSSolver(HARMONIC, 0.1, 2)
    s = spectrum(HARMONIC, 0.1, 2, order=2)
    for a, b in zip(s.entries, s.entries[1:]):
        gap = b.E - a.E
        interior = np.linspace(a.E + gap / 20, b.E - gap / 20, 200)
        vals = np.array([solver.gram_determinant(float(E)) for E in interior])
        assert np.all(np.abs(vals) > 1e-6)


def test_order_dominance_vs_oracle():
    """order-2 error <= order-1 error <= order-0 error against the oracle."""
    from bswkb.oracle import oracle_spectrum

    m = make_model("harmonic", p1=[[1.0, 1, 0]], p2=[[1.0, 0, 0]])
    h = 0.1
    orc = oracle_spectrum(m, h, 3)
    errs = []
    for order in (0, 1, 2):
        s = spectrum(m, h, 2, order=order)
        errs.append(np.abs(s.energies - orc.eigenvalues[:3]).max())
    tol = orc.error_estimates.max()
    assert errs[2] <= errs[1] + tol
    assert errs[1] <= errs[0] + tol


@pytest.mark.parametrize("h", [0.1, 0.05])
@pytest.mark.parametrize("family,exact,tol", [
    pytest.param("morse", lambda h, n: -(2.0 - h * (n + 0.5)) ** 2,
                 lambda h: 1e-10, id="morse"),
    # order 2 leaves the O(h^4) remainder of the exact Poschl-Teller levels
    pytest.param("poschl-teller",
                 lambda h, n: -(math.sqrt(4.0 + h * h / 4) - h * (n + 0.5)) ** 2,
                 lambda h: 1e-2 * h ** 4, id="poschl-teller"),
])
def test_order2_exact_wells(family, exact, tol, h):
    """Order-2 levels of the A = 4, a = 1 wells against their closed forms."""
    s = spectrum(make_model(family, params={"A": 4.0, "a": 1.0}), h, 3, order=2)
    want = np.array([exact(h, n) for n in range(4)])
    assert np.abs(s.energies - want).max() < tol(h)


def test_order2_near_well_bottom_coarse_h():
    """Quartic ground state at h = 0.4, within ~0.1 of the well bottom."""
    from bswkb.oracle import oracle_spectrum

    q = make_model("quartic-well")
    ref = oracle_spectrum(q, 0.4, 1).eigenvalues[0]
    e2 = BSSolver(q, 0.4, 2).quantize(0).E
    assert abs(e2 - ref) < abs(BSSolver(q, 0.4, 0).quantize(0).E - ref)


def test_order2_S_integrates_one_orbit(monkeypatch):
    # by module path: the package attribute `bswkb.quantize` is a function
    actions, quantize_mod = (importlib.import_module(f"bswkb.{name}")
                             for name in ("actions", "quantize"))
    energies = []
    find_orbit = actions.find_orbit

    def counted(model, E, *args, **kwargs):
        energies.append(E)
        return find_orbit(model, E, *args, **kwargs)

    monkeypatch.setattr(actions, "find_orbit", counted)
    monkeypatch.setattr(quantize_mod, "find_orbit", counted)
    BSSolver(make_model("quartic-well", p1=[[1.0, 1, 0]]), 0.1, 2).S(1.0)
    assert energies == [1.0]


def test_quantize_level_outside_well():
    m = make_model("morse", params={"A": 0.25, "a": 1.0})  # shallow well
    with pytest.raises(QuantizeError):
        quantize(m, 0.1, 40, order=0)


def test_calibration_defaults_frozen():
    cal = calibrate_signs()
    assert (cal.sigma_Gamma, cal.sigma_p1sq, cal.sigma_p2) == (-1, +1, -1)
    assert (DEFAULT_CALIBRATION.sigma_Gamma, DEFAULT_CALIBRATION.sigma_p1sq,
            DEFAULT_CALIBRATION.sigma_p2) == (-1, +1, -1)
    assert all(k in cal.provenance for k in
               ("sigma_Gamma", "sigma_p1sq", "sigma_p2"))


def test_calibration_indeterminate_suite():
    with pytest.raises(CalibrationError):
        calibrate_signs(suite=[HARMONIC])


def test_wrong_sign_breaks_linear_p1():
    bad = SignCalibration(sigma_Gamma=-1, sigma_p1sq=-1, sigma_p2=-1)
    m = make_model("harmonic", p1=[[1.0, 1, 0]])
    e = quantize(m, 0.1, 0, order=2, cal=bad)
    assert abs(e - 0.0975) > 1e-3  # visibly off with the flipped sign
