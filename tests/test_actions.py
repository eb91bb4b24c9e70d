import math

import numpy as np
import pytest
from scipy.integrate import quad

from bswkb.actions import (action_S0, action_series,
                           dE_derivative, gamma_density, loop_dE_dt,
                           loop_integral_dt,
                           poly_terms_eval, stokes_check)
from bswkb.orbits import find_orbit
from bswkb.symbols import make_model

HARMONIC = make_model("harmonic")
QUARTIC = make_model("quartic-well")


@pytest.fixture(scope="module")
def horb():
    return find_orbit(HARMONIC, 1.0, n_samples=1024)


def test_loop_of_one_is_period(horb):
    val, err = loop_integral_dt(horb, lambda x, xi: np.ones_like(x), with_error=True)
    assert val == pytest.approx(math.pi, abs=1e-12)
    assert err < 1e-12


def test_loop_x_squared(horb):
    assert loop_integral_dt(horb, lambda x, xi: x ** 2) == pytest.approx(
        math.pi / 2, abs=1e-12)


def test_loop_gamma(horb):
    val = loop_integral_dt(horb, lambda x, xi: gamma_density(HARMONIC, x, xi))
    assert val == pytest.approx(8 * math.pi, abs=1e-10)


def test_gamma_pointwise():
    assert gamma_density(HARMONIC, 1.0, 0.0) == pytest.approx(8.0, abs=1e-14)
    x, xi = 0.3, -0.8
    assert gamma_density(HARMONIC, x, xi) == pytest.approx(
        8.0 * (x * x + xi * xi), abs=1e-13)


def test_action_S0_harmonic(horb):
    assert action_S0(horb) == pytest.approx(math.pi, abs=1e-12)
    orb2 = find_orbit(HARMONIC, 2.0, n_samples=1024)
    assert action_S0(orb2) == pytest.approx(2 * math.pi, abs=1e-12)


def test_action_S0_quartic_vs_quadrature():
    """Independent adaptive-quadrature oracle for the quartic area."""
    orb = find_orbit(QUARTIC, 1.0, n_samples=1024)
    ref = 2.0 * quad(lambda x: math.sqrt(max(0.0, 1.0 - x ** 4)), -1.0, 1.0,
                     epsabs=1e-13, limit=200)[0]
    assert action_S0(orb) == pytest.approx(ref, abs=1e-10)


def test_dE_derivative_examples():
    assert dE_derivative(lambda E: math.pi * E, 1.0, 1) == pytest.approx(
        math.pi, abs=1e-9)
    assert dE_derivative(lambda E: 8 * math.pi * E, 1.0, 2) == pytest.approx(
        0.0, abs=1e-6)
    assert dE_derivative(lambda E: E ** 2, 1.0, 2) == pytest.approx(2.0, abs=1e-8)


def test_dE_derivative_full_details():
    val, info = dE_derivative(lambda E: E ** 3, 2.0, 1, full=True)
    assert val == pytest.approx(12.0, abs=1e-8)
    # err_est is the raw-vs-extrapolated gap (here the delta^2/4 truncation)
    assert info["err_est"] == pytest.approx(1e-4, rel=1e-3)
    assert info["d_step"] == pytest.approx(0.02)


def test_action_series_harmonic_vanishing_corrections():
    ser = action_series(HARMONIC, 1.0)
    assert ser.S0 == pytest.approx(math.pi, abs=1e-10)
    assert ser.S1 == 0.0
    assert abs(ser.S2) < 1e-6


def test_action_series_constant_p1():
    m = make_model("harmonic", p1=[[1.0, 0, 0]])
    ser = action_series(m, 1.0)
    assert ser.S1 == pytest.approx(-math.pi, abs=1e-12)


def test_action_series_linear_p1_default_calibration():
    m = make_model("harmonic", p1=[[1.0, 1, 0]])
    ser = action_series(m, 1.0)
    assert ser.S1 == pytest.approx(0.0, abs=1e-12)
    assert ser.S2 == pytest.approx(math.pi / 4, abs=1e-8)
    assert ser.calibration.sigma_p1sq == +1
    orb = find_orbit(m, 1.0, n_samples=1024)
    I_p1sq = loop_integral_dt(orb, lambda x, xi: m.eval_partial_array(1, 0, 0, x, xi) ** 2)
    assert I_p1sq == pytest.approx(math.pi / 2, abs=1e-10)


def test_S2_vanishes_harmonic_five_energies():
    for E in (0.5, 1.0, 1.5, 2.0, 3.0):
        assert abs(action_series(HARMONIC, E).S2) < 1e-6


def test_S2_vanishes_morse():
    """All h^2 terms cancel for the Morse well (order-0 BS is exact)."""
    m = make_model("morse", params={"A": 4.0, "a": 1.0})
    for E in (-3.0, -2.0, -1.0):
        assert abs(action_series(m, E).S2) < 2e-5


def test_stokes_closed_form_case():
    """f = xi, g = 0: d/dE (pi E) = pi vs -int(-1) dt = pi."""
    assert stokes_check(HARMONIC, 1.0, [(1.0, 0, 1)], []) < 1e-6


def test_stokes_zero_form():
    assert stokes_check(HARMONIC, 1.0, [], []) == 0.0


def test_stokes_random_forms_both_families():
    rng = np.random.default_rng(11)

    def rand_terms():
        k = rng.integers(1, 4)
        return [(float(rng.uniform(-1, 1)), int(rng.integers(0, 4)),
                 int(rng.integers(0, 4))) for _ in range(k)]

    for model in (HARMONIC, QUARTIC):
        worst = 0.0
        for _ in range(20):
            worst = max(worst, stokes_check(model, 1.0, rand_terms(), rand_terms()))
        assert worst < 1e-6


def test_exact_form_annihilation(horb):
    """loop dF = 0 for polynomial F."""
    rng = np.random.default_rng(3)
    for _ in range(10):
        F = [(float(rng.uniform(-1, 1)), int(rng.integers(0, 4)),
              int(rng.integers(0, 4))) for _ in range(3)]
        fx = lambda x, xi: poly_terms_eval(F, 1, 0, x, xi)
        fxi = lambda x, xi: poly_terms_eval(F, 0, 1, x, xi)
        pa = HARMONIC.eval_partial_array
        val = loop_integral_dt(
            horb, lambda x, xi: fx(x, xi) * pa(0, 0, 1, x, xi)
            - fxi(x, xi) * pa(0, 1, 0, x, xi))
        grad = max(1.0, max(abs(fx(horb.x, horb.xi)).max(),
                            abs(fxi(horb.x, horb.xi)).max()))
        assert abs(val) <= 1e-8 * horb.period * grad


def test_dxi_form_equals_minus_p1_dt_pointwise(horb):
    """(p1/d_x p0) xi_dot = -p1 pointwise on the orbit (exact identity)."""
    pa = HARMONIC.eval_partial_array
    p1 = lambda x, xi: x * xi  # any smooth function works pointwise
    px = pa(0, 1, 0, horb.x, horb.xi)
    mask = np.abs(px) > 1e-3
    lhs = (p1(horb.x, horb.xi)[mask] / px[mask]) * (-px[mask])
    rhs = -p1(horb.x, horb.xi)[mask]
    assert np.abs(lhs - rhs).max() < 1e-10


@pytest.mark.parametrize("family,params,energies", [
    ("harmonic", None, (0.5, 1.0, 2.0, 3.0, 4.0)),
    ("quartic-well", None, (0.5, 1.0, 1.5, 2.0, 3.0)),
    ("morse", {"A": 4.0, "a": 1.0}, (-3.5, -3.0, -2.0, -1.5, -1.0)),
    ("poschl-teller", {"A": 4.0, "a": 1.0}, (-3.5, -3.0, -2.0, -1.5, -1.0)),
])
def test_dS0_dE_equals_period(family, params, energies):
    model = make_model(family, params=params)

    def S0(E):
        return action_S0(find_orbit(model, E, n_samples=1024))

    for E in energies:
        T = find_orbit(model, E, n_samples=1024).period
        dS = dE_derivative(S0, E, 1)
        assert dS == pytest.approx(T, rel=1e-6)


WELLS = {"A": 4.0, "a": 1.0}
P1 = [[0.7, 1, 0]]


@pytest.fixture(params=[
    pytest.param((make_model("quartic-well", p1=P1), 1.0), id="quartic"),
    pytest.param((make_model("morse", p1=P1, params=WELLS), -2.0), id="morse"),
    pytest.param((make_model("poschl-teller", p1=P1, params=WELLS), -2.0),
                 id="poschl-teller"),
    pytest.param((make_model("polynomial", p1=P1, p0=[[1.0, 0, 2], [1.0, 2, 0],
                                                      [0.5, 3, 0], [1.0, 4, 0]]),
                  1.0), id="cubic-quartic"),
])
def well_at_E(request):
    model, E = request.param
    orbit = lambda e: find_orbit(model, e, n_samples=1024)
    return model, E, orbit


def test_dE_loop_gamma_equals_twice_loop_hessian_det(well_at_E):
    """d/dE loop(Gamma dt) = 2 loop(Delta dt), Delta = p_xx p_xixi - p_xxi^2."""
    model, E, orbit = well_at_E
    pa = model.eval_partial_array
    delta = lambda x, xi: (pa(0, 2, 0, x, xi) * pa(0, 0, 2, x, xi)
                           - pa(0, 1, 1, x, xi) ** 2)
    lhs = dE_derivative(lambda e: loop_integral_dt(
        orbit(e), lambda x, xi: gamma_density(model, x, xi)), E, 1)
    assert lhs == pytest.approx(2.0 * loop_integral_dt(orbit(E), delta), rel=1e-7)


def test_dE_loop_p1sq_equals_loop_divergence(well_at_E):
    """d/dE loop(p1^2 dt) = loop(div(p1^2 Y) dt), against the orbit stencil."""
    model, E, orbit = well_at_E
    pa = model.eval_partial_array
    p1sq = lambda x, xi: pa(1, 0, 0, x, xi) ** 2
    lhs = dE_derivative(lambda e: loop_integral_dt(orbit(e), p1sq), E, 1)
    o = orbit(E)
    p1 = pa(1, 0, 0, o.x, o.xi)
    rhs = loop_dE_dt(model, o, p1 ** 2, 2.0 * p1 * pa(1, 1, 0, o.x, o.xi),
                     2.0 * p1 * pa(1, 0, 1, o.x, o.xi))
    assert lhs == pytest.approx(rhs, rel=1e-7)
