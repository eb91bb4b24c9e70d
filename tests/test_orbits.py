import math

import numpy as np
import pytest

import bswkb.flow
from bswkb.orbits import OrbitError, find_orbit, integrate_flow
from bswkb.symbols import make_model


@pytest.fixture(scope="module")
def harmonic():
    return make_model("harmonic")


@pytest.fixture(scope="module")
def quartic():
    return make_model("quartic-well")


def test_flow_returns_after_period(harmonic):
    ts, xs, xis = integrate_flow(harmonic, (1.0, 0.0), math.pi)
    assert abs(xs[-1] - 1.0) < 1e-9
    assert abs(xis[-1]) < 1e-9


def test_flow_quarter_period(harmonic):
    _, xs, xis = integrate_flow(harmonic, (1.0, 0.0), math.pi / 4)
    assert xs[-1] == pytest.approx(0.0, abs=1e-9)
    assert xis[-1] == pytest.approx(-1.0, abs=1e-9)


def test_flow_zero_duration(harmonic):
    _, xs, xis = integrate_flow(harmonic, (0.3, -0.4), 0.0)
    assert xs[-1] == 0.3 and xis[-1] == -0.4


def test_harmonic_orbit_period_and_focal(harmonic):
    orb = find_orbit(harmonic, 1.0)
    assert orb.period == pytest.approx(math.pi, abs=1e-9)
    pts = sorted((x, xi) for _, x, xi in orb.focal_points)
    assert pts[0][0] == pytest.approx(-1.0, abs=1e-9)
    assert pts[1][0] == pytest.approx(1.0, abs=1e-9)
    assert all(abs(xi) < 1e-10 for _, xi in pts)


def test_harmonic_isochronous(harmonic):
    assert find_orbit(harmonic, 4.0).period == pytest.approx(math.pi, abs=1e-9)


def test_harmonic_fourier_singular_points(harmonic):
    orb = find_orbit(harmonic, 1.0)
    pts = sorted((xi, x) for _, x, xi in orb.fourier_singular_points)
    assert pts[0][0] == pytest.approx(-1.0, abs=1e-9)
    assert pts[1][0] == pytest.approx(1.0, abs=1e-9)
    assert all(abs(x) < 1e-10 for _, x in pts)


def test_quartic_turning_points(quartic):
    orb = find_orbit(quartic, 1.0)
    xs = sorted(x for _, x, _ in orb.focal_points)
    assert xs[0] == pytest.approx(-1.0, abs=1e-9)
    assert xs[1] == pytest.approx(1.0, abs=1e-9)


def test_orbit_invariants(quartic):
    orb = find_orbit(quartic, 1.3)
    diam = np.hypot(np.ptp(orb.x), np.ptp(orb.xi))
    assert orb.closure_error <= 1e-8 * diam
    assert orb.energy_drift <= 1e-9 * max(1.0, abs(orb.energy))
    assert len(orb.focal_points) == 2


def test_focal_refinement_tolerance(quartic):
    orb = find_orbit(quartic, 0.7)
    for _, x, xi in orb.focal_points:
        assert abs(quartic.eval_partial(0, 0, 1, x, xi)) <= 1e-10
    for _, x, xi in orb.fourier_singular_points:
        assert abs(quartic.eval_partial(0, 1, 0, x, xi)) <= 1e-10


@pytest.mark.parametrize("E", [0.5, 2.0])
def test_topology_guard(E):
    """x^2 + xi^4 - 2 xi^2 is a double well in xi: its loops cross d_xi p0 = 0 six times."""
    m = make_model("polynomial", p0=[[1, 2, 0], [1, 0, 4], [-2, 0, 2]])
    with pytest.raises(OrbitError, match="unsupported topology: 6 focal points"):
        find_orbit(m, E)


def test_focal_points_polished_lazily(quartic, monkeypatch):
    calls = []
    advance = bswkb.flow.advance

    def counted(*args, **kwargs):
        calls.append(1)
        return advance(*args, **kwargs)

    monkeypatch.setattr(bswkb.flow, "advance", counted)
    orb = find_orbit(quartic, 1.0)
    assert len(calls) == 0
    first = orb.focal_points
    n_first = len(calls)
    assert n_first > 0
    assert orb.focal_points is first
    assert len(calls) == n_first


def test_failure_names_stage_and_energy(harmonic):
    with pytest.raises(OrbitError, match=r"period search at E = 1: no Poincare"):
        find_orbit(harmonic, 1.0, t_max=0.1)


def test_reversal_symmetry_even_xi(quartic):
    """x(T-t) = x(t), xi(T-t) = -xi(t) for symbols even in xi."""
    orb = find_orbit(quartic, 1.0)
    n = orb.n_samples
    # sample j maps to sample n - j under t -> T - t
    j = np.arange(1, n)
    assert np.abs(orb.x[j] - orb.x[n - j]).max() < 1e-8
    assert np.abs(orb.xi[j] + orb.xi[n - j]).max() < 1e-8


def test_below_well_raises(harmonic):
    with pytest.raises(OrbitError):
        find_orbit(harmonic, -0.5)


def test_morse_period_closed_form():
    m = make_model("morse", params={"A": 4.0, "a": 1.0})
    orb = find_orbit(m, -2.0)
    assert orb.period == pytest.approx(math.pi / math.sqrt(2.0), rel=1e-9)


def test_state_at_consistency(harmonic):
    orb = find_orbit(harmonic, 1.0)
    x, xi = orb.state_at(math.pi / 4)
    assert x == pytest.approx(0.0, abs=1e-9)
    assert xi == pytest.approx(-1.0, abs=1e-9)
