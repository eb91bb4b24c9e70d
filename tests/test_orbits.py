import math

import numpy as np
import pytest

import bswkb.flow
import bswkb.symbols
from bswkb.actions import action_S0
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


# (xi - 10 x^2)^2 + x^2: a bent single well whose level set E = 1 is a banana
# with two focal points; rays from the minimum leave it and re-enter its arms
BANANA = make_model("polynomial", p0=[[1, 0, 2], [-20, 2, 1], [100, 4, 0], [1, 2, 0]])


def test_failure_names_stage_and_energy():
    cases = [
        (make_model("harmonic"), -0.5,
         r"find_orbit at E = -0.5: not above the well minimum E_min = 0"),
        (BANANA, 1.0, r"find_orbit star-shape check at E = 1: .* rays cross it up to 3 times"),
    ]
    for model, E, message in cases:
        with pytest.raises(OrbitError, match=message):
            find_orbit(model, E)


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


@pytest.mark.parametrize("E", [-2.0, -0.3, -0.1, -0.02])
def test_morse_polar_orbit_closed_forms(E):
    """S0 = 2 pi (sqrt(A) - sqrt(-E)) / a, T = pi / (a sqrt(-E)); the
    resolution check doubles n where the loop grows lopsided."""
    A, a = 4.0, 1.0
    m = make_model("morse", params={"A": A, "a": a})
    orb = find_orbit(m, E, n_samples=512)
    assert action_S0(orb) == pytest.approx(2 * math.pi * (math.sqrt(A) - math.sqrt(-E)) / a,
                                           rel=1e-13)
    assert orb.period == pytest.approx(math.pi / (a * math.sqrt(-E)), rel=1e-13)
    assert (orb.n_samples > 512) == (E >= -0.3)


@pytest.mark.parametrize("model, E", [
    (make_model("quartic-well"), 1.0),
    (make_model("morse", params={"A": 4.0, "a": 1.0}), -2.0),
    (make_model("morse", params={"A": 4.0, "a": 1.0}), -0.3),
    (make_model("quartic-well", p0=[[0.3, 1, 1], [0.7, 0, 1]]), 1.5),
])
def test_sample_times_follow_the_flow(model, E):
    """The flow carries sample k to sample k + 1 in time t[k + 1] - t[k]."""
    orb = find_orbit(model, E)
    t = np.append(orb.t, orb.period)
    for k in range(0, orb.n_samples, orb.n_samples // 16):
        x, xi, status = bswkb.flow.advance(orb.pack, orb.x[k], orb.xi[k], t[k], t[k + 1],
                                           rtol=1e-14, atol=1e-14)
        k1 = (k + 1) % orb.n_samples
        assert status == bswkb.flow.STATUS_OK
        assert abs(x - orb.x[k1]) + abs(xi - orb.xi[k1]) < 1e-13
    assert t[0] == 0.0 and np.all(np.diff(t) > 0.0)


# -- polar scans: energy-independent, kept per model and (n, R) ------------------

CACHE_WELLS = [
    (lambda: make_model("quartic-well"), (0.05, 0.5, 3.0, 30.0)),
    (lambda: make_model("morse", params={"A": 4.0, "a": 1.0}), (-3.9, -2.0, -0.3)),
    (lambda: make_model("poschl-teller", params={"A": 4.0, "a": 1.0}), (-3.9, -2.0, -0.3)),
    (lambda: make_model("quartic-well", p0=[[0.3, 1, 1], [0.7, 0, 1]]), (0.2, 1.5, 5.0)),
]


@pytest.mark.parametrize("make, energies", CACHE_WELLS)
def test_warm_scans_give_the_cold_orbit(make, energies):
    """Orbits read from a model's kept scans equal those of a fresh model, bit for bit."""
    warm = make()
    for E in energies:
        find_orbit(warm, E)
    assert len({R for _, R in warm._polar_scans}) >= 3  # the energies span several R
    for E in energies:
        hot, cold = find_orbit(warm, E), find_orbit(make(), E)
        for name in ("x", "xi", "w", "p_x", "p_xi"):
            assert np.array_equal(getattr(hot, name), getattr(cold, name)), name


@pytest.mark.parametrize("make, energies", CACHE_WELLS)
def test_warm_orbit_evaluates_only_on_the_rays(make, energies, monkeypatch):
    """On a warm (n, R) find_orbit evaluates p0 and its gradient at no more
    than n points per call: the R search and the bracket scan read the kept scan."""
    model = make()
    sizes = []
    evaluate = type(model).eval_partial_array

    def counted(self, level, dx, dxi, x, xi):
        out = evaluate(self, level, dx, dxi, x, xi)
        sizes.append(np.size(out))
        return out

    monkeypatch.setattr(type(model), "eval_partial_array", counted)
    find_orbit(model, energies[0])
    assert max(sizes) == 32 * 2048  # a cold model computes its scans
    for E in energies:
        first = find_orbit(model, E)
        sizes.clear()
        warm = find_orbit(model, E)
        assert max(sizes) <= warm.n_samples == first.n_samples
        sizes.clear()


@pytest.mark.parametrize("model, E_ok, E_bad, message", [
    (make_model("polynomial", p0=[[1, 2, 0], [1, 0, 4], [-2, 0, 2]]), -0.5, 0.5,
     "unsupported topology: 6 focal points"),
    (BANANA, 0.01, 1.0, "find_orbit star-shape check at E = 1: .* rays cross it up to 3 times"),
    (make_model("harmonic"), 1.0, -0.5, "not above the well minimum"),
])
def test_guards_raise_on_warm_scans(model, E_ok, E_bad, message):
    find_orbit(model, E_ok)
    for _ in range(2):  # the second time every scan it reads is kept
        with pytest.raises(OrbitError, match=message):
            find_orbit(model, E_bad)


def test_scans_held_to_the_budget_at_the_largest_n():
    model = make_model("quartic-well")
    for E in (0.05, 0.5, 3.0):
        assert find_orbit(model, E, n_samples=65536).n_samples == 65536
    held = sum(a.nbytes for scan in model._polar_scans.values() for a in scan)
    assert 0 < held <= bswkb.symbols._POLAR_SCAN_BYTES
