import math

import numpy as np
import pytest

from bswkb.oracle import _band, _lowest_eigs
from bswkb.orbits import find_orbit
from bswkb.quasimodes import (QuasimodeError, _BranchGeometry, apply_operator,
                              branch_xi, build_wkb, phase_S, residual_norm)
from bswkb.symbols import make_model

HARMONIC = make_model("harmonic")
QUARTIC = make_model("quartic-well")


@pytest.fixture(scope="module")
def horb():
    return find_orbit(HARMONIC, 1.0)


def test_branch_xi_examples():
    assert branch_xi(HARMONIC, 1.0, 0.0, +1) == pytest.approx(1.0, abs=1e-12)
    assert branch_xi(HARMONIC, 1.0, 0.0, -1) == pytest.approx(-1.0, abs=1e-12)
    assert branch_xi(HARMONIC, 1.0, 0.6, +1) == pytest.approx(0.8, abs=1e-12)
    assert branch_xi(QUARTIC, 1.0, 0.0, +1) == pytest.approx(1.0, abs=1e-12)


def test_branch_xi_outside_region():
    with pytest.raises(QuasimodeError):
        branch_xi(HARMONIC, 1.0, 1.5, +1)


def test_phase_quarter_disk(horb):
    """S+ from the left focal point to 0 is the quarter-disk area pi/4
    (plus x_E xi_E = 0); exact for any h by symmetry of the h^2 anchor."""
    for h in (0.1, 0.01):
        val = phase_S(HARMONIC, 1.0, h, +1, 0.0, anchor="left", orbit=horb)
        assert val == pytest.approx(math.pi / 4, abs=1e-9)


def test_phase_at_anchor(horb):
    val = phase_S(HARMONIC, 1.0, 0.1, +1, 1.0, anchor="right", orbit=horb)
    assert val == 1.0 * 0.0


def test_phase_constant_p1_elapsed_time():
    """The h-term is -h c (elapsed flow time along the arc)."""
    c = 0.7
    m = make_model("harmonic", p1=[[c, 0, 0]])
    orb = find_orbit(m, 1.0)
    h = 0.05
    x = 0.3
    base = phase_S(HARMONIC, 1.0, h, +1, x, anchor="left", h2_term=False)
    pert = phase_S(m, 1.0, h, +1, x, anchor="left", orbit=orb, h2_term=False)
    # left focal at t_L; time from -1 to x on the upper branch: (asin x + pi/2)/2
    t_arc = (math.asin(x) + math.pi / 2) / 2.0
    assert pert - base == pytest.approx(-h * c * t_arc, abs=1e-9)


def test_build_amplitude_value(horb):
    """Per-branch amplitude at x = 0 is (2 * d_xi p0)^(-1/2) = 0.5."""
    qm = build_wkb(HARMONIC, 1.0, 0.05, (-0.5, 0.5), orbit=horb)
    i0 = int(np.argmin(np.abs(qm.x_grid)))
    assert abs(qm.branch_plus[i0]) == pytest.approx(0.5, rel=1e-6)
    assert abs(qm.branch_minus[i0]) == pytest.approx(0.5, rel=1e-6)


def test_amplitude_h_independent_for_zero_p1(horb):
    qa = build_wkb(HARMONIC, 1.0, 0.1, (-0.5, 0.5), orbit=horb)
    qb = build_wkb(HARMONIC, 1.0, 0.05, (-0.5, 0.5), orbit=horb)
    ia = int(np.argmin(np.abs(qa.x_grid - 0.21)))
    ib = int(np.argmin(np.abs(qb.x_grid - qa.x_grid[ia])))
    assert abs(qa.branch_plus[ia]) == pytest.approx(abs(qb.branch_plus[ib]), rel=1e-8)


def test_amplitude_divergence_rate(horb):
    """|u_branch| grows like (E - V)^(-1/4) toward the focal point."""
    qm = build_wkb(HARMONIC, 1.0, 0.05, (-0.75, 0.75), orbit=horb)
    amp = np.abs(qm.branch_plus)
    ref = (1.0 - qm.x_grid ** 2) ** -0.25
    ratio = amp / ref
    assert np.ptp(ratio) / ratio.mean() < 1e-10


def test_combined_mode_real_up_to_global_phase(horb):
    qm = build_wkb(HARMONIC, 1.0, 0.05, (-0.6, 0.6), orbit=horb)
    u = qm.combined
    # optimal global phase from the largest component
    theta = np.angle(u[np.argmax(np.abs(u))])
    v = u * np.exp(-1j * theta)
    assert np.abs(v.imag).max() / np.abs(v).max() < 1e-8


def test_phase_eikonal_consistency(horb):
    """d/dx of the accumulated int xi_+ dy recovers xi_+(x) to 1e-8."""
    dx = 2e-3
    grid = np.arange(-0.5, 0.5 + dx / 2, dx)
    S0 = np.array([phase_S(HARMONIC, 1.0, 0.0, +1, float(x), anchor="left",
                           orbit=horb) for x in grid])
    d1 = (S0[:-4] - 8 * S0[1:-3] + 8 * S0[3:-1] - S0[4:]) / (12 * dx)
    xi_ref = np.sqrt(1.0 - grid[2:-2] ** 2)
    assert np.abs(d1 - xi_ref).max() < 1e-8


def test_apply_operator_plane_wave():
    m = make_model("polynomial", p0=[[1.0, 0, 2]])
    h = 0.05
    x = np.arange(-1.0, 1.0, h / 12.0)
    u = np.exp(1j * x / h)
    _, pu = apply_operator(m, h, u, x)
    # exact eigenfunction of (hD)^2 with eigenvalue 1: residual = grid truncation
    assert np.abs(pu - u[2:-2]).max() < 1e-5


def test_apply_operator_constant_u():
    m = make_model("harmonic")
    h = 0.05
    x = np.arange(-1.0, 1.0, h / 11.0)
    u = np.ones_like(x, dtype=complex)
    xin, pu = apply_operator(m, h, u, x)
    assert np.abs(pu - xin ** 2).max() < 1e-12


def test_apply_operator_multiplicative_p1():
    m = make_model("harmonic", p1=[[1.0, 1, 0]])
    m0 = make_model("harmonic")
    h = 0.05
    x = np.arange(-1.0, 1.0, h / 11.0)
    rng = np.random.default_rng(2)
    u = rng.normal(size=x.size) + 1j * rng.normal(size=x.size)
    xin, pu = apply_operator(m, h, u, x)
    _, pu0 = apply_operator(m0, h, u, x)
    assert np.abs(pu - (pu0 + h * xin * u[2:-2])).max() < 1e-12


def test_apply_operator_coarse_grid_raises():
    m = make_model("harmonic")
    x = np.arange(-1.0, 1.0, 0.02)
    with pytest.raises(QuasimodeError):
        apply_operator(m, 0.05, np.ones_like(x), x)


def test_residual_oracle_eigenvector():
    """The oracle eigenvector at the oracle eigenvalue leaves only grid error."""
    h = 0.1
    N = 2048
    dom = (-3.0, 3.0)
    vals, vecs = _lowest_eigs(_band(HARMONIC, h, dom, N), 3, vectors=True)
    x = np.linspace(dom[0], dom[1], N + 2)[1:-1]
    u = vecs[:, 2].astype(complex)
    xin, pu = apply_operator(HARMONIC, h, u, x)
    res = pu - vals[2] * u[2:-2]
    keep = (xin > -0.6) & (xin < 0.6)
    rel = np.linalg.norm(res[keep]) / np.linalg.norm(u[2:-2][keep])
    assert rel < 1e-6


@pytest.mark.parametrize("region", [(-0.6, 0.6), (-0.3, 0.3)])
def test_residual_locality(horb, region):
    """Shrinking the region to half does not inflate the residual by > 2x."""
    r_full = residual_norm(HARMONIC, 1.0, 0.05, (-0.6, 0.6), orbit=horb)
    r_half = residual_norm(HARMONIC, 1.0, 0.05, (-0.3, 0.3), orbit=horb)
    assert r_half <= 2.0 * r_full


def test_residual_order_harmonic(horb):
    hs = (0.1, 0.05, 0.025)
    rs = [residual_norm(HARMONIC, 1.0, h, (-0.6, 0.6), orbit=horb) for h in hs]
    ratios = np.log2(np.array(rs[:-1]) / np.array(rs[1:]))
    assert np.all(ratios >= 1.8)


def test_unknown_amp_variant_raises(horb):
    with pytest.raises(ValueError):
        build_wkb(HARMONIC, 1.0, 0.05, (-0.5, 0.5), amp_correction="bogus",
                  orbit=horb)


def test_region_too_close_to_focal_raises(horb):
    with pytest.raises(QuasimodeError):
        build_wkb(HARMONIC, 1.0, 0.05, (-0.999, 0.999), orbit=horb)


def _t_of_x_scalar(geo, x_vals, branch):
    """Reference: the bisection one point at a time, scalar Hermite states."""
    orb = geo.orbit
    if branch < 0:
        j_lo, j_hi = 0, int(np.searchsorted(orb.t, geo.t_left, side="right")) - 1
    else:
        j_lo, j_hi = int(np.searchsorted(orb.t, geo.t_left, side="left")), orb.n_samples - 1
    xs = orb.x[j_lo:j_hi + 1]
    out = np.empty(len(x_vals))
    for i, xv in enumerate(x_vals):
        k = np.searchsorted(-xs, -xv) if branch < 0 else np.searchsorted(xs, xv)
        k = int(np.clip(k, 1, xs.size - 1)) + j_lo
        t_lo, t_hi = geo.t_edges[k - 1], geo.t_edges[k]
        for _ in range(80):
            t_m = 0.5 * (t_lo + t_hi)
            x_m, _ = geo._hermite_state(t_m)
            if (float(x_m) < xv) == (branch > 0):
                t_lo = t_m
            else:
                t_hi = t_m
            if t_hi - t_lo < 1e-15 * orb.period:
                break
        out[i] = 0.5 * (t_lo + t_hi)
    return out


@pytest.mark.parametrize("model, E, region", [
    (HARMONIC, 1.0, (-0.6, 0.6)),
    (QUARTIC, 1.0, (-0.6, 0.6)),
    (make_model("morse", params={"A": 4.0, "a": 1.0}), -2.0, (0.05, 0.75)),
])
def test_t_of_x_matches_scalar_bisection(model, E, region):
    """All points bisected at once take each point's own midpoints."""
    geo = _BranchGeometry(model, find_orbit(model, E))
    x = np.linspace(*region, 301)
    for branch in (+1, -1):
        assert np.array_equal(geo.t_of_x(x, branch), _t_of_x_scalar(geo, x, branch))
