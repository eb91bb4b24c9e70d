import numpy as np
import pytest

from bswkb.oracle import (OracleError, _band, _level_coefficients,
                          _lowest_eigs, _poly_on_grid, discretize,
                          oracle_spectrum, well_minimum)
from bswkb.symbols import make_model

HARMONIC = make_model("harmonic")


def test_matrix_symmetric():
    A = discretize(HARMONIC, 0.1, (-3, 3), 256)
    assert A.dtype == np.float64
    assert np.abs(A - A.T).max() == 0.0


def test_matrix_hermitian_with_degree1_term():
    m = make_model("harmonic", p1=[[1.0, 0, 1]])  # p1 = xi
    A = discretize(m, 0.1, (-3, 3), 256)
    assert np.iscomplexobj(A)
    assert np.abs(A - A.conj().T).max() == 0.0


def test_p1_multiplication_is_diagonal_shift():
    m = make_model("harmonic", p1=[[1.0, 1, 0]])
    h = 0.1
    base = discretize(HARMONIC, h, (-3, 3), 128)
    pert = discretize(m, h, (-3, 3), 128)
    x = np.linspace(-3, 3, 130)[1:-1]
    assert np.abs(pert - base - h * np.diag(x)).max() < 1e-14


def test_harmonic_spectrum():
    spec = oracle_spectrum(HARMONIC, 0.1, 3)
    want = 0.1 * (2 * np.arange(3) + 1)
    assert np.abs(spec.eigenvalues - want).max() < 1e-8
    assert np.all(np.diff(spec.eigenvalues) > 0)
    assert np.all(np.isfinite(spec.error_estimates))


def test_shifted_harmonic_p1():
    m = make_model("harmonic", p1=[[1.0, 1, 0]])
    spec = oracle_spectrum(m, 0.1, 1)
    assert spec.eigenvalues[0] == pytest.approx(0.1 - 0.1 ** 2 / 4, abs=1e-8)


def test_constant_p2():
    m = make_model("harmonic", p2=[[1.0, 0, 0]])
    spec = oracle_spectrum(m, 0.1, 1)
    assert spec.eigenvalues[0] == pytest.approx(0.11, abs=1e-8)


def test_domain_and_grid_invariance():
    """Eigenvalues move < 1e-8 under domain +25% and N -> 2N."""
    spec = oracle_spectrum(HARMONIC, 0.1, 4)
    lo, hi = spec.domain
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    wide = (mid - 1.25 * half, mid + 1.25 * half)
    spec_wide = oracle_spectrum(HARMONIC, 0.1, 4, domain=wide, N=spec.grid_size)
    assert np.abs(spec.eigenvalues - spec_wide.eigenvalues).max() < 1e-8
    spec_fine = oracle_spectrum(HARMONIC, 0.1, 4, domain=spec.domain,
                                N=2 * spec.grid_size)
    assert np.abs(spec.eigenvalues - spec_fine.eigenvalues).max() < 1e-8


def test_boundary_guard():
    """A box that clips the low harmonic states fails the truncation check."""
    with pytest.raises(OracleError, match="boundary-truncation"):
        oracle_spectrum(HARMONIC, 0.1, 4, domain=(-1.5, 1.5), N=256)
    oracle_spectrum(HARMONIC, 0.1, 4, domain=(-1.8, 1.8), N=256)


def _dense_stencils(model, h, domain, N):
    """Reference: P from dense N x N stencil matrices, one matrix per level,
    summed as M0 + h M1 + h^2 M2."""
    lo, hi = domain
    dx = (hi - lo) / (N + 1)
    x = lo + dx * np.arange(1, N + 1)

    def stencil(offsets, weights):
        A = np.zeros((N, N))
        for off, w in zip(offsets, weights):
            A += w * np.eye(N, k=off)
        return A

    D2 = stencil((-2, -1, 0, 1, 2),
                 np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / (12.0 * dx * dx))
    D1 = stencil((-2, -1, 1, 2), np.array([1.0, -8.0, 8.0, -1.0]) / (12.0 * dx))
    any_degree1 = False
    mats = []
    for level in range(3):
        cs = _level_coefficients(model, level)
        M = np.zeros((N, N), dtype=complex)
        diag = _poly_on_grid(cs[0], x)
        if level == 0 and model.potential is not None:
            diag = diag + model.potential.deriv_array(0, x)
        M += np.diag(diag)
        if cs[1]:
            any_degree1 = True
            c1 = _poly_on_grid(cs[1], x)
            M += (-1j * h / 2.0) * (np.diag(c1) @ D1 + D1 @ np.diag(c1))
        if cs[2]:
            M += -h * h * float(_poly_on_grid(cs[2], x)[0]) * D2
        mats.append(M)
    A = mats[0] + h * mats[1] + h * h * mats[2]
    return A if any_degree1 else A.real.copy()


@pytest.mark.parametrize("family,kw", [
    ("harmonic", dict(p1=[[1.0, 0, 1]])),
    ("quartic-well", dict(p1=[[1.0, 1, 0]])),
    ("morse", dict(p1=[[0.3, 1, 1]], p2=[[0.2, 0, 2], [0.5, 2, 0]])),
])
def test_band_matches_dense_stencils(family, kw):
    """The band holds the dense stencil operator's diagonals bit for bit."""
    m = make_model(family, **kw)
    args = (m, 0.1, (-2.5, 2.5), 256)
    band, ref = _band(*args), _dense_stencils(*args)
    assert band.dtype == ref.dtype
    for k in range(3):
        assert np.array_equal(band[2 - k, k:], np.diagonal(ref, k))
    dense = discretize(*args)
    assert dense.dtype == ref.dtype and np.array_equal(dense, ref)
    assert not np.any(np.triu(ref, 3)) and not np.any(np.tril(ref, -3))


def test_inverse_iteration_matches_dense_eigh():
    m = make_model("quartic-well", p1=[[1.0, 0, 1]])
    args = (m, 0.1, (-2.5, 2.5), 256)
    vals, vecs = _lowest_eigs(_band(*args), 5, vectors=True)
    w, V = np.linalg.eigh(discretize(*args))
    assert np.abs(vals - w[:5]).max() <= 1e-12
    overlap = np.abs(np.sum(vecs.conj() * V[:, :5], axis=0))
    assert np.abs(overlap - 1.0).max() <= 1e-10


def test_xi_degree_gate():
    m = make_model("harmonic", p1=[[1.0, 0, 3]])
    with pytest.raises(OracleError):
        discretize(m, 0.1, (-3, 3), 128)


def test_x_dependent_xi2_rejected():
    m = make_model("polynomial", p0=[[1.0, 0, 2], [0.5, 2, 2], [1.0, 2, 0]])
    with pytest.raises(OracleError, match="x-dependent"):
        discretize(m, 0.1, (-3, 3), 128)


def test_small_N_rejected():
    with pytest.raises(OracleError):
        discretize(HARMONIC, 0.1, (-3, 3), 32)


def test_free_particle_box_floor():
    """p0 = xi^2 + c: box modes sit above c and approach it as the box grows."""
    m = make_model("polynomial", p0=[[1.0, 0, 2], [0.7, 0, 0]])
    h = 0.1
    prev_gap = None
    for L in (4.0, 8.0, 16.0):
        A = discretize(m, h, (-L, L), 512)
        e0 = float(np.sort(np.linalg.eigvalsh(A))[0])
        gap = e0 - 0.7
        assert gap > 0
        if prev_gap is not None:
            assert gap < prev_gap / 2
        prev_gap = gap


def test_well_minimum():
    assert well_minimum(HARMONIC) == pytest.approx(0.0, abs=1e-10)
    m = make_model("morse", params={"A": 4.0, "a": 1.0})
    assert well_minimum(m) == pytest.approx(-4.0, abs=1e-9)


def test_morse_oracle_vs_closed_form():
    """Morse eigenvalues: E_n = -A (1 - a h (n + 1/2)/sqrt(A))^2."""
    A, a, h = 4.0, 1.0, 0.1
    m = make_model("morse", params={"A": A, "a": a})
    spec = oracle_spectrum(m, h, 3, domain=(-2.0, 14.0), N=2048)
    n = np.arange(3)
    want = -A * (1.0 - a * h * (n + 0.5) / np.sqrt(A)) ** 2
    assert np.abs(spec.eigenvalues - want).max() < 1e-7
