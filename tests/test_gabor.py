"""Gabor frames, matrix decay envelopes, and the operator factorization."""

import tracemalloc

import numpy as np
import pytest

from metaplab.gabor import (
    FrameError,
    GaborLattice,
    _atoms,
    _pair_moments,
    _spread,
    decay_slope,
    envelope_fit,
    frame_bounds,
    gabor_matrix,
    metaplectic_factor,
)
from metaplab.metaplectic import dense_matrix
from metaplab.quantize import DenseOperator, SymbolGrid, weyl
from metaplab.signals import GridSignal, default_grid, gaussian, phase_align, tf_shift
from metaplab.symplectic import SymplecticMatrix, V_C, standard_J


@pytest.fixture(scope="module")
def lattice_half():
    return GaborLattice.separable(0.5, 0.5, 5.0)


def test_lattice_points_on_grid(grid256, lattice_half):
    pts = lattice_half.points()
    assert lattice_half.on_grid(grid256.axes[0])
    assert np.max(np.abs(pts)) <= 5.0
    assert any(np.allclose(p, (1.0, 0.0)) for p in pts)
    off = GaborLattice.separable(0.3, 0.5, 2.0)
    assert not off.on_grid(grid256.axes[0])


def test_frame_bounds_gaussian(grid256, phi):
    # frame bounds need the truncated lattice to cover the whole grid window
    lattice_cover = GaborLattice.separable(0.5, 0.5, 7.75)
    A, B = frame_bounds(phi, lattice_cover)
    assert 0 < A <= B
    assert B / A < 10.0  # half-integer Gaussian lattice is a decent frame
    # scaling the window scales both bounds by |c|^2
    A2, B2 = frame_bounds(phi.with_values(2.0 * phi.values), lattice_cover)
    assert A2 == pytest.approx(4.0 * A, rel=1e-10)
    assert B2 == pytest.approx(4.0 * B, rel=1e-10)


def test_frame_bounds_degenerate(grid256):
    vals = np.zeros(256)
    vals[128] = 1.0
    delta = GridSignal(grid256, vals)
    with pytest.raises(FrameError):
        frame_bounds(delta, GaborLattice.separable(1.0, 1.0, 5.0))


def test_gabor_matrix_identity_is_stft_samples(grid256, phi, lattice_half):
    I = DenseOperator(np.eye(256), (grid256.axes[0],), "signal")
    data = gabor_matrix(I, phi, lattice_half)
    pts = data.points
    # |M[lam, mu]| = |V_gg(mu - lam)| = e^{-pi |mu - lam|^2 / 2}
    d = pts[None, :, :] - pts[:, None, :]
    want = np.exp(-np.pi * np.sum(d * d, axis=2) / 2.0)
    assert np.max(np.abs(np.abs(data.entries) - want)) <= 1e-10


def test_gabor_matrix_fourier_closed_form(grid256, phi, lattice_half):
    J = standard_J(1)
    T = DenseOperator(dense_matrix(SymplecticMatrix(J), grid256.axes[0]), (grid256.axes[0],), "signal")
    data = gabor_matrix(T, phi, lattice_half)
    pts = data.points
    d = pts[None, :, :] - pts[:, None, :] @ J.T
    want = np.exp(-np.pi * np.sum(d * d, axis=2) / 2.0)
    assert np.max(np.abs(np.abs(data.entries) - want)) <= 1e-8
    # the acceptance anchor value at lam = (1,0), mu = (0,1)
    i = int(np.argmin(np.sum(np.abs(pts - np.array([1.0, 0.0])), axis=1)))
    j = int(np.argmin(np.sum(np.abs(pts - np.array([0.0, 1.0])), axis=1)))
    assert abs(abs(data.entries[i, j]) - np.exp(-2.0 * np.pi)) <= 1e-7


def test_gabor_matrix_linearity(grid256, phi, lattice_half):
    rng = np.random.default_rng(5)
    ax = grid256.axes[0]
    T1 = rng.standard_normal((256, 256)) * 1e-2
    T2 = rng.standard_normal((256, 256)) * 1e-2
    M1 = gabor_matrix(T1, phi, lattice_half).entries
    M2 = gabor_matrix(T2, phi, lattice_half).entries
    M12 = gabor_matrix(T1 + T2, phi, lattice_half).entries
    assert np.max(np.abs(M12 - M1 - M2)) <= 1e-12


def test_envelope_fit_fourier(grid256, phi, lattice_half):
    ax = grid256.axes[0]
    J = SymplecticMatrix(standard_J(1))
    T = DenseOperator(dense_matrix(J, ax), (ax,), "signal")
    data = gabor_matrix(T, phi, lattice_half)
    rep = envelope_fit(data, chi=J)
    assert rep.slope < -0.5
    # shell values follow the Gaussian law e^{-pi |k|^2/2} at shell reps
    for k in ((1, 0), (0, 1), (1, 1)):
        want = np.exp(-np.pi * (k[0] ** 2 + k[1] ** 2) / 2.0)
        # shell max is attained at offsets within half a cell of k
        assert rep.shells[k] <= np.exp(-np.pi * max(abs(k[0]) - 0.5, 0) ** 2) + 1.0
        assert rep.shells[k] >= want * 0.5
    # l1 norm stability under truncation growth
    lat6 = GaborLattice.separable(0.5, 0.5, 6.0)
    rep6 = envelope_fit(gabor_matrix(T, phi, lat6), chi=J)
    assert abs(rep.norms[(1.0, 0.0)] - rep6.norms[(1.0, 0.0)]) <= 1e-6
    assert rep.tail_estimate < 1e-6


def test_envelope_chi_estimation_identity(grid256, phi, lattice_half):
    I = DenseOperator(np.eye(256), (grid256.axes[0],), "signal")
    rep = envelope_fit(gabor_matrix(I, phi, lattice_half))
    assert rep.chi_estimated
    assert np.linalg.norm(rep.chi - np.eye(2)) <= 1e-3


def test_envelope_chi_estimation_fourier(grid256, phi, lattice_half):
    ax = grid256.axes[0]
    J = SymplecticMatrix(standard_J(1))
    T = DenseOperator(dense_matrix(J, ax), (ax,), "signal")
    rep = envelope_fit(gabor_matrix(T, phi, lattice_half))
    assert np.linalg.norm(rep.chi - J.mat) <= 1e-2


def test_envelope_weyl_symbol_concentrated(grid256, phi, lattice_half):
    ax = grid256.axes[0]
    a = SymbolGrid.from_function(lambda x, xi: np.exp(-np.pi * (x ** 2 + xi ** 2) / 2), ax)
    T = weyl(a, ax)
    rep = envelope_fit(gabor_matrix(T, phi, lattice_half), chi=np.eye(2),
                       qs=((0.5, 0.0), (1.0, 0.0), (2.0, 0.0)))
    assert max(rep.shells, key=rep.shells.get) == (0, 0)
    peak = rep.shells[(0, 0)]
    normed = {k: v / peak for k, v in rep.shells.items()}
    vals = np.array(list(normed.values()))
    lq = [np.sum(vals ** q) ** (1 / q) for q in (0.5, 1.0, 2.0)]
    assert lq[0] >= lq[1] >= lq[2]


def test_envelope_quasinorm_and_weights(grid256, phi, lattice_half):
    ax = grid256.axes[0]
    J = SymplecticMatrix(standard_J(1))
    T = DenseOperator(dense_matrix(J, ax), (ax,), "signal")
    rep = envelope_fit(gabor_matrix(T, phi, lattice_half), chi=J,
                       qs=((1.0, 0.0), (1.0, 2.0), (np.inf, 0.0)))
    assert rep.norms[(1.0, 2.0)] >= rep.norms[(1.0, 0.0)]
    assert rep.norms[(np.inf, 0.0)] <= rep.norms[(1.0, 0.0)]


def test_envelope_too_few_entries(grid256, phi):
    tiny = GaborLattice.separable(0.5, 0.5, 0.4)
    data = gabor_matrix(np.zeros((256, 256)), phi, tiny)
    with pytest.raises(FrameError):
        envelope_fit(data)


def test_envelope_refuses_unkeyable_chi(grid256, phi):
    # a non-finite chi, or one whose offsets pass exact float keys, has no cells
    lattice = GaborLattice.separable(0.5, 0.5, 2.0)
    data = gabor_matrix(np.eye(256), phi, lattice)
    big = 1e9
    for chi in (np.full((2, 2), np.nan), np.array([[big, big], [big, big + 1.0 / big]])):
        with pytest.raises(FrameError):
            envelope_fit(data, chi=chi)


def _reference_envelope(data, chi_mat, qs):
    """The per-entry pass envelope_fit vectorizes: shells, norms, slope, tail."""
    M = np.abs(data.entries)
    pts = data.points
    offs = pts[None, :, :] - pts[:, None, :] @ chi_mat.T  # mu - chi lam, [lam, mu]
    cells = np.round(offs).astype(int)
    shells = {}
    flat_cells = cells.reshape(-1, 2)
    flat_M = M.reshape(-1)
    for i in np.argsort(flat_M):  # ascending: the last write per cell is its maximum
        shells[(int(flat_cells[i, 0]), int(flat_cells[i, 1]))] = float(flat_M[i])
    ks = np.array(list(shells.keys()))
    vals = np.array([shells[tuple(k)] for k in ks])
    vs = 1.0 + np.sum(ks * ks, axis=1)
    norms = {(q, s): float(np.sum((vals * vs ** (s / 2.0)) ** q) ** (1.0 / q)) for q, s in qs}
    radii = np.max(np.abs(ks), axis=1)
    slope = decay_slope(radii, vals)
    r_edge = int(np.max(radii))
    edge_val = float(np.max(vals[radii == r_edge]))
    ratio = np.exp(slope) if slope < 0 else 1.0
    tail = float("inf")
    if ratio < 1.0:
        tail = sum(edge_val * ratio ** (r - r_edge) * 8 * r for r in range(r_edge + 1, r_edge + 40))
    return shells, norms, slope, float(tail)


def _deck_operator(name, ax):
    if name == "fourier":
        J = SymplecticMatrix(standard_J(1))
        return DenseOperator(dense_matrix(J, ax), (ax,), "signal"), J.mat
    if name == "identity":
        return DenseOperator(np.eye(ax.n), (ax,), "signal"), np.eye(2)
    a = SymbolGrid.from_function(lambda x, xi: np.exp(-(x ** 2 + xi ** 2)), ax)
    return weyl(a, ax), np.eye(2)


@pytest.mark.parametrize("estimate", [False, True], ids=["chi-given", "chi-estimated"])
@pytest.mark.parametrize("operator", ["fourier", "identity", "weyl"])
@pytest.mark.parametrize("n", [128, 256])
def test_envelope_fit_matches_per_entry_reference(n, operator, estimate):
    grid = default_grid(n)
    ax = grid.axes[0]
    spacing = ax.step * (8 if n == 256 else 6)
    lattice = GaborLattice.separable(spacing, spacing, 4.0)
    T, chi = _deck_operator(operator, ax)
    data = gabor_matrix(T, gaussian(grid), lattice)
    qs = ((1.0, 0.0), (0.5, 0.0), (1.0, 1.0))
    rep = envelope_fit(data, chi=None if estimate else chi, qs=qs)
    shells, norms, slope, tail = _reference_envelope(data, rep.chi, qs)
    assert list(rep.shells.items()) == list(shells.items())  # key order included
    assert rep.norms == norms
    assert rep.slope == slope
    assert rep.tail_estimate == tail


def test_spread_moments_match_direct_sum():
    rng = np.random.default_rng(7)
    n = 60
    pts = rng.normal(size=(n, 2)) * 3.0
    M = rng.random((n, n))
    significant = rng.random((n, n)) < 0.7
    idx = np.argwhere(significant)
    lam, mu = pts[idx[:, 0]], pts[idx[:, 1]]
    w = M[significant] ** 2
    moments = _pair_moments(M, pts, significant)
    for _ in range(5):
        chi = rng.normal(size=(2, 2))
        d = mu - lam @ chi.T
        direct = float(np.sum(w * np.sum(d * d, axis=1)))
        assert abs(_spread(chi, *moments) - direct) <= 1e-12 * direct


@pytest.mark.parametrize("estimate, ceiling", [(False, 3.6), (True, 5.0)])
def test_envelope_fit_peak_memory(grid256, phi, lattice_half, estimate, ceiling):
    # traced peak of envelope_fit alone, in multiples of the Gabor matrix itself
    ax = grid256.axes[0]
    J = SymplecticMatrix(standard_J(1))
    data = gabor_matrix(DenseOperator(dense_matrix(J, ax), (ax,), "signal"), phi, lattice_half)
    tracemalloc.start()
    try:
        envelope_fit(data, chi=None if estimate else J)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= ceiling * data.entries.nbytes


@pytest.mark.parametrize("n, steps, radius", [(64, 8, 6.0), (128, 6, 3.0), (256, 8, 7.75)])
def test_atoms_equal_tf_shift_columns(n, steps, radius):
    # a complex random window; at n = 64 the shifts pass the grid's half width
    grid = default_grid(n)
    g = GridSignal(grid, np.random.default_rng(n).normal(size=(n, 2)) @ [1.0, 1j])
    spacing = steps * grid.axes[0].step
    lattice = GaborLattice.separable(spacing, spacing, radius)
    pts, P = _atoms(g, lattice)
    assert np.array_equal(P, np.stack([tf_shift(g, p).values for p in pts], axis=1))


def test_composition_envelope_bound(grid256, phi, lattice_half):
    # algebra property surrogate: envelope of T1 T2 against chi1 chi2 stays
    # within a 3x inflation of the product of the factors' l1 norms
    ax = grid256.axes[0]
    chi1 = SymplecticMatrix(standard_J(1))
    chi2 = SymplecticMatrix(V_C(0.5))
    T1 = dense_matrix(chi1, ax)
    T2 = dense_matrix(chi2, ax)
    n1 = envelope_fit(gabor_matrix(T1, phi, lattice_half), chi=chi1).norms[(1.0, 0.0)]
    n2 = envelope_fit(gabor_matrix(T2, phi, lattice_half), chi=chi2).norms[(1.0, 0.0)]
    n12 = envelope_fit(
        gabor_matrix(T1 @ T2, phi, lattice_half), chi=chi1 @ chi2
    ).norms[(1.0, 0.0)]
    assert n12 <= 3.0 * n1 * n2


def test_inverse_envelope_decay(grid256, phi, lattice_half):
    # invertible generalized metaplectic operator: the inverse concentrates
    # along the inverse symplectic map
    ax = grid256.axes[0]
    chi = SymplecticMatrix(standard_J(1))
    a = SymbolGrid.from_function(
        lambda x, xi: 1.0 + 0.3 * np.exp(-np.pi * (x ** 2 + xi ** 2)), ax
    )
    T = dense_matrix(chi, ax) @ weyl(a, ax).matrix
    Tinv = np.linalg.inv(T)
    rep = envelope_fit(gabor_matrix(Tinv, phi, lattice_half), chi=chi.inv())
    assert rep.slope < -0.5


def test_metaplectic_factor_pure_chain(grid256, phi, lattice_half):
    ax = grid256.axes[0]
    chi = SymplecticMatrix(standard_J(1))
    T = DenseOperator(dense_matrix(chi, ax), (ax,), "signal")
    sigma1, sigma2, rep = metaplectic_factor(T, chi)
    assert rep["verified"]
    # sigma1 is a constant unimodular symbol
    aligned = phase_align(np.ones_like(sigma1.values), sigma1.values)
    assert np.max(np.abs(aligned - 1.0)) <= 1e-7
    assert rep["composition_max_err"] <= 1e-8


def test_metaplectic_factor_roundtrip(grid256, phi):
    ax = grid256.axes[0]
    chi = SymplecticMatrix(standard_J(1))
    a = SymbolGrid.from_function(
        lambda x, xi: np.exp(-np.pi * (x ** 2 + xi ** 2) / 4.0), ax
    )
    T_mat = weyl(a, ax).matrix @ dense_matrix(chi, ax)
    T = DenseOperator(T_mat, (ax,), "signal")
    sigma1, sigma2, rep = metaplectic_factor(T, chi)
    assert rep["residual_left"] <= 1e-6
    want = a.sample().values
    assert np.max(np.abs(sigma1.values - want)) <= 1e-6
    assert rep["composition_max_err"] <= 1e-8


def test_metaplectic_factor_off_the_fourier_case():
    # chi = V_C(0.5) J shears the symbol: sigma2 = sigma1 o chi must still
    # match on the interior
    ax = default_grid(128).axes[0]
    chi = SymplecticMatrix(V_C(0.5) @ standard_J(1))
    a = SymbolGrid.from_function(
        lambda x, xi: np.exp(-np.pi * (x ** 2 + xi ** 2) / 4.0), ax
    )
    T = DenseOperator(weyl(a, ax).matrix @ dense_matrix(chi, ax), (ax,), "signal")
    _, _, rep = metaplectic_factor(T, chi)
    assert rep["verified"]
    assert rep["composition_max_err"] <= 1e-8


def test_metaplectic_factor_nan_residual_is_not_verified():
    # NaN residuals compare False against the tolerance both ways, so the
    # test has to be `residual <= tol`, never `residual > tol`
    ax = default_grid(64).axes[0]
    chi = SymplecticMatrix(standard_J(1))
    T_mat = np.eye(ax.n, dtype=np.complex128)
    T_mat[3, 5] = np.nan
    with np.errstate(invalid="ignore"):
        _, _, rep = metaplectic_factor(DenseOperator(T_mat, (ax,), "signal"), chi)
    assert np.isnan(rep["residual_left"]) or np.isnan(rep["residual_right"])
    assert rep["verified"] is False
