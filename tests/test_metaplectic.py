"""Generator chains against the free-matrix quadrature oracle."""

import numpy as np
import pytest

from metaplab.metaplectic import (
    _candidate_chains,
    apply,
    random_applicable_matrix,
    apply_free_quadrature,
    apply_quadrature,
    conv_chirp,
    dense_matrix,
    generator_decompose,
)
from metaplab.signals import (
    GridError,
    SamplingError,
    default_grid,
    fourier,
    gaussian,
    hermite,
    smooth_noise,
    tensor,
    conjugate,
)
from metaplab.symplectic import (
    D_L,
    QuadraticHamiltonian,
    SymplecticMatrix,
    V_C,
    hamiltonian_flow,
    random_generator_chain_matrix,
    standard_J,
    stft_matrix,
    tau_matrix,
)


def cosine(u, v) -> float:
    nu = np.linalg.norm(u.ravel())
    nv = np.linalg.norm(v.ravel())
    return abs(np.vdot(u.ravel(), v.ravel())) / (nu * nv)


def test_decompose_elementary():
    chain = generator_decompose(SymplecticMatrix(standard_J(1)))
    assert [g.tag for g in chain.generators] == ["fourier"]
    chain = generator_decompose(SymplecticMatrix(D_L(1.7)))
    assert [g.tag for g in chain.generators] == ["rescale"]
    chain = generator_decompose(SymplecticMatrix(V_C(0.6)))
    assert [g.tag for g in chain.generators] == ["chirp"]


def test_decompose_product_error_small(rng):
    for n in (1, 2):
        for _ in range(50):
            A = random_generator_chain_matrix(rng, n)
            chain = generator_decompose(A)
            assert len(chain) <= 6
            assert np.max(np.abs(chain.matrix() - A.mat)) <= 1e-10


def test_decompose_special_matrices():
    for A in (tau_matrix(0.0), tau_matrix(0.25), tau_matrix(0.5), stft_matrix()):
        chain = generator_decompose(A)
        assert np.max(np.abs(chain.matrix() - A.mat)) <= 1e-12


def test_free_quadrature_reduces_to_fourier(grid256, phi, rng):
    f = smooth_noise(grid256, rng)
    out = apply_free_quadrature(SymplecticMatrix(standard_J(1)), f)
    want = fourier(f)
    assert np.max(np.abs(out.values - want.values)) <= 1e-10


def test_apply_identity_and_J(grid256, phi):
    out = apply(SymplecticMatrix(np.eye(2)), phi)
    assert np.max(np.abs(out.values - phi.values)) == 0.0
    out = apply(SymplecticMatrix(standard_J(1)), phi)
    assert np.max(np.abs(out.values - phi.values)) <= 1e-12


def test_apply_J_on_irrational_self_dual_grid():
    # L = sqrt(128)/2 is irrational: the dual axis equals the grid only up
    # to rounding of L, and the result stays on the input grid
    grid = default_grid(128)
    f = gaussian(grid, center=0.5, freq=-1.0)
    out = apply(SymplecticMatrix(standard_J(1)), f)
    assert out.grid == grid
    assert np.max(np.abs(out.values - fourier(f).values)) <= 1e-12
    assert abs(out.norm() - f.norm()) <= 1e-12
    M = dense_matrix(SymplecticMatrix(standard_J(1)), grid.axes[0])
    assert np.max(np.abs(M @ f.values - out.values)) <= 1e-12


def test_apply_vs_quadrature_free_matrices(grid256, rng):
    f = smooth_noise(grid256, rng)
    shear = SymplecticMatrix(np.array([[1.0, 1.0], [0.0, 1.0]]))
    tilted = SymplecticMatrix(np.array([[0.6, 1.0], [-1.0, 0.0]]))
    for A in (shear, tilted):
        u = apply(A, f).values
        v = apply_free_quadrature(A, f).values
        assert cosine(u, v) >= 1 - 1e-9
        assert abs(np.linalg.norm(u) - np.linalg.norm(v)) <= 1e-7 * np.linalg.norm(v)


def test_apply_vs_quadrature_random_chains(grid256, rng):
    f = smooth_noise(grid256, rng)
    for _ in range(10):
        A = random_applicable_matrix(rng, 1, grid256.axes)
        u = apply(A, f).values
        v = apply_quadrature(A, f).values
        assert cosine(u, v) >= 1 - 1e-7


def test_apply_unitary_on_corpus(grid256, rng):
    sigs = [gaussian(grid256), hermite(grid256, 4), smooth_noise(grid256, rng)]
    for _ in range(25):
        A = random_applicable_matrix(rng, 1, grid256.axes)
        for f in sigs:
            out = apply(A, f)
            assert abs(out.norm() - f.norm()) <= 1e-8 * f.norm()


def sample_product_pair(rng, axes):
    # the product of two representable matrices need not be representable:
    # resample until its own chain passes the guards
    from metaplab.metaplectic import _chain_stress, _support_stress
    from metaplab.signals import _GUARD_SLACK

    while True:
        A1 = random_applicable_matrix(rng, 1, axes)
        A2 = random_applicable_matrix(rng, 1, axes)
        try:
            chain = generator_decompose(A1 @ A2, axes)
        except Exception:
            continue
        if _chain_stress(chain, axes) <= _GUARD_SLACK and _support_stress(chain) <= 0.95:
            return A1, A2


def test_apply_homomorphism_up_to_phase(grid256, rng):
    f = smooth_noise(grid256, rng)
    for _ in range(10):
        A1, A2 = sample_product_pair(rng, grid256.axes)
        u = apply(A1 @ A2, f).values
        v = apply(A1, apply(A2, f)).values
        assert cosine(u, v) >= 1 - 1e-7


def test_apply_field_chain_unitary(grid256, rng):
    f = gaussian(grid256)
    g = smooth_noise(grid256, rng)
    F = tensor(f, conjugate(g))
    axes = (F.x_axis, F.xi_axis)
    for _ in range(5):
        A = random_applicable_matrix(rng, 2, axes)
        out = apply(A, F)
        assert abs(out.norm() - F.norm()) <= 1e-8 * F.norm()


def test_apply_field_vs_quadrature(rng):
    grid = default_grid(64)
    f = gaussian(grid)
    g = gaussian(grid)
    F = tensor(f, conjugate(g))
    axes = (F.x_axis, F.xi_axis)
    for _ in range(4):
        A = random_applicable_matrix(rng, 2, axes)
        u = apply(A, F).values
        v = apply_quadrature(A, F).values
        assert cosine(u, v) >= 1 - 1e-7


def test_conv_chirp_paths_agree(grid256, rng):
    f = smooth_noise(grid256, rng)
    out0 = conv_chirp(0.0, f)
    assert np.max(np.abs(out0.values - f.values)) <= 1e-12
    u = conv_chirp(1.0, f, path="multiplier").values
    v = conv_chirp(1.0, f, path="direct").values
    assert cosine(u, v) >= 1 - 1e-8
    assert abs(np.linalg.norm(v) - np.linalg.norm(f.values)) <= 1e-8 * np.linalg.norm(f.values)


def test_conv_chirp_matches_shear_matrix(grid256, rng):
    # mu(V_C^{-T}) for C = -4 pi t is the free-particle propagator matrix
    f = smooth_noise(grid256, rng)
    t = 0.02
    A = SymplecticMatrix(np.array([[1.0, 4.0 * np.pi * t], [0.0, 1.0]]))
    u = apply(A, f).values
    v = conv_chirp(-4.0 * np.pi * t, f).values
    assert cosine(u, v) >= 1 - 1e-10


def test_small_and_quarter_rotations(grid256, phi):
    # t = 0.05 and 0.3 take the chirp sandwich, pi/2 and 2.0 the free chain;
    # none of them trips a guard
    h = QuadraticHamiltonian.harmonic()
    for t in (0.05, 0.3, np.pi / 2, 2.0):
        chi = hamiltonian_flow(h, t)
        out = apply(chi, phi)
        assert abs(out.norm() - phi.norm()) <= 1e-8
        # phi is rotation invariant up to phase
        assert cosine(out.values, phi.values) >= 1 - 1e-8


def rotation(theta: float) -> SymplecticMatrix:
    c, s = np.cos(theta), np.sin(theta)
    return SymplecticMatrix(np.array([[c, -s], [s, c]]))


def test_every_candidate_reproduces_its_matrix(rng):
    # every factorization in the table, not only the chain the decomposition
    # picks: its exactness filter would hide a wrong closed form
    corpus = [random_generator_chain_matrix(rng, n) for n in (1, 2) for _ in range(150)]
    corpus += [rotation(th) for th in np.linspace(-np.pi, np.pi, 41)[1:-1]]
    for A in corpus:
        for chain in _candidate_chains(A):
            assert np.max(np.abs(chain.matrix() - A.mat)) <= 1e-8


def test_decomposition_preference_order(grid256):
    axes = grid256.axes
    h = QuadraticHamiltonian.harmonic()

    def tags(A):
        return [g.tag for g in generator_decompose(A, axes).generators]

    # the free chain precedes the sandwiches, so J stays one exact Fourier step
    assert tags(SymplecticMatrix(standard_J(1))) == ["fourier"]
    # small rotations: the free chain's chirps alias, the sandwich's do not
    assert tags(hamiltonian_flow(h, 0.05)) == ["chirp", "convchirp", "chirp"]
    # near pi: the sandwich with the reflection pulled out
    assert tags(rotation(3.0)) == ["rescale", "chirp", "convchirp", "chirp"]
    assert tags(hamiltonian_flow(h, 1.0)) == ["chirp", "rescale", "fourier", "chirp"]


@pytest.mark.parametrize("t", [0.01, 0.05, 0.2, 0.5])
def test_harmonic_flow_dense_matrix_unitary(grid256, t):
    # the sandwich has no rescale step, so mu(chi_t) is unitary on the whole grid
    chi = hamiltonian_flow(QuadraticHamiltonian.harmonic(), t)
    s = np.linalg.svd(dense_matrix(chi, grid256.axes[0]), compute_uv=False)
    assert s[-1] >= 1 - 1e-12


def test_dense_matrix_consistency(rng):
    for n in (64, 128, 256):
        grid = default_grid(n)
        for _ in range(3):
            f = smooth_noise(grid, rng)
            A = random_applicable_matrix(rng, 1, grid.axes)
            M = dense_matrix(A, grid.axes[0])
            direct = apply(A, f).values
            assert np.max(np.abs(M @ f.values - direct)) <= 1e-9


def test_dense_matrix_guards_like_apply():
    # the chirp of V_C(1.5) aliases at N = 64: both routes refuse it
    grid = default_grid(64)
    A = SymplecticMatrix(V_C(1.5))
    with pytest.raises(SamplingError):
        apply(A, gaussian(grid))
    with pytest.raises(SamplingError):
        dense_matrix(A, grid.axes[0])
    # a grid that is not self-dual: the DFT does not map it onto itself
    grid = default_grid(64, 3.0)
    J = SymplecticMatrix(standard_J(1))
    with pytest.raises(GridError, match="self-dual"):
        apply(J, gaussian(grid))
    with pytest.raises(GridError, match="self-dual"):
        dense_matrix(J, grid.axes[0])


@pytest.mark.parametrize("n, half_width", [(256, None), (96, None), (64, 3.0)])
def test_chirp_guard_and_chain_search_share_one_boundary(n, half_width):
    # |C| L exactly at Nyquist is in band for both; 1 + 1e-8 times it is not
    from metaplab.metaplectic import _chain_stress
    from metaplab.signals import _GUARD_SLACK, chirp_guard

    axes = default_grid(n, half_width).axes
    c = axes[0].freq_half_width / axes[0].half_width
    for scale, in_band in ((1.0, True), (1.0 + 1e-8, False)):
        C = np.array([[c * scale]])
        chain = generator_decompose(SymplecticMatrix(V_C(C)), axes)
        assert (_chain_stress(chain, axes) <= _GUARD_SLACK) == in_band
        if in_band:
            chirp_guard(axes, C)
        else:
            with pytest.raises(SamplingError):
                chirp_guard(axes, C)


def test_dimension_mismatch_rejected(grid256, phi):
    with pytest.raises(GridError):
        apply(tau_matrix(0.5), phi)
