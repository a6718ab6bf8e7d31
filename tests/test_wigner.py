"""Representation cross-checks against closed forms and each other."""

import numpy as np
import pytest
from test_signals import roll_dft, roll_upsample2

from metaplab.signals import (
    Axis,
    PhaseSpaceField,
    gaussian,
    hermite,
    phase_align,
    smooth_noise,
    tf_shift,
    translate_field,
)
from metaplab.symplectic import (
    BlockDecomposition,
    CovariantForm,
    cohen_B,
    shift_invertibility,
    stft_matrix,
    tau_matrix,
)
from metaplab.wigner import (
    CohenKernel,
    cohen_convolve,
    modulation_norm,
    stft,
    stft_reduction,
    tau_wigner,
    wigner_A,
    wigner_A_covariant,
    wigner_cross,
    wigner_of_kernel,
    wiener_amalgam_norm,
)

TAUS = (0.0, 0.25, 0.5, 0.75, 1.0)


def rel_err(u, v) -> float:
    return float(np.linalg.norm((u - v).ravel()) / np.linalg.norm(v.ravel()))


def test_wigner_gaussian_origin_value(phi):
    # independent origin oracle: W(0,0) = integral of phi(t/2)^2 dt = 2
    # (fine quadrature, no FFT machinery)
    t = np.linspace(-12, 12, 20001)
    oracle = np.trapezoid((2 ** 0.25 * np.exp(-np.pi * (t / 2) ** 2)) ** 2, t)
    assert abs(oracle - 2.0) <= 1e-12
    W = wigner_cross(phi, phi)
    c = phi.grid.axes[0].n // 2
    assert abs(W.values[c, c] - 2.0) <= 1e-8
    assert abs(np.max(np.abs(W.values)) - 2.0) <= 1e-8


def test_wigner_real_and_symmetric_for_real_even(phi):
    W = wigner_cross(phi, phi)
    assert np.max(np.abs(W.values.imag)) <= 1e-12
    flipped = W.values[:, (-np.arange(256)) % 256]
    assert np.max(np.abs(W.values - flipped)) <= 1e-10


def test_wigner_gaussian_closed_form(phi):
    W = wigner_cross(phi, phi)
    x = W.x_axis.points()
    xi = W.xi_axis.points()
    X, Y = np.meshgrid(x, xi, indexing="ij")
    want = 2.0 * np.exp(-2.0 * np.pi * (X ** 2 + Y ** 2))
    assert np.max(np.abs(W.values - want)) <= 1e-8


def upsampled_wigner_of_kernel(K, ax):
    """The lag integral read off the kernel upsampled 2x on both axes."""
    n = ax.n
    K_up = roll_upsample2(roll_upsample2(K, 0), 1)
    k = np.arange(n)[:, None]
    m = np.arange(n)[None, :]
    corr = K_up[(2 * k + m - n // 2) % (2 * n), (2 * k - m + n // 2) % (2 * n)]
    return roll_dft(corr, 1, ax.step, inverse=False)


# n = 18 has odd n/2 and a window that is not self-dual
@pytest.mark.parametrize("ax", [Axis(18, 2.0), Axis(64, 4.0), Axis(256, 8.0)],
                         ids=lambda ax: f"n{ax.n}")
def test_wigner_of_kernel_matches_upsampled_reference(ax, rng):
    K = rng.standard_normal((ax.n, ax.n)) + 1j * rng.standard_normal((ax.n, ax.n))
    want = upsampled_wigner_of_kernel(K, ax)
    got = wigner_of_kernel(K, ax)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_wigner_marginal(grid256, rng):
    f = smooth_noise(grid256, rng)
    W = wigner_cross(f, f)
    marg = W.xi_axis.step * np.sum(W.values, axis=1)
    assert np.max(np.abs(marg - np.abs(f.values) ** 2)) <= 1e-8


def test_tau_wigner_half_matches_cross(grid256, rng):
    f = smooth_noise(grid256, rng)
    g = hermite(grid256, 2)
    W1 = tau_wigner(f, g, 0.5)
    W2 = wigner_cross(f, g)
    assert rel_err(W1.values, W2.values) <= 1e-10


def test_tau_wigner_rihaczek(phi, grid256):
    W = tau_wigner(phi, phi, 0.0)
    x = grid256.axes[0].points()
    pts = 2 ** 0.25 * np.exp(-np.pi * x ** 2)
    want = np.outer(pts, pts)  # |Rihaczek| = phi(x) phi(xi)
    assert np.max(np.abs(np.abs(W.values) - want)) <= 1e-10
    full = np.outer(pts, pts) * np.exp(-2j * np.pi * np.outer(x, x))
    assert np.max(np.abs(W.values - full)) <= 1e-10


def test_tau_wigner_moyal(grid256, rng):
    f = smooth_noise(grid256, rng)
    g = smooth_noise(grid256, rng)
    for tau in TAUS:
        W = tau_wigner(f, g, tau)
        assert abs(W.norm() - f.norm() * g.norm()) <= 1e-8
    with pytest.raises(ValueError):
        tau_wigner(f, g, 1.5)


def test_stft_closed_form_and_origin(phi, grid256, rng):
    V = stft(phi, phi)
    x = V.x_axis.points()
    xi = V.xi_axis.points()
    X, Y = np.meshgrid(x, xi, indexing="ij")
    want = np.exp(-np.pi * (X ** 2 + Y ** 2) / 2.0)
    assert np.max(np.abs(np.abs(V.values) - want)) <= 1e-8
    f = smooth_noise(grid256, rng)
    g = hermite(grid256, 1)
    V = stft(f, g)
    c = 128
    assert abs(V.values[c, c] - f.inner(g)) <= 1e-10
    assert abs(V.norm() - f.norm() * g.norm()) <= 1e-8


def test_wigner_A_matches_tau_family(grid256, rng):
    f = smooth_noise(grid256, rng)
    g = gaussian(grid256)
    for tau in TAUS:
        WA = wigner_A(tau_matrix(tau), f, g)
        Wt = tau_wigner(f, g, tau)
        aligned = phase_align(Wt.values, WA.values)
        assert rel_err(aligned, Wt.values) <= 1e-8


def test_wigner_A_matches_stft(grid256, rng):
    f = smooth_noise(grid256, rng)
    g = gaussian(grid256)
    WA = wigner_A(stft_matrix(), f, g)
    V = stft(f, g)
    assert rel_err(np.abs(WA.values), np.abs(V.values)) <= 1e-8
    aligned = phase_align(V.values, WA.values)
    assert rel_err(aligned, V.values) <= 1e-8


def test_wigner_A_unitary(grid256, rng):
    f = smooth_noise(grid256, rng)
    g = hermite(grid256, 3)
    for tau in (0.25, 0.5):
        W = wigner_A(tau_matrix(tau), f, g)
        assert abs(W.norm() - f.norm() * g.norm()) <= 1e-7


def test_covariant_path_tau_and_random(grid256, rng):
    f = smooth_noise(grid256, rng)
    g = gaussian(grid256)
    for tau in TAUS:
        Wc = wigner_A_covariant(CovariantForm.tau(tau), f, g)
        Wt = tau_wigner(f, g, tau)
        assert rel_err(Wc.values, Wt.values) <= 1e-10
    for _ in range(5):
        form = CovariantForm(
            rng.uniform(0.2, 0.8, (1, 1)),
            rng.uniform(-0.5, 0.5, (1, 1)),
            rng.uniform(-0.5, 0.5, (1, 1)),
        )
        Wc = wigner_A_covariant(form, f, g)
        WA = wigner_A(form.matrix(), f, g)
        aligned = phase_align(Wc.values, WA.values)
        assert rel_err(aligned, Wc.values) <= 1e-7


def test_stft_reduction_agreement(grid256, rng):
    f = smooth_noise(grid256, rng)
    g = gaussian(grid256)
    # identity reduction at the STFT matrix
    R = stft_reduction(stft_matrix(), f, g)
    V = stft(f, g)
    assert rel_err(np.abs(R.values), np.abs(V.values)) <= 1e-8
    for tau in (0.25, 0.5, 0.75):
        R = stft_reduction(tau_matrix(tau), f, g)
        Wt = tau_wigner(f, g, tau)
        assert rel_err(np.abs(R.values), np.abs(Wt.values)) <= 1e-7


def dense_stft_reduction(A, f, g):
    """stft_reduction with one exponential per table entry, f on the refined
    grid from its interpolant and the coefficients as a direct sum."""
    b = BlockDecomposition.of(A)
    a23, a24 = float(b[2, 3][0, 0]), float(b[2, 4][0, 0])
    a33, a34 = float(b[3, 3][0, 0]), float(b[3, 4][0, 0])
    ax = f.grid.axes[0]
    beta, c_fac = a24 / a23, a33 - a23 * a34 / a24
    need = max(2.0, abs(1.0 / a23), (1.0 + abs(beta)) / 2.0 + 0.5)
    p = 1 << int(np.ceil(np.log2(need)))
    t_fine = -ax.half_width + (ax.step / p) * np.arange(p * ax.n)
    dft = ax.step * ax.freq_step * np.exp(-2j * np.pi * np.outer(ax.freqs(), ax.points()))
    f_fine = np.exp(2j * np.pi * np.outer(t_fine, ax.freqs())) @ (dft @ f.values)
    coeff = dft @ g.values
    E1 = np.exp(2j * np.pi * np.outer(t_fine * beta, ax.freqs()))
    E2 = np.exp(-2j * np.pi * np.outer(ax.freqs(), (beta * c_fac) * ax.points()))
    G_sh = E1 @ (coeff[:, None] * E2)
    pts = beta * (t_fine[:, None] - c_fac * ax.points()[None, :])
    G_sh[(pts < -ax.half_width) | (pts >= ax.half_width)] = 0.0
    d_freqs = ax.freqs() / a23
    E = np.exp(-2j * np.pi * np.outer(t_fine, d_freqs))
    V = (ax.step / p) * ((f_fine[:, None] * np.conj(G_sh)).T @ E)
    pref = np.sqrt(abs(a33 * a24 - a23 * a34)) / abs(a23)
    return pref * np.exp(2j * np.pi * np.outer(a33 * ax.points(), d_freqs)) * V


def test_stft_reduction_matches_the_dense_tables(grid256, rng):
    # the benchmark's tau deck; p runs 2 and 4
    f = smooth_noise(grid256, rng)
    g = gaussian(grid256, center=0.5, freq=-0.75)
    for tau in np.linspace(0.25, 0.75, 11):
        want = dense_stft_reduction(tau_matrix(tau), f, g)
        got = stft_reduction(tau_matrix(tau), f, g).values
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), tau


def test_stft_reduction_rejects_non_right_regular(grid256, phi):
    from metaplab.symplectic import SymplecticError

    with pytest.raises(SymplecticError):
        stft_reduction(tau_matrix(0.0), phi, phi)


def test_covariance_property(grid256, rng):
    # W_A(pi(z)f, pi(z)g) = T_z W_A(f, g) exactly for on-grid z
    f = smooth_noise(grid256, rng)
    g = hermite(grid256, 2)
    z = (1.0, -2.0)
    for form in (CovariantForm.tau(0.25), CovariantForm(np.array([[0.4]]), np.array([[0.3]]), np.array([[-0.2]]))):
        lhs = wigner_A_covariant(form, tf_shift(f, z), tf_shift(g, z))
        rhs = translate_field(wigner_A_covariant(form, f, g), z)
        assert rel_err(lhs.values, rhs.values) <= 1e-7


def test_shift_invertibility_property(grid256, rng):
    f = smooth_noise(grid256, rng)
    g = gaussian(grid256)
    for tau in (0.25, 0.5, 0.75):
        A = tau_matrix(tau)
        E = shift_invertibility(A)
        assert E is not None
        w = (2.0, 4.0)
        Ew = E @ np.array(w)
        # choose w so that E w is on-grid: steps are 1/16, tau multiples work
        lhs = wigner_A_covariant(CovariantForm.tau(tau), tf_shift(f, w), g)
        rhs = translate_field(wigner_A_covariant(CovariantForm.tau(tau), f, g), Ew)
        assert rel_err(np.abs(lhs.values), np.abs(rhs.values)) <= 1e-7


def test_cohen_convolution_reproduces_tau(grid256, rng):
    f = smooth_noise(grid256, rng)
    g = gaussian(grid256)
    W = wigner_cross(f, g)
    for tau in (0.25, 0.75):
        K = CohenKernel.from_form(CovariantForm.tau(tau))
        got = cohen_convolve(K, W)
        want = tau_wigner(f, g, tau)
        assert rel_err(got.values, want.values) <= 1e-7
        assert abs(got.norm() - W.norm()) <= 1e-8  # unimodular multiplier
    # B = 0 is the identity
    K0 = CohenKernel(np.zeros((2, 2)))
    assert rel_err(cohen_convolve(K0, W).values, W.values) <= 1e-12


def test_cohen_equality_random_covariant(grid256, rng):
    f = gaussian(grid256)
    g = hermite(grid256, 1)
    form = CovariantForm(
        rng.uniform(0.2, 0.8, (1, 1)),
        rng.uniform(-0.4, 0.4, (1, 1)),
        rng.uniform(-0.4, 0.4, (1, 1)),
    )
    lhs = wigner_A_covariant(form, f, g)
    rhs = cohen_convolve(CohenKernel(cohen_B(form)), wigner_cross(f, g))
    assert rel_err(lhs.values, rhs.values) <= 1e-7


def test_sesquilinear_swap_norm(grid256, rng):
    f = smooth_noise(grid256, rng)
    g = smooth_noise(grid256, rng)
    for tau in (0.25, 0.5):
        a = tau_wigner(f, g, tau).norm()
        b = tau_wigner(g, f, tau).norm()
        assert abs(a - b) <= 1e-9 * max(a, b)


def test_modulation_norm_moyal_and_sup(grid256, phi, rng):
    f = smooth_noise(grid256, rng)
    got = modulation_norm(f, phi, 2, 2, 0.0)
    assert abs(got - f.norm() * phi.norm()) <= 1e-6
    assert abs(modulation_norm(phi, phi, np.inf, np.inf, 0.0) - 1.0) <= 1e-8
    n1 = modulation_norm(f, phi, 2, 2, 1.0)
    n2 = modulation_norm(f, phi, 2, 2, 2.0)
    assert got <= n1 <= n2


def test_wiener_amalgam_norm(grid256):
    ax = grid256.axes[0]
    vals = np.zeros((256, 256))
    # bump inside the cell [0,1)^2
    i = np.searchsorted(ax.points(), 0.4)
    vals[i, i] = 1.0
    H = PhaseSpaceField(ax, ax.dual(), vals)
    assert wiener_amalgam_norm(H, 1, 0.0) == pytest.approx(1.0)
    assert wiener_amalgam_norm(H, np.inf, 3.0) == pytest.approx(1.0)
    # Gaussian envelope: compare against a direct double loop
    X, Y = np.meshgrid(ax.points(), ax.points(), indexing="ij")
    G = np.exp(-0.5 * (X ** 2 + Y ** 2))
    H = PhaseSpaceField(ax, ax.dual(), G)
    got = wiener_amalgam_norm(H, 1, 0.0)
    total = 0.0
    for k1 in range(-8, 8):
        for k2 in range(-8, 8):
            cell = (X >= k1) & (X < k1 + 1) & (Y >= k2) & (Y < k2 + 1)
            if np.any(cell):
                total += np.max(np.abs(G[cell]))
    assert abs(got - total) <= 1e-10


def test_wiener_amalgam_resolution_error():
    from metaplab.signals import Axis, GridError

    ax = Axis(4, 8.0)  # step 4: coarser than unit cells
    H = PhaseSpaceField(ax, ax, np.zeros((4, 4)))
    with pytest.raises(GridError):
        wiener_amalgam_norm(H, 1, 0.0)
