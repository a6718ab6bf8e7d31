"""Propagators, transported representations, kernel concentration, wave fronts."""

import numpy as np

from metaplab.quantize import SymbolGrid
from metaplab.schrodinger import (
    Hamiltonian,
    evolved_wigner_check,
    free_particle_multiplier,
    perturbation_symbol,
    propagate_perturbed,
    propagate_quadratic,
    spectrogram_convolution_check,
    wavefront,
    wavefront_propagation_check,
    wigner_kernel_check,
)
from metaplab.signals import default_grid, gaussian, hermite, sign_gaussian, two_bump
from metaplab.symplectic import CovariantForm, QuadraticHamiltonian


def cosine(u, v):
    return abs(np.vdot(u.ravel(), v.ravel())) / (
        np.linalg.norm(u.ravel()) * np.linalg.norm(v.ravel())
    )


FREE = QuadraticHamiltonian.free_particle()
HARMONIC = QuadraticHamiltonian.harmonic()


def bounded_symbol(ax):
    return SymbolGrid.from_function(
        lambda x, xi: 0.4 * np.exp(-0.5 * (x ** 2 + xi ** 2)), ax
    )


def test_free_particle_against_multiplier(grid256, phi):
    for t in (0.02, 0.1):
        u1 = propagate_quadratic(FREE, t, phi)
        u2 = free_particle_multiplier(t, phi)
        assert cosine(u1.values, u2.values) >= 1 - 1e-8
        assert abs(u1.norm() - 1.0) <= 1e-8


def test_propagate_quadratic_t0_identity(grid256, phi):
    out = propagate_quadratic(FREE, 0.0, phi)
    assert np.max(np.abs(out.values - phi.values)) <= 1e-12


def test_perturbed_sigma0_matches_quadratic(grid256, phi):
    H0 = Hamiltonian(FREE)
    for t in (0.05, 0.2):
        u1 = propagate_perturbed(H0, t, phi)
        u2 = propagate_quadratic(FREE, t, phi)
        assert cosine(u1.values, u2.values) >= 1 - 1e-7
    Hh = Hamiltonian(HARMONIC)
    u1 = propagate_perturbed(Hh, 0.3, phi)
    u2 = propagate_quadratic(HARMONIC, 0.3, phi)
    assert cosine(u1.values, u2.values) >= 1 - 1e-7


def test_perturbed_unitary_and_energy(grid256, rng):
    ax = grid256.axes[0]
    H = Hamiltonian(FREE, bounded_symbol(ax))
    from metaplab.schrodinger import hamiltonian_matrix

    M = hamiltonian_matrix(H, ax)
    f = hermite(grid256, 2)
    vals0 = f.values
    e0 = np.vdot(vals0, M @ vals0)
    for t in (0.1, 0.7):
        u = propagate_perturbed(H, t, f)
        assert abs(u.norm() - f.norm()) <= 1e-8
        e = np.vdot(u.values, M @ u.values)
        assert abs(e - e0) <= 1e-7 * abs(e0)


def test_perturbed_group_law(grid256, phi):
    ax = grid256.axes[0]
    H = Hamiltonian(FREE, bounded_symbol(ax))
    u12 = propagate_perturbed(H, 0.3, propagate_perturbed(H, 0.2, phi))
    u3 = propagate_perturbed(H, 0.5, phi)
    assert np.linalg.norm(u12.values - u3.values) <= 1e-7 * np.linalg.norm(u3.values)


def test_duhamel_slope(grid256, phi):
    # u(t) - u0 - i t H u0 = O(t^2)
    ax = grid256.axes[0]
    H = Hamiltonian(FREE, bounded_symbol(ax))
    from metaplab.schrodinger import hamiltonian_matrix

    M = hamiltonian_matrix(H, ax)
    errs = []
    ts = (1e-3, 2e-3, 4e-3)
    for t in ts:
        u = propagate_perturbed(H, t, phi)
        lin = phi.values + 1j * t * (M @ phi.values)
        errs.append(np.linalg.norm(u.values - lin))
    slopes = np.diff(np.log(errs)) / np.diff(np.log(ts))
    assert np.all(np.abs(slopes - 2.0) <= 0.1)


def test_perturbation_symbol_sigma0(grid256):
    ax = grid256.axes[0]
    H0 = Hamiltonian(FREE)
    for t in (0.0, 0.08):
        b_t, rep = perturbation_symbol(H0, t, ax)
        # constant unimodular symbol up to the chain phase
        c = b_t.values[128, 128]
        assert abs(abs(c) - 1.0) <= 1e-6
        assert np.max(np.abs(b_t.values - c)) <= 1e-6
        assert rep["reconstruction_residual"] <= 1e-6


def test_perturbation_symbol_harmonic_runs(grid256):
    # mu(chi_t) of the harmonic flow is invertible on the whole grid; how
    # far b_t is from a constant there is a separate question
    b_t, rep = perturbation_symbol(Hamiltonian(QuadraticHamiltonian.harmonic()), 0.05, grid256.axes[0])
    assert np.all(np.isfinite(b_t.values))
    assert np.isfinite(rep["reconstruction_residual"])


def test_perturbation_symbol_small_t_slope(grid256):
    ax = grid256.axes[0]
    H = Hamiltonian(FREE, bounded_symbol(ax))
    devs = []
    ts = (1e-3, 2e-3, 4e-3)
    for t in ts:
        b_t, rep = perturbation_symbol(H, t, ax)
        c = b_t.values[128, 128]
        devs.append(np.max(np.abs(b_t.values / c - 1.0)))
        # with sigma != 0 the factorization reconstruction inherits the
        # discrete covariance defect of order t * sigma
        assert rep["reconstruction_residual"] <= 1e-4
    slopes = np.diff(np.log(devs)) / np.diff(np.log(ts))
    assert np.all(np.abs(slopes - 1.0) <= 0.2)


def test_evolved_wigner_free_particle(grid256, phi):
    assert evolved_wigner_check(FREE, 0.5, 0.0, phi)["residual"] <= 1e-10
    for tau in (0.5, 0.25):
        for t in (0.02, 0.05, 0.1):
            res = evolved_wigner_check(FREE, tau, t, phi)
            assert res["residual"] <= 1e-5, (tau, t, res["residual"])
            assert res["verified"]


def test_evolved_wigner_harmonic(grid256, phi):
    res = evolved_wigner_check(HARMONIC, 0.5, 0.4, phi)
    assert res["residual"] <= 1e-5


def test_wigner_kernel_concentration():
    grid = default_grid(48)
    phi = gaussian(grid)
    H0 = Hamiltonian(QuadraticHamiltonian.free_particle())
    rep = wigner_kernel_check(H0, CovariantForm.tau(0.5), 0.05, phi)
    assert rep["worst_off_diag_fraction"] <= 1e-4
    # at t = 0 the only off-graph mass is the Gaussian's own tail beyond
    # radius 1, about e^{-4 pi}
    rep0 = wigner_kernel_check(H0, CovariantForm.tau(0.5), 0.0, phi)
    assert rep0["worst_off_diag_fraction"] <= 1e-5


def test_wigner_kernel_identity_at_t0():
    from metaplab.signals import tf_shift, translate_field
    from metaplab.wigner import wigner_A_covariant

    grid = default_grid(48)
    phi = gaussian(grid)
    form = CovariantForm.tau(0.5)
    c = (1.0, -1.0)
    lhs = wigner_A_covariant(form, tf_shift(phi, c), tf_shift(phi, c))
    rhs = translate_field(wigner_A_covariant(form, phi, phi), c)
    assert np.max(np.abs(lhs.values - rhs.values)) <= 1e-8


def test_wigner_kernel_perturbed_finite():
    grid = default_grid(48)
    phi = gaussian(grid)
    ax = grid.axes[0]
    H = Hamiltonian(
        QuadraticHamiltonian.free_particle(),
        SymbolGrid.from_function(lambda x, xi: 0.3 * np.exp(-0.8 * (x ** 2 + xi ** 2)), ax),
    )
    rep = wigner_kernel_check(H, CovariantForm.tau(0.5), 0.05, phi)
    assert np.isfinite(rep["max_weight_growth_ratio"])
    assert rep["worst_off_diag_fraction"] < 0.05


def test_wigner_kernel_batch_matches_per_probe_loop():
    from metaplab.signals import tf_shift
    from metaplab.wigner import wigner_A_covariant

    grid = default_grid(48)
    phi = gaussian(grid)
    ax = grid.axes[0]
    H = Hamiltonian(FREE, bounded_symbol(ax))
    form = CovariantForm.tau(0.5)
    t = 0.05
    rep = wigner_kernel_check(H, form, t, phi)
    inv = np.linalg.inv(rep["flow"])
    X, Y = np.meshgrid(ax.points(), ax.dual().points(), indexing="ij")
    back_x = inv[0, 0] * X + inv[0, 1] * Y
    back_xi = inv[1, 0] * X + inv[1, 1] * Y
    for probe in rep["probes"]:
        c = probe["center"]
        ut = propagate_perturbed(H, t, tf_shift(phi, c))
        R2 = np.abs(wigner_A_covariant(form, ut, ut).values) ** 2
        dist2 = (back_x - c[0]) ** 2 + (back_xi - c[1]) ** 2
        off = np.sum(R2[dist2 > 1.0]) / np.sum(R2)
        assert abs(probe["off_diag_fraction"] - off) <= 1e-12
        cell = ax.step * ax.dual().step
        for N, norm in probe["weighted_norms"].items():
            ref = np.sqrt(np.sum((1.0 + dist2) ** N * R2) * cell)
            assert abs(norm - ref) <= 1e-12 * ref


def test_wavefront_gaussian_regular(grid256, phi):
    rep = wavefront(phi)
    assert len(rep.singular_bins()) == 0
    assert not np.any(rep.inconclusive)
    # cone integrals are nondecreasing in the weight order
    assert np.all(np.diff(rep.integrals, axis=1) >= -1e-30)


def test_wavefront_sign_gaussian_directions(grid256):
    f = sign_gaussian(grid256)
    rep = wavefront(f)
    bins = rep.singular_bins()
    assert len(bins) > 0
    n = rep.params["n_bins"]
    angles = rep.angles[bins]
    # singular cones cluster around the +-xi axis (pi/2 and 3pi/2)
    for a in angles:
        assert min(abs(a - np.pi / 2), abs(a - 3 * np.pi / 2)) <= 0.4


def test_wavefront_stft_variant_and_inclusion(grid256):
    for f in (gaussian(grid256), sign_gaussian(grid256), two_bump(grid256)):
        rep_g = wavefront(f, rep="stft")
        rep_w = wavefront(f)
        wig = set(int(b) for b in rep_w.singular_bins())
        n = rep_w.params["n_bins"]
        widened = set()
        for b in wig:
            # two-bin dilation absorbs the angular smear of the analysis
            # window in the spectrogram report
            widened.update({(b + d) % n for d in (-2, -1, 0, 1, 2)})
        for b in rep_g.singular_bins():
            assert int(b) in widened


def test_wavefront_two_bump_interference(grid256):
    # the quadratic representation sees the midpoint interference cone far
    # more strongly than the spectrogram does
    f = two_bump(grid256, x0=5.0, xi0=5.0)
    rep_w = wavefront(f)
    rep_g = wavefront(f, rep="stft")
    n = rep_w.params["n_bins"]
    mid_bin = int((np.pi / 4) / (2 * np.pi / n))  # midpoint direction (1,1)
    ratio = rep_w.integrals[mid_bin, -1] / max(rep_g.integrals[mid_bin, -1], 1e-300)
    assert ratio > 1e3


def test_wavefront_inconclusive_small_grid():
    grid = default_grid(16)  # L = 2: weight ladder spans < 2 decades
    f = gaussian(grid)
    rep = wavefront(f, r0=1.5)
    assert np.all(rep.inconclusive)


def test_wavefront_covariant_rep(grid256):
    f = sign_gaussian(grid256)
    rep = wavefront(f, rep=CovariantForm.tau(0.25))
    assert len(rep.singular_bins()) > 0


def test_propagation_gaussian_empty(grid256, phi):
    H0 = Hamiltonian(FREE)
    res = wavefront_propagation_check(H0, 0.05, phi)
    assert res["distance_bins"] == 0.0
    assert res["observed"] == [] and res["predicted"] == []


def test_propagation_free_particle_shear(grid256):
    f = sign_gaussian(grid256)
    H0 = Hamiltonian(FREE)
    res = wavefront_propagation_check(H0, 0.05, f)
    assert res["distance_bins"] <= 1.0, res


def test_propagation_harmonic_quarter_period(grid256):
    f = sign_gaussian(grid256)
    H0 = Hamiltonian(HARMONIC)
    res = wavefront_propagation_check(H0, np.pi / 2, f)
    assert res["distance_bins"] <= 1.0, res
    # the xi-axis singular set lands on the x-axis
    n = 64
    quarter = n // 4
    assert any(b in res["observed"] for b in (0, n // 2, n - 1, n // 2 - 1, 1, n // 2 + 1))


def test_spectrogram_convolution_identity(grid256, phi, rng):
    from metaplab.signals import smooth_noise

    f = smooth_noise(grid256, rng)
    assert spectrogram_convolution_check(f, phi, CovariantForm.tau(0.5)) <= 1e-6
    assert spectrogram_convolution_check(f, phi, CovariantForm.tau(0.25)) <= 1e-6
