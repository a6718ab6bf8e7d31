"""Grid transforms against brute-force quadrature of the defining integrals."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from metaplab._threads import max_workers
from metaplab.signals import (
    Axis,
    GridError,
    GridSignal,
    PhaseSpaceField,
    SamplingError,
    _freq_phases,
    centered_dft,
    chirp_multiply,
    conjugate,
    default_grid,
    eval_trig,
    fourier,
    gaussian,
    hermite,
    inverse_fourier,
    partial_fourier_2,
    rescale,
    self_dual_axis,
    shift_spectral,
    smooth_noise,
    tensor,
    tf_shift,
)


def dft_oracle(sig: GridSignal) -> np.ndarray:
    """O(N^2) Riemann sum of the transform integral f(t) e^{-2 pi i xi t} dt."""
    ax = sig.grid.axes[0]
    t = ax.points()
    xi = ax.freqs()
    return ax.step * np.exp(-2j * np.pi * np.outer(xi, t)) @ sig.values


def test_default_grid_is_self_dual(grid256):
    ax = grid256.axes[0]
    assert ax.n == 256 and ax.half_width == pytest.approx(8.0)
    assert ax.is_self_dual
    assert np.allclose(ax.points(), ax.freqs())


def test_fourier_matches_quadrature_oracle(grid256, rng):
    for sig in (gaussian(grid256), hermite(grid256, 3), smooth_noise(grid256, rng)):
        got = fourier(sig).values
        want = dft_oracle(sig)
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


def test_fourier_oracle_at_512():
    grid = default_grid(512)
    sig = hermite(grid, 3)
    got = fourier(sig).values
    want = dft_oracle(sig)
    assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


def test_gaussian_is_fourier_fixed_point(phi):
    assert np.max(np.abs(fourier(phi).values - phi.values)) <= 1e-12


def test_hermite_eigenvalues(grid256):
    for n in range(6):
        h = hermite(grid256, n)
        got = fourier(h).values
        assert np.max(np.abs(got - (-1j) ** n * h.values)) <= 1e-10


def test_impulse_transforms_to_constant(grid256):
    vals = np.zeros(256)
    vals[128] = 1.0
    f = GridSignal(grid256, vals)
    fh = fourier(f).values
    assert np.max(np.abs(fh - grid256.axes[0].step)) <= 1e-14


def test_parseval_and_inverse(grid256, rng):
    f = smooth_noise(grid256, rng)
    fh = fourier(f)
    assert abs(fh.norm() - f.norm()) <= 1e-12 * f.norm()
    back = inverse_fourier(fh)
    assert np.max(np.abs(back.values - f.values)) <= 1e-12


def test_fourier_quarter_period(grid256, rng):
    # fourier^2 is the reflection, fourier^4 the identity
    f = smooth_noise(grid256, rng)
    twice = fourier(fourier(f)).values
    refl = f.values[(-np.arange(256)) % 256]
    assert np.max(np.abs(twice - refl)) <= 1e-12
    four = fourier(fourier(fourier(fourier(f)))).values
    assert np.max(np.abs(four - f.values)) <= 1e-12


def test_translation_modulation_exchange(grid256, rng):
    f = smooth_noise(grid256, rng)
    x0 = 1.0
    shifted = tf_shift(f, (x0, 0.0))
    lhs = fourier(shifted).values
    xi = grid256.axes[0].freqs()
    rhs = np.exp(-2j * np.pi * xi * x0) * fourier(f).values
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_partial_fourier_on_tensor(grid256, rng):
    f = gaussian(grid256)
    g = smooth_noise(grid256, rng)
    F = tensor(f, g)
    got = partial_fourier_2(F).values
    want = np.outer(f.values, fourier(g).values)
    assert np.max(np.abs(got - want)) <= 1e-12


def test_partial_fourier_direct_quadrature():
    grid = default_grid(64)
    ax = grid.axes[0]
    rng = np.random.default_rng(7)
    vals = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
    F = PhaseSpaceField(ax, ax, vals)
    got = partial_fourier_2(F).values
    E = ax.step * np.exp(-2j * np.pi * np.outer(ax.points(), ax.freqs()))
    want = vals @ E
    assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


def test_chirp_multiply_basics(grid256, phi):
    same = chirp_multiply(phi, 0.0)
    assert np.array_equal(same.values, phi.values)
    out = chirp_multiply(phi, 1.0)
    t = grid256.axes[0].points()
    assert np.max(np.abs(out.values - np.exp(1j * np.pi * t ** 2) * phi.values)) == 0.0
    assert np.max(np.abs(np.abs(out.values) - np.abs(phi.values))) <= 1e-15


def test_chirp_guard_trips(grid256, phi):
    with pytest.raises(SamplingError):
        chirp_multiply(phi, 1.5)


def test_rescale_identity_and_reflection(grid256, phi):
    assert np.max(np.abs(rescale(phi, 1.0).values - phi.values)) == 0.0
    refl = rescale(phi, -1.0)
    assert np.max(np.abs(refl.values - phi.values)) <= 1e-12  # phi is even


def test_rescale_gaussian_closed_form(grid256, phi):
    out = rescale(phi, 2.0)
    t = grid256.axes[0].points()
    want = np.sqrt(2.0) * 2.0 ** 0.25 * np.exp(-np.pi * (2.0 * t) ** 2)
    assert np.max(np.abs(out.values - want)) <= 1e-10
    assert abs(out.norm() - phi.norm()) <= 1e-8


def test_rescale_2d_linear_map():
    ax = self_dual_axis(64)
    x = ax.points()
    X, Y = np.meshgrid(x, x, indexing="ij")
    F = PhaseSpaceField(ax, ax, np.exp(-np.pi * (X ** 2 + Y ** 2)) * (1 + 0.3 * X))
    L = np.array([[1.1, 0.4], [-0.3, 0.8]])
    out = rescale(F, L)
    Xp = L[0, 0] * X + L[0, 1] * Y
    Yp = L[1, 0] * X + L[1, 1] * Y
    want = np.sqrt(abs(np.linalg.det(L))) * np.exp(-np.pi * (Xp ** 2 + Yp ** 2)) * (
        1 + 0.3 * Xp
    )
    assert np.max(np.abs(out.values - want)) <= 1e-7


def test_tf_shift_unitary_and_commutation(grid256, rng):
    f = smooth_noise(grid256, rng)
    z = (1.0, 2.0)
    out = tf_shift(f, z)
    assert abs(out.norm() - f.norm()) <= 1e-13
    # pi(z) pi(w) = exp(-2 pi i x . xi') pi(z + w)
    w = (0.5, -1.5)
    lhs = tf_shift(tf_shift(f, w), z).values
    rhs = np.exp(-2j * np.pi * z[0] * w[1]) * tf_shift(f, (z[0] + w[0], z[1] + w[1])).values
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_tf_shift_off_grid_is_unitary(grid256, phi):
    out = tf_shift(phi, (0.01, 0.0))
    assert abs(out.norm() - phi.norm()) <= 1e-12


def test_tensor_norm_and_conjugate(grid256, rng):
    f = smooth_noise(grid256, rng)
    g = smooth_noise(grid256, rng)
    F = tensor(f, conjugate(g))
    assert abs(F.norm() - f.norm() * g.norm()) <= 1e-12
    i, j = 10, 200
    assert F.values[i, j] == pytest.approx(f.values[i] * np.conj(g.values[j]))


def test_eval_trig_and_upsample(grid256, phi):
    ax = grid256.axes[0]
    pts = np.array([0.123, -3.21, 5.05])
    got = eval_trig(phi.values, 0, ax, pts)
    want = 2.0 ** 0.25 * np.exp(-np.pi * pts ** 2)
    assert np.max(np.abs(got - want)) <= 1e-12
    half = shift_spectral(phi.values, 0, ax, ax.step / 2)
    fine = np.stack([phi.values, half], axis=1).ravel()
    tfine = -ax.half_width + ax.step / 2 * np.arange(2 * ax.n)
    assert np.max(np.abs(fine - 2.0 ** 0.25 * np.exp(-np.pi * tfine ** 2))) <= 1e-12
    assert np.max(np.abs(fine - roll_upsample2(phi.values, 0))) <= 1e-15


@pytest.mark.parametrize("axis", [0, 1])
def test_shift_spectral_one_amount_per_slice(rng, axis):
    axes = (Axis(16, 2.0), Axis(12, 1.5))
    ax = axes[axis]
    v = rng.standard_normal((16, 12)) + 1j * rng.standard_normal((16, 12))
    other = 1 - axis
    amounts = rng.uniform(-1.0, 1.0, v.shape[other])
    tol = 1e-14 * np.max(np.abs(v))
    got = shift_spectral(v, axis, ax, np.expand_dims(amounts, axis))
    for j, a in enumerate(amounts):
        line = np.take(v, j, axis=other)
        want = shift_spectral(line, 0, ax, a)
        assert np.max(np.abs(np.take(got, j, axis=other) - want)) <= tol
        oracle = eval_trig(line, 0, ax, ax.points() + a)
        assert np.max(np.abs(want - oracle)) <= tol


def test_shift_spectral_bank_from_length_one_slot(rng):
    ax = Axis(32, 3.0)
    f = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    amounts = rng.uniform(-2.0, 2.0, 7)
    tol = 1e-14 * np.max(np.abs(f))
    bank = shift_spectral(f[:, None], 0, ax, amounts[None, :])
    assert bank.shape == (32, 7)
    for m, a in enumerate(amounts):
        assert np.max(np.abs(bank[:, m] - shift_spectral(f, 0, ax, a))) <= tol
        assert np.max(np.abs(bank[:, m] - eval_trig(f, 0, ax, ax.points() + a))) <= tol


@pytest.mark.parametrize("n", [2, 16, 18, 128, 256])
@pytest.mark.parametrize("scale", [1.0, -1.0, 1.0 / 0.3])
def test_freq_phases_matches_the_dense_table(n, scale):
    # the coarse-times-fine split of each row against one exponential per
    # entry, at points inside the window (fine width K = 3 at n = 18, 1 at n = 2)
    ax = self_dual_axis(n)
    rng = np.random.default_rng(n)
    for points in (0.37 * ax.half_width,
                   ax.points(),
                   rng.uniform(-ax.half_width, ax.half_width, (3, 5))):
        want = np.exp(2j * np.pi * np.multiply.outer(scale * np.asarray(points), ax.freqs()))
        got = _freq_phases(points, ax, scale)
        assert got.shape == np.shape(points) + (n,)
        assert np.max(np.abs(got - want)) <= 1e-12


def test_import_leaves_scipy_linalg_unloaded():
    # importing the package loads scipy.fft only; no library module uses scipy.linalg
    code = "import sys, metaplab; print('scipy.linalg' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def test_check_tau_run_leaves_scipy_linalg_unloaded(tmp_path):
    # one BLAS per process: scipy's bundled OpenBLAS keeps its own thread
    # pool, which competes with numpy's for the CPUs once anything calls it;
    # evolve --check-tau runs hamiltonian_flow and the transport check
    argv = ["evolve", "--n", "64", "--times", "0.05", "--check-tau", "0.5",
            "--out", str(tmp_path)]
    code = ("import sys; from metaplab import cli; "
            f"rc = cli.main({argv!r}); print(rc, 'scipy.linalg' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.split() == ["0", "False"]


def test_scipy_fft_is_the_only_scipy_import():
    src = Path(__file__).resolve().parents[1] / "src" / "metaplab"
    files = sorted(src.glob("*.py"))
    assert files
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            for name in names:
                if name.split(".")[0] == "scipy":
                    assert name == "scipy.fft", (path.name, name)


def test_max_workers_is_capped_at_the_cpu_count(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    monkeypatch.setenv("METAPLAB_THREADS", str(10 ** 9))
    assert max_workers() == 3
    monkeypatch.setenv("METAPLAB_THREADS", "2")
    assert max_workers() == 2


def test_grid_validation():
    with pytest.raises(GridError):
        Axis(255, 8.0)
    with pytest.raises(GridError):
        Axis(256, -1.0)
    with pytest.raises(GridError):
        GridSignal(default_grid(64), np.zeros(65))


def roll_dft(values, axis, step, inverse):
    """Centred DFT through explicit shifts: the reference for `centered_dft`."""
    shifted = np.fft.ifftshift(values, axes=axis)
    if inverse:
        out = np.fft.ifft(shifted, axis=axis) * (step * values.shape[axis])
    else:
        out = np.fft.fft(shifted, axis=axis) * step
    return np.fft.fftshift(out, axes=axis)


def roll_upsample2(values, axis):
    """Exact 2x upsampling along `axis` by centred-spectrum zero padding."""
    n = values.shape[axis]
    coeff = roll_dft(values, axis, 1.0 / n, inverse=False)
    pad = [(0, 0)] * values.ndim
    pad[axis] = (n // 2, n // 2)
    return roll_dft(np.pad(coeff, pad), axis, 1.0, inverse=True)


@pytest.mark.parametrize("shape, axes", [
    ((256,), (0,)),
    ((64, 48), (0,)),
    ((64, 48), (1,)),
    ((64, 48), (0, 1)),
    ((8, 6, 16, 12), (2, 3)),
])
def test_centered_dft_and_upsample2_match_shift_reference(shape, axes):
    rng = np.random.default_rng(len(shape) + sum(axes))
    v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    steps = tuple(0.25 + 0.125 * a for a in axes)
    for inverse in (False, True):
        want = v
        for a, step in zip(axes, steps):
            want = roll_dft(want, a, step, inverse)
        got = centered_dft(v, axes, steps, inverse)
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
        if len(axes) == 1:
            single = centered_dft(v, axes[0], steps[0], inverse)
            assert np.array_equal(single, got)
    # the upsampled rows: the samples at even indices, the half-step shift
    # (Nyquist ramp at -N/2) at odd ones
    for a in axes:
        n = v.shape[a]
        ax = Axis(n, 1.0 + a)
        want = roll_upsample2(v, a)
        tol = 1e-15 * np.max(np.abs(want))
        assert np.max(np.abs(np.take(want, np.arange(0, 2 * n, 2), axis=a) - v)) <= tol
        half = shift_spectral(v, a, ax, ax.step / 2)
        assert np.max(np.abs(np.take(want, np.arange(1, 2 * n, 2), axis=a) - half)) <= tol


def test_only_signals_calls_the_fft():
    # one DFT primitive: no shift copies anywhere, FFT calls only in signals.py
    src = Path(__file__).resolve().parents[1] / "src" / "metaplab"
    files = sorted(src.glob("*.py"))
    assert files
    for path in files:
        text = path.read_text()
        assert not re.search(r"\b(i?fftshift)\b", text), path.name
        if path.name != "signals.py":
            assert not re.search(r"\b(np\.fft|numpy\.fft|scipy\.fft)\b", text), path.name


def test_one_representation_dispatcher():
    # wigner.represent is the one place a representation spec picks a route
    src = Path(__file__).resolve().parents[1] / "src" / "metaplab"
    tree = ast.parse((src / "cli.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("wigner"):
            assert [a.name for a in node.names] == ["represent"]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            assert "wigner" not in [a.name.rsplit(".", 1)[-1] for a in node.names]
    for path in sorted(src.glob("*.py")):
        text = path.read_text()
        assert "stft_global" not in text and "_field_for_rep" not in text, path.name


def test_one_byte_budget_is_the_memory_guard():
    # no per-call size knob and no second cap: memory guards go through the
    # byte budget in signals.py; conditioning goes through
    # symplectic._invertible and the chirp slack is signals._GUARD_SLACK
    src = Path(__file__).resolve().parents[1] / "src" / "metaplab"
    files = sorted(src.glob("*.py"))
    assert files
    for path in files:
        text = path.read_text()
        assert not re.search(r"n_guard|N_GUARD", text), path.name
        assert not re.search(r"np\.linalg\.cond|RESCALE_COND_BOUND", text), path.name
        assert not re.search(r"\.n\s*>\s*\d", text), path.name
        if path.name != "signals.py":
            assert "_BYTE_BUDGET" not in text, path.name
            assert not re.search(r"1\.0\s*\+\s*1(\.0)?e-9", text), path.name
        # dense phase tables over grid frequencies go through
        # signals._freq_phases; only the quadrature oracle builds its own
        dense = r"np\.exp\(\s*[-+]?2j\s*\*\s*np\.pi\s*\*[^()]*np\.outer\("
        for m in re.finditer(dense, text):
            where = re.findall(r"^(?:def|class) (\w+)", text[:m.start()], re.M)
            assert where[-1:] == ["apply_free_quadrature"], (path.name, m.group())
