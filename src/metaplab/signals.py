"""Discrete function spaces on centered periodic grids.

Everything in this package runs on the periodized model: a signal is the
restriction of a 2L-periodic, band-limited function to the centered grid
x_k = -L + k * (2L/N), and the matching frequency grid is
xi_j = (-N/2 + j) / (2L).  With the step weights folded in, the discrete
Fourier transform is then an exact unitary and circular shifts are exact,
which is what makes the operator identities in the rest of the package hold
to roundoff instead of to quadrature error.  Off-grid evaluation takes its
phase tables exp(2 pi i t xi_j) from `_freq_phases`, about 2 sqrt(N)
exponentials per row.

Guards: each refusal is decided in one function.  The CLI exits 3 on
`SamplingError`, `GridError` and `DecompositionError`, 2 on other
`SymplecticError`s.
- aliasing: `chirp_stress` (edge frequency over Nyquist) against
  `_GUARD_SLACK`; `chirp_guard` raises `SamplingError` (exit 3), and the
  chain search in `metaplectic` ranks its candidates by the same ratios;
- conditioning: `symplectic._invertible`; `GridError` for rescales (exit 3),
  the transport composition `F(chi_t^{-1} z)` of
  `schrodinger.evolved_wigner_check` included, and `SymplecticError` for
  free factorizations (exit 2);
- size: `_check_bytes`, an estimate from the shapes against `_BYTE_BUDGET`
  before anything is allocated; `GridError` (exit 3);
- membership: `symplectic.is_symplectic` tests A and -J A^T J, so `inv()`
  never refuses; `SymplecticError` (exit 2), except for the flows of
  `symplectic.hamiltonian_flow`, which are symplectic in exact arithmetic:
  one that overflows or fails the test in float64 is a `SamplingError`
  (exit 3).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.fft

from ._threads import max_workers
from .symplectic import SamplingError, _invertible

__all__ = [
    "Axis",
    "Grid",
    "GridSignal",
    "PhaseSpaceField",
    "SamplingError",
    "GridError",
    "fourier",
    "inverse_fourier",
    "field_fourier",
    "partial_fourier_2",
    "chirp_multiply",
    "rescale",
    "tf_shift",
    "tensor",
    "conjugate",
    "translate_field",
    "gaussian",
    "hermite",
    "sign_gaussian",
    "two_bump",
    "smooth_noise",
    "default_grid",
    "self_dual_axis",
    "phase_align",
    "centered_dft",
    "spectral_coefficients",
    "synthesize",
    "eval_trig",
    "shift_spectral",
]

# slack so that the boundary case |C| * L == Nyquist passes the chirp guard
_GUARD_SLACK = 1.0 + 1.0e-9
# the one memory guard: bytes that one call may allocate
_BYTE_BUDGET = 256 * 2 ** 20


class GridError(ValueError):
    """Shape or grid-compatibility violation."""


def _check_bytes(what: str, nbytes: int) -> None:
    """GridError when `what` needs more than the budget; `nbytes` is worked
    out from array shapes before anything is allocated."""
    if nbytes > _BYTE_BUDGET:
        raise GridError(f"{what} needs about {np.ceil(nbytes / 2 ** 20):.0f} MiB, "
                        f"past the {_BYTE_BUDGET / 2 ** 20:.0f} MiB budget")


@dataclass(frozen=True)
class Axis:
    """One sampled axis: ``n`` even points covering [-half_width, half_width)."""

    n: int
    half_width: float

    def __post_init__(self):
        if self.n <= 0 or self.n % 2 != 0:
            raise GridError(f"axis needs a positive even sample count, got {self.n}")
        if not self.half_width > 0:
            raise GridError(f"axis half-width must be positive, got {self.half_width}")

    @property
    def step(self) -> float:
        return 2.0 * self.half_width / self.n

    @property
    def freq_step(self) -> float:
        return 1.0 / (2.0 * self.half_width)

    @property
    def freq_half_width(self) -> float:
        return self.n / (4.0 * self.half_width)

    def points(self) -> np.ndarray:
        return -self.half_width + self.step * np.arange(self.n)

    def freqs(self) -> np.ndarray:
        return self.freq_step * (np.arange(self.n) - self.n // 2)

    def dual(self) -> "Axis":
        return Axis(self.n, self.freq_half_width)

    @property
    def is_self_dual(self) -> bool:
        return abs(self.freq_half_width - self.half_width) <= 1e-12 * self.half_width


def self_dual_axis(n: int) -> Axis:
    """Axis whose frequency grid coincides with its space grid (L = sqrt(n)/2)."""
    return Axis(n, float(np.sqrt(n)) / 2.0)


@dataclass(frozen=True)
class Grid:
    """Physical-space grid of a signal; ``dim`` is 1 or 2."""

    axes: tuple[Axis, ...]

    def __post_init__(self):
        if len(self.axes) not in (1, 2):
            raise GridError("only 1- and 2-dimensional grids are supported")

    @property
    def dim(self) -> int:
        return len(self.axes)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(ax.n for ax in self.axes)

    def dual(self) -> "Grid":
        return Grid(tuple(ax.dual() for ax in self.axes))


def default_grid(n: int = 256, half_width: float | None = None) -> Grid:
    """Desk-scale 1-D grid; the default N=256, L=8 grid is self-dual."""
    ax = Axis(n, half_width) if half_width is not None else self_dual_axis(n)
    return Grid((ax,))


class _Sampled:
    """Shared behaviour of signals and phase-space fields."""

    values: np.ndarray

    def _axes(self) -> tuple[Axis, ...]:
        raise NotImplementedError

    @property
    def cell(self) -> float:
        out = 1.0
        for ax in self._axes():
            out *= ax.step
        return out

    def norm(self) -> float:
        return float(np.sqrt(self.cell * np.sum(np.abs(self.values) ** 2)))

    def inner(self, other) -> complex:
        if self.values.shape != other.values.shape:
            raise GridError("inner product needs matching shapes")
        return complex(self.cell * np.sum(self.values * np.conj(other.values)))


@dataclass(frozen=True)
class GridSignal(_Sampled):
    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.complex128)
        object.__setattr__(self, "values", vals)
        if vals.shape != self.grid.shape:
            raise GridError(
                f"values shape {vals.shape} does not match grid shape {self.grid.shape}"
            )

    def _axes(self) -> tuple[Axis, ...]:
        return self.grid.axes

    def with_values(self, values: np.ndarray) -> "GridSignal":
        return GridSignal(self.grid, values)


@dataclass(frozen=True)
class PhaseSpaceField(_Sampled):
    """Complex samples of a function of z = (x, xi) on a 2-D grid (d = 1)."""

    x_axis: Axis
    xi_axis: Axis
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.complex128)
        object.__setattr__(self, "values", vals)
        if vals.shape != (self.x_axis.n, self.xi_axis.n):
            raise GridError(
                f"field shape {vals.shape} does not match axes "
                f"({self.x_axis.n}, {self.xi_axis.n})"
            )

    def _axes(self) -> tuple[Axis, ...]:
        return (self.x_axis, self.xi_axis)

    def with_values(self, values: np.ndarray) -> "PhaseSpaceField":
        return PhaseSpaceField(self.x_axis, self.xi_axis, values)


def _axes_of(obj) -> tuple[Axis, ...]:
    if isinstance(obj, GridSignal):
        return obj.grid.axes
    if isinstance(obj, PhaseSpaceField):
        return (obj.x_axis, obj.xi_axis)
    raise GridError(f"expected GridSignal or PhaseSpaceField, got {type(obj)!r}")


# ---------------------------------------------------------------------------
# centered DFT machinery


def _sign_pattern(shape: tuple[int, ...], axes: tuple[int, ...], scale: float) -> np.ndarray:
    """scale * prod_a (-1)^{k_a} over `axes`, broadcastable against `shape`."""
    out = np.array(scale)
    for a in axes:
        s = np.ones(shape[a])
        s[1::2] = -1.0
        view = [1] * len(shape)
        view[a] = -1
        out = out * s.reshape(view)
    return out


def centered_dft(values: np.ndarray, axes, steps, inverse: bool) -> np.ndarray:
    """DFT matching the continuum transform on centered grids.

    Forward computes step * sum_k v_k exp(-2 pi i xi_j x_k); inverse computes
    step * sum_j v_j exp(+2 pi i xi_j x_k), over one axis (int `axes`, float
    `steps`) or several at once (matching tuples).  Composing forward (with
    space step) and inverse (with frequency step) is the identity because
    N dx dxi = 1.

    The centred indices j - N/2, k - N/2 enter only through the sign identity
    exp(-2 pi i (j - N/2)(k - N/2)/N) = (-1)^{N/2} (-1)^j (-1)^k
    exp(-2 pi i jk/N) for even N, so the transform is
    (-1)^{N/2} s * F(s * v) with s_k = (-1)^k and no shifted copies.
    """
    if isinstance(axes, (int, np.integer)):
        axes, steps = (axes,), (steps,)
    scale = 1.0
    for a, step in zip(axes, steps, strict=True):
        n = values.shape[a]
        assert n % 2 == 0, "centered DFT needs even lengths"
        scale *= (-1.0) ** (n // 2) * step * (n if inverse else 1)
    transform = scipy.fft.ifftn if inverse else scipy.fft.fftn
    signed = values * _sign_pattern(values.shape, axes, 1.0)
    out = transform(signed, axes=axes, overwrite_x=True, workers=max_workers())
    out *= _sign_pattern(values.shape, axes, scale)
    return out


def _dft(values: np.ndarray, axes: tuple[Axis, ...], inverse: bool = False) -> np.ndarray:
    """Centred DFT over the leading grid `axes`; self-dual grids map onto themselves."""
    steps = tuple(ax.freq_step if inverse else ax.step for ax in axes)
    return centered_dft(values, tuple(range(len(axes))), steps, inverse)


def fourier(f: GridSignal) -> GridSignal:
    """Unitary Fourier transform onto the dual grid (same grid when self-dual)."""
    return GridSignal(f.grid.dual(), _dft(f.values, f.grid.axes))


def inverse_fourier(f: GridSignal) -> GridSignal:
    return GridSignal(f.grid.dual(), _dft(f.values, f.grid.axes, inverse=True))


def field_fourier(F: PhaseSpaceField, inverse: bool = False) -> PhaseSpaceField:
    """Full 2-D transform of a phase-space field (self-dual axes required)."""
    axes = (F.x_axis, F.xi_axis)
    for ax in axes:
        if not ax.is_self_dual:
            raise GridError("field transforms need self-dual axes")
    return F.with_values(_dft(F.values, axes, inverse))


def partial_fourier_2(F: PhaseSpaceField) -> PhaseSpaceField:
    """DFT along the second axis only, same normalization as `fourier`."""
    vals = centered_dft(F.values, 1, F.xi_axis.step, inverse=False)
    return PhaseSpaceField(F.x_axis, F.xi_axis.dual(), vals)


def spectral_coefficients(values: np.ndarray, axis: int, ax: Axis) -> np.ndarray:
    """Coefficients c_j with f(t) = sum_j c_j exp(2 pi i xi_j t) along `axis`."""
    return centered_dft(values, axis, ax.step * ax.freq_step, inverse=False)


def synthesize(coeff: np.ndarray, axis: int) -> np.ndarray:
    """Samples on the centered grid from trig coefficients (inverse of the above)."""
    return centered_dft(coeff, axis, 1.0, inverse=True)


def _freq_phases(points, ax: Axis, scale: float = 1.0) -> np.ndarray:
    """exp(2 pi i t scale xi_k) over `ax.freqs()`, one row (last axis) per point t.

    The frequencies are a progression, so k = K k1 + k2 with K | n near sqrt(n)
    splits each row into a coarse (n/K) and a fine (K) table: about 2 sqrt(n)
    exponentials per row instead of n.
    """
    t = scale * np.asarray(points, dtype=float)[..., None]
    K = max(d for d in range(1, int(np.sqrt(ax.n)) + 1) if ax.n % d == 0)
    coarse = np.exp(2j * np.pi * t * ax.freqs()[::K])
    fine = np.exp(2j * np.pi * t * (ax.freq_step * np.arange(K)))
    return (coarse[..., :, None] * fine[..., None, :]).reshape(t.shape[:-1] + (ax.n,))


def eval_trig(values: np.ndarray, axis: int, ax: Axis, points: np.ndarray) -> np.ndarray:
    """Evaluate the band-limited interpolant along `axis` at arbitrary points."""
    coeff = spectral_coefficients(values, axis, ax)
    E = _freq_phases(points, ax)
    moved = np.moveaxis(coeff, axis, -1)
    out = moved @ E.T
    return np.moveaxis(out, -1, axis)


def shift_spectral(values: np.ndarray, axis: int, ax: Axis, amount) -> np.ndarray:
    """Samples of f(t + amount) along `axis` via the exact phase ramp.

    Unitary for any amount.  `amount` is a scalar, or an array that
    broadcasts against `values` with length 1 on `axis`: one shift per slice,
    so a length-1 slot of `values` becomes a bank of shifted copies.  The
    Nyquist coefficient carries the ramp of frequency -N/2 (`Axis.freqs`).
    The Weyl and Wigner routes take every half-step sample from here with
    amount = step / 2, so they share this one Nyquist convention.
    """
    coeff = spectral_coefficients(values, axis, ax)
    amount = np.asarray(amount, dtype=float)
    amount = amount.reshape((1,) * (values.ndim - amount.ndim) + amount.shape)
    ramp = np.swapaxes(_freq_phases(amount, ax), axis % values.ndim, -1)[..., 0]
    return synthesize(coeff * ramp, axis)


# ---------------------------------------------------------------------------
# pointwise and geometric operations


def _as_matrix(C, dim: int) -> np.ndarray:
    M = np.atleast_2d(np.asarray(C, dtype=float))
    if M.shape != (dim, dim):
        raise GridError(f"expected a {dim}x{dim} matrix, got shape {M.shape}")
    return M


def chirp_phase(axes: tuple[Axis, ...], C) -> np.ndarray:
    """Samples of exp(i pi C t . t) on the grid spanned by `axes`."""
    M = _as_matrix(C, len(axes))
    pts = [ax.points() for ax in axes]
    if len(axes) == 1:
        q = M[0, 0] * pts[0] ** 2
    else:
        x, y = np.meshgrid(pts[0], pts[1], indexing="ij")
        q = M[0, 0] * x * x + 2.0 * M[0, 1] * x * y + M[1, 1] * y * y
    return np.exp(1j * np.pi * q)


def chirp_stress(axes: tuple[Axis, ...], C) -> np.ndarray:
    """Per axis, the largest instantaneous frequency (C t)_i of exp(i pi C t . t)
    over the grid's Nyquist; a ratio past `_GUARD_SLACK` aliases."""
    M = _as_matrix(C, len(axes))
    widths = np.array([ax.half_width for ax in axes])
    return np.abs(M) @ widths / np.array([ax.freq_half_width for ax in axes])


def chirp_guard(axes: tuple[Axis, ...], C) -> None:
    """Reject chirps whose edge instantaneous frequency exceeds Nyquist."""
    M = _as_matrix(C, len(axes))
    if np.max(np.abs(M - M.T)) > 1e-10:
        raise GridError("chirp matrix must be symmetric")
    for i, (ratio, ax) in enumerate(zip(chirp_stress(axes, M), axes)):
        if ratio > _GUARD_SLACK:
            raise SamplingError(
                f"chirp aliases on axis {i}: edge frequency "
                f"{ratio * ax.freq_half_width:.4g} exceeds Nyquist {ax.freq_half_width:.4g}"
            )


def chirp_multiply(obj, C):
    """Multiply by the chirp exp(i pi C t . t); |values| is untouched."""
    axes = _axes_of(obj)
    chirp_guard(axes, C)
    return obj.with_values(obj.values * chirp_phase(axes, C))


def _axis_scale(values: np.ndarray, axis: int, ax: Axis, factor: float) -> np.ndarray:
    """Samples of f(factor * t) along one axis.

    |factor| = 1 is an exact grid permutation.  Otherwise the band-limited
    interpolant is evaluated at the mapped points with zero extension outside
    the fundamental window: evaluating the periodic continuation there would
    double-cover the torus and break the continuum norm identity.
    """
    if abs(factor - 1.0) < 1e-15:
        return values
    if abs(factor + 1.0) < 1e-15:
        # periodic reflection is an exact permutation on the centered grid
        idx = (-np.arange(ax.n)) % ax.n
        return np.take(values, idx, axis=axis)
    pts = factor * ax.points()
    out = eval_trig(values, axis, ax, pts)
    outside = (pts < -ax.half_width) | (pts >= ax.half_width)
    if np.any(outside):
        mask_shape = [1] * values.ndim
        mask_shape[axis] = -1
        out = out * (~outside).reshape(mask_shape)
    return out


def _lu_step_plans(M: np.ndarray):
    """Candidate elementary-step factorizations of M (each list applied in order).

    Steps are ("shear", axis, coef) and ("scale", f0, f1).  op_M = F o M with
    op_{AB} = op_B o op_A, so a factorization M = F1 F2 ... executes F1 first.
    """
    a, b, c, d = M[0, 0], M[0, 1], M[1, 0], M[1, 1]
    plans = []
    big = max(abs(a), abs(b), abs(c), abs(d))
    if abs(a) > 1e-12 * big:
        # M = [[1,0],[c/a,1]] @ diag(a, d - cb/a) @ [[1, b/a],[0,1]]
        s = d - c * b / a
        plans.append(
            [("shear", 1, c / a), ("scale", a, s), ("shear", 0, b / a)]
        )
    if abs(d) > 1e-12 * big:
        # M = [[1, b/d],[0,1]] @ [[1,0],[c/(a-bc/d),1]] @ diag(a - bc/d, d)
        d1 = a - b * c / d
        if abs(d1) > 1e-12 * big:
            plans.append(
                [("shear", 0, b / d), ("shear", 1, c / d1), ("scale", d1, d)]
            )
    return plans


def _plan_growth(plan) -> float:
    """Largest intermediate support extent when applying a step plan.

    A step ("shear"/"scale") maps the operand support by the inverse of its
    matrix factor; starting from a nominal box of half-size 1/2, track the
    bounding box and report the worst extent (in window units).  Plans whose
    intermediates escape the window wrap or clip content.
    """
    e = np.array([0.5, 0.5])
    worst = 0.5
    for step in plan:
        if step[0] == "shear":
            _, axis, coef = step
            e[axis] = e[axis] + abs(coef) * e[1 - axis]
        else:
            _, f0, f1 = step
            e = np.array([e[0] / max(abs(f0), 1e-12), e[1] / max(abs(f1), 1e-12)])
        worst = max(worst, float(np.max(e)))
    return worst


def _compose_linear_2d(values: np.ndarray, axes, M: np.ndarray) -> np.ndarray:
    """Samples of F(M z) through exact shear / scale / swap steps.

    Both LU-style factor orders are considered and the one whose intermediate
    supports stay smallest wins: a poorly ordered plan drives compact data
    through a tilted ridge that leaks past the window.
    """
    a, c = M[0, 0], M[1, 0]
    plans = _lu_step_plans(M)
    if not plans:
        # column pivot through the coordinate swap S: F(Mz) = (F o S)(S M z)
        # recurses once: M passed `_invertible`, so with a and d both tiny c is not
        if axes[0].n != axes[1].n:
            raise GridError("axis swap needs equal axis sizes")
        G = np.ascontiguousarray(values.T)
        return _compose_linear_2d(
            G, (axes[1], axes[0]), np.array([[M[1, 0], M[1, 1]], [M[0, 0], M[0, 1]]])
        )
    plan = min(plans, key=_plan_growth)
    out = values
    for step in plan:
        if step[0] == "shear":
            # F(.., t_axis + coef * t_other, ..): one exact shift per slice
            _, axis, coef = step
            if coef != 0.0:
                shape = [1] * out.ndim
                shape[1 - axis] = -1
                amount = (coef * axes[1 - axis].points()).reshape(shape)
                out = shift_spectral(out, axis, axes[axis], amount)
        else:
            _, f0, f1 = step
            out = _axis_scale(out, 0, axes[0], f0)
            out = _axis_scale(out, 1, axes[1], f1)
    return out


def _rescale_values(values: np.ndarray, axes: tuple[Axis, ...], L_mat) -> np.ndarray:
    """sqrt|det L| * F(L t) on samples whose leading axes are the grid `axes`."""
    M = _as_matrix(L_mat, len(axes))
    if not _invertible(M):
        raise GridError("rescale matrix condition number exceeds bound")
    scale = np.sqrt(abs(np.linalg.det(M)))
    if len(axes) == 1:
        return scale * _axis_scale(values, 0, axes[0], M[0, 0])
    return scale * _compose_linear_2d(values, axes, M)


def rescale(obj, L_mat):
    """sqrt|det L| * F(L t) via band-limited interpolation on the same grid."""
    return obj.with_values(_rescale_values(obj.values, _axes_of(obj), L_mat))


def _translate(values: np.ndarray, axis: int, ax: Axis, amount: float) -> np.ndarray:
    """Samples of f(t - amount) along `axis`: exact roll when on-grid."""
    steps = amount / ax.step
    if abs(steps - round(steps)) < 1e-9:
        return np.roll(values, int(round(steps)), axis=axis)
    return shift_spectral(values, axis, ax, -amount)


def tf_shift(f: GridSignal, z) -> GridSignal:
    """Time-frequency shift M_xi0 T_x0 f; exact circular shift for on-grid x0."""
    if f.grid.dim != 1:
        raise GridError("tf_shift is implemented for 1-D signals")
    x0, xi0 = float(z[0]), float(z[1])
    ax = f.grid.axes[0]
    vals = _translate(f.values, 0, ax, x0)
    return f.with_values(vals * np.exp(2j * np.pi * xi0 * ax.points()))


def translate_field(F: PhaseSpaceField, z) -> PhaseSpaceField:
    """T_z F(w) = F(w - z), exact circular shift per axis when z is on-grid."""
    out = F.values
    for i, (ax, amount) in enumerate(zip((F.x_axis, F.xi_axis), z)):
        out = _translate(out, i, ax, float(amount))
    return F.with_values(out)


def tensor(f: GridSignal, g: GridSignal) -> PhaseSpaceField:
    """Outer product f(x) g(y); conjugating g is the caller's business."""
    if f.grid.dim != 1 or g.grid.dim != 1:
        raise GridError("tensor needs two 1-D signals")
    if f.grid.axes != g.grid.axes:
        raise GridError("tensor needs signals on the same grid")
    ax = f.grid.axes[0]
    return PhaseSpaceField(ax, ax, np.outer(f.values, g.values))


def conjugate(f: GridSignal) -> GridSignal:
    return f.with_values(np.conj(f.values))


def phase_align(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Return v multiplied by the unimodular constant best matching u."""
    ip = np.vdot(v.ravel(), u.ravel())
    if abs(ip) == 0.0:
        return v
    return v * (ip / abs(ip))


# ---------------------------------------------------------------------------
# builtin signals


def gaussian(grid: Grid, center: float = 0.0, freq: float = 0.0) -> GridSignal:
    """L2-normalized Gaussian 2^(1/4) exp(-pi t^2), optionally shifted/modulated."""
    if grid.dim != 1:
        raise GridError("builtin signals are 1-D")
    t = grid.axes[0].points()
    vals = 2.0 ** 0.25 * np.exp(-np.pi * (t - center) ** 2)
    vals = vals * np.exp(2j * np.pi * freq * t)
    return GridSignal(grid, vals)


def hermite(grid: Grid, n: int) -> GridSignal:
    """Orthonormal Hermite function; eigenvector of `fourier` with eigenvalue (-i)^n."""
    if grid.dim != 1:
        raise GridError("builtin signals are 1-D")
    t = grid.axes[0].points()
    x = np.sqrt(2.0 * np.pi) * t
    h_prev = np.zeros_like(x)
    h = np.ones_like(x)
    for k in range(n):
        h_prev, h = h, 2.0 * x * h - 2.0 * k * h_prev
    fact = 1.0
    for k in range(2, n + 1):
        fact *= k
    norm = 2.0 ** 0.25 / np.sqrt(fact * 2.0 ** n)
    return GridSignal(grid, norm * h * np.exp(-np.pi * t ** 2))


def sign_gaussian(grid: Grid) -> GridSignal:
    """sign(t) exp(-pi t^2): the jump at 0 makes the xi-axis directions singular."""
    t = grid.axes[0].points()
    return GridSignal(grid, np.sign(t) * np.exp(-np.pi * t ** 2))


def two_bump(grid: Grid, x0: float = 5.0, xi0: float = 5.0) -> GridSignal:
    """T_{x0} phi + M_{xi0} phi: two coherent bumps plus midpoint interference."""
    return GridSignal(
        grid, gaussian(grid, center=x0).values + gaussian(grid, freq=xi0).values
    )


def smooth_noise(grid: Grid, rng: np.random.Generator) -> GridSignal:
    """Random signal with space and frequency headroom.

    White noise is low-passed to 0.08 * Nyquist and windowed by a Gaussian
    envelope of width 0.08 * L, then L2-normalized, so the rescaling
    operators act on it within their stated tolerance.
    """
    ax = grid.axes[0]
    spec = rng.standard_normal(ax.n) + 1j * rng.standard_normal(ax.n)
    spec *= np.exp(-0.5 * (ax.freqs() / (0.08 * ax.freq_half_width)) ** 2)
    vals = centered_dft(spec, 0, ax.freq_step, inverse=True)
    vals *= np.exp(-0.5 * (ax.points() / (0.08 * ax.half_width)) ** 2)
    sig = GridSignal(grid, vals)
    return sig.with_values(sig.values / sig.norm())
