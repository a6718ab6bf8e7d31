"""Weyl and matrix-parametrized quantization as dense grid operators.

Symbols are primarily callables a(x, xi) evaluated on demand (the grid is a
cache, not the source of truth), so midpoint and affinely-composed arguments
never pick up interpolation error.  Operators are stored as plain matvec
matrices: (M f)[k] = sum_m M[k, m] f[m] with the quadrature step folded in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .metaplectic import apply
from .signals import (
    Axis,
    GridError,
    GridSignal,
    PhaseSpaceField,
    SamplingError,
    _check_bytes,
    _freq_phases,
    centered_dft,
    chirp_phase,
    eval_trig,
    field_fourier,
    shift_spectral,
    spectral_coefficients,
)
from .symplectic import (
    BlockDecomposition,
    CovariantForm,
    is_covariant,
    is_totally_wigner_decomposable,
    sympl,
)
from .wigner import wigner_A_covariant

__all__ = [
    "SymbolGrid",
    "DenseOperator",
    "weyl",
    "weyl_4d",
    "weyl_4d_apply",
    "inverse_weyl",
    "op_A",
    "requantize",
    "symbol_pullback",
    "pullback_closed_form",
    "conjugation_check",
    "op_A_covariant_integral",
]

@dataclass(frozen=True)
class SymbolGrid:
    """Phase-space symbol: a callable and/or its samples on a grid.

    `func(x, xi)` must broadcast over arrays.  When only samples are given,
    off-grid evaluation goes through the band-limited interpolant.
    """

    x_axis: Axis
    xi_axis: Axis
    func: Callable | None = None
    values: np.ndarray | None = None

    def __post_init__(self):
        if self.func is None and self.values is None:
            raise ValueError("symbol needs a callable or samples")
        if self.values is not None:
            vals = np.asarray(self.values, dtype=np.complex128)
            if vals.shape != (self.x_axis.n, self.xi_axis.n):
                raise GridError("symbol samples do not match the axes")
            object.__setattr__(self, "values", vals)

    @classmethod
    def from_function(cls, func: Callable, x_axis: Axis, xi_axis: Axis | None = None) -> "SymbolGrid":
        return cls(x_axis, xi_axis if xi_axis is not None else x_axis.dual(), func=func)

    @classmethod
    def from_field(cls, F: PhaseSpaceField) -> "SymbolGrid":
        return cls(F.x_axis, F.xi_axis, values=F.values.copy())

    @classmethod
    def constant(cls, value: complex, x_axis: Axis) -> "SymbolGrid":
        return cls.from_function(lambda x, xi: np.full(np.broadcast(x, xi).shape, value, dtype=np.complex128), x_axis)

    def sample(self) -> PhaseSpaceField:
        if self.values is not None:
            return PhaseSpaceField(self.x_axis, self.xi_axis, self.values)
        X, Y = np.meshgrid(self.x_axis.points(), self.xi_axis.points(), indexing="ij")
        return PhaseSpaceField(self.x_axis, self.xi_axis, self.eval(X, Y))

    def eval(self, x: np.ndarray, xi: np.ndarray) -> np.ndarray:
        """Evaluate at arbitrary broadcastable points; samples go through the
        2-D interpolant in blocks of points, so work arrays stay O(block n).

        The callable runs with numpy's floating-point warnings off, and a nan
        or inf among its values raises SamplingError.
        """
        if self.func is not None:
            with np.errstate(all="ignore"):
                vals = np.asarray(self.func(x, xi), dtype=np.complex128)
            if not np.all(np.isfinite(vals)):
                raise SamplingError("the symbol is not finite at every sample point")
            return vals
        shape = np.broadcast(x, xi).shape
        xb = np.broadcast_to(np.asarray(x, dtype=float), shape).ravel()
        yb = np.broadcast_to(np.asarray(xi, dtype=float), shape).ravel()
        c2 = spectral_coefficients(spectral_coefficients(self.values, 0, self.x_axis), 1, self.xi_axis)
        block = max(1, 2 ** 19 // max(c2.shape))  # about 8 MiB per work array
        out = np.empty(xb.size, dtype=np.complex128)
        for s in range(0, xb.size, block):
            Ex = _freq_phases(xb[s:s + block], self.x_axis)
            Ey = _freq_phases(yb[s:s + block], self.xi_axis)
            out[s:s + block] = ((Ex @ c2) * Ey).sum(1)
        return out.reshape(shape)


@dataclass(frozen=True)
class DenseOperator:
    """Dense matrix acting on sample vectors; kind is "signal" or "field"."""

    matrix: np.ndarray
    axes: tuple[Axis, ...]
    kind: str = "signal"

    def __post_init__(self):
        M = np.asarray(self.matrix, dtype=np.complex128)
        object.__setattr__(self, "matrix", M)
        dim = int(np.prod([ax.n for ax in self.axes]))
        if M.shape != (dim, dim):
            raise GridError(f"operator matrix shape {M.shape} does not match axes")

    def __call__(self, f):
        if self.kind == "signal":
            return f.with_values(self.matrix @ f.values)
        shape = f.values.shape
        return f.with_values((self.matrix @ f.values.ravel()).reshape(shape))

    def max_nonhermitian(self) -> float:
        return float(np.max(np.abs(self.matrix - self.matrix.conj().T)))


def _wrap_lags(n: int) -> np.ndarray:
    """Entries of an n x n signal kernel with positional separation beyond L.

    On the torus those entries hold lag-periodization images of the
    near-diagonal content, and different (individually exact) quantization
    routes place them differently.  The signal-side operator contract is that
    kernels stop at |x - y| <= L; for symbols decaying towards the grid
    boundary the true values there are negligible.  Field-side operators are
    never masked: their kernels genuinely extend to all lags.
    """
    k = np.arange(n)
    return np.abs(k[:, None] - k[None, :]) > n // 2


def _mask_wrap_lags(K: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Copy of K with the `_wrap_lags` entries zeroed."""
    return np.where(_wrap_lags(shape[0]), 0.0, K)


def _half_points(ax: Axis) -> np.ndarray:
    return -ax.half_width + (ax.step / 2.0) * np.arange(2 * ax.n)


def _symbol_half_samples(a: SymbolGrid, ax: Axis) -> np.ndarray:
    """Samples a(x_half_p, xi_j): exact from the callable, interpolated else.

    Sampled symbols keep their rows at even p and take the odd ones from the
    half-step shift of the band-limited interpolant.  GridError unless
    `a.xi_axis == ax.dual()` and, for samples, `a.x_axis == ax`.
    """
    if a.xi_axis != ax.dual() or (a.func is None and a.x_axis != ax):
        raise GridError("symbol axes do not match the quantization axis")
    if a.func is not None:
        # `func` broadcasts: no coordinate grids; a smaller result is broadcast
        vals = a.eval(_half_points(ax)[:, None], a.xi_axis.points()[None, :])
        return np.broadcast_to(vals, (2 * ax.n, a.xi_axis.n))
    half = shift_spectral(a.values, 0, a.x_axis, a.x_axis.step / 2)
    return np.stack([a.values, half], axis=1).reshape(2 * a.x_axis.n, -1)


def weyl(a: SymbolGrid, ax: Axis | None = None, mask_wrap_lags: bool = True) -> DenseOperator:
    """Midpoint quantization as a dense matrix.

    K(x, y) = dxi * sum_j a((x+y)/2, xi_j) e^{2 pi i (x - y) xi_j}, with the
    midpoints landing on the exact half-step grid; the returned matrix is
    dx * K so that application is a plain matvec.

    `mask_wrap_lags` truncates the kernel at torus lag L, appropriate for
    symbols decaying inside the frequency window; polynomial symbols (the
    quadratic Hamiltonians) have genuine slow lag tails and need the full
    kernel.
    """
    ax = ax if ax is not None else a.x_axis
    n = ax.n
    # the half-step samples and their lag transform (2 n^2 each) at once
    _check_bytes(f"weyl at N = {n}", 4 * 16 * n * n)
    # lags on the x grid; no name keeps the half-step samples past the transform
    B = centered_dft(_symbol_half_samples(a, ax), 1, a.xi_axis.step, inverse=True)
    k = np.arange(n)[:, None]
    m = np.arange(n)[None, :]
    K = B[k + m, (k - m + n // 2) % n]
    del B
    if mask_wrap_lags:
        K[_wrap_lags(n)] = 0.0
    K *= ax.step
    return DenseOperator(K, (ax,), "signal")


def _weyl_4d_slabs(b: np.ndarray, axes: tuple[Axis, Axis]):
    """Sample stage of the 4d Weyl kernel; returns its row slabs, k1 = 0 .. n1-1.

    Slab k1 is K[k1, k2, m1, m2] with slots ordered (m1, k2, m2), the
    quadrature steps dx1 dx2 included.  The lag transform runs eagerly and
    the slabs are gathered lazily, so no n^4 index or kernel is formed here.
    """
    n1, n2 = axes[0].n, axes[1].n
    # the lag-transformed B and its (p1, l1, l2, p2) copy T
    _check_bytes(f"weyl_4d at N = ({n1}, {n2})", 2 * 16 * (n1 * n2) ** 2)
    if b.shape != (n1, n2, n1, n2):
        raise GridError("4d symbol shape mismatch")
    # lag transform over the frequency slots; dx1 dx2 rides in its scale
    steps = tuple(ax.freq_step * ax.step for ax in axes)
    B = centered_dft(b, (2, 3), steps, inverse=True)  # slots (p1, p2, l1, l2)
    S1, S2 = (shift_spectral(np.eye(ax.n, dtype=np.complex128), 0, ax, ax.step / 2)
              for ax in axes)
    h1, h2 = ((ax.n // 2 + 1) % 2 for ax in axes)  # first half-step lag
    # slots (p1, l1, l2, p2): each (p1, l1) pair owns one contiguous block
    T = np.empty((n1, n1, n2, n2), dtype=np.complex128)
    for l1 in range(n1):
        lag = B[:, :, l1, :].transpose(0, 2, 1)
        if l1 % 2 == h1:
            np.matmul(S1, lag.reshape(n1, -1), out=T[:, l1].reshape(n1, -1))
        else:
            T[:, l1] = lag
    del B
    rows = T.reshape(n1, -1, n2)
    for p1 in range(n1):
        # n2 is even, so row (l1, l2) has the parity of l2
        half = rows[p1, h2::2]
        half[...] = half @ S2.T
    T = T.reshape(n1 * n1, n2 * n2)
    maps = []
    for ax in axes:
        k = np.arange(ax.n)[:, None]
        m = np.arange(ax.n)[None, :]
        maps.append(((k + m) // 2, (k - m + ax.n // 2) % ax.n))
    (p1, l1), (p2, l2) = maps
    blocks = p1 * n1 + l1  # [k1, m1] -> row of T
    cols = l2 * n2 + p2  # [k2, m2] -> column of T
    return (T[blocks[k1]].take(cols, axis=1) for k1 in range(n1))


def weyl_4d(b: np.ndarray, axes: tuple[Axis, Axis]) -> DenseOperator:
    """Weyl quantization acting on phase-space fields, as a dense matrix.

    `b` has shape (n1, n2, n1, n2) with slots (x, xi, u, v): position pair
    first, frequency pair second.

    The kernel is the midpoint quantization of each axis pair: after the lag
    transform over the frequency slots, entry (k, m) reads the symbol at the
    midpoint (x_k + x_m) / 2 and lag index (k - m + n/2) % n.  Parity rule:
    n is even, so k + m has the parity of lag + n/2.  Lags of one parity
    therefore need only grid midpoints and the others only half-step ones,
    which come from multiplying those lag slices along their position slot
    by the n x n half-step shift matrix
    S = shift_spectral(eye(n), 0, ax, ax.step / 2), the one half-step
    mechanism of the package; no 2x-upsampled symbol is formed.  The matrix
    is built row slab by row slab through the same code as `weyl_4d_apply`.
    No lag mask: field-side kernels (e.g. of pullback symbols constant along
    phase-space lines) genuinely do not decay in the lag variables.
    """
    n1, n2 = axes[0].n, axes[1].n
    slabs = _weyl_4d_slabs(b, axes)
    K = np.empty((n1, n2, n1, n2), dtype=np.complex128)
    for k1, slab in enumerate(slabs):
        K[k1] = slab.transpose(1, 0, 2)
    return DenseOperator(K.reshape(n1 * n2, n1 * n2), axes, "field")


def weyl_4d_apply(b: np.ndarray, axes: tuple[Axis, Axis], W: np.ndarray) -> np.ndarray:
    """Op_w4d(b) applied to the field samples `W` (shape (n1, n2)), matrix-free.

    Same kernel as `weyl_4d` (see there for the slots, the parity rule and
    the half-step shift matrix), never formed: for each row k1 the slab
    K[k1] is gathered from the shifted samples, n1 blocks of n2^2 entries
    picked by (midpoint, lag) of (k1, m1) and one `take` within them, then
    contracted with W in one product.  Returns the (n1, n2) result;
    SamplingError when it holds nan or inf.
    """
    n1, n2 = axes[0].n, axes[1].n
    W = np.asarray(W, dtype=np.complex128)
    if W.shape != (n1, n2):
        raise GridError("weyl_4d_apply: field shape does not match the axes")
    w = W[:, :, None]
    out = np.empty((n1, n2), dtype=np.complex128)
    for k1, slab in enumerate(_weyl_4d_slabs(b, axes)):
        out[k1] = (slab @ w).sum(axis=0)[:, 0]
    if not np.all(np.isfinite(out)):
        raise SamplingError("weyl_4d: the applied field holds nan or inf")
    return out


def inverse_weyl(op: DenseOperator) -> PhaseSpaceField:
    """Weyl symbol of a signal-side dense operator.

    Exact algebraic inverse of `weyl` on the grid model: lag column q of the
    kernel holds the midpoint samples (x_k + x_m) / 2 = x_k - c_q dx / 2 with
    c_q = q - n/2, which lie half a step off the grid for odd c_q.  One
    band-limited shift per column puts every column on the grid, and the lag
    transform is inverted row by row.  Handles full-band kernels such as the
    identity exactly, where interpolation-based routes ring.
    """
    if op.kind != "signal":
        raise GridError("inverse_weyl handles signal-side operators")
    ax = op.axes[0]
    n = ax.n
    # the inverse pairs with the lag-truncated forward: drop wrap entries
    K = _mask_wrap_lags(op.matrix / ax.step, (n,))
    # gather: samples[k, q] = K[k, m] with k - m = c_q (mod n)
    k = np.arange(n)
    c = k - n // 2
    samples = K[k[:, None], (k[:, None] - c[None, :]) % n]
    on_grid = shift_spectral(samples, 0, ax, (c * ax.step / 2)[None, :])
    vals = centered_dft(on_grid, 1, ax.step, inverse=False)
    return PhaseSpaceField(ax, ax.dual(), vals)


def op_A(A, a: SymbolGrid) -> DenseOperator:
    """Quantization attached to a 4d x 4d symplectic matrix.

    The kernel is mu(A^{-1}) a; carries the chain's global phase, so
    comparisons against `weyl` are made modulo one unimodular constant.
    """
    A = sympl(A)
    field = a.sample()
    kernel = apply(A.inv(), field)
    K = _mask_wrap_lags(kernel.values, (field.x_axis.n,))
    return DenseOperator(field.x_axis.step * K, (field.x_axis,), "signal")


def requantize(A, B, a: SymbolGrid) -> SymbolGrid:
    """Symbol b with op_B(b) = op_A(a): transport a by mu(B A^{-1})."""
    A, B = sympl(A), sympl(B)
    moved = apply(B @ A.inv(), a.sample())
    return SymbolGrid.from_field(moved)


# ---------------------------------------------------------------------------
# 4d symbols for the conjugation identities


def _symbol_variant(a: SymbolGrid, variant: str) -> Callable:
    """sigma = a x 1, sigma~ = 1 x conj(a(., -.)), or their product source."""
    if variant == "b":
        return lambda r, y, rho, eta: a.eval(r, rho)
    if variant == "bt":
        return lambda r, y, rho, eta: np.conj(a.eval(y, -eta))
    raise ValueError(f"unknown symbol variant {variant!r}")


def symbol_pullback(A, a: SymbolGrid, variant: str, axes: tuple[Axis, Axis]) -> np.ndarray:
    """Sampled 4-D symbol (sigma-variant) composed with A^{-1}.

    variant "b": (a x 1) o A^{-1};  "bt": the conjugate-slot analogue;
    "c": the product b * bt.  Output shape (n1, n2, n1, n2) on slots
    (x, xi, u, v).
    """
    n1, n2 = axes[0].n, axes[1].n
    # the output and one evaluation temporary; "c" holds b, bt and b * bt
    _check_bytes(f"symbol_pullback at N = ({n1}, {n2})",
                 (3 if variant == "c" else 2) * 16 * (n1 * n2) ** 2)
    if variant == "c":
        return symbol_pullback(A, a, "b", axes) * symbol_pullback(A, a, "bt", axes)
    A = sympl(A)
    src = _symbol_variant(a, variant)
    x = axes[0].points()[:, None, None, None]
    xi = axes[1].points()[None, :, None, None]
    u = axes[0].dual().points()[None, None, :, None]
    v = axes[1].dual().points()[None, None, None, :]
    inv = A.inv().mat
    coords = [x, xi, u, v]
    mapped = [sum((inv[i, j] * c for j, c in enumerate(coords) if inv[i, j] != 0.0), 0.0)
              for i in range(4)]
    # the mapped coordinates stay broadcast; only the result is materialized
    out = src(*mapped)
    full = (n1, n2, n1, n2)
    return out if out.shape == full else np.array(np.broadcast_to(out, full))


def pullback_closed_form(A, a: SymbolGrid, axes: tuple[Axis, Axis]) -> np.ndarray:
    """Closed-form b for decomposable / covariant matrices (checks the pullback).

    Totally Wigner-decomposable: b = a(A33^T x - A23^T v, -A41^T xi + A11^T u).
    Covariant: b = a(x - A13 u + (A11 - I) v, xi + A11^T u + A21 v).
    """
    A = sympl(A)
    blk = BlockDecomposition.of(A)
    x = axes[0].points()[:, None, None, None]
    xi = axes[1].points()[None, :, None, None]
    u = axes[0].dual().points()[None, None, :, None]
    v = axes[1].dual().points()[None, None, None, :]
    if is_totally_wigner_decomposable(A):
        a33 = blk[3, 3][0, 0]
        a23 = blk[2, 3][0, 0]
        a41 = blk[4, 1][0, 0]
        a11 = blk[1, 1][0, 0]
        return a.eval(a33 * x - a23 * v, -a41 * xi + a11 * u)
    if is_covariant(A):
        form = CovariantForm.from_matrix(A)
        a11 = form.a11[0, 0]
        a13 = form.a13[0, 0]
        a21 = form.a21[0, 0]
        return a.eval(x - a13 * u + (a11 - 1.0) * v, xi + a11 * u + a21 * v)
    raise GridError("no closed-form pullback for this matrix shape")


def conjugation_check(A, a: SymbolGrid, f: GridSignal, g: GridSignal) -> dict:
    """Relative residuals of the three intertwining identities.

    (b):  W_A(Op_w(a) f, g)      = Op_w4d(b)  W_A(f, g)
    (bt): W_A(f, Op_w(a) g)      = Op_w4d(bt) W_A(f, g)
    (c):  W_A(Op_w(a) f)         = Op_w4d(c)  W_A(f)
    computed with the phase-free covariant route for W_A and the
    matrix-free `weyl_4d_apply` for the right-hand sides.  The residual floor
    on an N-point self-dual grid is the ambiguity-spectrum tail e^{-pi N/8}
    of the fields themselves (about 3.5e-6 at N = 32).
    """
    A = sympl(A)
    form = CovariantForm.from_matrix(A)
    ax = f.grid.axes[0]
    axes = (ax, ax.dual())
    op = weyl(a, ax)
    Op_f = op(f)
    Op_g = op(g)
    W_fg = wigner_A_covariant(form, f, g)

    def residual(symbol: np.ndarray, lhs: PhaseSpaceField, W: PhaseSpaceField) -> float:
        rhs = weyl_4d_apply(symbol, axes, W.values)
        return float(
            np.linalg.norm((lhs.values - rhs).ravel())
            / np.linalg.norm(lhs.values.ravel())
        )

    # each pullback is evaluated once; (c) quantizes their product
    out = {}
    b = symbol_pullback(A, a, "b", axes)
    out["b"] = residual(b, wigner_A_covariant(form, Op_f, g), W_fg)
    bt = symbol_pullback(A, a, "bt", axes)
    out["bt"] = residual(bt, wigner_A_covariant(form, f, Op_g), W_fg)
    c = b * bt
    del b, bt
    out["c"] = residual(c, wigner_A_covariant(form, Op_f, Op_f), wigner_A_covariant(form, f, f))
    return out


def op_A_covariant_integral(form: CovariantForm, a: SymbolGrid, ax: Axis) -> DenseOperator:
    """Covariant-quantization integral built from the smoothed symbol.

    K(x, y) = Integral (F Phi_C * a)(A11 x + (I - A11) y, xi)
              e^{2 pi i xi (x - y)} d xi with C = diag(A13, -A21); the
    convolution is the exact frequency-side multiplier.  Kept as a slow
    cross-check of `op_A` on small grids; agreement is reported, not assumed,
    because the convolution factor is distributional.
    """
    # symbol, smoothing, half-step table and lag transform (2 n^2 each), midpoint,
    # lag and result tables, one diagonal's n x 2n interpolant: under 16 n^2 complex
    _check_bytes(f"covariant integral at N = {ax.n}", 16 * 16 * ax.n ** 2)
    a11 = float(form.a11[0, 0])
    C = np.diag([float(form.a13[0, 0]), -float(form.a21[0, 0])])
    field = a.sample()
    hat = field_fourier(field)
    hat = hat.with_values(hat.values * chirp_phase((hat.x_axis, hat.xi_axis), C))
    smoothed = field_fourier(hat, inverse=True)
    # lag transform of the smoothed symbol in xi, on the half-step grid
    half = _symbol_half_samples(SymbolGrid.from_field(smoothed), ax)
    B = centered_dft(half, 1, field.xi_axis.step, inverse=True)
    n = ax.n
    x = ax.points()[:, None]
    y = ax.points()[None, :]
    mid = a11 * x + (1.0 - a11) * y
    # B's first axis is the half-step grid; general A11 puts the weighted
    # midpoints off it, so evaluate the interpolant per constant-lag diagonal
    half_ax = Axis(2 * n, ax.half_width)
    # lag column q holds the entries (k, (k - q + n/2) % n), one per row
    rows = np.arange(n)
    evals = np.empty((n, n), dtype=np.complex128)
    for q in range(n):
        cols = (rows - q + n // 2) % n
        evals[rows, cols] = eval_trig(B[:, q], 0, half_ax, mid[rows, cols])
    K = _mask_wrap_lags(evals, (n,))
    return DenseOperator(ax.step * K, (ax,), "signal")
