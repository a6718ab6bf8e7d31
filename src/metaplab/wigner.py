"""Time-frequency representations: cross-Wigner, tau-Wigner, STFT, and the
general matrix-parametrized family, plus Cohen-class convolutions and the
discrete modulation / amalgam norms.

Each representation has two independent routes: a direct quadrature of its
defining integral (shift-and-FFT based, phase-canonical) and the generator
chain applied to f tensor conj(g).  The chain route carries one untracked
global phase; the quadrature routes carry none, which the tests exploit.
`represent` is the one place that chooses a route for a representation spec.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .metaplectic import apply
from .signals import (
    Axis,
    GridError,
    GridSignal,
    PhaseSpaceField,
    _freq_phases,
    centered_dft,
    chirp_guard,
    chirp_phase,
    conjugate,
    field_fourier,
    gaussian,
    shift_spectral,
    spectral_coefficients,
    tensor,
)
from .symplectic import (
    BlockDecomposition,
    CovariantForm,
    SymplecticError,
    SymplecticMatrix,
    cohen_B,
    sympl,
)

__all__ = [
    "wigner_cross",
    "wigner_of_kernel",
    "tau_wigner",
    "stft",
    "wigner_A",
    "wigner_A_covariant",
    "stft_reduction",
    "Representation",
    "represent",
    "CohenKernel",
    "cohen_convolve",
    "modulation_norm",
    "wiener_amalgam_norm",
]


def _same_grid(f: GridSignal, g: GridSignal) -> Axis:
    if f.grid.dim != 1 or g.grid.dim != 1:
        raise GridError("representations take 1-D signals")
    if f.grid.axes != g.grid.axes:
        raise GridError("signals must share one grid")
    return f.grid.axes[0]


def wigner_of_kernel(K: np.ndarray, ax: Axis) -> np.ndarray:
    """Wigner transform of a two-point kernel K(x, y).

    a(x, xi) = Integral K(x + t/2, x - t/2) e^{-2 pi i t xi} dt with the lag t
    running over one torus period [-L, L): the same window the generator-chain
    route integrates over, so the two routes agree to roundoff.  With the lag
    t_m = (m - n/2) dx the pair (x_k + t/2, x_k - t/2) is a grid pair for even
    lag indices d = m - n/2 and a pair shifted half a step on both axes for
    odd ones, so K and its half-step shift on both axes hold every argument.
    Letting the lag run further would fold in the half-period ghost images of
    the periodization.  This is also the inverse of the Weyl kernel
    construction on band-limited data.
    """
    n = ax.n
    if K.shape != (n, n):
        raise GridError("kernel shape must match the axis")
    K = np.asarray(K, dtype=np.complex128)
    h = ax.step / 2
    K_hh = shift_spectral(shift_spectral(K, 0, ax, h), 1, ax, h)
    d = np.arange(n) - n // 2
    # x + t/2 and x - t/2 sit at grid indices i and i - d, half a step
    # further on both when d is odd
    i = (np.arange(n)[:, None] + d // 2) % n
    corr = np.stack([K, K_hh])[d % 2, i, (i - d) % n]
    return centered_dft(corr, 1, ax.step, inverse=False)


def wigner_cross(f: GridSignal, g: GridSignal) -> PhaseSpaceField:
    """Quadrature of the cross-Wigner integral; real-valued field when f = g."""
    ax = _same_grid(f, g)
    W = wigner_of_kernel(np.outer(f.values, np.conj(g.values)), ax)
    return PhaseSpaceField(ax, ax.dual(), W)


def tau_wigner(f: GridSignal, g: GridSignal, tau: float) -> PhaseSpaceField:
    """Interpolating family: Rihaczek at 0, Wigner at 1/2, conjugate at 1.

    The covariant representation with A11 = (1 - tau) I, A13 = A21 = 0.
    """
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must lie in [0, 1], got {tau}")
    return wigner_A_covariant(CovariantForm.tau(tau), f, g)


def stft(f: GridSignal, g: GridSignal) -> PhaseSpaceField:
    """V_g f on the phase-space grid; windows shift circularly (exact)."""
    ax = _same_grid(f, g)
    n = ax.n
    m = np.arange(n)[:, None]
    k = np.arange(n)[None, :]
    G_sh = g.values[(m - k + n // 2) % n]
    P = f.values[:, None] * np.conj(G_sh)
    V = centered_dft(P, 0, ax.step, inverse=False)  # (j, k)
    return PhaseSpaceField(ax, ax.dual(), V.T)


def wigner_A(A, f: GridSignal, g: GridSignal) -> PhaseSpaceField:
    """mu(A)(f tensor conj g): the general matrix-parametrized representation.

    Inherits one global unimodular constant from the chain realization.
    """
    _same_grid(f, g)
    return apply(sympl(A), tensor(f, conjugate(g)))


def wigner_A_covariant(form: CovariantForm, f: GridSignal, g: GridSignal) -> PhaseSpaceField:
    """Direct quadrature for covariant matrices (phase-canonical).

    Computes Integral f(x + (I - A11) eta) conj(g(x - A11 eta))
    Phi_{A21}(eta) e^{-2 pi i xi . eta} d eta, preceded by the A13 smoothing
    multiplier when A13 is nonzero.
    """
    if form.d != 1:
        raise GridError("covariant fast path is implemented for d = 1")
    ax = _same_grid(f, g)
    a11 = float(form.a11[0, 0])
    a21 = float(form.a21[0, 0])
    a13 = float(form.a13[0, 0])
    eta = ax.points()
    # column m holds f(x + (1 - a11) eta_m), resp. g(x - a11 eta_m)
    F_sh = shift_spectral(f.values[:, None], 0, ax, ((1.0 - a11) * eta)[None, :])
    G_sh = shift_spectral(g.values[:, None], 0, ax, (-a11 * eta)[None, :])
    P = F_sh * np.conj(G_sh)
    if a21 != 0.0:
        chirp_guard((ax,), a21)
        P = P * np.exp(1j * np.pi * a21 * eta ** 2)[None, :]
    if a13 != 0.0:
        # convolution by the transformed chirp in x: multiplier Phi_{-A13}
        hat = centered_dft(P, 0, ax.step, inverse=False)
        chirp_guard((ax.dual(),), -a13)
        hat *= np.exp(-1j * np.pi * a13 * ax.dual().points() ** 2)[:, None]
        P = centered_dft(hat, 0, ax.freq_step, inverse=True)
    W = centered_dft(P, 1, ax.step, inverse=False)
    return PhaseSpaceField(ax, ax.dual(), W)


def stft_reduction(A, f: GridSignal, g: GridSignal) -> PhaseSpaceField:
    """Rescaled-window STFT route for totally Wigner-decomposable matrices.

    Requires the right-regularity blocks (A23, A24 and A11, A12 invertible).
    The STFT is evaluated on an oversampled time grid because the mapped
    frequencies A23^{-1} xi run past the base grid's Nyquist rate.
    """
    A = sympl(A)
    b = BlockDecomposition.of(A)
    if b.d != 1:
        raise GridError("stft reduction implemented for d = 1")
    a11, a12 = float(b[1, 1][0, 0]), float(b[1, 2][0, 0])
    a23, a24 = float(b[2, 3][0, 0]), float(b[2, 4][0, 0])
    a33, a34 = float(b[3, 3][0, 0]), float(b[3, 4][0, 0])
    if min(abs(a11), abs(a12), abs(a23), abs(a24)) < 1e-9:
        raise SymplecticError("matrix is not right-regular: reduction undefined")
    ax = _same_grid(f, g)
    L_mat = np.array([[a33, a23], [a34, a24]])
    beta = a24 / a23
    c_fac = a33 - a23 * a34 / a24
    need = max(2.0, abs(1.0 / a23), (1.0 + abs(beta)) / 2.0 + 0.5)
    p = 1 << int(np.ceil(np.log2(need)))
    if p > 8:
        raise SymplecticError("reduction would need more than 8x oversampling")
    n = ax.n
    fine_n = p * n
    t_fine = -ax.half_width + (ax.step / p) * np.arange(fine_n)
    # f on the p-times refined grid: p exact shifts of the base samples
    shifts = (ax.step / p) * np.arange(p)
    f_fine = shift_spectral(f.values[:, None], 0, ax, shifts[None, :]).ravel()
    # window bank g~(t_m - c x_k) = g(beta t_m - beta c x_k), evaluated on the
    # separable point lattice through two phase matrices and zero-extended
    # outside the fundamental window (a circular shift would wrap ghost
    # windows back into the support at large |c x|)
    coeff = spectral_coefficients(g.values, 0, ax)
    E1 = _freq_phases(t_fine, ax, beta)
    E2 = _freq_phases(ax.points(), ax, -beta * c_fac).T
    G_sh = E1 @ (coeff[:, None] * E2)  # (fine_n, n)
    pts = beta * (t_fine[:, None] - c_fac * ax.points()[None, :])
    G_sh[(pts < -ax.half_width) | (pts >= ax.half_width)] = 0.0
    P = f_fine[:, None] * np.conj(G_sh)
    E = _freq_phases(t_fine, ax, -1.0 / a23)
    V = (ax.step / p) * (P.T @ E)  # (k, j)
    pref = np.sqrt(abs(np.linalg.det(L_mat))) / abs(a23)
    phase = _freq_phases(ax.points(), ax, a33 / a23)
    return PhaseSpaceField(ax, ax.dual(), pref * phase * V)


class Representation(NamedTuple):
    """A field, the route that computed it, and | ||field|| - ||f|| ||g|| |."""

    field: PhaseSpaceField
    route: str
    moyal_deviation: float


def represent(rep, f: GridSignal) -> Representation:
    """The representation of f that `rep` names; no route falls back on another.

    A `CovariantForm` takes the covariant quadrature, a symplectic matrix the
    generator chain, "stft" the STFT with window g = gaussian and "wigner"
    the cross-Wigner quadrature; g is f but for the STFT.
    """
    g = f
    if isinstance(rep, CovariantForm):
        F, route = wigner_A_covariant(rep, f, f), "covariant"
    elif isinstance(rep, (SymplecticMatrix, np.ndarray)):
        F, route = wigner_A(rep, f, f), "chain"
    elif rep == "stft":
        g = gaussian(f.grid)
        F, route = stft(f, g), "stft"
    elif rep == "wigner":
        F, route = wigner_cross(f, f), "wigner"
    else:
        raise ValueError(f"unknown representation {rep!r}")
    return Representation(F, route, abs(F.norm() - f.norm() * g.norm()))


# ---------------------------------------------------------------------------
# Cohen class


@dataclass(frozen=True)
class CohenKernel:
    """Convolution kernel of a covariant representation, kept in multiplier form.

    The kernel itself is the inverse transform of a unimodular chirp and is
    typically distributional, so convolutions always run through the
    frequency-side multiplier exp(-i pi zeta . B zeta).
    """

    B: np.ndarray

    def __post_init__(self):
        B = np.atleast_2d(np.asarray(self.B, dtype=float))
        if np.max(np.abs(B - B.T)) > 1e-9:
            raise SymplecticError("Cohen matrix must be symmetric")
        object.__setattr__(self, "B", (B + B.T) / 2.0)

    @classmethod
    def from_form(cls, form: CovariantForm) -> "CohenKernel":
        return cls(cohen_B(form))

    def sample(self, x_axis: Axis, xi_axis: Axis) -> PhaseSpaceField:
        """Grid samples of the kernel (meaningful only where it is a function)."""
        zeta = chirp_phase((x_axis, xi_axis), -self.B)
        return field_fourier(
            PhaseSpaceField(x_axis, xi_axis, zeta), inverse=True
        )


def cohen_convolve(kernel: CohenKernel, W: PhaseSpaceField) -> PhaseSpaceField:
    """W * Sigma as the exact frequency-side multiplier (norm preserving)."""
    hat = field_fourier(W)
    chirp_guard((W.x_axis, W.xi_axis), -kernel.B)
    hat = hat.with_values(hat.values * chirp_phase((hat.x_axis, hat.xi_axis), -kernel.B))
    return field_fourier(hat, inverse=True)


# ---------------------------------------------------------------------------
# norms


def _vs_weight(x: np.ndarray, xi: np.ndarray, s: float) -> np.ndarray:
    X, Y = np.meshgrid(x, xi, indexing="ij")
    return (1.0 + X ** 2 + Y ** 2) ** (s / 2.0)


def modulation_norm(f: GridSignal, g: GridSignal, p: float, q: float, s: float = 0.0) -> float:
    """Mixed-norm size of the windowed transform with polynomial weight.

    Inner exponent p runs over x, outer q over xi; p or q may be inf.
    """
    if g.norm() == 0.0:
        raise ValueError("window must be nonzero")
    if s < 0:
        raise ValueError("weight exponent must be >= 0")
    V = stft(f, g)
    ax, dual = V.x_axis, V.xi_axis
    mag = np.abs(V.values) * _vs_weight(ax.points(), dual.points(), s)
    if np.isinf(p):
        inner = np.max(mag, axis=0)
    else:
        inner = (ax.step * np.sum(mag ** p, axis=0)) ** (1.0 / p)
    if np.isinf(q):
        return float(np.max(inner))
    return float((dual.step * np.sum(inner ** q)) ** (1.0 / q))


def wiener_amalgam_norm(H: PhaseSpaceField, q: float, s: float = 0.0) -> float:
    """Local-sup, global-weighted-l^q size over unit phase-space cells.

    Cells are [k1, k1+1) x [k2, k2+1) for integer k inside the grid window;
    for q < 1 this is the formal quasi-norm (sum of q-th powers to the 1/q).
    """
    if s < 0:
        raise ValueError("weight exponent must be >= 0")
    ax1, ax2 = H.x_axis, H.xi_axis
    if ax1.step > 1.0 or ax2.step > 1.0:
        raise GridError("grid is coarser than the unit cells of the amalgam norm")
    mags = np.abs(H.values)
    k1 = np.floor(ax1.points()).astype(int)
    k2 = np.floor(ax2.points()).astype(int)
    # group samples by cell via a max-reduction over cell indices
    u1, inv1 = np.unique(k1, return_inverse=True)
    u2, inv2 = np.unique(k2, return_inverse=True)
    cellmax = np.zeros((len(u1), len(u2)))
    np.maximum.at(cellmax, (inv1[:, None], inv2[None, :]), mags)
    K1, K2 = np.meshgrid(u1, u2, indexing="ij")
    weights = (1.0 + K1 ** 2 + K2 ** 2) ** (s / 2.0)
    vals = cellmax * weights
    if np.isinf(q):
        return float(np.max(vals))
    return float(np.sum(vals ** q) ** (1.0 / q))
