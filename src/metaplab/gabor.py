"""Gabor frames and the almost-diagonalization analysis of grid operators.

The Gabor matrix of an operator T over a lattice is M[lam, mu] =
<T pi(lam) g, pi(mu) g>.  Operators in the generalized metaplectic class
concentrate along the graph of a symplectic map chi: this module measures
that concentration (shell maxima of |M| against mu - chi lam, weighted
sequence norms, decay slopes), estimates chi when it is unknown, and
factorizes such operators as Op_w(sigma_1) mu(chi).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .metaplectic import dense_matrix
from .quantize import DenseOperator, SymbolGrid, inverse_weyl, weyl
from .signals import Axis, GridError, GridSignal
from .symplectic import SymplecticMatrix, sympl

__all__ = [
    "GaborLattice",
    "GaborMatrixData",
    "EnvelopeReport",
    "FrameError",
    "frame_bounds",
    "gabor_matrix",
    "envelope_fit",
    "metaplectic_factor",
    "decay_slope",
]


_VERIFY_TOL = 1e-6  # reconstruction residual below which a factorization is verified


class FrameError(ValueError):
    pass


@dataclass(frozen=True)
class GaborLattice:
    """Lattice gen @ Z^2 truncated to sup-norm radius; points must be on-grid."""

    gen: np.ndarray
    radius: float

    def __post_init__(self):
        M = np.atleast_2d(np.asarray(self.gen, dtype=float))
        if M.shape != (2, 2) or abs(np.linalg.det(M)) < 1e-12:
            raise FrameError("lattice generator must be an invertible 2x2 matrix")
        object.__setattr__(self, "gen", M)
        if not self.radius > 0:
            raise FrameError("truncation radius must be positive")

    @classmethod
    def separable(cls, dx: float, dxi: float, radius: float) -> "GaborLattice":
        return cls(np.diag([dx, dxi]), radius)

    def points(self) -> np.ndarray:
        """All lattice points with sup-norm at most the truncation radius."""
        # conservative integer search box
        inv = np.linalg.inv(self.gen)
        corners = np.array(
            [[sx * self.radius, sy * self.radius] for sx in (-1, 1) for sy in (-1, 1)]
        )
        kbox = np.ceil(np.max(np.abs(corners @ inv.T), axis=0)).astype(int)
        k1 = np.arange(-kbox[0], kbox[0] + 1)
        k2 = np.arange(-kbox[1], kbox[1] + 1)
        K = np.stack(np.meshgrid(k1, k2, indexing="ij"), axis=-1).reshape(-1, 2)
        pts = K @ self.gen.T
        keep = np.max(np.abs(pts), axis=1) <= self.radius + 1e-12
        return pts[keep]

    def on_grid(self, ax: Axis) -> bool:
        pts = self.points()
        sx = pts[:, 0] / ax.step
        sxi = pts[:, 1] / ax.freq_step
        return bool(
            np.max(np.abs(sx - np.round(sx))) < 1e-9
            and np.max(np.abs(sxi - np.round(sxi))) < 1e-9
        )


def _atoms(g: GridSignal, lattice: GaborLattice) -> tuple[np.ndarray, np.ndarray]:
    """Lattice points and the columns pi(lam) g, exact shifts of on-grid points.

    The columns are bit-equal to `tf_shift(g, lam).values`: one gather of g
    and one phase column per distinct frequency.
    """
    ax = g.grid.axes[0]
    if not lattice.on_grid(ax):
        raise FrameError("lattice points are not on the signal grid")
    pts = lattice.points()
    steps = np.rint(pts[:, 0] / ax.step).astype(int)
    rows = np.arange(ax.n)[:, None] - steps % ax.n  # np.roll of g; negative rows wrap
    xi0, col = np.unique(pts[:, 1], return_inverse=True)  # one phase column per frequency
    phase = np.exp(2j * np.pi * xi0 * ax.points()[:, None])
    return pts, g.values[rows] * phase[:, col]


def frame_bounds(g: GridSignal, lattice: GaborLattice) -> tuple[float, float]:
    """Extreme eigenvalues of the discrete frame operator of {pi(lam) g}."""
    _, P = _atoms(g, lattice)
    S = g.grid.axes[0].step * (P @ P.conj().T)
    evals = np.linalg.eigvalsh(S)
    A, B = float(evals[0]), float(evals[-1])
    if A < 1e-8 * B:
        raise FrameError(
            f"degenerate frame: lower bound {A:.3e} below 1e-8 of upper {B:.3e}"
        )
    return A, B


@dataclass(frozen=True)
class GaborMatrixData:
    entries: np.ndarray
    points: np.ndarray

    def __post_init__(self):
        if self.entries.shape != (len(self.points), len(self.points)):
            raise FrameError("Gabor matrix shape must match the lattice size")


def gabor_matrix(T, g: GridSignal, lattice: GaborLattice) -> GaborMatrixData:
    """All pairwise entries <T pi(lam) g, pi(mu) g> over the truncated lattice."""
    pts, P = _atoms(g, lattice)
    T_mat = T.matrix if isinstance(T, DenseOperator) else np.asarray(T)
    M = g.grid.axes[0].step * (P.conj().T @ (T_mat @ P)).T
    bound = np.linalg.norm(T_mat, 2)
    gnorm2 = g.norm() ** 2
    if np.max(np.abs(M)) > bound * gnorm2 * (1.0 + 1e-8):
        raise FrameError("Gabor matrix exceeds the operator-norm bound")
    return GaborMatrixData(M, pts)


@dataclass(frozen=True)
class EnvelopeReport:
    """Fitted off-graph decay of a Gabor matrix.

    `shells` maps integer offsets k to the maximum of |M| over the pairs with
    mu - chi lam in the unit cell at k.  Its cells come in order of their
    smallest entry (ties as `np.argsort` of the flattened |M| orders them);
    that order is the summation order of `norms`, so it fixes their last
    bits.  Norms are finite-section values over the truncated lattice;
    `tail_estimate` extrapolates the discarded shells geometrically, so no
    membership verdict about the infinite lattice is implied.
    """

    chi: np.ndarray
    chi_estimated: bool
    shells: dict
    norms: dict
    slope: float
    tail_estimate: float

    def shell_radii_and_values(self) -> tuple[np.ndarray, np.ndarray]:
        ks = np.array(sorted(self.shells.keys(), key=lambda k: (max(abs(k[0]), abs(k[1])), k)))
        vals = np.array([self.shells[tuple(k)] for k in ks])
        radii = np.max(np.abs(ks), axis=1)
        return radii, vals


def _pair_moments(M: np.ndarray, pts: np.ndarray, significant: np.ndarray):
    """Moments A = sum w lam lam^T, Bm = sum w mu lam^T, c = sum w |mu|^2, w = |M|^2.

    The sums run over the significant pairs [lam, mu] in row-major order; the
    pair-sized arrays live only inside this call.
    """
    lam = np.repeat(pts, np.count_nonzero(significant, axis=1), axis=0)
    cols = np.flatnonzero(significant)
    cols %= len(pts)
    mu = pts[cols]
    del cols
    w = M[significant]
    w *= w
    A = (lam * w[:, None]).T @ lam
    Bm = (mu * w[:, None]).T @ lam
    c = float(w @ np.einsum("ij,ij->i", mu, mu))
    return A, Bm, c


def _spread(chi: np.ndarray, A: np.ndarray, Bm: np.ndarray, c: float) -> float:
    """sum w |mu - chi lam|^2 = c - 2 tr(chi Bm^T) + tr(chi^T chi A) from the moments."""
    return float(c - 2.0 * np.sum(chi * Bm) + np.sum((chi.T @ chi) * A.T))


def _estimate_chi(A: np.ndarray, Bm: np.ndarray, c: float) -> np.ndarray:
    """Weighted least squares fit projected to SL(2), then Iwasawa descent.

    Minimizes the weighted second moment of mu - chi lam, given by the
    `_pair_moments`; coordinate descent refines the rotation / dilation /
    shear parameters under the exact det = 1 constraint.  No global
    optimality is claimed.
    """
    try:
        chi0 = Bm @ np.linalg.inv(A)
    except np.linalg.LinAlgError:
        chi0 = np.eye(2)
    det = np.linalg.det(chi0)
    if det > 1e-12:
        chi0 = chi0 / np.sqrt(det)
    else:
        chi0 = np.eye(2)

    def from_params(theta, a, u):
        R = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        D = np.diag([np.exp(a), np.exp(-a)])
        N = np.array([[1.0, u], [0.0, 1.0]])
        return R @ D @ N

    # extract starting Iwasawa coordinates via QR of chi0
    Q, R = np.linalg.qr(chi0)
    if R[0, 0] < 0:
        Q, R = -Q, -R
    theta = float(np.arctan2(Q[1, 0], Q[0, 0]))
    a = float(np.log(max(R[0, 0], 1e-12)))
    u = float(R[0, 1] / max(R[0, 0], 1e-12))
    params = [theta, a, u]
    steps = [0.1, 0.1, 0.1]
    best = _spread(from_params(*params), A, Bm, c)
    for _ in range(40):
        improved = False
        for i in range(3):
            for sign in (+1, -1):
                trial = list(params)
                trial[i] += sign * steps[i]
                val = _spread(from_params(*trial), A, Bm, c)
                if val < best:
                    best, params, improved = val, trial, True
        if not improved:
            steps = [s / 2 for s in steps]
            if max(steps) < 1e-6:
                break
    return from_params(*params)


def decay_slope(radii: np.ndarray, values: np.ndarray) -> float:
    """Regression slope of log max-shell value against shell radius 1 to 5."""
    per_radius = {}
    for r, v in zip(radii, values):
        if 1 <= r <= 5:
            per_radius[int(r)] = max(per_radius.get(int(r), 0.0), float(v))
    rs = np.array(sorted(per_radius))
    if len(rs) < 2:
        raise FrameError("not enough shells to fit a decay slope")
    vals = np.array([max(per_radius[int(r)], 1e-300) for r in rs])
    coeffs = np.polyfit(rs, np.log(vals), 1)
    return float(coeffs[0])


def _shell_maxima(M: np.ndarray, pts: np.ndarray, chi_mat: np.ndarray):
    """Integer cells k = round(mu - chi lam) and the maximum of |M| over each.

    Cells come in order of their smallest entry under `np.argsort` of the
    flattened M, as `EnvelopeReport.shells` lists them.  Each pair carries
    one unsigned cell key; one stable sort of the keys taken in that entry
    order groups the cells, and the first and last position of each group
    give the cell's place and its maximum.
    """
    lamchi = pts[:, None, :] @ chi_mat.T  # chi lam, (n, 1, 2)
    cx = pts[None, :, 0] - lamchi[:, :, 0]  # [lam, mu]
    cy = pts[None, :, 1] - lamchi[:, :, 1]
    np.rint(cx, out=cx)
    np.rint(cy, out=cy)
    lo_x, lo_y = cx.min(), cy.min()
    nx, ny = cx.max() - lo_x + 1, cy.max() - lo_y + 1
    if not nx * ny <= 2.0 ** 53:  # also catches a non-finite chi
        raise FrameError("offsets mu - chi lam too large to key their cells exactly")
    cx -= lo_x
    cx *= ny
    cy -= lo_y
    cx += cy
    del cy
    key = cx.astype(np.min_scalar_type(int(nx * ny) - 1)).reshape(-1)
    del cx
    flat_M = M.reshape(-1)
    order = np.argsort(flat_M)
    key = key[order]  # ascending |M|
    by_cell = np.argsort(key, kind="stable")  # positions in `order`, ascending per cell
    key = key[by_cell]
    starts = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
    first = by_cell[starts]
    last = by_cell[np.append(starts[1:], key.size) - 1]
    seq = np.argsort(first)
    cells = key[starts[seq]].astype(np.int64)
    ks = np.stack([cells // int(ny) + int(lo_x), cells % int(ny) + int(lo_y)], axis=1)
    return ks, flat_M[order[last[seq]]]


def envelope_fit(
    data: GaborMatrixData,
    chi: SymplecticMatrix | np.ndarray | None = None,
    qs: tuple = ((1.0, 0.0), (0.5, 0.0), (1.0, 1.0)),
) -> EnvelopeReport:
    """Shell maxima of |M| against mu - chi lam and their l^q_{v_s} norms.

    With `chi` given the report is purely descriptive; otherwise chi is
    estimated from the matrix itself by minimizing the weighted spread of the
    offsets over SL(2).  For q < 1 the norms are the formal quasi-norm sums,
    summed over the shells in their `EnvelopeReport` order.
    """
    M = np.abs(data.entries)
    pts = data.points
    significant = M > 1e-14 * max(np.max(M), 1e-300)
    if np.sum(significant) < 8:
        raise FrameError("too few significant entries to fit an envelope")
    estimated = chi is None
    if estimated:
        chi_mat = _estimate_chi(*_pair_moments(M, pts, significant))
    else:
        chi_mat = chi.mat if isinstance(chi, SymplecticMatrix) else np.asarray(chi)
    del significant
    ks, vals = _shell_maxima(M, pts, chi_mat)
    shells = dict(zip(map(tuple, ks.tolist()), vals.tolist()))
    norms = {}
    vs = 1.0 + np.sum(ks * ks, axis=1)
    for q, s in qs:
        weights = vs ** (s / 2.0)
        if np.isinf(q):
            norms[(q, s)] = float(np.max(vals * weights))
        else:
            norms[(q, s)] = float(np.sum((vals * weights) ** q) ** (1.0 / q))
    radii = np.max(np.abs(ks), axis=1)
    try:
        slope = decay_slope(radii, vals)
    except FrameError:
        slope = float("nan")
    # geometric tail estimate for the shells beyond the truncation
    r_edge = int(np.max(radii))
    edge_val = max(float(np.max(vals[radii == r_edge])) if r_edge > 0 else 0.0, 0.0)
    ratio = np.exp(slope) if np.isfinite(slope) and slope < 0 else 1.0
    if ratio < 1.0:
        # shells of radius r contain O(8r) cells
        tail = sum(
            edge_val * ratio ** (r - r_edge) * 8 * r for r in range(r_edge + 1, r_edge + 40)
        )
    else:
        tail = float("inf")
    return EnvelopeReport(
        chi=chi_mat,
        chi_estimated=estimated,
        shells=shells,
        norms=norms,
        slope=slope,
        tail_estimate=float(tail),
    )


def metaplectic_factor(T, chi):
    """Factor T = Op_w(sigma_1) mu(chi) = mu(chi) Op_w(sigma_2).

    sigma_1 is the Weyl symbol of T mu(chi)^{-1} (Wigner transform of its
    kernel); sigma_2 = sigma_1 o chi is recovered independently from
    mu(chi)^{-1} T and both reconstructions are checked against T.

    Returns (sigma1, sigma2, report) where the symbols are phase-space fields
    and the report carries the reconstruction residuals; "verified" is False
    when either exceeds `_VERIFY_TOL`.
    """
    if not isinstance(T, DenseOperator):
        raise GridError("metaplectic_factor needs a DenseOperator with axis metadata")
    chi = sympl(chi)
    T_mat = T.matrix
    ax = T.axes[0]
    U = dense_matrix(chi, ax)
    Uinv = np.linalg.inv(U)
    sigma1 = inverse_weyl(DenseOperator(T_mat @ Uinv, (ax,), "signal"))
    sigma2 = inverse_weyl(DenseOperator(Uinv @ T_mat, (ax,), "signal"))
    rec1 = weyl(SymbolGrid.from_field(sigma1), ax).matrix @ U
    rec2 = U @ weyl(SymbolGrid.from_field(sigma2), ax).matrix
    norm = np.linalg.norm(T_mat)
    report = {
        "residual_left": float(np.linalg.norm(rec1 - T_mat) / norm),
        "residual_right": float(np.linalg.norm(rec2 - T_mat) / norm),
    }
    # sigma2 = sigma1 o chi, checked on the interior where composition stays
    # inside the window
    pts_x = sigma1.x_axis.points()
    pts_xi = sigma1.xi_axis.points()
    X, Y = np.meshgrid(pts_x, pts_xi, indexing="ij")
    Zx = chi.mat[0, 0] * X + chi.mat[0, 1] * Y
    Zy = chi.mat[1, 0] * X + chi.mat[1, 1] * Y
    inside = (
        (Zx >= pts_x[0]) & (Zx < -pts_x[0]) & (Zy >= pts_xi[0]) & (Zy < -pts_xi[0])
    )
    composed = SymbolGrid.from_field(sigma1).eval(Zx, Zy)
    diff = np.abs(composed - sigma2.values)[inside]
    scale = max(float(np.max(np.abs(sigma2.values))), 1e-300)
    report["composition_max_err"] = float(np.max(diff)) / scale
    # NaN residuals fail the test too
    report["verified"] = all(report[k] <= _VERIFY_TOL for k in ("residual_left", "residual_right"))
    return sigma1, sigma2, report
