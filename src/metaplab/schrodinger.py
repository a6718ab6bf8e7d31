"""Propagators for quadratic Hamiltonians with bounded perturbations.

The quadratic part evolves exactly through the metaplectic chain of its
classical flow; the perturbed problem exponentiates the dense Hermitian
matrix of the full Hamiltonian.  On top of the propagators sit the
phase-space diagnostics: transported covariant representations, kernel
concentration along the flow graph, and the cone-integral wave front
machinery with its propagation check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .metaplectic import apply, dense_matrix
from .quantize import DenseOperator, SymbolGrid, inverse_weyl, weyl
from .signals import (
    Axis,
    GridError,
    GridSignal,
    PhaseSpaceField,
    SamplingError,
    fourier,
    inverse_fourier,
    rescale,
    tf_shift,
)
from .symplectic import (
    CovariantForm,
    QuadraticHamiltonian,
    SymplecticMatrix,
    cohen_B,
    covariant_from_cohen_B,
    evolve_cohen_B,
    hamiltonian_flow,
    sympl,
)
from .wigner import represent, stft, tau_wigner, wigner_A_covariant, wigner_cross

__all__ = [
    "Hamiltonian",
    "WaveFrontReport",
    "propagate_quadratic",
    "free_particle_multiplier",
    "hamiltonian_matrix",
    "propagate_perturbed",
    "perturbation_symbol",
    "evolved_wigner_check",
    "wigner_kernel_check",
    "wavefront",
    "wavefront_propagation_check",
]

_HERMITIAN_TOL = 1e-8  # relative Hermitian defect hamiltonian_matrix accepts
_TRANSPORT_TOL = 1e-5  # transported-representation residual evolved_wigner_check accepts
# wave-front classification: weight orders of the cone integrals, the slope
# threshold as a fraction of the worst-case weight growth, and the top-order
# mass floors relative to the largest cone and to ||f||^4
_WF_ORDERS = (0, 1, 2, 3, 4)
_WF_THRESHOLD_FACTOR = 0.4
_WF_MASS_FLOOR = 1e-4
_WF_MASS_ABS = 5.0


@dataclass(frozen=True)
class Hamiltonian:
    """Quadratic part plus an optional bounded perturbation symbol."""

    quad: QuadraticHamiltonian
    perturbation: SymbolGrid | None = None

    @property
    def d(self) -> int:
        return self.quad.d


def propagate_quadratic(h: QuadraticHamiltonian, t: float, u0: GridSignal) -> GridSignal:
    """Exact metaplectic evolution mu(chi_t) u0 (global phase untracked)."""
    return apply(hamiltonian_flow(h, t), u0)


def free_particle_multiplier(t: float, u0: GridSignal) -> GridSignal:
    """Oracle for the free particle: Fourier multiplier exp(-4 pi^2 i t xi^2)."""
    hat = fourier(u0)
    xi = hat.grid.axes[0].points()
    hat = hat.with_values(hat.values * np.exp(-4j * np.pi ** 2 * t * xi ** 2))
    return inverse_fourier(hat)


def hamiltonian_matrix(H: Hamiltonian, ax: Axis) -> np.ndarray:
    """Dense Hermitian matrix of Op_w(quad) + Op_w(sigma) on the grid."""
    quad = H.quad
    a_quad = SymbolGrid.from_function(lambda x, xi: quad.symbol(x, xi), ax)
    # polynomial symbols carry genuine slow lag tails: keep the full kernel
    M = weyl(a_quad, ax, mask_wrap_lags=False).matrix
    if H.perturbation is not None:
        M = M + weyl(H.perturbation, ax, mask_wrap_lags=False).matrix
    if not np.all(np.isfinite(M)):
        raise SamplingError("Hamiltonian matrix has non-finite entries")
    herm = np.max(np.abs(M - M.conj().T))
    if herm > _HERMITIAN_TOL * max(1.0, np.max(np.abs(M))):
        raise GridError(f"Hamiltonian matrix is not Hermitian within tol ({herm:.2e})")
    return (M + M.conj().T) / 2.0


def _flow(M: np.ndarray, values: np.ndarray, times) -> np.ndarray:
    """exp(i t M) values for every t from one eigendecomposition of M.

    The time axis comes first; trailing axes of `values` are a batch.  At
    t = 0 the values come back unchanged.
    """
    w, V = np.linalg.eigh(M)
    flat = values.reshape(values.shape[0], -1)
    c = V.conj().T @ flat
    out = [flat if t == 0.0 else V @ (np.exp(1j * t * w)[:, None] * c) for t in times]
    return np.array(out, dtype=np.complex128).reshape((len(times),) + values.shape)


def propagate_perturbed(H: Hamiltonian, t: float, u0: GridSignal) -> GridSignal:
    """u(t) = exp(i t H) u0 through the Hermitian eigendecomposition."""
    if t == 0.0:
        return u0
    return u0.with_values(_flow(hamiltonian_matrix(H, u0.grid.axes[0]), u0.values, (t,))[0])


def perturbation_symbol(H: Hamiltonian, t: float, ax: Axis) -> tuple[PhaseSpaceField, dict]:
    """Symbol b_t with exp(itH) = mu(chi_t) Op_w(b_t), plus a residual report.

    b_t soaks up the untracked phase of the chain realization of mu(chi_t),
    so at sigma = 0 it is a unimodular constant rather than exactly 1.
    """
    U_t = _flow(hamiltonian_matrix(H, ax), np.eye(ax.n), (t,))[0]
    chi = hamiltonian_flow(H.quad, t)
    M_chi = dense_matrix(chi, ax)
    rest = np.linalg.solve(M_chi, U_t)
    b_t = inverse_weyl(DenseOperator(rest, (ax,), "signal"))
    rec = M_chi @ weyl(SymbolGrid.from_field(b_t), ax).matrix
    report = {
        "reconstruction_residual": float(
            np.linalg.norm(rec - U_t) / np.linalg.norm(U_t)
        )
    }
    return b_t, report


def evolved_wigner_check(h: QuadraticHamiltonian, tau: float, t: float, u0: GridSignal) -> dict:
    """Residual of the transported-representation identity, with its verdict.

    Checks W_tau(u(t))(z) = W_{A_t} u0 (chi_t^{-1} z) with A_t the covariant
    matrix carried along the flow; the right side is composed with
    chi_t^{-1} by `rescale` (sqrt|det| = 1), so a chi_t^{-1} past the
    conditioning bound raises `GridError`.  W_{A_t} u0 comes from the
    phase-free covariant quadrature when its chirps stay in band ("route":
    "covariant"), else from the generator chain of A_t ("route": "chain"),
    whose global unimodular constant is not aligned away: it sits at 1 to
    roundoff on the free and quadratic flows.  "verified" holds when the
    residual is at most `_TRANSPORT_TOL`; a NaN residual is not verified.
    """
    chi = hamiltonian_flow(h, t)
    u_t = apply(chi, u0)
    lhs = tau_wigner(u_t, u_t, tau)
    B_t = evolve_cohen_B(cohen_B(CovariantForm.tau(tau)), chi)
    form_t = covariant_from_cohen_B(B_t)
    try:
        W_t = represent(form_t, u0)
    except SamplingError:
        # the A13 multiplier aliases; the chain's steps can stay in band
        W_t = represent(form_t.matrix(), u0)
    rhs = rescale(W_t.field, chi.inv().mat)
    num = np.linalg.norm((lhs.values - rhs.values).ravel())
    residual = float(num / np.linalg.norm(lhs.values.ravel()))
    return {
        "residual": residual,
        "verified": residual <= _TRANSPORT_TOL,
        "route": W_t.route,
        "flow": chi.mat,
        "evolved_form": form_t,
    }


def wigner_kernel_check(H: Hamiltonian, form: CovariantForm, t: float, u0: GridSignal) -> dict:
    """Concentration of the evolved-representation kernel along the flow graph.

    The induced map W_{A_t} u0 -> W_A(e^{itH} u0) is probed on coherent states
    pi(c) u0, c on the 3x3 lattice {-1, 0, 1}^2: each response field should
    concentrate where chi_t^{-1} z sits near c.  Reports, per probe, the
    mass fraction off the unit disc around c and the window norms with
    weights <chi_t^{-1} z - c>^{2N}, N = 0, 1, 2; the growth ratios across N
    are evidence about boundedness on the truncated window, not a verdict.
    """
    chi = hamiltonian_flow(H.quad, t)
    ax = u0.grid.axes[0]
    centers = np.array([[x, xi] for x in (-1.0, 0.0, 1.0) for xi in (-1.0, 0.0, 1.0)])
    weights = (0, 1, 2)
    B_t = evolve_cohen_B(cohen_B(form), chi)
    form_t = covariant_from_cohen_B(B_t)
    inv = chi.inv().mat
    xs = ax.points()
    xis = ax.dual().points()
    X, Y = np.meshgrid(xs, xis, indexing="ij")
    back_x = inv[0, 0] * X + inv[0, 1] * Y
    back_xi = inv[1, 0] * X + inv[1, 1] * Y
    cell = ax.step * ax.dual().step
    probes = [tf_shift(u0, c) for c in centers]
    # the probes evolve as one (n, probes) batch under one eigendecomposition
    batch = np.stack([p.values for p in probes], axis=-1)
    evolved = _flow(hamiltonian_matrix(H, ax), batch, (t,))[0]
    per_probe = []
    for c, uc, vals in zip(centers, probes, evolved.T):
        ut = uc.with_values(vals)
        R = wigner_A_covariant(form, ut, ut).values
        dist2 = (back_x - c[0]) ** 2 + (back_xi - c[1]) ** 2
        total = float(np.sum(np.abs(R) ** 2) * cell)
        off = float(np.sum(np.abs(R[dist2 > 1.0]) ** 2) * cell)
        norms = {}
        for N in weights:
            wgt = (1.0 + dist2) ** N
            norms[N] = float(np.sqrt(np.sum(wgt * np.abs(R) ** 2) * cell))
        per_probe.append(
            {"center": tuple(c), "off_diag_fraction": off / total, "weighted_norms": norms}
        )
    worst_off = max(p["off_diag_fraction"] for p in per_probe)
    ratios = []
    for p in per_probe:
        ns = p["weighted_norms"]
        for N1, N2 in zip(weights[:-1], weights[1:]):
            ratios.append(ns[N2] / max(ns[N1], 1e-300))
    return {
        "probes": per_probe,
        "worst_off_diag_fraction": worst_off,
        "max_weight_growth_ratio": float(max(ratios)),
        "flow": chi.mat,
    }


# ---------------------------------------------------------------------------
# wave front sets


@dataclass(frozen=True)
class WaveFrontReport:
    """Cone-integral evidence about directions of phase-space non-decay.

    For each angular bin: I(N) = sum over the cone (|z| >= r0) of
    <z>^{2N} |field|^2 * cell.  A cone is flagged singular when the fitted
    slope of log I against N exceeds `threshold`; the threshold is a fixed
    rule, not truth, and both slopes and raw integrals are reported.
    Cones without enough radial dynamic range are flagged inconclusive.
    """

    angles: np.ndarray
    integrals: np.ndarray  # (bins, len(orders))
    slopes: np.ndarray
    orders: tuple
    threshold: float
    singular: np.ndarray
    inconclusive: np.ndarray
    params: dict

    def singular_bins(self) -> np.ndarray:
        return np.where(self.singular & ~self.inconclusive)[0]


def wavefront(f: GridSignal, rep="wigner", n_bins: int = 64, r0: float = 2.0) -> WaveFrontReport:
    """Directional tail-decay report of |W f|^2 (or the chosen representation).

    Per cone the integrals I(N), N in `_WF_ORDERS`, are exactly
    nondecreasing in N.  A cone is flagged singular when three pieces of
    evidence agree: the slope of log I(N) against N exceeds
    `_WF_THRESHOLD_FACTOR` times the worst-case weight growth
    log(<r_max>^2); the top-order integral carries at least `_WF_MASS_FLOOR`
    of the largest cone's (so slopes fitted to noise floors carry no
    weight); and the top-order integral, normalized by the fourth power of
    the signal norm, exceeds `_WF_MASS_ABS` (jump-type singularities
    accumulate orders of magnitude more weighted tail mass at desk scale
    than any Schwartz signal pushed through a bounded flow).  Both the
    slopes and the raw integrals are reported: the rule is a fixed
    convention, not truth.  `rep` is any spec `wigner.represent` takes.
    """
    rep_out = represent(rep, f)
    F = rep_out.field
    vals = np.abs(F.values) ** 2
    xs = F.x_axis.points()
    xis = F.xi_axis.points()
    X, Y = np.meshgrid(xs, xis, indexing="ij")
    r2 = X ** 2 + Y ** 2
    angles = np.mod(np.arctan2(Y, X), 2.0 * np.pi)
    bin_w = 2.0 * np.pi / n_bins
    bin_idx = np.minimum((angles / bin_w).astype(int), n_bins - 1)
    cell = F.x_axis.step * F.xi_axis.step
    sel = r2 >= r0 ** 2
    r_max = float(np.sqrt(np.max(r2)))
    # dynamic range of the weight ladder across the radial window, in decades
    decades = (
        2.0 * max(_WF_ORDERS) * np.log10(np.sqrt(1.0 + r_max ** 2) / np.sqrt(1.0 + r0 ** 2))
    )
    integrals = np.zeros((n_bins, len(_WF_ORDERS)))
    w_base = 1.0 + r2
    for j, N in enumerate(_WF_ORDERS):
        contrib = vals * w_base ** N * cell
        contrib = np.where(sel, contrib, 0.0)
        integrals[:, j] = np.bincount(bin_idx.ravel(), contrib.ravel(), minlength=n_bins)
    counts = np.bincount(bin_idx.ravel(), sel.ravel().astype(float), minlength=n_bins).astype(int)
    slopes = np.full(n_bins, -np.inf)
    orders_arr = np.array(_WF_ORDERS, dtype=float)
    for b in range(n_bins):
        vals_b = integrals[b]
        if np.all(vals_b > 0):
            slopes[b] = float(np.polyfit(orders_arr, np.log(vals_b), 1)[0])
    threshold = _WF_THRESHOLD_FACTOR * np.log(1.0 + r_max ** 2)
    top = integrals[:, -1]
    norm4 = max(float(np.sum(vals) * cell), 1e-300)  # = ||field||_2^2 ~ ||f||^4
    significant = (top > _WF_MASS_FLOOR * max(float(np.max(top)), 1e-300)) & (
        top / norm4 > _WF_MASS_ABS
    )
    singular = (slopes > threshold) & significant
    inconclusive = (counts < 8) | np.full(n_bins, decades < 2.0)
    return WaveFrontReport(
        angles=(np.arange(n_bins) + 0.5) * bin_w,
        integrals=integrals,
        slopes=slopes,
        orders=_WF_ORDERS,
        threshold=float(threshold),
        singular=singular,
        inconclusive=inconclusive,
        params={"r0": r0, "n_bins": n_bins, "r_max": r_max, "decades": decades,
                "route": rep_out.route, "moyal_deviation": rep_out.moyal_deviation},
    )


def _bin_distance(b1: int, b2: int, n_bins: int) -> int:
    d = abs(b1 - b2) % n_bins
    return min(d, n_bins - d)


def angular_hausdorff_bins(set1, set2, n_bins: int) -> float:
    """Two-sided angular Hausdorff distance between bin sets (in bins)."""
    s1, s2 = list(set1), list(set2)
    if not s1 and not s2:
        return 0.0
    if not s1 or not s2:
        return float("inf")
    d12 = max(min(_bin_distance(a, b, n_bins) for b in s2) for a in s1)
    d21 = max(min(_bin_distance(a, b, n_bins) for b in s1) for a in s2)
    return float(max(d12, d21))


def map_bins_through(chi: SymplecticMatrix, bins, n_bins: int) -> set:
    """Push angular bins through a linear map (directions of cone images)."""
    chi = sympl(chi)
    out = set()
    bin_w = 2.0 * np.pi / n_bins
    for b in bins:
        # map several directions inside the bin to capture cone spreading
        for frac in (0.25, 0.5, 0.75):
            theta = (b + frac) * bin_w
            v = chi.mat @ np.array([np.cos(theta), np.sin(theta)])
            phi = np.mod(np.arctan2(v[1], v[0]), 2 * np.pi)
            out.add(int(phi / bin_w) % n_bins)
    return out


def wavefront_propagation_check(
    H: Hamiltonian, t: float, u0: GridSignal, rep="wigner", n_bins: int = 64
) -> dict:
    """Compare singular directions of u(t) with the flow image of those of u0."""
    chi = hamiltonian_flow(H.quad, t)
    u_t = propagate_perturbed(H, t, u0)
    wf_t = wavefront(u_t, rep=rep, n_bins=n_bins)
    wf_0 = wavefront(u0, rep=rep, n_bins=n_bins)
    predicted = map_bins_through(chi, wf_0.singular_bins(), n_bins)
    observed = set(int(b) for b in wf_t.singular_bins())
    dist = angular_hausdorff_bins(observed, predicted, n_bins)
    return {
        "distance_bins": dist,
        "observed": sorted(observed),
        "predicted": sorted(predicted),
        "report_t": wf_t,
        "report_0": wf_0,
        "flow": chi.mat,
    }


def spectrogram_convolution_check(f: GridSignal, g: GridSignal, form: CovariantForm) -> float:
    """Spectral residual of |V_g f|^2 = Psi_A * W_A f for covariant A.

    Verified in multiplier form: F(|V_g f|^2) should equal
    F(IWg) Phi_{B_A} F(W_A f), using that the covariant representation is the
    Cohen convolution of the Wigner distribution.
    """
    from .signals import chirp_phase, field_fourier

    V = stft(f, g)
    spec_lhs = field_fourier(V.with_values(np.abs(V.values) ** 2))
    Wg = wigner_cross(g, g)
    IWg = Wg.with_values(Wg.values[(-np.arange(Wg.values.shape[0])) % Wg.values.shape[0]][:, (-np.arange(Wg.values.shape[1])) % Wg.values.shape[1]])
    WAf = wigner_A_covariant(form, f, f)
    B = cohen_B(form)
    mult = chirp_phase((spec_lhs.x_axis, spec_lhs.xi_axis), B)
    rhs = field_fourier(IWg).values * mult * field_fourier(WAf).values
    num = np.linalg.norm(spec_lhs.values - rhs)
    den = np.linalg.norm(spec_lhs.values)
    return float(num / den)
