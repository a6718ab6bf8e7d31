"""Linear algebra for the real symplectic groups used by the transforms.

Handles membership tests, block decompositions, free and generator
factorizations, the covariant block structure behind Cohen-class
representations, shift-invertibility, and quadratic-Hamiltonian flows.
All matrices are dense 2n x 2n float arrays; n is d for matrices acting on
signals and 2d for matrices acting on phase-space fields.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "standard_J",
    "is_symplectic",
    "SymplecticMatrix",
    "SymplecticError",
    "BlockDecomposition",
    "CovariantForm",
    "QuadraticHamiltonian",
    "V_C",
    "D_L",
    "A_FT2",
    "tau_matrix",
    "stft_matrix",
    "free_factorize",
    "covariant_from_blocks",
    "cohen_B",
    "covariant_from_cohen_B",
    "evolve_cohen_B",
    "hamiltonian_flow",
    "shift_invertibility",
]

DEFAULT_TOL = 1.0e-10
COND_BOUND = 1.0e8
# chirp dictionary for the free-factorization search
_CHIRP_DICT = (0.0, 1.0, -1.0, 0.5, -0.5)
# Taylor terms of the matrix exponential behind hamiltonian_flow
_TAYLOR_TERMS = 18


class SymplecticError(ValueError):
    pass


class SamplingError(ValueError):
    """A requested operation cannot be computed in floating point on the
    current grid: it would alias, or a flow overflows."""


def standard_J(n: int) -> np.ndarray:
    """The 2n x 2n standard symplectic form [[0, I], [-I, 0]]."""
    J = np.zeros((2 * n, 2 * n))
    J[:n, n:] = np.eye(n)
    J[n:, :n] = -np.eye(n)
    return J


def is_symplectic(M, tol: float = DEFAULT_TOL) -> bool:
    """True iff max|X^T J X - J| <= tol for M and X = -J M^T J, whose residual
    is that of M J M^T: the inverse -J M^T J of an accepted M passes the same
    two tests bit for bit."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise SymplecticError("matrix must be square")
    if M.shape[0] % 2 != 0:
        raise SymplecticError("symplectic matrices have even side")
    J = standard_J(M.shape[0] // 2)
    return all(np.max(np.abs(X.T @ J @ X - J)) <= tol for X in (M, -J @ M.T @ J))


@dataclass(frozen=True)
class SymplecticMatrix:
    """Validated member of Sp(n, R), stored as its dense 2n x 2n array."""

    mat: np.ndarray
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        M = np.asarray(self.mat, dtype=float)
        object.__setattr__(self, "mat", M)
        if not is_symplectic(M, self.tol):
            raise SymplecticError("matrix fails the symplectic membership test")
        det = np.linalg.det(M)
        if abs(abs(det) - 1.0) > 10.0 * max(self.tol, 1e-12) * max(1.0, abs(det)):
            raise SymplecticError(f"determinant {det} is not +-1")

    @property
    def n(self) -> int:
        return self.mat.shape[0] // 2

    def inv(self) -> "SymplecticMatrix":
        # A^-1 = -J A^T J exactly; `is_symplectic` already accepted it with A
        J = standard_J(self.n)
        return SymplecticMatrix(-J @ self.mat.T @ J, self.tol)

    def __matmul__(self, other: "SymplecticMatrix") -> "SymplecticMatrix":
        return SymplecticMatrix(self.mat @ other.mat, max(self.tol, other.tol) * 10)

    def blocks(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Half-size blocks (A, B, C, D) of [[A, B], [C, D]]."""
        n = self.n
        M = self.mat
        return M[:n, :n], M[:n, n:], M[n:, :n], M[n:, n:]

    def is_free(self) -> bool:
        _, B, _, _ = self.blocks()
        return _invertible(B)


def _invertible(M: np.ndarray) -> bool:
    """The one conditioning test: 2-norm condition number at most COND_BOUND."""
    s = np.linalg.svd(M, compute_uv=False)
    return bool(s[-1] > 0 and s[0] / s[-1] <= COND_BOUND)


def sympl(mat) -> SymplecticMatrix:
    if isinstance(mat, SymplecticMatrix):
        return mat
    return SymplecticMatrix(np.asarray(mat, dtype=float))


# ---------------------------------------------------------------------------
# elementary symplectic matrices


def V_C(C) -> np.ndarray:
    """Lower chirp block matrix [[I, 0], [C, I]] for symmetric C."""
    C = np.atleast_2d(np.asarray(C, dtype=float))
    n = C.shape[0]
    if np.max(np.abs(C - C.T)) > 1e-12:
        raise SymplecticError("chirp parameter must be symmetric")
    M = np.eye(2 * n)
    M[n:, :n] = C
    return M


def V_C_upper(C) -> np.ndarray:
    """V_C^{-T} = [[I, -C], [0, I]]: the Fourier conjugate of a chirp."""
    C = np.atleast_2d(np.asarray(C, dtype=float))
    n = C.shape[0]
    M = np.eye(2 * n)
    M[:n, n:] = -C
    return M


def D_L(L) -> np.ndarray:
    """Rescaling block matrix [[L^-1, 0], [0, L^T]] for invertible L."""
    L = np.atleast_2d(np.asarray(L, dtype=float))
    n = L.shape[0]
    M = np.zeros((2 * n, 2 * n))
    M[:n, :n] = np.linalg.inv(L)
    M[n:, n:] = L.T
    return M


def A_FT2(d: int = 1) -> np.ndarray:
    """4d x 4d matrix whose operator is the partial Fourier transform F_2."""
    Z = np.zeros((d, d))
    I = np.eye(d)
    return np.block(
        [
            [I, Z, Z, Z],
            [Z, Z, Z, I],
            [Z, Z, I, Z],
            [Z, -I, Z, Z],
        ]
    )


def tau_matrix(tau: float, d: int = 1) -> SymplecticMatrix:
    """The 4d x 4d matrix of the tau-Wigner representation."""
    Z = np.zeros((d, d))
    I = np.eye(d)
    M = np.block(
        [
            [(1 - tau) * I, tau * I, Z, Z],
            [Z, Z, tau * I, -(1 - tau) * I],
            [Z, Z, I, I],
            [-I, I, Z, Z],
        ]
    )
    return SymplecticMatrix(M)


def stft_matrix(d: int = 1) -> SymplecticMatrix:
    """The 4d x 4d matrix whose representation is the short-time Fourier transform."""
    Z = np.zeros((d, d))
    I = np.eye(d)
    M = np.block(
        [
            [I, -I, Z, Z],
            [Z, Z, I, I],
            [Z, Z, Z, -I],
            [-I, Z, Z, Z],
        ]
    )
    return SymplecticMatrix(M)


# ---------------------------------------------------------------------------
# block decompositions


@dataclass(frozen=True)
class BlockDecomposition:
    """The sixteen d x d blocks of a 4d x 4d matrix, A[i][j] for i,j in 0..3."""

    blocks: tuple
    d: int

    @classmethod
    def of(cls, M) -> "BlockDecomposition":
        M = M.mat if isinstance(M, SymplecticMatrix) else np.asarray(M, dtype=float)
        if M.shape[0] % 4 != 0:
            raise SymplecticError("need a 4d x 4d matrix to take d-blocks")
        d = M.shape[0] // 4
        rows = []
        for i in range(4):
            rows.append(
                tuple(M[i * d : (i + 1) * d, j * d : (j + 1) * d].copy() for j in range(4))
            )
        return cls(tuple(rows), d)

    def __getitem__(self, ij) -> np.ndarray:
        i, j = ij
        return self.blocks[i - 1][j - 1]  # 1-based like the block notation

    def assemble(self) -> np.ndarray:
        return np.block([[self.blocks[i][j] for j in range(4)] for i in range(4)])


def is_totally_wigner_decomposable(A: SymplecticMatrix, tol: float = 1e-10) -> bool:
    """True iff A = A_FT2 D_L, i.e. the sparsity pattern with rows (1,4) in the
    left half and rows (2,3) in the right half."""
    b = BlockDecomposition.of(A)
    zero_pairs = [(1, 3), (1, 4), (2, 1), (2, 2), (3, 1), (3, 2), (4, 3), (4, 4)]
    return all(np.max(np.abs(b[p])) <= tol for p in zero_pairs)


def wigner_decomposition_L(A: SymplecticMatrix) -> np.ndarray:
    """The L with A = A_FT2 D_L, assembled from the blocks of A."""
    b = BlockDecomposition.of(A)
    L = np.block([[b[3, 3].T, b[2, 3].T], [b[3, 4].T, b[2, 4].T]])
    d = b.d
    A_mat = A.mat if isinstance(A, SymplecticMatrix) else A
    check = A_FT2(d) @ D_L(L)
    if np.max(np.abs(check - A_mat)) > 1e-9:
        raise SymplecticError("matrix is not of the partial-Fourier-times-rescale form")
    return L


def is_covariant(A: SymplecticMatrix, tol: float = 1e-10) -> bool:
    """Covariant block pattern: the structure that commutes with phase-space shifts."""
    b = BlockDecomposition.of(A)
    d = b.d
    I = np.eye(d)
    checks = [
        b[1, 2] - (I - b[1, 1]),
        b[1, 4] - b[1, 3],
        b[2, 2] + b[2, 1],
        b[2, 3] - (I - b[1, 1].T),
        b[2, 4] + b[1, 1].T,
        b[3, 1], b[3, 2], b[3, 3] - I, b[3, 4] - I,
        b[4, 1] + I, b[4, 2] - I, b[4, 3], b[4, 4],
        b[1, 3] - b[1, 3].T,
        b[2, 1] - b[2, 1].T,
    ]
    return all(np.max(np.abs(c)) <= tol for c in checks)


@dataclass(frozen=True)
class CovariantForm:
    """Blocks (A11, A13, A21) determining a covariant matrix; A13, A21 symmetric."""

    a11: np.ndarray
    a13: np.ndarray
    a21: np.ndarray
    tol: float = 1e-9

    def __post_init__(self):
        a11 = np.atleast_2d(np.asarray(self.a11, dtype=float))
        a13 = np.atleast_2d(np.asarray(self.a13, dtype=float))
        a21 = np.atleast_2d(np.asarray(self.a21, dtype=float))
        for name, M in (("a13", a13), ("a21", a21)):
            if np.max(np.abs(M - M.T)) > self.tol:
                raise SymplecticError(f"{name} is not symmetric within tol")
        object.__setattr__(self, "a11", a11)
        object.__setattr__(self, "a13", (a13 + a13.T) / 2.0)
        object.__setattr__(self, "a21", (a21 + a21.T) / 2.0)

    @property
    def d(self) -> int:
        return self.a11.shape[0]

    def matrix(self) -> SymplecticMatrix:
        return covariant_from_blocks(self.a11, self.a13, self.a21)

    @classmethod
    def tau(cls, tau: float, d: int = 1) -> "CovariantForm":
        I = np.eye(d)
        Z = np.zeros((d, d))
        return cls((1.0 - tau) * I, Z, Z)

    @classmethod
    def from_matrix(cls, A: SymplecticMatrix) -> "CovariantForm":
        if not is_covariant(A):
            raise SymplecticError("matrix does not have the covariant block pattern")
        b = BlockDecomposition.of(A)
        return cls(b[1, 1], b[1, 3], b[2, 1])


def covariant_from_blocks(a11, a13, a21) -> SymplecticMatrix:
    """Assemble the covariant 4d x 4d matrix from its determining blocks."""
    form = CovariantForm(a11, a13, a21)
    d = form.d
    I = np.eye(d)
    Z = np.zeros((d, d))
    M = np.block(
        [
            [form.a11, I - form.a11, form.a13, form.a13],
            [form.a21, -form.a21, I - form.a11.T, -form.a11.T],
            [Z, Z, I, I],
            [-I, I, Z, Z],
        ]
    )
    return SymplecticMatrix(M, 1e-9)


def cohen_B(cov: CovariantForm) -> np.ndarray:
    """Quadratic form of the Cohen multiplier attached to a covariant matrix.

    Symmetric by construction; the (2,1) block is (I/2 - A11)^T so that the
    frequency-side multiplier exp(-i pi zeta . B zeta) is well defined.
    """
    d = cov.d
    I = np.eye(d)
    return np.block(
        [
            [cov.a13, 0.5 * I - cov.a11],
            [(0.5 * I - cov.a11).T, -cov.a21],
        ]
    )


def covariant_from_cohen_B(B: np.ndarray) -> CovariantForm:
    """Inverse of `cohen_B`: recover (A11, A13, A21) from the symmetric matrix."""
    B = np.asarray(B, dtype=float)
    d = B.shape[0] // 2
    if np.max(np.abs(B - B.T)) > 1e-9:
        raise SymplecticError("Cohen matrix must be symmetric")
    a13 = B[:d, :d]
    a21 = -B[d:, d:]
    a11 = 0.5 * np.eye(d) - B[:d, d:]
    return CovariantForm(a11, a13, a21)


def evolve_cohen_B(B: np.ndarray, chi_t: SymplecticMatrix) -> np.ndarray:
    """Transport the Cohen matrix along a classical flow: chi^-1 B chi^-T.

    This is the order forced by the transported-kernel identity
    Sigma_t = Sigma o chi_t (the frequency-side quadratic form picks up
    chi^-T on both sides), and it is pinned numerically by the free-particle
    identity: the evolved term lands in the upper-left (convolution) block.
    """
    B = np.asarray(B, dtype=float)
    if np.max(np.abs(B - B.T)) > 1e-9:
        raise SymplecticError("Cohen matrix must be symmetric")
    chi = sympl(chi_t)
    inv = chi.inv().mat
    out = inv @ B @ inv.T
    return (out + out.T) / 2.0


# ---------------------------------------------------------------------------
# factorizations


def free_factorize(A: SymplecticMatrix) -> tuple[SymplecticMatrix, SymplecticMatrix]:
    """Split A into two free factors A = A1 A2.

    Uses A = (A J^-1 V_C^-T)(V_C^T J): the right factor has B-block I and the
    left factor has B-block -(A_blk + B_blk C); C runs over a small symmetric
    dictionary and the winner maximizes the smaller B-block singular value.
    """
    A = sympl(A)
    n = A.n
    J = standard_J(n)
    Jinv = -J
    best = None
    best_score = -1.0
    for c in _CHIRP_DICT:
        C = c * np.eye(n)
        cand1 = A.mat @ Jinv @ V_C_upper(C)
        B1 = cand1[:n, n:]
        s = np.linalg.svd(B1, compute_uv=False)
        score = s[-1] / max(s[0], 1e-300)
        if score > best_score:
            best_score = score
            best = (cand1, V_C(C).T @ J, s)
    cand1, right, s = best
    if not _invertible(cand1[:n, n:]):
        raise SymplecticError(
            "free factorization failed: best B-block condition "
            f"{s[0] / max(s[-1], 1e-300):.3g} exceeds bound {COND_BOUND:.3g}"
        )
    A1 = SymplecticMatrix(cand1, max(A.tol, 1e-9))
    A2 = SymplecticMatrix(right, max(A.tol, 1e-9))
    return A1, A2


def shift_invertibility(A: SymplecticMatrix) -> np.ndarray | None:
    """diag(A11, A23) when both blocks are invertible, else None.

    Applies to totally Wigner-decomposable and covariant matrices, whose
    moduli |W_A(pi(w)f, g)| are translates by E_A w of |W_A(f, g)|.
    """
    b = BlockDecomposition.of(A)
    d = b.d
    a11, a23 = b[1, 1], b[2, 3]
    E = np.zeros((2 * d, 2 * d))
    E[:d, :d] = a11
    E[d:, d:] = a23
    if _invertible(a11) and _invertible(a23):
        return E
    return None


# ---------------------------------------------------------------------------
# quadratic Hamiltonians and their flows


@dataclass(frozen=True)
class QuadraticHamiltonian:
    """Coefficients of a(x, xi) = x.Ax/2 + xi.Bx + xi.Cxi/2 (A, C symmetric)."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        B = np.atleast_2d(np.asarray(self.B, dtype=float))
        C = np.atleast_2d(np.asarray(self.C, dtype=float))
        for name, M in (("A", A), ("C", C)):
            if np.max(np.abs(M - M.T)) > 1e-10:
                raise SymplecticError(f"coefficient {name} must be symmetric")
        object.__setattr__(self, "A", (A + A.T) / 2.0)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "C", (C + C.T) / 2.0)
        G = self.generator()
        J = standard_J(A.shape[0])
        if np.max(np.abs(G.T @ J + J @ G)) > 1e-9:
            raise SymplecticError("assembled generator left the symplectic algebra")

    @property
    def d(self) -> int:
        return self.A.shape[0]

    def generator(self) -> np.ndarray:
        """Flow generator G with chi_t = expm(t G / 2pi).

        The sign is pinned by the free particle a = -4 pi^2 |xi|^2, whose flow
        must move wave packets forward: chi_t (x, xi) = (x + 4 pi t xi, xi).
        """
        return np.block([[-self.B, -self.C], [self.A, self.B.T]])

    def symbol(self, x, xi):
        """Evaluate a(x, xi) pointwise (d = 1 arrays broadcast)."""
        if self.d == 1:
            a = self.A[0, 0]
            b = self.B[0, 0]
            c = self.C[0, 0]
            return 0.5 * a * x ** 2 + b * x * xi + 0.5 * c * xi ** 2
        raise NotImplementedError("pointwise symbol only implemented for d = 1")

    @classmethod
    def free_particle(cls, d: int = 1) -> "QuadraticHamiltonian":
        """a = -4 pi^2 |xi|^2, so that exp(i t Op_w(a)) = exp(i t Laplacian)."""
        Z = np.zeros((d, d))
        return cls(Z, Z, -8.0 * np.pi ** 2 * np.eye(d))

    @classmethod
    def harmonic(cls, d: int = 1) -> "QuadraticHamiltonian":
        """a = pi (|x|^2 + |xi|^2): rotation of phase space at unit rate."""
        I = np.eye(d)
        Z = np.zeros((d, d))
        return cls(2.0 * np.pi * I, Z, 2.0 * np.pi * I)


def _expm(G: np.ndarray) -> np.ndarray:
    """exp(G) by scaling and squaring a Taylor series (Higham, SIAM J. Matrix
    Anal. Appl. 26, 2005).

    G is scaled by 2^-s to ||X||_1 <= 1/2, where the terms past
    _TAYLOR_TERMS add less than 0.5^18 / 19! ~ 3e-23 relative to exp(X) - I.
    The series sums to S = exp(X) - I, smallest terms first, and squares as
    S -> 2S + S^2, so the identity is added once and rounds once. The
    products are numpy's: scipy.linalg.expm would call scipy's own OpenBLAS,
    whose thread pool competes with numpy's for the same CPUs.
    """
    s = max(0, int(np.frexp(np.linalg.norm(G, 1))[1]) + 1)
    X = np.ldexp(G, -s)
    terms = [X]
    for k in range(2, _TAYLOR_TERMS + 1):
        terms.append(terms[-1] @ X / k)
    S = sum(reversed(terms))
    for _ in range(s):
        S = 2.0 * S + S @ S
    return np.eye(len(G)) + S


def hamiltonian_flow(h: QuadraticHamiltonian, t: float) -> SymplecticMatrix:
    """Classical flow chi_t = expm(t G / 2pi), in Sp(d, R) in exact arithmetic.

    SamplingError when the computed exponential overflows or fails the
    membership test, as long or unstable flows do: the input is valid, but
    the flow cannot be computed in float64.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        M = _expm((t / (2.0 * np.pi)) * h.generator())
        if np.all(np.isfinite(M)):
            try:
                return SymplecticMatrix(M, 1e-8)
            except SymplecticError:
                pass
    raise SamplingError(f"the flow at t = {t!r} cannot be computed in float64: "
                        "it overflows or fails the symplectic membership test")


# ---------------------------------------------------------------------------
# random test corpus


def random_generator_chain_matrix(rng: np.random.Generator, n: int) -> SymplecticMatrix:
    """Product of 2 to 4 bounded elementary matrices; the standing random test corpus.

    Parameters are kept small (|C| <= 0.9, rescale factors in [2/3, 3/2], at
    most two rescales) so the corresponding metaplectic chains stay within the
    sampling guards of the desk-scale grids.
    """
    M = np.eye(2 * n)
    n_rescale = 0
    for _ in range(int(rng.integers(2, 5))):
        kind = rng.choice(["J", "chirp", "rescale"])
        if kind == "rescale" and n_rescale >= 2:
            kind = "J"
        if kind == "J":
            M = M @ standard_J(n)
        elif kind == "chirp":
            C = rng.uniform(-0.9, 0.9, size=(n, n))
            C = (C + C.T) / 2.0 * (0.9 / max(1.0, np.max(np.abs(C))))
            M = M @ V_C(C)
        else:
            n_rescale += 1
            diag = rng.uniform(2.0 / 3.0, 1.5, size=n)
            L = np.diag(diag)
            if n > 1:
                L[0, 1] = rng.uniform(-0.4, 0.4)
            M = M @ D_L(L)
    return SymplecticMatrix(M, 1e-9)
