"""Apply metaplectic operators to sampled data through generator chains.

A symplectic matrix is factored into elementary generators (Fourier, chirp
multiplication, rescaling, partial Fourier, and Fourier-conjugated chirps),
each of which has an exact realization on the periodized grid.  The direct
quadrature of the free-matrix integral formula is kept as an independent
oracle.  Global phases of the double cover are not tracked: every identity
involving these operators holds up to one unimodular constant.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .signals import (
    Axis,
    GridError,
    GridSignal,
    PhaseSpaceField,
    _GUARD_SLACK,
    _axes_of,
    _check_bytes,
    _dft,
    _rescale_values,
    centered_dft,
    chirp_guard,
    chirp_phase,
    chirp_stress,
)
from .symplectic import (
    A_FT2,
    SymplecticError,
    SymplecticMatrix,
    V_C,
    V_C_upper,
    D_L,
    is_covariant,
    is_totally_wigner_decomposable,
    CovariantForm,
    free_factorize,
    standard_J,
    sympl,
    wigner_decomposition_L,
)

__all__ = [
    "Generator",
    "GeneratorChain",
    "generator_decompose",
    "apply",
    "apply_generator",
    "apply_free_quadrature",
    "conv_chirp",
    "dense_matrix",
    "DecompositionError",
]

_FREE_EPS = 1e-9
_SUPPORT_MARGIN = 0.5  # nominal occupancy per axis that _support_stress starts from
_MAX_TRIES = 200  # draws random_applicable_matrix makes before it gives up


class DecompositionError(SymplecticError):
    pass


@dataclass(frozen=True)
class Generator:
    """One chain element; `param` is the d x d parameter matrix where applicable.

    tags: "fourier" (mu(J)), "chirp" (mu(V_C)), "rescale" (mu(D_L)),
    "ft2" (partial Fourier, 4d case), "convchirp" (mu(V_C^{-T}), realized as
    the Fourier multiplier by the chirp).
    """

    tag: str
    param: np.ndarray | None = None

    def matrix(self, n: int) -> np.ndarray:
        if self.tag == "fourier":
            return standard_J(n)
        if self.tag == "chirp":
            return V_C(self.param)
        if self.tag == "rescale":
            return D_L(self.param)
        if self.tag == "convchirp":
            return V_C_upper(self.param)
        if self.tag == "ft2":
            if n % 2 != 0:
                raise DecompositionError("ft2 needs a 4d x 4d matrix")
            return A_FT2(n // 2)
        raise DecompositionError(f"unknown generator tag {self.tag!r}")


@dataclass(frozen=True)
class GeneratorChain:
    """Generators in matrix-product order: element 0 is applied last."""

    generators: tuple[Generator, ...]
    n: int

    def matrix(self) -> np.ndarray:
        M = np.eye(2 * self.n)
        for g in self.generators:
            M = M @ g.matrix(self.n)
        return M

    def __len__(self) -> int:
        return len(self.generators)


def _is_zero(M) -> bool:
    return np.max(np.abs(M)) <= _FREE_EPS


def _drop_trivial(gens) -> tuple[Generator, ...]:
    out = []
    for g in gens:
        if g.tag in ("chirp", "convchirp") and _is_zero(g.param):
            continue
        if g.tag == "rescale" and _is_zero(g.param - np.eye(g.param.shape[0])):
            continue
        out.append(g)
    return tuple(out)


def _sym(M: np.ndarray) -> np.ndarray:
    M = np.atleast_2d(M)
    if np.max(np.abs(M - M.T)) > 1e-7 * max(1.0, np.max(np.abs(M))):
        raise DecompositionError("encountered a non-symmetric chirp parameter")
    return (M + M.T) / 2.0


def _invert_generator(g: Generator, n: int) -> tuple[Generator, ...]:
    """Elementary inverse of one generator as a short generator product."""
    if g.tag == "fourier":
        # J^{-1} = J D_{-I}; as operators F^{-1} = F o reflection
        return (Generator("fourier"), Generator("rescale", -np.eye(n)))
    if g.tag == "chirp":
        return (Generator("chirp", -g.param),)
    if g.tag == "convchirp":
        return (Generator("convchirp", -g.param),)
    if g.tag == "rescale":
        return (Generator("rescale", np.linalg.inv(np.atleast_2d(g.param))),)
    if g.tag == "ft2":
        # F_2^{-1} = F_2 o (reflection of the second variable)
        d = n // 2
        refl = np.eye(n)
        refl[d:, d:] *= -1.0
        return (Generator("ft2"), Generator("rescale", refl))
    raise DecompositionError(f"cannot invert generator tag {g.tag!r}")


# ---------------------------------------------------------------------------
# the factorization table: each entry returns the generators of A in
# matrix-product order, or raises when its form does not apply to A


def _need(ok: bool) -> None:
    if not ok:
        raise DecompositionError("factorization does not apply")


def _identity(A: SymplecticMatrix) -> tuple[Generator, ...]:
    _need(_is_zero(A.mat - np.eye(2 * A.n)))
    return ()


def _wigner(A: SymplecticMatrix) -> tuple[Generator, ...]:
    _need(A.n % 2 == 0 and is_totally_wigner_decomposable(A, 1e-9))
    return (Generator("ft2"), Generator("rescale", wigner_decomposition_L(A)))


def _covariant(A: SymplecticMatrix) -> tuple[Generator, ...]:
    # A = V_C^T A_FT2 D_L and V_C^T = V_{-C}^{-T}
    _need(A.n % 2 == 0 and is_covariant(A, 1e-9))
    form = CovariantForm.from_matrix(A)
    Z, I = np.zeros((form.d, form.d)), np.eye(form.d)
    Ccov = np.block([[form.a13, Z], [Z, -form.a21]])
    Lcov = np.block([[I, I - form.a11], [I, -form.a11]])
    return (Generator("convchirp", -Ccov), Generator("ft2"), Generator("rescale", Lcov))


def _lower(A: SymplecticMatrix) -> tuple[Generator, ...]:
    """Chirp times rescale for a zero B block."""
    Ab, Bb, Cb, _ = A.blocks()
    _need(_is_zero(Bb))
    Ainv = np.linalg.inv(Ab)
    return (Generator("chirp", _sym(Cb @ Ainv)), Generator("rescale", Ainv))


def _upper(A: SymplecticMatrix) -> tuple[Generator, ...]:
    """Rescale times Fourier-conjugated chirp for a zero C block."""
    Ab, Bb, Cb, _ = A.blocks()
    _need(_is_zero(Cb))
    Ainv = np.linalg.inv(Ab)
    return (Generator("rescale", Ainv), Generator("convchirp", _sym(-Ainv @ Bb)))


def _free(A: SymplecticMatrix) -> tuple[Generator, ...]:
    """Chirp * Rescale * Fourier * Chirp for a free matrix (invertible B block)."""
    _need(A.is_free())
    Ab, Bb, _, Db = A.blocks()
    Binv = np.linalg.inv(Bb)
    return (Generator("chirp", _sym(Db @ Binv)), Generator("rescale", Binv),
            Generator("fourier"), Generator("chirp", _sym(Binv @ Ab)))


def _sandwich(A: SymplecticMatrix, s: float) -> tuple[Generator, ...]:
    """Chirp sandwich V_P V_Q^{-T} V_R = s A, with s = -1 a reflection pulled out.

    V_P V_Q^{-T} V_R has blocks A = I - QR, B = -Q and D = I - PQ, so
    Q = -sB, R = Q^{-1}(I - sA) and P = (I - sD) Q^{-1}.  Its parameters stay
    small near the identity (s = 1) and the reflection (s = -1), exactly
    where the free chain's chirps blow up (Koc, Ozaktas, Candan & Kutay 2008).
    """
    Ab, Bb, _, Db = A.blocks()
    _need(not _is_zero(Bb))
    I = np.eye(A.n)
    Q = _sym(-s * Bb)
    Qinv = np.linalg.inv(Q)
    P, R = _sym((I - s * Db) @ Qinv), _sym(Qinv @ (I - s * Ab))
    gens = (Generator("chirp", P), Generator("convchirp", Q), Generator("chirp", R))
    return gens if s > 0 else (Generator("rescale", -I),) + gens


def _two_free(A: SymplecticMatrix) -> tuple[Generator, ...]:
    """Generic fallback: two free factors, the right one V_C^T J = [[-C, I], [-I, 0]]."""
    A1, A2 = free_factorize(A)
    minus_C = _sym(A2.mat[: A.n, : A.n])
    return _free(A1) + (Generator("convchirp", minus_C), Generator("fourier"))


# the free chain goes before the sandwiches: it keeps J a single Fourier step
_FACTORIZATIONS = (
    _identity, _wigner, _covariant, _lower, _upper, _free,
    lambda A: _sandwich(A, 1.0), lambda A: _sandwich(A, -1.0), _two_free,
)


def _factorizations(A: SymplecticMatrix):
    """Generator tuples of the table entries that apply to A, in table order."""
    for entry in _FACTORIZATIONS:
        try:
            gens = entry(A)
        except (SymplecticError, np.linalg.LinAlgError):
            continue
        yield gens


def _inverted_factorizations(A: SymplecticMatrix):
    """Factorizations of A^{-1}, each inverted generator by generator."""
    for gens in _factorizations(A.inv()):
        yield tuple(h for g in reversed(gens) for h in _invert_generator(g, A.n))


def _candidate_chains(A: SymplecticMatrix):
    """Chains of A's table, then of the inverted table of A^{-1}."""
    for gens in itertools.chain(_factorizations(A), _inverted_factorizations(A)):
        yield GeneratorChain(_drop_trivial(gens), A.n)


def _chain_stress(chain: GeneratorChain, axes: tuple[Axis, ...]) -> float:
    """Worst `chirp_stress` of the chain's chirps (convchirps are exact multipliers)."""
    return max((float(np.max(chirp_stress(axes, g.param)))
                for g in chain.generators if g.tag == "chirp"), default=0.0)


def _support_stress(chain: GeneratorChain) -> float:
    """Track nominal support/band growth through the chain (window fractions).

    Chirps disperse the band, conv-chirps disperse the support, stretches
    rescale it; content pushed past the window is clipped or wrapped.  Used
    to reject test-corpus matrices whose chains degrade concentrated data,
    starting from a nominal occupancy of `_SUPPORT_MARGIN` per axis.
    """
    n_ax = 1 if chain.n == 1 else 2
    supp = np.full(n_ax, _SUPPORT_MARGIN)
    band = np.full(n_ax, _SUPPORT_MARGIN)
    worst = _SUPPORT_MARGIN
    for g in reversed(chain.generators):
        if g.tag == "fourier":
            supp, band = band.copy(), supp.copy()
        elif g.tag == "ft2":
            supp[-1], band[-1] = band[-1], supp[-1]
        elif g.tag == "chirp":
            Mp = np.atleast_2d(g.param)
            band = band + np.abs(Mp) @ supp
        elif g.tag == "convchirp":
            Mp = np.atleast_2d(g.param)
            supp = supp + np.abs(Mp) @ band
        elif g.tag == "rescale":
            Mp = np.abs(np.atleast_2d(g.param))
            supp = Mp @ supp
            band = np.abs(np.linalg.inv(np.atleast_2d(g.param)).T) @ band
        worst = max(worst, float(np.max(supp)), float(np.max(band)))
    return worst


def generator_decompose(A, axes: tuple[Axis, ...] | None = None) -> GeneratorChain:
    """Generator chain whose matrix product equals A.

    Candidates come from one table of closed-form factorizations, in this
    preference order: identity, totally Wigner-decomposable, covariant, lower
    triangular, upper triangular, free, chirp sandwich, reflected chirp
    sandwich, two free factors; then the same table for A^{-1}, each chain
    inverted.  A candidate that misses A by more than 1e-8 is skipped.
    Without `axes` the first exact chain wins.  With `axes` the first exact
    chain whose chirps stay below that grid's aliasing guard wins, else the
    exact chain of least sampling stress; `axes` must hold one axis per
    variable of A (`GridError`).
    """
    A = sympl(A)
    if axes is not None and len(axes) != A.n:
        raise GridError(f"matrix acts on {A.n} variables but data has {len(axes)} axes")
    best = None
    best_stress = np.inf
    for chain in _candidate_chains(A):
        err = np.max(np.abs(chain.matrix() - A.mat))
        if err > 1e-8:
            continue
        if axes is None:
            return chain
        stress = _chain_stress(chain, axes)
        if stress <= _GUARD_SLACK:
            return chain
        if stress < best_stress:
            best, best_stress = chain, stress
    if best is None:
        raise DecompositionError("no generator chain reproduces the matrix")
    return best


# ---------------------------------------------------------------------------
# application


def _realize(gen: Generator, values: np.ndarray, axes: tuple[Axis, ...]) -> np.ndarray:
    """One chain element on samples whose leading axes are the grid `axes`.

    Trailing axes are a batch, so pushing the identity through a chain gives
    the chain's matrix column by column.
    """
    shape = values.shape[:len(axes)] + (1,) * (values.ndim - len(axes))
    if gen.tag == "fourier":
        return _dft(values, axes)
    if gen.tag == "chirp":
        chirp_guard(axes, gen.param)
        return values * chirp_phase(axes, gen.param).reshape(shape)
    if gen.tag == "rescale":
        return _rescale_values(values, axes, gen.param)
    if gen.tag == "convchirp":
        hat = _dft(values, axes) * chirp_phase(axes, gen.param).reshape(shape)
        return _dft(hat, axes, inverse=True)
    if gen.tag == "ft2":
        return centered_dft(values, 1, axes[1].step, inverse=False)
    raise DecompositionError(f"unknown generator tag {gen.tag!r}")


def conv_chirp(C, obj, path: str = "multiplier"):
    """mu(V_C^{-T}): convolution by the transformed chirp.

    "multiplier": exact Fourier-multiplier form F^{-1}(Phi_C . F f).  As a
    diagonal unitary in the transform domain this is exact for every C, so
    no sampling guard applies (the chirp shift identity holds pointwise for
    the sampled phases); large-|C| free flows stay single multipliers.
    "direct": |det C|^{-1/2} (Phi_{-C^{-1}} * f) by circular convolution,
    requires invertible C; agrees with the multiplier up to a global phase.
    """
    axes = _axes_of(obj)
    C = np.atleast_2d(np.asarray(C, dtype=float))
    if path == "multiplier":
        return apply_generator(Generator("convchirp", C), obj)
    if path != "direct":
        raise ValueError(f"unknown conv_chirp path {path!r}")
    det = np.linalg.det(C)
    if abs(det) < 1e-12:
        raise SymplecticError("direct convolution path needs invertible C")
    kernel = chirp_phase(axes, -np.linalg.inv(C))
    chirp_guard(axes, -np.linalg.inv(C))
    _require_self_dual(axes)
    prod = _dft(kernel, axes) * _dft(obj.values, axes)
    return obj.with_values(_dft(prod, axes, inverse=True) / np.sqrt(abs(det)))


def _require_self_dual(axes: tuple[Axis, ...]) -> None:
    if not all(ax.is_self_dual for ax in axes):
        raise GridError("metaplectic application needs self-dual axes")


def _run_chain(gens: tuple[Generator, ...], values: np.ndarray, axes: tuple[Axis, ...],
               on_field: bool) -> np.ndarray:
    """The one route from generators to samples: the product applied right to left.

    The grid guards are checked once, before any step runs: every step needs
    self-dual axes, and a partial Fourier step needs a phase-space field.
    Trailing axes of `values` past the grid `axes` are a batch.
    """
    _require_self_dual(axes)
    if not on_field and any(gen.tag == "ft2" for gen in gens):
        raise GridError("ft2 acts on phase-space fields")
    for gen in reversed(gens):
        values = _realize(gen, values, axes)
    return values


def apply_generator(gen: Generator, obj):
    """Realize one chain element on a signal or field."""
    return obj.with_values(
        _run_chain((gen,), obj.values, _axes_of(obj), isinstance(obj, PhaseSpaceField)))


def apply(A, obj):
    """mu(A) applied to a signal (2d x 2d A) or field (4d x 4d A).

    Defined up to one global unimodular constant; norm is preserved within
    the interpolation tolerance of the rescaling steps.
    """
    axes = _axes_of(obj)
    gens = generator_decompose(A, axes).generators
    return obj.with_values(
        _run_chain(gens, obj.values, axes, isinstance(obj, PhaseSpaceField)))


def apply_free_quadrature(A, obj):
    """Direct quadrature of the free-matrix integral; oracle for `apply`.

    mu(A)F(x) = |det B|^{-1/2} e^{i pi D B^{-1} x.x}
                 Integral F(y) e^{-2 pi i B^{-1} x.y} e^{i pi B^{-1} A y.y} dy,
    the phase convention that reduces to the plain transform at A = J.
    """
    A = sympl(A)
    axes = _axes_of(obj)
    if A.n != len(axes):
        raise GridError(f"matrix acts on {A.n} variables but data has {len(axes)} axes")
    _require_self_dual(axes)
    n = A.n
    M = A.mat
    Ab, Bb, Db = M[:n, :n], M[:n, n:], M[n:, n:]
    if not A.is_free():
        raise SymplecticError("free quadrature needs an invertible B block")
    Binv = np.linalg.inv(Bb)
    if isinstance(obj, GridSignal) and obj.grid.dim == 1:
        # the N x N kernel, its phase and their sum are live together
        _check_bytes(f"free quadrature at N = {axes[0].n}", 3 * 16 * axes[0].n ** 2)
        x = axes[0].points()
        weight = axes[0].step
        k = np.exp(
            -2j * np.pi * Binv[0, 0] * np.outer(x, x)
            + 1j * np.pi * (Binv @ Ab)[0, 0] * x[None, :] ** 2
        )
        out = weight / np.sqrt(abs(np.linalg.det(Bb))) * (k @ obj.values)
        out = out * np.exp(1j * np.pi * (Db @ Binv)[0, 0] * x ** 2)
        return obj.with_values(out)
    # two-axis data: one kernel block of `chunk` rows, its phase and the block before it
    m, chunk = axes[0].n * axes[1].n, 512
    _check_bytes(f"free quadrature at N = ({axes[0].n}, {axes[1].n})", 3 * 16 * min(chunk, m) * m)
    pts = np.stack(
        np.meshgrid(axes[0].points(), axes[1].points(), indexing="ij"), axis=-1
    ).reshape(-1, 2)
    weight = axes[0].step * axes[1].step
    DBi = Db @ Binv
    BiA = Binv @ Ab
    quad_in = np.einsum("ij,jk,ik->i", pts, BiA, pts)
    quad_out = np.einsum("ij,jk,ik->i", pts, DBi, pts)
    F = obj.values.reshape(-1)
    out = np.empty(m, dtype=np.complex128)
    cross = pts @ Binv.T  # row i: (B^{-1} x_i)^T
    for lo in range(0, m, chunk):
        hi = min(lo + chunk, m)
        E = np.exp(-2j * np.pi * (cross[lo:hi] @ pts.T) + 1j * np.pi * quad_in[None, :])
        out[lo:hi] = E @ F
    out *= weight / np.sqrt(abs(np.linalg.det(Bb))) * np.exp(1j * np.pi * quad_out)
    return obj.with_values(out.reshape(obj.values.shape))


def apply_quadrature(A, obj):
    """Oracle for arbitrary symplectic A: compose two free-matrix quadratures."""
    A = sympl(A)
    if A.is_free():
        return apply_free_quadrature(A, obj)
    A1, A2 = free_factorize(A)
    return apply_free_quadrature(A1, apply_free_quadrature(A2, obj))


def random_applicable_matrix(
    rng: np.random.Generator, n: int, axes: tuple[Axis, ...]
) -> SymplecticMatrix:
    """Random generator-chain matrix whose decomposition fits the grid guards.

    Compositions of individually benign factors can decompose into chains with
    chirp slopes past the Nyquist guard of a finite grid, so the corpus is
    rejection-sampled down to the matrices representable on `axes`.
    """
    from .symplectic import random_generator_chain_matrix

    for _ in range(_MAX_TRIES):
        A = random_generator_chain_matrix(rng, n)
        try:
            chain = generator_decompose(A, axes)
        except DecompositionError:
            continue
        if _chain_stress(chain, axes) <= _GUARD_SLACK and _support_stress(chain) <= 0.95:
            return A
    raise DecompositionError("could not sample a guard-safe symplectic matrix")


def dense_matrix(A, axis: Axis) -> np.ndarray:
    """Materialize mu(A) on 1-D signals as its N x N matrix (plain matvec)."""
    gens = generator_decompose(A, (axis,)).generators
    return _run_chain(gens, np.eye(axis.n, dtype=np.complex128), (axis,), on_field=False)
