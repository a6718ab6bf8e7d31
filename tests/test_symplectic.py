"""Symplectic algebra: membership, factorizations, covariant structure, flows."""

import numpy as np
import pytest

from metaplab.symplectic import (
    A_FT2,
    BlockDecomposition,
    CovariantForm,
    D_L,
    QuadraticHamiltonian,
    SymplecticError,
    SymplecticMatrix,
    V_C,
    cohen_B,
    covariant_from_blocks,
    covariant_from_cohen_B,
    evolve_cohen_B,
    free_factorize,
    hamiltonian_flow,
    is_covariant,
    is_symplectic,
    is_totally_wigner_decomposable,
    random_generator_chain_matrix,
    shift_invertibility,
    standard_J,
    stft_matrix,
    sympl,
    tau_matrix,
    wigner_decomposition_L,
)


def test_is_symplectic_basics():
    J = standard_J(1)
    assert is_symplectic(J, 1e-14)
    assert is_symplectic(np.eye(2), 1e-14)
    assert not is_symplectic(np.diag([2.0, 1.0]), 1e-10)
    with pytest.raises(SymplecticError):
        is_symplectic(np.eye(3))


def test_every_accepted_matrix_can_be_inverted():
    # near-tolerance D_L V_C J products: A^T J A can pass while A J A^T, the
    # residual of A^{-1} = -J A^T J, does not; membership checks both
    rng = np.random.default_rng(7)
    J = standard_J(2)
    accepted = 0
    for _ in range(4000):
        L = rng.uniform(-2.0, 2.0, (2, 2)) + 2.0 * np.eye(2)
        C = rng.uniform(-2.0, 2.0, (2, 2))
        M = D_L(L) @ V_C((C + C.T) / 2.0) @ J
        M = M + 10.0 ** rng.uniform(-13, -9) * rng.standard_normal((4, 4))
        try:
            A = sympl(M)
        except SymplecticError:
            continue
        accepted += 1
        assert np.array_equal(A.inv().inv().mat, A.mat)
    assert accepted >= 1000, accepted


def test_elementary_matrices_are_symplectic():
    for M in (V_C(0.7), D_L(2.0), A_FT2(1), standard_J(2)):
        assert is_symplectic(M, 1e-12)


def test_tau_and_stft_matrices():
    for tau in (0.0, 0.25, 0.5, 0.75, 1.0):
        A = tau_matrix(tau)
        assert is_totally_wigner_decomposable(A)
        L = wigner_decomposition_L(A)
        want = np.array([[1.0, tau], [1.0, -(1.0 - tau)]])
        assert np.max(np.abs(L - want)) <= 1e-12
    A = stft_matrix()
    assert is_totally_wigner_decomposable(A)
    # reassembly through A_FT2 @ D_L pins L; for the STFT it is [[0,1],[-1,1]]
    want = np.array([[0.0, 1.0], [-1.0, 1.0]])
    assert np.max(np.abs(wigner_decomposition_L(A) - want)) <= 1e-12


def test_block_decomposition_roundtrip():
    A = tau_matrix(0.3)
    b = BlockDecomposition.of(A)
    assert np.max(np.abs(b.assemble() - A.mat)) == 0.0


def test_covariant_from_blocks_matches_tau():
    for tau in (0.0, 0.25, 0.5, 1.0):
        got = covariant_from_blocks((1 - tau) * np.eye(1), np.zeros((1, 1)), np.zeros((1, 1)))
        assert np.max(np.abs(got.mat - tau_matrix(tau).mat)) <= 1e-12
        assert is_covariant(got)


def test_covariant_random_blocks_symplectic(rng):
    for _ in range(10):
        a11 = rng.uniform(-1.5, 1.5, size=(1, 1))
        a13 = rng.uniform(-1.0, 1.0, size=(1, 1))
        a21 = rng.uniform(-1.0, 1.0, size=(1, 1))
        A = covariant_from_blocks(a11, a13, a21)
        assert is_symplectic(A.mat, 1e-12)
        form = CovariantForm.from_matrix(A)
        assert np.allclose(form.a11, a11) and np.allclose(form.a13, a13)


def test_covariant_asymmetry_rejected():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(SymplecticError):
        covariant_from_blocks(np.eye(2), bad, np.zeros((2, 2)))


def test_cohen_B_tau_family():
    for tau in (0.0, 0.25, 0.5, 0.75, 1.0):
        B = cohen_B(CovariantForm.tau(tau))
        want = np.array([[0.0, tau - 0.5], [tau - 0.5, 0.0]])
        assert np.max(np.abs(B - want)) <= 1e-12
    # Wigner case is the zero matrix
    assert np.max(np.abs(cohen_B(CovariantForm.tau(0.5)))) == 0.0


def test_cohen_B_roundtrip(rng):
    for _ in range(5):
        form = CovariantForm(
            rng.uniform(-1, 1, (1, 1)), rng.uniform(-1, 1, (1, 1)), rng.uniform(-1, 1, (1, 1))
        )
        back = covariant_from_cohen_B(cohen_B(form))
        assert np.allclose(back.a11, form.a11)
        assert np.allclose(back.a13, form.a13)
        assert np.allclose(back.a21, form.a21)


def test_evolve_cohen_B_free_particle():
    # tau-Wigner transported by the free-particle shear; the evolved term
    # sits in the upper-left (convolution) block, which is what makes the
    # transported-representation identity hold (checked in the propagation
    # tests at machine precision)
    t, tau = 0.7, 0.25
    chi = hamiltonian_flow(QuadraticHamiltonian.free_particle(), t)
    B_t = evolve_cohen_B(cohen_B(CovariantForm.tau(tau)), chi)
    c = tau - 0.5
    want = np.array([[4.0 * np.pi * t * (1.0 - 2.0 * tau), c], [c, 0.0]])
    assert np.max(np.abs(B_t - want)) <= 1e-10
    # zero matrix is fixed by every flow
    assert np.max(np.abs(evolve_cohen_B(np.zeros((2, 2)), chi))) == 0.0


def test_evolve_cohen_B_matches_direct_product(rng):
    for _ in range(10):
        form = CovariantForm(
            rng.uniform(-1, 1, (1, 1)), rng.uniform(-1, 1, (1, 1)), rng.uniform(-1, 1, (1, 1))
        )
        B = cohen_B(form)
        chi = random_generator_chain_matrix(rng, 1)
        got = evolve_cohen_B(B, chi)
        inv = np.linalg.inv(chi.mat)
        want = inv @ B @ inv.T
        assert np.max(np.abs(got - want)) <= 1e-12
        # cocycle property (left factor acts first in this order)
        chi2 = random_generator_chain_matrix(rng, 1)
        lhs = evolve_cohen_B(B, chi @ chi2)
        rhs = evolve_cohen_B(evolve_cohen_B(B, chi), chi2)
        assert np.max(np.abs(lhs - rhs)) <= 1e-10


def test_free_factorize_corpus(rng):
    for n in (1, 2):
        for _ in range(50):
            A = random_generator_chain_matrix(rng, n)
            A1, A2 = free_factorize(A)
            assert np.max(np.abs(A1.mat @ A2.mat - A.mat)) <= 1e-10
            assert abs(np.linalg.det(A1.blocks()[1])) > 0
            assert abs(np.linalg.det(A2.blocks()[1])) > 0


def test_free_factorize_tau_half():
    A = tau_matrix(0.5)
    A1, A2 = free_factorize(A)
    assert np.max(np.abs(A1.mat @ A2.mat - A.mat)) <= 1e-12
    assert A1.is_free() and A2.is_free()


def test_free_factorize_of_J_and_chirp():
    for M in (SymplecticMatrix(standard_J(1)), SymplecticMatrix(V_C(0.5))):
        A1, A2 = free_factorize(M)
        assert np.max(np.abs(A1.mat @ A2.mat - M.mat)) <= 1e-12
        assert A1.is_free() and A2.is_free()


def test_hamiltonian_flow_free_particle():
    h = QuadraticHamiltonian.free_particle()
    chi = hamiltonian_flow(h, 1.0)
    want = np.array([[1.0, 4.0 * np.pi], [0.0, 1.0]])
    assert np.max(np.abs(chi.mat - want)) <= 1e-10
    assert np.max(np.abs(hamiltonian_flow(h, 0.0).mat - np.eye(2))) == 0.0


def test_hamiltonian_flow_harmonic_rotation():
    h = QuadraticHamiltonian.harmonic()
    for t in (0.3, np.pi / 2):
        chi = hamiltonian_flow(h, t).mat
        want = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
        assert np.max(np.abs(chi - want)) <= 1e-10


def test_hamiltonian_flow_group_law(rng):
    for _ in range(10):
        A = rng.uniform(-1, 1, (1, 1))
        C = rng.uniform(-1, 1, (1, 1))
        B = rng.uniform(-1, 1, (1, 1))
        h = QuadraticHamiltonian(A, B, C)
        t1, t2 = rng.uniform(-2, 2, size=2)
        lhs = hamiltonian_flow(h, t1).mat @ hamiltonian_flow(h, t2).mat
        rhs = hamiltonian_flow(h, t1 + t2).mat
        assert np.max(np.abs(lhs - rhs)) <= 1e-12
        assert is_symplectic(rhs, 1e-10)


def test_hamiltonian_flow_matches_scipy_expm():
    # scipy.linalg is the oracle here only; the library's exponential is its own
    from scipy.linalg import expm

    rng = np.random.default_rng(23)
    for d in (1, 2):
        for _ in range(20):
            A, B, C = rng.normal(size=(3, d, d))
            h = QuadraticHamiltonian(A + A.T, B, C + C.T)
            for t in (0.01, 0.05, 0.3, 1.0, 3.0):
                want = expm((t / (2.0 * np.pi)) * h.generator())
                got = hamiltonian_flow(h, t).mat
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), (d, t)
        assert np.array_equal(hamiltonian_flow(h, 0.0).mat, np.eye(2 * d))


def test_quadratic_hamiltonian_validation():
    with pytest.raises(SymplecticError):
        QuadraticHamiltonian(np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros((2, 2)), np.zeros((2, 2)))


def test_shift_invertibility_examples():
    E = shift_invertibility(stft_matrix())
    assert E is not None and np.max(np.abs(E - np.eye(2))) <= 1e-12
    assert shift_invertibility(tau_matrix(0.0)) is None  # A23 = 0
    E = shift_invertibility(tau_matrix(0.5))
    assert E is not None and np.max(np.abs(E - 0.5 * np.eye(2))) <= 1e-12


def test_symplectic_inverse_exact(rng):
    for _ in range(5):
        A = random_generator_chain_matrix(rng, 2)
        assert np.max(np.abs(A.inv().mat @ A.mat - np.eye(4))) <= 1e-10
