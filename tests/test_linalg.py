import numpy as np
import pytest
from numpy.testing import assert_allclose

from uichan import linalg
from uichan.errors import DimensionMismatchError, DomainError


def dyadic_complex(rng, d):
    """Entries k/16 with small integer k: products of three are exact in doubles."""
    re = rng.integers(-8, 9, size=(d, d)) / 16.0
    im = rng.integers(-8, 9, size=(d, d)) / 16.0
    return re + 1j * im


class TestKron:
    def test_identity_case(self):
        assert np.array_equal(linalg.kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_matrix_unit_placement(self):
        # E_11 x E_22 (1-based labels) has its single 1 at row 1, col 1 (0-based)
        e0, e1 = np.eye(2)
        K = linalg.kron(np.outer(e0, e0), np.outer(e1, e1))
        expected = np.zeros((4, 4))
        expected[1, 1] = 1.0
        assert np.array_equal(K, expected)

    def test_against_entrywise_definition(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        B = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        K = linalg.kron(A, B)
        # oracle: entry loop straight from the definition (scalar products can
        # differ from the vectorized path by an ulp, hence the tight tolerance)
        for i in range(3):
            for j in range(3):
                for k in range(2):
                    for l in range(2):
                        assert abs(K[i * 2 + k, j * 2 + l] - A[i, j] * B[k, l]) < 1e-15

    def test_associative_exact(self):
        rng = np.random.default_rng(5)
        A, B, C = (dyadic_complex(rng, d) for d in (2, 3, 2))
        left = linalg.kron(linalg.kron(A, B), C)
        right = linalg.kron(A, linalg.kron(B, C))
        assert np.array_equal(left, right)

    def test_mixed_product(self):
        rng = np.random.default_rng(8)
        for dA, dB in [(2, 2), (2, 3), (3, 2)]:
            A, C = (rng.standard_normal((dA, dA)) + 1j * rng.standard_normal((dA, dA)) for _ in range(2))
            B, D = (rng.standard_normal((dB, dB)) + 1j * rng.standard_normal((dB, dB)) for _ in range(2))
            assert_allclose(linalg.kron(A, B) @ linalg.kron(C, D),
                            linalg.kron(A @ C, B @ D), atol=1e-12)


class TestPartialTrace:
    def test_product_state(self):
        rng = linalg.rng_from_seed(2)
        rho = linalg.wishart_density(rng, 2)
        sigma = linalg.wishart_density(rng, 3)
        assert_allclose(linalg.partial_trace(linalg.kron(rho, sigma), (2, 3), [0]), rho, atol=1e-12)

    def test_keep_all(self):
        rng = linalg.rng_from_seed(4)
        M = linalg.wishart_density(rng, 6)
        assert_allclose(linalg.partial_trace(M, (2, 3), [0, 1]), M, atol=0)

    def test_maximally_entangled(self):
        psi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        rho = np.outer(psi, psi.conj())
        # oracle: direct 4x4 index computation of the reduced matrix
        expected = np.zeros((2, 2), dtype=complex)
        for a in range(2):
            for c in range(2):
                expected[a, c] = sum(rho[a * 2 + b, c * 2 + b] for b in range(2))
        assert_allclose(expected, np.eye(2) / 2, atol=1e-15)
        assert_allclose(linalg.partial_trace(rho, (2, 2), [0]), expected, atol=1e-15)

    def test_trace_preserved(self):
        rng = np.random.default_rng(9)
        M = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        for keep in ([0], [1], [2], [0, 2]):
            out = linalg.partial_trace(M, (2, 3, 2), keep)
            assert abs(np.trace(out) - np.trace(M)) < 1e-12

    def test_inconsistent_dims(self):
        with pytest.raises(DimensionMismatchError):
            linalg.partial_trace(np.eye(6), (2, 2), [0])


class TestPermuteRegisters:
    def test_identity(self):
        rng = np.random.default_rng(1)
        M = rng.standard_normal((6, 6))
        assert np.array_equal(linalg.permute_registers(M, (2, 3), (0, 1)), M)

    def test_swap_product(self):
        rng = linalg.rng_from_seed(7)
        rho = linalg.wishart_density(rng, 2)
        sigma = linalg.wishart_density(rng, 3)
        out = linalg.permute_registers(linalg.kron(rho, sigma), (2, 3), (1, 0))
        assert_allclose(out, linalg.kron(sigma, rho), atol=0)

    def test_three_registers_vs_relabel_loop(self):
        dims = (2, 3, 2)
        perm = (2, 0, 1)
        rng = np.random.default_rng(12)
        D = int(np.prod(dims))
        M = rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D))
        out = linalg.permute_registers(M, dims, perm)
        # oracle: relabel composite indices entry by entry
        strides_in = (6, 2, 1)
        new_dims = tuple(dims[p] for p in perm)
        for i0 in range(new_dims[0]):
            for i1 in range(new_dims[1]):
                for i2 in range(new_dims[2]):
                    for j0 in range(new_dims[0]):
                        for j1 in range(new_dims[1]):
                            for j2 in range(new_dims[2]):
                                old_i = [0, 0, 0]
                                old_j = [0, 0, 0]
                                for pos, val_i, val_j in ((0, i0, j0), (1, i1, j1), (2, i2, j2)):
                                    old_i[perm[pos]] = val_i
                                    old_j[perm[pos]] = val_j
                                r_new = (i0 * new_dims[1] + i1) * new_dims[2] + i2
                                c_new = (j0 * new_dims[1] + j1) * new_dims[2] + j2
                                r_old = sum(s * v for s, v in zip(strides_in, old_i))
                                c_old = sum(s * v for s, v in zip(strides_in, old_j))
                                assert out[r_new, c_new] == M[r_old, c_old]

    def test_involutive_and_composition(self):
        rng = np.random.default_rng(13)
        M = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        swapped = linalg.permute_registers(M, (3, 4), (1, 0))
        assert np.array_equal(linalg.permute_registers(swapped, (4, 3), (1, 0)), M)
        # composition: applying p then q equals applying the composite
        dims = (2, 2, 3)
        p, q = (1, 2, 0), (2, 0, 1)
        step = linalg.permute_registers(linalg.permute_registers(M, dims, p),
                                        tuple(dims[i] for i in p), q)
        composite = tuple(p[q[i]] for i in range(3))
        assert np.array_equal(step, linalg.permute_registers(M, dims, composite))

    def test_spectrum_preserved(self):
        rng = np.random.default_rng(14)
        H = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        H = H + H.conj().T
        out = linalg.permute_registers(H, (2, 3, 2), (2, 1, 0))
        assert_allclose(np.linalg.eigvalsh(out), np.linalg.eigvalsh(H), atol=1e-9)

    def test_non_bijective(self):
        with pytest.raises(DimensionMismatchError):
            linalg.permute_registers(np.eye(4), (2, 2), (0, 0))


class TestHermEig:
    def test_diagonal(self):
        w, _ = linalg.herm_eig(np.diag([3.0, 1.0, 2.0]))
        assert_allclose(w, [1.0, 2.0, 3.0], atol=1e-14)

    def test_pauli_x(self):
        w, _ = linalg.herm_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert_allclose(w, [-1.0, 1.0], atol=1e-14)

    def test_random_reconstruction(self):
        rng = np.random.default_rng(21)
        H = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        H = (H + H.conj().T) / 2
        w, Q = linalg.herm_eig(H)
        assert np.all(np.diff(w) >= 0)
        assert np.linalg.norm(H @ Q - Q @ np.diag(w)) <= 1e-9 * 6 * np.linalg.norm(H)
        assert linalg.unitarity_defect(Q) <= 1e-9

    def test_rejects_non_hermitian(self):
        with pytest.raises(DomainError):
            linalg.herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestHaarUnitary:
    def test_d1_unit_modulus(self):
        u = linalg.haar_unitary(1, seed=3)
        assert u.shape == (1, 1)
        assert abs(abs(u[0, 0]) - 1.0) < 1e-12

    def test_deterministic(self):
        assert np.array_equal(linalg.haar_unitary(4, seed=42), linalg.haar_unitary(4, seed=42))

    def test_unitary(self):
        for d in (2, 3, 5):
            assert linalg.unitarity_defect(linalg.haar_unitary(d, seed=d)) <= linalg.tol(d)

    def test_haar_first_entry_moment(self):
        # Monte-Carlo oracle: E|u_00|^2 = 1/d for Haar measure
        rng = linalg.rng_from_seed(123)
        acc = 0.0
        for _ in range(10_000):
            acc += abs(linalg.haar_unitary_from(rng, 2)[0, 0]) ** 2
        assert abs(acc / 10_000 - 0.5) < 0.02


class TestPredicates:
    def test_swap_matrix(self):
        rng = linalg.rng_from_seed(11)
        a = linalg.wishart_density(rng, 2)
        b = linalg.wishart_density(rng, 3)
        S = linalg.swap_matrix(2, 3)
        assert_allclose(S @ linalg.kron(a, b) @ S.conj().T, linalg.kron(b, a), atol=1e-14)
