import numpy as np
import pytest

from udesign.errors import InvalidInputError, ResourceLimitError
from udesign.linalg import (
    dag,
    haar_unitaries,
    haar_unitary,
    herm_basis,
    make_rng,
    max_entangled_ket,
    partial_trace,
    permutation_operator,
    subspace_projectors,
    swap_operator,
    vec,
)

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


def random_complex(d, rng):
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


class TestHermBasis:
    def test_d2_is_normalized_pauli_set(self):
        basis = herm_basis(2)
        expected = [np.eye(2), X, Y, Z]
        for b, e in zip(basis, expected):
            assert np.allclose(b, e / np.sqrt(2), atol=1e-15)

    def test_d3_gram_matrix_is_identity(self):
        basis = herm_basis(3)
        assert basis.shape == (9, 3, 3)
        flat = basis.reshape(9, -1)
        gram = flat.conj() @ flat.T
        assert np.abs(gram - np.eye(9)).max() <= 1e-12

    @pytest.mark.parametrize('d', [2, 3, 4, 5])
    def test_traceless_and_hermitian(self, d):
        basis = herm_basis(d)
        assert np.allclose(basis[0], np.eye(d) / np.sqrt(d))
        for k in range(1, d * d):
            assert abs(np.trace(basis[k])) <= 1e-12
            assert np.allclose(basis[k], dag(basis[k]))

    def test_rejects_d1(self):
        with pytest.raises(InvalidInputError):
            herm_basis(1)


class TestMaxEntangledKet:
    def test_identity(self):
        assert np.allclose(max_entangled_ket(np.eye(2)), np.array([1, 0, 0, 1]) / np.sqrt(2))

    def test_pauli_x(self):
        assert np.allclose(max_entangled_ket(X), np.array([0, 1, 1, 0]) / np.sqrt(2))

    def test_haar_random_has_unit_norm_and_mixed_marginal(self):
        rng = make_rng(11)
        for d in (2, 3):
            u = haar_unitary(d, rng)
            ket = max_entangled_ket(u)
            assert abs(np.vdot(ket, ket) - 1.0) <= 1e-9
            rho = np.outer(ket, ket.conj())
            assert np.linalg.norm(partial_trace(rho, (d, d), axis=0) - np.eye(d) / d) <= 1e-9
            assert np.linalg.norm(partial_trace(rho, (d, d), axis=1) - np.eye(d) / d) <= 1e-9

    def test_rejects_non_unitary(self):
        with pytest.raises(InvalidInputError):
            max_entangled_ket(np.ones((2, 2)))
        with pytest.raises(InvalidInputError):
            max_entangled_ket(np.ones((2, 3)))


class TestPermutationOperator:
    def test_swap_satisfies_trace_identity(self):
        rng = make_rng(3)
        for d in (2, 3):
            t = permutation_operator((2, 1), d)
            a, b = random_complex(d, rng), random_complex(d, rng)
            assert abs(np.trace(np.kron(a, b) @ t) - np.trace(a @ b)) <= 1e-10

    def test_identity_permutation(self):
        assert np.allclose(permutation_operator((1, 2, 3), 2), np.eye(8))

    def test_order_two_element_squares_to_identity(self):
        p = permutation_operator((3, 4, 1, 2), 2)
        assert np.allclose(p @ p, np.eye(16))

    def test_composition_matches_permutation_product(self):
        sigma, tau = (3, 1, 2), (2, 3, 1)
        composed = tuple(sigma[tau[i] - 1] for i in range(3))
        lhs = permutation_operator(sigma, 2) @ permutation_operator(tau, 2)
        assert np.allclose(lhs, permutation_operator(composed, 2))

    def test_relabels_operator_factors(self):
        rng = make_rng(4)
        a, b, c = (random_complex(2, rng) for _ in range(3))
        # P_312 (A3 ⊗ A1 ⊗ A2) P_312† = A1 ⊗ A2 ⊗ A3
        p = permutation_operator((3, 1, 2), 2)
        lhs = p @ np.kron(c, np.kron(a, b)) @ dag(p)
        assert np.allclose(lhs, np.kron(a, np.kron(b, c)))

    def test_dimension_guard(self):
        with pytest.raises(ResourceLimitError):
            permutation_operator(tuple(range(1, 8)), 4)

    def test_rejects_non_permutation(self):
        with pytest.raises(InvalidInputError):
            permutation_operator((1, 1), 2)


class TestHaarUnitary:
    def test_samples_are_unitary(self):
        rng = make_rng(0)
        for d in (2, 3, 5):
            u = haar_unitary(d, rng)
            assert np.linalg.norm(dag(u) @ u - np.eye(d)) <= 1e-10

    def test_trace_moments_match_haar_averages(self):
        # mean |tr U|^2 -> 1 and mean |tr U|^4 -> 2 for d = 2
        rng = make_rng(123)
        n = 10 ** 5
        traces = np.abs(np.trace(haar_unitaries(2, n, rng), axis1=1, axis2=2))
        for power, expected in ((2, 1.0), (4, 2.0)):
            vals = traces ** power
            err = vals.std(ddof=1) / np.sqrt(n)
            assert abs(vals.mean() - expected) <= 5 * err

    def test_left_invariance(self):
        # fixed V: VU is Haar again, so the moment statistics must agree
        rng = make_rng(7)
        n = 10 ** 4
        v = haar_unitary(2, rng)
        u = haar_unitaries(2, n, rng)
        plain = np.abs(np.trace(u, axis1=1, axis2=2)) ** 2
        rotated = np.abs(np.trace(v @ u, axis1=1, axis2=2)) ** 2
        pooled = np.sqrt(plain.var(ddof=1) / n + rotated.var(ddof=1) / n)
        assert abs(plain.mean() - rotated.mean()) <= 5 * pooled


class TestSubspaceProjectors:
    def test_ranks_d2(self):
        projs = subspace_projectors(2)
        assert np.linalg.matrix_rank(projs['pi0'], tol=1e-8) == 15
        assert np.linalg.matrix_rank(projs['pi_uc'], tol=1e-8) == 10
        assert np.linalg.matrix_rank(projs['pi_gc'], tol=1e-8) == 13

    def test_ranks_match_dimension_formulas_d3(self):
        projs = subspace_projectors(3)
        d2 = 9
        assert np.linalg.matrix_rank(projs['pi_uc'], tol=1e-8) == (d2 - 1) ** 2 + 1
        assert np.linalg.matrix_rank(projs['pi_gc'], tol=1e-8) == d2 * (d2 - 1) + 1

    @pytest.mark.parametrize('key', ['pi0', 'pi_uc', 'pi_gc'])
    def test_idempotent_and_hermitian(self, key):
        p = subspace_projectors(2)[key]
        assert np.linalg.norm(p @ p - p) <= 1e-10
        assert np.linalg.norm(p - dag(p)) <= 1e-10

    def test_unital_span_nested_in_general_span(self):
        projs = subspace_projectors(2)
        assert np.linalg.norm(projs['pi_uc'] @ projs['pi_gc'] - projs['pi_uc']) <= 1e-10

    @pytest.mark.parametrize('d', [2, 3])
    def test_closed_form_matches_basis_sum(self, d):
        # definition: sum of vec(b_j⊗b_k)vec(b_j⊗b_k)† over the class's pairs
        basis = herm_basis(d)
        pairs = {
            'pi_uc': [(0, 0)] + [(j, k) for j in range(1, d * d) for k in range(1, d * d)],
            'pi_gc': [(0, 0)] + [(j, k) for j in range(1, d * d) for k in range(d * d)],
        }
        projs = subspace_projectors(d)
        for key, index_pairs in pairs.items():
            vs = np.array([vec(np.kron(basis[j], basis[k])) for j, k in index_pairs])
            assert np.linalg.norm(projs[key] - vs.T @ vs.conj()) <= 1e-12


class TestPartialTrace:
    def test_product_rule(self):
        rng = make_rng(9)
        a, b = random_complex(2, rng), random_complex(3, rng)
        assert np.allclose(partial_trace(np.kron(a, b), (2, 3), axis=1), a * np.trace(b))
        assert np.allclose(partial_trace(np.kron(a, b), (2, 3), axis=0), b * np.trace(a))

    def test_linearity(self):
        rng = make_rng(10)
        m1, m2 = random_complex(4, rng), random_complex(4, rng)
        lhs = partial_trace(2.5 * m1 - 1j * m2, (2, 2), axis=0)
        rhs = 2.5 * partial_trace(m1, (2, 2), axis=0) - 1j * partial_trace(m2, (2, 2), axis=0)
        assert np.allclose(lhs, rhs)


def test_vec_inner_product_is_hilbert_schmidt():
    rng = make_rng(2)
    a, b = random_complex(3, rng), random_complex(3, rng)
    assert abs(np.vdot(vec(a), vec(b)) - np.trace(dag(a) @ b)) <= 1e-12


def test_swap_operator_alias():
    assert np.allclose(swap_operator(2), permutation_operator((2, 1), 2))
