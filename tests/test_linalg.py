import dataclasses
import itertools
import re

import numpy as np
import pytest

from udesign import linalg
from udesign.errors import InvalidInputError, ResourceLimitError
from udesign.linalg import (
    assert_unitary,
    class_projector,
    class_projector_coords,
    dag,
    haar_unitaries,
    haar_unitary,
    herm_basis,
    herm_coords,
    herm_from_coords,
    log_unitary,
    make_rng,
    partial_trace,
    span_dimension,
    weyl_operators,
)

from helpers import max_entangled_ket, permutation_operator, swap_operator, vec

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


def random_complex(d, rng):
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def herm_basis_loops(d):
    """Reference: the Gell-Mann basis appended one matrix at a time."""
    ops = [np.eye(d, dtype=complex) / np.sqrt(d)]
    for j in range(d):
        for k in range(j + 1, d):
            m = np.zeros((d, d), dtype=complex)
            m[j, k] = m[k, j] = 1 / np.sqrt(2)
            ops.append(m)
    for j in range(d):
        for k in range(j + 1, d):
            m = np.zeros((d, d), dtype=complex)
            m[j, k] = -1j / np.sqrt(2)
            m[k, j] = 1j / np.sqrt(2)
            ops.append(m)
    for l in range(1, d):
        m = np.zeros((d, d), dtype=complex)
        m[np.arange(l), np.arange(l)] = 1.0
        m[l, l] = -l
        ops.append(m / np.sqrt(l * (l + 1)))
    return np.array(ops)


def permutation_operator_loops(images, d):
    """Reference: P|k> = |k∘sigma^{-1}> written out digit by digit."""
    n = len(images)
    inverse = np.empty(n, dtype=int)
    for m, s in enumerate(images):
        inverse[s - 1] = m
    dim = d ** n
    digits = np.indices((d,) * n).reshape(n, dim).T
    rows = digits[:, inverse] @ (d ** np.arange(n - 1, -1, -1))
    op = np.zeros((dim, dim))
    op[rows, np.arange(dim)] = 1.0
    return op


class TestHermBasis:
    @pytest.mark.parametrize('d', range(2, 9))
    def test_bit_identical_to_the_loop_construction(self, d):
        # signed zeros included: the i(E_kj - E_jk) entries carry -0.0 real parts
        assert herm_basis(d).tobytes() == herm_basis_loops(d).tobytes()

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
        with pytest.raises(InvalidInputError, match="^'dim' must be an integer >= 2, got 1$"):
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
        with pytest.raises(InvalidInputError, match='square matrix'):
            max_entangled_ket(np.stack([np.eye(2), X]))


class TestAssertUnitary:
    def test_stack_names_its_first_bad_element(self):
        stack = haar_unitaries(3, 5, make_rng(12))
        stack[1] *= 1 + 1e-6
        stack[3] *= 2.0
        with pytest.raises(InvalidInputError, match=r'^element 1 is not unitary: \|\|U†U - I\|\| = 3\.46'):
            assert_unitary(stack)
        assert assert_unitary(stack[[0, 2, 4]]).shape == (3, 3, 3)

    def test_single_matrix_and_shape_messages(self):
        with pytest.raises(InvalidInputError, match=r'^matrix is not unitary'):
            assert_unitary(2 * np.eye(2))
        with pytest.raises(InvalidInputError, match=r'^matrix is not unitary: .* = nan'):
            assert_unitary(np.full((2, 2), np.nan))
        with pytest.raises(InvalidInputError, match='square matrix or a stack'):
            assert_unitary(np.eye(2)[None, None])


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

    @pytest.mark.parametrize('d', [2, 3, 4])
    def test_bit_identical_to_the_digit_construction(self, d):
        cases = [p for n in range(1, 5) if d ** (2 * n) <= linalg.MAX_ENTRIES
                 for p in itertools.permutations(range(1, n + 1))]
        assert len(cases) == 33
        for images in cases:
            assert permutation_operator(images, d).tobytes() == permutation_operator_loops(images, d).tobytes()

    def test_dimension_guard(self):
        with pytest.raises(ResourceLimitError):
            permutation_operator(tuple(range(1, 8)), 4)

    def test_entries_guard_flips_at_its_value(self, monkeypatch):
        # (d^n)² entries: 3 factors of C^2 give 64
        monkeypatch.setattr(linalg, 'MAX_ENTRIES', 64)
        assert permutation_operator((3, 1, 2), 2).shape == (8, 8)
        monkeypatch.setattr(linalg, 'MAX_ENTRIES', 63)
        with pytest.raises(ResourceLimitError, match=r'^the permutation operator \(d\^n\)² = 64 entries exceeds the guard 63$'):
            permutation_operator((3, 1, 2), 2)

    def test_rejects_non_permutation(self):
        with pytest.raises(InvalidInputError):
            permutation_operator((1, 1), 2)


def weyl_basis_loops(d):
    """Reference: the shift-clock basis X^a Z^b, one pair of matrix powers at a time."""
    shift = np.roll(np.eye(d), 1, axis=0).astype(complex)
    clock = np.diag(np.exp(2j * np.pi * np.arange(d) / d))
    ops = []
    for a in range(d):
        for b in range(d):
            ops.append(np.linalg.matrix_power(shift, a) @ np.linalg.matrix_power(clock, b))
    return np.array(ops)


class TestWeylOperators:
    @pytest.mark.parametrize('d', range(2, 9))
    def test_bit_identical_to_the_power_loops(self, d):
        assert weyl_operators(d).tobytes() == weyl_basis_loops(d).tobytes()

    @pytest.mark.parametrize('d', [2, 3, 5])
    def test_orthogonal_unitary_basis(self, d):
        w = weyl_operators(d)
        assert w.shape == (d * d, d, d)
        assert_unitary(w)
        gram = np.einsum('xij,yij->xy', w.conj(), w)
        assert np.abs(gram - d * np.eye(d * d)).max() <= 1e-12


class TestHaarUnitary:
    def test_samples_are_unitary(self):
        rng = make_rng(0)
        for d in (2, 3, 5):
            u = haar_unitary(d, rng)
            assert np.linalg.norm(dag(u) @ u - np.eye(d)) <= 1e-10

    @pytest.mark.parametrize('d', [2, 3])
    def test_stack_equals_successive_draws(self, d):
        k = 150
        stack = haar_unitaries(d, k, make_rng(8))
        rng = make_rng(8)
        assert np.array_equal(stack, np.array([haar_unitary(d, rng) for _ in range(k)]))
        # oracle for the single draw: QR of one Ginibre matrix, real part drawn first
        rng = make_rng(8)
        for u in stack[:5]:
            z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)
            q, r = np.linalg.qr(z)
            diag = np.diagonal(r)
            assert np.array_equal(u, q * (diag / np.abs(diag)))

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


class TestRandomAndWeylRefusals:
    # below the bound; fractional, bool and None values run through INTEGER_INPUTS
    @pytest.mark.parametrize('call, message', [
        (lambda rng: haar_unitary(1, rng), "'dim' must be an integer >= 2, got 1"),
        (lambda rng: haar_unitaries(2, 0, rng), 'n must be an integer >= 1, got 0'),
        (lambda rng: weyl_operators(1), "'dim' must be an integer >= 2, got 1"),
    ])
    def test_refused_by_the_integer_rule_before_any_draw(self, call, message):
        rng = make_rng(1)
        before = repr(rng.bit_generator.state)
        with pytest.raises(InvalidInputError, match=f'^{re.escape(message)}$'):
            call(rng)
        assert repr(rng.bit_generator.state) == before


def schur_log(u):
    """Oracle: the principal log of one unitary from its complex Schur form."""
    import scipy.linalg

    t, q = scipy.linalg.schur(u, output='complex')
    return (q * np.angle(np.diagonal(t))) @ dag(q)


class TestLogUnitary:
    @pytest.mark.parametrize('d', [2, 3, 4])
    def test_a_stack_gives_the_bits_of_the_per_matrix_schur_logs(self, d):
        stack = haar_unitaries(d, 40, make_rng(30 + d))
        logs = log_unitary(stack)
        assert logs.tobytes() == np.array([schur_log(u) for u in stack]).tobytes()
        assert log_unitary(stack[3]).tobytes() == logs[3].tobytes()
        assert log_unitary(stack.reshape(5, 8, d, d)).tobytes() == logs.tobytes()
        assert np.abs(logs - dag(logs)).max() <= 1e-14

    @pytest.mark.parametrize('name', ['pu2_11pt', 'pu2_clifford12', 'pu2_600cell'])
    def test_gallery_designs_with_degenerate_spectra(self, name):
        from udesign.designs import gallery

        stack = gallery(name).unitaries        # the identity and the Paulis among them
        assert log_unitary(stack).tobytes() == np.array([schur_log(u) for u in stack]).tobytes()

    def test_non_finite_entries_are_refused(self):
        with pytest.raises(ValueError):
            log_unitary(np.array([np.eye(2), [[np.nan, 0], [0, 1]]]))


class TestMakeRng:
    def test_accepts_non_negative_integers(self):
        for seed in (0, 7, np.int64(7), 2 ** 40 + 3):
            assert make_rng(seed).integers(1 << 30) == make_rng(int(seed)).integers(1 << 30)

    @pytest.mark.parametrize('seed', [-1, 1.5, '3', True, None])
    def test_rejects_other_seeds(self, seed):
        with pytest.raises(InvalidInputError, match=f'^seed must be an integer >= 0, got {re.escape(repr(seed))}$'):
            make_rng(seed)


def _integer_inputs() -> dict:
    """Every integer input of the package, named by entry point and parameter: (the parameter's
    name in the rule's message, a valid value, a call that puts a value there and may draw from a
    generator)."""
    from udesign.channels import depolarizing_channel, random_general_channel, random_unital_mix
    from udesign.designs import (certify, design_moment, frame_potential, gallery, gamma, group_closure,
                                 haar_moment, unitary_operator_frame)
    from udesign.io import design_from_json, design_to_json
    from udesign.povm import povm_from_design, predicted_error, sample_counts, simulate
    from udesign.search import SearchConfig, search

    s = gallery('pu2_11pt')
    povm, channel, doc = povm_from_design(s), depolarizing_channel(0.5, 2), design_to_json(s)
    clifford = np.array([[[1, 1], [1, -1]], [[1, 0], [0, 1j]]]) / np.array([np.sqrt(2), 1])[:, None, None]

    def searched(**fields):
        return search(SearchConfig(**{'dim': 2, 'size': 4, 't': 1, 'restarts': 1, **fields})).result

    return {
        'herm_basis-dim': ("'dim'", 3, lambda v, rng: herm_basis(v)),
        'weyl_operators-dim': ("'dim'", 3, lambda v, rng: weyl_operators(v)),
        'haar_unitary-dim': ("'dim'", 3, lambda v, rng: haar_unitary(v, rng)),
        'haar_unitaries-dim': ("'dim'", 3, lambda v, rng: haar_unitaries(v, 4, rng)),
        'haar_unitaries-n': ('n', 4, lambda v, rng: haar_unitaries(3, v, rng)),
        'class_projector-dim': ("'dim'", 2, lambda v, rng: class_projector('gc', v)),
        'class_projector_coords-dim': ("'dim'", 2, lambda v, rng: class_projector_coords('uc', v)),
        'make_rng-seed': ('seed', 7, lambda v, rng: make_rng(v).integers(1 << 30, size=4)),
        'gamma-t': ('t', 3, lambda v, rng: gamma(v, 2)),
        'gamma-dim': ("'dim'", 3, lambda v, rng: gamma(3, v)),
        'certify-t': ('t', 2, lambda v, rng: certify(s, v)),
        'frame_potential-t': ('t', 3, lambda v, rng: frame_potential(s, v)),
        'haar_moment-t': ('t', 2, lambda v, rng: haar_moment(v, 2)),
        'haar_moment-dim': ("'dim'", 3, lambda v, rng: haar_moment(1, v)),
        'design_moment-t': ('t', 2, lambda v, rng: design_moment(s, v)),
        'group_closure-max_order': ('max_order', 24, lambda v, rng: group_closure(clifford, max_order=v)),
        'unitary_operator_frame-n': ('n', 5, lambda v, rng: unitary_operator_frame(v, 2)),
        'unitary_operator_frame-dim': ("'dim'", 2, lambda v, rng: unitary_operator_frame(5, v)),
        'gallery-utof-n': ('n', 6, lambda v, rng: gallery('utof', n=v, dim=2)),
        'gallery-utof-dim': ("'dim'", 2, lambda v, rng: gallery('utof', n=6, dim=v)),
        'design_from_json-certified_t': ("'certified_t'", 2,
                                         lambda v, rng: design_from_json({**doc, 'certified_t': v})),
        'SearchConfig-dim': ("'dim'", 2, lambda v, rng: searched(dim=v)),
        'SearchConfig-t': ('t', 1, lambda v, rng: searched(t=v)),
        'SearchConfig-size': ('size', 5, lambda v, rng: searched(size=v)),
        'SearchConfig-max_iterations': ('max_iterations', 30, lambda v, rng: searched(max_iterations=v)),
        'SearchConfig-restarts': ('restarts', 2, lambda v, rng: searched(restarts=v)),
        'random_unital_mix-k': ('k', 3, lambda v, rng: random_unital_mix(v, 2, rng)),
        'random_general_channel-k': ('k', 2, lambda v, rng: random_general_channel(v, 2, rng)),
        'sample_counts-shots': ('shots', 10, lambda v, rng: sample_counts([0.25, 0.75], v, rng, size=3)),
        'predicted_error-shots': ('shots', 100, lambda v, rng: predicted_error(2, 0.5, v, 'uc')),
        'simulate-shots': ('shots', 100, lambda v, rng: simulate(povm, channel, v, 10, rng)),
        'simulate-trials': ('trials', 10, lambda v, rng: simulate(povm, channel, 100, v, rng)),
    }


INTEGER_INPUTS = _integer_inputs()


def _bits(result):
    """A result as dtypes, shapes, bytes and exact numbers, equal exactly when the bits are."""
    if isinstance(result, np.ndarray):
        return result.dtype.str, result.shape, result.tobytes()
    if dataclasses.is_dataclass(result):
        return type(result).__name__, tuple(_bits(getattr(result, f.name)) for f in dataclasses.fields(result))
    if isinstance(result, tuple):
        return tuple(_bits(r) for r in result)
    if isinstance(result, (bool, np.bool_)):
        return bool(result)
    if isinstance(result, (int, np.integer)):
        return int(result)
    if isinstance(result, (float, np.floating)):
        return float(result).hex()
    return result


class TestIntegerRule:
    """One rule, :func:`linalg.check_count`, checks every integer input of the package."""

    @pytest.mark.parametrize('value', [2.0, 2.5, True, None])
    @pytest.mark.parametrize('case', sorted(INTEGER_INPUTS))
    def test_other_values_are_refused_by_name_before_any_draw(self, case, value):
        name, valid, call = INTEGER_INPUTS[case]
        call(valid, make_rng(11))           # a cache filled with the valid value lets no other past
        rng = make_rng(11)
        if (case, value) == ('design_from_json-certified_t', None):
            assert call(value, rng)[1] is None          # JSON null, as a missing field, certifies no t
            return
        before = repr(rng.bit_generator.state)
        with pytest.raises(InvalidInputError, match=rf'^{re.escape(name)} must be an integer >= \d+, '
                                                    rf'got {re.escape(repr(value))}$'):
            call(value, rng)
        assert repr(rng.bit_generator.state) == before

    @pytest.mark.parametrize('case', sorted(INTEGER_INPUTS))
    def test_numpy_integers_give_the_bits_of_ints(self, case):
        _, valid, call = INTEGER_INPUTS[case]
        assert _bits(call(np.int64(valid), make_rng(11))) == _bits(call(valid, make_rng(11)))

    @pytest.mark.parametrize('value,low', [(0, 0), (np.uint8(3), 3), (2 ** 70, 2)])
    def test_integers_at_or_above_the_bound_pass(self, value, low):
        linalg.check_count(value, 'x', low)


def class_pairs(state_class, d):
    """Index pairs (j, k) of the b_j⊗b_k spanning a class span, b = herm_basis(d)."""
    d2 = d * d
    return {
        'uc': [(0, 0)] + [(j, k) for j in range(1, d2) for k in range(1, d2)],
        'gc': [(0, 0)] + [(j, k) for j in range(1, d2) for k in range(d2)],
        'full': [(j, k) for j in range(d2) for k in range(d2)],
    }[state_class]


def class_span_basis(state_class, d):
    """The operators b_j⊗b_k of :func:`class_pairs`, shape (delta, d², d²)."""
    basis = herm_basis(d)
    return np.array([np.kron(basis[j], basis[k]) for j, k in class_pairs(state_class, d)])


class TestSubspaceProjectors:
    """The class-span projectors: class_projector_coords, and the left-right class_projector
    against its basis-sum definition."""

    def test_ranks_d2(self):
        assert np.linalg.matrix_rank(class_projector_coords('uc', 2), tol=1e-8) == 10
        assert np.linalg.matrix_rank(class_projector_coords('gc', 2), tol=1e-8) == 13

    def test_ranks_match_dimension_formulas_d3(self):
        d2 = 9
        for state_class, delta in (('uc', (d2 - 1) ** 2 + 1), ('gc', d2 * (d2 - 1) + 1), ('full', d2 * d2)):
            pi = class_projector_coords(state_class, 3)
            assert np.linalg.matrix_rank(pi, tol=1e-8) == delta == span_dimension(state_class, 3)

    @pytest.mark.parametrize('state_class', ['uc', 'gc'], ids=['pi_uc', 'pi_gc'])
    def test_idempotent_and_hermitian(self, state_class):
        for d in (2, 3):
            # a real symmetric idempotent is an orthogonal projector: positive, eigenvalues 0 and 1
            p = class_projector_coords(state_class, d)
            assert np.linalg.norm(p @ p - p) <= 1e-10
            assert np.array_equal(p, p.T)
            assert np.linalg.eigvalsh(p).min() >= -1e-12
            # both classes contain the maximally mixed state: |I>> is fixed
            ident = herm_coords(np.eye(d * d))
            assert np.abs(p @ ident - ident).max() <= 1e-14

    def test_unital_span_nested_in_general_span(self):
        pi_uc, pi_gc = class_projector_coords('uc', 2), class_projector_coords('gc', 2)
        assert np.linalg.norm(pi_uc @ pi_gc - pi_uc) <= 1e-10

    @pytest.mark.parametrize('d', [2, 3])
    def test_closed_form_matches_basis_sum(self, d):
        # definition of the left-right form: sum of vec(b_j⊗b_k)vec(b_j⊗b_k)† over the class's pairs
        for state_class in ('uc', 'gc'):
            vs = class_span_basis(state_class, d).reshape(-1, d ** 4)
            assert np.linalg.norm(class_projector(state_class, d) - vs.T @ vs.conj()) <= 1e-12


class TestClassProjector:
    @pytest.mark.parametrize('d', [2, 3])
    def test_cached_read_only_and_equal_to_subspace_projectors(self, d):
        # the left-right form acts on Hermitian operators as the coordinate projector does
        rng = make_rng(60 + d)
        m = rng.standard_normal((4, d * d, d * d)) + 1j * rng.standard_normal((4, d * d, d * d))
        h = m + dag(m)
        for state_class in ('uc', 'gc'):
            pi = class_projector(state_class, d)
            assert class_projector(state_class, d) is pi
            image = (h.reshape(4, -1) @ pi.T).reshape(h.shape)
            expected = herm_coords(h) @ class_projector_coords(state_class, d)
            assert np.abs(herm_coords(image) - expected).max() <= 1e-13
            assert np.abs(image - dag(image)).max() <= 1e-13
            with pytest.raises(ValueError):
                pi[0, 0] = 0.0

    @pytest.mark.parametrize('d', [2, 3])
    def test_full_class_is_identity(self, d):
        pi = class_projector('full', d)
        assert np.array_equal(pi, np.eye(d ** 4))
        assert class_projector('full', d) is pi and not pi.flags.writeable

    def test_unknown_class_raises(self):
        for _ in range(2):
            with pytest.raises(InvalidInputError, match='unknown state class'):
                class_projector('xx', 2)


class TestHermCoords:
    @pytest.mark.parametrize('d', [1, 2, 3, 4, 9])
    def test_isometry_and_inverse(self, d):
        rng = make_rng(40 + d)
        m = rng.standard_normal((3, 5, d, d)) + 1j * rng.standard_normal((3, 5, d, d))
        h = m + dag(m)
        c = herm_coords(h)
        assert c.shape == (3, 5, d * d) and c.dtype == float
        assert np.abs(herm_from_coords(c) - h).max() <= 1e-14
        # tr(GH) = c(G)·c(H), so Frobenius distances agree too
        gram = np.einsum('xij,yji->xy', h[0], h[0]).real
        assert np.abs(c[0] @ c[0].T - gram).max() <= 1e-12 * np.abs(gram).max()
        assert np.allclose(np.linalg.norm(c[0] - c[1], axis=-1), np.linalg.norm(h[0] - h[1], axis=(-2, -1)),
                           rtol=1e-13, atol=0)

    def test_basis_order_at_d2(self):
        c = herm_coords(np.array([[1.0, 2 - 3j], [2 + 3j, 5.0]]))
        assert np.allclose(c, [1.0, 5.0, 2 * np.sqrt(2), -3 * np.sqrt(2)], rtol=0, atol=1e-15)

    @pytest.mark.parametrize('d', [2, 3, 4])
    def test_coord_basis_is_unitary_and_orthonormal_hermitian(self, d):
        # the operators with unit coordinate vectors: Hermitian, and orthonormal, so
        # the matrix of their vecs is unitary; c(H) reads H against them
        ops = herm_from_coords(np.eye(d * d))
        assert np.array_equal(ops, dag(ops))
        w = ops.reshape(d * d, -1).T
        assert np.abs(dag(w) @ w - np.eye(d * d)).max() <= 1e-15
        rng = make_rng(50 + d)
        m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        assert np.abs(w @ herm_coords(m + dag(m)) - vec(m + dag(m))).max() <= 1e-14

    def test_rejects_non_square_length(self):
        with pytest.raises(InvalidInputError, match='not a square'):
            herm_from_coords(np.zeros(5))


class TestClassProjectorCoords:
    @pytest.mark.parametrize('d', [2, 3])
    @pytest.mark.parametrize('state_class', ['uc', 'gc', 'full'])
    def test_basis_change_of_class_projector(self, d, state_class):
        # the basis sum of the definition read in Hermitian coordinates: sum of
        # c(b_j⊗b_k)c(b_j⊗b_k)ᵀ over the class's pairs, with no call into the builders
        pi = class_projector_coords(state_class, d)
        assert class_projector_coords(state_class, d) is pi
        assert pi.dtype == float and not pi.flags.writeable
        cs = herm_coords(class_span_basis(state_class, d))
        assert np.abs(cs.T @ cs - pi).max() <= 1e-14
        assert np.abs(pi @ pi - pi).max() <= 1e-13 and np.array_equal(pi, pi.T)
        assert round(np.trace(pi)) == span_dimension(state_class, d) == len(cs)

    def test_unknown_class_raises(self):
        with pytest.raises(InvalidInputError, match='unknown state class'):
            class_projector_coords('xx', 2)
        with pytest.raises(InvalidInputError, match='unknown state class'):
            span_dimension('xx', 2)

    @pytest.mark.parametrize('d', [2, 3, 4])
    def test_bit_identical_to_the_per_class_construction(self, d):
        # reference: the removed directions listed class by class, b_0⊗B for gc and uc, then B⊗b_0 for uc
        basis = herm_basis(d)
        for state_class in ('uc', 'gc', 'full'):
            removed = [np.kron(basis[0], b) for b in basis[1:]] if state_class != 'full' else []
            if state_class == 'uc':
                removed += [np.kron(b, basis[0]) for b in basis[1:]]
            pi = np.eye(d ** 4)
            if removed:
                c = herm_coords(np.array(removed).reshape(-1, d * d, d * d))
                pi -= c.T @ c
            assert class_projector_coords(state_class, d).tobytes() == pi.tobytes()
            delta = {'uc': (d * d - 1) ** 2 + 1, 'gc': d * d * (d * d - 1) + 1, 'full': d ** 4}[state_class]
            assert span_dimension(state_class, d) == delta


class TestPartialTrace:
    def test_product_rule(self):
        rng = make_rng(9)
        a, b = random_complex(2, rng), random_complex(3, rng)
        assert np.allclose(partial_trace(np.kron(a, b), (2, 3), axis=1), a * np.trace(b))
        assert np.allclose(partial_trace(np.kron(a, b), (2, 3), axis=0), b * np.trace(a))

    @pytest.mark.parametrize('axis', [2, -1])
    def test_rejects_an_axis_other_than_0_or_1(self, axis):
        with pytest.raises(InvalidInputError, match='^axis must be 0 or 1$'):
            partial_trace(np.eye(4), (2, 2), axis=axis)

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


def test_entries_guard_flips_at_its_value():
    limit = linalg.MAX_ENTRIES
    linalg.check_entries(limit, 'at the guard')
    with pytest.raises(ResourceLimitError, match=f'^n² = {limit + 1} entries exceeds the guard {limit}$'):
        linalg.check_entries(limit + 1, 'n²')
