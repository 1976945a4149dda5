import math

import numpy as np
import pytest

from udesign import linalg
from udesign.designs import (
    GALLERY_CERTIFIED_T,
    GALLERY_NAMES,
    DesignCertificate,
    WeightedUnitarySet,
    assert_phase_distinct,
    canonical_phase,
    certify,
    design_moment,
    frame_potential,
    gallery,
    gamma,
    group_closure,
    haar_moment,
    merge_phase_duplicates,
    muub_check,
    pu2_muub_family,
    quat_to_unitary,
    uniform_set,
    unitary_operator_frame,
)
from udesign.errors import InvalidInputError, ResourceLimitError
from udesign.linalg import (
    ATOL_CERT,
    dag,
    haar_unitaries,
    make_rng,
    swap_operator,
)

from helpers import expm_hermitian

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


def random_weighted_set(d, n, rng):
    w = rng.dirichlet(np.ones(n))
    return WeightedUnitarySet(d, haar_unitaries(d, n, rng), w)


class TestFramePotential:
    def test_singleton_identity(self):
        s = uniform_set(2, [np.eye(2)])
        assert frame_potential(s, 1) == pytest.approx(4.0)

    def test_clifford12_is_two_design(self):
        s = gallery('pu2_clifford12')
        assert frame_potential(s, 2) == pytest.approx(2.0, abs=1e-9)

    def test_11pt_is_two_design(self):
        s = gallery('pu2_11pt')
        assert frame_potential(s, 2) == pytest.approx(2.0, abs=1e-9)

    def test_phase_invariance(self):
        rng = make_rng(5)
        s = random_weighted_set(2, 6, rng)
        before = frame_potential(s, 2)
        unitaries = s.unitaries.copy()
        unitaries[3] = np.exp(1j * 1.234) * unitaries[3]
        after = frame_potential(WeightedUnitarySet(2, unitaries, s.weights), 2)
        assert abs(before - after) <= 1e-12

    def test_welch_lower_bound_random_sets(self):
        rng = make_rng(6)
        for d in (2, 3):
            for _ in range(40):
                s = random_weighted_set(d, int(rng.integers(2, 21)), rng)
                for t in (1, 2, 3):
                    assert frame_potential(s, t) >= gamma(t, d) - 1e-9

    def test_invalid_t(self):
        with pytest.raises(InvalidInputError):
            frame_potential(uniform_set(2, [np.eye(2)]), 0)


class TestGamma:
    def test_known_small_values(self):
        assert gamma(1, 2) == 1
        assert gamma(1, 7) == 1
        assert gamma(2, 2) == 2
        assert gamma(2, 5) == 2
        assert gamma(3, 2) == 5
        assert gamma(5, 2) == 42

    def test_factorial_regime(self):
        for t in range(1, 7):
            for d in range(max(t, 2), t + 3):
                assert gamma(t, d) == math.factorial(t)

    def test_catalan_at_d2(self):
        for t in range(1, 7):
            assert gamma(t, 2) == math.factorial(2 * t) // (math.factorial(t) * math.factorial(t + 1))

    def test_s4_with_longest_increasing_run_capped_at_3(self):
        # only the identity permutation of S4 carries an increasing run of 4
        assert gamma(4, 3) == 23

    def test_enumeration_guard(self):
        with pytest.raises(ResourceLimitError, match=f'capped at t <= {linalg.MAX_GAMMA_T}, got t=10$'):
            gamma(linalg.MAX_GAMMA_T + 1, 2)

    def test_t_and_dimension_checks(self):
        with pytest.raises(InvalidInputError, match='^t must be >= 1, got 0$'):
            gamma(0, 2)
        for call in (lambda: gamma(2, 1), lambda: haar_moment(1, 1)):
            with pytest.raises(InvalidInputError, match="^'dim' must be an integer >= 2, got 1$"):
                call()


class TestHaarMoment:
    def test_t1_is_scaled_swap(self):
        m = haar_moment(1, 2)
        assert np.allclose(m, swap_operator(2) / 2)
        evals = np.sort(np.linalg.eigvalsh(m))
        assert np.allclose(evals[:1], -0.5) and np.allclose(evals[1:], 0.5)

    def test_hermitian(self):
        for t in (1, 2):
            for d in (2, 3):
                m = haar_moment(t, d)
                assert np.linalg.norm(m - dag(m)) <= 1e-9

    def test_t2_matches_monte_carlo(self):
        # oracle: empirical Haar average of U ⊗ U ⊗ U† ⊗ U† over 1e6 samples
        rng = make_rng(99)
        total = 10 ** 6
        batch = 20_000
        acc = np.zeros((16, 16), dtype=complex)
        acc_sq = np.zeros((16, 16))
        for _ in range(total // batch):
            u = haar_unitaries(2, batch, rng)
            uu = np.einsum('nab,ncd->nacbd', u, u).reshape(batch, 4, 4)
            sample = np.einsum('nij,nkl->nikjl', uu, dag(uu)).reshape(batch, 16, 16)
            acc += sample.sum(axis=0)
            acc_sq += (np.abs(sample) ** 2).sum(axis=0)
        mean = acc / total
        var = acc_sq / total - np.abs(mean) ** 2
        stderr = np.sqrt(np.maximum(var, 1e-30) / total)
        deviation = np.abs(mean - haar_moment(2, 2))
        assert np.all(deviation <= 5 * stderr + 1e-12)

    @pytest.mark.parametrize('d', [2, 3])
    def test_hierarchy_contraction(self, d):
        # tracing the inner pair against a swap lowers t=2 to d times t=1
        m2 = haar_moment(2, d)
        inner_swap = np.kron(np.kron(np.eye(d), swap_operator(d)), np.eye(d))
        contracted = np.einsum(
            'jabckabe->jcke', (m2 @ inner_swap).reshape((d,) * 8)).reshape(d * d, d * d)
        assert np.linalg.norm(contracted - d * haar_moment(1, d)) <= 1e-12

    def test_t3_unsupported(self):
        with pytest.raises(InvalidInputError):
            haar_moment(3, 2)


@pytest.mark.parametrize('d', [2, 3])
@pytest.mark.parametrize('t', [1, 2])
def test_design_moment_matches_kron_sum(d, t):
    s = random_weighted_set(d, 7, make_rng(16 + d + t))
    expected = np.zeros((d ** (2 * t),) * 2, dtype=complex)
    for w, u in zip(s.weights, s.unitaries):
        upow = u if t == 1 else np.kron(u, u)
        expected += w * np.kron(upow, dag(upow))
    assert np.linalg.norm(design_moment(s, t) - expected) <= 1e-13


class TestCertify:
    def test_11pt_passes_t2(self):
        cert = certify(gallery('pu2_11pt'), 2)
        assert cert.passed and cert.gap <= 1e-9
        assert cert.moment_residual <= 1e-7

    def test_11pt_fails_t3(self):
        cert = certify(gallery('pu2_11pt'), 3)
        assert not cert.passed
        assert cert.gap > 0.1
        assert cert.moment_residual is None

    def test_clifford24_passes_t3(self):
        assert certify(gallery('pu2_clifford24'), 3).passed

    def test_gap_and_residual_criteria_agree(self):
        rng = make_rng(17)
        for name in ('pu2_11pt', 'pu2_clifford12'):
            s = gallery(name)
            cert = certify(s, 2)
            assert cert.passed and cert.moment_residual <= np.sqrt(1e-8) * 4
            noisy = _perturb(s, 1e-2, rng)
            bad = certify(noisy, 2)
            assert not bad.passed and bad.moment_residual > np.sqrt(1e-8) * 4

    @pytest.mark.parametrize('s,t,count', [(gallery('pu2_11pt'), 2, 256), (unitary_operator_frame(20, 2), 1, 80)],
                             ids=['moments', 'powers'])
    def test_moment_residual_is_none_beyond_the_entries_guard(self, monkeypatch, s, t, count):
        # the powers and the moment hold max(n, d^2t)·d^2t entries, as many as or more than
        # each permutation operator of haar_moment
        monkeypatch.setattr(linalg, 'MAX_ENTRIES', count)
        assert certify(s, t).moment_residual <= 1e-7
        monkeypatch.setattr(linalg, 'MAX_ENTRIES', count - 1)
        with pytest.raises(ResourceLimitError, match=rf'^the moment operator max\(n, d\^2t\)·d\^2t = {count} entries '
                                                     rf'exceeds the guard {count - 1}$'):
            design_moment(s, t)
        cert = certify(s, t)
        assert cert.moment_residual is None and cert.passed and cert.gap <= 1e-9

    def test_gap_below_its_float_floor_is_numerical_trouble(self):
        fields = dict(t=1, potential=1.0, gamma=1.0, moment_residual=None, passed=True)
        assert DesignCertificate(gap=-ATOL_CERT, **fields).gap == -ATOL_CERT
        with pytest.raises(InvalidInputError, match='^potential gap -2.000e-08 violates the lower bound'):
            DesignCertificate(gap=-2 * ATOL_CERT, **fields)

    @pytest.mark.parametrize('tol', [float('nan'), float('inf'), -1.0, 0.0])
    def test_threshold_must_be_finite_and_positive(self, tol):
        with pytest.raises(InvalidInputError, match='atol_cert must be finite and positive'):
            certify(gallery('pu2_11pt'), 2, atol_cert=tol)

    def test_hierarchy_designs_descend(self):
        for name, t in (('pu2_11pt', 2), ('pu2_clifford12', 2), ('pu2_clifford24', 3)):
            s = gallery(name)
            for lower in range(1, t + 1):
                assert certify(s, lower).passed


def _perturb(s, scale, rng):
    noisy = []
    for u in s.unitaries:
        g = rng.standard_normal((s.dim, s.dim)) + 1j * rng.standard_normal((s.dim, s.dim))
        g = (g + dag(g)) / 2
        g *= scale / np.linalg.norm(g)
        noisy.append(expm_hermitian(g) @ u)
    return WeightedUnitarySet(s.dim, np.array(noisy), s.weights)


class TestQuaternionMap:
    def test_axes(self):
        assert np.allclose(quat_to_unitary([1, 0, 0, 0]), np.eye(2))
        assert np.allclose(quat_to_unitary([0, 1, 0, 0]), 1j * X)
        assert np.allclose(quat_to_unitary([0, 0, 1, 0]), 1j * Y)
        assert np.allclose(quat_to_unitary([0, 0, 0, 1]), 1j * Z)

    def test_orthogonal_quaternions_give_orthogonal_unitaries(self):
        u = quat_to_unitary([1, 0, 0, 0])
        v = quat_to_unitary([0, 1, 0, 0])
        assert abs(np.trace(dag(u) @ v)) ** 2 <= 1e-12

    def test_half_overlap_pair(self):
        u = quat_to_unitary(np.array([1, 1, 0, 0]) / np.sqrt(2))
        v = quat_to_unitary(np.array([1, 0, 1, 0]) / np.sqrt(2))
        assert abs(np.trace(dag(u) @ v)) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_distance_preservation_on_random_pairs(self):
        rng = make_rng(8)
        for _ in range(25):
            r = rng.standard_normal(4)
            s = rng.standard_normal(4)
            r /= np.linalg.norm(r)
            s /= np.linalg.norm(s)
            u, v = quat_to_unitary(r), quat_to_unitary(s)
            assert abs(np.trace(dag(u) @ v)) ** 2 == pytest.approx(4 * np.dot(r, s) ** 2, abs=1e-10)

    def test_rejects_non_unit_vector(self):
        with pytest.raises(InvalidInputError):
            quat_to_unitary([1, 1, 0, 0])
        with pytest.raises(InvalidInputError, match=r'^expected a 4-vector, got shape \(3,\)$'):
            quat_to_unitary([1, 0, 0])


class TestGallery:
    def test_utof_is_one_design(self):
        for n, d in ((4, 2), (9, 3), (10, 3), (7, 2)):
            s = unitary_operator_frame(n, d)
            assert len(s) == n
            assert frame_potential(s, 1) == pytest.approx(1.0, abs=1e-10)
            assert_phase_distinct(s)

    def test_utof_minimal_size_guard(self):
        with pytest.raises(InvalidInputError):
            unitary_operator_frame(3, 2)

    def test_utof_entries_guard_is_checked_before_allocation(self, monkeypatch):
        monkeypatch.setattr(linalg, 'MAX_ENTRIES', 100)
        assert len(unitary_operator_frame(25, 2)) == 25
        for build in (lambda: unitary_operator_frame(26, 2), lambda: gallery('utof', n=26, dim=2)):
            with pytest.raises(ResourceLimitError, match='^the operator frame n·d² = 104 entries exceeds the guard 100$'):
                build()

    def test_minimal_one_design_is_orthogonal_basis_with_uniform_weights(self):
        s = unitary_operator_frame(4, 2)
        gram = s.gram()
        np.fill_diagonal(gram, 0)
        assert np.abs(gram).max() <= 1e-9
        assert np.allclose(s.weights, 0.25)

    def test_clifford12(self):
        s = gallery('pu2_clifford12')
        assert len(s) == 12
        assert_phase_distinct(s)
        assert certify(s, 2).passed

    def test_clifford24(self):
        s = gallery('pu2_clifford24')
        assert len(s) == 24
        assert certify(s, 3).passed
        assert not certify(s, 4).passed

    def test_11pt_weights(self):
        s = gallery('pu2_11pt')
        assert len(s) == 11
        assert s.weights[0] == pytest.approx(1 / 16)
        assert np.allclose(s.weights[1:], 3 / 32)

    def test_600cell(self):
        s = gallery('pu2_600cell')
        assert len(s) == 60
        assert certify(s, 5).passed
        assert not certify(s, 6).passed

    def test_two_design_sizes_respect_cardinality_bound(self):
        # minimum is (d²-1)² + 1 = 10 at d = 2, raised to 11 by nonexistence
        # of the tight configuration
        for name in ('pu2_11pt', 'pu2_clifford12', 'pu2_clifford24', 'pu2_600cell'):
            assert len(gallery(name)) >= 10
        assert len(gallery('pu2_11pt')) == 11

    def test_unknown_name(self):
        with pytest.raises(InvalidInputError):
            gallery('pu3_fancy')

    def test_utof_requires_params(self):
        with pytest.raises(InvalidInputError):
            gallery('utof')

    def test_names_and_certified_levels_pinned(self):
        assert GALLERY_NAMES == ('utof', 'pu2_11pt', 'pu2_clifford12', 'pu2_clifford24', 'pu2_600cell')
        assert GALLERY_CERTIFIED_T == {'utof': 1, 'pu2_11pt': 2, 'pu2_clifford12': 2,
                                       'pu2_clifford24': 3, 'pu2_600cell': 5}
        assert list(GALLERY_CERTIFIED_T) == list(GALLERY_NAMES)


def clifford_generators(d):
    """Fourier gate and the Clifford phase gate diag(ω^(j(j-1)/2)); at d = 3 the
    latter is diag(1, 1, ω)."""
    omega = np.exp(2j * np.pi / d)
    fourier = np.array([[omega ** (j * k) for k in range(d)] for j in range(d)]) / np.sqrt(d)
    return [fourier, np.diag([omega ** (j * (j - 1) // 2) for j in range(d)])]


def sequential_closure(generators, d):
    """Reference: pass-by-pass frontier, one product and one vdot scan at a time."""
    elements = [canonical_phase(np.eye(d, dtype=complex))]
    frontier = list(elements)
    while frontier:
        fresh = []
        for u in frontier:
            for g in generators:
                cand = canonical_phase(np.asarray(g, dtype=complex) @ u)
                if not any(abs(np.vdot(e, cand)) ** 2 >= d * d - 1e-6 for e in elements):
                    elements.append(cand)
                    fresh.append(cand)
        frontier = fresh
    return uniform_set(d, np.array(elements))


class TestGroupClosure:
    @pytest.mark.parametrize('name', ['hr_r2', 'h_r', 'qutrit'])
    def test_matches_sequential_closure_bit_for_bit(self, name):
        h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        r = np.diag([1, 1j])
        gens = {'hr_r2': [h @ r, r @ r], 'h_r': [h, r], 'qutrit': clifford_generators(3)}[name]
        d = len(gens[0])
        got, expected = group_closure(gens).unitaries, sequential_closure(gens, d).unitaries
        assert got.shape == expected.shape
        assert np.array_equal(got.view(float), expected.view(float))

    def test_order_exactly_max_order_still_closes(self):
        h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        r = np.diag([1, 1j])
        assert len(group_closure([h @ r, r @ r], max_order=12)) == 12
        with pytest.raises(ResourceLimitError):
            group_closure([h @ r, r @ r], max_order=11)

    def test_d5_clifford_has_25_times_sl2_5_elements(self):
        s = group_closure(clifford_generators(5))
        assert len(s) == 3000 == 25 * 120          # |SL(2, 5)| = 120
        assert_phase_distinct(s)
        assert certify(s, 2).passed

    def test_generators_must_form_a_stack_of_unitaries(self):
        with pytest.raises(InvalidInputError):
            group_closure([])
        with pytest.raises(InvalidInputError, match='stack of generator matrices'):
            group_closure(np.eye(2))
        with pytest.raises(InvalidInputError, match='element 1 is not unitary'):
            group_closure([np.eye(2), 2 * np.eye(2)])

    def test_hr_r2_subgroup_has_12_elements(self):
        h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        r = np.diag([1, 1j])
        assert len(group_closure([h @ r, r @ r])) == 12

    def test_full_clifford_has_24_elements(self):
        h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        r = np.diag([1, 1j])
        assert len(group_closure([h, r])) == 24

    def test_trivial_group(self):
        assert len(group_closure([np.eye(2)])) == 1

    def test_order_guard(self):
        # an irrational rotation never closes
        r = expm_hermitian(np.diag([0.0, 1.0]))
        with pytest.raises(ResourceLimitError):
            group_closure([r], max_order=64)


class TestMuub:
    def test_family_is_complete_and_forms_two_design(self):
        bases = pu2_muub_family()
        report = muub_check(bases)
        assert report.m == 3 and report.bound == 3
        assert report.orthogonal and report.mutually_unbiased and report.complete
        assert report.welch_sum == pytest.approx(2.0, abs=1e-9)
        assert report.is_two_design

    def test_family_union_matches_clifford12_projectively(self):
        union = np.concatenate([b.unitaries for b in pu2_muub_family()])
        closure = gallery('pu2_clifford12').unitaries
        for u in union:
            overlaps = [abs(np.vdot(c, u)) ** 2 for c in closure]
            assert max(overlaps) >= 4 - 1e-9

    def test_pauli_basis_alone_is_not_two_design(self):
        pauli = uniform_set(2, [np.eye(2), X, Y, Z])
        report = muub_check([pauli])
        assert report.orthogonal
        assert report.m == 1 and not report.complete
        assert report.welch_sum == pytest.approx(4.0, abs=1e-9)
        assert not report.is_two_design
        assert frame_potential(pauli, 2) == pytest.approx(4.0, abs=1e-9)

    def test_duplicate_basis_fails_unbiasedness(self):
        pauli = uniform_set(2, [np.eye(2), X, Y, Z])
        report = muub_check([pauli, pauli])
        assert not report.mutually_unbiased
        assert report.max_unbiasedness_defect == pytest.approx(3.0, abs=1e-9)

    @pytest.mark.parametrize('bases,message', [
        (lambda: [uniform_set(2, [np.eye(2), X, Y])], 'a unitary operator basis for d=2 has d²=4 elements, got 3'),
        (lambda: [], 'need at least one basis'),
        (lambda: [pu2_muub_family()[0], unitary_operator_frame(9, 3)], 'all bases must share one dimension'),
    ], ids=['basis-size', 'empty', 'mixed-dimensions'])
    def test_rejects_malformed_families(self, bases, message):
        with pytest.raises(InvalidInputError, match=f'^{message}$'):
            muub_check(bases())

    def test_matches_basis_pair_loops(self):
        # reference: one Gram product per basis and per pair of bases
        def loops(bases):
            d, m = bases[0].dim, len(bases)
            flats = [b.unitaries.reshape(d * d, -1) for b in bases]
            orth = max(float(np.abs(f.conj() @ f.T - d * np.eye(d * d)).max()) for f in flats)
            unbias = max([float(np.abs(np.abs(f.conj() @ g.T) ** 2 - 1.0).max())
                          for i, f in enumerate(flats) for g in flats[i + 1:]], default=0.0)
            welch = sum(float((np.abs(f.conj() @ g.T) ** 4).sum()) for f in flats for g in flats) / (m * d * d) ** 2
            return orth, unbias, welch

        rng = make_rng(16)
        w = np.exp(2j * np.pi / 3)
        weyl = np.array([np.linalg.matrix_power(np.roll(np.eye(3), 1, axis=0), a) @ np.diag(w ** (b * np.arange(3)))
                         for a in range(3) for b in range(3)])
        families = [pu2_muub_family()[:m] for m in (1, 2, 3)]
        families.append([uniform_set(3, weyl), uniform_set(3, haar_unitaries(3, 1, rng)[0] @ weyl)])
        for bases in families:
            report = muub_check(bases)
            orth, unbias, welch = loops(bases)
            assert report.max_orthogonality_defect == pytest.approx(orth, abs=1e-14)
            assert report.max_unbiasedness_defect == pytest.approx(unbias, abs=1e-14)
            assert report.welch_sum == pytest.approx(welch, rel=1e-14)


class TestWeightedUnitarySet:
    def test_weight_validation(self):
        with pytest.raises(InvalidInputError):
            WeightedUnitarySet(2, [np.eye(2)], [0.5])
        with pytest.raises(InvalidInputError):
            WeightedUnitarySet(2, [np.eye(2), X], [1.5, -0.5])
        with pytest.raises(InvalidInputError, match='^one weight per element required$'):
            WeightedUnitarySet(2, [np.eye(2), X], [1.0])

    def test_unitaries_must_form_an_n_by_dim_by_dim_stack(self):
        with pytest.raises(InvalidInputError, match=r'^unitaries must have shape \(n, 2, 2\), got \(2, 2\)$'):
            WeightedUnitarySet(2, np.eye(2), [1.0])

    def test_non_finite_input_rejected(self):
        with pytest.raises(InvalidInputError, match='finite'):
            WeightedUnitarySet(2, np.full((1, 2, 2), np.nan), [1.0])
        with pytest.raises(InvalidInputError, match='finite'):
            WeightedUnitarySet(2, [np.eye(2), X], [np.nan, 0.5])
        with pytest.raises(InvalidInputError, match='finite'):
            WeightedUnitarySet(2, [np.eye(2), X], [np.inf, 0.5])

    def test_unitarity_validation(self):
        with pytest.raises(InvalidInputError):
            WeightedUnitarySet(2, [np.ones((2, 2))], [1.0])

    @pytest.mark.parametrize('dim', [1, 0, -2, 2.0, True])
    def test_dimension_must_be_an_integer_of_at_least_two(self, dim):
        with pytest.raises(InvalidInputError, match=f"^'dim' must be an integer >= 2, got {dim!r}$"):
            WeightedUnitarySet(dim, np.ones((1, 1, 1)), [1.0])

    @pytest.mark.parametrize('n,d', [(4, 1), (0, 0), (5, 0), (3, -1)])
    def test_operator_frame_checks_the_dimension_first(self, n, d):
        with pytest.raises(InvalidInputError, match=f"^'dim' must be an integer >= 2, got {d}$"):
            unitary_operator_frame(n, d)

    def test_phase_canonicalization_applied_on_ingestion(self):
        s = uniform_set(2, [np.exp(1j * 0.7) * np.eye(2)])
        assert np.allclose(s.unitaries[0], np.eye(2))

    def test_canonical_phase_makes_pivot_real_positive(self):
        rng = make_rng(12)
        u = canonical_phase(haar_unitaries(3, 1, rng)[0])
        flat = u.reshape(-1)
        pivot = flat[np.argmax(np.abs(flat))]
        assert abs(pivot.imag) <= 1e-12 and pivot.real > 0

    def test_canonical_phase_on_a_stack_matches_each_matrix(self):
        rng = make_rng(13)
        stack = haar_unitaries(3, 8, rng) * np.exp(1j * rng.uniform(0, 2 * np.pi, 8))[:, None, None]
        stack[3] = canonical_phase(stack[3])
        expected = np.array([canonical_phase(u) for u in stack])
        assert np.array_equal(canonical_phase(stack), expected)
        assert np.array_equal(canonical_phase(stack.reshape(2, 4, 3, 3)), expected.reshape(2, 4, 3, 3))

    def test_canonical_matrix_comes_back_unchanged(self):
        u = canonical_phase(haar_unitaries(3, 1, make_rng(14))[0])
        assert np.array_equal(canonical_phase(u), u)
        s = uniform_set(3, [u])
        assert np.array_equal(s.unitaries[0], u)

    def test_merge_matches_first_seen_loop(self):
        def first_seen(s):
            # oracle: each element joins the first kept element it is phase-equivalent to
            kept, weights = [], []
            for i, u in enumerate(s.unitaries):
                for pos, j in enumerate(kept):
                    if abs(np.vdot(s.unitaries[j], u)) ** 2 >= s.dim ** 2 - 1e-6:
                        weights[pos] += s.weights[i]
                        break
                else:
                    kept.append(i)
                    weights.append(float(s.weights[i]))
            return kept, weights

        rng = make_rng(15)
        a, b, c = haar_unitaries(2, 3, rng)
        phase = np.exp(1j * rng.uniform(0, 2 * np.pi, 3))
        interleaved = np.array([a, b, phase[0] * a, c, phase[1] * b, phase[2] * a])
        # X-rotations by 0, 8e-4 and 4e-4: the last is close to both others, which are not close
        chain = np.array([quat_to_unitary([np.cos(x), np.sin(x), 0, 0]) for x in (0, 8e-4, 4e-4)])
        for unitaries, expected_kept in ((interleaved, [0, 1, 3]), (chain, [0, 1])):
            s = WeightedUnitarySet(2, unitaries, rng.dirichlet(np.ones(len(unitaries))))
            kept, weights = first_seen(s)
            merged = merge_phase_duplicates(s)
            assert kept == expected_kept
            assert np.array_equal(merged.unitaries, s.unitaries[kept])
            assert np.array_equal(merged.weights, weights)

    def test_phase_distinct_detection(self):
        dup = uniform_set(2, [np.eye(2), np.exp(1j * 0.2) * np.eye(2)])
        with pytest.raises(InvalidInputError):
            assert_phase_distinct(dup)
        merged = merge_phase_duplicates(dup)
        assert len(merged) == 1 and merged.weights[0] == pytest.approx(1.0)

    def test_empty_set_rejected(self):
        with pytest.raises(InvalidInputError):
            WeightedUnitarySet(2, np.zeros((0, 2, 2)), np.zeros(0))


def test_perturbing_gallery_designs_strictly_increases_gap():
    rng = make_rng(77)
    for name, t in (('pu2_11pt', 2), ('pu2_clifford12', 2), ('pu2_clifford24', 3)):
        s = gallery(name)
        base_gap = frame_potential(s, t) - gamma(t, 2)
        noisy_gap = frame_potential(_perturb(s, 1e-2, rng), t) - gamma(t, 2)
        assert noisy_gap > base_gap
        assert noisy_gap > 1e-7
