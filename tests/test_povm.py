import functools

import numpy as np
import pytest

from udesign import linalg, povm as povm_module
from udesign.channels import (
    channel_distance,
    channel_gallery,
    depolarizing_channel,
    jamiolkowski,
    random_general_channel,
    random_unital_mix,
    rotate_channel,
)
from udesign.designs import (
    WeightedUnitarySet,
    certify,
    gallery,
    group_closure,
    pu2_muub_family,
    uniform_set,
    unitary_operator_frame,
)
from udesign.errors import (
    InvalidInputError,
    NotAPovmError,
    NotInformationallyCompleteError,
    ResourceLimitError,
)
from udesign.linalg import (
    class_projector,
    class_projector_coords,
    dag,
    haar_unitaries,
    haar_unitary,
    herm_coords,
    make_rng,
    partial_trace,
    span_dimension,
    vec,
)
from udesign.povm import (
    DiscretePovm,
    canonical_dual,
    dual_frame_norm,
    estimate_channel,
    frame_superop,
    outcome_probabilities,
    povm_from_design,
    predicted_error,
    reconstruct,
    sample_counts,
    simulate,
    tight_check,
)
from udesign.search import SearchConfig, search


@pytest.fixture(scope='module')
def povm11():
    return povm_from_design(gallery('pu2_11pt'))


@pytest.fixture(scope='module')
def povm12():
    return povm_from_design(gallery('pu2_clifford12'))


def nonuniform_muub_povm():
    """Same 12 elements and support as the Clifford design, but basis weights
    (1/8, 1/16, 1/16): still a valid POVM (each basis is a 1-design), no
    longer a 2-design."""
    bases = pu2_muub_family()
    unitaries = np.concatenate([b.unitaries for b in bases])
    weights = np.concatenate([np.full(4, 1 / 8), np.full(4, 1 / 16), np.full(4, 1 / 16)])
    return povm_from_design(WeightedUnitarySet(2, unitaries, weights))


def qutrit_clifford():
    """The 216-element qutrit Clifford group, a 2-design."""
    omega = np.exp(2j * np.pi / 3)
    fourier = np.array([[omega ** (j * k) for k in range(3)] for j in range(3)]) / np.sqrt(3)
    return group_closure([fourier, np.diag([1, 1, omega])])


def qutrit_clifford_povm():
    """The qutrit Clifford group as a POVM on C^3 ⊗ C^3."""
    return povm_from_design(qutrit_clifford())


class TestPovmFromDesign:
    def test_11pt_structure(self, povm11):
        assert len(povm11) == 11 and povm11.dim == 4
        assert povm11.trace_measure[0] == pytest.approx(0.25)
        assert np.allclose(povm11.trace_measure[1:], 0.375)
        assert povm11.trace_measure.sum() == pytest.approx(4.0)
        for p in povm11.povd:
            evals = np.linalg.eigvalsh(p)
            assert abs(np.trace(p) - 1) <= 1e-10
            assert evals.max() == pytest.approx(1.0, abs=1e-10)       # rank one
            assert np.abs(evals[:-1]).max() <= 1e-10

    def test_clifford12_sums_to_identity(self, povm12):
        assert np.allclose(povm12.trace_measure, 1 / 3)
        assert np.linalg.norm(povm12.elements.sum(axis=0) - np.eye(4)) <= 1e-10

    def test_non_one_design_rejected(self):
        pair = uniform_set(2, [np.eye(2), np.diag([1, 1j])])
        with pytest.raises(NotAPovmError) as err:
            povm_from_design(pair)
        assert err.value.residual > 0.1

    @pytest.mark.parametrize('elements,message', [
        (np.eye(2), r'^POVM elements must have shape \(n, D, D\), got \(2, 2\)$'),
        (np.ones((2, 2, 3)) / 2, r'^POVM elements must have shape \(n, D, D\), got \(2, 2, 3\)$'),
        ([np.eye(2), np.zeros((2, 2))], '^every element must have positive trace$'),
    ], ids=['one-matrix', 'non-square', 'zero-element'])
    def test_malformed_elements_rejected(self, elements, message):
        with pytest.raises(InvalidInputError, match=message):
            DiscretePovm.from_elements(elements)

    def test_first_non_psd_element_is_named(self):
        elements = [np.diag([1.0, 0.5]), np.diag([0.2, -0.1]), np.diag([-0.2, 0.6])]
        with pytest.raises(InvalidInputError, match='element 1 is not positive semidefinite'):
            DiscretePovm.from_elements(elements)

    def test_completeness_for_all_gallery_designs(self):
        for name in ('pu2_11pt', 'pu2_clifford12', 'pu2_clifford24', 'pu2_600cell'):
            povm = povm_from_design(gallery(name))
            assert np.linalg.norm(povm.elements.sum(axis=0) - np.eye(4)) <= 1e-9


class TestFrameSuperop:
    def test_11pt_spectrum(self, povm11):
        evals = np.sort(np.linalg.eigvalsh(frame_superop(povm11)))[::-1]
        expected = np.concatenate([[1.0], np.full(9, 1 / 3), np.zeros(6)])
        assert np.abs(evals - expected).max() <= 1e-8

    def test_left_right_hermitian_and_fixes_identity(self, povm11):
        f = frame_superop(povm11)
        assert np.linalg.norm(f - dag(f)) <= 1e-10
        ident = vec(np.eye(4, dtype=complex))
        assert np.linalg.norm(f @ ident - ident) <= 1e-9

    def test_orthogonal_measurement(self):
        basis = np.eye(4)
        povm = DiscretePovm.from_elements([np.outer(b, b.conj()) for b in basis])
        f = frame_superop(povm)
        assert np.trace(f).real == pytest.approx(4.0)
        assert np.linalg.matrix_rank(f, tol=1e-10) == 4

    def test_trivial_povm_rank_one(self):
        povm = DiscretePovm.from_elements([np.eye(4) / 3] * 3)
        f = frame_superop(povm)
        ident = vec(np.eye(4, dtype=complex))
        assert np.linalg.norm(f @ ident - ident) <= 1e-10
        assert np.linalg.matrix_rank(f, tol=1e-10) == 1

    def test_matches_weighted_outer_product_sum_on_qutrit_clifford(self):
        povm = qutrit_clifford_povm()
        flat = povm.povd.reshape(len(povm), -1)
        expected = np.einsum('x,xi,xj->ij', povm.trace_measure, flat, flat.conj())
        assert np.linalg.norm(frame_superop(povm) - expected) <= 1e-12

    @pytest.mark.parametrize('d', [2, 3])
    def test_coordinate_frame_positive_fixes_identity_with_class_rank(self, d):
        # a uc-tight design's frame: positive, fixes |I>>, support = the uc span
        povm = povm_from_design(gallery('pu2_11pt')) if d == 2 else qutrit_clifford_povm()
        frame = povm.frame
        evals = np.linalg.eigvalsh(frame)
        assert evals.min() >= -1e-12
        assert (evals > 1e-10 * evals.max()).sum() == span_dimension('uc', d)
        ident = herm_coords(np.eye(d * d))
        assert np.abs(frame @ ident - ident).max() <= 1e-12
        pi = class_projector_coords('uc', d)
        assert np.abs(pi @ frame - frame).max() <= 1e-12

    def test_trace_bounded_by_dimension(self):
        # non-rank-one POVM: trace strictly below D
        blob = np.eye(4) * 0.5
        povm = DiscretePovm.from_elements([blob, np.eye(4) - blob])
        assert np.trace(frame_superop(povm)).real < 4.0 - 1e-6

    def test_frame_built_once_and_read_only(self, monkeypatch):
        builds = []
        build = DiscretePovm.frame.func

        def counted(povm):
            builds.append(povm)
            return build(povm)

        prop = functools.cached_property(counted)
        prop.__set_name__(DiscretePovm, 'frame')
        monkeypatch.setattr(DiscretePovm, 'frame', prop)
        povm = povm_from_design(gallery('pu2_11pt'))
        tight_check(povm, 'uc')
        canonical_dual(povm, require='uc')
        dual_frame_norm(povm)
        simulate(povm, depolarizing_channel(0.5, 2), 100, 5, make_rng(1))
        lr = frame_superop(povm)
        assert len(builds) == 1
        # the coordinate frame is real symmetric and shared; the left-right form, built
        # on each call, acts on Hermitian operators as it does
        frame = povm.frame
        assert frame.dtype == float and frame.shape == (16, 16) and np.array_equal(frame, frame.T)
        m = make_rng(2).standard_normal((3, 4, 4)) + 1j * make_rng(3).standard_normal((3, 4, 4))
        h = m + dag(m)
        image = (h.reshape(3, -1) @ lr.T).reshape(h.shape)
        assert np.abs(herm_coords(image) - herm_coords(h) @ frame).max() <= 1e-14
        assert lr is not frame_superop(povm)
        with pytest.raises(ValueError):
            frame[0, 0] = 0.0


def test_coordinates_built_once_and_read_only(monkeypatch):
    # the frame and the duals read one (n, D²) coordinate array per POVM
    shapes = []

    def counted(a):
        shapes.append(np.shape(a))
        return herm_coords(a)

    monkeypatch.setattr(povm_module, 'herm_coords', counted)
    povm = povm_from_design(gallery('pu2_11pt'))
    tight_check(povm, 'uc')
    canonical_dual(povm, require='uc')
    simulate(povm, depolarizing_channel(0.5, 2), 100, 5, make_rng(1))
    estimate_channel(povm, np.ones(len(povm)), require='uc')
    assert shapes.count((11, 4, 4)) == 1
    assert povm.coords.tobytes() == herm_coords(povm.povd).tobytes()
    with pytest.raises(ValueError):
        povm.coords[0, 0] = 0.0


class TestCoordinateParity:
    """The coordinate frame, tightness report, duals and dual norm against the
    complex left-right formulas, written out here."""

    @pytest.fixture(scope='class', params=['pu2_11pt', 'muub-nonuniform', 'qutrit-clifford216'])
    def case(self, request):
        povm = {'pu2_11pt': lambda: povm_from_design(gallery('pu2_11pt')),
                'muub-nonuniform': nonuniform_muub_povm,
                'qutrit-clifford216': qutrit_clifford_povm}[request.param]()
        flat = povm.povd.reshape(len(povm), -1)
        lr = np.einsum('x,xi,xj->ij', povm.trace_measure, flat, flat.conj())
        return povm, lr

    @staticmethod
    def lr_duals(povm, lr):
        evals, evecs = np.linalg.eigh(lr)
        keep = evals > 1e-10 * evals.max()
        inv = (evecs[:, keep] / evals[keep]) @ dag(evecs[:, keep])
        flat = povm.povd.reshape(len(povm), -1)
        return (flat @ inv.T).reshape(povm.elements.shape), float((1 / evals[keep]).sum())

    @pytest.mark.parametrize('state_class', ['uc', 'gc', 'full'])
    def test_tight_check(self, case, state_class):
        povm, lr = case
        bigd = povm.dim
        d = int(round(np.sqrt(bigd)))
        delta = {'uc': (bigd - 1) ** 2 + 1, 'gc': bigd * (bigd - 1) + 1, 'full': bigd * bigd}[state_class]
        ident = vec(np.eye(bigd, dtype=complex))
        target = ((bigd - 1) / (delta - 1) * class_projector(state_class, d)
                  + (delta - bigd) / ((delta - 1) * bigd) * np.outer(ident, ident.conj()))
        report = tight_check(povm, state_class)
        assert report.residual == pytest.approx(np.linalg.norm(lr - target), abs=1e-12)
        assert report.frame_trace == pytest.approx(np.trace(lr).real, abs=1e-12)
        assert report.frame_trace_sq == pytest.approx(np.trace(lr @ lr).real, abs=1e-12)

    @pytest.mark.parametrize('require', ['uc', None])
    def test_canonical_dual(self, case, require):
        povm, lr = case
        expected, _ = self.lr_duals(povm, lr)
        duals = canonical_dual(povm, require=require)
        assert duals.shape == expected.shape and duals.dtype == complex
        assert np.abs(duals - expected).max() <= 1e-12

    def test_dual_frame_norm(self, case):
        povm, lr = case
        expected_duals, expected = self.lr_duals(povm, lr)
        assert dual_frame_norm(povm) == pytest.approx(expected, rel=1e-12)
        assert dual_frame_norm(povm, expected_duals) == pytest.approx(expected, rel=1e-12)


class TestTightCheck:
    def test_11pt_tight_for_unital_class(self, povm11):
        report = tight_check(povm11, 'uc')
        assert report.is_tight_rank_one and report.residual <= 1e-8
        assert report.span_dim == 10
        assert report.frame_trace == pytest.approx(4.0, abs=1e-9)

    def test_11pt_not_tight_for_general_class(self, povm11):
        report = tight_check(povm11, 'gc')
        assert not report.is_tight_rank_one
        assert report.residual > 0.1

    def test_clifford12_tight_for_unital_class(self, povm12):
        assert tight_check(povm12, 'uc').is_tight_rank_one

    def test_maximally_entangled_povms_obstruct_gc_tightness(self):
        # Tr(F²) is the t=2 frame potential, bounded below by 2, while the
        # tight gc form would need 2 - 1/d²
        candidates = [povm_from_design(gallery('pu2_11pt')),
                      povm_from_design(gallery('pu2_clifford12')),
                      nonuniform_muub_povm()]
        for povm in candidates:
            report = tight_check(povm, 'gc')
            assert report.frame_trace_sq >= 2 - 1e-9
            assert not report.is_tight_rank_one

    def test_nonuniform_weights_break_uc_tightness(self):
        assert not tight_check(nonuniform_muub_povm(), 'uc').is_tight_rank_one

    def test_full_class_target_is_built_on_the_identity(self, povm11):
        # delta = D² = 16: target (D-1)/(delta-1)·I + (delta-D)/((delta-1)D)|I>><<I|
        report = tight_check(povm11, 'full')
        ident = vec(np.eye(4, dtype=complex))
        target = 3 / 15 * np.eye(16) + 12 / 60 * np.outer(ident, ident.conj())
        assert report.span_dim == 16 and not report.is_tight_rank_one
        assert report.residual == pytest.approx(np.linalg.norm(frame_superop(povm11) - target), abs=1e-14)

    def test_full_class_needs_bipartite_dimension(self):
        povm = DiscretePovm.from_elements([np.eye(3) / 2] * 2)
        for state_class in ('uc', 'gc', 'full'):
            with pytest.raises(InvalidInputError, match='bipartite'):
                tight_check(povm, state_class)
            with pytest.raises(InvalidInputError, match='bipartite'):
                canonical_dual(povm, require=state_class)


class TestCrossStageIdentities:
    """certify's moment residuals read at the POVM stage: at t = 1 the residual times d is the
    POVM defect ||sum F - I||, and at t = 2 it is tight_check's uc residual."""

    @pytest.mark.parametrize('build', [lambda: gallery('pu2_11pt'), qutrit_clifford], ids=['pu2_11pt', 'qutrit216'])
    def test_near_designs(self, build):
        s = build()
        w = s.weights * (1 + 1e-9 * make_rng(7).standard_normal(len(s)))
        s = WeightedUnitarySet(s.dim, s.unitaries, w / w.sum())
        povm = povm_from_design(s)
        defect = np.linalg.norm(povm.elements.sum(axis=0) - np.eye(povm.dim))
        assert 1e-10 < defect < 1e-8           # above the float floor, inside ATOL_POVM
        assert certify(s, 1).moment_residual * s.dim == pytest.approx(defect, rel=1e-5)
        assert certify(s, 2).moment_residual == pytest.approx(tight_check(povm, 'uc').residual, rel=1e-5)

    def test_one_design_that_is_no_two_design(self):
        s = unitary_operator_frame(9, 3)
        povm = povm_from_design(s)
        defect = np.linalg.norm(povm.elements.sum(axis=0) - np.eye(povm.dim))
        assert certify(s, 1).moment_residual * 3 <= 1e-13 and defect <= 1e-13
        residual = tight_check(povm, 'uc').residual
        assert certify(s, 2).moment_residual == pytest.approx(residual, rel=1e-12)
        assert residual == pytest.approx(np.sqrt(7), rel=1e-12)


class TestCanonicalDual:
    def test_11pt_closed_form(self, povm11):
        duals = canonical_dual(povm11, require='uc')
        expected = 3 * povm11.povd - 0.5 * np.eye(4)
        assert np.abs(duals - expected).max() <= 1e-8

    def test_dual_identities(self, povm11):
        duals = canonical_dual(povm11)
        total = np.einsum('x,xij->ij', povm11.trace_measure, duals)
        assert np.linalg.norm(total - np.eye(4)) <= 1e-9
        assert np.allclose(np.trace(duals, axis1=1, axis2=2), 1.0, atol=1e-9)

    def test_random_ic_povm_dual_identities(self):
        # generic 16-outcome rank-one POVM: rows of a random isometry
        rng = make_rng(63)
        iso = haar_unitaries(16, 1, rng)[0][:, :4]
        povm = DiscretePovm.from_elements(np.einsum('xa,xb->xab', iso, iso.conj()))
        duals = canonical_dual(povm, require='full')
        total = np.einsum('x,xij->ij', povm.trace_measure, duals)
        assert np.linalg.norm(total - np.eye(4)) <= 1e-8
        # exact reconstruction of arbitrary states through the dual
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rho = m @ dag(m)
        rho /= np.trace(rho)
        probs = np.real(np.einsum('xij,ji->x', povm.elements, rho))
        assert np.linalg.norm(reconstruct(duals, probs) - rho) <= 1e-8

    def test_support_deficit_raises(self):
        # a 9-element 1-design spans only 9 of the 10 unital-class dimensions
        trace = search(SearchConfig(dim=2, size=9, t=1, seed=5, restarts=4, target_gap=1e-12))
        assert trace.converged
        povm = povm_from_design(trace.result)
        evals = np.linalg.eigvalsh(frame_superop(povm))
        assert (evals > 1e-10 * evals.max()).sum() == 9
        with pytest.raises(NotInformationallyCompleteError) as err:
            canonical_dual(povm, require='uc')
        assert err.value.support_dim == 9 and err.value.required_dim == 10

    def test_projector_requirement_rejected(self, povm11):
        # require names a class; a projector in either form is refused before any work
        for pi in (class_projector('uc', 2), class_projector_coords('uc', 2)):
            with pytest.raises(InvalidInputError, match='require must name a state class'):
                canonical_dual(povm11, require=pi)
            with pytest.raises(InvalidInputError, match='require must name a state class'):
                estimate_channel(povm11, np.ones(11), require=pi)

    def test_required_span_must_lie_inside_the_support(self):
        # the rows of a random 10x4 isometry: the support has dimension 10 = delta_uc but
        # does not contain the uc span, so a rank test alone would accept it
        iso = haar_unitaries(10, 1, make_rng(5))[0][:, :4]
        povm = DiscretePovm.from_elements(np.einsum('xa,xb->xab', iso, iso.conj()))
        with pytest.raises(NotInformationallyCompleteError) as err:
            canonical_dual(povm, require='uc')
        assert err.value.support_dim == err.value.required_dim == 10
        # without a requirement the duals still reconstruct inside the support
        duals = canonical_dual(povm)
        total = np.einsum('x,xij->ij', povm.trace_measure, duals)
        assert np.linalg.norm(total - np.eye(4)) <= 1e-9


class TestDualOptimality:
    def test_tight_povm_achieves_bound(self, povm11):
        duals = canonical_dual(povm11)
        # (delta-1)²/(D-1) + 1 = 81/3 + 1 = 28 at delta=10, D=4
        assert dual_frame_norm(povm11) == pytest.approx(28.0, abs=1e-6)
        assert dual_frame_norm(povm11, duals) == pytest.approx(28.0, abs=1e-6)
        assert tight_check(povm11, 'uc').dual_norm_bound == pytest.approx(28.0)

    def test_non_tight_povm_on_same_support_exceeds_bound(self):
        povm = nonuniform_muub_povm()
        evals = np.linalg.eigvalsh(frame_superop(povm))
        assert (evals > 1e-10 * evals.max()).sum() == 10
        assert dual_frame_norm(povm) > 28.0 + 1e-3


class TestProbabilitiesAndSampling:
    def test_exact_probabilities_sum_to_one(self, povm11):
        sigma = jamiolkowski(channel_gallery('identity', 2))
        p = outcome_probabilities(povm11, sigma)
        assert abs(p.sum() - 1) <= 1e-12 and p.min() >= 0

    def test_probability_defect_raises(self, povm11):
        sigma = jamiolkowski(channel_gallery('identity', 2)) * 1.001
        with pytest.raises(InvalidInputError):
            outcome_probabilities(povm11, sigma)

    def test_large_negative_probability_raises(self):
        elements = [np.diag([1.0, 0, 0, 0.5]), np.diag([0, 1.0, 1.0, 0.5])]
        povm = DiscretePovm.from_elements(elements)
        bad = np.diag([-0.001, 0.5, 0.501, 0.0]).astype(complex)
        with pytest.raises(InvalidInputError):
            outcome_probabilities(povm, bad)

    def test_sampling_is_deterministic_and_consistent(self):
        p = np.array([0.1, 0.2, 0.3, 0.4])
        c1 = sample_counts(p, 10_000, make_rng(5))
        c2 = sample_counts(p, 10_000, make_rng(5))
        assert np.array_equal(c1, c2)
        assert c1.sum() == 10_000
        assert np.abs(c1 / 10_000 - p).max() <= 0.02


class TestPredictedError:
    def test_quoted_values_at_d2(self):
        assert predicted_error(2, 1.0, 1, 'uc') == pytest.approx(6.0)
        assert predicted_error(2, 1.0, 1, 'full') == pytest.approx(18.0)
        # general-channel row: 16 - 4 + 1/4 - 1, equivalently (49 - 4)/4
        assert predicted_error(2, 1.0, 1, 'gc') == pytest.approx(11.25)

    def test_shot_scaling(self):
        assert predicted_error(2, 0.5, 100, 'uc') == pytest.approx(6.5 / 100)

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            predicted_error(2, 1.0, 1, 'mystery')
        with pytest.raises(InvalidInputError):
            predicted_error(2, 0.1, 1, 'uc')
        with pytest.raises(InvalidInputError):
            predicted_error(2, 1.0, 0, 'uc')

    @pytest.mark.parametrize('d', [2, 3])
    def test_reads_the_dual_norm_bound_of_tight_check(self, d):
        povm = povm_from_design(gallery('pu2_11pt')) if d == 2 else qutrit_clifford_povm()
        for state_class in ('uc', 'gc', 'full'):
            bound = tight_check(povm, state_class).dual_norm_bound
            for purity in (1.0 / d ** 2, 0.37, 1.0):
                for shots in (1, 7, 4000):
                    assert predicted_error(d, purity, shots, state_class) == (bound / d ** 2 - purity) / shots

    @pytest.mark.parametrize('d', [2, 3, 4])
    def test_class_polynomials_bit_for_bit(self, d):
        polys = {'full': d ** 4 + d ** 2 - 1, 'gc': d ** 4 - d ** 2 + 1.0 / d ** 2, 'uc': d ** 4 - 3 * d ** 2 + 3}
        for state_class, poly in polys.items():
            for purity in (1.0 / d ** 2, 0.37, 1.0):
                for shots in (1, 7, 4000):
                    assert predicted_error(d, purity, shots, state_class) == (poly - purity) / shots


class TestGuardBoundaries:
    """Each guard flips at its value in the tolerance table."""

    @pytest.mark.parametrize('defect,accepted', [(0.99e-8, True), (1.01e-8, False)])
    def test_design_povm_completeness(self, defect, accepted):
        # utof(4, 2) gives an orthonormal ket basis: moving weight e from one
        # element to another leaves ||sum F - I|| = 4·sqrt(2)·e
        e = defect / (4 * np.sqrt(2))
        s = WeightedUnitarySet(2, unitary_operator_frame(4, 2).unitaries, [0.25 + e, 0.25 - e, 0.25, 0.25])
        if accepted:
            povm = povm_from_design(s)
            assert np.linalg.norm(povm.elements.sum(axis=0) - np.eye(4)) == pytest.approx(defect, rel=1e-6)
        else:
            with pytest.raises(NotAPovmError) as err:
                povm_from_design(s)
            assert err.value.residual == pytest.approx(defect, rel=1e-6)

    @pytest.mark.parametrize('s,count', [(gallery('pu2_11pt'), 256), (unitary_operator_frame(20, 2), 320)],
                             ids=['frame', 'elements'])
    def test_design_povm_entries(self, monkeypatch, s, count):
        # max(n, D²)·D²: the 16 × 16 frame of pu2_11pt, the 20 elements of 16 entries of utof(20, 2)
        monkeypatch.setattr(linalg, 'MAX_ENTRIES', count)
        assert len(povm_from_design(s)) == len(s)
        monkeypatch.setattr(linalg, 'MAX_ENTRIES', count - 1)
        with pytest.raises(ResourceLimitError, match=rf'^the POVM elements and frame max\(n, D²\)·D² = {count} entries '
                                                     rf'exceeds the guard {count - 1}$'):
            povm_from_design(s)

    def test_tight_check_flips_at_its_tolerance(self):
        # shifting weight e between two MUUBs keeps the union complete and
        # moves the uc frame residual linearly in e
        unitaries = np.concatenate([b.unitaries for b in pu2_muub_family()])

        def shifted(e):
            weights = np.repeat([1 / 12 + e, 1 / 12 - e, 1 / 12], 4)
            return tight_check(povm_from_design(WeightedUnitarySet(2, unitaries, weights)), 'uc')

        slope = shifted(1e-4).residual / 1e-4
        for residual, tight in ((0.99e-8, True), (1.01e-8, False)):
            report = shifted(residual / slope)
            assert report.residual == pytest.approx(residual, rel=1e-4)
            assert report.is_tight_rank_one is tight

    def test_probability_clamp_and_total(self):
        povm = DiscretePovm.from_elements([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        floored = outcome_probabilities(povm, np.diag([1 + 0.5e-12, -0.5e-12]))
        assert floored[1] == 0.0 and floored.sum() == 1.0
        with pytest.raises(InvalidInputError, match='negative outcome probability'):
            outcome_probabilities(povm, np.diag([1 + 2e-12, -2e-12]))
        assert outcome_probabilities(povm, np.diag([0.5 + 0.5e-9, 0.5])).sum() == pytest.approx(1.0)
        with pytest.raises(InvalidInputError, match='sum to'):
            outcome_probabilities(povm, np.diag([0.5 + 2e-9, 0.5]))


class TestSimulate:
    def test_exact_probability_reconstruction(self, povm11):
        sigma = jamiolkowski(channel_gallery('identity', 2))
        duals = canonical_dual(povm11, require='uc')
        rho_hat = reconstruct(duals, outcome_probabilities(povm11, sigma))
        assert np.linalg.norm(rho_hat - sigma) <= 1e-9

    def test_identity_channel_error_law(self, povm11):
        report = simulate(povm11, channel_gallery('identity', 2), 10_000, 120, make_rng(42))
        assert report.state_class == 'uc'
        assert report.predicted == pytest.approx(6.0 / 10_000)
        assert abs(report.z_score) <= 5.0

    def test_clifford12_depolarizing_error_law(self, povm12):
        report = simulate(povm12, depolarizing_channel(0.5, 2), 20_000, 150, make_rng(43))
        assert report.purity == pytest.approx(7 / 16, abs=1e-12)
        assert report.predicted == pytest.approx(6.5625 / 20_000)
        assert abs(report.z_score) <= 5.0

    def test_unbiasedness_of_estimates(self, povm11):
        channel = depolarizing_channel(0.5, 2)
        sigma = jamiolkowski(channel)
        duals = canonical_dual(povm11, require='uc')
        probs = outcome_probabilities(povm11, sigma)
        rng = make_rng(77)
        trials, shots = 500, 10_000
        acc = np.zeros((4, 4), dtype=complex)
        acc_sq = np.zeros((4, 4))
        for child in rng.spawn(trials):
            rho_hat = reconstruct(duals, sample_counts(probs, shots, child) / shots)
            acc += rho_hat
            acc_sq += np.abs(rho_hat) ** 2
        mean = acc / trials
        stderr = np.sqrt(np.maximum(acc_sq / trials - np.abs(mean) ** 2, 1e-30) / trials)
        assert np.all(np.abs(mean - sigma) <= 5 * stderr + 1e-12)

    def test_summary_matches_per_trial_reconstruction(self, povm12):
        channel = depolarizing_channel(0.3, 2)
        shots, trials = 2_000, 40
        report = simulate(povm12, channel, shots, trials, make_rng(19))
        sigma = jamiolkowski(channel)
        duals = canonical_dual(povm12, require='uc')
        counts = make_rng(19).multinomial(shots, outcome_probabilities(povm12, sigma), size=trials)
        errors = np.array([np.linalg.norm(reconstruct(duals, row / shots) - sigma) ** 2
                           for row in counts])
        assert report.empirical_mean == pytest.approx(errors.mean(), rel=1e-12)
        assert report.std_err == pytest.approx(errors.std(ddof=1) / np.sqrt(trials), rel=1e-12)

    def test_simulate_rejects_uc_for_non_unital_channel(self, povm11):
        channel = random_general_channel(3, 2, make_rng(1))
        with pytest.raises(InvalidInputError):
            simulate(povm11, channel, 100, 10, make_rng(2), state_class='uc')

    def test_simulate_needs_two_trials_for_the_standard_error(self, povm11):
        channel = depolarizing_channel(0.5, 2)
        for trials in (0, 1):
            with pytest.raises(InvalidInputError, match='standard error needs two trials'):
                simulate(povm11, channel, 100, trials, make_rng(2))
        assert np.isfinite(simulate(povm11, channel, 100, 2, make_rng(2)).std_err)

    def test_entries_guard_is_checked_before_any_draw(self, povm11, monkeypatch):
        # trials × max(n, D²): the 11 outcomes of pu2_11pt, but D² = 16 estimate coordinates
        monkeypatch.setattr(linalg, 'MAX_ENTRIES', 160)
        channel = depolarizing_channel(0.5, 2)
        assert simulate(povm11, channel, 100, 10, make_rng(2)).trials == 10
        rng = make_rng(2)
        with pytest.raises(ResourceLimitError, match=r'^trials × max\(outcomes, D²\) = 176 entries exceeds the guard 160$'):
            simulate(povm11, channel, 100, 11, rng)
        assert rng.standard_normal(4).tobytes() == make_rng(2).standard_normal(4).tobytes()

    def test_general_channel_needs_gc_support(self, povm11):
        channel = random_general_channel(3, 2, make_rng(3))
        with pytest.raises(NotInformationallyCompleteError):
            simulate(povm11, channel, 100, 10, make_rng(4))

    def test_error_scales_inversely_with_shots(self, povm11):
        channel = channel_gallery('identity', 2)
        rng = make_rng(88)
        means, errs = [], []
        for shots in (1_000, 10_000, 100_000):
            r = simulate(povm11, channel, shots, 150, rng)
            means.append(r.empirical_mean * shots)
            errs.append(r.std_err * shots)
        for i in range(len(means)):
            for j in range(i + 1, len(means)):
                pooled = np.hypot(errs[i], errs[j])
                assert abs(means[i] - means[j]) <= 5 * pooled

    def test_orientation_invariance_for_tight_povm(self, povm11):
        rng = make_rng(99)
        channel = random_unital_mix(2, 2, rng)
        rotated = rotate_channel(channel, haar_unitary(2, rng), haar_unitary(2, rng))
        r1 = simulate(povm11, channel, 5_000, 200, make_rng(1))
        r2 = simulate(povm11, rotated, 5_000, 200, make_rng(2))
        pooled = np.hypot(r1.std_err, r2.std_err)
        assert abs(r1.empirical_mean - r2.empirical_mean) <= 5 * pooled


class TestEstimateChannel:
    def test_exact_counts_recover_identity_channel(self, povm11):
        channel = channel_gallery('identity', 2)
        probs = outcome_probabilities(povm11, jamiolkowski(channel))
        estimate = estimate_channel(povm11, probs * 10 ** 9, require='uc')
        assert channel_distance(estimate, channel) <= 1e-9

    def test_finite_sample_distance_identity(self, povm11):
        channel = depolarizing_channel(0.5, 2)
        sigma = jamiolkowski(channel)
        probs = outcome_probabilities(povm11, sigma)
        counts = sample_counts(probs, 2_000, make_rng(13))
        estimate = estimate_channel(povm11, counts, require='uc')
        rho_hat = reconstruct(canonical_dual(povm11, require='uc'), counts / counts.sum())
        assert abs(channel_distance(estimate, channel) - np.linalg.norm(sigma - rho_hat)) <= 1e-10
        assert np.linalg.norm(estimate.jamiolkowski_state() - rho_hat) <= 1e-12

    def test_unital_estimate_keeps_marginals(self, povm11):
        channel = random_unital_mix(3, 2, make_rng(14))
        probs = outcome_probabilities(povm11, jamiolkowski(channel))
        counts = sample_counts(probs, 5_000, make_rng(15))
        rho_hat = estimate_channel(povm11, counts, require='uc').jamiolkowski_state()
        assert np.linalg.norm(partial_trace(rho_hat, (2, 2), 0) - np.eye(2) / 2) <= 1e-9
        assert np.linalg.norm(partial_trace(rho_hat, (2, 2), 1) - np.eye(2) / 2) <= 1e-9

    def test_count_validation(self, povm11):
        with pytest.raises(InvalidInputError):
            estimate_channel(povm11, np.zeros(11))
        with pytest.raises(InvalidInputError):
            estimate_channel(povm11, np.ones(7))


def test_exact_reconstruction_for_random_unital_channels():
    povm = povm_from_design(gallery('pu2_clifford12'))
    duals = canonical_dual(povm, require='uc')
    rng = make_rng(55)
    for _ in range(20):
        sigma = jamiolkowski(random_unital_mix(int(rng.integers(1, 5)), 2, rng))
        probs = outcome_probabilities(povm, sigma)
        assert np.linalg.norm(reconstruct(duals, probs) - sigma) <= 1e-8
