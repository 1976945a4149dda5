import copy
import importlib

import numpy as np
import pytest

from udesign import linalg
from udesign.designs import WeightedUnitarySet, certify, frame_potential, gallery, gamma
from udesign.errors import InvalidInputError, ResourceLimitError
from udesign.linalg import dag, haar_unitaries, haar_unitary, herm_basis, make_rng
from udesign.povm import povm_from_design
from udesign.search import (
    WEIGHT_MODES,
    SearchConfig,
    _TIES,
    _polish,
    _residual_jacobian,
    objective_and_gradient,
    parametrize,
    refine,
    search,
    theta_from_set,
)

from helpers import expm_hermitian


def central_difference_gradient(theta, dim, size, t, mode='free', step=1e-5):
    grad = np.zeros_like(theta)
    for i in range(len(theta)):
        plus, minus = theta.copy(), theta.copy()
        plus[i] += step
        minus[i] -= step
        grad[i] = (objective_and_gradient(plus, dim, size, t, mode)[0]
                   - objective_and_gradient(minus, dim, size, t, mode)[0]) / (2 * step)
    return grad


class TestParametrize:
    def test_zero_theta_gives_identity_copies(self):
        s = parametrize(np.zeros(3 * 4 + 3), 2, 3)
        assert len(s) == 3
        for u in s.unitaries:
            assert np.allclose(u, np.eye(2), atol=1e-12)
        assert np.allclose(s.weights, 1 / 3)

    def test_single_z_generator_gives_z_rotation(self):
        theta = np.zeros(4 + 1)
        theta[3] = np.pi / 2                      # Z-generator coefficient
        s = parametrize(theta, 2, 1)
        u = s.unitaries[0]
        assert np.linalg.norm(dag(u) @ u - np.eye(2)) <= 1e-10
        z_rot = np.diag([np.exp(1j * np.pi / 2), np.exp(-1j * np.pi / 2)])
        overlap = abs(np.trace(dag(u) @ z_rot)) ** 2
        assert overlap == pytest.approx(4.0, abs=1e-10)   # phase-equivalent

    def test_weights_always_normalized(self):
        rng = make_rng(1)
        for _ in range(5):
            theta = rng.standard_normal(6 * 9 + 6) * 3
            s = parametrize(theta, 3, 6)
            assert s.weights.sum() == pytest.approx(1.0, abs=1e-15)
            assert s.weights.min() > 0

    def test_uniform_mode_ignores_logits(self):
        theta = np.zeros(2 * 4 + 2)
        theta[-1] = 5.0
        s = parametrize(theta, 2, 2, weight_mode='uniform')
        assert np.allclose(s.weights, 0.5)

    def test_per_basis_mode_ties_blocks(self):
        rng = make_rng(2)
        theta = rng.standard_normal(8 * 4 + 8)
        s = parametrize(theta, 2, 8, weight_mode='per-basis')
        w = s.weights.reshape(2, 4)
        assert np.allclose(w, w[:, :1])

    def test_length_validation(self):
        with pytest.raises(InvalidInputError):
            parametrize(np.zeros(10), 2, 3)

    def test_round_trip_through_theta(self):
        s = gallery('pu2_clifford12')
        s2 = parametrize(theta_from_set(s), 2, 12)
        # projective agreement element by element
        for a, b in zip(s.unitaries, s2.unitaries):
            assert abs(np.vdot(a, b)) ** 2 == pytest.approx(4.0, abs=1e-10)
        assert np.allclose(s.weights, s2.weights, atol=1e-12)


@pytest.mark.parametrize('mode', WEIGHT_MODES)
@pytest.mark.parametrize('d', [2, 3])
def test_weight_ties_are_self_adjoint(mode, d):
    # <Ta, b> = <a, Tb>, so the gradient pulls the logit gradient back through T itself
    a, b = make_rng(d).standard_normal((2, 3 * d * d))
    tie = _TIES[mode]
    assert np.dot(tie(a, d), b) == pytest.approx(np.dot(a, tie(b, d)), rel=1e-14, abs=1e-15)


class TestGradient:
    @pytest.mark.parametrize('dim,size,t,mode', [
        pytest.param(2, 4, 2, 'free', id='free'),
        pytest.param(2, 4, 2, 'uniform', id='uniform'),
        pytest.param(2, 4, 2, 'per-basis', id='per-basis'),
        pytest.param(3, 6, 2, 'free', id='d3-n6-t2'),
        pytest.param(3, 9, 2, 'per-basis', id='d3-n9-t2-per-basis'),
        pytest.param(2, 5, 3, 'free', id='d2-n5-t3'),
    ])
    def test_matches_central_differences(self, dim, size, t, mode):
        rng = make_rng(3)
        theta = rng.standard_normal(size * dim ** 2 + size)
        _, analytic = objective_and_gradient(theta, dim, size, t, mode)
        numeric = central_difference_gradient(theta, dim, size, t, mode)
        assert np.linalg.norm(analytic - numeric) <= 1e-4 * max(1.0, np.linalg.norm(numeric))

    def test_matches_central_differences_d3(self):
        rng = make_rng(4)
        size, dim, t = 3, 3, 1
        theta = rng.standard_normal(size * 9 + size)
        _, analytic = objective_and_gradient(theta, dim, size, t)
        numeric = central_difference_gradient(theta, dim, size, t)
        assert np.linalg.norm(analytic - numeric) <= 1e-4 * max(1.0, np.linalg.norm(numeric))

    def test_degenerate_spectrum_handled(self):
        # zero generator hits equal eigenvalues in the divided differences
        theta = np.zeros(2 * 4 + 2)
        value, grad = objective_and_gradient(theta, 2, 2, 1)
        numeric = central_difference_gradient(theta, 2, 2, 1)
        assert np.isfinite(value)
        assert np.linalg.norm(grad - numeric) <= 1e-6


class TestObjectiveInvariance:
    def test_phase_and_global_rotation(self):
        rng = make_rng(5)
        size = 5
        theta = rng.standard_normal(size * 4 + size)
        s = parametrize(theta, 2, size)
        base = frame_potential(s, 2)
        phased = s.unitaries * np.exp(1j * rng.uniform(0, 2 * np.pi, size))[:, None, None]
        v = haar_unitary(2, rng)
        rotated = np.einsum('ab,nbc->nac', v, s.unitaries)
        for variant in (phased, rotated):
            flat = variant.reshape(size, -1)
            pot = float(np.real(s.weights @ (np.abs(flat.conj() @ flat.T) ** 4) @ s.weights))
            assert abs(pot - base) <= 1e-10


class TestSearch:
    def test_finds_12_point_two_design(self):
        trace = search(SearchConfig(dim=2, size=12, t=2, seed=7, target_gap=1e-7))
        assert trace.converged
        assert trace.gap_history[-1] <= 1e-6
        cert = certify(trace.result, 2)
        assert cert.passed

    def test_nine_points_cannot_reach_two_design(self):
        # below the 10-point cardinality bound the gap stays away from zero
        trace = search(SearchConfig(dim=2, size=9, t=2, seed=7, restarts=10))
        assert not trace.converged
        assert trace.gap_history[-1] > 0.05

    def test_eleven_point_weighted_design_found(self):
        trace = search(SearchConfig(dim=2, size=11, t=2, seed=3, weight_mode='free'))
        assert trace.converged
        assert len(np.unique(np.round(trace.result.weights, 6))) > 1

    def test_singleton_one_design_gap(self):
        trace = search(SearchConfig(dim=2, size=1, t=1, seed=1, restarts=3))
        # oracle: the singleton potential is |tr(U†U)|² = d⁴·w² = 4 at any
        # unitary, so the best gap is d² - 1 = 3
        assert trace.gap_history[-1] == pytest.approx(3.0, abs=1e-9)
        assert not trace.converged

    def test_gap_history_non_increasing(self):
        trace = search(SearchConfig(dim=2, size=6, t=2, seed=11, restarts=4, max_iterations=200))
        assert np.all(np.diff(trace.gap_history) <= 1e-15)

    def test_deterministic_given_seed(self):
        config = SearchConfig(dim=2, size=5, t=1, seed=21, restarts=3, max_iterations=300)
        t1, t2 = search(config), search(config)
        assert np.array_equal(t1.gap_history, t2.gap_history)
        assert np.allclose(t1.result.unitaries, t2.result.unitaries)
        assert np.allclose(t1.result.weights, t2.result.weights)

    def test_restart_streams_are_the_philox_children_of_the_seed(self, monkeypatch):
        # reference: one Philox generator per child of SeedSequence(seed)
        module = importlib.import_module('udesign.search')     # the package binds the name to the function
        draws = []
        original = module._initial_theta

        def spy(config, rng):
            draws.append(copy.deepcopy(rng).standard_normal(16))
            return original(config, rng)

        monkeypatch.setattr(module, '_initial_theta', spy)
        for seed in (0, 7, 2 ** 40 + 3):
            draws.clear()
            trace = search(SearchConfig(dim=2, size=1, t=1, seed=seed, restarts=3, max_iterations=5))
            assert not trace.converged and len(draws) == 3
            children = np.random.SeedSequence(seed).spawn(3)
            for got, child in zip(draws, children):
                expected = np.random.Generator(np.random.Philox(child)).standard_normal(16)
                assert got.tobytes() == expected.tobytes()

    def test_output_satisfies_set_invariants(self):
        trace = search(SearchConfig(dim=2, size=12, t=2, seed=7))
        s = trace.result
        assert abs(s.weights.sum() - 1) <= 1e-9
        ident = np.eye(2)
        for u in s.unitaries:
            assert np.linalg.norm(dag(u) @ u - ident) <= 1e-9

    def test_uniform_mode_search(self):
        trace = search(SearchConfig(dim=2, size=12, t=2, seed=9, weight_mode='uniform'))
        assert trace.converged
        assert np.allclose(trace.result.weights, trace.result.weights[0])

    def test_config_validation(self):
        with pytest.raises(InvalidInputError):
            SearchConfig(dim=2, size=0, t=2)
        for gap in (0.0, -1.0, float('nan'), float('inf')):
            with pytest.raises(InvalidInputError, match='target_gap must be finite and positive'):
                SearchConfig(dim=2, size=4, t=2, target_gap=gap)
        with pytest.raises(InvalidInputError):
            SearchConfig(dim=2, size=6, t=2, weight_mode='per-basis')
        with pytest.raises(InvalidInputError):
            SearchConfig(dim=2, size=4, t=2, weight_mode='sorted')

    @pytest.mark.parametrize('dim', [1, 0, 2.5])
    def test_dim_below_two_or_fractional_is_refused(self, dim):
        with pytest.raises(InvalidInputError, match=f"^'dim' must be an integer >= 2, got {dim}$"):
            SearchConfig(dim=dim, size=4, t=1)

    def test_t_must_be_positive(self):
        with pytest.raises(InvalidInputError, match='^t must be >= 1, got 0$'):
            SearchConfig(dim=2, size=4, t=0)

    @pytest.mark.parametrize('field', ['restarts', 'max_iterations'])
    @pytest.mark.parametrize('value', [0, -1, -5])
    def test_restarts_and_iterations_must_be_positive(self, field, value):
        with pytest.raises(InvalidInputError, match=f'^{field} must be >= 1, got {value}$'):
            SearchConfig(dim=2, size=4, t=1, **{field: value})
        assert getattr(SearchConfig(dim=2, size=4, t=1, **{field: 1}), field) == 1

    @pytest.mark.parametrize('dim,size', [(100, 10_000), (57, 4), (2, 3163), (np.int64(60_000), 4)])
    def test_generators_and_overlaps_above_the_entries_guard_are_refused(self, dim, size):
        # d⁴ = 10,556,001 at d = 57 and n² = 10,004,569 at n = 3163; d = 56 and n = 3162 fit.
        # d⁴ at d = 60,000 overflows int64, so it is counted in Python integers
        entries = max(int(dim) ** 4, size ** 2)
        with pytest.raises(ResourceLimitError, match=f'^the larger of the d⁴ generators and n² overlaps = {entries} '
                                                     f'entries exceeds the guard {linalg.MAX_ENTRIES}$'):
            SearchConfig(dim=dim, size=size, t=2)
        assert SearchConfig(dim=min(dim, 56), size=min(size, 3162), t=2).size == min(size, 3162)


def povm_defect(s):
    povm = povm_from_design(s)
    return np.linalg.norm(povm.elements.sum(axis=0) - np.eye(s.dim ** 2))


class TestConvergedSetsBuildPovms:
    # The gap bottoms out near 1e-16 while the 1-design residual, which is the
    # POVM defect, can still be near 1e-8; converged results are polished so
    # that povm_from_design accepts them with its 1e-8 guard unchanged.
    @pytest.mark.parametrize('dim, size, t, mode', [
        pytest.param(2, 11, 2, 'free', id='2-11-2'), pytest.param(3, 9, 1, 'free', id='3-9-1'),
        pytest.param(2, 12, 2, 'uniform', id='2-12-2-uniform'),
        pytest.param(2, 12, 2, 'per-basis', id='2-12-2-per-basis')])
    def test_converged_search_builds_povm_and_certifies(self, dim, size, t, mode):
        for seed in range(301, 309):
            trace = search(SearchConfig(dim=dim, size=size, t=t, seed=seed, weight_mode=mode))
            assert trace.converged
            assert povm_defect(trace.result) <= 1e-12
            assert certify(trace.result, t).passed

    def test_nine_point_one_design_defect_at_float_precision(self):
        trace = search(SearchConfig(dim=2, size=9, t=1, seed=5, restarts=4, target_gap=1e-12))
        assert trace.converged
        assert povm_defect(trace.result) <= 1e-12


def random_set(d, n, rng):
    weights = rng.uniform(0.5, 1.5, n)
    return haar_unitaries(d, n, rng), weights / weights.sum()


def residual_matrix(unitaries, weights):
    d = unitaries.shape[-1]
    flat = unitaries.reshape(len(unitaries), -1)
    return d * (weights * flat.T) @ flat.conj() - np.eye(d * d)


class TestPolishJacobian:
    # LSMR reads the polish Jacobian only through its hand-written products
    @pytest.mark.parametrize('d', [2, 3])
    @pytest.mark.parametrize('free_weights', [True, False])
    def test_adjoint_matches_forward(self, d, free_weights):
        rng = make_rng(12)
        jac = _residual_jacobian(*random_set(d, d * d + 2, rng), free_weights)
        for _ in range(5):
            v, r = rng.standard_normal(jac.shape[1]), rng.standard_normal(jac.shape[0])
            forward, adjoint = (jac @ v) @ r, v @ jac.rmatvec(r)
            assert abs(forward - adjoint) <= 1e-12 * np.linalg.norm(jac @ v) * np.linalg.norm(r)

    @pytest.mark.parametrize('d', [2, 3])
    @pytest.mark.parametrize('free_weights', [True, False])
    def test_forward_matches_central_differences(self, d, free_weights):
        # oracle: R along U_x -> exp(i eps G_x) U_x, G_x = sum_k v_xk sqrt(d) b_k over the
        # traceless basis elements, and log w -> log w + eps delta through a softmax
        import scipy.linalg

        rng = make_rng(13)
        n = d * d + 2
        unitaries, weights = random_set(d, n, rng)
        jac = _residual_jacobian(unitaries, weights, free_weights)
        v = rng.standard_normal(jac.shape[1])
        gens = np.einsum('xk,kab->xab', v[:n * (d * d - 1)].reshape(n, -1), np.sqrt(d) * herm_basis(d)[1:])

        def moved(eps):
            u = np.array([scipy.linalg.expm(1j * eps * g) @ x for g, x in zip(gens, unitaries)])
            logits = np.log(weights) + (eps * v[n * (d * d - 1):] if free_weights else 0.0)
            return residual_matrix(u, np.exp(logits) / np.exp(logits).sum())

        eps = 1e-6
        numeric = ((moved(eps) - moved(-eps)) / (2 * eps)).reshape(-1).view(float)
        assert np.linalg.norm(jac @ v - numeric) <= 1e-7 * np.linalg.norm(numeric)


def test_polish_retries_a_rejected_step_with_more_damping(monkeypatch):
    # the first LSMR step is scaled up a thousandfold, so |R| grows and the step
    # is refused; the retry must solve with ten times the damping at the same set
    import scipy.sparse.linalg

    lsmr, damps = scipy.sparse.linalg.lsmr, []

    def overshoot_once(op, b, damp, **kwargs):
        damps.append(damp)
        step, *rest = lsmr(op, b, damp=damp, **kwargs)
        return (step * (1e3 if len(damps) == 1 else 1.0), *rest)

    monkeypatch.setattr(scipy.sparse.linalg, 'lsmr', overshoot_once)
    s = gallery('pu2_11pt')
    rng = make_rng(14)
    moved = np.array([expm_hermitian(1e-4 * (g + dag(g))) @ u
                      for g, u in zip(rng.standard_normal((11, 2, 2)) + 1j * rng.standard_normal((11, 2, 2)),
                                      s.unitaries)])
    polished = _polish(WeightedUnitarySet(2, moved, s.weights), free_weights=True)
    assert len(damps) > 2 and damps[1] == 10 * damps[0]
    assert np.linalg.norm(residual_matrix(polished.unitaries, polished.weights)) <= 8 * np.finfo(float).eps * 4


class TestRefine:
    def test_optimal_input_stays_optimal(self):
        s = gallery('pu2_11pt')
        trace = refine(s, SearchConfig(dim=2, size=11, t=2, seed=0))
        assert trace.converged
        assert trace.gap_history[-1] <= 1e-9

    def test_recovers_from_small_noise(self):
        rng = make_rng(6)
        theta = theta_from_set(gallery('pu2_11pt'))
        noisy = parametrize(theta + 1e-3 * rng.standard_normal(theta.shape), 2, 11)
        trace = refine(noisy, SearchConfig(dim=2, size=11, t=2, seed=0, target_gap=1e-6))
        assert trace.converged
        assert trace.gap_history[-1] <= 1e-6

    def test_never_returns_larger_gap(self):
        rng = make_rng(7)
        theta = rng.standard_normal(11 * 4 + 11)
        start = parametrize(theta, 2, 11)
        input_gap = frame_potential(start, 2) - gamma(2, 2)
        trace = refine(start, SearchConfig(dim=2, size=11, t=2, seed=0, max_iterations=50))
        assert trace.gap_history[-1] <= input_gap + 1e-12
        assert np.all(np.diff(trace.gap_history) <= 1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            refine(gallery('pu2_11pt'), SearchConfig(dim=3, size=11, t=2))
        with pytest.raises(InvalidInputError):
            refine(gallery('pu2_11pt'), SearchConfig(dim=2, size=12, t=2))
