import copy
import importlib
import re
import tracemalloc

import numpy as np
import pytest

from udesign import designs, linalg
from udesign.designs import WeightedUnitarySet, certify, frame_potential, gallery, gamma
from udesign.errors import InvalidInputError, ResourceLimitError
from udesign.linalg import ATOL_CERT, dag, haar_unitaries, haar_unitary, herm_basis, make_rng
from udesign.povm import povm_from_design
from udesign.search import (
    WEIGHT_MODES,
    ObjectiveWorkspace,
    SearchConfig,
    _TIES,
    _chart,
    _eigh_chart,
    _generators,
    _moment_jacobian,
    _polish_moment,
    _tie,
    _weights_from_logits,
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


def test_unknown_weight_mode_is_a_usage_error_at_every_entry_point():
    message = re.escape(f"weight_mode must be one of {WEIGHT_MODES}")
    for call in (lambda: parametrize(np.zeros(5), 2, 1, 'bogus'),
                 lambda: objective_and_gradient(np.zeros(5), 2, 1, 1, 'bogus'),
                 lambda: SearchConfig(dim=2, size=1, t=1, weight_mode='bogus')):
        with pytest.raises(InvalidInputError, match=f'^{message}$'):
            call()


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


def reference_objective_and_gradient(theta, dim, size, t, weight_mode='free'):
    """The objective as first written, one fresh array per step, through the same chart and
    pullback: the bit-level oracle of the workspace."""
    d2 = dim * dim
    theta = np.asarray(theta, dtype=float)
    theta_u = theta[:size * d2].reshape(size, d2)
    logits = theta[size * d2:]
    w = _weights_from_logits(logits, weight_mode, dim)
    unitaries, pullback = _chart(theta_u, dim)

    flat = unitaries.reshape(size, -1)
    overlaps = flat.conj() @ flat.T
    abs2 = overlaps.real ** 2 + overlaps.imag ** 2
    lower = abs2 ** (t - 1)
    abs2_t = lower * abs2
    potential = float(w @ abs2_t @ w)
    gap = potential - float(gamma(t, dim))

    pair = np.outer(w, w) * t * lower * overlaps
    grad_u = pullback(4.0 * (pair.T @ flat).reshape(size, dim, dim))

    dpot_dw = 2.0 * abs2_t @ w
    grad_w = _tie(weight_mode)(w * (dpot_dw - np.dot(w, dpot_dw)), dim)
    return gap, np.concatenate([grad_u.reshape(-1), grad_w])


class TestQubitChart:
    # the closed-form chart at d = 2 against the eigendecomposition chart of d >= 3, kept here as
    # the oracle, over all four generators (I, X, Y, Z) and over the traceless three the polish
    # steps through.  At the listed radii r = |a| the phase φ is 0: the oracle's divided
    # differences at eigenvalues φ ± r cancel to about eps/r relative when φ is not small (3.6e-7
    # at r = 1e-9), so random θ covers the phase
    @pytest.mark.parametrize('radius', [None, 0.0, 1e-9, 0.999e-3, 1.001e-3, np.pi / 2, np.pi, 5.0])
    @pytest.mark.parametrize('width', [4, 3])
    def test_matches_the_eigh_chart(self, width, radius):
        rng = make_rng(19)
        coeffs = rng.standard_normal((40, width))
        k_ops = rng.standard_normal((40, 2, 2)) + 1j * rng.standard_normal((40, 2, 2))
        if radius is not None:
            a = coeffs[:, -3:]
            a *= radius / np.linalg.norm(a, axis=1, keepdims=True)
            coeffs[:, :width - 3] = 0.0
        unitaries, pullback = _chart(coeffs, 2)
        expected, oracle = _eigh_chart(coeffs, _generators(2)[-width:])
        assert np.linalg.norm(unitaries - expected) <= 1e-14 * np.linalg.norm(expected)
        grad, want = pullback(k_ops), oracle(k_ops)
        assert grad.shape == want.shape == (40, width)
        assert np.linalg.norm(grad - want) <= 1e-14 * np.linalg.norm(want)

    @pytest.mark.parametrize('d', [2, 3])
    def test_theta_from_set_round_trips_through_parametrize(self, d):
        # theta holds the principal logs' coefficients, the phase included, so parametrize gives
        # the unitaries back, not only their rays, and the weights
        rng = make_rng(22)
        sets = [WeightedUnitarySet(d, *random_set(d, 30, rng))]
        sets += [gallery(name) for name in ('pu2_11pt', 'pu2_clifford12', 'pu2_600cell')] if d == 2 else []
        for s in sets:
            back = parametrize(theta_from_set(s), d, len(s))
            assert np.abs(back.unitaries - s.unitaries).max() <= 1e-13
            assert np.allclose(back.weights, s.weights, rtol=1e-13, atol=0)


class TestObjectiveWorkspace:
    @pytest.mark.parametrize('mode', WEIGHT_MODES)
    @pytest.mark.parametrize('t', [1, 2, 3, 4, 5])
    @pytest.mark.parametrize('d', [2, 3])
    def test_bit_identical_to_the_allocating_objective(self, d, t, mode):
        # theta A, then B, then A again in one workspace: no state carries over
        size = 2 * d * d
        theta_a, theta_b = make_rng(10 * d + t).standard_normal((2, size * d * d + size))
        workspace = ObjectiveWorkspace.empty(size)
        for theta in (theta_a, theta_b, theta_a):
            value, grad = reference_objective_and_gradient(theta, d, size, t, mode)
            for kwargs in ({}, {'workspace': workspace}):
                got_value, got_grad = objective_and_gradient(theta, d, size, t, mode, **kwargs)
                assert np.float64(got_value).tobytes() == np.float64(value).tobytes()
                assert got_grad.tobytes() == grad.tobytes()
                assert not any(np.shares_memory(got_grad, buf) for buf in vars(workspace).values())

    def test_warm_evaluation_allocates_nothing_of_size_n_squared(self):
        # numpy reports its buffers to tracemalloc; one fresh n × n float array is n²·8 bytes
        d, size, t = 2, 400, 2
        theta = make_rng(8).standard_normal(size * d * d + size)
        workspace = ObjectiveWorkspace.empty(size)
        objective_and_gradient(theta, d, size, t, workspace=workspace)
        tracemalloc.start()
        try:
            objective_and_gradient(theta, d, size, t, workspace=workspace)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < size * size * 8

    def test_workspace_of_another_size_is_refused(self):
        with pytest.raises(InvalidInputError, match='^workspace is for n = 3, not n = 4$'):
            objective_and_gradient(np.zeros(4 * 4 + 4), 2, 4, 2, workspace=ObjectiveWorkspace.empty(3))


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
        trace = search(SearchConfig(dim=2, size=12, t=2, seed=7, target_residual=1e-7))
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
        assert t1.gap_history.tobytes() == t2.gap_history.tobytes()
        assert t1.result.unitaries.tobytes() == t2.result.unitaries.tobytes()
        assert t1.result.weights.tobytes() == t2.result.weights.tobytes()

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
        for residual in (0.0, -1.0, float('nan'), float('inf')):
            with pytest.raises(InvalidInputError, match='target_residual must be finite and positive'):
                SearchConfig(dim=2, size=4, t=2, target_residual=residual)
        with pytest.raises(InvalidInputError):
            SearchConfig(dim=2, size=6, t=2, weight_mode='per-basis')
        with pytest.raises(InvalidInputError):
            SearchConfig(dim=2, size=4, t=2, weight_mode='sorted')

    @pytest.mark.parametrize('dim', [1, 0, 2.5])
    def test_dim_below_two_or_fractional_is_refused(self, dim):
        with pytest.raises(InvalidInputError, match=f"^'dim' must be an integer >= 2, got {dim}$"):
            SearchConfig(dim=dim, size=4, t=1)

    def test_t_must_be_positive(self):
        with pytest.raises(InvalidInputError, match='^t must be an integer >= 1, got 0$'):
            SearchConfig(dim=2, size=4, t=0)

    def test_t_beyond_the_layout_guard_is_refused_before_any_draw(self, monkeypatch):
        # the closing certify needs the symmetric layout: 3·t!·m = 3·8!·165 entries at t = 8
        def undrawn(*args):
            raise AssertionError('a starting point was drawn')

        monkeypatch.setattr(importlib.import_module('udesign.search'), '_initial_theta', undrawn)
        with pytest.raises(ResourceLimitError, match='^the symmetric layout 3·t!·m = 19958400 entries '
                                                     'exceeds the guard 10000000$'):
            search(SearchConfig(dim=2, size=4, t=8, restarts=1))
        with pytest.raises(ResourceLimitError, match='^the symmetric layout 3·m² = 124227675 entries'):
            SearchConfig(dim=3, size=4, t=7)

    def test_the_layout_is_counted_not_built(self, monkeypatch):
        def unbuilt(*args):
            raise AssertionError('the symmetric layout was built')

        monkeypatch.setattr(designs, '_build_sym_layout', unbuilt)
        assert SearchConfig(dim=3, size=4, t=5).t == 5

    @pytest.mark.parametrize('field', ['restarts', 'max_iterations'])
    @pytest.mark.parametrize('value', [0, -1, -5])
    def test_restarts_and_iterations_must_be_positive(self, field, value):
        with pytest.raises(InvalidInputError, match=f'^{field} must be an integer >= 1, got {value}$'):
            SearchConfig(dim=2, size=4, t=1, **{field: value})
        assert getattr(SearchConfig(dim=2, size=4, t=1, **{field: 1}), field) == 1

    @pytest.mark.parametrize('dim,size', [(100, 10_000), (57, 4), (2, 3163), (np.int64(60_000), 4)])
    def test_generators_and_overlaps_above_the_entries_guard_are_refused(self, dim, size):
        # d⁴ = 10,556,001 at d = 57 and n² = 10,004,569 at n = 3163; n = 3162 fits.  d⁴ at
        # d = 60,000 overflows int64, so it is counted in Python integers.  The symmetric
        # layout's 3·m² is counted next: 3·d⁴ at t = 1, which admits d <= 42, and at t = 2 it
        # refuses every d >= 8
        entries = max(int(dim) ** 4, size ** 2)
        with pytest.raises(ResourceLimitError, match=f'^the larger of the d⁴ generators and n² overlaps = {entries} '
                                                     f'entries exceeds the guard {linalg.MAX_ENTRIES}$'):
            SearchConfig(dim=dim, size=size, t=1)
        assert SearchConfig(dim=min(dim, 42), size=min(size, 3162), t=1).size == min(size, 3162)
        with pytest.raises(ResourceLimitError, match=f'^the symmetric layout 3·m² = {3 * 2080 ** 2} entries exceeds'):
            SearchConfig(dim=8, size=4, t=2)
        assert SearchConfig(dim=7, size=4, t=2).dim == 7


def povm_defect(s):
    povm = povm_from_design(s)
    return np.linalg.norm(povm.elements.sum(axis=0) - np.eye(s.dim ** 2))


class TestConvergedSetsBuildPovms:
    # The gap bottoms out near 1e-16 while the 1-design residual, d times which is the
    # POVM defect, can still be near 1e-8; converged results are polished to the float
    # floor, so their POVM defect is far inside povm_from_design's d·ATOL_CERT.
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
        trace = search(SearchConfig(dim=2, size=9, t=1, seed=5, restarts=4, target_residual=1e-12))
        assert trace.converged
        assert povm_defect(trace.result) <= 1e-12


def random_set(d, n, rng):
    weights = rng.uniform(0.5, 1.5, n)
    return haar_unitaries(d, n, rng), weights / weights.sum()


def moment_residual(unitaries, weights, t):
    """R = sum_x w_x p_x p_x† - H̃ on Sym^t, and the vectors p_x."""
    layout = designs._sym_layout(t, unitaries.shape[-1])
    p = layout.vectors(unitaries.reshape(len(unitaries), -1))
    return (p.T * weights) @ p.conj() - layout.haar, p


def moment_jacobian(unitaries, weights, t, weight_mode):
    r, p = moment_residual(unitaries, weights, t)
    layout = designs._sym_layout(t, unitaries.shape[-1])
    return _moment_jacobian(layout, unitaries, weights, p, r + layout.haar, weight_mode)


def float_floor(d, t):
    # the polish's stop rule, 8 eps d^t: d^t = sum_x w_x |p_x|² bounds the rounding of R
    return 8 * np.finfo(float).eps * d ** t


def check_forward_against_central_differences(d, n, weight_mode, rng):
    # oracle: R along U_x -> exp(i eps G_x) U_x, G_x = sum_k v_xk sqrt(d) b_k over the
    # traceless basis elements, and log w -> log w + eps T(delta) through a softmax, T the
    # weight mode's tie, with the step v the operator's argument times its column scales
    import scipy.linalg

    k = d * d - 1
    for t in (1, 2, 3):
        unitaries, weights = random_set(d, n, rng)
        if weight_mode == 'per-basis':
            weights = np.repeat(weights.reshape(-1, d * d).mean(axis=1), d * d)
        jac, scale = moment_jacobian(unitaries, weights, t, weight_mode)
        z = rng.standard_normal(jac.shape[1])
        v = scale * z
        gens = np.einsum('xk,kab->xab', v[:n * k].reshape(n, k), np.sqrt(d) * herm_basis(d)[1:])

        def moved(eps):
            u = np.array([scipy.linalg.expm(1j * eps * g) @ x for g, x in zip(gens, unitaries)])
            logits = np.log(weights) + eps * (_TIES[weight_mode](v[n * k:], d) if len(v) > n * k else 0)
            return moment_residual(u, np.exp(logits) / np.exp(logits).sum(), t)[0]

        eps = 1e-6
        numeric = ((moved(eps) - moved(-eps)) / (2 * eps)).reshape(-1).view(float)
        assert np.linalg.norm(jac @ z - numeric) <= 1e-7 * np.linalg.norm(numeric)


class TestPolishJacobian:
    # LSMR reads the polish Jacobian only through its hand-written products
    @pytest.mark.parametrize('d', [2, 3])
    @pytest.mark.parametrize('free_weights', [True, False])
    def test_adjoint_matches_forward(self, d, free_weights):
        rng = make_rng(12)
        for t in (1, 2, 3):
            jac = moment_jacobian(*random_set(d, d * d + 2, rng), t, 'free' if free_weights else 'uniform')[0]
            for _ in range(5):
                v, r = rng.standard_normal(jac.shape[1]), rng.standard_normal(jac.shape[0])
                forward, adjoint = (jac @ v) @ r, v @ jac.rmatvec(r)
                assert abs(forward - adjoint) <= 1e-12 * np.linalg.norm(jac @ v) * np.linalg.norm(r)

    @pytest.mark.parametrize('d', [2, 3])
    @pytest.mark.parametrize('free_weights', [True, False])
    def test_forward_matches_central_differences(self, d, free_weights):
        check_forward_against_central_differences(d, d * d + 2, 'free' if free_weights else 'uniform', make_rng(13))

    @pytest.mark.parametrize('d', [2, 3])
    def test_per_basis_steps_move_the_tied_weights(self, d):
        check_forward_against_central_differences(d, 2 * d * d, 'per-basis', make_rng(16))

    def test_uniform_weights_get_no_logit_columns(self):
        # the uniform tie maps every logit to zero, so LSMR sees only the n·(d² - 1) element
        # columns; the other ties keep a column per logit
        rng = make_rng(17)
        for mode, logits in (('uniform', 0), ('free', 8), ('per-basis', 8)):
            jac, scale = moment_jacobian(haar_unitaries(2, 8, rng), np.full(8, 1 / 8), 2, mode)
            assert jac.shape == (2 * 10 * 10, 8 * 3 + logits) and scale.shape == (jac.shape[1],)

    @pytest.mark.parametrize('weight_mode', WEIGHT_MODES)
    @pytest.mark.parametrize('d, ts', [(2, (1, 2, 3, 4, 5)), (3, (1, 2, 3))])
    def test_closed_form_scales_give_unit_columns(self, d, ts, weight_mode):
        # |p_x|² = d^t, <δp_j, δp_k> = t d^t δ_jk and δp ⊥ p_x: each element's columns, scaled by
        # 1/(w_x d^t sqrt(2t)), are orthonormal, and the free logit columns have unit norm too
        # (a dense check at d = 3, t = 5 would hold 2.6 GB)
        rng = make_rng(15)
        n, k = 2 * d * d, d * d - 1
        for t in ts:
            unitaries, weights = random_set(d, n, rng)
            weights = {'free': weights, 'uniform': np.full(n, 1 / n),
                       'per-basis': np.repeat(weights.reshape(-1, d * d).mean(axis=1), d * d)}[weight_mode]
            jac, scale = moment_jacobian(unitaries, weights, t, weight_mode)
            assert np.allclose(scale[:n * k], np.repeat(1 / (weights * d ** t * np.sqrt(2 * t)), k),
                               rtol=1e-14, atol=0)
            columns = jac @ np.eye(jac.shape[1])
            blocks = columns[:, :n * k].reshape(-1, n, k).transpose(1, 0, 2)
            assert np.allclose(np.swapaxes(blocks, 1, 2) @ blocks, np.eye(k), rtol=0, atol=1e-12)
            if weight_mode == 'free':
                assert np.allclose(np.linalg.norm(columns[:, n * k:], axis=0), 1.0, rtol=1e-12)


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
    polished = _polish_moment(WeightedUnitarySet(2, moved, s.weights), 2, 'free', ATOL_CERT)
    assert len(damps) > 2 and damps[1] == 10 * damps[0]
    assert np.linalg.norm(moment_residual(polished.unitaries, polished.weights, 2)[0]) <= float_floor(2, 2)


def near_design(name, t, scale, seed):
    """A gallery design with every element moved by exp(i·scale·H), H a random Hermitian."""
    s = gallery(name)
    rng = make_rng(seed)
    noise = rng.standard_normal((len(s), s.dim, s.dim)) + 1j * rng.standard_normal((len(s), s.dim, s.dim))
    moved = np.array([expm_hermitian(scale * (g + dag(g))) @ u for g, u in zip(noise, s.unitaries)])
    return WeightedUnitarySet(s.dim, moved, s.weights)


def test_polish_tangents_in_row_blocks_match_one_block(monkeypatch):
    # the tangents of a row hold (d² - 1)(m + d²) = 3·14 entries at (d, t) = (2, 2): a guard of
    # 400 builds them in two blocks of 9 and 2 rows, rebuilt in every product, while the
    # residual's 3·m = 30 entries a row and the layout's 3·m² = 300 still fit whole
    s = near_design('pu2_11pt', 2, 1e-3, 18)
    whole = _polish_moment(s, 2, 'free', ATOL_CERT)
    monkeypatch.setattr(linalg, 'MAX_ENTRIES', 400)
    assert len(linalg.row_blocks(11, 3 * 14)) == 2 and len(linalg.row_blocks(11, 3 * 10)) == 1
    blocked = _polish_moment(s, 2, 'free', ATOL_CERT)
    assert certify(whole, 2).moment_residual <= float_floor(2, 2)
    assert np.array_equal(blocked.unitaries, whole.unitaries)
    assert np.array_equal(blocked.weights, whole.weights)


def test_a_target_below_the_polish_floor_returns_the_polished_set_unconverged(monkeypatch):
    # a residual target of 1e-15 lies below the floor 8 eps d^t = 1.4e-14 that the polish stops
    # at; L-BFGS runs once, and the restart returns the polished set, unconverged, with its
    # residual at the floor
    module = importlib.import_module('udesign.search')
    minimize_from, runs = module._minimize_from, []

    def spy(*args):
        runs.append(args)
        return minimize_from(*args)

    monkeypatch.setattr(module, '_minimize_from', spy)
    target = 1e-15
    assert target < float_floor(2, 3)
    trace = search(SearchConfig(dim=2, size=24, t=3, seed=6, restarts=1, target_residual=target))
    cert = certify(trace.result, 3, target)
    assert len(runs) == 1 and not trace.converged and not cert.passed
    assert trace.certificate == cert
    assert target < cert.moment_residual <= float_floor(2, 3)
    assert trace.gap_history[-1] == cert.gap


def test_a_restart_whose_polish_stalls_fails_and_the_search_moves_on(monkeypatch):
    # restart 0's polish stalls (it returns its input), so the restart keeps the handoff iterate:
    # a gap within _HANDOFF_GAP and a residual far above the target, which fails; restart 1
    # polishes to the floor and converges
    module = importlib.import_module('udesign.search')
    polish, runs, certs = module._polish_moment, [], []

    def stall_once(s, t, weight_mode, target):
        runs.append(t)
        return s if len(runs) == 1 else polish(s, t, weight_mode, target)

    def spy(*args):
        certs.append(certify(*args))
        return certs[-1]

    monkeypatch.setattr(module, '_polish_moment', stall_once)
    monkeypatch.setattr(module, 'certify', spy)
    trace = search(SearchConfig(dim=2, size=11, t=2, seed=3, restarts=2))
    assert runs == [2, 2] and len(certs) == 2
    assert not certs[0].passed and ATOL_CERT < certs[0].gap <= module._HANDOFF_GAP
    assert trace.converged and trace.best_restart == 1 and trace.certificate is certs[1]
    assert certify(trace.result, 2).moment_residual <= float_floor(2, 2)


class TestSearchResidualsAtTheFloor:
    # every search-mix config returns a set whose r_1 ... r_t all sit at the t-floor 8 eps d^t
    # (r_s <= r_t for s < t); (3, 9, 1) seed 304 is a singular minimal set n = d²
    @pytest.mark.parametrize('dim, size, t, seed', [
        pytest.param(d, n, t, seed, id=f'{d}-{n}-{t}-seed{seed}')
        for d, n, t in ((2, 11, 2), (2, 24, 3), (2, 60, 5), (3, 9, 1), (3, 150, 2)) for seed in (1, 2, 3)
    ] + [pytest.param(3, 9, 1, 304, id='3-9-1-seed304')])
    def test_search_mix_configs_reach_the_floor(self, dim, size, t, seed):
        trace = search(SearchConfig(dim=dim, size=size, t=t, seed=seed))
        assert trace.converged
        for s in range(1, t + 1):
            assert certify(trace.result, s).moment_residual <= float_floor(dim, t)

    def test_a_near_design_minimum_fails_its_restart_and_the_next_converges(self):
        # restart 0 of this seed ends in a near-design local minimum that the polish cannot bring
        # to its floor
        trace = search(SearchConfig(dim=2, size=24, t=3, seed=7))
        assert trace.converged and trace.best_restart == 1
        assert certify(trace.result, 3).moment_residual <= float_floor(2, 3)

    def test_a_polish_that_stalls_above_its_target_gives_up(self, monkeypatch):
        # restart 0's polish stops halving |R| near 2e-3, far above the target, and gives up once
        # LSMR's tolerance is at its tightest, after 12 trial solves (it took all 60 without the
        # stop); restart 1 converges at the floor
        import scipy.sparse.linalg

        module = importlib.import_module('udesign.search')
        lsmr, polish, solves, polished = scipy.sparse.linalg.lsmr, module._polish_moment, [], []

        def counted(*args, **kwargs):
            solves[-1] += 1
            return lsmr(*args, **kwargs)

        def spy(*args):
            solves.append(0)
            polished.append(polish(*args))
            return polished[-1]

        monkeypatch.setattr(scipy.sparse.linalg, 'lsmr', counted)
        monkeypatch.setattr(module, '_polish_moment', spy)
        trace = search(SearchConfig(dim=2, size=24, t=3, seed=7))
        assert trace.converged and trace.best_restart == 1 and len(solves) == 2
        assert solves[0] <= 12 and certify(polished[0], 3).moment_residual > 1e-5
        assert certify(trace.result, 3).moment_residual <= float_floor(2, 3)

    def test_a_polish_below_its_target_is_never_cut(self, monkeypatch):
        # restart 0 of this seed hands over a set whose polish stalls at LSMR's tightest tolerance
        # near |R| = 3e-9, after 18 trial steps: a target at the floor cuts it there, while the
        # default target, which |R| is already below, lets it go on to the floor
        module = importlib.import_module('udesign.search')
        polish, handoffs = module._polish_moment, []

        def spy(*args):
            handoffs.append(args[0])
            return polish(*args)

        monkeypatch.setattr(module, '_polish_moment', spy)
        assert search(SearchConfig(dim=2, size=24, t=3, seed=500, restarts=1)).converged
        cut = _polish_moment(handoffs[0], 3, 'free', float_floor(2, 3))
        kept = _polish_moment(handoffs[0], 3, 'free', ATOL_CERT)
        assert certify(kept, 3).moment_residual <= float_floor(2, 3) < 1e-9 < certify(cut, 3).moment_residual < ATOL_CERT

    @pytest.mark.parametrize('seed', [152, 171])
    def test_one_polish_brings_restart_zero_to_the_floor(self, monkeypatch, seed):
        # restart 0 of these seeds misses the floor in 30 polish trial steps; one polish of
        # _POLISH_TRIALS steps reaches it from the handoff iterate
        module = importlib.import_module('udesign.search')
        polish, runs = module._polish_moment, []

        def spy(*args):
            runs.append(args)
            return polish(*args)

        monkeypatch.setattr(module, '_polish_moment', spy)
        trace = search(SearchConfig(dim=3, size=9, t=1, seed=seed))
        assert trace.converged and trace.best_restart == 0 and len(runs) == 1
        assert trace.certificate.moment_residual <= float_floor(3, 1)

    def test_gap_history_closes_with_the_smaller_of_its_best_and_the_certified_gap(self):
        # the log never increases, so its closing record is min(last record, certified gap): for
        # this search the certified gap, for refine of the 11-point design its best L-BFGS gap
        # (-2.2e-16), below the certified gap of the polished set (0)
        config = SearchConfig(dim=2, size=11, t=2, seed=1)
        search_trace, refine_trace = search(config), refine(gallery('pu2_11pt'), config)
        for trace in (search_trace, refine_trace):
            closing, previous = trace.gap_history[-1], trace.gap_history[-2]
            assert trace.certificate == certify(trace.result, 2)
            assert closing == min(previous, trace.certificate.gap)
            assert np.all(np.diff(trace.gap_history) <= 0)
        assert search_trace.gap_history[-1] == search_trace.certificate.gap
        assert search_trace.gap_history[-2] <= importlib.import_module('udesign.search')._HANDOFF_GAP
        assert refine_trace.gap_history[-1] == refine_trace.gap_history[-2] < refine_trace.certificate.gap


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
        trace = refine(noisy, SearchConfig(dim=2, size=11, t=2, seed=0, target_residual=1e-6))
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
