import bisect
import itertools
import math

import numpy as np
import pytest

from udesign import designs, linalg
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
from udesign.io import load_design, save_design
from udesign.linalg import ATOL_CERT, dag, haar_unitaries, make_rng
from udesign.search import SearchConfig, search

from helpers import expm_hermitian, gram_potential, permutation_operator, swap_operator

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

    def test_matches_the_gram_double_sum(self):
        # largest differences measured: 6.7e-16·gamma on the gallery, 1.0e-15·gamma on the
        # qutrit Clifford group and 5.7e-14·gamma on these random sets
        rng = make_rng(21)
        sets = [(gallery(name, 5, 2), GALLERY_CERTIFIED_T[name] + 1) for name in GALLERY_NAMES]
        sets.append((group_closure(clifford_generators(3)), 3))
        sets += [(random_weighted_set(d, int(rng.integers(1, 40)), rng), 3) for d in (2, 3) for _ in range(20)]
        for s, top in sets:
            for t in range(1, top + 1):
                expected, g = gram_potential(s, t), gamma(t, s.dim)
                assert abs(frame_potential(s, t) - expected) <= 1e-12 * g, (len(s), t)
                assert abs(certify(s, t).gap - (expected - g)) <= 1e-12 * g, (len(s), t)

    def test_no_overlaps_are_built(self, monkeypatch):
        def unbuilt(*args):
            raise AssertionError('an n × m overlap matrix was built')

        sets = [gallery(name, 5, 2) for name in GALLERY_NAMES] + [group_closure(clifford_generators(3))]
        monkeypatch.setattr(designs, '_overlaps', unbuilt)
        for s in sets:
            for t in (1, 2, 3):
                assert certify(s, t).potential == frame_potential(s, t)


def longest_increasing_run(seq) -> int:
    """Oracle: the longest increasing subsequence by patience sorting, tails[k] the smallest
    tail of an increasing subsequence of length k + 1."""
    tails = []
    for x in seq:
        k = bisect.bisect_left(tails, x)
        tails[k:k + 1] = [x]
    return len(tails)


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

    def test_matches_the_enumeration_oracle(self):
        # gamma counts the permutations of S_t with no increasing run longer than d
        for t in range(1, 9):
            runs = np.bincount([longest_increasing_run(p) for p in itertools.permutations(range(t))])
            for d in range(2, 11):
                assert gamma(t, d) == runs[:d + 1].sum(), (t, d)

    def test_enumeration_guard(self):
        with pytest.raises(ResourceLimitError, match=f'capped at t <= {linalg.MAX_GAMMA_T}, got t=10$'):
            gamma(linalg.MAX_GAMMA_T + 1, 2)

    def test_t_and_dimension_checks(self):
        with pytest.raises(InvalidInputError, match='^t must be an integer >= 1, got 0$'):
            gamma(0, 2)
        for call in (lambda: gamma(2, 1), lambda: haar_moment(1, 1)):
            with pytest.raises(InvalidInputError, match="^'dim' must be an integer >= 2, got 1$"):
                call()


def closed_form_haar_moment(t, d):
    """Oracle: the hand-derived Haar moments, T/d at t = 1 with T the swap, and at
    t = 2 the permutation operators P_3412 + P_4321 over d² - 1 minus P_4312 + P_3421
    over d(d² - 1)."""
    if t == 1:
        return swap_operator(d) / d
    c1 = 1.0 / (d * d - 1)
    c2 = 1.0 / (d * (d * d - 1))
    return (c1 * (permutation_operator((3, 4, 1, 2), d) + permutation_operator((4, 3, 2, 1), d))
            - c2 * (permutation_operator((4, 3, 1, 2), d) + permutation_operator((3, 4, 2, 1), d)))


def cycle_count(images):
    """Number of cycles of a permutation in 0-based one-line form."""
    seen, cycles = set(), 0
    for start in range(len(images)):
        if start not in seen:
            cycles += 1
            while start not in seen:
                seen.add(start)
                start = images[start]
    return cycles


class TestHaarMoment:
    def test_t1_is_scaled_swap(self):
        m = haar_moment(1, 2)
        assert np.allclose(m, swap_operator(2) / 2)
        evals = np.sort(np.linalg.eigvalsh(m))
        assert np.allclose(evals[:1], -0.5) and np.allclose(evals[1:], 0.5)

    @pytest.mark.parametrize('d', [2, 3])
    def test_matches_the_closed_forms(self, d):
        # bit for bit at t = 1; at t = 2 the largest difference measured is 5.6e-17
        assert haar_moment(1, d).tobytes() == closed_form_haar_moment(1, d).tobytes()
        assert np.abs(haar_moment(2, d) - closed_form_haar_moment(2, d)).max() <= 2e-16

    def test_hermitian(self):
        for t in (1, 2, 3):
            for d in (2, 3):
                m = haar_moment(t, d)
                assert np.linalg.norm(m - dag(m)) <= 1e-9

    @pytest.mark.parametrize('t', [1, 2])
    @pytest.mark.parametrize('name', ['pu2_clifford12', 'pu2_clifford24', 'qutrit_clifford216'])
    def test_exact_two_designs_carry_the_haar_moment(self, name, t):
        # oracle: an exact unitary 2-design's t <= 2 moments are the Haar moments entrywise
        # (largest difference measured 6.7e-16)
        s = group_closure(clifford_generators(3)) if name == 'qutrit_clifford216' else gallery(name)
        assert np.abs(design_moment(s, t) - haar_moment(t, s.dim)).max() <= 1e-13

    @pytest.mark.parametrize('d', [2, 3])
    def test_hierarchy_contraction(self, d):
        # tracing the middle pair, factor t of U^⊗t against factor 1 of its adjoint, after
        # swapping them lowers moment t to d times moment t - 1
        for t in (2, 3):
            outer = np.eye(d ** (t - 1))
            m = haar_moment(t, d) @ np.kron(np.kron(outer, swap_operator(d)), outer)
            rows, cols = list(range(2 * t)), list(range(2 * t, 4 * t))
            cols[t - 1], cols[t] = rows[t - 1], rows[t]
            kept = rows[:t - 1] + rows[t + 1:] + cols[:t - 1] + cols[t + 1:]
            contracted = np.einsum(m.reshape((d,) * 4 * t), rows + cols, kept)
            lower = d ** (2 * t - 2)
            assert np.linalg.norm(contracted.reshape(lower, lower) - d * haar_moment(t - 1, d)) <= 1e-12

    def test_designs_beyond_t2_against_the_weingarten_sum(self):
        # the residual is the square root of the potential gap: about 1e-14 or less on a design,
        # 1.0 on the Clifford groups one level above theirs (measured 2.7e-15, 1.0, 2.7e-14, 1.0)
        qutrit = group_closure(clifford_generators(3))
        for s, t, is_design in ((gallery('pu2_clifford24'), 3, True), (gallery('pu2_clifford24'), 4, False),
                                (gallery('pu2_600cell'), 5, True), (qutrit, 3, False)):
            residual = np.linalg.norm(design_moment(s, t) - haar_moment(t, s.dim))
            assert residual <= 1e-13 if is_design else residual >= 0.5

    @pytest.mark.parametrize('d', [2, 3])
    def test_gamma_is_the_rank_of_the_permutation_gram(self, d):
        for t in range(1, 6):
            perms = list(itertools.permutations(range(t)))
            inverse = [np.argsort(p) for p in perms]
            gram = np.array([[float(d) ** cycle_count(sigma_inv[list(tau)]) for tau in perms]
                             for sigma_inv in inverse])
            assert np.linalg.matrix_rank(gram) == gamma(t, d)
            if t <= 3:       # the Gram of the flattened operators Q_σ
                v = np.array([permutation_operator(tuple(np.add(p, 1)), d).reshape(-1) for p in perms])
                assert np.array_equal(v @ v.T, gram)

    @pytest.mark.parametrize('d', [2, 3])
    def test_weingarten_is_the_pseudo_inverse_of_the_permutation_gram(self, d):
        # W[σ, τ] = Wg(σ⁻¹τ) against G[σ, τ] = d^#cycles(σ⁻¹τ): G W G = G and W G W = W, also
        # for d < t, where G is singular; at t = 2 the closed forms 1/(d² - 1), -1/(d(d² - 1))
        for t in range(1, 6):
            perms = np.array(list(itertools.permutations(range(t))))
            wg = designs._weingarten(perms, d)
            products = inverse_products(perms)
            w = wg[products]
            gram = np.array([[float(d) ** cycle_count(perms[k]) for k in row] for row in products])
            assert np.abs(gram @ w @ gram - gram).max() <= 1e-12 * np.abs(gram).max()
            assert np.abs(w @ gram @ w - w).max() <= 1e-12 * np.abs(w).max()
            if t == 2:
                assert wg[0] == pytest.approx(1 / (d * d - 1), rel=1e-15)
                assert wg[1] == pytest.approx(-1 / (d * (d * d - 1)), rel=1e-15)

    def test_t_below_one_is_refused(self):
        s = gallery('pu2_11pt')
        for t in (0, -1):
            for call in (lambda: design_moment(s, t), lambda: haar_moment(t, 2)):
                with pytest.raises(InvalidInputError, match=f'^t must be an integer >= 1, got {t}$'):
                    call()

    def test_entries_guard_is_checked_before_anything_is_built(self, monkeypatch):
        # d^4t entries: the default guard admits t <= 5 at d = 2, t <= 3 at d = 3, t <= 2 at d = 4
        assert haar_moment(2, 4).shape == (256, 256)
        for t, d in ((6, 2), (4, 3), (3, 4)):
            with pytest.raises(ResourceLimitError, match=f'^the Haar moment d\\^4t = {d ** (4 * t)} entries'):
                haar_moment(t, d)
        monkeypatch.setattr(linalg, 'MAX_ENTRIES', 4096)
        assert haar_moment(3, 2).shape == (64, 64)
        monkeypatch.setattr(linalg, 'MAX_ENTRIES', 4095)

        def unbuilt(*args):
            raise AssertionError('the symmetric layout was built')

        monkeypatch.setattr(designs, '_sym_layout', unbuilt)
        with pytest.raises(ResourceLimitError, match='^the Haar moment d\\^4t = 4096 entries exceeds the guard 4095$'):
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


def inverse_products(perms):
    """k[σ, τ], the row of σ⁻¹τ in a (t!, t) stack of every permutation."""
    index = {tuple(p): i for i, p in enumerate(perms)}
    return np.array([[index[tuple(np.argsort(sigma)[tau])] for tau in perms] for sigma in perms])


def reference_design_moment(s, t):
    """The dense moment as built before the symmetric layout, kept as the oracle: the
    powers U_x^⊗t by an element-by-element kron loop, one (D², n)·(n, D²) matmul of the
    flattened powers, then the axis transpose."""
    n, d = len(s), s.dim
    upow = s.unitaries
    for _ in range(t - 1):
        m = upow.shape[-1] * d
        upow = (upow[:, :, None, :, None] * s.unitaries[:, None, :, None, :]).reshape(n, m, m)
    dim = upow.shape[-1]
    flat = upow.reshape(n, -1)
    acc = (flat.T * s.weights) @ flat.conj()           # rows (a, c), columns (e, b)
    return acc.reshape((dim,) * 4).transpose(0, 3, 1, 2).reshape(dim * dim, dim * dim)


def reference_haar_moment(t, d):
    """The Haar moment as the dense projector Vᵀ W V onto the span of the flattened
    permutation operators V, rearranged, with W[σ, τ] = Wg(σ⁻¹τ) the pseudo-inverse of
    their Gram (test_weingarten_is_the_pseudo_inverse_of_the_permutation_gram).  W is
    rounded once from exact rationals; a Gram inverted by eigendecomposition is off by
    about eps times its condition, 1.1e-14 at d = 2, t = 5."""
    perms = np.array(list(itertools.permutations(range(t))))
    w = designs._weingarten(perms, d)[inverse_products(perms)]
    v = np.array([permutation_operator(tuple(p + 1), d).reshape(-1) for p in perms])
    proj = v.T @ w @ v                                      # rows (a, e), columns (c, b)
    return proj.reshape((d ** t,) * 4).transpose(0, 3, 2, 1).reshape(proj.shape)


def _perturb_weights(s, scale, rng):
    """Weights times seeded relative noise 1 + scale·N(0, 1), renormalised."""
    w = s.weights * (1 + scale * rng.standard_normal(len(s)))
    return WeightedUnitarySet(s.dim, s.unitaries, w / w.sum())


# search-mix's (d, n, t) configurations, one search result each
SEARCH_CONFIGS = ((2, 11, 2), (2, 24, 3), (2, 60, 5), (3, 9, 1), (3, 150, 2))


@pytest.fixture(scope='module')
def oracle_sets():
    """Sets by dimension: designs, weight-perturbed designs and search results."""
    qutrit = group_closure(clifford_generators(3))
    sets = {
        2: {name: gallery(name, 5, 2) for name in GALLERY_NAMES},
        3: {'utof12': gallery('utof', 12, 3), 'qutrit_clifford216': qutrit},
        4: {'utof20': gallery('utof', 20, 4)},
    }
    sets[2]['utof5-w1e-7'] = _perturb_weights(gallery('utof', 5, 2), 1e-7, make_rng(1))
    sets[2]['600cell-w1e-5'] = _perturb_weights(gallery('pu2_600cell'), 1e-5, make_rng(1))
    sets[2]['11pt-w1e-3'] = _perturb_weights(gallery('pu2_11pt'), 1e-3, make_rng(1))
    sets[3]['qutrit-w1e-6'] = _perturb_weights(qutrit, 1e-6, make_rng(1))
    sets[4]['utof20-w1e-6'] = _perturb_weights(sets[4]['utof20'], 1e-6, make_rng(1))
    for d, n, t in SEARCH_CONFIGS:
        sets[d][f'search-{d}-{n}-{t}'] = search(SearchConfig(dim=d, size=n, t=t, seed=3)).result
    return sets


class TestSymmetricLayout:
    """Moments on Sym^t(C^(d²)) against the dense builders they replaced."""

    @pytest.mark.parametrize('d,t', [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2)])
    def test_residual_and_expansions_match_the_dense_oracles(self, oracle_sets, d, t):
        # largest differences measured: residual 1.6e-15 on designs and 3.0e-16 on the search
        # results at the float floor, 6.0e-12 at residuals near 7, where the d^4t-term oracle
        # itself is off by 3e-12 against sqrt(gap); expansions 1.1e-16 (sets) and 4.4e-16 (Haar)
        haar = reference_haar_moment(t, d)
        assert np.abs(haar_moment(t, d) - haar).max() <= 2e-15
        for name, s in oracle_sets[d].items():
            moment = reference_design_moment(s, t)
            expected = np.linalg.norm(moment - haar)
            assert abs(certify(s, t).moment_residual - expected) <= 1e-14 + 1e-12 * expected, name
            assert np.abs(design_moment(s, t) - moment).max() <= 2.5e-16, name

    @pytest.mark.parametrize('d,top', [(2, 5), (3, 3)])
    def test_residual_squared_is_the_gap(self, oracle_sets, d, top):
        # in exact arithmetic the squared residual is the gap; the gap rounds at about
        # eps·potential (measured up to 34 eps·potential), below which it cannot resolve
        # a residual near 1e-8
        eps = np.finfo(float).eps
        for name, s in oracle_sets[d].items():
            for t in range(1, top + 1):
                cert = certify(s, t)
                assert abs(cert.moment_residual ** 2 - cert.gap) <= 64 * eps * cert.potential, (name, t)

    def test_a_passing_gap_can_hide_a_residual_above_the_tolerance(self, oracle_sets):
        # utof(5, 2) with weights at 1e-7 reads a gap at its float floor (4.0e-15) at t = 1 while
        # the residual reads 6.6e-8; the 600-cell with weights at 1e-5 reads a gap of 1.5e-9 at
        # t = 5 while the residual reads 3.9e-5.  Both gaps are within ATOL_CERT, and the
        # verdict, which reads the residual, is FAIL
        eps = np.finfo(float).eps
        cert = certify(oracle_sets[2]['utof5-w1e-7'], 1)
        assert not cert.passed and cert.gap <= 64 * eps * cert.potential and 1e-8 < cert.moment_residual < 1e-7
        cert = certify(oracle_sets[2]['600cell-w1e-5'], 5)
        assert not cert.passed and 1e-9 < cert.gap <= ATOL_CERT and 1e-5 < cert.moment_residual < 1e-4
        assert cert.moment_residual == pytest.approx(np.sqrt(cert.gap), rel=1e-3)

    def test_layout_is_cached_read_only_and_guarded(self, monkeypatch):
        layout = designs._sym_layout(5, 2)
        assert designs._sym_layout(5, 2) is layout
        assert layout.reps.shape == (56, 5) and designs._sym_layout(2, 3).haar.shape == (45, 45)
        for a in (layout.reps, layout.root_counts, layout.haar):
            assert not a.flags.writeable
        # at t = 6 the three 720 × 84 arrays of the Weingarten sum outgrow the three 84² arrays,
        # and the 3·m² entries are counted first
        for count, part in ((181439, '3·t!·m = 181440'), (21167, '3·m² = 21168')):
            monkeypatch.setattr(linalg, 'MAX_ENTRIES', count)
            for call in (lambda: designs._sym_layout(6, 2), lambda: certify(gallery('pu2_11pt'), 6)):
                with pytest.raises(ResourceLimitError, match=f'^the symmetric layout {part} entries exceeds'):
                    call()

    def test_a_large_t_is_refused_at_once_on_the_m_squared_count(self, monkeypatch):
        # t!² at t = 10⁶ takes seconds to count; C(t + 3, 3)² at d = 2 does not
        def uncounted(t):
            raise AssertionError('t! was counted')

        monkeypatch.setattr(math, 'factorial', uncounted)
        with pytest.raises(ResourceLimitError, match=f'^the symmetric layout 3·m² = {3 * math.comb(10 ** 6 + 3, 3) ** 2} '):
            designs.check_layout(10 ** 6, 2)

    def test_layout_holds_no_class_map(self):
        # dense expansions build the d^2t class map when they need it: at (t, d) = (5, 2)
        # a cached map took 8.2 of 36 kB
        layout = designs._sym_layout(5, 2)
        arrays = [a for a in vars(layout).values() if isinstance(a, np.ndarray)]
        assert sum(a.nbytes for a in arrays) == 56 * 5 * 8 + 56 * 8 + 56 * 56 * 8

    def test_no_package_path_builds_a_dense_moment(self, monkeypatch):
        def unbuilt(*args):
            raise AssertionError('a d^4t moment was built')

        monkeypatch.setattr(designs, 'design_moment', unbuilt)
        monkeypatch.setattr(designs, 'haar_moment', unbuilt)
        for d, top in ((2, 5), (3, 3), (4, 2)):
            for t in range(1, top + 1):
                assert certify(gallery('utof', d * d + 1, d), t).moment_residual >= 0
        assert search(SearchConfig(dim=2, size=11, t=2, seed=3)).converged
        assert muub_check(pu2_muub_family()).is_two_design


class TestCertify:
    def test_11pt_passes_t2(self):
        cert = certify(gallery('pu2_11pt'), 2)
        assert cert.passed and cert.gap <= 1e-9
        assert cert.moment_residual <= 1e-7

    def test_11pt_fails_t3(self):
        cert = certify(gallery('pu2_11pt'), 3)
        assert not cert.passed
        assert cert.gap > 0.1
        assert cert.moment_residual >= 0.5

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

    @pytest.mark.parametrize('s,t,count', [(gallery('pu2_11pt'), 3, 1200), (unitary_operator_frame(20, 2), 4, 3675)],
                             ids=['pu2_11pt-t3', 'utof20-t4'])
    def test_certify_is_refused_beyond_the_layout_guard(self, monkeypatch, s, t, count):
        # the layout counts 3·m² entries, m = C(d² + t - 1, t), then 3·t!·m: here 3·20² and
        # 3·35², more than the n·m products 220 and 700; below them certify has no other path
        monkeypatch.setattr(linalg, 'MAX_ENTRIES', count)
        assert certify(s, t).moment_residual >= 0.5
        monkeypatch.setattr(linalg, 'MAX_ENTRIES', count - 1)
        for call in (lambda: designs._sym_layout(t, s.dim), lambda: certify(s, t), lambda: frame_potential(s, t)):
            with pytest.raises(ResourceLimitError, match=rf'^the symmetric layout 3·m² = {count} entries '
                                                         rf'exceeds the guard {count - 1}$'):
                call()

    @pytest.mark.parametrize('s,t,m', [(gallery('pu2_11pt'), 2, 10), (unitary_operator_frame(20, 2), 1, 4)],
                             ids=['pu2_11pt-t2', 'utof20-t1'])
    def test_blocked_moment_agrees_with_one_block(self, monkeypatch, s, t, m):
        # at the layout's own guard 3·m² the 3·m entries a row holds give blocks of m rows:
        # two and five blocks here, against one by default
        whole = certify(s, t)
        monkeypatch.setattr(linalg, 'MAX_ENTRIES', 3 * m * m)
        assert len(linalg.row_blocks(len(s), 3 * m)) == {10: 2, 4: 5}[m]
        blocked, g = certify(s, t), gamma(t, s.dim)
        assert blocked.passed and abs(blocked.potential - whole.potential) <= 1e-15 * g
        assert abs(blocked.moment_residual - whole.moment_residual) <= 1e-15 * g
        assert abs(frame_potential(s, t) - whole.potential) <= 1e-15 * g

    @pytest.mark.parametrize('s,t,count', [(gallery('pu2_clifford24'), 3, 4096), (unitary_operator_frame(20, 2), 1, 80)],
                             ids=['moments', 'powers'])
    def test_dense_moment_guard_leaves_the_residual(self, monkeypatch, s, t, count):
        # the powers and the moment hold max(n, d^2t)·d^2t entries, as many as or more than
        # each permutation operator of haar_moment.  certify builds neither and sums its n·m
        # products in row blocks, so below that guard it still reports the residual
        monkeypatch.setattr(linalg, 'MAX_ENTRIES', count)
        assert np.linalg.norm(design_moment(s, t) - haar_moment(t, s.dim)) <= 1e-7
        monkeypatch.setattr(linalg, 'MAX_ENTRIES', count - 1)
        with pytest.raises(ResourceLimitError, match=rf'^the moment operator max\(n, d\^2t\)·d\^2t = {count} entries '
                                                     rf'exceeds the guard {count - 1}$'):
            design_moment(s, t)
        cert = certify(s, t)
        assert cert.moment_residual <= 1e-7 and cert.passed and cert.gap <= 1e-9

    def test_gamma_guard_is_checked_before_the_layout(self, monkeypatch):
        def unbuilt(*args):
            raise AssertionError('the symmetric layout was counted')

        monkeypatch.setattr(designs, '_sym_layout', unbuilt)
        with pytest.raises(ResourceLimitError, match='^gamma enumeration capped at t <= 9, got t=10$'):
            certify(gallery('pu2_11pt'), 10)

    def test_gap_below_its_float_floor_is_numerical_trouble(self):
        fields = dict(t=1, potential=1.0, gamma=1.0, moment_residual=0.0, passed=True)
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


class TestOverlapsGuard:
    """Every n × m overlap matrix is counted against ``MAX_ENTRIES`` before it is built."""

    def test_pu2_11pt_flips_at_one_row_of_11_overlaps(self, tmp_path, monkeypatch):
        # merge_phase_duplicates, the phase check on load and assert_phase_distinct read the n²
        # overlaps in row blocks and are refused only when one row of 11 does not fit.  certify
        # and frame_potential build no overlaps: below the flip they still answer
        s = gallery('pu2_11pt')
        path = tmp_path / 'd.json'
        save_design(s, path, certified_t=2)
        for limit, blocks in ((121, 1), (120, 2), (11, 11)):
            monkeypatch.setattr(linalg, 'MAX_ENTRIES', limit)
            assert len(linalg.row_blocks(11, 11)) == blocks
            assert_phase_distinct(s)
            assert len(load_design(path)[0]) == 11
            merged = merge_phase_duplicates(s)
            assert merged.unitaries.tobytes() == s.unitaries.tobytes()
            assert merged.weights.tobytes() == s.weights.tobytes()
        monkeypatch.setattr(linalg, 'MAX_ENTRIES', 10)
        for call in (lambda: load_design(path), lambda: assert_phase_distinct(s), lambda: merge_phase_duplicates(s)):
            with pytest.raises(ResourceLimitError, match='^the overlaps n·m = 11 entries exceeds the guard 10$'):
                call()
        monkeypatch.setattr(linalg, 'MAX_ENTRIES', 120)          # t = 1 holds 3·4² entries, t = 2 3·10²
        assert certify(s, 1).passed and frame_potential(s, 1) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize('limit', [6399, 800, 80], ids=['two-blocks', 'ten-rows', 'row-blocks'])
    def test_merge_in_blocks_matches_one_block(self, monkeypatch, limit):
        # pu2_600cell with phase copies of 20 of its elements planted among them: 80² overlaps
        rng = make_rng(16)
        s = gallery('pu2_600cell')
        copies = np.exp(1j * rng.uniform(0, 2 * np.pi, 20))[:, None, None] * s.unitaries[rng.choice(60, 20)]
        unitaries = np.concatenate([s.unitaries, copies])[rng.permutation(80)]
        planted = WeightedUnitarySet(2, unitaries, rng.dirichlet(np.ones(80)))
        one_block = merge_phase_duplicates(planted)
        assert len(one_block) == 60
        monkeypatch.setattr(linalg, 'MAX_ENTRIES', limit)
        assert len(planted) ** 2 > linalg.MAX_ENTRIES
        blocked = merge_phase_duplicates(planted)
        assert blocked.unitaries.tobytes() == one_block.unitaries.tobytes()
        assert blocked.weights.tobytes() == one_block.weights.tobytes()

    @pytest.mark.parametrize('limit', [900, 300, 30], ids=['one-block', 'ten-rows', 'row-blocks'])
    def test_many_phase_copies_keep_the_first(self, monkeypatch, limit):
        # 30 phase copies of one qutrit element: all 435 pairs are close, each row has 29 partners
        rng = make_rng(17)
        copies = np.exp(1j * rng.uniform(0, 2 * np.pi, 30))[:, None, None] * haar_unitaries(3, 1, rng)
        s = WeightedUnitarySet(3, copies, rng.dirichlet(np.ones(30)))
        monkeypatch.setattr(linalg, 'MAX_ENTRIES', limit)
        merged = merge_phase_duplicates(s)
        assert merged.unitaries.tobytes() == s.unitaries[:1].tobytes()
        assert merged.weights == pytest.approx([1.0], abs=1e-15)
        message = r'^set contains phase-equivalent elements \(max off-diagonal \|tr\|² = 9\.000000000\)$'
        with pytest.raises(InvalidInputError, match=message):
            assert_phase_distinct(s)

    def test_an_element_is_owned_only_by_an_earlier_one(self, monkeypatch):
        # rounding can make |tr(U†V)|² and |tr(V†U)|² differ in the last bit.  The pass reads each
        # row against later columns only, so a close entry below the diagonal alone merges nothing
        s = gallery('pu2_11pt')
        exact = designs._overlaps

        def skewed(a, b):
            o = exact(a, b)
            o[7, 3] = 2.0
            return o

        monkeypatch.setattr(designs, '_overlaps', skewed)
        merged = merge_phase_duplicates(s)
        assert merged.unitaries.tobytes() == s.unitaries.tobytes()
        assert_phase_distinct(s)

    @pytest.mark.parametrize('limit', [144, 120, 12], ids=['one-block', 'two-blocks', 'row-blocks'])
    def test_phase_duplicate_is_refused_in_blocks(self, tmp_path, monkeypatch, limit):
        # pu2_11pt and a phase copy of its element 7 as element 11, or as element 0 (then away
        # from the last block): 12² overlaps
        s = gallery('pu2_11pt')
        copy = 1j * s.unitaries[7:8]
        message = r'^set contains phase-equivalent elements \(max off-diagonal \|tr\|² = 4\.000000000\)$'
        monkeypatch.setattr(linalg, 'MAX_ENTRIES', limit)
        weights = np.append(s.weights * 11 / 12, 1 / 12)
        for unitaries, w in ((np.concatenate([s.unitaries, copy]), weights),
                             (np.concatenate([copy, s.unitaries]), np.roll(weights, 1))):
            dup = WeightedUnitarySet(2, unitaries, w)
            path = tmp_path / 'dup.json'
            save_design(dup, path, certified_t=None)
            for call in (lambda: load_design(path), lambda: assert_phase_distinct(dup)):
                with pytest.raises(InvalidInputError, match=message):
                    call()

    def test_muub_union_flips_at_its_144_overlaps(self, monkeypatch):
        # the union's 12² overlaps are counted first; its t = 2 certificate then needs the
        # layout's 3·10² entries
        bases = pu2_muub_family()
        monkeypatch.setattr(linalg, 'MAX_ENTRIES', 300)
        assert muub_check(bases).complete
        monkeypatch.setattr(linalg, 'MAX_ENTRIES', 299)
        with pytest.raises(ResourceLimitError, match='^the symmetric layout 3·m² = 300 entries exceeds the guard 299$'):
            muub_check(bases)
        monkeypatch.setattr(linalg, 'MAX_ENTRIES', 143)
        with pytest.raises(ResourceLimitError, match='^the overlaps n·m = 144 entries exceeds the guard 143$'):
            muub_check(bases)


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
        flat = s.unitaries.reshape(4, -1)
        gram = flat.conj() @ flat.T
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

    @pytest.mark.parametrize('name', ['h_r', 'qutrit'])
    def test_row_blocks_leave_the_elements_bit_for_bit(self, name, monkeypatch):
        # each generator ten times: k = 20 products per element outnumber d², so a MAX_ENTRIES
        # that just admits the (max_order + k)·d² buffer splits the (n + k)·k overlaps into row
        # blocks.  The repeats are phase copies within one batch and leave the closure unchanged
        h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        gens = {'h_r': [h, np.diag([1, 1j])], 'qutrit': clifford_generators(3)}[name]
        plain, one_block = group_closure(gens), group_closure(gens * 10)
        order, k, d = len(plain), 10 * len(gens), len(gens[0])
        monkeypatch.setattr(linalg, 'MAX_ENTRIES', (order + k) * d * d)
        assert len(linalg.row_blocks(order + k, k)) > 1
        blocked = group_closure(gens * 10, max_order=order)
        assert blocked.unitaries.tobytes() == one_block.unitaries.tobytes() == plain.unitaries.tobytes()

    def test_order_exactly_max_order_still_closes(self):
        h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        r = np.diag([1, 1j])
        assert len(group_closure([h @ r, r @ r], max_order=12)) == 12
        with pytest.raises(ResourceLimitError):
            group_closure([h @ r, r @ r], max_order=11)

    def test_two_qubit_pauli_extension_is_a_2_design_and_not_a_3_design(self):
        # the Pauli group with lifts of SL(2, F₄) ≅ A5: g5 = (H⊗I)(I⊗H)(S⊗I)·CNOT of order 5
        # and g3 = (H⊗I)(S⊗I)(I⊗S)(I⊗H) of order 3, modulo phase.  Measured: t = 1, 2 pass
        # with residuals 2.6e-15 and 5.2e-15, t = 3 fails with gap 3 and residual sqrt(3)
        h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        r, one = np.diag([1, 1j]), np.eye(2)
        cnot = np.eye(4)[[0, 1, 3, 2]]
        g5 = np.kron(h, one) @ np.kron(one, h) @ np.kron(r, one) @ cnot
        g3 = np.kron(h, one) @ np.kron(r, one) @ np.kron(one, r) @ np.kron(one, h)
        s = group_closure([np.kron(X, one), np.kron(one, X), np.kron(Z, one), np.kron(one, Z), g5, g3])
        assert len(s) == 960 == 16 * 60
        for t in (1, 2):
            cert = certify(s, t)
            assert cert.passed and cert.moment_residual <= 6e-15
        cert = certify(s, 3)
        assert not cert.passed and cert.gamma == 6
        assert cert.gap == pytest.approx(3.0, abs=1e-12) and cert.moment_residual == pytest.approx(np.sqrt(3), abs=1e-12)

    def test_d5_clifford_has_25_times_sl2_5_elements(self):
        s = group_closure(clifford_generators(5))
        assert len(s) == 3000 == 25 * 120          # |SL(2, 5)| = 120
        assert len(s) ** 2 <= linalg.MAX_ENTRIES   # its 9·10⁶ overlaps stay under the guard
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

    def test_buffer_guard_is_checked_before_allocation(self, monkeypatch):
        # the breadth-first buffer holds (max_order + k)·d² entries, k generators
        monkeypatch.setattr(linalg, 'MAX_ENTRIES', 1000)
        assert len(group_closure([np.eye(3)], max_order=110)) == 1
        for max_order, count in ((111, 1008), (10_000, 90_009)):
            with pytest.raises(ResourceLimitError, match=rf'^the closure buffer \(max_order \+ k\)·d² = {count} entries '
                                                         rf'exceeds the guard 1000$'):
                group_closure([np.eye(3)], max_order=max_order)


def quaternion_muub_table():
    """Oracle: the qubit MUUB family as 24-cell quaternions, the axis basis {I, iX, iY, iZ}
    and the two half-quaternion bases split by sign parity."""
    axis = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    even = [(1, 1, 1, 1), (1, 1, -1, -1), (1, -1, 1, -1), (1, -1, -1, 1)]
    odd = [(1, 1, 1, -1), (1, 1, -1, 1), (1, -1, 1, 1), (1, -1, -1, -1)]
    return [np.array([quat_to_unitary(np.asarray(q, dtype=float) * scale) for q in quads])
            for quads, scale in ((axis, 1.0), (even, 0.5), (odd, 0.5))]


class TestMuub:
    def test_weyl_cosets_hold_the_quaternion_bases_in_their_order(self):
        # the same phase classes at each basis index; only the order inside a basis differs
        for basis, table in zip(pu2_muub_family(), quaternion_muub_table()):
            overlap2 = np.abs(np.einsum('xij,yij->xy', basis.unitaries.conj(), table)) ** 2
            match = np.round(overlap2 / 4)          # a permutation matrix
            assert np.array_equal(np.sort(match.ravel()), np.repeat([0.0, 1.0], [12, 4]))
            assert np.array_equal(match.sum(axis=0), np.ones(4)) and np.array_equal(match.sum(axis=1), np.ones(4))
            assert np.abs(overlap2 - 4 * match).max() <= 1e-12

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

        for d in (2, 3, 4):
            rng = make_rng(15)
            a, b, c, v = haar_unitaries(d, 4, rng)
            phase = np.exp(1j * rng.uniform(0, 2 * np.pi, 3))
            interleaved = np.array([a, b, phase[0] * a, c, phase[1] * b, phase[2] * a])
            # rotations exp(iθ V diag(1, -1, 0, ..) V†) by θ = 0, 2x, x: |tr(U†U')|² ≈ d² - 2d(θ - θ')²,
            # so at x = 4e-4·sqrt(2/d) the last is 6.4e-7 below d² from both others (close), and
            # they are 2.6e-6 below d² from each other (not close).  With the middle one second, the
            # third is close only to an element that is not kept, and is kept
            x = 4e-4 * np.sqrt(2 / d)
            h = np.zeros(d)
            h[:2] = 1, -1
            chain = np.array([v @ np.diag(np.exp(1j * theta * h)) @ dag(v) for theta in (0, 2 * x, x)])
            for unitaries, expected_kept in ((interleaved, [0, 1, 3]), (chain, [0, 1]), (chain[[0, 2, 1]], [0, 2])):
                s = WeightedUnitarySet(d, unitaries, rng.dirichlet(np.ones(len(unitaries))))
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
