import dataclasses
import pickle

import numpy as np
import pytest

from udesign.channels import (
    CHANNEL_FORMS,
    ChannelEstimate,
    QuantumChannel,
    channel_distance,
    channel_from_spec,
    channel_gallery,
    depolarizing_channel,
    inverse_jamiolkowski,
    jamiolkowski,
    process_matrix,
    random_general_channel,
    random_unital_mix,
    rotate_channel,
)
from udesign.errors import InvalidInputError, NotChannelImageError, ResourceLimitError
from udesign.linalg import MAX_KRAUS, dag, haar_unitary, make_rng, partial_trace
from udesign.povm import DiscretePovm

from helpers import unvec, vec


def random_state(d, rng):
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = m @ dag(m)
    return rho / np.trace(rho)


def random_kraus(k, d, rng):
    """k Gaussian Kraus operators made trace preserving by the inverse square root of sum B†B."""
    raw = rng.standard_normal((k, d, d)) + 1j * rng.standard_normal((k, d, d))
    evals, evecs = np.linalg.eigh(np.einsum('kba,kbc->ac', raw.conj(), raw))
    return raw @ ((evecs / np.sqrt(evals)) @ dag(evecs))


def kraus_action(kraus, a):
    """The Kraus-sum oracle sum_k B_k A B_k†."""
    return sum(b @ a @ dag(b) for b in kraus)



class TestJamiolkowski:
    def test_identity_channel_gives_pure_max_entangled_state(self):
        rho = jamiolkowski(channel_gallery('identity', 2))
        ident_ket = vec(np.eye(2)) / np.sqrt(2)
        assert np.allclose(rho, np.outer(ident_ket, ident_ket.conj()))
        assert abs(np.trace(rho @ rho) - 1.0) <= 1e-12

    def test_fully_depolarizing_gives_maximally_mixed(self):
        rho = jamiolkowski(depolarizing_channel(0.0, 2))
        assert np.allclose(rho, np.eye(4) / 4, atol=1e-12)

    def test_round_trip_matches_channel_action(self):
        rng = make_rng(21)
        channel = random_unital_mix(3, 2, rng)
        recovered = inverse_jamiolkowski(jamiolkowski(channel))
        for _ in range(20):
            rho = random_state(2, rng)
            assert np.linalg.norm(channel.apply(rho) - recovered.apply(rho)) <= 1e-8

    def test_marginals(self):
        rng = make_rng(22)
        for d in (2, 3):
            channel = random_unital_mix(4, d, rng)
            rho = jamiolkowski(channel)
            assert np.linalg.norm(partial_trace(rho, (d, d), 0) - np.eye(d) / d) <= 1e-9
            assert np.linalg.norm(partial_trace(rho, (d, d), 1) - np.eye(d) / d) <= 1e-9

    def test_general_channel_keeps_system_marginal_only(self):
        rng = make_rng(23)
        channel = random_general_channel(3, 2, rng)
        rho = jamiolkowski(channel)
        assert np.linalg.norm(partial_trace(rho, (2, 2), 0) - np.eye(2) / 2) <= 1e-9
        assert np.linalg.norm(partial_trace(rho, (2, 2), 1) - np.eye(2) / 2) > 1e-3

    @pytest.mark.parametrize('d', [2, 3])
    def test_inverse_round_trips_general_channel(self, d):
        channel = random_general_channel(3, d, make_rng(24))
        recovered = inverse_jamiolkowski(jamiolkowski(channel))
        assert channel_distance(channel, recovered) <= 1e-12

    @pytest.mark.parametrize('d', [2, 3])
    def test_inverse_complete_positivity_floor(self, d):
        # I/d² + c·(Z ⊗ I) keeps tr_s = I/d; its process matrix has smallest
        # eigenvalue 1/d - d·c, set just above and just below -1e-8
        z = np.diag([1.0, -1.0] + [0.0] * (d - 2))
        for dip, accepted in ((0.99e-8, True), (1.01e-8, False)):
            rho = np.eye(d * d) / d ** 2 + (1 / d + dip) / d * np.kron(z, np.eye(d))
            if accepted:
                assert inverse_jamiolkowski(rho).dim == d
            else:
                with pytest.raises(InvalidInputError, match='completely positive'):
                    inverse_jamiolkowski(rho)

    def test_inverse_rejects_non_bipartite_shapes(self):
        with pytest.raises(InvalidInputError, match='needs a bipartite dimension, got D=5'):
            inverse_jamiolkowski(np.eye(5) / 5)
        with pytest.raises(InvalidInputError, match=r'expected a \(d², d²\) bipartite state, got shape \(4, 3\)'):
            inverse_jamiolkowski(np.ones((4, 3)))

    @pytest.mark.parametrize('bad', [np.nan, np.inf])
    @pytest.mark.parametrize('entry', [(0, 1), (0, 2)], ids=['in-marginal', 'off-marginal'])
    def test_inverse_rejects_non_finite_states(self, bad, entry):
        # entry (0, 2) joins system indices 0 and 1, which the marginal tr_s(rho) never reads
        rho = jamiolkowski(depolarizing_channel(0.5, 2)).copy()
        rho[entry] = bad
        with pytest.raises(InvalidInputError, match='^channel output state has non-finite entries$'):
            inverse_jamiolkowski(rho)

    @pytest.mark.parametrize('huge', [1e308, 6e307], ids=['d-rho', 'hermitian-part'])
    def test_inverse_rejects_an_overflowing_process_matrix(self, huge):
        # entry (0, 2) is off the marginal, so rho passes every check before d·rho; at 6e307
        # d·rho is finite and its Hermitian part (s + s†)/2 overflows
        rho = jamiolkowski(depolarizing_channel(0.5, 2)).copy()
        rho[0, 2] = rho[2, 0] = huge
        with pytest.raises(InvalidInputError, match='^process matrix d·rho has non-finite entries$'):
            inverse_jamiolkowski(rho)

    def test_inverse_rejects_non_channel_image(self):
        bad = np.diag([0.4, 0.3, 0.2, 0.1])
        with pytest.raises(NotChannelImageError) as err:
            inverse_jamiolkowski(bad)
        assert err.value.residual > 0.01


class TestProcessMatrix:
    def test_equals_scaled_jamiolkowski_state(self):
        rng = make_rng(31)
        channel = random_general_channel(2, 3, rng)
        assert np.allclose(process_matrix(channel), 3 * jamiolkowski(channel), atol=1e-12)

    def test_channel_distance_equals_state_distance(self):
        rng = make_rng(32)
        a = random_unital_mix(2, 2, rng)
        b = random_general_channel(3, 2, rng)
        dist = channel_distance(a, b)
        assert abs(dist - np.linalg.norm(jamiolkowski(a) - jamiolkowski(b))) <= 1e-10

    def test_channel_distance_needs_one_dimension(self):
        with pytest.raises(InvalidInputError, match='^channel dimensions differ$'):
            channel_distance(depolarizing_channel(0.5, 2), depolarizing_channel(0.5, 3))

    def test_ordinary_action_via_matrix_matches_kraus(self):
        rng = make_rng(33)
        kraus = random_kraus(3, 2, rng)
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        for channel in (QuantumChannel.from_kraus(kraus),
                        ChannelEstimate(dim=2, state=jamiolkowski(QuantumChannel.from_kraus(kraus)))):
            assert np.linalg.norm(channel.apply(a) - kraus_action(kraus, a)) <= 1e-9

    def test_leftright_action_matches_basis_expansion(self):
        rng = make_rng(34)
        kraus = random_kraus(3, 2, rng)
        s = process_matrix(QuantumChannel.from_kraus(kraus))
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        expected = sum(b * np.trace(dag(b) @ a) for b in kraus)
        assert np.linalg.norm(unvec(s @ vec(a), 2) - expected) <= 1e-9


class TestGallery:
    def test_identity_purity(self):
        sigma = jamiolkowski(channel_gallery('identity', 2))
        assert abs(np.trace(sigma @ sigma) - 1.0) <= 1e-12

    def test_depolarizing_half_purity(self):
        sigma = jamiolkowski(depolarizing_channel(0.5, 2))
        assert abs(np.trace(sigma @ sigma) - 7 / 16) <= 1e-12

    def test_depolarizing_action(self):
        rng = make_rng(41)
        for d, p in ((2, 0.3), (3, 0.8)):
            channel = depolarizing_channel(p, d)
            assert channel.unital
            a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            expected = p * a + (1 - p) * np.trace(a) * np.eye(d) / d
            assert np.linalg.norm(channel.apply(a) - expected) <= 1e-10

    def test_random_unital_mix_is_unital(self):
        channel = channel_gallery('random_unital_mix', 2, rng=make_rng(42), param=3)
        assert channel.unital
        assert np.linalg.norm(channel.apply(np.eye(2)) - np.eye(2)) <= 1e-9

    def test_random_general_is_trace_preserving(self):
        channel = channel_gallery('random_general', 3, rng=make_rng(43), param=4)
        # d·tr_s(sigma) is the transpose of sum B†B
        assert np.linalg.norm(3 * partial_trace(jamiolkowski(channel), (3, 3), 0) - np.eye(3)) <= 1e-9
        assert not channel.unital

    def test_parameter_validation(self):
        with pytest.raises(InvalidInputError):
            depolarizing_channel(1.5, 2)
        for build in (lambda: depolarizing_channel(None, 2), lambda: channel_from_spec('depolarizing', 2)):
            with pytest.raises(InvalidInputError, match=r'^depolarizing needs a parameter p in \[0, 1\]$'):
                build()
        with pytest.raises(InvalidInputError):
            random_unital_mix(0, 2, make_rng(0))
        with pytest.raises(InvalidInputError):
            channel_gallery('no_such_channel', 2)

    def test_spec_grammar(self):
        # the Kraus rank, read off the output state
        assert np.linalg.matrix_rank(jamiolkowski(channel_from_spec('identity', 2))) == 1
        assert np.linalg.matrix_rank(jamiolkowski(channel_from_spec('random_unital_mix:4', 2, rng=make_rng(1)))) == 4
        depol = channel_from_spec('depolarizing:0.25', 2)
        assert depol.unital
        with pytest.raises(InvalidInputError):
            channel_from_spec('depolarizing:x', 2)

    @pytest.mark.parametrize('spec', ['identity:7', 'random_unitary:3'])
    def test_parameterless_channels_refuse_a_parameter(self, spec):
        with pytest.raises(InvalidInputError, match='takes no parameter'):
            channel_from_spec(spec, 2, rng=make_rng(1))

    @pytest.mark.parametrize('build', [
        lambda k, rng: random_unital_mix(k, 2, rng),
        lambda k, rng: random_general_channel(k, 2, rng),
        lambda k, rng: channel_gallery('random_general', 3, rng=rng, param=k),
        lambda k, rng: channel_from_spec(f'random_unital_mix:{k}', 3, rng=rng),
        lambda k, rng: channel_from_spec(f'random_general:{k}', 2, rng=rng),
    ])
    @pytest.mark.parametrize('k', [MAX_KRAUS + 1, 2 * MAX_KRAUS])
    def test_kraus_count_above_the_guard_is_refused_before_any_draw(self, build, k):
        rng = make_rng(8)
        with pytest.raises(ResourceLimitError, match=f'^Kraus count k = {k} exceeds the guard {MAX_KRAUS}$'):
            build(k, rng)
        # the generator was not advanced: its next draw is a fresh generator's first
        assert rng.standard_normal(4).tobytes() == make_rng(8).standard_normal(4).tobytes()

    @pytest.mark.parametrize('d', [2, 3])
    @pytest.mark.parametrize('k', [1, 2, 3, 4])
    def test_unital_mix_draws_one_haar_stack(self, d, k):
        # the reference: the Dirichlet weights, then k successive Haar draws
        rng = make_rng(100 * d + k)
        probs = rng.dirichlet(np.ones(k))
        reference = np.array([np.sqrt(r) * haar_unitary(d, rng) for r in probs])
        channel = random_unital_mix(k, d, make_rng(100 * d + k))
        assert channel.state.tobytes() == QuantumChannel.from_kraus(reference).state.tobytes()

    def test_help_forms_list_every_kind(self):
        assert CHANNEL_FORMS == ('identity', 'random_unitary', 'random_unital_mix:k',
                                 'depolarizing:p', 'random_general:k')
        for form in CHANNEL_FORMS:
            name, _, letter = form.partition(':')
            param = {'k': 2, 'p': 0.5}.get(letter)
            assert channel_gallery(name, 2, rng=make_rng(0), param=param).dim == 2

    @pytest.mark.parametrize('build', [
        lambda d, rng: depolarizing_channel(0.5, d),
        lambda d, rng: random_unital_mix(3, d, rng),
        lambda d, rng: random_general_channel(2, d, rng),
        lambda d, rng: channel_gallery('identity', d, rng),
    ])
    @pytest.mark.parametrize('d', [2.0, 1, None, True])
    def test_dimension_is_checked_before_any_draw(self, build, d):
        rng = make_rng(9)
        state = pickle.dumps(rng.bit_generator.state)
        with pytest.raises(InvalidInputError, match="^'dim' must be an integer >= 2, got "):
            build(d, rng)
        assert pickle.dumps(rng.bit_generator.state) == state

    def test_unknown_name_is_named_before_the_missing_rng(self):
        with pytest.raises(InvalidInputError, match="^unknown channel name 'nope'$"):
            channel_gallery('nope', 2)
        for name in ('random_unitary', 'random_unital_mix', 'random_general'):
            with pytest.raises(InvalidInputError, match=f"^channel '{name}' is random and needs an rng$"):
                channel_gallery(name, 2)
        with pytest.raises(InvalidInputError, match="^bad channel parameter 'x' in 'nope:x'$"):
            channel_from_spec('nope:x', 2)


class TestChannelTypes:
    def test_from_kraus_rejects_non_trace_preserving(self):
        with pytest.raises(InvalidInputError):
            QuantumChannel.from_kraus([np.eye(2) * 0.5])

    def test_from_kraus_rejects_nan(self):
        with pytest.raises(InvalidInputError, match='^Kraus operators are not trace preserving: residual nan$'):
            QuantumChannel.from_kraus(np.full((1, 2, 2), np.nan))

    @pytest.mark.parametrize('ops', [np.eye(2), np.ones((1, 2, 3))], ids=['one-matrix', 'non-square'])
    def test_from_kraus_needs_a_stack_of_square_matrices(self, ops):
        with pytest.raises(InvalidInputError, match=r'^Kraus stack must have shape \(k, d, d\), got'):
            QuantumChannel.from_kraus(ops)

    def test_unital_flag_detection(self):
        assert QuantumChannel.from_kraus([np.eye(2)]).unital
        # amplitude damping is trace preserving but not unital
        k0 = np.array([[1, 0], [0, np.sqrt(0.5)]], dtype=complex)
        k1 = np.array([[0, np.sqrt(0.5)], [0, 0]], dtype=complex)
        assert not QuantumChannel.from_kraus([k0, k1]).unital

    def test_weak_amplitude_damping_is_not_unital(self):
        # trace preserving, unital residual ||sum B B† - I|| = 4.2e-8 above ATOL_ALG = 1e-9: one
        # unitality rule, read off the output state, whichever way the channel was made
        g = 3e-8
        channel = QuantumChannel.from_kraus([np.diag([1.0, np.sqrt(1 - g)]), np.array([[0.0, np.sqrt(g)], [0.0, 0.0]])])
        assert not channel.unital
        assert not inverse_jamiolkowski(jamiolkowski(channel)).unital
        assert not QuantumChannel(dim=2, state=jamiolkowski(channel).copy()).unital
        assert not rotate_channel(channel, np.eye(2), np.eye(2)).unital

    def test_rotate_channel_conjugates_output_state(self):
        rng = make_rng(51)
        channel = random_unital_mix(3, 2, rng)
        u_s, u_a = haar_unitary(2, rng), haar_unitary(2, rng)
        rotated = rotate_channel(channel, u_s, u_a)
        assert rotated.unital
        big = np.kron(u_s, u_a)
        assert np.linalg.norm(jamiolkowski(rotated) - big @ jamiolkowski(channel) @ dag(big)) <= 1e-10

    @pytest.mark.parametrize('d', [2, 3])
    def test_rotate_channel_matches_the_kraus_form(self, d):
        # the oracle: Kraus operators B -> U_s B U_a^T
        rng = make_rng(52 + d)
        kraus = random_kraus(3, d, rng)
        u_s, u_a = haar_unitary(d, rng), haar_unitary(d, rng)
        rotated = rotate_channel(QuantumChannel.from_kraus(kraus), u_s, u_a)
        oracle = QuantumChannel.from_kraus(np.einsum('ab,kbc,dc->kad', u_s, kraus, u_a))
        assert np.abs(jamiolkowski(rotated) - jamiolkowski(oracle)).max() <= 1e-15
        assert rotated.unital == oracle.unital is False

    def test_rotate_channel_needs_unitaries(self):
        with pytest.raises(InvalidInputError, match='^matrix is not unitary'):
            rotate_channel(depolarizing_channel(0.5, 2), 2 * np.eye(2), np.eye(2))

    def test_estimate_wrapper_round_trips_state(self):
        channel = depolarizing_channel(0.7, 2)
        est = ChannelEstimate(dim=2, state=jamiolkowski(channel).copy())
        assert jamiolkowski(est).tobytes() == jamiolkowski(channel).tobytes()
        assert process_matrix(est).tobytes() == process_matrix(channel).tobytes()
        a = np.diag([0.25, 0.75]).astype(complex)
        assert np.linalg.norm(est.apply(a) - channel.apply(a)) <= 1e-10
        assert est.min_choi_eigenvalue() >= -1e-12


class TestOneForm:
    """Each tomography object stores one form; every other form is derived from it."""

    @pytest.mark.parametrize('cls,names', [
        (QuantumChannel, ('dim', 'state')),
        (ChannelEstimate, ('dim', 'state')),
        (DiscretePovm, ('dim', 'elements', 'trace_measure')),
    ], ids=['channel', 'estimate', 'povm'])
    def test_fields_name_only_the_stored_form(self, cls, names):
        assert tuple(f.name for f in dataclasses.fields(cls)) == names

    @pytest.mark.parametrize('d', [2, 3])
    @pytest.mark.parametrize('form', CHANNEL_FORMS)
    def test_inverse_returns_the_state_bit_for_bit(self, form, d):
        name, _, letter = form.partition(':')
        channel = channel_gallery(name, d, rng=make_rng(d), param={'k': 3, 'p': 0.5}.get(letter))
        recovered = inverse_jamiolkowski(jamiolkowski(channel))
        assert jamiolkowski(recovered).tobytes() == jamiolkowski(channel).tobytes()
        assert recovered.unital == channel.unital == (name != 'random_general')

    @pytest.mark.parametrize('d', [2, 3])
    @pytest.mark.parametrize('cls', [QuantumChannel, ChannelEstimate], ids=['channel', 'estimate'])
    def test_state_of_another_dimension_is_refused(self, cls, d):
        # a state of another shape, or a dimension below 2, used to construct and fail later
        other = 5 - d
        for state, shape in ((np.eye(other ** 2) / other ** 2, rf'\({other ** 2}, {other ** 2}\)'),
                             (np.full(d ** 2, 1 / d ** 2), rf'\({d ** 2},\)')):
            with pytest.raises(InvalidInputError, match=rf'^a d = {d} output state has shape \(d², d²\), got {shape}$'):
                cls(dim=d, state=state)
        state = np.eye(d ** 2) / d ** 2
        assert cls(dim=d, state=state).state is state and not state.flags.writeable
        for dim, size in ((1, 1), (0, 0), (2.0, 4)):
            with pytest.raises(InvalidInputError, match="^'dim' must be an integer >= 2"):
                cls(dim=dim, state=np.eye(size))

    def test_state_is_stored_once_and_read_only(self):
        channel = depolarizing_channel(0.5, 2)
        assert jamiolkowski(channel) is channel.state
        with pytest.raises(ValueError, match='read-only'):
            jamiolkowski(channel)[0, 0] = 1.0
