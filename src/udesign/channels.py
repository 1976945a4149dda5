"""Quantum channels as their bipartite output states.

A channel acts on the first factor of C^d ⊗ C^d; feeding in the maximally
entangled state |I><I| yields the bipartite output state
sigma = (E ⊗ Id)(|I><I|) that determines the channel completely.  It is the
one form a channel or a channel estimate stores: the process matrix, the
channel's superoperator matrix in the standard |j><k| basis, is d·sigma, so
the ordinary action is read off it and channel distances reduce to state
distances.  Kraus operators are an input of `QuantumChannel.from_kraus` only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidInputError, NotChannelImageError, ResourceLimitError
from .linalg import (ATOL_ALG, CP_FLOOR, MAX_KRAUS, assert_unitary, bipartite_dim, check_count, check_dim, dag,
                     haar_unitaries, partial_trace, weyl_operators)


@dataclass(frozen=True)
class _OutputState:
    """A linear map held as its output state (E ⊗ Id)(|I><I|), shape (d², d²), read-only."""

    dim: int
    state: np.ndarray

    def __post_init__(self):
        check_dim(self.dim)
        if self.state.shape != (self.dim ** 2,) * 2:
            raise InvalidInputError(f"a d = {self.dim} output state has shape (d², d²), got {self.state.shape}")
        self.state.setflags(write=False)

    def apply(self, a: np.ndarray) -> np.ndarray:
        """Ordinary action sum_jk s_jk E_j A E_k†, read off the process matrix s = d·state."""
        d = self.dim
        return np.einsum('abcd,bd->ac', (d * self.state).reshape(d, d, d, d), np.asarray(a, dtype=complex))


@dataclass(frozen=True)
class QuantumChannel(_OutputState):
    """Completely positive trace-preserving map, held as its output state."""

    @classmethod
    def from_kraus(cls, ops) -> "QuantumChannel":
        kraus = np.asarray(ops, dtype=complex)
        if kraus.ndim != 3 or kraus.shape[1] != kraus.shape[2]:
            raise InvalidInputError(f"Kraus stack must have shape (k, d, d), got {kraus.shape}")
        d = kraus.shape[1]
        tp_residual = np.linalg.norm(np.einsum('kba,kbc->ac', kraus.conj(), kraus) - np.eye(d))
        if not tp_residual <= ATOL_ALG:              # NaN entries are not trace preserving either
            raise InvalidInputError(f"Kraus operators are not trace preserving: residual {tp_residual:.3e}")
        # (B ⊗ I)|I> = vec(B)/sqrt(d) under the row-major vec convention
        vecs = kraus.reshape(len(kraus), -1) / np.sqrt(d)
        return cls(dim=d, state=np.einsum('ki,kj->ij', vecs, vecs.conj()))

    @cached_property
    def unital(self) -> bool:
        """E(I) = I within ``ATOL_ALG``, read as ||d·tr_anc(sigma) - I||, which is
        ||sum B B† - I|| for Kraus operators B."""
        d = self.dim
        return bool(np.linalg.norm(d * partial_trace(self.state, (d, d), axis=1) - np.eye(d)) <= ATOL_ALG)


@dataclass(frozen=True)
class ChannelEstimate(_OutputState):
    """Linear (generally unphysical) channel estimate, held as its output state.

    Positivity is deliberately not enforced; `min_choi_eigenvalue` reports how
    far that state is from positive semidefinite.
    """

    def min_choi_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.state).min())


def jamiolkowski(channel: QuantumChannel | ChannelEstimate) -> np.ndarray:
    """Bipartite output state (E ⊗ Id)(|I><I|) on C^d ⊗ C^d, the stored read-only array."""
    return channel.state


def process_matrix(channel: QuantumChannel | ChannelEstimate) -> np.ndarray:
    """Superoperator matrix in the standard |j><k| basis (= d × output state)."""
    return channel.dim * channel.state


def inverse_jamiolkowski(rho: np.ndarray) -> QuantumChannel:
    """Channel whose output state is the Hermitian part of ``rho``.

    Requires tr_s(rho) = I/d within ``ATOL_ALG`` (every trace-preserving
    image satisfies it), a process matrix d·rho that does not overflow, and
    complete positivity: no eigenvalue of the process matrix below -``CP_FLOOR``.
    """
    rho = np.asarray(rho, dtype=complex)
    d = bipartite_dim(rho.shape[0], "a channel output state")
    if rho.shape != (d * d, d * d):
        raise InvalidInputError(f"expected a (d², d²) bipartite state, got shape {rho.shape}")
    if not np.isfinite(rho).all():
        raise InvalidInputError("channel output state has non-finite entries")
    marg = partial_trace(rho, (d, d), axis=0)
    residual = float(np.linalg.norm(marg - np.eye(d) / d))
    if residual > ATOL_ALG:
        raise NotChannelImageError(residual)
    with np.errstate(over='ignore', invalid='ignore'):     # a finite rho near the float limit
        s = d * rho
        s = (s + dag(s)) / 2
    if not np.isfinite(s).all():
        raise InvalidInputError("process matrix d·rho has non-finite entries")
    low = np.linalg.eigvalsh(s).min()
    if low < -CP_FLOOR:
        raise InvalidInputError(f"state is not completely positive within tolerance (min eigenvalue {low:.3e})")
    return QuantumChannel(dim=d, state=(rho + dag(rho)) / 2)


def channel_distance(a: QuantumChannel | ChannelEstimate, b: QuantumChannel | ChannelEstimate) -> float:
    """Frobenius distance between channels, normalized to equal the distance
    between their bipartite output states."""
    if a.dim != b.dim:
        raise InvalidInputError("channel dimensions differ")
    return float(np.linalg.norm(process_matrix(a) - process_matrix(b))) / a.dim


def rotate_channel(channel: QuantumChannel, u_sys: np.ndarray, u_anc: np.ndarray) -> QuantumChannel:
    """Channel whose output state is (U_s ⊗ U_a) sigma (U_s ⊗ U_a)†, for
    unitary U_s and U_a; preserves unitality."""
    big = np.kron(assert_unitary(u_sys), assert_unitary(u_anc))
    return QuantumChannel(dim=channel.dim, state=big @ channel.state @ dag(big))


def depolarizing_channel(p: float, d: int) -> QuantumChannel:
    """A -> p·A + (1-p)·tr(A)·I/d, Kraus form over the Weyl operators."""
    check_dim(d)
    if p is None:                   # the channel grammar's `depolarizing` without `:p`
        raise InvalidInputError("depolarizing needs a parameter p in [0, 1]")
    if not 0.0 <= p <= 1.0:
        raise InvalidInputError(f"depolarizing parameter must lie in [0, 1], got {p}")
    coeff = np.full(d * d, np.sqrt((1 - p) / d ** 2))
    coeff[0] = np.sqrt(p + (1 - p) / d ** 2)
    return QuantumChannel.from_kraus(coeff[:, None, None] * weyl_operators(d))


def _check_kraus(k: int, d: int) -> None:
    # before any draw, so a refused k or d leaves the generator untouched
    check_count(k, 'k', 1)
    check_dim(d)
    if k > MAX_KRAUS:
        raise ResourceLimitError(f"Kraus count k = {k} exceeds the guard {MAX_KRAUS}")


def random_unital_mix(k: int, d: int, rng: np.random.Generator) -> QuantumChannel:
    """Probabilistic mixture of k Haar unitaries with flat-Dirichlet weights;
    1 <= k <= ``MAX_KRAUS``."""
    _check_kraus(k, d)
    probs = rng.dirichlet(np.ones(k))
    return QuantumChannel.from_kraus(np.sqrt(probs)[:, None, None] * haar_unitaries(d, k, rng))


def random_general_channel(k: int, d: int, rng: np.random.Generator) -> QuantumChannel:
    """k Gaussian Kraus operators, polar-normalized so sum B†B = I;
    1 <= k <= ``MAX_KRAUS``."""
    _check_kraus(k, d)
    raw = rng.standard_normal((k, d, d)) + 1j * rng.standard_normal((k, d, d))
    gram = np.einsum('kba,kbc->ac', raw.conj(), raw)
    evals, evecs = np.linalg.eigh(gram)
    inv_sqrt = (evecs / np.sqrt(evals)) @ dag(evecs)
    return QuantumChannel.from_kraus(raw @ inv_sqrt)


# The channel grammar `name` or `name:param`, one row per kind in help order: parameter letter
# (None: takes none), its type and default, whether the kind draws from an rng, builder(param, d, rng).
_CHANNELS = {
    'identity': (None, int, None, False, lambda _, d, rng: QuantumChannel.from_kraus(np.eye(d)[None])),
    'random_unitary': (None, int, None, True,
                       lambda _, d, rng: QuantumChannel.from_kraus(haar_unitaries(d, 1, rng))),
    'random_unital_mix': ('k', int, 3, True, random_unital_mix),
    'depolarizing': ('p', float, None, False, lambda p, d, rng: depolarizing_channel(p, d)),
    'random_general': ('k', int, 2, True, random_general_channel),
}
CHANNEL_FORMS = tuple(name + (f':{row[0]}' if row[0] else '') for name, row in _CHANNELS.items())


def channel_gallery(name: str, d: int, rng: np.random.Generator | None = None, param=None) -> QuantumChannel:
    """The channel of one kind in ``CHANNEL_FORMS``; ``param`` is the k or p of
    the kinds that name one, and the random kinds need ``rng``."""
    if name not in _CHANNELS:
        raise InvalidInputError(f"unknown channel name {name!r}")
    letter, parse, default, random, build = _CHANNELS[name]
    if param is not None and letter is None:
        raise InvalidInputError(f"channel {name!r} takes no parameter, got {param!r}")
    if random and rng is None:
        raise InvalidInputError(f"channel {name!r} is random and needs an rng")
    check_dim(d)
    return build(default if param is None else parse(param), d, rng)


def channel_from_spec(spec: str, d: int, rng: np.random.Generator | None = None) -> QuantumChannel:
    """Parse the CLI channel grammar `name` or `name:param` (``CHANNEL_FORMS``)."""
    name, _, raw = spec.partition(':')
    try:
        param = (_CHANNELS[name][1] if name in _CHANNELS else int)(raw) if raw else None
    except ValueError as exc:
        raise InvalidInputError(f"bad channel parameter {raw!r} in {spec!r}") from exc
    return channel_gallery(name, d, rng=rng, param=param)
