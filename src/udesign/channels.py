"""Quantum channels, their bipartite output states and process matrices.

A channel acts on the first factor of C^d ⊗ C^d; feeding in the maximally
entangled state |I><I| yields the bipartite output state that determines the
channel completely.  The process matrix is the channel's superoperator matrix
in the standard |j><k| basis and equals d times that output state, so channel
distances reduce to state distances.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, NotChannelImageError, ResourceLimitError
from .linalg import (ATOL_ALG, ATOL_KRAUS, CP_FLOOR, MAX_KRAUS, bipartite_dim, dag, haar_unitaries,
                     partial_trace, unvec, weyl_operators)


@dataclass(frozen=True)
class QuantumChannel:
    """Completely positive trace-preserving map in Kraus form."""

    dim: int
    kraus: np.ndarray          # (k, d, d)
    unital: bool = field(default=False)

    @classmethod
    def from_kraus(cls, ops, atol: float = ATOL_ALG) -> "QuantumChannel":
        kraus = np.asarray(ops, dtype=complex)
        if kraus.ndim != 3 or kraus.shape[1] != kraus.shape[2]:
            raise InvalidInputError(f"Kraus stack must have shape (k, d, d), got {kraus.shape}")
        d = kraus.shape[1]
        ident = np.eye(d)
        tp_residual = np.linalg.norm(np.einsum('kba,kbc->ac', kraus.conj(), kraus) - ident)
        if not tp_residual <= atol:                  # NaN entries are not trace preserving either
            raise InvalidInputError(f"Kraus operators are not trace preserving: residual {tp_residual:.3e}")
        unital_residual = np.linalg.norm(np.einsum('kab,kcb->ac', kraus, kraus.conj()) - ident)
        kraus.setflags(write=False)
        # ``atol`` loosens only trace preservation; unitality is an algebraic identity
        return cls(dim=d, kraus=kraus, unital=bool(unital_residual <= ATOL_ALG))

    def apply(self, a: np.ndarray) -> np.ndarray:
        """Ordinary action sum_k B_k A B_k†."""
        return np.einsum('kab,bc,kdc->ad', self.kraus, np.asarray(a, dtype=complex), self.kraus.conj())

    def __len__(self) -> int:
        return self.kraus.shape[0]


@dataclass(frozen=True)
class ChannelEstimate:
    """Linear (generally unphysical) channel estimate held as a process matrix.

    Positivity is deliberately not enforced; `min_choi_eigenvalue` reports how
    far the underlying bipartite state is from positive semidefinite.
    """

    dim: int
    process: np.ndarray        # (d², d²)

    def apply(self, a: np.ndarray) -> np.ndarray:
        return apply_process_matrix(self.process, np.asarray(a, dtype=complex), self.dim)

    def jamiolkowski_state(self) -> np.ndarray:
        return self.process / self.dim

    def min_choi_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.jamiolkowski_state()).min())


def jamiolkowski(channel: QuantumChannel) -> np.ndarray:
    """Bipartite output state (E ⊗ Id)(|I><I|) on C^d ⊗ C^d."""
    d = channel.dim
    # (B ⊗ I)|I> = vec(B)/sqrt(d) under the row-major vec convention
    vecs = channel.kraus.reshape(len(channel), -1) / np.sqrt(d)
    return np.einsum('ki,kj->ij', vecs, vecs.conj())


def process_matrix(channel: QuantumChannel | ChannelEstimate) -> np.ndarray:
    """Superoperator matrix in the standard |j><k| basis (= d × output state)."""
    if isinstance(channel, ChannelEstimate):
        return channel.process
    return channel.dim * jamiolkowski(channel)


def apply_process_matrix(s: np.ndarray, a: np.ndarray, d: int) -> np.ndarray:
    """Ordinary action sum_jk s_jk E_j A E_k† recovered from the matrix s."""
    s4 = np.asarray(s).reshape(d, d, d, d)
    return np.einsum('abcd,bd->ac', s4, np.asarray(a, dtype=complex))


def inverse_jamiolkowski(rho: np.ndarray) -> QuantumChannel:
    """Channel whose output state is ``rho``, from the process matrix d·rho.

    Requires tr_s(rho) = I/d within ``ATOL_ALG`` (every trace-preserving
    image satisfies it), a process matrix that does not overflow, and
    complete positivity down to ``-CP_FLOOR``, since Kraus operators are
    read off the eigendecomposition of the process matrix; they must then
    be trace preserving within ``ATOL_KRAUS``.
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
    evals, evecs = np.linalg.eigh(s)
    if evals.min() < -CP_FLOOR:
        raise InvalidInputError(
            f"state is not completely positive within tolerance (min eigenvalue {evals.min():.3e})"
        )
    keep = evals > 0
    kraus = [np.sqrt(lam) * unvec(evecs[:, i], d) for i, lam in zip(np.where(keep)[0], evals[keep])]
    return QuantumChannel.from_kraus(kraus, atol=ATOL_KRAUS)


def channel_distance(a: QuantumChannel | ChannelEstimate, b: QuantumChannel | ChannelEstimate) -> float:
    """Frobenius distance between channels, normalized to equal the distance
    between their bipartite output states."""
    if a.dim != b.dim:
        raise InvalidInputError("channel dimensions differ")
    return float(np.linalg.norm(process_matrix(a) - process_matrix(b))) / a.dim


def rotate_channel(channel: QuantumChannel, u_sys: np.ndarray, u_anc: np.ndarray) -> QuantumChannel:
    """Channel whose output state is (U_s ⊗ U_a) rho (U_s ⊗ U_a)†.

    Realized on Kraus operators as B -> U_s B U_a^T; preserves unitality.
    """
    kraus = np.einsum('ab,kbc,dc->kad', u_sys, channel.kraus, u_anc)
    return QuantumChannel.from_kraus(kraus)


def depolarizing_channel(p: float, d: int) -> QuantumChannel:
    """A -> p·A + (1-p)·tr(A)·I/d, Kraus form over the Weyl operators."""
    if p is None:                   # the channel grammar's `depolarizing` without `:p`
        raise InvalidInputError("depolarizing needs a parameter p in [0, 1]")
    if not 0.0 <= p <= 1.0:
        raise InvalidInputError(f"depolarizing parameter must lie in [0, 1], got {p}")
    coeff = np.full(d * d, np.sqrt((1 - p) / d ** 2))
    coeff[0] = np.sqrt(p + (1 - p) / d ** 2)
    return QuantumChannel.from_kraus(coeff[:, None, None] * weyl_operators(d))


def _check_kraus_count(k: int, what: str) -> None:
    # before any draw, so a refused k leaves the generator untouched
    if k < 1:
        raise InvalidInputError(f"need at least one {what}, got k={k}")
    if k > MAX_KRAUS:
        raise ResourceLimitError(f"Kraus count k = {k} exceeds the guard {MAX_KRAUS}")


def random_unital_mix(k: int, d: int, rng: np.random.Generator) -> QuantumChannel:
    """Probabilistic mixture of k Haar unitaries with flat-Dirichlet weights;
    1 <= k <= ``MAX_KRAUS``."""
    _check_kraus_count(k, 'unitary')
    probs = rng.dirichlet(np.ones(k))
    return QuantumChannel.from_kraus(np.sqrt(probs)[:, None, None] * haar_unitaries(d, k, rng))


def random_general_channel(k: int, d: int, rng: np.random.Generator) -> QuantumChannel:
    """k Gaussian Kraus operators, polar-normalized so sum B†B = I;
    1 <= k <= ``MAX_KRAUS``."""
    _check_kraus_count(k, 'Kraus operator')
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
    return build(default if param is None else parse(param), d, rng)


def channel_from_spec(spec: str, d: int, rng: np.random.Generator | None = None) -> QuantumChannel:
    """Parse the CLI channel grammar `name` or `name:param` (``CHANNEL_FORMS``)."""
    name, _, raw = spec.partition(':')
    try:
        param = (_CHANNELS[name][1] if name in _CHANNELS else int)(raw) if raw else None
    except ValueError as exc:
        raise InvalidInputError(f"bad channel parameter {raw!r} in {spec!r}") from exc
    return channel_gallery(name, d, rng=rng, param=param)
