"""Tight rank-one POVMs from unitary designs and tomography simulation.

The measurement induced by a weighted set has rank-one density operators
P(x) = |U(x)><U(x)| built from maximally entangled kets, trace measure
tau(x) = d² w(x) and elements F(x) = tau(x) P(x); the element sum is the
identity exactly when the set is a 1-design.  The frame superoperator
F = sum_x tau(x)|P(x)>><<P(x)| decides informational completeness through
its support and tightness through its spectrum, and its restricted inverse
yields the canonical reconstruction operators.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .channels import ChannelEstimate, QuantumChannel, jamiolkowski
from .designs import WeightedUnitarySet
from .errors import (
    InvalidInputError,
    NotAPovmError,
    NotInformationallyCompleteError,
)
from .linalg import (
    ATOL_ALG,
    EIG_CUTOFF,
    class_projector,
    dag,
    span_dimension,
    vec,
)


@dataclass(frozen=True)
class DiscretePovm:
    """Discrete POVM in standard form: elements F(x), trace measure tau(x)
    and density operators P(x) = F(x)/tau(x) with unit trace."""

    dim: int                      # system dimension D
    elements: np.ndarray          # (n, D, D)
    trace_measure: np.ndarray     # (n,)
    povd: np.ndarray              # (n, D, D)

    @classmethod
    def from_elements(cls, elements, atol: float = ATOL_ALG, validate: bool = True) -> "DiscretePovm":
        elements = np.asarray(elements, dtype=complex)
        if elements.ndim != 3 or elements.shape[1] != elements.shape[2]:
            raise InvalidInputError(f"POVM elements must have shape (n, D, D), got {elements.shape}")
        dim = elements.shape[1]
        tau = np.real(np.trace(elements, axis1=1, axis2=2))
        if validate:
            completeness = np.linalg.norm(elements.sum(axis=0) - np.eye(dim))
            if completeness > atol:
                raise NotAPovmError(completeness)
            if np.any(tau <= 0):
                raise InvalidInputError("every element must have positive trace")
            bad = np.flatnonzero(np.linalg.eigvalsh((elements + dag(elements)) / 2)[:, 0] < -atol)
            if bad.size:
                raise InvalidInputError(f"element {bad[0]} is not positive semidefinite")
        povd = elements / tau[:, None, None]
        for arr in (elements, tau, povd):
            arr.setflags(write=False)
        return cls(dim=dim, elements=elements, trace_measure=tau, povd=povd)

    def __len__(self) -> int:
        return self.elements.shape[0]


def povm_from_design(s: WeightedUnitarySet, atol: float = ATOL_ALG) -> DiscretePovm:
    """Rank-one POVM on C^d ⊗ C^d with P(x) = |U(x)><U(x)| and tau = d² w.

    The element sum equals the identity exactly when the set is a weighted
    1-design; otherwise the normalization defect is raised as an error.
    """
    d = s.dim
    kets = s.unitaries.reshape(len(s), -1) / np.sqrt(d)    # |U> = vec(U)/sqrt(d)
    tau = d * d * s.weights
    elements = (tau[:, None] * kets)[:, :, None] * kets[:, None, :].conj()
    return DiscretePovm.from_elements(elements, atol=max(atol, 1e-8))


def frame_superop(povm: DiscretePovm) -> np.ndarray:
    """Left-right matrix of sum_x tau(x) |P(x)>><<P(x)| (shape (D², D²)).

    Positive, left-right Hermitian, fixes |I>> and has trace at most D with
    equality only for rank-one POVMs.
    """
    flat = povm.povd.reshape(len(povm), -1)
    return (flat.T * povm.trace_measure) @ flat.conj()


@dataclass(frozen=True)
class TightReport:
    state_class: str
    is_tight_rank_one: bool
    residual: float
    frame_trace: float            # Tr(F), = D iff rank one
    frame_trace_sq: float         # Tr(F²)
    span_dim: int                 # delta for the requested class
    dual_norm_bound: float        # (delta-1)²/(D-1) + 1


def tight_check(povm: DiscretePovm, state_class: str, tol: float = 1e-8) -> TightReport:
    """Residual of F against the tight form for the requested class.

    The target is a·Pi + ((delta-D)/((delta-1)D))|I>><<I| with
    a = (D-1)/(delta-1), where Pi projects onto the class span and delta is
    its dimension ((d²-1)²+1 for uc, d²(d²-1)+1 for gc, D² for full).
    """
    bigd = povm.dim
    d = int(round(np.sqrt(bigd)))
    if state_class in ('uc', 'gc') and d * d != bigd:
        raise InvalidInputError(f"class {state_class!r} needs a bipartite dimension, got D={bigd}")
    delta = span_dimension(state_class, d) if state_class != 'full' else bigd * bigd
    pi = class_projector(state_class, d) if state_class != 'full' else np.eye(bigd * bigd)
    frame = frame_superop(povm)
    ident = vec(np.eye(bigd, dtype=complex))
    a = (bigd - 1) / (delta - 1)
    target = a * pi + (delta - bigd) / ((delta - 1) * bigd) * np.outer(ident, ident.conj())
    residual = float(np.linalg.norm(frame - target))
    return TightReport(
        state_class=state_class,
        is_tight_rank_one=bool(residual <= tol),
        residual=residual,
        frame_trace=float(np.real(np.trace(frame))),
        frame_trace_sq=float(np.real(np.trace(frame @ frame))),
        span_dim=delta,
        dual_norm_bound=(delta - 1) ** 2 / (bigd - 1) + 1,
    )


def _frame_eig(povm: DiscretePovm, cutoff: float = EIG_CUTOFF):
    frame = frame_superop(povm)
    evals, evecs = np.linalg.eigh(frame)
    keep = evals > cutoff * evals.max()
    return evals, evecs, keep


def canonical_dual(povm: DiscretePovm, require: str | np.ndarray | None = None,
                   cutoff: float = EIG_CUTOFF) -> np.ndarray:
    """Reconstruction operators R(x) of the canonical dual frame.

    The frame superoperator is inverted on its support; R(x) is the image of
    P(x) under that restricted inverse, so sum_x tau(x) R(x) = I and
    tr R(x) = 1.  When ``require`` names a class ('uc', 'gc', 'full') or
    gives a projector, the support must contain that span, otherwise the
    POVM cannot reconstruct all states of the class and an error is raised.
    """
    evals, evecs, keep = _frame_eig(povm, cutoff)
    support_dim = int(keep.sum())
    if require is not None:
        if isinstance(require, str):
            if require == 'full':
                pi = np.eye(povm.dim ** 2)
                required_dim = povm.dim ** 2
            else:
                d = int(round(np.sqrt(povm.dim)))
                if d * d != povm.dim:
                    raise InvalidInputError(f"class {require!r} needs a bipartite dimension")
                pi = class_projector(require, d)
                required_dim = span_dimension(require, d)
        else:
            pi = np.asarray(require)
            required_dim = int(round(np.real(np.trace(pi))))
        basis = evecs[:, keep]
        # span containment: Pi restricted to the support must keep full rank
        overlap = pi @ basis
        contained = np.linalg.matrix_rank(overlap, tol=1e-8) >= required_dim
        if support_dim < required_dim or not contained:
            raise NotInformationallyCompleteError(support_dim, required_dim)
    inv = np.zeros_like(evals)
    inv[keep] = 1.0 / evals[keep]
    dual_superop = (evecs * inv) @ evecs.conj().T
    flat = povm.povd.reshape(len(povm), -1)
    duals = flat @ dual_superop.T
    return duals.reshape(len(povm), povm.dim, povm.dim)


def dual_frame_norm(povm: DiscretePovm, duals: np.ndarray | None = None,
                    cutoff: float = EIG_CUTOFF) -> float:
    """Delta_tau(R) = sum_x tau(x) <<R(x)|R(x)>> = Tr of the inverted frame."""
    if duals is None:
        evals, _, keep = _frame_eig(povm, cutoff)
        return float((1.0 / evals[keep]).sum())
    flat = duals.reshape(len(povm), -1)
    return float(np.real(np.einsum('x,xi,xi->', povm.trace_measure, flat.conj(), flat)))


def outcome_probabilities(povm: DiscretePovm, state: np.ndarray,
                          clamp: float = 1e-12) -> np.ndarray:
    """Born probabilities tr(F(x) rho), clamped and renormalized.

    Small negative dips (>= -clamp) are floored at zero; anything beyond that
    or a total deviating from one by more than 1e-9 means the POVM and state
    are inconsistent and raises.
    """
    p = np.real(np.einsum('xij,ji->x', povm.elements, np.asarray(state, dtype=complex)))
    if p.min() < -clamp:
        raise InvalidInputError(f"negative outcome probability {p.min():.3e} beyond clamp {clamp:.0e}")
    defect = abs(p.sum() - 1.0)
    if defect > 1e-9:
        raise InvalidInputError(f"outcome probabilities sum to 1{defect:+.3e}; inconsistent POVM")
    p = np.clip(p, 0.0, None)
    return p / p.sum()


def sample_counts(probabilities: np.ndarray, shots: int, rng: np.random.Generator,
                  size: int | tuple[int, ...] | None = None) -> np.ndarray:
    """Multinomial counts of ``shots`` outcomes; ``size`` stacks independent
    draws as in ``rng.multinomial``, giving shape ``size + (n,)``."""
    return rng.multinomial(shots, probabilities, size=size)


def reconstruct(duals: np.ndarray, probabilities: np.ndarray) -> np.ndarray:
    """Linear estimate sum_x p(x) R(x), one per row of a (..., n) stack."""
    n, dim = duals.shape[:2]
    p = np.asarray(probabilities, dtype=float)
    return (p @ duals.reshape(n, -1)).reshape(p.shape[:-1] + (dim, dim))


def predicted_error(d: int, purity: float, shots: int, state_class: str) -> float:
    """Optimal mean-squared reconstruction error for a class of channel outputs.

    Per shot count N this is (d⁴ + d² - 1 - tr σ²)/N for arbitrary bipartite
    states, (d⁴ - d² + 1/d² - tr σ²)/N for general-channel outputs and
    (d⁴ - 3d² + 3 - tr σ²)/N for unital-channel outputs.
    """
    if shots < 1:
        raise InvalidInputError(f"shot count must be >= 1, got {shots}")
    if not (1.0 / d ** 2 - 1e-12 <= purity <= 1.0 + 1e-12):
        raise InvalidInputError(f"purity {purity} outside [1/d², 1]")
    if state_class == 'full':
        poly = d ** 4 + d ** 2 - 1
    elif state_class == 'gc':
        poly = d ** 4 - d ** 2 + 1.0 / d ** 2
    elif state_class == 'uc':
        poly = d ** 4 - 3 * d ** 2 + 3
    else:
        raise InvalidInputError(f"unknown state class {state_class!r}")
    return (poly - purity) / shots


@dataclass(frozen=True)
class TomographyReport:
    """Monte Carlo summary of repeated linear tomographic reconstructions."""

    state_class: str
    dim: int                  # system dimension d
    shots: int
    trials: int
    empirical_mean: float     # mean of ||sigma - rho_hat||² over trials
    std_err: float
    predicted: float
    purity: float
    seed: int | None = None

    @property
    def z_score(self) -> float:
        return (self.empirical_mean - self.predicted) / self.std_err

    def with_seed(self, seed: int) -> "TomographyReport":
        return replace(self, seed=seed)


def simulate(povm: DiscretePovm, channel: QuantumChannel, shots: int, trials: int,
             rng: np.random.Generator, state_class: str | None = None) -> TomographyReport:
    """Simulate repeated tomography of a channel's bipartite output state.

    All trials come from one multinomial draw on ``rng`` of ``trials`` count
    vectors of ``shots`` outcomes; each is reconstructed through the canonical
    dual restricted to the class span, and its squared Frobenius error against
    the exact output state is recorded.  The report carries the class
    prediction evaluated at the exact purity.
    """
    if shots < 1 or trials < 1:
        raise InvalidInputError("shots and trials must both be >= 1")
    if state_class is None:
        state_class = 'uc' if channel.unital else 'gc'
    if state_class == 'uc' and not channel.unital:
        raise InvalidInputError("class 'uc' requires a unital channel")
    sigma = jamiolkowski(channel)
    duals = canonical_dual(povm, require=state_class)
    probs = outcome_probabilities(povm, sigma)
    counts = sample_counts(probs, shots, rng, size=trials)
    errors = np.linalg.norm(reconstruct(duals, counts / shots) - sigma, axis=(1, 2)) ** 2
    purity = float(np.real(np.trace(sigma @ sigma)))
    return TomographyReport(
        state_class=state_class,
        dim=channel.dim,
        shots=shots,
        trials=trials,
        empirical_mean=float(errors.mean()),
        std_err=float(errors.std(ddof=1) / np.sqrt(trials)),
        predicted=predicted_error(channel.dim, purity, shots, state_class),
        purity=purity,
    )


def estimate_channel(povm: DiscretePovm, counts: np.ndarray,
                     require: str | np.ndarray | None = None) -> ChannelEstimate:
    """Linear channel estimate from measured counts, positivity not enforced.

    The state estimate sum_x p_hat(x) R(x) is mapped to a process matrix
    without projecting onto the physical set, so the estimate's bipartite
    state equals the linear reconstruction exactly.
    """
    counts = np.asarray(counts, dtype=float)
    if counts.shape != (len(povm),) or counts.sum() <= 0:
        raise InvalidInputError("counts must hold one nonnegative total per outcome")
    d = int(round(np.sqrt(povm.dim)))
    if d * d != povm.dim:
        raise InvalidInputError("channel estimation needs a bipartite POVM dimension")
    duals = canonical_dual(povm, require=require)
    rho_hat = reconstruct(duals, counts / counts.sum())
    return ChannelEstimate(dim=d, process=d * rho_hat)
