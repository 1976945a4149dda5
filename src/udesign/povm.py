"""Tight rank-one POVMs from unitary designs and tomography simulation.

The measurement induced by a weighted set has rank-one density operators
P(x) = |U(x)><U(x)| built from maximally entangled kets, trace measure
tau(x) = d² w(x) and elements F(x) = tau(x) P(x); the element sum is the
identity exactly when the set is a 1-design.  The frame superoperator
F = sum_x tau(x)|P(x)>><<P(x)| decides informational completeness through
its support and tightness through its spectrum, and its restricted inverse
yields the canonical reconstruction operators.

The frame lives in the real Hermitian coordinates of `udesign.linalg`: with
A the (n, D²) coordinates of the P(x), it is the real symmetric matrix
Aᵀ diag(tau) A.  Tightness, the spectrum, the duals and the reconstruction
error are all computed there.  `canonical_dual` returns operators, and
`frame_superop` builds the complex left-right frame from its definition.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

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
    ATOL_POVM,
    ATOL_SPAN,
    ATOL_TIGHT,
    EIG_CUTOFF,
    PROB_CLAMP,
    PROB_SUM_TOL,
    PURITY_SLACK,
    bipartite_dim,
    check_entries,
    class_projector_coords,
    dag,
    herm_coords,
    herm_from_coords,
    span_dimension,
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
    def from_elements(cls, elements) -> "DiscretePovm":
        return cls._admit(elements, ATOL_ALG, check_psd=True)

    @classmethod
    def _admit(cls, elements, atol: float, check_psd: bool) -> "DiscretePovm":
        """Standard form of complete positive elements; ``check_psd=False`` is
        for callers whose elements are positive by construction."""
        elements = np.asarray(elements, dtype=complex)
        if elements.ndim != 3 or elements.shape[1] != elements.shape[2]:
            raise InvalidInputError(f"POVM elements must have shape (n, D, D), got {elements.shape}")
        dim = elements.shape[1]
        tau = np.real(np.trace(elements, axis1=1, axis2=2))
        completeness = np.linalg.norm(elements.sum(axis=0) - np.eye(dim))
        if completeness > atol:
            raise NotAPovmError(completeness)
        if np.any(tau <= 0):
            raise InvalidInputError("every element must have positive trace")
        if check_psd:
            bad = np.flatnonzero(np.linalg.eigvalsh((elements + dag(elements)) / 2)[:, 0] < -atol)
            if bad.size:
                raise InvalidInputError(f"element {bad[0]} is not positive semidefinite")
        povd = elements / tau[:, None, None]
        for arr in (elements, tau, povd):
            arr.setflags(write=False)
        return cls(dim=dim, elements=elements, trace_measure=tau, povd=povd)

    def __len__(self) -> int:
        return self.elements.shape[0]

    @cached_property
    def coords(self) -> np.ndarray:
        """Hermitian coordinates A (n, D²) of the P(x); built on first use, read-only."""
        coords = herm_coords(self.povd)
        coords.setflags(write=False)
        return coords

    @cached_property
    def frame(self) -> np.ndarray:
        """The frame superoperator in Hermitian coordinates: the real symmetric
        (D², D²) matrix Aᵀ diag(tau) A, A = :attr:`coords`.  Built on first
        use, read-only."""
        scaled = self.coords * np.sqrt(self.trace_measure)[:, None]
        frame = scaled.T @ scaled
        frame.setflags(write=False)
        return frame


def povm_from_design(s: WeightedUnitarySet) -> DiscretePovm:
    """Rank-one POVM on C^d ⊗ C^d with P(x) = |U(x)><U(x)| and tau = d² w.

    The element sum equals the identity exactly when the set is a weighted
    1-design; a normalization defect beyond ``ATOL_POVM`` is raised as an error.
    Each element is tau(x) times a rank-one projector, so positivity follows
    from tau > 0 (checked) and needs no eigenvalue test.  The (n, D, D)
    elements and the D² × D² frame, D = d², must fit in ``MAX_ENTRIES``.
    """
    d = s.dim
    check_entries(max(len(s), int(d) ** 4) * int(d) ** 4, 'the POVM elements and frame max(n, D²)·D²')
    kets = s.unitaries.reshape(len(s), -1) / np.sqrt(d)    # |U> = vec(U)/sqrt(d)
    tau = d * d * s.weights
    elements = (tau[:, None] * kets)[:, :, None] * kets[:, None, :].conj()
    return DiscretePovm._admit(elements, ATOL_POVM, check_psd=False)


def frame_superop(povm: DiscretePovm) -> np.ndarray:
    """Left-right matrix of sum_x tau(x) |P(x)>><<P(x)| (shape (D², D²)).

    Positive, left-right Hermitian, fixes |I>> and has trace at most D with
    equality only for rank-one POVMs.  Built on each call from that sum; the
    package itself works with the coordinate frame ``povm.frame``.
    """
    flat = povm.povd.reshape(len(povm), -1)
    return (flat.T * povm.trace_measure) @ flat.conj()


def _class_span(state_class: str, bigd: int) -> tuple[np.ndarray, int]:
    """Projector onto a class span on C^d ⊗ C^d, D = d², in Hermitian
    coordinates, and the span's dimension."""
    d = bipartite_dim(bigd, f"class {state_class!r}")
    return class_projector_coords(state_class, d), span_dimension(state_class, d)


def _tight_dual_norm(delta: int, bigd: int) -> float:
    """(delta-1)²/(D-1) + 1, the dual-frame norm of a tight rank-one POVM; an integer for every class."""
    return (delta - 1) ** 2 / (bigd - 1) + 1


@dataclass(frozen=True)
class TightReport:
    state_class: str
    is_tight_rank_one: bool
    residual: float
    frame_trace: float            # Tr(F), = D iff rank one
    frame_trace_sq: float         # Tr(F²)
    span_dim: int                 # delta for the requested class
    dual_norm_bound: float        # (delta-1)²/(D-1) + 1


def tight_check(povm: DiscretePovm, state_class: str) -> TightReport:
    """Residual of F against the tight form for the requested class, tight
    when it is at most ``ATOL_TIGHT``.

    The target is a·Pi + ((delta-D)/((delta-1)D))|I>><<I| with
    a = (D-1)/(delta-1), where Pi projects onto the class span and delta is
    its dimension ((d²-1)²+1 for uc, d²(d²-1)+1 for gc, D² for full).
    Computed in Hermitian coordinates, where the Frobenius norm and traces
    are those of the left-right form.
    """
    bigd = povm.dim
    pi, delta = _class_span(state_class, bigd)
    frame = povm.frame
    ident = herm_coords(np.eye(bigd))
    a = (bigd - 1) / (delta - 1)
    target = a * pi + (delta - bigd) / ((delta - 1) * bigd) * np.outer(ident, ident)
    residual = float(np.linalg.norm(frame - target))
    return TightReport(
        state_class=state_class,
        is_tight_rank_one=bool(residual <= ATOL_TIGHT),
        residual=residual,
        frame_trace=float(np.trace(frame)),
        frame_trace_sq=float(np.vdot(frame, frame)),     # Tr(F²) of the symmetric F
        span_dim=delta,
        dual_norm_bound=_tight_dual_norm(delta, bigd),
    )


def _frame_eig(povm: DiscretePovm):
    evals, evecs = np.linalg.eigh(povm.frame)
    keep = evals > EIG_CUTOFF * evals.max()
    return evals, evecs, keep


def _dual_coords(povm: DiscretePovm, require: str | None) -> np.ndarray:
    """Hermitian coordinates (n, D²) of the canonical duals; see :func:`canonical_dual`."""
    if require is not None and not isinstance(require, str):
        raise InvalidInputError(f"require must name a state class or be None, got {type(require).__name__}")
    evals, evecs, keep = _frame_eig(povm)
    support = evecs[:, keep]
    if require is not None:
        pi, required_dim = _class_span(require, povm.dim)
        # span containment: no part of the required span may lie outside the support
        outside = np.linalg.norm(pi - support @ (support.T @ pi))
        if support.shape[1] < required_dim or outside > ATOL_SPAN:
            raise NotInformationallyCompleteError(support.shape[1], required_dim)
    return povm.coords @ ((support / evals[keep]) @ support.T)


def canonical_dual(povm: DiscretePovm, require: str | None = None) -> np.ndarray:
    """Reconstruction operators R(x) of the canonical dual frame.

    The frame superoperator is inverted on its support; R(x) is the image of
    P(x) under that restricted inverse, so sum_x tau(x) R(x) = I and
    tr R(x) = 1.  When ``require`` names a class ('uc', 'gc', 'full'), the
    support must contain its span (||Pi - B Bᵀ Pi|| <= ``ATOL_SPAN`` in
    Hermitian coordinates, Pi the class projector and B an orthonormal
    support basis), otherwise the POVM cannot reconstruct all states of the
    class and an error is raised.
    """
    return herm_from_coords(_dual_coords(povm, require))


def dual_frame_norm(povm: DiscretePovm, duals: np.ndarray | None = None) -> float:
    """Delta_tau(R) = sum_x tau(x) <<R(x)|R(x)>> = Tr of the inverted frame."""
    if duals is None:
        evals, _, keep = _frame_eig(povm)
        return float((1.0 / evals[keep]).sum())
    flat = duals.reshape(len(povm), -1)
    return float(np.real(np.einsum('x,xi,xi->', povm.trace_measure, flat.conj(), flat)))


def outcome_probabilities(povm: DiscretePovm, state: np.ndarray) -> np.ndarray:
    """Born probabilities tr(F(x) rho), clamped and renormalized.

    Small negative dips (>= -``PROB_CLAMP``, 1e-12) are floored at zero;
    anything beyond that or a total deviating from one by more than
    ``PROB_SUM_TOL`` (1e-9) means the POVM and state are inconsistent and
    raises.
    """
    p = np.real(np.einsum('xij,ji->x', povm.elements, np.asarray(state, dtype=complex)))
    if p.min() < -PROB_CLAMP:
        raise InvalidInputError(f"negative outcome probability {p.min():.3e} beyond clamp {PROB_CLAMP:.0e}")
    defect = abs(p.sum() - 1.0)
    if defect > PROB_SUM_TOL:
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

    The prediction is the tight dual-frame norm (δ-1)²/(D-1) + 1 (the
    ``dual_norm_bound`` of :func:`tight_check`, D = d² and δ the class span
    dimension) divided by D, less the purity, per shot count N: (d⁴ + d² - 1
    - tr σ²)/N for arbitrary bipartite states, (d⁴ - d² + 1/d² - tr σ²)/N for
    general-channel outputs and (d⁴ - 3d² + 3 - tr σ²)/N for unital-channel
    outputs.
    """
    if shots < 1:
        raise InvalidInputError(f"shot count must be >= 1, got {shots}")
    if not (1.0 / d ** 2 - PURITY_SLACK <= purity <= 1.0 + PURITY_SLACK):
        raise InvalidInputError(f"purity {purity} outside [1/d², 1]")
    bigd = d * d
    return (_tight_dual_norm(span_dimension(state_class, d), bigd) / bigd - purity) / shots


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
    the exact output state is recorded (as the squared distance of Hermitian
    coordinates, the same number).  The report carries the class prediction
    evaluated at the exact purity.  The counts and estimates, trials × max(n, D²)
    entries, must fit in ``MAX_ENTRIES``.
    """
    if shots < 1 or trials < 2:
        raise InvalidInputError("need shots >= 1 and trials >= 2: the standard error needs two trials")
    check_entries(trials * max(len(povm), povm.dim ** 2), 'trials × max(outcomes, D²)')
    if state_class is None:
        state_class = 'uc' if channel.unital else 'gc'
    if state_class == 'uc' and not channel.unital:
        raise InvalidInputError("class 'uc' requires a unital channel")
    sigma = jamiolkowski(channel)
    duals = _dual_coords(povm, state_class)
    probs = outcome_probabilities(povm, sigma)
    counts = sample_counts(probs, shots, rng, size=trials)
    errors = np.sum(((counts / shots) @ duals - herm_coords(sigma)) ** 2, axis=1)
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
                     require: str | None = None) -> ChannelEstimate:
    """Linear channel estimate from measured counts, positivity not enforced.

    The state estimate sum_x p_hat(x) R(x) is mapped to a process matrix
    without projecting onto the physical set, so the estimate's bipartite
    state equals the linear reconstruction exactly.
    """
    counts = np.asarray(counts, dtype=float)
    if counts.shape != (len(povm),) or counts.sum() <= 0:
        raise InvalidInputError("counts must hold one nonnegative total per outcome")
    d = bipartite_dim(povm.dim, "channel estimation")
    rho_hat = herm_from_coords((counts / counts.sum()) @ _dual_coords(povm, require))
    return ChannelEstimate(dim=d, process=d * rho_hat)
