"""Numerical search for weighted unitary t-designs.

A candidate set is parametrized totally: each unitary is the exponential of
a Hermitian combination of the scaled basis generators, and weights are the
softmax of logits tied by the weight mode's self-adjoint map.  The objective
is the frame-potential gap, which vanishes exactly on designs, minimized by
multi-restart L-BFGS with an analytic gradient (the eigendecomposition form
of the exponential's derivative keeps it exact for degenerate spectra).

The gap is the square of the moment residual and is computed by cancellation,
so it bottoms out near 1e-16 while the residual may still be near 1e-8.  A
converged result is therefore polished in linear units: damped
Gauss-Newton steps, taken through the same exponential chart, drive its
1-design residual, the POVM normalization defect, to float precision.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass

import numpy as np

from .designs import ATOL_CERT, WeightedUnitarySet, certify, gamma, merge_phase_duplicates
from .errors import InvalidInputError
from .linalg import (check_cert_threshold, check_dim, check_entries, dag, haar_unitaries, herm_basis,
                     log_unitary, make_rng)

# Weight mode -> self-adjoint linear tie T(logits, d) applied before the softmax, so T
# is also the chain rule of the logit gradient: identity, zero, or d²-block means.
_TIES = {
    'free': lambda logits, d: logits,
    'uniform': lambda logits, d: np.zeros_like(logits),
    'per-basis': lambda logits, d: np.repeat(logits.reshape(-1, d * d).mean(axis=1), d * d),
}
WEIGHT_MODES = tuple(_TIES)
# Cap on trial steps of the residual polish; singular sets need about 15.
POLISH_MAX_STEPS = 50


@dataclass(frozen=True)
class SearchConfig:
    """Search parameters, checked before any work: dim an integer >= 2
    (:func:`check_dim`), t, size, max_iterations and restarts at least 1,
    the d⁴ generator entries and the n² overlaps at most ``MAX_ENTRIES``,
    target_gap finite and positive, weight_mode one of ``WEIGHT_MODES``.
    The CLI reads its defaults and choices here."""

    dim: int
    size: int
    t: int
    max_iterations: int = 2000
    restarts: int = 20
    seed: int = 0
    target_gap: float = ATOL_CERT
    weight_mode: str = 'free'

    def __post_init__(self):
        check_dim(self.dim)
        if self.t < 1:
            raise InvalidInputError(f"t must be >= 1, got {self.t}")
        for name in ('size', 'max_iterations', 'restarts'):
            if getattr(self, name) < 1:
                raise InvalidInputError(f"{name} must be >= 1, got {getattr(self, name)}")
        check_entries(max(int(self.dim) ** 4, int(self.size) ** 2), 'the larger of the d⁴ generators and n² overlaps')
        check_cert_threshold(self.target_gap, 'target_gap')
        if self.weight_mode not in WEIGHT_MODES:
            raise InvalidInputError(f"weight_mode must be one of {WEIGHT_MODES}")
        if self.weight_mode == 'per-basis' and self.size % self.dim ** 2 != 0:
            raise InvalidInputError("per-basis mode needs size divisible by d²")


@dataclass(frozen=True)
class SearchTrace:
    """Best-gap history (non-increasing), final set and convergence flag."""

    gap_history: np.ndarray
    result: WeightedUnitarySet
    converged: bool
    wall_time: float
    best_restart: int


@functools.lru_cache(maxsize=None)
def _generators(d: int) -> np.ndarray:
    # sqrt(d) * Hermitian basis: orthogonal generators with <A_j, A_k> = d delta (shared, read-only)
    gens = np.sqrt(d) * herm_basis(d)
    gens.setflags(write=False)
    return gens


def _weights_from_logits(logits: np.ndarray, mode: str, d: int) -> np.ndarray:
    logits = _TIES[mode](logits, d)
    shifted = np.exp(logits - logits.max())
    return shifted / shifted.sum()


def _unitaries_from_theta(theta_u: np.ndarray, gens: np.ndarray):
    # U = V e^{iλ} V† from the eigendecomposition of sum_k theta_k A_k
    n, d = len(theta_u), gens.shape[-1]
    evals, v = np.linalg.eigh((theta_u @ gens.reshape(len(gens), d * d)).reshape(n, d, d))
    phases = np.exp(1j * evals)
    return (v * phases[:, None, :]) @ dag(v), evals, phases, v


def _log_coefficients(unitaries: np.ndarray, d: int) -> np.ndarray:
    # generator coefficients tr(A_k G)/d of the principal logs G (Hermitian, so tr(A_k G) = <G, A_k>)
    logs = np.array([log_unitary(u) for u in unitaries]).reshape(len(unitaries), -1)
    return np.real(logs.conj() @ _generators(d).reshape(d * d, d * d).T) / d


def parametrize(theta: np.ndarray, dim: int, size: int,
                weight_mode: str = 'free') -> WeightedUnitarySet:
    """Total parametrization theta -> weighted set.

    The first size·d² entries are generator coefficients (d² per element,
    U_j = exp(i sum_k theta_jk A_k)); the last ``size`` entries are weight
    logits mapped through a softmax, so weights are positive and normalized
    for every theta.  No dedup is applied.
    """
    theta = np.asarray(theta, dtype=float)
    d2 = dim * dim
    if theta.shape != (size * d2 + size,):
        raise InvalidInputError(
            f"theta must have length n·d² + n = {size * d2 + size}, got {theta.shape}")
    gens = _generators(dim)
    unitaries = _unitaries_from_theta(theta[:size * d2].reshape(size, d2), gens)[0]
    weights = _weights_from_logits(theta[size * d2:], weight_mode, dim)
    return WeightedUnitarySet(dim, unitaries, weights)


def theta_from_set(s: WeightedUnitarySet) -> np.ndarray:
    """Inverse seed mapping: generator coefficients from principal logs plus
    log-weights as logits.  parametrize(theta) reproduces the set projectively."""
    return np.concatenate([_log_coefficients(s.unitaries, s.dim).reshape(-1), np.log(s.weights)])


def objective_and_gradient(theta: np.ndarray, dim: int, size: int, t: int,
                           weight_mode: str = 'free') -> tuple[float, np.ndarray]:
    """Frame-potential gap and its exact gradient in theta."""
    gens = _generators(dim)
    d2 = dim * dim
    theta = np.asarray(theta, dtype=float)
    theta_u = theta[:size * d2].reshape(size, d2)
    logits = theta[size * d2:]
    w = _weights_from_logits(logits, weight_mode, dim)
    unitaries, evals, phases, v = _unitaries_from_theta(theta_u, gens)

    flat = unitaries.reshape(size, -1)
    overlaps = flat.conj() @ flat.T
    abs2 = overlaps.real ** 2 + overlaps.imag ** 2
    lower = abs2 ** (t - 1)
    abs2_t = lower * abs2
    potential = float(w @ abs2_t @ w)
    gap = potential - float(gamma(t, dim))

    # element gradient: dPhi = sum_j Re tr(K_j† dU_j),
    # K_j = 4t sum_x w_x w_j |T_xj|^(2t-2) T_xj U_x
    pair = np.outer(w, w) * t * lower * overlaps
    k_ops = 4.0 * (pair.T @ flat).reshape(size, dim, dim)
    diff = evals[:, :, None] - evals[:, None, :]
    near = np.abs(diff) < 1e-12
    e_col, e_row = phases[:, :, None], phases[:, None, :]
    # divided differences of exp(i·): (e^{iλp} - e^{iλq})/(λp - λq), i·e^{iλ} on ties
    dd = np.where(near, 1j * e_col, (e_col - e_row) / np.where(near, 1.0, diff))
    middle = (dag(v) @ k_ops @ v).conj() * dd
    back_t = v.conj() @ middle @ np.swapaxes(v, 1, 2)     # (V Mᵀ V†)ᵀ
    grad_u = np.real(back_t.reshape(size, d2) @ gens.reshape(d2, d2).T)

    dpot_dw = 2.0 * abs2_t @ w
    grad_w = _TIES[weight_mode](w * (dpot_dw - np.dot(w, dpot_dw)), dim)    # a self-adjoint tie is its chain rule
    return gap, np.concatenate([grad_u.reshape(-1), grad_w])


def _initial_theta(config: SearchConfig, rng: np.random.Generator) -> np.ndarray:
    # Haar-random generators scaled by 0.5, weight logits zero
    coeffs = 0.5 * _log_coefficients(haar_unitaries(config.dim, config.size, rng), config.dim)
    return np.concatenate([coeffs.reshape(-1), np.zeros(config.size)])


def _minimize_from(theta0: np.ndarray, config: SearchConfig, history: list[float]) -> tuple[float, np.ndarray]:
    from scipy.optimize import minimize

    best_in_run = [np.inf]

    def fun(theta):
        value, grad = objective_and_gradient(theta, config.dim, config.size, config.t,
                                             config.weight_mode)
        best_in_run[0] = min(best_in_run[0], value)
        return value, grad

    def record(_):
        previous = history[-1] if history else np.inf
        history.append(min(previous, best_in_run[0]))

    res = minimize(fun, theta0, jac=True, method='L-BFGS-B', callback=record,
                   options={'maxiter': config.max_iterations, 'ftol': 1e-18, 'gtol': 1e-14})
    record(None)
    return float(res.fun), np.asarray(res.x)


def _package(theta: np.ndarray, config: SearchConfig) -> WeightedUnitarySet:
    raw = parametrize(theta, config.dim, config.size, config.weight_mode)
    return merge_phase_duplicates(raw)


def _residual_jacobian(unitaries: np.ndarray, weights: np.ndarray, free_weights: bool):
    """Jacobian of the 1-design residual R (as floats) in the steps :func:`_polish`
    takes from the set: the column of a step along A_k at element x is
    d w_x (a f† + f a†) with f = vec(U_x), a = vec(i A_k U_x), and that of
    weight logit y is d w_y (P_y - sum_x w_x P_x), P = f f†.  It is applied,
    never stored, so memory stays O(n d²) rather than O(n d⁶)."""
    from scipy.sparse.linalg import LinearOperator

    n, d = unitaries.shape[:2]
    gens = _generators(d)[1:]               # the identity only shifts a phase
    m = len(gens)
    flat = unitaries.reshape(n, -1)

    def matvec(v):
        v = np.ravel(v)
        a = (1j * np.einsum('xk,kab->xab', v[:n * m].reshape(n, m), gens) @ unitaries).reshape(n, -1)
        half = d * (weights * a.T) @ flat.conj()
        dr = half + half.conj().T
        if free_weights:
            dl = v[n * m:]
            dr += d * (weights * (dl - weights @ dl) * flat.T) @ flat.conj()
        return dr.reshape(-1).view(float)

    def rmatvec(u):
        # <column, H> = Re tr(column† H); with K = H + H† and Z_x = unvec(K f_x),
        # the step rows are d w_x Re(a† K f) = d w_x Im tr(A_k Z_x U_x†) and the
        # weight rows d w_y (q_y - w·q), q_y = Re(f_y† H f_y)
        h = np.ascontiguousarray(np.ravel(u), dtype=float).view(complex).reshape(d * d, d * d)
        kf = flat @ (h + h.conj().T).T
        z = kf.reshape(n, d, d) @ dag(unitaries)
        rows = [(d * weights[:, None] * np.imag(np.einsum('kab,xba->xk', gens, z))).reshape(-1)]
        if free_weights:
            q = 0.5 * np.real(np.einsum('xi,xi->x', flat.conj(), kf))
            rows.append(d * weights * (q - weights @ q))
        return np.concatenate(rows)

    shape = (2 * d ** 4, n * m + (n if free_weights else 0))
    return LinearOperator(shape, matvec=matvec, rmatvec=rmatvec, dtype=float)


def _polish(s: WeightedUnitarySet, free_weights: bool) -> WeightedUnitarySet:
    """Drive the 1-design residual R = d sum_x w_x vec(U_x)vec(U_x)† - I,
    which equals the POVM defect sum F - I, to float precision.

    Each step starts from the current set.  Element x moves to exp(iG_x) U_x
    through the objective's chart, with G_x a combination of the traceless
    generators, so it stays unitary; free weights move to the softmax of log w + delta,
    so they stay positive and normalized.  The Jacobian is
    :func:`_residual_jacobian` at the current set.

    Each step is a Gauss-Newton step damped by |R| (Levenberg-Marquardt with
    the Yamashita-Fukushima parameter |R|², solved by LSMR), which keeps
    converging where the solution set is singular, as for the minimal n = d²
    sets, where plain Gauss-Newton oscillates.  A step that does not shrink
    |R| is retried with more damping.  The loop stops at float precision,
    |R| <= 8 eps d², an absolute test (before SciPy 1.16, scipy's
    least_squares offers only relative ones).
    """
    from scipy.sparse.linalg import lsmr

    d, n = s.dim, len(s)
    gens = _generators(d)[1:]
    m = len(gens)

    def residual(u, w):
        flat = u.reshape(n, -1)
        return (d * (w * flat.T) @ flat.conj() - np.eye(d * d)).reshape(-1).view(float)

    floor = 8 * np.finfo(float).eps * d * d
    u, w = s.unitaries, s.weights
    r = residual(u, w)
    norm, boost = np.linalg.norm(r), 1.0
    for _ in range(POLISH_MAX_STEPS):
        if norm <= floor:
            break
        step = lsmr(_residual_jacobian(u, w, free_weights), -r, damp=boost * norm,
                    atol=1e-10, btol=1e-10)[0]
        trial_u = _unitaries_from_theta(step[:n * m].reshape(n, m), gens)[0] @ u
        trial_w = _weights_from_logits(np.log(w) + step[n * m:], 'free', d) if free_weights else w
        trial = residual(trial_u, trial_w)
        if np.linalg.norm(trial) < norm:
            u, w, r, norm = trial_u, trial_w, trial, np.linalg.norm(trial)
            boost = max(boost / 4, 1.0)
        else:
            boost *= 10
    return WeightedUnitarySet(d, u, w)


def _finish(s: WeightedUnitarySet, gap: float, config: SearchConfig, history: list[float],
            start: float, best_restart: int) -> SearchTrace:
    # A converged set is replaced by its polish when certify passes the polish at target_gap.
    converged = bool(gap <= config.target_gap)
    if converged:
        polished = _polish(s, free_weights=config.weight_mode == 'free')
        if certify(polished, config.t, config.target_gap).passed:
            s = polished
    return SearchTrace(
        gap_history=np.asarray(history),
        result=s,
        converged=converged,
        wall_time=time.perf_counter() - start,
        best_restart=best_restart,
    )


def search(config: SearchConfig) -> SearchTrace:
    """Multi-restart minimization of the frame-potential gap.

    Restart initializations derive from independent child generators spawned
    off ``make_rng(config.seed)``, so the result is reproducible; the first
    restart reaching ``target_gap`` stops the search.  Non-convergence is
    reported through the flag, never raised.

    A converged result is polished to a 1-design residual at float precision
    (see :func:`_polish`), and the polish is kept when :func:`certify` passes
    it at ``target_gap``, so :func:`povm_from_design` accepts every converged
    result.  Weights stay fixed in the ``uniform`` and ``per-basis`` modes.
    ``gap_history`` traces the L-BFGS restarts only.
    """
    start = time.perf_counter()
    children = make_rng(config.seed).spawn(config.restarts)
    history: list[float] = []
    best_gap = np.inf
    best_theta = None
    best_restart = -1
    for restart, child in enumerate(children):
        gap, theta = _minimize_from(_initial_theta(config, child), config, history)
        if gap < best_gap:
            best_gap, best_theta, best_restart = gap, theta, restart
        if best_gap <= config.target_gap:
            break
    return _finish(_package(best_theta, config), best_gap, config, history, start, best_restart)


def refine(s: WeightedUnitarySet, config: SearchConfig) -> SearchTrace:
    """Local refinement from an existing set; never worse than the input.

    The input gap is :func:`certify`'s.  A converged result is polished as in
    :func:`search`.
    """
    if s.dim != config.dim or len(s) != config.size:
        raise InvalidInputError(
            f"set has dim={s.dim}, n={len(s)} but config expects dim={config.dim}, n={config.size}")
    start = time.perf_counter()
    input_gap = certify(s, config.t, config.target_gap).gap
    history = [input_gap]
    gap, theta = _minimize_from(theta_from_set(s), config, history)
    if gap <= input_gap:
        result = _package(theta, config)
    else:                                   # line search never accepts ascent, but keep the contract explicit
        gap, result = input_gap, s
    return _finish(result, gap, config, history, start, best_restart=0)
