"""Numerical search for weighted unitary t-designs.

A candidate set is parametrized totally: each unitary is the exponential of
a Hermitian combination of the scaled basis generators, and weights are the
normalized exponentials of free logits.  The objective is the frame-potential
gap, which vanishes exactly on designs, minimized by multi-restart L-BFGS
with an analytic gradient (the eigendecomposition form of the exponential's
derivative keeps it exact for degenerate spectra).

The gap is the square of the moment residual and is computed by cancellation,
so it bottoms out near 1e-16 while the residual may still be near 1e-8.  A
converged result is therefore polished in linear units: damped
Gauss-Newton steps drive its 1-design residual, the POVM normalization
defect, to float precision.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass

import numpy as np

from .designs import WeightedUnitarySet, frame_potential, gamma, merge_phase_duplicates
from .errors import InvalidInputError
from .linalg import haar_unitary, herm_basis, log_unitary

WEIGHT_MODES = ('free', 'uniform', 'per-basis')
# Cap on trial steps of the residual polish; singular sets need about 15.
POLISH_MAX_STEPS = 50


@dataclass(frozen=True)
class SearchConfig:
    dim: int
    size: int
    t: int
    max_iterations: int = 2000
    restarts: int = 20
    seed: int = 0
    target_gap: float = 1e-7
    weight_mode: str = 'free'

    def __post_init__(self):
        if self.size < 1:
            raise InvalidInputError(f"size must be >= 1, got {self.size}")
        if self.target_gap <= 0:
            raise InvalidInputError("target_gap must be positive")
        if self.weight_mode not in WEIGHT_MODES:
            raise InvalidInputError(f"weight_mode must be one of {WEIGHT_MODES}")
        if self.weight_mode == 'per-basis' and self.size % self.dim ** 2 != 0:
            raise InvalidInputError("per-basis mode needs size divisible by d²")

    @property
    def theta_len(self) -> int:
        return self.size * self.dim ** 2 + self.size


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
    n = len(logits)
    if mode == 'uniform':
        return np.full(n, 1.0 / n)
    if mode == 'per-basis':
        block = d * d
        tied = np.repeat(logits.reshape(-1, block).mean(axis=1), block)
        logits = tied
    shifted = np.exp(logits - logits.max())
    return shifted / shifted.sum()


def _unitaries_from_theta(theta_u: np.ndarray, gens: np.ndarray):
    g = np.einsum('nk,kab->nab', theta_u, gens)
    evals, v = np.linalg.eigh(g)
    u = np.einsum('nab,nb,ncb->nac', v, np.exp(1j * evals), np.conj(v))
    return u, evals, v


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
    unitaries, _, _ = _unitaries_from_theta(theta[:size * d2].reshape(size, d2), gens)
    weights = _weights_from_logits(theta[size * d2:], weight_mode, dim)
    return WeightedUnitarySet(dim, unitaries, weights)


def theta_from_set(s: WeightedUnitarySet) -> np.ndarray:
    """Inverse seed mapping: generator coefficients from principal logs plus
    log-weights as logits.  parametrize(theta) reproduces the set projectively."""
    gens = _generators(s.dim)
    coeffs = np.empty((len(s), s.dim ** 2))
    for j, u in enumerate(s.unitaries):
        g = log_unitary(u)
        coeffs[j] = np.real(np.einsum('kab,ba->k', gens, g)) / s.dim
    return np.concatenate([coeffs.reshape(-1), np.log(s.weights)])


def objective_and_gradient(theta: np.ndarray, dim: int, size: int, t: int,
                           weight_mode: str = 'free') -> tuple[float, np.ndarray]:
    """Frame-potential gap and its exact gradient in theta."""
    gens = _generators(dim)
    d2 = dim * dim
    theta = np.asarray(theta, dtype=float)
    theta_u = theta[:size * d2].reshape(size, d2)
    logits = theta[size * d2:]
    w = _weights_from_logits(logits, weight_mode, dim)
    unitaries, evals, v = _unitaries_from_theta(theta_u, gens)

    flat = unitaries.reshape(size, -1)
    overlaps = flat.conj() @ flat.T
    abs2 = np.abs(overlaps) ** 2
    potential = float(np.real(w @ abs2 ** t @ w))
    gap = potential - float(gamma(t, dim))

    # element gradient: dPhi = sum_j Re tr(K_j† dU_j),
    # K_j = 4t sum_x w_x w_j |T_xj|^(2t-2) T_xj U_x
    pair = np.outer(w, w) * t * abs2 ** (t - 1) * overlaps
    k_ops = 4.0 * np.einsum('xj,xab->jab', pair, unitaries)
    lam_col = evals[:, :, None]
    lam_row = evals[:, None, :]
    diff = lam_col - lam_row
    near = np.abs(diff) < 1e-12
    # divided differences of exp(i·): (e^{iλp} - e^{iλq})/(λp - λq), i·e^{iλ} on ties
    dd = np.where(near, 1j * np.exp(1j * lam_col) * np.ones_like(lam_row),
                  (np.exp(1j * lam_col) - np.exp(1j * lam_row)) / np.where(near, 1.0, diff))
    vkv = np.einsum('nba,nbc,ncd->nad', v.conj(), k_ops, v)
    middle = vkv.conj() * dd
    back = np.einsum('nab,ncb,ndc->nad', v, middle, v.conj())   # V Mᵀ V†
    grad_u = np.real(np.einsum('kab,nba->nk', gens, back))

    if weight_mode == 'uniform':
        grad_w = np.zeros(size)
    else:
        dpot_dw = 2.0 * (abs2 ** t) @ w
        grad_w = w * (dpot_dw - np.dot(w, dpot_dw))
        if weight_mode == 'per-basis':
            # logits enter through a block mean, so the chain rule block-averages
            block = dim * dim
            grad_w = np.repeat(grad_w.reshape(-1, block).mean(axis=1), block)
    return gap, np.concatenate([grad_u.reshape(-1), grad_w])


def _initial_theta(config: SearchConfig, rng: np.random.Generator) -> np.ndarray:
    # Haar-random generators scaled by 0.5, weight logits zero
    gens = _generators(config.dim)
    coeffs = np.empty((config.size, config.dim ** 2))
    for j in range(config.size):
        g = log_unitary(haar_unitary(config.dim, rng))
        coeffs[j] = 0.5 * np.real(np.einsum('kab,ba->k', gens, g)) / config.dim
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


def _polish(s: WeightedUnitarySet, free_weights: bool) -> WeightedUnitarySet:
    """Drive the 1-design residual R = d sum_x w_x vec(U_x)vec(U_x)† - I,
    which equals the POVM defect sum F - I, to float precision.

    Each element moves by a Cayley step C(G_x) U_x with G_x a combination of
    the traceless generators, so it stays unitary; free weights move through
    a softmax on their logs, so they stay positive and normalized.  The
    Jacobian is closed form: the column of a step along A_k at element x is
    d w_x (a f† + f a†) with f = vec(U_x) and a = vec(dU_x), and the column
    of weight logit y is d w_y (P_y - sum_x w_x P_x).  It is applied as an
    operator and never stored, so memory stays O(n d²) rather than O(n d⁶).

    Each step is a Gauss-Newton step damped by |R| (Levenberg-Marquardt with
    the Yamashita-Fukushima parameter |R|², solved by LSMR), which keeps
    converging where the solution set is singular, as for the minimal n = d²
    sets, where plain Gauss-Newton oscillates.  A step that does not shrink
    |R| is retried with more damping.  The loop stops at float precision,
    |R| <= 8 eps d², an absolute test (before SciPy 1.16, scipy's
    least_squares offers only relative ones).
    """
    from scipy.sparse.linalg import LinearOperator, lsmr

    d, n = s.dim, len(s)
    gens = _generators(d)[1:]               # the identity only shifts a phase
    m = len(gens)
    eye = np.eye(d)
    base, log_w = s.unitaries, np.log(s.weights)

    def unpack(p):
        g = np.einsum('xk,kab->xab', p[:n * m].reshape(n, m), gens)
        inv = np.linalg.inv(eye - 0.5j * g)
        cayley = inv @ (eye + 0.5j * g)
        logits = log_w + p[n * m:] if free_weights else log_w
        w = np.exp(logits - logits.max())
        return inv, cayley, (cayley @ base).reshape(n, -1), w / w.sum()

    def residual(p):
        _, _, flat, w = unpack(p)
        r = d * (w * flat.T) @ flat.conj() - np.eye(d * d)
        return r.reshape(-1).view(float)

    def jacobian(p):
        inv, cayley, flat, w = unpack(p)
        # dC(G)/dp_xk = inv_x (i A_k / 2) lift_x; at p = 0 this is i A_k U_x
        lift = (cayley + eye) @ base
        lift_h, inv_h = np.conj(np.swapaxes(lift, 1, 2)), np.conj(np.swapaxes(inv, 1, 2))

        def matvec(v):
            v = np.ravel(v)
            dg = np.einsum('xk,kab->xab', v[:n * m].reshape(n, m), gens)
            a = (0.5j * inv @ dg @ lift).reshape(n, -1)
            half = d * (w * a.T) @ flat.conj()
            dr = half + half.conj().T
            if free_weights:
                dl = v[n * m:]
                dr += d * (w * (dl - w @ dl) * flat.T) @ flat.conj()
            return dr.reshape(-1).view(float)

        def rmatvec(u):
            # <column, H> = Re tr(column† H); with K = H + H†, the step rows
            # are d w_x Re(a† K f) and the weight rows d w_y (q_y - w·q),
            # q_y = Re(f_y† H f_y)
            h = np.ascontiguousarray(np.ravel(u), dtype=float).view(complex).reshape(d * d, d * d)
            kf = flat @ (h + h.conj().T).T
            z = inv_h @ kf.reshape(n, d, d) @ lift_h
            rows = [(d * w[:, None] * np.real(-0.5j * np.einsum('kab,xba->xk', gens, z))).reshape(-1)]
            if free_weights:
                q = 0.5 * np.real(np.einsum('xi,xi->x', flat.conj(), kf))
                rows.append(d * w * (q - w @ q))
            return np.concatenate(rows)

        return LinearOperator((2 * d ** 4, len(p)), matvec=matvec, rmatvec=rmatvec, dtype=float)

    floor = 8 * np.finfo(float).eps * d * d
    p = np.zeros(n * m + (n if free_weights else 0))
    r = residual(p)
    norm, boost = np.linalg.norm(r), 1.0
    for _ in range(POLISH_MAX_STEPS):
        if norm <= floor:
            break
        step = lsmr(jacobian(p), -r, damp=boost * norm, atol=1e-10, btol=1e-10)[0]
        trial = residual(p + step)
        if np.linalg.norm(trial) < norm:
            p, r, norm = p + step, trial, np.linalg.norm(trial)
            boost = max(boost / 4, 1.0)
        else:
            boost *= 10
    _, _, flat, w = unpack(p)
    return WeightedUnitarySet(d, flat.reshape(n, d, d), w)


def _finish(s: WeightedUnitarySet, gap: float, config: SearchConfig, history: list[float],
            start: float, best_restart: int) -> SearchTrace:
    # A converged set is polished unless that would lift its gap above target.
    converged = bool(gap <= config.target_gap)
    if converged:
        polished = _polish(s, free_weights=config.weight_mode == 'free')
        if frame_potential(polished, config.t) - float(gamma(config.t, config.dim)) <= config.target_gap:
            s = polished
    return SearchTrace(
        gap_history=np.minimum.accumulate(np.asarray(history)),
        result=s,
        converged=converged,
        wall_time=time.perf_counter() - start,
        best_restart=best_restart,
    )


def search(config: SearchConfig, rng: np.random.Generator | None = None) -> SearchTrace:
    """Multi-restart minimization of the frame-potential gap.

    Restart initializations derive from independent child generators spawned
    off ``config.seed`` (or the supplied generator), so the result is
    reproducible; the first restart reaching ``target_gap`` stops the search.
    Non-convergence is reported through the flag, never raised.

    A converged result is polished to a 1-design residual at float precision
    (see :func:`_polish`) without lifting its gap above ``target_gap``, so
    :func:`povm_from_design` accepts every converged result.  Weights stay
    fixed in the ``uniform`` and ``per-basis`` modes.  ``gap_history`` traces
    the L-BFGS restarts only.
    """
    start = time.perf_counter()
    if rng is None:
        seeds = np.random.SeedSequence(config.seed).spawn(config.restarts)
        children = [np.random.Generator(np.random.Philox(s)) for s in seeds]
    else:
        children = rng.spawn(config.restarts)
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

    A converged result is polished as in :func:`search`; the polish may move
    its gap, but never above ``target_gap``.
    """
    if s.dim != config.dim or len(s) != config.size:
        raise InvalidInputError(
            f"set has dim={s.dim}, n={len(s)} but config expects dim={config.dim}, n={config.size}")
    start = time.perf_counter()
    input_gap = frame_potential(s, config.t) - float(gamma(config.t, config.dim))
    theta0 = theta_from_set(s)
    history = [input_gap]
    gap, theta = _minimize_from(theta0, config, history)
    if gap <= input_gap:
        result = _package(theta, config)
    else:                                   # line search never accepts ascent, but keep the contract explicit
        gap, result = input_gap, s
    return _finish(result, gap, config, history, start, best_restart=0)
