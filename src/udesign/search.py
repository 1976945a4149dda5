"""Numerical search for weighted unitary t-designs.

A candidate set is parametrized totally: each unitary is the exponential of
a Hermitian combination of the scaled basis generators, and weights are the
softmax of logits tied by the weight mode's self-adjoint map.  The objective
is the frame-potential gap, which vanishes exactly on designs, minimized by
multi-restart L-BFGS with an analytic gradient, whose chart is in closed form
at d = 2 and goes through the eigendecomposition at d >= 3 (:func:`_chart`).

The gap is the square of the moment residual and is computed by cancellation,
so it bottoms out near 1e-16 while the residual may still be near 1e-8, and the
last half of a full L-BFGS run is spent there.  So each restart is one
straight path: L-BFGS to the first iterate whose gap is at most
``_HANDOFF_GAP``, then one polish in linear units, whose damped Gauss-Newton
steps, taken through the same exponential chart, drive the t-th moment
residual on Sym^t(C^(d²)), and with it every lower one (the POVM
normalization defect among them), to its float floor.  A polish that stalls
above ``target_residual`` gives up, since its restart fails anyway.  A restart
converges when :func:`certify` passes its set, on the residual, at
``target_residual``.

Each L-BFGS run evaluates its objective in one :class:`ObjectiveWorkspace`,
the three n × n buffers it allocates when it starts.  Freed n × n
temporaries were returned to the system after every call and faulted back
in on the next, so page faults took about a third of a call at n = 150.
Reusing them changes no bit of any result.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass

import numpy as np

from .designs import (ATOL_CERT, DesignCertificate, WeightedUnitarySet, _sym_layout, certify, check_layout, gamma,
                      merge_phase_duplicates)
from .errors import InvalidInputError
from .linalg import (check_cert_threshold, check_count, check_dim, check_entries, dag, haar_unitaries,
                     herm_basis, log_unitary, make_rng, row_blocks)

# Weight mode -> self-adjoint linear tie T(logits, d) applied before the softmax, so T
# is also the chain rule of the logit gradient: identity, zero, or d²-block means.
_TIES = {
    'free': lambda logits, d: logits,
    'uniform': lambda logits, d: np.zeros_like(logits),
    'per-basis': lambda logits, d: np.repeat(logits.reshape(-1, d * d).mean(axis=1), d * d),
}
WEIGHT_MODES = tuple(_TIES)

# Solver settings.  L-BFGS stops at these tolerances, or hands a restart to the polish at the
# first iterate whose gap is at most _HANDOFF_GAP.  Each polish step solves its damped system by
# LSMR to _LSMR_TOL; a step that leaves more than _STALL of |R| tightens that tolerance by
# _TIGHTEN, down to _MIN_TOL, and at _MIN_TOL ends the polish if |R| is above the target.  A
# polish takes at most _POLISH_TRIALS trial steps.
_LBFGS_TOLERANCES = {'ftol': 1e-18, 'gtol': 1e-14}
_HANDOFF_GAP = 1e-4
_LSMR_TOL = 1e-4
_STALL, _TIGHTEN, _MIN_TOL = 0.5, 1e-2, 1e-12
_POLISH_TRIALS = 60


def _tie(mode: str):
    """The tie of a weight mode; a name outside ``WEIGHT_MODES`` is a usage error."""
    if mode not in WEIGHT_MODES:
        raise InvalidInputError(f"weight_mode must be one of {WEIGHT_MODES}")
    return _TIES[mode]


@dataclass(frozen=True)
class SearchConfig:
    """Search parameters, checked before any work: dim an integer >= 2, size, max_iterations and
    restarts integers >= 1 (:func:`check_count`), the d⁴ generator entries and the n² overlaps at
    most ``MAX_ENTRIES``, t and the closing :func:`certify`'s symmetric layout by
    :func:`check_layout`, target_residual (the t-th moment residual a converged set may keep)
    finite and positive, weight_mode one of ``WEIGHT_MODES``.  The CLI reads its defaults and
    choices here."""

    dim: int
    size: int
    t: int
    max_iterations: int = 2000
    restarts: int = 20
    seed: int = 0
    target_residual: float = ATOL_CERT
    weight_mode: str = 'free'

    def __post_init__(self):
        check_dim(self.dim)
        for name in ('size', 'max_iterations', 'restarts'):
            check_count(getattr(self, name), name, 1)
        check_entries(max(int(self.dim) ** 4, int(self.size) ** 2), 'the larger of the d⁴ generators and n² overlaps')
        check_layout(self.t, self.dim)      # counted only: building it can take seconds
        check_cert_threshold(self.target_residual, 'target_residual')
        _tie(self.weight_mode)
        if self.weight_mode == 'per-basis' and self.size % self.dim ** 2 != 0:
            raise InvalidInputError("per-basis mode needs size divisible by d²")


@dataclass(frozen=True)
class SearchTrace:
    """Best-gap history (non-increasing), final set and its :func:`certify` certificate, which
    alone says whether the search converged."""

    gap_history: np.ndarray
    result: WeightedUnitarySet
    certificate: DesignCertificate
    wall_time: float
    best_restart: int

    @property
    def converged(self) -> bool:
        return self.certificate.passed


@functools.lru_cache(maxsize=None)
def _generators(d: int) -> np.ndarray:
    # sqrt(d) * Hermitian basis: orthogonal generators with <A_j, A_k> = d delta (shared, read-only)
    gens = np.sqrt(d) * herm_basis(d)
    gens.setflags(write=False)
    return gens


def _weights_from_logits(logits: np.ndarray, mode: str, d: int) -> np.ndarray:
    logits = _tie(mode)(logits, d)
    shifted = np.exp(logits - logits.max())
    return shifted / shifted.sum()


def _chart(coeffs: np.ndarray, d: int):
    """The chart U_x = exp(i sum_k θ_xk A_k) over the last ``coeffs.shape[1]`` generators (all d², or
    the d² - 1 traceless ones) as (unitaries, pullback), pullback(K) the gradient Re tr(K_x† ∂U_x/∂θ_xk):
    in closed form at d = 2 (:func:`_qubit_chart`), by eigendecomposition at d >= 3 (:func:`_eigh_chart`)."""
    return _qubit_chart(coeffs) if d == 2 else _eigh_chart(coeffs, _generators(d)[-coeffs.shape[1]:])


def _eigh_chart(coeffs: np.ndarray, gens: np.ndarray):
    # U = V e^{iλ} V† from the eigendecomposition of sum_k θ_k A_k; the pullback reads the divided
    # differences of exp(i·), so it stays exact on degenerate spectra
    n, d = len(coeffs), gens.shape[-1]
    evals, v = np.linalg.eigh((coeffs @ gens.reshape(len(gens), d * d)).reshape(n, d, d))
    phases = np.exp(1j * evals)

    def pullback(k_ops: np.ndarray) -> np.ndarray:
        diff = evals[:, :, None] - evals[:, None, :]
        near = np.abs(diff) < 1e-12
        e_col, e_row = phases[:, :, None], phases[:, None, :]
        # (e^{iλp} - e^{iλq})/(λp - λq), i·e^{iλ} on ties
        dd = np.where(near, 1j * e_col, (e_col - e_row) / np.where(near, 1.0, diff))
        middle = (dag(v) @ k_ops @ v).conj() * dd
        back_t = v.conj() @ middle @ np.swapaxes(v, 1, 2)     # (V Mᵀ V†)ᵀ
        return np.real(back_t.reshape(n, d * d) @ gens.reshape(len(gens), d * d).T)

    return (v * phases[:, None, :]) @ dag(v), pullback


def _qubit_chart(coeffs: np.ndarray):
    """The chart at d = 2, whose generators are I, X, Y, Z, in closed form.  With θ_x = (φ, a)
    (φ = 0 over the traceless three), r = |a| and s = sin r / r: U = e^{iφ}(cos r I + i s a·σ).
    With c_0 = tr K† and c_j = tr(K† σ_j), tr(K†U) = e^{iφ}(cos r c_0 + i s a·c), so the pullback
    is Re(i tr(K†U)) along φ and Re(e^{iφ}[-s a_j c_0 + i(f a_j a·c + s c_j)]) along a_j, with
    f = (cos r - s)/r², read as its series -1/3 + r²/30 below r = 1e-3, where the quotient cancels
    (f multiplies a_j a·c = O(r²), so the switch moves the gradient only at rounding level)."""
    n, whole = len(coeffs), coeffs.shape[1] == 4
    a = coeffs[:, -3:]
    r = np.sqrt(np.einsum('xk,xk->x', a, a))
    cos, s = np.cos(r), np.sinc(r / np.pi)
    phase = np.exp(1j * coeffs[:, 0]) if whole else np.ones(n)
    paulis = _generators(2).reshape(4, 4)
    unitaries = ((phase[:, None] * np.column_stack([cos, 1j * s[:, None] * a])) @ paulis).reshape(n, 2, 2)

    def pullback(k_ops: np.ndarray) -> np.ndarray:
        c = k_ops.conj().reshape(n, 4) @ paulis.T
        ac = np.einsum('xk,xk->x', a, c[:, 1:])
        small = r < 1e-3
        f = np.where(small, r * r / 30 - 1 / 3, (cos - s) / np.where(small, 1.0, r * r))
        grad_a = np.real(phase[:, None] * (1j * (s[:, None] * c[:, 1:] + (f * ac)[:, None] * a)
                                           - (s * c[:, 0])[:, None] * a))
        return np.column_stack([-np.imag(phase * (cos * c[:, 0] + 1j * s * ac)), grad_a]) if whole else grad_a

    return unitaries, pullback


def _log_coefficients(unitaries: np.ndarray, d: int) -> np.ndarray:
    # generator coefficients tr(A_k G)/d of the principal logs G (Hermitian, so tr(A_k G) = <G, A_k>)
    logs = log_unitary(unitaries).reshape(len(unitaries), -1)
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
    unitaries = _chart(theta[:size * d2].reshape(size, d2), dim)[0]
    weights = _weights_from_logits(theta[size * d2:], weight_mode, dim)
    return WeightedUnitarySet(dim, unitaries, weights)


def theta_from_set(s: WeightedUnitarySet) -> np.ndarray:
    """Inverse seed mapping: generator coefficients from principal logs plus
    log-weights as logits.  parametrize(theta) reproduces the set projectively."""
    return np.concatenate([_log_coefficients(s.unitaries, s.dim).reshape(-1), np.log(s.weights)])


@dataclass(frozen=True)
class ObjectiveWorkspace:
    """The three n × n buffers of :func:`objective_and_gradient`, allocated once
    per minimization and overwritten by every evaluation: the overlap Gram T
    (then the weighted pair matrix), |T|² (then |T|^2t, then the real weight
    products t w_x w_y |T_xy|^(2t-2)) and |T|^(2t-2)."""

    overlaps: np.ndarray
    abs2: np.ndarray
    lower: np.ndarray

    @classmethod
    def empty(cls, size: int) -> "ObjectiveWorkspace":
        return cls(np.empty((size, size), dtype=complex), *np.empty((2, size, size)))


def objective_and_gradient(theta: np.ndarray, dim: int, size: int, t: int,
                           weight_mode: str = 'free', *,
                           workspace: ObjectiveWorkspace | None = None) -> tuple[float, np.ndarray]:
    """Frame-potential gap and its exact gradient in theta.

    The n × n work runs in ``workspace`` (a fresh one when None), so a
    minimization that passes one workspace to every evaluation allocates
    nothing of size n² after the first; the returned gradient is a new array.
    """
    d2 = dim * dim
    theta = np.asarray(theta, dtype=float)
    theta_u = theta[:size * d2].reshape(size, d2)
    logits = theta[size * d2:]
    w = _weights_from_logits(logits, weight_mode, dim)
    unitaries, pullback = _chart(theta_u, dim)
    ws = ObjectiveWorkspace.empty(size) if workspace is None else workspace
    if ws.abs2.shape != (size, size):
        raise InvalidInputError(f"workspace is for n = {len(ws.abs2)}, not n = {size}")

    flat = unitaries.reshape(size, -1)
    overlaps = np.matmul(flat.conj(), flat.T, out=ws.overlaps)
    abs2 = np.square(overlaps.real, out=ws.abs2)
    lower = np.square(overlaps.imag, out=ws.lower)      # Im² until it holds |T|^(2t-2)
    abs2 += lower
    np.copyto(lower, abs2)
    lower **= t - 1                         # in place, ** picks the ufunc that abs2 ** (t - 1) would
    abs2_t = np.multiply(lower, abs2, out=abs2)
    potential = float(w @ abs2_t @ w)
    gap = potential - float(gamma(t, dim))
    dpot_dw = 2.0 * (abs2_t @ w)

    # element gradient: dPhi = sum_j Re tr(K_j† dU_j),
    # K_j = 4t sum_x w_x w_j |T_xj|^(2t-2) T_xj U_x
    outer = np.outer(w, w, out=abs2_t)
    outer *= t
    outer *= lower
    pair = np.multiply(outer, overlaps, out=overlaps)
    grad_u = pullback(4.0 * (pair.T @ flat).reshape(size, dim, dim))
    grad_w = _tie(weight_mode)(w * (dpot_dw - np.dot(w, dpot_dw)), dim)    # a self-adjoint tie is its chain rule
    return gap, np.concatenate([grad_u.reshape(-1), grad_w])


def _initial_theta(config: SearchConfig, rng: np.random.Generator) -> np.ndarray:
    # Haar-random generators scaled by 0.5, weight logits zero
    coeffs = 0.5 * _log_coefficients(haar_unitaries(config.dim, config.size, rng), config.dim)
    return np.concatenate([coeffs.reshape(-1), np.zeros(config.size)])


class _Handoff(Exception):
    """Raised from the L-BFGS callback at the first iterate whose gap is at most ``_HANDOFF_GAP``;
    SciPy ends L-BFGS-B on a callback's ``StopIteration`` only from 1.11 on."""

    def __init__(self, gap: float, theta: np.ndarray):
        super().__init__(gap)
        self.gap, self.theta = gap, theta


def _minimize_from(theta0: np.ndarray, config: SearchConfig, history: list[float]) -> tuple[float, np.ndarray]:
    """One L-BFGS run, to the first iterate whose gap is at most ``_HANDOFF_GAP`` or else to its
    own end; every iteration appends the best gap so far to ``history``."""
    from scipy.optimize import minimize

    best_in_run = [np.inf]
    last = [np.inf, None]                   # the latest evaluation, the iterate at a callback
    workspace = ObjectiveWorkspace.empty(config.size)

    def fun(theta):
        value, grad = objective_and_gradient(theta, config.dim, config.size, config.t,
                                             config.weight_mode, workspace=workspace)
        best_in_run[0] = min(best_in_run[0], value)
        last[:] = value, np.array(theta)
        return value, grad

    def record(theta):
        previous = history[-1] if history else np.inf
        history.append(min(previous, best_in_run[0]))
        if last[0] <= _HANDOFF_GAP and np.array_equal(last[1], theta):
            raise _Handoff(last[0], last[1])

    try:
        res = minimize(fun, theta0, jac=True, method='L-BFGS-B', callback=record,
                       options={'maxiter': config.max_iterations, **_LBFGS_TOLERANCES})
    except _Handoff as stop:
        return stop.gap, stop.theta
    record(None)
    return float(res.fun), np.asarray(res.x)


def _moment_jacobian(layout, unitaries: np.ndarray, weights: np.ndarray, vectors: np.ndarray,
                     moment: np.ndarray, weight_mode: str):
    """Jacobian of the Sym^t residual R = sum_x w_x p_x p_x† - H̃ (as floats) in the steps
    :func:`_polish_moment` takes, with its columns scaled to unit norm; returns the operator and
    the scales.  The column of a step along A_k at element x is w_x (δp p_x† + p_x δp†), δp the
    tangent of p_x along a = vec(i A_k U_x) (:meth:`_SymLayout.tangents`).  By the product rule
    <δ(f^⊗t), δ'(f^⊗t)> = t <a, a'> |f|^(2t-2) + t(t-1) <a, f> <f, a'> |f|^(2t-4), and f = vec U_x
    has |f|² = d, <a_j, a_k> = tr(A_j A_k) = d δ_jk and <f, a_k> = i tr A_k = 0: so |p_x|² = d^t,
    δp ⊥ p_x and each element's columns are orthogonal of norm w_x d^t sqrt(2t), and the held
    tangents carry one factor c = 1/(d^t sqrt(2t)), put on the directions a.  The column of
    weight logit y is w_y (p_y p_y† - M), M the set's ``moment``, read through the weight mode's
    tie and scaled by that free norm, with |p_y|⁴ = d^(2t).  A tie that maps every logit to zero
    (uniform weights) has no logit columns.

    The scaled tangents (rows, K, m), K = d² - 1, are built in row blocks whose tangents and
    moved generators fit ``MAX_ENTRIES``; a single block is built once and kept, more blocks are
    rebuilt in every product, bit for bit, so that no (n, K, m) array is held.  Each product is a
    batched (1 × K)·(K × m) product and one m × n × m GEMM forward, one GEMM and a batched
    mat-vec back, the tangents read as real arrays."""
    from scipy.sparse.linalg import LinearOperator

    n, d = unitaries.shape[:2]
    k, (m, t) = d * d - 1, layout.reps.shape
    size = float(d) ** t                    # |p_x|²
    c = 1 / (size * np.sqrt(2 * t))
    gens = 1j * c * _generators(d)[1:]      # the identity only shifts a phase
    tie = _tie(weight_mode)
    logits = n if np.any(tie(np.ones(n), d)) else 0
    flat = unitaries.reshape(n, -1)
    conj = vectors.conj()
    blocks = row_blocks(n, k * (m + d * d))

    def tangents(rows: slice) -> np.ndarray:
        # the directions c vec(i A_k U_x) are the rows of (rows, K, d, d), with no copy, so c δp as
        # (rows, K, 2m) reals: Re and Im of each entry in turn
        return layout.tangents(flat[rows], (gens @ unitaries[rows, None]).reshape(-1, k, d * d)).view(float)

    held = [tangents(blocks[0])] if len(blocks) == 1 else []

    def pieces():
        return zip(blocks, held) if held else ((rows, tangents(rows)) for rows in blocks)

    logit_scale = np.empty(0)
    if logits:
        projected = np.einsum('xa,xa->x', conj, vectors @ moment.T).real
        squares = weights ** 2 * (size * size - 2 * projected + np.vdot(moment, moment).real)
        logit_scale = 1 / np.sqrt(np.where(squares > 0, squares, 1.0))

    def matvec(z):
        z = np.ravel(z)
        coeffs = z[:n * k].reshape(n, 1, k)
        step = np.empty((n, 2 * m))
        for rows, reals in pieces():
            step[rows] = (coeffs[rows] @ reals).reshape(-1, 2 * m)
        step = step.view(complex)
        if logits:
            dl = tie(z[n * k:] * logit_scale, d)
            step += (0.5 * weights * (dl - weights @ dl))[:, None] * vectors
        half = step.T @ conj
        return (half + half.conj().T).reshape(-1).view(float)

    def rmatvec(y):
        # <column, Y> = Re tr(column† Y) = w_x Re δp† Z p_x with Z = Y + Y†, and the weight
        # rows w_y (q_y - w·q), q_y = Re(p_y† Z p_y) / 2
        h = np.ascontiguousarray(np.ravel(y), dtype=float).view(complex).reshape(m, m)
        zp = vectors @ (h + h.conj().T).T
        out = np.empty(n * k + logits)
        moves = out[:n * k].reshape(n, k, 1)
        for rows, reals in pieces():
            moves[rows] = reals @ zp[rows].view(float)[:, :, None]
        if logits:
            q = 0.5 * np.einsum('xa,xa->x', conj, zp).real
            out[n * k:] = logit_scale * tie(weights * (q - weights @ q), d)
        return out

    scales = np.concatenate([np.repeat(c / weights, k), logit_scale])
    return LinearOperator((2 * m * m, scales.size), matvec=matvec, rmatvec=rmatvec, dtype=float), scales


def _polish_moment(s: WeightedUnitarySet, t: int, weight_mode: str, target: float) -> WeightedUnitarySet:
    """Drive the Sym^t residual R = sum_x w_x p_x p_x† - H̃ (:class:`_SymLayout`), whose norm is
    :func:`certify`'s moment residual r_t, to its float floor 8 eps d^t, or as near it as
    ``_POLISH_TRIALS`` trial steps go, unless it stalls above ``target``.  Since r_s <= r_t for
    s < t, every lower residual, the POVM defect r_1 among them, reaches float precision with it.

    Each step starts from the current set.  Element x moves to exp(iG_x) U_x through the
    objective's chart, with G_x a combination of the traceless generators, so it stays unitary;
    weights move to the softmax of log w + T(delta), T the weight mode's tie, so they stay
    positive, normalized and tied.  The Jacobian is :func:`_moment_jacobian` at the current set.

    Each step is a Gauss-Newton step damped by |R| (Levenberg-Marquardt with the
    Yamashita-Fukushima parameter |R|², solved by LSMR on the column-scaled Jacobian), which keeps
    converging where the solution set is singular, as for the minimal n = d² sets, where plain
    Gauss-Newton oscillates.  A step that does not shrink |R| is retried with more damping, for at
    most ``_POLISH_TRIALS`` trial steps.  A step that does not halve |R| tightens LSMR's
    tolerance, whose test on |J^T r| otherwise ends solves before they resolve the small singular
    values.  Such a step taken at ``_MIN_TOL`` with |R| above ``target`` ends the polish: the set
    is near a local minimum (r_t of 1e-5 to 1e-3), and its restart fails.  Below ``target`` no
    step ends it early, so a restart that passes still polishes to its floor.  The floor is an
    absolute test (before SciPy 1.16, scipy's least_squares offers only relative ones)."""
    from scipy.sparse.linalg import lsmr

    d, n = s.dim, len(s)
    layout = _sym_layout(t, d)
    k = d * d - 1
    tie = _tie(weight_mode)

    def measured(u, w):
        # the set, its p whole (as the Jacobian reads them), its moment M and R = M - H̃
        p = np.empty((n, len(layout.reps)), dtype=complex)
        moment = layout.moment(u, w, p)
        return u, w, p, moment, moment - layout.haar

    def stepped(u, w, step):
        trial_w = _weights_from_logits(np.log(w) + tie(step[n * k:], d), 'free', d) if len(step) > n * k else w
        return measured(_chart(step[:n * k].reshape(n, k), d)[0] @ u, trial_w)

    floor = 8 * np.finfo(float).eps * float(d) ** t
    u, w, p, moment, r = measured(s.unitaries, s.weights)
    norm, boost, tol = np.linalg.norm(r), 1.0, _LSMR_TOL
    for _ in range(_POLISH_TRIALS):
        if norm <= floor:
            break
        jac, scale = _moment_jacobian(layout, u, w, p, moment, weight_mode)
        step = scale * lsmr(jac, -r.reshape(-1).view(float), damp=boost * norm, atol=tol, btol=tol)[0]
        del jac                             # and its tangents, before the next step builds its own
        trial_u, trial_w, trial_p, trial_moment, trial_r = stepped(u, w, step)
        trial = np.linalg.norm(trial_r)
        if trial < norm:
            stalled = trial > _STALL * norm
            u, w, p, moment, r, norm = trial_u, trial_w, trial_p, trial_moment, trial_r, trial
            if stalled and tol == _MIN_TOL and norm > target:
                break
            tol = max(tol * _TIGHTEN, _MIN_TOL) if stalled else tol
            boost = max(boost / 4, 1.0)
        else:
            boost *= 10
    return WeightedUnitarySet(d, u, w)


def _descend(theta0: np.ndarray, config: SearchConfig, history: list[float]) -> tuple[DesignCertificate, WeightedUnitarySet]:
    """One restart: L-BFGS to the handoff gap, then one polish.  The polish takes only steps that
    shrink |R|, and a set at its floor passes any target above the floor, so no set the restart
    visits does better than the polished one: :func:`certify` judges it at ``target_residual``,
    and a near-design local minimum that the polish cannot bring to its floor fails however small
    its gap (its polish gives up once it stalls above the target).  A run that ends short of the
    handoff gap is certified as it ended.  Phase duplicates are merged last, so the polish sees
    the weight mode's blocks whole."""
    gap, theta = _minimize_from(theta0, config, history)
    s = parametrize(theta, config.dim, config.size, config.weight_mode)
    if gap <= _HANDOFF_GAP:                 # else L-BFGS ran to its own end short of the handoff
        s = _polish_moment(s, config.t, config.weight_mode, config.target_residual)
    s = merge_phase_duplicates(s)
    return certify(s, config.t, config.target_residual), s


def _finish(s: WeightedUnitarySet, cert: DesignCertificate, history: list[float],
            start: float, best_restart: int) -> SearchTrace:
    # the log stays non-increasing, so it closes with the smaller of its last record (the best
    # L-BFGS gap, or refine's input gap) and the returned set's certified gap
    history.append(min(history[-1], cert.gap))
    return SearchTrace(
        gap_history=np.asarray(history),
        result=s,
        certificate=cert,
        wall_time=time.perf_counter() - start,
        best_restart=best_restart,
    )


def search(config: SearchConfig) -> SearchTrace:
    """Multi-restart search for a weighted t-design.

    Restart initializations derive from independent child generators spawned
    off ``make_rng(config.seed)``, so the result is reproducible; the first
    restart whose set :func:`certify` passes, on its t-th moment residual, at
    ``target_residual`` stops the search, and otherwise the restart of the
    smallest residual is returned.  Non-convergence is reported through the
    certificate, never raised.

    Each restart runs L-BFGS on the frame-potential gap until the gap is at
    most ``_HANDOFF_GAP`` and then polishes the t-residual once, to its float
    floor unless it stalls above the target (:func:`_polish_moment`).  A converged set has
    r_1 <= r_t <= ``target_residual``, so :func:`povm_from_design` accepts it
    at the default target.  The polish keeps the weight mode's tie: uniform
    weights stay uniform, per-basis weights stay tied.  ``gap_history``
    traces the best L-BFGS gap so far, one record per iteration, and closes
    with the smaller of that best gap and the returned set's certified gap,
    so it never increases.
    """
    start = time.perf_counter()
    children = make_rng(config.seed).spawn(config.restarts)
    history: list[float] = []
    best = None
    best_restart = -1
    for restart, child in enumerate(children):
        cert, s = _descend(_initial_theta(config, child), config, history)
        if best is None or cert.moment_residual < best[0].moment_residual:
            best, best_restart = (cert, s), restart
        if best[0].passed:
            break
    return _finish(best[1], best[0], history, start, best_restart)


def refine(s: WeightedUnitarySet, config: SearchConfig) -> SearchTrace:
    """Local refinement from an existing set, as one restart of :func:`search`
    from it; never worse than the input, whose moment residual is :func:`certify`'s.
    """
    if s.dim != config.dim or len(s) != config.size:
        raise InvalidInputError(
            f"set has dim={s.dim}, n={len(s)} but config expects dim={config.dim}, n={config.size}")
    start = time.perf_counter()
    input_cert = certify(s, config.t, config.target_residual)
    history = [input_cert.gap]
    cert, result = _descend(theta_from_set(s), config, history)
    if cert.moment_residual > input_cert.moment_residual:
        cert, result = input_cert, s
    return _finish(result, cert, history, start, best_restart=0)
