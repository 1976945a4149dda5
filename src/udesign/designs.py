"""Weighted unitary t-designs: representation, certification and a gallery.

A weighted set (D, w) of projective unitaries is a t-design when its t-th
moment operator matches the Haar average, or equivalently when the frame
potential sum_{x,y} w(x)w(y)|tr(U(x)†U(y))|^(2t) meets its lower bound
gamma(t, d) exactly.  This module certifies sets by the distance of their
moment from the Haar moment, computes gamma(t, d) from a table of Young
shapes, and holds the known small designs used throughout the package.  t-th
moments have one working form, the symmetric subspace Sym^t(C^(d²)), laid out
once per (t, d): one m × m moment gives the potential and the residual, and
the dense moment operators are expansions of it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce

import numpy as np

from .errors import InvalidInputError, ResourceLimitError
from .linalg import (
    ATOL_ALG,
    ATOL_CERT,
    DEDUP_TOL,
    MAX_GAMMA_T,
    PHASE_REAL,
    PHASE_TIE,
    assert_unitary,
    check_cert_threshold,
    check_count,
    check_dim,
    check_entries,
    check_t,
    row_blocks,
    weyl_operators,
)

_PAULI = {
    'I': np.eye(2, dtype=complex),
    'X': np.array([[0, 1], [1, 0]], dtype=complex),
    'Y': np.array([[0, -1j], [1j, 0]], dtype=complex),
    'Z': np.array([[1, 0], [0, -1]], dtype=complex),
}
_HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
_PHASE = np.array([[1, 0], [0, 1j]], dtype=complex)
_GOLDEN = (1 + np.sqrt(5)) / 2


def canonical_phase(u: np.ndarray) -> np.ndarray:
    """Rescale by a phase so the largest-modulus entry (row-major first among
    ties) is real positive.  Stable anchor for dedup and file round-trips;
    ties are resolved with a small tolerance so float noise cannot flip the
    anchor between computation routes.  Accepts one matrix or an (..., d, d)
    stack, each matrix treated on its own."""
    u = np.asarray(u, dtype=complex)
    flat = u.reshape(u.shape[:-2] + (-1,))
    mods = np.abs(flat)
    top = mods.max(axis=-1, keepdims=True)
    k = np.argmax(mods >= top - PHASE_TIE * (1.0 + top), axis=-1)
    pivot = np.take_along_axis(flat, k[..., None], axis=-1)[..., None]
    # already canonical matrices come back untouched, keeping file round-trips exact
    done = (pivot.real > 0) & (np.abs(pivot.imag) <= PHASE_REAL * pivot.real)
    return np.where(done, u, u * (np.conj(pivot) / np.abs(pivot)))


@dataclass(frozen=True)
class WeightedUnitarySet:
    """Finite weighted subset of PU(d): unitaries with positive weights.

    ``dim`` must be an integer >= 2 (:func:`check_dim`), weights must be
    positive and sum to one; elements are phase-canonicalized on
    construction.  Phase-distinctness is an ingestion-level invariant:
    :func:`assert_phase_distinct` checks it at the file boundary, and
    :func:`group_closure` and :func:`merge_phase_duplicates` establish it,
    all through one first-seen pass over row blocks of the overlaps
    (optimizer-internal sets may transiently contain phase-equivalent copies).
    """

    dim: int
    unitaries: np.ndarray    # (n, d, d)
    weights: np.ndarray      # (n,)

    def __post_init__(self):
        check_dim(self.dim)
        unitaries = np.asarray(self.unitaries, dtype=complex)
        weights = np.asarray(self.weights, dtype=float)
        if unitaries.ndim != 3 or unitaries.shape[1:] != (self.dim, self.dim):
            raise InvalidInputError(
                f"unitaries must have shape (n, {self.dim}, {self.dim}), got {unitaries.shape}")
        if weights.shape != (unitaries.shape[0],):
            raise InvalidInputError("one weight per element required")
        if unitaries.shape[0] == 0:
            raise InvalidInputError("a weighted set needs at least one element")
        if not (np.isfinite(unitaries).all() and np.isfinite(weights).all()):
            raise InvalidInputError("unitaries and weights must be finite")
        if np.any(weights <= 0):
            raise InvalidInputError("all weights must be strictly positive")
        if abs(weights.sum() - 1.0) > ATOL_ALG:
            raise InvalidInputError(f"weights sum to {weights.sum():.12f}, expected 1")
        unitaries = canonical_phase(assert_unitary(unitaries))
        unitaries.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, 'unitaries', unitaries)
        object.__setattr__(self, 'weights', weights)

    def __len__(self) -> int:
        return self.unitaries.shape[0]


def uniform_set(dim: int, unitaries) -> WeightedUnitarySet:
    """Weighted set with uniform weights 1/n."""
    unitaries = np.asarray(unitaries, dtype=complex)
    n = unitaries.shape[0]
    return WeightedUnitarySet(dim, unitaries, np.full(n, 1.0 / n))


def _overlaps(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(n, m) matrix of tr(A†B) over stacks (n, d, d), (m, d, d), the one
    overlap kernel of the package; its n·m entries must fit in ``MAX_ENTRIES``."""
    check_entries(len(a) * len(b), 'the overlaps n·m')
    d2 = a.shape[-1] ** 2
    return a.reshape(len(a), d2).conj() @ b.reshape(len(b), d2).T


def _first_seen(u: np.ndarray, known: int = 0) -> tuple[np.ndarray, float]:
    """The one phase-equivalence pass, over a stack whose first ``known`` < n elements are kept
    and phase-distinct.  Returns each element's owner, the first earlier kept element V with
    |tr(U†V)|² >= d² - DEDUP_TOL or else itself, and the largest off-diagonal |tr(U†V)|²; the
    overlaps of u with u[known:] are read in row blocks whose complex overlaps and their moduli,
    held at once, fit ``MAX_ENTRIES`` together."""
    owner, worst, close = np.arange(len(u)), 0.0, u.shape[-1] ** 2 - DEDUP_TOL
    for rows in row_blocks(len(u), 2 * (len(u) - known)):
        sq = np.abs(_overlaps(u[rows], u[known:]))
        sq *= sq                                                    # in place, rounding as ** 2 does
        first = max(rows.start, known)                              # the diagonal |tr(U†U)|² = d²
        np.fill_diagonal(sq[first - rows.start:, first - known:], 0)
        worst = max(worst, sq.max())
        # rows with a close entry, in order, so the owner of row i is settled: a row that is still
        # its own owner claims the later close columns that are still their own
        for r in np.flatnonzero(np.bincount(np.flatnonzero(sq >= close) // sq.shape[1])):
            i = rows.start + r
            if owner[i] == i:
                later = np.flatnonzero(sq[r] >= close) + known
                later = later[later > i]
                owner[later[owner[later] == later]] = i
    return owner, worst


def assert_phase_distinct(s: WeightedUnitarySet) -> None:
    """Raise if two elements are phase-equivalent, |tr(U†V)|² >= d² - DEDUP_TOL (:func:`_first_seen`)."""
    owner, worst = _first_seen(s.unitaries)
    if np.any(owner != np.arange(len(s))):
        raise InvalidInputError(f"set contains phase-equivalent elements (max off-diagonal |tr|² = {worst:.9f})")


def merge_phase_duplicates(s: WeightedUnitarySet) -> WeightedUnitarySet:
    """Combine the weights of phase-equivalent elements into the first seen (:func:`_first_seen`),
    refused only when one row of n overlaps exceeds ``MAX_ENTRIES``."""
    owner = _first_seen(s.unitaries)[0]
    weights = np.zeros(len(s))
    np.add.at(weights, owner, s.weights)
    kept = np.flatnonzero(owner == np.arange(len(s)))
    return WeightedUnitarySet(s.dim, s.unitaries[kept], weights[kept])


def frame_potential(s: WeightedUnitarySet, t: int) -> float:
    """Double sum sum_{x,y} w(x) w(y) |tr(U(x)† U(y))|^(2t), read as :func:`certify` reads it."""
    return _sym_layout(t, s.dim).norms(s)[0]


def _partitions(t: int, rows: int, top: int | None = None) -> list[tuple[int, ...]]:
    """The partitions of t into at most ``rows`` parts, non-increasing and at most ``top``."""
    top = t if top is None else top
    if t == 0:
        return [()]
    if rows == 0:
        return []
    return [(part,) + rest for part in range(min(t, top), 0, -1) for rest in _partitions(t - part, rows - 1, part)]


def _shapes(t: int, d: int):
    """The shape table of S_t at dimension d: each Young shape λ of t with at most d rows, with
    its hook product H and its content product C = prod over cells (d + content), so that
    f_λ = t!/H counts its standard tableaux and s_λ(1^d) = C/H is the dimension of its U(d)
    irrep."""
    for shape in _partitions(t, d):
        columns = [sum(part > j for part in shape) for j in range(shape[0])]
        cells = [(i, j) for i, part in enumerate(shape) for j in range(part)]
        yield (shape, math.prod(shape[i] - j + columns[j] - i - 1 for i, j in cells),
               math.prod(d + j - i for i, j in cells))


@lru_cache(maxsize=None, typed=True)     # typed: a cached gamma(2, d) must not answer gamma(2.0, d)
def gamma(t: int, d: int) -> int:
    """Haar average of |tr U|^(2t) on PU(d), as an exact integer.

    It counts the permutations of S_t with no increasing subsequence longer
    than d (Rains 1998), which the Robinson-Schensted correspondence sums as
    f_λ² over the shapes λ of t with at most d rows (:func:`_shapes`).
    Equals t! once d >= t, and the Catalan number (2t)!/(t!(t+1)!) at d = 2.
    """
    check_t(t)
    check_dim(d)
    if t > MAX_GAMMA_T:
        raise ResourceLimitError(f"gamma enumeration capped at t <= {MAX_GAMMA_T}, got t={t}")
    return sum((math.factorial(t) // hooks) ** 2 for _, hooks, _ in _shapes(t, d))


@lru_cache(maxsize=None)
def _character(shape: tuple[int, ...], cycles: tuple[int, ...]) -> int:
    """The irreducible character of S_t of ``shape`` on a permutation of cycle type ``cycles``, by
    the Murnaghan-Nakayama rule: rim hooks of the first cycle's length are removed as moves of
    one bead b -> b - k on the beta-set of the shape, signed by the beads jumped over."""
    if not cycles:
        return 1
    k, rest, top = cycles[0], cycles[1:], len(shape) - 1
    beads = [part + top - i for i, part in enumerate(shape)]
    total = 0
    for bead in beads:
        if bead >= k and bead - k not in beads:
            moved = sorted([b for b in beads if b != bead] + [bead - k], reverse=True)
            smaller = tuple(b - (top - i) for i, b in enumerate(moved))
            sign = (-1) ** sum(bead - k < b < bead for b in beads)
            total += sign * _character(tuple(part for part in smaller if part), rest)
    return total


def _weingarten(perms: np.ndarray, d: int) -> np.ndarray:
    """The Weingarten function Wg(σ) of U(d) at each permutation of a (t!, t) stack, exact in
    rationals before the one rounding (Collins & Śniady 2006):
    Wg(σ) = sum over the shapes λ of :func:`_shapes` of f_λ² χ_λ(σ) / (t!² s_λ(1^d)).  For d < t it is the
    pseudo-inverse row of the Gram d^#cycles(σ⁻¹τ), which an eigendecomposition gave only to
    about eps times the Gram's condition: 2.2e-14 of Frobenius error in the Haar moment at
    d = 2, t = 5, more than the float floor the search's polish reaches."""
    t = perms.shape[1]
    # f² / (t!² s(1^d)) = (t!/H)² H / (t!² C) = 1 / (H C)
    weights = {shape: Fraction(1, hooks * contents) for shape, hooks, contents in _shapes(t, d)}
    wg = {}
    values = []
    for perm in perms:
        seen, cycles = set(), []
        for start in range(t):
            length = 0
            while start not in seen:
                seen.add(start)
                start, length = perm[start], length + 1
            if length:
                cycles.append(length)
        cycles = tuple(sorted(cycles, reverse=True))
        if cycles not in wg:
            wg[cycles] = float(sum(w * _character(shape, cycles) for shape, w in weights.items()))
        values.append(wg[cycles])
    return np.array(values)


@dataclass(frozen=True)
class _SymLayout:
    """t-th moments on the symmetric subspace Sym^t(C^(d²)), read-only arrays.

    vec(U^⊗t) is vec(U)^⊗t with its (row, column) digit pairs reordered, so
    a moment sum_x w(x) vec(U_x)^⊗t vec(U_x)^⊗t† lives on Sym^t(C^(d²)), of
    dimension m = C(d² + t - 1, t).  Its basis vectors sum the N_α orderings
    of a sorted t-tuple α of pair digits, so the moment takes one value M̃[α, β]
    per pair of classes (α, β), shared by N_α N_β entries; its symmetric
    coordinates S M̃ S, S = diag(sqrt(N_α)), keep the dense Frobenius norm.
    ``reps`` lists the α (m, t), ``root_counts`` the sqrt(N_α) and ``haar``
    the Haar moment's symmetric coordinates (m, m).  A set's moment is
    sum_x w(x) p_x p_x† over the vectors p_x of :meth:`vectors`; the search's
    polish moves them along :meth:`tangents` to drive the residual
    sum_x w(x) p_x p_x† - ``haar`` to float precision.
    """

    dim: int
    reps: np.ndarray
    root_counts: np.ndarray
    haar: np.ndarray

    def vectors(self, flat: np.ndarray) -> np.ndarray:
        """p_x[α] = sqrt(N_α) prod_k f_x[α_k] for the rows f_x = vec(U_x) of ``flat`` (rows, d²)."""
        return reduce(np.multiply, (flat[:, digits] for digits in self.reps.T), self.root_counts)

    def tangents(self, flat: np.ndarray, moved: np.ndarray) -> np.ndarray:
        """The derivatives of p_x along each direction a_xk of ``moved`` (rows, K, d²), (rows, K, m):
        sqrt(N_α) sum_j a_xk[α_j] prod_(l≠j) f_x[α_l], by the product rule, summed one direction
        at a time so that the result is the only (rows, K, m) array."""
        factors = [flat[:, digits] for digits in self.reps.T]
        others = [reduce(np.multiply, factors[:j] + factors[j + 1:], self.root_counts) for j in range(len(factors))]
        out = np.empty(moved.shape[:2] + (len(self.reps),), dtype=complex)
        for k in range(moved.shape[1]):
            out[:, k] = sum(moved[:, k, digits] * rest for digits, rest in zip(self.reps.T, others))
        return out

    def moment(self, unitaries: np.ndarray, weights: np.ndarray, vectors: np.ndarray | None = None) -> np.ndarray:
        """The symmetric coordinates S M̃ S = sum_x w(x) p_x p_x† of ``unitaries`` (n, d, d) and
        ``weights``, summed over row blocks of x whose three (rows, m) product arrays, held at once,
        fit ``MAX_ENTRIES`` together; the p_x (:meth:`vectors`) are kept in ``vectors`` if given."""
        flat = unitaries.reshape(len(unitaries), -1)

        def block(rows: slice) -> np.ndarray:
            p = self.vectors(flat[rows])
            if vectors is not None:
                vectors[rows] = p
            return (p.T * weights[rows]) @ p.conj()

        first, *rest = row_blocks(len(flat), 3 * len(self.reps))
        coords = block(first)
        for rows in rest:
            coords += block(rows)
        return coords

    def norms(self, s: WeightedUnitarySet) -> tuple[float, float]:
        """‖S M̃ S‖² and ‖S M̃ S - S H̃ S‖, the Haar moment subtracted in place; squares are summed
        by rows, then pairwise, as one dot product over all m² drifts by 150 ulps at m = 165."""
        coords = self.moment(s.unitaries, s.weights)
        parts = coords.view(float)
        squared = np.einsum('ij,ij->i', parts, parts).sum()
        coords -= self.haar
        return float(squared), math.sqrt(np.einsum('ij,ij->i', parts, parts).sum())

    def dense(self, coords: np.ndarray) -> np.ndarray:
        """The (d^2t, d^2t) operator of symmetric coordinates in :func:`design_moment`'s
        layout, one gather: entry ((a, b), (c, e)) is M̃[α(a, c), α(e, b)]."""
        values = coords / self.root_counts[:, None] / self.root_counts
        k = _pair_classes(self.reps.shape[1], self.dim)[2]
        return values[k[:, None, :, None], k.T[None, :, None, :]].reshape(k.size, k.size)


def _pair_classes(t: int, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The sorted t-tuples α of pair digits a·d + c (m, t), their orderings N_α, and the
    class α(a, c) of the pairs (a_k, c_k) of multi-indices a, c of (C^d)^⊗t (d^t, d^t)."""
    digits = np.indices((d,) * 2 * t).reshape(2 * t, -1)         # a_1..a_t, c_1..c_t
    pairs = np.sort(digits[:t] * d + digits[t:], axis=0).T
    reps, cls, counts = np.unique(pairs, axis=0, return_inverse=True, return_counts=True)
    return reps, counts, cls.reshape(d ** t, d ** t)


def check_layout(t: int, d: int) -> None:
    """Raise unless t >= 1 (:func:`check_t`) and the layout of (t, d) fits ``MAX_ENTRIES``: the
    three m × m arrays its readers hold at once (the Haar moment, a set's moment and the residual
    or its polish's product), counted first so a large t is refused at once, then the three t! × m
    arrays of its build (the Weingarten sum's class images, their flat indices and weights)."""
    check_t(t)
    m = math.comb(int(d) ** 2 + t - 1, t)
    check_entries(3 * m * m, 'the symmetric layout 3·m²')
    check_entries(3 * math.factorial(t) * m, 'the symmetric layout 3·t!·m')


def _sym_layout(t: int, d: int) -> _SymLayout:
    """The layout of (t, d), once :func:`check_layout` admits it."""
    check_layout(t, d)
    return _build_sym_layout(int(t), int(d))         # built from Python ints, whatever integers came in


@lru_cache(maxsize=None)
def _build_sym_layout(t: int, d: int) -> _SymLayout:
    reps, counts, cls = _pair_classes(t, d)
    m = len(reps)
    perms = np.array(list(itertools.permutations(range(t))))
    wg = _weingarten(perms, d)
    # t! sum_ρ Wg(ρ) (I ⊗ Q_ρ), I ⊗ Q_ρ permuting a tuple's column digits.  Wg is a class
    # function and conjugating ρ reorders a tuple's pairs, so every tuple of class β sends
    # the same Wg-weighted count to class α as β's sorted representative does
    rows, cols = divmod(reps, d)
    place = d ** np.arange(t - 1, -1, -1)
    reached = np.array([cls[rows @ place, cols[:, rho] @ place] for rho in perms])
    haar = np.bincount((reached * m + np.arange(m)).reshape(-1), np.repeat(wg, m), minlength=m * m).reshape(m, m)
    root_counts = np.sqrt(counts)
    haar *= math.factorial(t) * root_counts         # t!·count/N_α, times sqrt(N_α N_β)
    haar /= root_counts[:, None]
    for a in (reps, root_counts, haar):
        a.setflags(write=False)
    return _SymLayout(d, reps, root_counts, haar)


def haar_moment(t: int, d: int) -> np.ndarray:
    """Haar average of U^⊗t ⊗ (U^⊗t)† on (C^d)^⊗2t, one Weingarten sum for every t.

    The average of vec(U)^⊗t vec(U)^⊗t† is t! sum_ρ Wg(ρ) (I ⊗ Q_ρ), Q_ρ the permutation
    operators of S_t on (C^d)^⊗t and Wg the Weingarten function (Collins & Śniady 2006),
    built on Sym^t(C^(d²)) (:class:`_SymLayout`) and expanded into :func:`design_moment`'s
    layout.  The d^(4t) entries must fit ``MAX_ENTRIES``: t <= 5 at d = 2, 3 at d = 3, 2 at d = 4.
    """
    check_dim(d)
    check_t(t)
    check_entries(int(d) ** (4 * int(t)), 'the Haar moment d^4t')
    layout = _sym_layout(t, d)
    return layout.dense(layout.haar)


def design_moment(s: WeightedUnitarySet, t: int) -> np.ndarray:
    """Weighted moment operator sum_x w(x) U(x)^⊗t ⊗ (U(x)^⊗t)†.

    With P = U^⊗t of size D = d^t, entry ((a, b), (c, e)) is
    sum_x w(x) P_x[a, c] conj(P_x[e, b]): the dense expansion of the set's
    moment on Sym^t(C^(d²)) (see :class:`_SymLayout`).  Its guard counts
    max(n, D²)·D² entries against ``MAX_ENTRIES``.
    """
    check_t(t)
    n, d2t = len(s), int(s.dim) ** (2 * int(t))
    check_entries(max(n, d2t) * d2t, 'the moment operator max(n, d^2t)·d^2t')
    layout = _sym_layout(t, s.dim)
    return layout.dense(layout.moment(s.unitaries, s.weights))


@dataclass(frozen=True)
class DesignCertificate:
    """Outcome of :func:`certify`: PASS when the moment residual, in linear units, is at most the
    tolerance; the potential gap, its square in exact arithmetic, is reported beside it."""

    t: int
    potential: float
    gamma: float
    gap: float
    moment_residual: float
    passed: bool

    def __post_init__(self):
        if self.gap < -ATOL_CERT:
            raise InvalidInputError(
                f"potential gap {self.gap:.3e} violates the lower bound; numerical trouble")


def certify(s: WeightedUnitarySet, t: int, atol_cert: float = ATOL_CERT) -> DesignCertificate:
    """Certify a weighted set as a t-design: PASS means its moment residual r_t <= ``atol_cert``.

    r_t is the Frobenius distance of the set's t-th moment from the Haar
    moment; it vanishes exactly on designs.  The potential gap
    potential - gamma(t, d) is r_t² in exact arithmetic (Gross, Audenaert &
    Eisert 2007) and is reported too, but it cancels two O(gamma) numbers and
    rounds near 1e-16·gamma, so a gap at 1e-8 can hide a residual of 1e-4.
    Since r_s <= r_t for s < t, a PASS at any t bounds r_1, and with it the
    POVM defect ||sum F - I|| = d·r_1 that :func:`povm_from_design` admits
    up to d·``ATOL_CERT``.

    Both read one m × m moment on Sym^t(C^(d²)), m = C(d² + t - 1, t), with no n × n array
    (:class:`_SymLayout`).  gamma's ``MAX_GAMMA_T`` refuses t >= 10 first; then ``MAX_ENTRIES``
    bounds 3·m², which refuses d >= 43 at t = 1, d >= 8 at t = 2, d >= 5 at t = 3, d >= 4 at
    t = 4 and 5 and d >= 3 at t >= 6, and then 3·t!·m, which refuses d = 2 at t = 8 and 9.  The
    Haar moment has full rank m, so a design has n >= m.  The n·m products are summed in row
    blocks, so a set of any size is certified wherever its layout fits, such as the
    11520-element two-qubit Clifford group at t <= 3.
    """
    check_cert_threshold(atol_cert, 'atol_cert')
    g = float(gamma(t, s.dim))              # gamma's t guard runs before the layout is counted
    pot, residual = _sym_layout(t, s.dim).norms(s)
    return DesignCertificate(t=t, potential=pot, gamma=g, gap=pot - g,
                             moment_residual=residual, passed=bool(residual <= atol_cert))


def quat_to_unitary(r) -> np.ndarray:
    """Unit quaternion (r0, r1, r2, r3) -> r0·I + i(r1·X + r2·Y + r3·Z).

    The map identifies PU(2) with the projective 3-sphere and preserves
    distances: |tr(U†V)|² = 4<r, s>².
    """
    r = np.asarray(r, dtype=float)
    if r.shape != (4,):
        raise InvalidInputError(f"expected a 4-vector, got shape {r.shape}")
    if abs(np.linalg.norm(r) - 1.0) > ATOL_ALG:
        raise InvalidInputError(f"quaternion norm is {np.linalg.norm(r):.9f}, expected 1")
    return (r[0] * _PAULI['I']
            + 1j * (r[1] * _PAULI['X'] + r[2] * _PAULI['Y'] + r[3] * _PAULI['Z']))


def group_closure(generators, max_order: int = 10_000) -> WeightedUnitarySet:
    """Projective closure of the generated group, uniform weights.

    The elements found are the breadth-first queue: each is multiplied by
    every generator, the k products are written after the n elements found and
    those of new phase classes are kept, first seen (one pass over the (n + k)·k
    overlaps).  Raises once the closure exceeds ``max_order`` elements; the
    buffer of (max_order + k)·d² entries, k generators, must fit in ``MAX_ENTRIES``.
    """
    check_count(max_order, 'max_order', 1)
    gens = assert_unitary(np.asarray(generators, dtype=complex))
    if gens.ndim != 3 or not len(gens):
        raise InvalidInputError(f"need a stack of generator matrices, got shape {gens.shape}")
    d, k = gens.shape[-1], len(gens)
    check_entries((int(max_order) + k) * d * d, 'the closure buffer (max_order + k)·d²')
    found = np.empty((max_order + k, d, d), dtype=complex)
    found[0] = canonical_phase(np.eye(d, dtype=complex))
    i, n = 0, 1
    while i < n:
        found[n:n + k] = canonical_phase(gens @ found[i])
        prods = found[n:n + k][_first_seen(found[:n + k], n)[0][n:] == np.arange(n, n + k)]
        found[n:n + len(prods)] = prods
        i, n = i + 1, n + len(prods)
        if n > max_order:
            raise ResourceLimitError(f"group closure exceeded max_order = {max_order}")
    return uniform_set(d, found[:n])


def unitary_operator_frame(n: int, d: int) -> WeightedUnitarySet:
    """Unweighted 1-design of integers n >= d² and d >= 2 (:func:`check_count`) with matrix elements
    <j|U_m|k> = exp(2πi jk/d + 2πi (j + kd) m/n)/sqrt(d), its n·d² entries at most ``MAX_ENTRIES``."""
    check_dim(d)
    check_count(n, 'n', d * d)
    check_entries(int(n) * int(d) ** 2, 'the operator frame n·d²')
    j, k, m = np.arange(d)[:, None], np.arange(d)[None, :], np.arange(n)[:, None, None]
    phase = 2 * np.pi * (j * k / d + (j + k * d) * m / n)
    return uniform_set(d, np.exp(1j * phase) / np.sqrt(d))


def _pu2_11pt() -> WeightedUnitarySet:
    a = 1.0 / np.sqrt(3.0)
    b = np.sqrt(2.0 / 3.0)
    columns = [
        (1, 0, 0, 0),
        (0, a, a, a), (0, -a, a, a), (0, a, -a, a), (0, a, a, -a),
        (a, b, 0, 0), (a, -b, 0, 0),
        (a, 0, b, 0), (a, 0, -b, 0),
        (a, 0, 0, b), (a, 0, 0, -b),
    ]
    unitaries = np.array([quat_to_unitary(np.array(c, dtype=float)) for c in columns])
    weights = np.array([1 / 16] + [3 / 32] * 10)
    return WeightedUnitarySet(2, unitaries, weights)


def pu2_muub_family() -> list[WeightedUnitarySet]:
    """The three mutually unbiased unitary bases inside the 12-point design:
    the cosets (RH)^k·W, k = 0, 1, 2, of the Weyl operators W = {I, Z, X, XZ}
    (:func:`weyl_operators`), R the phase gate and H the Hadamard."""
    rh = _PHASE @ _HADAMARD
    return [uniform_set(2, np.linalg.matrix_power(rh, k) @ weyl_operators(2)) for k in range(3)]


# The gallery, in export order: name -> (builder of (n, dim), certified t).
_GALLERY = {
    'utof': (unitary_operator_frame, 1),
    'pu2_11pt': (lambda n, dim: _pu2_11pt(), 2),
    'pu2_clifford12': (lambda n, dim: group_closure([_HADAMARD @ _PHASE, _PHASE @ _PHASE]), 2),
    'pu2_clifford24': (lambda n, dim: group_closure([_HADAMARD, _PHASE]), 3),
    'pu2_600cell': (lambda n, dim: group_closure(
        [quat_to_unitary(np.array(q) / 2) for q in ((1, 1, 1, 1), (_GOLDEN, 0, 1, 1 / _GOLDEN))]), 5),
}
GALLERY_NAMES = tuple(_GALLERY)
GALLERY_CERTIFIED_T = {name: t for name, (_, t) in _GALLERY.items()}


def gallery(name: str, n: int | None = None, dim: int | None = None) -> WeightedUnitarySet:
    """Known designs by name.

    utof(n, d) is an unweighted 1-design for any n >= d²; pu2_11pt is the
    minimal weighted PU(2) 2-design; pu2_clifford12 (the closure of <HR, R²>)
    and pu2_clifford24 (the projective Clifford group <H, R>) are unweighted
    2- and 3-designs; pu2_600cell, the 60-point 5-design from the 600-cell, is
    the closure of the unit quaternions (1, 1, 1, 1)/2 and (phi, 0, 1, 1/phi)/2.
    ``n`` and ``dim`` are read by utof only.
    """
    if name not in _GALLERY:
        raise InvalidInputError(f"unknown gallery name {name!r}; known: {', '.join(GALLERY_NAMES)}")
    return _GALLERY[name][0](n, dim)


@dataclass(frozen=True)
class MuubReport:
    """Findings of :func:`muub_check` on a family of unitary operator bases."""

    m: int
    bound: int                       # d² - 1
    orthogonal: bool
    max_orthogonality_defect: float
    mutually_unbiased: bool
    max_unbiasedness_defect: float
    welch_sum: float                 # fourth-power sum with basis weights 1/(m d²)
    is_two_design: bool
    complete: bool                   # m == d² - 1 and all pairwise unbiased


def muub_check(bases: list[WeightedUnitarySet]) -> MuubReport:
    """Check a family of unitary operator bases and its union 2-design property.

    Each basis must contain exactly d² elements with tr(U_j†U_k) = d delta;
    pairs of bases are mutually unbiased when every cross overlap has
    |tr(U†V)|² = 1; both tests read blocks of one Gram matrix of the union
    and pass within ``ATOL_ALG``.  The union with basis weights 1/(m d²) is
    a weighted 2-design exactly when its frame potential (the Welch sum)
    meets gamma(2, d) = 2; the sum and the verdict, on the moment residual,
    are :func:`certify`'s.
    """
    if not bases:
        raise InvalidInputError("need at least one basis")
    d = bases[0].dim
    for b in bases:
        if b.dim != d:
            raise InvalidInputError("all bases must share one dimension")
        if len(b) != d * d:
            raise InvalidInputError(f"a unitary operator basis for d={d} has d²={d * d} elements, got {len(b)}")
    m = len(bases)
    union = np.concatenate([b.unitaries for b in bases])
    overlap = _overlaps(union, union)
    same = np.kron(np.eye(m, dtype=bool), np.ones((d * d, d * d), dtype=bool))
    orth_defect = float(np.abs(overlap - d * np.eye(m * d * d))[same].max())
    unbias_defect = float(np.abs(np.abs(overlap[~same]) ** 2 - 1.0).max()) if m > 1 else 0.0
    cert = certify(uniform_set(d, union), 2)
    orthogonal = orth_defect <= ATOL_ALG
    unbiased = unbias_defect <= ATOL_ALG
    return MuubReport(
        m=m,
        bound=d * d - 1,
        orthogonal=orthogonal,
        max_orthogonality_defect=orth_defect,
        mutually_unbiased=unbiased,
        max_unbiasedness_defect=unbias_defect,
        welch_sum=cert.potential,
        is_two_design=cert.passed,
        complete=bool(m == d * d - 1 and orthogonal and unbiased),
    )
