"""Weighted unitary t-designs: representation, certification and a gallery.

A weighted set (D, w) of projective unitaries is a t-design when its t-th
moment operator matches the Haar average, or equivalently when the frame
potential sum_{x,y} w(x)w(y)|tr(U(x)†U(y))|^(2t) meets its lower bound
gamma(t, d) exactly.  This module certifies sets against both criteria,
computes gamma(t, d) by enumeration, and holds the known small designs used
throughout the package.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache

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
    check_dim,
    check_entries,
    permutation_operator,
    swap_operator,
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
    construction.  Phase-distinctness is an ingestion-level invariant,
    checked by :func:`assert_phase_distinct` at the file boundary and after
    group closure (optimizer-internal sets may transiently contain
    phase-equivalent copies).
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

    def gram(self) -> np.ndarray:
        """Matrix of overlaps tr(U(x)† U(y))."""
        flat = self.unitaries.reshape(len(self), -1)
        return flat.conj() @ flat.T


def uniform_set(dim: int, unitaries) -> WeightedUnitarySet:
    """Weighted set with uniform weights 1/n."""
    unitaries = np.asarray(unitaries, dtype=complex)
    n = unitaries.shape[0]
    return WeightedUnitarySet(dim, unitaries, np.full(n, 1.0 / n))


def _phase_equivalent(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(n, m) mask of |tr(A†B)|² >= d² - DEDUP_TOL over stacks (n, d, d), (m, d, d)."""
    d2 = a.shape[-1] ** 2
    overlap = a.reshape(len(a), d2).conj() @ b.reshape(len(b), d2).T
    return np.abs(overlap) ** 2 >= d2 - DEDUP_TOL


def _first_seen(u: np.ndarray) -> np.ndarray:
    """Owner of each element: the first earlier kept one phase-equivalent to it, else itself."""
    close = _phase_equivalent(u, u)
    owner = np.full(len(u), -1)
    for i in range(len(u)):
        if owner[i] < 0:            # i is kept and claims every unowned element close to it
            owner[close[i] & (owner < 0)] = i
            owner[i] = i
    return owner


def assert_phase_distinct(s: WeightedUnitarySet) -> None:
    """Raise if two elements are phase-equivalent, |tr(U†V)|² >= d² - DEDUP_TOL."""
    close = _phase_equivalent(s.unitaries, s.unitaries) & ~np.eye(len(s), dtype=bool)
    if close.any():
        worst = (np.abs(s.gram()[close]) ** 2).max()
        raise InvalidInputError(
            f"set contains phase-equivalent elements (max off-diagonal |tr|² = {worst:.9f})")


def merge_phase_duplicates(s: WeightedUnitarySet) -> WeightedUnitarySet:
    """Combine the weights of phase-equivalent elements, keeping first seen."""
    owner = _first_seen(s.unitaries)
    weights = np.zeros(len(s))
    np.add.at(weights, owner, s.weights)
    kept = np.flatnonzero(owner == np.arange(len(s)))
    return WeightedUnitarySet(s.dim, s.unitaries[kept], weights[kept])


def frame_potential(s: WeightedUnitarySet, t: int) -> float:
    """Double sum sum_{x,y} w(x) w(y) |tr(U(x)† U(y))|^(2t)."""
    if t < 1:
        raise InvalidInputError(f"t must be >= 1, got {t}")
    overlap2 = np.abs(s.gram()) ** 2
    return float(s.weights @ overlap2 ** t @ s.weights)


def _longest_increasing_run(seq: tuple[int, ...]) -> int:
    # patience sorting: tails[k] = smallest tail of an increasing subsequence
    # of length k+1
    tails: list[int] = []
    for x in seq:
        k = bisect_left(tails, x)
        if k == len(tails):
            tails.append(x)
        else:
            tails[k] = x
    return len(tails)


@lru_cache(maxsize=None)
def gamma(t: int, d: int) -> int:
    """Haar average of |tr U|^(2t) on PU(d), as an exact integer.

    Counts the permutations of S_t whose one-line form has no increasing
    subsequence longer than d.  Equals t! once d >= t, and the Catalan
    number (2t)!/(t!(t+1)!) at d = 2.
    """
    if t < 1:
        raise InvalidInputError(f"t must be >= 1, got {t}")
    check_dim(d)
    if t > MAX_GAMMA_T:
        raise ResourceLimitError(f"gamma enumeration capped at t <= {MAX_GAMMA_T}, got t={t}")
    if d >= t:
        import math
        return math.factorial(t)
    return sum(1 for p in itertools.permutations(range(1, t + 1))
               if _longest_increasing_run(p) <= d)


def haar_moment(t: int, d: int) -> np.ndarray:
    """Haar average of U^⊗t ⊗ (U^⊗t)† on (C^d)^⊗2t, closed form for t <= 2.

    t = 1 gives T/d with T the swap; t = 2 combines the four permutation
    operators P_3412, P_4321, P_4312, P_3421 with coefficients 1/(d²-1) and
    -1/(d(d²-1)).  Its d^(4t) entries must fit in ``MAX_ENTRIES``.
    """
    check_dim(d)
    if t == 1:
        return swap_operator(d) / d
    if t == 2:
        c1 = 1.0 / (d * d - 1)
        c2 = 1.0 / (d * (d * d - 1))
        return (c1 * (permutation_operator((3, 4, 1, 2), d) + permutation_operator((4, 3, 2, 1), d))
                - c2 * (permutation_operator((4, 3, 1, 2), d) + permutation_operator((3, 4, 2, 1), d)))
    raise InvalidInputError(f"exact moment operators are available for t in {{1, 2}}, got t={t}")


def design_moment(s: WeightedUnitarySet, t: int) -> np.ndarray:
    """Weighted moment operator sum_x w(x) U(x)^⊗t ⊗ (U(x)^⊗t)†.

    With P = U^⊗t of size D = d^t, entry ((a, b), (c, e)) is
    sum_x w(x) P_x[a, c] conj(P_x[e, b]): one (D², n)·(n, D²) matmul of the
    flattened powers, then an axis transpose.  The powers and the result,
    max(n, D²)·D² entries, must fit in ``MAX_ENTRIES``.
    """
    n, d = len(s), s.dim
    check_entries(max(n, int(d) ** (2 * t)) * int(d) ** (2 * t), 'the moment operator max(n, d^2t)·d^2t')
    upow = s.unitaries
    for _ in range(t - 1):          # kron(P, U) element by element
        m = upow.shape[-1] * d
        upow = (upow[:, :, None, :, None] * s.unitaries[:, None, :, None, :]).reshape(n, m, m)
    dim = upow.shape[-1]
    flat = upow.reshape(n, -1)
    acc = (flat.T * s.weights) @ flat.conj()           # rows (a, c), columns (e, b)
    return acc.reshape((dim,) * 4).transpose(0, 3, 1, 2).reshape(dim * dim, dim * dim)


@dataclass(frozen=True)
class DesignCertificate:
    """Outcome of the potential-gap test, with the moment residual at t <= 2."""

    t: int
    potential: float
    gamma: float
    gap: float
    moment_residual: float | None
    passed: bool

    def __post_init__(self):
        if self.gap < -ATOL_CERT:
            raise InvalidInputError(
                f"potential gap {self.gap:.3e} violates the lower bound; numerical trouble")


def certify(s: WeightedUnitarySet, t: int, atol_cert: float = ATOL_CERT) -> DesignCertificate:
    """Certify a weighted set as a t-design through the potential gap.

    The gap potential - gamma(t, d) is nonnegative and vanishes exactly on
    designs; for t <= 2 the moment-operator residual is also computed.  The
    two criteria agree in exact arithmetic (the residual is the square root
    of the gap), but the gap is computed by cancellation of two O(gamma)
    numbers and bottoms out near 1e-16, so a gap of about 0 can hide a
    residual of about 1e-8.  PASS means gap <= ``atol_cert``, also where the
    residual is None: at t > 2 and when the moments exceed ``MAX_ENTRIES``.
    """
    check_cert_threshold(atol_cert, 'atol_cert')
    pot = frame_potential(s, t)
    g = float(gamma(t, s.dim))
    gap = pot - g
    residual = None
    if t <= 2:
        try:
            residual = float(np.linalg.norm(design_moment(s, t) - haar_moment(t, s.dim)))
        except ResourceLimitError:
            pass
    return DesignCertificate(t=t, potential=pot, gamma=g, gap=gap,
                             moment_residual=residual, passed=bool(gap <= atol_cert))


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
    every generator and the products of new phase classes are appended, first
    seen kept.  Raises once the closure exceeds ``max_order`` elements.
    """
    gens = assert_unitary(np.asarray(generators, dtype=complex))
    if gens.ndim != 3 or not len(gens):
        raise InvalidInputError(f"need a stack of generator matrices, got shape {gens.shape}")
    d = gens.shape[-1]
    found = np.empty((max_order + len(gens), d, d), dtype=complex)
    found[0] = canonical_phase(np.eye(d, dtype=complex))
    i, n = 0, 1
    while i < n:
        prods = canonical_phase(gens @ found[i])
        prods = prods[~_phase_equivalent(found[:n], prods).any(axis=0)]
        prods = prods[_first_seen(prods) == np.arange(len(prods))]
        found[n:n + len(prods)] = prods
        i, n = i + 1, n + len(prods)
        if n > max_order:
            raise ResourceLimitError(f"group closure exceeded max_order = {max_order}")
    return uniform_set(d, found[:n])


def unitary_operator_frame(n: int, d: int) -> WeightedUnitarySet:
    """Unweighted 1-design of n >= d² unitaries with matrix elements
    <j|U_m|k> = exp(2πi jk/d + 2πi (j + kd) m/n)/sqrt(d); d must be an integer >= 2,
    and n·d² at most ``MAX_ENTRIES``."""
    check_dim(d)
    if n < d * d:
        raise InvalidInputError(f"a 1-design needs at least d² = {d * d} elements, got n={n}")
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
    """The three mutually unbiased unitary bases inside the 12-point design.

    Hardcoded from the 24-cell quaternion coordinates: the axis basis
    {I, iX, iY, iZ} and the two half-quaternion bases split by sign parity.
    """
    axis = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    even = [(1, 1, 1, 1), (1, 1, -1, -1), (1, -1, 1, -1), (1, -1, -1, 1)]
    odd = [(1, 1, 1, -1), (1, 1, -1, 1), (1, -1, 1, 1), (1, -1, -1, -1)]
    bases = []
    for quads, scale in ((axis, 1.0), (even, 0.5), (odd, 0.5)):
        ops = np.array([quat_to_unitary(np.asarray(q, dtype=float) * scale) for q in quads])
        bases.append(uniform_set(2, ops))
    return bases


def _utof(n: int | None, dim: int | None) -> WeightedUnitarySet:
    if n is None or dim is None:
        raise InvalidInputError("utof needs both n and dim")
    return unitary_operator_frame(n, dim)


# The gallery, in export order: name -> (builder of (n, dim), certified t).
_GALLERY = {
    'utof': (_utof, 1),
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
    meets gamma(2, d) = 2; that verdict and the sum are :func:`certify`'s.
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
    flat = np.concatenate([b.unitaries.reshape(d * d, -1) for b in bases])
    overlap = flat.conj() @ flat.T
    same = np.kron(np.eye(m, dtype=bool), np.ones((d * d, d * d), dtype=bool))
    orth_defect = float(np.abs(overlap - d * np.eye(m * d * d))[same].max())
    unbias_defect = float(np.abs(np.abs(overlap[~same]) ** 2 - 1.0).max()) if m > 1 else 0.0
    cert = certify(uniform_set(d, flat.reshape(-1, d, d)), 2)
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
