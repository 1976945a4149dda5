"""Dense complex operator and superoperator algebra.

Conventions, fixed once for the whole package:

* Operators are complex numpy arrays; vec(A) flattens row-major, so the
  Hilbert-Schmidt inner product tr(A†B) equals vec(A)†·vec(B).
* Hermitian operators on C^D have real coordinates c(H) in R^(D²), read
  against the orthonormal basis E_jj, (E_jk + E_kj)/sqrt(2) and
  i(E_jk - E_kj)/sqrt(2) (j < k, row-major pairs, in that order): c_jj = H_jj,
  then sqrt(2) Re H_jk, then sqrt(2) Im H_jk.  The map is an isometry, so
  tr(GH) = c(G)·c(H) and ||G - H||_F = |c(G) - c(H)|.  They are the working
  form: a superoperator that preserves Hermiticity is a real D² x D² matrix
  M there, and the frames and class projectors are built as such.
* A superoperator's left-right matrix acts in the operator basis
  E_(j,k) = |j><k| (flattened index j*d + k); for a Kraus map it is the
  process matrix.  The left-right frame and class projector are built from
  their definitions for callers; no computation of the package reads them.
* Maximally entangled kets |U> live in C^d ⊗ C^d with component (j,k) equal
  to U_(j,k)/sqrt(d), i.e. |U> = vec(U)/sqrt(d).
* Every integer input meets one rule, :func:`check_count`: an int or numpy integer, not a bool, at
  least its bound: dim 2; seed 0; t, certified_t, a search's size, max_iterations and restarts, a
  Kraus count k, max_order and shots 1 (0 in sample_counts); trials 2; an operator frame's n d².
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import InvalidInputError, ResourceLimitError

# Tolerance table: every accept/reject guard of the package reads its threshold
# here, one name per purpose.  Solver settings stay with the solvers in `search`.
ATOL_ALG = 1e-9            # algebraic identities: unitarity, weight sums, trace preservation, unitality, MUUB overlaps
EIG_CUTOFF = 1e-10         # relative eigenvalue cutoff for restricted inversion of superoperators
ATOL_CERT = 1e-8           # moment residual r_t of a t-design, for certify and search; a design's POVM admits
                           # ||sum F - I|| = d·r_1 up to d·ATOL_CERT, and a tight frame's residual (r_2 on one) up to ATOL_CERT
DEDUP_TOL = 1e-6           # U, V are phase-equivalent when |tr(U†V)|² >= d² - DEDUP_TOL
CP_FLOOR = 1e-8            # most negative process-matrix eigenvalue still read as completely positive
PROB_CLAMP = 1e-12         # Born-probability dips down to -PROB_CLAMP are floored at zero
PROB_SUM_TOL = 1e-9        # Born probabilities summing further from one mean POVM and state disagree
PHASE_TIE = 1e-12          # canonical_phase: relative tie on the largest modulus
PHASE_REAL = 1e-14         # canonical_phase: relative imaginary part of a pivot read as real
PURITY_SLACK = 1e-12       # float slack on the purity range [1/d², 1] of an error prediction
ATOL_FILE_WEIGHTS = 1e-6   # weight-sum defect a design file may carry; one above ATOL_ALG is renormalized
Z_GATE = 5.0               # |z| of tomo's mean error against the class prediction above which the run fails
# Resource guards, each checked before anything is drawn or allocated: Kraus count k of a random
# channel, t of gamma(t, d), and the entries of the largest array a search, operator frame, moment
# operator, design POVM or tomography run holds; the phase check and the moment sum work in row
# blocks of at most that many entries (`row_blocks`).
MAX_KRAUS = 1_000
MAX_GAMMA_T = 9
MAX_ENTRIES = 10_000_000


def check_cert_threshold(value: float, name: str) -> None:
    """Raise unless a certification threshold (the moment residual at or below
    which a set passes) is finite and positive; ``name`` is the caller's word for it."""
    if not (np.isfinite(value) and value > 0):
        raise InvalidInputError(f"{name} must be finite and positive, got {value!r}")


def check_entries(count: int, what: str) -> None:
    """Raise ``ResourceLimitError`` when an array of ``count`` entries, ``what``
    in the caller's words, would exceed ``MAX_ENTRIES``."""
    if count > MAX_ENTRIES:
        raise ResourceLimitError(f"{what} = {count} entries exceeds the guard {MAX_ENTRIES}")


def row_blocks(rows: int, row_entries: int) -> list[slice]:
    """Consecutive row blocks of a (rows, ·) computation whose ``row_entries`` entries per row
    fit ``MAX_ENTRIES`` per block: one block whenever all rows fit, single rows at least."""
    step = max(1, MAX_ENTRIES // row_entries)
    return [slice(start, start + step) for start in range(0, rows, step)]


def check_count(value, name: str, low: int) -> None:
    """Raise unless ``value`` is an int or numpy integer, not a bool, of at least ``low``: the
    package's one integer rule, for every count, order, size and seed; ``name`` is the caller's."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
        raise InvalidInputError(f"{name} must be an integer >= {low}, got {value!r}")


def check_dim(dim) -> None:
    """The dimension rule, for weighted sets, design files, searches, bases and moments."""
    check_count(dim, "'dim'", 2)


def check_t(t) -> None:
    """The design-order rule, for potentials, moments, gamma and searches."""
    check_count(t, 't', 1)


def dag(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose (of the last two axes for stacked input)."""
    return np.conj(np.swapaxes(a, -1, -2))


def assert_unitary(u: np.ndarray) -> np.ndarray:
    """Return ``u`` as complex, raising if it is not unitary; a stack names its first bad element."""
    u = np.asarray(u, dtype=complex)
    if u.ndim not in (2, 3) or u.shape[-1] != u.shape[-2]:
        raise InvalidInputError(f"expected a square matrix or a stack of them, got shape {u.shape}")
    res = np.atleast_1d(np.linalg.norm(dag(u) @ u - np.eye(u.shape[-1]), axis=(-2, -1)))
    bad = np.flatnonzero(~(res <= ATOL_ALG))        # NaN entries are not unitary either
    if bad.size:
        what = f"element {bad[0]}" if u.ndim == 3 else "matrix"
        raise InvalidInputError(f"{what} is not unitary: ||U†U - I|| = {res[bad[0]]:.3e}")
    return u


def partial_trace(a: np.ndarray, dims: tuple[int, int], axis: int) -> np.ndarray:
    """Trace out one factor of a bipartite operator on C^d1 ⊗ C^d2.

    Parameters
    ----------
    a : ndarray
        Operator of shape (d1*d2, d1*d2).
    dims : (d1, d2)
        Factor dimensions.
    axis : int
        0 traces out the first factor, 1 the second.
    """
    d1, d2 = dims
    a = np.asarray(a).reshape(d1, d2, d1, d2)
    if axis == 0:
        return np.einsum('ijik->jk', a)
    if axis == 1:
        return np.einsum('ijkj->ik', a)
    raise InvalidInputError("axis must be 0 or 1")


def herm_basis(d: int) -> np.ndarray:
    """Orthonormal Hermitian operator basis for End(C^d), shape (d², d, d).

    Generalized Gell-Mann construction: the first element is I/sqrt(d); then
    the symmetric pairs (E_jk + E_kj)/sqrt(2) for j < k, the antisymmetric
    pairs i(E_kj - E_jk)/sqrt(2) (sign fixed so d=2 yields Y exactly), both in
    row-major pair order, and finally the d-1 diagonal traceless operators.
    All elements satisfy tr(b_j b_k) = delta_jk, and every element but the
    first is traceless.
    """
    check_dim(d)
    j, k = np.triu_indices(d, 1)
    sym, anti = 1 + np.arange(len(j)), 1 + len(j) + np.arange(len(j))
    basis = np.zeros((d * d, d, d), dtype=complex)
    basis[0, range(d), range(d)] = 1 / np.sqrt(d)
    basis[sym, j, k] = basis[sym, k, j] = 1 / np.sqrt(2)
    basis[anti, j, k], basis[anti, k, j] = -1j / np.sqrt(2), 1j / np.sqrt(2)
    l = np.arange(1, d)                     # element d² - d + l: ones in slots 0..l-1, then -l
    scale = 1 / np.sqrt(l * (l + 1))        # a reciprocal, as numpy's complex division takes it
    rows, slots = np.nonzero(np.arange(d) < l[:, None])
    basis[d * d - d + 1 + rows, slots, slots] = scale[rows]
    basis[d * d - d + l, l, l] = -l * scale
    return basis


@functools.lru_cache(maxsize=None)
def _herm_layout(dim: int) -> tuple[np.ndarray, ...]:
    """Gather maps between the interleaved (re, im) float view of a row-major
    (dim, dim) complex operator and its Hermitian coordinates: source slot
    and scale of each coordinate, and of each float slot back."""
    j, k = np.triu_indices(dim, 1)
    diag, upper, lower = np.arange(dim) * (dim + 1), j * dim + k, k * dim + j
    pairs, root2 = len(upper), np.sqrt(2)
    to_src = np.concatenate([2 * diag, 2 * upper, 2 * upper + 1])
    to_scale = np.concatenate([np.ones(dim), np.full(2 * pairs, root2)])
    sym, anti = dim + np.arange(pairs), dim + pairs + np.arange(pairs)
    from_src = np.zeros((dim * dim, 2), dtype=int)
    from_scale = np.zeros((dim * dim, 2))
    from_src[diag, 0], from_scale[diag, 0] = np.arange(dim), 1.0
    from_src[upper, 0] = from_src[lower, 0] = sym
    from_src[upper, 1] = from_src[lower, 1] = anti
    from_scale[upper, 0] = from_scale[lower, 0] = from_scale[upper, 1] = 1 / root2
    from_scale[lower, 1] = -1 / root2
    return to_src, to_scale, from_src.reshape(-1), from_scale.reshape(-1)


def herm_coords(a: np.ndarray) -> np.ndarray:
    """Real coordinates (..., D²) of Hermitian operators (..., D, D).

    Only the diagonal and upper triangle are read, so the input is taken to
    be Hermitian, not checked.
    """
    a = np.ascontiguousarray(a, dtype=complex)
    to_src, to_scale, _, _ = _herm_layout(a.shape[-1])
    return a.view(float).reshape(a.shape[:-2] + (-1,))[..., to_src] * to_scale


def herm_from_coords(c: np.ndarray) -> np.ndarray:
    """Hermitian operators (..., D, D) with the real coordinates (..., D²);
    the inverse of :func:`herm_coords`."""
    c = np.asarray(c, dtype=float)
    dim = math.isqrt(c.shape[-1])
    if dim * dim != c.shape[-1]:
        raise InvalidInputError(f"coordinate length {c.shape[-1]} is not a square")
    _, _, from_src, from_scale = _herm_layout(dim)
    flat = np.ascontiguousarray(c[..., from_src] * from_scale)
    return flat.view(complex).reshape(c.shape[:-1] + (dim, dim))


def weyl_operators(d: int) -> np.ndarray:
    """The d² Weyl operators X^a Z^b at index a·d + b, shape (d², d, d), with
    the shift X|j> = |j + 1> and the clock Z = diag(exp(2πij/d));
    tr(W†W') = d δ.  One stacked product of the shift and clock powers."""
    shift = np.roll(np.eye(d), 1, axis=0).astype(complex)
    clock = np.diag(np.exp(2j * np.pi * np.arange(d) / d))
    xs, zs = (np.array([np.linalg.matrix_power(m, k) for k in range(d)]) for m in (shift, clock))
    return (xs[:, None] @ zs).reshape(d * d, d, d)


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based generator (Philox) from a non-negative integer seed."""
    check_count(seed, 'seed', 0)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def haar_unitaries(d: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """Stack of ``n`` independent Haar unitaries, shape (n, d, d): QR of
    complex Ginibre matrices with the phases of the R diagonals divided out.

    The draw has layout (n, 2, d, d), real part then imaginary part for each
    element in turn, so the stack equals ``n`` successive
    :func:`haar_unitary` calls on the same generator.
    """
    z = rng.standard_normal((n, 2, d, d))
    q, r = np.linalg.qr((z[:, 0] + 1j * z[:, 1]) / np.sqrt(2))
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[:, None, :]


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """One Haar-distributed unitary; see :func:`haar_unitaries`."""
    return haar_unitaries(d, 1, rng)[0]


def log_unitary(u: np.ndarray) -> np.ndarray:
    """Hermitian G with U = exp(iG), eigenphases on the principal branch."""
    import scipy.linalg

    t, q = scipy.linalg.schur(np.asarray(u, dtype=complex), output='complex')
    phases = np.angle(np.diagonal(t))
    return (q * phases) @ dag(q)


# outputs of unital channels, of all channels, all states -> removed families (_class_complement)
_REMOVED_FAMILIES = {'uc': 2, 'gc': 1, 'full': 0}
STATE_CLASSES = tuple(_REMOVED_FAMILIES)


def bipartite_dim(bigd: int, what: str) -> int:
    """The d with d² = ``bigd``, else an error saying ``what`` needs one."""
    d = math.isqrt(bigd)
    if d * d != bigd:
        raise InvalidInputError(f"{what} needs a bipartite dimension, got D={bigd}")
    return d


def span_dimension(state_class: str, d: int) -> int:
    """Dimension d⁴ - k(d² - 1) of span(Q) for a channel-output class on C^d ⊗ C^d,
    k its removed families: (d²-1)² + 1 for 'uc', d²(d²-1) + 1 for 'gc', d⁴ for 'full'."""
    check_dim(d)
    if state_class not in STATE_CLASSES:
        raise InvalidInputError(f"unknown state class {state_class!r}")
    return d ** 4 - _REMOVED_FAMILIES[state_class] * (d * d - 1)


def _class_complement(state_class: str, d: int) -> np.ndarray:
    """Orthonormal Hermitian operators (m, d², d²) spanning the complement of
    a class span: with b_0 = I/sqrt(d) and B over the traceless rest of
    :func:`herm_basis`, the first k of the families b_0⊗B (a trace-preserving
    channel's output has no part there) and B⊗b_0 (nor a unital one's)."""
    span_dimension(state_class, d)          # the class-name and dimension checks
    basis = herm_basis(d)
    families = [lambda b: np.kron(basis[0], b), lambda b: np.kron(b, basis[0])]
    removed = [family(b) for family in families[:_REMOVED_FAMILIES[state_class]] for b in basis[1:]]
    return np.array(removed, dtype=complex).reshape(-1, d * d, d * d)


@functools.lru_cache(maxsize=None, typed=True)     # typed: a cached d = 2 must not answer d = 2.0
def class_projector_coords(state_class: str, d: int) -> np.ndarray:
    """Projector I - sum_r c(r) c(r)ᵀ onto span(Q) for a channel-output class,
    r over :func:`_class_complement`, in the Hermitian coordinates of
    C^d ⊗ C^d; real symmetric, built once per (class, d) and read-only."""
    removed = _class_complement(state_class, d)
    pi = np.eye(d ** 4)
    if len(removed):
        c = herm_coords(removed)
        pi -= c.T @ c
    pi.setflags(write=False)
    return pi


@functools.lru_cache(maxsize=None, typed=True)     # typed, as class_projector_coords
def class_projector(state_class: str, d: int) -> np.ndarray:
    """Left-right form I - sum_r vec(r) vec(r)† of the same projector ('full'
    gives the identity exactly); built once per (class, d), read-only."""
    v = _class_complement(state_class, d).reshape(-1, d ** 4)
    pi = np.eye(d ** 4, dtype=complex) - v.T @ v.conj()
    pi.setflags(write=False)
    return pi
