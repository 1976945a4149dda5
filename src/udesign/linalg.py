"""Dense complex operator and superoperator algebra.

Conventions, fixed once for the whole package:

* Operators are complex numpy arrays; `vec` flattens row-major, so the
  Hilbert-Schmidt inner product tr(A†B) equals vec(A)†·vec(B).
* Superoperators are stored as their left-right matrix in the standard
  operator basis E_(j,k) = |j><k| with the flattened index j*d + k.  For a
  Kraus map this matrix is the process matrix; for frame superoperators it
  is sum_x tau(x) vec(P(x)) vec(P(x))†.
* Maximally entangled kets |U> live in C^d ⊗ C^d with component (j,k) equal
  to U_(j,k)/sqrt(d), i.e. |U> = vec(U)/sqrt(d).
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError, ResourceLimitError

# Absolute tolerance for algebraic identities (unitarity, trace conditions).
ATOL_ALG = 1e-9
# Relative eigenvalue cutoff for restricted (pseudo-)inversion of superoperators.
EIG_CUTOFF = 1e-10
# Guard on total tensor-product dimension for permutation operators.
MAX_PERM_DIM = 10_000


def dag(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose (of the last two axes for stacked input)."""
    return np.conj(np.swapaxes(a, -1, -2))


def vec(a: np.ndarray) -> np.ndarray:
    """Row-major flattening of an operator into an operator ket."""
    return np.asarray(a).reshape(-1)


def unvec(v: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of :func:`vec` for square operators."""
    return np.asarray(v).reshape(dim, dim)


def hs_inner(a: np.ndarray, b: np.ndarray) -> complex:
    """Hilbert-Schmidt inner product tr(A†B)."""
    return complex(np.vdot(a, b))


def is_unitary(u: np.ndarray, atol: float = ATOL_ALG) -> bool:
    u = np.asarray(u)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        return False
    return bool(np.linalg.norm(dag(u) @ u - np.eye(u.shape[0])) <= atol)


def assert_unitary(u: np.ndarray, atol: float = ATOL_ALG) -> np.ndarray:
    """Return ``u`` as a complex array, raising if it is not unitary."""
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise InvalidInputError(f"expected a square matrix, got shape {u.shape}")
    res = np.linalg.norm(dag(u) @ u - np.eye(u.shape[0]))
    if res > atol:
        raise InvalidInputError(f"matrix is not unitary: ||U†U - I|| = {res:.3e}")
    return u


def assert_state(rho: np.ndarray, atol: float = ATOL_ALG) -> np.ndarray:
    """Validate a density operator: Hermitian, unit trace, eigenvalues >= -atol."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise InvalidInputError(f"expected a square matrix, got shape {rho.shape}")
    if np.linalg.norm(rho - dag(rho)) > atol:
        raise InvalidInputError("state is not Hermitian within tolerance")
    if abs(np.trace(rho) - 1.0) > atol:
        raise InvalidInputError(f"state trace is {np.trace(rho):.6f}, expected 1")
    if np.linalg.eigvalsh(rho).min() < -atol:
        raise InvalidInputError("state has an eigenvalue below -atol")
    return rho


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
    pairs i(E_kj - E_jk)/sqrt(2) (sign fixed so d=2 yields Y exactly), and
    finally the d-1 diagonal traceless operators.  All elements satisfy
    tr(b_j b_k) = delta_jk, and every element but the first is traceless.
    """
    if d < 2:
        raise InvalidInputError(f"dimension must be >= 2, got {d}")
    ops = [np.eye(d, dtype=complex) / np.sqrt(d)]
    for j in range(d):
        for k in range(j + 1, d):
            m = np.zeros((d, d), dtype=complex)
            m[j, k] = m[k, j] = 1 / np.sqrt(2)
            ops.append(m)
    for j in range(d):
        for k in range(j + 1, d):
            m = np.zeros((d, d), dtype=complex)
            m[j, k] = -1j / np.sqrt(2)
            m[k, j] = 1j / np.sqrt(2)
            ops.append(m)
    for l in range(1, d):
        m = np.zeros((d, d), dtype=complex)
        m[np.arange(l), np.arange(l)] = 1.0
        m[l, l] = -l
        ops.append(m / np.sqrt(l * (l + 1)))
    return np.array(ops)


def max_entangled_ket(u: np.ndarray, atol: float = ATOL_ALG) -> np.ndarray:
    """Maximally entangled ket (1/sqrt(d)) sum_k U|k> ⊗ |k> for unitary U."""
    u = assert_unitary(u, atol=atol)
    return vec(u) / np.sqrt(u.shape[0])


def permutation_operator(images: tuple[int, ...] | list[int], d: int) -> np.ndarray:
    """Operator permuting the n factors of (C^d)^⊗n.

    ``images`` lists the permutation in one-line notation with 1-based
    entries; ``(2, 1)`` gives the swap T with tr[(A⊗B)T] = tr(AB), and the
    operators compose like the permutations they carry.
    """
    images = tuple(int(s) for s in images)
    n = len(images)
    if sorted(images) != list(range(1, n + 1)):
        raise InvalidInputError(f"not a permutation of 1..{n}: {images}")
    if d ** n > MAX_PERM_DIM:
        raise ResourceLimitError(f"d^n = {d ** n} exceeds the guard {MAX_PERM_DIM}")
    inverse = np.empty(n, dtype=int)
    for m, s in enumerate(images):
        inverse[s - 1] = m
    dim = d ** n
    digits = np.indices((d,) * n).reshape(n, dim).T     # column index -> digit tuple
    place = d ** np.arange(n - 1, -1, -1)
    rows = digits[:, inverse] @ place                   # P|k> = |k∘sigma^{-1}>
    op = np.zeros((dim, dim))
    op[rows, np.arange(dim)] = 1.0
    return op


def swap_operator(d: int) -> np.ndarray:
    return permutation_operator((2, 1), d)


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based generator (Philox) from a 64-bit seed."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary: QR of a complex Ginibre matrix with the
    phases of the R diagonal divided out."""
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def haar_unitaries(d: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """Stack of ``n`` independent Haar unitaries, shape (n, d, d)."""
    z = (rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[:, None, :]


def expm_hermitian(g: np.ndarray) -> np.ndarray:
    """exp(iG) for Hermitian G via eigendecomposition (supports stacks)."""
    evals, v = np.linalg.eigh(g)
    return np.einsum('...ab,...b,...cb->...ac', v, np.exp(1j * evals), np.conj(v))


def log_unitary(u: np.ndarray) -> np.ndarray:
    """Hermitian G with U = exp(iG), eigenphases on the principal branch."""
    import scipy.linalg

    t, q = scipy.linalg.schur(np.asarray(u, dtype=complex), output='complex')
    phases = np.angle(np.diagonal(t))
    return (q * phases) @ dag(q)


def subspace_projectors(d: int) -> dict[str, np.ndarray]:
    """Left-right projectors onto the tomography subspaces of H(C^d ⊗ C^d).

    Returns the traceless projector ``pi0`` = I - |I>><<I|/D with D = d², the
    unital-channel-image projector ``pi_uc`` spanned by b_0⊗b_0 and b_j⊗b_k
    (j,k > 0), and the general-channel-image projector ``pi_gc`` spanned by
    b_0⊗b_0 and b_j⊗b_k (j > 0, all k), for the Hermitian basis {b_k}.
    Ranks are D² - 1, (d²-1)² + 1 and d²(d²-1) + 1 respectively.
    With p0 = |b_0>><<b_0| and q = I - p0, the basis sums close to p0⊗p0 + q⊗q
    and p0⊗p0 + q⊗I on vec(A)⊗vec(B), reshuffled to vec(A⊗B).
    """
    if d < 2:
        raise InvalidInputError(f"dimension must be >= 2, got {d}")
    bigd = d * d
    ident = vec(np.eye(bigd, dtype=complex))
    pi0 = np.eye(bigd * bigd, dtype=complex) - np.outer(ident, ident.conj()) / bigd

    b0 = vec(np.eye(d, dtype=complex)) / np.sqrt(d)
    p0 = np.outer(b0, b0.conj())
    q = np.eye(bigd) - p0
    sums = np.kron(p0, p0) + np.array([np.kron(q, q), np.kron(q, np.eye(bigd))])
    # row and column axes (a1, a2, b1, b2) of vec(A)⊗vec(B) -> (a1, b1, a2, b2) of vec(A⊗B)
    pi_uc, pi_gc = sums.reshape((2,) + (d,) * 8).transpose(0, 1, 3, 2, 4, 5, 7, 6, 8).reshape(2, bigd ** 2, -1)
    return {'pi0': pi0, 'pi_uc': pi_uc, 'pi_gc': pi_gc}


def span_dimension(state_class: str, d: int) -> int:
    """Dimension of span(Q) for a channel-output class on C^d ⊗ C^d."""
    d2 = d * d
    if state_class == 'full':
        return d2 * d2
    if state_class == 'uc':
        return (d2 - 1) ** 2 + 1
    if state_class == 'gc':
        return d2 * (d2 - 1) + 1
    raise InvalidInputError(f"unknown state class {state_class!r}")


def class_projector(state_class: str, d: int) -> np.ndarray:
    """Left-right projector onto span(Q) for a channel-output class."""
    if state_class == 'full':
        return np.eye(d ** 4, dtype=complex)
    projs = subspace_projectors(d)
    if state_class == 'uc':
        return projs['pi_uc']
    if state_class == 'gc':
        return projs['pi_gc']
    raise InvalidInputError(f"unknown state class {state_class!r}")
