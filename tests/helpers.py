"""Small numerical helpers shared by the tests."""

import numpy as np

from udesign.errors import InvalidInputError
from udesign.linalg import assert_unitary, check_entries


def vec(a: np.ndarray) -> np.ndarray:
    """Row-major flattening of an operator into an operator ket."""
    return np.asarray(a).reshape(-1)


def unvec(v: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of :func:`vec` for square operators."""
    return np.asarray(v).reshape(dim, dim)


def max_entangled_ket(u: np.ndarray) -> np.ndarray:
    """Maximally entangled ket (1/sqrt(d)) sum_k U|k> ⊗ |k> for unitary U."""
    u = assert_unitary(u)
    if u.ndim != 2:
        raise InvalidInputError(f"expected a square matrix, got shape {u.shape}")
    return vec(u) / np.sqrt(u.shape[0])


def permutation_operator(images: tuple[int, ...] | list[int], d: int) -> np.ndarray:
    """Operator permuting the n factors of (C^d)^⊗n, the oracle of the moment tests.

    ``images`` lists the permutation in one-line notation with 1-based
    entries; ``(2, 1)`` gives the swap T with tr[(A⊗B)T] = tr(AB), and the
    operators compose like the permutations they carry.  Its (d^n)² entries
    must fit in ``MAX_ENTRIES``.
    """
    images = tuple(int(s) for s in images)
    n = len(images)
    if sorted(images) != list(range(1, n + 1)):
        raise InvalidInputError(f"not a permutation of 1..{n}: {images}")
    check_entries(int(d) ** (2 * n), 'the permutation operator (d^n)²')
    # P|k> = |k∘sigma^{-1}>: column axis q of the result is the identity's axis images[q] - 1
    axes = tuple(range(n)) + tuple(n + s - 1 for s in images)
    return np.eye(d ** n).reshape((d,) * 2 * n).transpose(axes).reshape(d ** n, d ** n)


def swap_operator(d: int) -> np.ndarray:
    return permutation_operator((2, 1), d)


def expm_hermitian(g: np.ndarray) -> np.ndarray:
    """exp(iG) for Hermitian G via eigendecomposition (supports stacks)."""
    evals, v = np.linalg.eigh(g)
    return np.einsum('...ab,...b,...cb->...ac', v, np.exp(1j * evals), np.conj(v))


def broken_design_docs() -> dict:
    """The pu2_11pt design document with one bad field each: name -> (doc, error message)."""
    from udesign.designs import gallery
    from udesign.io import design_to_json

    def broken(edit):
        doc = design_to_json(gallery('pu2_11pt'), certified_t=2)
        edit(doc)
        return doc

    return {
        'nan-weight': (broken(lambda doc: doc['elements'][3].update(weight=float('nan'))),
                       "unitaries and weights must be finite"),
        'nan-entry': (broken(lambda doc: doc['elements'][3]['matrix'][0][1].__setitem__(0, float('nan'))),
                      "unitaries and weights must be finite"),
        'null-weight': (broken(lambda doc: doc['elements'][3].update(weight=None)),
                        "element 3: weight must be a number, got None"),
        'string-weight': (broken(lambda doc: doc['elements'][3].update(weight='abc')),
                          "element 3: weight must be a number, got 'abc'"),
        'numeric-string-weight': (broken(lambda doc: doc['elements'][3].update(weight='0.25')),
                                  "element 3: weight must be a number, got '0.25'"),
        'bool-weight': (broken(lambda doc: doc['elements'][3].update(weight=True)),
                        "element 3: weight must be a number, got True"),
        'bool-certified-t': (broken(lambda doc: doc.update(certified_t=True)),
                             "'certified_t' must be an integer >= 1, got True"),
        'three-number-entries': (broken(lambda doc: [e.append(0.0) for row in doc['elements'][3]['matrix']
                                                     for e in row]),
                                 "element 3: entries must be [re, im] pairs"),
        'float-overflow-weight': (broken(lambda doc: doc['elements'][3].update(weight=10 ** 400)),
                                  "element 3: weight is too large for a float"),
        'bool-entry': (broken(lambda doc: doc['elements'][3].update(
                           matrix=[[[True, False], [False, False]], [[False, False], [True, False]]])),
                       "element 3: entries must be [re, im] pairs"),
        'mixed-bool-entry': (broken(lambda doc: doc['elements'][3]['matrix'][0][1].__setitem__(0, False)),
                             "element 3: entries must be [re, im] pairs"),
        'float-overflow-entry': (broken(lambda doc: doc['elements'][3]['matrix'][0][1].__setitem__(0, 10 ** 400)),
                                 "element 3: entries must be [re, im] pairs"),
        'array-document': (broken(lambda doc: None)['elements'], "design file must hold a JSON object"),
        'empty-elements': (broken(lambda doc: doc.update(elements=[])), "'elements' must be a non-empty list"),
        'object-elements': (broken(lambda doc: doc.update(elements=doc['elements'][0])),
                            "'elements' must be a non-empty list"),
        'missing-weight': (broken(lambda doc: doc['elements'][3].pop('weight')),
                           "element 3: need 'weight' and 'matrix' fields"),
        'missing-matrix': (broken(lambda doc: doc['elements'][3].pop('matrix')),
                           "element 3: need 'weight' and 'matrix' fields"),
    }


def gram_potential(s, t: int) -> float:
    """The frame potential as the Gram double sum sum_{x,y} w(x) w(y) |tr(U(x)†U(y))|^(2t),
    the form the package computed before the symmetric layout, kept as the oracle."""
    flat = s.unitaries.reshape(len(s), -1)
    overlap2 = np.abs(flat.conj() @ flat.T) ** 2
    return float(s.weights @ overlap2 ** t @ s.weights)
