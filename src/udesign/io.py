"""File formats: design JSON, search logs and tomography reports.

All numeric output is serialized with 17 significant digits, which
round-trips IEEE-754 doubles exactly and makes repeated runs byte-identical.
Matrices are stored row-major as nested lists of [re, im] pairs.
"""

from __future__ import annotations

import itertools
import json
import math
from pathlib import Path

import numpy as np

from .designs import WeightedUnitarySet, assert_phase_distinct
from .errors import InvalidInputError
from .linalg import ATOL_ALG, ATOL_FILE_WEIGHTS, check_count, check_dim
from .povm import TomographyReport

REPORT_FIELDS = ('class', 'd', 'N', 'trials', 'empirical_mean', 'std_err',
                 'predicted', 'purity', 'seed')


def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise InvalidInputError("non-finite number in output")
    return '%.17g' % x


def dumps(obj, indent: int = 0) -> str:
    """Deterministic JSON text with fixed float formatting.

    Supports the small vocabulary used by the file formats: dict (insertion
    order preserved), list, str, bool, None, int and float.  A dict takes one
    line per key; a list of scalars stays on one line.
    """
    if type(obj) is list and obj and all(type(v) is float for v in obj):  # [re, im] pairs, float rows
        return '[' + ', '.join(map(_fmt_float, obj)) + ']'
    pad = ' ' * indent
    if isinstance(obj, dict):
        if not obj:
            return '{}'
        items = ',\n'.join([f'{pad}  {json.dumps(k)}: {dumps(v, indent + 2)}' for k, v in obj.items()])
        return '{\n' + items + '\n' + pad + '}'
    if isinstance(obj, (list, tuple)):
        if not obj:
            return '[]'
        if all(not isinstance(v, (dict, list, tuple)) for v in obj):
            return '[' + ', '.join([dumps(v) for v in obj]) + ']'
        items = ',\n'.join([f'{pad}  {dumps(v, indent + 2)}' for v in obj])
        return '[\n' + items + '\n' + pad + ']'
    if isinstance(obj, bool):
        return 'true' if obj else 'false'
    if obj is None:
        return 'null'
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    raise InvalidInputError(f"cannot serialize {type(obj).__name__}")


def matrix_to_json(m: np.ndarray) -> list:
    """Nested lists of [re, im] pairs; a (..., d, d) stack gives one per matrix."""
    return np.stack([np.real(m), np.imag(m)], -1).tolist()


def _holds_bool(rows, depth: int) -> bool:
    """Whether nested lists hold a bool (JSON true/false), which numpy reads as 1 or 0."""
    for _ in range(depth - 1):
        rows = itertools.chain.from_iterable(rows)
    return bool in set(map(type, rows))


def matrix_from_json(rows, context: str = 'matrix') -> np.ndarray:
    """Inverse of :func:`matrix_to_json`; every entry must be exactly two JSON
    numbers.  The pairs are viewed as complex128: the same bits as complex(re, im)."""
    try:
        pairs = np.array(rows)
    except ValueError:                      # ragged rows or entries
        pairs = None
    if (pairs is None or pairs.dtype.kind not in 'iuf' or pairs.ndim < 3 or pairs.shape[-1] != 2
            or _holds_bool(rows, pairs.ndim)):
        raise InvalidInputError(f"{context}: entries must be [re, im] pairs")
    return np.ascontiguousarray(pairs, dtype=float).view(complex)[..., 0]


def design_to_json(s: WeightedUnitarySet, certified_t: int | None = None) -> dict:
    doc: dict = {'dim': int(s.dim)}
    if certified_t is not None:
        check_count(certified_t, "'certified_t'", 1)     # the reader's rule
        doc['certified_t'] = int(certified_t)
    doc['elements'] = [
        {'weight': w, 'matrix': m}
        for w, m in zip(s.weights.tolist(), matrix_to_json(s.unitaries))
    ]
    return doc


def design_from_json(doc: dict) -> tuple[WeightedUnitarySet, int | None]:
    """Parse and validate a design document; returns (set, certified_t).

    The matrices are read in one :func:`matrix_from_json` call and accepted
    only as an (n, dim, dim) stack; otherwise each is checked alone to name
    the first bad element, and the document is rejected.
    """
    if not isinstance(doc, dict):
        raise InvalidInputError("design file must hold a JSON object")
    for field in ('dim', 'elements'):
        if field not in doc:
            raise InvalidInputError(f"design file is missing the {field!r} field")
    dim = doc['dim']
    check_dim(dim)
    elements = doc['elements']
    if not isinstance(elements, list) or not elements:
        raise InvalidInputError("'elements' must be a non-empty list")
    try:
        unitaries = matrix_from_json([entry['matrix'] for entry in elements])
        whole = unitaries.shape == (len(elements), dim, dim)
    except (TypeError, KeyError, InvalidInputError):
        whole = False
    weights = []
    for i, entry in enumerate(elements):
        if not isinstance(entry, dict) or 'weight' not in entry or 'matrix' not in entry:
            raise InvalidInputError(f"element {i}: need 'weight' and 'matrix' fields")
        weight = entry['weight']
        # a JSON number: int or float, and bool is an int subclass
        if isinstance(weight, bool) or not isinstance(weight, (int, float)):
            raise InvalidInputError(f"element {i}: weight must be a number, got {weight!r}")
        try:
            weights.append(float(weight))
        except OverflowError:
            raise InvalidInputError(f"element {i}: weight is too large for a float") from None
        if not whole:
            shape = matrix_from_json(entry['matrix'], context=f"element {i}").shape
            if shape != (dim, dim):
                raise InvalidInputError(f"element {i}: matrix shape {shape} does not match dim={dim}")
    if not whole:
        raise InvalidInputError("element matrices must form one (n, dim, dim) array of [re, im] pairs")
    weights = np.asarray(weights)
    defect = abs(weights.sum() - 1.0)
    if defect > ATOL_FILE_WEIGHTS:
        raise InvalidInputError(f"weights sum to {weights.sum():.9f}, expected 1 within {ATOL_FILE_WEIGHTS:g}")
    if defect > ATOL_ALG:                   # a sum the set accepts as it is loads bit for bit
        weights = weights / weights.sum()
    s = WeightedUnitarySet(dim, unitaries, weights)
    assert_phase_distinct(s)
    certified_t = doc.get('certified_t')
    if certified_t is not None:
        check_count(certified_t, "'certified_t'", 1)
    return s, certified_t


def save_design(s: WeightedUnitarySet, path, certified_t: int | None = None) -> None:
    Path(path).write_text(dumps(design_to_json(s, certified_t)) + '\n')


def load_design(path) -> tuple[WeightedUnitarySet, int | None]:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InvalidInputError(f"cannot read design file {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidInputError(
            f"design file {path} is not valid JSON (line {exc.lineno}, column {exc.colno}): {exc.msg}"
        ) from exc
    return design_from_json(doc)


def write_search_log(path, gap_history) -> None:
    """JSON-lines sidecar: one {"iteration": i, "gap": g} record per iteration."""
    lines = [f'{{"iteration": {i}, "gap": {_fmt_float(g)}}}'
             for i, g in enumerate(np.asarray(gap_history, dtype=float).tolist())]
    Path(path).write_text('\n'.join(lines) + ('\n' if lines else ''))


def report_row(report: TomographyReport) -> dict:
    return {
        'class': report.state_class,
        'd': int(report.dim),
        'N': int(report.shots),
        'trials': int(report.trials),
        'empirical_mean': float(report.empirical_mean),
        'std_err': float(report.std_err),
        'predicted': float(report.predicted),
        'purity': float(report.purity),
        'seed': int(report.seed) if report.seed is not None else 0,
    }


def _csv_cell(v) -> str:
    return _fmt_float(v) if isinstance(v, float) else str(v)


def report_mirror(csv_path) -> Path:
    """The JSON mirror of a CSV report: ``r.csv`` -> ``r.json``, any other name gains ``.json``."""
    csv_path = Path(csv_path)
    return csv_path.with_suffix('.json') if csv_path.suffix == '.csv' else csv_path.with_name(csv_path.name + '.json')


def write_report(csv_path, reports: list[TomographyReport]) -> Path:
    """Write the CSV report plus its JSON mirror (:func:`report_mirror`); returns the mirror path."""
    rows = [report_row(r) for r in reports]
    lines = [','.join(REPORT_FIELDS)]
    lines += [','.join(_csv_cell(row[f]) for f in REPORT_FIELDS) for row in rows]
    Path(csv_path).write_text('\n'.join(lines) + '\n')
    mirror = report_mirror(csv_path)
    mirror.write_text(dumps(rows) + '\n')
    return mirror
