import copy
import json

import numpy as np
import pytest

from udesign.designs import GALLERY_NAMES, WeightedUnitarySet, certify, gallery, group_closure, uniform_set
from udesign.errors import InvalidInputError
from udesign.io import (
    design_from_json,
    design_to_json,
    dumps,
    load_design,
    matrix_from_json,
    save_design,
    write_report,
    write_search_log,
)
from udesign.linalg import haar_unitaries, make_rng
from udesign.povm import TomographyReport
from udesign.search import SearchConfig, search

from helpers import broken_design_docs


class TestDumps:
    def test_seventeen_digit_floats_round_trip(self):
        values = [1 / 3, 0.1, 3 / 32, np.pi, 1e-300, 123456.789]
        text = dumps(values)
        for original, parsed in zip(values, json.loads(text)):
            assert parsed == original

    def test_deterministic_output(self):
        doc = {'a': [1.0, 2.5], 'b': {'c': True, 'd': None}}
        assert dumps(doc) == dumps(doc)

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            dumps(float('nan'))

    def test_rejects_non_finite_in_float_rows(self, tmp_path):
        for bad in (float('nan'), float('inf'), float('-inf')):
            with pytest.raises(InvalidInputError):
                dumps([0.5, bad])
            with pytest.raises(InvalidInputError):
                write_search_log(tmp_path / 'log.jsonl', [0.5, bad])

    @pytest.mark.parametrize('obj', [object(), {1, 2}, b'bytes'], ids=['object', 'set', 'bytes'])
    def test_rejects_types_outside_its_vocabulary(self, obj):
        with pytest.raises(InvalidInputError, match=f'^cannot serialize {type(obj).__name__}$'):
            dumps({'field': [1.0, obj]})

    def test_float_rows_match_format_spec(self):
        bits = make_rng(5).integers(-2 ** 63, 2 ** 63 - 1, size=20000, dtype=np.int64).view(np.float64)
        values = bits[np.isfinite(bits)].tolist() + [0.0, -0.0, 5e-324, 1e16, 0.1, -1 / 3]
        assert dumps(values) == '[' + ', '.join(format(x, '.17g') for x in values) + ']'

    def test_float_rows_match_per_item_dispatch(self):
        # numpy scalars take the per-item path, Python floats the row path
        def as_numpy(obj):
            if isinstance(obj, dict):
                return {k: as_numpy(v) for k, v in obj.items()}
            if isinstance(obj, list):
                return [as_numpy(v) for v in obj]
            return np.float64(obj) if type(obj) is float else obj
        doc = design_to_json(gallery('pu2_600cell'), certified_t=5)
        assert dumps(doc) == dumps(as_numpy(doc))

    def test_valid_json(self):
        doc = design_to_json(gallery('pu2_11pt'), certified_t=2)
        parsed = json.loads(dumps(doc))
        assert parsed['dim'] == 2
        assert parsed['certified_t'] == 2
        assert len(parsed['elements']) == 11


    @pytest.mark.parametrize('certified_t', [2.5, True, 0])
    def test_writer_refuses_an_order_the_reader_refuses(self, tmp_path, certified_t):
        path = tmp_path / 'd.json'
        with pytest.raises(InvalidInputError, match="^'certified_t' must be an integer >= 1, got "):
            save_design(gallery('pu2_11pt'), path, certified_t=certified_t)
        assert not path.exists()

    def test_numpy_integer_order_is_written_as_an_int(self):
        assert dumps(design_to_json(gallery('pu2_11pt'), certified_t=np.int64(2))).startswith(
            '{\n  "dim": 2,\n  "certified_t": 2,\n')

class TestDesignRoundTrip:
    def test_save_load_exact(self, tmp_path):
        path = tmp_path / 'design.json'
        for name in ('pu2_11pt', 'pu2_clifford12'):
            s = gallery(name)
            save_design(s, path, certified_t=2)
            loaded, certified = load_design(path)
            assert certified == 2
            assert loaded.dim == s.dim
            assert np.array_equal(loaded.weights, s.weights)
            assert np.array_equal(loaded.unitaries, s.unitaries)

    def test_save_load_random_set(self, tmp_path):
        rng = make_rng(31)
        s = uniform_set(3, haar_unitaries(3, 5, rng))
        path = tmp_path / 'r.json'
        save_design(s, path)
        loaded, certified = load_design(path)
        assert certified is None
        assert np.array_equal(loaded.unitaries, s.unitaries)

    def test_search_result_loads_with_its_weights_and_certificate(self, tmp_path):
        # weights that sum to one within ATOL_ALG but not exactly load as written: one weight of a
        # search result is stepped down an ulp at a time until the sum is not 1 (a load that
        # renormalised them read another residual than the set that was saved)
        result = search(SearchConfig(dim=2, size=11, t=2, seed=1, restarts=2)).result
        weights = result.weights.copy()
        while weights.sum() == 1.0:
            weights[0] = np.nextafter(weights[0], 0.0)
        s = WeightedUnitarySet(2, result.unitaries, weights)
        path = tmp_path / 's.json'
        save_design(s, path, certified_t=2)
        loaded, _ = load_design(path)
        assert s.weights.sum() != 1.0
        assert np.array_equal(loaded.weights, s.weights)
        assert np.array_equal(loaded.unitaries, s.unitaries)
        assert certify(loaded, 2) == certify(s, 2)

    def test_byte_identical_rewrites(self, tmp_path):
        s = gallery('pu2_clifford24')
        p1, p2 = tmp_path / 'a.json', tmp_path / 'b.json'
        save_design(s, p1, certified_t=3)
        save_design(s, p2, certified_t=3)
        assert p1.read_bytes() == p2.read_bytes()


class TestLoadValidation:
    def write(self, tmp_path, doc):
        path = tmp_path / 'd.json'
        path.write_text(json.dumps(doc) if not isinstance(doc, str) else doc)
        return path

    def test_truncated_json(self, tmp_path):
        path = self.write(tmp_path, '{"dim": 2, "elements": [')
        with pytest.raises(InvalidInputError, match='line'):
            load_design(path)

    def test_missing_fields(self, tmp_path):
        with pytest.raises(InvalidInputError, match='elements'):
            load_design(self.write(tmp_path, {'dim': 2}))

    def test_weights_must_sum_to_one(self, tmp_path):
        ident = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
        x = [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]
        doc = {'dim': 2, 'elements': [{'weight': 0.5, 'matrix': ident},
                                      {'weight': 0.6, 'matrix': x}]}
        with pytest.raises(InvalidInputError, match='sum'):
            load_design(self.write(tmp_path, doc))

    def test_small_weight_drift_renormalized(self, tmp_path):
        ident = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
        x = [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]
        doc = {'dim': 2, 'elements': [{'weight': 0.5000001, 'matrix': ident},
                                      {'weight': 0.5, 'matrix': x}]}
        s, _ = load_design(self.write(tmp_path, doc))
        assert s.weights.sum() == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize('drift,accepted', [(0.9e-6, True), (1.1e-6, False)])
    def test_weight_sum_tolerance(self, drift, accepted):
        doc = design_to_json(gallery('pu2_11pt'))
        for entry in doc['elements']:
            entry['weight'] *= 1 + drift
        if accepted:
            s, _ = design_from_json(doc)
            assert s.weights.sum() == pytest.approx(1.0, abs=1e-15)
        else:
            with pytest.raises(InvalidInputError, match='weights sum to'):
                design_from_json(doc)

    @pytest.mark.parametrize('name', sorted(broken_design_docs()))
    def test_non_finite_and_non_numeric_fields_rejected(self, tmp_path, name):
        doc, message = broken_design_docs()[name]
        with pytest.raises(InvalidInputError) as err:
            load_design(self.write(tmp_path, doc))
        assert str(err.value) == message

    def test_non_unitary_matrix_rejected(self, tmp_path):
        ones = [[[1.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [1.0, 0.0]]]
        doc = {'dim': 2, 'elements': [{'weight': 1.0, 'matrix': ones}]}
        with pytest.raises(InvalidInputError, match='unitary'):
            load_design(self.write(tmp_path, doc))

    def test_phase_duplicates_rejected(self, tmp_path):
        ident = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
        phased = [[[0.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]]]
        doc = {'dim': 2, 'elements': [{'weight': 0.5, 'matrix': ident},
                                      {'weight': 0.5, 'matrix': phased}]}
        with pytest.raises(InvalidInputError, match='phase'):
            load_design(self.write(tmp_path, doc))

    def test_shape_mismatch(self, tmp_path):
        doc = {'dim': 3, 'elements': [{'weight': 1.0,
                                       'matrix': [[[1.0, 0.0], [0.0, 0.0]],
                                                  [[0.0, 0.0], [1.0, 0.0]]]}]}
        with pytest.raises(InvalidInputError, match='shape'):
            load_design(self.write(tmp_path, doc))

    def test_matrix_entry_validation(self):
        with pytest.raises(InvalidInputError, match='pairs'):
            matrix_from_json([[1.0, 2.0]])


def qutrit_clifford():
    omega = np.exp(2j * np.pi / 3)
    fourier = np.array([[omega ** (j * k) for k in range(3)] for j in range(3)]) / np.sqrt(3)
    return group_closure([fourier, np.diag([1, 1, omega])])


def per_element_parse(doc):
    """Reference loader: one complex(re, im) per entry, as the format defines."""
    unitaries = np.array([[[complex(e[0], e[1]) for e in row] for row in entry['matrix']]
                          for entry in doc['elements']])
    weights = np.array([float(entry['weight']) for entry in doc['elements']])
    return WeightedUnitarySet(doc['dim'], unitaries, weights / weights.sum())


class TestWholeArrayParse:
    @pytest.mark.parametrize('name', GALLERY_NAMES + ('qutrit_clifford216',))
    def test_bit_identical_to_per_element_parse(self, tmp_path, name):
        if name == 'qutrit_clifford216':
            s = qutrit_clifford()
        else:
            s = gallery(name, n=9, dim=3) if name == 'utof' else gallery(name)
        path = tmp_path / 'd.json'
        save_design(s, path, certified_t=1)
        loaded, _ = load_design(path)
        expected = per_element_parse(json.loads(path.read_text()))
        for got, want in ((loaded.unitaries, expected.unitaries), (loaded.weights, expected.weights)):
            assert np.array_equal(got, want) and got.tobytes() == want.tobytes()

    def test_signed_zeros_survive(self):
        # diag(1, i) written with negative zeros: a re + 1j*im rebuild would drop their signs
        doc = {'dim': 2, 'elements': [{'weight': 1.0, 'matrix': [[[1.0, -0.0], [-0.0, 0.0]],
                                                                  [[0.0, -0.0], [-0.0, 1.0]]]}]}
        s, _ = design_from_json(doc)
        assert s.unitaries.tobytes() == per_element_parse(doc).unitaries.tobytes()
        assert np.signbit(s.unitaries.real[0, 1, 1])

    def test_integer_entries_parse_as_numbers(self):
        doc = {'dim': 2, 'elements': [{'weight': 1, 'matrix': [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}]}
        s, _ = design_from_json(doc)
        assert np.array_equal(s.unitaries[0], np.eye(2))

    @pytest.mark.parametrize('bad,message', [
        (lambda m: m[0].__setitem__(1, ['0.5', 0.0]), 'entries must be [re, im] pairs'),
        (lambda m: m[1].__setitem__(0, [None, 0.0]), 'entries must be [re, im] pairs'),
        (lambda m: m[1].pop(), 'entries must be [re, im] pairs'),
        (lambda m: [row.append([0.0, 0.0]) for row in m], 'matrix shape (2, 3) does not match dim=2'),
    ], ids=['string', 'null', 'ragged', 'two-by-three'])
    def test_malformed_element_is_named(self, bad, message):
        doc = json.loads(dumps(design_to_json(gallery('pu2_11pt'))))
        for k in (0, 3, 10):
            broken = copy.deepcopy(doc)
            bad(broken['elements'][k]['matrix'])
            with pytest.raises(InvalidInputError) as err:
                design_from_json(broken)
            assert str(err.value) == f"element {k}: {message}"


class TestReports:
    def report(self):
        return TomographyReport(state_class='uc', dim=2, shots=1000, trials=50,
                                empirical_mean=6.1e-3, std_err=2e-4,
                                predicted=6.0e-3, purity=1.0, seed=42)

    def test_csv_header_and_mirror(self, tmp_path):
        csv_path = tmp_path / 'out.csv'
        mirror = write_report(csv_path, [self.report()])
        lines = csv_path.read_text().strip().split('\n')
        assert lines[0] == 'class,d,N,trials,empirical_mean,std_err,predicted,purity,seed'
        assert lines[1].startswith('uc,2,1000,50,')
        rows = json.loads(mirror.read_text())
        assert rows[0]['seed'] == 42
        assert rows[0]['predicted'] == 6.0e-3

    def test_mirror_path_without_csv_suffix(self, tmp_path):
        out = tmp_path / 'report.dat'
        mirror = write_report(out, [self.report()])
        assert mirror.name == 'report.dat.json'

    def test_search_log_lines(self, tmp_path):
        path = tmp_path / 'log.jsonl'
        write_search_log(path, [0.5, 0.25, 0.25])
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r['iteration'] for r in records] == [0, 1, 2]
        assert records[1]['gap'] == 0.25

    def test_search_log_bytes(self, tmp_path):
        # one '{"iteration": i, "gap": g}' record per line, g as '%.17g' (signed zero, subnormals)
        path = tmp_path / 'log.jsonl'
        write_search_log(path, np.array([0.0, -0.0, 5e-324, 1e-17]))
        assert path.read_text() == ('{"iteration": 0, "gap": 0}\n'
                                    '{"iteration": 1, "gap": -0}\n'
                                    '{"iteration": 2, "gap": 4.9406564584124654e-324}\n'
                                    '{"iteration": 3, "gap": 1.0000000000000001e-17}\n')
