import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from udesign.cli import build_parser, main
from udesign.designs import ATOL_CERT, gallery
from udesign.io import load_design, save_design
from udesign.search import SearchConfig, search
from udesign import linalg

from helpers import broken_design_docs


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGamma:
    def test_values(self, capsys):
        for argv, expected in (
            (('gamma', '--t', '2', '--dim', '5'), '2'),
            (('gamma', '--t', '4', '--dim', '2'), '14'),
            (('gamma', '--t', '3', '--dim', '3'), '6'),
        ):
            code, out, _ = run(capsys, *argv)
            assert code == 0
            assert out.strip() == expected

    def test_guard_exit_code(self, capsys):
        code, _, err = run(capsys, 'gamma', '--t', '12', '--dim', '2')
        assert code == 3
        assert 'guard' in err


class TestGallery:
    @pytest.mark.parametrize('name,extra,size', [
        ('pu2_11pt', (), 11),
        ('pu2_clifford12', (), 12),
        ('pu2_clifford24', (), 24),
        ('pu2_600cell', (), 60),
        ('utof', ('--n', '9', '--dim', '3'), 9),
    ])
    def test_round_trip_reverifies(self, capsys, tmp_path, name, extra, size):
        out = tmp_path / f'{name}.json'
        code, _, _ = run(capsys, 'design-gallery', '--name', name, *extra, '--out', str(out))
        assert code == 0
        s, certified = load_design(out)
        assert len(s) == size and certified is not None
        code, stdout, _ = run(capsys, 'design-verify', '--file', str(out), '--t', str(certified))
        assert code == 0
        assert 'PASS' in stdout

    def test_utof_below_minimum_size(self, capsys, tmp_path):
        code, _, err = run(capsys, 'design-gallery', '--name', 'utof',
                           '--n', '3', '--dim', '2', '--out', str(tmp_path / 'x.json'))
        assert code == 2
        assert 'error' in err

    def test_operator_frame_above_the_entries_guard_exits_3(self, capsys, tmp_path):
        n = linalg.MAX_ENTRIES // 4 + 1
        code, stdout, err = run(capsys, 'design-gallery', '--name', 'utof', '--n', str(n), '--dim', '2',
                                '--out', str(tmp_path / 'u.json'))
        assert (code, stdout) == (3, '')
        assert err == f"guard: the operator frame n·d² = {4 * n} entries exceeds the guard {linalg.MAX_ENTRIES}\n"
        assert list(tmp_path.iterdir()) == []

    def test_unknown_name_is_usage_error(self, capsys, tmp_path):
        code, _, _ = run(capsys, 'design-gallery', '--name', 'nope', '--out', str(tmp_path / 'x.json'))
        assert code == 2

    @pytest.mark.parametrize('dim', [-1, 0, 1, 2, 3])
    @pytest.mark.parametrize('n', [0, 4, 5, 9])
    def test_every_written_file_loads_back(self, capsys, tmp_path, n, dim):
        # a size or dimension the set refuses is one error line and no file
        out = tmp_path / 'x.json'
        code, _, err = run(capsys, 'design-gallery', '--name', 'utof', '--n', str(n), '--dim', str(dim),
                           '--out', str(out))
        if code == 0:
            s, certified = load_design(out)
            assert (len(s), s.dim, certified) == (n, dim, 1)
        else:
            assert code == 2 and err.startswith('error: ') and err.count('\n') == 1
            assert not out.exists()
        assert code == (0 if dim >= 2 and n >= dim * dim else 2)
        if dim < 2:
            assert err == f"error: 'dim' must be an integer >= 2, got {dim}\n"


class TestVerify:
    def test_pass_and_fail_levels(self, capsys, tmp_path):
        out = tmp_path / 'd.json'
        run(capsys, 'design-gallery', '--name', 'pu2_11pt', '--out', str(out))
        code, stdout, _ = run(capsys, 'design-verify', '--file', str(out), '--t', '2')
        assert code == 0 and 'PASS' in stdout
        code, stdout, _ = run(capsys, 'design-verify', '--file', str(out), '--t', '3')
        assert code == 1 and 'FAIL' in stdout

    def test_json_report(self, capsys, tmp_path):
        design = tmp_path / 'd.json'
        report = tmp_path / 'report.json'
        run(capsys, 'design-gallery', '--name', 'pu2_clifford12', '--out', str(design))
        code, _, _ = run(capsys, 'design-verify', '--file', str(design), '--t', '2',
                         '--json', str(report))
        assert code == 0
        doc = json.loads(report.read_text())
        assert doc['pass'] is True and doc['gap'] <= 1e-9
        assert isinstance(doc['moment_residual'], float) and doc['moment_residual'] <= 1e-7

    def test_layout_guard_exits_3_and_writes_no_report(self, capsys, tmp_path, monkeypatch):
        # pu2_11pt at t = 3 needs 3·20² = 1200 entries for its symmetric layout; certify has no
        # other path, so below that every verdict is refused
        design, report = tmp_path / 'd.json', tmp_path / 'report.json'
        run(capsys, 'design-gallery', '--name', 'pu2_11pt', '--out', str(design))
        monkeypatch.setattr(linalg, 'MAX_ENTRIES', 1200)
        code, stdout, err = run(capsys, 'design-verify', '--file', str(design), '--t', '3', '--json', str(report))
        assert (code, err) == (1, '') and 'moment residual: 1.17063\n' in stdout and stdout.endswith('FAIL\n')
        doc = json.loads(report.read_text())
        assert doc['moment_residual'] == pytest.approx(1.17063, abs=1e-5) and doc['pass'] is False
        report.unlink()
        monkeypatch.setattr(linalg, 'MAX_ENTRIES', 1199)
        assert run(capsys, 'design-verify', '--file', str(design), '--t', '3', '--json', str(report)) == (
            3, '', 'guard: the symmetric layout 3·m² = 1200 entries exceeds the guard 1199\n')
        assert not report.exists()

    def test_t_8_exits_3_on_the_layout_guard(self, capsys, tmp_path):
        # at d = 2 the layout guard admits t = 7 (3·7!·120 entries) and refuses t = 8 (3·8!·165)
        design = tmp_path / 'd.json'
        run(capsys, 'design-gallery', '--name', 'pu2_11pt', '--out', str(design))
        code, stdout, err = run(capsys, 'design-verify', '--file', str(design), '--t', '7')
        assert (code, err) == (1, '') and 'moment residual: 32.7981\n' in stdout and stdout.endswith('FAIL\n')
        assert run(capsys, 'design-verify', '--file', str(design), '--t', '8') == (
            3, '', 'guard: the symmetric layout 3·t!·m = 19958400 entries exceeds the guard 10000000\n')

    def test_overlaps_guard_exits_3(self, capsys, tmp_path, monkeypatch):
        # pu2_11pt's 11² = 121 overlaps are read on load in row blocks of at most MAX_ENTRIES,
        # and certify sums its moment products in blocks too: below 121 the file still verifies
        # at t = 1, whose layout holds 3·4² entries, and the guard is reached only when one row
        # of 11 overlaps does not fit
        design = tmp_path / 'd.json'
        run(capsys, 'design-gallery', '--name', 'pu2_11pt', '--out', str(design))
        for limit in (121, 120):
            monkeypatch.setattr(linalg, 'MAX_ENTRIES', limit)
            code, stdout, err = run(capsys, 'design-verify', '--file', str(design), '--t', '1')
            assert (code, err) == (0, '') and stdout.endswith('PASS\n')
        monkeypatch.setattr(linalg, 'MAX_ENTRIES', 10)
        assert run(capsys, 'design-verify', '--file', str(design), '--t', '2') == (
            3, '', 'guard: the overlaps n·m = 11 entries exceeds the guard 10\n')

    def test_truncated_file_exits_2(self, capsys, tmp_path):
        bad = tmp_path / 'bad.json'
        bad.write_text('{"dim": 2, "elements": [')
        code, _, err = run(capsys, 'design-verify', '--file', str(bad), '--t', '2')
        assert code == 2
        assert 'line' in err

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _, _ = run(capsys, 'design-verify', '--file', str(tmp_path / 'none.json'), '--t', '2')
        assert code == 2

    @pytest.mark.parametrize('tol', ['nan', '-1', '0', 'inf'])
    def test_threshold_must_be_finite_and_positive(self, capsys, tmp_path, tol):
        design = tmp_path / 'd.json'
        run(capsys, 'design-gallery', '--name', 'pu2_11pt', '--out', str(design))
        code, stdout, err = run(capsys, 'design-verify', '--file', str(design), '--t', '2', '--tol', tol)
        assert code == 2 and stdout == ''
        assert err.startswith('error: atol_cert must be finite and positive') and err.count('\n') == 1
        code, _, err = run(capsys, 'design-search', '--dim', '2', '--size', '4', '--t', '1',
                           '--target-residual', tol, '--out', str(tmp_path / 's.json'))
        assert code == 2 and err.startswith('error: target_residual must be finite and positive')
        assert not (tmp_path / 's.json').exists()


class TestSearch:
    def test_converges_and_writes_artifacts(self, capsys, tmp_path):
        out = tmp_path / 's.json'
        code, stdout, _ = run(capsys, 'design-search', '--dim', '2', '--size', '12',
                              '--t', '2', '--seed', '7', '--restarts', '5', '--out', str(out))
        assert code == 0
        assert 'converged' in stdout
        s, certified = load_design(out)
        assert certified == 2
        log = out.with_name(out.name + '.log.jsonl')
        records = [json.loads(line) for line in log.read_text().splitlines()]
        gaps = [r['gap'] for r in records]
        assert all(b <= a + 1e-15 for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] <= 1e-6

    @pytest.mark.parametrize('flag,field', [('--restarts', 'restarts'), ('--max-iter', 'max_iterations')])
    @pytest.mark.parametrize('value', ['0', '-1', '-5'])
    def test_restarts_and_iterations_below_one_are_usage_errors(self, capsys, tmp_path, flag, field, value):
        out = tmp_path / 's.json'
        code, stdout, err = run(capsys, 'design-search', '--dim', '2', '--size', '4', '--t', '1',
                                flag, value, '--out', str(out))
        assert (code, stdout, err) == (2, '', f"error: {field} must be an integer >= 1, got {value}\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize('dim,t,message', [
        ('1', '1', "'dim' must be an integer >= 2, got 1"), ('2', '0', 't must be an integer >= 1, got 0')])
    def test_dimension_and_t_are_checked_before_any_work(self, capsys, tmp_path, dim, t, message):
        code, stdout, err = run(capsys, 'design-search', '--dim', dim, '--size', '4', '--t', t,
                                '--out', str(tmp_path / 's.json'))
        assert (code, stdout, err) == (2, '', f"error: {message}\n")
        assert list(tmp_path.iterdir()) == []

    def test_enumeration_guard_exits_3(self, capsys, tmp_path):
        code, _, err = run(capsys, 'design-search', '--dim', '2', '--size', '4',
                           '--t', '11', '--seed', '1', '--restarts', '1',
                           '--out', str(tmp_path / 'g.json'))
        assert code == 3
        assert 'guard' in err

    def test_entries_guard_exits_3_before_any_work(self, capsys, tmp_path):
        code, stdout, err = run(capsys, 'design-search', '--dim', '100', '--size', '10000', '--t', '2',
                                '--out', str(tmp_path / 's.json'))
        assert (code, stdout) == (3, '')
        assert err == ("guard: the larger of the d⁴ generators and n² overlaps = 100000000 entries "
                       f"exceeds the guard {linalg.MAX_ENTRIES}\n")
        assert list(tmp_path.iterdir()) == []

    def test_eleven_point_free_weights_converges(self, capsys, tmp_path):
        out = tmp_path / 'n11.json'
        code, _, _ = run(capsys, 'design-search', '--dim', '2', '--size', '11',
                         '--t', '2', '--seed', '3', '--weights', 'free', '--out', str(out))
        assert code == 0
        s, certified = load_design(out)
        assert certified == 2 and len(s) == 11

    def test_nine_points_reports_failure(self, capsys, tmp_path):
        out = tmp_path / 'n9.json'
        code, stdout, _ = run(capsys, 'design-search', '--dim', '2', '--size', '9',
                              '--t', '2', '--seed', '7', '--restarts', '4', '--out', str(out))
        assert code == 1
        assert 'did not converge' in stdout
        _, certified = load_design(out)
        assert certified is None

    def test_status_line_prints_the_residual_that_decided(self, capsys, tmp_path):
        # the target 1e-15 lies below the polish floor 1.4e-14: the set's gap is 8.9e-15, and its
        # residual, 3.2e-15, is what fails the target
        out = tmp_path / 's.json'
        code, stdout, _ = run(capsys, 'design-search', '--dim', '2', '--size', '24', '--t', '3', '--seed', '6',
                              '--restarts', '1', '--target-residual', '1e-15', '--out', str(out))
        cert = search(SearchConfig(dim=2, size=24, t=3, seed=6, restarts=1, target_residual=1e-15)).certificate
        assert code == 1 and not cert.passed and 1e-15 < cert.moment_residual < 1e-14
        assert stdout.startswith(f"did not converge: moment residual {cert.moment_residual:.3e}, "
                                 f"gap {cert.gap:.3e} (restart 0, ")
        assert stdout.endswith(f"s) -> {out}\n")

    def test_deterministic_outputs(self, capsys, tmp_path):
        a, b = tmp_path / 'a.json', tmp_path / 'b.json'
        argv = ['design-search', '--dim', '2', '--size', '5', '--t', '1',
                '--seed', '3', '--restarts', '2', '--max-iter', '300']
        assert run(capsys, *argv, '--out', str(a))[0] == 0
        assert run(capsys, *argv, '--out', str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()
        log_a = a.with_name(a.name + '.log.jsonl').read_bytes()
        log_b = b.with_name(b.name + '.log.jsonl').read_bytes()
        assert log_a == log_b

    def test_env_seed_fallback(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv('UDESIGN_SEED', '3')
        a = tmp_path / 'env.json'
        code, _, _ = run(capsys, 'design-search', '--dim', '2', '--size', '5', '--t', '1',
                         '--restarts', '2', '--max-iter', '300', '--out', str(a))
        assert code == 0
        b = tmp_path / 'flag.json'
        run(capsys, 'design-search', '--dim', '2', '--size', '5', '--t', '1',
            '--seed', '3', '--restarts', '2', '--max-iter', '300', '--out', str(b))
        assert a.read_bytes() == b.read_bytes()


class TestSeeds:
    def design(self, tmp_path):
        save_design(gallery('pu2_11pt'), tmp_path / 'd.json', certified_t=2)
        return str(tmp_path / 'd.json')

    def test_negative_seed_is_usage_error(self, capsys, tmp_path):
        for argv in (['tomo', '--design', self.design(tmp_path), '--channel', 'identity',
                      '--shots', '100', '--trials', '10', '--csv', str(tmp_path / 'r.csv')],
                     ['design-search', '--dim', '2', '--size', '4', '--t', '1', '--restarts', '1',
                      '--out', str(tmp_path / 's.json')]):
            code, _, err = run(capsys, *argv, '--seed', '-1')
            assert code == 2
            assert err == "error: seed must be an integer >= 0, got -1\n"
        assert not (tmp_path / 'r.csv').exists() and not (tmp_path / 's.json').exists()

    @pytest.mark.parametrize('value', ['abc', '1.5'])
    def test_non_integer_env_seed_is_usage_error(self, capsys, tmp_path, monkeypatch, value):
        monkeypatch.setenv('UDESIGN_SEED', value)
        code, _, err = run(capsys, 'tomo', '--design', self.design(tmp_path), '--channel', 'identity',
                           '--shots', '100', '--trials', '10', '--csv', str(tmp_path / 'r.csv'))
        assert code == 2
        assert err == f"error: UDESIGN_SEED must be an integer >= 0, got {value!r}\n"
        monkeypatch.setenv('UDESIGN_SEED', '-4')
        code, _, err = run(capsys, 'design-search', '--dim', '2', '--size', '4', '--t', '1',
                           '--out', str(tmp_path / 's.json'))
        assert code == 2 and err == "error: seed must be an integer >= 0, got -4\n"


class TestTomo:
    @pytest.fixture()
    def design_file(self, capsys, tmp_path):
        out = tmp_path / 'd11.json'
        run(capsys, 'design-gallery', '--name', 'pu2_11pt', '--out', str(out))
        return out

    def test_identity_channel_matches_prediction(self, capsys, tmp_path, design_file):
        csv = tmp_path / 'r.csv'
        code, stdout, _ = run(capsys, 'tomo', '--design', str(design_file),
                              '--channel', 'identity', '--shots', '20000',
                              '--trials', '100', '--seed', '5', '--csv', str(csv))
        assert code == 0
        assert 'z-score' in stdout
        header, row = csv.read_text().strip().split('\n')
        assert header == 'class,d,N,trials,empirical_mean,std_err,predicted,purity,seed'
        fields = row.split(',')
        assert fields[0] == 'uc' and fields[-1] == '5'
        mirror = json.loads((tmp_path / 'r.json').read_text())
        assert mirror[0]['N'] == 20000

    def test_depolarizing_spec_grammar(self, capsys, tmp_path, design_file):
        csv = tmp_path / 'dep.csv'
        code, _, _ = run(capsys, 'tomo', '--design', str(design_file),
                         '--channel', 'depolarizing:0.5', '--shots', '10000',
                         '--trials', '80', '--seed', '6', '--csv', str(csv))
        assert code == 0
        row = json.loads((tmp_path / 'dep.json').read_text())[0]
        assert row['predicted'] == pytest.approx((7 - 7 / 16) / 10000)
        assert row['purity'] == pytest.approx(7 / 16, abs=1e-9)

    @pytest.mark.parametrize('csv_name', ['d11.csv', 'd11.json'])
    def test_a_report_over_the_design_file_exits_2_before_any_work(self, capsys, tmp_path, design_file, csv_name):
        # the mirror of d11.csv is d11.json, the design itself; --csv d11.json is the design
        before = design_file.read_bytes()
        code, stdout, err = run(capsys, 'tomo', '--design', str(design_file), '--channel', 'identity',
                                '--shots', '1000', '--trials', '10', '--seed', '1', '--csv', str(tmp_path / csv_name))
        assert code == 2 and not stdout
        assert err.startswith('error: ') and err.rstrip().endswith(f'would overwrite {design_file}')
        assert design_file.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ['d11.json']

    def test_general_channel_with_uc_design_exits_2(self, capsys, tmp_path, design_file):
        code, _, err = run(capsys, 'tomo', '--design', str(design_file),
                           '--channel', 'random_general:3', '--shots', '1000',
                           '--trials', '10', '--seed', '1', '--csv', str(tmp_path / 'x.csv'))
        assert code == 2
        assert 'error' in err

    def test_byte_identical_reruns(self, capsys, tmp_path, design_file):
        argv = ['tomo', '--design', str(design_file), '--channel', 'depolarizing:0.25',
                '--shots', '2000', '--trials', '40', '--seed', '9']
        c1, c2 = tmp_path / 'a.csv', tmp_path / 'b.csv'
        assert run(capsys, *argv, '--csv', str(c1))[0] == 0
        assert run(capsys, *argv, '--csv', str(c2))[0] == 0
        assert c1.read_bytes() == c2.read_bytes()
        assert (tmp_path / 'a.json').read_bytes() == (tmp_path / 'b.json').read_bytes()

    def test_insufficient_support_exits_2(self, capsys, tmp_path):
        # a bare operator basis is a 1-design only: not informationally
        # complete for the unital class
        out = tmp_path / 'utof.json'
        run(capsys, 'design-gallery', '--name', 'utof', '--n', '4', '--dim', '2',
            '--out', str(out))
        code, _, err = run(capsys, 'tomo', '--design', str(out),
                           '--channel', 'identity', '--shots', '100', '--trials', '5',
                           '--seed', '2', '--csv', str(tmp_path / 'w.csv'))
        assert code == 2
        assert 'error' in err

    def test_warns_when_not_tight(self, capsys, tmp_path):
        # full support for the class but weights off the 2-design values:
        # informationally complete, not tight, so the run proceeds with a warning
        from udesign.designs import WeightedUnitarySet, pu2_muub_family
        from udesign.io import save_design

        bases = pu2_muub_family()
        unitaries = np.concatenate([b.unitaries for b in bases])
        weights = np.concatenate([np.full(4, 1 / 8), np.full(4, 1 / 16), np.full(4, 1 / 16)])
        out = tmp_path / 'loose.json'
        save_design(WeightedUnitarySet(2, unitaries, weights), out)
        code, _, err = run(capsys, 'tomo', '--design', str(out),
                           '--channel', 'identity', '--shots', '5000', '--trials', '20',
                           '--seed', '2', '--csv', str(tmp_path / 'w.csv'))
        assert "warning: POVM is not tight for class 'uc'" in err
        assert code in (0, 1)


    def test_one_trial_is_a_usage_error_without_warnings(self, capsys, tmp_path, design_file):
        csv = tmp_path / 'r.csv'
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter('always')
            code, stdout, err = run(capsys, 'tomo', '--design', str(design_file),
                                    '--channel', 'depolarizing:0.5', '--shots', '100',
                                    '--trials', '1', '--csv', str(csv))
        assert code == 2 and stdout == '' and not caught
        assert err == 'error: trials must be an integer >= 2, got 1\n'
        assert not csv.exists()

    @pytest.mark.parametrize('spec', ['identity:7', 'random_unitary:3'])
    def test_parameter_on_a_parameterless_channel_is_a_usage_error(self, capsys, tmp_path, design_file, spec):
        code, _, err = run(capsys, 'tomo', '--design', str(design_file), '--channel', spec,
                           '--shots', '100', '--trials', '10', '--csv', str(tmp_path / 'r.csv'))
        assert code == 2 and err.startswith('error: channel') and 'takes no parameter' in err

    @pytest.mark.parametrize('spec', ['random_unital_mix:1001', 'random_general:1001', 'random_general:2000'])
    def test_kraus_count_above_the_guard_exits_3(self, capsys, tmp_path, design_file, spec):
        csv = tmp_path / 'r.csv'
        code, stdout, err = run(capsys, 'tomo', '--design', str(design_file), '--channel', spec,
                                '--shots', '100', '--trials', '10', '--csv', str(csv))
        k = spec.partition(':')[2]
        assert (code, stdout, err) == (3, '', f"guard: Kraus count k = {k} exceeds the guard 1000\n")
        assert not csv.exists()

    def test_trials_above_the_entries_guard_exit_3(self, capsys, tmp_path, design_file):
        # pu2_11pt: 11 outcomes and D² = 16 estimate coordinates per trial
        trials = linalg.MAX_ENTRIES // 16 + 1
        code, stdout, err = run(capsys, 'tomo', '--design', str(design_file), '--channel', 'identity',
                                '--shots', '100', '--trials', str(trials), '--csv', str(tmp_path / 'r.csv'))
        assert (code, stdout) == (3, '')
        assert err == f"guard: trials × max(outcomes, D²) = {16 * trials} entries exceeds the guard {linalg.MAX_ENTRIES}\n"
        assert not (tmp_path / 'r.csv').exists()

    def test_povm_above_the_entries_guard_exits_3(self, capsys, tmp_path, design_file, monkeypatch):
        # pu2_11pt: the 16 × 16 frame has 256 entries
        monkeypatch.setattr(linalg, 'MAX_ENTRIES', 255)
        code, stdout, err = run(capsys, 'tomo', '--design', str(design_file), '--channel', 'identity',
                                '--shots', '100', '--trials', '10', '--csv', str(tmp_path / 'r.csv'))
        assert (code, stdout) == (3, '')
        assert err == "guard: the POVM elements and frame max(n, D²)·D² = 256 entries exceeds the guard 255\n"
        assert not (tmp_path / 'r.csv').exists()

    def test_exit_code_reads_the_z_gate(self, capsys, tmp_path, design_file, monkeypatch):
        argv = ['tomo', '--design', str(design_file), '--channel', 'depolarizing:0.25',
                '--shots', '2000', '--trials', '20', '--seed', '5', '--csv', str(tmp_path / 'r.csv')]
        code, stdout, _ = run(capsys, *argv)
        z = float(stdout.split('z-score: ')[1].split()[0])
        assert code == 0 and 0 < abs(z) <= 5.0
        monkeypatch.setattr('udesign.cli.Z_GATE', abs(z) / 2)
        assert run(capsys, *argv)[0] == 1


class TestParserReuse:
    def test_repeat_calls_write_identical_files(self, capsys, tmp_path):
        design = tmp_path / 'd.json'
        assert run(capsys, 'design-gallery', '--name', 'pu2_11pt', '--out', str(design))[0] == 0
        tomo = ['tomo', '--design', str(design), '--channel', 'depolarizing:0.25',
                '--shots', '2000', '--seed', '9']
        verify = ['design-verify', '--file', str(design), '--t', '2']
        assert run(capsys, *tomo, '--csv', str(tmp_path / 'a.csv'))[0] == 0
        assert run(capsys, *verify, '--json', str(tmp_path / 'a.verify.json'))[0] == 0
        # in between: other values for the defaulted options, a usage error, other subcommands
        assert run(capsys, *tomo, '--trials', '7', '--class', 'uc',
                   '--csv', str(tmp_path / 'x.csv'))[0] == 0
        # parses, then the maximally entangled POVM is not complete for 'gc': exit 2
        assert run(capsys, *tomo, '--trials', '7', '--class', 'gc',
                   '--csv', str(tmp_path / 'y.csv'))[0] == 2
        assert run(capsys, *verify, '--tol', '1e-30', '--json', str(tmp_path / 'x.json'))[0] == 1
        assert run(capsys, 'tomo', '--design', str(design), '--bogus')[0] == 2
        assert run(capsys, 'gamma', '--t', '2', '--dim', '3')[0] == 0
        assert run(capsys, *tomo, '--csv', str(tmp_path / 'b.csv'))[0] == 0
        assert run(capsys, *verify, '--json', str(tmp_path / 'b.verify.json'))[0] == 0
        for a, b in (('a.csv', 'b.csv'), ('a.json', 'b.json'), ('a.verify.json', 'b.verify.json')):
            assert (tmp_path / a).read_bytes() == (tmp_path / b).read_bytes()
        row = json.loads((tmp_path / 'b.json').read_text())[0]
        assert row['trials'] == 200 and row['class'] == 'uc'

    def test_main_reuses_one_parser_and_build_parser_stays_fresh(self):
        from udesign import cli

        assert cli._parser() is cli._parser()
        assert build_parser() is not build_parser()
        assert build_parser() is not cli._parser()


class TestBadDesignFiles:
    @pytest.mark.parametrize('name', sorted(broken_design_docs()))
    def test_verify_and_tomo_exit_2_with_an_error_line(self, capsys, tmp_path, name):
        doc, message = broken_design_docs()[name]
        design = tmp_path / 'bad.json'
        design.write_text(json.dumps(doc))
        for argv in (['design-verify', '--file', str(design), '--t', '2'],
                     ['tomo', '--design', str(design), '--channel', 'identity', '--shots', '100',
                      '--trials', '10', '--seed', '1', '--csv', str(tmp_path / 'r.csv')]):
            code, _, err = run(capsys, *argv)
            assert code == 2
            assert err == f"error: {message}\n"
        assert not (tmp_path / 'r.csv').exists()


class TestUsage:
    def test_missing_subcommand(self, capsys):
        assert main([]) == 2

    def test_unknown_flag(self, capsys):
        assert main(['gamma', '--t', '2', '--dim', '2', '--bogus']) == 2


def test_tomo_run_loads_no_scipy(tmp_path):
    # a whole tomo op, from the design file to the report, runs on numpy alone
    code = ("import sys; from udesign.cli import main; "
            "codes = [main(['tomo', '--design', sys.argv[1], '--channel', channel, '--shots', '200', "
            "'--trials', '20', '--seed', '3', '--csv', sys.argv[2]]) "
            "for channel in ('depolarizing:0.5', 'random_unital_mix:3', 'random_general:2')]; "
            "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    save_design(gallery('pu2_11pt'), tmp_path / 'd.json', certified_t=2)
    out = subprocess.run([sys.executable, '-c', code, str(tmp_path / 'd.json'), str(tmp_path / 'r.csv')],
                         capture_output=True, text=True, check=True,
                         env={**os.environ, 'PYTHONPATH': os.pathsep.join(sys.path)})
    assert out.stdout.strip().splitlines()[-1] == '[0, 0, 2] []'


def test_readme_python_example_runs(tmp_path):
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent
    blocks = (root / 'README.md').read_text().split('```python\n')[1:]
    assert len(blocks) == 1
    out = subprocess.run([sys.executable, '-c', blocks[0].split('```')[0]], capture_output=True, text=True,
                         cwd=tmp_path, env={**os.environ, 'PYTHONPATH': str(root / 'src')})
    assert out.returncode == 0, out.stderr


def test_module_entry_point_runs_in_a_fresh_interpreter():
    # `python -m udesign.cli` reaches the same main() as the `udesign` console script
    from pathlib import Path

    src = Path(__file__).resolve().parent.parent / 'src'
    out = subprocess.run([sys.executable, '-m', 'udesign.cli', 'gamma', '--t', '3', '--dim', '2'],
                         capture_output=True, text=True, env={**os.environ, 'PYTHONPATH': str(src)})
    assert (out.returncode, out.stdout, out.stderr) == (0, '5\n', '')


def test_cli_import_loads_no_scipy_solvers():
    # the tomography path needs no SciPy; only the search imports its solvers
    code = ("import sys, udesign.cli; "
            "print([m for m in ('scipy.optimize', 'scipy.sparse') if m in sys.modules])")
    out = subprocess.run([sys.executable, '-c', code], capture_output=True, text=True,
                         check=True, env={**os.environ, 'PYTHONPATH': os.pathsep.join(sys.path)})
    assert out.stdout.strip() == '[]'


def test_search_and_verify_defaults_share_the_certification_tolerance():
    from udesign.search import SearchConfig

    parser = build_parser()
    verify = parser.parse_args(['design-verify', '--file', 'f.json', '--t', '2'])
    found = parser.parse_args(['design-search', '--dim', '2', '--size', '4', '--t', '1', '--out', 'f.json'])
    assert verify.tol == ATOL_CERT
    assert found.target_residual == ATOL_CERT
    assert SearchConfig(dim=2, size=4, t=1).target_residual == ATOL_CERT


def test_parser_takes_defaults_and_choices_from_the_library(capsys):
    from udesign.channels import CHANNEL_FORMS
    from udesign.search import WEIGHT_MODES, SearchConfig

    found = build_parser().parse_args(['design-search', '--dim', '2', '--size', '4', '--t', '1', '--out', 'f.json'])
    library = SearchConfig(dim=2, size=4, t=1)
    assert (found.restarts, found.max_iter, found.weights) == \
        (library.restarts, library.max_iterations, library.weight_mode)
    assert main(['design-search', '--help']) == 0
    assert '{' + ','.join(WEIGHT_MODES) + '}' in capsys.readouterr().out
    assert main(['tomo', '--help']) == 0
    assert '`name` or `name:param`: ' + ', '.join(CHANNEL_FORMS) in ' '.join(capsys.readouterr().out.split())


def test_public_names_unchanged():
    import inspect

    import udesign

    names = {n for n in dir(udesign) if not n.startswith('_') and not inspect.ismodule(getattr(udesign, n))}
    assert names == {
        'ChannelEstimate', 'DesignCertificate', 'DiscretePovm', 'InvalidInputError', 'NotAPovmError',
        'NotChannelImageError', 'NotInformationallyCompleteError', 'QuantumChannel', 'ResourceLimitError',
        'SearchConfig', 'SearchTrace', 'TomographyReport', 'UDesignError', 'WeightedUnitarySet',
        'assert_phase_distinct', 'canonical_dual', 'certify', 'channel_distance', 'channel_from_spec',
        'channel_gallery', 'depolarizing_channel', 'design_moment', 'dual_frame_norm', 'estimate_channel',
        'frame_potential', 'frame_superop', 'gallery', 'gamma', 'group_closure', 'haar_moment', 'haar_unitary',
        'herm_basis', 'inverse_jamiolkowski', 'jamiolkowski', 'load_design', 'make_rng',
        'muub_check', 'outcome_probabilities', 'parametrize', 'partial_trace',
        'povm_from_design', 'predicted_error', 'process_matrix', 'pu2_muub_family', 'quat_to_unitary',
        'reconstruct', 'refine', 'rotate_channel', 'sample_counts', 'save_design', 'search', 'simulate',
        'theta_from_set', 'tight_check', 'uniform_set',
        'unitary_operator_frame',
    }


def test_benchmark_traced_names_resolve():
    # the benchmark's tracer patches each TRACED '<layer>.<function>' by name; read
    # its list from the file, without running it, so that removing one fails here
    import importlib
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parent.parent / 'bench' / 'spans.py'
    spec = importlib.util.spec_from_file_location('bench_spans', path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TRACED
    for target in spans.TRACED:
        layer, func = target.split('.')
        assert callable(getattr(importlib.import_module(f'udesign.{layer}'), func, None)), target
