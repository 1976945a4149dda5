import json
import os
import subprocess
import sys

import numpy as np
import pytest

from udesign.cli import main
from udesign.io import load_design


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

    def test_unknown_name_is_usage_error(self, capsys, tmp_path):
        code, _, _ = run(capsys, 'design-gallery', '--name', 'nope', '--out', str(tmp_path / 'x.json'))
        assert code == 2


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

    def test_truncated_file_exits_2(self, capsys, tmp_path):
        bad = tmp_path / 'bad.json'
        bad.write_text('{"dim": 2, "elements": [')
        code, _, err = run(capsys, 'design-verify', '--file', str(bad), '--t', '2')
        assert code == 2
        assert 'line' in err

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _, _ = run(capsys, 'design-verify', '--file', str(tmp_path / 'none.json'), '--t', '2')
        assert code == 2


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

    def test_enumeration_guard_exits_3(self, capsys, tmp_path):
        code, _, err = run(capsys, 'design-search', '--dim', '2', '--size', '4',
                           '--t', '11', '--seed', '1', '--restarts', '1',
                           '--out', str(tmp_path / 'g.json'))
        assert code == 3
        assert 'guard' in err

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
        assert 'warning' in err
        assert code in (0, 1)


class TestUsage:
    def test_missing_subcommand(self, capsys):
        assert main([]) == 2

    def test_unknown_flag(self, capsys):
        assert main(['gamma', '--t', '2', '--dim', '2', '--bogus']) == 2


def test_cli_import_loads_no_scipy_solvers():
    # the tomography path needs no SciPy; only the search imports its solvers
    code = ("import sys, udesign.cli; "
            "print([m for m in ('scipy.optimize', 'scipy.sparse') if m in sys.modules])")
    out = subprocess.run([sys.executable, '-c', code], capture_output=True, text=True,
                         check=True, env={**os.environ, 'PYTHONPATH': os.pathsep.join(sys.path)})
    assert out.stdout.strip() == '[]'
