"""Self-tests of the benchmark: a tiny smoke run of every workload.

Checks that every metric named in BENCHMARK.json is emitted with its unit,
that spans nest, that ``.calls`` counts repeat exactly on a rerun with the
same seed, and that the benchmark refuses to run without the package
sources.  Run from the root of a source checkout (about two minutes):

    python3 bench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

from spans import check_nesting

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / 'BENCHMARK.json').read_text())
WORKLOADS = [w['name'] for w in SPEC['workloads']]
SEED = 3


def bench(workload: str, trace: int, seconds: float = 0.5, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / 'bench' / 'run.py'), '--workload', workload, '--seed', str(SEED),
         '--seconds', str(seconds), '--trace', str(trace)],
        capture_output=True, text=True, cwd=cwd, timeout=180)


def result(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"benchmark exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class SmokeRun(unittest.TestCase):

    def check_shape(self, res: dict, declared: list[dict]) -> None:
        self.assertEqual(set(res), {'correct', 'attempted', 'failed', 'metrics'})
        self.assertTrue(res['correct'])
        self.assertGreaterEqual(res['attempted'], 1)
        self.assertEqual({name: m['unit'] for name, m in res['metrics'].items()},
                         {m['name']: m['unit'] for m in declared})

    def test_end_to_end_metrics(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                res = result(bench(workload, trace=0))
                self.check_shape(res, SPEC['end_to_end'])
                self.assertTrue(all(m['value'] > 0 for m in res['metrics'].values()))

    def test_traced_run(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first = result(bench(workload, trace=1, seconds=0))
                self.check_shape(first, SPEC['per_layer'])
                with open(ROOT / '.bench_out' / f'{workload}-seed{SEED}-trace1-spans.jsonl') as fh:
                    spans = [[r['name'], r['start'], r['end'], r['parent'], r['op']]
                             for r in map(json.loads, fh)]
                self.assertTrue(any(parent >= 0 for *_, parent, _ in spans))
                self.assertEqual(check_nesting(spans), [])
                self.assertGreater(first['metrics']['cli.main.calls']['value'], 0)
                for name, metric in first['metrics'].items():
                    if name.startswith('share.'):
                        self.assertTrue(0.0 <= metric['value'] <= 1.0, name)
                second = result(bench(workload, trace=1, seconds=0))
                calls = {k: v['value'] for k, v in first['metrics'].items() if k.endswith('.calls')}
                self.assertEqual(calls, {k: v['value'] for k, v in second['metrics'].items()
                                         if k.endswith('.calls')})

    def test_refuses_without_sources(self):
        (ROOT / '.bench_work').mkdir(exist_ok=True)
        bare = Path(tempfile.mkdtemp(dir=ROOT / '.bench_work', prefix='bare-'))
        try:
            shutil.copy(ROOT / 'BENCHMARK.json', bare)
            shutil.copytree(ROOT / 'bench', bare / 'bench',
                            ignore=shutil.ignore_patterns('__pycache__'))
            proc = bench(WORKLOADS[0], trace=0, cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(bare)


if __name__ == '__main__':
    unittest.main()
