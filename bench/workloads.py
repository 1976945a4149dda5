"""The benchmark's workloads: input set-up, one operation, and its checks.

Each operation is what a user runs: one or more in-process
``udesign.cli.main(argv)`` calls (plus, for search-mix, the library call
``povm_from_design`` on the found set).  Operation ``i`` of a run gets
``--seed base + i``; the program sees only the generated command lines and
the design files written during set-up.

An operation *fails* when the program refuses it or reports failure (non-zero
exit code, a FAIL verdict); failures are counted, never dropped or re-seeded.
An output that is *wrong* (a number that disagrees with an independent
computation, fields that do not match the request, a report whose CSV and
JSON disagree) also fails the operation and, in addition, marks the run
incorrect.  On search-mix, ``povm_from_design`` rejecting a found set that
design-verify certified is a known defect of the package (its POVM guard is
tighter than the certification tolerance); it is recorded per operation and
reported as a rate, not counted as a failure.
"""

from __future__ import annotations

import contextlib
import csv
import io as _stdio
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import udesign.cli
import udesign.designs
import udesign.io
import udesign.povm
from udesign.errors import UDesignError

REPORT_FIELDS = ['class', 'd', 'N', 'trials', 'empirical_mean', 'std_err',
                 'predicted', 'purity', 'seed']
# Tolerance of design-verify at its default --tol, for checking its verdict.
VERIFY_TOL = 1e-8


@dataclass
class OpOutcome:
    """What one operation produced; filled by the op, judged by the check."""

    index: int
    exit_codes: list[int] = field(default_factory=list)
    files: list[Path] = field(default_factory=list)
    rejected: str | None = None
    failed: bool = False
    wrong: list[str] = field(default_factory=list)


def run_cli(argv: list[str]) -> int:
    """One in-process CLI call with its terminal output discarded."""
    sink = _stdio.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return udesign.cli.main(argv)


def expected_error(d: int, purity: float, shots: int) -> float:
    """Closed-form optimal mean-squared error for unital-channel outputs,
    written out here independently of udesign.povm.predicted_error."""
    return (d ** 4 - 3 * d ** 2 + 3 - purity) / shots


def _qutrit_clifford_generators() -> list[np.ndarray]:
    omega = np.exp(2j * np.pi / 3)
    fourier = np.array([[omega ** (j * k) for k in range(3)] for j in range(3)]) / np.sqrt(3)
    phase = np.diag([1, 1, omega])
    return [fourier, phase]


class TomoWorkload:
    """``udesign tomo`` over a cycle of designs and (unital) channels."""

    # Op latencies are one band, so the tail sits well inside it.
    tail_pct = 95

    def __init__(self, name: str, designs: list[str], channels: list[str],
                 dim: int, shots: int, trials: int):
        self.name = name
        self.design_names = designs
        self.channels = channels
        self.dim = dim
        self.shots = shots
        self.trials = trials
        self.cycle = math.lcm(len(designs), len(channels))

    def setup(self, workdir: Path) -> None:
        for name in self.design_names:
            if name == 'qutrit_clifford216':
                s = udesign.designs.group_closure(_qutrit_clifford_generators())
                cert = udesign.designs.certify(s, 2)
                if len(s) != 216 or not cert.passed:
                    raise RuntimeError(f"qutrit Clifford closure has {len(s)} elements, "
                                       f"2-design gap {cert.gap:.3e}")
            else:
                s = udesign.designs.gallery(name)
            udesign.io.save_design(s, workdir / f'{name}.json', 2)

    def op(self, i: int, seed: int, workdir: Path, outdir: Path) -> OpOutcome:
        out = OpOutcome(i)
        csv_path = outdir / f'op{i}.csv'
        out.exit_codes.append(run_cli([
            'tomo', '--design', str(workdir / f'{self.design_names[i % len(self.design_names)]}.json'),
            '--channel', self.channels[i % len(self.channels)],
            '--shots', str(self.shots), '--trials', str(self.trials),
            '--seed', str(seed), '--csv', str(csv_path)]))
        out.files = [csv_path, csv_path.with_suffix('.json')]
        return out

    def check(self, out: OpOutcome, seed: int) -> None:
        if out.exit_codes != [0]:
            out.failed = True
            return
        csv_path, json_path = out.files
        with open(csv_path, newline='') as fh:
            rows = list(csv.reader(fh))
        mirror = json.loads(json_path.read_text())
        if rows[0] != REPORT_FIELDS or len(rows) != 2 or len(mirror) != 1:
            out.wrong.append("report layout differs from the CSV header plus one row")
            out.failed = True
            return
        row = dict(zip(REPORT_FIELDS, rows[1]))
        doc = mirror[0]
        for key in REPORT_FIELDS:
            if type(doc[key])(row[key]) != doc[key]:
                out.wrong.append(f"CSV and JSON disagree on {key}")
        requested = {'class': 'uc', 'd': self.dim, 'N': self.shots, 'trials': self.trials, 'seed': seed}
        for key, value in requested.items():
            if doc[key] != value:
                out.wrong.append(f"report {key}={doc[key]!r}, requested {value!r}")
        purity = doc['purity']
        if not 1.0 / self.dim ** 2 - 1e-12 <= purity <= 1.0 + 1e-12:
            out.wrong.append(f"purity {purity} outside [1/d², 1]")
        else:
            expected = expected_error(self.dim, purity, self.shots)
            if not math.isclose(doc['predicted'], expected, rel_tol=1e-12):
                out.wrong.append(f"predicted {doc['predicted']!r} != closed form {expected!r}")
        if abs(doc['empirical_mean'] - doc['predicted']) > 5.0 * doc['std_err']:
            out.wrong.append("exit code 0 with |z| > 5")
        out.failed = bool(out.wrong)


class SearchWorkload:
    """design-search, then design-verify at the same t, then povm_from_design."""

    name = 'search-mix'
    # (d, n, t); CLI defaults for restarts and max-iter.
    CONFIGS = ((2, 11, 2), (2, 24, 3), (2, 60, 5), (3, 9, 1), (3, 150, 2))
    cycle = len(CONFIGS)
    # The d = 3, n = 150 ops are the slowest fifth; p90 lies in the middle
    # of their band, away from its edge with the cheaper ops.
    tail_pct = 90

    def setup(self, workdir: Path) -> None:
        pass

    def op(self, i: int, seed: int, workdir: Path, outdir: Path) -> OpOutcome:
        d, n, t = self.CONFIGS[i % self.cycle]
        out = OpOutcome(i)
        design = outdir / f'op{i}.json'
        verdict = outdir / f'op{i}.verify.json'
        out.exit_codes.append(run_cli([
            'design-search', '--dim', str(d), '--size', str(n), '--t', str(t),
            '--seed', str(seed), '--out', str(design)]))
        out.exit_codes.append(run_cli([
            'design-verify', '--file', str(design), '--t', str(t), '--json', str(verdict)]))
        try:
            found, _ = udesign.io.load_design(design)
            udesign.povm.povm_from_design(found)
        except UDesignError as exc:
            out.rejected = f"{type(exc).__name__}: {exc}"
        out.files = [design, Path(str(design) + '.log.jsonl'), verdict]
        return out

    def check(self, out: OpOutcome, seed: int) -> None:
        d, n, t = self.CONFIGS[out.index % self.cycle]
        design, log, verdict = out.files
        doc = json.loads(design.read_text())
        if doc['dim'] != d or not 1 <= len(doc['elements']) <= n:
            out.wrong.append(f"design file has dim {doc['dim']} and {len(doc['elements'])} elements, "
                             f"requested dim {d} and at most {n}")
        gaps = [json.loads(line)['gap'] for line in log.read_text().splitlines()]
        if any(b > a for a, b in zip(gaps, gaps[1:])):
            out.wrong.append("search log gap history increases")
        report = json.loads(verdict.read_text())
        if (report['t'], report['n'], report['dim']) != (t, len(doc['elements']), d):
            out.wrong.append("design-verify report does not describe the found set")
        if report['pass'] != (out.exit_codes[1] == 0) or report['pass'] != (report['gap'] <= VERIFY_TOL):
            out.wrong.append("design-verify verdict disagrees with its exit code or gap")
        if (out.exit_codes[0] == 0) != ('certified_t' in doc):
            out.wrong.append("certified_t must be recorded exactly when the search converged")
        out.failed = bool(out.wrong) or out.exit_codes != [0, 0]


WORKLOADS = {
    # 2e6 samples per op, as 500 trials of 4000 shots: with 20 trials of 1e5
    # shots the standard error is too rough for tomo's |z| <= 5 gate, which
    # then fails about one op in a thousand on a correct estimate.
    'tomo-qubit': TomoWorkload('tomo-qubit', ['pu2_11pt', 'pu2_clifford12'],
                               ['depolarizing:0.5', 'random_unitary', 'random_unital_mix:3'],
                               dim=2, shots=4000, trials=500),
    'tomo-qutrit': TomoWorkload('tomo-qutrit', ['qutrit_clifford216'],
                                ['random_unital_mix:3', 'random_unitary', 'depolarizing:0.3'],
                                dim=3, shots=1000, trials=200),
    'search-mix': SearchWorkload(),
}
