"""Benchmark driver for udesign: tomography and design search, end to end and per layer.

Run from the root of a source checkout:

    python3 bench/run.py --workload tomo-qubit --seed 1 --seconds 30 --trace 0

One client runs operations back to back in this process (a closed loop),
each an in-process ``udesign.cli.main`` call on generated inputs, and checks
every operation's output.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer metrics of a separate traced run.  The last line
of standard output is one JSON object; a readable summary goes to standard
error and the full record (environment, per-op outcomes, spans) to
``.bench_out/`` in the checkout.  The package is imported from ``src/`` of the
checkout and nowhere else.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from spans import SHARES, TRACED, Tracer, check_nesting, covered_time, layer_totals

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / 'src'
OUT_DIR = ROOT / '.bench_out'
WORK_DIR = ROOT / '.bench_work'
# Fresh interpreters started per run to time set-up, spread evenly over the
# measured window; the median is reported.
SETUP_SAMPLES = 8
# The tail percentile must have at least this many operations beyond it.
TAIL_BEYOND = 10
# Op i of a run gets seed SEED_STRIDE * seed + i, so runs never share op seeds.
SEED_STRIDE = 100_000
PROBE_TIMEOUT_S = 120
# Host-speed probe: a fixed pure-Python loop timed after every op.  Times
# are reported as if each probe had taken REF_NOMINAL_S, about its median on
# the reference machine.
REF_LOOP = 20_000
REF_NOMINAL_S = 2.0e-3


def _limit_blas_threads() -> int:
    """One process generates the load, with one BLAS thread; set-up probes
    inherit the setting.

    The package's matrices are at most 81 x 81.  With a second BLAS thread,
    any load on the host's other vCPU stalls every threaded call, and op
    times then swing by up to 5x while the single-threaded host-speed probe
    does not move.
    """
    threads = 1
    for var in ('OPENBLAS_NUM_THREADS', 'OMP_NUM_THREADS', 'MKL_NUM_THREADS'):
        os.environ[var] = str(threads)
    return threads


def _import_udesign() -> None:
    """Import the package from the checkout's src/ only."""
    if not (SRC / 'udesign' / '__init__.py').is_file():
        sys.exit(f"bench: no udesign sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import udesign
    if Path(udesign.__file__).resolve().parent != (SRC / 'udesign').resolve():
        sys.exit(f"bench: imported udesign from {udesign.__file__}, not from {SRC}")


def environment(blas_threads: int) -> dict:
    import numpy
    import scipy
    cpu = next((line.split(':', 1)[1].strip() for line in Path('/proc/cpuinfo').read_text().splitlines()
                if line.startswith('model name')), platform.processor())

    def blas(module):
        info = module.show_config(mode='dicts')['Build Dependencies']['blas']
        return f"{info['name']} {info['version']}"

    return {
        'nproc': len(os.sched_getaffinity(0)),
        'cpu_model': cpu,
        'python': platform.python_version(),
        'numpy': numpy.__version__,
        'scipy': scipy.__version__,
        'numpy_blas': blas(numpy),
        'scipy_blas': blas(scipy),
        'blas_threads': blas_threads,
    }


def min_ops(pct: int) -> int:
    """Fewest operations that leave TAIL_BEYOND samples beyond percentile ``pct``."""
    return math.ceil(100 * TAIL_BEYOND / (100 - pct))


def kind_p50(latencies: list[float], cycle: int) -> float:
    """Geometric mean over the workload's op kinds (op index mod ``cycle``)
    of each kind's median latency.

    Kinds differ in cost by up to 30x on search-mix, so the median of all
    ops falls in a gap between kinds and jumps between them from run to run;
    each kind's own median does not.
    """
    logs = [math.log(statistics.median(latencies[k::cycle])) for k in range(cycle)]
    return math.exp(sum(logs) / cycle)


def nearest_rank(latencies: list[float], pct: int) -> tuple[float, int]:
    """Nearest-rank percentile: returns (value, samples beyond it)."""
    ordered = sorted(latencies)
    rank = max(1, math.ceil(pct * len(ordered) / 100))
    return ordered[rank - 1], len(ordered) - rank


def reference_seconds() -> float:
    """Seconds the fixed host-speed probe loop takes right now."""
    start = time.perf_counter()
    total = 0
    for k in range(REF_LOOP):
        total += k * k
    return time.perf_counter() - start


def time_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter to the first op being ready."""
    probe_dir = Path(tempfile.mkdtemp(dir=WORK_DIR, prefix='probe-'))
    try:
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), '--workload', workload,
             '--seed', str(seed), '--setup-probe', str(probe_dir)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
        return float(proc.stdout.strip().splitlines()[-1]) - start
    finally:
        shutil.rmtree(probe_dir, ignore_errors=True)


class Runner:
    """Runs one workload's operations and keeps their outcomes.

    Every op writes into the same directory, so a rerun of op 0 writes the
    same paths and its files can be compared byte for byte.
    """

    def __init__(self, workload, seed: int, workdir: Path):
        self.workload = workload
        self.base = SEED_STRIDE * seed
        self.inputs = workdir / 'inputs'
        self.outdir = workdir / 'ops'
        self.inputs.mkdir()
        self.outdir.mkdir()
        self.outcomes = []
        self.reference = None      # bytes of op 0's files from its first run
        self.reruns_identical = []

    def setup(self) -> None:
        self.workload.setup(self.inputs)

    def run_op(self, i: int) -> float:
        """One timed operation, then its (untimed) check; returns its seconds."""
        start = time.perf_counter()
        out = self.workload.op(i, self.base + i, self.inputs, self.outdir)
        elapsed = time.perf_counter() - start
        self.workload.check(out, self.base + i)
        self.outcomes.append(out)
        if i == 0:
            data = [p.read_bytes() if p.exists() else None for p in out.files]
            if self.reference is None:
                self.reference = data
            else:
                self.reruns_identical.append(data == self.reference)
        for path in out.files:
            path.unlink(missing_ok=True)
        return elapsed


def run_untraced(runner: Runner, seconds: float, probe_setup) -> tuple[dict, dict]:
    """Whole cycles of ops until ``seconds`` have passed and the tail
    percentile has TAIL_BEYOND samples beyond it.

    After every op the host-speed probe runs (not part of the op's time),
    and every time is scaled by REF_NOMINAL_S over the probe's time: the
    host's speed drifts by up to about 1.5x, on scales from under a second
    to minutes, and moves the program and the probe alike.  Between
    ops, ``probe_setup`` times SETUP_SAMPLES set-ups spread evenly over the
    window (their own time is not counted in it).
    """
    pct = runner.workload.tail_pct
    latencies, refs, setups = [], [], []
    start = time.perf_counter()
    paused = 0.0
    i = 0
    while True:
        latencies.append(runner.run_op(i))
        refs.append(reference_seconds())
        i += 1
        elapsed = time.perf_counter() - start - paused
        if len(setups) < SETUP_SAMPLES and elapsed >= len(setups) * seconds / SETUP_SAMPLES:
            probe_start = time.perf_counter()
            setups.append(probe_setup())
            paused += time.perf_counter() - probe_start
        if i % runner.workload.cycle == 0 and i >= min_ops(pct) and elapsed >= seconds:
            break
    while len(setups) < SETUP_SAMPLES:
        setups.append(probe_setup())
    # Each op is scaled by the probe run right after it; set-up probes, which
    # run in other processes, by the run's median probe.
    scaled = [lat * REF_NOMINAL_S / ref for lat, ref in zip(latencies, refs)]
    scale = REF_NOMINAL_S / statistics.median(refs)
    tail, beyond = nearest_rank(scaled, pct)
    metrics = {
        'ops_per_s': {'value': len(scaled) / sum(scaled), 'unit': 'ops/s'},
        'op_p50_ms': {'value': 1e3 * kind_p50(scaled, runner.workload.cycle), 'unit': 'ms'},
        'op_tail_ms': {'value': 1e3 * tail, 'unit': 'ms'},
        'peak_rss_mb': {'value': resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 'unit': 'MB'},
        'setup_s': {'value': statistics.median(setups) * scale, 'unit': 's'},
    }
    unscaled = {'ops_per_s': len(latencies) / sum(latencies),
                'op_p50_ms': 1e3 * kind_p50(latencies, runner.workload.cycle),
                'op_tail_ms': 1e3 * nearest_rank(latencies, pct)[0],
                'setup_s': statistics.median(setups)}
    detail = {'ops': len(latencies), 'tail_percentile': pct, 'tail_samples_beyond': beyond,
              'time_scale': scale, 'unscaled': unscaled,
              'latencies_s': latencies, 'reference_s': refs, 'setup_samples_s': setups}
    return metrics, detail


def run_traced(runner: Runner, seconds: float) -> tuple[dict, dict]:
    """Passes of set-up plus one cycle, each run plain and then traced,
    until ``seconds`` have passed; per-layer values are per op.

    ``share.<group>`` is the part of op time spent inside the group's spans:
    their union over the ops' spans (set-up excluded), divided by the summed
    timed regions of the traced ops (checks and set-up excluded).
    """
    k_ops = runner.workload.cycle
    tracer = Tracer()
    passes = []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        n = len(passes)
        record = {}
        for traced in (False, True):
            lo, written = len(tracer.spans), tracer.bytes_written
            if traced:
                tracer.install()
            try:
                start = time.perf_counter()
                tracer.op_id = f'{n}:setup'
                runner.setup()
                op_s = 0.0
                for i in range(k_ops):
                    tracer.op_id = f'{n}:{i}'
                    op_s += runner.run_op(i)
                total = time.perf_counter() - start
            finally:
                tracer.uninstall()
            record['traced' if traced else 'plain'] = total
        record['bytes'] = tracer.bytes_written - written
        record['layers'] = layer_totals(tracer.spans, lo, len(tracer.spans))
        # lo and op_s are those of the traced twin, which runs last.
        record['shares'] = {group: covered_time(tracer.spans, names, lo, len(tracer.spans)) / op_s
                            for group, names in SHARES.items()}
        passes.append(record)

    metrics = {}
    for name in TRACED:
        calls = passes[0]['layers'][name]['calls']
        metrics[f'{name}.calls'] = {'value': calls / k_ops, 'unit': 'count'}
        for key in ('s', 'self_s'):
            metrics[f'{name}.{key}'] = {
                'value': statistics.median([p['layers'][name][key] for p in passes]) / k_ops, 'unit': 's'}
    plain = statistics.median([p['plain'] for p in passes])
    traced = statistics.median([p['traced'] for p in passes])
    # Each traced pass runs right after its plain twin, so their ratio
    # cancels most of the host's slow drifts in speed.
    overhead = statistics.median([p['traced'] / p['plain'] for p in passes]) - 1.0
    metrics['io.bytes_written'] = {'value': statistics.median([p['bytes'] for p in passes]) / k_ops, 'unit': 'B'}
    metrics['trace.op_s'] = {'value': traced / k_ops, 'unit': 's'}
    metrics['trace.untraced_op_s'] = {'value': plain / k_ops, 'unit': 's'}
    metrics['trace.overhead_ratio'] = {'value': overhead, 'unit': '1'}
    for group in SHARES:
        metrics[f'share.{group}'] = {
            'value': statistics.median([p['shares'][group] for p in passes]), 'unit': '1'}
    problems = check_nesting(tracer.spans)
    call_counts = [{name: p['layers'][name]['calls'] for name in TRACED} for p in passes]
    if any(counts != call_counts[0] for counts in call_counts):
        problems.append("call counts differ between identical passes")
    detail = {'passes': len(passes), 'ops_per_pass': k_ops, 'trace_problems': problems,
              'spans': tracer.spans,
              'pass_seconds': [{'plain': p['plain'], 'traced': p['traced']} for p in passes]}
    return metrics, detail


def measure(args, workload, blas_threads: int) -> dict:
    env = environment(blas_threads)
    WORK_DIR.mkdir(exist_ok=True)
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK_DIR, prefix=f'{args.workload}-'))
    try:
        runner = Runner(workload, args.seed, workdir)
        runner.setup()
        # Warm-up: op 0 once, untimed; every measured op 0 must reproduce its files byte for byte.
        runner.run_op(0)
        if args.trace:
            metrics, detail = run_traced(runner, args.seconds)
        else:
            metrics, detail = run_untraced(runner, args.seconds,
                                           lambda: time_setup(args.workload, args.seed))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    outcomes = runner.outcomes
    attempted = len(outcomes)
    failed = sum(out.failed for out in outcomes)
    wrong = [f"op {out.index}: {msg}" for out in outcomes for msg in out.wrong]
    if not runner.reruns_identical or not all(runner.reruns_identical):
        wrong.append("rerun of op 0 with the same seed wrote different bytes")
    wrong += detail.get('trace_problems', [])
    rejected = sum(out.rejected is not None for out in outcomes)
    if args.trace:
        metrics['ops.failed_ratio'] = {'value': failed / attempted, 'unit': '1'}
        metrics['povm.found_set_rejected_ratio'] = {'value': rejected / attempted, 'unit': '1'}
    result = {'correct': not wrong, 'attempted': attempted, 'failed': failed, 'metrics': metrics}

    stem = f'{args.workload}-seed{args.seed}-trace{args.trace}'
    spans = detail.pop('spans', None)
    if spans is not None:
        with open(OUT_DIR / f'{stem}-spans.jsonl', 'w') as fh:
            for name, start, end, parent, op_id in spans:
                fh.write(json.dumps({'name': name, 'start': start, 'end': end,
                                     'parent': parent, 'op': op_id}) + '\n')
    record = {
        'workload': args.workload, 'seed': args.seed, 'seconds': args.seconds, 'trace': args.trace,
        'environment': env, 'result': result, 'failed_ratio': failed / attempted,
        'rejected': rejected,
        'wrong': wrong, **detail,
        'op_outcomes': [{'index': out.index, 'seed': runner.base + out.index,
                         'exit_codes': out.exit_codes, 'rejected': out.rejected,
                         'failed': out.failed} for out in outcomes],
    }
    (OUT_DIR / f'{stem}.json').write_text(json.dumps(record, indent=1) + '\n')
    summarize(record)
    return result


def summarize(record: dict) -> None:
    """Readable summary on standard error."""
    err = sys.stderr
    env = record['environment']
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}", file=err)
    print("environment: " + ', '.join(f'{k}={v}' for k, v in env.items()), file=err)
    for name, m in record['result']['metrics'].items():
        print(f"  {name:<40} {m['value']:.6g} {m['unit']}", file=err)
    if 'tail_percentile' in record:
        print(f"  op_tail_ms is p{record['tail_percentile']} of {record['ops']} ops "
              f"({record['tail_samples_beyond']} beyond)", file=err)
    print(f"  {'failed_ratio':<40} {record['failed_ratio']:.6g} 1 "
          f"({record['result']['failed']} of {record['result']['attempted']})", file=err)
    if record['rejected']:
        print(f"  povm_from_design rejected {record['rejected']} certified found sets "
              f"(known defect, not counted as failed)", file=err)
    for msg in record['wrong'][:20]:
        print(f"  WRONG: {msg}", file=err)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split('\n\n')[0])
    parser.add_argument('--workload', required=True, choices=('tomo-qubit', 'tomo-qutrit', 'search-mix'))
    parser.add_argument('--seed', type=int, required=True)
    parser.add_argument('--seconds', type=float, default=35.0)
    parser.add_argument('--trace', type=int, choices=(0, 1), default=0)
    parser.add_argument('--setup-probe', default=None, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    blas_threads = _limit_blas_threads()
    _import_udesign()
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        workload.setup(Path(args.setup_probe))
        print(time.monotonic())
        return 0
    print(json.dumps(measure(args, workload, blas_threads)))
    return 0


if __name__ == '__main__':
    sys.exit(main())
