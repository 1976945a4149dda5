"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines; every tolerance and runtime budget is asserted, not just reported.
"""

import json
import math
import time

import numpy as np

from udesign.channels import (
    channel_gallery,
    depolarizing_channel,
    jamiolkowski,
    random_unital_mix,
)
from udesign.cli import main
from udesign.designs import (
    WeightedUnitarySet,
    certify,
    design_moment,
    frame_potential,
    gallery,
    gamma,
    haar_moment,
    muub_check,
    pu2_muub_family,
)
from udesign.linalg import dag, haar_unitaries, make_rng
from udesign.povm import (
    canonical_dual,
    dual_frame_norm,
    frame_superop,
    outcome_probabilities,
    povm_from_design,
    reconstruct,
    simulate,
    tight_check,
)

from helpers import expm_hermitian


def report(number: int, ok: bool, detail: str) -> None:
    print(f"criterion {number:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def test_criterion_01_gamma_table():
    start = time.perf_counter()
    ok = all(gamma(1, d) == 1 for d in range(2, 8))
    ok &= all(gamma(2, d) == 2 for d in range(2, 8))
    ok &= all(gamma(t, d) == math.factorial(t)
              for t in range(1, 7) for d in range(max(t, 2), t + 4))
    ok &= all(gamma(t, 2) == math.factorial(2 * t) // (math.factorial(t) * math.factorial(t + 1))
              for t in range(1, 7))
    elapsed = time.perf_counter() - start
    ok &= elapsed < 10.0
    report(1, ok, f"exact gamma values reproduced in {elapsed:.2f}s (< 10s)")


def test_criterion_02_gallery_certificates():
    cases = [('pu2_11pt', 2, {}), ('pu2_clifford12', 2, {}), ('pu2_clifford24', 3, {}),
             ('utof', 1, {'n': 4, 'dim': 2}), ('utof', 1, {'n': 9, 'dim': 3}),
             ('utof', 1, {'n': 10, 'dim': 3})]
    ok = True
    worst = 0.0
    for name, t, params in cases:
        start = time.perf_counter()
        cert = certify(gallery(name, **params), t)
        elapsed = time.perf_counter() - start
        ok &= cert.passed and cert.gap <= 1e-8 and elapsed < 1.0
        worst = max(worst, elapsed)
    report(2, ok, f"all six certificates pass with gap <= 1e-8, slowest {worst:.3f}s (< 1s)")


def test_criterion_03_moment_operator_equivalence():
    residuals = {}
    for name in ('pu2_11pt', 'pu2_clifford12', 'pu2_clifford24', 'pu2_600cell'):
        s = gallery(name)
        residuals[name] = float(np.linalg.norm(design_moment(s, 2) - haar_moment(2, 2)))
    ok = all(r <= 1e-8 for r in residuals.values())
    report(3, ok, "2-design moment operators match the exact Haar average: "
                  + ', '.join(f'{k}={v:.2e}' for k, v in residuals.items()))


def test_criterion_04_welch_bound_suite():
    rng = make_rng(2024)
    ok = True
    for d in (2, 3):
        for t in (1, 2, 3):
            for _ in range(200):
                n = int(rng.integers(2, 21))
                s = WeightedUnitarySet(d, haar_unitaries(d, n, rng), rng.dirichlet(np.ones(n)))
                if frame_potential(s, t) < gamma(t, d) - 1e-9:
                    ok = False
    # generator noise must strictly worsen every gallery design
    for name, t in (('pu2_11pt', 2), ('pu2_clifford12', 2),
                    ('pu2_clifford24', 3), ('pu2_600cell', 5)):
        s = gallery(name)
        base = frame_potential(s, t) - gamma(t, 2)
        noisy = []
        for u in s.unitaries:
            g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            g = (g + dag(g)) / 2
            g *= 1e-2 / np.linalg.norm(g)
            noisy.append(expm_hermitian(g) @ u)
        perturbed = WeightedUnitarySet(2, np.array(noisy), s.weights)
        worse = frame_potential(perturbed, t) - gamma(t, 2)
        ok &= worse > base and worse > 1e-8
    report(4, ok, "1200 random sets satisfy the potential bound; 1e-2 generator "
                  "noise strictly increases every gallery gap")


def test_criterion_05_tightness():
    povm = povm_from_design(gallery('pu2_11pt'))
    uc = tight_check(povm, 'uc')
    gc = tight_check(povm, 'gc')
    evals = np.sort(np.linalg.eigvalsh(frame_superop(povm)))[::-1]
    expected = np.concatenate([[1.0], np.full(9, 1 / 3), np.zeros(6)])
    spectrum_ok = bool(np.abs(evals - expected).max() <= 1e-8)
    trace_sq_ok = True
    for name in ('pu2_11pt', 'pu2_clifford12', 'pu2_clifford24', 'pu2_600cell'):
        p = povm_from_design(gallery(name))
        trace_sq_ok &= tight_check(p, 'gc').frame_trace_sq >= 2 - 1e-9
    ok = uc.is_tight_rank_one and uc.residual <= 1e-8 and not gc.is_tight_rank_one \
        and spectrum_ok and trace_sq_ok
    report(5, ok, f"uc residual {uc.residual:.2e}, spectrum {{1, 1/3 x9, 0 x6}}, "
                  f"gc residual {gc.residual:.2e} (not tight), Tr F² >= 2 for all "
                  f"maximally entangled POVMs")


def test_criterion_06_exact_reconstruction():
    povm = povm_from_design(gallery('pu2_11pt'))
    duals = canonical_dual(povm, require='uc')
    rng = make_rng(606)
    worst = 0.0
    for _ in range(50):
        channel = random_unital_mix(int(rng.integers(1, 6)), 2, rng)
        sigma = jamiolkowski(channel)
        rho_hat = reconstruct(duals, outcome_probabilities(povm, sigma))
        worst = max(worst, float(np.linalg.norm(rho_hat - sigma)))
    ok = worst <= 1e-8
    report(6, ok, f"50 unital-channel states recovered exactly, worst residual {worst:.2e}")


def test_criterion_07_error_law():
    start = time.perf_counter()
    povm = povm_from_design(gallery('pu2_11pt'))
    shots = 10 ** 5

    identity = simulate(povm, channel_gallery('identity', 2), shots, 200, make_rng(700))
    z_identity = (identity.empirical_mean - 6.0 / shots) / identity.std_err
    ok = abs(identity.predicted - 6.0 / shots) <= 1e-12 and abs(z_identity) <= 5.0

    depol = simulate(povm, depolarizing_channel(0.5, 2), shots, 200, make_rng(701))
    target = (7 - 7 / 16) / shots
    z_depol = (depol.empirical_mean - target) / depol.std_err
    ok &= abs(depol.predicted - target) <= 1e-12 and abs(z_depol) <= 5.0

    scaled = []
    for n, seed in ((10 ** 3, 702), (10 ** 4, 703), (10 ** 5, 704)):
        r = simulate(povm, channel_gallery('identity', 2), n, 200, make_rng(seed))
        scaled.append((r.empirical_mean * n, r.std_err * n))
    for i in range(3):
        for j in range(i + 1, 3):
            pooled = np.hypot(scaled[i][1], scaled[j][1])
            ok &= abs(scaled[i][0] - scaled[j][0]) <= 5 * pooled
    elapsed = time.perf_counter() - start
    ok &= elapsed < 300.0
    report(7, ok, f"identity z={z_identity:+.2f}, depolarizing z={z_depol:+.2f}, "
                  f"N-scaling consistent, runtime {elapsed:.1f}s (< 300s)")


def test_criterion_08_dual_optimality():
    povm = povm_from_design(gallery('pu2_11pt'))
    achieved = dual_frame_norm(povm)
    # same support, non-uniform basis weights: still a POVM, no longer tight
    bases = pu2_muub_family()
    unitaries = np.concatenate([b.unitaries for b in bases])
    weights = np.concatenate([np.full(4, 1 / 8), np.full(4, 1 / 16), np.full(4, 1 / 16)])
    loose = povm_from_design(WeightedUnitarySet(2, unitaries, weights))
    loose_norm = dual_frame_norm(loose)
    ok = abs(achieved - 28.0) <= 1e-6 and loose_norm > 28.0 + 1e-6
    report(8, ok, f"tight POVM reaches Tr(dual frame) = {achieved:.9f} (= 28); "
                  f"non-tight same-support POVM gives {loose_norm:.6f} > 28")


def test_criterion_09_search_reproduction(tmp_path, capsys):
    start = time.perf_counter()
    out12 = tmp_path / 'n12.json'
    code12 = main(['design-search', '--dim', '2', '--size', '12', '--t', '2',
                   '--seed', '7', '--out', str(out12)])
    log = out12.with_name(out12.name + '.log.jsonl')
    final_gap = json.loads(log.read_text().splitlines()[-1])['gap']
    out9 = tmp_path / 'n9.json'
    code9 = main(['design-search', '--dim', '2', '--size', '9', '--t', '2',
                  '--seed', '7', '--out', str(out9)])
    elapsed = time.perf_counter() - start
    capsys.readouterr()
    ok = code12 == 0 and final_gap <= 1e-6 and code9 == 1 and elapsed < 600.0
    report(9, ok, f"n=12 converged to gap {final_gap:.2e} and n=9 exits 1, "
                  f"in {elapsed:.1f}s (< 600s)")


def test_criterion_10_muub_family():
    mreport = muub_check(pu2_muub_family())
    ok = (mreport.m == 3 and mreport.bound == 3 and mreport.complete
          and abs(mreport.welch_sum - 2.0) <= 1e-9 and mreport.is_two_design)
    report(10, ok, f"3 mutually unbiased unitary bases (m = d²-1), union "
                   f"2-design condition evaluates to {mreport.welch_sum:.12f}")
