"""Command-line front end.

Subcommands: design-verify, design-gallery, design-search, tomo, gamma.
Exit codes: 0 success/pass, 1 certified fail / not converged / statistical
mismatch, 2 usage or IO error, 3 numerical guard tripped.  With a fixed seed
every run writes byte-identical files; UDESIGN_SEED serves as the fallback
seed when --seed is absent.  Defaults, choices and thresholds are the library's.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

from . import __version__
from .channels import CHANNEL_FORMS, channel_from_spec
from .designs import (
    ATOL_CERT,
    GALLERY_CERTIFIED_T,
    GALLERY_NAMES,
    certify,
    gallery,
    gamma,
)
from .errors import InvalidInputError, ResourceLimitError, UDesignError
from .io import dumps, load_design, report_mirror, save_design, write_report, write_search_log
from .linalg import STATE_CLASSES, Z_GATE, check_count, make_rng
from .povm import povm_from_design, simulate, tight_check
from .search import WEIGHT_MODES, SearchConfig, search

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_GUARD = 3


def _resolve_seed(value: int | None) -> int:
    """The --seed value, else UDESIGN_SEED, else 0; make_rng checks the integer's sign."""
    if value is not None:
        return value
    env = os.environ.get('UDESIGN_SEED')
    try:
        return int(env) if env else 0
    except ValueError:
        check_count(env, 'UDESIGN_SEED', 0)     # a string: refused in the integer rule's words


def _cmd_design_verify(args) -> int:
    s, _ = load_design(args.file)
    cert = certify(s, args.t, atol_cert=args.tol)
    print(f"elements: {len(s)}  dim: {s.dim}  t: {cert.t}")
    print(f"potential: {cert.potential:.12g}")
    print(f"gamma:     {cert.gamma:.12g}")
    print(f"gap:       {cert.gap:.6g}")
    print(f"moment residual: {cert.moment_residual:.6g}")
    print("PASS" if cert.passed else "FAIL")
    if args.json:
        doc = {
            'file': str(args.file), 't': cert.t, 'n': len(s), 'dim': s.dim,
            'potential': cert.potential, 'gamma': cert.gamma, 'gap': cert.gap,
            'moment_residual': cert.moment_residual, 'pass': cert.passed,
        }
        Path(args.json).write_text(dumps(doc) + '\n')
    return EXIT_PASS if cert.passed else EXIT_FAIL


def _cmd_design_gallery(args) -> int:
    s = gallery(args.name, n=args.n, dim=args.dim)
    save_design(s, args.out, certified_t=GALLERY_CERTIFIED_T[args.name])
    print(f"wrote {args.name} ({len(s)} elements, dim {s.dim}) to {args.out}")
    return EXIT_PASS


def _cmd_design_search(args) -> int:
    seed = _resolve_seed(args.seed)
    config = SearchConfig(dim=args.dim, size=args.size, t=args.t,
                          max_iterations=args.max_iter, restarts=args.restarts,
                          seed=seed, target_residual=args.target_residual,
                          weight_mode=args.weights)
    trace = search(config)
    cert = trace.certificate
    certified_t = args.t if trace.converged else None
    save_design(trace.result, args.out, certified_t=certified_t)
    write_search_log(str(args.out) + '.log.jsonl', trace.gap_history)
    status = 'converged' if trace.converged else 'did not converge'
    print(f"{status}: moment residual {cert.moment_residual:.3e}, gap {cert.gap:.3e} "
          f"(restart {trace.best_restart}, {trace.wall_time:.1f}s) -> {args.out}")
    return EXIT_PASS if trace.converged else EXIT_FAIL


def _cmd_tomo(args) -> int:
    outputs = [out for out in (args.csv, report_mirror(args.csv)) if os.path.exists(out)]
    if os.path.exists(args.design) and any(os.path.samefile(args.design, out) for out in outputs):
        raise InvalidInputError(f"the report {args.csv} or its JSON mirror would overwrite {args.design}")
    seed = _resolve_seed(args.seed)
    s, _ = load_design(args.design)
    povm = povm_from_design(s)
    rng = make_rng(seed)
    channel = channel_from_spec(args.channel, s.dim, rng=rng)
    report = simulate(povm, channel, args.shots, args.trials, rng,
                      state_class=args.state_class).with_seed(seed)
    report_tight = tight_check(povm, report.state_class)
    if not report_tight.is_tight_rank_one:
        print(f"warning: POVM is not tight for class {report.state_class!r} "
              f"(residual {report_tight.residual:.3e})", file=sys.stderr)
    mirror = write_report(args.csv, [report])
    z = report.z_score
    print(f"class {report.state_class}  d={report.dim}  N={report.shots}  trials={report.trials}")
    print(f"empirical mean: {report.empirical_mean:.6e} ± {report.std_err:.3e}")
    print(f"predicted:      {report.predicted:.6e}   purity: {report.purity:.6g}")
    print(f"z-score: {z:+.3f}")
    print(f"wrote {args.csv} and {mirror}")
    return EXIT_PASS if abs(z) <= Z_GATE else EXIT_FAIL


def _cmd_gamma(args) -> int:
    print(gamma(args.t, args.dim))
    return EXIT_PASS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog='udesign',
        description='Weighted unitary t-designs, tight POVMs and process-tomography simulation.')
    parser.add_argument('--version', action='version', version=f'%(prog)s {__version__}')
    sub = parser.add_subparsers(dest='command', required=True)

    p = sub.add_parser('design-verify', help='certify a design file at level t')
    p.add_argument('--file', required=True)
    p.add_argument('--t', type=int, required=True)
    p.add_argument('--tol', type=float, default=ATOL_CERT)
    p.add_argument('--json', default=None, help='also write a JSON report')
    p.set_defaults(func=_cmd_design_verify)

    p = sub.add_parser('design-gallery', help='export a known design')
    p.add_argument('--name', required=True, choices=GALLERY_NAMES)
    p.add_argument('--n', type=int, default=None)
    p.add_argument('--dim', type=int, default=None)
    p.add_argument('--out', required=True)
    p.set_defaults(func=_cmd_design_gallery)

    p = sub.add_parser('design-search', help='search for a weighted t-design numerically')
    p.add_argument('--dim', type=int, required=True)
    p.add_argument('--size', type=int, required=True)
    p.add_argument('--t', type=int, required=True)
    p.add_argument('--seed', type=int, default=None)
    p.add_argument('--restarts', type=int, default=SearchConfig.restarts)
    p.add_argument('--max-iter', type=int, default=SearchConfig.max_iterations)
    p.add_argument('--weights', choices=WEIGHT_MODES, default=SearchConfig.weight_mode)
    p.add_argument('--target-residual', type=float, default=SearchConfig.target_residual)
    p.add_argument('--out', required=True)
    p.set_defaults(func=_cmd_design_search)

    p = sub.add_parser('tomo', help='simulate ancilla-assisted process tomography')
    p.add_argument('--design', required=True)
    p.add_argument('--channel', required=True, help='`name` or `name:param`: ' + ', '.join(CHANNEL_FORMS))
    p.add_argument('--shots', type=int, required=True)
    p.add_argument('--trials', type=int, default=200)
    p.add_argument('--seed', type=int, default=None)
    p.add_argument('--class', dest='state_class', choices=STATE_CLASSES, default=None)
    p.add_argument('--csv', required=True)
    p.set_defaults(func=_cmd_tomo)

    p = sub.add_parser('gamma', help='exact Haar moment of |tr U|^(2t)')
    p.add_argument('--t', type=int, required=True)
    p.add_argument('--dim', type=int, required=True)
    p.set_defaults(func=_cmd_gamma)
    return parser


# One parser per process serves every main() call: parse_args leaves it unchanged.
_parser = functools.lru_cache(maxsize=None)(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:          # argparse uses 2 for usage errors already
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ResourceLimitError as exc:
        print(f"guard: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (UDesignError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entrypoint() -> None:
    sys.exit(main())


if __name__ == '__main__':
    entrypoint()
