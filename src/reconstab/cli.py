"""Command-line entry point.

Subcommands: fit, gamma, hermite, sweep, verify. ``fit`` runs one
``harness.fit_instance`` and ``harness.score_instance`` with the seed's own
roles, where a sweep row runs them with its (N index, trial) prefix; like a
row, it reads lambda_min and the condition number before it scores.
Exit codes: 0 success, 1 a failed check or an error (one ``error:`` line),
2 configuration error: an invalid command-line value, rejected while
parsing, or an invalid config.
"""

from __future__ import annotations

import argparse
import sys

from . import verify as verifymod
from .alignment import compare_gamma_theory, estimate_gamma
from .data import MASKS
from .errors import ConfigError, ReconstabError
from .harness import fit_instance, parse_config, run_sweep, score_instance, write_rows
from .hermite import activation_names, get_activation, hermite_coefficients


def _at_least(low):
    """An argparse type: an int that is >= low."""
    def parse(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names it in "invalid int value"
    return parse


def _add_instance_args(parser, min_n=1):
    parser.add_argument("--model", choices=["rf", "ntk"], default="rf")
    parser.add_argument("--k", type=_at_least(1), default=2000)
    parser.add_argument("--dx", type=_at_least(1), default=100)
    parser.add_argument("--dy", type=_at_least(1), default=100)
    parser.add_argument("--n", type=_at_least(min_n), default=200)
    parser.add_argument("--activation", choices=activation_names(), default="h1+h2",
                        help="for ntk this names the activation derivative")
    parser.add_argument("--seed", type=int, default=0)


def _cmd_fit(args) -> int:
    dataset, model = fit_instance(
        args.model, args.k, args.dx, args.dy, get_activation(args.activation), args.n,
        args.seed,
    )
    fit_line = (
        f"n={dataset.n} alpha={dataset.alpha:.4g} max_residual={model.report.max_residual:.3e} "
        f"lambda_min_over_scale={model.system.cache.min_eig / model.map.n_params:.4g} "
        f"condition={model.system.cache.condition:.3e}"
    )
    predictor = model.predictor()
    del model  # frees the factor and the prepared rows before scoring
    evaluation, attack_acc = score_instance(
        predictor, dataset, args.test_size, args.mask, args.seed
    )
    print(
        f"{fit_line} test_error={evaluation.error:.4g} test_acc={evaluation.accuracy:.4f} "
        f"attack_acc={attack_acc:.4f}"
    )
    return 0


def _cmd_gamma(args) -> int:
    est = estimate_gamma(
        args.model, get_activation(args.activation),
        k=args.k, n=args.n, d_x=args.dx, d_y=args.dy,
        trials=args.trials, master_seed=args.seed,
    )
    verdict = compare_gamma_theory(est)
    reference = (
        f"{est.lower:.6g}" if est.closed_form else f"[{est.lower:.6g}, {est.upper:.6g}]"
    )
    print(
        f"model={est.kind} alpha={est.alpha:.4g} activation={est.activation} "
        f"trials={est.trials} mean={est.mean:.6g} std={est.std:.6g} "
        f"ratio_of_means={est.ratio_of_means:.6g} reference={reference} "
        f"tail_bound={est.tail_bound:.3g} truncation={est.truncation} "
        f"verdict={verdict.label}"
    )
    return 0


def _cmd_hermite(args) -> int:
    spec = hermite_coefficients(get_activation(args.activation), order=args.order)
    print(f"# activation={args.activation} truncation={spec.truncation} "
          f"nodes={spec.nodes} tail_power={spec.tail_power:.3e}")
    print("l mu_l")
    for l, mu in enumerate(spec.coefficients):
        print(f"{l} {float(mu)!r}")
    return 0


def _cmd_sweep(args) -> int:
    config = parse_config(args.config)
    rows = run_sweep(config, workers=args.workers)
    if args.out:
        with open(args.out, "w", newline="") as f:
            write_rows(rows, f)
        print(f"wrote {len(rows)} rows to {args.out}", file=sys.stderr)
    else:
        write_rows(rows, sys.stdout)
    return 0


def _cmd_verify(args) -> int:
    checks = verifymod.run_verify(args.level)
    for check in checks:
        print(f"{check.label} {check.name}: {check.detail}")
    return 0 if all(check.passed for check in checks) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reconstab",
        description="Min-norm interpolation, feature alignment, and masked-query attacks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser(
        "fit", help="fit one instance, evaluate it and run the masked-query attack"
    )
    _add_instance_args(p_fit)
    p_fit.add_argument("--test-size", type=_at_least(1), default=1000)
    p_fit.add_argument("--mask", choices=MASKS, default="resample")
    p_fit.set_defaults(fn=_cmd_fit)

    p_gamma = sub.add_parser("gamma", help="Monte-Carlo alignment vs theory")
    _add_instance_args(p_gamma, min_n=2)  # z_1 and at least one background row
    p_gamma.add_argument("--trials", type=_at_least(2), default=50)
    p_gamma.set_defaults(fn=_cmd_gamma)

    p_hermite = sub.add_parser("hermite", help="print an activation's coefficients")
    p_hermite.add_argument("--activation", choices=activation_names(), default="relu")
    p_hermite.add_argument("--order", type=_at_least(0), default=40)
    p_hermite.set_defaults(fn=_cmd_hermite)

    p_sweep = sub.add_parser("sweep", help="run a configured (N, trial) sweep")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out", default="")
    p_sweep.add_argument("--workers", type=_at_least(1), default=1,
                         help="threads computing rows; the CSV does not depend on it. "
                              "Each row also runs threaded BLAS, so keep workers times "
                              "OPENBLAS_NUM_THREADS/OMP_NUM_THREADS at most the cores")
    p_sweep.set_defaults(fn=_cmd_sweep)

    p_verify = sub.add_parser("verify", help="run the identity/theory suites")
    p_verify.add_argument("--level", choices=["quick", "full"], default="quick")
    p_verify.set_defaults(fn=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # 2 for an invalid command line, 0 after --help
        return exc.code
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (ReconstabError, MemoryError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
