"""Command-line interface.

Subcommands:
    decay        per-step hypergradient errors along a gradient-descent run
    efficiency   efficiency constants over seeded y draws
    compare      numeric checks of the comparison bounds between strategies
    ode1d        scalar super-efficiency residuals for candidate maps
    slope        log-log slope fit of a decay CSV

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields

from .bench import (
    PROBLEM_KINDS,
    RunConfig,
    build_problem,
    csv_text,
    emit_csv,
    fit_loglog_slope,
    read_decay_csv,
    render_svg,
    run_decay,
    run_efficiency_sweep,
    seeded_trials,
)
from . import efficiency
from .efficiency import RootContext, super_efficiency_residual_1d
from .errors import DataError, HygradError, UsageError
from .estimators import (
    STRATEGIES,
    SeparableReparam,
    exp_family_reparam_1d,
    identity_reparam,
    newton_preconditioner,
    resolve_strategy,
    scaled_preconditioner,
)
from .models import OUTER_VARIANTS
from .seeding import PRNG_NAME


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, so we control exit codes."""

    def error(self, message):
        raise UsageError(message)


def _strategy_list(text: str) -> tuple:
    return tuple(s for s in text.split(",") if s)


# Flags that only some subcommands read; each subcommand names its own.
_OPTIONAL_FLAGS = {
    "--strategies": dict(type=_strategy_list,
                         help=f"comma-separated subset of {','.join(STRATEGIES)}"),
    "--steps": dict(type=int),
    "--step-size": dict(type=float,
                        help="constant descent step; default freezes 1/L at x0"),
    "--trials": dict(type=int),
    "--svg": dict(dest="svg_path"),
}


def _add_common(parser: argparse.ArgumentParser, *optional: str) -> None:
    """The flags every run subcommand reads, plus the named optional ones; a
    flag that sets a RunConfig field defaults to that field's default, and
    a subcommand without ``--svg`` writes no SVG."""
    parser.set_defaults(svg_path=None, **{f.name: f.default for f in fields(RunConfig)})
    parser.add_argument("--problem", choices=PROBLEM_KINDS)
    parser.add_argument("--train", dest="train_path")
    parser.add_argument("--val", dest="val_path")
    parser.add_argument("--outer", choices=OUTER_VARIANTS)
    parser.add_argument("--y-low", type=float)
    parser.add_argument("--y-high", type=float)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--out", dest="out_path")
    for flag in optional:
        parser.add_argument(flag, **_OPTIONAL_FLAGS[flag])


def _config_from(args: argparse.Namespace) -> RunConfig:
    """RunConfig from the parsed flags and the defaults of the fields without one."""
    return RunConfig(**{f.name: getattr(args, f.name) for f in fields(RunConfig)})


def _write(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as err:
        raise DataError(f"cannot write {path}: {err}") from err


def _write_outputs(args, csv_text: str, items) -> None:
    _write(args.out_path, csv_text)
    if args.svg_path:
        _write(args.svg_path, render_svg(items))
    if args.out_path:
        print(f"wrote {args.out_path}")


def _cmd_decay(args) -> int:
    traces = run_decay(_config_from(args))
    _write_outputs(args, emit_csv(traces), traces)
    return 0


def _cmd_efficiency(args) -> int:
    config = _config_from(args)
    records = run_efficiency_sweep(config)
    meta = {"seed": str(config.seed), "problem": config.problem,
            "outer": config.outer}
    _write_outputs(args, emit_csv(records, metadata=meta), records)
    return 0


def _cmd_compare(args) -> int:
    config = _config_from(args)
    problem = build_problem(config)
    precond = scaled_preconditioner(newton_preconditioner(problem),
                                    args.precond_scale)
    meta = {"precond_scale": args.precond_scale, "prng": PRNG_NAME,
            "problem": config.problem, "reparam": args.reparam, "seed": config.seed}
    separable = isinstance(resolve_strategy(problem, args.reparam).reparam,
                           SeparableReparam)
    rows = []
    failures = 0
    for trial, trial_seed, y in seeded_trials(config, problem.d_y):
        # One root per trial, read by every at-root block of the trial.
        ctx = RootContext.solve(problem, y)
        bounds = efficiency.compare_bounds(ctx, precond, args.reparam)
        delta, delta_lower = efficiency.precond_gap(ctx, precond, args.reparam)
        # lhs_p_minus_phi = -lhs_phi_minus_p, so one slack serves both.
        slack = 1e-6 * (1.0 + abs(bounds.lhs_phi_minus_p))
        if bounds.lhs_phi_minus_p < bounds.rhs_phi_minus_p - slack:
            failures += 1
        if bounds.lhs_p_minus_phi < bounds.rhs_p_minus_phi - slack:
            failures += 1
        sigma, sigma_lower = float("nan"), float("nan")
        if separable:
            sigma, sigma_lower = efficiency.reparam_gap(ctx, precond, args.reparam)
        rows.append((trial, trial_seed, bounds.lhs_phi_minus_p, bounds.rhs_phi_minus_p,
                     bounds.lhs_p_minus_phi, bounds.rhs_p_minus_phi,
                     delta, delta_lower, sigma, sigma_lower))
    _write(args.out_path, csv_text(
        meta, "trial,seed,lhs_phi_minus_p,rhs_phi_minus_p,lhs_p_minus_phi,"
        "rhs_p_minus_phi,delta,delta_lower,sigma,sigma_lower", rows))
    if failures:
        print(f"{failures} comparison inequalities violated", file=sys.stderr)
        return 3
    print(f"all comparison inequalities hold over {config.trials} trials")
    return 0


def _cmd_ode1d(args) -> int:
    config = _config_from(args)
    if config.problem not in ("scalar", "linear1d"):
        raise UsageError("ode1d needs a one-dimensional problem (scalar or linear1d)")
    problem = build_problem(config)
    meta = {"prng": PRNG_NAME, "problem": config.problem, "seed": config.seed}
    rows = []
    grid = [0.5, 1.0, 2.0]
    for trial, trial_seed, y in seeded_trials(config, problem.d_y):
        # One root per trial, shared by every candidate map.
        ctx = RootContext.solve(problem, y)
        candidates = [("identity", identity_reparam())]
        candidates += [(f"exp(a={a:g};b={b:g})", exp_family_reparam_1d(a, b))
                       for a in grid for b in grid]
        for name, phi in candidates:
            rows.append((name, trial, trial_seed, y[0],
                         super_efficiency_residual_1d(ctx, phi)))
    _write_outputs(args, csv_text(meta, "candidate,trial,seed,y,residual", rows), rows)
    return 0


def _cmd_slope(args) -> int:
    try:
        with open(args.in_path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        raise DataError(f"cannot read {args.in_path}: {err}") from err
    traces = read_decay_csv(text)
    if args.strategy:
        traces = [t for t in traces if t.strategy == args.strategy]
        if not traces:
            raise UsageError(f"strategy {args.strategy!r} not present in file")
    for trace in traces:
        slope = fit_loglog_slope(trace, floor=args.floor)
        print(f"{trace.strategy} {repr(slope)}")
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="hygrad", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_decay = sub.add_parser("decay", help="hypergradient error per descent step")
    _add_common(p_decay, "--strategies", "--steps", "--step-size", "--svg")
    p_decay.set_defaults(func=_cmd_decay)

    p_eff = sub.add_parser("efficiency", help="efficiency constants over y draws")
    _add_common(p_eff, "--strategies", "--trials", "--svg")
    p_eff.set_defaults(func=_cmd_efficiency)

    p_cmp = sub.add_parser("compare", help="comparison-bound numeric checks")
    _add_common(p_cmp, "--trials")
    p_cmp.add_argument("--precond-scale", type=float, default=1.0,
                       help="scale the Newton preconditioner to control its error")
    p_cmp.add_argument("--reparam", default="exp", choices=("exp", "diag-rep", "opt"),
                       help="reparameterization side")
    p_cmp.set_defaults(func=_cmd_compare)

    p_ode = sub.add_parser("ode1d", help="scalar super-efficiency residuals (the nine "
                           "exp(a;b) candidates coincide by construction)")
    _add_common(p_ode, "--trials")
    p_ode.set_defaults(func=_cmd_ode1d)

    p_slope = sub.add_parser("slope", help="log-log slope of a decay CSV")
    p_slope.add_argument("--in", dest="in_path", required=True)
    p_slope.add_argument("--strategy", default=None)
    p_slope.add_argument("--floor", type=float, default=1e-12)
    p_slope.set_defaults(func=_cmd_slope)
    return parser


def cli_main(argv: list[str] | None = None) -> int:
    """Run the CLI; returns the process exit code instead of exiting."""
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except DataError as err:
        print(f"data error: {err}", file=sys.stderr)
        return 2
    except HygradError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
