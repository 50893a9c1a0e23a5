"""Command-line front end.

Subcommands: simulate, converge, equilibria, wavespeed, check.  Exit codes:
0 success, 1 validation error, 2 runtime/solver error, 3 assumption-check
failure.
"""

from __future__ import annotations

import argparse
import itertools
import sys
from pathlib import Path

from .config import ConfigError, RunConfig, default_config, format_config, parse_config
from .experiments import FrontTrack, frequency_run, run_convergence_sweep
from .model import check_assumptions, equilibria
from .output import (staged_output, write_manifest, write_profiles_svg, write_report,
                     write_snapshot)
from .solver import SolverError, gradient_l2

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2
EXIT_CHECK_FAILED = 3

MAX_PLOT_CURVES = 6


def _plot_indices(n: int) -> list[int]:
    """Indices of at most MAX_PLOT_CURVES evenly spaced frames out of n,
    endpoints kept: every frame when n <= MAX_PLOT_CURVES."""
    return sorted({round(k * (n - 1) / (MAX_PLOT_CURVES - 1)) for k in range(MAX_PLOT_CURVES)})


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="FILE", help="run configuration file")
    common.add_argument("--show-config", action="store_true",
                        help="print the effective configuration and exit")

    parser = argparse.ArgumentParser(
        prog="singlimit",
        description="Two-population competition dynamics and their scalar bistable limit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", parents=[common],
                         help="integrate one model and write snapshot CSVs")
    sim.add_argument("--model", choices=("system", "limit"), default="system")
    sim.add_argument("--out", metavar="DIR", help="output directory (required to run)")
    sim.add_argument("--svg", action="store_true", help="also write a profile plot")

    conv = sub.add_parser("converge", parents=[common],
                          help="run the eps ladder and write report.csv")
    conv.add_argument("--out", metavar="DIR", help="output directory (required to run)")
    conv.add_argument("--svg", action="store_true", help="also write profile plots")

    sub.add_parser("equilibria", parents=[common],
                   help="print the homogeneous steady states with stability")

    wave = sub.add_parser("wavespeed", parents=[common],
                          help="integrate and print the fitted front speed")
    wave.add_argument("--model", choices=("system", "limit"), default="limit")

    sub.add_parser("check", parents=[common], help="audit the structural assumptions")
    return parser


def _load_config(args) -> RunConfig:
    if args.config is None:
        return default_config()
    return parse_config(Path(args.config).read_text(encoding="utf-8"))


def _cmd_simulate(args, cfg: RunConfig) -> int:
    plot_at = set(_plot_indices(cfg.solver.n_frames))
    p_rows, density_rows, plot = [], [], []
    out = Path(args.out)
    with staged_output(out) as staging:

        def write(tag, k, t, fld):
            name = f"{tag}_{k:04d}.csv"
            write_snapshot(fld, staging, name)
            return t, name

        def on_frame(t, p, state):
            k = len(p_rows)
            p_rows.append(write("p", k, t, p))
            if state is not None:
                density_rows.extend([write("ni", k, t, state.ni), write("nu", k, t, state.nu)])
            if k in plot_at:
                plot.append((t, p))

        frequency_run(cfg.model, cfg.spec, cfg.solver, args.model, on_frame=on_frame)
        write_manifest(p_rows + density_rows, staging, "manifest.csv")
        if args.svg:
            write_profiles_svg(plot, staging, "profiles.svg",
                               title=f"frequency, model={args.model}")
    print(f"wrote {len(p_rows) + len(density_rows)} snapshots to {out}")
    return EXIT_OK


def _cmd_converge(args, cfg: RunConfig) -> int:
    plot_at, frame_index, plotted = _plot_indices(cfg.solver.n_frames), itertools.count(), []

    def keep(reduced):
        if next(frame_index) in plot_at:
            plotted.append(reduced)

    covered = cfg.solver.t_end >= cfg.speed_window[1]
    out = Path(args.out)
    with staged_output(out) as staging:
        report, limit_series = run_convergence_sweep(
            cfg.model.params, cfg.model.variant, cfg.epsilons, cfg.spec, cfg.solver,
            on_frame=keep, speed=(cfg.speed_window, cfg.speed_level) if covered else None)
        rungs = list(zip(*plotted))  # the plotted frames per rung, the last one included
        write_report(report, staging, "report.csv")
        if args.svg:
            write_profiles_svg([limit_series[i] for i in plot_at],
                               staging, "profiles_limit.svg", title="limit equation")
            for eps, rung in zip(report.epsilons, rungs):
                write_profiles_svg([(r.time, r.p) for r in rung],
                                   staging, f"profiles_eps_{eps:g}.svg",
                                   title=f"system, eps = {eps:g}")
    for eps, ep, em, rung in zip(report.epsilons, report.err_p, report.err_m, rungs):
        grad = gradient_l2(rung[-1].p)
        print(f"eps={eps:<8g} err_p={ep:.6e} err_m={em:.6e} "
              f"grad_p_final={grad:.4e} (informational)")
    print(f"report written to {out / 'report.csv'}")
    return EXIT_OK


def _cmd_equilibria(args, cfg: RunConfig) -> int:
    rows = equilibria(cfg.model)
    print(f"{'state':<12} {'n_i':>14} {'n_u':>14} {'frequency':>11} {'stability':>10}")
    for eq in rows:
        total = eq.ni + eq.nu
        freq = eq.ni / total if total > 0 else 0.0
        print(f"{eq.kind.value:<12} {eq.ni:>14.6f} {eq.nu:>14.6f} "
              f"{freq:>11.6f} {eq.stability.value:>10}")
    return EXIT_OK


def _cmd_wavespeed(args, cfg: RunConfig) -> int:
    if cfg.solver.t_end < cfg.speed_window[1]:
        raise ConfigError(
            f"time.t_end = {cfg.solver.t_end:g} does not cover the speed window "
            f"ending at {cfg.speed_window[1]:g}"
        )
    track = FrontTrack(cfg.speed_window, cfg.speed_level)
    frequency_run(cfg.model, cfg.spec, cfg.solver, args.model,
                  on_frame=lambda t, p, _: track.add(t, p))
    print(f"speed {track.speed():.10g}")
    return EXIT_OK


def _cmd_check(args, cfg: RunConfig) -> int:
    report = check_assumptions(cfg.model)
    for check in report.checks:
        state = "PASS" if check.passed else "FAIL"
        where = "" if check.location is None else f" at {check.location}"
        note = f" ({check.note})" if check.note else ""
        print(f"{check.name:<12} {state}  margin={check.margin:.6g}{where}{note}")
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


_COMMANDS = {
    "simulate": _cmd_simulate,
    "converge": _cmd_converge,
    "equilibria": _cmd_equilibria,
    "wavespeed": _cmd_wavespeed,
    "check": _cmd_check,
}


def cli_dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # simulate and converge need --out to run, not to show the config
        if getattr(args, "out", "") is None and not args.show_config:
            parser.error("the following arguments are required: --out")
    except SystemExit as exc:
        return EXIT_VALIDATION if exc.code not in (0, None) else EXIT_OK
    try:
        cfg = _load_config(args)
        if args.show_config:
            print(format_config(cfg), end="")
            return EXIT_OK
        return _COMMANDS[args.command](args, cfg)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
