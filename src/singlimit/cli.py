"""Command-line front end.

Subcommands: simulate, converge, equilibria, wavespeed, check.  Exit codes:
0 success, 1 validation error, 2 runtime/solver error, 3 assumption-check
failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import ConfigError, RunConfig, default_config, format_config, parse_config
from .experiments import estimate_wave_speed, frequency_run, run_convergence_sweep
from .model import check_assumptions, equilibria
from .output import write_manifest, write_profiles_svg, write_report, write_snapshot
from .solver import SolverError, gradient_l2

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2
EXIT_CHECK_FAILED = 3

MAX_PLOT_CURVES = 6


def _thin_for_plot(series):
    """At most MAX_PLOT_CURVES evenly spaced snapshots, endpoints kept."""
    if len(series) <= MAX_PLOT_CURVES:
        return list(series)
    idx = sorted({round(k * (len(series) - 1) / (MAX_PLOT_CURVES - 1))
                  for k in range(MAX_PLOT_CURVES)})
    return [series[i] for i in idx]


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
    sim.add_argument("--out", required=True, metavar="DIR")
    sim.add_argument("--svg", action="store_true", help="also write a profile plot")

    conv = sub.add_parser("converge", parents=[common],
                          help="run the eps ladder and write report.csv")
    conv.add_argument("--out", required=True, metavar="DIR")
    conv.add_argument("--svg", action="store_true", help="also write profile plots")

    sub.add_parser("equilibria", parents=[common],
                   help="print the homogeneous steady states with stability")

    wave = sub.add_parser("wavespeed", parents=[common],
                          help="integrate and print the fitted front speed")
    wave.add_argument("--model", choices=("system", "limit"), default="limit")

    chk = sub.add_parser("check", parents=[common],
                         help="audit the structural assumptions")
    chk.add_argument("--samples", type=int, default=100)
    return parser


def _load_config(args) -> RunConfig:
    if args.config is None:
        return default_config()
    return parse_config(Path(args.config).read_text(encoding="utf-8"))


def _cmd_simulate(args, cfg: RunConfig) -> int:
    p_series, raw_series = frequency_run(cfg.model, cfg.spec, cfg.solver, args.model)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    entries = []
    for k, (t, p_field) in enumerate(p_series):
        name = f"p_{k:04d}.csv"
        write_snapshot(p_field, out / name)
        entries.append((t, name))
    if raw_series is not None:
        for k, state in enumerate(raw_series):
            for tag, fld in (("ni", state.ni), ("nu", state.nu)):
                name = f"{tag}_{k:04d}.csv"
                write_snapshot(fld, out / name)
                entries.append((state.time, name))
    write_manifest(entries, out / "manifest.csv")
    if args.svg:
        write_profiles_svg(_thin_for_plot(p_series), out / "profiles.svg",
                           title=f"frequency, model={args.model}")
    print(f"wrote {len(entries)} snapshots to {out}")
    return EXIT_OK


def _cmd_converge(args, cfg: RunConfig) -> int:
    window = cfg.speed_window if cfg.solver.t_end >= cfg.speed_window[1] else None
    report, limit_series, reduced_series = run_convergence_sweep(
        cfg.model.params, cfg.model.variant, cfg.epsilons, cfg.spec, cfg.solver,
        speed_window=window, speed_level=cfg.speed_level,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_report(report, out / "report.csv")
    if args.svg:
        write_profiles_svg(_thin_for_plot(limit_series), out / "profiles_limit.svg",
                           title="limit equation")
        for eps, reduced in zip(report.epsilons, reduced_series):
            write_profiles_svg(_thin_for_plot([(r.time, r.p) for r in reduced]),
                               out / f"profiles_eps_{eps:g}.svg",
                               title=f"system, eps = {eps:g}")
    for eps, ep, em, reduced in zip(report.epsilons, report.err_p, report.err_m,
                                    reduced_series):
        grad = gradient_l2(reduced[-1].p)
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
    p_series, _ = frequency_run(cfg.model, cfg.spec, cfg.solver, args.model)
    speed = estimate_wave_speed(p_series, cfg.speed_window, cfg.speed_level)
    print(f"speed {speed:.10g}")
    return EXIT_OK


def _cmd_check(args, cfg: RunConfig) -> int:
    report = check_assumptions(cfg.model, samples=args.samples)
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
