"""Command-line front end: scenario reports, sweeps, reference checks.

Every subcommand prints a row-oriented report in CSV, table, or JSON
form.  Output is byte-identical across runs for the same config and
seed.  Exit codes: 0 on success, 1 if a checked row fails (the reference
check finds a quantity outside its window), 2 on usage or configuration errors.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import re
import sys

from .report import (PI_PULSE_TAU, QUANTITIES, RENDERERS, STATUS_FAIL, ReportRow,
                     compensate_rows, decoherence_rows, memory_sim_rows,
                     paper_check_rows, pulse_design_rows, pump_rows,
                     render_rows, shifts_rows)
from .scenario import (DOCUMENT_KEYS, SCALAR_KEYS, default_scenario, load_scenario_file,
                       scenario_with)

CONFIG_ENV_VAR = "QMEMCELL_CONFIG"
#: most points one sweep evaluates; checked before any grid is built
MAX_SWEEP_POINTS = 100_000


def _finite_float(text: str) -> float:
    """argparse type: a float that is neither NaN nor infinite."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _add_common(parser: argparse.ArgumentParser, default_format: str, rows):
    """The options every subcommand takes, and ``rows``, its row builder
    ``(config, args) -> list[ReportRow]``, as the parsed ``args.rows``."""
    parser.add_argument("--config", metavar="PATH",
                        help="scenario JSON document (default: $QMEMCELL_CONFIG, "
                             "then the packaged cesium point)")
    parser.add_argument("--format", choices=sorted(RENDERERS),
                        default=default_format, help="output format")
    parser.add_argument("--out", metavar="PATH",
                        help="write the report to this file instead of stdout")
    parser.set_defaults(rows=rows)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call.

    Later calls return the same parser, so callers must not modify it;
    parsing leaves it unchanged.
    """
    parser = argparse.ArgumentParser(
        prog="qmemcell",
        description="Desk calculator and Gaussian simulator for a single-cell "
                    "atomic memory for light.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("shifts", help="level-shift ladders of every mechanism")
    p.add_argument("--omega-b-hz", type=_finite_float, default=None,
                   help="override the Larmor frequency (cyclic Hz)")
    _add_common(p, "csv", _shifts_rows)

    p = sub.add_parser("compensate",
                       help="slope-compensation intensities and residual spreads")
    _add_common(p, "csv", lambda config, args: compensate_rows(config))

    p = sub.add_parser("pulse-design",
                       help="differential pi pulses for a given duration")
    p.add_argument("--tau-s", dest="tau", type=_finite_float, default=PI_PULSE_TAU,
                   help="pulse duration in seconds (default 30 us)")
    _add_common(p, "csv", lambda config, args: pulse_design_rows(config, args.tau))

    p = sub.add_parser("decoherence", help="per-pulse decoherence budget")
    _add_common(p, "csv", lambda config, args: decoherence_rows(config))

    p = sub.add_parser("pump", help="optical pumping rate-equation run")
    p.add_argument("--pump-rate", type=_finite_float, default=1.0e4,
                   help="peak depletion rate of the interior sublevels, 1/s")
    p.add_argument("--repump-rate", type=_finite_float, default=1.0e4,
                   help="return rate from the lower manifold, 1/s")
    p.add_argument("--dt", type=_finite_float, default=1.0e-6,
                   help="spacing of the record grid in seconds; the propagation "
                        "itself is exact")
    p.add_argument("--steps", type=int, default=2000,
                   help="number of grid spacings: the run lasts dt * steps")
    _add_common(p, "csv", lambda config, args: pump_rows(
        config, args.pump_rate, args.repump_rate, args.dt, args.steps))

    p = sub.add_parser("memory-sim",
                       help="write-then-read run under the configured budget")
    p.add_argument("--k-eff", type=_finite_float, default=1.0,
                   help="pass strength of the protocol run (default: unit pass; "
                        "the configured cell's own value is reported in the output)")
    p.add_argument("--gain", type=_finite_float, default=None,
                   help="feedback gain (default: the configured feedback_gain)")
    p.add_argument("--seed", type=int, default=None,
                   help="seed for sampled measurement outcomes")
    _add_common(p, "csv", lambda config, args: memory_sim_rows(
        config, args.seed, args.k_eff, args.gain))

    p = sub.add_parser("paper-check",
                       help="evaluate the twelve benchmark quantities")
    _add_common(p, "table", lambda config, args: paper_check_rows(config))

    p = sub.add_parser("sweep", help="evaluate one quantity over a parameter grid")
    p.add_argument("--param", required=True, choices=SCALAR_KEYS,
                   help="scenario key to vary")
    p.add_argument("--quantity", required=True, choices=sorted(QUANTITIES),
                   help="quantity to evaluate at each point")
    p.add_argument("--values", default=None,
                   help="comma-separated list of parameter values")
    p.add_argument("--start", type=_finite_float, default=None, help="grid start")
    p.add_argument("--stop", type=_finite_float, default=None, help="grid stop")
    p.add_argument("--num", type=int, default=None, help="grid point count")
    _add_common(p, "csv", _sweep_rows)

    # argparse's pattern misses exponents, lists, -inf and -nan and takes "--dt -1e-6"
    # for a flag with no value; no option name starts with a digit, inf or nan
    for p in sub.choices.values():
        p._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)
    return parser


def _resolve_config(path: str | None):
    if path:
        return load_scenario_file(path)
    env_path = os.environ.get(CONFIG_ENV_VAR)
    if env_path:
        return load_scenario_file(env_path)
    return default_scenario()


def _sweep_values(args) -> list[float]:
    grid_given = any(v is not None for v in (args.start, args.stop, args.num))
    if args.values is not None and grid_given:
        raise ValueError("give either --values or --start/--stop/--num, not both")
    if args.values is not None:
        tokens = [tok for tok in args.values.split(",") if tok.strip()]
        if len(tokens) > MAX_SWEEP_POINTS:
            raise ValueError(f"--values lists {len(tokens)} numbers; a sweep takes at "
                             f"most {MAX_SWEEP_POINTS}")
        try:
            values = [float(tok) for tok in tokens]
        except ValueError:
            raise ValueError(
                f"--values must be comma-separated numbers, got {args.values!r}") from None
        if not values:
            raise ValueError("--values contains no numbers")
        return values
    if args.start is None or args.stop is None or args.num is None:
        raise ValueError("sweep needs --values or all of --start, --stop, --num")
    if args.num < 1:
        raise ValueError(f"--num must be positive, got {args.num}")
    if args.num > MAX_SWEEP_POINTS:
        raise ValueError(f"--num must be at most {MAX_SWEEP_POINTS}, got {args.num}")
    if args.num == 1:
        return [args.start]
    step = (args.stop - args.start) / (args.num - 1)
    return [args.start + i * step for i in range(args.num)]


def _shifts_rows(config, args) -> list[ReportRow]:
    if args.omega_b_hz is not None:
        config = scenario_with(config, "omega_b_hz", args.omega_b_hz)
    return shifts_rows(config)


def _sweep_rows(config, args) -> list[ReportRow]:
    values = _sweep_values(args)
    param = args.param
    func, unit = QUANTITIES[args.quantity]
    prefix = f"{args.quantity}[{param}="
    return [ReportRow(f"{prefix}{value:g}]", func(scenario_with(config, param, value)), unit)
            for value in values]


def _dispatch(args) -> tuple[list[ReportRow], int]:
    """The subcommand's rows, and exit code 1 if a checked row fails, else 0."""
    rows = args.rows(_resolve_config(args.config), args)
    return rows, int(any(row.status == STATUS_FAIL for row in rows))


def _subparsers() -> dict[str, argparse.ArgumentParser]:
    """Each subcommand's parser, by name."""
    [commands] = [a for a in build_parser()._actions if a.dest == "command"]
    return commands.choices


def _error_line(command: str, exc: Exception) -> str:
    """``error: MESSAGE``, led as argparse does by the option of each refused non-document key."""
    options = {a.dest: "/".join(a.option_strings) for a in _subparsers()[command]._actions}
    named = [options[key] for key in getattr(exc, "keys", ())
             if key in options and key not in DOCUMENT_KEYS]
    return f"error: argument {', '.join(named)}: {exc}" if named else f"error: {exc}"


def _parse_args(argv: list[str] | None):
    """``build_parser().parse_args(argv)``, spared its top-level pass where
    that pass only names the subcommand.

    An argv that starts with a subcommand and leaves nothing over is parsed
    by that subcommand's parser alone; any other argv (empty, help, an
    unknown command, an option before the command, leftover arguments)
    takes argparse's nested path, so every usage error and help text is
    argparse's own.
    """
    if argv is None:
        argv = sys.argv[1:]
    if argv:
        sub = _subparsers().get(argv[0])
        if sub is not None:
            args, extras = sub.parse_known_args(argv[1:])
            if not extras:
                args.command = argv[0]
                return args
    return build_parser().parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        rows, code = _dispatch(args)
        text = render_rows(rows, args.format)
    except (ValueError, ArithmeticError, OSError) as exc:
        print(_error_line(args.command, exc), file=sys.stderr)
        return 2
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
