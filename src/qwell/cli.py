"""Command-line front end.

Subcommands: density sampling (CSV/SVG), exact plateau reports (JSON),
closed-form predictions (JSON), the conjecture scan, Gauss-sum inspection,
and regeneration of the nine reference figure panels.  All rationals are
printed as "num/den" strings and floats with 12 significant digits, so
identical invocations produce byte-identical output.  A scan record is its
JSON line, rendered in the scan process that ran its detector; the scan
output only joins them.
A call builds only the parser of the command it names, from `COMMANDS`:
building all six took about a third of a large-q `plateaux` call.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

from .gauss import factorization_residual, gauss_abs_sq, gauss_sum_direct
from .plateau import detect_plateaux
from .predictors import (
    MAX_SCAN_CONFIGS,
    ScanRecord,
    _LINE_ENCODER,
    _params_json,
    _report_json,
    _round12,
    conjecture_scan,
    fragmentation_layout,
    has_fragmentation,
    is_critical,
    doubled_drift_is_odd,
    nonfrag_prediction,
    peak_count,
)
from .rationals import format_rational, parse_rational
from .wavefield import PANELS, WellParams

# The largest q that plateaux, density and gauss accept, checked before any
# work starts; their work grows linearly in q.  predict is closed form, but
# in the fragmentation regime it lists about p/2 intervals (p = q or q/2, the
# threshold), so it takes any q only outside that regime.
MAX_Q = 200_000
MAX_Q_HELP = (
    f"q of tau = a/q at most {MAX_Q}: at tau = 1/199999 and lambda 5/2, plateaux"
    " takes about 1.35-1.39 s and 122 MB, density --out csv about 8-11 s and 31 MB"
    " (2 cores, Python 3.11)"
)
# The most density samples that density and figures accept; density's work
# grows as samples * q, which may reach MAX_Q times the default 4000 samples.
MAX_SAMPLES = 1_000_000
MAX_DENSITY_WORK = MAX_Q * 4000
SAMPLES_HELP = (
    f"number of samples, at least 2 and at most {MAX_SAMPLES}; for density also"
    f" samples * q at most {MAX_DENSITY_WORK}"
)


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _params_from(args) -> WellParams:
    return WellParams(parse_rational(args.lam), args.n_state, parse_rational(args.tau))


def _check_q(q: int) -> None:
    if q > MAX_Q:
        raise ValueError(f"q = {q} exceeds the supported limit MAX_Q = {MAX_Q}")


def _check_samples(samples: int, q: int = 1) -> None:
    if samples < 2:
        raise ValueError("need at least 2 samples")
    if samples > MAX_SAMPLES:
        raise ValueError(
            f"{samples} samples exceed the supported limit MAX_SAMPLES = {MAX_SAMPLES}"
        )
    if samples * q > MAX_DENSITY_WORK:
        raise ValueError(
            f"samples * q = {samples * q} exceeds the supported limit"
            f" MAX_Q * 4000 = {MAX_DENSITY_WORK}"
        )


def _bounded_params_from(args) -> WellParams:
    params = _params_from(args)
    _check_q(params.q)
    return params


def _write_text(path: str | Path | None, content: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(content)
    else:
        Path(path).write_text(content, encoding="utf-8")


def _cmd_density(args) -> int:
    from . import figures  # imports numpy, which only density sampling needs

    params = _bounded_params_from(args)
    _check_samples(args.samples, params.q)
    # the detector refuses some inputs that sampling takes, so it runs first
    report = detect_plateaux(params) if args.out == "svg" else None
    rows = figures.density_samples(params, args.samples)
    _write_text(args.output, figures.render_csv(rows) if report is None
                else figures.render_svg(rows, report))
    return 0


def _cmd_plateaux(args) -> int:
    report = detect_plateaux(_bounded_params_from(args))
    _write_text(args.output, _dump(_report_json(report)
                                        | {"fragmentation": has_fragmentation(report.params)}))
    return 0


def _cmd_predict(args) -> int:
    params = _params_from(args)
    out = _params_json(params)
    if has_fragmentation(params):
        _check_q(params.q)
        layout = fragmentation_layout(params)
        out.update(
            {
                "regime": "fragmentation",
                "case": layout.case,
                "radius": format_rational(layout.radius),
                "centers": [format_rational(c) for c in layout.centers],
                "intervals": [
                    [format_rational(lo), format_rational(hi)]
                    for lo, hi in layout.intervals
                ],
                "clipped": list(layout.clipped),
                "peaks": peak_count(params),
            }
        )
    elif is_critical(params):
        out.update({"regime": "critical", "exists": False})
    elif doubled_drift_is_odd(params):
        pred = nonfrag_prediction(params)
        out.update(
            {
                "regime": "uniform",
                "exists": True,
                "center": format_rational(pred.center),
                "radius": format_rational(pred.radius),
                "interval": [format_rational(pred.lo), format_rational(pred.hi)],
                "zero_level": pred.zero_level,
            }
        )
    else:
        out.update({"regime": "uniform", "exists": False})
    _write_text(args.output, _dump(out))
    return 0


def _scan_json(records: list[ScanRecord], lambda_den: int, lambda_max: Fraction,
               q_max: int, n_max: int) -> str:
    """The `scan --out` file for the records of that grid, joining their lines."""
    payload = {
        "grid": {
            "lambda_den": lambda_den,
            "lambda_max": format_rational(lambda_max),
            "q_max": q_max,
            "n_max": n_max,
        },
        "total": len(records),
        "inconsistent": sum(not r.consistent for r in records),
        "zero_checks": sum(r.zero_checks for r in records),
        "records": [],
    }
    head, tail = _LINE_ENCODER.encode(payload).split('"records":[]')
    return "".join((head, '"records":[', ",".join(r.line for r in records), "]", tail, "\n"))


def _cmd_scan(args) -> int:
    lambda_max = parse_rational(args.lambda_max)
    records = conjecture_scan(
        lambda_dens=args.lambda_den, lambda_max=lambda_max, q_max=args.qmax, n_max=args.nmax
    )
    bad = [r for r in records if not r.consistent]
    _write_text(args.output, _scan_json(records, args.lambda_den, lambda_max, args.qmax, args.nmax))
    summary = f"{len(records)} configurations scanned, {len(bad)} inconsistent\n"
    sys.stderr.write(summary)
    if bad and args.strict:
        return 1
    return 0


def _cmd_gauss(args) -> int:
    _check_q(args.q)
    value = gauss_sum_direct(args.a, args.k, args.q)
    abs_sq = gauss_abs_sq(args.a, args.k, args.q)
    re = 0.0 if abs(value.real) < 1e-12 else _round12(value.real)
    im = 0.0 if abs(value.imag) < 1e-12 else _round12(value.imag)
    out = {
        "a": args.a,
        "k": args.k,
        "q": args.q,
        "value": [re, im],
        "abs_squared": abs_sq,
        "abs": _round12(math.sqrt(abs_sq)),
        "factorization_residual": _round12(factorization_residual(args.a, args.q, args.k)),
    }
    _write_text(args.output, _dump(out))
    return 0


def _cmd_figures(args) -> int:
    from . import figures  # imports numpy, which only density sampling needs

    _check_samples(args.samples)
    panels = list(PANELS) if args.panel == "all" else [args.panel]
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for panel in panels:
        for suffix, text in zip(("csv", "svg"), figures.render_panel(panel, args.samples)):
            _write_text(outdir / f"{panel}.{suffix}", text)
        sys.stderr.write(f"wrote {outdir / panel}.csv and .svg\n")
    return 0


def _add_params_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--lambda", dest="lam", required=True,
                     help='expansion factor, e.g. "5/2" or "10.7"')
    sub.add_argument("--N", dest="n_state", type=int, required=True,
                     help="initial eigenstate index")
    sub.add_argument("--tau", required=True, help='fractional time t/T, e.g. "1/3"')


def _density_args(p: argparse.ArgumentParser) -> None:
    _add_params_args(p)
    p.add_argument("--samples", type=int, default=4000, help=SAMPLES_HELP)
    p.add_argument("--out", choices=["csv", "svg"], default="csv", help="output format")
    p.add_argument("--output", default=None, help="output path (default stdout)")


def _report_args(p: argparse.ArgumentParser) -> None:  # plateaux and predict
    _add_params_args(p)
    p.add_argument("--output", default=None)


def _scan_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--lambda-den", type=int, default=8)
    p.add_argument("--lambda-max", default="6")
    p.add_argument("--qmax", type=int, default=20)
    p.add_argument("--nmax", type=int, default=3)
    p.add_argument("--out", dest="output", default="scan.json", help="output JSON path")
    p.add_argument("--strict", action="store_true",
                   help="exit nonzero when inconsistencies are found")


def _gauss_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("a", type=int)
    p.add_argument("k", type=int)
    p.add_argument("q", type=int)
    p.add_argument("--output", default=None)


def _figures_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--panel", choices=list(PANELS) + ["all"], default="all")
    p.add_argument("--outdir", default="figures")
    p.add_argument("--samples", type=int, default=2000,
                   help=f"number of samples per panel, at least 2 and at most {MAX_SAMPLES}")


# name -> (help, description, the function that adds its arguments, handler)
COMMANDS = {
    "density": ("sample the density over [0, 1/2]", MAX_Q_HELP, _density_args, _cmd_density),
    "plateaux": ("exact plateau report as JSON", MAX_Q_HELP, _report_args, _cmd_plateaux),
    "predict": ("closed-form plateau prediction as JSON",
                "q of tau = a/q: any in the uniform and critical regimes, at most"
                f" {MAX_Q} in the fragmentation regime, whose layout lists about p/2"
                " intervals, p = q or q/2 the threshold", _report_args, _cmd_predict),
    "scan": ("conjecture scan over a parameter grid",
             f"at most {MAX_SCAN_CONFIGS} configurations, counted before any work as"
             " (L - 1) D (D + 1) / 2 * nmax * qmax (qmax - 1) / 2 with D the"
             " --lambda-den and L the --lambda-max capped at --qmax", _scan_args, _cmd_scan),
    "gauss": ("inspect one quadratic Gauss sum", f"q at most {MAX_Q}", _gauss_args, _cmd_gauss),
    "figures": ("regenerate the reference panels", None, _figures_args, _cmd_figures),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qwell",
        description="Exact plateau analysis of the suddenly expanded infinite well",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (help_, description, add_args, _) in COMMANDS.items():
        add_args(subs.add_parser(name, help=help_, description=description))
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] in COMMANDS:
        _, description, add_args, handler = COMMANDS[argv[0]]
        parser = argparse.ArgumentParser(prog=f"qwell {argv[0]}", description=description)
        add_args(parser)
        args, extra = parser.parse_known_args(argv[1:])
        if extra:  # the full parser reports them, with its own usage line
            build_parser().parse_args(argv)
    else:  # no command named: the full parser prints its help or a usage error
        args = build_parser().parse_args(argv)
        handler = COMMANDS[args.command][3]
    output = getattr(args, "output", None)
    try:
        if output not in (None, "-"):  # refused before any work starts
            if Path(output).is_dir() or not Path(output).parent.is_dir():
                raise ValueError(f"cannot write {output}: not a file in an existing directory")
        return handler(args)
    except (ValueError, ZeroDivisionError, OverflowError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
