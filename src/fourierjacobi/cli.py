"""Command-line front end: series runs, exponent experiments, self-test.

Exit codes: 0 success, 1 a checked property failed, 2 usage error (also
argparse's own), 3 a quadrature or series failed to reach tolerance.
"""

import argparse
import json
import sys

import numpy as np

from .errors import AccuracyError
from .specfun import JacobiParams
from .series import (
    StepFunction,
    PowerWeight,
    CosinePoly,
    coefficient_series,
    decay_fit,
    counterexample_slope,
    sup_norm_slope,
)
from .laguerre import (
    LaguerreStep,
    LaguerreExpDamped,
    laguerre_coefficient_series,
    laguerre_bound_profile,
)
from .jtransform import _check_half_line, transform_sweep
from .selftest import mehler_pathway_discrepancies, run_all, step_identity_deviation

__all__ = ["main", "build_parser"]


def _floats(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part.strip()]


def _parse_circle_function(text: str):
    """step:a,b[,...] | power:rho | cospoly:c0,c1,...

    Step breakpoints get unit values alternating 0,1,0,... so step:a,b is
    the characteristic function of [a,b].
    """
    kind, _, rest = text.partition(":")
    if kind == "step":
        breaks = _floats(rest)
        if not breaks:
            raise ValueError("step: needs at least one breakpoint")
        values = tuple(float((i + 1) % 2 == 0) for i in range(len(breaks) + 1))
        return StepFunction(tuple(breaks), values)
    if kind == "power":
        vals = _floats(rest)
        if len(vals) != 1:
            raise ValueError("power: takes exactly one exponent")
        return PowerWeight(vals[0])
    if kind == "cospoly":
        coeffs = _floats(rest)
        if not coeffs:
            raise ValueError("cospoly: needs coefficients")
        return CosinePoly(tuple(coeffs))
    raise ValueError(f"unknown function spec {text!r}")


_HALF_LINE_SPECS = ("step:a | step:a,b[,...] | indicator:a,b | poly:c0,... | "
                    "damped:rate:c0,... | expdecay:rate:c0,...")


def _parse_half_line_function(text: str):
    """One of _HALF_LINE_SPECS, for both `laguerre coeffs` and `transform`.

    step:a is the indicator of [0, a); step:a,b[,...] takes unit values
    alternating 0,1,0,... from 0, so step:a,b is indicator:a,b.  poly: is a
    damped polynomial with rate 0, and expdecay: is damped:.
    """
    kind, _, rest = text.partition(":")
    if kind in ("step", "indicator"):
        breaks = _floats(rest)
        if kind == "indicator" and len(breaks) != 2:
            raise ValueError("indicator: takes a,b")
        if len(breaks) == 1:
            return LaguerreStep((breaks[0],), (1.0,))
        if not breaks:
            raise ValueError("step: needs at least one breakpoint")
        values = tuple(float(i % 2 == 1) for i in range(len(breaks)))
        return LaguerreStep(tuple(breaks), values)
    if kind == "poly":
        return LaguerreExpDamped(tuple(_floats(rest)))
    if kind in ("damped", "expdecay"):
        rate_text, _, coeff_text = rest.partition(":")
        return LaguerreExpDamped(tuple(_floats(coeff_text)), float(rate_text))
    raise ValueError(f"unknown half-line function spec {text!r}")


def _write_text(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _emit_pairs(keys, values, header: str, fmt: str, out: str | None,
                meta: dict):
    if fmt == "csv":
        lines = [header]
        lines += [f"{k},{float(v)!r}" for k, v in zip(keys, values)]
        _write_text("\n".join(lines) + "\n", out)
    else:
        doc = dict(meta)
        doc["values"] = [float(v) for v in values]
        _write_text(json.dumps(doc, indent=2) + "\n", out)


def _cmd_coeffs(args) -> int:
    params = JacobiParams(args.alpha, args.beta)
    f = _parse_circle_function(args.function)
    series = coefficient_series(f, args.kmax, params,
                                normalization=args.normalization)
    _emit_pairs(range(len(series.values)), series.values, "k,value", args.format,
                args.out, {"alpha": params.alpha, "beta": params.beta,
                           "kmax": series.kmax, "normalization": series.normalization})
    return 0


def _cmd_decay(args) -> int:
    params = JacobiParams(args.alpha, args.beta)
    f = _parse_circle_function(args.function)
    series = coefficient_series(f, args.kmax, params)
    rep = decay_fit(series)
    print(f"window k in [{rep.window[0]}, {rep.window[1]}]")
    print(f"slope {rep.slope!r}")
    print(f"r_squared {rep.r_squared!r}")
    print(f"max_abs_tail {rep.max_abs_tail!r}")
    if rep.skipped:
        print(f"skipped {rep.skipped} zero entries")
    if rep.skipped == rep.window[1] - rep.window[0] + 1:
        print("every entry in the window is 0: the series terminates")
    return 0


def _cmd_counterexample(args) -> int:
    rep = counterexample_slope(JacobiParams(args.alpha, args.beta), args.rho,
                               kmax=args.kmax)
    print(f"predicted exponent {rep.predicted_slope!r}")
    print(f"fitted exponent {rep.fit.slope!r} (r_squared {rep.fit.r_squared!r})")
    print(f"divergence regime: {'yes' if rep.divergence_regime else 'no'}")
    print("decade maxima " + ", ".join(repr(m) for m in rep.decade_maxima))
    gap = abs(rep.fit.slope - rep.predicted_slope)
    if gap > args.tol:
        print(f"FAIL: fitted exponent off by {gap!r} (tol {args.tol})")
        return 1
    return 0


def _cmd_opnorm(args) -> int:
    rep = sup_norm_slope(JacobiParams(args.alpha, args.beta),
                         region=args.region)
    print(f"region {args.region}, window k in "
          f"[{rep.window[0]}, {rep.window[1]}]")
    print(f"slope {rep.slope!r}")
    print(f"r_squared {rep.r_squared!r}")
    return 0


def _cmd_verify_mehler(args) -> int:
    worst, worst_lim = mehler_pathway_discrepancies(args.kmax)
    print(f"max discrepancy, singular form: {float(worst)!r}")
    print(f"max discrepancy, limit form: {float(worst_lim)!r}")
    if max(worst, worst_lim) > args.tol:
        print(f"FAIL: exceeds tolerance {args.tol}")
        return 1
    return 0


def _cmd_laguerre(args) -> int:
    if args.mode == "coeffs":
        f = _parse_half_line_function(args.function)
        values = laguerre_coefficient_series(f, args.kmax, args.alpha)
        _emit_pairs(range(len(values)), values, "k,value", args.format,
                    args.out, {"alpha": args.alpha, "kmax": args.kmax})
        return 0
    if args.mode == "identity":
        if args.kmax < 1:
            raise ValueError(f"the identity needs --kmax >= 1, got {args.kmax}")
        worst = step_identity_deviation(args.a, args.kmax, args.alpha)
        print(f"max identity deviation {worst!r} over k <= {args.kmax}")
        if worst > 1e-10:
            print("FAIL: exceeds tolerance 1e-10")
            return 1
        return 0
    prof = laguerre_bound_profile(args.kmax, args.alpha)
    peak = float(np.max(prof))
    print(f"max over k <= {args.kmax} of sup |e^(-x/2) R_k| = {peak!r}")
    if args.alpha >= 0.0 and peak > 1.0 + 1e-10:
        print("FAIL: exceeds 1 + 1e-10")
        return 1
    return 0


def _cmd_transform(args) -> int:
    params = JacobiParams(args.alpha, args.beta)
    f = _parse_half_line_function(args.function)
    bounds = _check_half_line("--tau-min and --tau-max", [args.tau_min, args.tau_max])
    if args.tau_count < 1:
        raise ValueError(f"--tau-count must be at least 1, got {args.tau_count}")
    taus = np.linspace(*bounds, args.tau_count)
    values = transform_sweep(f, taus, params)
    _emit_pairs((repr(float(t)) for t in taus), values, "tau,value",
                args.format, args.out,
                {"alpha": args.alpha, "beta": args.beta,
                 "taus": [float(t) for t in taus]})
    return 0


def _cmd_selftest(args) -> int:
    results = run_all(args.only or None)
    failed = 0
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        failed += 0 if r.passed else 1
        print(f"{mark} {r.name} ({r.seconds:.1f}s): {r.detail}")
    total = sum(r.seconds for r in results)
    print(f"{len(results) - failed}/{len(results)} criteria passed "
          f"in {total:.1f}s")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fourierjacobi",
        description="Fourier-Jacobi coefficient decay experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--alpha", type=float, required=True)
        p.add_argument("--beta", type=float, required=True)

    p = sub.add_parser("coeffs", help="coefficient series for a function")
    common(p)
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--function", required=True,
                   help="step:a,b[,...] | power:rho | cospoly:c0,c1,...")
    p.add_argument("--normalization", choices=["hat", "unnormalized"],
                   default="hat")
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=_cmd_coeffs)

    p = sub.add_parser("decay", help="coefficient series plus a slope fit")
    common(p)
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--function", required=True)
    p.set_defaults(func=_cmd_decay)

    p = sub.add_parser("counterexample",
                       help="power-weight exponent experiment")
    common(p)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--kmax", type=int, default=1024)
    p.add_argument("--tol", type=float, default=0.05)
    p.set_defaults(func=_cmd_counterexample)

    p = sub.add_parser("opnorm", help="sup-norm growth/decay slope")
    common(p)
    p.add_argument("--region", choices=["full", "right"], default="full")
    p.set_defaults(func=_cmd_opnorm)

    p = sub.add_parser("verify-mehler",
                       help="integral pathway vs recurrence sweep")
    p.add_argument("--kmax", type=int, default=50)
    p.add_argument("--tol", type=float, default=1e-8)
    p.set_defaults(func=_cmd_verify_mehler)

    p = sub.add_parser("laguerre", help="half-line expansion checks")
    p.add_argument("mode", choices=["coeffs", "identity", "bound"])
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--kmax", type=int, default=50)
    p.add_argument("--function", default=None,
                   help=_HALF_LINE_SPECS)
    p.add_argument("--a", type=float, default=1.0,
                   help="truncation point for the identity mode")
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=_cmd_laguerre)

    p = sub.add_parser("transform", help="continuous transform over a tau grid")
    common(p)
    p.add_argument("--function", required=True,
                   help=_HALF_LINE_SPECS)
    p.add_argument("--tau-min", type=float, default=0.0)
    p.add_argument("--tau-max", type=float, required=True)
    p.add_argument("--tau-count", type=int, default=101)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("selftest", help="run the acceptance battery")
    p.add_argument("--only", action="append", default=[],
                   help="criterion name; may repeat")
    p.set_defaults(func=_cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "laguerre" and args.mode == "coeffs" \
            and not args.function:
        parser.error("laguerre coeffs needs --function")
    try:
        return args.func(args)
    except AccuracyError as exc:
        print(f"accuracy error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
