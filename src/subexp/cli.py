"""Command-line interface.

Subcommands:

    spectrum   print a model's spectral data and its classification
    predict    evaluate the asymptotic estimate(s) of log c_n at one n
    exact      list exact coefficients c_0..c_N
    compare    CSV table of exact vs predicted values over a grid of n
    verify     run the built-in constant self-checks

The model is a preset (--model standard, roots, or congruent with --a
and --b) or --model custom with --spec FILE, a JSON spectrum document.

Each command returns its exit code and its stdout lines, and main alone
writes them, in one write once the command has returned; so a failure
leaves stdout empty, and a failing verify or --require-eligible still
prints its lines.  Exit codes: 0 success, 1 stdout closed early (as by
`| head -1`; stderr stays quiet), 2 usage error, 3 model or eligibility
error (an unreadable --spec too), 4 verification failure.  Output is
deterministic: identical invocations produce byte-identical bytes.  All
reals are printed with 15 significant digits; logs are natural unless
--log10 is passed.  --precision DIGITS (default 38) is the working precision
of its run alone: main leaves the caller's precision as it found it.
"""

import argparse
import json
import os
import sys
from fractions import Fraction

from mpmath import mp, mpf
from mpmath.libmp import mpf_div, mpf_exp, mpf_log, mpf_sub, to_str

from .asymptotics import (
    EXPLICIT,
    KHINTCHINE,
    kappa,
    log_estimate_explicit,
    log_estimate_khintchine,
    q_constant,
    to_decimal,
)
from .errors import DomainError, SpectrumSchemaError, SubexpError
from .exact import exact_coefficients, pentagonal_oracle, product_dp
from .model import custom_model, make_preset
from .precision import DEFAULT_DPS, shown, to_mpf
from .spectrum import (
    INELIGIBLE,
    derive_spectrum,
    load_custom_spectrum,
    validate_spectrum,
)
from .specfun import (
    hurwitz_zeta_deriv,
    hurwitz_zeta_exact,
    riemann_zeta,
    riemann_zeta_deriv,
)

EXACT_N_WARN = 20000

OK = 0
USAGE_ERROR = 2
MODEL_ERROR = 3
VERIFY_FAILURE = 4


def fmt(x) -> str:
    return mp.nstr(to_mpf(x), 15)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="subexp", description="Exact and asymptotic "
                                     "enumeration of multiplicative structures "
                                     "(weighted partitions).")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--precision", type=int, default=DEFAULT_DPS, metavar="DIGITS",
                        help="working precision in significant decimal digits "
                        "(default %(default)s)")
    selector = argparse.ArgumentParser(add_help=False)
    selector.add_argument("--model", required=True,
                          choices=["standard", "roots", "congruent", "custom"],
                          help="preset model, or 'custom' with --spec")
    selector.add_argument("--a", type=int, help="modulus for congruent")
    selector.add_argument("--b", type=int, help="residue for congruent")
    selector.add_argument("--spec", metavar="FILE", help="JSON file with keys poles "
                          "([{rho, h}, ...]), A0, h0, d_neg, and optionally weights "
                          "(b_1..b_N table for exact counting)")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", parents=[common, selector],
                       help="print spectral data")
    p.add_argument("--require-eligible", action="store_true",
                   help="exit nonzero when the spectrum admits no explicit formula")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("predict", parents=[common, selector],
                       help="asymptotic estimate at one n")
    p.add_argument("--n", type=int, required=True, help="target index n >= 1")
    p.add_argument("--formula", choices=[KHINTCHINE, EXPLICIT, "both"], default="both")
    p.add_argument("--log10", action="store_true", help="print base-10 logs")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("exact", parents=[common, selector],
                       help="exact coefficients c_0..c_N")
    p.add_argument("--N", type=int, required=True, help="truncation order")
    p.add_argument("--oracle", action="store_true", help="cross-check against an "
                   "independent algorithm; exit 4 on mismatch")
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("compare", parents=[common, selector],
                       help="exact vs predicted CSV")
    p.add_argument("--grid", metavar="START:STOP:STEP", help="arithmetic grid of n")
    p.add_argument("--geom", metavar="START:STOP:FACTOR", help="geometric grid of n")
    p.add_argument("--log10", action="store_true", help="print base-10 logs")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("verify", parents=[common],
                       help="run the built-in constant checks")
    p.set_defaults(func=cmd_verify)
    return parser


def _resolve_model(args, parser, countable=False):
    """Model selector -> (ModelSpec, SpectralData); the ModelSpec is None for
    a custom document without weights, unless countable makes that an error."""
    if args.model != "congruent" and (args.a is not None or args.b is not None):
        parser.error(f"--a and --b need --model congruent; got --model {args.model}")
    if args.model == "congruent" and (args.a is None or args.b is None):
        parser.error("--model congruent requires --a and --b")
    if args.model != "custom":
        if args.spec is not None:
            parser.error(f"--spec needs --model custom; got --model {args.model}")
        model = make_preset(args.model, args.a, args.b)
        return model, derive_spectrum(model)
    if not args.spec:
        parser.error("--model custom requires --spec FILE")
    try:
        with open(args.spec, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:  # its text names the file
        raise SubexpError(str(exc)) from None
    except ValueError as exc:  # bad UTF-8 or JSON, or an int past the str limit
        raise SpectrumSchemaError(f"{args.spec}: {exc}") from None
    sd = load_custom_spectrum(doc)
    if doc.get("weights") is not None:
        return custom_model(doc["weights"]), sd
    if countable:
        raise SubexpError("exact counting for a custom model needs a weights table "
                          "in the spec file")
    return None, sd


def _parse_grid(expr: str, geometric: bool, parser) -> list:
    parts = expr.split(":")
    if len(parts) != 3:
        parser.error(f"grid must be START:STOP:{'FACTOR' if geometric else 'STEP'}")
    try:
        start, stop, step = (int(p) for p in parts)
    except ValueError:
        parser.error(f"grid components must be integers; got {expr!r}")
    if start < 1 or stop > sys.maxsize:  # no list holds a grid past sys.maxsize
        parser.error("grid needs START >= 1 and STOP <= sys.maxsize")
    if step < 1 + geometric:
        parser.error("geometric FACTOR must be >= 2" if geometric
                     else "grid STEP must be >= 1")
    if not geometric:
        return list(range(start, stop + 1, step))
    out, n = [], start
    while n <= stop:
        out.append(n)
        n *= step
    return out


def cmd_spectrum(args, parser):
    _, sd = _resolve_model(args, parser)
    classification = validate_spectrum(sd)
    lines = [f"model: {sd.label}", f"r: {sd.r}",
             *(f"pole {l}: rho = {fmt(rho)}  h = {fmt(h)}"
               for l, (rho, h) in enumerate(sd.poles, start=1)),
             f"A0: {fmt(sd.A0)}", f"h0: {fmt(sd.h0)}", f"theta: {fmt(sd.theta)}",
             f"D(-l), l = 1..{len(sd.d_neg)}: {', '.join(map(fmt, sd.d_neg))}",
             f"gap 2*rho_(r-1) - rho_r: {'n/a' if sd.gap is None else fmt(sd.gap)}",
             f"classification: {classification}"]
    if classification != INELIGIBLE:
        lines += [f"kappa: {fmt(kappa(sd))}", f"Q: {fmt(q_constant(sd))}"]
    elif args.require_eligible:
        print("spectrum is ineligible for the explicit formula", file=sys.stderr)
        return MODEL_ERROR, lines
    return OK, lines


def cmd_predict(args, parser):
    if args.n < 1:
        parser.error(f"--n must be >= 1; got {args.n}")
    _, sd = _resolve_model(args, parser)
    formulas = (KHINTCHINE, EXPLICIT) if args.formula == "both" else (args.formula,)
    estimators = {KHINTCHINE: log_estimate_khintchine, EXPLICIT: log_estimate_explicit}
    label = "log10" if args.log10 else "log"
    lines = [f"model: {sd.label}", f"n: {args.n}"]
    for f in formulas:
        le = estimators[f](sd, args.n)
        value = le.log_value / mp.log(10) if args.log10 else le.log_value
        mantissa, exponent10 = to_decimal(le)
        lines += [f"{f} {label} c_n: {fmt(value)}",
                  f"{f} c_n ~ {mp.nstr(mantissa, 12)}e{exponent10}"]
    return OK, lines


def cmd_exact(args, parser):
    if args.N < 0:
        parser.error(f"--N must be >= 0; got {args.N}")
    if args.N > EXACT_N_WARN:
        print(f"warning: N={args.N} implies ~log2(N) levels of big-integer "
              "products over N coefficients; expect a long run", file=sys.stderr)
    model, _ = _resolve_model(args, parser, countable=True)
    series = exact_coefficients(model, args.N)
    try:
        lines = [f"{n} {series[n]}" for n in range(args.N + 1)]
    except ValueError:  # a c_n longer than sys.get_int_max_str_digits()
        raise DomainError(f"a c_n has over {sys.get_int_max_str_digits()} digits, "
                          "the int-to-str limit (PYTHONINTMAXSTRDIGITS)") from None
    if args.oracle:
        std = args.model == "standard"
        other = pentagonal_oracle(args.N) if std else product_dp(model, args.N)
        oracle_name = "pentagonal recurrence" if std else "direct product evaluation"
        bad = [n for n in range(args.N + 1) if series[n] != other[n]]
        if bad:
            print(f"oracle mismatch ({oracle_name}) at n = {bad[:10]}", file=sys.stderr)
            return VERIFY_FAILURE, []
        print(f"oracle check passed: {oracle_name}, N={args.N}", file=sys.stderr)
    return OK, lines


CSV_HEADER = (
    "n,exact_log,pred_khintchine_log,pred_explicit_log,"
    "ratio_khintchine,ratio_explicit"
)


def cmd_compare(args, parser):
    if (args.grid is None) == (args.geom is None):
        parser.error("compare needs exactly one of --grid or --geom")
    geometric = args.grid is None
    grid = _parse_grid(args.geom if geometric else args.grid, geometric, parser)
    model, sd = _resolve_model(args, parser, countable=True)
    series = exact_coefficients(model, max(grid, default=0))
    # rows on raw values, each comment the mpf expression; fmt(x) is to_str(x, 15)
    prec, rounding = mp._prec_rounding
    log10 = mp.log(10)._mpf_ if args.log10 else None

    def log_cell(x):  # fmt(x / mp.log(10)) with --log10, else fmt(x)
        return to_str(x if log10 is None else mpf_div(x, log10, prec, rounding), 15)

    rows = [CSV_HEADER]
    for n in grid:
        # mp.log(to_mpf(series[n])): an int enters exact, a Fraction rounded once, to nearest
        exact_log = mpf_log(to_mpf(series[n])._mpf_, prec, rounding)
        kh = log_estimate_khintchine(sd, n).log_value._mpf_
        ex = log_estimate_explicit(sd, n).log_value._mpf_
        # mp.exp(exact_log - pred) per prediction
        ratios = (mpf_exp(mpf_sub(exact_log, pred, prec, rounding), prec, rounding)
                  for pred in (kh, ex))
        rows.append(",".join([str(n), *map(log_cell, (exact_log, kh, ex)),
                              *(to_str(r, 15) for r in ratios)]))
    return OK, rows


def _verify_checks():
    """The built-in constant suite: (name, got, want, tolerance) rows.

    Each row checks a function that derive_spectrum runs: zeta at s <= 0
    is the exact Bernoulli value, and log Gamma(1/2) is read off Lerch's
    zeta'(0, 1/2) + log(2 pi)/2."""
    pi, log, sqrt = mp.pi, mp.log, mp.sqrt
    tight, loose = mpf("1e-13"), mpf("1e-12")
    exact_zeta = lambda m, q: to_mpf(hurwitz_zeta_exact(m, q))
    half, z2, z3 = mpf(1) / 2, pi**2 / 6, riemann_zeta(3)
    lerch = hurwitz_zeta_deriv(0, half)
    roots = make_preset("roots")
    std, sd_roots, cong = (derive_spectrum(m) for m in (
        make_preset("standard"), roots, make_preset("congruent", 2, 1)))
    expo = log_estimate_explicit(cong, 1000).terms["exponent_sum"]
    series = exact_coefficients(make_preset("standard"), 100)
    return [
        ("zeta(2) = pi^2/6", riemann_zeta(2), z2, tight),
        ("zeta(4) = pi^4/90", riemann_zeta(4), pi**4 / 90, tight),
        ("zeta(0) = -1/2", exact_zeta(0, 1), -half, tight),
        ("zeta(-1) = -1/12", exact_zeta(-1, 1), mpf(-1) / 12, tight),
        ("zeta'(0) = -log(2 pi)/2", riemann_zeta_deriv(0), -log(2 * pi) / 2, loose),
        ("zeta'(-1) = 1/12 - log(glaisher)", riemann_zeta_deriv(-1),
         mpf(1) / 12 - log(mp.glaisher), loose),
        *((f"hurwitz zeta(0, {b}/{a}) = 1/2 - {b}/{a}", exact_zeta(0, Fraction(b, a)),
           half - mpf(b) / a, tight) for a, b in ((2, 1), (3, 2), (10, 7))),
        ("hurwitz zeta'(0, 1/2) = -log(2)/2", lerch, -log(2) / 2, loose),
        ("log_gamma(1/2) = log(pi)/2", lerch + log(2 * pi) / 2, log(pi) / 2, loose),
        ("roots: b_5 = 11", to_mpf(roots.b(5)), mpf(11), mpf(0)),
        ("standard: h_1 = pi^2/6", std.poles[0].h, z2, tight),
        ("standard: A0 = -1/2", std.A0, -half, tight),
        ("standard: h0 = -log(2 pi)/2", std.h0, -log(2 * pi) / 2, loose),
        ("standard: D(-1) = 1/24", std.d_neg[0], mpf(1) / 24, tight),
        ("standard: kappa = -1", kappa(std), mpf(-1), tight),
        ("roots: A0 = -2/3", sd_roots.A0, mpf(-2) / 3, tight),
        ("roots: h_1 = zeta(2)", sd_roots.poles[0].h, z2, tight),
        ("roots: h_2 = 2 zeta(3)", sd_roots.poles[1].h, 2 * z3, tight),
        ("roots: critical (2 rho_1 - rho_2 = 0)", sd_roots.gap, mpf(0), tight),
        ("roots: kappa = -8/9", kappa(sd_roots), mpf(-8) / 9, loose),
        ("roots: Q = h0 - zeta(2)^2/(24 zeta(3))", q_constant(sd_roots),
         sd_roots.h0 - z2**2 / (24 * z3), loose),
        ("congruent(2,1): h_1 = zeta(2)/2", cong.poles[0].h, pi**2 / 12, tight),
        ("congruent(2,1): A0 = 0", cong.A0, mpf(0), tight),
        ("congruent(2,1): h0 = -log(2)/2", cong.h0, -log(2) / 2, loose),
        ("congruent(2,1): kappa = -3/4", kappa(cong), mpf(-3) / 4, loose),
        ("congruent(2,1): exponent at n=1000 is pi*sqrt(2n/(3a))", expo,
         pi * sqrt(mpf(2000) / 6), loose * abs(expo)),
        *((f"standard: explicit estimate at n={n} matches the leading "
           "Hardy-Ramanujan term", log_estimate_explicit(std, n).log_value,
           -log(4 * sqrt(3)) - log(n) + pi * sqrt(mpf(2 * n) / 3), mpf("1e-10"))
          for n in (10, 100, 1000)),
        ("standard: c_10 = 42", to_mpf(series[10]), mpf(42), mpf(0)),
        ("standard: c_100 = 190569292", to_mpf(series[100]), mpf(190569292), mpf(0)),
    ]


def cmd_verify(args, parser):
    checks = _verify_checks()
    failed = [not abs(got - want) <= tol for _, got, want, tol in checks]
    lines = [f"{name} FAIL: got {fmt(got)}, want {fmt(want)}" if bad else f"{name} OK"
             for bad, (name, got, want, _) in zip(failed, checks)]
    if any(failed):
        return VERIFY_FAILURE, lines + [f"{sum(failed)} of {len(checks)} checks failed"]
    return OK, lines + [f"all {len(checks)} checks passed"]


def main(argv=None) -> int:
    """Run one command and return its exit code.  The one writer of stdout:
    the command's lines go out in one print once it has returned, so a
    failure at any step leaves stdout empty."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if not 15 <= args.precision <= sys.maxsize:
            parser.error("bad precision: need an int dps >= 15; got "
                         + shown(args.precision))
        with mp.workdps(args.precision):  # the run's digits; the caller's come back
            code, lines = args.func(args, parser)
        if lines:
            print("\n".join(lines), flush=True)
        return code
    except SystemExit as exc:  # parser.error, or --help
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    except SubexpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return MODEL_ERROR
    except MemoryError:  # a size no allocation can hold, such as --N 10**18
        print("error: out of memory", file=sys.stderr)
        return MODEL_ERROR
    except BrokenPipeError:  # stdout's reader has gone, as under `| head -1`
        # stdout to devnull, so that the flush at exit does not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1  # Python's own exit code on EPIPE (its docs' note on SIGPIPE)


if __name__ == "__main__":
    sys.exit(main())
