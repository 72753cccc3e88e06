"""Command-line surface.

Subcommands: lfun (one discriminant's data as JSON), newman (Lambda estimates
as JSON), table (the seven-row reference CSV over F_3), sweep (all good
discriminants up to a genus, CSV), sato-tate (one integer cubic over many
primes, CSV), classical (deformed Riemann xi samples, CSV).

Conventions: polynomials are ascending comma-separated integers (constant
term first); every CSV starts with two comment lines carrying the tool
version and the effective configuration; floats in CSV and JSON print with
12 significant digits (_fmt, the one place that format lives) and -inf
prints as "-inf". Exit codes: 0 success, 2 invalid input,
3 numerical failure, 130 interrupted sweep (partial rows plus a resume
token are flushed).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import sys

from . import __version__
from .classical import xi_t_classical
from .families import F3_GENUS_SERIES, check_sweep, sato_tate_sweep, sweep_fixed_q
from .finite_field import is_prime
from .fp_poly import FpPolynomial, parse_int_coeffs, poly_to_text, reduce_int_poly
from .lfunction import (
    LFunctionData,
    NumericalError,
    build_lfunction,
    good_pair_check,
    zeros_at_t,
)
from .newman import (
    NewmanEstimate,
    StoppleData,
    double_zero_lower_bound,
    has_repeated_root,
    lambda_bisect,
    lambda_exact_genus1,
    stopple_data,
)

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NUMERICAL = 3
EXIT_INTERRUPT = 130


def _fmt(v) -> str:
    """One value as output text: 12 significant digits, '-inf' sentinel,
    empty for missing. JSON floats are rounded through it (_json_value)."""
    if v is None:
        return ""
    if isinstance(v, float):
        if v == float("-inf"):
            return "-inf"
        return "%.12g" % v
    return str(v)


def _json_value(v):
    """A float for JSON, rounded as _fmt prints it; -inf stays "-inf"."""
    if v is None:
        return None
    text = _fmt(v)
    return text if text == "-inf" else float(text)


def lfunction_jsonable(L: LFunctionData) -> dict:
    """JSON-ready view: q, D text, g, integer c, phi at 12 significant digits."""
    return {
        "q": L.q,
        "D": poly_to_text(L.D),
        "g": L.g,
        "c": list(L.c),
        "phi": [_json_value(v) for v in L.phi],
    }


def newman_jsonable(e: NewmanEstimate) -> dict:
    return {
        "kind": e.kind,
        "value": _json_value(e.value),
        "bracket": None if e.bracket is None else [_json_value(v) for v in e.bracket],
        "tol": _json_value(e.tol),
        "notes": e.notes,
    }


def stopple_jsonable(sd: StoppleData) -> dict:
    return {
        "gamma": [_json_value(v) for v in sd.gamma],
        "gamma_tilde": [_json_value(v) for v in sd.gamma_tilde],
        "G": _json_value(sd.G),
        "condition_ok": sd.condition_ok,
        "bound": _json_value(sd.bound),
    }


@contextlib.contextmanager
def _output(path):
    if path is None:
        yield sys.stdout
        sys.stdout.flush()
    else:
        f = open(path, "w")
        try:
            yield f
        finally:
            f.close()


def _csv_begin(stream, config: dict, columns):
    stream.write("# ffnewman %s\n" % __version__)
    stream.write("# config: %s\n" % json.dumps(config, sort_keys=True))
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(columns)
    return writer


def _emit_json(stream, payload: dict) -> None:
    json.dump(payload, stream, indent=2)
    stream.write("\n")


def _load_good_pair(q: int, d_text: str) -> FpPolynomial:
    if q < 3 or not is_prime(q):
        raise ValueError("q must be an odd prime")
    D = reduce_int_poly(parse_int_coeffs(d_text), q)
    ok, reason = good_pair_check(q, D)
    if not ok:
        raise ValueError(reason)
    return D


def _coeff_text(coeffs) -> str:
    return ",".join(str(v) for v in coeffs)


def cmd_lfun(args) -> int:
    D = _load_good_pair(args.q, args.d)
    L = build_lfunction(args.q, D)
    zeros = zeros_at_t(L, 0.0)
    payload = {
        "version": __version__,
        "config": {"subcommand": "lfun", "q": args.q, "d": args.d},
    }
    payload.update(lfunction_jsonable(L))
    payload["gammas"] = [_json_value(v) for v in zeros.gammas]
    # exact: a repeated root of L is a multiple zero of Xi_0, which the
    # floating-point solve may split off the real axis and leave out of gammas
    payload["repeated_root"] = has_repeated_root(L)
    with _output(args.out) as f:
        _emit_json(f, payload)
    return EXIT_OK


def cmd_newman(args) -> int:
    D = _load_good_pair(args.q, args.d)
    L = build_lfunction(args.q, D)
    method = args.method
    estimates: dict = {}
    if method in ("exact", "all"):
        if L.g == 1:
            estimates["exact"] = newman_jsonable(lambda_exact_genus1(L))
        elif method == "exact":
            raise ValueError("exact method requires genus 1, got g=%d" % L.g)
        else:
            estimates["exact"] = None
    if method in ("bisect", "all"):
        estimates["bisect"] = newman_jsonable(lambda_bisect(L, tol_t=args.tol))
    if method in ("double-zero", "all"):
        estimates["double_zero"] = newman_jsonable(double_zero_lower_bound(L))
    if method in ("stopple", "all"):
        try:
            estimates["stopple"] = stopple_jsonable(stopple_data(L))
        except ValueError as e:
            if method == "stopple":
                raise
            estimates["stopple"] = {"error": str(e)}
    payload = {
        "version": __version__,
        "config": {
            "subcommand": "newman",
            "q": args.q,
            "d": args.d,
            "method": method,
            "tol": args.tol,
        },
        "q": L.q,
        "D": args.d,
        "g": L.g,
        "estimates": estimates,
    }
    with _output(args.out) as f:
        _emit_json(f, payload)
    return EXIT_OK


def cmd_table(args) -> int:
    with _output(args.out) as f:
        writer = _csv_begin(
            f,
            {"subcommand": "table", "q": 3},
            ["genus", "d_coeffs", "c_coeffs", "double_zero_bound"],
        )
        for dco in F3_GENUS_SERIES:
            L = build_lfunction(3, FpPolynomial(dco, 3))
            est = double_zero_lower_bound(L)
            writer.writerow(
                [
                    L.g,
                    _coeff_text(dco),
                    _coeff_text(L.c[: L.g + 1]),
                    _fmt(est.value),
                ]
            )
    return EXIT_OK


def _next_enum_position(q: int, degree: int, index: int):
    if index + 1 < q**degree:
        return degree, index + 1
    return degree + 2, 0


def cmd_sweep(args) -> int:
    method = args.method.replace("-", "_")
    start = None
    if args.resume_from:
        try:
            deg_s, idx_s = args.resume_from.split(":")
            start = (int(deg_s), int(idx_s))
        except ValueError:
            raise ValueError("resume token must look like DEGREE:INDEX")
    # rejected input leaves no output behind, not even the CSV header
    check_sweep(args.q, args.max_genus, method, start)
    config = {
        "subcommand": "sweep",
        "q": args.q,
        "max_genus": args.max_genus,
        "method": args.method,
        "resume_from": args.resume_from,
    }
    columns = ["genus", "d_coeffs", "c_coeffs", "method", "lambda_bound"]
    with _output(args.out) as f:
        writer = _csv_begin(f, config, columns)
        last_written = [start or (3, 0), False]

        def item_row(item, method_label):
            g = (item.degree - 1) // 2
            ctext = "" if item.c is None else _coeff_text(item.c[: g + 1])
            value = None if item.estimate is None else item.estimate.value
            writer.writerow(
                [g, _coeff_text(item.d_coeffs), ctext, method_label, _fmt(value)]
            )

        def on_item(item):
            item_row(item, method)
            if item.error is not None:
                f.write(
                    "# error: degree=%d index=%d: %s\n"
                    % (item.degree, item.index, item.error)
                )
            last_written[0] = (item.degree, item.index)
            last_written[1] = True

        try:
            report = sweep_fixed_q(
                args.q,
                args.max_genus,
                method=method,
                workers=args.workers,
                start=start,
                on_item=on_item,
            )
        except KeyboardInterrupt:
            deg, idx = last_written[0]
            if last_written[1]:
                deg, idx = _next_enum_position(args.q, deg, idx)
            f.write("# resume_token: degree=%d index=%d\n" % (deg, idx))
            f.flush()
            return EXIT_INTERRUPT
        for g in sorted(report.best_per_genus):
            item_row(report.best_per_genus[g], "best_per_genus")
        if report.best_overall is not None:
            item_row(report.best_overall, "best_overall")
    return EXIT_OK


def cmd_sato_tate(args) -> int:
    dz = parse_int_coeffs(args.dz)
    report = sato_tate_sweep(dz, args.pmax, workers=args.workers)
    config = {"subcommand": "sato-tate", "dz": args.dz, "pmax": args.pmax}
    columns = ["p", "a_p", "theta_p", "lambda_p", "skipped_reason"]
    stats = report.statistics
    with _output(args.out) as f:
        writer = _csv_begin(f, config, columns)
        for r in report.items:
            writer.writerow(
                [
                    r.p,
                    "" if r.a_p is None else r.a_p,
                    _fmt(r.theta_p),
                    _fmt(r.lambda_p),
                    r.skipped or "",
                ]
            )
        f.write("# sup_lambda = %s\n" % (_fmt(stats["sup_lambda"]) or "none"))
        f.write("# argmax_p = %s\n" % (_fmt(stats["argmax_p"]) or "none"))
        f.write("# ks_distance = %s\n" % (_fmt(stats["ks_distance"]) or "none"))
    return EXIT_OK


def cmd_classical(args) -> int:
    if abs(args.t) > 2.0:
        raise ValueError("|t| must be <= 2")
    if args.step <= 0:
        raise ValueError("step must be positive")
    if args.x_max < args.x_min:
        raise ValueError("x-max must be >= x-min")
    config = {
        "subcommand": "classical",
        "t": args.t,
        "x_min": args.x_min,
        "x_max": args.x_max,
        "step": args.step,
        "quad_points": args.quad_points,
    }
    n = int(math.floor((args.x_max - args.x_min) / args.step + 1e-9))
    with _output(args.out) as f:
        writer = _csv_begin(f, config, ["x", "xi_t"])
        for k in range(n + 1):
            x = args.x_min + k * args.step
            writer.writerow(
                [_fmt(float(x)), _fmt(xi_t_classical(args.t, x, quad_points=args.quad_points))]
            )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ffnewman",
        description="Quadratic L-functions over F_p(T), heat-flow deformation "
        "and Newman-constant bounds.",
    )
    sub = ap.add_subparsers(dest="subcommand", required=True)
    default_workers = os.cpu_count() or 1

    def add_out(p):
        p.add_argument("--out", default=None, help="output file (default: stdout)")

    def add_pair(p):
        p.add_argument("--q", type=int, required=True, help="odd prime field size")
        p.add_argument(
            "--d",
            required=True,
            help="discriminant: ascending comma-separated coefficients, reduced mod q",
        )

    p = sub.add_parser("lfun", help="coefficients, Fourier data and zeros as JSON")
    add_pair(p)
    add_out(p)
    p.set_defaults(func=cmd_lfun)

    p = sub.add_parser("newman", help="Lambda_D estimates as JSON")
    add_pair(p)
    p.add_argument(
        "--method",
        choices=["exact", "bisect", "double-zero", "stopple", "all"],
        default="all",
    )
    p.add_argument(
        "--tol", type=float, default=1e-10, help="bisection width in t (default 1e-10)"
    )
    add_out(p)
    p.set_defaults(func=cmd_newman)

    p = sub.add_parser("table", help="reference seven-row table over F_3 as CSV")
    add_out(p)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("sweep", help="all good discriminants up to a genus, CSV")
    p.add_argument("--q", type=int, required=True, help="odd prime field size")
    p.add_argument("--max-genus", type=int, required=True)
    p.add_argument(
        "--method", choices=["double-zero", "bisect"], default="double-zero"
    )
    p.add_argument("--workers", type=int, default=default_workers)
    p.add_argument(
        "--resume-from",
        default=None,
        metavar="DEGREE:INDEX",
        help="resume an interrupted sweep from this enumeration position",
    )
    add_out(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("sato-tate", help="one integer cubic over many primes, CSV")
    p.add_argument(
        "--dz",
        required=True,
        help="integer cubic: ascending comma-separated coefficients, kept over Z",
    )
    p.add_argument("--pmax", type=int, required=True)
    p.add_argument("--workers", type=int, default=default_workers)
    add_out(p)
    p.set_defaults(func=cmd_sato_tate)

    p = sub.add_parser("classical", help="deformed Riemann xi samples, CSV")
    p.add_argument("--t", type=float, required=True, help="deformation time, |t| <= 2")
    p.add_argument("--x-min", type=float, required=True)
    p.add_argument("--x-max", type=float, required=True)
    p.add_argument("--step", type=float, required=True)
    p.add_argument("--quad-points", type=int, default=2000)
    add_out(p)
    p.set_defaults(func=cmd_classical)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_INVALID
    except NumericalError as e:
        print("numerical failure: %s" % e, file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
