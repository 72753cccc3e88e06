"""Command-line surface.

Subcommands: lfun (one discriminant's data as JSON), newman (Lambda estimates
as JSON), table (the seven-row reference CSV over F_3), sweep (all good
discriminants up to a genus, CSV), sato-tate (one integer cubic over many
primes, CSV), classical (deformed Riemann xi samples, CSV).

Conventions: polynomials are ascending comma-separated integers (constant
term first); every CSV starts with two comment lines carrying the tool
version and the effective configuration, and its rows are formatted by hand,
a field that holds a comma (a coefficient list) in quotes: no field holds a
quote or a line break. Floats in CSV and JSON print with 12 significant
digits (_fmt, the one place that format lives) and -inf prints as "-inf".
Library warnings print as one "warning: <message>" line on stderr. Exit
codes: 0 success, 2 invalid input, 3 numerical failure, 130 interrupted
sweep (partial rows plus a resume token are flushed).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import os
import sys
import warnings
from functools import lru_cache

# before numpy loads: no work here uses BLAS threads, and idle OpenBLAS ones spin
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import __version__
from .classical import check_quad_points, xi_t_classical
from .families import (
    F3_GENUS_SERIES,
    MAX_WORKERS,
    check_sweep,
    sato_tate_sweep,
    sweep_fixed_q,
)
from .fp_poly import FpPolynomial, parse_int_coeffs, poly_to_text
from .lfunction import (
    LFunctionData,
    NumericalError,
    build_lfunction,
    zeros_at_t,
)
from .newman import (
    check_tol,
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

# rows one classical grid may have (each costs about a millisecond)
CLASSICAL_MAX_ROWS = 10**5


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


def dataclass_jsonable(v):
    """JSON-ready view of a NewmanEstimate or StoppleData, keyed by its fields
    in order, or of one field value: strings and bools as they are, tuples as
    lists, every other value (numbers, None) through _json_value."""
    if isinstance(v, (str, bool)):
        return v
    if isinstance(v, tuple):
        return [dataclass_jsonable(x) for x in v]
    if dataclasses.is_dataclass(v):
        return {f.name: dataclass_jsonable(getattr(v, f.name)) for f in dataclasses.fields(v)}
    return _json_value(v)


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


def _csv_begin(stream, config: dict, columns) -> None:
    stream.write("# ffnewman %s\n" % __version__)
    stream.write("# config: %s\n" % json.dumps(config, sort_keys=True))
    stream.write(",".join(columns) + "\n")


def _emit_json(stream, payload: dict) -> None:
    stream.write(json.dumps(payload, indent=2) + "\n")


def _coeff_text(coeffs) -> str:
    return ",".join(map(str, coeffs))


def cmd_lfun(args) -> int:
    # FpPolynomial checks q, build_lfunction the pair (ValueError: exit 2)
    L = build_lfunction(args.q, FpPolynomial(parse_int_coeffs(args.d), args.q))
    zeros = zeros_at_t(L, 0.0)
    payload = {
        "version": __version__,
        "config": {"subcommand": "lfun", "q": args.q, "d": args.d},
    }
    payload.update(lfunction_jsonable(L))
    payload["gammas"] = [_json_value(v) for v in zeros.gammas]
    # exact: a repeated root of L is a multiple zero of Xi_0, which the
    # floating-point solve may split off the real axis and leave out of gammas
    payload["repeated_root"] = has_repeated_root(L.c)
    with _output(args.out) as f:
        _emit_json(f, payload)
    return EXIT_OK


def cmd_newman(args) -> int:
    check_tol(args.tol)  # for every method: the config echoes it as JSON
    L = build_lfunction(args.q, FpPolynomial(parse_int_coeffs(args.d), args.q))
    method = args.method
    estimates: dict = {}
    if method in ("exact", "all"):
        if L.g == 1:
            estimates["exact"] = dataclass_jsonable(lambda_exact_genus1(L))
        elif method == "exact":
            raise ValueError("exact method requires genus 1, got g=%d" % L.g)
        else:
            estimates["exact"] = None
    if method in ("bisect", "all"):
        estimates["bisect"] = dataclass_jsonable(lambda_bisect(L, tol_t=args.tol))
    if method in ("double-zero", "all"):
        estimates["double_zero"] = dataclass_jsonable(double_zero_lower_bound(L))
    if method in ("stopple", "all"):
        try:
            estimates["stopple"] = dataclass_jsonable(stopple_data(L))
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
        _csv_begin(
            f,
            {"subcommand": "table", "q": 3},
            ["genus", "d_coeffs", "c_coeffs", "double_zero_bound"],
        )
        for dco in F3_GENUS_SERIES:
            L = build_lfunction(3, FpPolynomial(dco, 3))
            value = _fmt(double_zero_lower_bound(L).value)
            fields = (L.g, _coeff_text(dco), _coeff_text(L.c[: L.g + 1]), value)
            f.write('%d,"%s","%s",%s\n' % fields)
    return EXIT_OK


def _next_enum_position(q: int, degree: int, index: int):
    if index + 1 < q**degree:
        return degree, index + 1
    return degree + 2, 0


# the most entries one digit-text table of the sweep writer holds
DIGIT_TEXTS_MAX = 1024


@lru_cache(maxsize=32)
def _digit_texts(q: int, width: int) -> tuple:
    """The text of each v < q^width as its width base-q digits, most
    significant first, comma-separated."""
    digits = [str(d) for d in range(q)]
    texts = digits
    for _ in range(width - 1):  # v = u q + d is the text of u, then d
        texts = [u + "," + d for u in texts for d in digits]
    return tuple(texts)


def _d_texts(q: int, degree: int, ks) -> list:
    """The d_coeffs text of each monic D of the given degree and indices ks
    (monic_by_index order): c_0..c_(degree-1), the base-q digits of k from
    the most significant, then the monic 1. k is cut into parts of at most
    w digits, q^w <= DIGIT_TEXTS_MAX, whose texts come from cached tables."""
    w = 1
    while q ** (w + 1) <= DIGIT_TEXTS_MAX:
        w += 1
    parts = [("1",) * len(ks)]  # least significant part first
    rest = ks
    for low in range(0, degree, w):
        width = min(w, degree - low)
        rest, part = np.divmod(rest, q**width)
        parts.append(list(map(_digit_texts(q, width).__getitem__, part.tolist())))
    return list(map(",".join, zip(*reversed(parts))))


def _sweep_lines(g: int, d_texts, c, values, errors, which, label: str) -> list:
    """The sweep CSV lines of genus-g rows: row i is D text d_texts[i], then
    the key c[which[i]] (c_0..c_g) and its value values[which[i]], as in
    SweepBlock, then the method label. Each key's text after D is formatted
    once. The D and c fields always hold a comma (g >= 1) and no field a
    quote or a line break, so quoting those two is all the CSV escaping
    there is; a key in errors prints c and value empty, a NaN value (no
    bound) the value."""
    tails = [
        '",,%s,\n' % label
        if i in errors
        else '","%s",%s,%s\n' % (_coeff_text(key), label, "" if math.isnan(v) else _fmt(v))
        for i, (key, v) in enumerate(zip(c, values))
    ]
    prefix = '%d,"' % g
    return [prefix + d + tails[i] for d, i in zip(d_texts, which)]


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
    check_sweep(args.q, args.max_genus, method, start, args.workers)
    config = {
        "subcommand": "sweep",
        "q": args.q,
        "max_genus": args.max_genus,
        "method": args.method,
        "resume_from": args.resume_from,
    }
    columns = ["genus", "d_coeffs", "c_coeffs", "method", "lambda_bound"]
    with _output(args.out) as f:
        _csv_begin(f, config, columns)
        resume = start or (3, 0)  # the position after the last row written

        def on_block(block):
            """Write the block's rows, D texts from the digit tables and the
            rest from _sweep_lines, and any error line after its row (its
            text from the row's SweepItem), in one write."""
            nonlocal resume
            if not len(block.ks):
                return
            g = (block.degree - 1) // 2
            d_texts = _d_texts(args.q, block.degree, block.ks)
            values, which = block.results["value"].tolist(), block.which.tolist()
            lines = _sweep_lines(g, d_texts, block.c, values, block.errors, which, method)
            rows = np.flatnonzero(np.isin(block.which, list(block.errors)))
            for r, it in zip(rows.tolist(), block.items(rows)):
                lines[r] += "# error: degree=%d index=%d: %s\n" % (it.degree, it.index, it.error)
            f.write("".join(lines))
            resume = _next_enum_position(args.q, block.degree, int(block.ks[-1]))

        def write_best(item, label):
            g = (item.degree - 1) // 2
            row = [_coeff_text(item.d_coeffs)], [item.c[: g + 1]], [item.estimate.value]
            f.write(_sweep_lines(g, *row, {}, [0], label)[0])

        try:
            report = sweep_fixed_q(
                args.q,
                args.max_genus,
                method=method,
                workers=args.workers,
                start=start,
                on_block=on_block,
            )
        except KeyboardInterrupt:
            f.write("# resume_token: degree=%d index=%d\n" % resume)
            f.flush()
            return EXIT_INTERRUPT
        for g in sorted(report.best_per_genus):
            write_best(report.best_per_genus[g], "best_per_genus")
        if report.best_overall is not None:
            write_best(report.best_overall, "best_overall")
    return EXIT_OK


def cmd_sato_tate(args) -> int:
    dz = parse_int_coeffs(args.dz)
    report = sato_tate_sweep(dz, args.pmax, workers=args.workers)
    config = {"subcommand": "sato-tate", "dz": args.dz, "pmax": args.pmax}
    columns = ["p", "a_p", "theta_p", "lambda_p", "skipped_reason"]
    stats = report.statistics
    with _output(args.out) as f:
        _csv_begin(f, config, columns)
        for r in report.items:
            fields = (r.p, _fmt(r.a_p), _fmt(r.theta_p), _fmt(r.lambda_p), r.skipped or "")
            f.write("%d,%s,%s,%s,%s\n" % fields)
        f.write("# sup_lambda = %s\n" % (_fmt(stats["sup_lambda"]) or "none"))
        f.write("# argmax_p = %s\n" % (_fmt(stats["argmax_p"]) or "none"))
        f.write("# ks_distance = %s\n" % (_fmt(stats["ks_distance"]) or "none"))
    return EXIT_OK


def cmd_classical(args) -> int:
    if not abs(args.t) <= 2.0:
        raise ValueError("|t| must be <= 2")
    if not all(math.isfinite(v) for v in (args.x_min, args.x_max, args.step)):
        raise ValueError("x-min, x-max and step must be finite")
    if args.step <= 0:
        raise ValueError("step must be positive")
    if args.x_max < args.x_min:
        raise ValueError("x-max must be >= x-min")
    span = (args.x_max - args.x_min) / args.step + 1e-9  # inf if it overflows
    if not span < CLASSICAL_MAX_ROWS:
        raise ValueError("the grid would have more than %d rows" % CLASSICAL_MAX_ROWS)
    check_quad_points(args.quad_points)
    config = {
        "subcommand": "classical",
        "t": args.t,
        "x_min": args.x_min,
        "x_max": args.x_max,
        "step": args.step,
        "quad_points": args.quad_points,
    }
    n = int(math.floor(span))
    with _output(args.out) as f:
        _csv_begin(f, config, ["x", "xi_t"])
        for k in range(n + 1):
            x = args.x_min + k * args.step
            xi = xi_t_classical(args.t, x, quad_points=args.quad_points)
            f.write("%s,%s\n" % (_fmt(float(x)), _fmt(xi)))
    return EXIT_OK


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared: parse_args
    leaves it unchanged, and each call returns a fresh namespace."""
    ap = argparse.ArgumentParser(
        prog="ffnewman",
        description="Quadratic L-functions over F_p(T), heat-flow deformation "
        "and Newman-constant bounds.",
    )
    sub = ap.add_subparsers(dest="subcommand", required=True)
    default_workers = min(os.cpu_count() or 1, MAX_WORKERS)

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


def _print_warning(message, category, filename, lineno, file=None, line=None):
    """warnings.showwarning for the CLI: one line, with no source path or
    line number, so stderr does not depend on where the package lives."""
    print("warning: %s" % message, file=sys.stderr)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings():
        warnings.showwarning = _print_warning
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
