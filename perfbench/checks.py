"""Output checks for the benchmark. Each check returns a list of problems;
an empty list means the output is correct.

The arithmetic here is independent of ffnewman: Legendre symbols come from
Euler's criterion and squarefreeness from a gcd written out below.
"""

from __future__ import annotations

import csv
import gzip
import json
import math
import random

LAMBDA_TOL = 1e-8  # sweep lambda against the recorded reference
ORDER_TOL = 1e-9  # bisect value against the double-zero lower bound
MAX_PROBLEMS = 20


def legendre(a: int, p: int) -> int:
    r = pow(a % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def poly_eval(coeffs, x: int, p: int) -> int:
    """coeffs ascending, constant term first."""
    v = 0
    for c in reversed(coeffs):
        v = (v * x + c) % p
    return v


def char_sum(coeffs, p: int) -> int:
    """sum over a in F_p of legendre(D(a)); |c_1| of a genus-1 L-function and
    |a_p| of an elliptic curve y^2 = D(x) both equal its absolute value."""
    return sum(legendre(poly_eval(coeffs, a, p), p) for a in range(p))


def _trim(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mod(a, b, p):
    a = _trim(a)
    inv = pow(b[-1], p - 2, p)
    while len(a) >= len(b):
        f = a[-1] * inv % p
        shift = len(a) - len(b)
        for i, bc in enumerate(b):
            a[shift + i] = (a[shift + i] - f * bc) % p
        a = _trim(a)
    return a


def is_squarefree(coeffs, p: int) -> bool:
    """gcd(D, D') is a nonzero constant."""
    a = _trim(coeffs)
    b = _trim([(i * c) % p for i, c in enumerate(a)][1:])
    if not b:
        return False
    while b:
        a, b = b, _poly_mod(a, b, p)
    return len(a) == 1


def genus1_lambda(c1: int, q: int) -> float:
    """Closed form log(|c_1| / (2 sqrt q)) of a genus-1 Newman constant."""
    return float("-inf") if c1 == 0 else math.log(abs(c1) / (2.0 * math.sqrt(q)))


def _num(text):
    if text in ("", None):
        return None
    if text == "-inf":
        return float("-inf")
    return float(text)


def _close(a, b, tol):
    if a is None or b is None:
        return a is b
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= tol


def _ints(text):
    return tuple(int(v) for v in text.split(",")) if text else ()


def read_reference(path) -> str:
    with gzip.open(path, "rt") as f:
        return f.read()


# --------------------------------------------------------------- sweeps


def parse_sweep(text: str):
    """(body rows, best rows, number of '# error:' comments). A row is
    (genus, d_coeffs, c_coeffs, method, lambda_text)."""
    body, best = [], []
    errors = 0
    lines = []
    for line in text.splitlines():
        if line.startswith("# error:"):
            errors += 1
        elif line and not line.startswith("#"):
            lines.append(line)
    reader = csv.reader(lines)
    header = next(reader, None)
    if header != ["genus", "d_coeffs", "c_coeffs", "method", "lambda_bound"]:
        raise ValueError("unexpected sweep header %r" % (header,))
    for row in reader:
        row = (int(row[0]), row[1], row[2], row[3], row[4])
        (best if row[3] in ("best_per_genus", "best_overall") else body).append(row)
    return body, best, errors


def check_sweep(text: str, ref_text: str, q: int) -> list:
    """The sweep output against the reference recorded for the same family.

    Every discriminant appears in the reference order; classified rows keep
    their c columns exactly and lambda within LAMBDA_TOL (a row with no bound
    at the reference must still have none); a reference error
    row may become a classified row, never the reverse. Best rows must be the
    first maximum of their genus. Genus-1 bisect rows must equal the closed
    form, with |c_1| checked against a direct character sum.
    """
    problems = []
    try:
        body, best, n_err = parse_sweep(text)
        rbody, _, _ = parse_sweep(ref_text)
    except (ValueError, IndexError) as e:
        return ["unparseable sweep output: %s" % e]

    def bad(msg):
        if len(problems) < MAX_PROBLEMS:
            problems.append(msg)

    if n_err != sum(1 for r in body if r[2] == ""):
        bad("error comments (%d) do not match error rows" % n_err)
    if [r[:2] for r in body] != [r[:2] for r in rbody]:
        bad("discriminant list differs from the reference (%d vs %d rows)" % (len(body), len(rbody)))
        return problems
    for r, ref in zip(body, rbody):
        g, d, c, method, lam = r
        if ref[2] == "":
            continue  # error at the reference: an answer now is allowed
        if c == "":
            bad("g=%d D=%s: error row, reference has an answer" % (g, d))
            continue
        if c != ref[2]:
            bad("g=%d D=%s: c=%s, reference %s" % (g, d, c, ref[2]))
        if not _close(_num(lam), _num(ref[4]), LAMBDA_TOL):
            bad("g=%d D=%s: lambda=%s, reference %s" % (g, d, lam, ref[4]))
        if g == 1 and method == "bisect":
            c1 = _ints(c)[1]
            if abs(c1) != abs(char_sum(_ints(d), q)):
                bad("g=1 D=%s: c_1=%d disagrees with the character sum" % (d, c1))
            if not _close(_num(lam), genus1_lambda(c1, q), LAMBDA_TOL):
                bad("g=1 D=%s: bisect %s != closed form %r" % (d, lam, genus1_lambda(c1, q)))
    problems += _check_best(body, best)
    return problems[:MAX_PROBLEMS]


def _check_best(body, best) -> list:
    firsts = {}
    overall = None
    for r in body:
        v = _num(r[4])
        if v is None:
            continue
        if r[0] not in firsts or v > _num(firsts[r[0]][4]):
            firsts[r[0]] = r
        if overall is None or v > _num(overall[4]):
            overall = r
    want = [(r[0], r[1], r[2], "best_per_genus", r[4]) for _, r in sorted(firsts.items())]
    if overall is not None:
        want.append(overall[:3] + ("best_overall", overall[4]))
    if best != want:
        return ["best rows %r differ from the maxima of the body %r" % (best[:3], want[:3])]
    return []


# --------------------------------------------------------------- queries


def check_query(q: int, d: tuple, rc: int, output, ref_rc: int) -> list:
    """One `newman --method all` answer. ref_rc is the exit code the same
    query had when the reference was recorded: a numerical failure there
    (rc 3) may become an answer, never the reverse. An rc 3 that the
    reference also had is counted as an error by the caller, not as a wrong
    answer."""
    if rc == 3:
        if ref_rc == 3:
            return []
        return ["q=%d D=%s: numerical failure, reference exited %r" % (q, d, ref_rc)]
    if rc != 0 or output is None:
        return ["q=%d D=%s: exit %r without output" % (q, d, rc)]
    try:
        out = json.loads(output)
        est = out["estimates"]
        g = out["g"]
        bis = est["bisect"]["value"]
        dz = est["double_zero"]["value"]
    except (ValueError, KeyError, TypeError) as e:
        return ["q=%d D=%s: malformed answer (%s)" % (q, d, e)]
    problems = []
    if g != (len(d) - 2) // 2:
        problems.append("q=%d D=%s: genus %r" % (q, d, g))
    bis = _num(bis) if isinstance(bis, str) else bis
    dz = _num(dz) if isinstance(dz, str) else dz
    if bis is None:
        problems.append("q=%d D=%s: no bisect value" % (q, d))
    elif dz is not None and not bis >= dz - ORDER_TOL:
        problems.append("q=%d D=%s: bisect %r below double-zero bound %r" % (q, d, bis, dz))
    if g == 1 and bis is not None:
        want = genus1_lambda(char_sum(d, q), q)
        exact = est["exact"]["value"]
        exact = _num(exact) if isinstance(exact, str) else exact
        if not (_close(bis, want, LAMBDA_TOL) and _close(exact, want, LAMBDA_TOL)):
            problems.append("q=%d D=%s: genus-1 bisect %r / exact %r != %r" % (q, d, bis, exact, want))
    return problems


# --------------------------------------------------------------- sato-tate


def odd_primes(n: int) -> list:
    mark = bytearray(n + 1)
    out = []
    for v in range(2, n + 1):
        if not mark[v]:
            if v > 2:
                out.append(v)
            mark[v * v :: v] = b"\x01" * len(range(v * v, n + 1, v))
    return out


def cubic_disc(dz) -> int:
    d, c, b, a = dz
    return 18 * a * b * c * d - 4 * b**3 * d + b**2 * c**2 - 4 * a * c**3 - 27 * a**2 * d**2


def check_sato(text: str, dz: tuple, pmax: int, seed: int, sample: int) -> list:
    """Every odd prime up to pmax is listed; only primes dividing the
    discriminant or the leading coefficient are skipped; a seeded sample of
    a_p matches a direct Euler-criterion count; theta and lambda follow from
    a_p; the reported supremum is the column maximum."""
    problems = []
    rows = []
    sup_text = None
    for line in text.splitlines():
        if line.startswith("# sup_lambda = "):
            sup_text = line.split(" = ", 1)[1]
        elif line and not line.startswith("#") and not line.startswith("p,"):
            rows.append(next(csv.reader([line])))
    ps = [int(r[0]) for r in rows]
    if ps != odd_primes(pmax):
        return ["prime list differs from the odd primes up to %d" % pmax]
    disc = cubic_disc(dz)
    good = []
    for r in rows:
        p = int(r[0])
        bad_p = disc % p == 0 or dz[3] % p == 0
        if bad_p != (r[4] != ""):
            problems.append("p=%d: skip=%r, expected %r" % (p, r[4], bad_p))
        elif not bad_p:
            good.append(r)
    rng = random.Random(seed)
    for r in rng.sample(good, min(sample, len(good))):
        p, a_p = int(r[0]), int(r[1])
        want = -char_sum(dz, p)
        if a_p != want:
            problems.append("p=%d: a_p=%d, Euler count gives %d" % (p, a_p, want))
            continue
        ratio = a_p / (2.0 * math.sqrt(p))
        if not _close(_num(r[2]), math.acos(ratio), 1e-9):
            problems.append("p=%d: theta %s" % (p, r[2]))
        if not _close(_num(r[3]), genus1_lambda(a_p, p), 1e-9):
            problems.append("p=%d: lambda %s" % (p, r[3]))
    lams = [_num(r[3]) for r in good]
    if lams and not _close(_num(sup_text), max(lams), 0.0):
        problems.append("sup_lambda %s is not the column maximum" % sup_text)
    return problems[:MAX_PROBLEMS]
