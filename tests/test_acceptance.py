"""Acceptance gates: nine end-to-end checks, one printed verdict line each.

Run as part of the normal pytest suite; each test prints
[criterion N] PASS/FAIL plus a short measurement summary even under capture.
"""

import random
import time

from ffnewman.classical import xi_t_classical
from ffnewman.families import F3_GENUS_SERIES, sato_tate_sweep
from ffnewman.fp_poly import FpPolynomial, is_irreducible, is_squarefree
from ffnewman.lfunction import build_lfunction, zeros_at_t
from ffnewman.newman import (
    all_zeros_real,
    double_zero_lower_bound,
    lambda_bisect,
    lambda_exact_genus1,
    strip_bound,
)

from oracles import (
    _chi_rows,
    _mod_monic,
    chi,
    enumerate_monic,
    enumerated_coefficients,
    monic_index,
    mul,
    squarefree_monic,
)

# Reference seven-row table over F_3: exact integer coefficient vectors and
# the published double-zero lower bounds (matched to 1% relative).
TABLE_ROWS = {
    (1, 2, 0, 1): ((1, -3), -1.44e-1),
    (1, 1, 0, 1, 0, 1): ((1, -3, 5), -5.28e-2),
    (2, 2, 2, 1, 0, 2, 0, 1): ((1, -1, 1, -7), -1.26e-2),
    (1, 1, 1, 1, 1, 0, 1, 0, 0, 1): ((1, -3, 9, -23, 39), -1.05e-3),
    (1, 2, 1, 0, 2, 2, 2, 2, 1, 2, 0, 1): ((1, -3, 5, -3, -11, 27), -1.23e-4),
    (1, 2, 0, 1, 2, 0, 2, 2, 0, 0, 1, 2, 0, 1): ((1, -1, 3, -7, 5, -13, 11), -3.02e-5),
    (2, 1, 2, 1, 0, 0, 2, 0, 1, 2, 0, 0, 0, 0, 2, 1): (
        (1, 1, 5, 3, 1, -15, -51, -101),
        -1.28e-5,
    ),
}

# Genus-2 worked example over F_5 with Phi = (-1, -sqrt5, 5), and the
# one-constant variant with Phi_0 = +1 that shares every other coefficient.
D_MAIN = (2, 1, 0, 1, 2, 1)
D_VARIANT = (2, 2, 0, 1, 1, 1)

# Frozen first-run fixtures for the Sato-Tate desk run (criterion 7).
SATO_SUP = -0.004368170813976652
SATO_ARGMAX = 9887
SATO_KS = 0.025247180284933668


def _report(capsys, n, bad, detail):
    ok = not bad
    line = "[criterion %d] %s  %s" % (n, "PASS" if ok else "FAIL", detail)
    if bad:
        line += "  | " + "; ".join(str(b) for b in bad[:4])
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def test_criterion_1_reference_table(capsys):
    t0 = time.time()
    bad = []
    worst = 0.0
    for dco, (c_expect, bound_expect) in TABLE_ROWS.items():
        L = build_lfunction(3, FpPolynomial(dco, 3))
        got_c = L.c[: L.g + 1]
        if got_c != c_expect:
            bad.append("c mismatch at g=%d: %s" % (L.g, (got_c,)))
            continue
        est = double_zero_lower_bound(L)
        rel = abs(est.value - bound_expect) / abs(bound_expect)
        worst = max(worst, rel)
        if rel > 0.01:
            bad.append("bound off at g=%d: %.6g vs %.6g" % (L.g, est.value, bound_expect))
    elapsed = time.time() - t0
    assert tuple(F3_GENUS_SERIES) == tuple(TABLE_ROWS)
    if elapsed >= 60.0:
        bad.append("runtime %.1fs" % elapsed)
    _report(
        capsys, 1, bad,
        "7 rows, exact c vectors, worst bound deviation %.2f%%, %.2fs" % (100 * worst, elapsed),
    )


def test_criterion_2_worked_example(capsys):
    bad = []
    L = build_lfunction(5, FpPolynomial(D_MAIN, 5))
    if L.phi_exact != ((-1, 0), (-1, 1), (1, 2)):
        bad.append("phi_exact %s" % (L.phi_exact,))
    b = lambda_bisect(L)
    if abs(b.value - (-0.1884)) > 5e-4:
        bad.append("bisect %.6g" % b.value)
    dz = double_zero_lower_bound(L)
    if abs(dz.value - b.value) > 1e-6:
        bad.append("double-zero bound %.6g vs bisect %.6g" % (dz.value, b.value))
    for t in [0.0, -0.1, -0.1884, -0.2, -0.25, -0.3]:
        z = zeros_at_t(L, t)
        if len(z.xs) != 4:
            bad.append("zero count %d at t=%g" % (len(z.xs), t))
    # companion instance differing only in the constant Fourier term; its
    # exact coefficient vector and both Lambda routes are pinned as well
    Lv = build_lfunction(5, FpPolynomial(D_VARIANT, 5))
    if Lv.c != (1, -1, 1, -5, 25):
        bad.append("variant c %s" % (Lv.c,))
    bv = lambda_bisect(Lv)
    dzv = double_zero_lower_bound(Lv)
    if abs(bv.value - (-0.4042265776529523)) > 1e-6:
        bad.append("variant bisect %.6g" % bv.value)
    if abs(dzv.value - bv.value) > 1e-6:
        bad.append("variant bound gap")
    for t in [0.0, -0.2, -0.45]:
        if len(zeros_at_t(Lv, t).xs) != 4:
            bad.append("variant zero count at t=%g" % t)
    _report(
        capsys, 2, bad,
        "Phi=(-1,-sqrt5,5) exact, bisect %.6f, |dz-bisect|=%.1e, 4 zeros at all sampled t"
        % (b.value, abs(dz.value - b.value)),
    )


def test_criterion_3_minus_infinity(capsys):
    bad = []
    L = build_lfunction(3, FpPolynomial((0, 1, 0, 1), 3))
    if L.phi_exact[0] != (0, 0):
        bad.append("Phi_0 not 0")
    e = lambda_bisect(L)
    if e.kind != "minus_infinity" or e.value != float("-inf"):
        bad.append("kind=%s value=%s" % (e.kind, e.value))
    if e.bracket is not None:
        bad.append("bracket search ran despite algebraic case")
    e2 = lambda_exact_genus1(L)
    if e2.kind != "minus_infinity":
        bad.append("closed form disagrees")
    _report(capsys, 3, bad, "T^3+T over F_3: algebraic minus_infinity on both routes")


def test_criterion_4_cubic_cross_method(capsys):
    t0 = time.time()
    bad = []
    counts = {}
    worst_eb = 0.0
    worst_dz = 0.0
    for p in (3, 5, 7):
        n = 0
        for D in squarefree_monic(p, 3):
            n += 1
            L = build_lfunction(p, D)
            exact = lambda_exact_genus1(L)
            bis = lambda_bisect(L)
            if exact.kind == "minus_infinity":
                if bis.kind != "minus_infinity":
                    bad.append("bisect missed -inf at %s/%d" % (D, p))
                continue
            worst_eb = max(worst_eb, abs(exact.value - bis.value))
            if abs(exact.value - bis.value) > 1e-6:
                bad.append("exact vs bisect %s/%d" % (D, p))
            dz = double_zero_lower_bound(L, at_pi=L.c[1] > 0)
            if dz.kind != "double_zero_lower_bound":
                bad.append("no double-zero bound for %s/%d" % (D, p))
                continue
            worst_dz = max(worst_dz, abs(dz.value - exact.value))
            if abs(dz.value - exact.value) > 1e-6:
                bad.append("dz vs exact %s/%d" % (D, p))
        counts[p] = n
    elapsed = time.time() - t0
    if (counts[3], counts[5], counts[7]) != (18, 100, 294):
        bad.append("case counts %s" % (counts,))
    if elapsed >= 60.0:
        bad.append("runtime %.1fs" % elapsed)
    _report(
        capsys, 4, bad,
        "412 cubics: max|exact-bisect|=%.2e, max|dz-exact|=%.2e, %.2fs"
        % (worst_eb, worst_dz, elapsed),
    )


def test_criterion_5_structural_identities(capsys):
    t0 = time.time()
    bad = []
    checked = 0
    worst_circle = 0.0
    for q, degs in [(3, (3, 5, 7)), (5, (3, 5))]:
        for deg in degs:
            g = (deg - 1) // 2
            for D in squarefree_monic(q, deg):
                # c_0..c_2g and c_(deg D), all as character sums
                c = enumerated_coefficients(q, D, deg)
                c, c_deg = c[:-1], c[-1]
                checked += 1
                if c[0] != 1:
                    bad.append("c_0 != 1 for %s/%d" % (D, q))
                if any(c[g + n] != q**n * c[g - n] for n in range(1, g + 1)):
                    bad.append("functional equation broken for %s/%d" % (D, q))
                if c_deg != 0:
                    bad.append("continuation coefficient nonzero for %s/%d" % (D, q))
                L = build_lfunction(q, D)
                if L.c != c:
                    bad.append("build_lfunction c != enumeration for %s/%d" % (D, q))
                z = zeros_at_t(L, 0.0)
                worst_circle = max(worst_circle, z.delta)
                if z.nonreal or z.delta > 1e-8 or len(z.xs) != 2 * g:
                    bad.append("off-circle zero for %s/%d" % (D, q))
                if is_irreducible(D) and any(v % 2 == 0 for v in c[: g + 1]):
                    bad.append("even coefficient for irreducible %s/%d" % (D, q))
                if bad and len(bad) > 8:
                    break
    elapsed = time.time() - t0
    _report(
        capsys, 5, bad,
        "%d discriminants: c_0=1, FE integer-exact, c_degD=0, max dist to unit circle %.1e, %.1fs"
        % (checked, worst_circle, elapsed),
    )


def test_criterion_6_character_oracle(capsys):
    t0 = time.time()
    bad = []
    pairs = 0
    # exhaustive grid over F_3; oracle values from _chi_rows, once per D
    moduli3 = [
        D for n in range(1, 6) for D in enumerate_monic(3, n) if is_squarefree(D)
    ]
    fs3 = [f for n in range(0, 6) for f in enumerate_monic(3, n)]
    for D in moduli3:
        rows = _chi_rows(3, D, 5)
        for f in fs3:
            pairs += 1
            if chi(D, f) != rows[f.degree][monic_index(f)]:
                bad.append("grid mismatch D=%s f=%s" % (D, f))
                break
        if bad:
            break
    # random pairs over F_5 and F_7, checked grouped by D
    rng = random.Random(600613)
    rand_pairs = []
    for p in (5, 7):
        moduli = [
            D for n in range(1, 5) for D in enumerate_monic(p, n) if is_squarefree(D)
        ]
        by_d = {}
        for _ in range(5000):
            D = rng.choice(moduli)
            f = FpPolynomial(
                tuple(rng.randrange(p) for _ in range(rng.randrange(6))) + (1,), p
            )
            rand_pairs.append((D, f))
            by_d.setdefault(D, []).append(f)
        for D, fs in by_d.items():
            rows = _chi_rows(p, D, max(f.degree for f in fs))
            for f in fs:
                pairs += 1
                if chi(D, f) != rows[f.degree][monic_index(f)]:
                    bad.append("random mismatch p=%d D=%s f=%s" % (p, D, f))
                    break
    # multiplicativity and periodicity on the same material; every f is monic
    def mod(f, D):
        return FpPolynomial(_mod_monic(f.coeffs, D.coeffs, D.p), D.p)

    for k in range(0, len(rand_pairs) - 1, 7):
        D, f = rand_pairs[k]
        _, h = rand_pairs[k + 1]
        if h.p != D.p:
            continue
        if chi(D, mul(f, h)) != chi(D, f) * chi(D, h):
            bad.append("multiplicativity broken at %s" % (D,))
        if chi(D, mod(f, D)) != chi(D, f):
            bad.append("periodicity broken at %s" % (D,))
    for D in moduli3[::11]:
        for f in fs3[::13]:
            if chi(D, mul(f, f)) != chi(D, f) ** 2:
                bad.append("multiplicativity broken on grid at %s" % (D,))
            if chi(D, mod(f, D)) != chi(D, f):
                bad.append("periodicity broken on grid at %s" % (D,))
    elapsed = time.time() - t0
    _report(
        capsys, 6, bad,
        "%d ladder/oracle pairs agree (exhaustive F_3 grid + 10^4 random p=5,7), %.1fs"
        % (pairs, elapsed),
    )


def test_criterion_7_sato_tate_desk_run(capsys):
    t0 = time.time()
    bad = []
    records = []
    report = sato_tate_sweep((1, 1, 0, 1), 10000, on_block=records.extend)
    elapsed = time.time() - t0
    # the report's sup is the running maximum over the streamed records, at
    # its first attainment
    running = argmax = None
    for r in records:
        if r.lambda_p is not None and (running is None or r.lambda_p > running):
            running, argmax = r.lambda_p, r.p
    if (report.statistics["sup_lambda"], report.statistics["argmax_p"]) != (running, argmax):
        bad.append("sup is not the running maximum of the records")
    sup = report.statistics["sup_lambda"]
    ks = report.statistics["ks_distance"]
    if abs(sup - SATO_SUP) > 1e-6:
        bad.append("sup drifted: %.12g" % sup)
    if sup <= -0.05:
        bad.append("sup below threshold: %.6g" % sup)
    if report.statistics["argmax_p"] != SATO_ARGMAX:
        bad.append("argmax_p %s" % report.statistics["argmax_p"])
    if abs(ks - SATO_KS) > 1e-6:
        bad.append("KS drifted: %.12g" % ks)
    if ks >= 0.05:
        bad.append("KS too large: %.6g" % ks)
    if elapsed >= 10.0:
        bad.append("runtime %.1fs" % elapsed)
    _report(
        capsys, 7, bad,
        "p<=10^4: sup lambda %.8f at p=%d, KS %.6f, %.2fs"
        % (sup, report.statistics["argmax_p"], ks, elapsed),
    )


def test_criterion_8_heat_flow_invariants(capsys):
    bad = []
    instances = [
        build_lfunction(5, FpPolynomial(D_MAIN, 5)),
        build_lfunction(5, FpPolynomial(D_VARIANT, 5)),
        build_lfunction(3, FpPolynomial((1, 1, 0, 1, 0, 1), 3)),
    ]
    grid = [round(-0.5 + 0.05 * k, 10) for k in range(13)]
    for L in instances:
        seen_true = False
        for t in grid:
            ok = all_zeros_real(L, t)
            if seen_true and not ok:
                bad.append("predicate flipped off at t=%g" % t)
            seen_true = seen_true or ok
        if not seen_true:
            bad.append("predicate never true on grid")
    # strip shrink along the flow for the worked example
    L = instances[0]
    ts = [-0.30, -0.25, -0.20]
    deltas = {t: zeros_at_t(L, t).delta for t in ts}
    if abs(deltas[-0.25] - 0.368) > 1e-3:
        bad.append("delta(-0.25)=%.6f" % deltas[-0.25])
    if abs(deltas[-0.20] - 0.153) > 1e-3:
        bad.append("delta(-0.20)=%.6f" % deltas[-0.20])
    for i, t in enumerate(ts):
        for tp in ts[i + 1 :]:
            if deltas[tp] > strip_bound(deltas[t], tp - t) + 1e-6:
                bad.append("strip grew from t=%g to %g" % (t, tp))
    # negativity on every simple-zero instance sampled here
    for L2 in instances:
        e = lambda_bisect(L2)
        if not e.value < 0:
            bad.append("Lambda not negative for %s" % (L2.D,))
    for D in squarefree_monic(3, 3):
        e = lambda_bisect(build_lfunction(3, D))
        if not e.value < 0:
            bad.append("Lambda not negative for cubic %s" % (D,))
    _report(
        capsys, 8, bad,
        "monotone predicate on 3 instances; delta: %.4f -> %.4f -> %.4f obeys strip law; Lambda<0 on all samples"
        % (deltas[-0.30], deltas[-0.25], deltas[-0.20]),
    )


def test_criterion_9_classical_evaluator(capsys):
    bad = []
    center = xi_t_classical(0.0, 0.0)
    if abs(center - 0.49712) > 1e-3:
        bad.append("Xi_0(0)=%.6f" % center)
    lo, hi = xi_t_classical(0.0, 14.0), xi_t_classical(0.0, 14.3)
    if not (lo > 0.0 > hi):
        bad.append("no sign change in (14.0, 14.3)")
    h = 1e-3
    worst_resid = 0.0
    for t in [-0.5, -0.25, 0.0, 0.25, 0.5]:
        for x in [0.0, 5.0, 10.0, 15.0, 20.0]:
            f = xi_t_classical(t, x)
            dt = (xi_t_classical(t + h, x) - xi_t_classical(t - h, x)) / (2 * h)
            dxx = (xi_t_classical(t, x + h) - 2 * f + xi_t_classical(t, x - h)) / (h * h)
            resid = abs(dt + dxx)
            tol = 1e-4 * abs(f) + 1e-6
            worst_resid = max(worst_resid, resid / tol)
            if resid >= tol:
                bad.append("heat residual %.2e at (t=%g, x=%g)" % (resid, t, x))
    worst_double = 0.0
    for t in [-0.5, 0.0, 0.5]:
        for x in [0.0, 5.0, 14.1, 20.0]:
            d = abs(
                xi_t_classical(t, x, quad_points=2000)
                - xi_t_classical(t, x, quad_points=4000)
            )
            worst_double = max(worst_double, d)
            if d >= 1e-8:
                bad.append("doubling moved value by %.2e" % d)
    _report(
        capsys, 9, bad,
        "Xi_0(0)=%.6f, first zero bracketed, heat residual <= %.1e of budget, doubling %.1e"
        % (center, worst_resid, worst_double),
    )
