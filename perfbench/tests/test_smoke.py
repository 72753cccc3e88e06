"""Self-test of the benchmark harness on tiny inputs (q=3 genus <= 2 sweeps,
20 queries, pmax 500).

    python3 -m pytest perfbench/tests -q

Checks that every metric named in BENCHMARK.json is emitted with its unit,
that the output checks pass at this commit, and that they fail on a
corrupted reference or a wrong answer.
"""

from __future__ import annotations

import gzip
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import run  # noqa: E402
from run import WORKLOADS  # noqa: E402


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def _run(workload, trace):
    proc = subprocess.run(
        [
            sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
            "--seed", "7", "--seconds", "1", "--trace", str(trace), "--profile", "smoke",
        ],
        capture_output=True,
        text=True,
        timeout=170,
    )
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr


def test_benchmark_json_names_the_workloads():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert spec["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_emitted_with_unit(workload, trace):
    rc, res, err = _run(workload, trace)
    assert rc == 0, err
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True
    assert res["attempted"] >= 1
    wanted = _spec()["per_layer" if trace else "end_to_end"]
    got = res["metrics"]
    assert sorted(got) == sorted(m["name"] for m in wanted)
    for m in wanted:
        assert got[m["name"]]["unit"] == m["unit"]
        assert isinstance(got[m["name"]]["value"], (int, float))
    if trace:
        # layer self times plus cli.self_s account for the traced wall
        assert abs(got["trace.accounted_frac"]["value"] - 1.0) < 0.05


def test_corrupted_reference_fails_the_run(tmp_path):
    ref_dir = tmp_path / "reference"
    shutil.copytree(os.path.join(BENCH, "reference"), ref_dir)
    path = ref_dir / "smoke-dz.csv.gz"
    with gzip.open(path, "rt") as f:
        lines = f.read().splitlines(keepends=True)
    i = next(k for k, l in enumerate(lines) if l.startswith('2,"') and ',"1,' in l)
    lines[i] = lines[i].replace(',"1,', ',"1,9', 1)
    with gzip.open(path, "wt") as f:
        f.write("".join(lines))
    tmp = tmp_path / "tmp"
    tmp.mkdir()
    wl = run.make_workload("sweep-dz", 7, "smoke", str(ref_dir), run.Runner(str(tmp)))
    res = run.measure_end_to_end(wl, 1.0)
    assert res["correct"] is False
    assert any("reference" in p for p in res["problems"])


def _sweep(*rows):
    head = "# ffnewman\ngenus,d_coeffs,c_coeffs,method,lambda_bound\n"
    return head + "".join(rows)


def test_sweep_check_rules():
    d = (1, 2, 0, 1)  # a genus-1 discriminant over F_3
    c1 = -checks.char_sum(d, 3)
    lam = "%.12g" % checks.genus1_lambda(c1, 3)
    good = '1,"1,2,0,1","1,%d",bisect,%s\n' % (c1, lam)
    error = '1,"1,2,0,1",,bisect,\n# error: degree=3 index=0: NumericalError: x\n'
    best = [
        '1,"1,2,0,1","1,%d",best_per_genus,%s\n' % (c1, lam),
        '1,"1,2,0,1","1,%d",best_overall,%s\n' % (c1, lam),
    ]
    assert checks.check_sweep(_sweep(good, *best), _sweep(good, *best), 3) == []
    # an error at the reference may become an answer, never the reverse
    assert checks.check_sweep(_sweep(good, *best), _sweep(error), 3) == []
    assert checks.check_sweep(_sweep(error), _sweep(good, *best), 3) != []
    wrong_c = good.replace('"1,%d"' % c1, '"1,%d"' % (c1 + 3))
    assert checks.check_sweep(_sweep(wrong_c, *best), _sweep(good, *best), 3) != []
    shifted = good.replace(lam, "%.12g" % (float(lam) + 1e-6))
    assert checks.check_sweep(_sweep(shifted, *best), _sweep(good, *best), 3) != []
    assert checks.check_sweep(_sweep(good), _sweep(good, *best), 3) != []  # best rows missing
    # a row with no bound at the reference may not gain a number
    d2 = '2,"1,1,0,1,0,1","1,0,3",double-zero,%s\n'
    assert checks.check_sweep(_sweep(d2 % ""), _sweep(d2 % ""), 3) == []
    answered = [d2 % "-0.5", (d2 % "-0.5").replace("double-zero", "best_per_genus")]
    answered.append(answered[1].replace("best_per_genus", "best_overall"))
    assert checks.check_sweep(_sweep(*answered), _sweep(*answered), 3) == []
    assert checks.check_sweep(_sweep(*answered), _sweep(d2 % ""), 3) != []


def test_query_check_rules():
    d = (1, 2, 0, 1)
    lam = checks.genus1_lambda(checks.char_sum(d, 3), 3)

    def answer(bis, dz, exact):
        est = {"bisect": {"value": bis}, "double_zero": {"value": dz}, "exact": {"value": exact}}
        return json.dumps({"g": 1, "estimates": est})

    assert checks.check_query(3, d, 0, answer(lam, None, lam), 0) == []
    assert checks.check_query(3, d, 0, answer(lam, lam + 0.1, lam), 0) != []  # below the bound
    assert checks.check_query(3, d, 0, answer(lam - 0.1, None, lam - 0.1), 0) != []  # not the closed form
    assert checks.check_query(3, d, 2, None, 0) != []
    # a numerical failure is counted, not wrong, only where the reference had it
    assert checks.check_query(3, d, 3, None, 3) == []
    assert checks.check_query(3, d, 3, None, 0) != []
    assert checks.check_query(3, d, 0, answer(lam, None, lam), 3) == []


def test_queries_come_from_the_recorded_pool():
    series, pool = run.read_queries(run.REF_DIR)
    recorded = set(series) | {item for items in pool.values() for item in items}
    queries = run.make_queries(11, run.REF_DIR)
    assert queries[: len(series)] == series
    assert set(queries) <= recorded
    assert queries != run.make_queries(12, run.REF_DIR)


def test_work_of_a_run_does_not_depend_on_the_seed_or_the_machine():
    # every recorded numerical failure is in every seed's query set
    failing = [item for items in run.read_queries(run.REF_DIR)[1].values() for item in items if item[2]]
    assert failing
    for seed in range(1, 11):
        queries = run.make_queries(seed, run.REF_DIR)
        assert sorted(item for item in queries if item[2]) == sorted(failing)
    wl = run.make_workload("sweep-dz", 1, "full", run.REF_DIR, None)
    assert wl.pass_count(1.0) == run.MIN_PASSES
    assert wl.pass_count(60.0) == 5


def _sato_text(dz, pmax, bump_p=None):
    rows = []
    lams = []
    for p in checks.odd_primes(pmax):
        if checks.cubic_disc(dz) % p == 0:
            rows.append("%d,,,,bad reduction\n" % p)
            continue
        a = -checks.char_sum(dz, p)
        r = a / (2.0 * math.sqrt(p))
        lams.append(checks.genus1_lambda(a, p))
        if p == bump_p:
            a += 2
        lam = "-inf" if a == 0 else "%.12g" % lams[-1]
        rows.append("%d,%d,%.12g,%s,\n" % (p, a, math.acos(r), lam))
    head = "p,a_p,theta_p,lambda_p,skipped_reason\n"
    return head + "".join(rows) + "# sup_lambda = %.12g\n" % max(lams)


def test_sato_check_catches_a_wrong_trace():
    dz = (1, 1, 0, 1)
    assert checks.check_sato(_sato_text(dz, 60), dz, 60, 0, 100) == []
    assert checks.check_sato(_sato_text(dz, 60, bump_p=7), dz, 60, 0, 100) != []
