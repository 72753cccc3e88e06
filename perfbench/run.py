"""Benchmark harness for ffnewman.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from anywhere; the package is taken from ../src relative to this file,
and scratch files go to .perfbench_tmp/ beside it and are removed at exit.

--trace 0 measures the end-to-end metrics with tracing off. Each timed pass
is one child process: the `ffnewman` CLI itself for the sweeps and sato-tate,
or perfbench/client.py for newman-query (one client calling ffnewman.cli.main
in a closed loop). Passes repeat the same inputs. How many passes a run makes
depends only on the workload and --seconds (see pass_count), never on how
fast the passes went, so the same arguments always do the same work and
report the same attempted and failed counts. --seconds is divided by the
nominal pass time of the workload at the commit that added this benchmark,
with at least 3 passes, so a run of a workload whose pass is slower than a
third of --seconds takes longer than --seconds. Timings are medians over the repeats, scaled by the speed of the
machine that perfbench/calibrate.py measures between passes (see
measure_end_to_end); setup_s is the median of 9 fresh-interpreter imports
spread over the run.
CPU and peak RSS of a pass come from os.wait4 on that pass's process, so they
cover its pool workers and are not a high-water mark of earlier passes.

--trace 1 runs the workload in one process with --workers 1, once untraced
and once with span wrappers installed by client.py, plus once with the
workload's own worker count, and reports the per-layer metrics.

The first pass's output is checked (see checks.py) and every later pass must
repeat it exactly. The last line of stdout is one JSON object {"correct",
"attempted", "failed", "metrics"}: attempted counts the items (discriminants,
queries, primes) of the timed passes, failed those that ended in an error row
or a numerical-failure exit. The run exits 1 when a check fails.
"""

from __future__ import annotations

import argparse
import csv
import importlib.metadata
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REF_DIR = os.path.join(HERE, "reference")
CALIBRATE = os.path.join(HERE, "calibrate.py")
sys.path.insert(0, HERE)

import checks  # noqa: E402

RUN_LIMIT_S = 170.0  # every child is killed past this, so a run ends in time
MIN_PASSES = 3
# Wall seconds of one timed pass per workload on a 2-vCPU Intel Xeon VM at
# the commit that added this benchmark. Fixed, so that the pass count, and
# with it the work of a run, does not depend on the machine's speed.
NOMINAL_PASS_S = {"sweep-dz": 12.0, "sweep-bisect": 4.8, "newman-query": 3.2, "sato-tate": 3.6}
SETUP_REPS = 9
# Timings are reported for a machine on which calibrate.py's kernel takes
# this long (see measure_end_to_end).
CAL_REF_S = 0.4
WORKERS = 2

# Each newman-query round draws one D per (q, genus) stratum of the recorded
# pool and two at the largest genus of each q, so the latency mix does not
# depend on the seed and the 90th percentile falls inside the slowest strata
# (q=3 g=7, q=7 g=4, 15% of the queries) rather than on the step below them.
# Every D of the pool that ended in a numerical failure when the pool was
# recorded is always drawn, so the failed count does not depend on the seed.
QUERY_REFERENCE = "queries"
QUERY_ROUNDS = 7

SWEEPS = {
    # name: (q, max genus, method, reference)
    "sweep-dz": (3, 4, "double-zero", "sweep-dz"),
    "sweep-bisect": (5, 2, "bisect", "sweep-bisect"),
}
# The small families: the smoke profile's sweeps, and the workers 1 vs 2
# byte-identity check that every sweep run makes outside its timed passes.
SMALL_SWEEPS = {
    "sweep-dz": (3, 2, "double-zero", "smoke-dz"),
    "sweep-bisect": (3, 2, "bisect", "smoke-bisect"),
}
SATO_DZ = (1, 1, 0, 1)
SATO_PMAX = {"full": 50000, "smoke": 500}
SATO_IDENTITY_PMAX = 2000
SATO_SAMPLE = 24
QUERY_COUNT = {"full": None, "smoke": 20}
WORKLOADS = ("sweep-dz", "sweep-bisect", "newman-query", "sato-tate")

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "throughput_per_s": "1/s",
    "query_ms_p50": "ms",
    "query_ms_p90": "ms",
    "peak_rss_mb": "MB",
    "classified_frac": "frac",
    "setup_s": "s",
}
KINDS = ("exact", "bisect", "double_zero_lower_bound", "minus_infinity", "bracket_exhausted", "no_bound")
LAYERS = {
    "fp_poly": ("fp_poly.monic_by_index", "fp_poly.is_squarefree"),
    "coefficients": ("lfunction.build_lfunction",),
    "zeros": ("lfunction.zeros_at_t", "lfunction.grid_sign_changes"),
    "newman": (
        "newman.all_zeros_real",
        "newman.lambda_bisect",
        "newman.double_zero_lower_bound",
        "newman.stopple_data",
    ),
    "families": ("families.sweep_fixed_q", "families.sato_tate_sweep", "families.trace_of_frobenius"),
    "cli": ("cli.main", "cli.on_item"),
}


class BenchError(RuntimeError):
    """The benchmark cannot run or a child process misbehaved."""


# ------------------------------------------------------------ processes


class Runner:
    """Starts children under a shared deadline and owns the scratch dir."""

    def __init__(self, tmp: str):
        self.tmp = tmp
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = SRC + (os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else "")
        self._n = 0

    def path(self, name: str) -> str:
        self._n += 1
        return os.path.join(self.tmp, "%03d-%s" % (self._n, name))

    def run(self, argv: list) -> dict:
        """One child to completion: wall, CPU (user+sys) and peak RSS of its
        process tree, from wait4 on that child alone."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("run time limit reached")
        err_path = self.path("stderr.txt")
        with open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                argv, cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=err,
            )
            timer = threading.Timer(remaining, proc.kill)
            timer.start()
            try:
                _, status, ru = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode < 0:
            raise BenchError("%s killed by signal %d" % (argv[1:4], -proc.returncode))
        with open(err_path, errors="replace") as f:
            stderr = f.read()
        return {
            "wall": wall,
            "cpu": ru.ru_utime + ru.ru_stime,
            "rss_kb": ru.ru_maxrss,
            "rc": proc.returncode,
            "stderr": stderr,
        }

    def cli(self, args: list) -> tuple:
        out = self.path("out.csv")
        res = self.run([sys.executable, "-m", "ffnewman"] + args + ["--out", out])
        if res["rc"] != 0:
            raise BenchError("ffnewman %s exited %d: %s" % (" ".join(args), res["rc"], res["stderr"][-500:]))
        with open(out) as f:
            text = f.read()
        os.remove(out)
        return res, text

    def client(self, calls: list, trace: bool) -> tuple:
        spec_path = self.path("spec.json")
        report_path = self.path("report.json")
        with open(spec_path, "w") as f:
            json.dump({"src": SRC, "calls": calls, "trace": trace}, f)
        res = self.run([sys.executable, os.path.join(HERE, "client.py"), spec_path, report_path])
        if res["rc"] != 0:
            raise BenchError("client exited %d: %s" % (res["rc"], res["stderr"][-500:]))
        with open(report_path) as f:
            report = json.load(f)
        os.remove(report_path)
        return res, report

    def calibration_time(self, n: int) -> float:
        """Mean kernel time of n calibrate.py children run together, as many
        as the workload keeps busy."""
        procs = [
            subprocess.Popen(
                [sys.executable, CALIBRATE], cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            )
            for _ in range(n)
        ]
        try:
            outs = [p.communicate(timeout=max(self.deadline - time.monotonic(), 1.0))[0] for p in procs]
        except subprocess.TimeoutExpired:
            raise BenchError("calibration did not finish in time")
        finally:
            for p in procs:
                p.kill()
                p.wait()
        return statistics.mean(float(out) for out in outs)

    def setup_time(self) -> float:
        res = self.run([sys.executable, "-c", "import numpy, ffnewman.cli"])
        if res["rc"] != 0:
            raise BenchError("importing ffnewman.cli failed: %s" % res["stderr"][-500:])
        return res["wall"]


# ------------------------------------------------------------ workloads


def read_queries(ref_dir: str) -> tuple:
    """The F_3 series rows and the pool of squarefree D per (q, genus), as
    (q, D, exit code when make_reference.py recorded it)."""
    text = checks.read_reference(os.path.join(ref_dir, QUERY_REFERENCE + ".csv.gz"))
    rows = csv.reader(text.splitlines())
    if next(rows, None) != ["set", "q", "d_coeffs", "rc"]:
        raise ValueError("unexpected query reference header")
    series, pool = [], {}
    for kind, q, d, rc in rows:
        item = (int(q), tuple(int(v) for v in d.split(",")), int(rc))
        if kind == "series":
            series.append(item)
        else:
            pool.setdefault((item[0], (len(item[1]) - 2) // 2), []).append(item)
    return series, pool


def make_queries(seed: int, ref_dir: str, count=None) -> list:
    """The F_3 series rows, then QUERY_ROUNDS rounds of one D per (q, genus)
    stratum and two at the largest genus of each q. Each stratum's recorded
    numerical failures are always used; the seed picks, without replacement,
    which of its other D fill the stratum's share and in which round each D
    comes."""
    series, pool = read_queries(ref_dir)
    top = {}
    for q, g in pool:
        top[q] = max(top.get(q, 0), g)
    per_round = {s: 2 if s[1] == top[s[0]] else 1 for s in sorted(pool)}
    rng = random.Random(seed)
    picks = {}
    for s, n in per_round.items():
        failing = [item for item in pool[s] if item[2] != 0]
        rest = [item for item in pool[s] if item[2] == 0]
        chosen = failing + rng.sample(rest, QUERY_ROUNDS * n - len(failing))
        rng.shuffle(chosen)
        picks[s] = chosen
    out = list(series)
    for r in range(QUERY_ROUNDS):
        for s, n in per_round.items():
            out += picks[s][r * n : (r + 1) * n]
    return out if count is None else out[:count]


def _text(coeffs) -> str:
    return ",".join(map(str, coeffs))


class Workload:
    """One workload: how to run a pass, how many items it handles, how many of
    them ended in error, and whether its output is correct."""

    workers = WORKERS

    def __init__(self, name, seed, profile, ref_dir, runner):
        self.name = name
        self.seed = seed
        self.profile = profile
        self.ref_dir = ref_dir
        self.runner = runner

    def reference(self, ref: str) -> str:
        return checks.read_reference(os.path.join(self.ref_dir, ref + ".csv.gz"))

    def timed_pass(self):
        return self.runner.cli(self.args(self.workers))

    def pass_count(self, seconds: float) -> int:
        return max(MIN_PASSES, round(seconds / NOMINAL_PASS_S[self.name]))

    def client_calls(self, workers):
        return [self.args(workers) + ["--out", self.runner.path("traced.csv")]]

    @staticmethod
    def same_output(a, b):
        return a == b


class SweepWorkload(Workload):
    def __init__(self, *a):
        super().__init__(*a)
        table = SMALL_SWEEPS if self.profile == "smoke" else SWEEPS
        self.q, self.max_genus, self.method, self.ref = table[self.name]

    def args(self, workers, q=None, max_genus=None):
        return [
            "sweep", "--q", str(q or self.q), "--max-genus", str(max_genus or self.max_genus),
            "--method", self.method, "--workers", str(workers),
        ]

    @staticmethod
    def counts(text):
        body, _, _ = checks.parse_sweep(text)
        return len(body), sum(1 for r in body if r[2] == "")

    def check(self, text):
        return checks.check_sweep(text, self.reference(self.ref), self.q)

    def identity_check(self):
        q, g, _, ref = SMALL_SWEEPS[self.name]
        _, one = self.runner.cli(self.args(1, q, g))
        _, two = self.runner.cli(self.args(WORKERS, q, g))
        problems = checks.check_sweep(one, self.reference(ref), q)
        if one != two:
            problems.append("small sweep output differs between --workers 1 and %d" % WORKERS)
        return problems


class SatoWorkload(Workload):
    def __init__(self, *a):
        super().__init__(*a)
        self.pmax = SATO_PMAX[self.profile]

    def args(self, workers, pmax=None):
        return ["sato-tate", "--dz", _text(SATO_DZ), "--pmax", str(pmax or self.pmax), "--workers", str(workers)]

    @staticmethod
    def counts(text):
        rows = [l for l in text.splitlines() if l and not l.startswith("#") and not l.startswith("p,")]
        return len(rows), 0

    def check(self, text):
        return checks.check_sato(text, SATO_DZ, self.pmax, self.seed, SATO_SAMPLE)

    def identity_check(self):
        _, one = self.runner.cli(self.args(1, SATO_IDENTITY_PMAX))
        _, two = self.runner.cli(self.args(WORKERS, SATO_IDENTITY_PMAX))
        problems = checks.check_sato(one, SATO_DZ, SATO_IDENTITY_PMAX, self.seed, SATO_SAMPLE)
        if one != two:
            problems.append("sato-tate output differs between --workers 1 and %d" % WORKERS)
        return problems


class QueryWorkload(Workload):
    """A closed loop with one client: the next query is sent when the last
    one has answered. No pool, so --workers does not apply."""

    workers = 1

    def __init__(self, *a):
        super().__init__(*a)
        self.queries = make_queries(self.seed, self.ref_dir, QUERY_COUNT[self.profile])
        self.out = self.runner.path("query.json")

    def client_calls(self, workers=1):
        return [
            ["newman", "--q", str(q), "--d", _text(d), "--method", "all", "--out", self.out]
            for q, d, _ in self.queries
        ]

    def timed_pass(self):
        res, report = self.runner.client(self.client_calls(), trace=False)
        res["latency"] = report["latency_s"]
        return res, report

    def counts(self, report):
        return len(report["rc"]), sum(1 for rc in report["rc"] if rc != 0)

    def check(self, report):
        problems = []
        for (q, d, ref_rc), rc, out in zip(self.queries, report["rc"], report["outputs"]):
            problems += checks.check_query(q, d, rc, out, ref_rc)
        if len(report["rc"]) != len(self.queries):
            problems.append("client answered %d of %d queries" % (len(report["rc"]), len(self.queries)))
        return problems[: checks.MAX_PROBLEMS]

    def identity_check(self):
        return []

    @staticmethod
    def same_output(a, b):
        return a["rc"] == b["rc"] and a["outputs"] == b["outputs"]


def make_workload(name, seed, profile, ref_dir, runner) -> Workload:
    if name in SWEEPS:
        cls = SweepWorkload
    elif name == "sato-tate":
        cls = SatoWorkload
    elif name == "newman-query":
        cls = QueryWorkload
    else:
        raise BenchError("unknown workload %r" % name)
    return cls(name, seed, profile, ref_dir, runner)


# ------------------------------------------------------------ measurement


def percentile(values, frac):
    """Linear interpolation between closest ranks."""
    v = sorted(values)
    k = (len(v) - 1) * frac
    lo = int(k)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (k - lo)


def measure_end_to_end(wl: Workload, seconds: float) -> dict:
    setup, cal, passes, first = [], [], [], None
    problems = []
    for _ in range(wl.pass_count(seconds)):
        # set-up and calibration samples are spread over the run, so that a
        # slow spell of the machine does not land on all of them
        setup += [wl.runner.setup_time() for _ in range(min(3, SETUP_REPS - len(setup)))]
        cal.append(wl.runner.calibration_time(wl.workers))
        res, out = wl.timed_pass()
        res["items"], res["errors"] = wl.counts(out)
        passes.append(res)
        if first is None:
            first = out
            problems += wl.check(out)
        elif not wl.same_output(out, first):
            problems.append("pass %d output differs from pass 1" % len(passes))
    setup += [wl.runner.setup_time() for _ in range(SETUP_REPS - len(setup))]
    cal.append(wl.runner.calibration_time(wl.workers))
    problems += wl.identity_check()
    items = sum(p["items"] for p in passes)
    errors = sum(p["errors"] for p in passes)
    # The speed of this shared machine drifts by a quarter and more within
    # minutes, for the program and for calibrate.py's fixed kernel alike.
    # Timings are therefore scaled to a machine on which the kernel takes
    # CAL_REF_S: a pass by the kernel times sampled just before and after
    # it, set-up by the median kernel time of the run.
    speed = [2 * CAL_REF_S / (cal[i] + cal[i + 1]) for i in range(len(passes))]
    walls = [p["wall"] * f for p, f in zip(passes, speed)]
    # Every pass runs the same inputs, so a timing is the median of its
    # repeats. A query's latency is the median of its repeats; a sweep or
    # sato-tate pass is one query (one CLI invocation).
    if isinstance(wl, QueryWorkload):
        reps = zip(*([t * f for t in p["latency"]] for p, f in zip(passes, speed)))
        lat_ms = [1e3 * statistics.median(rep) for rep in reps]
    else:
        lat_ms = [1e3 * statistics.median(walls)]
    values = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(p["cpu"] * f for p, f in zip(passes, speed)),
        "throughput_per_s": statistics.median(p["items"] / w for p, w in zip(passes, walls)),
        "query_ms_p50": percentile(lat_ms, 0.5),
        "query_ms_p90": percentile(lat_ms, 0.9),
        "peak_rss_mb": statistics.median(p["rss_kb"] for p in passes) / 1024.0,
        "classified_frac": 1.0 - errors / items if items else 0.0,
        "setup_s": statistics.median(setup) * CAL_REF_S / statistics.median(cal),
    }
    info = {
        "passes": len(passes), "latency_samples": len(lat_ms),
        "pass_walls": [p["wall"] for p in passes], "calibration_s": cal,
        "setup_samples": setup,
    }
    return result(problems, items, errors, values, END_TO_END_UNITS, info)


def measure_layers(wl: Workload) -> dict:
    runner = wl.runner
    problems = []
    calls = wl.client_calls(1)
    w1, plain = runner.client(calls, trace=False)
    _, traced = runner.client(calls, trace=True)
    if isinstance(wl, QueryWorkload):
        out = traced
        w2_wall = w1["wall"]
        if not wl.same_output(plain, traced):
            problems.append("traced and untraced answers differ")
    else:
        if traced["rc"] != [0] or plain["rc"] != [0]:
            raise BenchError("in-process run exited %r" % traced["rc"])
        out = traced["outputs"][0]
        w2, text2 = wl.timed_pass()
        w2_wall = w2["wall"]
        if not (out == plain["outputs"][0] == text2):
            problems.append("output differs between traced, untraced and --workers %d runs" % WORKERS)
    problems += wl.check(out)
    items, errors = wl.counts(out)
    values, units = layer_metrics(traced, plain, w1["wall"], w2_wall, wl.workers, items, errors)
    info = {"w1_wall_s": w1["wall"], "w2_wall_s": w2_wall, "untraced_s": sum(plain["latency_s"])}
    return result(problems, items, errors, values, units, info)


def layer_metrics(traced, plain, w1_wall, w2_wall, workers, items, errors):
    summary = traced["trace"]
    names = summary["names"]
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "items": 0, "outcomes": {}}

    def rec(name):
        return names.get(name, empty)

    def ratio(a, b):
        return a / b if b else 0.0

    values, units = {}, {}

    def put(name, value, unit):
        values[name] = value
        units[name] = unit

    b = rec("lfunction.build_lfunction")
    put("lfunction.build_lfunction.calls", b["calls"], "count")
    put("lfunction.build_lfunction.s", b["s"], "s")
    put("lfunction.build_lfunction.us_per_call", ratio(1e6 * b["s"], b["calls"]), "us")
    azr = rec("newman.all_zeros_real")
    put("newman.all_zeros_real.calls", azr["calls"], "count")
    put("newman.all_zeros_real.s", azr["s"], "s")
    put("newman.all_zeros_real.self_s", azr["self_s"], "s")
    put("newman.predicate.grid_decided_frac", ratio(summary["grid_decided"], azr["calls"]), "frac")
    for name in ("lfunction.zeros_at_t", "lfunction.grid_sign_changes"):
        put(name + ".calls", rec(name)["calls"], "count")
        put(name + ".s", rec(name)["s"], "s")
    lb = rec("newman.lambda_bisect")
    put("newman.lambda_bisect.calls", lb["calls"], "count")
    put("newman.lambda_bisect.s", lb["s"], "s")
    put(
        "newman.lambda_bisect.predicate_calls_per_call",
        ratio(summary["predicate_calls_in_bisect"], lb["calls"]),
        "count",
    )
    dz = rec("newman.double_zero_lower_bound")
    put("newman.double_zero_lower_bound.calls", dz["calls"], "count")
    put("newman.double_zero_lower_bound.s", dz["s"], "s")
    put("newman.double_zero_lower_bound.us_per_call", ratio(1e6 * dz["s"], dz["calls"]), "us")
    put("newman.stopple_data.calls", rec("newman.stopple_data")["calls"], "count")
    put("newman.stopple_data.s", rec("newman.stopple_data")["s"], "s")
    kinds = {}
    raised = 0
    for name in ("newman.lambda_bisect", "newman.double_zero_lower_bound", "lfunction.build_lfunction"):
        for key, n in rec(name)["outcomes"].items():
            if key.startswith("raise:"):
                raised += n
            else:
                kinds[key] = kinds.get(key, 0) + n
    for kind in KINDS:
        put("newman.kind." + kind, kinds.pop(kind, 0), "count")
    put("newman.kind.other", sum(kinds.values()), "count")
    put("newman.errors", raised, "count")
    put("error_frac", ratio(errors, items), "frac")
    monic = rec("fp_poly.monic_by_index")
    sqf = rec("fp_poly.is_squarefree")
    put("fp_poly.enumerated", monic["calls"], "count")
    put("fp_poly.squarefree_frac", ratio(sqf["outcomes"].get("True", 0), sqf["calls"]), "frac")
    put("fp_poly.monic_by_index.s", monic["s"], "s")
    put("fp_poly.is_squarefree.s", sqf["s"], "s")
    put("families.sweep_fixed_q.self_s", rec("families.sweep_fixed_q")["self_s"], "s")
    put("families.sato_tate_sweep.self_s", rec("families.sato_tate_sweep")["self_s"], "s")
    put("families.items", rec("families.sweep_fixed_q")["items"] + rec("families.sato_tate_sweep")["items"], "count")
    put("families.parallel_eff", ratio(w1_wall, workers * w2_wall), "frac")
    tf = rec("families.trace_of_frobenius")
    put("families.trace_of_frobenius.calls", tf["calls"], "count")
    put("families.trace_of_frobenius.s", tf["s"], "s")
    put("families.trace_of_frobenius.us_per_prime", ratio(1e6 * tf["s"], tf["calls"]), "us")
    put("cli.self_s", rec("cli.main")["self_s"] + rec("cli.on_item")["self_s"], "s")
    put("cli.output_bytes", traced["output_bytes"], "bytes")
    wall = sum(traced["latency_s"])
    layer_s = {layer: sum(rec(n)["self_s"] for n in members) for layer, members in LAYERS.items()}
    total = sum(layer_s.values())
    for layer, s in layer_s.items():
        put("share." + layer, ratio(s, total), "frac")
    put("trace.wall_s", wall, "s")
    put("trace.accounted_frac", ratio(total, wall), "frac")
    put("trace.overhead_frac", ratio(wall, sum(plain["latency_s"])) - 1.0, "frac")
    return values, units


def result(problems, items, errors, values, units, info) -> dict:
    return {
        "correct": not problems,
        "attempted": int(items),
        "failed": int(errors),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
        "problems": problems,
        "info": info,
    }


# ------------------------------------------------------------ reporting


def git_commit() -> str:
    """HEAD of the checkout; 'unknown' outside a git checkout."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def machine(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "missing"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": git_commit(),
        "seed": seed,
    }


def run_one(name, args, tmp) -> dict:
    """One workload under its own RUN_LIMIT_S deadline."""
    wl = make_workload(name, args.seed, args.profile, REF_DIR, Runner(tmp))
    if args.trace:
        res = measure_layers(wl)
    else:
        res = measure_end_to_end(wl, args.seconds)
    for p in res["problems"]:
        print("CHECK FAILED [%s]: %s" % (name, p), file=sys.stderr)
    print("# %s: %s" % (name, json.dumps(res["info"])))
    for k, m in sorted(res["metrics"].items()):
        print("# %s  %-48s %.6g %s" % (name, k, m["value"], m["unit"]))
    return res


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument(
        "--seconds", type=float, required=True,
        help="time budget for the timed passes: a run makes this divided by the "
        "workload's nominal pass time passes, at least %d, so it takes longer "
        "when a pass is slower than a third of this" % MIN_PASSES,
    )
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--profile", choices=("full", "smoke"), default="full",
        help="smoke: tiny families, 20 queries, pmax 500 (harness self-test)",
    )
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ffnewman", "cli.py")):
        print("error: no ffnewman sources under %s" % SRC, file=sys.stderr)
        return 2
    tmp = os.path.join(ROOT, ".perfbench_tmp", "run-%d" % os.getpid())
    os.makedirs(tmp, exist_ok=True)
    try:
        print("# machine: %s" % json.dumps(machine(args.seed)))
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {name: run_one(name, args, tmp) for name in names}
    except (BenchError, OSError, ValueError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmp))
        except OSError:
            pass  # another run is using it
    if len(results) == 1:
        (res,) = results.values()
        metrics = res["metrics"]
    else:
        metrics = {"%s.%s" % (n, k): m for n, r in results.items() for k, m in r["metrics"].items()}
    final = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
