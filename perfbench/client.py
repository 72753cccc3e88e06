"""Run a list of ffnewman CLI invocations in one process, optionally traced.

    python3 perfbench/client.py SPEC.json REPORT.json

SPEC is a JSON object:

    src      directory that holds the ffnewman package
    calls    list of argv lists, each passed to ffnewman.cli.main in turn
    trace    when true, wrap the layer entry points listed in WRAPPED and
             record one span per call

REPORT gets the per-call latency and exit code, each call's --out file text
(read back outside the timed window; null when the call wrote none), the total
bytes written, the time spent in the calls and, when traced, a span summary.
The wrappers are installed from this file, on the module attribute that the
caller looks up at call time; the library itself is not modified.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time

# module -> {attribute: span name}. Span names use the module that defines the
# function, so one function wrapped at two call sites reports as one layer.
WRAPPED = {
    "ffnewman.cli": {
        "sweep_fixed_q": "families.sweep_fixed_q",
        "sato_tate_sweep": "families.sato_tate_sweep",
        "build_lfunction": "lfunction.build_lfunction",
        "lambda_bisect": "newman.lambda_bisect",
        "double_zero_lower_bound": "newman.double_zero_lower_bound",
        "stopple_data": "newman.stopple_data",
    },
    "ffnewman.families": {
        "monic_by_index": "fp_poly.monic_by_index",
        "is_squarefree": "fp_poly.is_squarefree",
        "build_lfunction": "lfunction.build_lfunction",
        "double_zero_lower_bound": "newman.double_zero_lower_bound",
        "lambda_bisect": "newman.lambda_bisect",
        "trace_of_frobenius": "families.trace_of_frobenius",
    },
    "ffnewman.newman": {
        "all_zeros_real": "newman.all_zeros_real",
        "zeros_at_t": "lfunction.zeros_at_t",
        "grid_sign_changes": "lfunction.grid_sign_changes",
    },
}


def _outcome(result):
    """What a span remembers of its return value: a predicate's truth, an
    estimate's kind, or a family report's item count."""
    if isinstance(result, bool):
        return result
    kind = getattr(result, "kind", None)
    if isinstance(kind, str):
        return kind
    if hasattr(result, "processed") and hasattr(result, "skipped"):
        return int(result.processed + result.skipped)
    return None


class Tracer:
    """Spans kept in memory as [name, start, end, parent index, outcome]."""

    def __init__(self):
        self.spans = []
        self._stack = [-1]

    def wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1], None]
            spans.append(span)
            stack.append(len(spans) - 1)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                span[4] = "raise:" + type(e).__name__
                raise
            finally:
                span[2] = clock()
                stack.pop()
            span[4] = _outcome(result)
            return result

        return traced

    def install(self):
        for modname, attrs in WRAPPED.items():
            mod = importlib.import_module(modname)
            for attr, name in attrs.items():
                fn = getattr(mod, attr, None)
                if fn is None:
                    continue  # the layer no longer exists: it reports 0 calls
                if attr == "sweep_fixed_q":
                    fn = self._wrap_on_item(fn)
                setattr(mod, attr, self.wrap(name, fn))

    def _wrap_on_item(self, sweep):
        """The CLI passes a row-writing callback into the sweep; its time is
        CLI time, so it gets a span of its own."""

        @functools.wraps(sweep)
        def sweep_with_traced_callback(*args, **kwargs):
            if kwargs.get("on_item") is not None:
                kwargs["on_item"] = self.wrap("cli.on_item", kwargs["on_item"])
            return sweep(*args, **kwargs)

        return sweep_with_traced_callback

    def summary(self) -> dict:
        spans = self.spans
        child_s = [0.0] * len(spans)
        azr_children = {}
        for name, t0, t1, parent, _ in spans:
            if parent < 0:
                continue
            child_s[parent] += t1 - t0
            if spans[parent][0] == "newman.all_zeros_real":
                azr_children.setdefault(parent, set()).add(name)
        names = {}
        grid_decided = 0
        predicate_in_bisect = 0
        for i, (name, t0, t1, parent, outcome) in enumerate(spans):
            rec = names.setdefault(
                name, {"calls": 0, "s": 0.0, "self_s": 0.0, "items": 0, "outcomes": {}}
            )
            rec["calls"] += 1
            rec["s"] += t1 - t0
            rec["self_s"] += t1 - t0 - child_s[i]
            if isinstance(outcome, int) and not isinstance(outcome, bool):
                rec["items"] += outcome
            elif outcome is not None:
                key = str(outcome)
                rec["outcomes"][key] = rec["outcomes"].get(key, 0) + 1
            if name == "newman.all_zeros_real":
                kids = azr_children.get(i, set())
                if "lfunction.grid_sign_changes" in kids and "lfunction.zeros_at_t" not in kids:
                    grid_decided += 1
                if parent >= 0 and spans[parent][0] == "newman.lambda_bisect":
                    predicate_in_bisect += 1
        return {
            "names": names,
            "grid_decided": grid_decided,
            "predicate_calls_in_bisect": predicate_in_bisect,
        }


def _out_path(argv):
    if "--out" in argv:
        return argv[argv.index("--out") + 1]
    return None


def run(spec: dict) -> dict:
    sys.path.insert(0, spec["src"])
    import ffnewman.cli as cli

    tracer = None
    main = cli.main
    if spec.get("trace"):
        tracer = Tracer()
        tracer.install()
        main = tracer.wrap("cli.main", cli.main)
    latency = []
    rcs = []
    outputs = []
    out_bytes = 0
    clock = time.perf_counter
    for argv in spec["calls"]:
        t0 = clock()
        rc = main(list(argv))
        latency.append(clock() - t0)
        rcs.append(rc)
        path = _out_path(argv)
        if path is not None and os.path.exists(path):
            with open(path) as f:
                outputs.append(f.read())
            out_bytes += os.path.getsize(path)
            os.remove(path)
        else:
            outputs.append(None)
    return {
        "latency_s": latency,
        "rc": rcs,
        "outputs": outputs,
        "output_bytes": out_bytes,
        "trace": None if tracer is None else tracer.summary(),
    }


if __name__ == "__main__":
    with open(sys.argv[1]) as f:
        spec = json.load(f)
    report = run(spec)
    with open(sys.argv[2], "w") as f:
        json.dump(report, f)
