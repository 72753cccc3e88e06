"""Record the references that the output checks compare against.

    python3 perfbench/make_reference.py

Runs each sweep family once with --workers 1 through the ffnewman CLI from
../src and stores the CSV. Draws the newman-query pool (the F_3 series rows,
then up to POOL_SIZE squarefree D per (q, genus) stratum from a fixed seed),
answers every query once and stores its exit code, so that each query is held
to the outcome it had here. Files are gzipped with a fixed timestamp, so
unchanged output gives unchanged bytes, under perfbench/reference/.
Re-record only when a change is meant to alter the output, and say so in that
change.
"""

import gzip
import os
import random
import sys
import tempfile

import checks
import client
from run import QUERY_REFERENCE, REF_DIR, ROOT, SMALL_SWEEPS, SRC, SWEEPS, Runner

# (q, largest genus) of the query pool: q^g <= 2401 keeps each query
# interactive.
QUERY_STRATA = ((3, 7), (5, 4), (7, 4), (11, 3), (13, 3))
# A run picks 7 D of each stratum (14 at the largest genus of each q) out of
# its POOL_SIZE, so which D a seed picks hardly moves the latency
# percentiles: drawn from 40 with replacement, query_ms_p90 moved by 16%
# (IQR over median, 300 seeds) through the choice of D alone.
POOL_SIZE = 20
POOL_SEED = 0


def write_gz(name: str, text: str) -> None:
    path = os.path.join(REF_DIR, name + ".csv.gz")
    with open(path, "wb") as raw, gzip.GzipFile(filename="", mode="wb", fileobj=raw, mtime=0) as f:
        f.write(text.encode())
    print("%s: %d lines" % (path, text.count("\n")))


def query_pool() -> list:
    """(set, q, D) rows: the library's F_3 series, then the random pool."""
    sys.path.insert(0, SRC)
    from ffnewman.families import F3_GENUS_SERIES

    rng = random.Random(POOL_SEED)
    rows = [("series", 3, d) for d in F3_GENUS_SERIES]
    for q, cap in QUERY_STRATA:
        for g in range(1, cap + 1):
            # there are q^n - q^(n-1) monic squarefree D of degree n >= 2
            want = min(POOL_SIZE, q ** (2 * g + 1) - q ** (2 * g))
            drawn = {}
            while len(drawn) < want:
                d = tuple(rng.randrange(q) for _ in range(2 * g + 1)) + (1,)
                if checks.is_squarefree(d, q):
                    drawn[d] = None
            rows += [("pool", q, d) for d in drawn]
    return rows


def main() -> int:
    tmp_root = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=tmp_root) as tmp:
        runner = Runner(tmp)
        for q, max_genus, method, ref in list(SWEEPS.values()) + list(SMALL_SWEEPS.values()):
            args = ["sweep", "--q", str(q), "--max-genus", str(max_genus), "--method", method]
            _, text = runner.cli(args + ["--workers", "1"])
            write_gz(ref, text)
        rows = query_pool()
        out = os.path.join(tmp, "query.json")
        calls = [
            ["newman", "--q", str(q), "--d", ",".join(map(str, d)), "--method", "all", "--out", out]
            for _, q, d in rows
        ]
        report = client.run({"src": SRC, "calls": calls, "trace": False})
    lines = ["set,q,d_coeffs,rc\n"]
    lines += ['%s,%d,"%s",%d\n' % (kind, q, ",".join(map(str, d)), rc) for (kind, q, d), rc in zip(rows, report["rc"])]
    write_gz(QUERY_REFERENCE, "".join(lines))
    print("queries: %d, exit codes %r" % (len(rows), {rc: report["rc"].count(rc) for rc in set(report["rc"])}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
