"""End-to-end coverage of the command-line surface and its file formats."""

import ast
import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import warnings

import pytest

from ffnewman import __version__, classical, cli, families
from ffnewman.classical import QUAD_POINTS_MAX
from ffnewman.cli import (
    CLASSICAL_MAX_ROWS,
    EXIT_INVALID,
    EXIT_OK,
    _coeff_text,
    _fmt,
    build_parser,
    main,
)
from ffnewman.families import F3_GENUS_SERIES, MAX_WORKERS, SweepItem, sato_tate_sweep, sweep_fixed_q
from ffnewman.fp_poly import FpPolynomial
from ffnewman.lfunction import build_lfunction
from ffnewman.newman import ERROR, double_zero_lower_bound

TABLE_C = {
    1: "1,-3",
    2: "1,-3,5",
    3: "1,-1,1,-7",
    4: "1,-3,9,-23,39",
    5: "1,-3,5,-3,-11,27",
    6: "1,-1,3,-7,5,-13,11",
    7: "1,1,5,3,1,-15,-51,-101",
}
TABLE_BOUNDS = {
    1: -1.44e-1,
    2: -5.28e-2,
    3: -1.26e-2,
    4: -1.05e-3,
    5: -1.23e-4,
    6: -3.02e-5,
    7: -1.28e-5,
}


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_csv(text):
    lines = text.splitlines()
    assert lines[0] == "# ffnewman %s" % __version__
    assert lines[1].startswith("# config: ")
    config = json.loads(lines[1][len("# config: ") :])
    body = [ln for ln in lines[2:] if not ln.startswith("#")]
    comments = [ln for ln in lines[2:] if ln.startswith("#")]
    rows = list(csv.reader(io.StringIO("\n".join(body))))
    return config, rows[0], rows[1:], comments


def test_lfun_json(capsys):
    code, out, err = run_cli(["lfun", "--q", "3", "--d", "1,2,0,1"], capsys)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["version"] == __version__
    assert doc["config"] == {"subcommand": "lfun", "q": 3, "d": "1,2,0,1"}
    assert doc["q"] == 3
    assert doc["D"] == "1,2,0,1"
    assert doc["g"] == 1
    assert doc["c"] == [1, -3, 3]
    assert doc["phi"] == [-3.0, 1.73205080757]
    assert doc["gammas"] == pytest.approx([math.pi / 6.0], abs=1e-9)
    assert doc["repeated_root"] is False


def test_lfun_repeated_root(capsys):
    # genus 7 over F_3 with c_odd = 0 and a repeated root of L: Xi_0 has a
    # triple zero at pi/2, which the floating-point solve splits into one real
    # zero and a pair slightly off the axis, so gammas holds 5 of the 7 zeros
    d = "1,1,0,2,2,0,0,0,0,2,2,0,2,1,0,1"
    code, out, err = run_cli(["lfun", "--q", "3", "--d", d], capsys)
    assert code == EXIT_OK, err
    doc = json.loads(out)
    assert doc["g"] == 7
    assert doc["repeated_root"] is True
    assert len(doc["gammas"]) < 7
    assert min(abs(v - math.pi / 2.0) for v in doc["gammas"]) < 1e-5


def test_lfun_worked_pair(capsys):
    code, out, _ = run_cli(["lfun", "--q", "5", "--d", "2,1,0,1,2,1"], capsys)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["c"] == [1, -1, -1, -5, 25]
    assert doc["phi"] == pytest.approx([-1.0, -math.sqrt(5.0), 5.0], abs=1e-9)
    code, out, _ = run_cli(["lfun", "--q", "5", "--d", "2,2,0,1,1,1"], capsys)
    assert json.loads(out)["c"] == [1, -1, 1, -5, 25]


def test_lfun_rejects_bad_pair(capsys):
    code, out, err = run_cli(["lfun", "--q", "3", "--d", "1,0,1"], capsys)
    assert code == EXIT_INVALID
    assert "degree must be odd and >= 3" in err
    code, _, err = run_cli(["lfun", "--q", "9", "--d", "1,2,0,1"], capsys)
    assert code == EXIT_INVALID
    assert "odd prime" in err
    code, _, err = run_cli(["lfun", "--q", "3", "--d", "1,2,x"], capsys)
    assert code == EXIT_INVALID


def test_newman_all_methods_genus1(capsys):
    code, out, _ = run_cli(["newman", "--q", "3", "--d", "1,2,0,1"], capsys)
    assert code == EXIT_OK
    doc = json.loads(out)
    est = doc["estimates"]
    assert set(est) == {"exact", "bisect", "double_zero", "stopple"}
    v = est["exact"]["value"]
    assert v == pytest.approx(-0.14384103622589045, abs=1e-9)
    assert est["bisect"]["value"] == pytest.approx(v, abs=1e-6)
    assert est["double_zero"]["value"] == pytest.approx(v, abs=1e-6)
    assert est["bisect"]["kind"] == "bisect"
    assert est["double_zero"]["kind"] == "double_zero_lower_bound"
    st = est["stopple"]
    if "error" not in st:
        assert set(st) == {"gamma", "gamma_tilde", "G", "condition_ok", "bound"}
        if st["condition_ok"]:
            assert st["bound"] <= est["bisect"]["value"] + 1e-6


def test_newman_bisect_worked_pair(capsys):
    code, out, _ = run_cli(
        ["newman", "--q", "5", "--d", "2,1,0,1,2,1", "--method", "bisect"], capsys
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert list(doc["estimates"]) == ["bisect"]
    assert doc["estimates"]["bisect"]["value"] == pytest.approx(-0.1884, abs=5e-4)
    assert doc["g"] == 2


def test_newman_calls_in_one_process_share_no_state(tmp_path, capsys):
    # main reuses one parser; a later call must not see an earlier one's
    # --out or --method
    out = tmp_path / "first.json"
    pair = ["newman", "--q", "5", "--d", "2,1,0,1,2,1"]
    code, text, _ = run_cli(pair + ["--out", str(out), "--method", "bisect"], capsys)
    assert (code, text) == (EXIT_OK, "")
    assert json.loads(out.read_text())["config"]["method"] == "bisect"
    code, text, _ = run_cli(pair, capsys)
    assert code == EXIT_OK
    doc = json.loads(text)
    assert doc["config"]["method"] == "all"
    assert set(doc["estimates"]) == {"exact", "bisect", "double_zero", "stopple"}


NEWMAN_BISECT = [
    sys.executable, "-m", "ffnewman", "newman", "--q", "5", "--d", "2,1,0,1,2,1",
    "--method", "bisect",
]


@pytest.mark.parametrize(
    "method,tol",
    [
        # the bisect cases keep their plain tol ids
        pytest.param(m, tol, id=tol if m == "bisect" else "%s-%s" % (m, tol))
        for m in ["bisect", "exact", "double-zero", "stopple", "all"]
        for tol in ["0", "-1", "nan"]
    ],
)
def test_newman_rejects_a_tol_bisection_cannot_reach(method, tol):
    # in a child with a timeout: a bisection that cannot end would hang; every
    # method rejects it before any output, since the config echoes it as JSON
    proc = subprocess.run(
        NEWMAN_BISECT[:-1] + [method, "--tol", tol],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == EXIT_INVALID
    assert "positive and finite" in proc.stderr
    assert proc.stdout == ""


def test_newman_tol_below_float_spacing_ends_on_adjacent_floats():
    proc = subprocess.run(
        NEWMAN_BISECT + ["--tol", "1e-20"], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == EXIT_OK
    assert json.loads(proc.stdout)["estimates"]["bisect"]["kind"] == "bisect"
    code = (
        "from ffnewman.fp_poly import FpPolynomial\n"
        "from ffnewman.lfunction import build_lfunction\n"
        "from ffnewman.newman import lambda_bisect\n"
        "L = build_lfunction(5, FpPolynomial((2, 1, 0, 1, 2, 1), 5))\n"
        "print(repr(lambda_bisect(L, 1e-20).bracket))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
    )
    lo, hi = ast.literal_eval(proc.stdout)
    assert math.nextafter(lo, math.inf) == hi


def test_newman_prints_a_library_warning_as_one_line():
    # a repeated-root D: lambda_bisect's UserWarning reaches stderr as one
    # line with no source path or line number, the same in every checkout
    proc = subprocess.run(
        [sys.executable, "-m", "ffnewman", "newman", "--q", "3",
         "--d", "1,0,1,0,2,2,2,0,1,1", "--method", "bisect"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == EXIT_OK
    assert proc.stderr == (
        "warning: Xi_0 has an exact double zero (a repeated root of L) for "
        "D=1,0,1,0,2,2,2,0,1,1 over F_3: Lambda_D = 0\n"
    )
    assert json.loads(proc.stdout)["estimates"]["bisect"]["kind"] == "exact"


def test_newman_minus_infinity_serialized(capsys):
    code, out, _ = run_cli(
        ["newman", "--q", "3", "--d", "0,1,0,1", "--method", "bisect"], capsys
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["estimates"]["bisect"]["kind"] == "minus_infinity"
    assert doc["estimates"]["bisect"]["value"] == "-inf"


def test_newman_exact_rejects_higher_genus(capsys):
    code, _, err = run_cli(
        ["newman", "--q", "5", "--d", "2,1,0,1,2,1", "--method", "exact"], capsys
    )
    assert code == EXIT_INVALID
    assert "genus 1" in err


def test_newman_all_on_genus2_has_null_exact(capsys):
    code, out, _ = run_cli(["newman", "--q", "5", "--d", "2,1,0,1,2,1"], capsys)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["estimates"]["exact"] is None
    assert doc["estimates"]["double_zero"]["value"] == pytest.approx(
        doc["estimates"]["bisect"]["value"], abs=1e-6
    )


REPEATED_ZERO = (
    "repeated zero: G undefined (L has a repeated root, so Xi_0 has a double zero"
    " and Lambda_D = 0)"
)


def test_newman_all_reports_a_stopple_error_in_its_field(capsys):
    # a repeated-root D: the other methods answer, stopple's ValueError
    # becomes its field and the run still succeeds
    with warnings.catch_warnings():
        warnings.simplefilter("always", UserWarning)  # bisect's printed warning
        code, out, err = run_cli(
            ["newman", "--q", "3", "--d", "1,0,1,0,2,2,2,0,1,1", "--method", "all"], capsys
        )
    assert code == EXIT_OK
    assert err.startswith("warning: Xi_0 has an exact double zero")
    estimates = json.loads(out)["estimates"]
    assert estimates["stopple"] == {"error": REPEATED_ZERO}
    assert estimates["bisect"]["kind"] == "exact"


def test_newman_stopple_alone_exits_invalid_on_a_repeated_zero(capsys):
    code, out, err = run_cli(
        ["newman", "--q", "3", "--d", "1,0,1,0,2,2,2,0,1,1", "--method", "stopple"], capsys
    )
    assert (code, out) == (EXIT_INVALID, "")
    assert err == "error: %s\n" % REPEATED_ZERO


def test_table_rows(capsys):
    code, out, _ = run_cli(["table"], capsys)
    assert code == EXIT_OK
    config, header, rows, _ = parse_csv(out)
    assert config == {"subcommand": "table", "q": 3}
    assert header == ["genus", "d_coeffs", "c_coeffs", "double_zero_bound"]
    assert len(rows) == 7
    for row in rows:
        g = int(row[0])
        assert row[2] == TABLE_C[g]
        got = float(row[3])
        assert abs(got - TABLE_BOUNDS[g]) <= 0.01 * abs(TABLE_BOUNDS[g])


def test_sweep_small(capsys):
    code, out, _ = run_cli(
        ["sweep", "--q", "3", "--max-genus", "1", "--workers", "1"], capsys
    )
    assert code == EXIT_OK
    config, header, rows, _ = parse_csv(out)
    assert config["resume_from"] is None
    assert header == ["genus", "d_coeffs", "c_coeffs", "method", "lambda_bound"]
    data = [r for r in rows if r[3] == "double_zero"]
    summary_g = [r for r in rows if r[3] == "best_per_genus"]
    summary_all = [r for r in rows if r[3] == "best_overall"]
    assert len(data) == 18
    assert len(summary_g) == 1
    assert len(summary_all) == 1
    assert float(summary_all[0][4]) == pytest.approx(-0.14384103622589045, abs=1e-9)
    # no-bound rows leave the value column empty
    empties = [r for r in data if r[4] == ""]
    assert empties, "expected some no-bound cubics"


def test_sweep_workers_byte_identical(tmp_path, forked):
    a = tmp_path / "w1.csv"
    b = tmp_path / "w2.csv"
    assert main(["sweep", "--q", "3", "--max-genus", "2", "--workers", "1", "--out", str(a)]) == EXIT_OK
    assert main(["sweep", "--q", "3", "--max-genus", "2", "--workers", "2", "--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_sweep_workers_byte_identical_across_chunks(tmp_path, forked):
    a = tmp_path / "w1.csv"
    b = tmp_path / "w2.csv"
    assert main(["sweep", "--q", "3", "--max-genus", "3", "--workers", "1", "--out", str(a)]) == EXIT_OK
    assert main(["sweep", "--q", "3", "--max-genus", "3", "--workers", "2", "--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_bisect_sweep_workers_byte_identical(tmp_path, forked):
    a = tmp_path / "w1.csv"
    b = tmp_path / "w2.csv"
    args = ["sweep", "--q", "5", "--max-genus", "2", "--method", "bisect"]
    assert main(args + ["--workers", "1", "--out", str(a)]) == EXIT_OK
    assert main(args + ["--workers", "2", "--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()
    _, _, rows, comments = parse_csv(a.read_text())
    # the 15 repeated-root D (e.g. T^5 + T, L = (1 + 5u^2)^2) are exact 0
    assert not [c for c in comments if c.startswith("# error:")]
    by_d = {r[1]: r for r in rows if r[3] == "bisect"}
    assert len(by_d) == 2600
    assert by_d["0,1,0,0,0,1"][2:] == ["1,0,10", "bisect", "0"]
    assert sum(1 for r in by_d.values() if r[4] == "0") == 16


def test_sweep_resume_suffix(tmp_path):
    full = tmp_path / "full.csv"
    part = tmp_path / "part.csv"
    assert main(["sweep", "--q", "3", "--max-genus", "2", "--workers", "1", "--out", str(full)]) == EXIT_OK
    assert (
        main(
            [
                "sweep", "--q", "3", "--max-genus", "2", "--workers", "1",
                "--resume-from", "5:100", "--out", str(part),
            ]
        )
        == EXIT_OK
    )
    full_rows = [
        ln for ln in full.read_text().splitlines()[3:] if not ln.startswith("#")
    ]
    part_rows = [
        ln for ln in part.read_text().splitlines()[3:] if not ln.startswith("#")
    ]
    full_data = [ln for ln in full_rows if ",double_zero," in ln]
    part_data = [ln for ln in part_rows if ",double_zero," in ln]
    assert part_data == full_data[len(full_data) - len(part_data) :]
    assert len(part_data) < len(full_data)


def test_sweep_rejects_bad_genus(capsys):
    code, _, err = run_cli(["sweep", "--q", "3", "--max-genus", "0"], capsys)
    assert code == EXIT_INVALID
    assert "max-genus" in err


def test_sweep_rejects_bad_resume_token(capsys):
    code, _, err = run_cli(
        ["sweep", "--q", "3", "--max-genus", "1", "--resume-from", "nonsense"], capsys
    )
    assert code == EXIT_INVALID
    assert "DEGREE:INDEX" in err


@pytest.mark.parametrize("token", ["4:0", "1:0", "3:-5", "3:27", "3:99", "5:243"])
def test_sweep_rejects_resume_position_outside_the_enumeration(token, capsys):
    code, out, err = run_cli(
        ["sweep", "--q", "3", "--max-genus", "2", "--resume-from", token], capsys
    )
    assert code == EXIT_INVALID
    assert "resume position" in err
    assert out == ""


def test_sweep_rejects_bad_q_before_writing(capsys):
    code, out, err = run_cli(["sweep", "--q", "4", "--max-genus", "1"], capsys)
    assert code == EXIT_INVALID
    assert "odd prime" in err
    assert out == ""


def test_sweep_rejected_input_creates_no_out_file(tmp_path, capsys):
    out_file = tmp_path / "sweep.csv"
    for args in (["--q", "4", "--max-genus", "1"], ["--q", "3", "--max-genus", "2", "--resume-from", "4:0"]):
        code, out, err = run_cli(["sweep", *args, "--out", str(out_file)], capsys)
        assert code == EXIT_INVALID
        assert out == ""
        assert not out_file.exists()


def test_sweep_resume_from_last_positions(capsys):
    # the last D of the last degree is still swept; the token a finished
    # sweep writes (the degree after the last, index 0) is an empty sweep
    code, out, _ = run_cli(
        ["sweep", "--q", "3", "--max-genus", "2", "--resume-from", "5:242"], capsys
    )
    assert code == EXIT_OK
    _, _, rows, _ = parse_csv(out)
    assert [r[1] for r in rows if r[3] == "double_zero"] == ["2,2,2,2,2,1"]
    code, out, _ = run_cli(
        ["sweep", "--q", "3", "--max-genus", "2", "--resume-from", "7:0"], capsys
    )
    assert code == EXIT_OK
    _, _, rows, _ = parse_csv(out)
    assert rows == []


def test_sato_tate_csv(capsys):
    code, out, _ = run_cli(["sato-tate", "--dz", "1,1,0,1", "--pmax", "100"], capsys)
    assert code == EXIT_OK
    config, header, rows, comments = parse_csv(out)
    assert config == {"subcommand": "sato-tate", "dz": "1,1,0,1", "pmax": 100}
    assert header == ["p", "a_p", "theta_p", "lambda_p", "skipped_reason"]
    by_p = {int(r[0]): r for r in rows}
    assert by_p[5][1] == "-3"
    assert float(by_p[5][3]) == pytest.approx(
        math.log(3.0 / (2.0 * math.sqrt(5.0))), abs=1e-9
    )
    assert by_p[31][1] == "" and "squarefree" in by_p[31][4]
    tags = [c.split(" = ")[0] for c in comments]
    assert tags == ["# sup_lambda", "# argmax_p", "# ks_distance"]
    sup = float(comments[0].split(" = ")[1])
    assert sup < 0.0


def test_sato_tate_supersingular_minus_inf(capsys):
    code, out, _ = run_cli(["sato-tate", "--dz", "2,0,0,1", "--pmax", "60"], capsys)
    assert code == EXIT_OK
    _, _, rows, _ = parse_csv(out)
    zero_rows = [r for r in rows if r[1] == "0"]
    assert zero_rows
    assert all(r[3] == "-inf" for r in zero_rows)


def test_sato_tate_rejects_degenerate_cubic(capsys):
    code, _, err = run_cli(["sato-tate", "--dz", "2,-3,0,1", "--pmax", "50"], capsys)
    assert code == EXIT_INVALID
    assert "squarefree" in err
    code, _, err = run_cli(["sato-tate", "--dz", "1,1", "--pmax", "50"], capsys)
    assert code == EXIT_INVALID
    assert "degree 3" in err
    # a non-monic cubic is refused outright, not skipped at every prime
    code, out, err = run_cli(["sato-tate", "--dz", "1,0,0,2", "--pmax", "30"], capsys)
    assert (code, out) == (EXIT_INVALID, "")
    assert "monic" in err


def test_sato_tate_hasse_violation_exits_numerical(monkeypatch, capsys):
    # a trace kernel that breaks the Hasse bound at one prime: the run stops
    # with exit 3 before any CSV is written
    real = families._bsgs_traces

    def broken(dz, ps, *rest, **kwargs):
        return [31 if p == 233 else a for p, a in zip(ps, real(dz, ps, *rest, **kwargs))]

    monkeypatch.setattr(families, "_bsgs_traces", broken)
    code, out, err = run_cli(
        ["sato-tate", "--dz", "1,1,0,1", "--pmax", "300", "--workers", "1"], capsys
    )
    assert (code, out) == (cli.EXIT_NUMERICAL, "")
    assert err == "numerical failure: Hasse bound violated: a_p=31 at p=233\n"


@pytest.mark.parametrize("workers", [0, -3, MAX_WORKERS + 1, 10**6])
def test_sweeps_reject_bad_workers(monkeypatch, capsys, pool_starts, workers):
    # rejected before any output and before a pool is started, even with a
    # pool for every task
    monkeypatch.setattr(families, "POOL_MIN_TASKS", 1)
    for args in (
        ["sweep", "--q", "3", "--max-genus", "1"],
        ["sato-tate", "--dz", "1,1,0,1", "--pmax", "30"],
    ):
        code, out, err = run_cli(args + ["--workers=%d" % workers], capsys)
        assert (code, out) == (EXIT_INVALID, "")
        assert "workers must be 1 to %d, got %d" % (MAX_WORKERS, workers) in err
    assert pool_starts == []


def test_default_workers_is_capped():
    args = build_parser().parse_args(["sweep", "--q", "3", "--max-genus", "1"])
    assert args.workers == min(os.cpu_count() or 1, MAX_WORKERS)
    assert MAX_WORKERS == 64


def test_classical_single_point(capsys):
    code, out, _ = run_cli(
        ["classical", "--t", "0", "--x-min", "0", "--x-max", "0", "--step", "1"], capsys
    )
    assert code == EXIT_OK
    config, header, rows, _ = parse_csv(out)
    assert header == ["x", "xi_t"]
    assert len(rows) == 1
    assert float(rows[0][1]) == pytest.approx(0.49712, abs=1e-3)


def test_classical_grid_and_sign_change(capsys):
    code, out, _ = run_cli(
        ["classical", "--t", "0", "--x-min", "0", "--x-max", "5", "--step", "0.5"],
        capsys,
    )
    assert code == EXIT_OK
    _, _, rows, _ = parse_csv(out)
    assert len(rows) == 11
    assert [float(r[0]) for r in rows] == pytest.approx(
        [0.5 * k for k in range(11)], abs=1e-12
    )
    code, out, _ = run_cli(
        ["classical", "--t", "0", "--x-min", "14.0", "--x-max", "14.3", "--step", "0.1"],
        capsys,
    )
    _, _, rows, _ = parse_csv(out)
    vals = [float(r[1]) for r in rows]
    assert vals[0] > 0.0 > vals[-1]


def test_classical_rejects_bad_t(capsys):
    code, _, err = run_cli(
        ["classical", "--t", "3", "--x-min", "0", "--x-max", "1", "--step", "1"], capsys
    )
    assert code == EXIT_INVALID
    assert "|t| must be <= 2" in err
    code, _, err = run_cli(
        ["classical", "--t", "nan", "--x-min", "0", "--x-max", "1", "--step", "1"], capsys
    )
    assert code == EXIT_INVALID
    assert "|t| must be <= 2" in err
    code, _, err = run_cli(
        ["classical", "--t", "0", "--x-min", "1", "--x-max", "0", "--step", "1"], capsys
    )
    assert code == EXIT_INVALID
    code, _, err = run_cli(
        ["classical", "--t", "0", "--x-min", "0", "--x-max", "1", "--step", "0"], capsys
    )
    assert code == EXIT_INVALID
    # non-finite grids, and grids past CLASSICAL_MAX_ROWS (one whose span
    # overflows among them)
    too_long = "more than %d rows" % CLASSICAL_MAX_ROWS
    for x_min, x_max, step, msg in [
        ("0", "inf", "1", "must be finite"), ("-inf", "0", "1", "must be finite"),
        ("nan", "1", "1", "must be finite"), ("0", "1", "nan", "must be finite"),
        ("0", "1", "inf", "must be finite"), ("0", "1e9", "1e-9", too_long),
        ("0", "100000", "1", too_long), ("-1e308", "1e308", "1", too_long),
    ]:
        code, out, err = run_cli(
            ["classical", "--t", "0", "--x-min=" + x_min, "--x-max=" + x_max,
             "--step=" + step], capsys,
        )
        assert (code, out) == (EXIT_INVALID, "")
        assert msg in err


@pytest.mark.parametrize("points", [0, -5, 15, 17, 31, QUAD_POINTS_MAX + 1, 10**8])
def test_classical_rejects_bad_quad_points(monkeypatch, capsys, points):
    # rejected before any output and before a quadrature rule is built, so
    # 10^8 points allocate nothing
    def refuse(*args):
        raise AssertionError("built the quadrature rule")

    monkeypatch.setattr(classical, "_panel_nodes", refuse)
    code, out, err = run_cli(
        ["classical", "--t", "0", "--x-min", "0", "--x-max", "0", "--step", "1",
         "--quad-points=%d" % points], capsys,
    )
    assert (code, out) == (EXIT_INVALID, "")
    assert "quad-points must be between 16 and %d" % QUAD_POINTS_MAX in err


def csv_module_text(rows):
    """The rows as the csv module writes them, with "\\n" line ends."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def csv_rows_text(text):
    """The header and data lines of a CSV output, without its comment lines."""
    return "".join(ln for ln in text.splitlines(keepends=True) if not ln.startswith("#"))


def test_table_csv_matches_the_csv_module(capsys):
    rows = [["genus", "d_coeffs", "c_coeffs", "double_zero_bound"]]
    for dco in F3_GENUS_SERIES:
        L = build_lfunction(3, FpPolynomial(dco, 3))
        value = double_zero_lower_bound(L).value
        rows.append([L.g, _coeff_text(dco), _coeff_text(L.c[: L.g + 1]), _fmt(value)])
    code, out, _ = run_cli(["table"], capsys)
    assert code == EXIT_OK
    assert csv_rows_text(out) == csv_module_text(rows)
    assert csv_rows_text(out).count('"') == 4 * 7  # both coefficient lists of each row quoted


def test_sato_tate_csv_matches_the_csv_module(capsys):
    # x^3 + 2 has bad reduction at 3 only, so one row has empty fields
    rows = [["p", "a_p", "theta_p", "lambda_p", "skipped_reason"]]
    for r in sato_tate_sweep((2, 0, 0, 1), 2000).items:
        a_p = "" if r.a_p is None else r.a_p
        rows.append([r.p, a_p, _fmt(r.theta_p), _fmt(r.lambda_p), r.skipped or ""])
    code, out, _ = run_cli(
        ["sato-tate", "--dz", "2,0,0,1", "--pmax", "2000", "--workers", "1"], capsys
    )
    assert code == EXIT_OK
    assert csv_rows_text(out) == csv_module_text(rows)
    assert "\n3,,,,D must be squarefree\n" in out


def test_classical_csv_matches_the_csv_module(capsys):
    args = ["classical", "--t", "-1.5", "--x-min", "10", "--x-max", "12", "--step", "0.25"]
    rows = [["x", "xi_t"]]
    for k in range(9):
        x = 10.0 + k * 0.25
        rows.append([_fmt(x), _fmt(classical.xi_t_classical(-1.5, x))])
    code, out, _ = run_cli(args, capsys)
    assert code == EXIT_OK
    assert csv_rows_text(out) == csv_module_text(rows)


def test_out_file_matches_stdout(tmp_path, capsys):
    path = tmp_path / "t.csv"
    assert main(["table", "--out", str(path)]) == EXIT_OK
    capsys.readouterr()
    code, out, _ = run_cli(["table"], capsys)
    assert code == EXIT_OK
    assert path.read_text() == out


def test_parser_requires_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "ffnewman", "lfun", "--q", "3", "--d", "1,2,0,1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["c"] == [1, -3, 3]


@pytest.mark.parametrize("preset", [None, "2"])
def test_cli_runs_openblas_on_one_thread_unless_preset(preset):
    # a fresh interpreter: this one imported numpy, and set the variable,
    # when it imported the CLI
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    code = (
        "import os, ffnewman.cli\n"
        "print(os.environ['OPENBLAS_NUM_THREADS'])\n"
        "if os.path.exists('/proc/self/status'):\n"
        "    print([l.split()[1] for l in open('/proc/self/status') if l.startswith('Threads:')][0])\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.split()
    assert lines[0] == (preset or "1")
    if preset is None and len(lines) > 1:
        assert lines[1] == "1"  # no OpenBLAS helper thread


def test_interrupted_sweep_writes_resume_token(tmp_path):
    # drive main() in a child process and interrupt it mid-sweep; bisection
    # up to genus 3 over F_5 keeps it running for about ten seconds, well
    # past the first flushed rows
    import os
    import signal
    import time

    out = tmp_path / "part.csv"
    code = (
        "import sys\n"
        "from ffnewman.cli import main\n"
        "sys.exit(main(['sweep', '--q', '5', '--max-genus', '3', '--method', 'bisect',"
        " '--workers', '1', '--out', %r]))\n" % str(out)
    )
    proc = subprocess.Popen([sys.executable, "-c", code])
    deadline = time.time() + 30.0
    while time.time() < deadline:
        time.sleep(0.25)
        if out.exists() and out.stat().st_size > 2000:
            break
    os.kill(proc.pid, signal.SIGINT)
    proc.wait(timeout=30)
    assert proc.returncode == 130
    lines = out.read_text().splitlines()
    tokens = [ln for ln in lines if ln.startswith("# resume_token: ")]
    assert len(tokens) == 1
    assert tokens[-1] == lines[-1]
    # token names the next enumeration position
    parts = dict(kv.split("=") for kv in tokens[0].split(": ")[1].split(" "))
    assert int(parts["degree"]) in (3, 5, 7)
    assert int(parts["index"]) >= 0


def _row_text(writer, item, label):
    """One sweep row as the row-at-a-time writer printed it."""
    g = (item.degree - 1) // 2
    ctext = "" if item.c is None else _coeff_text(item.c[: g + 1])
    value = None if item.estimate is None else item.estimate.value
    writer.writerow([g, _coeff_text(item.d_coeffs), ctext, label, _fmt(value)])


def oracle_sweep_body(q, max_genus, method, start=None):
    """The CSV body after the header row of a finished sweep, rebuilt from
    the SweepItems of each block sweep_fixed_q passes to on_block, one row
    at a time."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    label = method.replace("-", "_")

    def on_block(block):
        for item in block.items():
            _row_text(writer, item, label)
            if item.error is not None:
                out.write("# error: degree=%d index=%d: %s\n" % (item.degree, item.index, item.error))

    report = sweep_fixed_q(q, max_genus, method=label, start=start, on_block=on_block)
    for g in sorted(report.best_per_genus):
        _row_text(writer, report.best_per_genus[g], "best_per_genus")
    if report.best_overall is not None:
        _row_text(writer, report.best_overall, "best_overall")
    return out.getvalue()


def cli_sweep_body(tmp_path, q, max_genus, method, resume=None, workers=1):
    out = tmp_path / "sweep.csv"
    args = ["sweep", "--q", str(q), "--max-genus", str(max_genus), "--method", method]
    args += ["--workers", str(workers), "--out", str(out)]
    if resume is not None:
        args += ["--resume-from", resume]
    assert main(args) == EXIT_OK
    header, _, body = out.read_text().partition("genus,d_coeffs,c_coeffs,method,lambda_bound\n")
    assert header.count("\n") == 2
    return body


@pytest.mark.parametrize(
    "q,max_genus,method,resume",
    [
        (3, 4, "double-zero", None),
        (5, 2, "bisect", None),
        # two-digit coefficients, and D texts cut into several digit tables
        (11, 2, "double-zero", None),
        (13, 2, "double-zero", "5:300000"),
        # a resume start inside a sweep task
        (3, 4, "double-zero", "9:5000"),
    ],
)
def test_block_writer_matches_row_writer(tmp_path, q, max_genus, method, resume):
    start = None if resume is None else tuple(map(int, resume.split(":")))
    expect = oracle_sweep_body(q, max_genus, method, start)
    assert cli_sweep_body(tmp_path, q, max_genus, method, resume) == expect


@pytest.mark.parametrize("method", ["double-zero", "bisect"])
def test_block_writer_prints_error_lines_after_their_rows(monkeypatch, tmp_path, method):
    # no sweep of the test sizes ends in an error, so every third distinct
    # c_0..c_g is made one; both writers see the same rows
    name = "lambda_bisect_block" if method == "bisect" else "double_zero_block"
    block = getattr(families, name)

    def failing(phi, *rest):
        out, errors = block(phi, *rest)
        errors = {**errors, **{i: "row %d" % i for i in range(0, len(out), 3)}}
        out[list(errors)] = ERROR, math.nan, math.nan, math.nan
        return out, errors

    monkeypatch.setattr(families, name, failing)
    expect = oracle_sweep_body(5, 2, method)
    assert expect.count("# error: ") > 100
    assert cli_sweep_body(tmp_path, 5, 2, method) == expect


def test_cli_sweep_builds_a_sweep_item_only_for_a_block_best(monkeypatch, tmp_path):
    built = []
    init = SweepItem.__init__

    def counting(self, *args, **kwargs):
        built.append(args[:2])
        init(self, *args, **kwargs)

    monkeypatch.setattr(SweepItem, "__init__", counting)
    cli_sweep_body(tmp_path, 3, 4, "double-zero")
    tasks = list(families._chunk_tasks(3, 4, "double_zero", (3, 0)))
    assert 0 < len(built) <= len(tasks)


class _InterruptBlock(io.StringIO):
    """An output stream whose n-th write of sweep rows is interrupted."""

    def __init__(self, n):
        super().__init__()
        self.n = n
        self.blocks = 0

    def write(self, text):
        if ",double_zero," in text:
            self.blocks += 1
            if self.blocks == self.n:
                raise KeyboardInterrupt
        return super().write(text)


def interrupted_sweep(monkeypatch, n):
    """The text of `sweep --q 3 --max-genus 3` interrupted at its n-th write
    of rows, as lines."""
    stream = _InterruptBlock(n)

    @contextlib.contextmanager
    def output(path):
        yield stream

    with monkeypatch.context() as m:
        m.setattr(cli, "_output", output)
        assert main(["sweep", "--q", "3", "--max-genus", "3", "--workers", "1"]) == cli.EXIT_INTERRUPT
    return stream.getvalue().splitlines(keepends=True)


def test_interrupted_block_write_resumes_after_the_last_whole_block(monkeypatch, tmp_path):
    blocks = []
    sweep_fixed_q(3, 3, on_block=blocks.append)
    first = next(b for b in blocks if len(b.ks))
    token = "%d:%d" % cli._next_enum_position(3, first.degree, int(first.ks[-1]))
    partial = interrupted_sweep(monkeypatch, 2)
    assert partial[-1] == "# resume_token: degree=%s index=%s\n" % tuple(token.split(":"))
    rows = "".join(partial[3:-1])
    rows += cli_sweep_body(tmp_path, 3, 3, "double-zero", resume=token)
    full = cli_sweep_body(tmp_path, 3, 3, "double-zero")

    def data(text):
        return "".join(ln for ln in text.splitlines(keepends=True) if ",best_" not in ln)

    assert data(rows) == data(full)
    assert len(data(full)) > len("".join(partial[3:-1])) > 0


def test_interrupted_sweep_resumes_inside_a_degree(monkeypatch, tmp_path):
    # the third block of rows ends at index 2047 of degree 7's 2187, so the
    # token names the next index of that degree, not the next degree
    partial = interrupted_sweep(monkeypatch, 4)
    assert partial[-1] == "# resume_token: degree=7 index=2048\n"
    rows = "".join(partial[3:-1])
    rows += cli_sweep_body(tmp_path, 3, 3, "double-zero", resume="7:2048")
    full = cli_sweep_body(tmp_path, 3, 3, "double-zero")

    def data(text):
        return "".join(ln for ln in text.splitlines(keepends=True) if ",double_zero," in ln)

    assert data(rows) == data(full)
    assert data("".join(partial[3:-1])).count("\n") > 0
