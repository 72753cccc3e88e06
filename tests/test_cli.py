"""End-to-end coverage of the command-line surface and its file formats."""

import csv
import io
import json
import math
import subprocess
import sys

import pytest

from ffnewman import __version__
from ffnewman.cli import (
    EXIT_INVALID,
    EXIT_OK,
    build_parser,
    main,
)

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


def test_sweep_workers_byte_identical(tmp_path):
    a = tmp_path / "w1.csv"
    b = tmp_path / "w2.csv"
    assert main(["sweep", "--q", "3", "--max-genus", "2", "--workers", "1", "--out", str(a)]) == EXIT_OK
    assert main(["sweep", "--q", "3", "--max-genus", "2", "--workers", "2", "--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_sweep_workers_byte_identical_across_chunks(tmp_path):
    a = tmp_path / "w1.csv"
    b = tmp_path / "w2.csv"
    assert main(["sweep", "--q", "3", "--max-genus", "3", "--workers", "1", "--out", str(a)]) == EXIT_OK
    assert main(["sweep", "--q", "3", "--max-genus", "3", "--workers", "2", "--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_bisect_sweep_workers_byte_identical(tmp_path):
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
        ["classical", "--t", "0", "--x-min", "1", "--x-max", "0", "--step", "1"], capsys
    )
    assert code == EXIT_INVALID
    code, _, err = run_cli(
        ["classical", "--t", "0", "--x-min", "0", "--x-max", "1", "--step", "0"], capsys
    )
    assert code == EXIT_INVALID


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