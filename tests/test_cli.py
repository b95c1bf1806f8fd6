"""Command-line interface: formats, determinism, exit codes."""

import gc
import json

import pytest

from dihedral_pgm.cli import main


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_sweep_exact_row(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code, _, _ = run_cli(["sweep", "--N", "2", "--k", "1..1", "--exact",
                          "--output", str(out)], capsys)
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "N,k,nu,p,stderr,method"
    assert lines[1] == "2,1,1.0,0.75,0.0,EXACT"


def test_sweep_row_count_and_determinism(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["sweep", "--N", "64", "--k", "2..6", "--samples", "500",
            "--seed", "7"]
    assert run_cli(args + ["--output", str(a)], capsys)[0] == 0
    assert run_cli(args + ["--output", str(b)], capsys)[0] == 0
    assert a.read_bytes() == b.read_bytes()
    assert len(a.read_text().splitlines()) == 6  # header + 5 rows


def test_sweep_threads_do_not_change_bytes(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    base = ["sweep", "--N", "64", "--k", "9..9", "--samples", "3000",
            "--seed", "5"]
    run_cli(base + ["--output", str(a)], capsys)
    run_cli(base + ["--threads", "4", "--output", str(b)], capsys)
    assert a.read_bytes() == b.read_bytes()


def test_sweep_rejects_zero_k(capsys):
    code, _, err = run_cli(["sweep", "--N", "64", "--k", "0..3"], capsys)
    assert code == 2
    assert "k range" in err


def test_sweep_json_format(capsys):
    code, out, _ = run_cli(["sweep", "--N", "2", "--k", "1..2", "--exact",
                            "--format", "json"], capsys)
    assert code == 0
    rows = json.loads(out)
    assert rows[0]["p"] == "0.75"


def test_verify_pass_and_guard_and_perturb(capsys):
    code, out, _ = run_cli(["verify", "--N", "4", "--k", "2"], capsys)
    assert code == 0
    assert "PASS" in out and "FAIL" not in out

    # The guard runs before any setup: N^k overflows a float at (2, 1100)
    # and (1024, 103), and N = 10^9 would allocate gigabytes.
    for N, k in [(9, 4), (2, 1100), (1024, 103), (10 ** 9, 1)]:
        code, out, err = run_cli(["verify", "--N", str(N), "--k", str(k)],
                                 capsys)
        assert code == 3
        assert out == "" and "guard" in err

    code, out, _ = run_cli(["verify", "--N", "4", "--k", "1", "--perturb"],
                           capsys)
    assert code == 1
    assert "dominance" in out and "FAIL" in out


def test_simulate_summary_and_log(tmp_path, capsys):
    log = tmp_path / "trials.csv"
    code, out, _ = run_cli(["simulate", "--N", "2", "--k", "1", "--hidden",
                            "0", "--trials", "400", "--seed", "3",
                            "--output", str(log)], capsys)
    assert code == 0
    summary = json.loads(out)
    assert summary["trials"] == 400
    assert 0.6 < summary["rate"] < 0.9
    lines = log.read_text().splitlines()
    assert lines[0] == "trial,hidden,outcome,correct"
    assert len(lines) == 401


def test_simulate_trivial_hidden(capsys, tmp_path):
    log = tmp_path / "trials.csv"
    code, out, _ = run_cli(["simulate", "--N", "8", "--k", "7", "--hidden",
                            "trivial", "--trials", "300", "--seed", "3",
                            "--output", str(log)], capsys)
    assert code == 0
    assert json.loads(out)["rate"] > 0.85
    assert "trivial" in log.read_text()


def test_subsetsum_unique_solution(tmp_path, capsys):
    inst = tmp_path / "inst.txt"
    inst.write_text("4 2 3 1 2\n")
    code, out, _ = run_cli(["subsetsum", "--file", str(inst), "--samples",
                            "100", "--seed", "1"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 100
    assert set(lines) == {"11"}


def test_subsetsum_malformed_line(tmp_path, capsys):
    inst = tmp_path / "inst.txt"
    inst.write_text("4 2 3 1 2\n4 2 3 1\n")
    code, _, err = run_cli(["subsetsum", "--file", str(inst)], capsys)
    assert code == 2
    assert "line 2" in err


def test_subsetsum_illegal_instance(tmp_path, capsys):
    inst = tmp_path / "inst.txt"
    inst.write_text("2 2 1 0 0\n")
    code, _, err = run_cli(["subsetsum", "--file", str(inst)], capsys)
    assert code == 2
    assert "no solution" in err


def test_subsetsum_qsample_mode(tmp_path, capsys):
    inst = tmp_path / "inst.txt"
    inst.write_text("2 2 0 1 1\n")
    code, out, _ = run_cli(["subsetsum", "--file", str(inst), "--qsample"],
                           capsys)
    assert code == 0
    indices = [int(line.split(",")[0]) for line in out.splitlines()]
    assert indices == [0, 3]


def test_lsb_odd_n(capsys):
    code, _, err = run_cli(["lsb", "--N", "3", "--k", "2"], capsys)
    assert code == 2
    assert "N must be even" in err


def test_lsb_oversized_k_hits_the_guard(capsys):
    # 2^k / N in the parity bound overflows a float at k = 1100
    for args in (["--N", "1024", "--k", "1100"],
                 ["--N", "2", "--k", "1100", "--exact"]):
        code, out, err = run_cli(["lsb"] + args, capsys)
        assert code == 3
        assert out == "" and "error:" in err


def test_lsb_exact_row(capsys):
    code, out, _ = run_cli(["lsb", "--N", "4", "--k", "2", "--exact"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "N,k,nu,p_lsb,stderr,bound,method"
    fields = lines[1].split(",")
    assert fields[:2] == ["4", "2"]
    assert fields[-1] == "EXACT"
    assert float(fields[3]) == pytest.approx(0.78125)


def test_infobound_row(capsys):
    code, out, _ = run_cli(["infobound", "--N", "1024", "--p", "0.125"],
                           capsys)
    assert code == 0
    assert out.splitlines()[1] == "1024,0.125,1"


def test_infobound_bad_p(capsys):
    code, _, err = run_cli(["infobound", "--N", "1024", "--p", "1.5"], capsys)
    assert code == 2


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--N", "2", "--k", "1", "--bogus"])
    assert exc.value.code == 2


def test_help_exits_zero():
    for sub in ("sweep", "verify", "simulate", "subsetsum", "lsb",
                "infobound"):
        with pytest.raises(SystemExit) as exc:
            main([sub, "--help"])
        assert exc.value.code == 0


def test_main_leaves_no_reference_cycles(tmp_path):
    args = ["verify", "--N", "2", "--k", "1", "--output",
            str(tmp_path / "verify.txt")]
    assert main(args) == 0  # warm-up: the parser is built once
    gc.collect()
    assert main(args) == 0
    assert gc.collect() == 0
