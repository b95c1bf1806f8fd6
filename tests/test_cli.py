"""Command-line interface: formats, determinism, exit codes."""

import csv
import gc
import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from decimal import Decimal

import pytest

import dihedral_pgm
from dihedral_pgm import success_mc
from dihedral_pgm.cli import main
from sk_oracle import decimal_means


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


def test_simulate_on_two_workers_exits_cleanly(tmp_path, capsys):
    # A fresh interpreter starts the worker pool and shuts it down at
    # exit: exit 0, and nothing on stderr, where an executor left to
    # interpreter teardown reports ("Exception ignored in: ...").  The
    # workers inherit the output pipes, and run() reads them to the end,
    # so it returns only once no worker outlives the command.
    src = os.path.dirname(os.path.dirname(dihedral_pgm.__file__))
    argv = ["simulate", "--N", "64", "--k", "6", "--hidden", "5",
            "--trials", "20000", "--seed", "3"]
    out = tmp_path / "two.csv"
    proc = subprocess.run(
        [sys.executable, "-c", "from dihedral_pgm.cli import run; run()",
         *argv, "--threads", "2", "--output", str(out)],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": src})
    assert (proc.returncode, proc.stderr) == (0, "")
    one = tmp_path / "one.csv"
    code, stdout, _ = run_cli(argv + ["--output", str(one)], capsys)
    assert (code, stdout) == (0, proc.stdout)
    assert out.read_bytes() == one.read_bytes()


@pytest.mark.parametrize("argv", [
    ["sweep", "--N", "64", "--k", "9"],
    ["lsb", "--N", "64", "--k", "9"],
    ["simulate", "--N", "64", "--k", "9", "--hidden", "5"],
], ids=lambda argv: argv[0])
@pytest.mark.parametrize("threads", ["0", "-2"])
def test_threads_below_one_exit_2_at_parse_time(argv, threads, tmp_path,
                                                capsys):
    out = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--threads", threads, "--output", str(out)])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_mc_rows_never_exceed_one(tmp_path, capsys):
    # at N = 2 every block but x = 0 succeeds with probability exactly 1
    out = tmp_path / "sweep.csv"
    code, _, _ = run_cli(["sweep", "--N", "2", "--k", "16..20",
                          "--output", str(out)], capsys)
    assert code == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert len(rows) == 5
    for row in rows:
        assert row[5] == "MC"
        assert float(row[3]) <= 1.0


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


@pytest.mark.parametrize("k", [1, 2, 12])
def test_verify_perturb_needs_two_shifts(k, tmp_path, capsys):
    # at N = 1 every assignment is the right one, so the negative control
    # is a usage error; the certificate itself still passes
    out = tmp_path / "out.txt"
    code, stdout, err = run_cli(["verify", "--N", "1", "--k", str(k),
                                 "--perturb", "--output", str(out)], capsys)
    assert code == 2
    assert stdout == "" and not out.exists() and "--perturb" in err
    code, stdout, _ = run_cli(["verify", "--N", "1", "--k", str(k)], capsys)
    assert code == 0
    assert stdout.count("PASS") == 3 and "FAIL" not in stdout


@pytest.mark.parametrize("argv", [
    ["verify", "--N", "0", "--k", "1"],
    ["verify", "--N", "2", "--k", "0"],
    ["verify", "--N", "-2", "--k", "1"],
    ["verify", "--N", "-100", "--k", "2"],
    ["simulate", "--N", "4", "--k", "0", "--hidden", "0"],
    ["simulate", "--N", "0", "--k", "2", "--hidden", "0"],
    ["simulate", "--N", "0", "--k", "2", "--hidden", "trivial"],
])
def test_sizes_without_a_block_exit_2(argv, tmp_path, capsys):
    # a usage error, not a failed certificate (1) or a guard (3)
    out = tmp_path / "out.txt"
    code, stdout, err = run_cli(argv + ["--output", str(out)], capsys)
    assert code == 2
    assert stdout == "" and err.startswith("error: need N >= 1 and k >= 1")
    assert not out.exists()


def test_monte_carlo_memory_guard_exits_3(tmp_path, capsys):
    # At N = 2^20 one shard of the default 10000 draws would need a 32 GiB
    # count table; the guard refuses it before any output is written.
    out = tmp_path / "out.csv"
    N = str(2 ** 20)
    for argv in (["sweep", "--N", N, "--k", "8..12"],
                 ["lsb", "--N", N, "--k", "12"],
                 ["simulate", "--N", N, "--k", "12", "--hidden", "5"]):
        code, stdout, err = run_cli(argv + ["--output", str(out)], capsys)
        assert code == 3
        assert stdout == "" and "memory guard" in err
        assert not out.exists()


def test_monte_carlo_runs_past_n_4096(tmp_path, capsys):
    # the guard reads the bytes a worker holds, so N = 2^16 runs; its p
    # agrees with another seed's estimate within 5 combined standard
    # errors, while one size up the guard refuses the sweep and the
    # simulator before any output
    out = tmp_path / "out.csv"
    code, _, _ = run_cli(["sweep", "--N", "65536", "--k", "16", "--samples",
                          "1000", "--output", str(out)], capsys)
    assert code == 0
    row, = csv.DictReader(out.read_text().splitlines())
    other = success_mc(65536, 16, 1000, seed=7)
    assert row["method"] == "MC"
    assert (abs(float(row["p"]) - other.p)
            <= 5 * math.hypot(float(row["stderr"]), other.stderr))
    out.unlink()
    for argv in (["sweep", "--N", "262144", "--k", "16"],
                 ["simulate", "--N", "131072", "--k", "14", "--hidden", "5"]):
        code, stdout, err = run_cli(argv + ["--output", str(out)], capsys)
        assert code == 3
        assert stdout == "" and "memory guard" in err
        assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["sweep", "--N", "131072", "--k", "31"],
    ["sweep", "--N", "262144", "--k", "6"],
    ["lsb", "--N", "131072", "--k", "31"],
    ["simulate", "--N", "65536", "--k", "30", "--hidden", "5"],
    ["simulate", "--N", "65536", "--k", "30", "--hidden", "trivial"],
])
@pytest.mark.parametrize("to_file", [True, False])
def test_one_past_the_memory_guard_exits_3(argv, to_file, tmp_path, capsys):
    # one k past the guard's reach, with the draws held at the width of
    # N: refused before any draw, with no file and nothing on stdout
    out = tmp_path / "out.csv"
    code, stdout, err = run_cli(
        argv + (["--output", str(out)] if to_file else []), capsys)
    assert code == 3
    assert stdout == "" and "memory guard" in err
    assert not out.exists()


def test_simulate_memory_does_not_grow_with_trials(tmp_path, capsys):
    # the CLI streams each shard's CSV rows as the pass yields it, so
    # 10x the trials is no more memory; one run before the measured ones
    # keeps one-time lazy imports out of the peaks
    out = tmp_path / "trials.csv"

    def peak(trials):
        argv = ["simulate", "--N", "16", "--k", "4", "--hidden", "3",
                "--trials", str(trials), "--output", str(out)]
        tracemalloc.start()
        code = main(argv)
        high = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert code == 0
        assert len(out.read_text().splitlines()) == trials + 1
        capsys.readouterr()
        return high

    peak(100)
    assert peak(4 * 10 ** 5) <= 1.2 * peak(4 * 10 ** 4)


@pytest.mark.parametrize("N,k", [(2, "1..27"), (8, "1..9")])
def test_exact_sweep_past_the_enumeration_guard_exits_3(N, k, tmp_path,
                                                        capsys):
    # the guard reads the largest k of the range, so no row is written
    out = tmp_path / "out.csv"
    code, stdout, err = run_cli(["sweep", "--exact", "--N", str(N), "--k", k,
                                 "--output", str(out)], capsys)
    assert code == 3
    assert stdout == "" and "enumeration guard" in err
    assert not out.exists()


#: sha256 of (stdout, --output file) at fixed seeds, as written before the
#: counting kernel was chunked (sweep, lsb, simulate with a shift) and
#: before trivial outcomes were read from support sizes and shift outcomes
#: from the half spectrum (the trivial and odd-N simulate runs); any
#: change to the Monte Carlo bytes shows.  The exact sweep and lsb runs
#: were recorded before the orbit walk shared its prefixes' counts; they
#: cover int16 and int32 tables, N = 64 and the deepest walk (N = 2,
#: k = 26).  The N = 8 and N = 64 sweeps and both lsb runs were
#: re-recorded when the exact means moved to the S_k x Z_N^* quotient,
#: which sums in another order: seven p values moved by 1 ulp.  They were
#: re-recorded again when the exact means also walked one x per orbit of
#: coordinate negations: five p values moved by 1 ulp, every exact row
#: within 2 ulp of a 50-digit reference (test below).  The N = 2 sweep
#: did not move: at N = 2 every class {c, -c} has one element.
GOLDEN = [
    pytest.param(
        ["sweep", "--N", "1024", "--k", "8..12", "--samples", "5000",
         "--seed", "7"],
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "6c052db375b728214b0e720b488b1eb8ea1fd80ad8271bc03e241db0abdd7a37",
        id="sweep"),
    pytest.param(
        ["lsb", "--N", "256", "--k", "12", "--samples", "5000", "--seed", "7"],
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "3cf8de3256f0c7b17de12a0d0bef4db68da023195b5fa5ee9c94cd5d7ef6f476",
        id="lsb"),
    pytest.param(
        ["simulate", "--N", "256", "--k", "12", "--hidden", "5", "--trials",
         "5000", "--seed", "7", "--threads", "2"],
        "8351bb2b0951fd3e442c0377325984e15cb30f67197b04429a71d05dc090f6f2",
        "438ce4230a3f20ac3baab4ad5677a9bfd0ce24778319c3ca1fb4b5f03e256f47",
        id="simulate"),
    pytest.param(
        ["simulate", "--N", "256", "--k", "6", "--hidden", "trivial",
         "--trials", "5000", "--seed", "7", "--threads", "2"],
        "17d06c37fa7ef267f3b25a32f2c3be7b985fe5d0509727a39c4cd5cc2a2c85e5",
        "3e9ad237571ca7964b90e2d7077b58b8011ee202e666ec3b852eea72f4866969",
        id="simulate-trivial"),
    pytest.param(
        ["simulate", "--N", "37", "--k", "6", "--hidden", "5", "--trials",
         "5000", "--seed", "7", "--threads", "2"],
        "5ba909fea032b9c91a464ea17df148183fbddc2eadde120019b9b9c20f7b16e5",
        "39b675f605233a9988609d544ccc127694802832cdbc3e8a7485792c2bdad330",
        id="simulate-odd-n"),
    pytest.param(
        ["sweep", "--exact", "--N", "8", "--k", "1..7"],
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "fc1d645fc9837a11246bb4ba5143285a1ce17d20512a52bf5dfaa26afe4591a3",
        id="sweep-exact-n8"),
    pytest.param(
        ["sweep", "--exact", "--N", "64", "--k", "1..3"],
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "85f79a3750de1e995d595e8cbc9a93fea8c46d76b3d89cdaaf901ebf5fb5622e",
        id="sweep-exact-n64"),
    pytest.param(
        ["sweep", "--exact", "--N", "2", "--k", "20..26"],
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "1de85acf9c5f1f6c05165e96f70ca3e3c8afa8337b933d71f20e5a565654f4f1",
        id="sweep-exact-n2"),
    pytest.param(
        ["lsb", "--exact", "--N", "8", "--k", "7"],
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "913dcad63a80668ea6a2854488451d55e2b8809a8f41406543eed042a6b80385",
        id="lsb-exact-n8"),
    pytest.param(
        ["lsb", "--exact", "--N", "4", "--k", "13"],
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "09a1a6c9130df218659f5c3a247c8fba7212ff99e4cdd020c4d20b9433c2d942",
        id="lsb-exact-n4"),
]


@pytest.mark.parametrize("argv, stdout_sha, output_sha", GOLDEN)
def test_cli_bytes_match_golden_digests(argv, stdout_sha, output_sha,
                                        tmp_path, capsys):
    out = tmp_path / "out"
    code, stdout, _ = run_cli(argv + ["--output", str(out)], capsys)
    assert code == 0
    assert hashlib.sha256(stdout.encode()).hexdigest() == stdout_sha
    assert hashlib.sha256(out.read_bytes()).hexdigest() == output_sha


#: Ulp within which every exact p of the golden runs must lie of its
#: 50-digit value: the exact means sum in walk order, SHARD values at a
#: time, so a change of walk may move a printed p, but only this far.
GOLDEN_EXACT_ULPS = 2


@pytest.mark.parametrize("argv, stdout_sha, output_sha",
                         [p for p in GOLDEN if "--exact" in p.values[0]])
def test_golden_exact_rows_lie_near_a_decimal_reference(argv, stdout_sha,
                                                        output_sha, tmp_path,
                                                        capsys):
    out = tmp_path / "out"
    assert run_cli(argv + ["--output", str(out)], capsys)[0] == 0
    for row in csv.DictReader(out.open()):
        N, k = int(row["N"]), int(row["k"])
        success, parity = decimal_means(N, k)
        value, exact = ((float(row["p_lsb"]), parity) if "p_lsb" in row
                        else (float(row["p"]), success))
        ulps = abs(Decimal(value) - exact) / Decimal(math.ulp(float(exact)))
        assert ulps <= GOLDEN_EXACT_ULPS, (N, k, value, float(ulps))


#: Instances whose sampled solutions are pinned by SUBSETSUM_SHA: a unique
#: solution, the int64 edge (k = 62, counts up to 2^61), and three random
#: draws at N = 1000, 37 (odd) and 4096.
SUBSETSUM_LINES = [
    "4 2 3 1 2",
    "2 62 0 " + " ".join(["1"] * 62),
    "1000 12 17 48 159 344 603 936 343 824 379 8 711 488 339",
    "37 20 5 1 4 9 16 25 36 12 27 7 26 10 33 21 11 3 34 30 28 28 30",
    "4096 16 0 102 199 296 393 490 587 684 781 878 975 1072 1169 1266 1363 "
    "1460 1557",
]
SUBSETSUM_SHA = "cbb5f289e3f7dd2106e27171a7defa4a0a8cf6a2f70cc2f89ddc07c5418aaa30"


def test_subsetsum_bytes_match_golden_digest(tmp_path, capsys):
    inst = tmp_path / "inst.txt"
    inst.write_text("\n".join(SUBSETSUM_LINES) + "\n")
    out = tmp_path / "out"
    code, stdout, _ = run_cli(["subsetsum", "--file", str(inst), "--samples",
                               "200", "--seed", "3", "--output", str(out)],
                              capsys)
    assert code == 0
    assert stdout == ""
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SUBSETSUM_SHA


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


@pytest.mark.parametrize("samples", ["0", "-2"])
def test_subsetsum_samples_below_one_exit_2_at_parse_time(samples, tmp_path,
                                                          capsys):
    inst = tmp_path / "inst.txt"
    inst.write_text("4 2 3 1 2\n")
    with pytest.raises(SystemExit) as exc:
        main(["subsetsum", "--file", str(inst), "--samples", samples])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--samples" in captured.err


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


@pytest.mark.parametrize("line, qsample", [
    # (k+1) N = 8 * 10^6 cells of the sampler's counting table
    ("2000000 3 5 1999999 7 11", False),
    # N > 2^31: the sampler's table guard, the completion's dense guard
    ("3000000000 3 5 2999999999 7 11", False),
    ("3000000000 3 5 2999999999 7 11", True),
])
def test_subsetsum_guards_exit_3(line, qsample, tmp_path, capsys):
    inst = tmp_path / "inst.txt"
    inst.write_text(line + "\n")
    argv = ["subsetsum", "--file", str(inst)] + (["--qsample"] if qsample else [])
    code, out, err = run_cli(argv, capsys)
    assert code == 3
    assert out == ""
    assert "exceeds" in err


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
