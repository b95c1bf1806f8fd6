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
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dihedral_pgm
from dihedral_pgm import success_mc
from dihedral_pgm.cli import CSV_SLICE, _csv_rows, main
from dihedral_pgm.subsetsum import _label_dtype
from sk_oracle import decimal_means, threshold_envelope


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


def test_sweep_last_row_is_the_sweep_of_that_k_alone(tmp_path, capsys):
    # the Monte Carlo rows of a sweep come from one pass at its largest k,
    # drawn from the seed itself, so its last row is that k's sweep
    lines = {}
    for k in ("8..12", "12"):
        out = tmp_path / f"sweep-{k}.csv"
        code, _, _ = run_cli(["sweep", "--N", "1024", "--k", k, "--samples",
                              "3000", "--seed", "5", "--output", str(out)],
                             capsys)
        assert code == 0
        lines[k] = out.read_text().splitlines()
    assert len(lines["8..12"]) == 6 and len(lines["12"]) == 2
    assert lines["8..12"][-1] == lines["12"][-1]


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


@pytest.mark.parametrize("N", [513, 2048])
def test_verify_checks_the_qft_guard_before_any_certificate(N, tmp_path,
                                                            capsys,
                                                            monkeypatch):
    # at k = 1, (2N)^k <= 4096 passes the oracle guard, but 2N > 1024
    # fails the irrep check's QFT guard, which verify checks first
    def certifier(*args, **kwargs):
        raise AssertionError("certified before the QFT guard")

    for module, name in ((dihedral_pgm.pgm, "certify_dihedral_pgm"),
                         (dihedral_pgm.pgm, "lsb_povm"),
                         (dihedral_pgm.reptheory, "equivalence_check")):
        monkeypatch.setattr(module, name, certifier)
    out = tmp_path / "out.txt"
    code, stdout, err = run_cli(["verify", "--N", str(N), "--k", "1",
                                 "--output", str(out)], capsys)
    assert code == 3
    assert stdout == "" and not out.exists()
    assert err == f"error: QFT guard: 2N = {2 * N} exceeds 1024\n"


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
    ["simulate", "--N", "65536", "--k", "31", "--hidden", "5"],
    ["simulate", "--N", "65536", "--k", "31", "--hidden", "trivial"],
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


def _fstring_rows(outcomes, first, N, want):
    # the CSV rows as the CLI formatted them, one f-string a trial
    def name(j):
        return "trivial" if j == N else str(j)
    return "".join(f"{i},{name(want)},{name(o)},{int(o == want)}\n"
                   for i, o in enumerate(outcomes.tolist(), first))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_csv_rows_equal_the_fstring_rows(data):
    # any N, a shift or the trivial subgroup (want = N), outcomes at the
    # width of N in [0, N] with N and want among them, first indices at
    # and past a change of digit count, and slices of 1 to 2 CSV_SLICE
    # rows
    N = data.draw(st.integers(1, 2 ** 17), label="N")
    want = data.draw(st.just(N) | st.integers(0, N - 1), label="want")
    n = data.draw(st.integers(1, 2 * CSV_SLICE), label="rows")
    first = data.draw(st.sampled_from([0, 9, 10, 99, 100, 10 ** 9 - 3])
                      | st.integers(0, 10 ** 12), label="first")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    outcomes = rng.integers(0, N + 1, n).astype(_label_dtype(N))
    for value in (N, want):
        outcomes[data.draw(st.integers(0, n - 1))] = value
    assert ("".join(_csv_rows(outcomes, first, N, want))
            == _fstring_rows(outcomes, first, N, want))


def test_simulate_parent_memory_grows_with_neither_n_nor_trials(tmp_path,
                                                                capsys):
    # The parent formats the CSV a slice at a time, with no str a trial
    # and none an outcome, and the workers' memory is their own.  A first
    # run of 10^5 trials starts the pool, makes the lazy imports and
    # fills the pool's window of 4 shards in flight once, so that the
    # allocator's free lists hold what a full window needs before any
    # peak is taken.  A run's peak is the highest of its shards' overlaps
    # of the formatter with the results in flight, which timing moves, so
    # the 10^4-trial peak is the highest of 8 runs: as many shards as the
    # 10^5 run's 25.
    out = tmp_path / "peak.csv"

    def peak(N, k, trials):
        argv = ["simulate", "--N", str(N), "--k", str(k), "--hidden", "5",
                "--trials", str(trials), "--seed", "7", "--threads", "2",
                "--output", str(out)]
        tracemalloc.start()
        code = main(argv)
        high = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert code == 0
        capsys.readouterr()
        return high

    peak(1024, 6, 10 ** 5)
    more, fewer = (peak(1024, 6, 10 ** 5),
                   max(peak(1024, 6, 10 ** 4) for _ in range(8)))
    assert more <= 1.25 * fewer, (more, fewer)
    wide, narrow = peak(65536, 17, 300), peak(1024, 17, 300)
    assert wide <= 1.5 * narrow, (wide, narrow)


@pytest.mark.parametrize("hidden", ["999", "trivial"])
def test_simulate_stdout_is_the_csv_then_the_summary(hidden, tmp_path,
                                                     capsys):
    argv = ["simulate", "--N", "1000", "--k", "6", "--hidden", hidden,
            "--trials", "5000", "--seed", "7", "--threads", "2"]
    out = tmp_path / "out.csv"
    code, summary, _ = run_cli(argv + ["--output", str(out)], capsys)
    assert code == 0 and summary.count("\n") == 1
    code, stdout, _ = run_cli(argv, capsys)
    assert code == 0
    assert stdout.encode() == out.read_bytes() + summary.encode()


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


#: Every refusal a command can reach, as (argv, subsetsum instance or
#: None, what its stderr line must name): the Monte Carlo memory guard and
#: int64 counting, the enumeration guard of the exact passes, the oracle
#: and QFT guards of verify, and the subset-sum sampler's counting table
#: and the completion's dense dimension, past N and past 2^k.
#: bit_dot_table's own guards are not among them: the completion's
#: N + 2^k <= 4096 refuses first
ENUMERATION_GUARD = (
    "enumeration guard (use success_mc, lsb_threshold_check or "
    "trivial_success with samples): N^k = 134217728 exceeds 67108864")
REFUSALS = {
    "sweep-memory": (["sweep", "--N", "262144", "--k", "16"], None,
                     "memory guard (N = 262144, k = 16)"),
    "sweep-counting": (["sweep", "--N", "1024", "--k", "60..63"], None,
                       "int64 counting guard: k = 63 exceeds 62"),
    "sweep-exact": (["sweep", "--exact", "--N", "8", "--k", "1..9"], None,
                    ENUMERATION_GUARD),
    "lsb-memory": (["lsb", "--N", "131072", "--k", "31"], None,
                   "memory guard (N = 131072, k = 31)"),
    "lsb-exact": (["lsb", "--exact", "--N", "2", "--k", "27"], None,
                  ENUMERATION_GUARD),
    "verify-oracle": (["verify", "--N", "9", "--k", "4"], None,
                      "oracle scale guard: (2N)^k = 104976 exceeds 4096"),
    "verify-qft": (["verify", "--N", "513", "--k", "1"], None,
                   "QFT guard: 2N = 1026 exceeds 1024"),
    "simulate-memory": (["simulate", "--N", "131072", "--k", "14",
                         "--hidden", "5"], None,
                        "memory guard (N = 131072, k = 14)"),
    "simulate-trivial-memory": (["simulate", "--N", "65536", "--k", "31",
                                 "--hidden", "trivial"], None,
                                "memory guard (N = 65536, k = 31)"),
    "simulate-counting": (["simulate", "--N", "64", "--k", "63",
                           "--hidden", "5"], None,
                          "int64 counting guard: k = 63 exceeds 62"),
    "subsetsum-table": (["subsetsum"], "2000000 3 5 1999999 7 11",
                        "counting table guard: (k + 1) N = 8000000"),
    "subsetsum-qsample-n": (["subsetsum", "--qsample"],
                            "3000000000 3 5 2999999999 7 11",
                            "dense dimension 3000000008 exceeds 4096"),
    "subsetsum-qsample-k": (["subsetsum", "--qsample"],
                            "4 25 0" + " 1" * 25,
                            "dense dimension 33554436 exceeds 4096"),
}


@pytest.mark.parametrize("name", REFUSALS)
def test_every_refusal_exits_3_and_names_its_guard(name, tmp_path, capsys):
    argv, instance, guard = REFUSALS[name]
    if instance is not None:
        (tmp_path / "inst.txt").write_text(instance + "\n")
        argv = argv + ["--file", str(tmp_path / "inst.txt")]
    out = tmp_path / "out.txt"
    code, stdout, err = run_cli(argv + ["--output", str(out)], capsys)
    assert code == 3
    assert stdout == "" and not out.exists()
    line, = err.splitlines()
    assert line.startswith("error: ") and guard in line


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
#: did not move: at N = 2 every class {c, -c} has one element.  The two
#: shift simulate runs were re-recorded when a shift's inverse CDF put
#: the hidden shift d first, so that a trial that hits d needs no FFT:
#: the law of the outcomes did not change, but the outcome a given
#: uniform maps to did, and with it the rate (0.9836 to 0.9834 and 0.7598
#: to 0.7542); the trivial run did not move.  The (64, 14) and odd-N
#: (37, 12) shift runs and the (64, 16) trivial run were recorded before
#: shift trials settled at a checkpoint depth and trivial trials counted
#: their support on bool tables: the shift runs are deep enough for a
#: checkpoint, which the runs above are not, and the trivial run counts
#: past k = 14.  The (65536, 22) and odd-N (40000, 21) shift runs and the
#: (1000, 12) trivial run were recorded before checkpoints counted on
#: uint8 tables with float32 heads and bool tables were seeded with no
#: histogram: at N = 65536 a head's float32 sum runs over the most terms
#: of any golden run.  The (1000, 6) run past 10^5 trials, the N = 1
#: trivial run and the (65536, 17) run at hidden N - 1 were recorded
#: while CSV rows were still formatted one f-string a trial: the index
#: column widens from 5 to 6 digits inside one formatting slice, N = 1
#: names only the outcomes 0 and trivial, and N = 65536 has the widest
#: outcome column.  The Monte Carlo sweep was re-recorded when its rows
#: came from one pass at the largest k, its draws from the seed itself
#: and each k reading the first k coordinates of them, in place of one
#: pass of fresh draws per k from a child seed: every row moved, each
#: by less than 2 se of its difference from the row it replaced, and its
#: last row is now the `sweep` of that k alone; the lsb and exact runs
#: did not move.
GOLDEN = [
    pytest.param(
        ["sweep", "--N", "1024", "--k", "8..12", "--samples", "5000",
         "--seed", "7"],
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "791c3bd118de16d7a873ffcffcb897e5e47a8a8e723d9d81f8ad66725703367d",
        id="sweep"),
    pytest.param(
        ["lsb", "--N", "256", "--k", "12", "--samples", "5000", "--seed", "7"],
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "3cf8de3256f0c7b17de12a0d0bef4db68da023195b5fa5ee9c94cd5d7ef6f476",
        id="lsb"),
    pytest.param(
        ["simulate", "--N", "256", "--k", "12", "--hidden", "5", "--trials",
         "5000", "--seed", "7", "--threads", "2"],
        "f992dae81b53a7f08bb90fae39491e00ef269a87676e356a2f39ddc08e0d8bb3",
        "00c76cdbc91543ba285ad13738c9aae6f04fc1cf6d1bd0c654dcd6c446b4eb12",
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
        "30cd313d154eaace4b97ad7aaa569bb2cf0b19df7c0235e534594b3f37f4df9e",
        "0870dfbefa1503cd54a02cd99e47fb97d6aeb68bb139f0eb268d672c51b1dc45",
        id="simulate-odd-n"),
    pytest.param(
        ["simulate", "--N", "64", "--k", "14", "--hidden", "3", "--trials",
         "5000", "--seed", "7", "--threads", "2"],
        "e912aebd16e97c3d9cf12804d1555224f8d5d0d9bedbb1393711d077df4c4f36",
        "0af7281f86c95feb99815f216af268b022e71c5da227130db107d4c1767bad42",
        id="simulate-checkpoint"),
    pytest.param(
        ["simulate", "--N", "37", "--k", "12", "--hidden", "5", "--trials",
         "5000", "--seed", "7", "--threads", "2"],
        "859b1e65ea439987eacde3b6a82dab4e15ae876b93a83b5eae7d4da71caebce5",
        "e18cdf5b971bc57bd06370dd87ccea06ba3b67813eb87908dd693c07351c659c",
        id="simulate-checkpoint-odd-n"),
    pytest.param(
        ["simulate", "--N", "64", "--k", "16", "--hidden", "trivial",
         "--trials", "5000", "--seed", "7", "--threads", "2"],
        "9284431c8829201b45f6cc3f4b5ffe78448f804e592add4505cc493828b03a67",
        "15410c0601d02306463987dbcbd656e8dca4785123749ef4fce302a7eef82023",
        id="simulate-trivial-bool"),
    pytest.param(
        ["simulate", "--N", "65536", "--k", "22", "--hidden", "5",
         "--trials", "2000", "--seed", "7", "--threads", "2"],
        "8ec251b1c5f2482ba0879ecaa5106bc046643e3261c7d5a1d65b00f6be679b9a",
        "c981eeecfe5edfebce352b9d0b6692929a75fbb295591e641b44b939ad10335e",
        id="simulate-checkpoint-wide"),
    pytest.param(
        ["simulate", "--N", "40000", "--k", "21", "--hidden", "5",
         "--trials", "3000", "--seed", "7", "--threads", "2"],
        "3756a8390125f3225113ed3e735a880ddd30d8db618fc3d160fa1ba5a9c1fbe9",
        "a04ca1bf5625a430e527b111ea35dfe759ddedd8352d254121fe8793b3354f01",
        id="simulate-checkpoint-wide-odd-n"),
    pytest.param(
        ["simulate", "--N", "1000", "--k", "12", "--hidden", "trivial",
         "--seed", "7", "--threads", "2"],
        "98b7fe5e6ac4e142a1ea5e846392c2d7f1539e4cbaa46b3d02c2d2f24fb51c86",
        "e5aa02af68ca8fafd651fcde771943270e6f28138060c4a21351bc6782f17a9a",
        id="simulate-trivial-n1000"),
    pytest.param(
        ["simulate", "--N", "1000", "--k", "6", "--hidden", "999",
         "--trials", "100500", "--seed", "7", "--threads", "2"],
        "f1a920e90b5f13404a9c268e048b3d7fd352a4680bda0cbf9ee6451d5d499117",
        "668cfb8148a0c363aaf395012f69d2b168dd9c8f6ade61ae3e1d1a1d394d0fa4",
        id="simulate-index-widens"),
    pytest.param(
        ["simulate", "--N", "1", "--k", "5", "--hidden", "trivial",
         "--trials", "3000", "--seed", "7", "--threads", "2"],
        "3ccb0904442760a4129b2a35e36d210821794d21f6f1f104bc476aff4e77115e",
        "3d345e388508723af2cfe6dd109202376315a27a24f5f138f9c60d9c225308ad",
        id="simulate-n1-trivial"),
    pytest.param(
        ["simulate", "--N", "65536", "--k", "17", "--hidden", "65535",
         "--trials", "600", "--seed", "7", "--threads", "2"],
        "646d128002cbe86d9ee6b2c6449179626d14fea9a637b10d2a63722429e3a8d9",
        "fe922192c4b61b0f0423f951f8159f97acec5cce86e42ba116db2155f8c2d782",
        id="simulate-widest-outcome"),
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
    with out.open() as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        N, k = int(row["N"]), int(row["k"])
        success, parity = decimal_means(N, k)
        value, exact = ((float(row["p_lsb"]), parity) if "p_lsb" in row
                        else (float(row["p"]), success))
        ulps = abs(Decimal(value) - exact) / Decimal(math.ulp(float(exact)))
        assert ulps <= GOLDEN_EXACT_ULPS, (N, k, value, float(ulps))


@pytest.mark.parametrize("argv", [p.values[0] for p in GOLDEN
                                  if p.values[0][:2] == ["sweep", "--exact"]])
def test_golden_exact_rows_lie_in_the_threshold_envelope(argv, tmp_path,
                                                         capsys):
    # the printed p, exactly as a Fraction, within the paper's envelope
    # 2^k / (N + 2^k - 1) <= p <= min(1, 2^k / N)
    out = tmp_path / "out"
    assert run_cli(argv + ["--output", str(out)], capsys)[0] == 0
    with out.open() as fh:
        rows = list(csv.DictReader(fh))
    assert rows
    for row in rows:
        N, k = int(row["N"]), int(row["k"])
        lo, hi = threshold_envelope(N, k)
        assert lo <= Fraction(float(row["p"])) <= hi, (N, k, row["p"])


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


def test_subsetsum_skips_blank_lines(tmp_path, capsys):
    # a blank line writes nothing and keeps the numbering and the seeds of
    # the lines after it, which are spawned one a line of the file
    inst = tmp_path / "inst.txt"
    outs = []
    for middle in ("\n   \n", "4 2 3 1 2\n" * 2):
        inst.write_text("4 2 3 1 2\n" + middle + "3 3 0 1 1 1\n")
        code, out, _ = run_cli(["subsetsum", "--file", str(inst),
                                "--samples", "20", "--seed", "5"], capsys)
        assert code == 0
        outs.append(out.splitlines())
    blank, full = outs
    assert blank[:20] == ["11"] * 20 and len(blank) == 40
    assert blank[20:] == full[60:]
    assert set(blank[20:]) == {"000", "111"}
    inst.write_text("4 2 3 1 2\n\n4 2 3 1\n")
    code, _, err = run_cli(["subsetsum", "--file", str(inst)], capsys)
    assert code == 2
    assert "line 3" in err


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


#: A third line the sampler or the completion refuses (exit 3), and one
#: neither can read (exit 2), after two lines that pass.
BAD_THIRD_LINES = [
    ("2000000 3 5 1999999 7 11", False, 3, "counting table guard"),
    ("8 40 1" + " 1" * 40, True, 3,
     "dense dimension 1099511627784 exceeds 4096"),
    ("2 2 1 0 0", False, 2, "no solution"),
    ("4 2 3 1", True, 2, "expected 2 entries, got 1"),
]


@pytest.mark.parametrize("line, qsample, exit_code, message",
                         BAD_THIRD_LINES, ids=["sample-guard", "qsample-guard",
                                               "sample-usage", "qsample-usage"])
def test_subsetsum_names_the_line_of_every_refusal(line, qsample, exit_code,
                                                   message, tmp_path,
                                                   capsys):
    inst = tmp_path / "inst.txt"
    inst.write_text("4 2 3 1 2\n2 2 0 1 1\n" + line + "\n")
    out = tmp_path / "out.txt"
    argv = ["subsetsum", "--file", str(inst), "--output", str(out)]
    code, stdout, err = run_cli(argv + (["--qsample"] if qsample else []),
                                capsys)
    assert code == exit_code
    assert stdout == "" and not out.exists()
    assert err.startswith(f"error: line 3: {message}")


def test_lsb_odd_n(capsys):
    code, _, err = run_cli(["lsb", "--N", "3", "--k", "2"], capsys)
    assert code == 2
    assert "N must be even" in err


@pytest.mark.parametrize("argv, message", [
    (["--N", "1", "--k", "2"], "need N >= 2 and k >= 1"),
    (["--N", "3", "--k", "0"], "need N >= 2 and k >= 1"),
    (["--N", "1", "--k", "2", "--exact"], "need N >= 2 and k >= 1"),
    (["--N", "3", "--k", "2", "--exact"], "N must be even")])
def test_lsb_domain_errors_come_from_the_library(argv, message, capsys):
    code, out, err = run_cli(["lsb"] + argv, capsys)
    assert code == 2
    assert out == "" and message in err


@pytest.mark.parametrize("argv", [
    ["sweep", "--N", "1024", "--k", "8..12"],
    # past the memory guard too: the sample count is checked first
    ["sweep", "--N", "1024", "--k", "63"],
    ["lsb", "--N", "256", "--k", "12"]])
def test_one_monte_carlo_sample_exits_2_and_writes_nothing(argv, tmp_path,
                                                          capsys):
    out = tmp_path / "out.csv"
    code, stdout, err = run_cli(argv + ["--samples", "1", "--output",
                                        str(out)], capsys)
    assert code == 2
    assert stdout == "" and "need at least 2 samples" in err
    assert not out.exists()


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
