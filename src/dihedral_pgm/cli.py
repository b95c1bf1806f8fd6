"""Batch command-line front end.

Subcommands expose the toolkit with seeded determinism: the same flags
and the same seed produce byte-identical output files.  Exit codes are
scriptable: 0 success, 1 a certification check failed, 2 usage or input
error, 3 a resource guard refused the requested scale.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import sys

import numpy as np

from . import pgm, reptheory, simulate, subsetsum, success
from .dihedral import TRIVIAL, ScaleLimitError, _check_dense

DEFAULT_SEED = 20050815

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_GUARD = 3


def _write(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _parse_k_range(text: str) -> list[int]:
    if ".." in text:
        lo_s, hi_s = text.split("..", 1)
        lo, hi = int(lo_s), int(hi_s)
    else:
        lo = hi = int(text)
    if lo < 1 or hi < lo:
        raise ValueError(f"bad k range {text!r} (need 1 <= lo <= hi)")
    return list(range(lo, hi + 1))


def _positive_int(text: str) -> int:
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"need an integer >= 1, got {text!r}")
    return int(text)


def _float_repr(v: float) -> str:
    return repr(float(v))


def _rows_to_text(header: list[str], rows: list[list[str]], fmt: str) -> str:
    if fmt == "json":
        payload = [dict(zip(header, row)) for row in rows]
        return json.dumps(payload, indent=2) + "\n"
    lines = [",".join(header)]
    lines += [",".join(row) for row in rows]
    return "\n".join(lines) + "\n"


#: Trials whose CSV rows _csv_rows formats as one byte matrix.  A slice
#: pays a few dozen numpy calls whatever its length, so fewer rows cost
#: more CPU and more rows more memory.  On 2 shared vCPUs, formatting
#: 10^4 rows at N = 1024 took 3.0 ms at 512 rows a slice, 1.3 ms at 1024
#: and 1.0 ms at 2048, and the parent's tracemalloc peak of a 10^4-trial
#: simulate on 2 workers was 0.073, 0.093 and 0.147 MB: 1024 is near the
#: CPU of 2048 at a third less memory.
CSV_SLICE = 1024


def _digits(values: np.ndarray, out: np.ndarray) -> None:
    """Write the non-negative integers values, right-aligned in ASCII,
    into the (len(values), width) uint8 columns out, with 0 in place of
    leading zeros; values is divided down in place."""
    for col in range(out.shape[1] - 1, -1, -1):
        column = out[:, col]
        np.remainder(values, 10, out=column, casting="unsafe")
        if col == out.shape[1] - 1:
            column += ord("0")
        else:
            # values holds this digit and those left of it: 0 here is a
            # leading zero
            np.add(column, ord("0"), out=column, where=values != 0)
        values //= 10


def _csv_rows(outcomes: np.ndarray, first: int, N: int, want: int):
    """Yield the simulate CSV rows "trial,hidden,outcome,correct" of
    trials first, first + 1, ... with these outcomes (N names the
    trivial outcome, and want the right one), as one str a CSV_SLICE
    of trials.  Each slice is a (rows, width) uint8 matrix with 0 in
    place of leading zeros and padding, which no byte of a row is, so
    its nonzero bytes are the slice's text: no str a trial, and nothing
    sized by N."""
    hidden = f",{'trivial' if want == N else want},".encode()
    width = len(str(N - 1))  # of the outcomes other than N
    field = max(width, len("trivial"))
    trivial = np.frombuffer(b"trivial".rjust(field, b"\0"), np.uint8)
    for lo in range(0, len(outcomes), CSV_SLICE):
        sliced = outcomes[lo:lo + CSV_SLICE]
        start = first + lo
        index = len(str(start + len(sliced) - 1))
        rows = np.zeros((len(sliced), index + len(hidden) + field + 3),
                        np.uint8)
        _digits(np.arange(start, start + len(sliced)), rows[:, :index])
        rows[:, index:index + len(hidden)] = np.frombuffer(hidden, np.uint8)
        named = rows[:, index + len(hidden):-3]
        _digits(sliced.copy(), named[:, field - width:])
        named[sliced == N] = trivial
        rows[:, -3] = ord(",")
        np.add(sliced == want, ord("0"), out=rows[:, -2], casting="unsafe")
        rows[:, -1] = ord("\n")
        yield str(memoryview(rows[rows != 0]), "ascii")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_sweep(args) -> int:
    k_list = _parse_k_range(args.k)
    if args.exact:
        points = success.exact_sweep(args.N, k_list)
    else:
        points = success.threshold_sweep(args.N, k_list, args.samples,
                                         args.seed, threads=args.threads)
    rows = [[str(p.N), str(p.k), _float_repr(p.nu), _float_repr(p.p),
             _float_repr(p.stderr), p.method] for p in points]
    _write(args.output, _rows_to_text(
        ["N", "k", "nu", "p", "stderr", "method"], rows, args.format))
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.perturb and args.N < 2:
        # a control that cannot fail shows nothing
        raise ValueError("--perturb needs N >= 2: with one shift there is "
                         "no wrong assignment")
    shift = 1 if args.perturb else 0
    # every refusal before any certificate: the size check and the oracle
    # guard as the certifiers make them, then the QFT guard of the irrep
    # check, which reads the transform cached here
    success._check_size(args.N, args.k)
    _check_dense(args.N, args.k)
    reptheory.qft_dihedral(args.N)
    lines = []
    ok = True

    report = pgm.certify_dihedral_pgm(args.N, args.k, assignment_shift=shift)
    lines += [f"pgm {line}" for line in report.lines()]
    ok &= report.passed

    if args.N % 2 == 0:
        report = pgm.lsb_povm(args.N, args.k).certify()
        lines += [f"lsb {line}" for line in report.lines()]
        ok &= report.passed

    equiv = reptheory.equivalence_check(args.N, range(args.N))
    lines.append(f"irrep-equivalence single-copy all-shifts "
                 f"{'PASS' if equiv else 'FAIL'}")
    ok &= equiv

    _write(args.output, "\n".join(lines) + "\n")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_simulate(args) -> int:
    hidden = TRIVIAL if args.hidden == "trivial" else int(args.hidden)
    with contextlib.ExitStack() as stack:
        out, done = None, 0

        def sink(outcomes):
            # one shard's CSV rows; the output is opened at the first
            # shard, so a run the guard refuses writes no file, and N has
            # passed run_trials's size check by then
            nonlocal out, done
            # outcome N names the trivial outcome, and the trivial hidden
            # subgroup
            want = args.N if hidden == TRIVIAL else hidden % args.N
            if out is None:
                out = (sys.stdout if args.output is None else
                       stack.enter_context(open(args.output, "w",
                                                encoding="utf-8",
                                                newline="\n")))
                out.write("trial,hidden,outcome,correct\n")
            out.writelines(_csv_rows(outcomes, done, args.N, want))
            done += len(outcomes)

        rate, _ = simulate.run_trials(args.N, args.k, hidden, args.trials,
                                      args.seed, threads=args.threads,
                                      sink=sink)
    stderr = math.sqrt(max(rate * (1 - rate), 0.0) / args.trials)
    summary = {"rate": rate, "stderr": stderr, "trials": args.trials}
    sys.stdout.write(json.dumps(summary) + "\n")
    return EXIT_OK


def cmd_subsetsum(args) -> int:
    with open(args.file, "r", encoding="utf-8") as fh:
        raw = fh.read().splitlines()
    root = np.random.SeedSequence(args.seed)
    line_seeds = root.spawn(len(raw))
    out_lines = []
    for lineno, line in enumerate(raw, start=1):
        if not line.strip():
            continue
        try:
            inst = subsetsum.parse_instance(line)
            if args.qsample:
                vec = subsetsum.qsample(inst.label, inst.t)
                for idx in np.flatnonzero(np.abs(vec) > 1e-14):
                    out_lines.append(f"{idx},{_float_repr(vec[idx].real)},"
                                     f"{_float_repr(vec[idx].imag)}")
            else:
                rng = np.random.default_rng(line_seeds[lineno - 1])
                draws = subsetsum.sample_solutions(inst, args.samples, rng)
                out_lines += [subsetsum.format_solution(b, inst.label.k)
                              for b in draws]
        except ValueError as exc:  # a ScaleLimitError keeps its exit 3
            raise type(exc)(f"line {lineno}: {exc}") from None
    _write(args.output, "\n".join(out_lines) + "\n")
    return EXIT_OK


def cmd_lsb(args) -> int:
    if args.exact:
        p = success.lsb_success_exact(args.N, args.k)
        point = success.ThresholdPoint(args.N, args.k,
                                       success._density(args.N, args.k), p,
                                       0.0, "EXACT")
        # only after the enumeration guard: 2^k / N overflows a float
        bound = success.lsb_upper_bound(args.N, args.k)
    else:
        point, bound = success.lsb_threshold_check(
            args.N, args.k, args.samples, args.seed, threads=args.threads)
    row = [str(point.N), str(point.k), _float_repr(point.nu),
           _float_repr(point.p), _float_repr(point.stderr),
           _float_repr(bound), point.method]
    _write(args.output, _rows_to_text(
        ["N", "k", "nu", "p_lsb", "stderr", "bound", "method"], [row],
        args.format))
    return EXIT_OK


def cmd_infobound(args) -> int:
    result = success.info_lower_bound(args.N, args.p)
    row = [str(result.N), _float_repr(result.p), str(result.k_min)]
    _write(args.output, _rows_to_text(["N", "p", "k_min"], [row], args.format))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process and shared by every main()."""
    parser = argparse.ArgumentParser(
        prog="dihedral-pgm",
        description="Optimal measurement on dihedral hidden-subgroup states: "
                    "certification, simulation, and subset-sum sampling.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=True, threads=True, fmt=True):
        p.add_argument("--output", help="output file (default: stdout)")
        if seed:
            p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                           help=f"RNG seed (default {DEFAULT_SEED})")
        if threads:
            p.add_argument("--threads", type=_positive_int, default=1,
                           help="workers for the Monte Carlo shards (>= 1)")
        if fmt:
            p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("sweep", help="success probability versus k")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--k", required=True, help="single value or range lo..hi")
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--exact", action="store_true",
                   help="force exact enumeration for every k")
    common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify", help="optimality certification at (N, k)")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--perturb", action="store_true",
                   help="mis-assign effects (negative control; must fail)")
    common(p, seed=False, threads=False, fmt=False)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("simulate", help="run measurement trials")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--hidden", required=True,
                   help="hidden shift d, or 'trivial'")
    p.add_argument("--trials", type=int, default=10000)
    common(p, fmt=False)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("subsetsum", help="sample subset-sum solutions")
    p.add_argument("--file", required=True,
                   help="instances, one 'N k t x_1 ... x_k' per line")
    p.add_argument("--samples", type=_positive_int, default=1)
    p.add_argument("--qsample", action="store_true",
                   help="emit the quantum-sample amplitudes instead")
    common(p, threads=False, fmt=False)
    p.set_defaults(func=cmd_subsetsum)

    p = sub.add_parser("lsb", help="parity-bit success probability")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--exact", action="store_true")
    common(p)
    p.set_defaults(func=cmd_lsb)

    p = sub.add_parser("infobound", help="copy lower bound from chi")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--p", type=float, required=True)
    common(p, seed=False, threads=False)
    p.set_defaults(func=cmd_infobound)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ScaleLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
