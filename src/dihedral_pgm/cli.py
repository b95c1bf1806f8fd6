"""Batch command-line front end.

Subcommands expose the toolkit with seeded determinism: the same flags
and the same seed produce byte-identical output files.  Exit codes are
scriptable: 0 success, 1 a certification check failed, 2 usage or input
error, 3 a resource guard refused the requested scale.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import pgm, reptheory, simulate, subsetsum, success
from .dihedral import TRIVIAL, ScaleLimitError

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


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_sweep(args) -> int:
    k_list = _parse_k_range(args.k)
    if args.exact:
        points = [success.success_exact(args.N, k) for k in k_list]
    else:
        points = success.threshold_sweep(args.N, k_list, args.samples,
                                         args.seed, threads=args.threads)
    rows = [[str(p.N), str(p.k), _float_repr(p.nu), _float_repr(p.p),
             _float_repr(p.stderr), p.method] for p in points]
    _write(args.output, _rows_to_text(
        ["N", "k", "nu", "p", "stderr", "method"], rows, args.format))
    return EXIT_OK


def cmd_verify(args) -> int:
    shift = 1 if args.perturb else 0
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
    rate, columns = simulate.run_trials(args.N, args.k, hidden, args.trials,
                                        args.seed, threads=args.threads)
    # index N names the trivial outcome, and the trivial hidden subgroup
    names = [str(j) for j in range(args.N)] + ["trivial"]
    want = args.N if hidden is TRIVIAL else hidden % args.N
    lines = ["trial,hidden,outcome,correct"]
    lines += [f"{i},{names[want]},{names[out]},{int(out == want)}"
              for i, out in enumerate(columns["outcomes"].tolist())]
    _write(args.output, "\n".join(lines) + "\n")
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
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        if args.qsample:
            vec = subsetsum.qsample(inst.label, inst.t)
            for idx in np.flatnonzero(np.abs(vec) > 1e-14):
                out_lines.append(f"{idx},{_float_repr(vec[idx].real)},"
                                 f"{_float_repr(vec[idx].imag)}")
        else:
            rng = np.random.default_rng(line_seeds[lineno - 1])
            try:
                draws = subsetsum.sample_solutions(inst, args.samples, rng)
            except ValueError as exc:  # a ScaleLimitError keeps its exit 3
                raise type(exc)(f"line {lineno}: {exc}") from None
            out_lines += [subsetsum.format_solution(b, inst.label.k)
                          for b in draws]
    _write(args.output, "\n".join(out_lines) + "\n")
    return EXIT_OK


def cmd_lsb(args) -> int:
    if args.N % 2 != 0:
        raise ValueError("N must be even")
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
