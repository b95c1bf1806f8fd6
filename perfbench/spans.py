"""Spans around the program's layers, recorded from outside the program.

The benchmark never edits the package.  It replaces the module attributes
the program calls through (``success.count_eta_batch``,
``numpy.linalg.eigvalsh``, the entry points ``cli`` calls, ...) with
wrappers that record one span per call: name, layer, start, end, parent
span and thread.  Thread pools created by ``success`` and ``simulate``
are swapped for a subclass whose tasks attach to the span of the thread
that submitted them, so shard work is charged to its caller.

Self time is computed by a sweep over all spans: at every instant the
time goes to the spans that are open and have no open child; when
several such leaves run at once (pool threads) the instant is split
evenly among them.  The self times of all spans therefore add up to the
wall time covered by the root spans, and per-layer sums partition it.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import math
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

#: The program's modules; each is one layer.  "bench" is the harness's
#: own share of the root spans (stdout capture around CLI calls).
LAYERS = ("bench", "cli", "success", "simulate", "subsetsum", "pgm",
          "dihedral", "reptheory")


class MissingTarget(RuntimeError):
    """A module attribute the tracer must wrap does not exist."""


class Tracer:
    """In-memory span recorder; spans are post-processed after the run."""

    def __init__(self):
        self.spans = []  # (sid, name, layer, start, end, parent, thread)
        self.counts = defaultdict(float)
        self.enumerated = defaultdict(int)  # (N, k) -> eta rows enumerated
        self.pools = []  # (layer, max_workers, start, end)
        self.active = False
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self):
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def open(self, name, layer):
        stack = self._stack()
        parent, parent_layer = stack[-1] if stack else (0, "bench")
        layer = layer or parent_layer
        sid = next(self._ids)
        stack.append((sid, layer))
        return sid, f"{layer}.{name}", layer, parent, perf_counter()

    def close(self, token):
        end = perf_counter()
        self._stack().pop()
        sid, name, layer, parent, start = token
        self.spans.append((sid, name, layer, start, end, parent,
                           threading.get_ident()))
        return name

    @contextmanager
    def root(self, name, layer):
        """A root span around one benchmark operation; tracing is on
        only inside root spans, so reference computations made by the
        correctness checks are never recorded."""
        self.active = True
        token = self.open(name, layer)
        try:
            yield
        finally:
            self.close(token)
            self.active = False


# ---------------------------------------------------------------------------
# wrappers
# ---------------------------------------------------------------------------

def _wrap_call(tracer, fn, name, layer, count):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        token = tracer.open(name, layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            span = tracer.close(token)
        tracer.counts[span + ".calls"] += 1
        if count is not None:
            count(tracer, span, args)
        return result
    return wrapper


def _wrap_gen(tracer, fn, name, layer, count):
    """Generators get one span per next(), so time spent by the consumer
    between items is not charged to the generator."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        gen = fn(*args, **kwargs)
        while True:
            if not tracer.active:
                try:
                    item = next(gen)
                except StopIteration:
                    return
                yield item
                continue
            token = tracer.open(name, layer)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                span = tracer.close(token)
            count(tracer, span, args, item)
            yield item
    return wrapper


def _pool_class(tracer, base, layer):
    class TracedPool(base):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self._bench_start = perf_counter()

        def submit(self, fn, /, *args, **kwargs):
            stack = tracer._stack()
            caller = stack[-1] if stack else None

            def task(*a, **kw):
                if not tracer.active:
                    return fn(*a, **kw)
                tracer._local.stack = [caller] if caller else []
                token = tracer.open("shard", layer)
                try:
                    return fn(*a, **kw)
                finally:
                    tracer.close(token)
                    tracer._local.stack = []
            return super().submit(task, *args, **kwargs)

        def shutdown(self, *args, **kwargs):
            super().shutdown(*args, **kwargs)
            if tracer.active:
                tracer.pools.append((layer, self._max_workers,
                                     self._bench_start, perf_counter()))
    return TracedPool


# ---------------------------------------------------------------------------
# counters taken at the layer boundary
# ---------------------------------------------------------------------------

def _count_eta(tracer, span, args):
    xs, N = args[0], args[1]
    rows, k = xs.shape
    tracer.counts[span + ".rows"] += rows
    # Computed, not measured: k DP steps each produce an (S, N) int64 table.
    tracer.counts[span + ".bytes_computed"] += rows * N * k * 8


def _count_eta_mc(tracer, span, args):
    _count_eta(tracer, span, args)
    tracer.counts["success.draws"] += args[0].shape[0]
    tracer.counts["success.shards"] += 1


def _count_enum(tracer, span, args, item):
    N, k = args[0], args[1]
    rows = item[0].shape[0]
    tracer.counts[span + ".blocks"] += rows
    tracer.enumerated[(N, k)] += rows


def _count_blocks(tracer, span, args):
    tracer.counts["pgm.certify.blocks"] += args[0] ** args[1]


def _count_blocks_self(tracer, span, args):
    tracer.counts["pgm.certify.blocks"] += args[0].N ** args[0].k


def _count_trials(tracer, span, args):
    tracer.counts["simulate.trials"] += args[3]


# (module, attribute path, callee layer or None to inherit the caller's,
#  kind, counter).  Every name here must exist at the traced commit.
TARGETS = [
    # cross-layer kernels
    ("dihedral_pgm.success", "count_eta_batch", "subsetsum", "call", _count_eta_mc),
    ("dihedral_pgm.simulate", "count_eta_batch", "subsetsum", "call", _count_eta),
    ("dihedral_pgm.subsetsum", "count_eta_batch", "subsetsum", "call", _count_eta),
    ("dihedral_pgm.success", "iter_all_eta", "subsetsum", "gen", _count_enum),
    ("dihedral_pgm.pgm", "iter_all_eta", "subsetsum", "gen", _count_enum),
    ("dihedral_pgm.pgm", "povm_block", "pgm", "call", None),
    ("dihedral_pgm.pgm", "block_state", "dihedral", "call", None),
    ("dihedral_pgm.pgm", "vtilde", "subsetsum", "call", None),
    ("dihedral_pgm.pgm", "bit_dot_table", "dihedral", "call", None),
    ("dihedral_pgm.subsetsum", "bit_dot_table", "dihedral", "call", None),
    ("dihedral_pgm.dihedral", "bit_dot_table", "dihedral", "call", None),
    ("numpy.linalg", "eigvalsh", None, "call", None),
    ("numpy.fft", "ifft", None, "call", None),
    ("dihedral_pgm.success", "ThreadPoolExecutor", "success", "pool", None),
    ("dihedral_pgm.simulate", "ThreadPoolExecutor", "simulate", "pool", None),
    # entry points cli calls
    ("dihedral_pgm.success", "threshold_sweep", "success", "call", None),
    ("dihedral_pgm.success", "success_exact", "success", "call", None),
    ("dihedral_pgm.success", "success_mc", "success", "call", None),
    ("dihedral_pgm.success", "lsb_success_exact", "success", "call", None),
    ("dihedral_pgm.success", "lsb_threshold_check", "success", "call", None),
    ("dihedral_pgm.simulate", "run_trials", "simulate", "call", _count_trials),
    ("dihedral_pgm.pgm", "certify_dihedral_pgm", "pgm", "call", _count_blocks),
    ("dihedral_pgm.pgm", "LsbPovm.certify", "pgm", "call", _count_blocks_self),
    ("dihedral_pgm.reptheory", "equivalence_check", "reptheory", "call", None),
    # entry points the benchmark calls directly
    ("dihedral_pgm.success", "trivial_success", "success", "call", None),
    ("dihedral_pgm.success", "lsb_counting_sums", "success", "call", None),
    ("dihedral_pgm.success", "chi_single_copy", "success", "call", None),
    ("dihedral_pgm.pgm", "GramOperator.rank", "pgm", "call", None),
    ("dihedral_pgm.pgm", "verify_holevo", "pgm", "call", None),
    ("dihedral_pgm.pgm", "dense_block_effects", "pgm", "call", None),
    ("dihedral_pgm.dihedral", "assemble_block_density", "dihedral", "call", None),
]


def install(tracer):
    """Wrap every target; raise MissingTarget naming all absent ones."""
    resolved, missing = [], []
    for module_name, path, layer, kind, count in TARGETS:
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        if owner is None or not hasattr(owner, attr):
            missing.append(f"{module_name}.{path}")
            continue
        resolved.append((owner, attr, layer, kind, count))
    if missing:
        raise MissingTarget("wrap targets missing: " + ", ".join(missing))
    for owner, attr, layer, kind, count in resolved:
        fn = getattr(owner, attr)
        if kind == "pool":
            wrapped = _pool_class(tracer, fn, layer)
        elif kind == "gen":
            wrapped = _wrap_gen(tracer, fn, fn.__name__, layer, count)
        else:
            wrapped = _wrap_call(tracer, fn, fn.__name__, layer, count)
        setattr(owner, attr, wrapped)


# ---------------------------------------------------------------------------
# post-processing
# ---------------------------------------------------------------------------

def self_times(spans):
    """Self time per span id, by the leaf sweep described above."""
    parent_of = {s[0]: s[5] for s in spans}
    events = []
    for sid, _, _, start, end, _, _ in spans:
        events.append((start, 1, sid))
        events.append((end, 0, sid))
    events.sort()
    active, leaves = set(), set()
    open_children = defaultdict(int)
    own = defaultdict(float)
    last = None
    for t, is_start, sid in events:
        if leaves:
            share = (t - last) / len(leaves)
            for leaf in leaves:
                own[leaf] += share
        last = t
        parent = parent_of[sid]
        if is_start:
            active.add(sid)
            leaves.add(sid)
            if parent in active:
                open_children[parent] += 1
                leaves.discard(parent)
        else:
            active.discard(sid)
            leaves.discard(sid)
            if parent in active:
                open_children[parent] -= 1
                if open_children[parent] == 0:
                    leaves.add(parent)
    return own


#: Per-layer metrics and their units, in output order.  BENCHMARK.json
#: lists the same names.
PER_LAYER = {
    "subsetsum.self_s": "s/cycle",
    "subsetsum.count_eta_batch.calls": "count/cycle",
    "subsetsum.count_eta_batch.rows": "count/cycle",
    "subsetsum.count_eta_batch.self_s": "s/cycle",
    "subsetsum.count_eta_batch.rows_per_s": "rows/s",
    "subsetsum.count_eta_batch.bytes_computed": "bytes/cycle",
    "subsetsum.iter_all_eta.blocks": "count/cycle",
    "subsetsum.iter_all_eta.self_s": "s/cycle",
    "success.self_s": "s/cycle",
    "success.draws": "count/cycle",
    "success.shards": "count/cycle",
    "success.eta_rows_per_block": "rows/block",
    "success.exact_redundant_frac": "frac",
    "success.chi_single_copy.self_s": "s/cycle",
    "simulate.self_s": "s/cycle",
    "simulate.run_trials.self_s": "s/cycle",
    "simulate.ifft.self_s": "s/cycle",
    "simulate.trials": "count/cycle",
    "simulate.pool_busy_frac": "frac",
    "cli.self_s": "s/cycle",
    "cli.sweep.self_s": "s/cycle",
    "cli.lsb.self_s": "s/cycle",
    "cli.simulate.self_s": "s/cycle",
    "cli.verify.self_s": "s/cycle",
    "cli.output_bytes": "bytes/cycle",
    "pgm.self_s": "s/cycle",
    "pgm.certify.self_s": "s/cycle",
    "pgm.certify.blocks": "count/cycle",
    "pgm.povm_block.calls": "count/cycle",
    "pgm.povm_block.self_s": "s/cycle",
    "pgm.verify_holevo.self_s": "s/cycle",
    "pgm.eigvalsh.calls": "count/cycle",
    "pgm.eigvalsh.self_s": "s/cycle",
    "pgm.eigensolves_per_block": "count/block",
    "dihedral.self_s": "s/cycle",
    "dihedral.block_state.calls": "count/cycle",
    "dihedral.block_state.self_s": "s/cycle",
    "dihedral.bit_dot_table.calls": "count/cycle",
    "dihedral.bit_dot_table.self_s": "s/cycle",
    "reptheory.self_s": "s/cycle",
    "reptheory.equivalence_check.self_s": "s/cycle",
    "bench.self_s": "s/cycle",
    "proc.minflt": "count/cycle",
    "trace.untraced_wall_s": "s/cycle",
    "trace.traced_wall_s": "s/cycle",
    "trace.overhead_frac": "frac",
}

_CERTIFY_SPANS = ("pgm.certify_dihedral_pgm", "pgm.certify")


def layer_metrics(tracer):
    """Per-layer metrics from a finished traced pass of one cycle.

    The process and trace.* entries need the untraced pass and are
    filled in by the caller.
    """
    own = self_times(tracer.spans)
    by_name = defaultdict(float)
    by_layer = defaultdict(float)
    name_of = {}
    for sid, name, layer, *_ in tracer.spans:
        by_name[name] += own[sid]
        by_layer[layer] += own[sid]
        name_of[sid] = name
    counts = tracer.counts
    m = {f"{layer}.self_s": by_layer[layer] for layer in LAYERS}

    eta_self = by_name["subsetsum.count_eta_batch"]
    eta_rows = counts["subsetsum.count_eta_batch.rows"]
    m["subsetsum.count_eta_batch.calls"] = counts["subsetsum.count_eta_batch.calls"]
    m["subsetsum.count_eta_batch.rows"] = eta_rows
    m["subsetsum.count_eta_batch.self_s"] = eta_self
    m["subsetsum.count_eta_batch.bytes_computed"] = \
        counts["subsetsum.count_eta_batch.bytes_computed"]
    m["subsetsum.iter_all_eta.blocks"] = counts["subsetsum.iter_all_eta.blocks"]
    m["subsetsum.iter_all_eta.self_s"] = by_name["subsetsum.iter_all_eta"]

    m["success.draws"] = counts["success.draws"]
    m["success.shards"] = counts["success.shards"]
    m["success.chi_single_copy.self_s"] = by_name["success.chi_single_copy"]

    m["simulate.run_trials.self_s"] = by_name["simulate.run_trials"]
    m["simulate.ifft.self_s"] = by_name["simulate.ifft"]
    m["simulate.trials"] = counts["simulate.trials"]

    for cmd in ("sweep", "lsb", "simulate", "verify"):
        m[f"cli.{cmd}.self_s"] = by_name[f"cli.{cmd}"]

    m["pgm.certify.self_s"] = sum(by_name[n] for n in _CERTIFY_SPANS)
    m["pgm.certify.blocks"] = counts["pgm.certify.blocks"]
    m["pgm.povm_block.calls"] = counts["pgm.povm_block.calls"]
    m["pgm.povm_block.self_s"] = by_name["pgm.povm_block"]
    m["pgm.verify_holevo.self_s"] = by_name["pgm.verify_holevo"]
    m["pgm.eigvalsh.calls"] = counts["pgm.eigvalsh.calls"]
    m["pgm.eigvalsh.self_s"] = by_name["pgm.eigvalsh"]

    for fn in ("block_state", "bit_dot_table"):
        m[f"dihedral.{fn}.calls"] = counts[f"dihedral.{fn}.calls"]
        m[f"dihedral.{fn}.self_s"] = by_name[f"dihedral.{fn}"]
    m["reptheory.equivalence_check.self_s"] = by_name["reptheory.equivalence_check"]

    m["subsetsum.count_eta_batch.rows_per_s"] = (
        eta_rows / eta_self if eta_self > 0 else 0.0)
    spaces = tracer.enumerated
    m["success.eta_rows_per_block"] = max(
        (rows / N ** k for (N, k), rows in spaces.items()),
        default=0.0)
    covered = sum(rows for rows in spaces.values())
    distinct = sum(rows * math.comb(N + k - 1, k) / N ** k
                   for (N, k), rows in spaces.items())
    m["success.exact_redundant_frac"] = (
        1.0 - distinct / covered if covered else 0.0)
    certify_solves = sum(
        1 for s in tracer.spans
        if s[1] == "pgm.eigvalsh" and name_of.get(s[5]) in _CERTIFY_SPANS)
    blocks = counts["pgm.certify.blocks"]
    m["pgm.eigensolves_per_block"] = certify_solves / blocks if blocks else 0.0
    busy = sum(s[4] - s[3] for s in tracer.spans if s[1] == "simulate.shard")
    capacity = sum(w * (end - start) for layer, w, start, end in tracer.pools
                   if layer == "simulate")
    m["simulate.pool_busy_frac"] = busy / capacity if capacity else 0.0
    return m
