"""Spans around entvec's layer functions, recorded from outside the program.

``Tracer.begin_round`` replaces each function in ``LAYERS`` by a wrapper bound
under the same name in the module where its caller looks it up (for
example ``interpret.entail_backward``, which ``interpret.pair_score``
calls).  A wrapper records one span: name, start, end, parent span and an
optional amount of work.  ``end_round`` puts the originals back, so the
untraced rounds of a traced run execute the unmodified program.

Spans are kept in memory and written out once, by ``dump``.  A span's
parent is the innermost open span of its own thread; a worker thread with
no open span (``run_eval``'s pool) is parented to the innermost open span
of the main thread, which is blocked in the pool while the worker runs.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import threading
import time

import numpy as np

from entvec import cli, embeddings, evaluation, graph, interpret, training


def _file_mb(path):
    return os.path.getsize(path) / 1e6


def _elems(args):
    # one element = one row x one transformed dimension
    return np.size(args[0]) / 1e6


def _free_nodes(g):
    return sum(1 for name in g.node_names if not g.is_observed(name))


# (module, attribute, span name, work(args, result) -> {metric: amount} or None).
# A work metric ending in "_per_s" is the amount over the seconds spent in
# the span; any other is a count per round.
LAYERS = (
    (embeddings, "load_binary", "embeddings.load_binary",
     lambda a, r: {"embeddings.load_binary.mb_per_s": _file_mb(a[0])}),
    (embeddings, "load_text", "embeddings.load_text",
     lambda a, r: {"embeddings.load_text.mb_per_s": _file_mb(a[0])}),
    (embeddings, "write_binary", "embeddings.write_binary",
     lambda a, r: {"embeddings.write_binary.mb_per_s": _file_mb(a[1])}),
    (embeddings, "write_text", "embeddings.write_text",
     lambda a, r: {"embeddings.write_text.mb_per_s": _file_mb(a[1])}),
    (interpret, "entail_forward", "core.entail_forward",
     lambda a, r: {"core.entail_forward.melems_per_s": _elems(a)}),
    (interpret, "entail_backward", "core.entail_backward",
     lambda a, r: {"core.entail_backward.melems_per_s": _elems(a)}),
    (interpret, "entail_factorized", "core.entail_factorized",
     lambda a, r: {"core.entail_factorized.melems_per_s": _elems(a)}),
    (interpret, "transform", "interpret.transform", None),
    (training, "transform", "interpret.transform", None),
    (interpret, "pair_score", "interpret.pair_score", None),
    (evaluation, "baseline_score", "evaluation.baseline_score", None),
    (evaluation, "fifty_percent_accuracy", "evaluation.fifty_percent_accuracy", None),
    (evaluation, "load_pairs", "evaluation.load_pairs", None),
    (evaluation, "make_folds", "evaluation.make_folds", None),
    (evaluation, "run_eval", "evaluation.run_eval",
     lambda a, r: {"evaluation.pairs_per_s": sum(row.n_scored for row in r.rows)}),
    (training, "train", "training.train",
     lambda a, r: {"training.train.pair_epochs_per_s":
                   a[2].epochs * sum(f.n_train for f in r)}),
    (training, "raw_scores", "training.raw_scores", None),
    (graph, "parse_graph_file", "graph.parse_graph_file", None),
    (graph, "graph_infer", "graph.graph_infer",
     lambda a, r: {"graph.sweeps": r.sweeps_used,
                   "graph.node_updates_per_s": _free_nodes(a[0]) * r.sweeps_used}),
    (cli, "main", "cli.main", None),
)
OVERHEAD = "trace.overhead_s"


class Tracer:
    """In-memory span recorder with per-round grouping."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent, thread, work]
        self.rounds = []  # (first span index, end index) per traced round
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = []
        self._saved = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._main_stack if threading.current_thread() is threading.main_thread() else []
            self._local.stack = stack
        return stack

    def _open(self, name):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else -1
        with self._lock:
            self.spans.append([name, time.perf_counter(), None, parent,
                               threading.get_ident(), None])
            idx = len(self.spans) - 1
        stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack().pop()

    def _wrap(self, fn, name, work):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if work is not None:
                self.spans[idx][5] = work(args, result)
            return result
        return traced

    def begin_round(self):
        """Rebind every layer function to its traced wrapper."""
        for module, attr, name, work in LAYERS:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, work))
        self._round_start = len(self.spans)

    def end_round(self):
        """Put the original functions back."""
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)
        self.rounds.append((self._round_start, len(self.spans)))

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "thread", "work"],
                       "rounds": self.rounds, "spans": self.spans}, fh)

    def metrics(self, names, overhead_s):
        """The per-layer metrics ``names`` over the traced rounds.

        ``<span>.s`` is the median seconds per round in that span and
        ``<span>.self_s`` the median of its self time; a work metric of
        ``LAYERS`` is a rate or a count as described there.  A layer the
        rounds never reached reports 0.
        """
        per_round = []  # per round: {span name: seconds, span name + ".self_s": seconds}
        work_rounds = []  # per round: {work metric: amount}
        work_secs = {}  # work metric -> seconds in the spans that did that work
        for lo, hi in self.rounds:
            secs, work, children = {}, {}, {}
            for idx in range(lo, hi):
                _, _, _, parent, _, _ = self.spans[idx]
                if parent >= lo:
                    children.setdefault(parent, []).append(self.spans[idx][1:3])
            for idx in range(lo, hi):
                name, start, end, _, _, amounts = self.spans[idx]
                secs[name] = secs.get(name, 0.0) + (end - start)
                own = self._self_time(idx, children.get(idx, ()))
                secs[name + ".self_s"] = secs.get(name + ".self_s", 0.0) + own
                for metric, amount in (amounts or {}).items():
                    work[metric] = work.get(metric, 0.0) + amount
                    work_secs[metric] = work_secs.get(metric, 0.0) + (end - start)
            per_round.append(secs)
            work_rounds.append(work)

        out = {}
        for name in names:
            if name == OVERHEAD:
                out[name] = overhead_s
            elif name.endswith("_per_s"):
                total = sum(w.get(name, 0.0) for w in work_rounds)
                out[name] = total / work_secs[name] if work_secs.get(name) else 0.0
            elif name.endswith(".self_s"):
                out[name] = statistics.median(r.get(name, 0.0) for r in per_round)
            elif name.endswith(".s"):
                out[name] = statistics.median(r.get(name[:-2], 0.0) for r in per_round)
            else:
                out[name] = statistics.median(w.get(name, 0.0) for w in work_rounds)
        return out

    def _self_time(self, idx, child_intervals):
        _, start, end, _, _, _ = self.spans[idx]
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(child_intervals):
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        return (end - start) - covered
