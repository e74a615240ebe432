"""The four workloads: set-up, one user-level operation, and its output check.

Each workload drives entvec only through public entry points: ``cli.main``
for ``eval`` and ``graph``, and the ``entvec.embeddings`` readers and
writers.  ``round()`` returns (setup_s, wall_s, output); ``check(output)``
returns a list of problems, empty when the output is right.  Checks use
``reference`` and the generator's expect.json, never entvec itself.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import time

import numpy as np

import reference
from entvec import cli, embeddings, evaluation, graph

UNSUP_METHODS = ("logodds-fwd", "logodds-bwd", "logodds-fact", "dup-bwd", "unkdup-bwd",
                 "unkdup-fact", "dot", "dif", "wcos")
MAPPED_METHODS = ("mapped-bwd", "mapped-fact", "mapped-dif")
REPORT_HEADER = "method,acc50,dir_acc,threshold,n,oov_dropped"
# unkdup-bwd must beat dot on acc50 by at least this much on a planted taxonomy
UNKDUP_MARGIN = 0.2
# a Jacobi step from the solver's output may move a free node by this many tol
RESIDUAL_TOLS = 10.0


def run_cli(argv):
    """One ``entvec`` invocation in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def parse_report(text, methods):
    """Report CSV -> {method: row dict}; raises ValueError on a malformed report."""
    lines = text.splitlines()
    if not lines or lines[0] != REPORT_HEADER:
        raise ValueError(f"report header is {lines[:1]!r}")
    rows = {}
    for line in lines[1:]:
        fields = line.split(",")
        if len(fields) != 6:
            raise ValueError(f"report row {line!r} has {len(fields)} fields")
        rows[fields[0]] = {"acc50": float(fields[1]), "dir_acc": fields[2],
                           "n": int(fields[4]), "oov_dropped": int(fields[5])}
    if tuple(rows) != tuple(methods):
        raise ValueError(f"report rows {tuple(rows)} != requested {tuple(methods)}")
    return rows


def _cli_problems(output):
    code, _, err = output
    return [] if code == 0 else [f"exit code {code}: {err.strip()[-300:]}"]


class Workload:
    def __init__(self, inputs, seed, work):
        self.inputs = inputs
        self.seed = seed
        self.work = work
        with open(os.path.join(inputs, "expect.json"), encoding="utf-8") as fh:
            self.expect = json.load(fh)
        self.params = self.expect["params"]

    def path(self, name):
        return os.path.join(self.inputs, name)


class _EvalWorkload(Workload):
    methods = ()

    def argv(self):
        raise NotImplementedError

    def round(self):
        t0 = time.perf_counter()
        table = embeddings.load_embeddings(self.path("vectors.bin"))
        pairs = evaluation.load_pairs(self.path("pairs.tsv"))
        setup_s = time.perf_counter() - t0
        del table, pairs
        t0 = time.perf_counter()
        output = run_cli(self.argv())
        return setup_s, time.perf_counter() - t0, output

    def report(self, output):
        """(rows, problems) shared by both eval workloads."""
        problems = _cli_problems(output)
        if problems:
            return None, problems
        try:
            rows = parse_report(output[1], self.methods)
        except ValueError as exc:
            return None, [str(exc)]
        for method, row in rows.items():
            for key in ("n", "oov_dropped"):
                if row[key] != self.expect[key]:
                    problems.append(f"{method} {key} {row[key]} != {self.expect[key]}")
        return rows, problems


class EvalUnsup(_EvalWorkload):
    methods = UNSUP_METHODS

    def argv(self):
        return ["eval", "--embeddings", self.path("vectors.bin"), "--pairs",
                self.path("pairs.tsv"), "--threads", "1", "--methods", ",".join(self.methods)]

    def check(self, output):
        rows, problems = self.report(output)
        if rows is None:
            return problems
        ref = self.expect["unkdup-bwd"]
        got = rows["unkdup-bwd"]
        if abs(got["acc50"] - ref["acc50"]) > 5e-5:
            problems.append(f"unkdup-bwd acc50 {got['acc50']} != {ref['acc50']:.4f}")
        if abs(float(got["dir_acc"]) - ref["dir_acc"]) > 5e-5:
            problems.append(f"unkdup-bwd dir_acc {got['dir_acc']} != {ref['dir_acc']:.4f}")
        if rows["dot"]["dir_acc"] != "0.5000":
            problems.append(f"dot dir_acc {rows['dot']['dir_acc']} != 0.5000")
        if got["acc50"] - rows["dot"]["acc50"] < UNKDUP_MARGIN:
            problems.append(f"unkdup-bwd acc50 {got['acc50']} does not beat dot "
                            f"{rows['dot']['acc50']} by {UNKDUP_MARGIN}")
        return problems


class EvalMapped(_EvalWorkload):
    """``output`` is {"cli": (code, stdout, stderr), "folds": [what make_folds returned]}."""

    methods = MAPPED_METHODS

    def __init__(self, inputs, seed, work):
        super().__init__(inputs, seed, work)
        with open(self.path("pairs.tsv"), encoding="utf-8") as fh:
            pairs = [ln.rstrip("\n").split("\t") for ln in fh if ln.strip()]
        # the generator names the words the table lacks q<k>
        self.kept = [(h, g, int(label)) for h, g, label in pairs
                     if not (h.startswith("q") or g.startswith("q"))]
        tests = reference.folds(len(self.kept), self.params["folds"], seed)
        self.want_folds = [(tuple(test.tolist()), tuple(train)) for test, train
                           in zip(tests, reference.lexical_train_sets(self.kept, tests))]

    def argv(self):
        p = self.params
        return ["eval", "--embeddings", self.path("vectors.bin"), "--pairs",
                self.path("pairs.tsv"), "--threads", "2", "--train",
                "--methods", ",".join(self.methods), "--folds", str(p["folds"]),
                "--epochs", str(p["epochs"]), "--d-out", str(p["d_out"]),
                "--seed", str(self.seed)]

    def round(self):
        """As for every eval, keeping the folds ``run_eval`` built for training."""
        folded = []
        make_folds = evaluation.make_folds

        def keep(*args, **kwargs):
            folded.append(make_folds(*args, **kwargs))
            return folded[-1]

        evaluation.make_folds = keep
        try:
            setup_s, wall_s, output = super().round()
        finally:
            evaluation.make_folds = make_folds
        return setup_s, wall_s, {"cli": output, "folds": folded}

    def fold_problems(self, folded):
        """The program's folds against the ones recomputed from the seed."""
        if len(folded) != 1:
            return [f"make_folds ran {len(folded)} times, expected once"]
        dataset = folded[0]
        if [(p.hypo, p.hyper, p.label) for p in dataset.pairs] != self.kept:
            return ["folds were built over other pairs than the in-vocabulary ones"]
        got = [(tuple(f.test), tuple(f.train)) for f in dataset.folds]
        if got != self.want_folds:
            return ["folds differ from the seeded lexically disjoint split"]
        problems = []
        for k, fold in enumerate(dataset.folds):
            test_words = {w for i in fold.test for w in self.kept[i][:2]}
            train_words = {w for i in fold.train for w in self.kept[i][:2]}
            if test_words & train_words:
                problems.append(f"fold {k} shares words between train and test")
            if fold.n_filtered != len(self.kept) - len(fold.test) - len(fold.train):
                problems.append(f"fold {k} reports {fold.n_filtered} filtered pairs")
        return problems

    def check(self, output):
        rows, problems = self.report(output["cli"])
        if rows is None:
            return problems
        bwd, dif = rows["mapped-bwd"]["acc50"], rows["mapped-dif"]["acc50"]
        if not bwd > dif:
            problems.append(f"mapped-bwd acc50 {bwd} does not beat mapped-dif {dif}")
        return problems + self.fold_problems(output["folds"])


class GraphTaxonomy(Workload):
    def __init__(self, inputs, seed, work):
        super().__init__(inputs, seed, work)
        with np.load(self.path("graph.npz")) as z:
            self.arrays = {k: z[k] for k in z.files}

    def round(self):
        t0 = time.perf_counter()
        g = graph.parse_graph_file(self.path("taxonomy.graph"))
        setup_s = time.perf_counter() - t0
        del g
        t0 = time.perf_counter()
        output = run_cli(["graph", "--file", self.path("taxonomy.graph")])
        return setup_s, time.perf_counter() - t0, output

    def check(self, output, tol=1e-6, clamp=30.0):
        problems = _cli_problems(output)
        if problems:
            return problems
        _, out, err = output
        if "converged after" not in err or "did not converge" in err:
            problems.append(f"solver did not converge: {err.strip()[-200:]}")
        theta = self.arrays["theta"]
        n, dim = theta.shape
        lines = out.splitlines()
        if len(lines) != n:
            return problems + [f"{len(lines)} output rows for {n} nodes"]
        values = np.empty((n, dim))
        for i, line in enumerate(lines):
            fields = line.split("\t")
            if fields[0] != f"v{i}" or len(fields) != dim + 1:
                return problems + [f"output row {i} is malformed: {line[:60]!r}"]
            values[i] = [float(v) for v in fields[1:]]
        if not np.all(np.isfinite(values)) or np.any(np.abs(values) > clamp):
            problems.append("values are not finite or exceed the clamp")
            return problems
        observed = self.arrays["observed"]
        want = np.clip(self.arrays["obs_values"], -clamp, clamp)
        if not np.allclose(values[observed], want, rtol=1e-8, atol=1e-8):
            problems.append("observed nodes changed")
        free = np.setdiff1d(np.arange(n), observed)
        step = reference.graph_update(values, theta, self.arrays["pos"], self.arrays["neg"], clamp)
        residual = float(np.max(np.abs(step[free] - values[free])))
        if residual > RESIDUAL_TOLS * tol:
            problems.append(f"Jacobi residual {residual:.3g} exceeds {RESIDUAL_TOLS:g} x tol")
        return problems


class EmbedIO(Workload):
    def __init__(self, inputs, seed, work):
        super().__init__(inputs, seed, work)
        with np.load(self.path("table.npz")) as z:
            self.tokens = z["tokens"].tolist()
            self.matrix = z["matrix"]

    def round(self):
        binary = os.path.join(self.work, "roundtrip.bin")
        text = os.path.join(self.work, "roundtrip.txt")
        t0 = time.perf_counter()
        table = embeddings.load_text(self.path("table.txt"))
        t1 = time.perf_counter()
        embeddings.write_binary(table, binary)
        from_binary = embeddings.load_binary(binary)
        embeddings.write_text(from_binary, text)
        from_text = embeddings.load_text(text)
        t2 = time.perf_counter()
        output = {"binary": (from_binary.tokens, from_binary.matrix),
                  "text": (from_text.tokens, from_text.matrix),
                  "binary_size": os.path.getsize(binary)}
        return t1 - t0, t2 - t0, output

    def check(self, output):
        problems = []
        want_bits = self.matrix.view(np.uint32)
        for fmt in ("binary", "text"):
            tokens, matrix = output[fmt]
            if tokens != self.tokens:
                problems.append(f"{fmt} round trip changed the tokens")
            if matrix.shape != self.matrix.shape or matrix.dtype != np.float32:
                problems.append(f"{fmt} round trip gave {matrix.dtype} {matrix.shape}")
            elif not np.array_equal(matrix.view(np.uint32), want_bits):
                problems.append(f"{fmt} round trip changed float bits")
        rows, dim = self.matrix.shape
        size = (len(f"{rows} {dim}\n")
                + sum(len(t.encode("utf-8")) + 1 + 4 * dim + 1 for t in self.tokens))
        if output["binary_size"] != size:
            problems.append(f"binary file has {output['binary_size']} bytes, expected {size}")
        return problems


WORKLOADS = {
    "eval-unsup": EvalUnsup,
    "eval-mapped": EvalMapped,
    "graph-taxonomy": GraphTaxonomy,
    "embed-io": EmbedIO,
}
