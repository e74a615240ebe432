"""Self-test of the benchmark on small inputs.

    env OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 python3 perfbench/selftest.py

For every workload it runs the operation on small inputs and expects no
failure; runs it again with a deliberately corrupted output and expects
every round to count as failed; and runs it traced, expecting a non-zero
value for each per-layer metric the workload exercises.  Exits 1 on the
first broken expectation.
"""

from __future__ import annotations

import dataclasses
import os
import sys
import tempfile
import types

import numpy as np

import run

SEED = 1


def swap_columns(output, a=1, b=2):
    """Swap two columns of the eval report's data rows (acc50 and dir_acc by default)."""
    code, out, err = output
    header, *rows = out.splitlines()
    rows = [ln.split(",") for ln in rows]
    for fields in rows:
        fields[a], fields[b] = fields[b], fields[a]
    return code, "\n".join([header] + [",".join(f) for f in rows]) + "\n", err


def swap_rows_acc50(output):
    """Give mapped-bwd the acc50 of mapped-dif and the other way round."""
    code, out, err = output["cli"]
    lines = [ln.split(",") for ln in out.splitlines()]
    rows = {f[0]: f for f in lines}
    rows["mapped-bwd"][1], rows["mapped-dif"][1] = rows["mapped-dif"][1], rows["mapped-bwd"][1]
    return {**output, "cli": (code, "\n".join(",".join(f) for f in lines) + "\n", err)}


def leak_test_pair(output):
    """Move one test pair of the first fold into that fold's training set."""
    dataset = output["folds"][0]
    first = dataset.folds[0]
    leaked = dataclasses.replace(first, train=tuple(sorted(first.train + first.test[:1])))
    folded = types.SimpleNamespace(pairs=dataset.pairs, folds=[leaked] + dataset.folds[1:])
    return {**output, "folds": [folded]}


def perturb_node(output, row=1, delta=1e-3):
    """Move every value of one output row of ``entvec graph`` by ``delta``."""
    code, out, err = output
    lines = out.splitlines()
    fields = lines[row].split("\t")
    lines[row] = "\t".join([fields[0]] + [f"{float(v) + delta:.9g}" for v in fields[1:]])
    return code, "\n".join(lines) + "\n", err


def flip_bit(output):
    """Flip the lowest mantissa bit of one float read back from the text file."""
    tokens, matrix = output["text"]
    bits = matrix.copy().view(np.uint32)
    bits[len(bits) // 2, 0] ^= 1
    return {**output, "text": (tokens, bits.view(np.float32))}


CORRUPTIONS = {
    "eval-unsup": (swap_columns,),
    "eval-mapped": (swap_rows_acc50, leak_test_pair),
    "graph-taxonomy": (perturb_node,),
    "embed-io": (flip_bit,),
}

# per-layer metrics each workload must report as non-zero when traced
EXERCISED = {
    "eval-unsup": (
        "embeddings.load_binary.s", "embeddings.load_binary.mb_per_s",
        "core.entail_forward.s", "core.entail_forward.melems_per_s",
        "core.entail_backward.s", "core.entail_backward.melems_per_s",
        "core.entail_factorized.s", "core.entail_factorized.melems_per_s",
        "interpret.pair_score.s", "interpret.transform.s",
        "evaluation.baseline_score.s", "evaluation.fifty_percent_accuracy.s",
        "evaluation.run_eval.self_s", "evaluation.pairs_per_s", "evaluation.load_pairs.s",
        "cli.main.self_s"),
    "eval-mapped": (
        "embeddings.load_binary.s", "evaluation.load_pairs.s", "evaluation.make_folds.s",
        "evaluation.run_eval.self_s", "evaluation.pairs_per_s", "training.train.s",
        "training.train.pair_epochs_per_s", "training.raw_scores.s", "cli.main.self_s"),
    "graph-taxonomy": (
        "graph.parse_graph_file.s", "graph.graph_infer.s", "graph.sweeps",
        "graph.node_updates_per_s", "cli.main.self_s"),
    "embed-io": (
        "embeddings.load_text.s", "embeddings.load_text.mb_per_s",
        "embeddings.write_binary.s", "embeddings.write_binary.mb_per_s",
        "embeddings.load_binary.s", "embeddings.load_binary.mb_per_s",
        "embeddings.write_text.s", "embeddings.write_text.mb_per_s"),
}


class Corrupted:
    """A workload whose every output is corrupted before the check sees it."""

    def __init__(self, workload, corrupt):
        self.workload = workload
        self.corrupt = corrupt

    def round(self):
        setup_s, wall_s, output = self.workload.round()
        return setup_s, wall_s, self.corrupt(output)

    def check(self, output):
        return self.workload.check(output)


def expect(condition, message):
    print(f"{'ok  ' if condition else 'FAIL'} {message}", flush=True)
    if not condition:
        sys.exit(1)


def main():
    run.require_pinned_threads()
    run.import_entvec()
    import spans
    import workloads

    for name, cls in workloads.WORKLOADS.items():
        with tempfile.TemporaryDirectory(prefix="selftest-", dir=run.WORK) as scratch:
            inputs = os.path.join(scratch, "inputs")
            run.generate_inputs(name, SEED, "small", inputs)
            wl = cls(inputs, SEED, scratch)
            records = run.measure(wl, 0, None)
            expect(all(not r["error"] and not r["problems"] for r in records),
                   f"{name}: every round passes its checks")

            for corrupt in CORRUPTIONS[name]:
                records = run.measure(Corrupted(wl, corrupt), 0, None)
                expect(all(r["problems"] for r in records),
                       f"{name}: {corrupt.__name__} makes every round fail "
                       f"({'; '.join(records[0]['problems'])})")

            tracer = spans.Tracer()
            run.measure(wl, 0, tracer)
            values = tracer.metrics(run.benchmark_metrics("per_layer"), 0.0)
        missing = [m for m in EXERCISED[name] if not values[m] > 0]
        expect(not missing, f"{name}: traced run reports {len(EXERCISED[name])} layer metrics"
                            + (f", missing {missing}" if missing else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
