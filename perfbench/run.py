"""Run one entvec benchmark workload and print its metrics as JSON.

    env OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 python3 perfbench/run.py \\
        --workload eval-unsup --seed 1 --seconds 30 --trace 0

Inputs come from gen.py.  They are generated for each run, into a scratch
directory under perfbench/work/ that the run deletes, in a child process,
so the peak resident memory reported is that of the workload alone.  The
run repeats whole rounds (set-up plus one user-level operation, each output
checked) until ``--seconds`` have passed, and at least MIN_ROUNDS times.

With ``--trace 0`` the last stdout line holds the end-to-end metrics: the
median round's ``wall_s`` and ``setup_s`` and the process's peak RSS.  With
``--trace 1`` rounds alternate between untraced and traced; the traced ones
give the per-layer metrics of spans.py, and the median traced operation
minus the median untraced one is ``trace.overhead_s``.  Metric names and
units are those of BENCHMARK.json.

``--workload all`` runs every workload, each in its own process.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time

import gen

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "work")
PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
MIN_ROUNDS = 3


def benchmark_metrics(kind):
    """{name: unit} of BENCHMARK.json's ``end_to_end`` or ``per_layer`` list."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def require_pinned_threads():
    for var in PINNED:
        if os.environ.get(var) != "1":
            fail(f"{var} must be 1; run under: env {' '.join(v + '=1' for v in PINNED)}")


def import_entvec():
    """Import entvec from this checkout's src/, never from an installed copy."""
    if not os.path.isdir(os.path.join(SRC, "entvec")):
        fail(f"no entvec sources under {SRC}")
    sys.path.insert(0, SRC)
    import entvec

    if os.path.dirname(os.path.abspath(entvec.__file__)) != os.path.join(SRC, "entvec"):
        fail(f"imported entvec from {entvec.__file__}, not from {SRC}")


def generate_inputs(workload, seed, size, out):
    """Fill the directory ``out`` with the workload's generated inputs."""
    subprocess.run([sys.executable, os.path.join(HERE, "gen.py"), "--workload", workload,
                    "--seed", str(seed), "--size", size, "--out", out], check=True)


def measure(wl, seconds, tracer):
    """Whole rounds until ``seconds`` have passed; returns per-round records."""
    records = []
    min_rounds = 2 * MIN_ROUNDS if tracer else MIN_ROUNDS
    start = time.perf_counter()
    while len(records) < min_rounds or time.perf_counter() - start < seconds:
        traced = tracer is not None and len(records) % 2 == 1
        setup_s = wall_s = error = None
        problems = []
        if traced:
            tracer.begin_round()
        try:
            setup_s, wall_s, output = wl.round()
        except Exception as exc:  # an operation that raises counts as failed
            error = f"{type(exc).__name__}: {exc}"
        finally:
            if traced:
                tracer.end_round()
        if error is None:
            try:
                problems = wl.check(output)
            except Exception as exc:  # an output too malformed to check is wrong
                problems = [f"check raised {type(exc).__name__}: {exc}"]
            del output
        records.append({"traced": traced, "setup_s": setup_s, "wall_s": wall_s,
                        "error": error, "problems": problems})
        status = error or "; ".join(problems) or "ok"
        timing = "" if wall_s is None else f"setup {setup_s:.4f} s  wall {wall_s:.4f} s  "
        print(f"round {len(records)}{' traced' if traced else ''}: {timing}{status}",
              file=sys.stderr, flush=True)
    return records


def run_workload(args):
    import_entvec()
    import spans
    import workloads

    os.makedirs(WORK, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="run-", dir=WORK) as scratch:
        inputs = os.path.join(scratch, "inputs")
        generate_inputs(args.workload, args.seed, "full", inputs)
        wl = workloads.WORKLOADS[args.workload](inputs, args.seed, scratch)
        tracer = spans.Tracer() if args.trace else None
        records = measure(wl, args.seconds, tracer)

    failed = sum(1 for r in records if r["error"] or r["problems"])
    ok = [r for r in records if not r["error"] and not r["problems"]]

    def median(key, traced=False):
        values = [r[key] for r in ok if r["traced"] == traced]
        return statistics.median(values) if values else 0.0

    if tracer:
        units = benchmark_metrics("per_layer")
        values = tracer.metrics(units, median("wall_s", True) - median("wall_s"))
        tracer.dump(os.path.join(WORK, f"trace-{args.workload}-s{args.seed}.json"))
    else:
        units = benchmark_metrics("end_to_end")
        values = {
            "wall_s": median("wall_s"),
            "setup_s": median("setup_s"),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        }
    for name, value in values.items():
        print(f"{name} = {value:.6g} {units[name]}", file=sys.stderr)
    result = {
        "correct": not any(r["problems"] for r in records),
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(f"attempted {result['attempted']}, failed {failed}", file=sys.stderr)
    print(json.dumps(result))
    return 0


def run_all(args):
    """Every workload in its own process, one result line each."""
    code = 0
    for name in gen.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print(f"{name}: {lines[-1] if lines else '(no result)'}", flush=True)
        if proc.returncode != 0 or not lines:
            code = 1
        else:
            result = json.loads(lines[-1])
            code = code or int(result["failed"] > 0 or not result["correct"])
    return code


def main(argv=None):
    ap = argparse.ArgumentParser(description="entvec benchmark")
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    require_pinned_threads()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
