"""Command-line interface.

One executable with five subcommands:

  score     score one word pair with an operator under an interpretation
  eval      run the hyponymy evaluation harness and emit the report CSV
  train     train per-fold linear mappings and persist them
  graph     solve an entailment graph file and print node assignments
  gradgrid  emit a training-gradient grid as CSV

Machine-readable output (scores, CSV, TSV, model paths) goes to stdout;
logs and the human-readable table go to stderr.  Exit codes: 0 success,
1 usage error, 2 data/runtime error (running out of memory included).
``--embeddings`` falls back to the ENTVEC_EMBEDDINGS environment variable.

Loading order: a missing ``--embeddings`` is reported first.  Then, before
any file is read, ``eval`` checks its methods and reading (``--methods``,
``--train``, ``--shift``) and ``--threads``, ``eval`` and ``train`` their
training flags (``--epochs`` ... and ``--folds``; ``eval`` only when it trains),
``graph`` its solver flags (``--max-sweeps``, ``--tol``, ``--damping``,
``--clamp``) before the graph file, and ``score`` its reading.  ``train``
then creates ``--out-dir``, so a bad one is reported before any file is
read or any fold is trained.  ``eval`` and ``train`` then read the pairs
file and ``score`` takes its two words;
only after that is the embedding file read, keeping just the rows of
those words (``keep=`` of the loaders).
So when both the pairs file and the embedding file are bad, the pairs
file's error is the one reported.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import core, evaluation, graph, interpret, training
from .embeddings import load_embeddings

__all__ = ["main", "build_parser", "EMBEDDINGS_ENV_VAR"]

EMBEDDINGS_ENV_VAR = "ENTVEC_EMBEDDINGS"


class UsageError(Exception):
    """Bad invocation (missing flag without a fallback); exits 1, not 2."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; the contract here is
    # 1 for usage errors and 2 for data errors, so override.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _add_embeddings_flags(sub) -> None:
    sub.add_argument("--embeddings", default=os.environ.get(EMBEDDINGS_ENV_VAR),
                     help=f"embedding file (default: ${EMBEDDINGS_ENV_VAR})")
    sub.add_argument("--format", default="auto", choices=("auto", "binary", "text"),
                     help="embedding file format (default: sniff the extension)")


def _add_train_flags(sub) -> None:
    sub.add_argument("--epochs", type=int, default=training.TrainConfig.epochs)
    sub.add_argument("--step-size", type=float, default=training.TrainConfig.step_size)
    sub.add_argument("--batch-size", type=int, default=training.TrainConfig.batch_size)
    sub.add_argument("--l2", type=float, default=training.TrainConfig.l2)
    sub.add_argument("--d-out", type=int, default=training.TrainConfig.d_out,
                     help="mapped dimension (default: input dimension)")


def build_parser() -> _Parser:
    shift = interpret.Interpretation.shift  # each default is read from the library's object
    parser = _Parser(prog="entvec",
                     description="entailment operators, graph inference and "
                                 "hyponymy evaluation for word embeddings")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("score", help="score one word pair")
    _add_embeddings_flags(p)
    p.add_argument("--interp", default="logodds", choices=interpret._KINDS)
    p.add_argument("--op", default="bwd", choices=tuple(core._OPERATOR_TABLES))
    p.add_argument("--shift", type=float, default=shift, help="unkdup shift")
    p.add_argument("hypo", help="hyponym (entailing word)")
    p.add_argument("hyper", help="hypernym (entailed word)")

    p = subs.add_parser("eval", help="run the evaluation harness")
    _add_embeddings_flags(p)
    p.add_argument("--pairs", required=True, help="hypo<TAB>hyper<TAB>label file")
    p.add_argument("--methods", required=True,
                   help="comma-separated method names, e.g. 'unkdup-bwd,dot'")
    p.add_argument("--folds", type=int, default=evaluation.EvalRequest.k_folds)
    p.add_argument("--seed", type=int, default=evaluation.EvalRequest.seed)
    p.add_argument("--shift", type=float, default=shift)
    p.add_argument("--threads", type=int, default=evaluation.EvalRequest.threads)
    p.add_argument("--train", action="store_true",
                   help="allow mapped-* methods (trains per fold)")
    _add_train_flags(p)

    p = subs.add_parser("train", help="train per-fold mappings and save them")
    _add_embeddings_flags(p)
    p.add_argument("--pairs", required=True)
    p.add_argument("--op", default=training.MappingModel.op, choices=training._OPS)
    p.add_argument("--out-dir", required=True, help="directory for fold<i>.model files")
    p.add_argument("--folds", type=int, default=evaluation.EvalRequest.k_folds)
    p.add_argument("--seed", type=int, default=evaluation.EvalRequest.seed)
    _add_train_flags(p)

    p = subs.add_parser("graph", help="solve an entailment graph file")
    p.add_argument("--file", required=True)
    p.add_argument("--max-sweeps", type=int, default=graph.SolverConfig.max_sweeps)
    p.add_argument("--tol", type=float, default=graph.SolverConfig.tol)
    p.add_argument("--damping", type=float, default=graph.SolverConfig.damping)
    p.add_argument("--clamp", type=float, default=graph.SolverConfig.clamp)

    p = subs.add_parser("gradgrid", help="emit a training-gradient grid")
    p.add_argument("--model", required=True, choices=interpret.GRID_MODELS)
    p.add_argument("--range", nargs=3, type=float, required=True,
                   metavar=("LO", "HI", "STEP"),
                   help="grid range for both axes")
    p.add_argument("--shift", type=float, default=shift)

    return parser


def _pair_words(dataset) -> set:
    return {word for p in dataset.pairs for word in (p.hypo, p.hyper)}


def _cmd_score(args) -> int:
    interp = interpret.Interpretation(args.interp, args.shift)
    table = load_embeddings(args.embeddings, fmt=args.format, keep={args.hypo, args.hyper})
    vecs = []
    for word in (args.hypo, args.hyper):
        vec = table.lookup(word)
        if vec is None:
            raise ValueError(f"word {word!r} is not in the embeddings")
        vecs.append(vec)
    print(interpret.pair_score(vecs[0], vecs[1], interp, args.op))
    return 0


def _train_config(args) -> training.TrainConfig:
    return training.TrainConfig(step_size=args.step_size, epochs=args.epochs,
                                batch_size=args.batch_size, seed=args.seed,
                                l2=args.l2, d_out=args.d_out)


def _cmd_eval(args) -> int:
    methods = tuple(m.strip() for m in args.methods.split(",") if m.strip())
    mapped = [m for m in methods if m in evaluation.MAPPED_METHODS]
    if mapped and not args.train:
        raise ValueError(
            f"methods {mapped} need training; rerun with --train"
        )
    evaluation._method_readings(methods, args.shift)  # before any file is read
    evaluation._check_threads(args.threads)
    train_config = None
    if mapped:
        train_config = _train_config(args)
        evaluation._check_folds(args.folds)
    dataset = evaluation.load_pairs(args.pairs)
    table = load_embeddings(args.embeddings, fmt=args.format, keep=_pair_words(dataset))
    request = evaluation.EvalRequest(
        dataset=dataset, embeddings=table, methods=methods, shift=args.shift,
        k_folds=args.folds, seed=args.seed, threads=args.threads, train_config=train_config,
    )
    report = evaluation.run_eval(request)
    sys.stdout.write(report.to_csv())
    sys.stderr.write(report.to_text())
    return 0


def _cmd_train(args) -> int:
    cfg = _train_config(args)
    evaluation._check_folds(args.folds)
    os.makedirs(args.out_dir, exist_ok=True)
    dataset = evaluation.load_pairs(args.pairs)
    table = load_embeddings(args.embeddings, fmt=args.format, keep=_pair_words(dataset))
    kept, dropped, *rows = evaluation.resolve_pairs(dataset.pairs, table)
    if dropped:
        print(f"dropped {dropped} out-of-vocabulary pairs", file=sys.stderr)
    kept_pairs = evaluation.WordPairDataset(pairs=[dataset.pairs[n] for n in kept])
    folded = evaluation.make_folds(kept_pairs, args.folds, args.seed)
    results = training.train(folded.folds, rows, cfg, args.op)
    for i, trained in enumerate(results):
        path = os.path.join(args.out_dir, f"fold{i}.model")
        training.save_model(trained.model, path)
        print(f"fold {i}: {trained.n_train} training pairs, "
              f"final loss {trained.history[-1]:.6f}", file=sys.stderr)
        print(path)
    return 0


def _cmd_graph(args) -> int:
    cfg = graph.SolverConfig(max_sweeps=args.max_sweeps, tol=args.tol,
                             damping=args.damping, clamp=args.clamp)
    g = graph.parse_graph_file(args.file)
    result = graph.graph_infer(g, cfg)
    # one format per row, filled from that row's Python floats
    row = "%s" + "\t%.9g" * (g.dim or 0) + "\n"
    sys.stdout.writelines(row % (name, *vec.tolist())
                          for name, vec in result.assignments.items())
    status = "converged" if result.converged else "did not converge"
    where = ""
    if result.largest_change is not None:
        node, k = result.largest_change
        where = f"; largest change at node {node!r} dimension {k}"
    print(f"{status} after {result.sweeps_used} sweeps "
          f"(last delta {result.final_delta:.3g}){where}", file=sys.stderr)
    return 0


def _cmd_gradgrid(args) -> int:
    lo, hi, step = args.range
    grid = interpret.gradient_grid(args.model, (lo, hi, step), (lo, hi, step),
                                   shift=args.shift)
    sys.stdout.write(grid.to_csv())
    return 0


_COMMANDS = {
    "score": _cmd_score,
    "eval": _cmd_eval,
    "train": _cmd_train,
    "graph": _cmd_graph,
    "gradgrid": _cmd_gradgrid,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if "embeddings" in vars(args) and not args.embeddings:
            raise UsageError(
                f"no embeddings file: pass --embeddings or set ${EMBEDDINGS_ENV_VAR}"
            )
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"entvec: error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, MemoryError) as exc:
        # a bare MemoryError has no message; name it rather than print nothing
        print(f"entvec: error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
