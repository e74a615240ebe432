"""Entailment operators, graph inference, and hyponymy evaluation for
word-embedding vector spaces.

Vectors live in log-odds space: coordinate k is the log-odds that
feature k is *known*.  One vector entails another when everything known
in the second is known in the first; the three operators score that
relation, the graph solver propagates it through relation networks, and
the interpretation/evaluation layers apply it to pretrained word
embeddings for hyponymy detection.
"""

from .core import (
    DimensionMismatchError,
    clamp_log_odds,
    entail_backward,
    entail_factorized,
    entail_forward,
    log_sigmoid,
    sigmoid,
)
from .embeddings import EmbeddingTable, load_embeddings
from .evaluation import (
    EvalReport,
    EvalRequest,
    WordPair,
    WordPairDataset,
    baseline_score,
    direction_accuracy,
    fifty_percent_accuracy,
    load_pairs,
    make_folds,
    run_eval,
)
from .graph import (
    EntailmentGraph,
    SolverConfig,
    SolverResult,
    backward_infer,
    forward_infer,
    graph_infer,
    parse_graph,
    parse_graph_file,
)
from .interpret import (
    DUP,
    LOG_ODDS,
    UNK_DUP,
    ContextModelInputs,
    Interpretation,
    context_score,
    gradient_grid,
    pair_score,
    transform,
    unify_backward,
    unknown_mass,
)
from .training import (
    MappingModel,
    TrainConfig,
    init_mapping,
    load_model,
    predict,
    save_model,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "DimensionMismatchError",
    "clamp_log_odds",
    "entail_backward",
    "entail_factorized",
    "entail_forward",
    "log_sigmoid",
    "sigmoid",
    "EmbeddingTable",
    "load_embeddings",
    "EvalReport",
    "EvalRequest",
    "WordPair",
    "WordPairDataset",
    "baseline_score",
    "direction_accuracy",
    "fifty_percent_accuracy",
    "load_pairs",
    "make_folds",
    "run_eval",
    "EntailmentGraph",
    "SolverConfig",
    "SolverResult",
    "backward_infer",
    "forward_infer",
    "graph_infer",
    "parse_graph",
    "parse_graph_file",
    "DUP",
    "LOG_ODDS",
    "UNK_DUP",
    "ContextModelInputs",
    "Interpretation",
    "context_score",
    "gradient_grid",
    "pair_score",
    "transform",
    "unify_backward",
    "unknown_mass",
    "MappingModel",
    "TrainConfig",
    "init_mapping",
    "load_model",
    "predict",
    "save_model",
    "train",
    "__version__",
]
