"""The benchmark's tracer rebinds entvec layer functions by module and name.

``perfbench/spans.py`` lists them in ``LAYERS`` as (module, attribute)
pairs and wraps each one in the module where its caller looks it up.  A
refactor that renames such a function, or calls it through another name,
silently drops that layer from every traced benchmark run.  These tests
read ``LAYERS`` as it stands (without changing it) and check both sides
of that contract on a toy evaluation.
"""

import importlib.util
import pathlib

import numpy as np
import pytest

from entvec import evaluation
from entvec.embeddings import EmbeddingTable
from entvec.evaluation import OPERATOR_METHODS, EvalRequest, WordPair, WordPairDataset
from entvec.training import TrainConfig

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def toy_request():
    rng = np.random.default_rng(5)
    words = [f"w{k}" for k in range(6)]
    table = EmbeddingTable(words, rng.normal(size=(6, 4)).astype(np.float32))
    pairs = [WordPair(f"w{a}", f"w{b}", (a + b) % 2)
             for a, b in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 2), (1, 3)]]
    methods = tuple(OPERATOR_METHODS) + ("dot", "dif", "wcos")
    return EvalRequest(WordPairDataset(pairs), table, methods=methods)


def test_every_layer_attribute_exists(spans):
    for module, attr, name, _ in spans.LAYERS:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr} ({name})"


def test_unsupervised_eval_reaches_its_layers(spans):
    tracer = spans.Tracer()
    tracer.begin_round()
    try:
        evaluation.run_eval(toy_request())  # looked up when called, as the CLI does
    finally:
        tracer.end_round()
    reached = {span[0] for span in tracer.spans}
    for name in ("interpret.pair_score", "interpret.transform", "core.entail_forward",
                 "core.entail_backward", "core.entail_factorized",
                 "evaluation.baseline_score", "evaluation.fifty_percent_accuracy",
                 "evaluation.run_eval"):
        assert name in reached, name
    rates = ("core.entail_forward.melems_per_s", "core.entail_backward.melems_per_s",
             "core.entail_factorized.melems_per_s", "evaluation.pairs_per_s")
    values = tracer.metrics(rates, 0.0)
    assert all(values[r] > 0 for r in rates), values


def test_mapped_eval_reaches_its_layers(spans):
    # the eval-mapped contract: folds built once over the kept pairs, one
    # training.train per mapped method with the config as argument 2
    rng = np.random.default_rng(5)
    words = [f"w{k}" for k in range(24)]
    table = EmbeddingTable(words, rng.normal(size=(24, 4)).astype(np.float32))
    pairs = [WordPair(f"w{2 * k}", f"w{2 * k + 1}", k % 2) for k in range(12)]
    pairs.append(WordPair("w0", "oov", 1))
    request = EvalRequest(WordPairDataset(pairs), table, methods=("mapped-bwd", "mapped-dif"),
                          k_folds=3, train_config=TrainConfig(epochs=2, batch_size=4))
    tracer = spans.Tracer()
    tracer.begin_round()
    try:
        evaluation.run_eval(request)
    finally:
        tracer.end_round()
    reached = [span[0] for span in tracer.spans]
    for name in ("evaluation.run_eval", "training.train", "training.raw_scores"):
        assert name in reached, name
    assert reached.count("evaluation.make_folds") == 1
    assert reached.count("training.train") == 2
    rate = "training.train.pair_epochs_per_s"
    assert tracer.metrics((rate,), 0.0)[rate] > 0
