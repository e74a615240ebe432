"""Hyponymy-detection evaluation: datasets, folds, metrics, baselines, reports.

The dataset is a list of (hyponym, hypernym, label) pairs.  Pairs whose
words are missing from the embedding table are dropped up front and
counted, by ``resolve_pairs``; ``run_eval`` and ``entvec train`` both hand
its rows to ``training.train``.  Two metrics are reported:

  * 50% accuracy: scores are thresholded so that exactly half of the
    items are predicted positive (the datasets are label-balanced), and
    accuracy is measured at that threshold.  The threshold therefore
    depends on the test scores but not on the test labels.
  * direction accuracy: over the true (positive) pairs only, how often
    the score prefers the hyponym-to-hypernym direction over the
    reverse, with half credit for exact ties.  A symmetric scorer lands
    on exactly 0.5.  ``direction_accuracy`` and ``run_eval`` share this
    one rule (``_direction_credit``).

Cross-validation folds are built by shuffling, splitting into near-equal
test sets, and then deleting from each training set every pair that
shares a word with that fold's test vocabulary, so a mapped model can
never memorize test words.  ``run_eval`` builds them once, over the kept
pairs, from ``k_folds`` and ``seed``.

Method tokens understood by ``run_eval``:

  logodds-fwd, logodds-bwd, logodds-fact, dup-bwd, unkdup-bwd,
  unkdup-fact   (entailment operators under an interpretation)
  dot, dif, wcos                     (untrained baselines, ``baseline_score``)
  mapped-fwd, mapped-bwd, mapped-fact, mapped-dif
                                     (linear mapping trained per fold)

Mapped methods train on each fold's filtered training pairs and pool the
held-out test scores across folds before computing both metrics.

The operator methods read sigma / log sigma tables of their words.  Before
any method runs, ``run_eval`` builds each reading's tables once from that
reading's copies, except that logodds, when dup is scored too, reads halves
of dup's (``interpret._reading_tables``).  Each method gets its reading's
set as ``pair_score``'s ``tables=``, still transforms and checks its words,
and scores the bits it would score alone, so a non-finite word is reported
by the first method in method order.  The tables are read-only and live
for one ``run_eval`` call.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import interpret, training
from .core import _pair_rows
from .embeddings import EmbeddingTable, _not_utf8

__all__ = [
    "WordPair",
    "Fold",
    "WordPairDataset",
    "DatasetFormatError",
    "EvalRow",
    "EvalReport",
    "EvalRequest",
    "load_pairs",
    "resolve_pairs",
    "fifty_percent_accuracy",
    "direction_accuracy",
    "make_folds",
    "baseline_score",
    "run_eval",
    "OPERATOR_METHODS",
    "BASELINE_METHODS",
    "MAPPED_METHODS",
    "ALL_METHODS",
]


class DatasetFormatError(ValueError):
    """Unparseable pair file; carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class WordPair:
    hypo: str
    hyper: str
    label: int

    def __post_init__(self):
        if not self.hypo or not self.hyper:
            raise ValueError("pair words must be non-empty")
        if self.hypo == self.hyper:
            raise ValueError(f"pair repeats the word {self.hypo!r}")
        if self.label not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {self.label!r}")

    @property
    def tokens(self) -> frozenset:
        return frozenset((self.hypo, self.hyper))


@dataclass(frozen=True)
class Fold:
    train: tuple
    test: tuple
    n_filtered: int  # training pairs removed for sharing a word with the test set


@dataclass
class WordPairDataset:
    pairs: list
    folds: list | None = None

    def __len__(self) -> int:
        return len(self.pairs)

    def positives(self) -> list:
        return [p for p in self.pairs if p.label == 1]


def load_pairs(path) -> WordPairDataset:
    """Read a ``hypo<TAB>hyper<TAB>label`` file, preserving order."""
    pairs = []
    # surrogateescape: a line that is not UTF-8 is reported at its line, in line order
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            reason = _not_utf8(raw)
            if reason:
                raise DatasetFormatError(f"not valid UTF-8 ({reason})", lineno)
            line = raw.rstrip("\n").rstrip("\r")
            if not line.strip():
                continue
            fields = line.split("\t")
            if len(fields) != 3:
                raise DatasetFormatError(
                    f"expected 3 tab-separated columns, got {len(fields)}", lineno
                )
            hypo, hyper, label = fields
            if label not in ("0", "1"):
                raise DatasetFormatError(f"bad label {label!r}", lineno)
            try:
                pairs.append(WordPair(hypo, hyper, int(label)))
            except ValueError as exc:
                raise DatasetFormatError(str(exc), lineno) from None
    return WordPairDataset(pairs)


def resolve_pairs(pairs, table: EmbeddingTable):
    """The pairs whose two words are in ``table``, as rows of one word matrix.

    Returns ``(kept, n_dropped, words, hi, gi, labels)``: the kept pairs'
    positions in ``pairs``; the number dropped; the float64 vectors of their
    distinct words, hyponyms then hypernyms, each at its first appearance;
    each kept pair's hyponym and hypernym row in ``words``; and its label.
    Raises ValueError when no pair is kept.
    """
    kept = [n for n, p in enumerate(pairs) if p.hypo in table and p.hyper in table]
    if not kept:
        raise ValueError("every pair has an out-of-vocabulary word")
    rows = {}
    hi = np.array([rows.setdefault(pairs[n].hypo, len(rows)) for n in kept], dtype=np.intp)
    gi = np.array([rows.setdefault(pairs[n].hyper, len(rows)) for n in kept], dtype=np.intp)
    words = table.rows(rows)
    labels = np.array([pairs[n].label for n in kept], dtype=np.int64)
    return np.array(kept, dtype=np.intp), len(pairs) - len(kept), words, hi, gi, labels


def fifty_percent_accuracy(scores, labels):
    """Accuracy when the top half of the scores is predicted positive.

    Returns (accuracy, threshold); the threshold is the score of the
    last item predicted positive (+inf when floor(n/2) = 0).  Ties are
    broken by stable input order, so the result is deterministic.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.ndim != 1 or scores.shape != labels.shape:
        raise ValueError(f"scores {scores.shape} and labels {labels.shape} must be equal 1-d")
    if scores.size == 0:
        raise ValueError("need at least one scored item")
    if np.any(np.isnan(scores)):
        raise ValueError("scores contain NaN")
    if not np.all((labels == 0) | (labels == 1)):
        raise ValueError("labels must be 0 or 1")
    n = scores.size
    n_pos = n // 2
    order = np.argsort(-scores, kind="stable")
    predicted = np.zeros(n, dtype=np.int64)
    predicted[order[:n_pos]] = 1
    threshold = float(scores[order[n_pos - 1]]) if n_pos else np.inf
    accuracy = float(np.mean(predicted == labels))
    return accuracy, threshold


def _direction_credit(fwd, rev) -> float:
    """Mean credit of forward over reversed scores: 1 if greater, 0.5 if tied, else 0."""
    if fwd.size == 0:
        raise ValueError("need at least one positive pair")
    return float(np.mean(np.where(fwd > rev, 1.0, np.where(fwd == rev, 0.5, 0.0))))


def direction_accuracy(score_fn, positives) -> float:
    """Mean directional correctness of ``score_fn(hypo, hyper)`` on true pairs.

    Correct when the forward score strictly beats the reversed one;
    exact ties earn half credit.
    """
    positives = list(positives)
    if any(p.label != 1 for p in positives):
        raise ValueError("direction accuracy is defined over positive pairs only")
    scores = np.array([(score_fn(p.hypo, p.hyper), score_fn(p.hyper, p.hypo))
                       for p in positives], dtype=np.float64).reshape(-1, 2)
    return _direction_credit(scores[:, 0], scores[:, 1])


def _check_folds(k: int) -> None:
    """Reject a fold count below 2; needs no data, so callers check it before loading."""
    if k < 2:
        raise ValueError(f"need at least 2 folds, got {k}")


def _check_threads(n: int) -> None:
    """Reject a thread count below 1; needs no data, so callers check it before loading."""
    if n < 1:
        raise ValueError(f"threads must be >= 1, got {n}")


def make_folds(dataset: WordPairDataset, k: int, seed: int) -> WordPairDataset:
    """Shuffled k-fold split with lexically disjoint train/test sets."""
    if dataset.folds is not None:
        raise ValueError("dataset already has folds")
    _check_folds(k)
    n = len(dataset.pairs)
    if k > n:
        raise ValueError(f"cannot split {n} pairs into {k} folds")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    words = [pair.tokens for pair in dataset.pairs]  # each pair's set, built once
    folds = []
    for chunk in np.array_split(perm, k):
        test = tuple(sorted(int(i) for i in chunk))
        test_vocab = set()
        for i in test:
            test_vocab |= words[i]
        test_set = set(test)
        train = []
        filtered = 0
        for i in range(n):
            if i in test_set:
                continue
            if words[i] & test_vocab:
                filtered += 1
            else:
                train.append(i)
        train_vocab = set()
        for i in train:
            train_vocab |= words[i]
        assert not (train_vocab & test_vocab), "fold vocabularies overlap"
        folds.append(Fold(train=tuple(train), test=test, n_filtered=filtered))
    assert sorted(i for f in folds for i in f.test) == list(range(n))
    return WordPairDataset(pairs=list(dataset.pairs), folds=folds)


def _hyper_rank_weights(hyper: np.ndarray) -> np.ndarray:
    # w_k = (D - rank_k) / D with rank 0 for the hypernym's largest value;
    # equal values rank in index order, as a stable sort gives.  A row with
    # no equal values and no NaN (sorted last) has one order, so any sort
    # finds it; only the other rows pay for the stable one.
    d = hyper.shape[-1]
    key = -hyper
    order = np.argsort(key, axis=-1)
    ranked = np.take_along_axis(key, order, axis=-1)
    tied = np.any(ranked[..., 1:] == ranked[..., :-1], axis=-1) | np.isnan(ranked[..., -1])
    if np.any(tied):
        order[tied] = np.argsort(key[tied], axis=-1, kind="stable")
    ranks = np.empty_like(order)
    np.put_along_axis(ranks, order, np.broadcast_to(np.arange(d), hyper.shape).copy(), axis=-1)
    return (d - ranks) / d


def baseline_score(kind: str, hypo_vec, hyper_vec, pairs=None):
    """Untrained scorers: dot, dif (hyper minus hypo) and wcos (weighted cosine).

    Weighted cosine emphasizes the hypernym's larger coordinates: both
    vectors are reweighted by w_k = (D - rank_k)/D, where rank_k is the
    position of hyper_k in descending order, before taking the cosine.
    Accepts (..., d) batches; returns a float for single vectors.  With
    ``pairs`` = (i, j), row i of ``hypo_vec`` is scored against row j of
    ``hyper_vec``; the rank weights and the hypernym's weighted norm
    depend on the hypernym row alone, so they are computed once per row,
    before the rows are gathered.
    """
    if kind not in BASELINE_METHODS:
        raise ValueError(f"unknown baseline {kind!r}; expected dot, dif or wcos")
    h = np.asarray(hypo_vec, dtype=np.float64)
    g = h if hyper_vec is hypo_vec else np.asarray(hyper_vec, dtype=np.float64)
    if pairs is None and h.shape != g.shape:
        raise ValueError(f"hypo shape {h.shape} != hyper shape {g.shape}")
    if pairs is not None and not (h.ndim == g.ndim == 2 and h.shape[1] == g.shape[1]):
        raise ValueError(f"pairs= needs two (rows, d) tables of one d; "
                         f"hypo has shape {h.shape} and hyper has shape {g.shape}")
    if h.ndim == 0 or h.shape[-1] == 0:
        raise ValueError("vectors must have at least one dimension")
    per_hyper = ()  # wcos's rank weights and weighted norm of each hypernym row
    if kind == "wcos":
        w = _hyper_rank_weights(g)
        per_hyper = (w, np.sqrt(np.sum(w * g * g, axis=-1)))
    if pairs is None:
        out = _baseline(kind, h, g, *per_hyper)
    else:
        out = _pair_rows(lambda i, j: _baseline(kind, h[i], g[j], *(a[j] for a in per_hyper)),
                         pairs, h.shape[1])
    return float(out) if np.ndim(out) == 0 else out


def _baseline(kind, h, g, w=None, g_norm=None):
    if kind == "dot":
        return np.sum(h * g, axis=-1)
    if kind == "dif":
        return np.sum(g - h, axis=-1)
    num = np.sum(w * h * g, axis=-1)
    h_norm = np.sqrt(np.sum(w * h * h, axis=-1))
    if np.any(h_norm == 0.0) or np.any(g_norm == 0.0):
        raise ValueError("wcos is undefined for zero-weight-norm vectors")
    return num / (h_norm * g_norm)


OPERATOR_METHODS = {
    "logodds-fwd": (interpret.LOG_ODDS, "fwd"),
    "logodds-bwd": (interpret.LOG_ODDS, "bwd"),
    "logodds-fact": (interpret.LOG_ODDS, "fact"),
    "dup-bwd": (interpret.DUP, "bwd"),
    "unkdup-bwd": (interpret.UNK_DUP, "bwd"),
    "unkdup-fact": (interpret.UNK_DUP, "fact"),
}
BASELINE_METHODS = ("dot", "dif", "wcos")
MAPPED_METHODS = {
    "mapped-fwd": "fwd",
    "mapped-bwd": "bwd",
    "mapped-fact": "fact",
    "mapped-dif": "dif",
}
ALL_METHODS = tuple(OPERATOR_METHODS) + BASELINE_METHODS + tuple(MAPPED_METHODS)


@dataclass(frozen=True)
class EvalRow:
    method: str
    acc50: float
    dir_acc: float
    threshold: float
    n_scored: int
    n_dropped_oov: int


@dataclass(frozen=True)
class EvalReport:
    rows: tuple

    def to_csv(self) -> str:
        lines = ["method,acc50,dir_acc,threshold,n,oov_dropped"]
        lines += (f"{r.method},{r.acc50:.4f},{r.dir_acc:.4f},{r.threshold:.4f},"
                  f"{r.n_scored},{r.n_dropped_oov}" for r in self.rows)
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        """The cells of ``to_csv``, aligned in columns."""
        cells = [line.split(",") for line in self.to_csv().splitlines()]
        widths = [max(len(row[i]) for row in cells) for i in range(len(cells[0]))]
        lines = ["  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() for row in cells]
        return "\n".join(lines) + "\n"


@dataclass
class EvalRequest:
    dataset: WordPairDataset
    embeddings: EmbeddingTable
    methods: tuple
    shift: float = 1.0
    k_folds: int = 10
    seed: int = 0
    train_config: training.TrainConfig | None = None  # defaulted when mapped-* run
    threads: int = 1


def _method_readings(methods, shift) -> dict:
    """Each operator method's Interpretation; rejects no or unknown methods
    and a bad unkdup ``shift``, so a request fails before any data is read."""
    if not methods:
        raise ValueError("no methods requested")
    for m in methods:
        if m not in ALL_METHODS:
            raise ValueError(f"unknown method {m!r}; expected one of {ALL_METHODS}")
    return {m: interpret.Interpretation(OPERATOR_METHODS[m][0].kind, shift)
            for m in methods if m in OPERATOR_METHODS}


def _mapped_scores(method, folds, rows, train_config):
    """Held-out forward and reversed scores, pooled over the folds."""
    cfg = train_config if train_config is not None else training.TrainConfig()
    results = training.train(folds, rows, cfg, MAPPED_METHODS[method])
    words, hi, gi, _ = rows
    scores = np.full(hi.size, np.nan)
    rev = np.full(hi.size, np.nan)
    for fold, trained in zip(folds, results):
        idx = np.asarray(fold.test, dtype=np.int64)
        hypo_mat, hyper_mat = words[hi[idx]], words[gi[idx]]
        scores[idx] = training.raw_scores(trained.model, hypo_mat, hyper_mat)
        rev[idx] = training.raw_scores(trained.model, hyper_mat, hypo_mat)
    if np.any(np.isnan(scores)):
        raise ValueError("some pairs were never assigned to a test fold")
    return scores, rev


def run_eval(request: EvalRequest) -> EvalReport:
    """Score every requested method and aggregate both metrics into a report.

    The operator methods share one set of tables per copy base (see the
    module docstring); ``threads`` > 1 gives the report of ``threads`` = 1.
    """
    methods = tuple(request.methods)
    readings = _method_readings(methods, request.shift)
    _check_threads(request.threads)

    if request.dataset.folds is not None:
        raise ValueError("dataset already has folds; run_eval builds them from k_folds and seed")

    pairs = request.dataset.pairs
    kept, n_dropped, *resolved = resolve_pairs(pairs, request.embeddings)
    words, hi, gi, labels = resolved
    pos_mask = labels == 1
    # every pair forward, then the positive pairs reversed, which is all that
    # direction accuracy reads: one scoring call per method
    both = (np.concatenate([hi, gi[pos_mask]]), np.concatenate([gi, hi[pos_mask]]))

    dataset = WordPairDataset(pairs=[pairs[n] for n in kept])
    if any(m in MAPPED_METHODS for m in methods):
        dataset = make_folds(dataset, request.k_folds, request.seed)
    tables = interpret._reading_tables(
        words, {(readings[m], OPERATOR_METHODS[m][1]) for m in readings})

    def one(method):
        if method in MAPPED_METHODS:
            scores, rev = _mapped_scores(method, dataset.folds, resolved, request.train_config)
            rev = rev[pos_mask]
        elif method in readings:
            reading = readings[method]
            scores, rev = np.split(interpret.pair_score(
                words, words, reading, OPERATOR_METHODS[method][1], pairs=both,
                tables=tables[reading]), [labels.size])
        else:
            scores, rev = np.split(baseline_score(method, words, words, pairs=both),
                                   [labels.size])
        acc50, threshold = fifty_percent_accuracy(scores, labels)
        dir_acc = _direction_credit(scores[pos_mask], rev)
        return EvalRow(method, acc50, dir_acc, threshold, int(labels.size), n_dropped)

    if request.threads > 1 and len(methods) > 1:
        with ThreadPoolExecutor(max_workers=request.threads) as pool:
            rows = tuple(pool.map(one, methods))
    else:
        rows = tuple(one(m) for m in methods)
    return EvalReport(rows=rows)
