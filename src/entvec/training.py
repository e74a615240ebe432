"""Linear mappings into a vector space where an entailment operator separates
hyponym pairs, trained per cross-validation fold with cross entropy.

A model is a matrix W plus a scalar offset tau.  Both words of a pair are
mapped through the same W, the chosen operator (or a plain difference sum)
scores the mapped pair, and sigma(score - tau) is read as the probability
that the pair is a true hyponym pair.  Training is plain mini-batch
gradient descent with a constant step size and seeded shuffling, so runs
are bitwise reproducible.  ``train`` takes pairs already resolved to
embedding rows (``evaluation.resolve_pairs``), so it reads no table.

Mapped vectors are always read as log-odds and scored by ``core``'s
operators, saturation cap included; the duplicate/shift readings are
subsumed by the freedom of a learned linear map, so composing them would
be redundant.  Each operator's score and its gradient with respect to the
mapped vectors are written in ``core``: a mini-batch gets both from one
``core`` helper that builds the sigma / log sigma tables of its mapped
vectors once.  Only ``dif`` (a plain difference sum) is scored here.  The
gradients then flow analytically through the mapping; the
finite-difference agreement test is the contract here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import core
from .core import sigmoid
from .interpret import transform  # unused; perfbench/spans.py rebinds training.transform

__all__ = [
    "TrainConfig",
    "MappingModel",
    "TrainedFold",
    "init_mapping",
    "raw_scores",
    "predict",
    "loss_and_grad",
    "train",
    "save_model",
    "load_model",
]

_OPS = ("fwd", "bwd", "fact", "dif")


def _check_op(op: str) -> None:
    if op not in _OPS:
        raise ValueError(f"unknown operator {op!r}; expected one of {_OPS}")


@dataclass
class TrainConfig:
    step_size: float = 0.1
    epochs: int = 50
    batch_size: int = 32
    seed: int = 0
    l2: float = 0.0
    d_out: int | None = None  # None: same as the input dimension

    def __post_init__(self):
        if not self.step_size > 0:
            raise ValueError(f"step_size must be positive, got {self.step_size}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.l2 < 0:
            raise ValueError(f"l2 must be non-negative, got {self.l2}")
        if self.d_out is not None and self.d_out < 1:
            raise ValueError(f"d_out must be >= 1, got {self.d_out}")


@dataclass
class MappingModel:
    W: np.ndarray
    tau: float
    op: str = "bwd"

    def __post_init__(self):
        self.W = np.asarray(self.W, dtype=np.float64)
        if self.W.ndim != 2 or self.W.shape[0] < 1 or self.W.shape[1] < 1:
            raise ValueError(f"W must be a non-empty matrix, got shape {self.W.shape}")
        if not np.all(np.isfinite(self.W)):
            raise ValueError("W contains non-finite entries")
        self.tau = float(self.tau)
        if not np.isfinite(self.tau):
            raise ValueError(f"tau must be finite, got {self.tau}")
        _check_op(self.op)

    @property
    def d_out(self) -> int:
        return self.W.shape[0]

    @property
    def d_in(self) -> int:
        return self.W.shape[1]


@dataclass(frozen=True)
class TrainedFold:
    model: MappingModel
    history: tuple  # mean loss per epoch
    n_train: int


def init_mapping(d_in: int, d_out: int, seed: int, op: str = "bwd") -> MappingModel:
    """Fresh model with W ~ U[-1/sqrt(d_in), +1/sqrt(d_in)] and tau = 0."""
    if d_in < 1 or d_out < 1:
        raise ValueError(f"dimensions must be >= 1, got d_in={d_in}, d_out={d_out}")
    rng = np.random.default_rng(seed)
    scale = 1.0 / np.sqrt(d_in)
    w = rng.uniform(-scale, scale, size=(d_out, d_in))
    return MappingModel(W=w, tau=0.0, op=op)


def _check_d_in(model: MappingModel, mat: np.ndarray, name: str) -> None:
    if mat.shape[-1] != model.d_in:
        raise ValueError(f"{name} has dim {mat.shape[-1]} but the mapping expects {model.d_in}")


def raw_scores(model: MappingModel, hypo_raw, hyper_raw) -> np.ndarray:
    """Operator scores of mapped pairs, before the tau offset; accepts (n, d_in)."""
    h_raw = np.atleast_2d(np.asarray(hypo_raw, dtype=np.float64))
    g_raw = np.atleast_2d(np.asarray(hyper_raw, dtype=np.float64))
    _check_d_in(model, h_raw, "hypo")
    _check_d_in(model, g_raw, "hyper")
    if h_raw.shape != g_raw.shape:  # dif would broadcast them
        raise core.DimensionMismatchError(
            f"hypo has shape {h_raw.shape} but hyper has shape {g_raw.shape}"
        )
    h, g = h_raw @ model.W.T, g_raw @ model.W.T
    if model.op == "fwd":
        return core.entail_forward(g, h)
    if model.op == "bwd":
        return core.entail_backward(h, g)
    if model.op == "fact":
        return core.entail_factorized(h, g)
    return np.sum(g - h, axis=-1)


def predict(model: MappingModel, hypo_vec, hyper_vec):
    """P(true hyponym pair) = sigma(score - tau): per row of (n, d_in) inputs, a float for 1-d."""
    p = sigmoid(raw_scores(model, hypo_vec, hyper_vec) - model.tau)
    return float(p[0]) if np.ndim(hypo_vec) < 2 else p


def _loss_and_grad_mats(model: MappingModel, h_raw, g_raw, targets, l2: float):
    n = h_raw.shape[0]
    h = h_raw @ model.W.T
    g = g_raw @ model.W.T
    if model.op == "dif":
        s, dh, dg = np.sum(g - h, axis=-1), -np.ones_like(h), np.ones_like(g)
    else:
        s, dh, dg = core._score_grads(model.op, h, g)
    u = s - model.tau
    tu = core._tables(u, "sigmoid", "log_sigmoid", "log_sigmoid_neg")
    p = tu["sigmoid"]
    bce = -(targets * tu["log_sigmoid"] + (1.0 - targets) * tu["log_sigmoid_neg"])
    loss = float(np.mean(bce))
    dl_ds = (p - targets) / n
    grad_w = (dg * dl_ds[:, None]).T @ g_raw + (dh * dl_ds[:, None]).T @ h_raw
    grad_tau = float(np.mean(targets - p))
    if l2 > 0.0:
        loss += l2 * float(np.sum(model.W * model.W))
        grad_w = grad_w + 2.0 * l2 * model.W
    return loss, grad_w, grad_tau


def loss_and_grad(model: MappingModel, batch, l2: float = 0.0):
    """Mean cross entropy and analytic gradients over a batch.

    ``batch`` is a list of (WordPair, hypo_vec, hyper_vec) triples; the
    targets are the pairs' labels.  With l2 > 0 the penalty l2*||W||^2 and
    its gradient are included.
    """
    if not batch:
        raise ValueError("batch must be non-empty")
    h_raw = np.stack([np.asarray(b[1], dtype=np.float64) for b in batch])
    g_raw = np.stack([np.asarray(b[2], dtype=np.float64) for b in batch])
    targets = np.array([b[0].label for b in batch], dtype=np.float64)
    return _loss_and_grad_mats(model, h_raw, g_raw, targets, l2)


def train(folds, rows, cfg: TrainConfig, op: str) -> list:
    """Train one mapping per fold; returns a TrainedFold per fold.

    ``rows`` is ``(words, hi, gi, labels)`` of ``evaluation.resolve_pairs``:
    pair n is hyponym ``words[hi[n]]``, hypernym ``words[gi[n]]``, label ``labels[n]``.
    Each Fold of ``folds`` trains on the pairs its ``train`` indexes, with
    its own deterministic substream of ``cfg.seed`` for initialization and
    epoch shuffling.  tau starts at the mean raw score of the first batch,
    centering initial predictions near 0.5.
    """
    _check_op(op)
    words, hi, gi, labels = rows
    d_in = words.shape[1]
    d_out = cfg.d_out if cfg.d_out is not None else d_in
    results = []
    for fold_idx, fold in enumerate(folds):
        sel = np.asarray(fold.train, dtype=np.intp)
        if not sel.size:
            raise ValueError(f"fold {fold_idx} has no training pairs")
        h_all, g_all = words[hi[sel]], words[gi[sel]]
        t_all = labels[sel].astype(np.float64)
        n = sel.size
        rng = np.random.default_rng([cfg.seed, fold_idx])
        model = init_mapping(d_in, d_out, seed=int(rng.integers(2**31 - 1)), op=op)
        history = []
        for epoch in range(cfg.epochs):
            perm = rng.permutation(n)
            if epoch == 0:
                first = perm[:cfg.batch_size]
                model.tau = float(np.mean(raw_scores(model, h_all[first], g_all[first])))
            total = 0.0
            for start in range(0, n, cfg.batch_size):
                idx = perm[start:start + cfg.batch_size]
                loss, grad_w, grad_tau = _loss_and_grad_mats(
                    model, h_all[idx], g_all[idx], t_all[idx], cfg.l2
                )
                model.W = model.W - cfg.step_size * grad_w
                model.tau = model.tau - cfg.step_size * grad_tau
                total += loss * idx.size
            history.append(total / n)
        results.append(TrainedFold(model=model, history=tuple(history), n_train=n))
    return results


def save_model(model: MappingModel, path) -> None:
    """Persist as text: header ``d_out d_in tau op``, then the rows of W."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{model.d_out} {model.d_in} {model.tau:.17g} {model.op}\n")
        for row in model.W:
            fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")


def load_model(path) -> MappingModel:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 4:
            raise ValueError(f"model header must be 'd_out d_in tau op', got {header}")
        try:
            d_out, d_in, tau = int(header[0]), int(header[1]), float(header[2])
        except ValueError:
            raise ValueError(f"unparsable model header {header}") from None
        op = header[3]
        rows = []
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            try:
                values = [float(v) for v in line.split()]
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
            if len(values) != d_in:
                raise ValueError(f"line {lineno}: expected {d_in} values, got {len(values)}")
            rows.append(values)
    if len(rows) != d_out:
        raise ValueError(f"header promises {d_out} rows but the file has {len(rows)}")
    return MappingModel(W=np.array(rows, dtype=np.float64), tau=tau, op=op)
