"""Reading raw word embeddings as entailment log-odds vectors.

Raw embedding coordinates are real numbers, so three progressively more
faithful readings map them into the known/unknown log-odds space the
entailment operators expect.  A reading is a list of copies of the raw
vector, concatenated in order: a copy is ``sign * raw - offset``, and
``Interpretation.copies`` lists each copy's ``(sign, offset)``:

  logodds  (+1, 0)             the raw vector is the feature log-odds
  dup      (+1, 0), (-1, 0)    each coordinate says its feature is known
                               true or known false (dimension 2d)
  unkdup   (+1, s), (-1, s)    dup shifted down by s, so a coordinate v keeps
                               1 - sigma(v - s) - sigma(-v - s) > 0 of its
                               mass on "unknown", most at v = 0

This module also scores a word-in-context instance: a hidden vector that
unifies the features of a middle word and a context word is inferred by
backward inference, one hidden copy per copy of the reading, and the score
is how well that hidden vector entails both.  Comparing the gradient of
that score with the skip-gram/negative-sampling gradient log sigma(m . c)
is what motivates the readings, and ``gradient_grid`` reproduces that
comparison on 1-d instances.

Scoring several operators on one matrix of words needs each sigma / log
sigma table of a reading once, and ``pair_score`` reads a reading's set
through ``tables=``.  ``_reading_tables`` builds each reading's set from its
own copies in one call, except that logodds, when dup is read too, reads
halves of the sigma(-.) and log sigma(-.) tables of dup's copies [raw, -raw]
(a table of -v is the table of v with the negated name, ``core._NEGATED``,
exact because v and -v share exp(-|v|)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import core
from .core import (
    _NEGATED,
    _OPERATOR_TABLES,
    DimensionMismatchError,
    entail_backward,
    entail_factorized,
    entail_forward,
    log_sigmoid,
    sigmoid,
)

__all__ = [
    "Interpretation",
    "LOG_ODDS",
    "DUP",
    "UNK_DUP",
    "ContextModelInputs",
    "GradientGrid",
    "transform",
    "unknown_mass",
    "pair_score",
    "unify_backward",
    "context_score",
    "context_score_grad_m",
    "gradient_grid",
    "GRID_MODELS",
]

_KINDS = ("logodds", "dup", "unkdup")

@dataclass(frozen=True)
class Interpretation:
    """How a raw embedding is read as log-odds; ``shift`` only matters for unkdup."""

    kind: str
    shift: float = 1.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown interpretation {self.kind!r}; expected one of {_KINDS}")
        if self.kind == "unkdup":
            if not math.isfinite(self.shift):
                raise ValueError(f"unkdup shift must be finite, got {self.shift}")
            if not self.shift > 0:
                raise ValueError(f"unkdup shift must be positive, got {self.shift}")

    @property
    def copies(self) -> tuple:
        """The ``(sign, offset)`` of each copy; a copy is ``sign * raw - offset``."""
        if self.kind == "logodds":
            return ((1, 0),)
        offset = self.shift if self.kind == "unkdup" else 0
        return ((1, offset), (-1, offset))


LOG_ODDS = Interpretation("logodds")
DUP = Interpretation("dup")
UNK_DUP = Interpretation("unkdup")


def transform(raw, interp: Interpretation) -> np.ndarray:
    """Map a raw embedding (shape (..., d)) into entailment log-odds space.

    The result concatenates the copies of ``interp`` along the last axis:
    logodds keeps the vector, dup gives [raw; -raw] and unkdup
    [raw - shift; -raw - shift], of dimension 2d.
    """
    raw = np.asarray(raw, dtype=np.float64)
    if not np.all(np.isfinite(raw)):
        raise ValueError("raw vector contains non-finite values")
    return _copies(raw, interp)


def _copies(raw: np.ndarray, interp: Interpretation) -> np.ndarray:
    """``transform`` of a float64 ``raw`` that is not checked for finite values."""
    # negate and concatenate, then shift in place: the offsets make no temporaries
    out = np.concatenate([raw if sign > 0 else -raw for sign, _ in interp.copies], axis=-1)
    offsets = [offset for _, offset in interp.copies]
    if any(offsets):
        out -= np.repeat(offsets, raw.shape[-1])
    return out


def unknown_mass(values, shift: float = 1.0):
    """Per-coordinate probability of "unknown" under the unkdup reading."""
    values = np.asarray(values, dtype=np.float64)
    out = 1.0 - sigmoid(values - shift) - sigmoid(-values - shift)
    return float(out) if np.ndim(out) == 0 else out


def pair_score(hypo_raw, hyper_raw, interp: Interpretation, op: str, pairs=None,
               tables=None):
    """Score "hyponym entails hypernym" for raw embedding vectors.

    Both arguments are transformed under ``interp`` (once when they are
    the same array); the hypernym plays the entailed side (x) and the
    hyponym the entailing side (y).  ``op`` is one of fwd / bwd / fact.
    With ``pairs`` = (i, j), row i of ``hypo_raw`` is scored against row j
    of ``hyper_raw``: pass one (words, d) matrix as both arguments and the
    operator's tables are built once per word, not once per pair row.
    ``tables``, for one matrix passed as both arguments, is its set from
    ``_reading_tables``: the operator reads it instead of building its own,
    and the scores are the same bits.
    """
    if op not in _OPERATOR_TABLES:
        raise ValueError(f"unknown operator {op!r}; expected fwd, bwd or fact")
    y = transform(hypo_raw, interp)
    x = y if hyper_raw is hypo_raw else transform(hyper_raw, interp)
    if op == "fwd":
        return entail_forward(x, y, pairs=None if pairs is None else pairs[::-1], tables=tables)
    if op == "bwd":
        return entail_backward(y, x, pairs=pairs, tables=tables)
    return entail_factorized(y, x, pairs=pairs, tables=tables)


def _reading_tables(raw: np.ndarray, uses) -> dict:
    """The tables ``pair_score(raw, raw, interp, op, tables=...)`` reads, per reading.

    ``uses`` holds ``(interp, op)`` pairs; returns {interp: {table name:
    table of transform(raw, interp)}} with every table its operators read.
    Each reading builds its tables from its own copies in one
    ``core._tables`` call, except that logodds, when dup is read too,
    builds none: dup's call then also builds the sigma(-.) and
    log sigma(-.) tables, and logodds reads views of them, a ``*_neg``
    table as their raw half and any other as the -raw half of its negated
    name (``core._NEGATED``, exact).
    """
    names = {}
    for interp, op in uses:
        names.setdefault(interp, set()).update(_OPERATOR_TABLES[op])
    dup = next((interp for interp in names if interp.kind == "dup"), None)
    shared = [interp for interp in names if interp.kind == "logodds"] if dup else []
    if shared:
        names[dup] |= {"sigmoid_neg", "log_sigmoid_neg"}
    out = {interp: core._tables(_copies(raw, interp), *sorted(names[interp]))
           for interp in names if interp not in shared}
    d = raw.shape[-1]
    for interp in shared:
        out[interp] = {name: out[dup][name][..., :d] if name.endswith("_neg")
                       else out[dup][_NEGATED[name]][..., d:] for name in names[interp]}
    for tables in out.values():  # methods on several threads share them
        for table in tables.values():
            table.setflags(write=False)
    return out


@dataclass(frozen=True)
class ContextModelInputs:
    """A word-in-context instance: middle word, context word, context prior."""

    x_m: np.ndarray
    x_c: np.ndarray
    theta_c: np.ndarray

    def __post_init__(self):
        for name in ("x_m", "x_c", "theta_c"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        if not (self.x_m.shape == self.x_c.shape == self.theta_c.shape):
            raise DimensionMismatchError(
                f"x_m {self.x_m.shape}, x_c {self.x_c.shape} and theta_c "
                f"{self.theta_c.shape} must share a shape"
            )

    @property
    def x_c_prime(self) -> np.ndarray:
        """Context vector with prior folded in: theta_c - log sigma(-x_c)."""
        return self.theta_c - log_sigmoid(-self.x_c)


def _hidden_copies(inputs: ContextModelInputs, interp: Interpretation):
    """(sign, middle copy, context copy, hidden copy) for each copy of ``interp``.

    The middle copy is sign * x_m - offset, the context copy sign * x_c', and
    backward inference puts the hidden copy at context - log sigma(-middle).
    """
    xcp = inputs.x_c_prime
    for sign, offset in interp.copies:
        m = sign * inputs.x_m - offset
        c = sign * xcp
        yield sign, m, c, c - log_sigmoid(-m)


def unify_backward(inputs: ContextModelInputs, interp: Interpretation):
    """Infer the hidden vector(s) entailing both middle and context word.

    Returns (y_plus, y_minus); y_minus is None for the logodds reading,
    which has no negated copy.  Backward inference accumulates
    -log sigma(-.) evidence from each entailed vector on top of the
    combined context term.
    """
    ys = [y for *_, y in _hidden_copies(inputs, interp)]
    return ys[0], ys[1] if len(ys) > 1 else None


def context_score(inputs: ContextModelInputs, interp: Interpretation) -> float:
    """Log-probability that the unified hidden vector entails both words.

    Each hidden copy Y contributes entail_backward(Y, middle copy) plus the
    combined context/prior term -sigma(-Y) . context copy.
    """
    score = -0.0  # the additive identity: the first term keeps its bits
    for _, m, c, y in _hidden_copies(inputs, interp):
        score += entail_backward(y, m) + float(np.sum(-sigmoid(-y) * c))
    return score


def _part_grad(y: np.ndarray, middle_gate: np.ndarray) -> np.ndarray:
    # Each hidden copy contributes -sigma(-Y) * Y to the score, with
    # dY/dx_m = +/-sigma(gate); chain rule gives the closed form below.
    return middle_gate * sigmoid(-y) * (sigmoid(y) * y - 1.0)


def context_score_grad_m(inputs: ContextModelInputs, interp: Interpretation) -> np.ndarray:
    """Analytic gradient of ``context_score`` with respect to x_m (elementwise)."""
    grad = -0.0  # as in context_score
    for sign, m, _, y in _hidden_copies(inputs, interp):
        grad = grad + _part_grad(y, sign * sigmoid(m))
    return grad


GRID_MODELS = ("word2vec", "logodds-bwd", "dup-bwd", "unkdup-bwd")


@dataclass(frozen=True)
class GradientGrid:
    """d(score)/d(x_m) sampled on a (middle, context) grid of 1-d instances."""

    model: str
    m: np.ndarray
    c: np.ndarray
    grad: np.ndarray  # shape (len(m), len(c))

    def to_csv(self) -> str:
        lines = ["m,c,gradient"]
        for i, mv in enumerate(self.m):
            for j, cv in enumerate(self.c):
                lines.append(f"{mv:.9g},{cv:.9g},{self.grad[i, j]:.9g}")
        return "\n".join(lines) + "\n"


def _axis(lo: float, hi: float, step: float) -> np.ndarray:
    """The points lo, lo + step, ... that do not pass hi, up to rounding."""
    if not (np.isfinite(lo) and np.isfinite(hi) and step > 0):
        raise ValueError(f"bad grid range ({lo}, {hi}, {step})")
    if hi < lo:
        raise ValueError(f"grid range ({lo}, {hi}, {step}) contains no points")
    steps = (hi - lo) / step
    # the tolerance keeps an hi that rounding leaves just short of a point:
    # 0.3 / 0.1 is 2.9999999999999996.  np.floor, as a float, lets np.arange
    # refuse a count too large to hold, an infinite one included
    return lo + step * np.arange(np.floor(steps + 1e-9 * (1 + steps)) + 1)


def gradient_grid(model: str, m_range, c_range, shift: float = 1.0) -> GradientGrid:
    """Training-gradient grid for the skip-gram score or one of its readings.

    For word2vec the score on a 1-d instance is log sigma(m * c), whose
    middle-word gradient is sigma(-m c) * c.  For a ``<reading>-bwd`` model
    the score is ``context_score`` under that reading with theta_c = 0 and the
    gradient is analytic (cross-checked against finite differences in the
    tests).  Grid rows vary m, columns vary c.
    """
    if model not in GRID_MODELS:
        raise ValueError(f"unknown grid model {model!r}; expected one of {GRID_MODELS}")
    m = _axis(*m_range)
    c = _axis(*c_range)
    mm, cc = np.meshgrid(m, c, indexing="ij")
    if model == "word2vec":
        grad = sigmoid(-mm * cc) * cc
    else:
        interp = Interpretation(model.removesuffix("-bwd"), shift)
        inputs = ContextModelInputs(mm, cc, np.zeros_like(mm))
        grad = context_score_grad_m(inputs, interp)
    return GradientGrid(model=model, m=m, c=c, grad=grad)
