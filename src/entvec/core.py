"""Stable scalar kernels and the three vector-space entailment operators.

Vectors here live in log-odds space: component k of a vector X is the
log-odds that feature k is *known* (as opposed to unknown), i.e.
X_k = log(q_k / (1 - q_k)) for a per-feature probability q_k.  All three
operators score the relation "y entails x" (every feature known in x is
also known in y) and return an approximate log-probability, hence a
value <= 0:

    entail_forward(x, y)     = sum_k sigma(x_k) * log sigma(y_k)
    entail_backward(y, x)    = sum_k sigma(-y_k) * log sigma(-x_k)
    entail_factorized(y, x)  = sum_k log(1 - sigma(-y_k) * sigma(x_k))

The forward and backward forms are Jensen lower bounds obtained from the
two inference directions; the factorized form is the exact value under
fully factorized marginals.  Scores are natural logs.

All functions accept array-likes of shape (..., d) and reduce over the
last axis, returning a float for 1-d inputs.  Non-finite inputs are
rejected; callers that may hold +/-inf should clamp first (see
``clamp_log_odds``).

The factorized failure probability sigma(-y_k) sigma(x_k) is capped at
``MAX_FAILURE_PROB`` = 1 - 1e-12, the one saturation rule: evaluation and
mapped training both score through these functions, and stay finite.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "DimensionMismatchError",
    "MAX_FAILURE_PROB",
    "sigmoid",
    "log_sigmoid",
    "clamp_log_odds",
    "entail_forward",
    "entail_backward",
    "entail_factorized",
]


class DimensionMismatchError(ValueError):
    """Two vectors that must share a dimension do not."""


# cap on the factorized operator's per-dimension failure probability
MAX_FAILURE_PROB = 1.0 - 1e-12


def sigmoid(x):
    """Logistic function 1 / (1 + exp(-x)), overflow-free for any finite x."""
    x = np.asarray(x, dtype=np.float64)
    z = np.exp(-np.abs(x))  # in (0, 1], never overflows
    out = np.where(x >= 0, 1.0 / (1.0 + z), z / (1.0 + z))
    return float(out) if out.ndim == 0 else out


def log_sigmoid(x):
    """log sigma(x) via the softplus identity min(x, 0) - log1p(exp(-|x|)).

    Accurate in both tails: approaches x as x -> -inf and -exp(-x) as
    x -> +inf, where a naive log(sigmoid(x)) would return -inf or 0.
    """
    x = np.asarray(x, dtype=np.float64)
    out = np.minimum(x, 0.0) - np.log1p(np.exp(-np.abs(x)))
    return float(out) if out.ndim == 0 else out


def clamp_log_odds(x, limit: float = 700.0):
    """Clip log-odds into [-limit, limit] so sigma/log stay away from 0/1."""
    if limit <= 0:
        raise ValueError(f"clamp limit must be positive, got {limit}")
    return np.clip(np.asarray(x, dtype=np.float64), -limit, limit)


def _as_log_odds(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 0 or arr.shape[-1] == 0:
        raise ValueError(f"{name} must have at least one dimension")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values; clamp inputs first")
    return arr


def _check_pair(a, b, a_name: str, b_name: str):
    a = _as_log_odds(a, a_name)
    b = _as_log_odds(b, b_name)
    if a.shape != b.shape:
        raise DimensionMismatchError(
            f"{a_name} has shape {a.shape} but {b_name} has shape {b.shape}"
        )
    return a, b


def _reduce(per_dim: np.ndarray):
    total = per_dim.sum(axis=-1)
    return float(total) if total.ndim == 0 else total


def entail_forward(x, y):
    """Forward-inference score of "y entails x": sum_k sigma(x_k) log sigma(y_k).

    ``x`` is the entailed vector (consequent) and ``y`` the entailing one
    (antecedent).  Always <= 0; approaches 0 when x is all-unknown or y
    all-known.
    """
    x, y = _check_pair(x, y, "x", "y")
    return _reduce(sigmoid(x) * log_sigmoid(y))


def entail_backward(y, x):
    """Backward-inference score of "y entails x": sum_k sigma(-y_k) log sigma(-x_k).

    Note the argument order (antecedent first) mirrors the direction the
    score is read: y => x.
    """
    y, x = _check_pair(y, x, "y", "x")
    return _reduce(sigmoid(-y) * log_sigmoid(-x))


def entail_factorized(y, x):
    """Exact log-probability of "y entails x" under factorized marginals.

    Per dimension this is log(1 - sigma(-y_k) sigma(x_k)): the chance we
    avoid the one failure mode, feature k known in x but not in y.
    Computed with log1p for accuracy near 0.  The failure probability is
    capped at ``MAX_FAILURE_PROB``, so the score stays finite even when a
    feature is surely known in x and surely unknown in y.
    """
    y, x = _check_pair(y, x, "y", "x")
    fail = sigmoid(-y) * sigmoid(x)
    np.minimum(fail, MAX_FAILURE_PROB, out=fail)
    return _reduce(np.log1p(-fail))
