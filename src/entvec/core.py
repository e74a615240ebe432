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

Every exp and log in the forward and backward operators, and every
sigmoid in the factorized one, is a function of a single vector.  So each
operator reads one table of y and one of x, each sigma(v), sigma(-v),
log sigma(v) or log sigma(-v), and its terms are their product.  One
private helper builds the tables; it shares z = exp(-|v|), 1 + z and
log1p(z) between v and -v and computes only the tables a call reads.
``sigmoid`` and ``log_sigmoid`` are that helper too, so the values are
the same bits everywhere.  With ``pairs=(i, j)`` an operator
scores row i of its first argument against row j of its second: it
builds the tables once per distinct argument array (once in all when
both arguments are the same array, say a matrix of distinct words),
gathers them to pair rows a block at a time and reduces exactly as the
aligned call does, so the scores are bitwise those of the aligned call on
gathered rows.

With ``tables=``, an operator reads the tables of its one array (passed
as both arguments) from that mapping of table name to array instead of
building them, so a caller that scores several operators on one array
builds them once.  The tables of -v are those of v with each name and
its negated name swapped (``_NEGATED``), bit for bit: the negated tables
of v are computed from -v, which negation gives exactly, and from the
z = exp(-|v|) that v and -v share.

The factorized failure probability sigma(-y_k) sigma(x_k) is capped at
``MAX_FAILURE_PROB`` = 1 - 1e-12, the one saturation rule: evaluation and
mapped training both score through these formulas, and stay finite.

Each operator's gradient with respect to y and x lives here too, next to
its score terms: mapped training reads scores and gradients from one
private helper that builds one set of tables for both, and that also
scores mapped training's ``dif`` baseline, sum_k (x_k - y_k).
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


def _tables(v: np.ndarray, *names: str) -> dict:
    """The named per-element tables of one float64 log-odds array ``v``.

    Names: "sigmoid" sigma(v), "sigmoid_neg" sigma(-v), "log_sigmoid"
    log sigma(v) and "log_sigmoid_neg" log sigma(-v).  Only the named tables
    are computed.  With z = exp(-|v|) and m = min(+/-v, 0),

        sigma(+/-v) = exp(m) / (1 + z),   log sigma(+/-v) = m - log1p(z),

    so v and -v share z, 1 + z and log1p(z).  exp(m) is exactly 1 or z,
    so sigma is the bits of 1/(1 + z) or z/(1 + z) as the sign selects.
    """
    # Flat buffers (a 0-d input included) let the steps run in place, so a
    # call on a large table allocates few arrays of its size; in-place
    # steps give the same bits.
    flat = v.reshape(-1)
    z = np.abs(flat)
    np.exp(np.negative(z, out=z), out=z)  # in (0, 1], never overflows
    if "sigmoid" in names or "sigmoid_neg" in names:
        one_z = 1.0 + z
    if "log_sigmoid" in names or "log_sigmoid_neg" in names:
        tail = np.log1p(z, out=z)
    out = {}
    for sig, log_sig, negated in (("sigmoid", "log_sigmoid", False),
                                  ("sigmoid_neg", "log_sigmoid_neg", True)):
        if sig not in names and log_sig not in names:
            continue
        m = np.minimum(np.negative(flat) if negated else flat, 0.0)
        if sig in names:
            out[sig] = np.exp(m)
            out[sig] /= one_z
        if log_sig in names:
            m -= tail
            out[log_sig] = m
        del m
    return {name: out[name].reshape(v.shape) for name in names}


# the table of -v that each table of v is, bit for bit
_NEGATED = {"sigmoid": "sigmoid_neg", "sigmoid_neg": "sigmoid",
            "log_sigmoid": "log_sigmoid_neg", "log_sigmoid_neg": "log_sigmoid"}


def sigmoid(x):
    """Logistic function 1 / (1 + exp(-x)), overflow-free for any finite x."""
    out = _tables(np.asarray(x, dtype=np.float64), "sigmoid")["sigmoid"]
    return float(out) if out.ndim == 0 else out


def log_sigmoid(x):
    """log sigma(x) via the softplus identity min(x, 0) - log1p(exp(-|x|)).

    Accurate in both tails: approaches x as x -> -inf and -exp(-x) as
    x -> +inf, where a naive log(sigmoid(x)) would return -inf or 0.
    """
    out = _tables(np.asarray(x, dtype=np.float64), "log_sigmoid")["log_sigmoid"]
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


def _check_pair(a, b, a_name: str, b_name: str, paired: bool):
    """Validated float64 arguments; one array when ``b is a``.

    Aligned arguments must share a shape; ``paired`` ones (scored through
    ``pairs=``) must be (rows, d) tables of one d.
    """
    a_arr = _as_log_odds(a, a_name)
    b_arr = a_arr if b is a else _as_log_odds(b, b_name)
    if paired:
        if a_arr.ndim != 2 or b_arr.ndim != 2 or a_arr.shape[1] != b_arr.shape[1]:
            raise DimensionMismatchError(
                f"pairs= needs two (rows, d) tables of one d; {a_name} has shape "
                f"{a_arr.shape} and {b_name} has shape {b_arr.shape}"
            )
    elif a_arr.shape != b_arr.shape:
        raise DimensionMismatchError(
            f"{a_name} has shape {a_arr.shape} but {b_name} has shape {b_arr.shape}"
        )
    return a_arr, b_arr


# elements per gathered block of pair rows (512 KB of float64, cache-sized)
_BLOCK_ELEMS = 1 << 16


def _pair_rows(score, pairs, d: int):
    """``score(i_block, j_block)`` over blocks of the index arrays ``pairs`` = (i, j).

    Returns the per-pair values in the shape of i (a float for scalar
    indices).  Each block gathers about ``_BLOCK_ELEMS`` elements of rows
    of dimension ``d``, so the gathered rows stay small however many
    pairs there are; every row reduces on its own, so the values do not
    depend on the block size.
    """
    i, j = (np.asarray(p) for p in pairs)
    if i.shape != j.shape or not (np.issubdtype(i.dtype, np.integer)
                                  and np.issubdtype(j.dtype, np.integer)):
        raise ValueError(f"pairs= needs two integer index arrays of one shape, "
                         f"got {i.dtype}{i.shape} and {j.dtype}{j.shape}")
    flat_i, flat_j = i.ravel(), j.ravel()
    if flat_i.size and min(flat_i.min(), flat_j.min()) < 0:
        raise IndexError("pairs= indices must be non-negative")  # numpy would wrap them
    out = np.empty(flat_i.size)
    step = max(1, _BLOCK_ELEMS // d)
    for s in range(0, flat_i.size, step):
        out[s:s + step] = score(flat_i[s:s + step], flat_j[s:s + step])
    out = out.reshape(i.shape)
    return float(out) if out.ndim == 0 else out


# the one table each operator reads of the entailing vector y and of the entailed vector x
_OPERATOR_TABLES = {
    "fwd": ("log_sigmoid", "sigmoid"),
    "bwd": ("sigmoid_neg", "log_sigmoid_neg"),
    "fact": ("sigmoid_neg", "sigmoid"),
}


def _terms(op: str, ty: np.ndarray, tx: np.ndarray) -> np.ndarray:
    """Per-dimension terms of "y entails x" under ``op`` from its tables of y and x."""
    terms = ty * tx
    if op != "fact":
        return terms
    np.minimum(terms, MAX_FAILURE_PROB, out=terms)  # the failure probability, capped
    return np.log1p(-terms)


def _score_grads(op: str, y, x):
    """Per-row scores of "y entails x" under ``op`` and their gradients.

    Returns (scores, d scores / d y, d scores / d x) for aligned (..., d)
    arrays y and x.  One set of tables serves the score and both
    gradients; the scores are bitwise those of the public operator.
    For ``op`` "dif" the score is sum_k (x_k - y_k), with gradients -1 and +1.
    """
    y, x = _check_pair(y, x, "y", "x", paired=False)
    if op == "dif":
        return np.sum(x - y, axis=-1), -np.ones_like(y), np.ones_like(x)
    if op == "fwd":
        ty, tx = _tables(y, "log_sigmoid", "sigmoid_neg"), _tables(x, "sigmoid", "sigmoid_neg")
        dx = tx["sigmoid"] * tx["sigmoid_neg"] * ty["log_sigmoid"]
        dy = tx["sigmoid"] * ty["sigmoid_neg"]
    elif op == "bwd":
        ty, tx = _tables(y, "sigmoid_neg", "sigmoid"), _tables(x, "log_sigmoid_neg", "sigmoid")
        dy = -ty["sigmoid_neg"] * ty["sigmoid"] * tx["log_sigmoid_neg"]
        dx = -ty["sigmoid_neg"] * tx["sigmoid"]
    else:
        ty, tx = _tables(y, "sigmoid_neg", "sigmoid"), _tables(x, "sigmoid", "sigmoid_neg")
        q = np.minimum(ty["sigmoid_neg"] * tx["sigmoid"], MAX_FAILURE_PROB)
        dy = ty["sigmoid_neg"] * ty["sigmoid"] * tx["sigmoid"] / (1.0 - q)
        dx = -ty["sigmoid_neg"] * tx["sigmoid"] * tx["sigmoid_neg"] / (1.0 - q)
    name_y, name_x = _OPERATOR_TABLES[op]
    return _terms(op, ty[name_y], tx[name_x]).sum(axis=-1), dy, dx


def _entail(op: str, y: np.ndarray, x: np.ndarray, pairs, tables):
    """Score "y entails x"; with ``pairs`` = (i, j), row i of y against row j of x.

    Each table is evaluated once per distinct array (once in all when y is
    x), or read from ``tables`` when y is x, then gathered to pair rows
    block by block.
    """
    name_y, name_x = _OPERATOR_TABLES[op]
    if tables is not None:
        if y is not x or any(n not in tables or np.shape(tables[n]) != y.shape
                             for n in (name_y, name_x)):
            raise ValueError(f"tables= needs the {name_y} and {name_x} tables, of shape "
                             f"{y.shape}, of the one array passed as both arguments")
        ty = tx = tables
    elif y is x:
        ty = tx = _tables(y, name_y, name_x)
    else:
        ty, tx = _tables(y, name_y), _tables(x, name_x)
    ty, tx = ty[name_y], tx[name_x]
    if pairs is not None:
        return _pair_rows(lambda i, j: _terms(op, ty[i], tx[j]).sum(axis=-1),
                          pairs, y.shape[1])
    total = _terms(op, ty, tx).sum(axis=-1)
    return float(total) if total.ndim == 0 else total


def entail_forward(x, y, pairs=None, tables=None):
    """Forward-inference score of "y entails x": sum_k sigma(x_k) log sigma(y_k).

    ``x`` is the entailed vector (consequent) and ``y`` the entailing one
    (antecedent).  Always <= 0; approaches 0 when x is all-unknown or y
    all-known.  With ``pairs`` = (i, j), scores row i of x against row j
    of y.  ``tables`` (see the module docstring) are the tables of x when
    x is y.
    """
    x, y = _check_pair(x, y, "x", "y", pairs is not None)
    return _entail("fwd", y, x, None if pairs is None else pairs[::-1], tables)


def entail_backward(y, x, pairs=None, tables=None):
    """Backward-inference score of "y entails x": sum_k sigma(-y_k) log sigma(-x_k).

    Note the argument order (antecedent first) mirrors the direction the
    score is read: y => x.  With ``pairs`` = (i, j), scores row i of y
    against row j of x.  ``tables`` are the tables of y when y is x.
    """
    y, x = _check_pair(y, x, "y", "x", pairs is not None)
    return _entail("bwd", y, x, pairs, tables)


def entail_factorized(y, x, pairs=None, tables=None):
    """Exact log-probability of "y entails x" under factorized marginals.

    Per dimension this is log(1 - sigma(-y_k) sigma(x_k)): the chance we
    avoid the one failure mode, feature k known in x but not in y.
    Computed with log1p for accuracy near 0.  The failure probability is
    capped at ``MAX_FAILURE_PROB``, so the score stays finite even when a
    feature is surely known in x and surely unknown in y.  With ``pairs``
    = (i, j), scores row i of y against row j of x.  ``tables`` are the
    tables of y when y is x.
    """
    y, x = _check_pair(y, x, "y", "x", pairs is not None)
    return _entail("fact", y, x, pairs, tables)
