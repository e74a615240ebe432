"""Mean-field inference over entailment graphs.

Nodes hold vectors of log-odds that each feature is known.  A positive
edge a -> b asserts "a entails b" (every feature known in b is known in
a); a negative edge asserts the entailment does not hold.  Inference
iteratively re-estimates each free node's log-odds as its prior plus
evidence from its neighbours:

  * -log sigma(-X_j) for each entailed neighbour j (a non-negative,
    ReLU-like push upward),
  * +log sigma(X_j) for each entailing neighbour j (non-positive),
  * bounded correction terms for negative edges, using per-dimension
    constants C = prod_{k' != k} (1 - sigma(-X_src,k') sigma(X_tgt,k'))
    recomputed from the current estimates at every update.

Updates sweep the free nodes in declaration order (Gauss-Seidel style:
each update reads the values earlier nodes got in the same sweep and the
previous sweep's values of later ones), starting from the priors, until
the largest absolute change drops below ``tol``.  A sweep is computed a
wavefront level at a time: a node's level is one more than the highest
level among its free neighbours declared before it (0 without one), so
nodes of one level share no edge, and updating the levels in order, each
as one array step, gives the node-by-node iterates up to floating-point
rounding.  The cost of a sweep grows with the number of levels, the
longest declaration-order path through the free nodes; a chain, with
one node per level, is the worst case.

Values are clamped to +/-``clamp`` after every update so the sigmoids
and logs stay finite; a genuinely divergent negative-edge term (possible
when C reaches 1, e.g. in one dimension) saturates at the clamp instead
of erroring.  NaN is always an error, reported at the first node in
declaration order that produced it.  Undamped sweeps can oscillate
instead of converging on graphs with many sibling negative edges;
``damping`` (e.g. 0.3) restores convergence there.

Graphs can be built programmatically or parsed from a line-oriented
text format:

    # comment
    node <name> <dim> [theta_1 ... theta_dim]   (theta defaults to zeros)
    entail <a> <b>
    notentail <a> <b>
    observe <name> <k> <logodds>                (k is 0-based)

Observing any dimension freezes the whole node: unobserved dimensions
keep their prior value and the node is never updated, only read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DimensionMismatchError, log_sigmoid, sigmoid

__all__ = [
    "GraphStructureError",
    "GraphFormatError",
    "SolverNumericsError",
    "SolverConfig",
    "SolverResult",
    "EntailmentGraph",
    "forward_infer",
    "backward_infer",
    "neg_relation_constant",
    "graph_infer",
    "parse_graph",
    "parse_graph_file",
]


class GraphStructureError(ValueError):
    """Invalid graph construction: duplicate node, unknown node, self-edge."""


class GraphFormatError(ValueError):
    """Unparseable graph file; carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class SolverNumericsError(ValueError):
    """A sweep produced NaN; names the node, dimension and sweep."""


def _as_prob(q, name: str) -> np.ndarray:
    q = np.asarray(q, dtype=np.float64)
    if np.any(q < 0.0) or np.any(q > 1.0) or not np.all(np.isfinite(q)):
        raise ValueError(f"{name} entries must be probabilities in [0, 1]")
    return q


def forward_infer(theta_x, q_y):
    """Marginal of an entailed feature given its entailing side: sigma(theta + log q_y)."""
    theta_x = np.asarray(theta_x, dtype=np.float64)
    q_y = _as_prob(q_y, "q_y")
    if theta_x.shape != q_y.shape:
        raise DimensionMismatchError(
            f"theta_x has shape {theta_x.shape} but q_y has shape {q_y.shape}"
        )
    if np.any(q_y == 0.0):
        raise ValueError("entailing from impossible feature (q_y entry is 0)")
    out = sigmoid(theta_x + np.log(q_y))
    return float(out) if np.ndim(out) == 0 else out


def backward_infer(theta_y, q_x):
    """Marginal of an entailing feature given its entailed side: sigma(theta - log(1 - q_x))."""
    theta_y = np.asarray(theta_y, dtype=np.float64)
    q_x = _as_prob(q_x, "q_x")
    if theta_y.shape != q_x.shape:
        raise DimensionMismatchError(
            f"theta_y has shape {theta_y.shape} but q_x has shape {q_x.shape}"
        )
    if np.any(q_x == 1.0):
        raise ValueError("entailed feature certainly known (q_x entry is 1)")
    out = sigmoid(theta_y - np.log1p(-q_x))
    return float(out) if np.ndim(out) == 0 else out


def _neg_log_factors(x_src: np.ndarray, x_tgt: np.ndarray) -> np.ndarray:
    # log(1 - sigma(-x_src) sigma(x_tgt)) per dimension; -inf when the
    # product saturates to 1 (only possible at extreme log-odds).
    p = sigmoid(-x_src) * sigmoid(x_tgt)
    with np.errstate(divide="ignore"):
        return np.log1p(-p)


def _neg_constants(x_src: np.ndarray, x_tgt: np.ndarray) -> np.ndarray:
    """C_k = prod_{k' != k} (1 - sigma(-x_src,k') sigma(x_tgt,k')), all k at once.

    Works row-wise over the last axis.  A zero factor kills every product
    that includes it: C_k = 0 wherever a dimension other than k saturates,
    so a row with one saturated factor keeps only that factor's C, and a row
    with two or more is all zeros.
    """
    logf = _neg_log_factors(x_src, x_tgt)
    zero = np.isneginf(logf)
    logf[zero] = 0.0
    out = np.exp(logf.sum(axis=-1, keepdims=True) - logf)
    out[zero.sum(axis=-1, keepdims=True) - zero > 0] = 0.0
    return out


def neg_relation_constant(x_i, x_j, k: int) -> float:
    """Negative-edge bound constant for dimension ``k`` of edge i -> j.

    The product runs over all dimensions except ``k``; the vacuous
    one-dimensional product is 1.
    """
    x_i = np.asarray(x_i, dtype=np.float64)
    x_j = np.asarray(x_j, dtype=np.float64)
    if x_i.shape != x_j.shape:
        raise DimensionMismatchError(f"x_i has shape {x_i.shape} but x_j has shape {x_j.shape}")
    if x_i.ndim != 1:
        raise ValueError("neg_relation_constant expects 1-d vectors")
    if not 0 <= k < x_i.shape[0]:
        raise IndexError(f"dimension index {k} out of range for dim {x_i.shape[0]}")
    return float(_neg_constants(x_i, x_j)[k])


@dataclass(frozen=True)
class SolverConfig:
    max_sweeps: int = 500
    tol: float = 1e-6
    damping: float = 0.0
    clamp: float = 30.0

    def __post_init__(self):
        if self.max_sweeps < 1:
            raise ValueError(f"max_sweeps must be >= 1, got {self.max_sweeps}")
        if not self.tol > 0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if not 0.0 <= self.damping < 1.0:
            raise ValueError(f"damping must be in [0, 1), got {self.damping}")
        if not self.clamp > 0:
            raise ValueError(f"clamp must be positive, got {self.clamp}")


@dataclass(frozen=True)
class SolverResult:
    """What ``graph_infer`` found.

    ``deltas`` holds each sweep's largest absolute change, so
    ``final_delta == deltas[-1]``.  When the solver did not converge,
    ``largest_change`` is the ``(node, dimension)`` of the last sweep's
    largest change (the first in declaration order on a tie), else None.
    """

    assignments: dict
    converged: bool
    sweeps_used: int
    final_delta: float
    deltas: tuple
    largest_change: tuple | None


class EntailmentGraph:
    """Nodes with prior log-odds, positive/negative edges, and observations."""

    def __init__(self):
        self._theta: dict[str, np.ndarray] = {}
        self._dim: int | None = None
        # dicts used as insertion-ordered sets so sweeps are deterministic
        self._pos: dict[tuple[str, str], None] = {}
        self._neg: dict[tuple[str, str], None] = {}
        self._observed: dict[str, np.ndarray] = {}

    @property
    def dim(self) -> int | None:
        return self._dim

    @property
    def node_names(self) -> list:
        return list(self._theta)

    @property
    def pos_edges(self) -> list:
        return list(self._pos)

    @property
    def neg_edges(self) -> list:
        return list(self._neg)

    @property
    def observations(self) -> dict:
        return {name: vec.copy() for name, vec in self._observed.items()}

    def theta(self, name: str) -> np.ndarray:
        return self._theta[name].copy()

    def add_node(self, name: str, dim: int | None = None, theta=None) -> None:
        if name in self._theta:
            raise GraphStructureError(f"duplicate node {name!r}")
        if theta is not None:
            theta = np.array(theta, dtype=np.float64)  # a copy the caller cannot change
            if theta.ndim != 1 or theta.size == 0:
                raise GraphStructureError(f"node {name!r} theta must be a non-empty vector")
            if dim is not None and theta.shape[0] != dim:
                raise GraphStructureError(
                    f"node {name!r} declares dim {dim} but theta has {theta.shape[0]} entries"
                )
            if not np.all(np.isfinite(theta)):
                raise GraphStructureError(f"node {name!r} theta contains non-finite values")
            dim = theta.shape[0]
        elif dim is None:
            raise GraphStructureError(f"node {name!r} needs a dim or a theta vector")
        # checked before the zero priors are allocated, so that a dim no
        # memory holds is reported as a mismatch when the graph has one
        if self._dim is not None and dim != self._dim:
            raise GraphStructureError(
                f"node {name!r} has dim {dim} but the graph uses dim {self._dim}"
            )
        if theta is None:
            try:
                theta = np.zeros(dim, dtype=np.float64)
            except (MemoryError, ValueError):
                raise GraphStructureError(
                    f"node {name!r} dim {dim} cannot be allocated"
                ) from None
        self._dim = dim
        self._theta[name] = theta

    def _check_edge(self, a: str, b: str) -> None:
        for name in (a, b):
            if name not in self._theta:
                raise GraphStructureError(f"edge references unknown node {name!r}")
        if a == b:
            raise GraphStructureError(f"self-edge on node {a!r}")

    def add_entail(self, a: str, b: str) -> None:
        """Assert a entails b."""
        self._check_edge(a, b)
        self._pos[(a, b)] = None

    def add_not_entail(self, a: str, b: str) -> None:
        """Assert a does not entail b."""
        self._check_edge(a, b)
        self._neg[(a, b)] = None

    def observe(self, name: str, k: int, value: float) -> None:
        """Pin dimension ``k`` of ``name`` to a known log-odds value.

        Unobserved dimensions of an observed node keep their prior; the
        whole node is excluded from inference.
        """
        if name not in self._theta:
            raise GraphStructureError(f"observation on unknown node {name!r}")
        if not 0 <= k < self._dim:
            raise GraphStructureError(
                f"observation index {k} out of range for dim {self._dim}"
            )
        value = float(value)
        if not np.isfinite(value):
            raise GraphStructureError(f"observation on {name!r} must be finite, got {value}")
        if name not in self._observed:
            self._observed[name] = self._theta[name].copy()
        self._observed[name][k] = value

    def is_observed(self, name: str) -> bool:
        return name in self._observed


# The update adds its terms to the prior in this order, each kind in edge
# order: (edge list, endpoint that receives the term, endpoint it reads).
_KINDS = (
    ("pos", 0, 1),  # entailed neighbour: -log sigma(-X_j)
    ("pos", 1, 0),  # entailing neighbour: +log sigma(X_j)
    ("neg", 1, 0),  # negated edge j -> i: i is the entailed side
    ("neg", 0, 1),  # negated edge i -> j: i is the entailing side
)


def _levels(n: int, free: np.ndarray, edges: dict) -> np.ndarray:
    """Wavefront level of each free node (-1 for observed ones).

    A node's level is 1 + the highest level among its free neighbours
    declared before it, or 0 without one.  Neighbours never share a level,
    and every earlier-declared neighbour sits in a lower level.
    """
    pairs = np.concatenate(list(edges.values()))
    pairs = pairs[free[pairs[:, 0]] & free[pairs[:, 1]]]
    earlier = [[] for _ in range(n)]
    for lo, hi in zip(pairs.min(axis=1).tolist(), pairs.max(axis=1).tolist()):
        earlier[hi].append(lo)
    level = [-1] * n
    for i in np.flatnonzero(free).tolist():
        level[i] = 1 + max([level[j] for j in earlier[i]], default=-1)
    return np.array(level, dtype=np.intp)


def _schedule(n: int, free: np.ndarray, edges: dict) -> list:
    """Per level: its rows, then (slot in level, neighbour row, target row)
    index arrays for each of ``_KINDS``, or None where the level has none."""
    level = _levels(n, free, edges)
    rows = np.flatnonzero(free)
    rows = rows[np.argsort(level[rows], kind="stable")]
    n_levels = int(level.max()) + 1 if rows.size else 0
    bounds = np.searchsorted(level[rows], np.arange(n_levels + 1))
    slot = np.empty(n, dtype=np.intp)
    slot[rows] = np.arange(rows.size) - bounds[level[rows]]
    levels = [[rows[bounds[lv]:bounds[lv + 1]]] for lv in range(n_levels)]
    for kind, tgt_col, nbr_col in _KINDS:
        tgt, nbr = edges[kind][:, tgt_col], edges[kind][:, nbr_col]
        keep = free[tgt]
        tgt, nbr = tgt[keep], nbr[keep]
        order = np.argsort(level[tgt], kind="stable")
        tgt, nbr = tgt[order], nbr[order]
        cuts = np.searchsorted(level[tgt], np.arange(n_levels + 1))
        for lv, entry in enumerate(levels):
            lo, hi = cuts[lv], cuts[lv + 1]
            entry.append((slot[tgt[lo:hi]], nbr[lo:hi], tgt[lo:hi]) if hi > lo else None)
    return levels


def graph_infer(graph: EntailmentGraph, cfg: SolverConfig | None = None) -> SolverResult:
    """Iterate the per-node update to a fixed point; see the module docstring."""
    if cfg is None:
        cfg = SolverConfig()
    names = graph.node_names
    n = len(names)
    index = {name: i for i, name in enumerate(names)}
    prior = np.array(list(graph._theta.values()), dtype=np.float64).reshape(n, graph.dim or 0)
    state = prior.copy()
    free = np.ones(n, dtype=bool)
    for name, vec in graph._observed.items():
        state[index[name]] = vec
        free[index[name]] = False
    np.clip(state, -cfg.clamp, cfg.clamp, out=state)
    edges = {
        kind: np.array([(index[a], index[b]) for a, b in pairs], dtype=np.intp).reshape(-1, 2)
        for kind, pairs in (("pos", graph._pos), ("neg", graph._neg))
    }
    levels = _schedule(n, free, edges)

    converged = False
    deltas = []
    with np.errstate(divide="ignore", invalid="ignore"):
        for sweep in range(1, cfg.max_sweeps + 1):
            before = state.copy()
            for rows, pos_out, pos_in, neg_in, neg_out in levels:
                new = prior[rows]
                if pos_out is not None:
                    t, j, _ = pos_out
                    np.add.at(new, t, -log_sigmoid(-state[j]))
                if pos_in is not None:
                    t, j, _ = pos_in
                    np.add.at(new, t, log_sigmoid(state[j]))
                if neg_in is not None:
                    t, j, i = neg_in
                    x = state[j]
                    c = _neg_constants(x, state[i])
                    np.add.at(new, t, np.log1p(-c * sigmoid(x)) - np.log1p(-c))
                if neg_out is not None:
                    t, j, i = neg_out
                    x = state[j]
                    c = _neg_constants(state[i], x)
                    np.add.at(new, t, np.log1p(-c) - np.log1p(-c * sigmoid(-x)))
                if cfg.damping > 0.0:
                    new = (1.0 - cfg.damping) * new + cfg.damping * state[rows]
                state[rows] = np.clip(new, -cfg.clamp, cfg.clamp, out=new)
            change = np.abs(state - before)
            delta = float(change.max(initial=0.0))
            if np.isnan(delta):
                # NaN only spreads to nodes declared later, so the first NaN
                # in declaration order (argmax's pick) is where a
                # node-by-node sweep would have stopped
                i, k = divmod(int(change.argmax()), change.shape[1])
                raise SolverNumericsError(
                    f"NaN update for node {names[i]!r} dimension {k} at sweep {sweep}"
                )
            deltas.append(delta)
            if delta < cfg.tol:
                converged = True
                break

    largest = None
    if not converged:
        i, k = divmod(int(change.argmax()), change.shape[1])
        largest = (names[i], k)
    return SolverResult(
        assignments={name: state[i].copy() for i, name in enumerate(names)},
        converged=converged,
        sweeps_used=len(deltas),
        final_delta=deltas[-1],
        deltas=tuple(deltas),
        largest_change=largest,
    )


def _parse_float(text: str, what: str, line: int) -> float:
    try:
        return float(text)
    except ValueError:
        raise GraphFormatError(f"bad {what} {text!r}", line) from None


def parse_graph(text: str) -> EntailmentGraph:
    """Build a graph from the line-oriented text format (see module docstring)."""
    graph = EntailmentGraph()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        kind, args = fields[0], fields[1:]
        try:
            if kind == "node":
                if len(args) < 2:
                    raise GraphFormatError("node needs a name and a dim", lineno)
                name = args[0]
                try:
                    dim = int(args[1])
                except ValueError:
                    raise GraphFormatError(f"bad dim {args[1]!r}", lineno) from None
                if dim < 1:
                    raise GraphFormatError(f"dim must be positive, got {dim}", lineno)
                thetas = args[2:]
                if thetas and len(thetas) != dim:
                    raise GraphFormatError(
                        f"node {name!r} declares dim {dim} but lists {len(thetas)} priors",
                        lineno,
                    )
                theta = None
                if thetas:
                    try:
                        theta = list(map(float, thetas))
                    except ValueError:
                        # parse field by field only to name the bad one
                        theta = [_parse_float(t, "prior", lineno) for t in thetas]
                graph.add_node(name, dim=dim, theta=theta)
            elif kind in ("entail", "notentail"):
                if len(args) != 2:
                    raise GraphFormatError(f"{kind} needs exactly two node names", lineno)
                if kind == "entail":
                    graph.add_entail(args[0], args[1])
                else:
                    graph.add_not_entail(args[0], args[1])
            elif kind == "observe":
                if len(args) != 3:
                    raise GraphFormatError("observe needs a name, an index and a value", lineno)
                try:
                    k = int(args[1])
                except ValueError:
                    raise GraphFormatError(f"bad dimension index {args[1]!r}", lineno) from None
                graph.observe(args[0], k, _parse_float(args[2], "log-odds value", lineno))
            else:
                raise GraphFormatError(f"unknown directive {kind!r}", lineno)
        except GraphStructureError as exc:
            raise GraphFormatError(str(exc), lineno) from None
    return graph


def parse_graph_file(path) -> EntailmentGraph:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the bad byte is on the last line of the text up to and including it
        line = len((data[:exc.start] + b"?").decode("utf-8").splitlines())
        raise GraphFormatError(f"not valid UTF-8 ({exc.reason})", line) from None
    return parse_graph(text)
