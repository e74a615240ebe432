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
one node per level, is the worst case.  Within a level, each kind of
neighbour term is added to the nodes' priors by one flat ``np.add.at``:
a one-dimensional ``ufunc.at`` is unbuffered and adds in index order, so
each value gets the same additions, in kind order and then edge order,
as one term at a time.

Values are clamped to +/-``clamp`` after every update so the sigmoids
and logs stay finite; one genuinely divergent negative-edge term (possible
when C reaches 1, e.g. in one dimension) saturates at the clamp instead
of erroring.  Two such terms of opposite sign that meet in one node (a
+inf and a -inf, as ``notentail a b`` and ``notentail b a`` in one
dimension give) sum to NaN.  NaN is always an error, SolverNumericsError,
reported at the first node in declaration order that produced it, with
that node's notentail edges.  Undamped sweeps can oscillate instead of
converging on graphs with many sibling negative edges; ``damping`` (e.g.
0.3) restores convergence there.

A graph is stored as arrays: one float64 prior matrix with a name -> row
dict, edges as ordered, de-duplicated (row, row) pairs, and the row of
pinned values of each observed node.  The prior matrix doubles its rows
when full, so it may hold more rows than nodes; ``graph_infer`` reads the
first ones.  Graphs can be built programmatically or parsed from a
line-oriented text format, read as every text format is (lines end at \\n,
\\r\\n or \\r; a line that is not UTF-8 is an error at that line):

    # comment
    node <name> <dim> [theta_1 ... theta_dim]   (theta defaults to zeros)
    entail <a> <b>
    notentail <a> <b>
    observe <name> <k> <logodds>                (k is 0-based)

Observing any dimension freezes the whole node: unobserved dimensions
keep their prior value and the node is never updated, only read.

The parser reads line by line (``_line``, the one definition of the format)
until a node fixes the dim, then takes whole lines in blocks of about
``embeddings._TEXT_BLOCK`` characters, as ``load_text`` does.  ``_block``
applies a block at once, with one ``np.loadtxt`` call for its priors, one
growth of the prior matrix (to what node-by-node doubling gives), one
update of the name dict and of each edge dict, and its observations in line
order, when it can vouch that ``_line`` would read each of its lines
without an error: new node names, one spelling of the graph's dim,
finite priors that numpy parses (it parses as ``float`` does, but rejects
``1_0``), edges and observations that name nodes declared before their
line, no self-edge, an observed index in range and a finite observed value.
Any other block is read again from its first line by ``_line``, so an error
keeps its line and message, and nothing a file gives depends on the block
size.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .core import DimensionMismatchError, log_sigmoid, sigmoid
from .embeddings import _not_utf8, _text_blocks, _text_lines

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
    """A sweep produced NaN; names the node, dimension and sweep, and the node's
    notentail edges, whose terms are the ones that can be infinite."""


def _update_args(theta, q, theta_name: str, q_name: str):
    """An update rule's arguments as float64 arrays: q probabilities, of theta's shape."""
    theta = np.asarray(theta, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if np.any(q < 0.0) or np.any(q > 1.0) or not np.all(np.isfinite(q)):
        raise ValueError(f"{q_name} entries must be probabilities in [0, 1]")
    if theta.shape != q.shape:
        raise DimensionMismatchError(
            f"{theta_name} has shape {theta.shape} but {q_name} has shape {q.shape}"
        )
    return theta, q


def forward_infer(theta_x, q_y):
    """Marginal of an entailed feature given its entailing side: sigma(theta + log q_y)."""
    theta_x, q_y = _update_args(theta_x, q_y, "theta_x", "q_y")
    if np.any(q_y == 0.0):
        raise ValueError("entailing from impossible feature (q_y entry is 0)")
    out = sigmoid(theta_x + np.log(q_y))
    return float(out) if np.ndim(out) == 0 else out


def backward_infer(theta_y, q_x):
    """Marginal of an entailing feature given its entailed side: sigma(theta - log(1 - q_x))."""
    theta_y, q_x = _update_args(theta_y, q_x, "theta_y", "q_x")
    if np.any(q_x == 1.0):
        raise ValueError("entailed feature certainly known (q_x entry is 1)")
    out = sigmoid(theta_y - np.log1p(-q_x))
    return float(out) if np.ndim(out) == 0 else out


def _neg_constants(x_src: np.ndarray, x_tgt: np.ndarray) -> np.ndarray:
    """C_k = prod_{k' != k} (1 - sigma(-x_src,k') sigma(x_tgt,k')), all k at once.

    Works row-wise over the last axis.  A zero factor kills every product
    that includes it: C_k = 0 wherever a dimension other than k saturates,
    so a row with one saturated factor keeps only that factor's C, and a row
    with two or more is all zeros.
    """
    # log of each factor; -inf when the product saturates to 1 (only
    # possible at extreme log-odds)
    with np.errstate(divide="ignore"):
        logf = np.log1p(-(sigmoid(-x_src) * sigmoid(x_tgt)))
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

    ``deltas`` holds each sweep's largest absolute change; ``sweeps_used``
    and ``final_delta`` are read from it.  When the solver did not converge,
    ``largest_change`` is the ``(node, dimension)`` of the last sweep's
    largest change (the first in declaration order on a tie), else None.
    """

    assignments: dict
    converged: bool
    deltas: tuple
    largest_change: tuple | None

    @property
    def sweeps_used(self) -> int:
        return len(self.deltas)

    @property
    def final_delta(self) -> float:
        return self.deltas[-1]


class EntailmentGraph:
    """Nodes with prior log-odds, positive/negative edges, and observations.

    Stored as arrays: one float64 ``(rows, dim)`` prior matrix whose first
    rows, in declaration order, belong to the nodes (a name -> row dict
    finds them), edges as ordered, de-duplicated ``(row, row)`` pairs, and
    each observed node's row of pinned values.
    """

    def __init__(self):
        self._row: dict[str, int] = {}
        self._prior = np.zeros((0, 0))
        self._dim: int | None = None
        # dicts used as insertion-ordered sets so sweeps are deterministic
        self._pos: dict[tuple[int, int], None] = {}
        self._neg: dict[tuple[int, int], None] = {}
        self._observed: dict[int, np.ndarray] = {}

    @property
    def dim(self) -> int | None:
        return self._dim

    @property
    def node_names(self) -> list:
        return list(self._row)

    def _named(self, edges: dict) -> list:
        names = self.node_names
        return [(names[a], names[b]) for a, b in edges]

    @property
    def pos_edges(self) -> list:
        return self._named(self._pos)

    @property
    def neg_edges(self) -> list:
        return self._named(self._neg)

    @property
    def observations(self) -> dict:
        names = self.node_names
        return {names[row]: vec.copy() for row, vec in self._observed.items()}

    def theta(self, name: str) -> np.ndarray:
        return self._prior[self._row[name]].copy()

    def add_node(self, name: str, dim: int | None = None, theta=None) -> None:
        """Add a node with ``theta`` (a vector of numbers) or ``dim`` zero priors."""
        if name in self._row:
            raise GraphStructureError(f"duplicate node {name!r}")
        if dim is not None and dim < 1:
            raise GraphStructureError(f"dim must be positive, got {dim}")
        if theta is not None:
            if type(theta) is not list:  # a list, as the parser passes, is read as it is
                theta = np.asarray(theta, dtype=np.float64)
                theta = theta.tolist() if theta.ndim == 1 else []
            if not theta:
                raise GraphStructureError(f"node {name!r} theta must be a non-empty vector")
            if dim is not None and len(theta) != dim:
                raise GraphStructureError(
                    f"node {name!r} declares dim {dim} but theta has {len(theta)} entries"
                )
            # a sum with a non-finite term is non-finite; a finite vector
            # can only overflow the sum, so only then is each value checked
            if not math.isfinite(sum(theta)) and not all(map(math.isfinite, theta)):
                raise GraphStructureError(f"node {name!r} theta contains non-finite values")
            dim = len(theta)
        elif dim is None:
            raise GraphStructureError(f"node {name!r} needs a dim or a theta vector")
        # checked before the prior matrix is allocated, so that a dim no
        # memory holds is reported as a mismatch when the graph has one
        if self._dim is not None and dim != self._dim:
            raise GraphStructureError(
                f"node {name!r} has dim {dim} but the graph uses dim {self._dim}"
            )
        row = len(self._row)
        try:
            self._room(row + 1, dim)
        except (MemoryError, ValueError):
            raise GraphStructureError(f"node {name!r} dim {dim} cannot be allocated") from None
        if theta is not None:
            self._prior[row] = theta
        self._dim = dim
        self._row[name] = row

    def _room(self, rows: int, dim: int) -> None:
        """Double the prior matrix's rows until it holds ``rows``; new rows are zeros."""
        have = grown = self._prior.shape[0]
        while grown < rows:
            grown = max(2 * grown, 1)
        if grown > have:
            prior = np.zeros((grown, dim))
            if have:
                prior[:have] = self._prior
            self._prior = prior

    def _edge(self, a: str, b: str) -> tuple:
        edge = self._row.get(a), self._row.get(b)
        if None in edge:
            raise GraphStructureError(
                f"edge references unknown node {a if edge[0] is None else b!r}"
            )
        if a == b:
            raise GraphStructureError(f"self-edge on node {a!r}")
        return edge

    def add_entail(self, a: str, b: str) -> None:
        """Assert a entails b."""
        self._pos[self._edge(a, b)] = None

    def add_not_entail(self, a: str, b: str) -> None:
        """Assert a does not entail b."""
        self._neg[self._edge(a, b)] = None

    def observe(self, name: str, k: int, value: float) -> None:
        """Pin dimension ``k`` of ``name`` to a known log-odds value.

        Unobserved dimensions of an observed node keep their prior; the
        whole node is excluded from inference.
        """
        row = self._row.get(name)
        if row is None:
            raise GraphStructureError(f"observation on unknown node {name!r}")
        if not 0 <= k < self._dim:
            raise GraphStructureError(
                f"observation index {k} out of range for dim {self._dim}"
            )
        value = float(value)
        if not math.isfinite(value):
            raise GraphStructureError(f"observation on {name!r} must be finite, got {value}")
        if row not in self._observed:
            self._observed[row] = self._prior[row].copy()
        self._observed[row][k] = value

    def is_observed(self, name: str) -> bool:
        return self._row.get(name) in self._observed


def _neg_in(state: np.ndarray, j: np.ndarray, i: np.ndarray) -> np.ndarray:
    """Term of a negated edge j -> i on i, the entailed side."""
    x = state[j]
    c = _neg_constants(x, state[i])
    return np.log1p(-c * sigmoid(x)) - np.log1p(-c)


def _neg_out(state: np.ndarray, j: np.ndarray, i: np.ndarray) -> np.ndarray:
    """Term of a negated edge i -> j on i, the entailing side."""
    x = state[j]
    c = _neg_constants(state[i], x)
    return np.log1p(-c) - np.log1p(-c * sigmoid(-x))


# The update adds its terms to the prior in this order, each kind in edge
# order: (edge list, endpoint that receives the term, endpoint it reads,
# the term of each (read row j, receiving row i) pair).
_KINDS = (
    ("pos", 0, 1, lambda state, j, i: -log_sigmoid(-state[j])),  # entailed neighbour
    ("pos", 1, 0, lambda state, j, i: log_sigmoid(state[j])),  # entailing neighbour
    ("neg", 1, 0, _neg_in),
    ("neg", 0, 1, _neg_out),
)


def _levels(free: np.ndarray, edges: dict) -> np.ndarray:
    """Wavefront level of each free node (-1 for observed ones).

    A node's level is 1 + the highest level among its free neighbours
    declared before it, or 0 without one.  Neighbours never share a level,
    and every earlier-declared neighbour sits in a lower level.
    """
    pairs = np.concatenate(list(edges.values()))
    pairs = pairs[free[pairs[:, 0]] & free[pairs[:, 1]]]
    lo, hi = pairs.min(axis=1), pairs.max(axis=1)
    order = np.argsort(hi, kind="stable")
    level = np.where(free, 0, -1).tolist()
    # edges in order of their later end: when an edge is reached, every
    # edge into its earlier end has been, so that end's level is final
    for j, i in zip(lo[order].tolist(), hi[order].tolist()):
        if level[j] >= level[i]:
            level[i] = level[j] + 1
    return np.array(level, dtype=np.intp)


def _schedule(free: np.ndarray, edges: dict, dim: int) -> list:
    """Per level: its rows, and a (term, neighbour rows, target rows, at)
    block for each of ``_KINDS`` with edges into the level, where ``at`` is
    the flat index of each term value in the level's (rows, dim) block."""
    level = _levels(free, edges)
    rows = np.flatnonzero(free)
    rows = rows[np.argsort(level[rows], kind="stable")]
    n_levels = int(level.max()) + 1 if rows.size else 0
    bounds = np.searchsorted(level[rows], np.arange(n_levels + 1))
    slot = np.empty(free.size, dtype=np.intp)
    slot[rows] = np.arange(rows.size) - bounds[level[rows]]
    levels = [(rows[bounds[lv]:bounds[lv + 1]], []) for lv in range(n_levels)]
    for kind, tgt_col, nbr_col, term in _KINDS:
        tgt, nbr = edges[kind][:, tgt_col], edges[kind][:, nbr_col]
        keep = free[tgt]
        tgt, nbr = tgt[keep], nbr[keep]
        order = np.argsort(level[tgt], kind="stable")
        tgt, nbr = tgt[order], nbr[order]
        cuts = np.searchsorted(level[tgt], np.arange(n_levels + 1))
        at = (slot[tgt][:, None] * dim + np.arange(dim)).ravel()
        for (_, blocks), lo, hi in zip(levels, cuts[:-1], cuts[1:]):
            if hi > lo:
                blocks.append((term, nbr[lo:hi], tgt[lo:hi], at[lo * dim:hi * dim]))
    return levels


def graph_infer(graph: EntailmentGraph, cfg: SolverConfig | None = None) -> SolverResult:
    """Iterate the per-node update to a fixed point; see the module docstring."""
    if cfg is None:
        cfg = SolverConfig()
    names = graph.node_names
    n = len(names)
    prior = graph._prior[:n]
    state = prior.copy()
    free = np.ones(n, dtype=bool)
    for row, vec in graph._observed.items():
        state[row] = vec
        free[row] = False
    np.clip(state, -cfg.clamp, cfg.clamp, out=state)
    edges = {
        kind: np.fromiter(chain.from_iterable(pairs), dtype=np.intp,
                          count=2 * len(pairs)).reshape(-1, 2)
        for kind, pairs in (("pos", graph._pos), ("neg", graph._neg))
    }
    levels = _schedule(free, edges, state.shape[1])

    converged = False
    deltas = []
    with np.errstate(divide="ignore", invalid="ignore"):
        for sweep in range(1, cfg.max_sweeps + 1):
            before = state.copy()
            for rows, blocks in levels:
                new = prior[rows]
                # a 1-D add.at is unbuffered and runs in index order, so each
                # value gets its terms one at a time: kind order, then edge order
                for term, j, i, at in blocks:
                    np.add.at(new.reshape(-1), at, term(state, j, i).reshape(-1))
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
                negated = ", ".join(f"{names[a]!r} -> {names[b]!r}"
                                    for a, b in graph._neg if i in (a, b))
                raise SolverNumericsError(
                    f"NaN update for node {names[i]!r} dimension {k} at sweep {sweep}; "
                    f"its notentail edges: {negated or 'none'}"
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
        assignments=dict(zip(names, state)),
        converged=converged,
        deltas=tuple(deltas),
        largest_change=largest,
    )


def _number(text: str, what: str, line: int, kind=float):
    try:
        return kind(text)
    except ValueError:
        raise GraphFormatError(f"bad {what} {text!r}", line) from None


def _line(graph: EntailmentGraph, lineno: int, raw: str) -> None:
    """Read line ``lineno``, ``raw``, into ``graph``: the one definition of the format."""
    reason = _not_utf8(raw)
    if reason:
        raise GraphFormatError(f"not valid UTF-8 ({reason})", lineno)
    fields = (raw.partition("#")[0] if "#" in raw else raw).split()
    if not fields:
        return
    kind = fields[0]
    try:
        if kind == "node":
            if len(fields) < 3:
                raise GraphFormatError("node needs a name and a dim", lineno)
            name = fields[1]
            dim = _number(fields[2], "dim", lineno, int)
            theta = None
            if len(fields) > 3:
                if len(fields) - 3 != dim:
                    raise GraphFormatError(
                        f"node {name!r} declares dim {dim} but lists {len(fields) - 3} priors",
                        lineno,
                    )
                try:
                    theta = list(map(float, fields[3:]))
                except ValueError:
                    # parse field by field only to name the bad one
                    theta = [_number(t, "prior", lineno) for t in fields[3:]]
            graph.add_node(name, dim, theta)
        elif kind == "entail" or kind == "notentail":
            if len(fields) != 3:
                raise GraphFormatError(f"{kind} needs exactly two node names", lineno)
            if kind == "entail":
                graph.add_entail(fields[1], fields[2])
            else:
                graph.add_not_entail(fields[1], fields[2])
        elif kind == "observe":
            if len(fields) != 4:
                raise GraphFormatError("observe needs a name, an index and a value", lineno)
            graph.observe(fields[1], _number(fields[2], "dimension index", lineno, int),
                          _number(fields[3], "log-odds value", lineno))
        else:
            raise GraphFormatError(f"unknown directive {kind!r}", lineno)
    except GraphStructureError as exc:
        raise GraphFormatError(str(exc), lineno) from None


def _block(graph: EntailmentGraph, lines: list) -> bool:
    """Apply ``lines`` to ``graph``, which has a dim, at once, and return True, when
    ``_line`` would read each of them without an error (the module docstring
    lists what that takes); else return False and leave ``graph`` untouched."""
    if any(map(_not_utf8, lines)):
        return False
    dim, row = graph._dim, graph._row
    new = {}  # the block's nodes: name -> row
    spellings = set()  # of the block's dims
    rests, at = [], []  # the priors of each node that lists them, and its row
    edges = {"entail": [], "notentail": []}
    observed = []
    for raw in lines:
        fields = (raw.partition("#")[0] if "#" in raw else raw).split(None, 3)
        if not fields:
            continue
        kind = fields[0]
        if kind == "node":
            if len(fields) < 3 or fields[1] in row or fields[1] in new:
                return False
            new[fields[1]] = len(row) + len(new)
            spellings.add(fields[2])
            if len(fields) == 4:
                rests.append(fields[3])
                at.append(new[fields[1]])
        elif kind in edges:
            if len(fields) != 3:
                return False
            a, b = row.get(fields[1], new.get(fields[1])), row.get(fields[2], new.get(fields[2]))
            if a is None or b is None or a == b:
                return False
            edges[kind].append((a, b))
        elif kind == "observe":
            if len(fields) != 4 or (fields[1] not in row and fields[1] not in new):
                return False
            try:
                k, value = int(fields[2]), float(fields[3])
            except ValueError:  # float() also rejects a value with fields after it
                return False
            if not (0 <= k < dim and math.isfinite(value)):
                return False
            observed.append((fields[1], k, value))
        else:
            return False
    try:
        if len(spellings) > 1 or any(int(s) != dim for s in spellings):
            return False
        priors = (np.loadtxt(rests, np.float64, comments=None, ndmin=2) if rests
                  else np.zeros((0, dim)))  # np.loadtxt warns when given no rows
    except ValueError:  # a dim int() rejects; a prior float() may yet accept, or too few
        return False
    if priors.shape != (len(at), dim) or not np.isfinite(priors).all():
        return False
    del rests  # before the prior matrix grows, which is when a parse peaks
    try:
        graph._room(len(row) + len(new), dim)
    except MemoryError:  # then _line names the node
        return False
    graph._prior[at] = priors
    row.update(new)
    graph._pos.update(dict.fromkeys(edges["entail"]))
    graph._neg.update(dict.fromkeys(edges["notentail"]))
    for name, k, value in observed:
        graph.observe(name, k, value)
    return True


def _parse(lines) -> EntailmentGraph:
    """Build a graph from numbered lines of the text format: line by line until
    a node fixes the dim, then a block at a time."""
    graph = EntailmentGraph()
    for lineno, raw in lines:
        _line(graph, lineno, raw)
        if graph.dim is not None:
            break
    for first, block in _text_blocks(lines):
        if not _block(graph, block):
            for lineno, raw in enumerate(block, start=first):
                _line(graph, lineno, raw)
    return graph


def parse_graph(text: str) -> EntailmentGraph:
    """Build a graph from the line-oriented text format (see module docstring).

    Lines break as in a file; a lone surrogate reads as a line that is not UTF-8.
    """
    return _parse(_text_lines(io.BytesIO(text.encode("utf-8", "surrogatepass"))))


def parse_graph_file(path) -> EntailmentGraph:
    with open(path, "rb") as fh:
        return _parse(_text_lines(fh))
