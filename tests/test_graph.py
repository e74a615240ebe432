import gc
import tracemalloc
import warnings

import numpy as np
import pytest

from entvec.core import DimensionMismatchError, log_sigmoid, sigmoid
from entvec.graph import (
    EntailmentGraph,
    GraphFormatError,
    GraphStructureError,
    SolverConfig,
    SolverNumericsError,
    _neg_constants,
    backward_infer,
    forward_infer,
    graph_infer,
    neg_relation_constant,
    parse_graph,
    parse_graph_file,
)

LOG_GOLDEN_RATIO = 0.48121182505960347


def sequential_neg_constants(x_src, x_tgt):
    """One edge's C vector, the node-by-node solver's way."""
    p = sigmoid(-x_src) * sigmoid(x_tgt)
    with np.errstate(divide="ignore"):
        logf = np.log1p(-p)
    zero = np.isneginf(logf)
    if not zero.any():
        return np.exp(logf.sum() - logf)
    out = np.zeros_like(logf)
    if zero.sum() == 1:
        k0 = int(np.flatnonzero(zero)[0])
        out[k0] = np.exp(np.delete(logf, k0).sum())
    return out


def sequential_infer(graph, cfg):
    """Reference solver: one node at a time, in declaration order.

    Returns (assignments, per-sweep deltas, (node, dim) of the last sweep's
    largest change).
    """
    names = graph.node_names
    observed = graph.observations
    state = {
        name: np.clip(observed[name] if name in observed else graph.theta(name),
                      -cfg.clamp, cfg.clamp)
        for name in names
    }
    pos_out, pos_in, neg_out, neg_in = ({name: [] for name in names} for _ in range(4))
    for a, b in graph.pos_edges:
        pos_out[a].append(b)
        pos_in[b].append(a)
    for a, b in graph.neg_edges:
        neg_out[a].append(b)
        neg_in[b].append(a)
    deltas = []
    with np.errstate(divide="ignore", invalid="ignore"):
        for sweep in range(1, cfg.max_sweeps + 1):
            delta, largest = 0.0, None
            for name in names:
                if graph.is_observed(name):
                    continue
                old = state[name]
                new = graph.theta(name)
                for j in pos_out[name]:
                    new = new - log_sigmoid(-state[j])
                for j in pos_in[name]:
                    new = new + log_sigmoid(state[j])
                for j in neg_in[name]:
                    c = sequential_neg_constants(state[j], old)
                    new = new + np.log1p(-c * sigmoid(state[j])) - np.log1p(-c)
                for j in neg_out[name]:
                    c = sequential_neg_constants(old, state[j])
                    new = new - (np.log1p(-c * sigmoid(-state[j])) - np.log1p(-c))
                if np.any(np.isnan(new)):
                    k = int(np.flatnonzero(np.isnan(new))[0])
                    negated = ", ".join(f"{a!r} -> {b!r}" for a, b in graph.neg_edges
                                        if name in (a, b))
                    raise SolverNumericsError(
                        f"NaN update for node {name!r} dimension {k} at sweep {sweep}; "
                        f"its notentail edges: {negated}"
                    )
                if cfg.damping > 0.0:
                    new = (1.0 - cfg.damping) * new + cfg.damping * old
                new = np.clip(new, -cfg.clamp, cfg.clamp)
                change = np.abs(new - old)
                step = float(change.max())
                if largest is None or step > delta:
                    delta, largest = step, (name, int(change.argmax()))
                state[name] = new
            deltas.append(delta)
            if delta < cfg.tol:
                break
    return state, deltas, largest


def random_graph(seed, dim, root_first):
    """A random tree closed into a cycle, extra entailments, negative edges
    and observed nodes, declared root-first or leaf-first."""
    rng = np.random.default_rng(seed)
    n = 30
    parent = [None] + [int(rng.integers(0, i)) for i in range(1, n)]
    names = [f"n{i}" for i in range(n)]
    g = EntailmentGraph()
    for i in range(n) if root_first else reversed(range(n)):
        g.add_node(names[i], theta=rng.normal(0.0, 1.0, size=dim))
    for i in range(1, n):
        g.add_entail(names[i], names[parent[i]])
    g.add_entail(names[0], names[n - 1])
    for _ in range(3):
        a, b = rng.choice(n, size=2, replace=False)
        g.add_entail(names[a], names[b])
    # negative edges on disjoint pairs: in one dimension C = 1, and a node
    # with a saturated edge at each end would get +inf - inf
    for a, b in rng.choice(n, size=(3, 2), replace=False):
        g.add_not_entail(names[a], names[b])
    for i in rng.choice(n, size=4, replace=False):
        g.observe(names[i], int(rng.integers(dim)), float(rng.normal(0.0, 3.0)))
    return g


def graph_text(g):
    """``g`` in the text format, every prior and observed value in ``repr``."""
    lines = [f"node {name} {g.dim} " + " ".join(map(repr, g.theta(name).tolist()))
             for name in g.node_names]
    lines += [f"entail {a} {b}" for a, b in g.pos_edges]
    lines += [f"notentail {a} {b}" for a, b in g.neg_edges]
    lines += [f"observe {name} {k} {value!r}"
              for name, vec in g.observations.items() for k, value in enumerate(vec.tolist())]
    return "\n".join(lines) + "\n"


def tree_text(n, dim, seed):
    """A 4-ary tree of ``n`` nodes with seeded priors, children entailing parents."""
    rng = np.random.default_rng(seed)
    row = " ".join(["%.6f"] * dim)
    lines = [f"node n{i} {dim} " + row % tuple(theta)
             for i, theta in enumerate(rng.normal(0.0, 1.5, size=(n, dim)).tolist())]
    lines += [f"entail n{i} n{(i - 1) // 4}" for i in range(1, n)]
    return "\n".join(lines) + "\n"


def chain_graph():
    g = EntailmentGraph()
    g.add_node("a", dim=1)
    g.add_node("b", dim=1)
    g.add_entail("a", "b")
    return g


class TestForwardInfer:
    def test_certain_context(self):
        assert forward_infer(2.0, 1.0) == pytest.approx(0.8807970779778823, rel=1e-12)

    def test_vectorized(self):
        out = forward_infer([0.0, 2.0], [0.5, 1.0])
        np.testing.assert_allclose(out, [sigmoid(np.log(0.5)), sigmoid(2.0)], rtol=1e-12)

    def test_rejects_impossible_feature(self):
        with pytest.raises(ValueError, match="impossible"):
            forward_infer(0.0, 0.0)

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            forward_infer(0.0, 1.5)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            forward_infer([0.0, 0.0], [0.5])


class TestBackwardInfer:
    def test_half_known(self):
        # sigma(-1 + ln 2); the product over the remaining mass
        assert backward_infer(-1.0, 0.5) == pytest.approx(0.42388311523417094, rel=1e-12)

    def test_unknown_feature_keeps_prior(self):
        assert backward_infer(0.3, 0.0) == pytest.approx(sigmoid(0.3), rel=1e-12)

    def test_rejects_certain_feature(self):
        with pytest.raises(ValueError, match="certainly known"):
            backward_infer(0.0, 1.0)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            backward_infer([0.0], [0.5, 0.5])


class TestNegRelationConstant:
    def test_single_dimension_is_vacuous(self):
        assert neg_relation_constant([0.0], [0.0], 0) == 1.0

    def test_two_dims_at_origin(self):
        assert neg_relation_constant([0.0, 0.0], [0.0, 0.0], 0) == pytest.approx(0.75, rel=1e-12)

    def test_matches_naive_product(self):
        rng = np.random.default_rng(42)
        x_i = rng.uniform(-4, 4, size=10)
        x_j = rng.uniform(-4, 4, size=10)
        for k in range(10):
            naive = 1.0
            for kp in range(10):
                if kp != k:
                    naive *= 1.0 - sigmoid(-x_i[kp]) * sigmoid(x_j[kp])
            assert neg_relation_constant(x_i, x_j, k) == pytest.approx(naive, rel=1e-12)

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            neg_relation_constant([0.0, 0.0], [0.0, 0.0], 2)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            neg_relation_constant([0.0], [0.0, 0.0], 0)
        with pytest.raises(ValueError, match="^neg_relation_constant expects 1-d vectors$"):
            neg_relation_constant([[0.0, 0.0]], [[0.0, 0.0]], 0)

    def test_rows_with_saturated_factors(self):
        # rows with 0, 1 and 3 saturated factors (1 - sigma(800) sigma(800) == 0)
        rng = np.random.default_rng(3)
        x_src = rng.uniform(-4, 4, size=(3, 6))
        x_tgt = rng.uniform(-4, 4, size=(3, 6))
        for row, ks in ((1, [2]), (2, [0, 3, 5])):
            x_src[row, ks], x_tgt[row, ks] = -800.0, 800.0
        factors = 1.0 - sigmoid(-x_src) * sigmoid(x_tgt)
        assert np.count_nonzero(factors == 0.0) == 4
        got = _neg_constants(x_src, x_tgt)
        for r in range(3):
            for k in range(6):
                explicit = np.prod(np.delete(factors[r], k))
                assert got[r, k] == pytest.approx(explicit, rel=1e-12, abs=0.0)
                assert neg_relation_constant(x_src[r], x_tgt[r], k) == got[r, k]
        assert got[1, 2] > 0.0
        assert np.count_nonzero(got[1]) == 1
        assert np.all(got[2] == 0.0)


class TestSolverConfig:
    def test_defaults(self):
        cfg = SolverConfig()
        assert cfg.max_sweeps == 500
        assert cfg.tol == 1e-6
        assert cfg.damping == 0.0
        assert cfg.clamp == 30.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_sweeps": 0},
            {"tol": 0.0},
            {"tol": -1.0},
            {"damping": 1.0},
            {"damping": -0.1},
            {"clamp": 0.0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)


class TestEntailmentGraph:
    def test_duplicate_node(self):
        g = EntailmentGraph()
        g.add_node("a", dim=1)
        with pytest.raises(GraphStructureError, match="duplicate"):
            g.add_node("a", dim=1)

    def test_edge_to_unknown_node(self):
        g = EntailmentGraph()
        g.add_node("a", dim=1)
        with pytest.raises(GraphStructureError, match="unknown node"):
            g.add_entail("a", "b")

    def test_self_edge(self):
        g = EntailmentGraph()
        g.add_node("a", dim=1)
        with pytest.raises(GraphStructureError, match="self-edge"):
            g.add_not_entail("a", "a")

    def test_dim_must_agree_across_nodes(self):
        g = EntailmentGraph()
        g.add_node("a", dim=2)
        with pytest.raises(GraphStructureError):
            g.add_node("b", dim=3)

    @pytest.mark.parametrize("dim", [0, -2])
    def test_dim_must_be_positive(self, dim):
        g = EntailmentGraph()
        with pytest.raises(GraphStructureError, match=f"dim must be positive, got {dim}"):
            g.add_node("a", dim=dim)
        assert g.node_names == [] and g.dim is None

    def test_theta_dim_conflict(self):
        g = EntailmentGraph()
        with pytest.raises(GraphStructureError):
            g.add_node("a", dim=2, theta=[1.0])
        for theta in ([], np.zeros(0), np.zeros((1, 2))):
            with pytest.raises(GraphStructureError, match="theta must be a non-empty vector"):
                g.add_node("a", theta=theta)
        with pytest.raises(GraphStructureError, match="'a' needs a dim or a theta vector"):
            g.add_node("a")
        assert g.node_names == [] and g.dim is None

    def test_nonfinite_theta(self):
        g = EntailmentGraph()
        with pytest.raises(GraphStructureError):
            g.add_node("a", theta=[np.inf])

    def test_observe_validations(self):
        g = EntailmentGraph()
        g.add_node("a", dim=2)
        with pytest.raises(GraphStructureError):
            g.observe("missing", 0, 1.0)
        with pytest.raises(GraphStructureError):
            g.observe("a", 2, 1.0)
        with pytest.raises(GraphStructureError):
            g.observe("a", 0, np.nan)

    def test_observe_keeps_prior_elsewhere(self):
        g = EntailmentGraph()
        g.add_node("a", dim=3, theta=[0.1, 0.2, 0.3])
        g.observe("a", 1, 5.0)
        assert g.is_observed("a")
        np.testing.assert_allclose(g.observations["a"], [0.1, 5.0, 0.3])


class TestGraphInfer:
    def test_chain_fixed_point(self):
        result = graph_infer(chain_graph())
        assert result.converged
        assert result.sweeps_used <= 100
        np.testing.assert_allclose(result.assignments["a"], [LOG_GOLDEN_RATIO], atol=1e-6)
        np.testing.assert_allclose(result.assignments["b"], [-LOG_GOLDEN_RATIO], atol=1e-6)

    def test_no_edges_returns_priors(self):
        g = EntailmentGraph()
        g.add_node("a", theta=[0.7, -1.2])
        g.add_node("b", theta=[2.0, 0.0])
        result = graph_infer(g)
        assert result.converged and result.sweeps_used == 1
        np.testing.assert_array_equal(result.assignments["a"], [0.7, -1.2])
        np.testing.assert_array_equal(result.assignments["b"], [2.0, 0.0])

    def test_observed_node_is_fixed(self):
        g = chain_graph()
        g.observe("a", 0, 40.0)
        result = graph_infer(g)
        # the observation is clipped to the clamp, then never updated
        np.testing.assert_array_equal(result.assignments["a"], [30.0])
        # with the entailing side certainly known the constraint is vacuous
        np.testing.assert_allclose(result.assignments["b"], [0.0], atol=1e-12)

    def test_negative_edge_pushes_apart(self):
        g = EntailmentGraph()
        g.add_node("a", dim=2)
        g.add_node("b", dim=2)
        g.add_not_entail("a", "b")
        result = graph_infer(g)
        assert result.converged
        # "a does not entail b": some feature known in b must be unknown in a
        assert np.all(result.assignments["a"] < 0.0)
        assert np.all(result.assignments["b"] > 0.0)

    def test_single_dim_negative_edge_saturates(self):
        # C = 1 in one dimension, so the correction diverges; the solver
        # clamps instead of erroring
        g = EntailmentGraph()
        g.add_node("a", dim=1)
        g.add_node("b", dim=1)
        g.add_not_entail("a", "b")
        result = graph_infer(g)
        assert result.assignments["b"][0] == 30.0
        assert result.assignments["a"][0] == -30.0

    def test_opposite_divergent_negative_edges_are_nan(self):
        # either edge alone saturates at the clamp; together they give node a
        # a +inf and a -inf term, which sum to NaN
        g = EntailmentGraph()
        g.add_node("a", dim=1)
        g.add_node("b", dim=1)
        g.add_not_entail("a", "b")
        g.add_not_entail("b", "a")
        with pytest.raises(SolverNumericsError) as exc_info:
            graph_infer(g)
        assert str(exc_info.value) == ("NaN update for node 'a' dimension 0 at sweep 1; "
                                       "its notentail edges: 'a' -> 'b', 'b' -> 'a'")

    def test_deterministic(self):
        def run():
            g = EntailmentGraph()
            g.add_node("a", theta=[0.3, -0.2])
            g.add_node("b", theta=[0.1, 0.4])
            g.add_node("c", theta=[-0.5, 0.2])
            g.add_entail("a", "b")
            g.add_entail("b", "c")
            g.add_not_entail("c", "a")
            return graph_infer(g)

        first, second = run(), run()
        assert first.sweeps_used == second.sweeps_used
        for name in ("a", "b", "c"):
            np.testing.assert_array_equal(
                first.assignments[name], second.assignments[name]
            )

    def test_converged_reports_delta_below_tol(self):
        cfg = SolverConfig(tol=1e-8)
        result = graph_infer(chain_graph(), cfg)
        assert result.converged
        assert result.final_delta < cfg.tol

    def test_sweep_budget_respected(self):
        cfg = SolverConfig(max_sweeps=2, tol=1e-15)
        result = graph_infer(chain_graph(), cfg)
        assert not result.converged
        assert result.sweeps_used == 2

    def test_deltas_trace_each_sweep(self):
        result = graph_infer(chain_graph(), SolverConfig(tol=1e-8))
        assert len(result.deltas) == result.sweeps_used
        assert result.deltas[-1] == result.final_delta
        assert result.deltas[0] > result.deltas[-1]
        assert result.largest_change is None

    def test_non_convergence_names_largest_change(self):
        g = EntailmentGraph()
        g.add_node("a", theta=[0.0, 0.0])
        g.add_node("b", theta=[3.0, 0.0])
        g.add_entail("a", "b")
        result = graph_infer(g, SolverConfig(max_sweeps=2, tol=1e-15))
        assert not result.converged
        # a's first dimension follows b's near-certain feature at once; the
        # second, which b leaves open, still moves in sweep 2
        assert result.largest_change == ("a", 1)

    @pytest.mark.parametrize("seed", [0, 2])
    @pytest.mark.parametrize("dim", [1, 4])
    @pytest.mark.parametrize("damping", [0.0, 0.5])
    @pytest.mark.parametrize("root_first", [True, False])
    @pytest.mark.parametrize("max_sweeps", [5, 200])
    def test_matches_node_by_node_sweeps(self, seed, dim, damping, root_first, max_sweeps):
        g = random_graph(seed, dim, root_first)
        cfg = SolverConfig(max_sweeps=max_sweeps, damping=damping)
        state, deltas, largest = sequential_infer(g, cfg)
        result = graph_infer(g, cfg)
        assert result.sweeps_used == len(deltas)
        assert result.converged == (max_sweeps == 200)
        np.testing.assert_allclose(result.deltas, deltas, rtol=0.0, atol=1e-12)
        assert result.final_delta == pytest.approx(deltas[-1], rel=0.0, abs=1e-12)
        for name in g.node_names:
            np.testing.assert_allclose(
                result.assignments[name], state[name], rtol=0.0, atol=1e-12
            )
        assert result.largest_change == (None if result.converged else largest)

    def nan_graph(self):
        # C = 1 against a certainly-known entailing side: log1p(-1) - log1p(-1)
        g = EntailmentGraph()
        for name in ("a", "b", "c"):
            g.add_node(name, dim=2)
        g.add_not_entail("a", "b")
        g.add_entail("c", "b")
        g.observe("a", 0, 800.0)
        g.observe("a", 1, 800.0)
        return g

    def test_nan_names_node_dimension_and_sweep(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SolverNumericsError) as exc_info:
                graph_infer(self.nan_graph(), SolverConfig(clamp=1000.0))
        assert str(exc_info.value) == ("NaN update for node 'b' dimension 0 at sweep 1; "
                                       "its notentail edges: 'a' -> 'b'")

    def test_nan_names_first_node_in_declaration_order(self):
        # y sits in the first wavefront level and b in the second, but b is
        # declared first, so a node-by-node sweep stops at b
        g = EntailmentGraph()
        for name in ("a", "c", "b", "y"):
            g.add_node(name, dim=2)
        g.add_entail("c", "b")
        g.add_not_entail("a", "b")
        g.add_not_entail("a", "y")
        g.observe("a", 0, 800.0)
        g.observe("a", 1, 800.0)
        cfg = SolverConfig(clamp=1000.0)
        with pytest.raises(SolverNumericsError) as oracle:
            sequential_infer(g, cfg)
        with pytest.raises(SolverNumericsError) as exc_info:
            graph_infer(g, cfg)
        assert str(exc_info.value) == str(oracle.value)
        assert "node 'b' dimension 0" in str(exc_info.value)

    def test_damping_reaches_same_fixed_point(self):
        plain = graph_infer(chain_graph())
        damped = graph_infer(chain_graph(), SolverConfig(damping=0.5))
        np.testing.assert_allclose(
            plain.assignments["a"], damped.assignments["a"], atol=1e-5
        )

    def test_star_matches_node_by_node_sweeps(self):
        # the hub comes first, so one level adds its 40 entailing
        # neighbours' terms, plus negative edges both ways;
        # leaves that lean known keep those terms small enough to converge
        rng = np.random.default_rng(4)
        g = EntailmentGraph()
        g.add_node("hub", theta=rng.normal(0.0, 1.0, size=4))
        leaves = [f"leaf{k}" for k in range(40)]
        for leaf in leaves:
            g.add_node(leaf, theta=rng.normal(3.0, 1.0, size=4))
            g.add_entail(leaf, "hub")
        for leaf in leaves[:3]:
            g.add_not_entail("hub", leaf)
        for leaf in leaves[-3:]:
            g.add_not_entail(leaf, "hub")
        cfg = SolverConfig(max_sweeps=300)
        state, deltas, _ = sequential_infer(g, cfg)
        result = graph_infer(g, cfg)
        assert result.converged
        assert result.sweeps_used == len(deltas)
        for name in g.node_names:
            np.testing.assert_allclose(
                result.assignments[name], state[name], rtol=0.0, atol=1e-12
            )

    @pytest.mark.parametrize("damping", [0.0, 0.5])
    @pytest.mark.parametrize("max_sweeps", [2, 40])
    def test_hub_adds_its_terms_in_edge_order(self, damping, max_sweeps):
        # positive edges only, so the node-by-node sweep does the same
        # arithmetic one term at a time; the hub's 45 terms near +25, -25
        # and 0 round differently in another order, so equal bits mean
        # equal order (after 2 sweeps the hub is still inside the clamp)
        rng = np.random.default_rng(0)
        g = EntailmentGraph()
        g.add_node("hub", theta=rng.normal(0.0, 1.0, size=3))
        leaves = [f"leaf{k}" for k in range(40)]
        for k, leaf in enumerate(leaves):
            scale = 25.0 if k % 8 == 0 else -25.0 if k % 8 == 4 else 2.0
            g.add_node(leaf, theta=scale * rng.uniform(0.9, 1.1, size=3))
            g.add_entail(leaf, "hub")
        for leaf in leaves[::8]:
            g.add_entail("hub", leaf)
        cfg = SolverConfig(max_sweeps=max_sweeps, damping=damping)
        state, deltas, _ = sequential_infer(g, cfg)
        result = graph_infer(g, cfg)
        assert list(result.deltas) == deltas
        for name in g.node_names:
            assert result.assignments[name].tobytes() == state[name].tobytes()

class TestParseGraph:
    def test_round_trip_structure(self):
        g = parse_graph(
            "# taxonomy fragment\n"
            "node dog 2 0.5 -0.5\n"
            "node animal 2\n"
            "entail dog animal  # trailing comment\n"
            "notentail animal dog\n"
            "observe dog 1 2.5\n"
        )
        assert g.node_names == ["dog", "animal"]
        assert g.pos_edges == [("dog", "animal")]
        assert g.neg_edges == [("animal", "dog")]
        np.testing.assert_allclose(g.observations["dog"], [0.5, 2.5])
        np.testing.assert_array_equal(g.theta("animal"), [0.0, 0.0])

    def test_blank_lines_ignored(self):
        g = parse_graph("\n\nnode a 1\n\n")
        assert g.node_names == ["a"]

    @pytest.mark.parametrize(
        "text, lineno, fragment",
        [
            ("frobnicate a b", 1, "unknown directive"),
            ("node a\n", 1, "needs a name and a dim"),
            ("node a zero", 1, "bad dim"),
            ("node a 0", 1, "dim must be positive"),
            ("node a 2 1.0", 1, "lists 1 priors"),
            ("node a 1 x", 1, "bad prior"),
            ("node a 1\nnode a 1", 2, "duplicate"),
            ("node a 1\nentail a b", 2, "unknown node"),
            ("node a 1\nentail a", 2, "exactly two"),
            ("node a 1\nobserve a 0", 2, "observe needs"),
            ("node a 1\nobserve a one 0.5", 2, "bad dimension index"),
            ("node a 1\nobserve a 1 0.5", 2, "out of range"),
            ("node a 1\nobserve a 0 inf", 2, "must be finite"),
            # zero priors of 8e17 bytes: more than any address space maps
            ("node x 100000000000000000", 1, "dim 100000000000000000 cannot be allocated"),
            ("node x 100000000000000000000", 1, "cannot be allocated"),
            ("node x 3\nnode y 99999999999", 2, "has dim 99999999999 but the graph uses dim 3"),
            ("node x 3 0 0 0\nnode y 100000000000000000 # no priors", 2,
             "has dim 100000000000000000 but the graph uses dim 3"),
        ],
    )
    def test_errors_carry_line_numbers(self, text, lineno, fragment):
        with pytest.raises(GraphFormatError, match=fragment) as exc_info:
            parse_graph(text)
        assert exc_info.value.line == lineno
        assert f"line {lineno}:" in str(exc_info.value)

    @pytest.mark.parametrize(
        "text, lineno, fragment",
        [
            ("node a 2 0.5 inf\nentail a b\n", 1, "non-finite"),
            ("node a 1\nentail a b\nnode b 1 nan\n", 2, "unknown node 'b'"),
            ("node x 100000000000000000\nobserve x 0 nan\n", 1, "cannot be allocated"),
        ],
    )
    def test_the_earlier_of_two_faults_is_reported(self, text, lineno, fragment):
        with pytest.raises(GraphFormatError, match=fragment) as exc_info:
            parse_graph(text)
        assert exc_info.value.line == lineno

    @pytest.mark.parametrize("seed", [0, 2])
    @pytest.mark.parametrize("dim", [1, 4])
    @pytest.mark.parametrize("root_first", [True, False])
    def test_text_gives_the_programmatic_graph(self, seed, dim, root_first):
        built = random_graph(seed, dim, root_first)
        parsed = parse_graph(graph_text(built))
        assert parsed.node_names == built.node_names
        for name in built.node_names:
            assert parsed.theta(name).tobytes() == built.theta(name).tobytes()
        assert parsed.pos_edges == built.pos_edges
        assert parsed.neg_edges == built.neg_edges
        want = built.observations
        got = parsed.observations
        assert list(got) == list(want)
        for name in want:
            assert got[name].tobytes() == want[name].tobytes()
        cfg = SolverConfig(max_sweeps=50)
        solved, reference = graph_infer(parsed, cfg), graph_infer(built, cfg)
        assert solved.deltas == reference.deltas
        for name in built.node_names:
            assert solved.assignments[name].tobytes() == reference.assignments[name].tobytes()

    def test_parser_memory(self):
        # 20 000 nodes at dim 30 (4.8 MB of priors) from 6.4 MB of text; the
        # array store holds one matrix, which doubles to 32 768 rows (7.9 MB)
        text = tree_text(20_000, 30, seed=0)
        gc.collect()
        tracemalloc.start()
        try:
            g = parse_graph(text)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(g.node_names) == 20_000 and len(g.pos_edges) == 19_999
        assert peak <= 21.1e6
        assert retained <= 12.4e6

    def test_parse_graph_file_memory(self, tmp_path):
        # the same 6.4 MB text read from a file, one line at a time: the
        # peak is the prior matrix's last doubling, not the text (13.6 MB)
        path = tmp_path / "tree.graph"
        path.write_text(tree_text(20_000, 30, seed=0))
        gc.collect()
        tracemalloc.start()
        try:
            g = parse_graph_file(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(g.node_names) == 20_000
        assert peak <= 16e6

    def test_parse_graph_file(self, tmp_path):
        path = tmp_path / "toy.graph"
        path.write_text("node x 1 1.5\n")
        g = parse_graph_file(path)
        np.testing.assert_array_equal(g.theta("x"), [1.5])

    @pytest.mark.parametrize("head, line", [
        (b"node x 1\n# comment\n", 3),
        (b"node x 1\r\nnode y 1\r", 3),
        (b"".join(b"node n%d 1\n" % i for i in range(3000)), 3001),
    ])
    def test_parse_graph_file_names_the_invalid_utf8_line(self, tmp_path, head, line):
        path = tmp_path / "toy.graph"
        path.write_bytes(head + b"node \xff 1\n")
        with pytest.raises(GraphFormatError, match="not valid UTF-8") as exc_info:
            parse_graph_file(path)
        assert exc_info.value.line == line

    def test_bundled_chain_fixture(self):
        import pathlib

        fixture = pathlib.Path(__file__).parent / "data" / "chain.graph"
        result = graph_infer(parse_graph_file(fixture))
        np.testing.assert_allclose(result.assignments["a"], [LOG_GOLDEN_RATIO], atol=1e-6)
