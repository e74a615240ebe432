import numpy as np
import pytest

from entvec.core import entail_backward, entail_factorized, entail_forward, sigmoid
from entvec.oracle import (
    DiscreteDistribution,
    bound_backward,
    bound_forward,
    exact_entail_prob,
    factorize,
)


def naive_entail_prob(px: DiscreteDistribution, py: DiscreteDistribution) -> float:
    # direct double sum over both supports; the slow reference the fast
    # subset-sum version must reproduce
    total = 0.0
    dim = px.dim
    for mx in range(2 ** dim):
        for my in range(2 ** dim):
            ok = all(not ((mx >> k) & 1 and not (my >> k) & 1) for k in range(dim))
            if ok:
                total += px.probs[mx] * py.probs[my]
    return total


class TestDiscreteDistribution:
    def test_point_mass(self):
        d = DiscreteDistribution.point_mass((1, 0))
        assert d.dim == 2
        assert d.probs[0b01] == 1.0
        assert d.probs.sum() == 1.0

    def test_from_support_bits_and_ints(self):
        a = DiscreteDistribution.from_support(2, {(1, 0): 0.5, (0, 1): 0.5})
        b = DiscreteDistribution.from_support(2, {0b01: 0.5, 0b10: 0.5})
        np.testing.assert_array_equal(a.probs, b.probs)

    def test_factorized_marginals_round_trip(self):
        q = np.array([0.2, 0.7, 0.5])
        d = DiscreteDistribution.factorized(q)
        np.testing.assert_allclose(factorize(d), q, rtol=1e-12)

    def test_rejects_bad_mass(self):
        with pytest.raises(ValueError):
            DiscreteDistribution(2, np.array([0.5, 0.5, 0.5, 0.5]))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            DiscreteDistribution(1, np.array([1.5, -0.5]))

    def test_rejects_big_dim(self):
        with pytest.raises(ValueError):
            DiscreteDistribution(21, np.zeros(2 ** 21))

    def test_rejects_inputs_of_the_wrong_size_or_range(self):
        with pytest.raises(ValueError, match=r"^probs must have length 2\*\*2 = 4, got shape"):
            DiscreteDistribution(2, [0.5, 0.25, 0.25])
        with pytest.raises(ValueError, match=r"^state \(1, 0, 1\) does not have 2 bits$"):
            DiscreteDistribution.from_support(2, {(1, 0, 1): 1.0})
        for marginals in ([0.5, 1.5], [-0.1]):
            with pytest.raises(ValueError, match=r"^marginals must lie in \[0, 1\]$"):
                DiscreteDistribution.factorized(marginals)


class TestExactEntailProb:
    def test_uncovered_knowns_never_entail(self):
        px = DiscreteDistribution.point_mass((1, 1))
        py = DiscreteDistribution.from_support(2, {(1, 0): 0.5, (0, 1): 0.5})
        assert exact_entail_prob(px, py) == 0.0

    def test_hand_enumeration(self):
        py = DiscreteDistribution.point_mass((1, 0))
        px = DiscreteDistribution.from_support(2, {(1, 0): 0.5, (0, 1): 0.5})
        assert exact_entail_prob(px, py) == pytest.approx(0.5)

    def test_matches_factorized_operator(self):
        px = DiscreteDistribution.factorized([0.5])
        py = DiscreteDistribution.factorized([0.5])
        assert exact_entail_prob(px, py) == pytest.approx(0.75, rel=1e-12)
        assert np.exp(entail_factorized([0.0], [0.0])) == pytest.approx(0.75, rel=1e-12)

    def test_all_unknown_x_entails_surely(self):
        rng = np.random.default_rng(42)
        py = DiscreteDistribution.factorized(rng.uniform(0, 1, 4))
        px = DiscreteDistribution.point_mass((0, 0, 0, 0))
        assert exact_entail_prob(px, py) == pytest.approx(1.0, rel=1e-12)

    def test_point_mass_x_sums_superset_mass(self):
        rng = np.random.default_rng(42)
        probs = rng.uniform(0, 1, 8)
        probs /= probs.sum()
        py = DiscreteDistribution(3, probs)
        px = DiscreteDistribution.point_mass((1, 0, 1))
        expect = sum(py.probs[m] for m in range(8) if (m & 0b101) == 0b101)
        assert exact_entail_prob(px, py) == pytest.approx(expect, rel=1e-12)

    def test_matches_naive_double_sum(self):
        rng = np.random.default_rng(42)
        for dim in (1, 2, 3, 4, 5, 6):
            px_p = rng.uniform(0, 1, 2 ** dim)
            py_p = rng.uniform(0, 1, 2 ** dim)
            px = DiscreteDistribution(dim, px_p / px_p.sum())
            py = DiscreteDistribution(dim, py_p / py_p.sum())
            np.testing.assert_allclose(
                exact_entail_prob(px, py), naive_entail_prob(px, py), rtol=1e-12
            )

    def test_factorized_closed_form(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            qx = rng.uniform(0, 1, 5)
            qy = rng.uniform(0, 1, 5)
            got = exact_entail_prob(
                DiscreteDistribution.factorized(qx), DiscreteDistribution.factorized(qy)
            )
            expect = np.prod(1.0 - (1.0 - qy) * qx)
            np.testing.assert_allclose(got, expect, rtol=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            exact_entail_prob(
                DiscreteDistribution.factorized([0.5]),
                DiscreteDistribution.factorized([0.5, 0.5]),
            )


class TestFactorize:
    def test_point_mass(self):
        np.testing.assert_array_equal(
            factorize(DiscreteDistribution.point_mass((1, 0))), [1.0, 0.0]
        )

    def test_uniform(self):
        d = DiscreteDistribution(2, np.full(4, 0.25))
        np.testing.assert_allclose(factorize(d), [0.5, 0.5], rtol=1e-15)

    def test_mutual_exclusion(self):
        d = DiscreteDistribution.from_support(2, {(1, 0): 0.5, (0, 1): 0.5})
        np.testing.assert_allclose(factorize(d), [0.5, 0.5], rtol=1e-15)


class TestBounds:
    def test_forward_entropy_point(self):
        # q_x = 0.5, q_y = 1, theta = 0: pure entropy of a fair bit
        assert bound_forward(0.5, 1.0, 0.0) == pytest.approx(-np.log(2.0), rel=1e-12)

    def test_backward_hand_sum(self):
        got = bound_backward(2.0 / 3.0, 0.5, 0.0)
        assert got == pytest.approx(-0.636514 + 0.231049, abs=1e-6)
        assert got == pytest.approx(-0.4054651081081645, rel=1e-10)

    def test_forward_minimizer_matches_closed_form(self):
        rng = np.random.default_rng(42)
        grid = np.linspace(1e-9, 1.0 - 1e-9, 10_000)
        for _ in range(25):
            theta = rng.uniform(-3, 3)
            q_y = rng.uniform(0.05, 1.0)
            vals = bound_forward(grid, q_y, theta)
            best = grid[np.argmin(vals)]
            closed = sigmoid(theta + np.log(q_y))
            assert abs(best - closed) <= grid[1] - grid[0]

    def test_backward_minimizer_matches_closed_form(self):
        rng = np.random.default_rng(42)
        grid = np.linspace(1e-9, 1.0 - 1e-9, 10_000)
        for _ in range(25):
            theta = rng.uniform(-3, 3)
            q_x = rng.uniform(0.0, 0.95)
            vals = bound_backward(grid, q_x, theta)
            best = grid[np.argmin(vals)]
            closed = sigmoid(theta - np.log1p(-q_x))
            assert abs(best - closed) <= grid[1] - grid[0]

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            bound_forward(0.0, 0.5, 0.0)
        with pytest.raises(ValueError):
            bound_forward(0.5, 0.0, 0.0)
        with pytest.raises(ValueError):
            bound_backward(1.0, 0.5, 0.0)
        with pytest.raises(ValueError):
            bound_backward(0.5, 1.0, 0.0)


class TestJensenAudit:
    def test_log_exact_dominates_both_operators(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            dim = int(rng.integers(1, 7))
            x = rng.uniform(-6, 6, dim)
            y = rng.uniform(-6, 6, dim)
            px = DiscreteDistribution.factorized(sigmoid(x))
            py = DiscreteDistribution.factorized(sigmoid(y))
            log_exact = np.log(exact_entail_prob(px, py))
            assert entail_forward(x, y) <= log_exact + 1e-12
            assert entail_backward(y, x) <= log_exact + 1e-12
