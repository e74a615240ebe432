import numpy as np
import pytest

from entvec.core import (
    MAX_FAILURE_PROB,
    DimensionMismatchError,
    clamp_log_odds,
    entail_backward,
    entail_factorized,
    entail_forward,
    log_sigmoid,
    sigmoid,
)


class TestSigmoid:
    def test_center(self):
        assert sigmoid(0.0) == 0.5

    def test_log_two(self):
        np.testing.assert_allclose(sigmoid(np.log(2.0)), 2.0 / 3.0, rtol=1e-15)

    def test_saturation_without_overflow(self):
        assert sigmoid(-1000.0) == 0.0
        assert sigmoid(1000.0) == 1.0

    def test_symmetry(self):
        x = np.linspace(-20, 20, 101)
        np.testing.assert_allclose(sigmoid(x) + sigmoid(-x), 1.0, atol=1e-15)

    def test_scalar_type(self):
        assert isinstance(sigmoid(1.2), float)

    def test_array_shape(self):
        assert sigmoid(np.zeros((3, 4))).shape == (3, 4)


class TestLogSigmoid:
    def test_zero(self):
        np.testing.assert_allclose(log_sigmoid(0.0), -np.log(2.0), rtol=1e-15)

    def test_large_negative_tracks_line(self):
        # naive log(sigmoid(-1000)) would be -inf
        np.testing.assert_allclose(log_sigmoid(-1000.0), -1000.0, rtol=1e-12)

    def test_frozen_tail_value(self):
        # high-precision softplus evaluation of log sigma(30)
        assert log_sigmoid(30.0) == pytest.approx(-9.357622968839737e-14, rel=1e-12)

    def test_nonpositive(self):
        x = np.linspace(-50, 50, 201)
        assert np.all(log_sigmoid(x) <= 0.0)

    def test_matches_naive_in_safe_range(self):
        # the naive composition itself degrades near +30, hence the atol
        x = np.linspace(-30, 30, 301)
        np.testing.assert_allclose(log_sigmoid(x), np.log(sigmoid(x)), rtol=1e-12, atol=5e-16)


class TestClamp:
    def test_passthrough(self):
        np.testing.assert_array_equal(clamp_log_odds([1.0, -2.0]), [1.0, -2.0])

    def test_clamps_infinities(self):
        out = clamp_log_odds([np.inf, -np.inf, 1e9])
        np.testing.assert_array_equal(out, [700.0, -700.0, 700.0])

    def test_custom_limit(self):
        np.testing.assert_array_equal(clamp_log_odds([50.0, -50.0], limit=30.0), [30.0, -30.0])


class TestEntailForward:
    def test_origin(self):
        np.testing.assert_allclose(entail_forward([0.0], [0.0]), 0.5 * np.log(0.5), rtol=1e-15)

    def test_vacuous_when_nothing_known(self):
        assert entail_forward([-40.0], [3.0]) == pytest.approx(0.0, abs=1e-15)

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError, match=r"\(2,\).*\(3,\)"):
            entail_forward([0.0, 0.0], [0.0, 0.0, 0.0])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="finite"):
            entail_forward([np.inf], [0.0])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            entail_forward([], [])

    def test_batched_rows_match_loop(self):
        rng = np.random.default_rng(42)
        x = rng.uniform(-5, 5, size=(20, 7))
        y = rng.uniform(-5, 5, size=(20, 7))
        batch = entail_forward(x, y)
        single = np.array([entail_forward(x[i], y[i]) for i in range(20)])
        np.testing.assert_allclose(batch, single, rtol=1e-15)


class TestEntailBackward:
    def test_origin(self):
        np.testing.assert_allclose(entail_backward([0.0], [0.0]), 0.5 * np.log(0.5), rtol=1e-15)

    def test_vacuous_when_everything_known(self):
        assert entail_backward([40.0], [3.0]) == pytest.approx(0.0, abs=1e-15)

    def test_penalizes_entailing_known_feature(self):
        # y half known, x surely known: score ~ 0.5 * (-40)
        np.testing.assert_allclose(entail_backward([0.0], [40.0]), -20.0, rtol=1e-6)

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            entail_backward([0.0], [0.0, 1.0])


class TestEntailFactorized:
    def test_origin(self):
        np.testing.assert_allclose(entail_factorized([0.0], [0.0]), np.log(0.75), rtol=1e-15)

    def test_additivity_over_dims(self):
        np.testing.assert_allclose(
            entail_factorized([0.0, 0.0], [0.0, 0.0]), 2.0 * np.log(0.75), rtol=1e-15
        )

    def test_certain_non_entailment(self):
        # sigma(-y) sigma(x) reaches 1 within float precision; the cap keeps it finite
        assert MAX_FAILURE_PROB == 1.0 - 1e-12
        assert entail_factorized([-700.0], [700.0]) == np.log1p(-(1.0 - 1e-12))

    def test_exp_score_is_probability(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            y = rng.uniform(-8, 8, size=6)
            x = rng.uniform(-8, 8, size=6)
            p = np.exp(entail_factorized(y, x))
            assert 0.0 < p <= 1.0


class TestOperatorProperties:
    # shared across all three operators

    def _score(self, op, x, y):
        if op == "fwd":
            return entail_forward(x, y)
        if op == "bwd":
            return entail_backward(y, x)
        return entail_factorized(y, x)

    @pytest.mark.parametrize("op", ["fwd", "bwd", "fact"])
    def test_nonpositive(self, op):
        rng = np.random.default_rng(42)
        for _ in range(100):
            x = rng.uniform(-10, 10, size=5)
            y = rng.uniform(-10, 10, size=5)
            assert self._score(op, x, y) <= 0.0

    @pytest.mark.parametrize("op", ["fwd", "bwd", "fact"])
    def test_monotone_in_single_coordinates(self, op):
        # non-decreasing in every y_k, non-increasing in every x_k
        rng = np.random.default_rng(42)
        x = rng.uniform(-3, 3, size=6)
        y = rng.uniform(-3, 3, size=6)
        base = self._score(op, x, y)
        for k in range(6):
            y_up = y.copy()
            y_up[k] += 0.5
            assert self._score(op, x, y_up) >= base - 1e-12
            x_up = x.copy()
            x_up[k] += 0.5
            assert self._score(op, x_up, y) <= base + 1e-12

    @pytest.mark.parametrize("op", ["fwd", "bwd", "fact"])
    def test_vacuity_limits(self, op):
        y = np.array([1.3, -0.7, 2.0])
        assert self._score(op, np.full(3, -50.0), y) == pytest.approx(0.0, abs=1e-12)
        x = np.array([1.3, -0.7, 2.0])
        assert self._score(op, x, np.full(3, 50.0)) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("op", ["fwd", "bwd", "fact"])
    def test_concat_additivity(self, op):
        rng = np.random.default_rng(42)
        x1, x2 = rng.uniform(-4, 4, size=3), rng.uniform(-4, 4, size=4)
        y1, y2 = rng.uniform(-4, 4, size=3), rng.uniform(-4, 4, size=4)
        whole = self._score(op, np.concatenate([x1, x2]), np.concatenate([y1, y2]))
        parts = self._score(op, x1, y1) + self._score(op, x2, y2)
        np.testing.assert_allclose(whole, parts, rtol=1e-12)

    def test_jensen_bounds(self):
        rng = np.random.default_rng(42)
        x = rng.uniform(-10, 10, size=(500, 100))
        y = rng.uniform(-10, 10, size=(500, 100))
        fact = entail_factorized(y, x)
        assert np.all(entail_forward(x, y) <= fact + 1e-12)
        assert np.all(entail_backward(y, x) <= fact + 1e-12)
