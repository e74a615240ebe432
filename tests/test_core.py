import numpy as np
import pytest

from entvec import core
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
        for limit in (0.0, -1.0):
            with pytest.raises(ValueError, match=f"^clamp limit must be positive, got {limit}$"):
                clamp_log_odds([1.0], limit=limit)


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


def _reference_tables(v):
    # the pre-table formulas of sigmoid and log_sigmoid, each with its own exp
    def sig(x):
        z = np.exp(-np.abs(x))
        return np.where(x >= 0, 1.0 / (1.0 + z), z / (1.0 + z))

    def log_sig(x):
        return np.minimum(x, 0.0) - np.log1p(np.exp(-np.abs(x)))

    return {"sigmoid": sig(v), "sigmoid_neg": sig(-v),
            "log_sigmoid": log_sig(v), "log_sigmoid_neg": log_sig(-v)}


class TestTables:
    V = np.array([[0.0, -0.0, 1e-300, -1e-300, 0.5, -0.5],
                  [36.0, -36.0, 745.5, -745.5, 800.0, -800.0]])

    def test_bitwise_equal_to_separate_formulas(self):
        got = core._tables(self.V, "sigmoid", "sigmoid_neg", "log_sigmoid", "log_sigmoid_neg")
        for name, want in _reference_tables(self.V).items():
            np.testing.assert_array_equal(got[name], want, err_msg=name)

    def test_computes_only_named_tables(self):
        assert set(core._tables(self.V, "log_sigmoid_neg")) == {"log_sigmoid_neg"}
        assert set(core._tables(self.V, "sigmoid", "log_sigmoid")) == {"sigmoid", "log_sigmoid"}

    def test_negation_swaps_the_tables_bitwise(self):
        names = sorted(core._NEGATED)
        of_v, of_neg = core._tables(self.V, *names), core._tables(-self.V, *names)
        for name in names:
            assert of_neg[name].tobytes() == of_v[core._NEGATED[name]].tobytes(), name

    def test_scalar_input(self):
        got = core._tables(np.asarray(-2.5), "sigmoid", "log_sigmoid_neg")
        want = _reference_tables(np.asarray(-2.5))
        assert got["sigmoid"] == want["sigmoid"]
        assert got["log_sigmoid_neg"] == want["log_sigmoid_neg"]


OPS = {
    "fwd": lambda y, x, pairs=None, tables=None: entail_forward(
        x, y, pairs=None if pairs is None else pairs[::-1], tables=tables),
    "bwd": entail_backward,
    "fact": entail_factorized,
}


class TestScoreGrads:
    # rows at +/-30 and +/-1e-300, and a saturated factorized row (the cap is reached)
    Y = np.array([[30.0, -30.0, 1e-300, -1e-300, 0.7],
                  [-30.0, 1e-300, 30.0, -1e-300, -2.0],
                  [-40.0, -40.0, -40.0, -40.0, -40.0]])
    X = np.array([[-30.0, 30.0, -1e-300, 1e-300, -1.3],
                  [1e-300, -30.0, -1e-300, 30.0, 0.4],
                  [40.0, 40.0, 40.0, 40.0, 40.0]])

    @pytest.mark.parametrize("op", ["fwd", "bwd", "fact"])
    def test_score_is_the_public_operator_bitwise(self, op):
        got, dy, dx = core._score_grads(op, self.Y, self.X)
        assert got.tobytes() == OPS[op](self.Y, self.X).tobytes()
        assert dy.shape == dx.shape == self.Y.shape
        if op == "fact":
            assert got[2] == 5 * np.log1p(-MAX_FAILURE_PROB)


def _word_table(d, seed=0):
    rng = np.random.default_rng(seed)
    words = rng.uniform(-6, 6, size=(6, d))
    words[4] = 800.0   # saturating rows: the factorized cap is reached
    words[5] = -800.0  # between these two
    return words


class TestPairs:
    # (i, j) index lists with repeated words, i == j rows and both saturating orders
    I = np.array([0, 1, 2, 0, 3, 3, 4, 5, 5, 1])
    J = np.array([1, 0, 2, 2, 0, 3, 5, 4, 5, 4])

    @pytest.mark.parametrize("op", sorted(OPS))
    @pytest.mark.parametrize("d", [1, 5])
    def test_same_array_matches_per_pair_calls(self, op, d):
        words = _word_table(d)
        got = OPS[op](words, words, pairs=(self.I, self.J))
        want = OPS[op](words[self.I], words[self.J])
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("op", sorted(OPS))
    def test_two_tables_match_per_pair_calls(self, op):
        y, x = _word_table(4, seed=1), _word_table(4, seed=2)[:5]
        i, j = self.I, np.minimum(self.J, 4)
        np.testing.assert_array_equal(OPS[op](y, x, pairs=(i, j)), OPS[op](y[i], x[j]))

    @pytest.mark.parametrize("op", sorted(OPS))
    def test_saturated_factorized_pair_hits_the_cap(self, op):
        words = _word_table(3)
        got = OPS[op](words, words, pairs=(np.array([5]), np.array([4])))
        assert np.all(np.isfinite(got))
        if op == "fact":
            assert got[0] == 3 * np.log1p(-MAX_FAILURE_PROB)

    @pytest.mark.parametrize("op", sorted(OPS))
    def test_scalar_indices_return_a_float(self, op):
        words = _word_table(3)
        got = OPS[op](words, words, pairs=(2, 0))
        assert isinstance(got, float)
        assert got == OPS[op](words[2], words[0])

    @pytest.mark.parametrize("op", sorted(OPS))
    def test_aligned_one_d_inputs_return_a_float(self, op):
        words = _word_table(3)
        assert isinstance(OPS[op](words[1], words[0]), float)
        assert isinstance(OPS[op](words[1], words[1]), float)

    def test_blocks_do_not_change_values(self, monkeypatch):
        words = _word_table(7, seed=3)
        rng = np.random.default_rng(4)
        i, j = rng.integers(0, 6, size=(2, 50))
        whole = entail_factorized(words, words, pairs=(i, j))
        monkeypatch.setattr(core, "_BLOCK_ELEMS", 8)  # one row per block
        np.testing.assert_array_equal(entail_factorized(words, words, pairs=(i, j)), whole)

    def test_index_shape_is_kept(self):
        words = _word_table(2)
        i = np.array([[0, 1, 2], [3, 4, 5]])
        got = entail_backward(words, words, pairs=(i, i[::-1]))
        assert got.shape == (2, 3)
        np.testing.assert_array_equal(got, entail_backward(words[i], words[i[::-1]]))

    def test_empty_pairs(self):
        words = _word_table(2)
        empty = np.array([], dtype=np.int64)
        assert entail_forward(words, words, pairs=(empty, empty)).shape == (0,)

    def test_rejects_mismatched_dimensions(self):
        with pytest.raises(DimensionMismatchError, match="pairs="):
            entail_backward(np.zeros((3, 2)), np.zeros((3, 4)), pairs=([0], [1]))
        with pytest.raises(DimensionMismatchError, match="pairs="):
            entail_forward(np.zeros(2), np.zeros(2), pairs=(0, 1))

    def test_rejects_bad_indices(self):
        words = np.zeros((3, 2))
        with pytest.raises(ValueError, match="integer index arrays"):
            entail_factorized(words, words, pairs=([0.0], [1.0]))
        with pytest.raises(ValueError, match="integer index arrays"):
            entail_factorized(words, words, pairs=([0, 1], [1]))
        with pytest.raises(IndexError):
            entail_factorized(words, words, pairs=([0], [3]))
        with pytest.raises(IndexError, match="non-negative"):
            entail_factorized(words, words, pairs=([0], [-1]))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="finite"):
            entail_forward(np.array([[np.nan]]), np.zeros((1, 1)), pairs=([0], [0]))

    def test_tables_evaluated_once_per_distinct_array(self, monkeypatch):
        calls = []
        real = core._tables

        def counting(v, *names):
            calls.append(names)
            return real(v, *names)

        monkeypatch.setattr(core, "_tables", counting)
        words = _word_table(3)
        entail_factorized(words, words, pairs=(self.I, self.J))
        assert calls == [("sigmoid_neg", "sigmoid")]
        calls.clear()
        entail_forward(words, words.copy())  # aligned, two arrays: one table each
        assert sorted(calls) == [("log_sigmoid",), ("sigmoid",)]


class TestGivenTables:
    """``tables=`` hands an operator the tables of its one array: it builds none."""

    ALL = ("log_sigmoid", "log_sigmoid_neg", "sigmoid", "sigmoid_neg")

    @pytest.mark.parametrize("op", sorted(OPS))
    @pytest.mark.parametrize("paired", [False, True], ids=["aligned", "pairs"])
    def test_scores_are_the_built_tables_scores(self, monkeypatch, op, paired):
        words = _word_table(5)
        pairs = (TestPairs.I, TestPairs.J) if paired else None
        tables = core._tables(words, *self.ALL)
        want = OPS[op](words, words, pairs=pairs)
        monkeypatch.setattr(core, "_tables", lambda v, *names: pytest.fail(names))
        got = OPS[op](words, words, pairs=pairs, tables=tables)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    def test_rejects_tables_of_another_shape_or_two_arrays(self):
        words = _word_table(3)
        tables = core._tables(words, *self.ALL)
        with pytest.raises(ValueError, match="tables="):
            entail_backward(words[:4], words[:4], tables=tables)
        with pytest.raises(ValueError, match="tables="):
            entail_backward(words, words.copy(), tables=tables)
        with pytest.raises(ValueError, match="sigmoid_neg and sigmoid"):
            entail_factorized(words, words, tables={"sigmoid": tables["sigmoid"]})

    def test_checks_its_array_before_reading_tables(self):
        words = _word_table(3)
        tables = core._tables(words, *self.ALL)
        words[0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            entail_forward(words, words, tables=tables)
