import numpy as np
import pytest

from entvec.embeddings import EmbeddingTable
from entvec.evaluation import WordPair, WordPairDataset, make_folds, resolve_pairs
from entvec.training import (
    MappingModel,
    TrainConfig,
    init_mapping,
    load_model,
    loss_and_grad,
    predict,
    raw_scores,
    save_model,
    train,
)


def random_batch(rng, n, d, labels=None):
    batch = []
    for i in range(n):
        label = int(rng.integers(0, 2)) if labels is None else labels[i]
        pair = WordPair(f"hypo{i}", f"hyper{i}", label)
        batch.append((pair, rng.normal(size=d), rng.normal(size=d)))
    return batch


def separable_setup(n_pairs=16, d=4, seed=42):
    """Folds and resolved rows of vocab-disjoint pairs that dif separates perfectly."""
    rng = np.random.default_rng(seed)
    tokens, rows, pairs = [], [], []
    for i in range(n_pairs):
        label = i % 2
        hypo = rng.normal(size=d)
        # positive pairs put the hypernym well above the hyponym coordinatewise
        hyper = hypo + (3.0 if label else -3.0) + 0.1 * rng.normal(size=d)
        tokens += [f"hypo{i}", f"hyper{i}"]
        rows += [hypo, hyper]
        pairs.append(WordPair(f"hypo{i}", f"hyper{i}", label))
    table = EmbeddingTable(tokens, np.array(rows, dtype=np.float32))
    folds = make_folds(WordPairDataset(pairs), 2, seed=0).folds
    return folds, resolve_pairs(pairs, table)[2:]


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert (cfg.step_size, cfg.epochs, cfg.batch_size) == (0.1, 50, 32)
        assert cfg.seed == 0 and cfg.l2 == 0.0 and cfg.d_out is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"step_size": 0.0},
            {"epochs": 0},
            {"batch_size": 0},
            {"l2": -0.1},
            {"d_out": 0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)


class TestMappingModel:
    def test_shape_properties(self):
        model = MappingModel(W=np.zeros((3, 5)), tau=0.5)
        assert model.d_out == 3 and model.d_in == 5

    @pytest.mark.parametrize("op", ["forward", "backward", "factorized"])
    def test_rejects_long_op_spellings(self, op):
        with pytest.raises(ValueError, match=op):
            MappingModel(W=np.zeros((1, 1)), tau=0.0, op=op)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            MappingModel(W=np.zeros(3), tau=0.0)
        with pytest.raises(ValueError):
            MappingModel(W=np.full((2, 2), np.nan), tau=0.0)
        with pytest.raises(ValueError):
            MappingModel(W=np.zeros((2, 2)), tau=0.0, op="cosine")
        for tau in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="tau must be finite"):
                MappingModel(W=np.eye(2), tau=tau)


class TestInitMapping:
    def test_deterministic(self):
        a = init_mapping(10, 5, seed=3)
        b = init_mapping(10, 5, seed=3)
        np.testing.assert_array_equal(a.W, b.W)

    def test_shape_and_bounds(self):
        model = init_mapping(300, 20, seed=0)
        assert model.W.shape == (20, 300)
        limit = 1.0 / np.sqrt(300)
        assert np.all(np.abs(model.W) <= limit)
        assert model.tau == 0.0

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            init_mapping(0, 5, seed=0)


class TestScoring:
    def test_zero_map_predicts_half(self):
        model = MappingModel(W=np.zeros((2, 3)), tau=0.0, op="dif")
        assert predict(model, np.ones(3), np.zeros(3)) == 0.5

    @pytest.mark.parametrize("op", ["fwd", "bwd", "fact", "dif"])
    def test_predicts_one_probability_per_row(self, op):
        rng = np.random.default_rng(7)
        model = MappingModel(W=rng.normal(size=(3, 4)), tau=-0.3, op=op)
        h, g = rng.normal(size=(5, 4)), rng.normal(size=(5, 4))
        got = predict(model, h, g)
        assert got.shape == (5,)
        for k in range(5):
            one = predict(model, h[k], g[k])
            assert isinstance(one, float)
            assert got[k] == pytest.approx(one, abs=1e-12, rel=1e-12)

    def test_dif_scores_sum_of_mapped_differences(self):
        rng = np.random.default_rng(42)
        model = MappingModel(W=rng.normal(size=(3, 4)), tau=0.0, op="dif")
        h, g = rng.normal(size=4), rng.normal(size=4)
        expect = float(np.sum(model.W @ g - model.W @ h))
        assert raw_scores(model, h, g)[0] == pytest.approx(expect, rel=1e-12)

    def test_dif_is_linear_in_w(self):
        rng = np.random.default_rng(42)
        w = rng.normal(size=(3, 4))
        h, g = rng.normal(size=4), rng.normal(size=4)
        s1 = raw_scores(MappingModel(w, 0.0, op="dif"), h, g)[0]
        s2 = raw_scores(MappingModel(2 * w, 0.0, op="dif"), h, g)[0]
        assert s2 == pytest.approx(2 * s1, rel=1e-12)

    def test_entailment_ops_match_identity_map(self):
        from entvec.interpret import LOG_ODDS, pair_score

        rng = np.random.default_rng(42)
        h, g = rng.normal(size=5), rng.normal(size=5)
        for op in ("fwd", "bwd", "fact"):
            model = MappingModel(W=np.eye(5), tau=0.0, op=op)
            assert raw_scores(model, h, g)[0] == pytest.approx(
                pair_score(h, g, LOG_ODDS, op), rel=1e-12
            )

    def test_saturated_fact_matches_core(self):
        from entvec.core import entail_factorized

        h = np.array([[-700.0, 0.5], [0.0, 0.0]])
        g = np.array([[700.0, -0.5], [0.0, 0.0]])
        model = MappingModel(W=np.eye(2), tau=0.0, op="fact")
        scores = raw_scores(model, h, g)
        assert np.all(np.isfinite(scores))
        np.testing.assert_array_equal(scores, entail_factorized(h, g))

    def test_batch_rows_are_independent(self):
        rng = np.random.default_rng(42)
        model = MappingModel(W=rng.normal(size=(4, 4)), tau=0.0, op="bwd")
        h = rng.normal(size=(6, 4))
        g = rng.normal(size=(6, 4))
        batch = raw_scores(model, h, g)
        singles = [raw_scores(model, h[i], g[i])[0] for i in range(6)]
        np.testing.assert_allclose(batch, singles, rtol=1e-12)

    def test_dim_mismatch(self):
        model = MappingModel(W=np.zeros((2, 3)), tau=0.0)
        with pytest.raises(ValueError, match="expects 3"):
            raw_scores(model, np.ones(4), np.ones(4))

    @pytest.mark.parametrize("op", ["fwd", "bwd", "fact", "dif"])
    def test_row_count_mismatch_is_rejected_for_every_op(self, op):
        from entvec.core import DimensionMismatchError

        model = MappingModel(W=np.eye(2), tau=0.0, op=op)
        with pytest.raises(DimensionMismatchError,
                           match=r"^hypo has shape \(1, 2\) but hyper has shape \(3, 2\)$"):
            raw_scores(model, np.ones(2), np.ones((3, 2)))


class TestLossAndGrad:
    @pytest.mark.parametrize("op", ["fwd", "bwd", "fact", "dif"])
    def test_gradients_match_finite_differences(self, op):
        rng = np.random.default_rng(42)
        d_in, d_out, n = 4, 3, 6
        batch = random_batch(rng, n, d_in)
        model = MappingModel(W=rng.normal(size=(d_out, d_in)), tau=0.2, op=op)
        loss, grad_w, grad_tau = loss_and_grad(model, batch)
        h = 1e-6

        def loss_at(w, tau):
            return loss_and_grad(MappingModel(w, tau, op=op), batch)[0]

        fd_tau = (loss_at(model.W, model.tau + h) - loss_at(model.W, model.tau - h)) / (2 * h)
        assert grad_tau == pytest.approx(fd_tau, rel=1e-4, abs=1e-10)
        for r in range(d_out):
            for c in range(d_in):
                up, dn = model.W.copy(), model.W.copy()
                up[r, c] += h
                dn[r, c] -= h
                fd = (loss_at(up, model.tau) - loss_at(dn, model.tau)) / (2 * h)
                assert grad_w[r, c] == pytest.approx(fd, rel=1e-4, abs=1e-10)

    def test_l2_adds_penalty_and_gradient(self):
        rng = np.random.default_rng(42)
        batch = random_batch(rng, 4, 3)
        model = MappingModel(W=rng.normal(size=(2, 3)), tau=0.0, op="dif")
        plain_loss, plain_gw, _ = loss_and_grad(model, batch)
        reg_loss, reg_gw, _ = loss_and_grad(model, batch, l2=0.5)
        assert reg_loss == pytest.approx(plain_loss + 0.5 * np.sum(model.W**2), rel=1e-12)
        np.testing.assert_allclose(reg_gw, plain_gw + model.W, rtol=1e-12)

    def test_empty_batch(self):
        model = MappingModel(W=np.zeros((1, 1)), tau=0.0)
        with pytest.raises(ValueError, match="non-empty"):
            loss_and_grad(model, [])

    def test_perfect_predictions_have_small_loss(self):
        pair_pos = WordPair("a", "b", 1)
        pair_neg = WordPair("c", "d", 0)
        model = MappingModel(W=np.eye(1), tau=0.0, op="dif")
        batch = [(pair_pos, np.array([0.0]), np.array([30.0])),
                 (pair_neg, np.array([30.0]), np.array([0.0]))]
        loss, _, _ = loss_and_grad(model, batch)
        assert loss < 1e-10


class TestTrain:
    def test_loss_decreases_and_separates(self):
        folds, rows = separable_setup()
        words, hi, gi, labels = rows
        cfg = TrainConfig(epochs=40, batch_size=4, step_size=0.05)
        results = train(folds, rows, cfg, op="dif")
        assert len(results) == 2
        for fold, trained in zip(folds, results):
            assert trained.history[-1] < trained.history[0]
            # every training pair ends up on the right side of tau
            for i in fold.train:
                p = predict(trained.model, words[hi[i]], words[gi[i]])
                assert (p > 0.5) == bool(labels[i])

    def test_bitwise_deterministic(self):
        folds, rows = separable_setup()
        cfg = TrainConfig(epochs=3, batch_size=4)
        a = train(folds, rows, cfg, op="bwd")
        b = train(folds, rows, cfg, op="bwd")
        for fa, fb in zip(a, b):
            np.testing.assert_array_equal(fa.model.W, fb.model.W)
            assert fa.model.tau == fb.model.tau
            assert fa.history == fb.history

    def test_seed_changes_result(self):
        folds, rows = separable_setup()
        a = train(folds, rows, TrainConfig(epochs=2, seed=0), op="dif")
        b = train(folds, rows, TrainConfig(epochs=2, seed=1), op="dif")
        assert not np.array_equal(a[0].model.W, b[0].model.W)

    def test_d_out_override(self):
        folds, rows = separable_setup()
        results = train(folds, rows, TrainConfig(epochs=1, d_out=2), op="dif")
        assert results[0].model.W.shape == (2, rows[0].shape[1])

    def test_fold_with_no_usable_pairs(self):
        # every pair shares "hub", so lexical filtering empties each fold's training set
        pairs = [WordPair("hub", f"w{i}", i % 2) for i in range(4)]
        table = EmbeddingTable(["hub"] + [f"w{i}" for i in range(4)],
                               np.ones((5, 4), dtype=np.float32))
        folds = make_folds(WordPairDataset(pairs), 2, seed=0).folds
        assert [fold.train for fold in folds] == [(), ()]
        with pytest.raises(ValueError, match="fold 0 has no training pairs"):
            train(folds, resolve_pairs(pairs, table)[2:], TrainConfig(epochs=1), op="dif")

    def test_history_length_and_count(self):
        folds, rows = separable_setup()
        results = train(folds, rows, TrainConfig(epochs=5), op="fact")
        for fold, trained in zip(folds, results):
            assert len(trained.history) == 5
            assert trained.n_train == len(fold.train) > 0


class TestModelSerialization:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(42)
        model = MappingModel(W=rng.normal(size=(3, 5)), tau=-0.75, op="fact")
        path = tmp_path / "fold0.model"
        save_model(model, path)
        loaded = load_model(path)
        np.testing.assert_array_equal(loaded.W, model.W)
        assert loaded.tau == model.tau
        assert loaded.op == "fact"

    def test_round_trip_preserves_predictions(self, tmp_path):
        rng = np.random.default_rng(42)
        model = MappingModel(W=rng.normal(size=(4, 4)), tau=0.3, op="bwd")
        path = tmp_path / "m.model"
        save_model(model, path)
        loaded = load_model(path)
        h, g = rng.normal(size=4), rng.normal(size=4)
        assert predict(loaded, h, g) == predict(model, h, g)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "m.model"
        path.write_text("3 5 0.0\n")
        with pytest.raises(ValueError, match="header"):
            load_model(path)

    def test_row_count_mismatch(self, tmp_path):
        path = tmp_path / "m.model"
        path.write_text("2 2 0.0 dif\n1 2\n")
        with pytest.raises(ValueError, match="promises 2 rows"):
            load_model(path)

    def test_row_width_mismatch(self, tmp_path):
        path = tmp_path / "m.model"
        path.write_text("1 3 0.0 dif\n1 2\n")
        with pytest.raises(ValueError, match="expected 3 values"):
            load_model(path)

    def test_bad_value_names_its_line(self, tmp_path):
        path = tmp_path / "m.model"
        path.write_text("2 2 0.0 dif\n1 2\n\n1 x\n")
        with pytest.raises(ValueError, match="^line 4: could not convert string to float: 'x'$"):
            load_model(path)

    @pytest.mark.parametrize("tau", ["nan", "inf", "-inf"])
    def test_non_finite_tau(self, tmp_path, tau):
        path = tmp_path / "m.model"
        path.write_text(f"2 2 {tau} bwd\n1 0\n0 1\n")
        with pytest.raises(ValueError, match="tau must be finite"):
            load_model(path)
