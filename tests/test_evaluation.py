import itertools
import pathlib

import numpy as np
import pytest

from entvec import core, evaluation, interpret
from entvec.embeddings import EmbeddingTable
from entvec.evaluation import (
    ALL_METHODS,
    BASELINE_METHODS,
    OPERATOR_METHODS,
    DatasetFormatError,
    EvalReport,
    EvalRequest,
    EvalRow,
    WordPair,
    WordPairDataset,
    _hyper_rank_weights,
    baseline_score,
    direction_accuracy,
    fifty_percent_accuracy,
    load_pairs,
    make_folds,
    resolve_pairs,
    run_eval,
)
from entvec.training import TrainConfig

DATA = pathlib.Path(__file__).parent / "data"


def toy_fixture():
    from entvec.embeddings import load_text

    return load_pairs(DATA / "toy_pairs.tsv"), load_text(DATA / "toy_vectors.txt")


class TestWordPair:
    def test_valid(self):
        pair = WordPair("dog", "animal", 1)
        assert pair.tokens == frozenset({"dog", "animal"})

    @pytest.mark.parametrize(
        "args", [("", "animal", 1), ("dog", "dog", 1), ("dog", "animal", 2)]
    )
    def test_invalid(self, args):
        with pytest.raises(ValueError):
            WordPair(*args)


class TestLoadPairs:
    def test_reads_pairs_in_order(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("dog\tanimal\t1\nanimal\tdog\t0\n")
        ds = load_pairs(path)
        assert [(p.hypo, p.hyper, p.label) for p in ds.pairs] == [
            ("dog", "animal", 1),
            ("animal", "dog", 0),
        ]
        assert ds.folds is None

    def test_skips_blank_lines(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("\ndog\tanimal\t1\n\n")
        assert len(load_pairs(path)) == 1

    def test_wrong_column_count(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("dog\tanimal\t1\ndog animal 1\n")
        with pytest.raises(DatasetFormatError, match="3 tab-separated columns") as exc_info:
            load_pairs(path)
        assert exc_info.value.line == 2

    def test_bad_label(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("dog\tanimal\tmaybe\n")
        with pytest.raises(DatasetFormatError, match="bad label") as exc_info:
            load_pairs(path)
        assert exc_info.value.line == 1

    def test_repeated_word(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("dog\tdog\t1\n")
        with pytest.raises(DatasetFormatError) as exc_info:
            load_pairs(path)
        assert exc_info.value.line == 1

    @pytest.mark.parametrize("head, line", [
        (b"dog\tanimal\t1\n\n", 3),
        (b"dog\tanimal\t1\r\ncat\tanimal\t1\r", 3),
        (b"".join(b"w%d\tanimal\t1\n" % i for i in range(3000)), 3001),  # past the first read
    ])
    def test_invalid_utf8_names_the_line(self, tmp_path, head, line):
        path = tmp_path / "pairs.tsv"
        path.write_bytes(head + b"c\xffat\tanimal\t1\n")
        with pytest.raises(DatasetFormatError, match="not valid UTF-8") as exc_info:
            load_pairs(path)
        assert exc_info.value.line == line

    def test_positives_helper(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("dog\tanimal\t1\nanimal\tdog\t0\n")
        ds = load_pairs(path)
        assert [p.hypo for p in ds.positives()] == ["dog"]


class TestFiftyPercentAccuracy:
    def test_perfect_separation(self):
        acc, threshold = fifty_percent_accuracy([3, 2, 1, 0], [1, 1, 0, 0])
        assert acc == 1.0
        assert threshold == 2.0

    def test_interleaved(self):
        acc, _ = fifty_percent_accuracy([3, 2, 1, 0], [1, 0, 1, 0])
        assert acc == 0.5

    def test_all_equal_scores_stable_ties(self):
        # stable order predicts the first floor(n/2) items positive
        acc, threshold = fifty_percent_accuracy([7.0] * 4, [1, 0, 1, 0])
        assert acc == 0.5
        assert threshold == 7.0

    def test_odd_length(self):
        # top floor(5/2) = 2 predicted positive
        acc, threshold = fifty_percent_accuracy([5, 4, 3, 2, 1], [1, 1, 0, 0, 0])
        assert acc == 1.0
        assert threshold == 4.0

    def test_single_item(self):
        acc, threshold = fifty_percent_accuracy([1.0], [0])
        assert acc == 1.0
        assert threshold == np.inf

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(42)
        scores = rng.normal(size=20)
        labels = rng.integers(0, 2, size=20)
        base, _ = fifty_percent_accuracy(scores, labels)
        for transform in (np.exp, lambda s: 3 * s + 7, np.arctan):
            acc, _ = fifty_percent_accuracy(transform(scores), labels)
            assert acc == base

    def test_negation_flips_accuracy(self):
        rng = np.random.default_rng(42)
        scores = rng.permutation(20).astype(float)  # even n, distinct
        labels = rng.integers(0, 2, size=20)
        acc, _ = fifty_percent_accuracy(scores, labels)
        neg_acc, _ = fifty_percent_accuracy(-scores, labels)
        assert neg_acc == pytest.approx(1.0 - acc)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            fifty_percent_accuracy([], [])
        with pytest.raises(ValueError):
            fifty_percent_accuracy([1.0, 2.0], [1])
        with pytest.raises(ValueError):
            fifty_percent_accuracy([np.nan, 1.0], [1, 0])
        with pytest.raises(ValueError):
            fifty_percent_accuracy([1.0, 2.0], [1, 2])


class TestDirectionAccuracy:
    def test_single_correct_pair(self):
        scores = {("dog", "animal"): 0.8, ("animal", "dog"): 0.3}
        acc = direction_accuracy(lambda a, b: scores[(a, b)], [WordPair("dog", "animal", 1)])
        assert acc == 1.0

    def test_symmetric_scorer_is_half(self):
        vecs = {"dog": np.array([1.0, 2.0]), "animal": np.array([3.0, 4.0]),
                "car": np.array([-1.0, 5.0]), "vehicle": np.array([0.5, 0.5])}
        positives = [WordPair("dog", "animal", 1), WordPair("car", "vehicle", 1)]
        acc = direction_accuracy(
            lambda a, b: baseline_score("dot", vecs[a], vecs[b]), positives
        )
        assert acc == 0.5

    def test_one_correct_one_tie(self):
        scores = {
            ("a", "b"): 1.0, ("b", "a"): 0.0,  # correct
            ("c", "d"): 2.0, ("d", "c"): 2.0,  # tie
        }
        positives = [WordPair("a", "b", 1), WordPair("c", "d", 1)]
        assert direction_accuracy(lambda x, y: scores[(x, y)], positives) == 0.75

    def test_rejects_empty_or_negative(self):
        with pytest.raises(ValueError):
            direction_accuracy(lambda a, b: 0.0, [])
        with pytest.raises(ValueError):
            direction_accuracy(lambda a, b: 0.0, [WordPair("a", "b", 0)])


class TestMakeFolds:
    def test_disjoint_vocab_keeps_training_pairs(self):
        ds = WordPairDataset([WordPair("a", "b", 1), WordPair("c", "d", 1)])
        folded = make_folds(ds, 2, seed=0)
        for fold in folded.folds:
            assert len(fold.test) == 1
            assert len(fold.train) == 1
            assert fold.n_filtered == 0

    def test_shared_token_empties_training_sets(self):
        ds = WordPairDataset([WordPair("a", "b", 1), WordPair("a", "c", 1)])
        folded = make_folds(ds, 2, seed=0)
        for fold in folded.folds:
            assert fold.train == ()
            assert fold.n_filtered == 1

    def test_partition_and_vocab_disjointness(self):
        rng = np.random.default_rng(42)
        pairs = []
        for i in range(40):
            a, b = f"w{i}", f"w{rng.integers(40, 60)}"
            if a != b:
                pairs.append(WordPair(a, b, int(rng.integers(0, 2))))
        ds = WordPairDataset(pairs)
        folded = make_folds(ds, 5, seed=7)
        all_test = sorted(i for f in folded.folds for i in f.test)
        assert all_test == list(range(len(pairs)))
        for fold in folded.folds:
            test_vocab = set().union(*(pairs[i].tokens for i in fold.test))
            for i in fold.train:
                assert not (pairs[i].tokens & test_vocab)
            assert fold.n_filtered == len(pairs) - len(fold.test) - len(fold.train)

    def test_deterministic(self):
        pairs = [WordPair(f"a{i}", f"b{i}", 1) for i in range(9)]
        first = make_folds(WordPairDataset(list(pairs)), 3, seed=5)
        second = make_folds(WordPairDataset(list(pairs)), 3, seed=5)
        assert [f.test for f in first.folds] == [f.test for f in second.folds]

    def test_rejects_refolding(self):
        ds = make_folds(WordPairDataset([WordPair("a", "b", 1), WordPair("c", "d", 1)]), 2, 0)
        with pytest.raises(ValueError, match="already has folds"):
            make_folds(ds, 2, 0)

    def test_rejects_bad_k(self):
        ds = WordPairDataset([WordPair("a", "b", 1), WordPair("c", "d", 1)])
        with pytest.raises(ValueError):
            make_folds(ds, 1, 0)
        with pytest.raises(ValueError):
            make_folds(ds, 3, 0)


class TestBaselineScore:
    def test_dot(self):
        assert baseline_score("dot", [1, 2], [3, 4]) == 11.0

    def test_dif_is_hyper_minus_hypo(self):
        assert baseline_score("dif", [1, 1], [2, 3]) == 3.0

    def test_weighted_cos_self_similarity(self):
        assert baseline_score("wcos", [2, 1], [2, 1]) == pytest.approx(1.0, rel=1e-12)

    def test_cosine_is_not_a_baseline(self):
        # unweighted cosine is no eval method, so baseline_score refuses it too
        with pytest.raises(ValueError, match="'cosine'; expected dot, dif or wcos"):
            baseline_score("cosine", [1.0, 1.0], [2.0, 2.0])
        assert BASELINE_METHODS == ("dot", "dif", "wcos")

    def test_weighted_cos_weights_follow_hypernym_ranks(self):
        # hyper [3, 1]: weights (2-0)/2=1 for dim 0 and (2-1)/2=0.5 for dim 1
        h, g = np.array([1.0, 2.0]), np.array([3.0, 1.0])
        num = 1.0 * 1 * 3 + 0.5 * 2 * 1
        den = np.sqrt(1 * 1 + 0.5 * 4) * np.sqrt(1 * 9 + 0.5 * 1)
        assert baseline_score("wcos", h, g) == pytest.approx(num / den, rel=1e-12)

    @pytest.mark.parametrize("hyper", [
        [2.0, 1.0, 2.0, 0.5, 1.0],
        [0.0, -0.0, 1.0, -0.0],
        [np.inf, -np.inf, 3.0, np.inf, -np.inf],
        [np.nan, 1.0, np.nan, -2.0],
        [[1.0, 3.0, 2.0], [1.0, 1.0, 1.0], [0.0, -0.0, 5.0], [np.nan, 2.0, 1.0],
         [-np.inf, np.inf, 0.0], [4.0, -1.0, 4.0]],
        np.random.default_rng(8).integers(-2, 3, size=(40, 7)).astype(float),
        np.where(np.arange(64) % 9 == 4, np.nan, np.random.default_rng(9).normal(size=64)),
    ], ids=["repeats", "signed-zeros", "infinities", "nan", "mixed-rows", "many-ties",
            "nans-in-a-long-row"])
    def test_rank_weights_equal_the_stable_sort(self, hyper):
        # equal values rank in index order: the weights of a stable argsort
        hyper = np.asarray(hyper)
        d = hyper.shape[-1]
        order = np.argsort(-hyper, axis=-1, kind="stable")
        ranks = np.empty_like(order)
        np.put_along_axis(ranks, order, np.broadcast_to(np.arange(d), hyper.shape).copy(),
                          axis=-1)
        want = (d - ranks) / d
        assert _hyper_rank_weights(hyper).tobytes() == want.tobytes()

    def test_zero_vector_errors(self):
        # a zero vector on either side has a zero weighted norm
        with pytest.raises(ValueError, match="wcos is undefined for zero-weight-norm"):
            baseline_score("wcos", [0.0, 0.0], [1.0, 1.0])
        with pytest.raises(ValueError, match="wcos is undefined for zero-weight-norm"):
            baseline_score("wcos", [1.0, 1.0], [0.0, 0.0])

    def test_batched_matches_loop(self):
        rng = np.random.default_rng(42)
        h = rng.normal(size=(5, 3))
        g = rng.normal(size=(5, 3))
        for kind in BASELINE_METHODS:
            batch = baseline_score(kind, h, g)
            singles = [baseline_score(kind, h[i], g[i]) for i in range(5)]
            np.testing.assert_allclose(batch, singles, rtol=1e-12)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="euclid"):
            baseline_score("euclid", [1.0], [1.0])

    @pytest.mark.parametrize("kind", ["cos", "weighted_cos"])
    def test_rejects_other_spellings(self, kind):
        with pytest.raises(ValueError, match=kind):
            baseline_score(kind, [1.0, 2.0], [2.0, 1.0])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            baseline_score("dot", [1.0], [1.0, 2.0])
        for h, g in ((1.0, 2.0), ([], [])):  # 0-d vectors, and vectors of no dimension
            with pytest.raises(ValueError, match="^vectors must have at least one dimension$"):
                baseline_score("dot", h, g)


class TestBaselinePairs:
    I = np.array([0, 1, 2, 0, 3, 3, 1, 2])
    J = np.array([1, 0, 2, 2, 0, 3, 3, 3])

    @staticmethod
    def _words():
        words = np.random.default_rng(42).normal(size=(4, 5))
        words[2] = [1.0, 2.0, 1.0, 2.0, 1.0]  # tied coordinates: wcos ranks by input order
        words[3] = 0.5                        # all tied
        return words

    @pytest.mark.parametrize("kind", BASELINE_METHODS)
    def test_matches_per_pair_calls(self, kind):
        words = self._words()
        got = baseline_score(kind, words, words, pairs=(self.I, self.J))
        np.testing.assert_array_equal(got, baseline_score(kind, words[self.I], words[self.J]))

    @pytest.mark.parametrize("kind", BASELINE_METHODS)
    def test_two_tables_and_scalar_indices(self, kind):
        hypo, hyper = self._words(), self._words()[::-1].copy()
        got = baseline_score(kind, hypo, hyper, pairs=(self.I, self.J))
        np.testing.assert_array_equal(got, baseline_score(kind, hypo[self.I], hyper[self.J]))
        one = baseline_score(kind, hypo, hyper, pairs=(2, 3))
        assert isinstance(one, float) and one == baseline_score(kind, hypo[2], hyper[3])

    def test_rejects_mismatched_tables(self):
        with pytest.raises(ValueError, match="pairs="):
            baseline_score("dot", np.ones((2, 3)), np.ones((2, 4)), pairs=([0], [1]))

    def test_wcos_is_the_per_pair_formula(self):
        # the hypernym norm, taken once per word, is the bits of one taken per pair
        words = self._words()
        got = baseline_score("wcos", words, words, pairs=(self.I, self.J))
        for k, (i, j) in enumerate(zip(self.I, self.J)):
            h, g = words[i], words[j]
            w = _hyper_rank_weights(g)
            want = np.sum(w * h * g) / (np.sqrt(np.sum(w * h * h)) * np.sqrt(np.sum(w * g * g)))
            assert got[k] == want, (i, j)

    def test_zero_norm_still_errors(self):
        words = np.array([[1.0, 2.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="zero-weight-norm"):
            baseline_score("wcos", words, words, pairs=([0], [1]))


def shared_word_fixture():
    """Pairs over few words, each word in several pairs on both sides, two OOV pairs."""
    rng = np.random.default_rng(3)
    words = [f"w{k}" for k in range(8)]
    table = EmbeddingTable(words, rng.normal(scale=2.0, size=(8, 6)).astype(np.float32))
    pairs = [WordPair(f"w{a}", f"w{b}", int(rng.integers(2)))
             for a, b in rng.integers(0, 8, size=(40, 2)) if a != b]
    pairs += [WordPair("w1", "absent", 1), WordPair("missing", "w2", 0)]
    return WordPairDataset(pairs), table


UNSUPERVISED = tuple(OPERATOR_METHODS) + ("dot", "dif", "wcos")


class TestRunEval:
    def test_matches_golden_report(self):
        dataset, table = toy_fixture()
        request = EvalRequest(
            dataset=dataset,
            embeddings=table,
            methods=("logodds-bwd", "logodds-fact", "dot", "dif", "wcos"),
        )
        report = run_eval(request)
        golden = (DATA / "toy_report_golden.csv").read_text()
        assert report.to_csv() == golden

    def test_reverses_only_the_positive_pairs(self, monkeypatch):
        # direction accuracy reads the reversed scores of the positive pairs alone
        dataset, table = toy_fixture()
        labels = resolve_pairs(dataset.pairs, table)[-1]
        sizes = []
        for module, name in ((interpret, "pair_score"), (evaluation, "baseline_score")):
            def spy(*args, score=getattr(module, name), **kwargs):
                sizes.append([p.size for p in kwargs["pairs"]])
                return score(*args, **kwargs)
            monkeypatch.setattr(module, name, spy)
        run_eval(EvalRequest(dataset, table, methods=("logodds-bwd", "dot", "wcos")))
        assert 0 < labels.sum() < labels.size
        assert sizes == [[labels.size + labels.sum()] * 2] * 3

    def test_counts_oov_drops(self):
        dataset, table = toy_fixture()
        report = run_eval(EvalRequest(dataset, table, methods=("dot",)))
        row = report.rows[0]
        assert row.n_scored == 6
        assert row.n_dropped_oov == 1  # the pair with an unlisted word

    def test_deterministic_and_thread_invariant(self):
        dataset, table = toy_fixture()
        methods = ("logodds-bwd", "dot", "wcos", "dif")
        serial = run_eval(EvalRequest(dataset, table, methods=methods, threads=1))
        threaded = run_eval(EvalRequest(dataset, table, methods=methods, threads=4))
        assert serial.to_csv() == threaded.to_csv()

    def test_shared_words_thread_invariant(self):
        dataset, table = shared_word_fixture()
        serial = run_eval(EvalRequest(dataset, table, methods=UNSUPERVISED, shift=0.5))
        threaded = run_eval(EvalRequest(dataset, table, methods=UNSUPERVISED, shift=0.5,
                                        threads=2))
        assert serial.to_csv() == threaded.to_csv()
        assert all(r.n_dropped_oov == 2 for r in serial.rows)

    def test_shared_words_match_per_pair_scores(self):
        dataset, table = shared_word_fixture()
        kept = [p for p in dataset.pairs if p.hypo in table and p.hyper in table]
        hypo = np.stack([table.lookup(p.hypo) for p in kept])
        hyper = np.stack([table.lookup(p.hyper) for p in kept])
        labels = np.array([p.label for p in kept])
        report = run_eval(EvalRequest(dataset, table, methods=UNSUPERVISED, shift=0.5))
        for row in report.rows:
            if row.method in OPERATOR_METHODS:
                interp, op = OPERATOR_METHODS[row.method]
                if interp.kind == "unkdup":
                    interp = interpret.Interpretation("unkdup", 0.5)
                fwd = interpret.pair_score(hypo, hyper, interp, op)
                rev = interpret.pair_score(hyper, hypo, interp, op)
            else:
                fwd = baseline_score(row.method, hypo, hyper)
                rev = baseline_score(row.method, hyper, hypo)
            acc50, threshold = fifty_percent_accuracy(fwd, labels)
            pos = labels == 1
            credit = np.where(fwd[pos] > rev[pos], 1.0, np.where(fwd[pos] == rev[pos], 0.5, 0.0))
            assert (row.acc50, row.threshold) == (acc50, threshold), row.method
            assert row.dir_acc == float(np.mean(credit)), row.method

    def test_all_pairs_oov(self):
        dataset, _ = toy_fixture()
        table = EmbeddingTable(["nothing"], np.ones((1, 2), dtype=np.float32))
        with pytest.raises(ValueError, match="out-of-vocabulary"):
            run_eval(EvalRequest(dataset, table, methods=("dot",)))

    def test_rejects_a_dataset_with_folds(self):
        # folds always come from k_folds and seed, over the in-vocabulary pairs
        dataset, table = toy_fixture()
        folded = make_folds(dataset, 2, seed=0)
        for methods in (("dot",), ("mapped-dif",)):
            with pytest.raises(ValueError, match="already has folds"):
                run_eval(EvalRequest(folded, table, methods=methods))

    def test_unknown_method(self):
        dataset, table = toy_fixture()
        with pytest.raises(ValueError, match="unknown method"):
            run_eval(EvalRequest(dataset, table, methods=("svm",)))

    def test_empty_methods(self):
        dataset, table = toy_fixture()
        with pytest.raises(ValueError, match="no methods"):
            run_eval(EvalRequest(dataset, table, methods=()))

    @pytest.mark.parametrize("threads", [0, -4])
    def test_rejects_fewer_than_one_thread(self, threads):
        dataset, table = toy_fixture()
        with pytest.raises(ValueError, match=f"threads must be >= 1, got {threads}"):
            run_eval(EvalRequest(dataset, table, methods=("dot", "dif"), threads=threads))

    def test_mapped_method_end_to_end(self):
        rng = np.random.default_rng(42)
        tokens, pairs = [], []
        for i in range(12):
            a, b = f"hypo{i}", f"hyper{i}"
            tokens += [a, b]
            pairs.append(WordPair(a, b, i % 2))
        table = EmbeddingTable(tokens, rng.normal(size=(24, 4)).astype(np.float32))
        report = run_eval(
            EvalRequest(
                WordPairDataset(pairs),
                table,
                methods=("mapped-dif",),
                k_folds=3,
                train_config=TrainConfig(epochs=3, batch_size=4),
            )
        )
        row = report.rows[0]
        assert row.method == "mapped-dif"
        assert row.n_scored == 12
        assert 0.0 <= row.acc50 <= 1.0 and 0.0 <= row.dir_acc <= 1.0

    def test_mapped_dif_rejects_a_non_finite_vector_as_bwd_does(self):
        # a text value beyond float32 loads as inf; dif is scored through core's
        # checks too, so it no longer reads its NaN scores as unassigned pairs
        rng = np.random.default_rng(42)
        matrix = rng.normal(size=(24, 4)).astype(np.float32)
        matrix[5, 2] = np.inf
        table = EmbeddingTable([f"w{k}" for k in range(24)], matrix)
        pairs = [WordPair(f"w{2 * k}", f"w{2 * k + 1}", k % 2) for k in range(12)]
        messages = []
        for method in ("mapped-bwd", "mapped-dif"):
            with pytest.raises(ValueError, match="contains non-finite values") as exc_info:
                run_eval(EvalRequest(WordPairDataset(pairs), table, methods=(method,), k_folds=3,
                                     train_config=TrainConfig(epochs=1, batch_size=4)))
            messages.append(str(exc_info.value))
        assert messages[0] == messages[1]

    def test_mapped_methods_resolve_the_pairs_once(self, monkeypatch):
        # training takes run_eval's rows, so each in-vocabulary word is gathered once
        gathers = []  # the tokens of each gather of table rows
        rows = EmbeddingTable.rows
        monkeypatch.setattr(EmbeddingTable, "rows", lambda self, tokens:
                            gathers.append(list(tokens)) or rows(self, tokens))
        rng = np.random.default_rng(3)
        tokens = [f"w{k}" for k in range(16)]
        table = EmbeddingTable(tokens, rng.normal(size=(16, 4)).astype(np.float32))
        pairs = [WordPair(f"w{2 * k}", f"w{2 * k + 1}", k % 2) for k in range(8)]
        pairs.append(WordPair("w0", "oov", 1))
        report = run_eval(EvalRequest(
            WordPairDataset(pairs), table, methods=("mapped-bwd", "mapped-fact", "mapped-dif"),
            k_folds=2, train_config=TrainConfig(epochs=1, batch_size=4), threads=2))
        assert [row.n_dropped_oov for row in report.rows] == [1, 1, 1]
        assert len(gathers) == 1
        assert sorted(gathers[0]) == sorted(tokens)

    def test_bad_shift_is_rejected_before_any_row_is_read(self, monkeypatch):
        dataset, table = toy_fixture()
        monkeypatch.setattr(EmbeddingTable, "lookup", lambda self, token: pytest.fail(token))
        monkeypatch.setattr(EmbeddingTable, "rows", lambda self, tokens: pytest.fail(tokens))
        with pytest.raises(ValueError, match="unkdup shift must be finite, got inf"):
            run_eval(EvalRequest(dataset, table, methods=("dot", "unkdup-bwd"),
                                 shift=float("inf")))


def saturated_word_fixture():
    """shared_word_fixture with saturating words: rows at +/-800, and a row of
    zeros and +/-800."""
    dataset, table = shared_word_fixture()
    matrix = np.array(table.matrix)
    matrix[0], matrix[1] = 800.0, -800.0
    matrix[2] = [0.0, -0.0, 800.0, -800.0, 1e-30, -1e-30]
    return dataset, EmbeddingTable(table.tokens, matrix)


class TestSharedTables:
    """run_eval builds the operator methods' tables once per copy base and hands
    each method its reading's set through ``pair_score(..., tables=)``."""

    @staticmethod
    def scored(monkeypatch, request):
        """run_eval's report, and (reading, op, pairs, tables, scores) per pair_score call."""
        calls = []
        real = interpret.pair_score

        def spy(hypo, hyper, interp, op, pairs=None, tables=None):
            scores = real(hypo, hyper, interp, op, pairs=pairs, tables=tables)
            calls.append((hypo, interp, op, pairs, tables, scores))
            return scores

        monkeypatch.setattr(interpret, "pair_score", spy)
        return run_eval(request), calls

    @pytest.mark.parametrize("shift", [1.0, 0.5])
    @pytest.mark.parametrize("threads", [1, 3])
    def test_scores_are_the_plain_pair_scores(self, monkeypatch, shift, threads):
        plain = interpret.pair_score
        dataset, table = saturated_word_fixture()
        report, calls = self.scored(monkeypatch, EvalRequest(
            dataset, table, methods=UNSUPERVISED, shift=shift, threads=threads))
        assert sorted((interp.kind, op) for _, interp, op, *_ in calls) == sorted(
            (interp.kind, op) for interp, op in OPERATOR_METHODS.values())
        for words, interp, op, pairs, tables, scores in calls:
            assert tables is not None, (interp, op)
            assert interp.shift == shift
            want = plain(words, words, interp, op, pairs=pairs)
            np.testing.assert_array_equal(scores, want, err_msg=f"{interp} {op}")
            assert np.all(np.isfinite(scores))
        serial = run_eval(EvalRequest(dataset, table, methods=UNSUPERVISED, shift=shift))
        assert report.to_csv() == serial.to_csv()

    def test_tables_built_once_per_copy_base(self, monkeypatch):
        calls = []
        real = core._tables
        monkeypatch.setattr(core, "_tables",
                            lambda v, *names: calls.append(names) or real(v, *names))
        dataset, table = shared_word_fixture()
        run_eval(EvalRequest(dataset, table, methods=UNSUPERVISED))
        # dup's copies serve logodds and dup; unkdup's copies serve its two operators
        assert len(calls) == 2
        assert sorted(calls) == [("log_sigmoid_neg", "sigmoid", "sigmoid_neg"),
                                 ("log_sigmoid_neg", "sigmoid_neg")]
        calls.clear()
        run_eval(EvalRequest(dataset, table, methods=("logodds-fwd", "logodds-bwd",
                                                      "logodds-fact", "dot")))
        assert len(calls) == 1

    @pytest.mark.parametrize("shift", [0.7, 1.0])
    def test_every_subset_of_operator_methods(self, monkeypatch, shift):
        plain = interpret.pair_score
        calls = []
        real = core._tables
        monkeypatch.setattr(core, "_tables",
                            lambda v, *names: calls.append(names) or real(v, *names))
        dataset, table = saturated_word_fixture()
        for size in range(1, len(OPERATOR_METHODS) + 1):
            for methods in itertools.combinations(OPERATOR_METHODS, size):
                calls.clear()
                report, scored = self.scored(monkeypatch, EvalRequest(
                    dataset, table, methods=methods, shift=shift))
                # one call per reading; logodds reads dup's when both are scored
                kinds = {OPERATOR_METHODS[m][0].kind for m in methods}
                assert len(calls) == len(kinds) - ({"logodds", "dup"} <= kinds), methods
                assert len(scored) == len(methods) == len(report.rows)
                for words, interp, op, pairs, _, scores in scored:
                    want = plain(words, words, interp, op, pairs=pairs)
                    assert scores.tobytes() == want.tobytes(), (methods, interp, op)
                # scored() wraps whatever pair_score is: unwrap it for the next subset
                monkeypatch.setattr(interpret, "pair_score", plain)

    @pytest.mark.parametrize("methods, value, message", [
        (("unkdup-fact", "dif", "logodds-bwd"), np.nan, "raw vector contains non-finite values"),
        (("dif", "unkdup-fact", "logodds-bwd"), np.nan, "scores contain NaN"),
        (("unkdup-fact", "dif", "logodds-bwd"), np.inf, "raw vector contains non-finite values"),
        (("dif", "unkdup-fact", "logodds-bwd"), np.inf, "raw vector contains non-finite values"),
        (("dup-bwd", "dot", "logodds-fwd"), -np.inf, "raw vector contains non-finite values"),
        (("dot", "dup-bwd", "logodds-fwd"), -np.inf, "raw vector contains non-finite values"),
    ], ids=["operator-first", "baseline-first", "operator-first-inf", "baseline-first-inf",
            "operator-first-neg-inf", "baseline-first-neg-inf"])
    @pytest.mark.parametrize("threads", [1, 3])
    def test_a_non_finite_word_fails_as_its_first_method(self, methods, value, message,
                                                         threads):
        # tables are built from the non-finite word without a warning (pyproject
        # turns warnings into errors); each method's own check reports it
        dataset, table = shared_word_fixture()
        matrix = np.array(table.matrix)
        matrix[3, 1] = value
        table = EmbeddingTable(table.tokens, matrix)
        with pytest.raises(ValueError) as exc_info:
            run_eval(EvalRequest(dataset, table, methods=methods, threads=threads))
        assert type(exc_info.value) is ValueError
        assert str(exc_info.value) == message

    def test_pair_score_checks_its_words_before_reading_tables(self):
        words = np.array([[1.0, -2.0], [0.5, 3.0]])
        tables = interpret._reading_tables(words, [(interpret.DUP, "bwd")])[interpret.DUP]
        words[1, 0] = np.inf
        with pytest.raises(ValueError, match="raw vector contains non-finite values"):
            interpret.pair_score(words, words, interpret.DUP, "bwd", pairs=([0], [1]),
                                 tables=tables)


class TestResolvePairs:
    def test_rows_and_order(self):
        table = EmbeddingTable(["a", "b", "c", "d"], np.arange(8, dtype=np.float32).reshape(4, 2))
        pairs = [WordPair("b", "a", 1), WordPair("x", "a", 1), WordPair("c", "b", 0),
                 WordPair("a", "d", 1), WordPair("d", "y", 0)]
        kept, n_dropped, words, hi, gi, labels = resolve_pairs(pairs, table)
        assert kept.tolist() == [0, 2, 3] and n_dropped == 2
        # hyponyms first, then hypernyms, each word at its first appearance
        assert words.dtype == np.float64
        np.testing.assert_array_equal(words, [table.lookup(w) for w in "bcad"])
        assert hi.tolist() == [0, 1, 2] and gi.tolist() == [2, 0, 3]
        assert labels.tolist() == [1, 0, 1]


class TestReportFormats:
    def test_csv_shape(self):
        report = EvalReport(rows=(EvalRow("dot", 0.5, 0.25, 1.0, 10, 2),))
        assert report.to_csv() == (
            "method,acc50,dir_acc,threshold,n,oov_dropped\n"
            "dot,0.5000,0.2500,1.0000,10,2\n"
        )

    def test_text_alignment(self):
        report = EvalReport(rows=(EvalRow("logodds-bwd", 1.0, 0.875, -0.25, 6, 1),))
        text = report.to_text()
        lines = text.splitlines()
        assert lines[0].startswith("method")
        assert "logodds-bwd" in lines[1]
        assert "0.8750" in lines[1]

    def test_method_token_inventory(self):
        assert set(ALL_METHODS) == {
            "logodds-fwd", "logodds-bwd", "logodds-fact", "dup-bwd", "unkdup-bwd",
            "unkdup-fact", "dot", "dif", "wcos", "mapped-fwd", "mapped-bwd",
            "mapped-fact", "mapped-dif",
        }
