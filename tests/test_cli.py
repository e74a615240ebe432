import argparse
import pathlib

import numpy as np
import pytest

from entvec import interpret, training
from entvec.cli import EMBEDDINGS_ENV_VAR, build_parser, main
from entvec.embeddings import (
    EmbeddingTable,
    load_embeddings,
    load_text,
    write_binary,
    write_text,
)
from entvec.interpret import LOG_ODDS, UNK_DUP, pair_score
from entvec.training import MappingModel, load_model

DATA = pathlib.Path(__file__).parent / "data"
VECTORS = str(DATA / "toy_vectors.txt")
PAIRS = str(DATA / "toy_pairs.tsv")
CHAIN = str(DATA / "chain.graph")


def write_disjoint_fixture(tmp_path, n_pairs=12, d=4):
    rng = np.random.default_rng(42)
    tokens, rows, lines = [], [], []
    for i in range(n_pairs):
        tokens += [f"hypo{i}", f"hyper{i}"]
        rows += [rng.normal(size=d), rng.normal(size=d)]
        lines.append(f"hypo{i}\thyper{i}\t{i % 2}")
    vec_path = tmp_path / "train_vecs.txt"
    write_text(EmbeddingTable(tokens, np.array(rows, dtype=np.float32)), vec_path)
    pair_path = tmp_path / "train_pairs.tsv"
    pair_path.write_text("\n".join(lines) + "\n")
    return str(vec_path), str(pair_path)


def toy_vectors(tmp_path, fmt):
    """The toy table in ``fmt``: the text file itself, or a binary copy."""
    if fmt == "text":
        return VECTORS
    path = tmp_path / "toy.bin"
    write_binary(load_text(VECTORS), path)
    return str(path)


class TestScoreCommand:
    def test_backward_score(self, capsys):
        assert main(["score", "--embeddings", VECTORS, "puppy", "dog"]) == 0
        out = float(capsys.readouterr().out)
        table = load_text(VECTORS)
        expect = pair_score(table.lookup("puppy"), table.lookup("dog"), LOG_ODDS, "bwd")
        assert out == pytest.approx(expect, rel=1e-12)

    def test_interp_and_shift_flags(self, capsys):
        assert main([
            "score", "--embeddings", VECTORS, "--interp", "unkdup",
            "--shift", "1.0", "--op", "fact", "puppy", "dog",
        ]) == 0
        out = float(capsys.readouterr().out)
        table = load_text(VECTORS)
        expect = pair_score(table.lookup("puppy"), table.lookup("dog"), UNK_DUP, "fact")
        assert out == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("shift", ["inf", "nan", "0"])
    def test_bad_unkdup_shift_is_data_error(self, capsys, shift):
        assert main(["score", "--embeddings", VECTORS, "--interp", "unkdup",
                     "--shift", shift, "puppy", "dog"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("entvec: error: unkdup shift must be ")
        assert "non-finite" not in captured.err

    def test_shift_is_ignored_outside_unkdup(self, capsys):
        assert main(["score", "--embeddings", VECTORS, "--interp", "dup",
                     "--shift", "inf", "puppy", "dog"]) == 0
        with_inf = capsys.readouterr().out
        assert main(["score", "--embeddings", VECTORS, "--interp", "dup", "puppy", "dog"]) == 0
        assert capsys.readouterr().out == with_inf

    def test_env_var_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv(EMBEDDINGS_ENV_VAR, VECTORS)
        assert main(["score", "puppy", "dog"]) == 0
        assert capsys.readouterr().out.strip()

    def test_missing_embeddings_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.delenv(EMBEDDINGS_ENV_VAR, raising=False)
        assert main(["score", "puppy", "dog"]) == 1
        assert "--embeddings" in capsys.readouterr().err

    def test_unknown_word_is_data_error(self, capsys):
        assert main(["score", "--embeddings", VECTORS, "dragon", "dog"]) == 2
        assert "dragon" in capsys.readouterr().err

    @pytest.mark.parametrize("fmt", ["binary", "text"])
    def test_unknown_words_name_the_hyponym_first(self, capsys, tmp_path, fmt):
        vectors = toy_vectors(tmp_path, fmt)
        assert main(["score", "--embeddings", vectors, "dragon", "wyvern"]) == 2
        assert capsys.readouterr().err == \
            "entvec: error: word 'dragon' is not in the embeddings\n"
        assert main(["score", "--embeddings", vectors, "dog", "wyvern"]) == 2
        assert capsys.readouterr().err == \
            "entvec: error: word 'wyvern' is not in the embeddings\n"

    def test_binary_score_matches_text(self, capsys, tmp_path):
        assert main(["score", "--embeddings", VECTORS, "puppy", "dog"]) == 0
        text_out = capsys.readouterr().out
        assert main(["score", "--embeddings", toy_vectors(tmp_path, "binary"),
                     "puppy", "dog"]) == 0
        assert capsys.readouterr().out == text_out

    def test_unknown_flag_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["score", "--embeddings", VECTORS, "--frobnicate", "a", "b"])
        assert exc_info.value.code == 1


class TestEvalCommand:
    def test_golden_csv_on_stdout(self, capsys):
        assert main([
            "eval", "--embeddings", VECTORS, "--pairs", PAIRS,
            "--methods", "logodds-bwd,logodds-fact,dot,dif,wcos",
        ]) == 0
        captured = capsys.readouterr()
        assert captured.out == (DATA / "toy_report_golden.csv").read_text()
        # the aligned human table goes to stderr
        assert captured.err.startswith("method")
        assert "logodds-bwd" in captured.err

    def test_golden_csv_from_a_binary_table(self, capsys, tmp_path):
        assert main([
            "eval", "--embeddings", toy_vectors(tmp_path, "binary"), "--pairs", PAIRS,
            "--methods", "logodds-bwd,logodds-fact,dot,dif,wcos",
        ]) == 0
        assert capsys.readouterr().out == (DATA / "toy_report_golden.csv").read_text()

    def test_folds_are_unchecked_without_mapped_methods(self, capsys):
        argv = ["eval", "--embeddings", VECTORS, "--pairs", PAIRS, "--methods", "dot,wcos"]
        assert main(argv) == 0
        want = capsys.readouterr().out
        assert main(argv + ["--folds", "1"]) == 0
        assert capsys.readouterr().out == want

    def test_mapped_without_train_flag(self, capsys):
        assert main([
            "eval", "--embeddings", VECTORS, "--pairs", PAIRS,
            "--methods", "mapped-dif",
        ]) == 2
        assert "--train" in capsys.readouterr().err

    def test_mapped_with_train_flag(self, capsys, tmp_path):
        vec_path, pair_path = write_disjoint_fixture(tmp_path)
        assert main([
            "eval", "--embeddings", vec_path, "--pairs", pair_path,
            "--methods", "mapped-dif", "--train", "--folds", "3",
            "--epochs", "2", "--batch-size", "4",
        ]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "method,acc50,dir_acc,threshold,n,oov_dropped"
        assert out.splitlines()[1].startswith("mapped-dif,")

    def test_saturated_pair_does_not_fail_the_eval(self, capsys, tmp_path):
        vec_path = tmp_path / "sat.txt"
        vec_path.write_text("up -40 0\ndown 40 0\n")
        pair_path = tmp_path / "sat.tsv"
        pair_path.write_text("up\tdown\t0\ndown\tup\t1\n")
        assert main([
            "eval", "--embeddings", str(vec_path), "--pairs", str(pair_path),
            "--methods", "dot,logodds-fact",
        ]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == ["dot", "logodds-fact"]

    def test_missing_pairs_file(self, capsys):
        assert main([
            "eval", "--embeddings", VECTORS, "--pairs", "/nonexistent.tsv",
            "--methods", "dot",
        ]) == 2

    def test_header_count_beyond_the_file_is_data_error(self, capsys, tmp_path):
        vec_path = tmp_path / "huge.bin"
        vec_path.write_bytes(b"99999999999 300\nab " + b"\0" * 1200)
        assert main([
            "eval", "--embeddings", str(vec_path), "--pairs", PAIRS, "--methods", "dot",
        ]) == 2
        err = capsys.readouterr().err
        assert err == ("entvec: error: header promises 99999999999 entries but the file "
                       "has 1 (byte offset 1219)\n")

    def test_bad_pairs_file_is_reported_before_a_bad_table(self, capsys, tmp_path):
        vec_path = tmp_path / "bad.bin"
        vec_path.write_bytes(b"2 3\nab ")
        pair_path = tmp_path / "bad.tsv"
        pair_path.write_text("dog\tanimal\n")
        assert main([
            "eval", "--embeddings", str(vec_path), "--pairs", str(pair_path),
            "--methods", "dot",
        ]) == 2
        assert capsys.readouterr().err == \
            "entvec: error: line 1: expected 3 tab-separated columns, got 2\n"

    def test_missing_embeddings_comes_before_the_pairs(self, capsys, monkeypatch):
        monkeypatch.delenv(EMBEDDINGS_ENV_VAR, raising=False)
        assert main(["eval", "--pairs", "/nonexistent.tsv", "--methods", "dot"]) == 1
        assert "--embeddings" in capsys.readouterr().err

    def test_unknown_method(self, capsys):
        assert main([
            "eval", "--embeddings", VECTORS, "--pairs", PAIRS, "--methods", "svm",
        ]) == 2
        assert "unknown method" in capsys.readouterr().err


class TestTrainCommand:
    def test_writes_loadable_models(self, capsys, tmp_path):
        vec_path, pair_path = write_disjoint_fixture(tmp_path)
        out_dir = tmp_path / "models"
        assert main([
            "train", "--embeddings", vec_path, "--pairs", pair_path,
            "--op", "dif", "--out-dir", str(out_dir), "--folds", "2",
            "--epochs", "2",
        ]) == 0
        captured = capsys.readouterr()
        paths = captured.out.splitlines()
        assert len(paths) == 2
        for path in paths:
            model = load_model(path)
            assert model.op == "dif"
            assert model.d_in == 4
        assert "training pairs" in captured.err

    def test_resolves_the_pairs_once(self, capsys, tmp_path, monkeypatch):
        gathers = []  # the tokens of each gather of table rows
        rows = EmbeddingTable.rows
        monkeypatch.setattr(EmbeddingTable, "rows", lambda self, tokens:
                            gathers.append(list(tokens)) or rows(self, tokens))
        vec_path, pair_path = write_disjoint_fixture(tmp_path, n_pairs=6)
        with open(pair_path, "a", encoding="utf-8") as fh:
            fh.write("hypo0\tghost\t1\n")
        assert main([
            "train", "--embeddings", vec_path, "--pairs", pair_path,
            "--out-dir", str(tmp_path / "m"), "--folds", "2", "--epochs", "1",
        ]) == 0
        assert "dropped 1 out-of-vocabulary pairs" in capsys.readouterr().err
        assert len(gathers) == 1
        assert sorted(gathers[0]) == sorted(f"{kind}{i}" for kind in ("hypo", "hyper")
                                            for i in range(6))

    def test_bad_out_dir_is_reported_before_any_file_is_read(self, capsys, tmp_path):
        out_file = tmp_path / "models"
        out_file.write_text("a file, not a directory\n")
        assert main([
            "train", "--embeddings", "/nonexistent.bin", "--pairs", "/nonexistent.tsv",
            "--out-dir", str(out_file),
        ]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("entvec: error: [Errno")
        assert str(out_file) in captured.err and "nonexistent" not in captured.err

    def test_all_oov_is_data_error(self, capsys, tmp_path):
        pair_path = tmp_path / "pairs.tsv"
        pair_path.write_text("ghost\tspirit\t1\n")
        assert main([
            "train", "--embeddings", VECTORS, "--pairs", str(pair_path),
            "--out-dir", str(tmp_path / "m"),
        ]) == 2


@pytest.mark.parametrize("fmt", ["binary", "text"])
@pytest.mark.parametrize("command", ["eval", "train"])
def test_all_oov_pairs_are_named_for_either_format(capsys, tmp_path, command, fmt):
    # only the pairs' words are loaded, so here the table has no rows at all
    pair_path = tmp_path / "pairs.tsv"
    pair_path.write_text("ghost\tspirit\t1\nwraith\tghost\t0\n")
    argv = [command, "--embeddings", toy_vectors(tmp_path, fmt), "--pairs", str(pair_path)]
    argv += ["--methods", "dot"] if command == "eval" else ["--out-dir", str(tmp_path / "m")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "entvec: error: every pair has an out-of-vocabulary word\n"


@pytest.mark.parametrize("argv, message", [
    (["eval", "--methods", "dot,unkdup-bwd", "--shift", "inf"],
     "unkdup shift must be finite, got inf"),
    (["eval", "--methods", "mapped-dif", "--train", "--epochs", "0"], "epochs must be >= 1, got 0"),
    (["train", "--out-dir", "/nonexistent", "--epochs", "0"], "epochs must be >= 1, got 0"),
    (["eval", "--methods", "dot,mapped-dif", "--train", "--folds", "1"],
     "need at least 2 folds, got 1"),
    (["eval", "--methods", "dot,dif", "--threads", "-4"],
     "threads must be >= 1, got -4"),
    (["train", "--out-dir", "/nonexistent", "--folds", "1"], "need at least 2 folds, got 1"),
    (["graph", "--tol", "-1"], "tol must be positive, got -1.0"),
    (["graph", "--damping", "1"], "damping must be in [0, 1), got 1.0"),
    (["graph", "--max-sweeps", "0"], "max_sweeps must be >= 1, got 0"),
])
def test_bad_request_is_reported_before_any_file_is_read(capsys, argv, message):
    missing = {"graph": ["--file", "/nonexistent.graph"]}.get(
        argv[0], ["--embeddings", "/nonexistent.bin", "--pairs", "/nonexistent.tsv"])
    assert main(argv + missing) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"entvec: error: {message}\n"


@pytest.mark.parametrize("command", ["score", "eval", "train"])
def test_only_the_scored_words_are_loaded(capsys, tmp_path, monkeypatch, command):
    loads = []
    monkeypatch.setattr("entvec.cli.load_embeddings",
                        lambda *a, **kw: loads.append(kw["keep"]) or load_embeddings(*a, **kw))
    vectors, pairs = VECTORS, PAIRS
    if command == "train":
        vectors, pairs = write_disjoint_fixture(tmp_path, n_pairs=4)
    argv = {"score": ["score", "puppy", "dog"],
            "eval": ["eval", "--pairs", pairs, "--methods", "dot"],
            "train": ["train", "--pairs", pairs, "--folds", "2", "--epochs", "1",
                      "--out-dir", str(tmp_path / "m")]}[command]
    assert main(argv + ["--embeddings", vectors]) == 0
    with open(pairs, encoding="utf-8") as fh:
        words = {w for line in fh for w in line.split("\t")[:2]}
    assert loads == [{"puppy", "dog"} if command == "score" else words]


def _op_choices(command):
    subs = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return next(a for a in subs.choices[command]._actions if a.dest == "op").choices


def _accepts(make, op):
    try:
        make(op)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("command, make", [
    ("score", lambda op: pair_score([0.5], [-0.2], LOG_ODDS, op)),
    ("train", lambda op: MappingModel(W=np.eye(1), tau=0.0, op=op)),
])
def test_op_choices_are_the_tokens_the_library_accepts(command, make):
    choices = set(_op_choices(command))
    candidates = choices | {"fwd", "bwd", "fact", "dif", "forward", "backward", "factorized",
                            "dot", "cos", "cosine", "wcos", "weighted_cos"}
    assert {op for op in candidates if _accepts(make, op)} == choices


class TestGraphCommand:
    def test_chain_assignments(self, capsys):
        assert main(["graph", "--file", CHAIN]) == 0
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        values = {ln.split("\t")[0]: float(ln.split("\t")[1]) for ln in lines}
        assert values["a"] == pytest.approx(0.48121182505960347, abs=1e-6)
        assert values["b"] == pytest.approx(-0.48121182505960347, abs=1e-6)
        assert "converged after" in captured.err

    def test_golden_taxonomy_output(self, capsys):
        # a small planted taxonomy (perfbench/gen.py --workload graph-taxonomy
        # --size small --seed 3) and its recorded stdout and stderr
        assert main(["graph", "--file", str(DATA / "taxonomy_small.graph")]) == 0
        captured = capsys.readouterr()
        assert captured.out == (DATA / "taxonomy_small_golden.tsv").read_text(encoding="utf-8")
        assert captured.err == (DATA / "taxonomy_small_golden.err").read_text(encoding="utf-8")

    def test_non_convergence_still_exits_zero(self, capsys):
        assert main([
            "graph", "--file", CHAIN, "--max-sweeps", "2", "--tol", "1e-15",
        ]) == 0
        err = capsys.readouterr().err
        assert err.startswith("did not converge after 2 sweeps (last delta ")
        assert err.endswith("); largest change at node 'a' dimension 0\n")

    def test_missing_file(self, capsys):
        assert main(["graph", "--file", "/nonexistent.graph"]) == 2

    def test_opposite_divergent_negative_edges_exit_two(self, capsys, tmp_path):
        graph = tmp_path / "opposite.graph"
        graph.write_text("node a 1\nnode b 1\nnotentail a b\nnotentail b a\n")
        assert main(["graph", "--file", str(graph)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "entvec: error: NaN update for node 'a' dimension 0 at sweep 1\n"

    def test_format_error_is_data_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.graph"
        bad.write_text("node a 1\nfrobnicate a\n")
        assert main(["graph", "--file", str(bad)]) == 2
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        # 8e17 bytes of priors: more than any address space maps
        ("node x 100000000000000000\n",
         "line 1: node 'x' dim 100000000000000000 cannot be allocated"),
        ("node x 3\nnode y 99999999999\n",
         "line 2: node 'y' has dim 99999999999 but the graph uses dim 3"),
    ], ids=["unallocatable", "mismatch"])
    def test_huge_dim_is_one_line_data_error(self, capsys, tmp_path, text, message):
        bad = tmp_path / "huge.graph"
        bad.write_text(text)
        assert main(["graph", "--file", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"entvec: error: {message}\n"


class TestGradGridCommand:
    def test_csv_output(self, capsys):
        assert main(["gradgrid", "--model", "word2vec", "--range", "-1", "1", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "m,c,gradient"
        assert len(lines) == 1 + 9

    def test_matches_library_grid(self, capsys):
        from entvec.interpret import gradient_grid

        assert main(["gradgrid", "--model", "unkdup-bwd", "--range", "-2", "2", "1"]) == 0
        out = capsys.readouterr().out
        assert out == gradient_grid("unkdup-bwd", (-2, 2, 1), (-2, 2, 1)).to_csv()

    def test_rejects_unknown_model(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["gradgrid", "--model", "glove", "--range", "0", "1", "1"])
        assert exc_info.value.code == 1

    def test_bad_step_is_data_error(self, capsys):
        assert main(["gradgrid", "--model", "word2vec", "--range", "1", "0", "1"]) == 2

    @pytest.mark.parametrize("shift", ["inf", "-inf", "nan"])
    def test_non_finite_unkdup_shift_is_data_error(self, capsys, shift):
        assert main(["gradgrid", "--model", "unkdup-bwd", "--range", "-1", "1", "1",
                     f"--shift={shift}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"entvec: error: unkdup shift must be finite, got {float(shift)}\n"


class TestOutOfMemory:
    """A command that cannot allocate exits 2 with one error line, no traceback.
    The MemoryError is raised by a stand-in: a real huge allocation could be
    granted by an overcommitting host and then touched."""

    NUMPY = "Unable to allocate 7.28 TiB for an array with shape (1000000000001,) and data type float64"

    @pytest.mark.parametrize("error, message", [(MemoryError(NUMPY), NUMPY),
                                                (MemoryError(), "MemoryError")],
                             ids=["numpy", "bare"])
    def test_gradgrid(self, monkeypatch, capsys, error, message):
        def grid(*args, **kwargs):
            raise error

        monkeypatch.setattr(interpret, "gradient_grid", grid)
        assert main(["gradgrid", "--model", "word2vec", "--range", "0", "1", "1e-12"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"entvec: error: {message}\n"

    def test_train_with_a_huge_d_out(self, monkeypatch, capsys, tmp_path):
        def train(*args, **kwargs):
            raise MemoryError(self.NUMPY)

        monkeypatch.setattr(training, "train", train)
        vecs, pairs = write_disjoint_fixture(tmp_path)
        assert main(["train", "--embeddings", vecs, "--pairs", pairs, "--folds", "2",
                     "--out-dir", str(tmp_path / "models"), "--d-out", str(10 ** 12)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"entvec: error: {self.NUMPY}\n"
