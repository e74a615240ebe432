import pathlib

import numpy as np
import pytest

from entvec.cli import EMBEDDINGS_ENV_VAR, main
from entvec.embeddings import EmbeddingTable, load_text, write_text
from entvec.interpret import LOG_ODDS, UNK_DUP, pair_score
from entvec.training import load_model

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

    def test_all_oov_is_data_error(self, capsys, tmp_path):
        pair_path = tmp_path / "pairs.tsv"
        pair_path.write_text("ghost\tspirit\t1\n")
        assert main([
            "train", "--embeddings", VECTORS, "--pairs", str(pair_path),
            "--out-dir", str(tmp_path / "m"),
        ]) == 2


class TestGraphCommand:
    def test_chain_assignments(self, capsys):
        assert main(["graph", "--file", CHAIN]) == 0
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        values = {ln.split("\t")[0]: float(ln.split("\t")[1]) for ln in lines}
        assert values["a"] == pytest.approx(0.48121182505960347, abs=1e-6)
        assert values["b"] == pytest.approx(-0.48121182505960347, abs=1e-6)
        assert "converged after" in captured.err

    def test_non_convergence_still_exits_zero(self, capsys):
        assert main([
            "graph", "--file", CHAIN, "--max-sweeps", "2", "--tol", "1e-15",
        ]) == 0
        assert "did not converge" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["graph", "--file", "/nonexistent.graph"]) == 2

    def test_format_error_is_data_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.graph"
        bad.write_text("node a 1\nfrobnicate a\n")
        assert main(["graph", "--file", str(bad)]) == 2
        assert "line 2" in capsys.readouterr().err


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
