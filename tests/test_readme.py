"""README's examples run as written, on seeded toy files named as they name them.

Its ```python blocks run in order in one namespace, and each ``entvec ...``
line of its shell blocks runs through ``cli.main`` and must exit 0.  The
install and test blocks (``pip``, ``pytest``, ``export``) are not run.
"""

import pathlib
import re
import shlex

import numpy as np
import pytest

from entvec.cli import main
from entvec.embeddings import EmbeddingTable, write_binary

README = pathlib.Path(__file__).parent.parent / "README.md"
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", README.read_text(encoding="utf-8"),
                    re.MULTILINE | re.DOTALL)
PYTHON = [code for lang, code in BLOCKS if lang == "python"]
COMMANDS = [shlex.split(line) for lang, code in BLOCKS if lang == "sh"
            for line in code.replace("\\\n", " ").splitlines()
            if line.startswith("entvec ")]


@pytest.fixture
def toy_dir(tmp_path, monkeypatch):
    """A working directory holding the files README's examples name."""
    rng = np.random.default_rng(23)
    pairs = [(f"hypo{k}", f"hyper{k}", k % 2) for k in range(12)] + [("dog", "animal", 1),
                                                                     ("animal", "dog", 0)]
    tokens = sorted({word for pair in pairs for word in pair[:2]})
    write_binary(EmbeddingTable(tokens, rng.normal(size=(len(tokens), 6)).astype(np.float32)),
                 tmp_path / "vectors.bin")
    write_binary(EmbeddingTable(["dog", "animal", "cat"],
                                rng.normal(size=(3, 300)).astype(np.float32)),
                 tmp_path / "GoogleNews-vectors-negative300.bin")
    (tmp_path / "pairs.tsv").write_text("".join(f"{a}\t{b}\t{label}\n" for a, b, label in pairs))
    (tmp_path / "taxonomy.graph").write_text(
        "node dog 3\nnode animal 3\nnode cat 3\nentail dog animal\nentail cat animal\n")
    (tmp_path / "models").mkdir()
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_the_examples_are_found():
    assert PYTHON
    assert {argv[1] for argv in COMMANDS} == {"score", "eval", "train", "graph", "gradgrid"}


def test_python_blocks_run_in_order(toy_dir, capsys):
    namespace = {}
    for code in PYTHON:
        exec(compile(code, str(README), "exec"), namespace)
    assert namespace["small"].tokens == ["dog", "animal"]
    assert namespace["result"].converged
    assert capsys.readouterr().out


@pytest.mark.parametrize("argv", COMMANDS,
                         ids=[f"{k}-{argv[1]}" for k, argv in enumerate(COMMANDS)])
def test_command_line_runs(toy_dir, capsys, argv):
    assert main(argv[1:]) == 0, capsys.readouterr().err
    assert capsys.readouterr().out
