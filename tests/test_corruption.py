"""Seeded corruptions of every file reader.

Each corrupted file either loads or raises the reader's documented error
class; a crash of another kind (IndexError, UnicodeDecodeError,
MemoryError, ...) or a hang fails the test.  For ``load_binary`` the
outcome must also be the same whatever size of chunk the file is read in,
and for both embedding readers the same with ``keep=`` as without.
"""

import numpy as np
import pytest

from entvec import embeddings
from entvec.embeddings import (
    EmbeddingFormatError,
    EmbeddingTable,
    TruncatedFileError,
    write_text,
)
from entvec.evaluation import DatasetFormatError, load_pairs
from entvec.graph import GraphFormatError, parse_graph_file

from conftest import deadline

CASES = 250  # per reader
TIME_BOUND_S = 60.0  # per test; the cases take well under 5 s
CHUNKS = (1, 7, 64, embeddings._CHUNK)
# tokens no corrupted file holds: one that does not encode, and one whose
# bytes are those of "café" but which is not the string "café"
ABSENT = {"zebra", "\ud800", "caf\udcc3\udca9"}

PAIRS = "dog\tanimal\t1\ncat\tanimal\t1\ncafé\tdrink\t1\nanimal\tdog\t0\n\npuppy\tcat\t0\n"
GRAPH = """# a small taxonomy
node dog 2 0.5 -1.0
node animal 2
node café 2 1e-3 2.5
entail dog animal
notentail café dog
observe animal 1 -0.75
"""


@pytest.fixture(autouse=True)
def time_bound():
    with deadline(TIME_BOUND_S):
        yield


def small_table():
    rng = np.random.default_rng(7)
    tokens = ["dog", "animal", "café", "a\udcff", "x" * 40, "", "cat"]
    return EmbeddingTable(tokens, rng.normal(size=(len(tokens), 3)).astype(np.float32))


def binary_file(newline=b"\n"):
    table = small_table()
    out = f"{len(table)} {table.dim}\n".encode("ascii")
    for token, row in zip(table.tokens, table.matrix):
        out += token.encode("utf-8", "surrogateescape") + b" " + row.astype("<f4").tobytes()
        out += newline
    return out


def text_file(tmp_path):
    table = small_table()
    keep = [t for t in table.tokens if t and t != "a\udcff"]
    path = tmp_path / "clean.txt"
    write_text(EmbeddingTable(keep, np.stack([table.lookup(t) for t in keep])), path)
    return path.read_bytes()


def corruptions(data, delimiters, seed):
    """CASES seeded (kind, bytes): truncate, flip, drop or insert a delimiter, junk."""
    rng = np.random.default_rng(seed)
    at = [i for i, b in enumerate(data) if b in delimiters]
    for _ in range(CASES):
        kind = ("truncate", "flip", "drop", "insert", "junk")[rng.integers(5)]
        if kind == "truncate":
            k = int(rng.integers(len(data)))
            yield kind, data[:k]
        elif kind == "flip":
            k = int(rng.integers(len(data)))
            yield kind, data[:k] + bytes([data[k] ^ int(rng.integers(1, 256))]) + data[k + 1:]
        elif kind == "drop":
            k = at[int(rng.integers(len(at)))]
            yield kind, data[:k] + data[k + 1:]
        elif kind == "insert":
            k = int(rng.integers(len(data) + 1))
            yield kind, data[:k] + bytes([delimiters[rng.integers(len(delimiters))]]) + data[k:]
        else:
            yield kind, data + rng.integers(0, 256, size=int(rng.integers(1, 40))).astype(
                np.uint8).tobytes()


def loads(read, error, path):
    """True when the file loads, False when it raises ``error``; others propagate."""
    try:
        read(path)
    except error:
        return False
    return True


@pytest.mark.parametrize("read, error, clean, delimiters", [
    (embeddings.load_binary, EmbeddingFormatError, lambda tmp: binary_file(), b" \n"),
    (embeddings.load_text, EmbeddingFormatError, text_file, b" \n"),
    (load_pairs, DatasetFormatError, lambda tmp: PAIRS.encode("utf-8"), b"\t\n"),
    (parse_graph_file, GraphFormatError, lambda tmp: GRAPH.encode("utf-8"), b" \n"),
], ids=["load_binary", "load_text", "load_pairs", "parse_graph_file"])
def test_corrupt_files_load_or_raise_the_documented_error(tmp_path, read, error, clean,
                                                          delimiters):
    data = clean(tmp_path)
    path = tmp_path / "corrupt"
    path.write_bytes(data)
    assert loads(read, error, path)
    seen = set()
    for kind, bad in corruptions(data, delimiters, seed=11):
        path.write_bytes(bad)
        seen.add(loads(read, error, path))
    assert seen == {True, False}  # the cases reach both outcomes


def outcome(read, path, keep=None):
    """(class, offset, line, message), or the tokens, shape and bytes of a loaded table."""
    try:
        table = read(path, keep=keep)
    except EmbeddingFormatError as exc:
        return type(exc), exc.offset, exc.line, str(exc)
    return table.tokens, table.matrix.shape, table.matrix.tobytes()


def binary_outcome(path):
    return outcome(embeddings.load_binary, path)


@pytest.mark.parametrize("newline", [b"\n", b""], ids=["newlines", "no-newlines"])
def test_binary_outcome_does_not_depend_on_chunk_size(tmp_path, monkeypatch, newline):
    data = binary_file(newline)
    path = tmp_path / "corrupt.bin"
    path.write_bytes(data)
    assert binary_outcome(path)[0] == small_table().tokens
    for kind, bad in corruptions(data, b" \n", seed=12):
        path.write_bytes(bad)
        results = []
        for chunk in CHUNKS:
            monkeypatch.setattr(embeddings, "_CHUNK", chunk)
            results.append(binary_outcome(path))
        assert results == [results[-1]] * len(CHUNKS), (kind, bad)


def test_row_longer_than_the_file_is_reported_at_its_token(tmp_path, monkeypatch):
    # a row the file cannot hold is known to be truncated once its token is
    # read; buffering the rest of the file 1 byte at a time would not finish
    monkeypatch.setattr(embeddings, "_CHUNK", 1)
    path = tmp_path / "huge-dim.bin"
    path.write_bytes(b"1 99999999999\nab " + b"\0" * (1 << 22))
    with pytest.raises(TruncatedFileError) as exc_info:
        embeddings.load_binary(path)
    assert exc_info.value.offset == 17


@pytest.mark.parametrize("read, clean, chunks", [
    (embeddings.load_binary, lambda tmp: binary_file(), CHUNKS),
    (embeddings.load_binary, lambda tmp: binary_file(b""), CHUNKS),
    (embeddings.load_text, text_file, (None,)),
], ids=["load_binary-newlines", "load_binary-no-newlines", "load_text"])
def test_keep_gives_the_full_outcome_restricted(tmp_path, monkeypatch, read, clean, chunks):
    # an error is the full load's, class, offset or line and message alike;
    # a table is the full load's kept rows, in file order and bit-identical
    data = clean(tmp_path)
    tokens = small_table().tokens
    rng = np.random.default_rng(14)
    path = tmp_path / "corrupt"
    for kind, bad in corruptions(data, b" \n", seed=13):
        path.write_bytes(bad)
        subset = {t for t in tokens if rng.random() < 0.5} | {"zebra"}
        for chunk in chunks:
            if chunk is not None:
                monkeypatch.setattr(embeddings, "_CHUNK", chunk)
            try:
                full = read(path)
            except EmbeddingFormatError:
                full = None
            for keep in (set(), subset, ABSENT):
                if full is None:
                    want = outcome(read, path)
                else:
                    rows = [i for i, t in enumerate(full.tokens) if t in keep]
                    want = ([full.tokens[i] for i in rows], (len(rows), full.dim),
                            full.matrix[rows].tobytes())
                assert outcome(read, path, keep) == want, (kind, bad, chunk, keep)
