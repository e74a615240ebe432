import math
import os
import tracemalloc
import warnings
from functools import partial

import numpy as np
import pytest

from entvec import embeddings
from entvec.embeddings import (
    CountMismatchError,
    DuplicateTokenError,
    EmbeddingFormatError,
    EmbeddingTable,
    MalformedHeaderError,
    TextFormatError,
    TruncatedFileError,
    load_binary,
    load_embeddings,
    load_text,
    write_binary,
    write_text,
)

from conftest import load_fifo
from test_binary_scan import CHUNKS
from test_corruption import ABSENT, outcome


ROW2 = np.array([1, 2], dtype="<f4").tobytes()
ONE = np.array([1], dtype="<f4").tobytes()


def small_table():
    return EmbeddingTable(
        ["dog", "animal", "café"],
        np.array([[1.5, -2.25], [0.1, 0.2], [-3.0, 4.5]], dtype=np.float32),
    )


def binary_bytes(count, dim, entries, newline=b"\n"):
    out = f"{count} {dim}\n".encode("ascii")
    for token, values in entries:
        out += token.encode("utf-8") + b" "
        out += np.asarray(values, dtype="<f4").tobytes()
        out += newline
    return out


class TestEmbeddingTable:
    def test_basic_properties(self):
        table = small_table()
        assert len(table) == 3
        assert table.dim == 2
        assert table.tokens == ["dog", "animal", "café"]
        assert "dog" in table and "cat" not in table

    def test_lookup_returns_float64_copy(self):
        table = small_table()
        vec = table.lookup("dog")
        assert vec.dtype == np.float64
        np.testing.assert_array_equal(vec, [1.5, -2.25])
        vec[0] = 99.0
        np.testing.assert_array_equal(table.lookup("dog"), [1.5, -2.25])

    def test_rows_gather_float64_copies(self):
        table = small_table()
        tokens = ["café", "dog", "café"]
        got = table.rows(tokens)
        assert got.dtype == np.float64 and got.shape == (3, table.dim)
        assert got.tobytes() == np.stack([table.lookup(t) for t in tokens]).tobytes()
        got[1, 0] = 99.0
        np.testing.assert_array_equal(table.lookup("dog"), [1.5, -2.25])
        with pytest.raises(KeyError, match="sofa"):
            table.rows(["dog", "sofa"])

    def test_lookup_missing_returns_none(self):
        assert small_table().lookup("sofa") is None

    def test_lookup_is_case_sensitive(self):
        table = EmbeddingTable(["Dog", "dog"], np.eye(2, dtype=np.float32))
        np.testing.assert_array_equal(table.lookup("Dog"), [1.0, 0.0])
        np.testing.assert_array_equal(table.lookup("dog"), [0.0, 1.0])

    def test_matrix_is_read_only(self):
        table = small_table()
        with pytest.raises(ValueError):
            table.matrix[0, 0] = 0.0

    def test_shares_the_callers_matrix_and_leaves_it_writable(self):
        matrix = np.zeros((2, 3), np.float32)
        table = EmbeddingTable(["a", "b"], matrix)
        assert matrix.flags.writeable and not table.matrix.flags.writeable
        assert np.shares_memory(table.matrix, matrix)
        matrix[1, 2] = 7.0
        assert table.lookup("b")[2] == 7.0

    def test_rejects_duplicates(self):
        with pytest.raises(DuplicateTokenError):
            EmbeddingTable(["a", "a"], np.zeros((2, 1), dtype=np.float32))

    def test_names_the_first_repeat(self):
        with pytest.raises(DuplicateTokenError, match="^duplicate token 'b'$"):
            EmbeddingTable(["a", "b", "b", "a"], np.zeros((4, 1), dtype=np.float32))

    def test_rejects_shape_problems(self):
        with pytest.raises(ValueError):
            EmbeddingTable(["a"], np.zeros((2, 1)))
        with pytest.raises(ValueError):
            EmbeddingTable(["a"], np.zeros((1, 0)))
        with pytest.raises(ValueError, match=r"^matrix must be 2-d, got shape \(1,\)$"):
            EmbeddingTable(["a"], np.zeros(1))
        empty = EmbeddingTable([], np.zeros((0, 1)))  # as a load that keeps no token gives
        assert len(empty) == 0 and empty.dim == 1 and empty.tokens == []
        assert "a" not in empty and empty.lookup("a") is None


class TestBinaryFormat:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "vecs.bin"
        table = small_table()
        write_binary(table, path)
        loaded = load_binary(path)
        assert loaded.tokens == table.tokens
        np.testing.assert_array_equal(loaded.matrix, table.matrix)

    def test_reads_entries_without_newlines(self, tmp_path):
        path = tmp_path / "vecs.bin"
        path.write_bytes(binary_bytes(2, 2, [("a", [1, 2]), ("b", [3, 4])], newline=b""))
        loaded = load_binary(path)
        assert loaded.tokens == ["a", "b"]
        np.testing.assert_array_equal(loaded.matrix, [[1, 2], [3, 4]])

    def test_empty_file(self, tmp_path):
        path = tmp_path / "vecs.bin"
        path.write_bytes(b"")
        with pytest.raises(MalformedHeaderError, match="empty file"):
            load_binary(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "vecs.bin"
        path.write_bytes(b"three 2\na " + b"\0" * 8)
        with pytest.raises(MalformedHeaderError) as exc_info:
            load_binary(path)
        assert exc_info.value.offset == 0

    def test_header_never_ends(self, tmp_path):
        path = tmp_path / "vecs.bin"
        path.write_bytes(b"3" * 200)
        with pytest.raises(MalformedHeaderError):
            load_binary(path)

    def test_header_promises_more_entries(self, tmp_path):
        path = tmp_path / "vecs.bin"
        path.write_bytes(binary_bytes(3, 2, [("a", [1, 2]), ("b", [3, 4])]))
        with pytest.raises(CountMismatchError, match="promises 3 entries but the file has 2"):
            load_binary(path)

    def test_truncated_vector(self, tmp_path):
        path = tmp_path / "vecs.bin"
        data = binary_bytes(1, 2, [("a", [1, 2])])
        path.write_bytes(data[:-5])
        with pytest.raises(TruncatedFileError) as exc_info:
            load_binary(path)
        assert exc_info.value.offset is not None

    def test_duplicate_token(self, tmp_path):
        path = tmp_path / "vecs.bin"
        path.write_bytes(binary_bytes(2, 1, [("a", [1]), ("a", [2])]))
        with pytest.raises(DuplicateTokenError):
            load_binary(path)

    def test_invalid_utf8_tokens_stay_distinct_and_round_trip(self, tmp_path):
        path = tmp_path / "vecs.bin"
        data = (b"2 1\n" + b"a\xff " + np.float32(1).tobytes() + b"\n"
                + b"a\xfe " + np.float32(2).tobytes() + b"\n")
        path.write_bytes(data)
        loaded = load_binary(path)
        assert len(set(loaded.tokens)) == 2
        out = tmp_path / "again.bin"
        write_binary(loaded, out)
        assert out.read_bytes() == data

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "vecs.bin"
        path.write_bytes(binary_bytes(1, 1, [("a", [1])]) + b"b " + b"\0" * 4)
        with pytest.raises(CountMismatchError, match="continues past"):
            load_binary(path)

    def test_large_vocab_spans_chunks(self, tmp_path):
        rng = np.random.default_rng(42)
        tokens = [f"tok{i}" for i in range(500)]
        matrix = rng.normal(size=(500, 20)).astype(np.float32)
        path = tmp_path / "vecs.bin"
        write_binary(EmbeddingTable(tokens, matrix), path)
        loaded = load_binary(path)
        assert loaded.tokens == tokens
        np.testing.assert_array_equal(loaded.matrix, matrix)

    def test_token_of_65536_bytes_loads(self, tmp_path):
        path = tmp_path / "vecs.bin"
        path.write_bytes(b"1 2\n" + b"a" * 65536 + b" " + ROW2)
        assert load_binary(path).tokens == ["a" * 65536]

    def test_header_line_of_128_bytes_loads(self, tmp_path):
        path = tmp_path / "vecs.bin"
        path.write_bytes(b"1 2" + b" " * 125 + b"\na " + ROW2)
        assert load_binary(path).tokens == ["a"]

    def test_reads_a_pipe(self, tmp_path):
        # a pipe has no size to bound the allocation by
        if not hasattr(os, "mkfifo"):
            pytest.skip("no named pipes on this platform")
        data = binary_bytes(2, 2, [("a", [1, 2]), ("b", [3, 4])])
        path = tmp_path / "vecs.bin"
        os.mkfifo(path)
        loaded = load_fifo(load_binary, data, path)
        assert loaded.tokens == ["a", "b"]
        np.testing.assert_array_equal(loaded.matrix, [[1, 2], [3, 4]])


# (file bytes, error class, byte offset, message) for every binary error
BINARY_ERRORS = {
    "empty file": (b"", MalformedHeaderError, 0, "empty file"),
    "header never ends": (b"3 2", MalformedHeaderError, 0, "header line never ends"),
    "header without newline": (
        b"3" * 200, MalformedHeaderError, 0, "no delimiter within 128 bytes"),
    "header over 128 bytes": (
        b"1 2" + b" " * 126 + b"\na " + ROW2, MalformedHeaderError, 0,
        "no delimiter within 128 bytes"),
    "bad header": (
        b"three 2\na " + b"\0" * 8, MalformedHeaderError, 0,
        "expected '<count> <dim>', got b'three 2'"),
    "zero count": (
        b"0 2\n", MalformedHeaderError, 0, "count and dim must be positive, got 0 and 2"),
    "short count": (
        b"3 2\na " + ROW2 + b"\nb " + ROW2 + b"\n", CountMismatchError, 26,
        "header promises 3 entries but the file has 2"),
    "file ends mid-token": (
        b"2 2\na " + ROW2 + b"\nbc", TruncatedFileError, 15, "file ends mid-token"),
    "file ends inside a vector": (
        b"1 2\nab " + ROW2[:5], TruncatedFileError, 7, "file ends inside a 8-byte vector"),
    "duplicate token": (
        b"2 1\na " + ONE + b"\na " + ONE + b"\n", DuplicateTokenError, 11,
        "duplicate token 'a'"),
    "data past the promised entries": (
        b"1 1\na " + ONE + b"\nb " + ONE, CountMismatchError, 11,
        "file continues past the 1 promised entries"),
    "token over 65536 bytes": (
        b"1 2\n" + b"a" * 65537 + b" " + ROW2, MalformedHeaderError, 4,
        "no delimiter within 65536 bytes"),
    # counts and dims no file of this size can hold: the matrix is allocated
    # for what the file can hold, so the scan reports where the data runs out
    "count larger than the file holds": (
        b"99999999999 300\nab " + b"\0" * 1200, CountMismatchError, 1219,
        "header promises 99999999999 entries but the file has 1"),
    "dim larger than the file holds": (
        b"1 99999999999\nab " + b"\0" * 1200, TruncatedFileError, 17,
        "file ends inside a 399999999996-byte vector"),
}


class TestBinaryErrorOffsets:
    @pytest.mark.parametrize("chunk", [1, 7, 64, embeddings._CHUNK])
    @pytest.mark.parametrize("case", list(BINARY_ERRORS))
    def test_class_offset_and_message(self, tmp_path, monkeypatch, case, chunk):
        data, error, offset, message = BINARY_ERRORS[case]
        monkeypatch.setattr(embeddings, "_CHUNK", chunk)
        path = tmp_path / "vecs.bin"
        path.write_bytes(data)
        with pytest.raises(EmbeddingFormatError) as exc_info:
            load_binary(path)
        assert type(exc_info.value) is error
        assert exc_info.value.offset == offset
        assert str(exc_info.value) == f"{message} (byte offset {offset})"

    @pytest.mark.parametrize("keep", [set(), {"a"}, {"b", "zebra"}], ids=["none", "a", "b"])
    @pytest.mark.parametrize("case", list(BINARY_ERRORS))
    def test_keep_reports_the_same_error(self, tmp_path, case, keep):
        data, error, offset, message = BINARY_ERRORS[case]
        path = tmp_path / "vecs.bin"
        path.write_bytes(data)
        with pytest.raises(EmbeddingFormatError) as exc_info:
            load_binary(path, keep=keep)
        assert type(exc_info.value) is error
        assert str(exc_info.value) == f"{message} (byte offset {offset})"


class TestTextFormat:
    def test_round_trip_with_header(self, tmp_path):
        path = tmp_path / "vecs.txt"
        table = small_table()
        write_text(table, path)
        loaded = load_text(path)
        assert loaded.tokens == table.tokens
        np.testing.assert_array_equal(loaded.matrix, table.matrix)

    def test_round_trip_is_float32_exact(self, tmp_path):
        rng = np.random.default_rng(42)
        matrix = rng.normal(scale=100.0, size=(50, 7)).astype(np.float32)
        table = EmbeddingTable([f"w{i}" for i in range(50)], matrix)
        path = tmp_path / "vecs.txt"
        write_text(table, path)
        np.testing.assert_array_equal(load_text(path).matrix, matrix)

    def test_invalid_utf8_token_is_rejected(self, tmp_path):
        path = tmp_path / "vecs.bin"
        path.write_bytes(b"1 1\n" + b"a\xff " + np.float32(1).tobytes() + b"\n")
        with pytest.raises(UnicodeEncodeError):
            write_text(load_binary(path), tmp_path / "vecs.txt")
        # a ValueError, so the command line reports it with exit status 2
        assert issubclass(UnicodeEncodeError, ValueError)

    def test_writes_numpy_float32_text(self, tmp_path):
        f32 = np.finfo(np.float32)
        values = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 1e-45, -1e-45, f32.tiny,
                           1e-40, f32.max, -f32.max, 0.1, 1 / 3, 16777217.0],
                          dtype=np.float32)
        path = tmp_path / "vecs.txt"
        write_text(EmbeddingTable(["w"], values[None, :]), path)
        expect = " ".join(f"{v:.9g}" for v in values)  # numpy float32 scalars
        assert path.read_text(encoding="utf-8") == f"1 {values.size}\nw {expect}\n"

    @pytest.mark.parametrize("head, line", [
        (b"dog 1 2\nanimal 3 4\n", 3),
        (b"dog 1 2\r\nanimal 3 4\rcat 5 6\n", 4),
        (b"".join(b"w%d 1 2\n" % i for i in range(5000)), 5001),  # past the first read
    ])
    def test_invalid_utf8_names_the_line(self, tmp_path, head, line):
        path = tmp_path / "vecs.txt"
        path.write_bytes(head + b"c\xffat 5 6\nmore 7 8\n")
        with pytest.raises(TextFormatError, match="not valid UTF-8") as exc_info:
            load_text(path)
        assert exc_info.value.line == line

    def test_headerless(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("dog 1 2\nanimal 3 4\n")
        loaded = load_text(path)
        assert loaded.tokens == ["dog", "animal"]
        np.testing.assert_array_equal(loaded.matrix, [[1, 2], [3, 4]])

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("\ndog 1 2\n\nanimal 3 4\n\n")
        assert len(load_text(path)) == 2

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("dog 1 2\nanimal 3\n")
        with pytest.raises(TextFormatError, match="expected 2 values, got 1") as exc_info:
            load_text(path)
        assert exc_info.value.line == 2

    def test_unparsable_float(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("dog 1 x\n")
        with pytest.raises(TextFormatError) as exc_info:
            load_text(path)
        assert exc_info.value.line == 1

    def test_duplicate_token(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("dog 1 2\ndog 3 4\n")
        with pytest.raises(DuplicateTokenError) as exc_info:
            load_text(path)
        assert exc_info.value.line == 2

    def test_header_count_mismatch(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("3 2\ndog 1 2\nanimal 3 4\n")
        with pytest.raises(CountMismatchError):
            load_text(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("")
        with pytest.raises(TextFormatError, match="no embedding rows"):
            load_text(path)

    def test_numeric_token_first_line_needs_three_fields(self, tmp_path):
        # a two-integer first line always reads as a header
        path = tmp_path / "vecs.txt"
        path.write_text("7 1\nalpha 2\n")
        with pytest.raises(CountMismatchError):
            load_text(path)


class TestWritersCheckTokens:
    """Each writer writes only files its loader reads back as the table."""

    SURROGATE = b"\xff".decode("utf-8", "surrogateescape")  # the token of a lone 0xFF byte

    @pytest.mark.parametrize("token", ["", "\nx", "a\tb", "a\xa0b", "\x00", SURROGATE,
                                       "x" * 65536],
                             ids=["empty", "newline-first", "tab", "nbsp", "nul", "not-utf8",
                                  "65536-bytes"])
    def test_binary_round_trips_awkward_tokens(self, tmp_path, token):
        table = EmbeddingTable([token, "z"], np.array([[1, 2], [3, 4]], np.float32))
        path = tmp_path / "vecs.bin"
        write_binary(table, path)
        loaded = load_binary(path)
        assert loaded.tokens == [token, "z"]
        assert loaded.matrix.tobytes() == table.matrix.tobytes()

    @pytest.mark.parametrize("token", ["a\x00b", "\u00e9t\u00e9", "x" * 1000, "-1", "2"],
                             ids=["nul", "utf8", "long", "negative", "digit"])
    def test_text_round_trips_tokens_split_keeps_whole(self, tmp_path, token):
        table = EmbeddingTable(["z", token], np.array([[1, 2], [3, 4]], np.float32))
        path = tmp_path / "vecs.txt"
        write_text(table, path)
        loaded = load_text(path)
        assert loaded.tokens == ["z", token]
        assert loaded.matrix.tobytes() == table.matrix.tobytes()

    @pytest.mark.parametrize("write, token, match", [
        (write_binary, "a b", "would not load back from a binary file"),
        (write_binary, "x" * 65537, "over 65536 bytes"),
        (write_binary, "caf\udcc3\udca9", "another token's bytes"),  # the bytes of 'café'
        (write_text, "", "is empty or holds whitespace"),
        (write_text, "\nx", "is empty or holds whitespace"),
        (write_text, "a\tb", "is empty or holds whitespace"),
        (write_text, "a\xa0b", "is empty or holds whitespace"),
        (write_text, "a b", "is empty or holds whitespace"),
    ], ids=["binary-space", "binary-65537-bytes", "binary-bytes-of-another", "text-empty",
            "text-newline-first", "text-tab", "text-nbsp", "text-space"])
    def test_refuses_a_token_its_loader_misreads(self, tmp_path, write, token, match):
        table = EmbeddingTable(["ok", token], np.zeros((2, 2), np.float32))
        path = tmp_path / "vecs.out"
        with pytest.raises(ValueError, match=match) as exc_info:
            write(table, path)
        assert str(exc_info.value).startswith(f"row 1: token {token!r} ")
        assert not path.exists()

    @pytest.mark.parametrize("write, token", [
        (write_binary, "\ud800"), (write_text, "\ud800"), (write_text, SURROGATE),
    ], ids=["binary-surrogate", "text-surrogate", "text-not-utf8"])
    def test_unencodable_token_raises_before_the_file_is_opened(self, tmp_path, write, token):
        table = EmbeddingTable(["ok", token], np.zeros((2, 2), np.float32))
        path = tmp_path / "vecs.out"
        path.write_bytes(b"old contents")
        with pytest.raises(UnicodeEncodeError):
            write(table, path)
        assert path.read_bytes() == b"old contents"

    @pytest.mark.parametrize("write", [write_binary, write_text])
    def test_a_refused_table_leaves_the_target_untouched(self, tmp_path, write):
        path = tmp_path / "vecs.out"
        path.write_bytes(b"old contents")
        with pytest.raises(ValueError):
            write(EmbeddingTable(["ok", "a b"], np.zeros((2, 2), np.float32)), path)
        assert path.read_bytes() == b"old contents"

    @pytest.mark.parametrize("write", [write_binary, write_text])
    def test_refuses_a_table_with_no_rows(self, tmp_path, write):
        # what keep= gives when no token matches; its header count, 0, would not load
        path = tmp_path / "vecs.out"
        path.write_bytes(b"old contents")
        write_text(small_table(), tmp_path / "vecs.txt")
        empty = load_text(tmp_path / "vecs.txt", keep=ABSENT)
        with pytest.raises(ValueError, match="no rows"):
            write(empty, path)
        assert path.read_bytes() == b"old contents"
        with pytest.raises(ValueError, match="no rows"):
            write(empty, tmp_path / "new.out")
        assert not (tmp_path / "new.out").exists()


class TestLoadEmbeddings:
    def test_sniffs_binary(self, tmp_path):
        path = tmp_path / "vecs.bin"
        write_binary(small_table(), path)
        assert load_embeddings(path).tokens == small_table().tokens

    @pytest.mark.parametrize("suffix", [".txt", ".vec"])
    def test_sniffs_text(self, tmp_path, suffix):
        path = tmp_path / f"vecs{suffix}"
        write_text(small_table(), path)
        assert load_embeddings(path).dim == 2

    def test_explicit_format_overrides_extension(self, tmp_path):
        path = tmp_path / "vectors.dat"
        write_text(small_table(), path)
        assert load_embeddings(path, fmt="text").dim == 2

    def test_unknown_extension(self, tmp_path):
        with pytest.raises(ValueError, match="cannot infer"):
            load_embeddings(tmp_path / "vectors.dat")

    def test_unknown_format_name(self, tmp_path):
        with pytest.raises(ValueError, match="unknown embedding format"):
            load_embeddings(tmp_path / "v.bin", fmt="parquet")


class TestKeep:
    @pytest.mark.parametrize("suffix", [".bin", ".txt"])
    def test_kept_rows_in_file_order(self, tmp_path, suffix):
        path = tmp_path / f"vecs{suffix}"
        table = small_table()
        (write_binary if suffix == ".bin" else write_text)(table, path)
        kept = load_embeddings(path, keep=iter(["café", "unicorn", "dog"]))
        assert kept.tokens == ["dog", "café"]
        assert kept.matrix.tobytes() == table.matrix[[0, 2]].tobytes()

    @pytest.mark.parametrize("suffix", [".bin", ".txt"])
    def test_nothing_kept_is_an_empty_table(self, tmp_path, suffix):
        path = tmp_path / f"vecs{suffix}"
        (write_binary if suffix == ".bin" else write_text)(small_table(), path)
        empty = load_embeddings(path, keep=["unicorn"])
        assert len(empty) == 0 and empty.dim == 2 and empty.tokens == []
        assert empty.lookup("dog") is None

    def test_binary_tokens_match_as_loaded(self, tmp_path):
        path = tmp_path / "vecs.bin"
        path.write_bytes(b"2 1\na\xff " + ONE + b"\n\xc3\xa9 " + ONE + b"\n")
        assert load_binary(path, keep={"a\udcff"}).tokens == ["a\udcff"]
        # these strings encode to the bytes of "é" or do not encode at all,
        # but no file token loads as either
        assert load_binary(path, keep={"\udcc3\udca9", "\ud800"}).tokens == []
        assert load_binary(path, keep={"é"}).tokens == ["é"]

    def test_text_checks_every_row(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("3 2\ndog 1 2\ncat 1 x\n")
        with pytest.raises(TextFormatError, match=r"unparsable float in row \(line 3\)"):
            load_text(path, keep={"dog"})
        path.write_text("3 2\ndog 1 2\ncat 1 2\n")
        with pytest.raises(CountMismatchError, match="the file has 2"):
            load_text(path, keep={"dog"})
        path.write_text("dog 1 2\ncat 1 2\ncat 3 4\n")
        with pytest.raises(DuplicateTokenError, match=r"'cat' \(line 3\)"):
            load_text(path, keep={"dog"})

    def test_memory_follows_the_kept_rows(self, tmp_path):
        # 20 000 x 300 float32 is a 24 MB matrix; keeping 10 rows must peak
        # far below it.  The peak (5.0 MB) is mostly the set of token bytes
        # seen (2.9 MB at the end of the file), which grows with the file; the
        # rest is read buffers: at a refill, the old buffer (dropped only
        # after the read), its unread tail, one 1 MB chunk and their join.
        rng = np.random.default_rng(31)
        tokens = [f"w{k}" for k in range(20_000)]
        matrix = rng.standard_normal((len(tokens), 300), dtype=np.float32)
        path = tmp_path / "big.bin"
        write_binary(EmbeddingTable(tokens, matrix), path)
        keep = set(rng.choice(tokens, size=10, replace=False).tolist())
        tracemalloc.start()
        try:
            kept = load_binary(path, keep=keep)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < matrix.nbytes / 4, peak
        rows = [k for k, t in enumerate(tokens) if t in keep]
        assert kept.tokens == [tokens[k] for k in rows]
        assert kept.matrix.tobytes() == matrix[rows].tobytes()


class TestTextValues:
    F32_MAX = float(np.finfo(np.float32).max)
    HALFWAY = 2.0 ** 128 - 2.0 ** 103  # halfway from FLT_MAX to 2**128: rounds to inf
    BELOW_MAX = float(np.nextafter(np.float32(F32_MAX), np.float32(0)))  # as a float32
    EDGES = [1e39, -1e39, F32_MAX, -F32_MAX, BELOW_MAX, math.nextafter(F32_MAX, 0.0),
             math.nextafter(F32_MAX, math.inf), HALFWAY, -HALFWAY, math.nextafter(HALFWAY, 0.0),
             1e-46, 7e-46, -7e-46, -0.0, math.nan, math.inf, -math.inf]

    @pytest.mark.parametrize("keep", [None, {"w"}])
    def test_beyond_float32_loads_as_inf_without_a_warning(self, tmp_path, keep):
        path = tmp_path / "vecs.txt"
        path.write_text("w 1e39 -1e39 0\nv 1 2 3\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = load_text(path, keep=keep)
        assert table.tokens[0] == "w"
        assert table.matrix[0].tolist() == [math.inf, -math.inf, 0.0]

    @pytest.mark.parametrize("keep", [None, {"w"}])
    def test_rows_round_as_numpy_casts_them(self, tmp_path, keep):
        path = tmp_path / "vecs.txt"
        path.write_text("w " + " ".join(map(repr, self.EDGES)) + "\n")
        with np.errstate(over="ignore"):
            want = np.array(self.EDGES, dtype=np.float32)
        got = load_text(path, keep=keep).matrix[0]
        assert got.view(np.uint32).tolist() == want.view(np.uint32).tolist()
        assert got[:2].tolist() == [math.inf, -math.inf]


class TestTextHeaders:
    """Today's outcomes of headers that promise too much or too little."""

    @pytest.mark.parametrize("text, error, line, message", [
        # no matrix of 10**12 rows is asked for: a file of this size holds 2
        ("1000000000000 2\na 1 2\nb 3 4\n", CountMismatchError, None,
         "header promises 1000000000000 entries but the file has 2"),
        ("1 10000000000\na 1 2\n", TextFormatError, 2,
         "expected 10000000000 values, got 2 (line 2)"),
        ("2 2\na 1 2\nb 3 4\nc 5 6\n", CountMismatchError, None,
         "header promises 2 entries but the file has 3"),
        # a fault on any line beats the count mismatch reported at the end
        ("2 2\na 1 2\nb 3 4\nc 5 6\nd 7 x\n", TextFormatError, 5,
         "unparsable float in row (line 5)"),
        ("\n0 3\na 1 2 3\n", MalformedHeaderError, 2,
         "count and dim must be positive, got 0 and 3 (line 2)"),
    ], ids=["count-10**12", "dim-10**10", "one-row-too-many", "bad-float-after-extra-rows",
            "count-0"])
    @pytest.mark.parametrize("keep", [None, ABSENT, {"a", "c"}], ids=["all", "absent", "some"])
    def test_outcome(self, tmp_path, text, error, line, message, keep):
        path = tmp_path / "vecs.txt"
        path.write_text(text)
        assert outcome(load_text, path, keep) == (error, None, line, message)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs here")
class TestTextStream:
    def test_a_stream_loads_as_the_file_does(self, tmp_path):
        # about 129 KB of text, more than a pipe buffers (64 KB on Linux), so the
        # loader reads while the writer still writes.  A stream's matrix starts
        # empty and grows at any row count; 3077 needs no special value
        rows = 3077
        rng = np.random.default_rng(5)
        tokens = [f"w{k}" for k in range(rows)]
        path, fifo = tmp_path / "vecs.txt", tmp_path / "stream.txt"
        write_text(EmbeddingTable(tokens, rng.standard_normal((rows, 3), np.float32)), path)
        os.mkfifo(fifo)
        with_header = path.read_bytes()
        subset = set(tokens[::7])
        for data in (with_header, with_header.split(b"\n", 1)[1]):
            path.write_bytes(data)
            for keep in (None, subset, ABSENT):
                want = outcome(load_text, path, keep)
                assert isinstance(want[0], list)  # a table, not an error
                assert outcome(partial(load_fifo, load_text, data), fifo, keep) == want

    def test_a_stream_with_a_lying_header_reports_the_count(self, tmp_path):
        data = b"1000000000000 2\na 1 2\nb 3 4\n"
        path, fifo = tmp_path / "vecs.txt", tmp_path / "stream.txt"
        path.write_bytes(data)
        os.mkfifo(fifo)
        for keep in (None, ABSENT):
            want = outcome(load_text, path, keep)
            assert want[0] is CountMismatchError
            assert outcome(partial(load_fifo, load_text, data), fifo, keep) == want


PROC_FILE = "/proc/sys/net/ipv4/ip_local_port_range"  # reports 0 bytes, holds "N\tM\n"


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs here")
class TestUnknownSize:
    """A regular file that reports 0 bytes, as files under /proc do, has no known
    size: each loader reads it as it reads a stream of the same bytes."""

    ROWS = 3077  # TestTextStream's count; a matrix of unknown size grows from empty at any

    def cases(self, tmp_path):
        rng = np.random.default_rng(9)
        tokens = [f"w{k}" for k in range(self.ROWS)]
        table = EmbeddingTable(tokens, rng.standard_normal((self.ROWS, 3), np.float32))
        write_binary(table, tmp_path / "t.bin")
        write_text(table, tmp_path / "t.txt")
        text = (tmp_path / "t.txt").read_bytes()
        return set(tokens[::7]), [
            (load_binary, (tmp_path / "t.bin").read_bytes()),
            (load_binary, b"4000000000 300\ndog " + bytes(1200) + b"\n"),
            (load_binary, b"3 2\na " + ROW2 + b"\nb " + ROW2 + b"\n"),
            (load_text, text),
            (load_text, text.split(b"\n", 1)[1]),
            (load_text, b"1000000000000 2\na 1 2\nb 3 4\n"),
        ]

    def test_loads_as_a_stream(self, tmp_path, monkeypatch):
        subset, cases = self.cases(tmp_path)
        path, fifo = tmp_path / "vecs", tmp_path / "stream"
        os.mkfifo(fifo)
        fstat = os.fstat
        monkeypatch.setattr(os, "fstat", lambda fd: os.stat_result(fstat(fd)[:6] + (0,)
                                                                     + fstat(fd)[7:10]))
        for loader, data in cases:
            path.write_bytes(data)
            for keep in (None, subset, ABSENT):
                want = outcome(partial(load_fifo, loader, data), fifo, keep)
                assert outcome(loader, path, keep) == want, (loader.__name__, data[:20], keep)

    @pytest.mark.skipif(not os.path.isfile(PROC_FILE), reason=f"no {PROC_FILE} here")
    @pytest.mark.parametrize("loader", [load_binary, load_text])
    def test_a_proc_file(self, tmp_path, loader):
        fifo = tmp_path / "stream"
        os.mkfifo(fifo)
        with open(PROC_FILE, "rb") as fh:
            data = fh.read()
        want = outcome(partial(load_fifo, loader, data), fifo)
        assert outcome(loader, PROC_FILE) == want
        assert want[0] in (CountMismatchError, TextFormatError)


class TestUnderReportedSize:
    """A regular file may hold more bytes than its size reports: it was appended to
    during the load, or its file system under-reports.  Each loader then reads the
    bytes the file holds, as it reads a stream, whatever the chunk size."""

    @pytest.mark.parametrize("reported", [lambda size: size // 2, lambda size: 1],
                             ids=["half", "one-byte"])
    @pytest.mark.parametrize("loader, write", [(load_binary, write_binary),
                                               (load_text, write_text)],
                             ids=["binary", "text"])
    def test_loads_the_bytes_the_file_holds(self, tmp_path, monkeypatch, loader, write,
                                            reported):
        rng = np.random.default_rng(12)
        tokens = [f"w{k}" for k in range(50)]
        path = tmp_path / "vecs"
        write(EmbeddingTable(tokens, rng.standard_normal((50, 4), np.float32)), path)
        whole = path.read_bytes()
        subset = set(tokens[::7])
        keeps = (None, subset, ABSENT)
        wants = []
        for data in (whole, whole[:-7]):  # a table; a file that ends inside its last row
            path.write_bytes(data)
            wants.append([outcome(loader, path, keep) for keep in keeps])
        assert isinstance(wants[0][0][0], list)  # a table, not an error
        fstat = os.fstat
        monkeypatch.setattr(os, "fstat", lambda fd: os.stat_result(
            fstat(fd)[:6] + (reported(fstat(fd)[6]),) + fstat(fd)[7:10]))
        for data, want in zip((whole, whole[:-7]), wants):
            path.write_bytes(data)
            for chunk in CHUNKS:
                monkeypatch.setattr(embeddings, "_CHUNK", chunk)
                assert [outcome(loader, path, keep) for keep in keeps] == want, chunk


class TestTextMemory:
    """``load_text`` fills one float32 matrix: with a header it is sized once;
    without one it grows and is trimmed, so the table keeps no spare rows."""

    ROWS, DIM = 20_000, 300  # a 24 MB float32 matrix

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        # single digits: Python caches one-character strings, so the traced
        # loads allocate, and cost, little beyond the floats and the matrix
        rng = np.random.default_rng(31)
        tokens = [f"w{k}" for k in range(self.ROWS)]
        matrix = rng.integers(0, 10, size=(self.ROWS, self.DIM)).astype(np.float32)
        head = tmp_path_factory.mktemp("text") / "big.txt"
        write_text(EmbeddingTable(tokens, matrix), head)
        bare = head.with_name("bare.txt")
        bare.write_bytes(head.read_bytes().split(b"\n", 1)[1])
        return tokens, matrix, head, bare

    @staticmethod
    def traced_load(path, keep=None):
        """The table, and the peak and retained bytes its load allocated."""
        tracemalloc.start()
        try:
            table = load_text(path, keep=keep)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return table, peak, retained

    def test_header_sizes_the_matrix_once(self, files):
        tokens, matrix, head, _ = files
        table, peak, _ = self.traced_load(head)
        # the matrix, the tokens and the set of tokens seen: about 1.19x
        assert peak < 1.25 * matrix.nbytes, peak / matrix.nbytes
        assert table.tokens == tokens
        assert table.matrix.tobytes() == matrix.tobytes()

    def test_headerless_matrix_grows_and_is_trimmed(self, files):
        tokens, matrix, _, bare = files
        table, peak, retained = self.traced_load(bare)
        # a matrix that doubles peaks at 1.64x, 1.80x with the tokens; per-row
        # arrays joined by np.vstack peak at 2.37x
        assert peak <= 2.37 * matrix.nbytes, peak / matrix.nbytes
        # the matrix, tokens and vocabulary: 1.09x; untrimmed, it would be 1.73x
        assert retained < 1.2 * matrix.nbytes, retained / matrix.nbytes
        assert table.tokens == tokens
        assert table.matrix.tobytes() == matrix.tobytes()

    def test_memory_follows_the_kept_rows(self, files):
        tokens, matrix, head, _ = files
        keep = set(np.random.default_rng(32).choice(tokens, size=10, replace=False).tolist())
        kept, peak, _ = self.traced_load(head, keep)
        # mostly the set of tokens seen, which grows with the file
        assert peak < matrix.nbytes / 4, peak
        rows = [k for k, t in enumerate(tokens) if t in keep]
        assert kept.tokens == [tokens[k] for k in rows]
        assert kept.matrix.tobytes() == matrix[rows].tobytes()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs here")
class TestStreamMemory:
    """A stream has no size, so neither loader can size its matrix up front: the
    matrix grows as rows arrive and is trimmed to them."""

    ROWS, DIM = TestTextMemory.ROWS, TestTextMemory.DIM

    @staticmethod
    def traced_load(loader, data, fifo):
        """The table, and the peak and retained bytes its load from ``fifo`` allocated."""
        tracemalloc.start()
        try:
            table = load_fifo(loader, data, fifo)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return table, peak, retained

    @pytest.mark.parametrize("loader, header", [(load_binary, True), (load_text, True),
                                                (load_text, False)],
                             ids=["binary", "text", "text-headerless"])
    def test_matrix_grows_and_is_trimmed(self, tmp_path, loader, header):
        # TestTextMemory's table
        rng = np.random.default_rng(31)
        tokens = [f"w{k}" for k in range(self.ROWS)]
        matrix = rng.integers(0, 10, size=(self.ROWS, self.DIM)).astype(np.float32)
        path, fifo = tmp_path / "vecs", tmp_path / "stream"
        (write_binary if loader is load_binary else write_text)(
            EmbeddingTable(tokens, matrix), path)
        os.mkfifo(fifo)
        data = path.read_bytes() if header else path.read_bytes().split(b"\n", 1)[1]
        table, peak, retained = self.traced_load(loader, data, fifo)
        # peaks measured at 1.24x (binary), 1.20x (text) and 1.59x (headerless
        # text); a binary matrix copied into a new array at each growth peaked
        # at 1.91x.  TestTextMemory's headerless bounds hold for every stream
        assert peak <= 2.37 * matrix.nbytes, peak / matrix.nbytes
        # the matrix, tokens and vocabulary: 1.09x
        assert retained < 1.2 * matrix.nbytes, retained / matrix.nbytes
        assert table.tokens == tokens
        assert table.matrix.tobytes() == matrix.tobytes()

    def test_a_long_row_allocates_for_the_rows_that_arrive(self, tmp_path):
        # one headerless row of 500 000 values: a 2 MB matrix.  A first matrix
        # of 1024 rows, allocated before the second row arrives, peaked at
        # 2069 MB; growing from the rows that arrive peaks at 25 MB, mostly
        # the row's Python floats
        fifo = tmp_path / "stream"
        os.mkfifo(fifo)
        data = ("w " + " ".join(["1"] * 500_000) + "\n").encode()
        table, peak, _ = self.traced_load(load_text, data, fifo)
        assert table.matrix.shape == (1, 500_000)
        assert peak < 20 * table.matrix.nbytes, peak / table.matrix.nbytes
