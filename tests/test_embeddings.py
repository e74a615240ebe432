import os
import threading
import tracemalloc

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
        writer = threading.Thread(target=path.write_bytes, args=(data,), daemon=True)
        writer.start()
        loaded = load_binary(path)
        writer.join(timeout=10)
        assert not writer.is_alive()
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
        # far below it.  The peak (4.5 MB) is mostly the set of token bytes
        # seen (2.9 MB at the end of the file), which grows with the file; the
        # rest is read buffers: at a refill, the unread tail, one 1 MB chunk
        # and their join.
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
