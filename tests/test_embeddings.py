import numpy as np
import pytest

from entvec.embeddings import (
    CountMismatchError,
    DuplicateTokenError,
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

    def test_rejects_duplicates(self):
        with pytest.raises(DuplicateTokenError):
            EmbeddingTable(["a", "a"], np.zeros((2, 1), dtype=np.float32))

    def test_rejects_shape_problems(self):
        with pytest.raises(ValueError):
            EmbeddingTable(["a"], np.zeros((2, 1)))
        with pytest.raises(ValueError):
            EmbeddingTable([], np.zeros((0, 1)))
        with pytest.raises(ValueError):
            EmbeddingTable(["a"], np.zeros((1, 0)))


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
