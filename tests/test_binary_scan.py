"""``load_binary`` against a plain reader, on files of many entries per buffer.

The loader's loop only refills the buffer and raises the format's errors,
for an entry that is not wholly in the buffer with a byte after its row;
one take step then takes all of the buffer's whole entries at once, with
one split, one duplicate check, one row gather and one decode.  These
files hold thousands of entries, so both run at every chunk size, and
their layouts hold what the format allows and a careless scan gets
wrong: entries with and without the optional newline, an empty token,
tokens that begin with a newline, tokens that are not UTF-8, and 0x20
bytes inside row data.  Further cases pin the take step's edges: a repeat
in one buffer and across two, a header count that ends mid-buffer, a row
that ends where a read ends, tokens cut inside UTF-8 sequences, the
longest token across a chunk boundary, and a megabyte without a space,
which must fail fast rather than be searched.  The loader reads a stream,
which cannot seek, to the same table and errors as a regular file.
"""

import os
from functools import partial

import numpy as np
import pytest

from entvec import embeddings
from entvec.embeddings import (
    CountMismatchError,
    DuplicateTokenError,
    MalformedHeaderError,
    TruncatedFileError,
    load_binary,
)

from conftest import deadline, load_fifo
from test_corruption import ABSENT, outcome

DIM = 3
ROW = 4 * DIM
CHUNKS = (1, 7, 64, ROW + 1, 4096, embeddings._CHUNK)


def random_entries(layout, seed, n):
    """Random tokens, rows and newline flags of ``n`` entries, all bytes."""
    rng = np.random.default_rng(seed)
    newline = {"all": [True] * n, "none": [False] * n,
               "mixed": (rng.random(n) < 0.5).tolist()}[layout]
    alphabet = np.array([b for b in range(256) if b not in b" \n"], np.uint8)
    # a random prefix, then the index at a fixed width: two tokens of one
    # length end in one index, so no two entries share a token
    width = len(str(n))
    tokens = [alphabet[rng.integers(len(alphabet), size=int(rng.integers(0, 12)))].tobytes()
              + str(k).zfill(width).encode() for k in range(n)]
    tokens[5] = b""
    tokens[6] = "café".encode()  # the bytes of one ABSENT token, under another string
    tokens[7] = b"\xff\xfe" + tokens[7]  # not UTF-8
    # a token may begin with a newline only where the entry before it ends in one
    starts = [k for k in range(1, n) if newline[k - 1]][::97] + [0]
    for k in starts:
        tokens[k] = b"\n" + tokens[k]
    rows = rng.integers(0, 256, size=(n, ROW), dtype=np.uint8)
    rows[rng.random(rows.shape) < 0.1] = 0x20
    rows[rng.random(rows.shape) < 0.05] = 0x0A
    return tokens, [row.tobytes() for row in rows], newline


def assemble(tokens, rows, newline, count=None):
    """A binary file of these entries, its header promising ``count`` (default:
    their number); returns its bytes and per entry (token bytes, row bytes,
    file offset of the entry)."""
    out = [f"{len(tokens) if count is None else count} {DIM}\n".encode()]
    offset, table = len(out[0]), []
    for token, row, nl in zip(tokens, rows, newline):
        entry = token + b" " + row + b"\n" * nl
        table.append((token, row, offset))
        out.append(entry)
        offset += len(entry)
    return b"".join(out), table


def build(layout, seed, entries=3000):
    """A binary file of random tokens and rows; returns its bytes and per-entry
    (token bytes, row bytes, file offset of the entry)."""
    return assemble(*random_entries(layout, seed, entries))


def reference(data, keep=None):
    """Tokens and matrix bytes of a well-formed file, read entry by entry."""
    header, _, body = data.partition(b"\n")
    count, dim = (int(f) for f in header.split())
    tokens, rows, pos = [], [], 0
    for _ in range(count):
        sp = body.index(b" ", pos)
        token = body[pos:sp].decode("utf-8", "surrogateescape")
        stop = sp + 1 + 4 * dim
        if keep is None or token in keep:
            tokens.append(token)
            rows.append(body[sp + 1:stop])
        pos = stop + (body[stop:stop + 1] == b"\n")
    assert pos == len(body)
    return tokens, b"".join(rows)


@pytest.mark.parametrize("layout", ["all", "none", "mixed"])
def test_loads_as_the_plain_reader_reads(tmp_path, monkeypatch, layout):
    data, table = build(layout, seed={"all": 1, "none": 2, "mixed": 3}[layout])
    path = tmp_path / "many.bin"
    path.write_bytes(data)
    words = reference(data)[0]
    rng = np.random.default_rng(4)
    subset = {w for w in words if rng.random() < 0.1}
    keeps = [None, subset, ABSENT, subset | ABSENT | {words[5], words[7], table[8][0], 8}]
    wants = [reference(data, keep) for keep in keeps]
    assert len(wants[0][0]) == len(table) and wants[2] == ([], b"")
    for chunk in CHUNKS:
        monkeypatch.setattr(embeddings, "_CHUNK", chunk)
        for keep, want in zip(keeps, wants):
            got = load_binary(path, keep=keep)
            assert (got.tokens, got.matrix.tobytes()) == want, (chunk, keep)
            assert got.matrix.shape == (len(want[0]), DIM)


def boundary_entry(table, chunk=4096):
    """The first entry that straddles a ``chunk``-byte boundary of the file's body."""
    base = table[0][2]
    return next(k for k, (token, row, at) in enumerate(table)
                if (at - base) // chunk != (at - base + len(token) + len(row)) // chunk)


@pytest.mark.parametrize("layout", ["all", "mixed"])
def test_duplicate_near_a_chunk_boundary(tmp_path, monkeypatch, layout):
    data, table = build(layout, seed=5)
    k = boundary_entry(table)
    token, row, at = table[k]
    dup = next(t for t, _, _ in table[k - 40::-1] if not t.startswith(b"\n"))
    data = data[:at] + dup + data[at + len(token):]
    path = tmp_path / "dup.bin"
    path.write_bytes(data)
    for chunk in CHUNKS:
        monkeypatch.setattr(embeddings, "_CHUNK", chunk)
        for keep in (None, ABSENT):
            with pytest.raises(DuplicateTokenError) as exc_info:
                load_binary(path, keep=keep)
            assert exc_info.value.offset == at, chunk
            assert repr(dup.decode("utf-8", "surrogateescape")) in str(exc_info.value)


@pytest.mark.parametrize("layout", ["all", "none"])
def test_truncation_near_a_chunk_boundary(tmp_path, monkeypatch, layout):
    data, table = build(layout, seed=6)
    token, row, at = table[boundary_entry(table)]
    path = tmp_path / "cut.bin"
    path.write_bytes(data[:at + len(token) + 1 + ROW // 2])
    for chunk in CHUNKS:
        monkeypatch.setattr(embeddings, "_CHUNK", chunk)
        for keep in (None, ABSENT):
            with pytest.raises(TruncatedFileError, match="inside a") as exc_info:
                load_binary(path, keep=keep)
            assert exc_info.value.offset == at + len(token) + 1, chunk


@pytest.mark.parametrize("layout", ["all", "none"])
def test_a_repeat_cut_short_is_reported_as_a_repeat(tmp_path, monkeypatch, layout):
    # the duplicate check comes before the row's truncation
    data, table = build(layout, seed=8)
    token, row, at = table[-1]
    dup = next(t for t, _, _ in table[100:] if not t.startswith(b"\n"))
    path = tmp_path / "dup-cut.bin"
    path.write_bytes(data[:at] + dup + b" " + row[:ROW // 2])
    for chunk in CHUNKS:
        monkeypatch.setattr(embeddings, "_CHUNK", chunk)
        for keep in (None, ABSENT):
            with pytest.raises(DuplicateTokenError) as exc_info:
                load_binary(path, keep=keep)
            assert exc_info.value.offset == at, chunk


def assert_loads(path, data):
    """``data``, written at ``path``, loads as the plain reader reads it, whole, a
    subset of its tokens kept and tokens it does not hold kept."""
    path.write_bytes(data)
    for keep in (None, set(reference(data)[0][::7]), ABSENT):
        got = load_binary(path, keep=keep)
        assert (got.tokens, got.matrix.tobytes()) == reference(data, keep), keep


def assert_fails(path, data, error, offset, message):
    """Every ``keep`` fails on ``data``, written at ``path``, with one error."""
    path.write_bytes(data)
    for keep in (None, {"absent"}, ABSENT):
        with pytest.raises(error) as exc_info:
            load_binary(path, keep=keep)
        assert (exc_info.value.offset, str(exc_info.value)) == (
            offset, f"{message} (byte offset {offset})"), keep


def body_offset(table, k):
    """Where entry ``k`` starts, counted from the first byte after the header."""
    return table[k][2] - table[0][2]


@pytest.mark.parametrize("chunk", CHUNKS)
def test_bytes_without_a_space_are_not_searched(tmp_path, monkeypatch, chunk):
    # after the entries, 1 MB in which no token can end: a split that searched
    # on from each of its bytes would try 65536 bytes at each
    monkeypatch.setattr(embeddings, "_CHUNK", chunk)
    tokens, rows, newline = random_entries("mixed", 9, 300)
    data, _ = assemble(tokens, rows, newline, count=301)
    with deadline(5):
        assert_fails(tmp_path / "junk.bin", data + b"x" * (1 << 20), MalformedHeaderError,
                     len(data), "no delimiter within 65536 bytes")


@pytest.mark.parametrize("chunk", CHUNKS)
def test_the_longest_token_across_a_chunk_boundary_loads(tmp_path, monkeypatch, chunk):
    monkeypatch.setattr(embeddings, "_CHUNK", chunk)
    tokens, rows, newline = random_entries("mixed", 10, max(300, chunk // 20))
    _, table = assemble(tokens, rows, newline)
    # the first entry within 100 bytes of the boundary at `chunk` (the first,
    # for a chunk shorter than that) is the longest token, so it crosses it
    k = next(k for k in range(len(table)) if body_offset(table, k) >= chunk - 100)
    tokens[k] = b"t" * embeddings._MAX_TOKEN_BYTES
    assert_loads(tmp_path / "long.bin", assemble(tokens, rows, newline)[0])


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("first", ["previous", "far"])
def test_a_repeat_is_reported_at_its_offset(tmp_path, monkeypatch, chunk, first):
    # the previous entry shares a buffer with the repeat wherever a buffer holds
    # both; a far one is taken from a buffer that ends before the repeat starts
    monkeypatch.setattr(embeddings, "_CHUNK", chunk)
    tokens, rows, newline = random_entries("all", 11, 300 if first == "previous" else
                                           max(300, chunk // 20))
    _, table = assemble(tokens, rows, newline)
    if first == "previous":
        j, k = 149, 150
    else:
        # entry 1 is taken from a buffer that ends less than a chunk past the
        # byte after entry 1; the repeat starts at or past that end
        j = 1
        end = body_offset(table, 2)
        k = next(k for k in range(len(table)) if body_offset(table, k) >= end + 1 + chunk)
    tokens[k] = tokens[j]
    data, table = assemble(tokens, rows, newline)
    token = tokens[j].decode("utf-8", "surrogateescape")
    assert_fails(tmp_path / "dup.bin", data, DuplicateTokenError, table[k][2],
                 f"duplicate token {token!r}")


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("after", ["entry", "repeat"])
def test_a_count_that_ends_mid_buffer(tmp_path, monkeypatch, chunk, after):
    # the entries past the count are not taken, not even a repeat
    monkeypatch.setattr(embeddings, "_CHUNK", chunk)
    tokens, rows, newline = random_entries("mixed", 12, 300)
    if after == "repeat":
        tokens[200] = next(t for t in tokens[1:] if not t.startswith(b"\n"))
    data, table = assemble(tokens, rows, newline, count=200)
    assert_fails(tmp_path / "count.bin", data, CountMismatchError, table[200][2],
                 "file continues past the 200 promised entries")


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("layout, ends", [("all", "before"), ("none", "before"),
                                          ("none", "at")])
def test_a_row_that_ends_at_a_buffer_end(tmp_path, monkeypatch, chunk, layout, ends):
    # entry k's row ends where a read of `chunk` bytes ends.  Whether a newline
    # follows it is in the next read: here one does ("all") or not ("none"), or
    # the file ends there ("at").  Entry k's token is empty, and under "all" the
    # token after it begins with a newline, so the next read begins "\n\n"
    monkeypatch.setattr(embeddings, "_CHUNK", chunk)
    tokens, rows, newline = random_entries(layout, 13, max(300, chunk // 20))
    _, table = assemble(tokens, rows, newline)
    k = max([50] + [k for k in range(len(table))
                    if body_offset(table, k) + len(tokens[k]) + 1 + ROW <= chunk - 64])
    tokens[5], tokens[k] = tokens[k], b""
    if layout == "all":
        tokens[k + 1] = b"\n" + tokens[k + 1].lstrip(b"\n")
    _, table = assemble(tokens, rows, newline)
    row_end = body_offset(table, k) + 1 + ROW
    tokens[0] += b"p" * (-row_end % chunk)  # moves row k's end onto a read's end
    if ends == "at":
        tokens, rows, newline = tokens[:k + 1], rows[:k + 1], newline[:k] + [False]
    data, table = assemble(tokens, rows, newline)
    assert (body_offset(table, k) + 1 + ROW) % chunk == 0
    assert_loads(tmp_path / "edge.bin", data)


@pytest.mark.parametrize("chunk", CHUNKS)
def test_tokens_of_cut_multibyte_sequences(tmp_path, monkeypatch, chunk):
    # a token decodes as it would alone, beside tokens that end or begin inside
    # a UTF-8 sequence
    monkeypatch.setattr(embeddings, "_CHUNK", chunk)
    rng = np.random.default_rng(14)
    # each character whole and cut at either end, and bytes that begin no character
    pieces = sorted({p for c in "é€😀ab" for raw in [c.encode()] for n in range(len(raw))
                     for p in (raw[:n + 1], raw[n:])}) + [b"\xff", b"\xc0\xaf", b"\xed\xa0\x80"]

    def part():
        return b"".join(pieces[j] for j in rng.integers(len(pieces), size=int(rng.integers(0, 5))))

    n = 600
    tokens = [part() + str(k).zfill(4).encode() + part() for k in range(n)]
    rows = [rng.integers(0, 256, ROW, dtype=np.uint8).tobytes() for _ in range(n)]
    data, _ = assemble(tokens, rows, (rng.random(n) < 0.5).tolist())
    assert_loads(tmp_path / "utf8.bin", data)


needs_fifo = pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs here")


@needs_fifo
def test_a_stream_loads_as_the_file_does(tmp_path, monkeypatch):
    data, table = build("mixed", seed=3)
    path, fifo = tmp_path / "many.bin", tmp_path / "stream.bin"
    path.write_bytes(data)
    os.mkfifo(fifo)
    subset = {t.decode("utf-8", "surrogateescape") for t, _, _ in table[::7]}
    for chunk in (1, 64, 4096, embeddings._CHUNK):
        monkeypatch.setattr(embeddings, "_CHUNK", chunk)
        for keep in (None, subset, ABSENT):
            want = outcome(load_binary, path, keep)
            assert isinstance(want[0], list)  # a table, not an error
            stream = partial(load_fifo, load_binary, data)
            assert outcome(stream, fifo, keep) == want, (chunk, keep)


@needs_fifo
def test_the_matrix_holds_only_its_rows(tmp_path):
    # the matrix is sized for len(keep) rows; the returned one keeps only those it filled
    data, table = build("mixed", seed=4)
    path, fifo = tmp_path / "many.bin", tmp_path / "stream.bin"
    path.write_bytes(data)
    os.mkfifo(fifo)
    present = {t.decode("utf-8", "surrogateescape") for t, _, _ in table[10:12]}
    keep = present | {f"absent{k}" for k in range(500)}
    for load in (load_binary, partial(load_fifo, load_binary, data)):
        for rows, subset in ((2, keep), (3000, None)):
            matrix = load(path if load is load_binary else fifo, keep=subset).matrix
            assert matrix.shape == (rows, DIM)
            assert matrix.base.nbytes == matrix.nbytes


@needs_fifo
def test_a_stream_with_a_lying_header_reports_the_missing_entries(tmp_path, monkeypatch):
    # the header's count does not size the matrix of a stream
    data = b"4000000000 300\ndog " + bytes(1200) + b"\n"
    path, fifo = tmp_path / "lying.bin", tmp_path / "stream.bin"
    path.write_bytes(data)
    os.mkfifo(fifo)
    for chunk in CHUNKS:
        monkeypatch.setattr(embeddings, "_CHUNK", chunk)
        for keep in (None, ABSENT):
            want = outcome(load_binary, path, keep)
            assert want[:2] == (CountMismatchError, len(data))
            stream = partial(load_fifo, load_binary, data)
            assert outcome(stream, fifo, keep) == want, (chunk, keep)
