"""``load_binary`` against a plain reader, on files of many entries per buffer.

The loader takes every entry in one loop.  An entry that is not wholly in
the buffer with a byte after its row goes through one branch that refills
the buffer and raises the format's errors; every other entry skips it.
These files hold thousands of entries, so both ways run at every chunk
size, and their layouts hold what the format allows and a careless scan
gets wrong: entries with and without the optional newline, an empty
token, tokens that begin with a newline, tokens that are not UTF-8, and
0x20 bytes inside row data.  The loader reads a stream, which cannot
seek, to the same table and errors as a regular file.
"""

import os
import threading
from functools import partial

import numpy as np
import pytest

from entvec import embeddings
from entvec.embeddings import (
    CountMismatchError,
    DuplicateTokenError,
    TruncatedFileError,
    load_binary,
)

from test_corruption import ABSENT, outcome

DIM = 3
ROW = 4 * DIM
CHUNKS = (1, 7, 64, ROW + 1, 4096, embeddings._CHUNK)


def build(layout, seed, entries=3000):
    """A binary file of random tokens and rows; returns its bytes and per-entry
    (token bytes, row bytes, file offset of the entry)."""
    rng = np.random.default_rng(seed)
    newline = {"all": [True] * entries, "none": [False] * entries,
               "mixed": (rng.random(entries) < 0.5).tolist()}[layout]
    alphabet = np.array([b for b in range(256) if b not in b" \n"], np.uint8)
    # a random prefix, then the index at a fixed width: two tokens of one
    # length end in one index, so no two entries share a token
    width = len(str(entries))
    tokens = [alphabet[rng.integers(len(alphabet), size=int(rng.integers(0, 12)))].tobytes()
              + str(k).zfill(width).encode() for k in range(entries)]
    tokens[5] = b""
    tokens[6] = "café".encode()  # the bytes of one ABSENT token, under another string
    tokens[7] = b"\xff\xfe" + tokens[7]  # not UTF-8
    # a token may begin with a newline only where the entry before it ends in one
    starts = [k for k in range(1, entries) if newline[k - 1]][::97] + [0]
    for k in starts:
        tokens[k] = b"\n" + tokens[k]
    rows = rng.integers(0, 256, size=(entries, ROW), dtype=np.uint8)
    rows[rng.random(rows.shape) < 0.1] = 0x20
    rows[rng.random(rows.shape) < 0.05] = 0x0A
    out = [f"{entries} {DIM}\n".encode()]
    offset, table = len(out[0]), []
    for token, row, nl in zip(tokens, rows, newline):
        entry = token + b" " + row.tobytes() + b"\n" * nl
        table.append((token, row.tobytes(), offset))
        out.append(entry)
        offset += len(entry)
    return b"".join(out), table


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


def load_stream(data, fifo, keep=None):
    """``load_binary`` of ``data`` written into the FIFO ``fifo``, which cannot seek."""
    writer = threading.Thread(target=fifo.write_bytes, args=(data,), daemon=True)
    writer.start()
    try:
        return load_binary(fifo, keep=keep)
    finally:
        writer.join(timeout=10)
        assert not writer.is_alive()


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
            assert outcome(partial(load_stream, data), fifo, keep) == want, (chunk, keep)


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
            assert outcome(partial(load_stream, data), fifo, keep) == want, (chunk, keep)
