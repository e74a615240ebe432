"""``load_binary`` over read-only map windows of a regular file.

A regular file that reports its size is mapped one window at a time, from
the page that holds the current entry to ``_CHUNK`` bytes past it, or
further when the entry needs it; a stream, and the bytes past the reported
size, are read.  These cases pin the windows' edges at every chunk size,
each read as a file and through a FIFO: an entry longer than a window (the
longest token, and a row longer than a chunk), files whose size is or is
not a multiple of the page size, and a 0-byte file.  No map of the file
outlives a load, whatever it returns or raises.  A full load checks
repeats against the vocabulary it builds and a ``keep=`` load against the
bytes of the tokens it has seen: both name the same repeat at the same
offset, within a window, across windows, cut short by the file's end and
for a token that is not UTF-8.
"""

import mmap
import os
from functools import partial

import numpy as np
import pytest

from entvec import embeddings
from entvec.embeddings import DuplicateTokenError, load_binary

from conftest import load_fifo
from test_binary_scan import CHUNKS
from test_corruption import ABSENT, outcome

needs_fifo = pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs here")
needs_maps = pytest.mark.skipif(not os.path.exists("/proc/self/maps"),
                                reason="no /proc/self/maps here")

LONGEST = embeddings._MAX_TOKEN_BYTES


def binary(dim, tokens, newline=True, seed=0):
    """A binary file of ``tokens`` with seeded rows of ``dim`` values; returns its
    bytes and each entry's file offset."""
    rng = np.random.default_rng(seed)
    out = [f"{len(tokens)} {dim}\n".encode()]
    offsets, at = [], len(out[0])
    for token in tokens:
        entry = (token + b" " + rng.integers(0, 256, 4 * dim, dtype=np.uint8).tobytes()
                 + b"\n" * newline)
        offsets.append(at)
        out.append(entry)
        at += len(entry)
    return b"".join(out), offsets


def names(n):
    return [b"w%05d" % k for k in range(n)]


def maps_of(path):
    """The lines of /proc/self/maps that map the file at ``path``."""
    where = os.path.realpath(path)
    with open("/proc/self/maps") as fh:
        return [line for line in fh if line.split(None, 5)[5:] == [where + "\n"]]


def assert_file_and_stream_agree(tmp_path, data, keeps=(None, ABSENT)):
    """``data`` loads from a regular file as from a FIFO, with each of ``keeps``;
    returns the file's outcomes."""
    path, fifo = tmp_path / "vecs.bin", tmp_path / "stream.bin"
    path.write_bytes(data)
    if not fifo.exists():
        os.mkfifo(fifo)
    wants = [outcome(load_binary, path, keep) for keep in keeps]
    for keep, want in zip(keeps, wants):
        assert outcome(partial(load_fifo, load_binary, data), fifo, keep) == want, keep
    return wants


@needs_fifo
@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("at", [0, 1, 40])
def test_the_longest_token(tmp_path, monkeypatch, chunk, at):
    # longer than a window at every chunk size below it
    monkeypatch.setattr(embeddings, "_CHUNK", chunk)
    tokens = names(60)
    tokens[at] = b"t" * LONGEST
    data, _ = binary(3, tokens, newline=at % 2 == 0)
    got = assert_file_and_stream_agree(tmp_path, data, (None, {"t" * LONGEST, "w00002"}))
    assert got[0][0] == [t.decode() for t in tokens]
    assert got[1][0] == [t.decode() for t in tokens if t in (b"t" * LONGEST, b"w00002")]


@needs_fifo
@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("newline", [True, False], ids=["newlines", "no-newlines"])
def test_a_row_longer_than_a_chunk(tmp_path, monkeypatch, chunk, newline):
    # each row is longer than a chunk, so a window reaches past _CHUNK for it
    monkeypatch.setattr(embeddings, "_CHUNK", chunk)
    dim = chunk // 4 + 1
    data, _ = binary(dim, names(3), newline=newline, seed=chunk)
    got = assert_file_and_stream_agree(tmp_path, data, (None, {"w00001"}, ABSENT))
    assert got[0][:2] == (["w00000", "w00001", "w00002"], (3, dim))
    assert got[1][:2] == (["w00001"], (1, dim))
    # a file cut inside its last row reports it at every chunk size
    got = assert_file_and_stream_agree(tmp_path, data[:-(4 * dim) // 2])
    assert got[0][0] is embeddings.TruncatedFileError


@needs_fifo
@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("past", [-1, 0, 1])
@pytest.mark.parametrize("newline", [True, False], ids=["newlines", "no-newlines"])
def test_a_file_that_ends_near_a_page_boundary(tmp_path, monkeypatch, chunk, past, newline):
    # the file's size is two pages and `past` bytes; its last entry ends there
    monkeypatch.setattr(embeddings, "_CHUNK", chunk)
    tokens = names(1000)
    size = len(binary(3, tokens, newline)[0])
    tokens = tokens[:len(tokens) * 2 * mmap.PAGESIZE // size - 1]
    pad = 2 * mmap.PAGESIZE + past - len(binary(3, tokens, newline)[0])
    assert pad >= 0
    tokens[0] += b"p" * pad
    data, _ = binary(3, tokens, newline)
    assert len(data) == 2 * mmap.PAGESIZE + past
    got = assert_file_and_stream_agree(tmp_path, data, (None, {"w00010"}, ABSENT))
    assert got[0][0] == [t.decode() for t in tokens] and got[1][0] == ["w00010"]
    # bytes past the promised entries, and a file that ends inside the last row
    for cut, error in ((data + b"\n\n", embeddings.CountMismatchError),
                       (data[:-1 - newline], embeddings.TruncatedFileError)):
        assert assert_file_and_stream_agree(tmp_path, cut)[0][0] is error


@needs_fifo
@pytest.mark.parametrize("chunk", CHUNKS)
def test_an_empty_file(tmp_path, monkeypatch, chunk):
    monkeypatch.setattr(embeddings, "_CHUNK", chunk)
    got = assert_file_and_stream_agree(tmp_path, b"", (None, {"w00000"}))
    assert got == [(embeddings.MalformedHeaderError, 0, None, "empty file (byte offset 0)")] * 2


def failures():
    """(name, bytes) of files that fail in the entry loop, one per way to fail."""
    tokens = names(5000)
    data, at = binary(3, tokens)
    dup = data[:at[3000]] + tokens[10] + data[at[3000] + len(tokens[3000]):]
    return [
        ("no delimiter", data.replace(b"5000 3", b"5001 3", 1) + b"x" * (LONGEST + 1)),
        ("mid-token", data.replace(b"5000 3", b"5001 3", 1) + b"w"),
        ("inside a vector", data[:-5]),
        ("repeat", dup),
        ("repeat cut short", data[:at[-1]] + tokens[10] + b" " + bytes(5)),
        ("promises more", data.replace(b"5000 3", b"5001 3", 1)),
        ("continues past", data + b"w"),
    ]


@needs_maps
@pytest.mark.parametrize("chunk", CHUNKS)
def test_no_map_outlives_a_load(tmp_path, monkeypatch, chunk):
    monkeypatch.setattr(embeddings, "_CHUNK", chunk)
    path = tmp_path / "vecs.bin"
    path.write_bytes(binary(3, names(5000))[0])
    for keep in (None, {"w00007"}, ABSENT):
        table = load_binary(path, keep=keep)
        assert not maps_of(path), keep
        del table
    classes = set()
    for name, data in failures():
        path.write_bytes(data)
        for keep in (None, {"w00007"}):
            # the error's traceback holds the load's frames: they hold no map
            with pytest.raises(embeddings.EmbeddingFormatError) as exc_info:
                load_binary(path, keep=keep)
            assert not maps_of(path), (name, keep, exc_info.value)
            classes.add(type(exc_info.value))
    assert len(classes) == 4  # every class the entry loop raises


def repeats():
    """(name, bytes, offset of the repeat, token) for each place a repeat can be."""
    # past the first window at every chunk size: the longest token and a chunk past it
    far = next(k for k, at in enumerate(binary(64, names(6000))[1])
               if at > LONGEST + 1 + embeddings._CHUNK)
    cases = []
    for name, first, repeat, token in [
            ("previous", 300, 301, None),
            ("not UTF-8", 3, 7, b"\xff\xfe" + b"w00003"),
            ("across windows", 1, far, None)]:
        tokens = names(6000)
        tokens[first] = tokens[repeat] = token or tokens[first]
        data, at = binary(64, tokens)
        cases.append((name, data, at[repeat], tokens[first]))
    tokens = names(6000)
    data, at = binary(64, tokens)
    cases.append(("cut short", data[:at[-1]] + tokens[2] + b" " + bytes(70), at[-1], tokens[2]))
    return cases


@pytest.mark.parametrize("chunk", CHUNKS)
def test_both_repeat_indexes_name_the_same_repeat(tmp_path, monkeypatch, chunk):
    path = tmp_path / "dup.bin"
    for name, data, offset, token in repeats():
        path.write_bytes(data)
        monkeypatch.setattr(embeddings, "_CHUNK", chunk)
        token = token.decode("utf-8", "surrogateescape")
        want = (DuplicateTokenError, offset, None,
                f"duplicate token {token!r} (byte offset {offset})")
        for keep in (None, {"w00005"}, ABSENT, {token}):
            assert outcome(load_binary, path, keep) == want, (name, keep)
