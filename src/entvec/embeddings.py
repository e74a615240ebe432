"""Loading and saving pretrained word embeddings.

Two on-disk formats are supported:

  * binary: header line ``<vocab_count> <dim>\\n`` in ASCII, then per
    entry a token terminated by a 0x20 byte, ``dim`` little-endian
    IEEE-754 32-bit floats, and an optional 0x0A.  This is the format
    the Word2Vec tool distributes (e.g. the GoogleNews vectors).
  * text: optional ``<count> <dim>`` header line, then one
    ``token v1 ... vdim`` row per line, whitespace separated.

Vectors are stored at 32-bit precision (as distributed) and handed out
as 64-bit copies, since downstream log/sigmoid arithmetic wants the
headroom.  Tokens are matched exactly: no case folding, no
normalization, and vectors are never length-normalized, because the
entailment operators read the raw coordinates as log-odds.

Binary tokens round-trip byte for byte, invalid UTF-8 included
(``surrogateescape``); the text format is strict UTF-8 and raises
UnicodeEncodeError on such a token.  Reading a text file that is not
valid UTF-8 raises TextFormatError at its first line that is not, unless
an earlier line holds another error: a text file's errors come in line
order, and it is read once, so a stream reads as a file does: the rule of
``_text_lines``, which reads every text format of the package.  A writer
refuses a token its loader would misread, and a table with no rows (its
header count would be 0, which both loaders reject), with ValueError,
before it opens the file.

Both loaders copy each kept row into one float32 matrix, which one rule
sizes, grows and trims (``_Rows``).  It starts at the header's count, but at
no more rows than ``keep`` holds or than a regular file's reported size can
hold (a binary entry takes at least ``4 * dim + 1`` bytes, a text row
``2 * dim + 1``).  Without a header count or a known size (a stream, or a
file that reports 0 bytes, as files under /proc do) it starts empty.  When
full it grows in place where it can, to at least the rows that arrived and
to twice its rows, doubling no further than the header's count and never
past ``len(keep)`` rows.  So a stream loads as a regular file of the same
bytes, a regular file that holds more bytes than it reports (appended to
during the load, or on a file system that under-reports) loads the bytes it
holds, and a header that promises too much allocates only for the rows
that arrive.  The returned matrix holds exactly its rows.

``load_text`` reads line by line until the header or the first row fixes
``dim``.  Then it takes whole lines in blocks of about ``_TEXT_BLOCK``
characters, cut by ``_text_blocks`` (which also cuts the graph parser's
blocks), so a block's memory does not grow with ``dim``, and parses all
of a block's values in one ``np.loadtxt`` call, as float32.  A block is
kept only when each of its rows has a token that no earlier row has, is
valid UTF-8 and parses to ``dim`` values; any other block is read again
from its first line by the per-line code, which is the one definition of
the format and raises the first error in line order.  numpy's reader
splits on the whitespace ``str.split`` splits on and parses values with
the parser ``float`` uses, accepting a subset of its spellings (``1_0``
and ``١``, which it rejects, load through the per-line code); so nothing
a file gives, error or table, depends on the block size.  Each value is
rounded as ``np.array(values, np.float32)`` rounds it; a value beyond
float32's range loads as +-inf, as the literal ``inf`` does, without a
warning.  A block's kept rows go into the matrix in one copy.

``load_binary`` scans the file once.  A regular file that reports its size
is mapped read-only a window at a time (``mmap``): a window starts at the
allocation-granularity page that holds the current entry and reaches
``_CHUNK`` bytes past that entry, further when the entry needs it, but never
past the reported size.  A stream, a file that reports 0 bytes and any bytes
past the reported size are read in chunks of ``_CHUNK`` bytes, each joined
to the buffer's unread tail.  The take step reads a window in place; it
copies the kept rows out, so no table holds a map, and every map is closed
before the load returns or raises.  A file truncated by another process
during a load is not an error this module reports: a window mapped after the
truncation raises ValueError (from ``mmap``), and reading a page that a
window mapped before it has lost raises SIGBUS, which ends the process.
What ``load_binary`` returns or raises, byte offsets included, does not
depend on where the windows or chunks end.  Its loop only refills or
raises: an entry that is not wholly in the buffer with a byte after its row
(so its newline is known) goes through it, the only code that refills the
buffer or raises a format error; a row cut short by the file's end is
reported as a duplicate when its token is one.  Then one take step
(``_take``) takes all of the buffer's whole entries at once: one
regular-expression split finds them, and its last branch takes the rest of
the buffer at the first place that is not an entry, so the split never
searches on from there; one set or dict call checks their tokens for
repeats, one gather copies the kept rows and one decode reads the kept
tokens.  A full load checks repeats against the vocabulary it builds, the
dict of each token to its row that the table adopts, so it holds no second
index of the tokens; a ``keep`` load checks them against a set of token
bytes.  An entry takes at least a space and ``4 * dim`` bytes, so a header
promising more than the file can hold raises CountMismatchError or
TruncatedFileError where the data runs out; past the entries the reported
size can hold, one read takes the rest of the file, so a row longer than
the file is never buffered a chunk at a time.
The header line may hold at most 128 bytes and a token at most 65536; a
longer one raises MalformedHeaderError.

Every loader takes ``keep``, an iterable of tokens (default None: every
row).  With it, only the rows whose token is in ``keep`` are stored, in
file order, so a command that scores a few thousand words does not copy a
GoogleNews-sized table first.  The whole file is still read and checked:
header, counts, duplicates, truncation, delimiter limits and, in text
files, every row's field count and floats.  A file gives the same error
with ``keep`` as without, byte offset or line included, and on success
the kept rows are bit-identical to the full load's::

    table = load_embeddings("vectors.bin", keep={"dog", "animal", "unicorn"})
    table.tokens  # 'dog' and 'animal' in file order; 'unicorn' is not in the file

Tokens are compared as loaded, so a binary token that is not valid UTF-8
is kept by its ``surrogateescape`` string.  Each loader copies only kept
rows, into a matrix of at most ``len(keep)`` rows; the set of tokens seen,
kept for the duplicate check, still grows with the file.  A table may be
empty: that is what ``keep`` gives when none of its tokens is in the file.
Such a table cannot be written.
"""

from __future__ import annotations

import io
import math
import mmap
import os
import re
import stat
from itertools import compress

import numpy as np

_CHUNK = 1 << 20  # bytes per map window or read in load_binary; results do not depend on it
_TEXT_BLOCK = 1 << 18  # characters a text parser reads per block; results do not depend on it
_MAX_TOKEN_BYTES = 1 << 16  # longest binary token, read and written

__all__ = [
    "EmbeddingTable",
    "EmbeddingFormatError",
    "MalformedHeaderError",
    "TruncatedFileError",
    "DuplicateTokenError",
    "CountMismatchError",
    "TextFormatError",
    "load_binary",
    "load_text",
    "load_embeddings",
    "write_binary",
    "write_text",
]


class EmbeddingFormatError(ValueError):
    """Base class for unreadable embedding files.

    ``offset`` is a byte offset (binary files); ``line`` is a 1-based
    line number (text files).  Whichever does not apply is None.
    """

    def __init__(self, message: str, offset: int | None = None, line: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        elif line is not None:
            message = f"{message} (line {line})"
        super().__init__(message)
        self.offset = offset
        self.line = line


class MalformedHeaderError(EmbeddingFormatError):
    pass


class TruncatedFileError(EmbeddingFormatError):
    pass


class DuplicateTokenError(EmbeddingFormatError):
    pass


class CountMismatchError(EmbeddingFormatError):
    pass


class TextFormatError(EmbeddingFormatError):
    pass


class EmbeddingTable:
    """Immutable token -> vector table; rows float32, lookups float64.

    It shares memory with a float32 matrix it is given, through a read-only
    view.  A table may be empty (a load whose ``keep`` matches no token gives one).
    """

    def __init__(self, tokens, matrix):
        matrix = np.asarray(matrix, dtype=np.float32)
        tokens = list(tokens)
        if matrix.ndim != 2:
            raise ValueError(f"matrix must be 2-d, got shape {matrix.shape}")
        if len(tokens) != matrix.shape[0]:
            raise ValueError(f"{len(tokens)} tokens but {matrix.shape[0]} matrix rows")
        if matrix.shape[1] == 0:
            raise ValueError("embedding vectors must have at least one dimension")
        self._vocab = dict(zip(tokens, range(len(tokens))))
        if len(self._vocab) != len(tokens):
            seen = set()
            for tok in tokens:  # only to name the first repeat
                if tok in seen:
                    raise DuplicateTokenError(f"duplicate token {tok!r}")
                seen.add(tok)
        self._matrix = matrix.view()
        self._matrix.setflags(write=False)

    @classmethod
    def _adopt(cls, vocab: dict, matrix: np.ndarray) -> EmbeddingTable:
        """The table whose row ``vocab[token]`` is ``token``'s, taking ``vocab`` as its
        own: a loader that has built it, rows in order and checked for repeats,
        makes no second index of the tokens."""
        table = cls.__new__(cls)
        table._vocab = vocab
        table._matrix = np.asarray(matrix, dtype=np.float32).view()
        table._matrix.setflags(write=False)
        return table

    @property
    def dim(self) -> int:
        return self._matrix.shape[1]

    @property
    def tokens(self) -> list:
        return list(self._vocab)

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    def __len__(self) -> int:
        return self._matrix.shape[0]

    def __contains__(self, token: str) -> bool:
        return token in self._vocab

    def lookup(self, token: str):
        """The token's vector as a fresh float64 array, or None if absent."""
        idx = self._vocab.get(token)
        if idx is None:
            return None
        return self._matrix[idx].astype(np.float64)

    def rows(self, tokens) -> np.ndarray:
        """The tokens' vectors as one fresh float64 (len(tokens), dim) matrix.

        One gather of the float32 rows, cast once; KeyError names a token
        that is not in the table.
        """
        return self._matrix[[self._vocab[t] for t in tokens]].astype(np.float64)


def _keep_bytes(keep) -> set:
    """``keep``'s tokens as the bytes a binary file spells them with.

    A binary token is its bytes decoded with ``surrogateescape``, which maps
    bytes to strings one to one.  An entry that is not a str, or that no
    bytes decode to (``"\\ud800"``, or ``"caf\\udcc3\\udca9"``, whose bytes
    decode to ``"café"``), can match no token and is left out.
    """
    out = set()
    for token in set(keep):  # an unhashable entry raises TypeError, as in load_text
        if isinstance(token, str):
            try:
                raw = token.encode("utf-8", errors="surrogateescape")
            except UnicodeEncodeError:
                continue
            if raw.decode("utf-8", errors="surrogateescape") == token:
                out.add(raw)
    return out


def _file_size(fh):
    """The bytes the regular file ``fh`` reports from its position on; None when
    unknown: a stream, or a file that reports 0 bytes (/proc)."""
    st = os.fstat(fh.fileno())
    return max(0, st.st_size - fh.tell()) if stat.S_ISREG(st.st_mode) and st.st_size else None


def _header_sizes(count: int, dim: int, **where) -> tuple:
    """A header's ``(count, dim)``; MalformedHeaderError at ``where`` unless both are > 0."""
    if count < 1 or dim < 1:
        raise MalformedHeaderError(f"count and dim must be positive, got {count} and {dim}",
                                   **where)
    return count, dim


class _Rows:
    """The one float32 matrix a loader copies its kept rows into, and its size rule.

    The matrix is flat, ``dim`` values a row.  It starts at the header's
    ``count``, but at no more rows than ``keep`` holds or than ``size`` bytes
    can hold at ``row_min`` bytes a row; it starts empty when the count or
    the size is unknown.  ``room(rows)`` grows it to at least ``rows`` rows
    and at least twice its rows, but doubles it no further than the count
    allows, and never past ``len(keep)`` rows: a loader keeps no more.
    ``table(tokens)`` trims it to one row a token.  Both resize in place where
    the allocator can, so the matrix may move: release every view of it
    before calling either, and take a new one after (a resize under a live
    view writes through freed memory).
    """

    def __init__(self, dim: int, count, keep, size, row_min: int):
        self.dim = dim
        self.count = math.inf if count is None else count
        self.most = math.inf if keep is None else len(keep)
        start = 0 if count is None or size is None else min(count, self.most, size // row_min)
        self.matrix = np.empty(start * dim, "<f4")

    def room(self, rows: int) -> None:
        """Make the matrix hold at least ``rows`` rows, or ``len(keep)`` if fewer."""
        have = len(self.matrix) // self.dim
        if have < min(rows, self.most):
            grown = min(max(rows, min(2 * have, self.count)), self.most)
            self.matrix.resize(grown * self.dim, refcheck=False)

    def table(self, tokens) -> EmbeddingTable:
        """The table of ``tokens`` and the first ``len(tokens)`` rows; frees the rest.

        ``tokens`` is a list, or a vocabulary (a dict of each token to its
        row, in row order, checked for repeats as it was built) that the
        table adopts.
        """
        self.matrix.resize(len(tokens) * self.dim, refcheck=False)
        matrix = self.matrix.reshape(len(tokens), self.dim)
        if isinstance(tokens, dict):
            return EmbeddingTable._adopt(tokens, matrix)
        return EmbeddingTable(tokens, matrix)


def _take(data: memoryview, eof: bool, row_bytes: int, most: int, seen, keep, offset: int,
          out: np.ndarray):
    """Take the whole entries at the start of ``data``, at most ``most``, in one pass.

    ``data`` must begin with a whole entry.  An entry is whole when its token,
    space and row are in ``data`` and so is the byte after its row, which says
    whether the optional newline follows, or the file ends there (``eof``).
    One split of ``data`` finds them all; its last branch takes the rest of
    ``data`` at the first place that is not an entry, so the split never
    searches on from there (searching would try each later byte as a token's
    start, up to 65536 bytes each).  Every token goes into ``seen``: with
    ``keep`` None it is the vocabulary, a dict of each decoded token to its
    row, else a set of token bytes.  A repeat raises DuplicateTokenError at
    ``offset`` plus its place in ``data``, the first in file order.  The kept
    entries (those in ``keep``, every one when it is None) have their rows
    copied into ``out``, a uint8 array of ``row_bytes`` a row with room for
    them.  Returns the bytes and the entries taken, and the kept tokens, in
    file order.  Nothing it returns or leaves behind holds ``data``.
    """
    # compiled only here, once an entry is whole: a row longer than the file may
    # be past the longest repeat the pattern can hold
    entry = re.compile(rb"([^ ]{0,%d}) (?s:.{%d})(\n?)|((?s:.+))" % (_MAX_TOKEN_BYTES, row_bytes))
    parts = entry.split(data, most)  # per match: token, newline, rest, then the text after
    toks, nls = parts[1::4], parts[2::4]
    # the last match is the rest, or a row that ends at data's end before the
    # file does: its newline is not known yet, so the refill takes it
    if parts[-2] is not None or not (parts[-1] or eof or nls[-1]):
        del toks[-1], nls[-1]
    newlines = np.fromiter(map(len, nls), np.intp, len(nls))
    ends = np.cumsum(np.fromiter(map(len, toks), np.intp, len(toks)) + newlines + (row_bytes + 1))
    rows = ends - newlines - row_bytes  # where each row starts in data
    # decoding maps bytes to strings one to one, so either key finds the same repeats
    words = _decode(toks) if keep is None else toks
    before = len(seen)
    fresh = (seen.keys() if keep is None else seen).isdisjoint(words)  # of earlier buffers
    if fresh:
        seen.update(zip(words, range(before, before + len(words))) if keep is None else words)
    if not fresh or len(seen) != before + len(words):  # a repeat: name the first
        earlier, old = set(), () if fresh else seen
        for k, token in enumerate(words):
            if token in earlier or token in old:
                break
            earlier.add(token)
        token = toks[k].decode("utf-8", errors="surrogateescape")
        raise DuplicateTokenError(f"duplicate token {token!r}",
                                  offset=offset + int(rows[k]) - len(toks[k]) - 1)
    if keep is not None:
        hits = keep.intersection(toks)
        kept = list(compress(range(len(toks)), map(hits.__contains__, toks))) if hits else []
        words, rows = _decode([toks[k] for k in kept]), rows[kept]
    # row r of the strided view is the row_bytes bytes from byte r; np.take would
    # copy all of it first.  Unnamed, the view is gone on any exit, so data can
    # be released and its map closed
    out[:len(rows)] = np.lib.stride_tricks.as_strided(
        np.frombuffer(data, np.uint8), (len(data) - row_bytes + 1, row_bytes), (1, 1),
        writeable=False)[rows]
    return int(ends[-1]), len(ends), words


def _decode(toks: list) -> list:
    """Binary tokens as strings, in one decode: no byte of a token is a space, and
    no byte sequence decodes across one."""
    return b" ".join(toks).decode("utf-8", errors="surrogateescape").split(" ") if toks else []


def load_binary(path, keep=None) -> EmbeddingTable:
    """Read a word2vec-format binary embedding file, or only the rows of ``keep``."""
    keep = None if keep is None else _keep_bytes(keep)
    with open(path, "rb") as fh:
        header = fh.readline(129)  # at most 128 bytes and the newline
        if not header:
            raise MalformedHeaderError("empty file", offset=0)
        if not header.endswith(b"\n"):
            if len(header) > 128:
                raise MalformedHeaderError("no delimiter within 128 bytes", offset=0)
            raise MalformedHeaderError("header line never ends", offset=0)
        parts = header.split()
        if len(parts) != 2 or not all(p.isdigit() for p in parts):
            raise MalformedHeaderError(
                f"expected '<count> <dim>', got {header[:-1]!r}", offset=0
            )
        count, dim = _header_sizes(int(parts[0]), int(parts[1]), offset=0)
        row_bytes = 4 * dim
        base = len(header)  # file offset of buf[0]
        size = _file_size(fh)  # of the entries
        # an entry takes at least a space and a row
        sink = _Rows(dim, count, keep, size, row_bytes + 1)
        # entries from `rows` on lie past the reported size, which holds less
        # than a row after them, unless the file is longer than it reports
        rows = count if size is None else size // (row_bytes + 1)
        # a regular file is mapped a window at a time up to the size it reports;
        # a stream, a file of unknown size and the bytes past `top` are read
        top = base + (size or 0)
        # a full load's vocabulary (token -> row) is its repeat check; a keep=
        # load checks every token's bytes, and lists the kept tokens
        seen = {} if keep is None else set()
        tokens = seen if keep is None else []  # kept, in file order
        buf, window = b"", None  # window: buf, while it is a map
        pos = end = 0  # start of the current entry in buf, and len(buf)
        eof = False
        limit = _MAX_TOKEN_BYTES
        i = 0  # entries taken
        try:
            while i < count:
                # the entry at pos is not wholly in buf with a byte after its row
                # (its optional newline): refill until it is, or until the file
                # ends; a refill keeps the entry's unread bytes, so every offset
                # is base + index into buf, and fh stays at buf's end
                sp = buf.find(b" ", pos, pos + limit + 1)
                stop = sp + 1 + row_bytes
                while not eof and (end - pos <= limit if sp < 0 else stop >= end):
                    at = base + pos  # the entry's file offset
                    if base + end < top:
                        # map from the page that holds the entry to _CHUNK past
                        # it, or to what the entry needs (room to find its
                        # space, or its row and the byte after), but not past top
                        need = at + limit + 1 if sp < 0 else base + stop + 1
                        base = at - at % mmap.ALLOCATIONGRANULARITY
                        length = min(top, max(at + _CHUNK, need)) - base
                        if window is not None:
                            window.close()
                        window = buf = mmap.mmap(fh.fileno(), length, access=mmap.ACCESS_READ,
                                                 offset=base)
                        pos, end = at - base, len(buf)
                        fh.seek(base + end)
                    else:
                        # from entry `rows` on, one read takes the rest of the
                        # file, so a row longer than the file is not buffered a
                        # chunk at a time.  Read before the old buffer is dropped:
                        # freed first, its memory can go back to the OS and fault
                        # in again for the read
                        tail, base = buf[pos:], at
                        if window is not None:
                            window.close()
                            window = None
                        buf = tail + fh.read(_CHUNK if i < rows else -1)
                        pos, end, eof = 0, len(buf), len(buf) == len(tail)
                    sp = buf.find(b" ", pos, pos + limit + 1)
                    stop = sp + 1 + row_bytes
                if sp < 0:
                    if end - pos > limit:
                        raise MalformedHeaderError(
                            f"no delimiter within {limit} bytes", offset=base + pos
                        )
                    if pos == end:
                        raise CountMismatchError(
                            f"header promises {count} entries but the file has {i}",
                            offset=base + pos,
                        )
                    raise TruncatedFileError("file ends mid-token", offset=base + pos)
                if stop > end:
                    raw = buf[pos:sp]
                    token = raw.decode("utf-8", errors="surrogateescape")
                    if (token if keep is None else raw) in seen:  # a repeat cut short
                        raise DuplicateTokenError(f"duplicate token {token!r}", offset=base + pos)
                    raise TruncatedFileError(
                        f"file ends inside a {row_bytes}-byte vector", offset=base + sp + 1
                    )
                # room for every entry buf can still give
                sink.room(len(tokens) + min(count - i, (end - pos) // (row_bytes + 1)))
                with memoryview(buf)[pos:] as data:
                    taken, entries, words = _take(
                        data, eof, row_bytes, count - i, seen, keep, base + pos,
                        sink.matrix.view(np.uint8).reshape(-1, row_bytes)[len(tokens):])
                if keep is not None:
                    tokens += words
                pos, i = pos + taken, i + entries
            if pos < end or fh.read(1):
                raise CountMismatchError(
                    f"file continues past the {count} promised entries", offset=base + pos
                )
        finally:
            if window is not None:
                window.close()
    del seen  # a keep= load's set of every token's bytes: the table does not hold it
    return sink.table(tokens)


def _refuse_empty(table: EmbeddingTable) -> None:
    if not len(table):
        raise ValueError("cannot write a table with no rows: its header count "
                         "would be 0, which the loaders reject")


def write_binary(table: EmbeddingTable, path) -> None:
    """Write the binary format; a table with no rows, or a token that ``load_binary``
    would not read back as itself, raises ValueError before the file is opened."""
    _refuse_empty(table)
    raws = [token.encode("utf-8", errors="surrogateescape") for token in table.tokens]
    for row, (token, raw) in enumerate(zip(table.tokens, raws)):
        if (b" " in raw or len(raw) > _MAX_TOKEN_BYTES
                or raw.decode("utf-8", errors="surrogateescape") != token):
            raise ValueError(f"row {row}: token {token!r} would not load back from a binary file "
                             f"(a space, over {_MAX_TOKEN_BYTES} bytes, or another token's bytes)")
    with open(path, "wb") as fh:
        fh.write(f"{len(table)} {table.dim}\n".encode("ascii"))
        for raw, row in zip(raws, table.matrix):
            fh.write(raw + b" ")
            fh.write(row.astype("<f4").tobytes())
            fh.write(b"\n")


def _looks_like_header(fields) -> bool:
    if len(fields) != 2:
        return False
    try:
        int(fields[0]), int(fields[1])
    except ValueError:
        return False
    return True


def _not_utf8(raw: str):
    """Why the bytes of ``raw``, a line read with ``surrogateescape``, are not UTF-8;
    None when they are.  Each byte that is not UTF-8 reads as a lone surrogate,
    which encodes back to that byte, which strict decoding rejects."""
    if raw.isascii():
        return None
    try:
        raw.encode("utf-8", errors="surrogateescape").decode("utf-8")
    except UnicodeDecodeError as exc:
        return exc.reason
    return None


def _text_lines(fh):
    """Yield each line of ``fh``, a binary stream, with its number from 1: the one
    way every text format is read.  Closes ``fh`` when the lines run out or the
    generator is closed.

    The bytes are read once, as UTF-8 with ``surrogateescape``, so a stream
    reads as a file does and a line that is not UTF-8 still reads; test each
    line with ``_not_utf8`` to raise at it, in line order.  A line ends at
    ``\\n``, ``\\r\\n`` or ``\\r``, which it keeps as ``\\n``, and nowhere else.
    """
    with io.TextIOWrapper(fh, encoding="utf-8", errors="surrogateescape") as text:
        yield from enumerate(text, start=1)


def _text_blocks(lines):
    """Cut ``lines``, numbered lines as ``_text_lines`` yields them, into blocks of
    whole lines of about ``_TEXT_BLOCK`` characters; yield ``(the number of a
    block's first line, its lines)``.  The one block cutter of the text parsers."""
    block, chars = [], 0
    for lineno, raw in lines:
        block.append(raw)
        chars += len(raw)
        if chars >= _TEXT_BLOCK:
            yield lineno + 1 - len(block), block
            block, chars = [], 0
    if block:
        yield lineno + 1 - len(block), block


class _TextRows:
    """The rows of one text file as ``load_text`` reads them.

    ``line`` reads one line and is the one definition of the format;
    ``block`` reads many lines at once when it can vouch for giving what
    ``line`` would give each of them, and otherwise reads them with ``line``.
    """

    def __init__(self, keep, size):
        self.keep = keep
        self.size = size  # of a regular file; None when unknown
        self.tokens = []  # kept, in file order
        self.seen = set()  # every row's token, kept or not
        self.count = None  # the header's
        self.sink = None  # made once the header or the first row fixes dim

    def _start(self, dim: int) -> None:
        # a row takes a token byte and dim values, each after a separator
        self.sink = _Rows(dim, self.count, self.keep, self.size, 2 * dim + 1)

    def line(self, lineno: int, raw: str) -> None:
        reason = _not_utf8(raw)
        if reason:
            raise TextFormatError(f"not valid UTF-8 ({reason})", line=lineno)
        fields = raw.split()
        if not fields:
            return
        if self.sink is None and _looks_like_header(fields):
            self.count, dim = _header_sizes(int(fields[0]), int(fields[1]), line=lineno)
            self._start(dim)
            return
        token, values = fields[0], fields[1:]
        if not values:
            raise TextFormatError(f"token {token!r} has no values", line=lineno)
        if self.sink is None:
            self._start(len(values))
        elif len(values) != self.sink.dim:
            raise TextFormatError(f"expected {self.sink.dim} values, got {len(values)}",
                                  line=lineno)
        if token in self.seen:
            raise DuplicateTokenError(f"duplicate token {token!r}", line=lineno)
        self.seen.add(token)
        try:
            values = list(map(float, values))
        except ValueError:
            raise TextFormatError("unparsable float in row", line=lineno) from None
        if self.keep is None or token in self.keep:
            self._store([token], [values])

    def block(self, first: int, lines: list) -> None:
        """Read ``lines``, the first of them line ``first``, once ``dim`` is known."""
        parsed = self._parse(lines)
        if parsed is None:
            for lineno, raw in enumerate(lines, start=first):
                self.line(lineno, raw)
            return
        tokens, values = parsed
        self.seen.update(tokens)
        if self.keep is not None:
            kept = [k for k, token in enumerate(tokens) if token in self.keep]
            tokens, values = [tokens[k] for k in kept], values[kept]
        if tokens:
            self._store(tokens, values)

    def _parse(self, lines: list):
        """The tokens and float32 values of the rows in ``lines``, with one numpy call.

        None unless ``line`` would read every line of them without an error.
        numpy's reader splits fields on the whitespace ``str.split`` splits
        on, and parses a value as ``float`` does or rejects it (``1_0`` and
        ``١``, which ``float`` accepts, are rejected): then ``line`` reads them.
        It rejects a value holding a lone surrogate, a byte that is not UTF-8,
        so only the tokens are checked for UTF-8 here.
        """
        tokens, fields = [], []
        for raw in lines:
            parts = raw.split(None, 1)
            if not parts:
                continue
            if len(parts) == 1 or _not_utf8(parts[0]):
                return None
            tokens.append(parts[0])
            fields.append(parts[1])
        # no rows (np.loadtxt would warn), or a token repeated
        if not tokens or len(set(tokens)) != len(tokens) or not self.seen.isdisjoint(tokens):
            return None
        try:
            # float32 rounds each value as np.array(floats, np.float32) does
            values = np.loadtxt(fields, np.float32, comments=None, ndmin=2)
        except ValueError:  # a value float() may yet accept, or a row of another length
            return None
        return (tokens, values) if values.shape == (len(tokens), self.sink.dim) else None

    def _store(self, tokens: list, values) -> None:
        n = len(self.tokens)
        self.sink.room(n + len(tokens))
        # rounds as np.array(values, np.float32) does
        self.sink.matrix.reshape(-1, self.sink.dim)[n:n + len(tokens)] = values
        self.tokens += tokens

    def table(self) -> EmbeddingTable:
        if not self.seen:
            raise TextFormatError("no embedding rows found", line=1)
        if self.count is not None and len(self.seen) != self.count:
            raise CountMismatchError(
                f"header promises {self.count} entries but the file has {len(self.seen)}"
            )
        return self.sink.table(self.tokens)


def load_text(path, keep=None) -> EmbeddingTable:
    """Read a whitespace-separated text embedding file, or only the rows of ``keep``."""
    keep = None if keep is None else set(keep)
    # over="ignore": a value beyond float32's range stores as +-inf, silently
    with open(path, "rb") as fh, np.errstate(over="ignore"):
        rows = _TextRows(keep, _file_size(fh))
        lines = _text_lines(fh)
        for lineno, raw in lines:  # line by line until the header or first row fixes dim
            rows.line(lineno, raw)
            if rows.sink is not None:
                break
        for first, block in _text_blocks(lines):
            rows.block(first, block)
    return rows.table()


def write_text(table: EmbeddingTable, path) -> None:
    """Write the text format; %.9g keeps float32 values bit-exact on reload.  A table
    with no rows, or a token that is empty, holds whitespace or is not UTF-8, raises
    before the file is opened."""
    _refuse_empty(table)
    for row, token in enumerate(table.tokens):
        if token.split() != [token]:
            raise ValueError(f"row {row}: token {token!r} is empty or holds whitespace")
        token.encode("utf-8")  # UnicodeEncodeError unless strict UTF-8
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(table)} {table.dim}\n")
        # Python floats from tolist() format faster than numpy scalars
        row_format = "%s" + " %.9g" * table.dim + "\n"
        fh.writelines(row_format % (token, *row.tolist())
                      for token, row in zip(table.tokens, table.matrix))


def load_embeddings(path, fmt: str = "auto", keep=None) -> EmbeddingTable:
    """Dispatch on ``fmt`` or sniff it from the file extension; ``keep`` as for the loaders."""
    path = str(path)
    if fmt == "auto":
        if path.endswith(".bin"):
            fmt = "binary"
        elif path.endswith((".txt", ".vec")):
            fmt = "text"
        else:
            raise ValueError(
                f"cannot infer embedding format from {path!r}; pass fmt='binary' or 'text'"
            )
    if fmt == "binary":
        return load_binary(path, keep=keep)
    if fmt == "text":
        return load_text(path, keep=keep)
    raise ValueError(f"unknown embedding format {fmt!r}")
