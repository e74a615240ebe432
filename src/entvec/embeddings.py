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
valid UTF-8 raises TextFormatError naming the line.  A writer refuses
a token its loader would misread, with ValueError, before it opens the file.

``load_binary`` reads the file in chunks of ``_CHUNK`` bytes in one scan
and copies each row straight into a preallocated float32 matrix; what it
returns or raises, byte offsets included, does not depend on where the
chunk boundaries fall.  One loop takes every entry: it checks duplicates
on the token bytes, decodes only the tokens it keeps and steps over the
optional newline.  An entry that is not wholly in the buffer with a byte
after its row (so its newline is known) first goes through one branch,
the only code that refills the buffer or raises a format error other
than a duplicate; a row cut short by the file's end is reported as a
duplicate when its token is one.  The matrix gets no more rows than the
file can hold (each entry takes at least a space and ``4 * dim`` bytes),
so a header promising more than that raises CountMismatchError or
TruncatedFileError where the data runs out.  A stream, whose size is
unknown, gets a matrix that grows as its rows arrive.  The header line
may hold at most 128 bytes and a token at most 65536; a longer one
raises MalformedHeaderError.

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
is kept by its ``surrogateescape`` string.  ``load_binary`` copies only
kept rows, into a matrix sized for at most ``len(keep)`` of them; the
set of token bytes seen, kept for the duplicate check, still grows with
the file.  A table may be empty: that is what ``keep`` gives when none of
its tokens is in the file.
"""

from __future__ import annotations

import numpy as np

_CHUNK = 1 << 20  # bytes per read in load_binary; results do not depend on it
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
        count, dim = int(parts[0]), int(parts[1])
        if count < 1 or dim < 1:
            raise MalformedHeaderError(
                f"count and dim must be positive, got {count} and {dim}", offset=0
            )
        row_bytes = 4 * dim
        base = len(header)  # file offset of buf[0]
        rows = count
        seekable = fh.seekable()
        if seekable:
            # an entry takes at least a space and a row, so a file cannot
            # hold more rows than this whatever its header says
            rows = min(count, (fh.seek(0, 2) - base) // (row_bytes + 1))
            fh.seek(base)
        most = rows if keep is None else min(rows, len(keep))  # rows the table can get
        # a stream's size is unknown, so its matrix grows as its rows arrive
        matrix = np.empty((most if seekable else 0) * dim, dtype="<f4")
        out = memoryview(matrix).cast("B")
        tokens = []
        n = 0  # rows copied
        seen = set()  # every token's bytes, kept or not
        buf = b""
        pos = end = 0  # start of the current entry in buf, and len(buf)
        eof = False
        limit = _MAX_TOKEN_BYTES
        for i in range(count):
            sp = buf.find(b" ", pos, pos + limit + 1)
            stop = sp + 1 + row_bytes
            if sp < 0 or stop >= end:
                # the entry is not wholly in buf with a byte after its row (its
                # optional newline): read until it is, or until the file ends;
                # a refill keeps the entry's unread bytes, so every offset is
                # base + index into buf.  Entry `rows` cannot hold its row, so
                # its token is enough.
                while not eof and (end - pos <= limit if sp < 0 else stop >= end and i < rows):
                    # free the old buffer before reading
                    tail, base, buf = buf[pos:], base + pos, None
                    buf = tail + fh.read(_CHUNK)
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
                if stop > end and buf[pos:sp] not in seen:  # a repeat is reported as one
                    raise TruncatedFileError(
                        f"file ends inside a {row_bytes}-byte vector", offset=base + sp + 1
                    )
                need = min(most, n + (end - pos) // (row_bytes + 1))  # n once all of buf is copied
                if need * row_bytes > len(out):
                    grown = np.empty(min(most, max(need, 2 * n)) * dim, dtype="<f4")
                    grown[:n * dim] = matrix[:n * dim]
                    matrix, out = grown, memoryview(grown).cast("B")
            raw = buf[pos:sp]
            if raw in seen:
                token = raw.decode("utf-8", errors="surrogateescape")
                raise DuplicateTokenError(f"duplicate token {token!r}", offset=base + pos)
            seen.add(raw)
            if keep is None or raw in keep:
                tokens.append(raw.decode("utf-8", errors="surrogateescape"))
                out[n * row_bytes:(n + 1) * row_bytes] = buf[sp + 1:stop]
                n += 1
            pos = stop + (buf[stop] == 10) if stop < end else stop
        if pos < end or fh.read(1):
            raise CountMismatchError(
                f"file continues past the {count} promised entries", offset=base + pos
            )
    del seen  # the table's vocabulary replaces it; do not hold both
    return EmbeddingTable(tokens, matrix[:n * dim].reshape(n, dim))


def write_binary(table: EmbeddingTable, path) -> None:
    """Write the binary format; a token that ``load_binary`` would not read back
    as itself raises ValueError before the file is opened."""
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


def _raise_at_bad_utf8_line(path, exc: UnicodeDecodeError, error) -> None:
    """Raise ``error`` at the first line of ``path`` that is not UTF-8, else ``exc``.

    Only a failed read pays for this: a reread with each bad byte as a lone
    surrogate, which strict encoding rejects.
    """
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                raw.encode("utf-8")
            except UnicodeEncodeError:
                raise error(f"not valid UTF-8 ({exc.reason})", line=lineno) from None
    raise exc


def load_text(path, keep=None) -> EmbeddingTable:
    """Read a whitespace-separated text embedding file, or only the rows of ``keep``."""
    keep = None if keep is None else set(keep)
    tokens = []
    rows = []
    seen = set()  # every row's token, kept or not
    expect_count = None
    dim = None
    with open(path, "r", encoding="utf-8") as fh:
        try:
            for lineno, raw in enumerate(fh, start=1):
                fields = raw.split()
                if not fields:
                    continue
                if dim is None and expect_count is None and _looks_like_header(fields):
                    expect_count, dim = int(fields[0]), int(fields[1])
                    if expect_count < 1 or dim < 1:
                        raise MalformedHeaderError(
                            f"count and dim must be positive, got {expect_count} and {dim}",
                            line=lineno,
                        )
                    continue
                token, values = fields[0], fields[1:]
                if not values:
                    raise TextFormatError(f"token {token!r} has no values", line=lineno)
                if dim is None:
                    dim = len(values)
                elif len(values) != dim:
                    raise TextFormatError(
                        f"expected {dim} values, got {len(values)}", line=lineno
                    )
                if token in seen:
                    raise DuplicateTokenError(f"duplicate token {token!r}", line=lineno)
                seen.add(token)
                try:
                    values = [float(v) for v in values]
                except ValueError:
                    raise TextFormatError("unparsable float in row", line=lineno) from None
                if keep is None or token in keep:
                    tokens.append(token)
                    rows.append(np.array(values, dtype=np.float32))
        except UnicodeDecodeError as exc:
            _raise_at_bad_utf8_line(path, exc, TextFormatError)
    if not seen:
        raise TextFormatError("no embedding rows found", line=1)
    if expect_count is not None and len(seen) != expect_count:
        raise CountMismatchError(
            f"header promises {expect_count} entries but the file has {len(seen)}"
        )
    matrix = np.vstack(rows) if rows else np.empty((0, dim), np.float32)
    return EmbeddingTable(tokens, matrix)


def write_text(table: EmbeddingTable, path) -> None:
    """Write the text format; %.9g keeps float32 values bit-exact on reload.  A token
    that is empty, holds whitespace or is not UTF-8 raises before the file is opened."""
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
