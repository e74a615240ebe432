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
UnicodeEncodeError on such a token.
"""

from __future__ import annotations

import numpy as np

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
    """Immutable token -> vector table; rows float32, lookups float64."""

    def __init__(self, tokens, matrix):
        matrix = np.asarray(matrix, dtype=np.float32)
        tokens = list(tokens)
        if matrix.ndim != 2:
            raise ValueError(f"matrix must be 2-d, got shape {matrix.shape}")
        if len(tokens) != matrix.shape[0]:
            raise ValueError(f"{len(tokens)} tokens but {matrix.shape[0]} matrix rows")
        if len(tokens) == 0:
            raise ValueError("embedding table needs at least one token")
        if matrix.shape[1] == 0:
            raise ValueError("embedding vectors must have at least one dimension")
        self._vocab = {}
        for i, tok in enumerate(tokens):
            if tok in self._vocab:
                raise DuplicateTokenError(f"duplicate token {tok!r}")
            self._vocab[tok] = i
        self._matrix = matrix
        self._matrix.setflags(write=False)

    @property
    def dim(self) -> int:
        return self._matrix.shape[1]

    @property
    def vocab(self) -> dict:
        return dict(self._vocab)

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


class _ByteScanner:
    """Chunked reader exposing absolute offsets for error reporting."""

    def __init__(self, fh, chunk_size: int = 1 << 20):
        self._fh = fh
        self._chunk = chunk_size
        self._buf = b""
        self._pos = 0  # within _buf
        self._base = 0  # file offset of _buf[0]

    @property
    def offset(self) -> int:
        return self._base + self._pos

    def _refill(self) -> bool:
        if self._pos:
            self._base += self._pos
            self._buf = self._buf[self._pos:]
            self._pos = 0
        more = self._fh.read(self._chunk)
        if not more:
            return False
        self._buf += more
        return True

    def read_until(self, delim: int, limit: int) -> bytes | None:
        """Bytes up to (consuming) the delimiter; None at clean EOF before any byte."""
        start_offset = self.offset
        while True:
            idx = self._buf.find(delim, self._pos)
            if idx >= 0:
                out = self._buf[self._pos:idx]
                self._pos = idx + 1
                return out
            if len(self._buf) - self._pos > limit:
                raise MalformedHeaderError(
                    f"no delimiter within {limit} bytes", offset=start_offset
                )
            if not self._refill():
                if self._pos == len(self._buf):
                    return None
                raise TruncatedFileError(
                    "file ends mid-token", offset=start_offset
                )

    def read_exact(self, n: int) -> bytes:
        start_offset = self.offset
        while len(self._buf) - self._pos < n:
            if not self._refill():
                raise TruncatedFileError(
                    f"file ends inside a {n}-byte vector", offset=start_offset
                )
        out = self._buf[self._pos:self._pos + n]
        self._pos += n
        return out

    def skip_byte_if(self, value: int) -> None:
        if self._pos == len(self._buf) and not self._refill():
            return
        if self._pos < len(self._buf) and self._buf[self._pos] == value:
            self._pos += 1

    def at_eof(self) -> bool:
        return self._pos == len(self._buf) and not self._refill()


def load_binary(path) -> EmbeddingTable:
    """Read a word2vec-format binary embedding file."""
    with open(path, "rb") as fh:
        scan = _ByteScanner(fh)
        try:
            header = scan.read_until(0x0A, limit=128)
        except TruncatedFileError:
            raise MalformedHeaderError("header line never ends", offset=0) from None
        if header is None:
            raise MalformedHeaderError("empty file", offset=0)
        parts = header.split()
        if len(parts) != 2 or not all(p.isdigit() for p in parts):
            raise MalformedHeaderError(
                f"expected '<count> <dim>', got {header!r}", offset=0
            )
        count, dim = int(parts[0]), int(parts[1])
        if count < 1 or dim < 1:
            raise MalformedHeaderError(
                f"count and dim must be positive, got {count} and {dim}", offset=0
            )
        matrix = np.empty((count, dim), dtype=np.float32)
        tokens = []
        seen = set()
        row_bytes = 4 * dim
        for i in range(count):
            entry_offset = scan.offset
            token_bytes = scan.read_until(0x20, limit=1 << 16)
            if token_bytes is None:
                raise CountMismatchError(
                    f"header promises {count} entries but the file has {i}",
                    offset=entry_offset,
                )
            token = token_bytes.decode("utf-8", errors="surrogateescape")
            if token in seen:
                raise DuplicateTokenError(
                    f"duplicate token {token!r}", offset=entry_offset
                )
            seen.add(token)
            tokens.append(token)
            matrix[i] = np.frombuffer(scan.read_exact(row_bytes), dtype="<f4")
            scan.skip_byte_if(0x0A)
        if not scan.at_eof():
            raise CountMismatchError(
                f"file continues past the {count} promised entries", offset=scan.offset
            )
    return EmbeddingTable(tokens, matrix)


def write_binary(table: EmbeddingTable, path) -> None:
    with open(path, "wb") as fh:
        fh.write(f"{len(table)} {table.dim}\n".encode("ascii"))
        for token, row in zip(table.tokens, table.matrix):
            fh.write(token.encode("utf-8", errors="surrogateescape") + b" ")
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


def load_text(path) -> EmbeddingTable:
    """Read a whitespace-separated text embedding file."""
    tokens = []
    rows = []
    seen = set()
    expect_count = None
    dim = None
    with open(path, "r", encoding="utf-8") as fh:
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
                row = np.array([float(v) for v in values], dtype=np.float32)
            except ValueError:
                raise TextFormatError("unparsable float in row", line=lineno) from None
            tokens.append(token)
            rows.append(row)
    if not tokens:
        raise TextFormatError("no embedding rows found", line=1)
    if expect_count is not None and len(tokens) != expect_count:
        raise CountMismatchError(
            f"header promises {expect_count} entries but the file has {len(tokens)}"
        )
    return EmbeddingTable(tokens, np.vstack(rows))


def write_text(table: EmbeddingTable, path, header: bool = True) -> None:
    """Write the text format; %.9g keeps float32 values bit-exact on reload."""
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            fh.write(f"{len(table)} {table.dim}\n")
        for token, row in zip(table.tokens, table.matrix):
            fh.write(token + " " + " ".join(f"{v:.9g}" for v in row) + "\n")


def load_embeddings(path, fmt: str = "auto") -> EmbeddingTable:
    """Dispatch on ``fmt`` or sniff it from the file extension."""
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
        return load_binary(path)
    if fmt == "text":
        return load_text(path)
    raise ValueError(f"unknown embedding format {fmt!r}")
