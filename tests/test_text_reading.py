"""How the text readers read: the block paths of ``load_text`` and of the graph
parser against their per-line code, the two properties of numpy's text reader
that the block paths rest on, and errors reported in line order, invalid UTF-8
included, by each of the four parsers that share one line reader."""

import os
import sys
import warnings
from functools import partial

import numpy as np
import pytest

from entvec import embeddings, graph
from entvec.embeddings import (
    DuplicateTokenError,
    EmbeddingTable,
    TextFormatError,
    load_text,
    write_text,
)
from entvec.evaluation import DatasetFormatError, load_pairs
from entvec.graph import GraphFormatError, parse_graph, parse_graph_file
from entvec.training import load_model

from conftest import deadline, load_fifo
from test_corruption import ABSENT, corruptions, outcome, text_file

# block bounds, in characters, that split the files below into blocks of about
# 1, 2, 3 and 7 lines, and the default
BLOCKS = (1, 50, 100, 250, embeddings._TEXT_BLOCK)
KEEPS = (None, ABSENT, {"dog", "café", "w7"})


@pytest.fixture
def parses(monkeypatch):
    """Count the blocks the block path reads itself, and those it leaves to ``line``."""
    counts = {"block": 0, "per-line": 0}
    parse = embeddings._TextRows._parse

    def counted(self, lines):
        parsed = parse(self, lines)
        counts["per-line" if parsed is None else "block"] += 1
        return parsed

    monkeypatch.setattr(embeddings._TextRows, "_parse", counted)
    return counts


def per_line(monkeypatch):
    """From here on ``load_text`` reads every line with ``_TextRows.line``."""
    monkeypatch.setattr(embeddings._TextRows, "_parse", lambda self, lines: None)


def table_file(tmp_path):
    rng = np.random.default_rng(3)
    tokens = ["dog", "café"] + [f"w{k}" for k in range(38)]
    path = tmp_path / "table.txt"
    write_text(EmbeddingTable(tokens, rng.standard_normal((40, 3), np.float32) * 100), path)
    return path.read_bytes()


def outcomes(monkeypatch, path, keep):
    """The outcome of ``load_text`` at each size of ``BLOCKS``."""
    got = []
    for chars in BLOCKS:
        monkeypatch.setattr(embeddings, "_TEXT_BLOCK", chars)
        got.append(outcome(load_text, path, keep))
    return got


@pytest.mark.parametrize("clean", [text_file, table_file], ids=["small", "40-rows"])
@pytest.mark.parametrize("header", [True, False], ids=["header", "bare"])
def test_blocks_give_the_per_line_outcome(tmp_path, monkeypatch, parses, clean, header):
    data = clean(tmp_path)
    if not header:
        data = data.split(b"\n", 1)[1]
    path = tmp_path / "corrupt.txt"
    for kind, bad in corruptions(data, b" \n", seed=21):
        path.write_bytes(bad)
        for keep in KEEPS:
            got = outcomes(monkeypatch, path, keep)
            with monkeypatch.context() as forced:
                per_line(forced)
                want = outcome(load_text, path, keep)
            assert got == [want] * len(BLOCKS), (kind, bad, keep)
    assert parses["block"] and parses["per-line"]  # the cases reach both paths


class TestBlockValues:
    """Values the block path reads must load as ``float`` reads them."""

    # float() accepts these and numpy's reader does not: the block falls back
    NUMPY_REJECTS = ["1_0", "١٢", "٣", "1_000.5"]
    # both accept these
    BOTH_ACCEPT = ["-nan", "nan", "Infinity", "-inf", "+.5", "1e39", "-1e39", "1e-46",
                   "7e-46", "-0", "3.4028235e38", "1.17549435e-38", "1E5"]

    def load_in_a_block(self, tmp_path, values):
        """``values`` as row ``b`` between clean rows, all in one block after the first."""
        path = tmp_path / "vecs.txt"
        ones = " ".join("1" for _ in values)
        path.write_text(f"a {ones}\nz {ones}\nb {' '.join(values)}\nc {ones}\n",
                        encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = load_text(path)
        assert table.tokens == ["a", "z", "b", "c"]
        return table.matrix[2]

    @staticmethod
    def bits(values):
        with np.errstate(over="ignore"):
            return np.array([float(v) for v in values], np.float32).view(np.uint32).tolist()

    def test_spellings_numpy_rejects_load_as_float_reads_them(self, tmp_path, parses):
        row = self.load_in_a_block(tmp_path, self.NUMPY_REJECTS)
        assert row.view(np.uint32).tolist() == self.bits(self.NUMPY_REJECTS)
        assert parses == {"block": 0, "per-line": 1}

    def test_spellings_both_accept_load_in_the_block(self, tmp_path, parses):
        row = self.load_in_a_block(tmp_path, self.BOTH_ACCEPT)
        assert row.view(np.uint32).tolist() == self.bits(self.BOTH_ACCEPT)
        assert parses == {"block": 1, "per-line": 0}


class TestBlockPrecedence:
    """Within one block, the first error in line order wins, as line by line."""

    @pytest.mark.parametrize("text, error, line, message", [
        ("a 1 2\nb 3 4\nc 1 x\nb 5 6\n", TextFormatError, 3, "unparsable float in row"),
        ("a 1 2\nb 3 4\nb 5 6\nc 1 x\n", DuplicateTokenError, 3, "duplicate token 'b'"),
        ("a 1 2\nb 3 4\nb 1 x\n", DuplicateTokenError, 3, "duplicate token 'b'"),
        ("a 1 2\nb 3 4\nc\nd 1 x\n", TextFormatError, 3, "token 'c' has no values"),
        ("a 1 2\nb 3 4\nc 1 2 3\nb 5 6\n", TextFormatError, 3, "expected 2 values, got 3"),
        ("a 1 2\nb 3 4\nc 1 2 x\nb 5 6\n", TextFormatError, 3, "expected 2 values, got 3"),
        ("a 1 2\nb 3 4\nc 1\n", TextFormatError, 3, "expected 2 values, got 1"),
    ], ids=["float-then-duplicate", "duplicate-then-float", "duplicate-with-bad-float",
            "token-only", "dim+1-values", "dim+1-with-bad-float", "dim-1-values"])
    @pytest.mark.parametrize("keep", KEEPS, ids=["all", "absent", "some"])
    def test_first_error_in_line_order(self, tmp_path, monkeypatch, parses, text, error, line,
                                       message, keep):
        path = tmp_path / "vecs.txt"
        path.write_text(text)
        want = (error, None, line, f"{message} (line {line})")
        assert outcomes(monkeypatch, path, keep) == [want] * len(BLOCKS)
        per_line(monkeypatch)
        assert outcome(load_text, path, keep) == want


class TestBlockWarnings:
    """No block raises a warning (the suite runs with warnings as errors)."""

    @pytest.mark.parametrize("chars", BLOCKS)
    def test_blocks_of_blank_lines(self, tmp_path, monkeypatch, chars):
        monkeypatch.setattr(embeddings, "_TEXT_BLOCK", chars)
        path = tmp_path / "vecs.txt"
        path.write_text("2 2\n\n\n" + " \n" * 100 + "a 1 2\n" + "\n" * 100 + "b 3 4\n\n\n")
        table = load_text(path)
        assert table.tokens == ["a", "b"]
        assert table.matrix.tolist() == [[1, 2], [3, 4]]

    def test_a_file_that_ends_in_a_partial_block(self, tmp_path, monkeypatch):
        monkeypatch.setattr(embeddings, "_TEXT_BLOCK", 100)
        path = tmp_path / "vecs.txt"
        rows = [f"w{k} {k} {-k}" for k in range(23)]
        path.write_text("\n".join(rows))  # and no final newline
        table = load_text(path)
        assert table.tokens == [f"w{k}" for k in range(23)]
        assert table.matrix.tolist() == [[k, -k] for k in range(23)]


class TestBlockUtf8:
    """The block path checks UTF-8 on the tokens only: numpy's reader rejects a
    value that holds a byte that is not UTF-8, so ``line`` still names its line."""

    @staticmethod
    def with_value(tmp_path, value):
        """``table_file`` with ``value`` as line 22's second value, mid-file."""
        lines = table_file(tmp_path).split(b"\n")
        fields = lines[21].split(b" ")
        fields[2] = value
        lines[21] = b" ".join(fields)
        path = tmp_path / "vecs.txt"
        path.write_bytes(b"\n".join(lines))
        return path

    @pytest.mark.parametrize("value", [b"\xff1.5", b"1.\xff5", b"1.5\xff", b"\xff", b"\xc3"],
                             ids=["start", "middle", "end", "alone", "truncated"])
    @pytest.mark.parametrize("keep", [None, KEEPS[2]], ids=["all", "some"])
    def test_a_value_that_is_not_utf8(self, tmp_path, monkeypatch, parses, value, keep):
        path = self.with_value(tmp_path, value)
        got = outcomes(monkeypatch, path, keep)
        per_line(monkeypatch)
        want = outcome(load_text, path, keep)
        assert want[0] is TextFormatError and want[2] == 22
        assert want[3].startswith("not valid UTF-8 (")
        assert got == [want] * len(BLOCKS)
        assert parses["per-line"]  # the blocks holding line 22 fell back

    @pytest.mark.parametrize("value", ["é", "١"])
    @pytest.mark.parametrize("keep", [None, KEEPS[2]], ids=["all", "some"])
    def test_a_non_ascii_value(self, tmp_path, monkeypatch, parses, value, keep):
        path = self.with_value(tmp_path, value.encode("utf-8"))
        got = outcomes(monkeypatch, path, keep)
        per_line(monkeypatch)
        want = outcome(load_text, path, keep)
        if value == "é":
            assert want == (TextFormatError, None, 22, "unparsable float in row (line 22)")
        elif keep is None:  # float() reads it as 1, numpy's reader refuses it
            assert np.frombuffer(want[2], np.float32).reshape(want[1])[20, 1] == 1.0
        assert got == [want] * len(BLOCKS)
        assert parses["per-line"]


def tree_lines(interleave=False):
    """A binary tree of 12 nodes with dim 3, a negated edge and observations."""
    nodes = [f"node n{i} 3 {i}.25 -{i}.5 {i + 1}e-3" for i in range(12)]
    edges = [f"entail n{i} n{(i - 1) // 2}" for i in range(1, 12)]
    if interleave:
        lines = nodes[:1] + [line for pair in zip(nodes[1:], edges) for line in pair]
    else:
        lines = nodes + edges
    return lines + ["notentail n3 n4", "observe n5 1 2.5", "observe n5 0 -1.5",
                    "observe n2 2 0.75"]


def graph_bytes(lines, end="\n"):
    return "".join(line + end for line in lines).encode("utf-8")


def tree_with(at, *lines, drop=0):
    """The tree's lines with ``lines`` put in at index ``at``, replacing ``drop`` lines."""
    tree = tree_lines()
    return graph_bytes(tree[:at] + list(lines) + tree[at + drop:])


# data, and the (line, message) of its error or None when it loads
GRAPH_CASES = {
    "clean": (graph_bytes(tree_lines()), None),
    "bad-prior-mid-block": (tree_with(5, "node n5 3 0.5 x 1.0", drop=1), (6, "bad prior 'x'")),
    "underscore-prior": (tree_with(5, "node n5 3 1_0 2 3", drop=1), None),
    "overflow-prior": (tree_with(5, "node n5 3 1e400 2 3", drop=1),
                       (6, "node 'n5' theta contains non-finite values")),
    "duplicate-node": (tree_with(8, "node n3 3 1 2 3"), (9, "duplicate node 'n3'")),
    "edge-to-later-node": (tree_with(4, "entail n2 n9"),
                           (5, "edge references unknown node 'n9'")),
    "self-edge": (tree_with(14, "entail n4 n4"), (15, "self-edge on node 'n4'")),
    "observe-before-node": (tree_with(3, "observe n9 0 1.0"),
                            (4, "observation on unknown node 'n9'")),
    "observe-out-of-range": (tree_with(25, "observe n5 3 1.0"),
                             (26, "observation index 3 out of range for dim 3")),
    "edge-with-a-third-name": (tree_with(14, "entail n4 n1 n0"),
                               (15, "entail needs exactly two node names")),
    "observe-with-a-fifth-field": (tree_with(25, "observe n5 1 2.5 9"),
                                   (26, "observe needs a name, an index and a value")),
    "dims-3-and-03": (graph_bytes(line.replace(" 3 ", " 03 ") if line.startswith("node n1")
                                    else line for line in tree_lines()), None),
    "comment-after-priors": (graph_bytes(line + " # a note" if line.startswith("node") else line
                                         for line in ["# a tree"] + tree_lines()), None),
    "not-utf8": (tree_with(7, "node n7 3 1 2 3", drop=1).replace(b"n7 3", b"n\xff7 3", 1),
                 (8, "not valid UTF-8 (invalid start byte)")),
    "crlf": (graph_bytes(tree_lines(), end="\r\n"), None),
    "interleaved": (graph_bytes(tree_lines(interleave=True)), None),
    "no-priors-and-repeats": (tree_with(6, "node z 3", "entail z n0", "entail z n0",
                                        "observe z 1 4.0", "observe z 1 5.0"), None),
}


def graph_outcome(read, source):
    """(class, line, message), or the names, prior bytes, edges and observations."""
    try:
        g = read(source)
    except GraphFormatError as exc:
        return type(exc), exc.line, str(exc)
    return (g.node_names, [g.theta(name).tobytes() for name in g.node_names], g.pos_edges,
            g.neg_edges, [(name, vec.tobytes()) for name, vec in g.observations.items()])


class TestGraphBlocks:
    """``parse_graph`` and ``parse_graph_file`` give the graph or error that
    ``_line`` gives line by line, at every block size."""

    @pytest.mark.parametrize("data, fault", GRAPH_CASES.values(), ids=GRAPH_CASES)
    def test_blocks_give_the_per_line_outcome(self, tmp_path, monkeypatch, data, fault):
        applied = []
        block = graph._block
        monkeypatch.setattr(graph, "_block",
                            lambda g, lines: applied.append(block(g, lines)) or applied[-1])
        path = tmp_path / "toy.graph"
        path.write_bytes(data)
        text = data.decode("utf-8", "surrogateescape")
        got = []
        for chars in BLOCKS:
            monkeypatch.setattr(embeddings, "_TEXT_BLOCK", chars)
            got.append((graph_outcome(parse_graph_file, path), graph_outcome(parse_graph, text)))
        with monkeypatch.context() as forced:
            forced.setattr(graph, "_block", lambda g, lines: False)
            filed, texted = graph_outcome(parse_graph_file, path), graph_outcome(parse_graph, text)
        assert got == [(filed, texted)] * len(BLOCKS)
        if fault is None:
            assert filed == texted and len(filed[0]) >= 12
        else:
            line, message = fault
            assert filed == (GraphFormatError, line, f"line {line}: {message}")
            # a lone surrogate in a string encodes to other bytes than 0xff
            assert texted[:2] == filed[:2]
        assert True in applied  # the blocks before a fault, at least, are applied whole
        assert (False in applied) == (fault is not None or b"_" in data or b" 03 " in data)

    def test_a_block_grows_the_prior_matrix_as_node_by_node(self, monkeypatch):
        text = graph_bytes(tree_lines(interleave=True)).decode()
        got = []
        for step in (lambda g, lines: False, graph._block):
            monkeypatch.setattr(graph, "_block", step)
            got.append(parse_graph(text)._prior.shape)
        assert got == [(16, 3), (16, 3)]


class TestNumpyReader:
    """The block path reads values with ``np.loadtxt``.  It gives ``line``'s outcome
    only while numpy's reader splits as ``str.split`` does and parses no value that
    ``float`` rejects.  These tests catch a numpy release that changes either."""

    WHITESPACE = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()]

    @staticmethod
    def parse(lines, **kw):
        return np.loadtxt(lines, np.float32, comments=None, ndmin=2, **kw)

    def test_splits_on_each_whitespace_code_point(self):
        assert len(self.WHITESPACE) == 29
        # "\n" and "\r" end a line, so no line handed to numpy holds one
        for c in set(self.WHITESPACE) - {"\n", "\r"}:
            assert self.parse([f"{c}1{c}{c}2{c}\n"]).tolist() == [[1, 2]], hex(ord(c))

    def test_splits_on_nothing_else(self):
        # every other code point a line may hold (a surrogate marks a line that
        # is not UTF-8, which never reaches numpy), in one call
        points = [chr(c) for c in range(sys.maxunicode + 1)
                  if not 0xD800 <= c < 0xE000 and not chr(c).isspace()]
        fields = []
        self.parse([f"a{c}b\n" for c in points], usecols=0,
                   converters={0: lambda field: fields.append(field) or 0.0})
        assert fields == [f"a{c}b" for c in points]

    @pytest.mark.parametrize("value", ["0x10", "nan(12)", "1.5e", "1,5", "inf_", "1e", ".",
                                       "e5", "--1", "1.2.3", "infinit", "nann", "1\x00"])
    def test_rejects_what_float_rejects(self, value):
        with pytest.raises(ValueError):
            float(value)
        with pytest.raises(ValueError):
            self.parse([f"{value} 1\n"])

    def test_accepts_only_what_float_accepts_and_reads_it_alike(self):
        rng = np.random.default_rng(17)
        alphabet = list("0123456789+-.eEinfatyINFATY_x") + ["١", "٣"]
        for _ in range(3000):
            value = "".join(rng.choice(alphabet, size=int(rng.integers(1, 7))))
            try:
                got = self.parse([f"{value}\n"])
            except ValueError:
                continue
            with np.errstate(over="ignore"):
                want = np.float32(float(value))  # float() accepts what numpy does
            assert got.view(np.uint32)[0, 0] == want.view(np.uint32), value


class TestLineOrder:
    """A line that is not UTF-8 is an error at that line; an error on an earlier
    line comes first.  A reader never reopens its file, so a stream works."""

    @pytest.mark.parametrize("data, error, line, message", [
        (b"2 2\na 1 2\nb\xff 3 4\n", TextFormatError, 3, "not valid UTF-8 (invalid start byte)"),
        (b"a 1 2\nb 1 x\nc\xff 3 4\n", TextFormatError, 2, "unparsable float in row"),
        (b"a 1 2\nb 1 2\na 3 4\n\xe2\x82 5 6\n", DuplicateTokenError, 3, "duplicate token 'a'"),
        (b"a 1 2\nb 1 2\n\xe2\x82 5 6\nb 3 4\n", TextFormatError, 3,
         "not valid UTF-8 (invalid continuation byte)"),
        (b"a 1 2\nb 3 4\nc 5 6\xf0\x9f", TextFormatError, 3,
         "not valid UTF-8 (unexpected end of data)"),
    ], ids=["bad-byte", "row-error-first", "duplicate-first", "bad-byte-first", "cut-short"])
    @pytest.mark.parametrize("chars", [1, embeddings._TEXT_BLOCK])
    def test_load_text(self, tmp_path, monkeypatch, data, error, line, message, chars):
        monkeypatch.setattr(embeddings, "_TEXT_BLOCK", chars)
        path = tmp_path / "vecs.txt"
        path.write_bytes(data)
        for keep in KEEPS:
            assert outcome(load_text, path, keep) == (error, None, line,
                                                      f"{message} (line {line})")

    @pytest.mark.parametrize("data, line, message", [
        (b"dog\tanimal\t1\nca\xfft\tanimal\t0\n", 2, "not valid UTF-8 (invalid start byte)"),
        (b"dog\tanimal\t2\nca\xfft\tanimal\t0\n", 1, "bad label '2'"),
    ], ids=["bad-byte", "row-error-first"])
    def test_load_pairs(self, tmp_path, data, line, message):
        path = tmp_path / "pairs.tsv"
        path.write_bytes(data)
        with pytest.raises(DatasetFormatError) as exc_info:
            load_pairs(path)
        assert (exc_info.value.line, str(exc_info.value)) == (line, f"line {line}: {message}")

    @pytest.mark.parametrize("data, line, message", [
        (b"node a 1\nnode b\xff 1\n", 2, "not valid UTF-8 (invalid start byte)"),
        (b"node a 1\nentail a b\nnode c\xff 1\n", 2, "edge references unknown node 'b'"),
        # a form feed separates fields, as str.split() reads it, not lines
        (b"node a 1\x0cnode b 1\n", 1, "node 'a' declares dim 1 but lists 3 priors"),
    ], ids=["bad-byte", "row-error-first", "form-feed"])
    def test_parse_graph_file(self, tmp_path, data, line, message):
        path = tmp_path / "toy.graph"
        path.write_bytes(data)
        with pytest.raises(GraphFormatError) as exc_info:
            parse_graph_file(path)
        assert (exc_info.value.line, str(exc_info.value)) == (line, f"line {line}: {message}")

    @pytest.mark.parametrize("brk", ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85",
                                     "\u2028"])
    def test_parse_graph_breaks_lines_as_a_file_does(self, tmp_path, brk):
        text = f"node a 1{brk}node b 1{brk}entail a c\n"
        path = tmp_path / "toy.graph"
        path.write_text(text, encoding="utf-8", newline="")
        got = []
        for read, source in ((parse_graph, text), (parse_graph_file, path)):
            with pytest.raises(GraphFormatError) as exc_info:
                read(source)
            got.append((exc_info.value.line, str(exc_info.value)))
        assert got[0] == got[1]
        assert got[0][0] == (3 if brk in ("\n", "\r\n", "\r") else 1)

    @pytest.mark.parametrize("data, line, message", [
        (b"2 1 0.0 bwd\n1\n\xff\n", 3, "not valid UTF-8 (invalid start byte)"),
        (b"2 1 0.0 bwd\nx\n\xff\n", 2, "could not convert string to float: 'x'"),
    ], ids=["bad-byte", "row-error-first"])
    def test_load_model(self, tmp_path, data, line, message):
        path = tmp_path / "m.model"
        path.write_bytes(data)
        with pytest.raises(ValueError) as exc_info:
            load_model(path)
        assert (type(exc_info.value), str(exc_info.value)) == (ValueError,
                                                               f"line {line}: {message}")

    def test_a_bad_row_beats_a_bad_byte_within_one_read(self, tmp_path):
        # the bad byte is well inside the first 8 KB that a reader decodes at once
        path = tmp_path / "vecs.txt"
        path.write_bytes(b"".join(b"w%d 1 2\n" % k for k in range(300)) + b"w5 3 4\n"
                         + b"c\xffat 5 6\n")
        assert outcome(load_text, path) == (DuplicateTokenError, None, 301,
                                            "duplicate token 'w5' (line 301)")


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs here")
class TestStreamsThatAreNotUTF8:
    """A FIFO has no writer once its data is read: a reader that reopened it to
    find the bad line would wait forever."""

    def test_load_text(self, tmp_path):
        fifo = tmp_path / "stream.txt"
        os.mkfifo(fifo)
        with deadline(20.0):
            got = outcome(partial(load_fifo, load_text, b"2 2\na 1 2\nb\xff 3 4\n"), fifo)
        assert got == (TextFormatError, None, 3,
                       "not valid UTF-8 (invalid start byte) (line 3)")

    def test_load_pairs(self, tmp_path):
        fifo = tmp_path / "stream.tsv"
        os.mkfifo(fifo)
        read = partial(load_fifo, lambda path, keep: load_pairs(path))
        with deadline(20.0), pytest.raises(DatasetFormatError) as exc_info:
            read(b"dog\tanimal\t1\nca\xfft\tanimal\t0\n", fifo)
        assert exc_info.value.line == 2

    def test_parse_graph_file(self, tmp_path):
        fifo = tmp_path / "stream.graph"
        os.mkfifo(fifo)
        read = partial(load_fifo, lambda path, keep: parse_graph_file(path))
        with deadline(20.0), pytest.raises(GraphFormatError) as exc_info:
            read(b"node a 1\nnode b\xff 1\n", fifo)
        assert exc_info.value.line == 2

    def test_load_model(self, tmp_path):
        fifo = tmp_path / "stream.model"
        os.mkfifo(fifo)
        read = partial(load_fifo, lambda path, keep: load_model(path))
        with deadline(20.0), pytest.raises(ValueError,
                                           match="^line 2: not valid UTF-8 "):
            read(b"1 1 0.0 bwd\n\xff\n", fifo)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs here")
def test_a_graph_reads_from_a_stream_as_from_a_file(tmp_path):
    data = b"node a 2 0.5 -1\r\nnode b 2\rentail a b\nobserve b 0 1.5\n"
    fifo, path = tmp_path / "stream.graph", tmp_path / "file.graph"
    os.mkfifo(fifo)
    path.write_bytes(data)
    with deadline(20.0):
        streamed = load_fifo(lambda path, keep: parse_graph_file(path), data, fifo)
    filed = parse_graph_file(path)
    assert streamed.node_names == filed.node_names == ["a", "b"]
    assert streamed.pos_edges == filed.pos_edges == [("a", "b")]
    assert streamed.theta("a").tolist() == filed.theta("a").tolist() == [0.5, -1.0]
    assert streamed.observations["b"].tolist() == [1.5, 0.0]
