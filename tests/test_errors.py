"""The line layout that the four text formats share, read by
`errors.read_records`: `c` and blank lines anywhere, `\n` or `\r\n` line
ends, and exactly one header line before any other record."""

import pytest

from widthlab.bprog import build_obdd, format_bp, parse_bp
from widthlab.decomposition import ctree_decomposition, format_pace, parse_pace
from widthlab.errors import _CHUNK, FormatError, read_records
from widthlab.graph import format_dimacs_graph, parse_dimacs_graph
from widthlab.instances import (
    cnf_of_graph,
    ct_graph,
    cycle_graph,
    format_dimacs_cnf,
    parse_dimacs_cnf,
    path_graph,
)


def graph_text():
    return format_dimacs_graph(cycle_graph(5))


def cnf_text():
    return format_dimacs_cnf(cnf_of_graph(path_graph(3)))


def pace_text():
    return format_pace(ctree_decomposition(1, 1).base, ct_graph(1, 1).n)


def bp_text():
    return format_bp(build_obdd(cnf_of_graph(path_graph(2)), range(3)))


# (valid text, parser, header words, a record line)
FORMATS = [
    (graph_text, parse_dimacs_graph, "p edge", "e 1 2"),
    (cnf_text, parse_dimacs_cnf, "p cnf", "1 0"),
    (pace_text, parse_pace, "s td", "b 1 1"),
    (bp_text, parse_bp, "bp", "1 2"),
]
IDS = ["dimacs-graph", "dimacs-cnf", "pace", "bp"]


@pytest.mark.parametrize("make, parse, words, record", FORMATS, ids=IDS)
def test_crlf_comment_and_blank_lines_are_layout_only(make, parse, words, record):
    text = make()
    lines = text.splitlines()
    header = next(i for i, line in enumerate(lines) if line.startswith(words + " "))
    assert len(lines) >= header + 3  # two records to put lines between
    spaced = (lines[:header] + ["", "c before the header"] + lines[header:header + 2]
              + ["  ", "c between two records"] + lines[header + 2:])
    assert parse("\r\n".join(spaced) + "\r\n") == parse(text)


@pytest.mark.parametrize("make, parse, words, record", FORMATS, ids=IDS)
@pytest.mark.parametrize(
    "fault, message",
    [
        ("missing", "missing '{words}' header line"),
        ("duplicate", "line 3: duplicate '{words}' header line"),
        ("record first", "line 1: record before the '{words}' header line"),
    ],
)
def test_header_faults_read_alike_in_every_format(make, parse, words, record, fault,
                                                  message):
    header = next(line for line in make().splitlines() if line.startswith(words + " "))
    text = {
        "missing": "c no header\n\n",
        "duplicate": f"c one header\n{header}\n{header}\n",
        "record first": f"{record}\n{header}\n",
    }[fault]
    with pytest.raises(FormatError) as exc:
        parse(text)
    assert str(exc.value) == message.format(words=words)


def test_read_records_streams_the_records_after_the_header():
    where, header, records = read_records("c x\n\np edge 3 2\r\ne 1 2\nc y\ne 2 3", "p edge",
                                          "n m")
    assert (where, header) == ("line 3", (3, 2))
    assert next(records) == ("line 4", ["e", "1", "2"])
    assert list(records) == [("line 6", ["e", "2", "3"])]


@pytest.mark.parametrize(
    "text, message",
    [
        ("p edge 3\n", "line 1: expected 'p edge n m'"),
        ("p cnf 3 2\n", "line 1: expected 'p edge n m'"),
    ],
)
def test_read_records_checks_the_header_shape(text, message):
    with pytest.raises(FormatError) as exc:
        read_records(text, "p edge", "n m")
    assert str(exc.value) == message


def test_lines_are_numbered_across_chunks():
    # The reader splits several chunks of text into lines one chunk at a
    # time; the position of the last line must still count every line.
    g = path_graph(8000)
    text = format_dimacs_graph(g).replace("\n", "\r\n")
    assert len(text) > 4 * _CHUNK
    assert parse_dimacs_graph(text) == g
    last = len(text.splitlines()) + 1
    with pytest.raises(FormatError) as exc:
        parse_dimacs_graph(text + "e 1\r\n")
    assert str(exc.value) == f"line {last}: expected 'e u v'"
