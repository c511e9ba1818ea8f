"""Shared exception types, the checked integer-token parser that turns
malformed numbers in files and flags into them, and the record reader that
all four text formats share.

The CLI exits 2 on an InputError (FormatError for file content) or a
CapacityError, and 3 on an InvariantViolationError.

Every format (DIMACS graph and CNF, PACE decompositions, branching-program
text) has one layout.  Blank lines, and lines whose first non-blank
character is `c`, are skipped wherever they appear; any line end that
`str.splitlines` knows, `\n` and `\r\n` among them, ends a line; and
exactly one header line of fixed words and integers comes before any other
record.  `read_records` checks that layout, so each format's parser checks
only its own records.
"""

from __future__ import annotations

from typing import Iterator


class WidthlabError(Exception):
    """Base class for errors raised by this package."""


class InputError(WidthlabError, ValueError):
    """Malformed or out-of-range input supplied by the caller."""


class FormatError(InputError):
    """Ill-formed file content (DIMACS, PACE, branching-program text)."""


class CapacityError(WidthlabError, ValueError):
    """Instance exceeds a configured exhaustive-computation cap."""


class InvariantViolationError(WidthlabError, RuntimeError):
    """An internal self-check failed; indicates an implementation bug."""


def int_token(token: str, where: str, error: type[InputError] = FormatError) -> int:
    """Parse one integer token.  A malformed token raises `error` (FormatError
    for file content, InputError for flags) with a message led by `where`."""
    try:
        return int(token)
    except ValueError:
        raise error(f"{where}: expected an integer, got {token!r}") from None


_CHUNK = 1 << 14  # characters split into lines at a time


def _content_lines(text: str) -> Iterator[tuple[str, list[str]]]:
    """("line N", fields) of each line that is neither blank nor a comment,
    splitting one chunk of whole lines at a time rather than all of text."""
    lineno, start = 0, 0
    while start < len(text):
        stop = text.find("\n", start + _CHUNK) + 1 or len(text)
        for raw in text[start:stop].splitlines():
            lineno += 1
            parts = raw.split()
            if parts and not parts[0].startswith("c"):
                yield f"line {lineno}", parts
        start = stop


def read_records(
    text: str, words: str, counts: str
) -> tuple[str, tuple[int, ...], Iterator[tuple[str, list[str]]]]:
    """Read the header line `<words> <counts>` of `text`, such as
    `read_records(text, "p edge", "n m")`, where each name in `counts`
    stands for one integer.  Returns the header's position ("line N"), its
    integers, and an iterator over the ("line N", fields) of every later
    record.  A record before the header, a second header, a missing header
    or a header of the wrong shape raises FormatError."""
    keyword = words.split()
    lines = _content_lines(text)

    def records():
        for where, parts in lines:
            if parts[0] == keyword[0]:
                raise FormatError(f"{where}: duplicate '{words}' header line")
            yield where, parts

    for where, parts in lines:
        if parts[0] != keyword[0]:
            raise FormatError(f"{where}: record before the '{words}' header line")
        if len(parts) != len(keyword) + len(counts.split()) or parts[:len(keyword)] != keyword:
            raise FormatError(f"{where}: expected '{words} {counts}'")
        return where, tuple(int_token(p, where) for p in parts[len(keyword):]), records()
    raise FormatError(f"missing '{words}' header line")
