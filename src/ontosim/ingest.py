"""Parsers for ontology interchange formats.

Three formats are supported:

* edge list: TSV with two columns ``child_id<TAB>parent_id``; ``#`` starts a
  comment line and blank lines are skipped
* labels: TSV ``id<TAB>label[<TAB>synonym]*``
* OBO subset: ``[Term]`` stanzas with ``id:``, ``name:``, ``synonym:`` and
  ``is_a:`` keys; obsolete stanzas are skipped with a warning, non-taxonomic
  ``relationship:`` lines are counted but ignored, every other key is ignored;
  ``id:``, ``name:`` and ``is_a:`` values drop an end-of-line ``! comment``
  (an escaped ``\\!`` is no comment), and ``id:`` and ``is_a:`` values also
  drop a trailing ``{...}`` modifier block that follows whitespace (a quoted
  modifier value may hold ``!`` or ``}``);
  synonym text runs to the first unescaped ``"``, and ``\\"`` and ``\\\\`` in it
  unescape (every other escape is kept as written)

All parsers are pure single-pass functions over an iterable of lines, accept
LF or CRLF endings, and trim surrounding whitespace from fields (internal
spaces are preserved).
"""

from __future__ import annotations

import io
import re
from itertools import chain
from typing import IO, Iterable, NamedTuple

from .errors import EmptyInput, MalformedLine, MalformedStanza, ParseError

# term id -> (label, synonyms), holding only terms that have either
LabelTable = dict[str, tuple[str | None, tuple[str, ...]]]


class ParseReport(NamedTuple):
    """Counts of records actually emitted plus non-fatal warnings, built once
    by the parser that returns it; ``warnings`` is that parser's own list."""

    term_count: int
    edge_count: int
    ignored_relation_count: int
    warnings: list[tuple[int, str]]


def parse_edge_list(lines: Iterable[str]) -> tuple[list[str], list[tuple[str, str]], ParseReport]:
    """Parse ``child<TAB>parent`` rows; terms are the union of endpoints.

    Each id is one string: every edge endpoint is the very object that the
    returned term list holds, so a large ontology keeps no copy per edge.
    """
    # id -> itself; setdefault returns the first string seen for an id
    terms: dict[str, str] = {}
    intern = terms.setdefault
    edges: list[tuple[str, str]] = []
    append = edges.append
    for lineno, raw in enumerate(lines, start=1):
        # an edge is exactly two fields, both non-empty once stripped, and the
        # first not a comment; strip() also drops the line ending, which only
        # the last field can carry
        fields = raw.split("\t")
        if len(fields) == 2:
            child = fields[0].strip()
            parent = fields[1].strip()
            if child and parent and child[0] != "#":
                append((intern(child, child), intern(parent, parent)))
                continue
        # every other line is blank, a comment or malformed
        line = raw.rstrip("\r\n")
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        raise MalformedLine(f"expected child<TAB>parent, got {line!r}", line=lineno)
    if not edges:
        raise EmptyInput("no edges found in edge-list input")
    return list(terms), edges, ParseReport(len(terms), len(edges), 0, [])


def write_edge_list(edges: Iterable[tuple[str, str]], stream: IO[str]) -> None:
    """Write ``child<TAB>parent`` rows that :func:`parse_edge_list` reads back
    as the same edges, in order, or write nothing.

    The rows are read back before they are written, as the CLI reads a file,
    so the reader alone says what an id may hold: an empty id, one with
    surrounding whitespace, a tab or a line break, a child id starting with
    ``#``, or a first child id starting with U+FEFF (a byte order mark, which
    a ``utf-8-sig`` read drops) raises MalformedLine naming the first such
    edge by its 1-based position. No edges raise EmptyInput.
    """
    edges = [(child, parent) for child, parent in edges]
    if not edges:
        raise EmptyInput("no edges to write")
    lines = [f"{child}\t{parent}\n" for child, parent in edges]
    text = "".join(lines)
    if not _reads_back(text, edges):
        for position, (line, edge) in enumerate(zip(lines, edges), start=1):
            if not _reads_back(line, [edge], at_start=position == 1):
                raise MalformedLine(f"edge {edge!r} would not read back as written", line=position)
    stream.write(text)


def _reads_back(text: str, edges: list[tuple[str, str]], at_start: bool = True) -> bool:
    if at_start:
        text = text.removeprefix("\ufeff")  # as a utf-8-sig read of the file does
    # newline=None reads "\r" and "\r\n" as line ends, as a file opened in text mode does
    try:
        return parse_edge_list(io.StringIO(text, newline=None))[1] == edges
    except ParseError:
        return False


def parse_labels(lines: Iterable[str]) -> tuple[LabelTable, ParseReport]:
    """Parse ``id<TAB>label[<TAB>synonym]*`` rows into a label table.

    A later entry for an already-seen id replaces the earlier one and is
    recorded as a warning in the report.
    """
    labels: LabelTable = {}
    warnings: list[tuple[int, str]] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip("\r\n")
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        fields = [f.strip() for f in line.split("\t")]
        if len(fields) < 2 or not fields[0] or not fields[1]:
            raise MalformedLine(f"expected id<TAB>label[<TAB>synonym]*, got {line!r}", line=lineno)
        if any(not f for f in fields[2:]):
            raise MalformedLine("empty synonym field", line=lineno)
        term_id, label, *syns = fields
        if term_id in labels:
            warnings.append((lineno, f"duplicate label entry for {term_id}; keeping the later one"))
        labels[term_id] = (label, tuple(syns))
    return labels, ParseReport(len(labels), 0, 0, warnings)


# an id runs to an unescaped "!" or to whitespace before "{" or "!"; an escaped
# "\!" stays in the id as written
_OBO_ID = re.compile(r"(?:[^\\!\s]|\\.?|\s+(?![\s{!]))*")
# what may follow the id: one {name=value, ...} modifier block, whose quoted
# values may hold "}" or "!", then an optional "! comment"
_OBO_ID_TRAILER = re.compile(r'(?:\s+\{(?:[^"}]|"(?:[^"\\]|\\.)*")*\})?\s*(?:!.*)?')
_UNTIL_COMMENT = re.compile(r"(?:[^\\!]|\\.?)*")
# quoted text runs to the first unescaped '"'; of its escapes only \" and \\ unescape.
# Runs of plain characters match in one step, so a synonym without escapes
# costs little more than cutting at the next '"'
_OBO_QUOTED = re.compile(r'"([^"\\]*(?:\\.[^"\\]*)*)"')
_OBO_QUOTE_ESCAPE = re.compile(r'\\([\\"])')


def _obo_id(value: str) -> str:
    """An ``id:`` or ``is_a:`` value without its ``!`` comment or trailing modifiers."""
    if "{" not in value and "\\" not in value:
        return value.partition("!")[0].rstrip()
    head = _OBO_ID.match(value)[0]
    if _OBO_ID_TRAILER.fullmatch(value, len(head)):
        return head
    # no well-formed modifier block: the id runs to the comment
    return _UNTIL_COMMENT.match(value)[0].rstrip()


def parse_obo_subset(lines: Iterable[str]) -> tuple[list[str], list[tuple[str, str]], LabelTable, ParseReport]:
    """Parse the OBO subset described in the module docstring.

    Returns term ids and edges as :func:`parse_edge_list` does, plus the
    label table of the terms that have a name or a synonym, in stanza order.
    ``is_a`` targets that never get their own stanza, or whose stanza is
    obsolete, are emitted as bare terms (with a warning) so that no edge
    references an undeclared term.
    """
    ids: list[str] = []
    edges: list[tuple[str, str]] = []
    labels: LabelTable = {}
    warnings: list[tuple[int, str]] = []
    ignored = 0  # relationship: lines
    referenced: dict[str, int] = {}
    skipped: set[str] = set()  # ids of obsolete stanzas

    # the open [Term] stanza; start is its header line, 0 when none is open
    start, term_id, name, synonyms, is_a, obsolete = 0, None, None, [], [], False
    # every header closes the open stanza; the "[" sentinel closes the last one
    for lineno, raw in enumerate(chain(lines, ("[",)), start=1):
        line = raw.strip()
        if not line or line[0] == "!":
            continue
        if line[0] == "[":
            if start:
                if term_id is None:
                    raise MalformedStanza("[Term] stanza has no id:", line=start)
                if obsolete:
                    skipped.add(term_id)
                    warnings.append((start, f"skipped obsolete term {term_id}"))
                else:
                    ids.append(term_id)
                    if name or synonyms:
                        labels[term_id] = (name, tuple(synonyms))
                    for target, at in is_a:
                        edges.append((term_id, target))
                        referenced.setdefault(target, at)
            start = lineno if line == "[Term]" else 0
            term_id, name, synonyms, is_a, obsolete = None, None, [], [], False
            continue
        if not start:
            # document header or body of a skipped stanza type
            continue
        if ":" not in line:
            raise MalformedLine(f"expected key: value, got {line!r}", line=lineno)
        key, _, value = line.partition(":")
        key = key.strip()
        value = value.strip()
        if key == "id":
            value = _obo_id(value)
            if not value:
                raise MalformedStanza("empty id:", line=lineno)
            if term_id is not None:
                raise MalformedStanza(f"[Term] stanza {term_id} has a second id: {value}", line=lineno)
            term_id = value
        elif key == "name":
            if "!" in value:
                value = _UNTIL_COMMENT.match(value)[0].rstrip()
            name = value or None
        elif key == "synonym":
            # only the first '"' can open the text; matching there, not searching
            # from every later quote, keeps a long unterminated value linear
            first = value.find('"')
            quoted = _OBO_QUOTED.match(value, first) if first >= 0 else None
            if quoted is None:
                raise MalformedLine("synonym text must be enclosed in double quotes", line=lineno)
            text = quoted[1]
            if "\\" in text:
                text = _OBO_QUOTE_ESCAPE.sub(r"\1", text)
            if text:
                synonyms.append(text)
        elif key == "is_a":
            target = _obo_id(value)
            if not target:
                raise MalformedLine("is_a without a target id", line=lineno)
            is_a.append((target, lineno))
        elif key == "is_obsolete":
            obsolete = value.lower() == "true"
        elif key == "relationship":
            ignored += 1
        # every other OBO key is ignored

    declared = set(ids)
    for target, lineno in referenced.items():
        if target not in declared:
            ids.append(target)
            why = "is obsolete" if target in skipped else "referenced but not defined"
            warnings.append((lineno, f"parent {target} {why}; added as bare term"))

    if not ids:
        raise EmptyInput("no [Term] stanzas found")
    return ids, edges, labels, ParseReport(len(ids), len(edges), ignored, warnings)
