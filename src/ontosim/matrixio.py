"""CSV and JSON writers for labelled square matrices.

CSV layout: optional ``# key: value`` metadata lines, then a header row
whose first cell is empty and remaining cells are the labels, then one row
per label with fixed-precision cells. ``\\n`` line endings are forced so
output bytes are platform-independent.

:func:`write_matrix_csv` formats each distinct value on its first lookup,
in row-major order, and reuses its text for every later cell that holds it
(0.0 and -0.0 count as one value, printed as whichever comes first; no
score is -0.0). :func:`write_matrix_rows` writes rows whose cells are
already text, each as it is read. Both quote a label only if it holds a
character that csv would quote (a comma, a quote or a line break, ``\\r``
included), with :func:`csv_line`, so such a label reads back as itself; so
does one with a leading ``#``, since only the lines before the header are
read as metadata.

:func:`write_matrix_json` writes the bytes of ``json.dump(..., indent=2)``
for a matrix, from rows whose cells are already ``json``'s text, each row
as it is read. The CLI's ``matrix`` streams both formats from the term
kernel (``similarity.matrix_rows``), which makes each distinct score's text
once (``cell_text`` for CSV, ``repr`` for JSON), so no float matrix is held.
"""

from __future__ import annotations

import csv
import io
import json
from itertools import dropwhile
from typing import IO, Iterable, Mapping, Sequence

# the characters that make csv quote a field of a row with more than one
# field: the delimiter, the quote and those of the line terminator
_QUOTED = frozenset(',"\r\n')


def write_matrix_csv(
    stream: IO[str],
    labels: Sequence[str],
    values: Sequence[Sequence[float]],
    metadata: Mapping[str, object] | None = None,
) -> None:
    text = _Texts().__getitem__
    write_matrix_rows(stream, labels, (map(text, row) for row in values), metadata)


def write_matrix_rows(
    stream: IO[str],
    labels: Sequence[str],
    rows: Iterable[Iterable[str]],
    metadata: Mapping[str, object] | None = None,
) -> None:
    """The layout above for rows whose cells are already text, each row
    written as it is read."""
    if metadata:
        for key, value in metadata.items():
            stream.write(f"# {key}: {value}\n")
    stream.write(csv_line(["", *labels]))
    for label, row in zip(labels, rows):
        # the label's cell with the comma after it, then the row's cells
        cell = f"{label}," if _QUOTED.isdisjoint(label) else csv_line((label, ""))[:-1]
        stream.write(f"{cell}{','.join(row)}\n")


def write_matrix_json(
    stream: IO[str], labels: Sequence[str], rows: Iterable[Iterable[str]], metadata: Mapping[str, object]
) -> None:
    """What ``json.dump({"terms": labels, "values": values, **metadata},
    stream, indent=2)`` and a final ``\\n`` write, for a ``metadata`` with
    neither of those two keys, where ``rows`` holds the text that ``json``
    gives each cell of ``values``: each row is written as it is read."""
    item, cell = ",\n    ", ",\n      "
    stream.write(f'{{\n  "terms": [\n    {item.join(map(json.dumps, labels))}\n  ],\n  "values": [')
    for i, row in enumerate(rows):
        stream.write(f"{',' if i else ''}\n    [\n      {cell.join(row)}\n    ]")
    stream.write("\n  ]")
    for key, value in metadata.items():
        stream.write(f",\n  {json.dumps(key)}: {json.dumps(value)}")
    stream.write("\n}\n")


def cell_text(value: float) -> str:
    """The fixed-precision text of a matrix cell."""
    return f"{value:.6f}"


class _Texts(dict):
    """Cell text by value; a value is formatted on its first lookup."""

    __slots__ = ()

    def __missing__(self, cell: float) -> str:
        text = self[cell] = cell_text(cell)
        return text


def csv_line(fields: Iterable[object]) -> str:
    """One csv row ending in ``\\n``, as every csv file ontosim writes it.

    csv quotes a field that holds any character of its line terminator, so
    the quoting is decided with ``\\r\\n``: a field holding a bare ``\\r``
    is quoted as one holding ``\\n`` is, and reads back whole. That
    terminator is then swapped for ``\\n``.
    """
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\r\n").writerow(fields)
    return buffer.getvalue()[:-2] + "\n"


def read_matrix_csv(lines: Iterable[str]) -> tuple[tuple[str, ...], tuple[tuple[float, ...], ...]]:
    """Labels and values of a matrix file; open the file with ``newline=""``.

    A default ``open()`` turns a quoted ``\\r`` in a label into ``\\n``
    before these lines are read, so the label would not read back as itself.
    """
    # only the metadata block before the header is skipped: a label may start with "#"
    rows = list(csv.reader(dropwhile(lambda line: line.startswith("#"), lines)))
    if not rows:
        raise ValueError("matrix file has no header row")
    labels = tuple(rows[0][1:])
    values = tuple(tuple(float(cell) for cell in row[1:]) for row in rows[1:])
    if len(values) != len(labels) or any(len(row) != len(labels) for row in values):
        raise ValueError("matrix file is not square")
    for row, label in zip(rows[1:], labels):
        if row[0] != label:
            raise ValueError(f"row label {row[0]!r} does not match column label {label!r}")
    return labels, values
