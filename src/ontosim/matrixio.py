"""CSV helpers for labelled square matrices.

Layout: optional ``# key: value`` metadata lines, then a header row whose
first cell is empty and remaining cells are the labels, then one row per
label with fixed-precision cells. ``\\n`` line endings are forced so output
bytes are platform-independent.

Each distinct value is formatted on its first lookup, in row-major order,
and its text reused for every later cell that holds it (0.0 and -0.0 count
as one value, printed as whichever comes first; no score is -0.0). Labels
are quoted by :func:`csv_line`, one label at a time, so a label with a
comma, a quote, a line break (``\\r`` included) or a leading ``#`` reads
back as itself.
"""

from __future__ import annotations

import csv
import io
from itertools import dropwhile
from typing import IO, Iterable, Mapping, Sequence


def write_matrix_csv(
    stream: IO[str],
    labels: Sequence[str],
    values: Sequence[Sequence[float]],
    metadata: Mapping[str, object] | None = None,
) -> None:
    if metadata:
        for key, value in metadata.items():
            stream.write(f"# {key}: {value}\n")
    stream.write(csv_line(["", *labels]))
    text = _Texts().__getitem__
    for label, row in zip(labels, values):
        # the label's cell with the comma after it, then the formatted values
        stream.write(f"{csv_line((label, ''))[:-1]}{','.join(map(text, row))}\n")


class _Texts(dict):
    """Cell text by value; a value is formatted on its first lookup."""

    __slots__ = ()

    def __missing__(self, cell: float) -> str:
        text = self[cell] = f"{cell:.6f}"
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
