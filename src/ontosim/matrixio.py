"""CSV helpers for labelled square matrices.

Layout: optional ``# key: value`` metadata lines, then a header row whose
first cell is empty and remaining cells are the labels, then one row per
label with fixed-precision cells. ``\\n`` line endings are forced so output
bytes are platform-independent.

Each distinct value is formatted once and its text reused for every cell
that holds it (0.0 and -0.0 count as one value; no score is -0.0). Labels
keep the csv module's quoting, one label at a time, so a label with a
comma, a quote, a line break or a leading ``#`` is written as csv writes it.
"""

from __future__ import annotations

import csv
import io
from itertools import chain, dropwhile
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
    csv.writer(stream, lineterminator="\n").writerow(["", *labels])
    text = {cell: f"{cell:.6f}" for cell in set(chain.from_iterable(values))}
    for label, row in zip(labels, values):
        stream.write(f"{_first_cell(label)}{','.join(map(text.__getitem__, row))}\n")


def _first_cell(label: str) -> str:
    """The label as csv writes it at the start of a row, with the comma after it.

    The line terminator must be the header's: csv quotes a field that holds
    any of its characters, so a label with a line break is quoted only then.
    """
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerow((label, ""))
    return buffer.getvalue()[:-1]


def read_matrix_csv(lines: Iterable[str]) -> tuple[tuple[str, ...], tuple[tuple[float, ...], ...]]:
    # only the metadata block before the header is skipped: a label may start with "#"
    rows = list(csv.reader(dropwhile(lambda line: line.startswith("#"), lines)))
    if not rows:
        raise ValueError("matrix file has no header row")
    labels = tuple(rows[0][1:])
    values = tuple(tuple(float(cell) for cell in row[1:]) for row in rows[1:])
    if len(values) != len(labels) or any(len(row) != len(labels) for row in values):
        raise ValueError("matrix file is not square")
    return labels, values
