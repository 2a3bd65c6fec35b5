"""CSV helpers for labelled square matrices.

Layout: optional ``# key: value`` metadata lines, then a header row whose
first cell is empty and remaining cells are the labels, then one row per
label with fixed-precision cells. ``\\n`` line endings are forced so output
bytes are platform-independent.
"""

from __future__ import annotations

import csv
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
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["", *labels])
    for label, row in zip(labels, values):
        writer.writerow([label, *(f"{cell:.6f}" for cell in row)])


def read_matrix_csv(lines: Iterable[str]) -> tuple[tuple[str, ...], tuple[tuple[float, ...], ...]]:
    rows = list(csv.reader(line for line in lines if not line.startswith("#")))
    if not rows:
        raise ValueError("matrix file has no header row")
    labels = tuple(rows[0][1:])
    values = tuple(tuple(float(cell) for cell in row[1:]) for row in rows[1:])
    if len(values) != len(labels) or any(len(row) != len(labels) for row in values):
        raise ValueError("matrix file is not square")
    return labels, values
