"""Ratio-model semantic similarity between ontology terms.

For terms t1, t2 with ancestor-set sizes theta(t) and shared-ancestor count
psi(t1, t2), the directed score is

    theta(t1) / (alpha * (theta(t1) - psi) + beta * (theta(t2) - psi) + theta(t1))

The denominator is never smaller than the numerator and never zero, so the
score lives in (0, 1]. It is 1 exactly when alpha * (theta(t1) - psi) +
beta * (theta(t2) - psi) is 0: always for t1 == t2, and for distinct terms
only as the weights allow, since theta(t1) - psi is 0 only when t1 is an
ancestor of t2 (and theta(t2) - psi only when t2 is one of t1). With alpha
> 0 and beta > 0 distinct terms score below 1; with beta = 0 a parent
scores 1 towards its child; with alpha = beta = 0 every score is 1. The
mean of both directions is 1 for distinct terms only when alpha = beta = 0.
A weight is 0 or in [MIN_WEIGHT, MAX_WEIGHT] = [1e-6, 1e6]. Outside that
range the float kernel cannot keep these bounds: a smaller positive weight
can vanish beside theta and round a distinct pair's score to exactly 1, and
a larger one can overflow the denominator and round the score to 0.
The directed form is asymmetric whenever alpha != beta, so the user-facing
measure defaults to averaging both directions; the raw directed form stays
selectable as the "as-printed" policy.
"""

from __future__ import annotations

import heapq
import sys
from array import array
from dataclasses import dataclass, replace
from typing import IO, Iterable, Mapping, Sequence

from . import matrixio
from .errors import EmptyTermList, UnknownTerm
from .ontology import OntologyGraph, TermId

SYMMETRIZE_AS_PRINTED = "as-printed"
SYMMETRIZE_MEAN = "mean-of-directions"
SYMMETRIZATIONS = (SYMMETRIZE_AS_PRINTED, SYMMETRIZE_MEAN)
# accepted range of a positive weight; see the module docstring
MIN_WEIGHT, MAX_WEIGHT = 1e-6, 1e6
# rows scored together by sim_rows: its packed vectors hold one block's
# row-closure nodes times the columns, however many rows there are
BLOCK_ROWS = 256
# array typecode of a sim_rows field (2 * width bits), by width
_FIELD_CODE = {8: "H", 16: "I", 32: "Q"}


@dataclass(frozen=True)
class SimilarityParams:
    """Weights of the directed ratio measure plus the symmetrization policy."""

    alpha: float = 7.9
    beta: float = 3.9
    symmetrization: str = SYMMETRIZE_MEAN

    def __post_init__(self):
        # the range test also rejects nan, infinities and negative weights
        if not all(w == 0 or MIN_WEIGHT <= w <= MAX_WEIGHT for w in (self.alpha, self.beta)):
            raise ValueError(f"alpha and beta must be 0 or in [{MIN_WEIGHT:g}, {MAX_WEIGHT:g}]")
        if self.symmetrization not in SYMMETRIZATIONS:
            raise ValueError(
                f"symmetrization must be one of {SYMMETRIZATIONS}, got {self.symmetrization!r}"
            )

    def directed(self, theta1: int, theta2: int, psi: int) -> float:
        """The module docstring's directed ratio of one (theta1, theta2, psi) triple."""
        return theta1 / (self.alpha * (theta1 - psi) + self.beta * (theta2 - psi) + theta1)

    def score(self, theta1: int, theta2: int, psi: int) -> float:
        """The score of the (theta1, theta2, psi) triple under the policy."""
        if self.symmetrization == SYMMETRIZE_MEAN:
            return (self.directed(theta1, theta2, psi) + self.directed(theta2, theta1, psi)) / 2.0
        return self.directed(theta1, theta2, psi)


class _Scores(dict):
    """The scores of one theta1, keyed by a sim_rows cell ``theta2 << width
    | psi``; a cell's triple is scored by ``score`` on its first lookup."""

    __slots__ = ("score", "theta1", "width")

    def __init__(self, score, theta1: int, width: int):
        self.score, self.theta1, self.width = score, theta1, width

    def __missing__(self, cell: int) -> float:
        theta2, psi = divmod(cell, 1 << self.width)
        value = self[cell] = self.score(self.theta1, theta2, psi)
        return value


def sim_rows(
    graph: OntologyGraph,
    params: SimilarityParams,
    rows: Sequence[TermId],
    cols: Sequence[TermId],
) -> list[tuple[float, ...]]:
    """Scores of every row term against every column term under the
    configured policy: one tuple per row, in column order.

    Each term's closure is read once, and every cell of a row comes from one
    integer sum. Column j owns the 2 * width bits from bit 2 * width * j,
    where width is the narrowest of 8, 16 or 32 bits above the call's
    largest theta. Rows are walked in blocks of BLOCK_ROWS; each node u of a
    block's row closures gets an integer ``packed[u]`` with a 1 in the field
    of every column whose closure holds u. A row's sum of ``packed[u]`` over
    its closure, plus the columns' thetas in the high halves of their fields,
    reads ``theta2 << width | psi`` in every field; theta2 and psi are below
    2 ** width, so no field carries into the next. A score depends on
    nothing but the (theta1, theta2, psi) triple, so each distinct triple is
    scored once per call by ``params.score`` and its score reused for every
    pair that shares it. UnknownTerm names every unknown id once, rows
    first.
    """
    closures = graph.closures([*rows, *cols])
    row_closures, col_closures = closures[: len(rows)], closures[len(rows) :]
    top = max(map(len, closures), default=0)
    width = 8 if top < 1 << 8 else 16 if top < 1 << 16 else 32
    code = _FIELD_CODE[width]
    size = len(col_closures) * width // 4
    zeros = bytes(size)
    base = int.from_bytes(array(code, map(len, col_closures)), sys.byteorder) << width
    tables: dict[int, _Scores] = {}
    out = []
    for start in range(0, len(row_closures), BLOCK_ROWS):
        block = row_closures[start : start + BLOCK_ROWS]
        # psi counts only nodes of a row closure, so only they are packed;
        # each first gathers the columns that hold it
        packed = {node: [] for node in set().union(*block)}
        held = packed.get
        for j, closure in enumerate(col_closures):
            for node in closure:
                columns = held(node)
                if columns is not None:
                    columns.append(j)
        for node, columns in packed.items():
            fields = array(code, zeros)
            for j in columns:
                fields[j] = 1
            packed[node] = int.from_bytes(fields, sys.byteorder)
        for closure in block:
            table = tables.get(len(closure))
            if table is None:
                table = tables[len(closure)] = _Scores(params.score, len(closure), width)
            cells = sum(map(packed.__getitem__, closure), base).to_bytes(size, sys.byteorder)
            out.append(tuple(map(table.__getitem__, array(code, cells))))
    return out


def sim_rm_directed(graph: OntologyGraph, params: SimilarityParams, t1: TermId, t2: TermId) -> float:
    """The raw directed score of t1 towards t2, whatever the policy."""
    return sim_rm(graph, replace(params, symmetrization=SYMMETRIZE_AS_PRINTED), t1, t2)


def sim_rm(graph: OntologyGraph, params: SimilarityParams, t1: TermId, t2: TermId) -> float:
    """Similarity under the configured policy; symmetric under mean-of-directions."""
    return sim_rows(graph, params, (t1,), (t2,))[0][0]


def distance(graph: OntologyGraph, params: SimilarityParams, t1: TermId, t2: TermId) -> float:
    return 1.0 - sim_rm(graph, params, t1, t2)


@dataclass(frozen=True)
class SimilarityMatrix:
    """Square matrix of pairwise scores with term ids as row/column labels."""

    terms: tuple[TermId, ...]
    values: tuple[tuple[float, ...], ...]

    def to_distance(self) -> "SimilarityMatrix":
        """Companion matrix with every cell replaced by 1 - value."""
        return SimilarityMatrix(
            self.terms,
            tuple(tuple(1.0 - cell for cell in row) for row in self.values),
        )

    def to_csv(self, stream: IO[str], metadata: Mapping[str, object] | None = None) -> None:
        matrixio.write_matrix_csv(stream, self.terms, self.values, metadata)

    def to_json_dict(self) -> dict:
        return {"terms": list(self.terms), "values": [list(row) for row in self.values]}

    @classmethod
    def from_csv(cls, lines: Iterable[str]) -> "SimilarityMatrix":
        """Read :meth:`to_csv` output from a file opened with ``newline=""``,
        so that a ``\\r`` in a label reads back as itself."""
        labels, values = matrixio.read_matrix_csv(lines)
        return cls(labels, values)


def pairwise_matrix(graph: OntologyGraph, params: SimilarityParams, terms: Iterable[TermId]) -> SimilarityMatrix:
    """All-pairs similarity over the given terms; duplicates collapse to
    their first occurrence."""
    ordered = list(dict.fromkeys(terms))
    if not ordered:
        raise EmptyTermList()
    return SimilarityMatrix(tuple(ordered), tuple(sim_rows(graph, params, ordered, ordered)))


def nearest_terms(
    graph: OntologyGraph,
    params: SimilarityParams,
    query: TermId,
    candidates: Iterable[TermId],
    k: int,
) -> list[tuple[TermId, float]]:
    """Top-k candidates by similarity to the query, ties broken by ascending id."""
    if k < 1:
        raise ValueError("k must be >= 1")
    pool = list(set(candidates))
    try:
        scores = sim_rows(graph, params, (query,), pool)[0]
    except UnknownTerm as exc:
        # the pool is in hash order: name the query first, then sorted ids
        raise UnknownTerm(*sorted(exc.term_ids, key=lambda t: (t != query, t))) from None
    # (-score, id) is a total order, so the pool's own order does not matter
    return heapq.nsmallest(k, zip(pool, scores), key=lambda pair: (-pair[1], pair[0]))
