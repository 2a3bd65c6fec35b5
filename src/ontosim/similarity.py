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
For a fixed theta1 and theta2 the score, in float arithmetic too, never
decreases as psi grows, since each step of it is a monotone float operation.
The directed form is asymmetric whenever alpha != beta, so the user-facing
measure defaults to averaging both directions; the raw directed form stays
selectable as the "as-printed" policy.
"""

from __future__ import annotations

import heapq
import sys
from array import array
from dataclasses import dataclass, replace
from typing import IO, Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from . import matrixio
from .errors import EmptyTermList, UnknownTerm
from .ontology import OntologyGraph, TermId

SYMMETRIZE_AS_PRINTED = "as-printed"
SYMMETRIZE_MEAN = "mean-of-directions"
SYMMETRIZATIONS = (SYMMETRIZE_AS_PRINTED, SYMMETRIZE_MEAN)
# accepted range of a positive weight; see the module docstring
MIN_WEIGHT, MAX_WEIGHT = 1e-6, 1e6
# rows packed together by sim_rows and best_scores: their packed vectors hold
# one block's row-closure nodes times the columns, however many rows there are
BLOCK_ROWS = 256
# array typecode of a packed psi field, by its width in bits
_FIELD_CODE = {8: "B", 16: "H", 32: "I", 64: "Q"}


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
        # -0.0 passes as 0 and is falsy, so "or" stores it as 0.0: one stamp for every zero weight
        object.__setattr__(self, "alpha", self.alpha or 0.0)
        object.__setattr__(self, "beta", self.beta or 0.0)
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


class _Memo(dict):
    """The values of one (theta1, theta2) pair, keyed by psi; a cell's
    triple is passed to ``value`` on its first lookup."""

    __slots__ = ("value", "theta1", "theta2")

    def __init__(self, value, theta1: int, theta2: int):
        self.value, self.theta1, self.theta2 = value, theta1, theta2

    def __missing__(self, psi: int):
        result = self[psi] = self.value(self.theta1, self.theta2, psi)
        return result


def sim_rows(
    graph: OntologyGraph,
    params: SimilarityParams,
    rows: Sequence[TermId],
    cols: Sequence[TermId],
) -> list[tuple[float, ...]]:
    """Scores of every row term against every column term under the
    configured policy: one tuple per row, in column order.

    Each term's closure is read once, and every cell of a row comes from one
    integer sum. Column j owns the width bits from bit width * j, where
    width is the narrowest of 8, 16, 32 or 64 bits that holds the rows'
    largest theta below its high bit. Rows are walked in blocks of
    BLOCK_ROWS; each node u of a block's row closures gets an integer
    ``packed[u]`` with a 1 in the field of every column whose closure holds
    u. A row's sum of ``packed[u]`` over its closure reads psi in every
    field; psi is at most theta1, below 2 ** (width - 1), so no field
    carries into the next. A column's theta2 is the same in every row, so it
    is not packed: each distinct row theta gets, once per call, one memo per
    column, shared by the columns of one theta2 and keyed by psi. A score
    depends on nothing but the (theta1, theta2, psi) triple, so each
    distinct triple is scored once per call by ``params.score`` and its
    score reused for every pair that shares it.
    The same walk gives the CLI's matrix CSV and JSON their cell texts
    (:func:`matrix_rows`), and the same row scorer turns
    :func:`best_scores`' packed maxima into scores. UnknownTerm names every
    unknown id once, rows first.
    """
    return [tuple(row) for row in _cell_rows(graph, params.score, rows, cols)]


def _cell_rows(graph: OntologyGraph, value, rows: Sequence[TermId], cols: Sequence[TermId]) -> Iterator[Iterator]:
    """An iterator over the rows of :func:`sim_rows`' walk, each an iterator
    over ``value(theta1, theta2, psi)`` of its cells; ``value`` is called
    once per distinct triple. Every id is resolved here, when this returns:
    a generator's body would not run until the first row is read."""
    closures = graph.closures([*rows, *cols])
    row_closures, col_closures = closures[: len(rows)], closures[len(rows) :]
    width = _field_width(row_closures)
    values = _row_values(value, [*map(len, col_closures)], width)
    return map(values, map(len, row_closures), _psi_sums(row_closures, col_closures, width))


def _row_values(value, thetas: Sequence[int], width: int):
    """The function that turns a theta and a packed integer of psi fields,
    field j for ``thetas[j]``, into an iterator over ``value(theta,
    thetas[j], psi)`` in field order. Each distinct theta gets, on first use,
    one memo per field, shared by the fields of one ``thetas`` value and
    keyed by psi, so ``value`` is called once per distinct triple."""
    code, size = _FIELD_CODE[width], len(thetas) * width // 8
    tables: dict[int, list[_Memo]] = {}

    def values(theta: int, packed: int) -> Iterator:
        row = tables.get(theta)
        if row is None:
            memos = {other: _Memo(value, theta, other) for other in set(thetas)}
            row = tables[theta] = [*map(memos.__getitem__, thetas)]
        return map(dict.__getitem__, row, array(code, packed.to_bytes(size, sys.byteorder)))

    return values


def _field_width(row_closures) -> int:
    """Bits per packed psi field: the narrowest of 8, 16, 32 or 64 whose
    high bit stays clear, since psi is at most the rows' largest theta; the
    spare bit is what :func:`best_scores`' SWAR max borrows from."""
    top = max(map(len, row_closures), default=0)
    return next(width for width in _FIELD_CODE if top < 1 << (width - 1))


def _psi_sums(row_closures, col_closures, width: int) -> Iterator[int]:
    """One integer per row closure, in order, whose field j (the width bits
    from bit width * j) holds psi of that row and column j."""
    code = _FIELD_CODE[width]
    zeros = bytes(len(col_closures) * width // 8)
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
            yield sum(map(packed.__getitem__, closure))


def best_scores(
    graph: OntologyGraph,
    params: SimilarityParams,
    terms: Sequence[TermId],
    references: Sequence[Sequence[int]],
) -> Iterator[list[float]]:
    """For each reference, a non-empty list of terms given as positions in
    ``terms``, the best score under the policy of every term of ``terms``
    towards any of the reference's terms: ``best[s] = max(sim_rows(graph,
    params, terms, terms)[s][r] for r in reference)``, bit for bit, without
    the term matrix. A generator: ids are resolved when the first list is
    read, and each reference is scored as it is read.

    Each term r's closure is walked once by the kernel's packing, as a row
    against every term as a column, giving one integer whose field s holds
    psi(s, r). A score is non-decreasing in psi for a fixed theta1 and
    theta2 (module docstring), so the best over a reference's terms of one
    theta2 is the score of their largest psi. Each reference therefore
    keeps, per distinct theta2 of its terms, one integer of per-field
    maxima, folded with a SWAR max (a per-field max from a few
    whole-integer operations; :func:`_field_width` leaves each field a
    clear high bit for it). That is about D x distinct-theta x T fields for
    D references and T terms, never T x T. Each maximum is scored through
    the kernel's own row scorer, as :func:`sim_rows` scores its cells, with
    the reference's theta2 in the row's place: its per-(theta1, theta2) psi
    memos score each distinct triple once per call.
    """
    closures = graph.closures(terms)
    width = _field_width(closures)
    shift = width - 1
    high = int.from_bytes(array(_FIELD_CODE[width], [1 << shift]) * len(closures), sys.byteorder)
    holders: list[list[int]] = [[] for _ in closures]
    for j, reference in enumerate(references):
        for r in reference:
            holders[r].append(j)
    thetas = [*map(len, closures)]
    # maxima[j][theta2]: the per-field maxima of psi over j's terms of that theta
    maxima: list[dict[int, int]] = [{} for _ in references]
    for theta2, psis, held_by in zip(thetas, _psi_sums(closures, closures, width), holders):
        for j in held_by:
            other = maxima[j].get(theta2, 0)
            # the high bit of each field of (psis | high) - other stays set
            # exactly where psis >= other; the mask keeps those fields
            ge = ((psis | high) - other) & high
            maxima[j][theta2] = other ^ ((psis ^ other) & (ge - (ge >> shift)))
    # a reference's theta2 keys the memo tables, so it comes first to the scorer
    values = _row_values(lambda theta2, theta1, psi: params.score(theta1, theta2, psi), thetas, width)
    for groups in maxima:
        scored = [[*values(theta2, fields)] for theta2, fields in groups.items()]
        # the first group is repeated so that max always gets two arguments
        yield [*map(max, scored[0], *scored)]


def sim_rm_directed(graph: OntologyGraph, params: SimilarityParams, t1: TermId, t2: TermId) -> float:
    """The raw directed score of t1 towards t2, whatever the policy."""
    return sim_rm(graph, replace(params, symmetrization=SYMMETRIZE_AS_PRINTED), t1, t2)


def sim_rm(graph: OntologyGraph, params: SimilarityParams, t1: TermId, t2: TermId) -> float:
    """Similarity under the configured policy; symmetric under mean-of-directions."""
    return sim_rows(graph, params, (t1,), (t2,))[0][0]


def distance(graph: OntologyGraph, params: SimilarityParams, t1: TermId, t2: TermId) -> float:
    return _distance_of(sim_rm(graph, params, t1, t2))


def _distance_of(score: float) -> float:
    """The distance that every distance output gives for a score."""
    return 1.0 - score


class SimilarityMatrix(NamedTuple):
    """Square matrix of pairwise scores with term ids as row/column labels."""

    terms: tuple[TermId, ...]
    values: tuple[tuple[float, ...], ...]

    def to_distance(self) -> "SimilarityMatrix":
        """Companion matrix with every cell replaced by 1 - value."""
        return SimilarityMatrix(self.terms, tuple(tuple(map(_distance_of, row)) for row in self.values))

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
    ordered = _distinct(terms)
    return SimilarityMatrix(ordered, tuple(sim_rows(graph, params, ordered, ordered)))


def matrix_rows(
    graph: OntologyGraph, params: SimilarityParams, terms: Iterable[TermId], distance: bool, text: Callable[[float], str]
) -> tuple[tuple[TermId, ...], Iterator[Iterator[str]]]:
    """The labels and rows of ``pairwise_matrix(graph, params, terms)``, or
    of its ``to_distance()`` when ``distance`` is true, with every cell as
    ``text(value)``. With :func:`matrixio.cell_text` the cells are the text
    that ``to_csv`` writes, for :func:`matrixio.write_matrix_rows`; with
    ``repr`` they are ``json``'s text of each float, for
    :func:`matrixio.write_matrix_json`.

    Every id is resolved, and UnknownTerm or EmptyTermList raised, before
    this returns; the rows are scored as they are read, one block of
    BLOCK_ROWS at a time, and each distinct triple is scored and its text
    made once.
    """
    ordered = _distinct(terms)

    def cell(theta1: int, theta2: int, psi: int) -> str:
        value = params.score(theta1, theta2, psi)
        return text(_distance_of(value) if distance else value)

    return ordered, _cell_rows(graph, cell, ordered, ordered)


def _distinct(terms: Iterable[TermId]) -> tuple[TermId, ...]:
    # a matrix's terms: duplicates collapse to their first occurrence
    ordered = tuple(dict.fromkeys(terms))
    if not ordered:
        raise EmptyTermList()
    return ordered


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
