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
from dataclasses import dataclass, replace
from itertools import chain
from typing import IO, Iterable, Mapping, Sequence

from . import matrixio
from .errors import EmptyTermList, UnknownTerm
from .ontology import OntologyGraph, TermId

SYMMETRIZE_AS_PRINTED = "as-printed"
SYMMETRIZE_MEAN = "mean-of-directions"
SYMMETRIZATIONS = (SYMMETRIZE_AS_PRINTED, SYMMETRIZE_MEAN)
# accepted range of a positive weight; see the module docstring
MIN_WEIGHT, MAX_WEIGHT = 1e-6, 1e6


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


def sim_rows(
    graph: OntologyGraph,
    params: SimilarityParams,
    rows: Sequence[TermId],
    cols: Sequence[TermId],
) -> list[tuple[float, ...]]:
    """Scores of every row term against every column term under the
    configured policy: one tuple per row, in column order.

    Each term's closure and theta are read once and each pair's psi is
    computed once. A score depends on nothing but the (theta1, theta2, psi)
    triple, so each distinct triple is scored once per call by
    ``params.score`` and its score reused for every pair that shares it;
    under mean-of-directions both directions come from that one triple.
    UnknownTerm names every unknown id once, rows first.
    """
    score = params.score
    mean = params.symmetrization == SYMMETRIZE_MEAN
    # A square mean-of-directions matrix is symmetric and float + commutes,
    # so the lower triangle is copied from the upper one bit for bit.
    rows, cols = list(rows), list(cols)
    square = mean and rows == cols
    closures = graph.closures(rows if square else rows + cols)
    row_closures = closures[: len(rows)]
    col_closures = row_closures if square else closures[len(rows) :]
    # Bits go only to nodes of some row closure: psi never counts any other
    # node, so projecting every closure onto them is exact and keeps the
    # masks as narrow as this call allows.
    universe = dict.fromkeys(chain.from_iterable(row_closures))
    bit_of = {node: 1 << bit for bit, node in enumerate(universe)}.get
    masks = []
    for closure in closures:
        mask = 0
        for node in closure:
            mask |= bit_of(node, 0)
        masks.append(mask)
    row_masks = masks[: len(rows)]
    col_masks = row_masks if square else masks[len(rows) :]
    col_thetas = [len(closure) for closure in col_closures]
    scores: dict[tuple[int, int, int], float] = {}
    get = scores.get
    out = []
    for i, (mask1, closure1) in enumerate(zip(row_masks, row_closures)):
        theta1 = len(closure1)
        done = i if square else 0
        row = [out[j][i] for j in range(done)]
        append = row.append
        for mask2, theta2 in zip(col_masks[done:], col_thetas[done:]):
            key = (theta1, theta2, (mask1 & mask2).bit_count())
            value = get(key)
            if value is None:
                value = scores[key] = score(*key)
            append(value)
        out.append(tuple(row))
    return out


def sim_rm_directed(graph: OntologyGraph, params: SimilarityParams, t1: TermId, t2: TermId) -> float:
    """The raw directed score of t1 towards t2, whatever the policy."""
    if params.symmetrization != SYMMETRIZE_AS_PRINTED:
        params = replace(params, symmetrization=SYMMETRIZE_AS_PRINTED)
    return sim_rows(graph, params, (t1,), (t2,))[0][0]


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
