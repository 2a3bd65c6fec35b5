"""Ratio-model semantic similarity between ontology terms.

For terms t1, t2 with ancestor-set sizes theta(t) and shared-ancestor count
psi(t1, t2), the directed score is

    theta(t1) / (alpha * (theta(t1) - psi) + beta * (theta(t2) - psi) + theta(t1))

The denominator is never smaller than the numerator and never zero, so the
score lives in (0, 1] and equals 1 exactly when both ancestor sets coincide.
The directed form is asymmetric whenever alpha != beta, so the user-facing
measure defaults to averaging both directions; the raw directed form stays
selectable as the "as-printed" policy.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, replace
from itertools import chain
from typing import IO, Iterable, Mapping, Sequence

from . import matrixio
from .errors import EmptyTermList, UnknownTerm
from .ontology import OntologyGraph, TermId

SYMMETRIZE_AS_PRINTED = "as-printed"
SYMMETRIZE_MEAN = "mean-of-directions"
SYMMETRIZATIONS = (SYMMETRIZE_AS_PRINTED, SYMMETRIZE_MEAN)


@dataclass(frozen=True)
class SimilarityParams:
    """Weights of the directed ratio measure plus the symmetrization policy."""

    alpha: float = 7.9
    beta: float = 3.9
    symmetrization: str = SYMMETRIZE_MEAN

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
            raise ValueError("alpha and beta must be finite")
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("alpha and beta must be non-negative")
        if self.symmetrization not in SYMMETRIZATIONS:
            raise ValueError(
                f"symmetrization must be one of {SYMMETRIZATIONS}, got {self.symmetrization!r}"
            )


def sim_rows(
    graph: OntologyGraph,
    params: SimilarityParams,
    rows: Sequence[TermId],
    cols: Sequence[TermId],
) -> list[tuple[float, ...]]:
    """Scores of every row term against every column term under the
    configured policy: one tuple per row, in column order.

    This is the only place the ratio is evaluated. Each term's closure and
    theta are read once and each pair's psi is computed once; under
    mean-of-directions both directions come from that one (theta1, theta2,
    psi) triple. Raises UnknownTerm for the first unknown row or column term.
    """
    alpha, beta = params.alpha, params.beta
    mean = params.symmetrization == SYMMETRIZE_MEAN

    def ratio(theta1: int, theta2: int, psi: int) -> float:
        return theta1 / (alpha * (theta1 - psi) + beta * (theta2 - psi) + theta1)

    # A square mean-of-directions matrix is symmetric and float + commutes,
    # so the lower triangle is copied from the upper one bit for bit.
    square = mean and list(rows) == list(cols)
    row_closures = graph.closures(rows)
    col_closures = row_closures if square else graph.closures(cols)
    # Bits go only to nodes of some row closure: psi never counts any other
    # node, so projecting every closure onto them is exact and keeps the
    # masks as narrow as this call allows.
    universe = dict.fromkeys(chain.from_iterable(row_closures))
    bit_of = {node: 1 << bit for bit, node in enumerate(universe)}.get

    def project(closure: tuple[int, ...]) -> int:
        mask = 0
        for node in closure:
            mask |= bit_of(node, 0)
        return mask

    row_masks = [project(closure) for closure in row_closures]
    col_masks = row_masks if square else [project(closure) for closure in col_closures]
    col_thetas = [len(closure) for closure in col_closures]
    out = []
    for i, (mask1, closure1) in enumerate(zip(row_masks, row_closures)):
        theta1 = len(closure1)
        done = i if square else 0
        row = [out[j][i] for j in range(done)]
        for mask2, theta2 in zip(col_masks[done:], col_thetas[done:]):
            psi = (mask1 & mask2).bit_count()
            score = ratio(theta1, theta2, psi)
            if mean:
                score = (score + ratio(theta2, theta1, psi)) / 2.0
            row.append(score)
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
        labels, values = matrixio.read_matrix_csv(lines)
        return cls(labels, values)


def pairwise_matrix(
    graph: OntologyGraph,
    params: SimilarityParams,
    terms: Iterable[TermId],
    workers: int = 1,
) -> SimilarityMatrix:
    """All-pairs similarity over the given terms.

    Duplicates collapse to their first occurrence. ``workers`` is accepted
    for compatibility and has no effect: the kernel is pure Python, so
    threads could not run it in parallel.
    """
    ordered = list(dict.fromkeys(terms))
    if not ordered:
        raise EmptyTermList()
    unknown = [t for t in ordered if t not in graph]
    if unknown:
        raise UnknownTerm(*unknown)
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
    except UnknownTerm:
        unknown = [t for t in dict.fromkeys([query, *sorted(pool)]) if t not in graph]
        raise UnknownTerm(*unknown) from None
    # (-score, id) is a total order, so the pool's own order does not matter
    return heapq.nsmallest(k, zip(pool, scores), key=lambda pair: (-pair[1], pair[0]))
