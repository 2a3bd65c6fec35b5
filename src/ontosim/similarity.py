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

import math
from dataclasses import dataclass, replace
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

    This is the only place the ratio is evaluated. Each term's closure mask
    and theta are read once and each pair's psi is computed once; under
    mean-of-directions both directions come from that one (theta1, theta2,
    psi) triple. Raises UnknownTerm for the first unknown row or column term.
    """
    alpha, beta = params.alpha, params.beta
    mean = params.symmetrization == SYMMETRIZE_MEAN

    def ratio(theta1: int, theta2: int, psi: int) -> float:
        return theta1 / (alpha * (theta1 - psi) + beta * (theta2 - psi) + theta1)

    row_masks = graph.masks(rows)
    col_masks = graph.masks(cols)
    col_thetas = [mask.bit_count() for mask in col_masks]
    out = []
    for mask1 in row_masks:
        theta1 = mask1.bit_count()
        row = []
        for mask2, theta2 in zip(col_masks, col_thetas):
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
    pool = sorted(set(candidates))
    unknown = [t for t in dict.fromkeys([query, *pool]) if t not in graph]
    if unknown:
        raise UnknownTerm(*unknown)
    scored = list(zip(pool, sim_rows(graph, params, (query,), pool)[0]))
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return scored[:k]
