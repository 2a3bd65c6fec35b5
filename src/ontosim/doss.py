"""Dataset-to-dataset similarity over annotated term sets (DOSS).

For every term of the source dataset, take the best similarity against the
reference dataset's terms, then aggregate those per-term maxima with a
summarising function. The measure is directional: a small dataset whose
terms are all covered by a large reference scores 1 against it, while the
reverse direction is typically below 1.
"""

from __future__ import annotations

from math import fsum
from typing import IO, Callable, Mapping, NamedTuple, Sequence

from . import matrixio
from .catalog import AnnotationCatalog, catalog_terms, term_set
from .errors import EmptyTermList, EmptyTermSet
from .ontology import OntologyGraph
from .similarity import SimilarityParams, best_scores, sim_rows


def _mean(data: Sequence[float]) -> float:
    """The float that ``statistics.fmean`` gives: the correctly rounded sum over the count."""
    if not data:
        raise ValueError("mean requires at least one value")
    return fsum(data) / len(data)


def _median(data: Sequence[float]) -> float:
    """The float that ``statistics.median`` gives: the middle value, or the
    mean of the two middle values."""
    ordered = sorted(data)
    if not ordered:
        raise ValueError("median requires at least one value")
    half = len(ordered) // 2
    return ordered[half] if len(ordered) % 2 else (ordered[half - 1] + ordered[half]) / 2


AGGREGATORS: dict[str, Callable[[Sequence[float]], float]] = {
    "mean": _mean,
    "median": _median,
    "min": min,
    "max": max,
}
DEFAULT_AGGREGATOR = "mean"


def get_aggregator(name: str) -> Callable[[Sequence[float]], float]:
    try:
        return AGGREGATORS[name]
    except KeyError:
        raise ValueError(
            f"aggregator must be one of {', '.join(AGGREGATORS)}; got {name!r}"
        ) from None


class BestMatch(NamedTuple):
    source_term: str
    best_term: str
    similarity: float


class DossResult(NamedTuple):
    value: float
    source_id: str
    reference_id: str
    aggregator: str
    symmetrization: str
    best_matches: tuple[BestMatch, ...]

    def to_json_dict(self) -> dict:
        return {
            "direction": {"source": self.source_id, "reference": self.reference_id},
            "aggregator": self.aggregator,
            "symmetrization": self.symmetrization,
            "value": round(self.value, 6),
            "best_matches": [
                {
                    "source_term": m.source_term,
                    "best_match": m.best_term,
                    "similarity": round(m.similarity, 6),
                }
                for m in self.best_matches
            ],
        }


def doss(
    graph: OntologyGraph,
    params: SimilarityParams,
    catalog: AnnotationCatalog,
    source_id: str,
    reference_id: str,
    aggregator: str = DEFAULT_AGGREGATOR,
) -> DossResult:
    """Similarity of the source dataset's term set relative to the reference's.

    One best match is recorded per source term (ties broken by ascending
    reference term id); the value is the aggregator applied to those
    per-term maxima. Empty term sets make the measure undefined and raise
    EmptyTermSet naming the offending dataset.
    """
    h = get_aggregator(aggregator)
    source_terms = catalog.dataset(source_id).terms
    reference_terms = catalog.dataset(reference_id).terms
    if not source_terms:
        raise EmptyTermSet(source_id)
    if not reference_terms:
        raise EmptyTermSet(reference_id)
    graph.closures(sorted({*source_terms, *reference_terms}))  # names unknown ids sorted

    matches: list[BestMatch] = []
    for source, row in zip(source_terms, sim_rows(graph, params, source_terms, reference_terms)):
        # max keeps the first maximum: ties go to the lowest reference id
        best = max(range(len(row)), key=row.__getitem__)
        matches.append(BestMatch(source, reference_terms[best], row[best]))
    value = h([m.similarity for m in matches])
    return DossResult(
        value=value,
        source_id=source_id,
        reference_id=reference_id,
        aggregator=aggregator,
        symmetrization=params.symmetrization,
        best_matches=tuple(matches),
    )


class DossMatrix(NamedTuple):
    """Directional matrix: values[i][j] scores dataset i against reference j."""

    dataset_ids: tuple[str, ...]
    values: tuple[tuple[float, ...], ...]
    aggregator: str
    symmetrization: str
    excluded: tuple[str, ...]

    def to_csv(self, stream: IO[str], metadata: Mapping[str, object] | None = None) -> None:
        matrixio.write_matrix_csv(stream, self.dataset_ids, self.values, metadata)

    def to_json_dict(self) -> dict:
        return {
            "dataset_ids": list(self.dataset_ids),
            "values": [list(row) for row in self.values],
            "aggregator": self.aggregator,
            "symmetrization": self.symmetrization,
            "excluded": list(self.excluded),
        }


def doss_matrix(
    graph: OntologyGraph,
    params: SimilarityParams,
    catalog: AnnotationCatalog,
    aggregator: str = DEFAULT_AGGREGATOR,
) -> DossMatrix:
    """All ordered dataset pairs. Datasets without annotated terms are not
    fatal here; they are left out and reported in ``excluded``. When no
    dataset has an annotated term, EmptyTermList is raised, as by
    :func:`pairwise_matrix` over the catalog's terms.

    Each cell aggregates the source terms' best scores against the
    reference's terms, the same values :func:`doss` gives. The best scores
    come from :func:`best_scores`' fold over the catalog's distinct terms,
    one reference at a time: it keeps, per dataset and distinct theta of its
    terms, the largest psi of every catalog term (about D x distinct-theta x
    T fields for D datasets and T terms), and never builds the T x T term
    matrix. The fold is exact because a score is non-decreasing in psi when
    theta1 and theta2 are fixed, in float arithmetic too.
    """
    h = get_aggregator(aggregator)
    scored = [ds for ds in catalog.datasets if ds.terms]
    all_terms = catalog_terms(catalog)
    if not all_terms:
        raise EmptyTermList()

    position = {term: i for i, term in enumerate(all_terms)}
    indexes = [[position[t] for t in ds.terms] for ds in scored]
    # one column per reference j, from best[s]: the best score of term s against j
    columns = [
        [h([best[s] for s in source]) for source in indexes]
        for best in best_scores(graph, params, all_terms, indexes)
    ]
    values = tuple(zip(*columns))
    excluded = tuple(ds.id for ds in catalog.datasets if not ds.terms)
    return DossMatrix(tuple(ds.id for ds in scored), values, aggregator, params.symmetrization, excluded)


def shared_term_count(catalog: AnnotationCatalog, d1: str, d2: str) -> int:
    return len(term_set(catalog, d1) & term_set(catalog, d2))
