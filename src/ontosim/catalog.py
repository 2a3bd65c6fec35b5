"""Annotated-dataset catalogs: loading, statistics, and label search.

A catalog maps datasets to their features and each feature optionally to an
ontology term id. Term ids are deliberately NOT validated against an
ontology at load time (catalogs are shareable, full ontologies often are
not); similarity operations raise UnknownTerm when they first touch a term
the graph does not contain. doss and doss_matrix score a dataset on
``DatasetRecord.terms``, its distinct annotated terms sorted ascending,
derived once when the record is built.

Catalog JSON schema (canonical form):

    { "ontology_version": string,
      "datasets": [ { "id": string, "name": string, "origin": [string],
                      "category": "Survey"|"EHR",
                      "features": [ { "name": string, "term": string|null } ] } ] }
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import repeat
from typing import IO, AbstractSet, NamedTuple, Union

from .errors import (
    DuplicateDatasetId,
    DuplicateFeatureName,
    SchemaViolation,
    UnknownCategory,
    UnknownDataset,
)
from .ingest import LabelTable

CATEGORIES = ("Survey", "EHR")
_FEATURE_KEYS = frozenset({"name", "term"})


class FeatureRecord(NamedTuple):
    name: str
    term: str | None = None


@dataclass(frozen=True)
class DatasetRecord:
    id: str
    name: str
    origin: tuple[str, ...]
    category: str
    features: tuple[FeatureRecord, ...]
    terms: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(sorted({f.term for f in self.features if f.term is not None})))


@dataclass(frozen=True)
class AnnotationCatalog:
    ontology_version: str
    datasets: tuple[DatasetRecord, ...]
    _by_id: dict[str, DatasetRecord] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_by_id", {})
        for i, ds in enumerate(self.datasets):
            if ds.id in self._by_id:
                raise DuplicateDatasetId(f"$.datasets[{i}].id", f"dataset id {ds.id!r} already used")
            self._by_id[ds.id] = ds

    def dataset(self, dataset_id: str) -> DatasetRecord:
        try:
            return self._by_id[dataset_id]
        except KeyError:
            raise UnknownDataset(dataset_id) from None

    def dataset_ids(self) -> tuple[str, ...]:
        return tuple(record.id for record in self.datasets)

    def to_json_dict(self) -> dict:
        return {
            "ontology_version": self.ontology_version,
            "datasets": [
                {
                    "id": ds.id,
                    "name": ds.name,
                    "origin": list(ds.origin),
                    "category": ds.category,
                    "features": [{"name": f.name, "term": f.term} for f in ds.features],
                }
                for ds in self.datasets
            ],
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"


def load_catalog(source: Union[str, IO[str]]) -> AnnotationCatalog:
    """Parse and validate catalog JSON from a file object or a string."""
    text = source if isinstance(source, str) else source.read()
    try:
        payload = json.loads(text, object_pairs_hook=_object)
    except (json.JSONDecodeError, RecursionError) as exc:
        # RecursionError: arrays or objects nested deeper than the decoder can follow
        raise SchemaViolation("$", f"invalid JSON: {exc}") from exc
    return catalog_from_dict(payload)


def _object(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object as a dict; a repeated key raises SchemaViolation rather
    than letting the later value drop the earlier one."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen: set[str] = set()
        for key, _ in pairs:
            if key in seen:
                # the decoder passes no JSON path, so the key is located at the root
                raise SchemaViolation("$", f"repeated key {key!r}")
            seen.add(key)
    return obj


def catalog_from_dict(payload: object) -> AnnotationCatalog:
    if not isinstance(payload, dict):
        raise SchemaViolation("$", "expected a JSON object")
    _reject_unknown_keys(payload, {"ontology_version", "datasets"}, "$")
    version = _string(payload, "ontology_version", "$", allow_empty=True)
    if "\n" in version or "\r" in version:
        # it is echoed as a "# ontology_version:" comment line
        raise SchemaViolation("$.ontology_version", "must not contain a line break")
    datasets_raw = _array(payload, "datasets", "$")

    datasets: list[DatasetRecord] = []
    for i, item in enumerate(datasets_raw):
        path = f"$.datasets[{i}]"
        if not isinstance(item, dict):
            raise SchemaViolation(path, "expected an object")
        _reject_unknown_keys(item, {"id", "name", "origin", "category", "features"}, path)
        ds_id = _string(item, "id", path)
        name = _string(item, "name", path, allow_empty=True)
        origin_raw = _array(item, "origin", path)
        for j, entry in enumerate(origin_raw):
            if not isinstance(entry, str):
                raise SchemaViolation(f"{path}.origin[{j}]", "expected a string")
        category = _string(item, "category", path)
        if category not in CATEGORIES:
            raise UnknownCategory(
                f"{path}.category",
                f"must be one of {', '.join(CATEGORIES)}; got {category!r}",
            )
        features_raw = _array(item, "features", path)
        if not features_raw:
            raise SchemaViolation(f"{path}.features", "dataset must declare at least one feature")
        pairs: list[tuple[str, str | None]] = []
        seen_names: set[str] = set()
        for j, feat in enumerate(features_raw):
            # each check is a cheap test first; the path is formatted only on the way to a raise
            if not isinstance(feat, dict) or not feat.keys() <= _FEATURE_KEYS:
                fpath = f"{path}.features[{j}]"
                if not isinstance(feat, dict):
                    raise SchemaViolation(fpath, "expected an object")
                _reject_unknown_keys(feat, _FEATURE_KEYS, fpath)
            fname = feat.get("name")
            if not isinstance(fname, str) or not fname.strip():
                _string(feat, "name", f"{path}.features[{j}]")  # raises: missing, not a string or blank
            term = feat.get("term")
            if term is not None and (not isinstance(term, str) or not term):
                raise SchemaViolation(f"{path}.features[{j}].term", "expected a non-empty string or null")
            if fname in seen_names:
                raise DuplicateFeatureName(
                    f"{path}.features[{j}].name",
                    f"feature name {fname!r} appears more than once in dataset {ds_id!r}",
                )
            seen_names.add(fname)
            pairs.append((fname, term))
        # one C-level pass builds the records: tuple.__new__ is what FeatureRecord._make calls
        features = tuple(map(tuple.__new__, repeat(FeatureRecord), pairs))
        datasets.append(DatasetRecord(ds_id, name, tuple(origin_raw), category, features))
    return AnnotationCatalog(version, tuple(datasets))


def _reject_unknown_keys(mapping: dict, allowed: AbstractSet[str], path: str) -> None:
    unknown = sorted(set(mapping) - allowed)
    if unknown:
        raise SchemaViolation(path, f"unknown key(s): {', '.join(unknown)}")


def _string(mapping: dict, key: str, path: str, allow_empty: bool = False) -> str:
    if key not in mapping:
        raise SchemaViolation(f"{path}.{key}", "missing required field")
    value = mapping[key]
    if not isinstance(value, str):
        raise SchemaViolation(f"{path}.{key}", "expected a string")
    if not value.strip() and not allow_empty:
        raise SchemaViolation(f"{path}.{key}", "must not be only whitespace" if value else "must not be empty")
    return value


def _array(mapping: dict, key: str, path: str) -> list:
    if key not in mapping:
        raise SchemaViolation(f"{path}.{key}", "missing required field")
    value = mapping[key]
    if not isinstance(value, list):
        raise SchemaViolation(f"{path}.{key}", "expected an array")
    return value


class DatasetCoverage(NamedTuple):
    dataset_id: str
    feature_count: int
    annotated_count: int
    coverage_fraction: float


class CoverageStats(NamedTuple):
    per_dataset: tuple[DatasetCoverage, ...]
    distinct_feature_name_count: int
    distinct_term_count: int
    global_coverage_fraction: float


def coverage_stats(catalog: AnnotationCatalog) -> CoverageStats:
    """Per-dataset and catalog-wide annotation coverage.

    A feature name shared by several datasets counts once in the global
    distinct-name figure; the global coverage fraction is annotated feature
    rows over all feature rows.
    """
    per: list[DatasetCoverage] = []
    names: dict[str, None] = {}
    feature_total = 0
    annotated_total = 0
    for ds in catalog.datasets:
        annotated = sum(1 for f in ds.features if f.term is not None)
        # the JSON schema rejects a featureless dataset; a hand-built one covers 0.0
        coverage = annotated / len(ds.features) if ds.features else 0.0
        per.append(DatasetCoverage(ds.id, len(ds.features), annotated, coverage))
        feature_total += len(ds.features)
        annotated_total += annotated
        for f in ds.features:
            names.setdefault(f.name)
    fraction = annotated_total / feature_total if feature_total else 0.0
    return CoverageStats(tuple(per), len(names), len(catalog_terms(catalog)), fraction)


class TermUsage(NamedTuple):
    term: str
    dataset_count: int
    unique_name_count: int
    example_names: tuple[str, ...]


def term_frequency_report(catalog: AnnotationCatalog) -> list[TermUsage]:
    """Terms ranked by how many datasets use them.

    unique_name_count is the number of distinct original feature names mapped
    to the term anywhere in the catalog; up to three example names are kept
    in first-appearance order. Sorted by dataset count descending, ties by
    ascending term id.
    """
    dataset_hits: dict[str, set[str]] = defaultdict(set)
    names: dict[str, dict[str, None]] = defaultdict(dict)
    for ds in catalog.datasets:
        for feat in ds.features:
            if feat.term is None:
                continue
            dataset_hits[feat.term].add(ds.id)
            names[feat.term].setdefault(feat.name)
    rows = [
        TermUsage(term, len(dataset_hits[term]), len(names[term]), tuple(list(names[term])[:3]))
        for term in names
    ]
    rows.sort(key=lambda row: (-row.dataset_count, row.term))
    return rows


def term_set(catalog: AnnotationCatalog, dataset_id: str) -> frozenset[str]:
    """The SET of terms annotating a dataset's features; duplicates collapse."""
    return frozenset(catalog.dataset(dataset_id).terms)


def catalog_terms(catalog: AnnotationCatalog) -> tuple[str, ...]:
    """Every distinct annotated term in the catalog, sorted ascending."""
    return tuple(sorted(set().union(*(ds.terms for ds in catalog.datasets))))


class LabelMatch(NamedTuple):
    term: str
    label: str
    score: float


def search_labels(labels: LabelTable, query: str, k: int) -> list[LabelMatch]:
    """Case-insensitive substring search over labels and synonyms.

    Matches are ranked by (exact match, prefix match, substring position,
    matched-text length), ties by ascending term id. The matched text is
    measured lower-cased, as the query was found in it, so the reported
    score len(query) / len(matched text) is at most 1, and 1.0 only for an
    exact match. An empty query returns no matches.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    needle = query.strip().lower()
    if not needle:
        return []
    hits: list[tuple[tuple, str, str, float]] = []
    for term_id, (label, synonyms) in labels.items():
        texts = ([label] if label else []) + list(synonyms)
        best: tuple[tuple, str] | None = None
        for text in texts:
            lowered = text.lower()
            pos = lowered.find(needle)
            if pos < 0:
                continue
            rank = (lowered != needle, pos != 0, pos, len(lowered))
            if best is None or rank < best[0]:
                best = (rank, text)
        if best is not None:
            rank, text = best
            hits.append((rank, term_id, label or text, len(needle) / rank[-1]))  # the lower-cased length
    hits.sort(key=lambda hit: (hit[0], hit[1]))
    return [LabelMatch(term_id, label, score) for _, term_id, label, score in hits[:k]]
