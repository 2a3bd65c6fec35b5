"""Independent reference for the outputs the workloads produce.

Nothing here imports ``ontosim``. Ancestor sets come from a plain BFS over
Python sets built from the input files, and the similarity is the ratio
formula written out directly, so agreement with the program is evidence
rather than a tautology. Every ``check_*`` function returns a list of
problems; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import json
import math
import random
import re
from pathlib import Path

ALPHA = 7.9
BETA = 3.9
# Outputs print 6 decimals, so a correct cell is within half a unit of the
# 6th decimal of the exact value; the extra 1e-9 absorbs float rounding in
# the reference itself.
TOL = 5e-7 + 1e-9
SAMPLE_CELLS = 200


def parents_of(edges) -> dict[str, list[str]]:
    """child -> parents for every term named by a (child, parent) pair."""
    parents: dict[str, list[str]] = {}
    for child, parent in edges:
        parents.setdefault(child, []).append(parent)
        parents.setdefault(parent, [])
    return parents


def read_parents(path: Path) -> dict[str, list[str]]:
    """child -> parents from a ``child<TAB>parent`` edge list."""
    with open(path, encoding="utf-8") as fh:
        lines = [line.strip() for line in fh]
    return parents_of(
        tuple(field.strip() for field in line.split("\t")) for line in lines if line and not line.startswith("#")
    )


def read_catalog(path: Path) -> dict[str, list[dict]]:
    """dataset id -> feature records, in file order."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    return {ds["id"]: ds["features"] for ds in payload["datasets"]}


def term_set(features: list[dict]) -> set[str]:
    return {f["term"] for f in features if f["term"]}


class Reference:
    """Ancestor sets by BFS and the ratio model written out directly."""

    def __init__(self, parents: dict[str, list[str]]):
        self.parents = parents
        self._ancestors: dict[str, frozenset[str]] = {}

    def ancestors(self, term: str) -> frozenset[str]:
        found = self._ancestors.get(term)
        if found is None:
            seen = {term}
            frontier = [term]
            while frontier:
                nxt = []
                for node in frontier:
                    for parent in self.parents[node]:
                        if parent not in seen:
                            seen.add(parent)
                            nxt.append(parent)
                frontier = nxt
            found = self._ancestors[term] = frozenset(seen)
        return found

    def theta(self, term: str) -> int:
        return len(self.ancestors(term))

    def psi(self, t1: str, t2: str) -> int:
        return len(self.ancestors(t1) & self.ancestors(t2))

    def directed(self, t1: str, t2: str) -> float:
        theta1, theta2, shared = self.theta(t1), self.theta(t2), self.psi(t1, t2)
        return theta1 / (ALPHA * (theta1 - shared) + BETA * (theta2 - shared) + theta1)

    def sim(self, t1: str, t2: str) -> float:
        return (self.directed(t1, t2) + self.directed(t2, t1)) / 2.0

    def best(self, source: str, reference: set[str]) -> float:
        return max(self.sim(source, other) for other in reference)

    def doss(self, source: set[str], reference: set[str]) -> float:
        return math.fsum(self.best(term, reference) for term in source) / len(source)


def _close(value: float, expected: float) -> bool:
    return abs(value - expected) <= TOL


def _in_range(value: float) -> bool:
    return 0.0 < value <= 1.0


def _csv_matrix(text: str) -> tuple[list[str], list[list[float]]]:
    rows = list(csv.reader(line for line in text.splitlines() if not line.startswith("#")))
    labels = rows[0][1:]
    values = [[float(cell) for cell in row[1:]] for row in rows[1:]]
    if [row[0] for row in rows[1:]] != labels or any(len(row) != len(labels) for row in values):
        raise ValueError("matrix is not square with matching row and column labels")
    return labels, values


def _check_square(
    text: str, expected_labels: list[str], cell, seed: int
) -> list[str]:
    """Shared checks of a labelled similarity matrix: labels, every cell in
    (0, 1], 1 on the diagonal, and a seeded sample of cells against
    ``cell(row_label, col_label)``."""
    try:
        labels, values = _csv_matrix(text)
    except (ValueError, IndexError) as exc:
        return [f"unreadable matrix: {exc}"]
    if labels != expected_labels:
        return [f"labels differ: got {len(labels)}, expected {len(expected_labels)}"]
    problems = []
    for i, row in enumerate(values):
        for j, value in enumerate(row):
            if not _in_range(value):
                problems.append(f"cell [{labels[i]}, {labels[j]}] = {value} outside (0, 1]")
        if row[i] != 1.0:
            problems.append(f"diagonal [{labels[i]}] = {row[i]}, expected 1")
    n = len(labels)
    cells = [(i, j) for i in range(n) for j in range(n)]
    if len(cells) > SAMPLE_CELLS:
        cells = random.Random(seed).sample(cells, SAMPLE_CELLS)
    for i, j in cells:
        expected = cell(labels[i], labels[j])
        if not _close(values[i][j], expected):
            problems.append(f"cell [{labels[i]}, {labels[j]}] = {values[i][j]}, reference {expected:.9f}")
    return problems


def check_matrix(text: str, ref: Reference, catalog: dict[str, list[dict]], seed: int) -> list[str]:
    terms = sorted(set().union(*(term_set(f) for f in catalog.values())))
    return _check_square(text, terms, ref.sim, seed)


def check_doss_matrix(text: str, ref: Reference, catalog: dict[str, list[dict]], seed: int) -> list[str]:
    sets = {ds: term_set(features) for ds, features in catalog.items()}
    included = [ds for ds in catalog if sets[ds]]
    return _check_square(text, included, lambda a, b: ref.doss(sets[a], sets[b]), seed)


def _number(pattern: str, text: str) -> float | None:
    match = re.search(pattern, text, re.MULTILINE)
    return float(match.group(1)) if match else None


def check_term_sim(text: str, ref: Reference, t1: str, t2: str) -> list[str]:
    e1, e2 = re.escape(t1), re.escape(t2)
    expected = {
        rf"^theta\({e1}\) = (\d+)$": ref.theta(t1),
        rf"^theta\({e2}\) = (\d+)$": ref.theta(t2),
        rf"^psi\({e1},{e2}\) = (\d+)$": ref.psi(t1, t2),
    }
    problems = []
    for pattern, value in expected.items():
        got = _number(pattern, text)
        if got != value:
            problems.append(f"{pattern}: got {got}, reference {value}")
    scores = {
        rf"^sim\({e1}->{e2}\) = ([0-9.]+)$": ref.directed(t1, t2),
        rf"^sim\({e2}->{e1}\) = ([0-9.]+)$": ref.directed(t2, t1),
        r"^sim\[mean-of-directions\] = ([0-9.]+)$": ref.sim(t1, t2),
    }
    for pattern, value in scores.items():
        got = _number(pattern, text)
        if got is None or not _in_range(got) or not _close(got, value):
            problems.append(f"{pattern}: got {got}, reference {value:.9f}")
    return problems


def check_doss(text: str, ref: Reference, catalog: dict[str, list[dict]], d1: str, d2: str) -> list[str]:
    source, reference = term_set(catalog[d1]), term_set(catalog[d2])
    problems = []
    value = _number(rf"^doss\({re.escape(d1)}\|{re.escape(d2)}\) = ([0-9.]+) ", text)
    expected = ref.doss(source, reference)
    if value is None or not _in_range(value) or not _close(value, expected):
        problems.append(f"doss({d1}|{d2}) = {value}, reference {expected:.9f}")
    matches = re.findall(r"^  (\S+) -> (\S+)  ([0-9.]+)$", text, re.MULTILINE)
    if sorted(m[0] for m in matches) != sorted(source):
        problems.append("best-match lines do not list each source term once")
    for term, best, score in matches:
        top = ref.best(term, reference)
        if best not in reference or not _close(float(score), top) or not _close(ref.sim(term, best), top):
            problems.append(f"best match {term} -> {best} {score}, reference best {top:.9f}")
    return problems


def check_validate(text: str, terms: int, edges: int) -> list[str]:
    expected = f"{terms} terms, {edges} edges"
    return [] if text.splitlines()[:1] == [expected] else [f"expected {expected!r}, got {text[:80]!r}"]


def check_stats(text: str, catalog: dict[str, list[dict]]) -> list[str]:
    rows = list(csv.DictReader(line for line in text.splitlines() if not line.startswith("#")))
    problems = []
    if [row["id"] for row in rows] != list(catalog):
        return ["stats rows do not list every dataset in catalog order"]
    for row in rows:
        features = catalog[row["id"]]
        annotated = sum(1 for f in features if f["term"])
        if int(row["feature_count"]) != len(features) or int(row["annotated_count"]) != annotated:
            problems.append(f"stats row {row['id']} counts differ from the catalog")
        elif not _close(float(row["coverage"]), annotated / len(features)):
            problems.append(f"stats row {row['id']} coverage {row['coverage']}")
    distinct = len(set().union(*(term_set(f) for f in catalog.values())))
    if _number(r"^# distinct_terms: (\d+)$", text) != distinct:
        problems.append(f"distinct_terms differs from {distinct}")
    return problems


def read_labels(path: Path) -> dict[str, list[str]]:
    """term -> label followed by synonyms."""
    labels = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            fields = [f.strip() for f in line.rstrip("\r\n").split("\t")]
            if fields[0] and not fields[0].startswith("#"):
                labels[fields[0]] = fields[1:]
    return labels


def check_search(text: str, labels: dict[str, list[str]], query: str, top: int) -> list[str]:
    """Hits ranked by (exact, prefix, position, text length) of the best
    matching label or synonym, ties by term id, scored len(query)/len(text)."""
    needle = query.strip().lower()
    hits = []
    for term, texts in labels.items():
        ranked = [
            ((t.lower() != needle, t.lower().find(needle) != 0, t.lower().find(needle), len(t)), t)
            for t in texts
            if needle in t.lower()
        ]
        if ranked:
            rank, best = min(ranked)
            hits.append((rank, term, f"{term}\t{texts[0]}\t{len(needle) / len(best):.6f}"))
    expected = [line for _, _, line in sorted(hits)[:top]]
    if text.splitlines() == expected:
        return []
    return [f"search {query!r}: got {text.splitlines()[:3]}, expected {expected[:3]}"]


def check_nearest(
    result: list[list], ref: Reference, query: str, candidates: list[str], k: int
) -> list[str]:
    """Top-k by similarity, ties by ascending id, scores within TOL."""
    scored = sorted(((-ref.sim(query, c), c) for c in set(candidates)))[:k]
    problems = []
    if len(result) != len(scored):
        return [f"{len(result)} neighbours, expected {len(scored)}"]
    for rank, ((term, score), (neg, _)) in enumerate(zip(result, scored)):
        if not _in_range(score) or not _close(score, -neg) or not _close(ref.sim(query, term), score):
            problems.append(f"rank {rank}: {term} {score}, reference score {-neg:.9f}")
    if [(-s, t) for t, s in result] != sorted((-s, t) for t, s in result):
        problems.append("neighbours not ordered by score, then id")
    return problems
