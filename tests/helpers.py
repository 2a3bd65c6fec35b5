"""Independent reference implementations and generators shared by the tests.

DfsOracle recomputes ancestor sets from the raw edge list with a fresh DFS on
every query. It shares no code with the production closure (which memoises
tuples of node indexes and packs them into per-column counters per kernel
call), so agreement between the two is meaningful evidence.

reference_parse_edge_list and reference_build_ontology keep the edge-list
ingest as it was before ids were interned and parents built as tuples, and
reference_ensure_acyclic keeps the cycle check's DFS as it was before it
walked parent iterators, so the production code can be checked against them
line for line.
"""

from __future__ import annotations

import csv
import io
import json
import random

from ontosim.errors import CycleDetected, DanglingEdgeEndpoint, DuplicateTermId, EmptyInput, MalformedLine
from ontosim.ingest import ParseReport
from ontosim.ontology import OntologyGraph, build_ontology


class DfsOracle:
    def __init__(self, edges):
        self.parents: dict[str, list[str]] = {}
        for child, parent in edges:
            self.parents.setdefault(child, []).append(parent)

    def ancestors(self, term: str) -> set[str]:
        seen = {term}
        stack = [term]
        while stack:
            for parent in self.parents.get(stack.pop(), ()):
                if parent not in seen:
                    seen.add(parent)
                    stack.append(parent)
        return seen

    def theta(self, term: str) -> int:
        return len(self.ancestors(term))

    def psi(self, t1: str, t2: str) -> int:
        return len(self.ancestors(t1) & self.ancestors(t2))

    def sim_directed(self, t1: str, t2: str, alpha: float = 7.9, beta: float = 3.9) -> float:
        a1 = self.ancestors(t1)
        a2 = self.ancestors(t2)
        shared = len(a1 & a2)
        return len(a1) / (alpha * (len(a1) - shared) + beta * (len(a2) - shared) + len(a1))

    def sim_mean(self, t1: str, t2: str, alpha: float = 7.9, beta: float = 3.9) -> float:
        return (self.sim_directed(t1, t2, alpha, beta) + self.sim_directed(t2, t1, alpha, beta)) / 2.0


def random_dag(rng: random.Random, max_nodes: int = 50) -> tuple[list[str], list[tuple[str, str]]]:
    """Random DAG by construction: every edge points to an earlier node."""
    n = rng.randint(2, max_nodes)
    ids = [f"n{i:02d}" for i in range(n)]
    edges = []
    for i in range(1, n):
        for parent in rng.sample(range(i), k=min(i, rng.randint(0, 3))):
            edges.append((ids[i], ids[parent]))
    return ids, edges


def chain_graph(depth):
    """A chain c0 <- c1 <- ... of ``depth`` terms, so theta(c_i) is i + 1,
    with a fork hung on it: a and b under the last chain term, b also under
    x, and x under the middle term; s hangs near the root."""
    last, middle = f"c{depth - 1}", f"c{depth // 2}"
    ids = [f"c{i}" for i in range(depth)] + ["a", "b", "x", "s"]
    edges = [(f"c{i}", f"c{i - 1}") for i in range(1, depth)]
    edges += [("a", last), ("b", last), ("b", "x"), ("x", middle), ("s", "c3")]
    return build_ontology(ids, edges)


def write_deep_inputs(directory) -> tuple[str, str]:
    """An edge list and a four-dataset catalog under ``directory``, both
    seeded: a chain c0 <- c1 <- ... <- c299, so theta(c_i) is i + 1, with 40
    terms b0, b1, ... each under one or two earlier terms. Some annotated
    terms have a theta of 256 or more, others a few. Returns both paths."""
    rng = random.Random(300)
    ids = [f"c{i}" for i in range(300)]
    edges = [(ids[i], ids[i - 1]) for i in range(1, len(ids))]
    for i in range(40):
        edges += [(f"b{i}", parent) for parent in rng.sample(ids, k=rng.randint(1, 2))]
        ids.append(f"b{i}")
    terms = {"1": ["c299", "c3", "b7"], "2": ["c280", "b39", "c12"], "3": rng.sample(ids, 5), "4": rng.sample(ids, 4)}
    datasets = [
        {"id": ds, "name": ds, "origin": [], "category": "EHR",
         "features": [{"name": f"f{i}", "term": term} for i, term in enumerate(annotated)]}
        for ds, annotated in terms.items()
    ]
    edge_path, catalog_path = directory / "deep_edges.tsv", directory / "deep_catalog.json"
    edge_path.write_text("".join(f"{child}\t{parent}\n" for child, parent in edges), encoding="utf-8")
    catalog_path.write_text(json.dumps({"ontology_version": "deep-1", "datasets": datasets}), encoding="utf-8")
    return str(edge_path), str(catalog_path)


def random_pairs(rng: random.Random, ids: list[str], count: int) -> list[tuple[str, str]]:
    pairs = [(rng.choice(ids), rng.choice(ids)) for _ in range(count)]
    pairs.append((ids[0], ids[0]))  # always exercise the identity case
    return pairs


def reference_csv(labels, values, metadata):
    """The matrix as a plain csv.writer renders it, one formatted cell at a time."""
    buf = io.StringIO()
    for key, value in metadata.items():
        buf.write(f"# {key}: {value}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["", *labels])
    for label, row in zip(labels, values):
        writer.writerow([label, *(f"{cell:.6f}" for cell in row)])
    return buf.getvalue()


def reference_parse_edge_list(lines):
    """parse_edge_list as it was before ids were interned: every line takes
    the one general path, and each edge holds its own strings."""
    terms = {}
    edges = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip("\r\n")
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        fields = [f.strip() for f in line.split("\t")]
        if len(fields) != 2 or not fields[0] or not fields[1]:
            raise MalformedLine(f"expected child<TAB>parent, got {line!r}", line=lineno)
        child, parent = fields
        terms.setdefault(child)
        terms.setdefault(parent)
        edges.append((child, parent))
    if not edges:
        raise EmptyInput("no edges found in edge-list input")
    return list(terms), edges, ParseReport(len(terms), len(edges), 0, [])


def reference_build_ontology(terms, edges):
    """build_ontology as it was before parents were built as tuples: a list
    per node, frozen with dict.fromkeys in a second pass."""
    index = {}
    for term_id in terms:
        if not isinstance(term_id, str) or not term_id:
            raise ValueError("term ids must be non-empty strings")
        if term_id in index:
            raise DuplicateTermId(term_id)
        index[term_id] = len(index)
    ids = tuple(index)
    parents = [[] for _ in ids]
    dangling = {}
    for child, parent in edges:
        child_node = index.get(child)
        parent_node = index.get(parent)
        if child_node is None:
            dangling.setdefault(child)
        if parent_node is None:
            dangling.setdefault(parent)
        if child_node is None or parent_node is None:
            continue
        parents[child_node].append(parent_node)
    if dangling:
        raise DanglingEdgeEndpoint(dangling)
    frozen = tuple(tuple(dict.fromkeys(p)) for p in parents)
    reference_ensure_acyclic(ids, frozen)
    return OntologyGraph(ids, index, frozen)


def reference_ensure_acyclic(ids, parents):
    """Three-colour DFS with a stack of [node, cursor] frames."""
    color = bytearray(len(ids))
    for start in range(len(ids)):
        if color[start]:
            continue
        color[start] = 1
        stack = [[start, 0]]
        while stack:
            top = stack[-1]
            node, cursor = top
            if cursor == len(parents[node]):
                color[node] = 2
                stack.pop()
                continue
            top[1] += 1
            nxt = parents[node][cursor]
            if color[nxt] == 1:
                at = next(i for i, frame in enumerate(stack) if frame[0] == nxt)
                raise CycleDetected([ids[frame[0]] for frame in stack[at:]] + [ids[nxt]])
            if color[nxt] == 0:
                color[nxt] = 1
                stack.append([nxt, 0])


def outcome(call, *args):
    """The call's result, or its exception as (type, str, line) so that two
    implementations' failures compare equal when they say the same thing."""
    try:
        return call(*args)
    except Exception as exc:  # noqa: BLE001 - every error is compared
        return type(exc), str(exc), getattr(exc, "line", None)


def shape(result):
    """A build's outcome in comparable form: ids, parents, edge count and
    every ancestor set, or an outcome() exception tuple as it is."""
    if not isinstance(result, OntologyGraph):
        return result
    return (
        result.terms,
        [result.parents(t) for t in result.terms],
        result.edge_count,
        [result.ancestors(t) for t in result.terms],
    )
