"""Validated is-a term graphs and ancestor-set queries.

A graph is immutable once built. Ancestor sets ("a term plus everything
reachable through child -> parent edges") are computed lazily per requested
term and memoised, keyed by term id, as tuples of node indexes, so memory
grows linearly with the summed ancestor-set sizes of the queried terms,
whatever the size of the ontology. Callers that compare many pairs (the
similarity kernel) pack the tuples into integers of their own, one per
node of a block of row closures, with one counter field per column.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import CycleDetected, DanglingEdgeEndpoint, DuplicateTermId, UnknownTerm

TermId = str


class OntologyGraph:
    """Immutable DAG of terms connected by child -> parent is-a edges.

    Build instances through :func:`build_ontology`, which validates the
    input; this constructor trusts its arguments.
    """

    __slots__ = (
        "_ids",
        "_index",
        "_parents",
        "_edge_count",
        "_masks",
    )

    def __init__(self, ids, index, parents, edge_count):
        self._ids: tuple[str, ...] = ids
        self._index: dict[str, int] = index
        self._parents: tuple[tuple[int, ...], ...] = parents
        self._edge_count: int = edge_count
        # closure cache keyed by term id; see _closure(). The name is not
        # "_closures" because the benchmark's tracer counts memoised closures
        # as len(graph._masks).
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

    def parents(self, term: TermId) -> tuple[TermId, ...]:
        return tuple(self._ids[p] for p in self._parents[self._node(term)])

    def _closure(self, term: TermId) -> tuple[int, ...]:
        """Node indexes of the term's ancestor closure (the term included).

        The memo needs no lock: threads that race on one term build equal
        tuples, and a dict store is atomic.
        """
        node = self._node(term)
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

    def closures(self, terms: Sequence[TermId]) -> list[tuple[int, ...]]:
        """Ancestor closures of the given terms as tuples of node indexes,
        in order.

        Indexes of one graph are comparable, so ``len(c)`` is theta and
        ``len(set(c1).intersection(c2))`` is psi. This is where every term id
        is resolved: UnknownTerm names each id the graph does not contain
        once, in the given order.
        """
        memo = self._masks.get
        try:
            # a closure always holds its own term, so only a miss is falsy
            return [memo(term) or self._closure(term) for term in terms]
        except UnknownTerm:
            index = self._index
            raise UnknownTerm(*dict.fromkeys(t for t in terms if t not in index)) from None

    def theta(self, term: TermId) -> int:
        """Size of the ancestor set; at least 1 because the set contains the term."""
        return len(self.closures((term,))[0])

    def psi(self, t1: TermId, t2: TermId) -> int:
        """Number of ancestors the two terms share. Symmetric by construction."""
        c1, c2 = self.closures((t1, t2))
        return len(set(c1).intersection(c2))


def build_ontology(terms: Iterable[TermId], edges: Iterable[tuple[str, str]]) -> OntologyGraph:
    """Validate term ids and edge declarations and return an immutable graph.

    Every term is a non-empty string id; anything else raises ValueError
    (labels stay in the table the parsers return). Duplicate edges are
    dropped silently (they carry no extra information); duplicate term ids
    raise :class:`DuplicateTermId` because ids are identity. Edges whose
    endpoints were never declared raise :class:`DanglingEdgeEndpoint`, and
    any directed cycle raises :class:`CycleDetected` with one offending
    closed path.

    ``terms`` and ``edges`` may be any iterables, generators included; each
    is read once. A node's parents are kept as a tuple of node indexes in
    first-declaration order, repeats dropped.
    """
    ids = tuple(terms)
    index: dict[str, int] = {}
    # an id is typed before it is hashed, so an unhashable one is a ValueError too
    for node, term_id in enumerate(ids):
        if not isinstance(term_id, str) or not term_id:
            raise ValueError("term ids must be non-empty strings")
        if term_id in index:
            raise DuplicateTermId(term_id)
        index[term_id] = node

    # a node's parents: () or a 1-tuple, until a second distinct parent turns
    # them into an insertion-ordered dict, which drops repeats in O(1)
    parents: list[tuple[int, ...] | dict[int, None]] = [()] * len(ids)
    grown: list[int] = []
    dangling: dict[str, None] = {}
    for child, parent in edges:
        child_node = index.get(child)
        parent_node = index.get(parent)
        if child_node is None or parent_node is None:
            if child_node is None:
                dangling.setdefault(child)
            if parent_node is None:
                dangling.setdefault(parent)
            continue
        held = parents[child_node]
        if not held:
            parents[child_node] = (parent_node,)
        elif type(held) is dict:
            held[parent_node] = None
        elif held[0] != parent_node:
            parents[child_node] = {held[0]: None, parent_node: None}
            grown.append(child_node)
    if dangling:
        raise DanglingEdgeEndpoint(dangling)

    for node in grown:
        parents[node] = tuple(parents[node])
    frozen = tuple(parents)
    _ensure_acyclic(ids, frozen)
    return OntologyGraph(ids, index, frozen, sum(map(len, frozen)))


def _ensure_acyclic(ids: Sequence[str], parents: Sequence[Sequence[int]]) -> None:
    """Iterative three-colour DFS over child -> parent edges; recursion-free
    so arbitrarily deep chains cannot overflow the interpreter stack."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color = bytearray(len(ids))
    for start in range(len(ids)):
        if color[start] != WHITE:
            continue
        color[start] = GRAY
        # the grey nodes from start down, and beside each its unread parents
        path = [start]
        stack = [iter(parents[start])]
        while stack:
            for nxt in stack[-1]:
                if color[nxt] == WHITE:
                    color[nxt] = GRAY
                    path.append(nxt)
                    stack.append(iter(parents[nxt]))
                    break
                if color[nxt] == GRAY:
                    raise CycleDetected([ids[node] for node in path[path.index(nxt) :] + [nxt]])
            else:
                color[path.pop()] = BLACK
                stack.pop()
