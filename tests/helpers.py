"""Independent reference implementations and generators shared by the tests.

DfsOracle recomputes ancestor sets from the raw edge list with a fresh DFS on
every query. It shares no code with the production closure (which memoises
tuples of node indexes and packs them into bitmasks per kernel call), so
agreement between the two is meaningful evidence.
"""

from __future__ import annotations

import csv
import io
import random


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
