"""Graph construction, validation, and ancestor-set queries."""

import random
from concurrent.futures import ThreadPoolExecutor

import pytest

from ontosim import (
    CycleDetected,
    DanglingEdgeEndpoint,
    DuplicateTermId,
    UnknownTerm,
    build_ontology,
)
from conftest import TOY_EDGES, TOY_TERMS
from helpers import DfsOracle, random_dag


class TestBuildValidation:
    def test_minimal_chain(self):
        g = build_ontology(["r", "a"], [("a", "r")])
        assert len(g) == 2
        assert g.edge_count == 1
        assert "a" in g and "zz" not in g

    def test_self_loop_is_a_cycle(self):
        with pytest.raises(CycleDetected) as exc:
            build_ontology(["r"], [("r", "r")])
        assert exc.value.cycle == ("r", "r")

    def test_two_cycle(self):
        with pytest.raises(CycleDetected) as exc:
            build_ontology(["a", "b"], [("a", "b"), ("b", "a")])
        assert exc.value.cycle[0] == exc.value.cycle[-1]
        assert set(exc.value.cycle) == {"a", "b"}

    def test_longer_cycle_reported_as_closed_path(self):
        with pytest.raises(CycleDetected) as exc:
            build_ontology(list("rabc"), [("a", "b"), ("b", "c"), ("c", "a"), ("a", "r")])
        cycle = exc.value.cycle
        assert cycle[0] == cycle[-1]
        assert set(cycle) == {"a", "b", "c"}

    def test_duplicate_term_id(self):
        with pytest.raises(DuplicateTermId):
            build_ontology(["x", "x"], [])

    def test_dangling_endpoints_reported_together(self):
        with pytest.raises(DanglingEdgeEndpoint) as exc:
            build_ontology(["a"], [("a", "ghost"), ("phantom", "a")])
        assert set(exc.value.endpoints) == {"ghost", "phantom"}

    def test_duplicate_edges_dropped_silently(self):
        g = build_ontology(["r", "a"], [("a", "r"), ("a", "r"), ("a", "r")])
        assert g.edge_count == 1
        g = build_ontology(["s", "r", "a"], [("a", "r"), ("a", "s"), ("a", "r")])
        assert g.parents("a") == ("r", "s")
        assert g.edge_count == 2

    def test_accepts_every_random_dag(self):
        rng = random.Random(101)
        for _ in range(50):
            ids, edges = random_dag(rng)
            build_ontology(ids, edges)  # must not raise

    def test_rejects_random_dag_with_injected_back_edge(self):
        rng = random.Random(202)
        for _ in range(50):
            ids, edges = random_dag(rng, max_nodes=20)
            if not edges:
                continue
            child, parent = rng.choice(edges)
            with pytest.raises(CycleDetected):
                build_ontology(ids, edges + [(parent, child)])

    def test_term_metadata(self):
        g = build_ontology([("r", "Root"), ("a", "Alpha", ["first", "one"])], [("a", "r")])
        assert g.label("a") == "Alpha"
        assert g.synonyms("a") == ("first", "one")
        assert g.label("r") == "Root"
        assert g.synonyms("r") == ()
        assert g.parents("a") == ("r",)
        assert g.label_entries()["a"] == ("Alpha", ("first", "one"))

    def test_empty_term_id_rejected(self):
        with pytest.raises(ValueError):
            build_ontology([""], [])


class TestAncestorQueries:
    def test_chain(self):
        g = build_ontology(TOY_TERMS, TOY_EDGES)
        assert g.ancestors("b") == {"b", "a", "r"}
        assert g.ancestors("r") == {"r"}

    def test_diamond(self):
        g = build_ontology(
            ["r", "x", "y", "z"],
            [("x", "r"), ("y", "r"), ("z", "x"), ("z", "y")],
        )
        oracle = DfsOracle([("x", "r"), ("y", "r"), ("z", "x"), ("z", "y")])
        assert g.ancestors("z") == oracle.ancestors("z") == {"z", "x", "y", "r"}
        assert g.theta("z") == oracle.theta("z") == 4
        assert g.psi("x", "y") == oracle.psi("x", "y") == 1

    def test_theta_values(self):
        g = build_ontology(TOY_TERMS, TOY_EDGES)
        assert g.theta("r") == 1
        assert g.theta("b") == 3

    def test_psi_identity_and_branch(self):
        g = build_ontology(TOY_TERMS, TOY_EDGES)
        for t in TOY_TERMS:
            assert g.psi(t, t) == g.theta(t)
        assert g.psi("b", "c") == 1  # only the root is shared

    def test_unknown_term(self):
        g = build_ontology(TOY_TERMS, TOY_EDGES)
        with pytest.raises(UnknownTerm):
            g.ancestors("nope")
        with pytest.raises(UnknownTerm):
            g.psi("b", "nope")
        g.closures(["b"])
        memo = dict(g._masks)
        with pytest.raises(UnknownTerm) as info:
            g.closures(["b", "nope"])
        assert info.value.term_ids == ("nope",)
        assert g._masks == memo


class TestClosureProperties:
    def test_matches_dfs_oracle_on_random_dags(self):
        rng = random.Random(303)
        for _ in range(200):
            ids, edges = random_dag(rng, max_nodes=30)
            g = build_ontology(ids, edges)
            oracle = DfsOracle(edges)
            for term in ids:
                assert g.ancestors(term) == oracle.ancestors(term)
                assert g.theta(term) == oracle.theta(term)
            for _ in range(10):
                t1, t2 = rng.choice(ids), rng.choice(ids)
                assert g.psi(t1, t2) == oracle.psi(t1, t2)

    def test_membership_and_monotonicity_along_edges(self):
        rng = random.Random(404)
        for _ in range(50):
            ids, edges = random_dag(rng)
            g = build_ontology(ids, edges)
            for term in ids:
                assert term in g.ancestors(term)
                assert g.theta(term) >= 1
            for child, parent in edges:
                assert g.ancestors(parent) <= g.ancestors(child)
                assert g.theta(parent) <= g.theta(child)

    def test_psi_symmetry_and_bounds(self):
        rng = random.Random(505)
        ids, edges = random_dag(rng, max_nodes=40)
        g = build_ontology(ids, edges)
        for _ in range(200):
            t1, t2 = rng.choice(ids), rng.choice(ids)
            p = g.psi(t1, t2)
            assert p == g.psi(t2, t1)
            assert 0 <= p <= min(g.theta(t1), g.theta(t2))

    def test_results_independent_of_query_order(self):
        ids, edges = random_dag(random.Random(606), max_nodes=40)
        g1 = build_ontology(ids, edges)
        g2 = build_ontology(ids, edges)
        for term in ids:
            g1.ancestors(term)
        for term in reversed(ids):
            g2.ancestors(term)
        for term in ids:
            assert g1.ancestors(term) == g2.ancestors(term)
            assert g1.theta(term) == g2.theta(term)
        for t1 in ids[:10]:
            for t2 in ids[-10:]:
                assert g1.psi(t1, t2) == g2.psi(t1, t2)

    def test_concurrent_queries_are_consistent(self):
        ids, edges = random_dag(random.Random(707), max_nodes=50)
        g = build_ontology(ids, edges)
        oracle = DfsOracle(edges)
        rng = random.Random(708)
        pairs = [(rng.choice(ids), rng.choice(ids)) for _ in range(400)]
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(lambda pair: g.psi(*pair), pairs))
        assert results == [oracle.psi(t1, t2) for t1, t2 in pairs]

    def test_deep_chain_does_not_overflow(self):
        n = 20_000
        ids = [f"d{i}" for i in range(n)]
        edges = [(ids[i], ids[i - 1]) for i in range(1, n)]
        g = build_ontology(ids, edges)
        assert g.theta(ids[-1]) == n
        assert g.theta(ids[0]) == 1
