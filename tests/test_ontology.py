"""Graph construction, validation, and ancestor-set queries."""

import io
import random
from concurrent.futures import ThreadPoolExecutor

import pytest

from ontosim import (
    CycleDetected,
    DanglingEdgeEndpoint,
    DuplicateTermId,
    UnknownTerm,
    build_ontology,
    parse_edge_list,
    parse_labels,
)
from conftest import TOY_EDGES, TOY_TERMS
from helpers import DfsOracle, outcome, random_dag, reference_build_ontology, shape


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
        assert repr(g) == "OntologyGraph(3 terms, 2 edges)"

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
        # labels are a table beside the graph, keyed by the same ids
        ids, edges, _ = parse_edge_list(io.StringIO("a\tr\n"))
        labels, _ = parse_labels(io.StringIO("r\tRoot\na\tAlpha\tfirst\tone\n"))
        g = build_ontology(ids, edges)
        assert labels["a"] == ("Alpha", ("first", "one"))
        assert labels["r"] == ("Root", ())
        assert g.parents("a") == ("r",)
        assert set(labels) == set(g.terms)

    def test_empty_term_id_rejected(self):
        with pytest.raises(ValueError):
            build_ontology([""], [])

    def test_labelled_term_spec_rejected(self):
        with pytest.raises(ValueError):
            build_ontology([("r", "Root")], [])


def seeded_multi_parent_dag(seed, n=400):
    """A shuffled DAG where many nodes have 3 or more parents and about a
    fifth of the edges are repeats, some of them adjacent."""
    rng = random.Random(seed)
    ids = [f"t{i}" for i in range(n)]
    edges = [(ids[i], ids[p]) for i in range(1, n) for p in rng.sample(range(i), min(i, rng.randint(1, 6)))]
    edges += rng.sample(edges, len(edges) // 5)
    rng.shuffle(edges)
    edges += edges[-5:]
    rng.shuffle(ids)
    return ids, edges


# a 20,000-term chain; closed into a cycle, the DFS holds every term at once
CHAIN = [f"c{i}" for i in range(20_000)]


class TestBuildParity:
    """build_ontology against the list-then-freeze build kept in helpers."""

    @pytest.mark.parametrize("seed", [3, 17, 2024])
    def test_parents_are_first_occurrence_dedupe(self, seed):
        ids, edges = seeded_multi_parent_dag(seed)
        g = build_ontology(ids, edges)
        declared = {}
        for child, parent in edges:
            declared.setdefault(child, []).append(parent)
        assert sum(len(p) >= 3 for p in declared.values()) > 100
        assert any(len(p) != len(set(p)) for p in declared.values())
        for term in ids:
            assert g.parents(term) == tuple(dict.fromkeys(declared.get(term, ())))
        assert g.edge_count == len(set(edges))
        assert shape(g) == shape(reference_build_ontology(ids, edges))
        assert all(type(p) is tuple for p in g._parents)

    def test_generators_are_read_once(self):
        ids, edges = seeded_multi_parent_dag(5, n=100)
        g = build_ontology(iter(ids), (edge for edge in edges))
        assert shape(g) == shape(reference_build_ontology(ids, edges))

    def test_dangling_endpoints_from_generators_in_order(self):
        edges = [("a", "x"), ("y", "a"), ("z", "w"), ("x", "a"), ("a", "r")]
        got = outcome(build_ontology, (t for t in ["r", "a"]), (e for e in edges))
        assert got == outcome(reference_build_ontology, ["r", "a"], edges)
        assert got[0] is DanglingEdgeEndpoint
        with pytest.raises(DanglingEdgeEndpoint) as exc:
            build_ontology(iter(["r", "a"]), iter(edges))
        assert exc.value.endpoints == ("x", "y", "z", "w")

    def test_a_node_with_twenty_thousand_parents(self):
        rng = random.Random(11)
        parents = [f"p{i}" for i in range(20_000)]
        edges = [("hub", p) for p in parents] + [("hub", p) for p in rng.sample(parents, 5_000)]
        rng.shuffle(edges)
        g = build_ontology(["hub", *parents], edges)
        assert g.parents("hub") == tuple(dict.fromkeys(p for _, p in edges))
        assert g.edge_count == 20_000
        assert g.theta("hub") == 20_001

    @pytest.mark.parametrize(
        "terms, edges, error",
        [
            (["a", "b", "a", "b"], [], DuplicateTermId),
            (["a", "a", 5], [], DuplicateTermId),
            (["a", "", "a"], [], ValueError),
            (["a", 5, "a"], [], ValueError),
            (["a", None], [], ValueError),
            (["a", b"b"], [], ValueError),
            (["a", ["x"]], [], ValueError),
            (["a", {"x": 1}], [], ValueError),
            (["a", ("x", "X")], [], ValueError),
            (["a", "b"], [("a", "x"), ("q", "b"), ("a", "x")], DanglingEdgeEndpoint),
            (["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")], CycleDetected),
            (["a", "b", "c"], [("c", "b"), ("c", "a"), ("b", "a"), ("a", "c")], CycleDetected),
            (["r"], [("r", "r"), ("r", "r")], CycleDetected),
            (CHAIN, [*zip(CHAIN[1:], CHAIN), (CHAIN[0], CHAIN[-1])], CycleDetected),
        ],
        ids=[
            "first-duplicate", "duplicate-before-bad-type", "empty-before-duplicate", "int-before-duplicate",
            "none", "bytes", "unhashable-list", "unhashable-dict", "tuple-spec", "dangling", "cycle",
            "cycle-through-multi-parent-node", "self-loop-repeated", "chain-closed-into-a-cycle",
        ],
    )
    def test_errors_match(self, terms, edges, error):
        got = outcome(build_ontology, terms, edges)
        assert got == outcome(reference_build_ontology, terms, edges)
        assert got[0] is error

    def test_cycle_path_matches_on_random_dags(self):
        rng = random.Random(909)
        for _ in range(40):
            ids, edges = seeded_multi_parent_dag(rng.random(), n=30)
            child, parent = rng.choice(edges)
            edges.insert(rng.randrange(len(edges)), (parent, child))
            got = outcome(build_ontology, ids, edges)
            assert got[0] is CycleDetected
            assert got == outcome(reference_build_ontology, ids, edges)

    def test_str_subclass_ids_accepted(self):
        class Code(str):
            pass

        ids = [Code("r"), Code("a"), Code("b")]
        g = build_ontology(ids, [("a", "r"), ("b", "a"), ("b", "r"), ("b", "a")])
        assert g.parents("b") == ("a", "r")
        assert all(type(t) is Code for t in g.terms)


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

    def test_unknown_terms_named_once_in_given_order(self):
        g = build_ontology(TOY_TERMS, TOY_EDGES)
        with pytest.raises(UnknownTerm) as info:
            g.closures(["x2", "b", "x1", "x2"])
        assert info.value.term_ids == ("x2", "x1")
        with pytest.raises(UnknownTerm) as info:
            g.psi("x2", "x1")
        assert info.value.term_ids == ("x2", "x1")


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
