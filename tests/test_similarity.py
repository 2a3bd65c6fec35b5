"""Ratio-model similarity: directed form, symmetrization, matrices, ranking."""

import io
import math
import random

import pytest

from ontosim import (
    EmptyTermList,
    SimilarityMatrix,
    SimilarityParams,
    UnknownTerm,
    build_ontology,
    catalog_terms,
    distance,
    nearest_terms,
    pairwise_matrix,
    sim_rm,
    sim_rm_directed,
    sim_rows,
)
from conftest import (
    SIM_A_TO_B,
    SIM_AC_MEAN,
    SIM_B_TO_A,
    SIM_B_TO_C,
    SIM_BC_MEAN,
    SIM_C_TO_B,
    TOY_EDGES,
    TOY_TERMS,
)
from helpers import DfsOracle, random_dag, random_pairs


class TestDirectedForm:
    def test_identity_is_exactly_one(self, toy_graph, default_params):
        for t in TOY_TERMS:
            assert sim_rm_directed(toy_graph, default_params, t, t) == 1.0

    def test_toy_values_confirmed_by_oracle(self, toy_graph, default_params):
        oracle = DfsOracle(TOY_EDGES)
        cases = [
            ("b", "c", SIM_B_TO_C, 0.132159),
            ("c", "b", SIM_C_TO_B, 0.112994),
            ("a", "b", SIM_A_TO_B, 0.338983),
            ("b", "a", SIM_B_TO_A, 0.275229),
        ]
        for t1, t2, frozen, rounded in cases:
            assert oracle.sim_directed(t1, t2) == pytest.approx(frozen, abs=1e-15)
            assert abs(frozen - rounded) < 5e-7
            assert sim_rm_directed(toy_graph, default_params, t1, t2) == pytest.approx(frozen, abs=1e-12)

    def test_asymmetric_when_alpha_differs_from_beta(self, toy_graph, default_params):
        assert sim_rm_directed(toy_graph, default_params, "b", "c") != pytest.approx(
            sim_rm_directed(toy_graph, default_params, "c", "b"), abs=1e-3
        )

    def test_bounds_on_random_dags(self):
        rng = random.Random(811)
        params = SimilarityParams()
        for _ in range(30):
            ids, edges = random_dag(rng)
            g = build_ontology(ids, edges)
            for t1, t2 in random_pairs(rng, ids, 30):
                value = sim_rm_directed(g, params, t1, t2)
                assert 0.0 < value <= 1.0
                if t1 != t2:
                    # distinct terms in a DAG can never have equal ancestor sets
                    assert value < 1.0

    def test_degenerate_weights_give_constant_one(self, toy_graph):
        params = SimilarityParams(alpha=0.0, beta=0.0)
        for t1 in TOY_TERMS:
            for t2 in TOY_TERMS:
                assert sim_rm_directed(toy_graph, params, t1, t2) == 1.0

    def test_disjoint_components_stay_positive(self, default_params):
        # two roots, nothing shared: psi is 0 but the measure is still defined
        g = build_ontology(["r1", "x", "r2", "y"], [("x", "r1"), ("y", "r2")])
        assert g.psi("x", "y") == 0
        value = sim_rm_directed(g, default_params, "x", "y")
        assert 0.0 < value < 1.0

    def test_matches_oracle_on_random_dags(self):
        rng = random.Random(812)
        params = SimilarityParams()
        for _ in range(100):
            ids, edges = random_dag(rng)
            g = build_ontology(ids, edges)
            oracle = DfsOracle(edges)
            for t1, t2 in random_pairs(rng, ids, 15):
                assert sim_rm_directed(g, params, t1, t2) == pytest.approx(
                    oracle.sim_directed(t1, t2), abs=1e-12
                )

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            SimilarityParams(alpha=-1.0)
        with pytest.raises(ValueError):
            SimilarityParams(beta=-0.5)
        with pytest.raises(ValueError):
            SimilarityParams(symmetrization="bogus")

    @pytest.mark.parametrize("weight", [math.nan, math.inf, -math.inf])
    def test_non_finite_weights_rejected(self, weight):
        with pytest.raises(ValueError):
            SimilarityParams(alpha=weight)
        with pytest.raises(ValueError):
            SimilarityParams(beta=weight)

    def test_unknown_term(self, toy_graph, default_params):
        with pytest.raises(UnknownTerm):
            sim_rm_directed(toy_graph, default_params, "b", "zz")


class TestSymmetrization:
    def test_identity_under_both_policies(self, toy_graph):
        for policy in ("as-printed", "mean-of-directions"):
            params = SimilarityParams(symmetrization=policy)
            assert sim_rm(toy_graph, params, "c", "c") == 1.0

    def test_mean_value(self, toy_graph, default_params):
        assert sim_rm(toy_graph, default_params, "b", "c") == pytest.approx(SIM_BC_MEAN, abs=1e-15)
        assert abs(SIM_BC_MEAN - 0.122576) < 5e-7

    def test_mean_is_exactly_symmetric(self):
        rng = random.Random(813)
        params = SimilarityParams()
        ids, edges = random_dag(rng)
        g = build_ontology(ids, edges)
        for t1, t2 in random_pairs(rng, ids, 100):
            assert sim_rm(g, params, t1, t2) == sim_rm(g, params, t2, t1)

    def test_as_printed_returns_directed_value(self, toy_graph):
        params = SimilarityParams(symmetrization="as-printed")
        assert sim_rm(toy_graph, params, "b", "c") == sim_rm_directed(toy_graph, params, "b", "c")

    def test_distance(self, toy_graph, default_params):
        assert distance(toy_graph, default_params, "b", "b") == 0.0
        assert distance(toy_graph, default_params, "b", "c") == pytest.approx(1 - SIM_BC_MEAN, abs=1e-15)
        assert distance(toy_graph, default_params, "b", "c") == distance(toy_graph, default_params, "c", "b")


class TestPairwiseMatrix:
    def test_single_term(self, toy_graph, default_params):
        m = pairwise_matrix(toy_graph, default_params, ["a"])
        assert m.terms == ("a",)
        assert m.values == ((1.0,),)

    def test_toy_matrix(self, toy_graph, default_params):
        m = pairwise_matrix(toy_graph, default_params, ["a", "b", "c"])
        assert [m.values[i][i] for i in range(3)] == [1.0, 1.0, 1.0]
        assert m.values[1][2] == pytest.approx(SIM_BC_MEAN, abs=1e-15)
        assert m.values[0][2] == pytest.approx(SIM_AC_MEAN, abs=1e-15)
        # symmetric under the default policy
        for i in range(3):
            for j in range(3):
                assert m.values[i][j] == m.values[j][i]

    def test_duplicates_collapse_keeping_first_occurrence(self, toy_graph, default_params):
        m = pairwise_matrix(toy_graph, default_params, ["b", "a", "b", "a"])
        assert m.terms == ("b", "a")

    def test_empty_term_list(self, toy_graph, default_params):
        with pytest.raises(EmptyTermList):
            pairwise_matrix(toy_graph, default_params, [])

    def test_unknown_terms_reported_exhaustively(self, toy_graph, default_params):
        with pytest.raises(UnknownTerm) as exc:
            pairwise_matrix(toy_graph, default_params, ["a", "q1", "b", "q2"])
        assert exc.value.term_ids == ("q1", "q2")

    def test_worker_counts_agree(self, default_params):
        ids, edges = random_dag(random.Random(814), max_nodes=40)
        g = build_ontology(ids, edges)
        baseline = pairwise_matrix(g, default_params, ids, workers=1)
        for workers in (2, 4, 8):
            assert pairwise_matrix(g, default_params, ids, workers=workers) == baseline

    def test_csv_round_trip_at_serialized_precision(self, toy_graph, default_params):
        m = pairwise_matrix(toy_graph, default_params, ["a", "b", "c"])
        buf = io.StringIO()
        m.to_csv(buf, metadata={"ontology_version": "toy-1"})
        parsed = SimilarityMatrix.from_csv(io.StringIO(buf.getvalue()))
        assert parsed.terms == m.terms
        for row, expected_row in zip(parsed.values, m.values):
            for got, expected in zip(row, expected_row):
                assert abs(got - round(expected, 6)) <= 1e-9

    def test_distance_companion(self, toy_graph, default_params):
        m = pairwise_matrix(toy_graph, default_params, ["a", "b", "c"])
        d = m.to_distance()
        assert [d.values[i][i] for i in range(3)] == [0.0, 0.0, 0.0]
        assert d.values[1][2] == pytest.approx(1 - SIM_BC_MEAN, abs=1e-15)

    def test_json_dict_shape(self, toy_graph, default_params):
        payload = pairwise_matrix(toy_graph, default_params, ["a", "b"]).to_json_dict()
        assert payload["terms"] == ["a", "b"]
        assert len(payload["values"]) == 2


class TestKernel:
    @pytest.mark.parametrize("policy", ["as-printed", "mean-of-directions"])
    @pytest.mark.parametrize("alpha, beta", [(7.9, 3.9), (0.0, 0.0), (1.0, 1.0), (2.5, 0.0)])
    def test_rows_equal_printed_formula(self, healthcare_graph, healthcare_catalog, policy, alpha, beta):
        params = SimilarityParams(alpha=alpha, beta=beta, symmetrization=policy)
        terms = catalog_terms(healthcare_catalog)
        assert len(terms) == 216
        ancestors = {t: healthcare_graph.ancestors(t) for t in terms}
        # the first rows' closures cover fewer nodes than the columns' do
        assert set().union(*(ancestors[t] for t in terms[:9])) < set().union(*ancestors.values())
        shapes = [
            (terms, terms[::-1]),  # a different order, so swapped indexes cannot pass
            (terms, terms),  # square: mean-of-directions mirrors one triangle
            (terms[:9], terms[::-1]),  # columns projected onto the rows' smaller bit universe
        ]

        def directed(t1, t2):
            a1, a2 = ancestors[t1], ancestors[t2]
            shared = len(a1 & a2)
            return len(a1) / (alpha * (len(a1) - shared) + beta * (len(a2) - shared) + len(a1))

        for rows, cols in shapes:
            got = sim_rows(healthcare_graph, params, rows, cols)
            assert len(got) == len(rows)
            for t1, row in zip(rows, got):
                if policy == "as-printed":
                    expected = tuple(directed(t1, t2) for t2 in cols)
                else:
                    expected = tuple((directed(t1, t2) + directed(t2, t1)) / 2.0 for t2 in cols)
                assert row == expected


class TestNearestTerms:
    def test_query_in_candidates_ranks_first(self, toy_graph, default_params):
        ranked = nearest_terms(toy_graph, default_params, "b", {"a", "b", "c"}, 3)
        assert ranked[0] == ("b", 1.0)

    def test_toy_ordering(self, toy_graph, default_params):
        ranked = nearest_terms(toy_graph, default_params, "c", {"a", "b"}, 2)
        assert [t for t, _ in ranked] == ["a", "b"]
        assert ranked[0][1] == pytest.approx(SIM_AC_MEAN, abs=1e-15)

    def test_k_larger_than_candidate_set(self, toy_graph, default_params):
        ranked = nearest_terms(toy_graph, default_params, "c", {"a", "b"}, 10)
        assert len(ranked) == 2

    def test_ties_break_by_ascending_id(self, default_params):
        # x and y are interchangeable relative to q, so similarity ties
        g = build_ontology(["r", "q", "x", "y"], [("q", "r"), ("x", "r"), ("y", "r")])
        ranked = nearest_terms(g, default_params, "q", {"y", "x"}, 2)
        assert [t for t, _ in ranked] == ["x", "y"]
        assert ranked[0][1] == ranked[1][1]

    def test_k_must_be_positive(self, toy_graph, default_params):
        with pytest.raises(ValueError):
            nearest_terms(toy_graph, default_params, "c", {"a"}, 0)

    def test_unknown_terms_reported_exhaustively(self, toy_graph, default_params):
        # the query first, then the unknown candidates in ascending order
        with pytest.raises(UnknownTerm) as exc:
            nearest_terms(toy_graph, default_params, "zq", {"b", "q2", "q1"}, 2)
        assert exc.value.term_ids == ("zq", "q1", "q2")
        with pytest.raises(UnknownTerm) as exc:
            nearest_terms(toy_graph, default_params, "b", {"q4", "a", "q2", "b", "q3", "q1"}, 2)
        assert exc.value.term_ids == ("q1", "q2", "q3", "q4")
