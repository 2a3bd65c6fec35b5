"""Ratio-model similarity: directed form, symmetrization, matrices, ranking."""

import io
import math
import random
from array import array

import pytest

from ontosim import (
    AGGREGATORS,
    EmptyTermList,
    SimilarityMatrix,
    SimilarityParams,
    UnknownTerm,
    build_ontology,
    catalog_terms,
    distance,
    doss,
    doss_matrix,
    nearest_terms,
    pairwise_matrix,
    sim_rm,
    sim_rm_directed,
    sim_rows,
)
from ontosim import matrixio, similarity
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
from helpers import DfsOracle, chain_graph, random_dag, random_pairs, reference_csv

POLICIES = ["as-printed", "mean-of-directions"]


def formula_rows(graph, params, rows, cols):
    """The module docstring's formula for every cell, from ancestor sets."""
    ancestors = {t: graph.ancestors(t) for t in {*rows, *cols}}

    def directed(t1, t2):
        a1, a2 = ancestors[t1], ancestors[t2]
        shared = len(a1 & a2)
        return len(a1) / (params.alpha * (len(a1) - shared) + params.beta * (len(a2) - shared) + len(a1))

    if params.symmetrization == "as-printed":
        return [tuple(directed(t1, t2) for t2 in cols) for t1 in rows]
    return [tuple((directed(t1, t2) + directed(t2, t1)) / 2.0 for t2 in cols) for t1 in rows]


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

    def test_negative_zero_weights_are_stored_as_zero(self):
        # outputs echo the stored weights, and -0.0 would print as "-0.0"
        params = SimilarityParams(alpha=-0.0, beta=-0.0)
        assert math.copysign(1, params.alpha) == math.copysign(1, params.beta) == 1

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

    @pytest.mark.parametrize("weight", [1e308, 1e-300, 2e6, 5e-7])
    def test_weights_outside_the_domain_rejected(self, weight):
        with pytest.raises(ValueError):
            SimilarityParams(alpha=weight)
        with pytest.raises(ValueError):
            SimilarityParams(beta=weight)

    @pytest.mark.parametrize("weight", [1e-6, 1e6])
    @pytest.mark.parametrize("policy", ["as-printed", "mean-of-directions"])
    def test_domain_end_points_keep_distinct_terms_inside_the_bounds(self, toy_graph, weight, policy):
        params = SimilarityParams(alpha=weight, beta=weight, symmetrization=policy)
        for t1 in TOY_TERMS:
            for t2 in TOY_TERMS:
                if t1 != t2:
                    assert 0.0 < sim_rm(toy_graph, params, t1, t2) < 1.0

    def test_unknown_term(self, toy_graph, default_params):
        with pytest.raises(UnknownTerm):
            sim_rm_directed(toy_graph, default_params, "b", "zz")

    @pytest.mark.parametrize("policy", ["as-printed", "mean-of-directions"])
    def test_every_unknown_id_named_once_rows_first(self, toy_graph, policy):
        params = SimilarityParams(symmetrization=policy)
        for fn in (sim_rm, sim_rm_directed, distance):
            with pytest.raises(UnknownTerm) as exc:
                fn(toy_graph, params, "x2", "x1")
            assert exc.value.term_ids == ("x2", "x1")
            with pytest.raises(UnknownTerm) as exc:
                fn(toy_graph, params, "x1", "x1")
            assert exc.value.term_ids == ("x1",)
        with pytest.raises(UnknownTerm) as exc:
            sim_rows(toy_graph, params, ["a", "x3", "x1"], ["x2", "b", "x1"])
        assert exc.value.term_ids == ("x3", "x1", "x2")


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

    def test_mean_term_matrix_is_its_own_transpose(self, healthcare_graph, healthcare_catalog):
        # doss_matrix reads this matrix's rows as its columns
        terms = catalog_terms(healthcare_catalog)
        for alpha, beta in ((7.9, 3.9), (2.0, 0.5), (1e-6, 1e6), (0.0, 1.0)):
            rows = sim_rows(healthcare_graph, SimilarityParams(alpha, beta), terms, terms)
            assert rows == list(zip(*rows))

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

    def test_csv_round_trip_at_serialized_precision(self, toy_graph, default_params):
        m = pairwise_matrix(toy_graph, default_params, ["a", "b", "c"])
        buf = io.StringIO()
        m.to_csv(buf, metadata={"ontology_version": "toy-1"})
        parsed = SimilarityMatrix.from_csv(io.StringIO(buf.getvalue()))
        assert parsed.terms == m.terms
        for row, expected_row in zip(parsed.values, m.values):
            for got, expected in zip(row, expected_row):
                assert abs(got - round(expected, 6)) <= 1e-9

    def test_csv_round_trip_with_hash_prefixed_term(self, default_params):
        # a data row starting with "#" is not a metadata line
        g = build_ontology(["#r", "a", "b"], [("a", "#r"), ("b", "#r")])
        m = pairwise_matrix(g, default_params, ["#r", "a", "b"])
        buf = io.StringIO()
        m.to_csv(buf, metadata={"ontology_version": "v1"})
        parsed = SimilarityMatrix.from_csv(io.StringIO(buf.getvalue()))
        assert parsed.terms == ("#r", "a", "b")
        assert parsed.values[0][0] == 1.0

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
            (terms, terms),  # square
            (terms[:9], terms[::-1]),  # columns projected onto the rows' smaller node universe
        ]
        for rows, cols in shapes:
            assert sim_rows(healthcare_graph, params, rows, cols) == formula_rows(healthcare_graph, params, rows, cols)
        # the kernel's cells are SimilarityParams.score of each pair's triple, bit for bit
        g = healthcare_graph
        rows, cols = shapes[2]
        got = sim_rows(g, params, rows, cols)
        for t1, row in zip(rows, got):
            assert row == tuple(params.score(g.theta(t1), g.theta(t2), g.psi(t1, t2)) for t2 in cols)

    @pytest.mark.parametrize("policy", ["as-printed", "mean-of-directions"])
    @pytest.mark.parametrize("alpha, beta", [(7.9, 3.9), (2, 0.5), (0, 3), (3, 0)])
    def test_scores_keyed_by_the_whole_triple(self, policy, alpha, beta):
        # chain r <- a <- b <- c and x <- y beside it under r: the rows a, b, c
        # differ only in theta1 against each column, the columns only in theta2
        g = build_ontology(
            ["r", "a", "b", "c", "x", "y"],
            [("a", "r"), ("b", "a"), ("c", "b"), ("x", "r"), ("y", "x")],
        )
        params = SimilarityParams(alpha=alpha, beta=beta, symmetrization=policy)
        rows, cols = ["a", "b", "c"], ["x", "y", "x"]
        assert {(g.theta("x"), g.psi(t1, "x")) for t1 in rows} == {(2, 1)}
        assert [g.theta(t) for t in rows] == [2, 3, 4]

        def directed(t1, t2):
            theta1, theta2, psi = g.theta(t1), g.theta(t2), g.psi(t1, t2)
            return theta1 / (alpha * (theta1 - psi) + beta * (theta2 - psi) + theta1)

        got = sim_rows(g, params, rows, cols)
        for t1, row in zip(rows, got):
            if policy == "as-printed":
                expected = tuple(directed(t1, t2) for t2 in cols)
            else:
                expected = tuple((directed(t1, t2) + directed(t2, t1)) / 2.0 for t2 in cols)
            assert row == expected
        # the three rows share (theta2, psi) against x, yet score apart
        assert len({row[0] for row in got}) == 3

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("depth, width", [(300, 16), (65_540, 32)])
    def test_wide_fields_equal_the_formula(self, policy, depth, width):
        # theta reaches 2 ** 8, then 2 ** 16, so a field of 8 or 16 bits
        # could not hold it, and psi along the chain is as large
        g = chain_graph(depth)
        params = SimilarityParams(alpha=2.5, beta=0.5, symmetrization=policy)
        rows = ["a", f"c{depth - 1}", "s"]
        cols = ["b", "x", "s", f"c{depth // 2}"]
        assert max(g.theta(t) for t in rows + cols) >= 2 ** (width // 2)
        assert g.psi("a", "b") == depth
        for r, c in ((rows, cols), (cols, rows), (rows + cols, rows + cols)):
            assert sim_rows(g, params, r, c) == formula_rows(g, params, r, c)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_field_width_follows_the_rows(self, monkeypatch, policy):
        # psi is at most theta1, so the rows' largest theta sizes the fields,
        # with one high bit kept clear: rows up to theta 127 take 8 bits, even
        # against columns whose theta2 reaches 2 ** 7, and rows that reach
        # theta 128 take 16
        g = chain_graph(300)
        params = SimilarityParams(alpha=2.5, beta=0.5, symmetrization=policy)
        shallow, deep = ["c3", "s", "c40", "c126"], ["c127", "c100", "s", "c64"]
        assert max(map(g.theta, shallow)) == 2 ** 7 - 1
        assert max(map(g.theta, deep)) == 2 ** 7
        codes = set()

        def spy(code, *args):
            codes.add(code)
            return array(code, *args)

        monkeypatch.setattr(similarity, "array", spy)
        for rows, cols, width in ((shallow, deep, 8), (deep, shallow, 16)):
            codes.clear()
            assert sim_rows(g, params, rows, cols) == formula_rows(g, params, rows, cols)
            assert codes == {similarity._FIELD_CODE[width]}

    @pytest.mark.parametrize("policy", POLICIES)
    def test_each_distinct_triple_scored_once(self, healthcare_graph, healthcare_catalog, policy):
        calls = []

        class CountingParams(SimilarityParams):
            def score(self, theta1, theta2, psi):
                calls.append((theta1, theta2, psi))
                return super().score(theta1, theta2, psi)

        g, terms = healthcare_graph, catalog_terms(healthcare_catalog)
        got = sim_rows(g, CountingParams(symmetrization=policy), terms, terms)
        assert got == formula_rows(g, SimilarityParams(symmetrization=policy), terms, terms)
        # 46,656 cells, 364 ordered triples
        triples = {(g.theta(t1), g.theta(t2), g.psi(t1, t2)) for t1 in terms for t2 in terms}
        assert len(calls) == len(triples) == 364
        assert set(calls) == triples

    @pytest.mark.parametrize("policy", POLICIES)
    def test_rows_spanning_three_blocks(self, policy):
        # 600 rows: two full blocks and a short third one
        rng = random.Random(821)
        ids = [f"n{i:03d}" for i in range(600)]
        edges = [
            (ids[i], ids[parent])
            for i in range(1, len(ids))
            for parent in rng.sample(range(i), k=min(i, rng.randint(1, 3)))
        ]
        g = build_ontology(ids, edges)
        params = SimilarityParams(symmetrization=policy)
        cols = rng.sample(ids, 7)
        assert len(ids) > 2 * similarity.BLOCK_ROWS
        assert sim_rows(g, params, ids, cols) == formula_rows(g, params, ids, cols)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_small_blocks_on_the_healthcare_terms(
        self, monkeypatch, healthcare_graph, healthcare_catalog, policy
    ):
        # 216 rows walked in blocks of 50, the last one short
        monkeypatch.setattr(similarity, "BLOCK_ROWS", 50)
        g, catalog = healthcare_graph, healthcare_catalog
        params = SimilarityParams(symmetrization=policy)
        terms = catalog_terms(catalog)
        for rows, cols in ((terms, terms), (terms, terms[::-1][:30])):
            assert sim_rows(g, params, rows, cols) == formula_rows(g, params, rows, cols)
        for aggregator in AGGREGATORS:
            m = doss_matrix(g, params, catalog, aggregator)
            expected = tuple(
                tuple(doss(g, params, catalog, src, ref, aggregator).value for ref in m.dataset_ids)
                for src in m.dataset_ids
            )
            assert m.values == expected

    @pytest.mark.parametrize("width", similarity._FIELD_CODE)
    def test_field_codes_are_as_wide_as_their_fields(self, width):
        # the sizes of "I" and "Q" are the platform's; the packing assumes these
        assert array(similarity._FIELD_CODE[width]).itemsize * 8 == width

    @pytest.mark.parametrize("policy", POLICIES)
    def test_empty_rows_or_columns(self, toy_graph, policy):
        params = SimilarityParams(symmetrization=policy)
        assert sim_rows(toy_graph, params, [], []) == []
        assert sim_rows(toy_graph, params, ["b"], []) == [()]
        assert sim_rows(toy_graph, params, [], ["b", "c"]) == []
        assert nearest_terms(toy_graph, params, "b", [], 3) == []


# labels csv must quote (comma, quote, line break) and labels it leaves bare
# that a reader could trip on (a leading # or space)
AWKWARD_LABELS = ("a,b", 'q"x', "two\nlines", "#hash", " lead", "plain")


class TestMatrixCsv:
    def test_awkward_labels_match_csv_writer_and_read_back(self, default_params):
        g = build_ontology(
            ["r", *AWKWARD_LABELS],
            [("a,b", "r"), ('q"x', "a,b"), ("two\nlines", "r"), ("#hash", 'q"x'), (" lead", "r"), ("plain", " lead")],
        )
        m = pairwise_matrix(g, default_params, AWKWARD_LABELS)
        metadata = {"ontology_version": "v1", "kind": "similarity"}
        buf = io.StringIO()
        m.to_csv(buf, metadata)
        assert buf.getvalue() == reference_csv(m.terms, m.values, metadata)
        parsed = SimilarityMatrix.from_csv(io.StringIO(buf.getvalue()))
        assert parsed.terms == AWKWARD_LABELS
        assert parsed.values == tuple(tuple(float(f"{cell:.6f}") for cell in row) for row in m.values)

    def test_carriage_return_in_a_term_id_is_quoted_and_reads_back(self, default_params):
        # csv quotes only its terminator's characters, so "\n" alone left a bare "\r"
        g = build_ontology(["r", "a\rb", "c"], [("a\rb", "r"), ("c", "r")])
        m = pairwise_matrix(g, default_params, ["r", "a\rb", "c"])
        buf = io.StringIO()
        m.to_csv(buf, {"kind": "similarity"})
        text = buf.getvalue()
        assert text.startswith('# kind: similarity\n,r,"a\rb",c\n')
        assert '\n"a\rb",' in text
        parsed = SimilarityMatrix.from_csv(io.StringIO(text))
        assert parsed.terms == ("r", "a\rb", "c")
        assert parsed.values == tuple(tuple(float(f"{cell:.6f}") for cell in row) for row in m.values)

    def test_repeated_and_distinct_values(self):
        # values that share a text, values that differ below the printed precision
        values = ((1.0, 0.1234564, 0.1234566), (0.1234564, 1.0, 0.5), (0.5, 0.1234566, 1.0))
        m = SimilarityMatrix(("x", "y", "z"), values)
        buf = io.StringIO()
        m.to_csv(buf)
        assert buf.getvalue() == reference_csv(m.terms, values, {})

    @pytest.mark.parametrize("first, second, text", [(0.0, -0.0, "0.000000"), (-0.0, 0.0, "-0.000000")])
    def test_signed_zeros_share_the_text_of_the_first_seen(self, first, second, text):
        # 0.0 == -0.0, so both cells print as whichever comes first in row-major order
        buf = io.StringIO()
        matrixio.write_matrix_csv(buf, ("x", "y"), ((1.0, first), (second, 1.0)))
        assert buf.getvalue() == f",x,y\nx,1.000000,{text}\ny,{text},1.000000\n"


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
