"""Dataset-to-dataset similarity: values, properties, matrices."""

import io
import random

import pytest

from ontosim import (
    AGGREGATORS,
    EmptyTermSet,
    SimilarityMatrix,
    SimilarityParams,
    UnknownDataset,
    UnknownTerm,
    build_ontology,
    catalog_from_dict,
    doss,
    doss_matrix,
    shared_term_count,
    sim_rm,
    term_set,
)
from ontosim.matrixio import read_matrix_csv
from conftest import DOSS_TOY
from helpers import random_dag, reference_csv


def make_catalog(term_sets: dict[str, list[str]]):
    datasets = []
    for ds_id, terms in term_sets.items():
        features = [{"name": f"f{i}", "term": t} for i, t in enumerate(terms)]
        if not features:
            features = [{"name": "only", "term": None}]
        datasets.append(
            {"id": ds_id, "name": ds_id, "origin": [], "category": "EHR", "features": features}
        )
    return catalog_from_dict({"ontology_version": "test", "datasets": datasets})


class TestDossValue:
    def test_toy_value(self, toy_graph, default_params, toy_catalog):
        result = doss(toy_graph, default_params, toy_catalog, "D1", "D2")
        assert result.value == pytest.approx(DOSS_TOY, abs=1e-15)
        assert abs(DOSS_TOY - 0.133752) < 5e-7

    def test_best_matches_one_per_source_term(self, toy_graph, default_params, toy_catalog):
        result = doss(toy_graph, default_params, toy_catalog, "D1", "D2")
        assert [m.source_term for m in result.best_matches] == ["a", "b"]
        assert all(m.best_term == "c" for m in result.best_matches)
        agg = AGGREGATORS[result.aggregator]
        assert result.value == agg([m.similarity for m in result.best_matches])

    def test_self_similarity_is_exactly_one(self, toy_graph, default_params, toy_catalog):
        for ds in ("D1", "D2", "DS"):
            for aggregator in AGGREGATORS:
                assert doss(toy_graph, default_params, toy_catalog, ds, ds, aggregator).value == 1.0

    def test_argmax_tie_breaks_by_ascending_term_id(self, default_params):
        # x and y sit symmetrically under r, so both tie as best match for q
        g = build_ontology(["r", "q", "x", "y"], [("q", "r"), ("x", "r"), ("y", "r")])
        catalog = make_catalog({"SRC": ["q"], "REF": ["y", "x"]})
        result = doss(g, default_params, catalog, "SRC", "REF")
        assert result.best_matches[0].best_term == "x"

    def test_result_records_policy_and_direction(self, toy_graph, toy_catalog):
        params = SimilarityParams(symmetrization="as-printed")
        result = doss(toy_graph, params, toy_catalog, "D1", "D2", "median")
        assert (result.source_id, result.reference_id) == ("D1", "D2")
        assert result.aggregator == "median"
        assert result.symmetrization == "as-printed"
        payload = result.to_json_dict()
        assert payload["direction"] == {"source": "D1", "reference": "D2"}
        assert payload["value"] == round(result.value, 6)

    def test_unknown_aggregator(self, toy_graph, default_params, toy_catalog):
        with pytest.raises(ValueError):
            doss(toy_graph, default_params, toy_catalog, "D1", "D2", "mode")


class TestDossErrors:
    def test_empty_term_set_names_the_dataset(self, toy_graph, default_params, toy_catalog):
        with pytest.raises(EmptyTermSet) as exc:
            doss(toy_graph, default_params, toy_catalog, "DE", "D1")
        assert exc.value.dataset_id == "DE"
        with pytest.raises(EmptyTermSet) as exc:
            doss(toy_graph, default_params, toy_catalog, "D1", "DE")
        assert exc.value.dataset_id == "DE"

    def test_unknown_dataset(self, toy_graph, default_params, toy_catalog):
        with pytest.raises(UnknownDataset):
            doss(toy_graph, default_params, toy_catalog, "D1", "nope")

    def test_unknown_terms_reported_exhaustively(self, toy_graph, default_params):
        catalog = make_catalog({"A": ["a", "zz1"], "B": ["zz2"]})
        with pytest.raises(UnknownTerm) as exc:
            doss(toy_graph, default_params, catalog, "A", "B")
        assert exc.value.term_ids == ("zz1", "zz2")


class TestDossProperties:
    def test_containment_gives_one_for_every_aggregator(self, toy_graph, default_params, toy_catalog):
        # DS's term set {a} is contained in D1's {a, b}
        for aggregator in AGGREGATORS:
            assert doss(toy_graph, default_params, toy_catalog, "DS", "D1", aggregator).value == 1.0

    def test_strict_containment_is_below_one_the_other_way(self, toy_graph, default_params, toy_catalog):
        assert doss(toy_graph, default_params, toy_catalog, "D1", "DS").value < 1.0

    def test_disjoint_sets_under_shared_root_stay_positive(self, toy_graph, default_params):
        catalog = make_catalog({"L": ["b"], "R": ["c"]})
        assert shared_term_count(catalog, "L", "R") == 0
        assert doss(toy_graph, default_params, catalog, "L", "R").value > 0.0

    def test_bounds_on_random_inputs(self, default_params):
        rng = random.Random(905)
        ids, edges = random_dag(rng, max_nodes=40)
        g = build_ontology(ids, edges)
        sets = {f"S{i}": rng.sample(ids, rng.randint(1, min(8, len(ids)))) for i in range(6)}
        catalog = make_catalog(sets)
        for src in sets:
            for ref in sets:
                for aggregator in AGGREGATORS:
                    value = doss(g, default_params, catalog, src, ref, aggregator).value
                    assert 0.0 < value <= 1.0

    def test_growing_the_reference_never_lowers_the_value(self, default_params):
        rng = random.Random(906)
        ids, edges = random_dag(rng, max_nodes=40)
        g = build_ontology(ids, edges)
        cap = min(6, len(ids))
        for _ in range(20):
            source = rng.sample(ids, rng.randint(1, cap))
            reference = rng.sample(ids, rng.randint(1, cap))
            extra = rng.choice(ids)
            if extra in reference:
                continue
            small = make_catalog({"SRC": source, "REF": reference})
            grown = make_catalog({"SRC": source, "REF": reference + [extra]})
            for aggregator in AGGREGATORS:
                before = doss(g, default_params, small, "SRC", "REF", aggregator).value
                after = doss(g, default_params, grown, "SRC", "REF", aggregator).value
                assert after >= before - 1e-15

    def test_aggregators_are_ordered_sensibly(self, toy_graph, default_params):
        catalog = make_catalog({"A": ["a", "b", "c"], "B": ["b"]})
        values = {
            agg: doss(toy_graph, default_params, catalog, "A", "B", agg).value
            for agg in AGGREGATORS
        }
        assert values["min"] <= values["median"] <= values["max"]
        assert values["min"] <= values["mean"] <= values["max"]


class TestSharedTermCount:
    def test_disjoint(self, toy_graph, toy_catalog):
        assert shared_term_count(toy_catalog, "D1", "D2") == 0

    def test_identical(self):
        catalog = make_catalog({"A": ["t1", "t2", "t3", "t4", "t5"],
                                "B": ["t5", "t4", "t3", "t2", "t1"]})
        assert shared_term_count(catalog, "A", "B") == 5

    def test_partial_overlap(self):
        catalog = make_catalog({"A": ["a", "b"], "B": ["b", "c"]})
        assert shared_term_count(catalog, "A", "B") == 1


class TestDossMatrix:
    def test_single_dataset(self, toy_graph, default_params):
        catalog = make_catalog({"ONLY": ["a"]})
        m = doss_matrix(toy_graph, default_params, catalog)
        assert m.values == ((1.0,),)

    def test_identical_term_sets(self, toy_graph, default_params):
        catalog = make_catalog({"A": ["a", "b"], "B": ["b", "a"]})
        m = doss_matrix(toy_graph, default_params, catalog)
        assert m.values == ((1.0, 1.0), (1.0, 1.0))

    def test_diagonal_and_exclusions(self, toy_graph, default_params, toy_catalog):
        m = doss_matrix(toy_graph, default_params, toy_catalog)
        assert m.excluded == ("DE",)
        assert m.dataset_ids == ("D1", "D2", "DS")
        for i in range(3):
            assert m.values[i][i] == 1.0

    def test_not_symmetric_in_general(self, toy_graph, default_params, toy_catalog):
        m = doss_matrix(toy_graph, default_params, toy_catalog)
        i, j = m.dataset_ids.index("D1"), m.dataset_ids.index("DS")
        assert m.values[j][i] == 1.0
        assert m.values[i][j] < 1.0

    def test_small_datasets_score_higher_against_large_ones(
        self, default_params, healthcare_graph, healthcare_catalog
    ):
        m = doss_matrix(healthcare_graph, default_params, healthcare_catalog)
        sizes = {d: len(term_set(healthcare_catalog, d)) for d in m.dataset_ids}
        up, down, pairs = 0.0, 0.0, 0
        for i, di in enumerate(m.dataset_ids):
            for j, dj in enumerate(m.dataset_ids):
                if sizes[di] < sizes[dj]:
                    up += m.values[i][j]
                    down += m.values[j][i]
                    pairs += 1
        assert pairs > 0
        assert up / pairs > down / pairs

    def test_value_agrees_with_scalar_doss(
        self, toy_graph, default_params, toy_catalog, healthcare_graph, healthcare_catalog
    ):
        for graph, catalog in ((toy_graph, toy_catalog), (healthcare_graph, healthcare_catalog)):
            for aggregator in AGGREGATORS:
                m = doss_matrix(graph, default_params, catalog, aggregator)
                for i, src in enumerate(m.dataset_ids):
                    for j, ref in enumerate(m.dataset_ids):
                        expected = doss(graph, default_params, catalog, src, ref, aggregator).value
                        assert m.values[i][j] == expected

    @pytest.mark.parametrize("policy", ["as-printed", "mean-of-directions"])
    def test_one_term_reference_and_equal_term_sets(self, toy_graph, policy):
        # ONE is a one-term reference; P and Q hold the same term set
        params = SimilarityParams(symmetrization=policy)
        catalog = make_catalog({"P": ["a", "c"], "ONE": ["b"], "Q": ["c", "a"], "R": ["r", "b", "c"]})
        for aggregator in AGGREGATORS:
            m = doss_matrix(toy_graph, params, catalog, aggregator)
            assert m.dataset_ids == ("P", "ONE", "Q", "R")
            expected = tuple(
                tuple(doss(toy_graph, params, catalog, src, ref, aggregator).value for ref in m.dataset_ids)
                for src in m.dataset_ids
            )
            assert m.values == expected
            assert m.values[0] == m.values[2]

    def test_csv_with_awkward_dataset_ids(self, toy_graph, default_params):
        catalog = make_catalog({"D,1": ["a", "b"], 'D"2': ["c"], "plain": ["r"]})
        m = doss_matrix(toy_graph, default_params, catalog)
        buf = io.StringIO()
        m.to_csv(buf, {"aggregator": "mean"})
        assert buf.getvalue() == reference_csv(m.dataset_ids, m.values, {"aggregator": "mean"})
        parsed = SimilarityMatrix.from_csv(io.StringIO(buf.getvalue()))
        assert parsed.terms == ("D,1", 'D"2', "plain")


    def test_csv_with_a_carriage_return_in_a_dataset_id(self, toy_graph, default_params):
        catalog = make_catalog({"x\ry": ["a", "b"], "plain": ["c"]})
        m = doss_matrix(toy_graph, default_params, catalog)
        buf = io.StringIO()
        m.to_csv(buf)
        assert buf.getvalue().startswith(',"x\ry",plain\n"x\ry",1.000000,')
        labels, values = read_matrix_csv(io.StringIO(buf.getvalue()))
        assert labels == ("x\ry", "plain")
        assert values == tuple(tuple(float(f"{cell:.6f}") for cell in row) for row in m.values)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("# aggregator: mean\n", "matrix file has no header row"),
            (",a,b\na,1.000000,0.500000\n", "matrix file is not square"),
            (",a,b\na,1.000000\nb,0.500000,1.000000\n", "matrix file is not square"),
            (",a,b\nx,1.0,0.5\ny,0.5,1.0\n", "row label 'x' does not match column label 'a'"),
        ],
        ids=["no-header-row", "missing-row", "short-row", "mismatched-row-label"],
    )
    def test_read_matrix_csv_rejects(self, text, message):
        with pytest.raises(ValueError, match=message):
            read_matrix_csv(io.StringIO(text))


class TestCorrelationTendency:
    def test_doss_tracks_shared_term_count(self, default_params):
        pytest.importorskip("scipy", exc_type=ImportError)
        from scipy.stats import spearmanr

        rng = random.Random(424242)
        ids = [f"t{i:04d}" for i in range(300)]
        edges = []
        for i in range(1, len(ids)):
            for parent in rng.sample(range(i), k=min(i, rng.choice((1, 1, 2)))):
                edges.append((ids[i], ids[parent]))
        g = build_ontology(ids, edges)
        sets = {f"D{i:02d}": rng.sample(ids, rng.randint(5, 30)) for i in range(12)}
        catalog = make_catalog(sets)
        m = doss_matrix(g, default_params, catalog)
        doss_values, shared = [], []
        for i, di in enumerate(m.dataset_ids):
            for j, dj in enumerate(m.dataset_ids):
                if i != j:
                    doss_values.append(m.values[i][j])
                    shared.append(shared_term_count(catalog, di, dj))
        assert spearmanr(doss_values, shared).statistic > 0.0
