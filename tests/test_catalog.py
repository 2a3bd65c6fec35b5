"""Catalog loading, validation, statistics, and label search."""

import json

import pytest

from ontosim import (
    AnnotationCatalog,
    DatasetRecord,
    DuplicateDatasetId,
    DuplicateFeatureName,
    FeatureRecord,
    SchemaViolation,
    UnknownCategory,
    UnknownDataset,
    catalog_from_dict,
    catalog_terms,
    coverage_stats,
    load_catalog,
    search_labels,
    term_frequency_report,
    term_set,
)


def minimal(**overrides):
    payload = {
        "ontology_version": "v1",
        "datasets": [
            {
                "id": "D1",
                "name": "one",
                "origin": ["unit"],
                "category": "EHR",
                "features": [{"name": "age", "term": "T1"}],
            }
        ],
    }
    payload.update(overrides)
    return payload


def with_dataset(**fields):
    """minimal() with the given fields of its one dataset replaced."""
    return minimal(datasets=[dict(minimal()["datasets"][0], **fields)])


class TestLoadCatalog:
    def test_minimal_valid(self):
        catalog = catalog_from_dict(minimal())
        assert catalog.ontology_version == "v1"
        assert catalog.dataset("D1").features[0].term == "T1"

    def test_load_from_string_and_stream(self, tmp_path):
        text = json.dumps(minimal())
        assert load_catalog(text).dataset_ids() == ("D1",)
        path = tmp_path / "cat.json"
        path.write_text(text, encoding="utf-8")
        with open(path, encoding="utf-8") as fh:
            assert load_catalog(fh).dataset_ids() == ("D1",)

    def test_invalid_json(self):
        # the second text nests deeper than the JSON decoder recurses
        for text in ("{not json", "[" * 100_000 + "]" * 100_000):
            with pytest.raises(SchemaViolation, match=r"^\$: invalid JSON: "):
                load_catalog(text)

    def test_duplicate_dataset_id(self):
        ds = minimal()["datasets"][0]
        other = dict(ds, name="two")
        with pytest.raises(DuplicateDatasetId, match=r"^\$\.datasets\[1\]\.id: dataset id 'D1' already used$") as exc:
            catalog_from_dict(minimal(datasets=[ds, other]))
        assert exc.value.path == "$.datasets[1].id"

    def test_hand_built_catalog_refuses_a_repeated_id(self):
        # the same rule and error as catalog JSON: a second "A" would otherwise
        # be scored as the first, its term c never read
        records = (
            DatasetRecord("A", "first", (), "EHR", (FeatureRecord("f", "b"),)),
            DatasetRecord("B", "other", (), "EHR", (FeatureRecord("f", "b"),)),
            DatasetRecord("A", "second", (), "EHR", (FeatureRecord("f", "c"),)),
        )
        with pytest.raises(DuplicateDatasetId, match=r"^\$\.datasets\[2\]\.id: dataset id 'A' already used$") as exc:
            AnnotationCatalog("test", records)
        assert exc.value.path == "$.datasets[2].id"
        # the same record twice repeats its id too
        with pytest.raises(DuplicateDatasetId):
            AnnotationCatalog("test", records[:1] * 2)

    def test_duplicate_feature_name(self):
        ds = minimal()["datasets"][0]
        ds["features"] = [{"name": "age", "term": "T1"}, {"name": "age", "term": None}]
        with pytest.raises(DuplicateFeatureName):
            catalog_from_dict(minimal(datasets=[ds]))

    def test_unknown_category(self):
        ds = dict(minimal()["datasets"][0], category="Registry")
        with pytest.raises(UnknownCategory):
            catalog_from_dict(minimal(datasets=[ds]))

    def test_dataset_needs_a_feature(self):
        ds = dict(minimal()["datasets"][0], features=[])
        with pytest.raises(SchemaViolation) as exc:
            catalog_from_dict(minimal(datasets=[ds]))
        assert "features" in exc.value.path

    def test_schema_violation_carries_path(self):
        ds = minimal()["datasets"][0]
        ds["features"] = [{"name": "x", "term": ""}]
        with pytest.raises(SchemaViolation) as exc:
            catalog_from_dict(minimal(datasets=[ds]))
        assert exc.value.path == "$.datasets[0].features[0].term"

    @pytest.mark.parametrize("blank", [" ", "\t", " \n "])
    def test_whitespace_only_dataset_id_rejected(self, blank):
        ds = dict(minimal()["datasets"][0], id=blank)
        with pytest.raises(SchemaViolation) as exc:
            catalog_from_dict(minimal(datasets=[ds]))
        assert exc.value.path == "$.datasets[0].id"

    @pytest.mark.parametrize("blank", [" ", "\t", " \n "])
    def test_whitespace_only_feature_name_rejected(self, blank):
        ds = minimal()["datasets"][0]
        ds["features"] = [{"name": "age", "term": "T1"}, {"name": blank, "term": None}]
        with pytest.raises(SchemaViolation) as exc:
            catalog_from_dict(minimal(datasets=[ds]))
        assert exc.value.path == "$.datasets[0].features[1].name"

    @pytest.mark.parametrize(
        "payload, path, message",
        [
            ([], "$", "expected a JSON object"),
            ({"ontology_version": "v1"}, "$.datasets", "missing required field"),
            (minimal(datasets={}), "$.datasets", "expected an array"),
            (minimal(datasets=[1]), "$.datasets[0]", "expected an object"),
            (with_dataset(name=5), "$.datasets[0].name", "expected a string"),
            (with_dataset(origin=["unit", 1]), "$.datasets[0].origin[1]", "expected a string"),
            (with_dataset(features=["age"]), "$.datasets[0].features[0]", "expected an object"),
        ],
        ids=[
            "payload-not-an-object", "datasets-missing", "datasets-not-an-array", "dataset-not-an-object",
            "field-not-a-string", "origin-entry-not-a-string", "feature-not-an-object",
        ],
    )
    def test_wrong_json_shape_names_its_path(self, payload, path, message):
        with pytest.raises(SchemaViolation) as exc:
            catalog_from_dict(payload)
        assert (exc.value.path, str(exc.value)) == (path, f"{path}: {message}")

    def test_unknown_keys_rejected(self):
        payload = minimal()
        payload["extra"] = 1
        with pytest.raises(SchemaViolation):
            catalog_from_dict(payload)

    def test_missing_term_key_means_unannotated(self):
        ds = minimal()["datasets"][0]
        ds["features"] = [{"name": "free_text"}]
        catalog = catalog_from_dict(minimal(datasets=[ds]))
        assert catalog.dataset("D1").features[0].term is None

    def test_round_trip_is_a_fixed_point(self, toy_catalog):
        once = load_catalog(toy_catalog.dumps())
        assert once == toy_catalog
        assert load_catalog(once.dumps()) == once


class TestCoverageStats:
    def test_toy_counts(self, toy_catalog):
        stats = coverage_stats(toy_catalog)
        per = {c.dataset_id: c for c in stats.per_dataset}
        assert per["D1"].feature_count == 2 and per["D1"].annotated_count == 2
        assert per["DE"].annotated_count == 0
        assert per["D2"].coverage_fraction == 1.0
        assert stats.distinct_term_count == 3
        # alpha/alpha2/beta/gamma/note_id -> 5 distinct names
        assert stats.distinct_feature_name_count == 5
        assert stats.global_coverage_fraction == pytest.approx(4 / 5)

    def test_full_coverage_dataset(self):
        ds = {
            "id": "F",
            "name": "full",
            "origin": [],
            "category": "Survey",
            "features": [{"name": f"f{i}", "term": f"T{i}"} for i in range(11)],
        }
        stats = coverage_stats(catalog_from_dict(minimal(datasets=[ds])))
        assert stats.per_dataset[0].feature_count == 11
        assert stats.per_dataset[0].coverage_fraction == 1.0

    def test_zero_annotations_anywhere(self):
        ds = {
            "id": "Z",
            "name": "none",
            "origin": [],
            "category": "EHR",
            "features": [{"name": "a", "term": None}, {"name": "b", "term": None}],
        }
        stats = coverage_stats(catalog_from_dict(minimal(datasets=[ds])))
        assert stats.global_coverage_fraction == 0.0
        assert stats.distinct_term_count == 0

    def test_shared_name_counts_once_globally(self):
        d1 = {"id": "A", "name": "", "origin": [], "category": "EHR",
              "features": [{"name": "age", "term": "T1"}]}
        d2 = {"id": "B", "name": "", "origin": [], "category": "EHR",
              "features": [{"name": "age", "term": "T2"}]}
        stats = coverage_stats(catalog_from_dict(minimal(datasets=[d1, d2])))
        assert stats.distinct_feature_name_count == 1
        assert stats.distinct_term_count == 2

    def test_featureless_record_covers_zero(self):
        # the JSON schema rejects a dataset without features; a hand-built record can have none
        catalog = AnnotationCatalog("v", (
            DatasetRecord("A", "n", (), "EHR", ()),
            DatasetRecord("B", "n", (), "EHR", (FeatureRecord("f", "T1"),)),
        ))
        stats = coverage_stats(catalog)
        assert [(c.feature_count, c.coverage_fraction) for c in stats.per_dataset] == [(0, 0.0), (1, 1.0)]
        assert stats.global_coverage_fraction == 1.0


class TestTermFrequencyReport:
    def test_single_row(self):
        rows = term_frequency_report(catalog_from_dict(minimal()))
        assert len(rows) == 1
        assert (rows[0].term, rows[0].dataset_count, rows[0].unique_name_count) == ("T1", 1, 1)
        assert rows[0].example_names == ("age",)

    def test_sorting_and_tie_break(self):
        datasets = [
            {"id": "A", "name": "", "origin": [], "category": "EHR",
             "features": [{"name": "x", "term": "T9"}, {"name": "y", "term": "T2"}]},
            {"id": "B", "name": "", "origin": [], "category": "EHR",
             "features": [{"name": "x2", "term": "T9"}, {"name": "y2", "term": "T10"}]},
        ]
        rows = term_frequency_report(catalog_from_dict(minimal(datasets=datasets)))
        assert [r.term for r in rows] == ["T9", "T10", "T2"]  # count desc, then id asc

    def test_examples_cap_at_three(self):
        features = [{"name": f"name{i}", "term": "T1"} for i in range(5)]
        ds = {"id": "A", "name": "", "origin": [], "category": "EHR", "features": features}
        rows = term_frequency_report(catalog_from_dict(minimal(datasets=[ds])))
        assert rows[0].unique_name_count == 5
        assert rows[0].example_names == ("name0", "name1", "name2")

    def test_within_dataset_duplicates_count_one_dataset(self):
        ds = {"id": "A", "name": "", "origin": [], "category": "EHR",
              "features": [{"name": "tb", "term": "T1"}, {"name": "db", "term": "T1"}]}
        rows = term_frequency_report(catalog_from_dict(minimal(datasets=[ds])))
        assert rows[0].dataset_count == 1
        assert rows[0].unique_name_count == 2


class TestTermSet:
    def test_duplicates_collapse(self):
        ds = {"id": "A", "name": "", "origin": [], "category": "EHR",
              "features": [{"name": "age", "term": "T1"},
                           {"name": "Age quantile", "term": "T1"},
                           {"name": "sex", "term": "T2"}]}
        catalog = catalog_from_dict(minimal(datasets=[ds]))
        assert term_set(catalog, "A") == {"T1", "T2"}
        assert catalog.dataset("A").terms == ("T1", "T2")

    def test_unannotated_features_contribute_nothing(self, toy_catalog):
        assert term_set(toy_catalog, "DE") == frozenset()
        assert toy_catalog.dataset("DE").terms == ()

    def test_idempotent_under_feature_duplication(self):
        base = {"id": "A", "name": "", "origin": [], "category": "EHR",
                "features": [{"name": "age", "term": "T1"}]}
        more = dict(base, features=base["features"] + [{"name": "age2", "term": "T1"}])
        s1 = term_set(catalog_from_dict(minimal(datasets=[base])), "A")
        s2 = term_set(catalog_from_dict(minimal(datasets=[more])), "A")
        assert s1 == s2

    def test_unknown_dataset(self, toy_catalog):
        with pytest.raises(UnknownDataset):
            term_set(toy_catalog, "nope")

    def test_catalog_terms_sorted(self, toy_catalog):
        assert catalog_terms(toy_catalog) == ("a", "b", "c")


class TestSearchLabels:
    LABELS = {
        "100": ("Age", ["Patient age quantile"]),
        "200": ("Liver panel analyte", ["Total Bilirubin", "BIL"]),
        "300": ("Gender", ["sex"]),
        "400": ("Percentage of age group", []),
        "500": ("\u0130", []),  # İ lower-cases to two characters, "i\u0307"
    }

    def test_exact_match_ranks_first(self):
        matches = search_labels(self.LABELS, "age", 5)
        assert matches[0].term == "100"
        assert matches[0].score == 1.0
        # the score measures the lower-cased text the query was found in
        matches = search_labels(self.LABELS, "\u0130", 5)
        assert [(m.term, m.score) for m in matches] == [("500", 1.0)]
        for query in ("age", "e", "i", "\u0130"):
            assert all(m.score <= 1.0 for m in search_labels(self.LABELS, query, 10))

    def test_no_match(self):
        assert search_labels(self.LABELS, "zzz", 5) == []

    def test_match_via_synonym(self):
        matches = search_labels(self.LABELS, "bilirubin", 5)
        assert [m.term for m in matches] == ["200"]
        assert matches[0].label == "Liver panel analyte"
        assert matches[0].score < 1.0

    def test_prefix_beats_inner_substring(self):
        # both 100 and 400 contain "age"; the exact label wins, then prefix
        matches = search_labels(self.LABELS, "age", 5)
        assert [m.term for m in matches][:2] == ["100", "400"]

    def test_case_insensitive(self):
        assert search_labels(self.LABELS, "BIL", 1)[0].term == "200"
        assert search_labels(self.LABELS, "GENDER", 1)[0].term == "300"

    def test_k_limits_results(self):
        assert len(search_labels(self.LABELS, "e", 2)) == 2

    def test_empty_query_returns_nothing(self):
        assert search_labels(self.LABELS, "   ", 3) == []

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            search_labels(self.LABELS, "age", 0)


class TestHealthcareFixture:
    def test_table_shape(self, healthcare_catalog):
        stats = coverage_stats(healthcare_catalog)
        per = {c.dataset_id: (c.feature_count, c.annotated_count) for c in stats.per_dataset}
        assert per["15"] == (184, 175)
        assert per["6"] == (11, 11)
        assert len(per) == 16
        assert stats.distinct_term_count == 216
        assert stats.distinct_feature_name_count == 216

    def test_top_terms(self, healthcare_catalog):
        rows = term_frequency_report(healthcare_catalog)
        top = [(r.term, r.dataset_count, r.unique_name_count) for r in rows[:5]]
        assert top == [
            ("397669002", 15, 3),
            ("263495000", 11, 4),
            ("73211009", 6, 5),
            ("359986008", 5, 8),
            ("38341003", 5, 4),
        ]
