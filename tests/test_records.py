"""The contract of the public result records: construction, field order,
equality and hashing, repr, immutability and their methods' results."""

import hashlib
import inspect
import io

import pytest

from ontosim import (
    BestMatch,
    CoverageStats,
    DatasetCoverage,
    DossMatrix,
    DossResult,
    FeatureRecord,
    LabelMatch,
    ParseReport,
    SimilarityMatrix,
    TermUsage,
    catalog_from_dict,
    parse_edge_list,
    parse_obo_subset,
)
from ontosim.cli import main
from conftest import FIXTURES

MATCH = BestMatch("a", "b", 0.25)
COVERAGE = DatasetCoverage("d1", 4, 3, 0.75)
DOSS_MATRIX = DossMatrix(("1", "2"), ((1.0, 0.5), (0.25, 1.0)), "mean", "mean-of-directions", ("3",))
SIM_MATRIX = SimilarityMatrix(("a", "b,c"), ((1.0, 0.5), (0.25, 1.0)))

# (type, its fields in order, one instance's field values, that instance's repr)
RECORDS = [
    (FeatureRecord, ("name", "term"), ("age", "T1"), "FeatureRecord(name='age', term='T1')"),
    (
        DatasetCoverage,
        ("dataset_id", "feature_count", "annotated_count", "coverage_fraction"),
        ("d1", 4, 3, 0.75),
        "DatasetCoverage(dataset_id='d1', feature_count=4, annotated_count=3, coverage_fraction=0.75)",
    ),
    (
        CoverageStats,
        ("per_dataset", "distinct_feature_name_count", "distinct_term_count", "global_coverage_fraction"),
        ((COVERAGE,), 5, 2, 0.5),
        "CoverageStats(per_dataset=(DatasetCoverage(dataset_id='d1', feature_count=4, annotated_count=3, "
        "coverage_fraction=0.75),), distinct_feature_name_count=5, distinct_term_count=2, "
        "global_coverage_fraction=0.5)",
    ),
    (
        TermUsage,
        ("term", "dataset_count", "unique_name_count", "example_names"),
        ("T1", 2, 3, ("age", "years")),
        "TermUsage(term='T1', dataset_count=2, unique_name_count=3, example_names=('age', 'years'))",
    ),
    (
        LabelMatch,
        ("term", "label", "score"),
        ("T1", "blood pressure", 0.5),
        "LabelMatch(term='T1', label='blood pressure', score=0.5)",
    ),
    (
        BestMatch,
        ("source_term", "best_term", "similarity"),
        ("a", "b", 0.25),
        "BestMatch(source_term='a', best_term='b', similarity=0.25)",
    ),
    (
        DossResult,
        ("value", "source_id", "reference_id", "aggregator", "symmetrization", "best_matches"),
        (0.5, "1", "2", "mean", "mean-of-directions", (MATCH,)),
        "DossResult(value=0.5, source_id='1', reference_id='2', aggregator='mean', "
        "symmetrization='mean-of-directions', best_matches=(BestMatch(source_term='a', best_term='b', "
        "similarity=0.25),))",
    ),
    (
        DossMatrix,
        ("dataset_ids", "values", "aggregator", "symmetrization", "excluded"),
        (("1", "2"), ((1.0, 0.5), (0.25, 1.0)), "mean", "mean-of-directions", ("3",)),
        "DossMatrix(dataset_ids=('1', '2'), values=((1.0, 0.5), (0.25, 1.0)), aggregator='mean', "
        "symmetrization='mean-of-directions', excluded=('3',))",
    ),
    (
        SimilarityMatrix,
        ("terms", "values"),
        (("a", "b,c"), ((1.0, 0.5), (0.25, 1.0))),
        "SimilarityMatrix(terms=('a', 'b,c'), values=((1.0, 0.5), (0.25, 1.0)))",
    ),
]
IDS = [record[0].__name__ for record in RECORDS]


@pytest.mark.parametrize("cls, fields, values, text", RECORDS, ids=IDS)
class TestRecordContract:
    def test_fields_in_order(self, cls, fields, values, text):
        assert tuple(inspect.signature(cls).parameters) == fields

    def test_positional_and_keyword_construction(self, cls, fields, values, text):
        record = cls(*values)
        assert record == cls(**dict(zip(fields, values)))
        assert tuple(getattr(record, name) for name in fields) == values

    def test_equal_instances_hash_equal(self, cls, fields, values, text):
        first, second = cls(*values), cls(*values)
        assert first is not second
        assert first == second and hash(first) == hash(second)
        assert first != cls(*values[:-1], "other")

    def test_repr(self, cls, fields, values, text):
        assert repr(cls(*values)) == text

    def test_fields_cannot_be_assigned(self, cls, fields, values, text):
        record = cls(*values)
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
        assert tuple(getattr(record, name) for name in fields) == values


def test_defaults():
    # the one default among the records: a feature need not be annotated
    assert FeatureRecord("age") == FeatureRecord("age", None) == FeatureRecord(name="age")
    for cls, fields, _, _ in RECORDS:
        defaults = {name: p.default for name, p in inspect.signature(cls).parameters.items()}
        expected = {name: None if cls is FeatureRecord and name == "term" else inspect.Parameter.empty for name in fields}
        assert defaults == expected, cls.__name__


def test_doss_result_to_json_dict():
    result = DossResult(0.123456789, "1", "2", "median", "as-printed", (BestMatch("a", "b", 0.3333333333),))
    assert result.to_json_dict() == {
        "direction": {"source": "1", "reference": "2"},
        "aggregator": "median",
        "symmetrization": "as-printed",
        "value": 0.123457,
        "best_matches": [{"source_term": "a", "best_match": "b", "similarity": 0.333333}],
    }


def test_doss_matrix_to_json_dict_and_csv():
    assert DOSS_MATRIX.to_json_dict() == {
        "dataset_ids": ["1", "2"],
        "values": [[1.0, 0.5], [0.25, 1.0]],
        "aggregator": "mean",
        "symmetrization": "mean-of-directions",
        "excluded": ["3"],
    }
    out = io.StringIO()
    DOSS_MATRIX.to_csv(out)
    assert out.getvalue() == ",1,2\n1,1.000000,0.500000\n2,0.250000,1.000000\n"


def test_similarity_matrix_methods():
    assert SIM_MATRIX.to_json_dict() == {"terms": ["a", "b,c"], "values": [[1.0, 0.5], [0.25, 1.0]]}
    assert SIM_MATRIX.to_distance() == SimilarityMatrix(("a", "b,c"), ((0.0, 0.5), (0.75, 0.0)))
    assert type(SIM_MATRIX.to_distance()) is SimilarityMatrix
    out = io.StringIO()
    SIM_MATRIX.to_csv(out, {"alpha": 2.0})
    text = out.getvalue()
    assert text == '# alpha: 2.0\n,a,"b,c"\na,1.000000,0.500000\n"b,c",0.250000,1.000000\n'
    read = SimilarityMatrix.from_csv(io.StringIO(text, newline=""))
    assert type(read) is SimilarityMatrix
    assert read == SIM_MATRIX


def test_catalog_features_are_feature_records():
    payload = {
        "ontology_version": "v1",
        "datasets": [
            {"id": "1", "name": "one", "origin": [], "category": "EHR",
             "features": [{"name": "age", "term": "T1"}, {"name": "sex"}, {"name": "bmi", "term": None}]},
            {"id": "2", "name": "two", "origin": ["x"], "category": "Survey", "features": [{"name": "age", "term": "T1"}]},
        ],
    }
    catalog = catalog_from_dict(payload)
    features = [f for ds in catalog.datasets for f in ds.features]
    assert all(type(f) is FeatureRecord for f in features)
    assert [type(ds.features) for ds in catalog.datasets] == [tuple, tuple]
    assert features == [FeatureRecord("age", "T1"), FeatureRecord("sex"), FeatureRecord("bmi"), FeatureRecord("age", "T1")]
    assert catalog.datasets[0].terms == ("T1",)


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["terms", "--format", "json"], "dd66ef603effc977acb468dd68d55f412c805df9d784a003e7171c956cb14201"),
        (["stats", "--format", "json"], "f49c8cfa0572bff7973d06421a3c4ac039833d7949d3801c7adce71053b4e22f"),
    ],
    ids=["terms-json", "stats-json"],
)
def test_catalog_report_json_bytes(capsys, argv, digest):
    code = main([*argv, "--catalog", str(FIXTURES / "healthcare_catalog.json")])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert hashlib.sha256(captured.out.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize("cls, fields, values, text", RECORDS, ids=IDS)
def test_records_are_named_tuples(cls, fields, values, text):
    record = cls(*values)
    assert isinstance(record, tuple) and cls._fields == fields
    assert record == values and tuple(record) == values and record[0] == values[0]
    assert record._asdict() == dict(zip(fields, values))
    assert record._replace(**{fields[0]: "x"}) == cls("x", *values[1:])


PARSE_REPORT_FIELDS = ("term_count", "edge_count", "ignored_relation_count", "warnings")


def _edge_list_report():
    return parse_edge_list(["b\ta\n", "c\ta\n"])[2]


def test_parse_report_fields_in_order():
    assert tuple(inspect.signature(ParseReport).parameters) == PARSE_REPORT_FIELDS


def test_parse_report_repr_and_equality():
    report = _edge_list_report()
    assert repr(report) == "ParseReport(term_count=3, edge_count=2, ignored_relation_count=0, warnings=[])"
    assert report == _edge_list_report() and report is not _edge_list_report()


def test_parse_report_of_mini_obo():
    with open(FIXTURES / "mini.obo", encoding="utf-8") as fh:
        report = parse_obo_subset(fh)[3]
    assert (report.term_count, report.edge_count, report.ignored_relation_count) == (3, 2, 1)
    assert report.warnings == [(20, "skipped obsolete term X:900")]


def test_parse_report_is_an_immutable_named_tuple():
    report = _edge_list_report()
    for name in PARSE_REPORT_FIELDS:
        with pytest.raises(AttributeError):
            setattr(report, name, None)
    term_count, edge_count, ignored_relation_count, warnings = report
    assert (term_count, edge_count, ignored_relation_count, warnings) == (3, 2, 0, [])
    assert ParseReport._fields == PARSE_REPORT_FIELDS
    with pytest.raises(TypeError):
        ParseReport()  # no defaults: every parser builds its report complete
