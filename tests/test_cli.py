"""Command-line surface: subcommands, formats, exit codes."""

import argparse
import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys

import pytest

from ontosim import SimilarityMatrix
from ontosim.cli import build_arg_parser, main
from ontosim.matrixio import read_matrix_csv
from conftest import FIXTURES, TOY_EDGES

TOY_EDGES_PATH = str(FIXTURES / "toy_edges.tsv")
TOY_LABELS_PATH = str(FIXTURES / "toy_labels.tsv")
TOY_CATALOG_PATH = str(FIXTURES / "toy_catalog.json")
MINI_OBO_PATH = str(FIXTURES / "mini.obo")
HC_CATALOG_PATH = str(FIXTURES / "healthcare_catalog.json")
HC_EDGES_PATH = str(FIXTURES / "healthcare_edges.tsv")
HC_LABELS_PATH = str(FIXTURES / "healthcare_labels.tsv")
README = FIXTURES.parents[1] / "README.md"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_kv_lines(out):
    values = {}
    for line in out.splitlines():
        if "=" in line and not line.startswith("#"):
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    return values


def top_level_keys(json_text):
    """Top-level keys in the order the text lists them (indent=2 output)."""
    return re.findall(r'^  "([^"]+)":', json_text, flags=re.MULTILINE)


def read_csv_rows(text):
    return list(csv.reader(line for line in io.StringIO(text) if not line.startswith("#")))


def subcommands(parser):
    """The subcommand name -> subparser map of a parser from build_arg_parser()."""
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


class TestValidate:
    def test_valid_edge_list(self, capsys):
        code, out, _ = run(capsys, "validate", "--ontology-edges", TOY_EDGES_PATH)
        assert code == 0
        assert "4 terms, 3 edges" in out

    def test_cycle_exits_2_and_prints_path(self, capsys, tmp_path):
        path = tmp_path / "cycle.tsv"
        path.write_text("a\tb\nb\ta\n", encoding="utf-8")
        code, _, err = run(capsys, "validate", "--ontology-edges", str(path))
        assert code == 2
        assert "->" in err

    def test_missing_file_exits_3(self, capsys, tmp_path):
        code, _, err = run(capsys, "validate", "--ontology-edges", str(tmp_path / "absent.tsv"))
        assert code == 3

    def test_malformed_file_exits_1(self, capsys, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("one two three\n", encoding="utf-8")
        code, _, _ = run(capsys, "validate", "--ontology-edges", str(path))
        assert code == 1

    def test_obo_source_counts_ignored_relations(self, capsys):
        code, out, _ = run(capsys, "validate", "--ontology-obo", MINI_OBO_PATH)
        assert code == 0
        assert "3 terms, 2 edges" in out
        assert "1 non-taxonomic relation(s) ignored" in out


class TestTermSim:
    def test_identity(self, capsys):
        code, out, _ = run(capsys, "term-sim", "b", "b", "--ontology-edges", TOY_EDGES_PATH)
        values = parse_kv_lines(out)
        assert code == 0
        assert values["sim(b->b)"] == "1.000000"
        assert values["sim[mean-of-directions]"] == "1.000000"

    def test_toy_pair_reports_both_directions_and_components(self, capsys):
        code, out, _ = run(capsys, "term-sim", "b", "c", "--ontology-edges", TOY_EDGES_PATH)
        values = parse_kv_lines(out)
        assert code == 0
        assert values["theta(b)"] == "3"
        assert values["theta(c)"] == "2"
        assert values["psi(b,c)"] == "1"
        assert values["sim(b->c)"] == "0.132159"
        assert values["sim(c->b)"] == "0.112994"
        assert values["sim[mean-of-directions]"] == "0.122576"
        assert "# ontology_version: unspecified" in out

    def test_as_printed_policy(self, capsys):
        code, out, _ = run(
            capsys, "term-sim", "b", "c", "--ontology-edges", TOY_EDGES_PATH, "--symmetrize", "as-printed"
        )
        assert parse_kv_lines(out)["sim[as-printed]"] == "0.132159"

    def test_unknown_term_exits_4(self, capsys):
        code, _, err = run(capsys, "term-sim", "b", "zz", "--ontology-edges", TOY_EDGES_PATH)
        assert code == 4
        assert "zz" in err

    def test_obo_parse_warning_explains_an_unknown_term(self, capsys):
        code, out, err = run(capsys, "term-sim", "X:900", "X:001", "--ontology-obo", MINI_OBO_PATH)
        assert (code, out) == (4, "")
        assert err == "warning: line 20: skipped obsolete term X:900\nerror: unknown term id(s): 'X:900'\n"

    def test_obo_comments_and_modifiers_give_the_edge_list_graph(self, capsys, tmp_path):
        # the toy graph (b under a under r, c under r) written as decorated OBO
        obo = tmp_path / "toy.obo"
        obo.write_text(
            "format-version: 1.2\n\n[Term]\nid: r ! root\n\n"
            '[Term]\nid: a {created_by="x"}\nis_a: r {source="PMID:1"} ! root\n\n'
            "[Term]\nid: b ! leaf\nis_a: a {source=x, note=y}\n\n"
            "[Term]\nid: c {a=b} ! other leaf\nis_a: r ! root\n",
            encoding="utf-8",
        )
        expected = run(capsys, "term-sim", "b", "c", "--ontology-edges", TOY_EDGES_PATH)
        assert expected[0] == 0
        assert run(capsys, "term-sim", "b", "c", "--ontology-obo", str(obo)) == expected

    def test_custom_weights(self, capsys):
        code, out, _ = run(
            capsys, "term-sim", "b", "c", "--ontology-edges", TOY_EDGES_PATH,
            "--alpha", "0", "--beta", "0",
        )
        assert parse_kv_lines(out)["sim[mean-of-directions]"] == "1.000000"


class TestMatrix:
    def test_toy_csv(self, capsys):
        code, out, _ = run(
            capsys, "matrix", "--ontology-edges", TOY_EDGES_PATH, "--catalog", TOY_CATALOG_PATH
        )
        assert code == 0
        assert "# ontology_version: toy-1" in out
        rows = read_csv_rows(out)
        assert rows[0] == ["", "a", "b", "c"]
        body = {row[0]: row[1:] for row in rows[1:]}
        assert body["a"][0] == "1.000000"
        assert body["b"][2] == "0.122576"

    def test_distance_flag(self, capsys):
        code, out, _ = run(
            capsys, "matrix", "--ontology-edges", TOY_EDGES_PATH, "--catalog", TOY_CATALOG_PATH,
            "--distance",
        )
        rows = read_csv_rows(out)
        body = {row[0]: row[1:] for row in rows[1:]}
        assert body["a"][0] == "0.000000"
        assert body["b"][2] == "0.877424"

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, "matrix", "--ontology-edges", TOY_EDGES_PATH, "--catalog", TOY_CATALOG_PATH,
            "--format", "json",
        )
        payload = json.loads(out)
        assert payload["terms"] == ["a", "b", "c"]
        assert payload["ontology_version"] == "toy-1"
        assert payload["values"][0][0] == 1.0

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "matrix.csv"
        code, out, _ = run(
            capsys, "matrix", "--ontology-edges", TOY_EDGES_PATH, "--catalog", TOY_CATALOG_PATH,
            "--out", str(target),
        )
        assert code == 0
        assert out == ""
        assert target.read_text(encoding="utf-8").startswith("# ontology_version: toy-1")

    def test_healthcare_scale(self, capsys):
        code, out, _ = run(
            capsys, "matrix", "--ontology-edges", HC_EDGES_PATH, "--catalog", HC_CATALOG_PATH
        )
        rows = read_csv_rows(out)
        assert len(rows[0]) == 217  # label column + 216 terms
        assert len(rows) == 217

    def test_catalog_without_annotations_exits_5(self, capsys, tmp_path):
        catalog = {
            "ontology_version": "x",
            "datasets": [{
                "id": "D", "name": "", "origin": [], "category": "EHR",
                "features": [{"name": "f1", "term": None}],
            }],
        }
        path = tmp_path / "cat.json"
        path.write_text(json.dumps(catalog), encoding="utf-8")
        code, _, _ = run(
            capsys, "matrix", "--ontology-edges", TOY_EDGES_PATH, "--catalog", str(path)
        )
        assert code == 5

    def test_unresolved_terms_listed_at_once(self, capsys, tmp_path):
        catalog = {
            "ontology_version": "x",
            "datasets": [{
                "id": "D", "name": "", "origin": [], "category": "EHR",
                "features": [{"name": "f1", "term": "ghost1"}, {"name": "f2", "term": "ghost2"}],
            }],
        }
        path = tmp_path / "cat.json"
        path.write_text(json.dumps(catalog), encoding="utf-8")
        code, _, err = run(
            capsys, "matrix", "--ontology-edges", TOY_EDGES_PATH, "--catalog", str(path)
        )
        assert code == 4
        assert "ghost1" in err and "ghost2" in err


class TestDoss:
    def test_same_dataset_twice(self, capsys):
        code, out, _ = run(
            capsys, "doss", "D1", "D1", "--ontology-edges", TOY_EDGES_PATH,
            "--catalog", TOY_CATALOG_PATH,
        )
        assert code == 0
        assert "doss(D1|D1) = 1.000000" in out

    def test_subset_fixture_is_asymmetric(self, capsys):
        code, out, _ = run(
            capsys, "doss", "DS", "D1", "--ontology-edges", TOY_EDGES_PATH,
            "--catalog", TOY_CATALOG_PATH,
        )
        assert "doss(DS|D1) = 1.000000" in out
        code, out, _ = run(
            capsys, "doss", "D1", "DS", "--ontology-edges", TOY_EDGES_PATH,
            "--catalog", TOY_CATALOG_PATH,
        )
        assert "= 1.000000" not in out

    def test_toy_value(self, capsys):
        code, out, _ = run(
            capsys, "doss", "D1", "D2", "--ontology-edges", TOY_EDGES_PATH,
            "--catalog", TOY_CATALOG_PATH,
        )
        assert "doss(D1|D2) = 0.133752" in out

    def test_verbose_lists_best_matches(self, capsys):
        _, out, _ = run(
            capsys, "doss", "D1", "D2", "--ontology-edges", TOY_EDGES_PATH,
            "--catalog", TOY_CATALOG_PATH, "--verbose",
        )
        assert "a -> c" in out
        assert "b -> c" in out

    def test_json_output(self, capsys):
        _, out, _ = run(
            capsys, "doss", "D1", "D2", "--ontology-edges", TOY_EDGES_PATH,
            "--catalog", TOY_CATALOG_PATH, "--format", "json",
        )
        payload = json.loads(out)
        assert payload["direction"] == {"source": "D1", "reference": "D2"}
        assert payload["value"] == 0.133752
        assert payload["aggregator"] == "mean"
        assert payload["symmetrization"] == "mean-of-directions"
        assert (payload["alpha"], payload["beta"]) == (7.9, 3.9)
        assert len(payload["best_matches"]) == 2

    def test_empty_term_set_exits_5_naming_dataset(self, capsys):
        code, _, err = run(
            capsys, "doss", "DE", "D1", "--ontology-edges", TOY_EDGES_PATH,
            "--catalog", TOY_CATALOG_PATH,
        )
        assert code == 5
        assert "DE" in err

    def test_unknown_dataset_exits_4(self, capsys):
        code, _, _ = run(
            capsys, "doss", "D1", "nope", "--ontology-edges", TOY_EDGES_PATH,
            "--catalog", TOY_CATALOG_PATH,
        )
        assert code == 4

    def test_aggregator_flag(self, capsys):
        _, out_min, _ = run(
            capsys, "doss", "D1", "D2", "--ontology-edges", TOY_EDGES_PATH,
            "--catalog", TOY_CATALOG_PATH, "--agg", "min",
        )
        assert "doss(D1|D2) = 0.122576" in out_min


class TestDossMatrixCmd:
    def test_csv_output_and_exclusions(self, capsys):
        code, out, err = run(
            capsys, "doss-matrix", "--ontology-edges", TOY_EDGES_PATH,
            "--catalog", TOY_CATALOG_PATH,
        )
        assert code == 0
        assert "excluded (no annotated terms): DE" in err
        rows = read_csv_rows(out)
        assert rows[0] == ["", "D1", "D2", "DS"]
        body = {row[0]: row[1:] for row in rows[1:]}
        assert body["D1"][0] == "1.000000"
        assert body["DS"][0] == "1.000000"  # containment
        assert body["D1"][2] != "1.000000"

    def test_obo_source_prints_parse_warnings_first(self, capsys, tmp_path):
        # mini.obo as an edge list: X:003 -> X:002 -> X:001, obsolete X:900 left out
        edges, catalog = tmp_path / "mini.tsv", tmp_path / "cat.json"
        edges.write_text("X:002\tX:001\nX:003\tX:002\n", encoding="utf-8")
        features = {"A": ["X:001", "X:003"], "B": ["X:002"], "C": ["X:003"], "E": [None]}
        catalog.write_text(json.dumps({"ontology_version": "mini-1", "datasets": [
            {"id": ds, "name": ds, "origin": [], "category": "EHR",
             "features": [{"name": f"f{i}", "term": term} for i, term in enumerate(terms)]}
            for ds, terms in features.items()
        ]}), encoding="utf-8")
        expected = run(capsys, "doss-matrix", "--ontology-edges", str(edges), "--catalog", str(catalog))
        assert expected[0] == 0
        assert expected[2] == "excluded (no annotated terms): E\n"
        code, out, err = run(capsys, "doss-matrix", "--ontology-obo", MINI_OBO_PATH, "--catalog", str(catalog))
        assert (code, out) == expected[:2]
        assert err == "warning: line 20: skipped obsolete term X:900\n" + expected[2]

    def test_json_output(self, capsys):
        _, out, _ = run(
            capsys, "doss-matrix", "--ontology-edges", TOY_EDGES_PATH,
            "--catalog", TOY_CATALOG_PATH, "--format", "json", "--alpha", "2", "--beta", "0.5",
        )
        payload = json.loads(out)
        assert payload["dataset_ids"] == ["D1", "D2", "DS"]
        assert payload["excluded"] == ["DE"]
        assert (payload["alpha"], payload["beta"]) == (2.0, 0.5)


class TestScoringJsonKeyOrder:
    """The stamp appends to each payload; keys it shares keep their place."""

    def test_matrix(self, capsys):
        _, out, _ = run(
            capsys, "matrix", "--ontology-edges", TOY_EDGES_PATH, "--catalog", TOY_CATALOG_PATH,
            "--format", "json", "--distance",
        )
        assert top_level_keys(out) == [
            "terms", "values", "ontology_version", "alpha", "beta", "symmetrization", "kind",
        ]
        assert '\n  "kind": "distance"\n}\n' in out

    def test_doss_matrix(self, capsys):
        _, out, _ = run(
            capsys, "doss-matrix", "--ontology-edges", TOY_EDGES_PATH, "--catalog", TOY_CATALOG_PATH,
            "--format", "json", "--agg", "max",
        )
        assert top_level_keys(out) == [
            "dataset_ids", "values", "aggregator", "symmetrization", "excluded", "ontology_version", "alpha", "beta",
        ]
        assert '\n  "aggregator": "max",\n  "symmetrization": "mean-of-directions",\n' in out

    def test_doss(self, capsys):
        _, out, _ = run(
            capsys, "doss", "D1", "D2", "--ontology-edges", TOY_EDGES_PATH, "--catalog", TOY_CATALOG_PATH,
            "--format", "json", "--symmetrize", "as-printed",
        )
        assert top_level_keys(out) == [
            "direction", "aggregator", "symmetrization", "value", "best_matches", "ontology_version", "alpha", "beta",
        ]
        assert '\n  "symmetrization": "as-printed",\n' in out


class TestStatsAndTerms:
    def test_stats_reproduces_catalog_counts(self, capsys):
        code, out, _ = run(capsys, "stats", "--catalog", HC_CATALOG_PATH)
        assert code == 0
        rows = read_csv_rows(out)
        header = rows[0]
        by_name = {row[header.index("name")]: row for row in rows[1:]}
        meta = by_name["metaMIMIC"]
        assert meta[header.index("feature_count")] == "184"
        assert meta[header.index("annotated_count")] == "175"
        stroke = by_name["Stroke Prediction"]
        assert stroke[header.index("feature_count")] == "11"
        assert stroke[header.index("annotated_count")] == "11"
        assert "# distinct_feature_names: 216" in out
        assert "# distinct_terms: 216" in out

    def test_stats_json(self, capsys):
        _, out, _ = run(capsys, "stats", "--catalog", TOY_CATALOG_PATH, "--format", "json")
        payload = json.loads(out)
        assert payload["ontology_version"] == "toy-1"
        assert payload["global"]["distinct_terms"] == 3

    def test_terms_report(self, capsys):
        code, out, _ = run(capsys, "terms", "--catalog", HC_CATALOG_PATH, "--top", "2")
        rows = read_csv_rows(out)
        assert rows[1][0] == "397669002" and rows[1][1] == "15"
        assert rows[2][0] == "263495000" and rows[2][1] == "11"

    def test_terms_json_lists_the_csv_rows(self, capsys):
        argv = ("terms", "--catalog", HC_CATALOG_PATH, "--top", "3")
        _, csv_out, _ = run(capsys, *argv)
        code, out, err = run(capsys, *argv, "--format", "json")
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert list(payload) == ["ontology_version", "terms"]
        assert f"# ontology_version: {payload['ontology_version']}\n" in csv_out
        rows = [
            [row["term"], str(row["dataset_count"]), str(row["unique_name_count"]), ", ".join(row["example_names"])]
            for row in payload["terms"]
        ]
        assert rows == read_csv_rows(csv_out)[1:]
        assert len(rows) == 3

    def test_terms_on_unannotated_catalog(self, capsys, tmp_path):
        catalog = {
            "ontology_version": "x",
            "datasets": [{
                "id": "D", "name": "empty", "origin": [], "category": "EHR",
                "features": [{"name": "f1", "term": None}],
            }],
        }
        path = tmp_path / "cat.json"
        path.write_text(json.dumps(catalog), encoding="utf-8")
        code, out, _ = run(capsys, "terms", "--catalog", str(path))
        assert code == 0
        assert len(read_csv_rows(out)) == 1  # header only

    def test_schema_error_exits_1(self, capsys, tmp_path):
        path = tmp_path / "cat.json"
        path.write_text('{"ontology_version": "x", "datasets": [{"id": "D"}]}', encoding="utf-8")
        code, _, err = run(capsys, "stats", "--catalog", str(path))
        assert code == 1
        assert "$" in err

    @pytest.mark.parametrize("field", ["id", "name"])
    def test_whitespace_only_catalog_string_exits_1(self, capsys, tmp_path, field):
        dataset = {"id": "D", "name": "d", "origin": [], "category": "EHR",
                   "features": [{"name": "age", "term": None}]}
        target = dataset if field == "id" else dataset["features"][0]
        target[field] = "  "
        path = tmp_path / "cat.json"
        path.write_text(json.dumps({"ontology_version": "x", "datasets": [dataset]}), encoding="utf-8")
        code, out, err = run(capsys, "stats", "--catalog", str(path))
        assert (code, out) == (1, "")
        assert "must not be only whitespace" in err


class TestSearch:
    def test_exact_label_first(self, capsys):
        code, out, _ = run(capsys, "search", "age", "--labels", HC_LABELS_PATH, "--top", "3")
        assert code == 0
        first = out.splitlines()[0].split("\t")
        assert first[0] == "397669002"
        assert first[1] == "Age"

    def test_no_match_is_empty_and_ok(self, capsys):
        code, out, _ = run(capsys, "search", "xylophone", "--labels", HC_LABELS_PATH)
        assert code == 0
        assert out == ""

    def test_synonym_match(self, capsys):
        code, out, _ = run(capsys, "search", "BIL", "--labels", TOY_LABELS_PATH, "--top", "2")
        lines = out.splitlines()
        assert lines[0].split("\t")[0] == "a"
        assert lines[0].split("\t")[1] == "Liver panel analyte"

    def test_obo_labels_source(self, capsys):
        code, out, _ = run(capsys, "search", "middle", "--ontology-obo", MINI_OBO_PATH)
        assert code == 0
        assert out.splitlines()[0].split("\t")[0] == "X:002"

    def test_obo_synonym_with_escaped_quotes(self, capsys, tmp_path):
        path = tmp_path / "quoted.obo"
        path.write_text('[Term]\nid: X:1\nname: root\nsynonym: "a \\"quoted\\" word" EXACT []\n', encoding="utf-8")
        code, out, err = run(capsys, "search", "quoted", "--ontology-obo", str(path))
        assert (code, out, err) == (0, "X:1\troot\t0.400000\n", "")

    def test_obo_source_prints_parse_warnings(self, capsys):
        code, out, err = run(capsys, "search", "thing", "--ontology-obo", MINI_OBO_PATH)
        assert code == 0
        assert out == (
            "X:001\troot thing\t0.500000\n"
            "X:003\tleaf thing\t0.500000\n"
            "X:002\tmiddle thing\t0.416667\n"
        )
        assert err == "warning: line 20: skipped obsolete term X:900\n"

    def test_requires_a_label_source(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["search", "age"])
        assert exc.value.code == 64

    def test_labels_tsv_alone_feeds_search(self, capsys):
        _, out, _ = run(
            capsys, "search", "gender", "--labels", TOY_LABELS_PATH,
        )
        assert out.splitlines()[0].split("\t")[0] == "c"

    def test_prints_duplicate_label_warning(self, capsys, tmp_path):
        path = tmp_path / "dup.tsv"
        path.write_text("a\tfirst\na\tsecond\n", encoding="utf-8")
        code, out, err = run(capsys, "search", "second", "--labels", str(path))
        assert code == 0
        assert out.startswith("a\tsecond\t")
        assert err == "warning: line 2: duplicate label entry for a; keeping the later one\n"

    def test_rejects_malformed_labels_with_line_number(self, capsys, tmp_path):
        path = tmp_path / "malformed.tsv"
        path.write_text("a\tAge\nb\t\n", encoding="utf-8")
        code, out, err = run(capsys, "search", "a", "--labels", str(path))
        assert (code, out) == (1, "")
        assert err == "error: line 2: expected id<TAB>label[<TAB>synonym]*, got 'b\\t'\n"

    # the graph is built only to check the OBO: a DAG with unique ids
    @pytest.mark.parametrize(
        "text, expected",
        [
            ("[Term]\nid: X:1\nis_a: X:2\n\n[Term]\nid: X:2\nis_a: X:1\n", 2),
            ("[Term]\nid: X:1\nname: one\n\n[Term]\nid: X:1\nname: again\n", 1),
        ],
        ids=["cycle", "duplicate-id"],
    )
    def test_obo_source_is_checked(self, capsys, tmp_path, text, expected):
        path = tmp_path / "bad.obo"
        path.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "search", "one", "--ontology-obo", str(path))
        assert (code, out) == (expected, "")
        assert err.startswith("error: ")


class TestPinnedOutput:
    """The healthcare matrices' stdout, byte for byte: a faster kernel, DOSS
    fold or writer must not move a single character."""

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (["matrix"], "fdcf38edcd0243ff906ce71578740891abde8fdafaf95271faa9bb0e6006e599"),
            (["doss-matrix"], "448309ea3b4498b88a20b881f36eaf4172b2f2c00b6c307ac1ab643dae09f12b"),
            (
                ["matrix", "--symmetrize", "as-printed", "--alpha", "2", "--beta", "0.5"],
                "7461ae08774edbbf2c8abf8f5aaf8701cce35203bf855300b664b4492824e2ab",
            ),
            (
                ["doss-matrix", "--symmetrize", "as-printed"],
                "4f447c93fc359239f887b0c348e0b144f02329f14872b25bc42141b284f8966c",
            ),
        ],
        ids=["matrix", "doss-matrix", "matrix-as-printed-2-0.5", "doss-matrix-as-printed"],
    )
    def test_healthcare_stdout_sha256(self, capsys, argv, digest):
        code, out, err = run(capsys, *argv, "--ontology-edges", HC_EDGES_PATH, "--catalog", HC_CATALOG_PATH)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


ONTOLOGY = ["--ontology-edges", "--ontology-obo"]
SCORING = ["--alpha", "--beta", "--symmetrize", "--ontology-version"]
OUTPUT = ["--format", "--out"]


class TestOptionSurface:
    """Each subcommand accepts exactly the options it reads."""

    EXPECTED = {
        "validate": ONTOLOGY,
        "term-sim": ONTOLOGY + SCORING,
        "matrix": ONTOLOGY + SCORING + OUTPUT + ["--catalog", "--distance"],
        "doss": ONTOLOGY + SCORING + ["--catalog", "--agg", "--format", "--verbose"],
        "doss-matrix": ONTOLOGY + SCORING + OUTPUT + ["--catalog", "--agg"],
        "stats": ["--catalog"] + OUTPUT,
        "terms": ["--catalog", "--top"] + OUTPUT,
        "search": ["--labels", "--ontology-obo", "--top"],
    }

    @staticmethod
    def surface():
        """Sorted option strings per subcommand, as the parser accepts them."""
        return {
            name: sorted(
                option
                for action in command._actions
                if not isinstance(action, argparse._HelpAction)
                for option in action.option_strings
            )
            for name, command in subcommands(build_arg_parser()).items()
        }

    def test_options_per_subcommand(self):
        assert self.surface() == {name: sorted(options) for name, options in self.EXPECTED.items()}

    def test_readme_flag_list_matches_parser(self):
        # the paragraph that defines ONTOLOGY and SCORING, then one bullet per command
        section = README.read_text(encoding="utf-8").split("Flags per command", 1)[1]
        definitions, bullets = section.split("\n\n")[:2]
        flags = re.compile(r"--[a-z][a-z-]*")
        macros = {
            name: flags.findall(body)
            for name, body in re.findall(r"`([A-Z]+)` is (.*?)(?:;|\):)", definitions, flags=re.DOTALL)
        }
        assert sorted(macros) == ["ONTOLOGY", "SCORING"]
        documented = {}
        for bullet in bullets.split("\n- "):
            command, *items = re.findall(r"`([^`]+)`", bullet)
            documented[command] = sorted(flag for item in items for flag in macros.get(item) or flags.findall(item))
        assert documented == self.surface()

    @pytest.mark.parametrize(
        "argv",
        [
            ["validate", "--ontology-edges", TOY_EDGES_PATH, "--labels", TOY_LABELS_PATH],
            ["validate", "--ontology-edges", TOY_EDGES_PATH, "--ontology-version", "v"],
            ["term-sim", "b", "c", "--ontology-edges", TOY_EDGES_PATH, "--labels", TOY_LABELS_PATH],
            ["matrix", "--ontology-edges", TOY_EDGES_PATH, "--catalog", TOY_CATALOG_PATH, "--labels", TOY_LABELS_PATH],
            ["doss", "D1", "D2", "--ontology-edges", TOY_EDGES_PATH, "--catalog", TOY_CATALOG_PATH,
             "--labels", TOY_LABELS_PATH],
            ["doss-matrix", "--ontology-edges", TOY_EDGES_PATH, "--catalog", TOY_CATALOG_PATH,
             "--labels", TOY_LABELS_PATH],
            ["search", "a", "--ontology-edges", TOY_EDGES_PATH],
            ["search", "a", "--labels", TOY_LABELS_PATH, "--ontology-version", "v"],
            ["search", "a", "--labels", TOY_LABELS_PATH, "--ontology-obo", MINI_OBO_PATH],
            ["matrix", "--ontology-edges", TOY_EDGES_PATH, "--catalog", TOY_CATALOG_PATH, "--workers", "2"],
            ["doss-matrix", "--ontology-edges", TOY_EDGES_PATH, "--catalog", TOY_CATALOG_PATH, "--workers", "2"],
        ],
        ids=[
            "validate-labels", "validate-version", "term-sim-labels", "matrix-labels", "doss-labels",
            "doss-matrix-labels", "search-edges", "search-version", "search-both-sources",
            "matrix-workers", "doss-matrix-workers",
        ],
    )
    def test_unread_option_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 64
        assert capsys.readouterr().out == ""


class TestUsageErrors:
    def test_missing_ontology_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["term-sim", "a", "b"])
        assert exc.value.code == 64

    def test_both_ontology_flags_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([
                "validate", "--ontology-edges", TOY_EDGES_PATH, "--ontology-obo", MINI_OBO_PATH,
            ])
        assert exc.value.code == 64

    def test_negative_alpha_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["term-sim", "a", "b", "--ontology-edges", TOY_EDGES_PATH, "--alpha", "-1"])
        assert exc.value.code == 64

    @pytest.mark.parametrize("flag", ["--alpha", "--beta"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_weight_rejected(self, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["term-sim", "b", "c", "--ontology-edges", TOY_EDGES_PATH, flag, value])
        assert exc.value.code == 64
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("flag", ["--alpha", "--beta"])
    @pytest.mark.parametrize("value", ["1e308", "1e-300", "-1", "nan"])
    def test_weight_outside_the_domain_rejected(self, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["term-sim", "b", "c", "--ontology-edges", TOY_EDGES_PATH, flag, value])
        assert exc.value.code == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be 0 or in [1e-06, 1e+06]" in captured.err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["term-sim", "b", "c", "--ontology-edges", TOY_EDGES_PATH, "--alpha", "abc"],
             "argument --alpha: not a number: 'abc'"),
            (["terms", "--catalog", TOY_CATALOG_PATH, "--top", "x"], "argument --top: not an integer: 'x'"),
            (["terms", "--catalog", TOY_CATALOG_PATH, "--top", "0"], "argument --top: must be >= 1"),
        ],
        ids=["alpha-not-a-number", "top-not-an-integer", "top-zero"],
    )
    def test_bad_option_value_names_the_option(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"error: {message}\n")

    @pytest.mark.parametrize("value", ["1e-6", "1e6"])
    def test_domain_end_points_accepted(self, capsys, value):
        code, out, _ = run(
            capsys, "term-sim", "b", "c", "--ontology-edges", TOY_EDGES_PATH, "--alpha", value, "--beta", value,
        )
        assert code == 0
        assert f"# alpha: {float(value)}  beta: {float(value)}" in out


class TestSharedParser:
    """main() builds its parser once per process and reuses it on every call."""

    SEQUENCE = [
        [],
        ["term-sim", "a"],
        ["validate", "--ontology-edges", TOY_EDGES_PATH],
        ["matrix", "--ontology-edges", TOY_EDGES_PATH, "--catalog", TOY_CATALOG_PATH, "--distance"],
        ["matrix", "--ontology-edges", TOY_EDGES_PATH, "--catalog", TOY_CATALOG_PATH],
        ["doss", "D1", "D2", "--ontology-edges", TOY_EDGES_PATH, "--catalog", TOY_CATALOG_PATH, "--format", "json"],
        ["doss", "D1", "D2", "--ontology-edges", TOY_EDGES_PATH, "--catalog", TOY_CATALOG_PATH],
        ["term-sim", "X:900", "X:001", "--ontology-obo", MINI_OBO_PATH],
    ]

    @staticmethod
    def fresh_env():
        src = str(FIXTURES.parents[1] / "src")
        return {**os.environ, "PYTHONPATH": src, "COLUMNS": "80"}

    def test_in_process_calls_match_fresh_processes(self, capsys, monkeypatch):
        # usage text wraps at the terminal width, so both sides get the same one
        monkeypatch.setenv("COLUMNS", "80")
        for argv in self.SEQUENCE:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            fresh = subprocess.run(
                [sys.executable, "-m", "ontosim.cli", *argv],
                env=self.fresh_env(), capture_output=True, text=True, timeout=60,
            )
            assert (code, captured.out, captured.err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv

    def test_import_builds_no_parser(self):
        probe = "import ontosim.cli as cli; print(cli._arg_parser.cache_info().currsize)"
        result = subprocess.run(
            [sys.executable, "-c", probe], env=self.fresh_env(), capture_output=True, text=True, timeout=60, check=True
        )
        assert result.stdout == "0\n"

    def test_no_option_default_is_mutable(self):
        parser = build_arg_parser()
        for command in (parser, *subcommands(parser).values()):
            defaults = [action.default for action in command._actions] + list(command._defaults.values())
            assert not any(isinstance(value, (list, dict, set)) for value in defaults), command.prog

    def test_extending_a_built_parser_leaves_main_unchanged(self, capsys):
        argv = ["validate", "--ontology-edges", TOY_EDGES_PATH]
        assert run(capsys, *argv)[0] == 0
        parser = build_arg_parser()
        assert parser is not build_arg_parser()
        subcommands(parser)["validate"].add_argument("--extra", action="store_true")
        assert parser.parse_args([*argv, "--extra"]).extra
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--extra"])
        assert exc.value.code == 64
        assert capsys.readouterr().out == ""


class TestOntologyVersionEcho:
    def test_flag_overrides_catalog(self, capsys):
        _, out, _ = run(
            capsys, "matrix", "--ontology-edges", TOY_EDGES_PATH, "--catalog", TOY_CATALOG_PATH,
            "--ontology-version", "release-7",
        )
        assert "# ontology_version: release-7" in out

    def test_flag_with_a_line_break_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([
                "matrix", "--ontology-edges", TOY_EDGES_PATH, "--catalog", TOY_CATALOG_PATH,
                "--ontology-version", "rel-1\nb,c",
            ])
        assert exc.value.code == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must not contain a line break" in captured.err

    def test_catalog_value_with_a_line_break_rejected(self, capsys, tmp_path):
        # a line break would split the CSV comment line into a bare "b,c" row
        catalog = json.loads((FIXTURES / "toy_catalog.json").read_text(encoding="utf-8"))
        catalog["ontology_version"] = "rel-1\nb,c"
        path = tmp_path / "cat.json"
        path.write_text(json.dumps(catalog), encoding="utf-8")
        code, out, err = run(capsys, "matrix", "--ontology-edges", TOY_EDGES_PATH, "--catalog", str(path))
        assert (code, out) == (1, "")
        assert err == "error: $.ontology_version: must not contain a line break\n"



class TestCsvQuoting:
    def test_carriage_return_in_a_dataset_id_is_quoted(self, capsys, tmp_path):
        # a JSON "\r" escape reaches the writers; csv left it bare, so the
        # matrix did not read back
        catalog = json.loads((FIXTURES / "toy_catalog.json").read_text(encoding="utf-8"))
        catalog["datasets"][0]["id"] = "x\ry"
        path, target = tmp_path / "cat.json", tmp_path / "doss.csv"
        path.write_text(json.dumps(catalog), encoding="utf-8")
        code, out, err = run(
            capsys, "doss-matrix", "--ontology-edges", TOY_EDGES_PATH, "--catalog", str(path), "--out", str(target)
        )
        assert (code, out, err) == (0, "", "excluded (no annotated terms): DE\n")
        # newline="" as documented: a default open() would hand the reader
        # "x\ny", translating the quoted "\r" before csv sees it
        with open(target, encoding="utf-8", newline="") as fh:
            labels, values = read_matrix_csv(fh)
        assert labels == ("x\ry", "D2", "DS")
        assert values[0][0] == 1.0
        with open(target, encoding="utf-8", newline="") as fh:
            assert SimilarityMatrix.from_csv(fh).terms == labels
        code, out, _ = run(capsys, "stats", "--catalog", str(path))
        assert code == 0
        assert '\n"x\ry",pair,unit,EHR,' in out
        assert read_csv_rows(out)[1][0] == "x\ry"

class TestInputEncoding:
    @pytest.mark.parametrize(
        "argv, flag, text",
        [
            # the BOM used to stick to the first id: theta(a) read 1, exit 0
            (["term-sim", "a", "b"], "--ontology-edges", "".join(f"{c}\t{p}\n" for c, p in TOY_EDGES)),
            (["stats"], "--catalog", (FIXTURES / "toy_catalog.json").read_text(encoding="utf-8")),
        ],
        ids=["edge-list", "catalog"],
    )
    def test_utf8_bom_reads_like_plain_utf8(self, capsys, tmp_path, argv, flag, text):
        plain, bom = tmp_path / "plain", tmp_path / "bom"
        plain.write_text(text, encoding="utf-8")
        bom.write_text(text, encoding="utf-8-sig")
        assert bom.read_bytes().startswith(b"\xef\xbb\xbf")
        expected = run(capsys, *argv, flag, str(plain))
        assert expected[0] == 0
        assert run(capsys, *argv, flag, str(bom)) == expected
