"""Command-line surface: subcommands, formats, exit codes."""

import argparse
import csv
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys

import pytest

import ontosim.cli
from ontosim import (
    SimilarityMatrix,
    SimilarityParams,
    build_ontology,
    catalog_terms,
    load_catalog,
    pairwise_matrix,
    parse_edge_list,
    sim_rm,
    sim_rm_directed,
)
from ontosim import similarity
from ontosim.cli import EXIT_CODES, build_arg_parser, main
from ontosim.matrixio import read_matrix_csv
from conftest import FIXTURES, TOY_EDGES
from helpers import write_deep_inputs

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


def write_catalog(path, terms):
    """A one-dataset catalog at ``path`` with one feature per term (None: unannotated)."""
    features = [{"name": f"f{i}", "term": term} for i, term in enumerate(terms)]
    dataset = {"id": "D", "name": "", "origin": [], "category": "EHR", "features": features}
    path.write_text(json.dumps({"ontology_version": "x", "datasets": [dataset]}), encoding="utf-8")
    return str(path)


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

    @pytest.mark.parametrize(
        "options, policy, alpha, beta",
        [
            ([], "mean-of-directions", 7.9, 3.9),
            (["--symmetrize", "as-printed"], "as-printed", 7.9, 3.9),
            (["--alpha", "2", "--beta", "0.5"], "mean-of-directions", 2.0, 0.5),
        ],
        ids=["mean", "as-printed", "weights"],
    )
    def test_scores_equal_the_library_kernel(self, capsys, healthcare_graph, healthcare_catalog, options, policy, alpha, beta):
        # term-sim scores the theta and psi it prints; the kernel scores them through sim_rows
        graph, params = healthcare_graph, SimilarityParams(alpha=alpha, beta=beta, symmetrization=policy)
        rng = random.Random(20)
        terms = catalog_terms(healthcare_catalog)
        pairs = [tuple(rng.sample(terms, 2)) for _ in range(5)] + [(terms[7], terms[7])]
        for t1, t2 in pairs:
            code, out, err = run(capsys, "term-sim", t1, t2, "--ontology-edges", HC_EDGES_PATH, *options)
            assert (code, err) == (0, "")
            assert parse_kv_lines(out) == {
                f"theta({t1})": str(graph.theta(t1)),
                f"theta({t2})": str(graph.theta(t2)),
                f"psi({t1},{t2})": str(graph.psi(t1, t2)),
                f"sim({t1}->{t2})": f"{sim_rm_directed(graph, params, t1, t2):.6f}",
                f"sim({t2}->{t1})": f"{sim_rm_directed(graph, params, t2, t1):.6f}",
                f"sim[{policy}]": f"{sim_rm(graph, params, t1, t2):.6f}",
            }


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

    @pytest.mark.parametrize("terms, expected", [(["a", "ghost", "b"], 4), ([None], 5)], ids=["unknown-term", "no-terms"])
    @pytest.mark.parametrize("options", [[], ["--distance"], ["--format", "json"]], ids=["csv", "distance", "json"])
    def test_failing_call_writes_nothing(self, capsys, tmp_path, terms, expected, options):
        # every id is resolved before the output is opened, so --out keeps its bytes and stdout stays empty
        inputs = ["--ontology-edges", TOY_EDGES_PATH, "--catalog", write_catalog(tmp_path / "cat.json", terms), *options]
        target = tmp_path / "matrix.csv"
        target.write_bytes(b"previous\r\ncontents")
        for out in (["--out", str(target)], []):
            code, stdout, err = run(capsys, "matrix", *inputs, *out)
            assert (code, stdout) == (expected, "")
            assert err.startswith("error: ")
            assert target.read_bytes() == b"previous\r\ncontents"


# (--distance, --format) of a matrix call; only the JSON cases' ids name the format
OUTPUTS = [(False, "csv"), (True, "csv"), (False, "json"), (True, "json")]
OUTPUT_IDS = ["similarity", "distance", "similarity-json", "distance-json"]


class TestStreamedMatrixCsv:
    """The CLI streams its matrix CSV and JSON from the kernel's cells; the
    bytes must be what the library's SimilarityMatrix.to_csv writes, and what
    json.dumps gives for its to_json_dict with the metadata."""

    @staticmethod
    def library_output(graph, params, terms, distance, fmt):
        matrix = pairwise_matrix(graph, params, terms)
        if distance:
            matrix = matrix.to_distance()
        metadata = {
            "ontology_version": "x", "alpha": params.alpha, "beta": params.beta,
            "symmetrization": params.symmetrization, "kind": "distance" if distance else "similarity",
        }
        if fmt == "json":
            return json.dumps({**matrix.to_json_dict(), **metadata}, indent=2) + "\n"
        buffer = io.StringIO()
        matrix.to_csv(buffer, metadata)
        return buffer.getvalue()

    @staticmethod
    def cli_output(capsys, catalog, params, distance, fmt, edges=HC_EDGES_PATH):
        policy = "mean" if params.symmetrization == "mean-of-directions" else "as-printed"
        code, out, err = run(
            capsys, "matrix", "--ontology-edges", edges, "--catalog", catalog, "--ontology-version", "x",
            "--alpha", str(params.alpha), "--beta", str(params.beta), "--symmetrize", policy, "--format", fmt,
            *(["--distance"] if distance else []),
        )
        assert (code, err) == (0, "")
        return out

    @pytest.mark.parametrize("distance, fmt", OUTPUTS, ids=OUTPUT_IDS)
    @pytest.mark.parametrize("policy", ["mean-of-directions", "as-printed"])
    @pytest.mark.parametrize("alpha, beta", [(7.9, 3.9), (2.0, 0.0), (0.0, 0.0), (1e-6, 1e6)])
    @pytest.mark.parametrize("block_rows", [None, 50], ids=["blocks-real", "blocks-50"])
    def test_healthcare_terms(
        self, capsys, monkeypatch, healthcare_graph, healthcare_catalog, distance, policy, alpha, beta, block_rows, fmt
    ):
        params = SimilarityParams(alpha=alpha, beta=beta, symmetrization=policy)
        # the library's matrix at the real block size; the CLI's, with 216 rows, in one block or five
        expected = self.library_output(healthcare_graph, params, catalog_terms(healthcare_catalog), distance, fmt)
        if block_rows is not None:
            monkeypatch.setattr(similarity, "BLOCK_ROWS", block_rows)
        assert self.cli_output(capsys, HC_CATALOG_PATH, params, distance, fmt) == expected

    @pytest.mark.parametrize("distance, fmt", OUTPUTS, ids=OUTPUT_IDS)
    @pytest.mark.parametrize("policy", ["mean-of-directions", "as-printed"])
    def test_one_term_catalog(self, capsys, tmp_path, healthcare_graph, healthcare_catalog, distance, policy, fmt):
        params = SimilarityParams(symmetrization=policy)
        term = catalog_terms(healthcare_catalog)[17]
        expected = self.library_output(healthcare_graph, params, [term], distance, fmt)
        assert self.cli_output(capsys, write_catalog(tmp_path / "cat.json", [term]), params, distance, fmt) == expected

    @pytest.mark.parametrize("distance, fmt", OUTPUTS, ids=OUTPUT_IDS)
    def test_ids_that_need_quoting_or_escaping(self, capsys, tmp_path, distance, fmt):
        # non-ASCII, a quote, a backslash and a comma: csv quotes some, json escapes all but the comma
        edges = [("caf\u00e9", "r"), ('say "hi"', "caf\u00e9"), ("back\\slash", "r"), ("a,b", 'say "hi"'), ("\u65e5\u672c", "a,b")]
        path = tmp_path / "edges.tsv"
        path.write_text("".join(f"{child}\t{parent}\n" for child, parent in edges), encoding="utf-8")
        terms = [child for child, _ in edges]
        graph = build_ontology(["r", *terms], edges)
        params = SimilarityParams()
        # the CLI's matrix holds the catalog's terms sorted ascending
        expected = self.library_output(graph, params, sorted(terms), distance, fmt)
        got = self.cli_output(capsys, write_catalog(tmp_path / "cat.json", terms), params, distance, fmt, str(path))
        assert got == expected


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

    @pytest.mark.parametrize("options", [[], ["--format", "json"]], ids=["csv", "json"])
    def test_no_scorable_dataset_exits_5_like_matrix(self, capsys, tmp_path, options):
        inputs = ["--ontology-edges", TOY_EDGES_PATH, "--catalog", write_catalog(tmp_path / "cat.json", [None]), *options]
        expected = run(capsys, "matrix", *inputs)
        assert expected == (5, "", "error: term list is empty after deduplication\n")
        assert run(capsys, "doss-matrix", *inputs) == expected

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
        # the second text nests deeper than the JSON decoder recurses
        for text in ('{"ontology_version": "x", "datasets": [{"id": "D"}]}', "[" * 100_000 + "]" * 100_000):
            path.write_text(text, encoding="utf-8")
            code, out, err = run(capsys, "stats", "--catalog", str(path))
            assert (code, out) == (1, "")
            assert err.startswith("error: $") and err.count("\n") == 1

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
    """The healthcare matrices' and one DOSS pair's stdout, and the deep
    fixture's matrices, byte for byte: a faster kernel, DOSS fold or writer
    must not move a single character."""

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
            (["doss", "1", "2", "--verbose"], "e27d0b3628d61c5f8af0a54f10b65ff65063b7a62cb81b1d5f91d78bc292317e"),
            (["doss", "1", "2", "--format", "json"], "1f4539d61f6c55d119ba5feb42652a257959f7ae288c741ebe158bbb0cd5d7d9"),
            (["matrix", "--distance"], "64780a95d04859914b18e3faa3cdb87bfefd18f0a9a4376d7deeb4abd413c972"),
            (["matrix", "--format", "json"], "fe702c75fb9ff04fac0adcce086e78b723bcfc642b55d3255f5b8a28d9adc8bd"),
            (["doss-matrix", "--agg", "median"], "7fefc90915dfbc9d9635611f118392b0d033261fe7d914af3b1c5d6878645559"),
            (["doss-matrix", "--agg", "min"], "32e011dae8f39932fdf1680d570528a0e60b7b91af0fa246d1d17b43839ce3cf"),
            (
                ["matrix", "--distance", "--symmetrize", "as-printed"],
                "b3d1534d7d20067b0b9ff0956d650824f6dde86e93e1014f2ae66bbd87f1db85",
            ),
            (["matrix", "--alpha", "0", "--beta", "0"], "7b2ec299b1d12dc675cb34ef720c9a23e0df038f938f776a04969700bc2716bf"),
            (
                ["matrix", "--format", "json", "--distance"],
                "c8b6a664c5eff28170777ca0564ea8f01ae88ab60e790b82562514b913d67f4a",
            ),
            (
                ["matrix", "--format", "json", "--symmetrize", "as-printed"],
                "994b6715a1b5a05c34a1ea3c1a31456d2576b4b54c9dc3455d2f32ba7a69d68c",
            ),
        ],
        ids=[
            "matrix", "doss-matrix", "matrix-as-printed-2-0.5", "doss-matrix-as-printed", "doss-verbose", "doss-json",
            "matrix-distance", "matrix-json", "doss-matrix-median", "doss-matrix-min",
            "matrix-distance-as-printed", "matrix-weights-0-0", "matrix-json-distance", "matrix-json-as-printed",
        ],
    )
    def test_healthcare_stdout_sha256(self, capsys, argv, digest):
        code, out, err = run(capsys, *argv, "--ontology-edges", HC_EDGES_PATH, "--catalog", HC_CATALOG_PATH)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (["matrix"], "f4c59bd94a65ca79d62b81d9ea13e925f49ca91a54a2a3e8c7415f072c32209d"),
            (["matrix", "--symmetrize", "as-printed"], "40c45d71e82d2236016edb28b261333bff4c4e327d95075204eef9aa69c52511"),
            (["doss-matrix"], "a7ed7a10e780b2910d11861dec048a432a6adb8d41f5a35a0feefd80ab72fccb"),
            (["doss-matrix", "--symmetrize", "as-printed"], "0157ba0ddfc498feec255473496e4610b8f47a47f5d4a4a3361f9b14667d850e"),
        ],
        ids=["matrix", "matrix-as-printed", "doss-matrix", "doss-matrix-as-printed"],
    )
    def test_deep_stdout_sha256(self, capsys, tmp_path, argv, digest):
        # the healthcare thetas stay below 16; here some rows' reach 300, so the kernel packs wider fields
        edges, catalog = write_deep_inputs(tmp_path)
        with open(edges, encoding="utf-8") as fh:
            graph = build_ontology(*parse_edge_list(fh)[:2])
        with open(catalog, encoding="utf-8") as fh:
            thetas = sorted(map(graph.theta, catalog_terms(load_catalog(fh))))
        assert thetas[0] < 16 and thetas[-1] >= 2 ** 8
        code, out, err = run(capsys, *argv, "--ontology-edges", edges, "--catalog", catalog)
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

    def test_readme_and_docstring_exit_codes_match_the_table(self):
        expected = sorted([0, 64, *(code for _, code in EXIT_CODES)])
        table = README.read_text(encoding="utf-8").split("Exit codes:", 1)[1].split("\n\n")[1]
        listed = ontosim.cli.__doc__.split("Exit codes:", 1)[1].split("\n\n")[0]
        assert sorted(int(code) for code in re.findall(r"^\| (\d+) +\|", table, flags=re.MULTILINE)) == expected
        assert sorted(int(code) for code in re.findall(r"(?:^|;)\s*(\d+) ", listed)) == expected

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


# every writer that records the scoring stamp's version: its subcommand and
# options past the ontology, and whether it writes JSON (else a leading comment line)
VERSION_WRITERS = [
    (["term-sim", "a", "b"], False),
    (["matrix", "--catalog", TOY_CATALOG_PATH], False),
    (["matrix", "--catalog", TOY_CATALOG_PATH, "--format", "json"], True),
    (["doss", "D1", "D2", "--catalog", TOY_CATALOG_PATH], False),
    (["doss", "D1", "D2", "--catalog", TOY_CATALOG_PATH, "--format", "json"], True),
    (["doss-matrix", "--catalog", TOY_CATALOG_PATH], False),
    (["doss-matrix", "--catalog", TOY_CATALOG_PATH, "--format", "json"], True),
]
VERSION_WRITER_IDS = ["term-sim", "matrix-csv", "matrix-json", "doss-text", "doss-json", "doss-matrix-csv", "doss-matrix-json"]


class TestOntologyVersionEcho:
    @staticmethod
    def recorded_version(capsys, argv, is_json, version):
        code, out, _ = run(capsys, *argv, "--ontology-edges", TOY_EDGES_PATH, "--ontology-version", version)
        assert code == 0
        if is_json:
            return json.loads(out)["ontology_version"]
        first, _, _ = out.partition("\n")
        assert first.startswith("# ontology_version: ")
        return first.removeprefix("# ontology_version: ")

    @pytest.mark.parametrize("argv, is_json", VERSION_WRITERS, ids=VERSION_WRITER_IDS)
    def test_flag_overrides_catalog(self, capsys, argv, is_json):
        # the toy catalog records "toy-1"; term-sim, with no catalog, would record "unspecified"
        assert self.recorded_version(capsys, argv, is_json, "release-7") == "release-7"

    @pytest.mark.parametrize("argv, is_json", VERSION_WRITERS, ids=VERSION_WRITER_IDS)
    def test_empty_flag_is_recorded_as_given(self, capsys, argv, is_json):
        assert self.recorded_version(capsys, argv, is_json, "") == ""

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


class TestNegativeZeroWeights:
    @pytest.mark.parametrize(
        "argv",
        [
            ["term-sim", "b", "c"],
            ["matrix", "--catalog", TOY_CATALOG_PATH],
            ["matrix", "--catalog", TOY_CATALOG_PATH, "--format", "json"],
            ["doss", "D1", "D2", "--catalog", TOY_CATALOG_PATH, "--format", "json"],
            ["doss-matrix", "--catalog", TOY_CATALOG_PATH],
            ["doss-matrix", "--catalog", TOY_CATALOG_PATH, "--format", "json"],
        ],
        ids=["term-sim", "matrix-csv", "matrix-json", "doss-json", "doss-matrix-csv", "doss-matrix-json"],
    )
    def test_same_bytes_as_zero(self, capsys, argv):
        # the scores of -0 and 0 are equal, so the recorded weights must be too
        negative, positive = (
            run(capsys, *argv, "--ontology-edges", TOY_EDGES_PATH, "--alpha", zero, "--beta", zero)
            for zero in ("-0", "0")
        )
        assert negative[0] == 0
        assert negative == positive


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

    @pytest.mark.parametrize(
        "argv, flag, name, content",
        [
            (["validate"], "--ontology-edges", "edges.tsv", b"caf\xe9\tr\n"),
            (["validate"], "--ontology-obo", "terms.obo", b"[Term]\nid: caf\xe9\n"),
            (["search", "a"], "--labels", "labels.tsv", b"a\tcaf\xe9\n"),
            (["stats"], "--catalog", "catalog.json", (FIXTURES / "toy_catalog.json").read_bytes().replace(b"toy-1", b"caf\xe9")),
        ],
        ids=["edge-list", "obo", "labels", "catalog"],
    )
    def test_non_utf8_input_exits_1_naming_the_file(self, capsys, tmp_path, argv, flag, name, content):
        path = tmp_path / name
        path.write_bytes(content)
        assert run(capsys, *argv, flag, str(path)) == (1, "", f"error: {path}: not UTF-8 text\n")

    def test_stdout_is_utf8_whatever_the_stream_encoding(self, tmp_path):
        # an ASCII stdout used to end this call in a UnicodeEncodeError traceback
        labels = tmp_path / "labels.tsv"
        labels.write_text("a\tcafé\n", encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(FIXTURES.parents[1] / "src"), "PYTHONIOENCODING": "ascii"}
        result = subprocess.run(
            [sys.executable, "-m", "ontosim.cli", "search", "caf", "--labels", str(labels)],
            env=env, capture_output=True, timeout=60,
        )
        assert (result.returncode, result.stderr) == (0, b"")
        assert result.stdout == "a\tcafé\t0.750000\n".encode("utf-8")

    def test_stderr_is_utf8_whatever_the_stream_encoding(self):
        # an ASCII stderr used to print the id as 'caf\xe9'
        env = {**os.environ, "PYTHONPATH": str(FIXTURES.parents[1] / "src"), "PYTHONIOENCODING": "ascii"}
        result = subprocess.run(
            [sys.executable, "-m", "ontosim.cli", "doss", "café", "D1",
             "--ontology-edges", TOY_EDGES_PATH, "--catalog", TOY_CATALOG_PATH],
            env=env, capture_output=True, timeout=60,
        )
        assert (result.returncode, result.stdout) == (4, b"")
        assert result.stderr == "error: unknown dataset id: 'café'\n".encode("utf-8")


class TestFreshProcess:
    """Behaviour that only a fresh interpreter shows: the hash seed it drew,
    and the flush of stdout at its exit."""

    HC_INPUTS = ["--ontology-edges", HC_EDGES_PATH, "--catalog", HC_CATALOG_PATH]

    @staticmethod
    def command(*argv):
        return [sys.executable, "-m", "ontosim.cli", *argv]

    @pytest.mark.parametrize(
        "argv",
        [
            ["matrix", *HC_INPUTS],
            ["matrix", "--format", "json", *HC_INPUTS],
            ["doss-matrix", "--format", "json", *HC_INPUTS],
            ["doss", "1", "2", "--verbose", "--agg", "median", *HC_INPUTS],
            ["terms", "--format", "json", "--catalog", HC_CATALOG_PATH],
        ],
        ids=["matrix-csv", "matrix-json", "doss-matrix-json", "doss-verbose-median", "terms-json"],
    )
    def test_output_bytes_do_not_depend_on_the_hash_seed(self, argv):
        # set and dict order reach the kernel and the reports; the bytes must not show it
        outputs = [
            subprocess.run(
                self.command(*argv),
                env={**TestSharedParser.fresh_env(), "PYTHONHASHSEED": seed}, capture_output=True, timeout=60,
            )
            for seed in ("0", "1")
        ]
        assert [(r.returncode, r.stderr) for r in outputs] == [(0, b""), (0, b"")]
        assert outputs[0].stdout and outputs[0].stdout == outputs[1].stdout

    @pytest.mark.parametrize("fmt", [[], ["--format", "json"]], ids=["csv", "json"])
    def test_reader_closing_stdout_early_ends_the_call_quietly(self, fmt):
        # the healthcare matrix (about 424 KB) outgrows a 64 KiB pipe buffer, so the
        # writes always meet the closed pipe, whatever the timing
        proc = subprocess.Popen(
            self.command("matrix", *fmt, *self.HC_INPUTS),
            env=TestSharedParser.fresh_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        assert len(os.read(proc.stdout.fileno(), 1)) == 1
        proc.stdout.close()
        with proc.stderr:
            stderr = proc.stderr.read()
        assert (proc.wait(timeout=60), stderr) == (0, b"")

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs a named pipe")
    def test_out_whose_reader_closes_early_is_an_io_failure(self, tmp_path):
        # only stdout may be closed by its reader; a broken --out is still exit 3
        fifo = tmp_path / "out"
        os.mkfifo(fifo)
        # a non-blocking open returns at once, so a call that never opens --out cannot hang the test
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        proc = subprocess.Popen(
            self.command("matrix", *self.HC_INPUTS, "--out", str(fifo)),
            env=TestSharedParser.fresh_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        first = b""
        while not first and proc.poll() is None:
            try:
                first = os.read(reader, 1)  # b"" until the call opens the pipe
            except BlockingIOError:  # opened, nothing written yet
                pass
        os.close(reader)
        stdout, stderr = proc.communicate(timeout=60)
        assert (len(first), proc.returncode, stdout, stderr) == (1, 3, b"", b"error: [Errno 32] Broken pipe\n")
