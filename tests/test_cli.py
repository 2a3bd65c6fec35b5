"""Command-line surface: subcommands, formats, exit codes."""

import csv
import io
import json

import pytest

from ontosim.cli import main
from conftest import FIXTURES, TOY_EDGES

TOY_EDGES_PATH = str(FIXTURES / "toy_edges.tsv")
TOY_LABELS_PATH = str(FIXTURES / "toy_labels.tsv")
TOY_CATALOG_PATH = str(FIXTURES / "toy_catalog.json")
MINI_OBO_PATH = str(FIXTURES / "mini.obo")
HC_CATALOG_PATH = str(FIXTURES / "healthcare_catalog.json")
HC_EDGES_PATH = str(FIXTURES / "healthcare_edges.tsv")
HC_LABELS_PATH = str(FIXTURES / "healthcare_labels.tsv")


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


def read_csv_rows(text):
    return list(csv.reader(line for line in io.StringIO(text) if not line.startswith("#")))


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

    def test_json_output(self, capsys):
        _, out, _ = run(
            capsys, "doss-matrix", "--ontology-edges", TOY_EDGES_PATH,
            "--catalog", TOY_CATALOG_PATH, "--format", "json",
        )
        payload = json.loads(out)
        assert payload["dataset_ids"] == ["D1", "D2", "DS"]
        assert payload["excluded"] == ["DE"]


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

    def test_requires_a_label_source(self, capsys):
        code, _, err = run(capsys, "search", "age")
        assert code == 64


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


class TestOntologyVersionEcho:
    def test_flag_overrides_catalog(self, capsys):
        _, out, _ = run(
            capsys, "matrix", "--ontology-edges", TOY_EDGES_PATH, "--catalog", TOY_CATALOG_PATH,
            "--ontology-version", "release-7",
        )
        assert "# ontology_version: release-7" in out

    def test_labels_merge_into_edge_graph(self, capsys):
        _, out, _ = run(
            capsys, "search", "gender", "--labels", TOY_LABELS_PATH,
        )
        assert out.splitlines()[0].split("\t")[0] == "c"


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
