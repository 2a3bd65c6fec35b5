"""Edge-list, label, and OBO-subset parsing."""

import io
import json
import random
import time

import pytest

from ontosim import (
    EmptyInput,
    MalformedLine,
    MalformedStanza,
    build_ontology,
    parse_edge_list,
    parse_labels,
    parse_obo_subset,
    write_edge_list,
)
from ontosim.cli import main
from conftest import FIXTURES
from helpers import outcome, reference_parse_edge_list


class TestEdgeList:
    def test_two_line_file(self):
        terms, edges, report = parse_edge_list(io.StringIO("b\ta\na\tr\n"))
        assert sorted(terms) == ["a", "b", "r"]
        assert edges == [("b", "a"), ("a", "r")]
        assert (report.term_count, report.edge_count) == (3, 2)

    def test_wrong_field_count(self):
        with pytest.raises(MalformedLine) as exc:
            parse_edge_list(io.StringIO("b a r\n"))
        assert exc.value.line == 1

    def test_comments_and_blanks_skipped(self):
        terms, edges, report = parse_edge_list(io.StringIO("# comment\n\nb\ta\n"))
        assert sorted(terms) == ["a", "b"]
        assert edges == [("b", "a")]
        assert report.warnings == []

    def test_crlf_and_field_trimming(self):
        terms, edges, _ = parse_edge_list(io.StringIO("b\ta\r\n a \t r \r\n"))
        assert edges == [("b", "a"), ("a", "r")]

    def test_empty_field_is_malformed(self):
        with pytest.raises(MalformedLine):
            parse_edge_list(io.StringIO("b\t\n"))

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            parse_edge_list(io.StringIO("# nothing here\n\n"))

    def test_round_trip(self):
        original = "b\ta\na\tr\nc\tr\n"
        terms, edges, _ = parse_edge_list(io.StringIO(original))
        out = io.StringIO()
        write_edge_list(edges, out)
        terms2, edges2, _ = parse_edge_list(io.StringIO(out.getvalue()))
        assert set(terms) == set(terms2)
        assert set(edges) == set(edges2)

    @pytest.mark.parametrize(
        "edge",
        [
            ("b\tx", "r"),  # a tab splits the row into three fields
            ("b", "r\nx"),  # a line feed ends the row
            ("b\rx", "r"),  # so does a lone carriage return, read with universal newlines
            ("", "r"),  # an empty id
            (" b", "r"),  # surrounding whitespace is trimmed on reading
            ("b", "r\x0b"),  # so is any trailing whitespace str.strip() knows
            ("#b", "r"),  # a child starting with # reads as a comment
        ],
    )
    def test_write_refuses_an_edge_that_would_not_read_back(self, edge):
        out = io.StringIO()
        with pytest.raises(MalformedLine, match=r"^line 2: ") as exc:
            write_edge_list([("a", "r"), edge, ("c", "r")], out)
        assert exc.value.line == 2
        assert out.getvalue() == ""

    def test_write_refuses_no_edges(self):
        out = io.StringIO()
        with pytest.raises(EmptyInput):
            write_edge_list(iter(()), out)
        assert out.getvalue() == ""

    def test_write_keeps_what_the_reader_keeps(self):
        # inner whitespace, a # past the first character and a parent starting with #
        edges = [("a b", "#r"), ("c#", "a b")]
        out = io.StringIO()
        write_edge_list(iter(edges), out)
        assert out.getvalue() == "a b\t#r\nc#\ta b\n"
        assert parse_edge_list(io.StringIO(out.getvalue()))[1] == edges

    def test_every_edge_endpoint_is_a_term(self):
        terms, edges, _ = parse_edge_list(io.StringIO("x\ty\nz\tx\n"))
        declared = set(terms)
        assert all(c in declared and p in declared for c, p in edges)


# one awkward line each; every one is parsed alone and between two edges
AWKWARD_EDGE_LINES = {
    "spaces around fields": "  a \t b  \n",
    "tabs around the pair": "\ta\tb\t\n",
    "leading tab": "\ta\tb\n",
    "trailing tab": "a\tb\t\n",
    "trailing space after a tab": "a\tb\t \n",
    "comment after spaces": "   # note\n",
    "comment after a tab": "\t# note\n",
    "comment holding a tab": "#a\tb\n",
    "comment marker after spaces in a pair": "  #a\tb\n",
    "hash inside the parent": "a\t#b\n",
    "hash inside the child": "a#\tb\n",
    "crlf": "a\tb\r\n",
    "bare cr ending": "a\tb\r",
    "cr inside the child": "a\rx\tb\n",
    "cr inside the parent": "a\tb\rx\n",
    "no line ending": "a\tb",
    "three fields": "a\tb\tc\n",
    "empty child": "\tb\n",
    "empty parent": "a\t\n",
    "blank parent": "a\t  \r\n",
    "blank child": " \tb\n",
    "no tab": "a b\n",
    "empty line": "\n",
    "empty string": "",
    "spaces only": "   \n",
    "tab only": "\t\n",
    "tabs and spaces only": " \t \t\r\n",
    "unicode whitespace": "\u00a0a\u2003\tb\x85\n",
    "vertical tab and form feed": "\x0ba\t\x0cb\n",
    "internal space kept": "a b\tc d\n",
    "self edge": "a\ta\n",
}


class TestEdgeListParity:
    """parse_edge_list against the pre-interning parser kept in helpers."""

    @pytest.mark.parametrize("line", AWKWARD_EDGE_LINES.values(), ids=AWKWARD_EDGE_LINES.keys())
    @pytest.mark.parametrize("where", ["alone", "between edges"])
    def test_awkward_line(self, line, where):
        lines = [line] if where == "alone" else ["x\ty\n", line, "y\tz\n", "x\ty\n"]
        assert outcome(parse_edge_list, lines) == outcome(reference_parse_edge_list, lines)

    def test_every_awkward_line_together(self):
        lines = list(AWKWARD_EDGE_LINES.values())
        got = outcome(parse_edge_list, lines)
        assert got == outcome(reference_parse_edge_list, lines)
        assert got[0] is MalformedLine and got[2] == 2  # "tabs around the pair"

    def test_valid_awkward_lines_together(self):
        def parses(line):
            try:
                reference_parse_edge_list(["x\ty\n", line])
            except MalformedLine:
                return False
            return True

        lines = [line for line in AWKWARD_EDGE_LINES.values() if parses(line)]
        assert len(lines) == 21
        assert parse_edge_list(lines) == reference_parse_edge_list(lines)

    def test_edges_share_the_term_strings(self):
        text = "".join(f"c{i % 97}\tc{i % 89 + 97}\n" for i in range(1000)) + "  c1\t c2 \r\n"
        # fresh string objects per line, as a file read yields them
        terms, edges, _ = parse_edge_list(io.StringIO(text))
        by_id = {term: term for term in terms}
        assert len(by_id) == len(terms)
        assert all(child is by_id[child] and parent is by_id[parent] for child, parent in edges)

    def test_fixture_file(self):
        with open(FIXTURES / "healthcare_edges.tsv", encoding="utf-8") as fh:
            lines = fh.readlines()
        assert parse_edge_list(lines) == reference_parse_edge_list(lines)

class TestLabels:
    def test_label_with_synonyms(self):
        labels, report = parse_labels(io.StringIO("397669002\tAge\tPatient age quantile\tage\n"))
        assert labels["397669002"] == ("Age", ("Patient age quantile", "age"))
        assert report.warnings == []

    def test_empty_label_is_malformed(self):
        # an empty synonym field is the same fault one column further on
        for text, message in [
            ("x\t\n", "line 1: expected id<TAB>label[<TAB>synonym]*, got 'x\\t'"),
            ("x\tAge\t\tage\n", "line 1: empty synonym field"),
        ]:
            with pytest.raises(MalformedLine) as exc:
                parse_labels(io.StringIO(text))
            assert str(exc.value) == message

    def test_duplicate_id_last_wins_with_warning(self):
        labels, report = parse_labels(io.StringIO("x\tfirst\nx\tsecond\n"))
        assert labels["x"][0] == "second"
        assert len(report.warnings) == 1

    def test_fixture_file(self):
        with open(FIXTURES / "toy_labels.tsv", encoding="utf-8") as fh:
            labels, _ = parse_labels(fh)
        assert labels["a"] == ("Liver panel analyte", ("Total Bilirubin", "BIL"))


class TestOboSubset:
    def test_single_stanza_with_is_a(self):
        text = "[Term]\nid: X:2\nname: child\nis_a: X:1\n"
        ids, edges, labels, report = parse_obo_subset(io.StringIO(text))
        # the undeclared parent is emitted as a bare term and counted, so
        # no edge ever references a term the parser did not emit
        assert "X:2" in ids and "X:1" in ids
        assert edges == [("X:2", "X:1")]
        assert labels == {"X:2": ("child", ())}
        assert report.edge_count == 1
        assert report.term_count == 2

    def test_relationship_lines_ignored_but_counted(self):
        text = "[Term]\nid: X:1\nname: thing\nrelationship: part_of X:9\n"
        _, edges, _, report = parse_obo_subset(io.StringIO(text))
        assert edges == []
        assert report.ignored_relation_count == 1

    def test_stanza_without_id(self):
        with pytest.raises(MalformedStanza):
            parse_obo_subset(io.StringIO("[Term]\nname: nameless\n"))

    def test_obsolete_stanza_skipped_and_counted(self):
        text = "[Term]\nid: X:1\nname: ok\n\n[Term]\nid: X:9\nis_obsolete: true\n"
        ids, _, labels, report = parse_obo_subset(io.StringIO(text))
        assert ids == ["X:1"]
        assert labels == {"X:1": ("ok", ())}
        assert len(report.warnings) == 1

    def test_child_of_an_obsolete_term_says_the_parent_is_obsolete(self):
        text = "[Term]\nid: X:1\n\n[Term]\nid: X:2\nis_obsolete: true\n\n[Term]\nid: X:3\nis_a: X:2\nis_a: X:9\n"
        ids, edges, _, report = parse_obo_subset(io.StringIO(text))
        # the obsolete parent is still added as a bare term, like an undefined one
        assert ids == ["X:1", "X:3", "X:2", "X:9"]
        assert edges == [("X:3", "X:2"), ("X:3", "X:9")]
        assert report.warnings == [
            (4, "skipped obsolete term X:2"),
            (10, "parent X:2 is obsolete; added as bare term"),
            (11, "parent X:9 referenced but not defined; added as bare term"),
        ]

    def test_synonym_takes_first_quoted_text_only(self):
        text = '[Term]\nid: X:1\nsynonym: "the real one" EXACT [db:123]\n'
        _, _, labels, _ = parse_obo_subset(io.StringIO(text))
        assert labels["X:1"] == (None, ("the real one",))

    @pytest.mark.parametrize(
        "value, text",
        [
            ('"a \\"quoted\\" word" EXACT []', 'a "quoted" word'),
            ('"back\\\\slash" EXACT []', "back\\slash"),
            ('"ends in a backslash\\\\" EXACT []', "ends in a backslash\\"),
            ('"kept \\n and \\!" EXACT []', "kept \\n and \\!"),
            ('"plain" EXACT [db:\\x]', "plain"),
        ],
        ids=["escaped-quotes", "escaped-backslash", "escaped-backslash-last", "other-escapes-kept", "escape-after-text"],
    )
    def test_synonym_escapes(self, value, text):
        _, _, labels, _ = parse_obo_subset(io.StringIO(f"[Term]\nid: X:1\nsynonym: {value}\n"))
        assert labels == {"X:1": (None, (text,))}

    @pytest.mark.parametrize(
        "line, message",
        [
            ("name thing", "line 3: expected key: value, got 'name thing'"),
            ("is_a: ! c", "line 3: is_a without a target id"),
        ],
        ids=["no-colon", "comment-only-is_a"],
    )
    def test_malformed_line_names_its_fault(self, line, message):
        with pytest.raises(MalformedLine) as exc:
            parse_obo_subset(io.StringIO(f"[Term]\nid: X:1\n{line}\n"))
        assert str(exc.value) == message

    def test_unquoted_synonym_is_malformed(self):
        # an escaped closing quote leaves the text unterminated
        for value in ["bare words", '"a \\" EXACT []']:
            with pytest.raises(MalformedLine) as exc:
                parse_obo_subset(io.StringIO(f"[Term]\nid: X:1\nsynonym: {value}\n"))
            assert str(exc.value) == "line 3: synonym text must be enclosed in double quotes"

    def test_unterminated_escaped_synonym_is_linear(self):
        # a search retried from each escaped quote would scan the rest of the
        # line every time: seconds for this line, against milliseconds
        value = '"' + '\\"' * 20_000
        start = time.perf_counter()
        with pytest.raises(MalformedLine):
            parse_obo_subset(io.StringIO(f"[Term]\nid: X:1\nsynonym: {value}\n"))
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize(
        "value, label",
        [
            ("heart rate ! vital sign", "heart rate"),
            ("heart rate!vital sign", "heart rate"),
            ("rate \\! per minute ! vital", "rate \\! per minute"),  # \! stays as written
            ("rate {per minute}", "rate {per minute}"),  # a name keeps its braces
            ("heart rate", "heart rate"),
        ],
    )
    def test_name_ends_at_an_unescaped_comment(self, value, label):
        labels = parse_obo_subset(io.StringIO(f"[Term]\nid: X:1\nname: {value}\n"))[2]
        assert labels == {"X:1": (label, ())}

    def test_name_that_is_only_a_comment_gives_no_label(self):
        text = '[Term]\nid: X:1\nname: ! none\n\n[Term]\nid: X:2\nname: !\nsynonym: "two" EXACT []\n'
        assert parse_obo_subset(io.StringIO(text))[2] == {"X:2": (None, ("two",))}

    def test_label_table_holds_only_terms_with_a_name_or_synonyms(self):
        text = (
            "[Term]\nid: r\n\n"
            '[Term]\nid: a\nname:\nsynonym: "syn" EXACT []\nis_a: r\n\n'
            "[Term]\nid: b\nname: Beta\nis_a: r\n\n"
            '[Term]\nid: c\nname:\nsynonym: "" EXACT []\nis_a: r\n'
        )
        ids, _, labels, _ = parse_obo_subset(io.StringIO(text))
        assert ids == ["r", "a", "b", "c"]
        # a name-less term with synonyms is kept; one with neither is absent
        assert labels == {"a": (None, ("syn",)), "b": ("Beta", ())}

    def test_second_id_in_a_stanza_is_malformed(self):
        text = "[Term]\nid: A\nname: first\nid: B\nis_a: C\n"
        with pytest.raises(MalformedStanza) as exc:
            parse_obo_subset(io.StringIO(text))
        assert exc.value.line == 4
        assert str(exc.value) == "line 4: [Term] stanza A has a second id: B"

    def test_is_a_comment_stripped(self):
        text = "[Term]\nid: X:2\nis_a: X:1 ! parent name\n"
        _, edges, _, _ = parse_obo_subset(io.StringIO(text))
        assert edges == [("X:2", "X:1")]

    @pytest.mark.parametrize(
        "id_line, is_a_line",
        [
            ("id: X:2", 'is_a: X:1 {source="PMID:1"} ! root'),
            ("id: X:2", 'is_a: X:1 {source="PMID:1", note="a } b"}'),
            ("id: X:2 ! trailing comment", "is_a: X:1"),
            ("id: X:2 {created_by=someone}  ! both", "is_a: X:1 ! root"),
            ("id: X:2", 'is_a: X:1 {source="a!b"} ! root'),
        ],
        ids=["is_a-modifiers-and-comment", "is_a-modifiers", "id-comment", "id-modifiers", "quoted-bang"],
    )
    def test_id_and_is_a_drop_comment_and_modifiers(self, id_line, is_a_line):
        text = f"[Term]\nid: X:1\n\n[Term]\n{id_line}\n{is_a_line}\n"
        ids, edges, _, report = parse_obo_subset(io.StringIO(text))
        assert (ids, edges, report.warnings) == (["X:1", "X:2"], [("X:2", "X:1")], [])

    def test_braces_inside_an_id_are_kept(self):
        # only a block after whitespace is a modifier; an id that parsed before keeps its text
        text = "[Term]\nid: X:{1}\n\n[Term]\nid: X:2\nis_a: X:{1} {source=x}\n"
        ids, edges, _, _ = parse_obo_subset(io.StringIO(text))
        assert (ids, edges) == (["X:{1}", "X:2"], [("X:2", "X:{1}")])

    def test_unclosed_modifier_block_is_kept(self):
        # with no closing "}" there is no block to drop, so the id runs to the comment
        text = "[Term]\nid: X:1 {a=b\n\n[Term]\nid: X:2\nis_a: X:1 {a=b ! c\n"
        ids, edges, _, report = parse_obo_subset(io.StringIO(text))
        assert (ids, edges, report.warnings) == (["X:1 {a=b", "X:2"], [("X:2", "X:1 {a=b")], [])

    def test_escaped_bang_is_no_comment(self):
        text = "[Term]\nid: X:\\!1\n\n[Term]\nid: X:2\nis_a: X:\\!1 ! root\n"
        ids, edges, _, report = parse_obo_subset(io.StringIO(text))
        assert (ids, edges, report.warnings) == (["X:\\!1", "X:2"], [("X:2", "X:\\!1")], [])

    def test_comment_only_id_is_empty(self):
        with pytest.raises(MalformedStanza) as exc:
            parse_obo_subset(io.StringIO("[Term]\nid: ! nothing\n"))
        assert str(exc.value) == "line 2: empty id:"

    def test_fixture_file_builds_a_graph(self):
        with open(FIXTURES / "mini.obo", encoding="utf-8") as fh:
            ids, edges, labels, report = parse_obo_subset(fh)
        graph = build_ontology(ids, edges)
        assert len(graph) == 3
        assert graph.edge_count == 2
        assert report.ignored_relation_count == 1
        assert labels["X:002"] == ("middle thing", ("the middle one",))
        assert graph.ancestors("X:003") == {"X:003", "X:002", "X:001"}

    def test_empty_document(self):
        with pytest.raises(EmptyInput):
            parse_obo_subset(io.StringIO("format-version: 1.2\n"))


class TestOboEndOfStanza:
    """A stanza ends at the next header or at the end of the input."""

    def test_last_stanza_without_id_names_its_start_line(self):
        text = "[Term]\nid: X:1\n\n[Term]\nname: nameless\nis_a: X:1\n"
        with pytest.raises(MalformedStanza) as exc:
            parse_obo_subset(io.StringIO(text))
        assert exc.value.line == 4
        assert str(exc.value) == "line 4: [Term] stanza has no id:"

    def test_obsolete_last_stanza(self):
        text = "[Term]\nid: X:1\n\n[Term]\nid: X:9\nis_a: X:1\nis_obsolete: true"
        ids, edges, labels, report = parse_obo_subset(io.StringIO(text))
        assert (ids, labels) == (["X:1"], {})
        assert edges == []
        assert report.warnings == [(4, "skipped obsolete term X:9")]
        assert (report.term_count, report.edge_count) == (1, 0)

    def test_typedef_closes_an_open_term(self):
        text = (
            "[Term]\nid: X:2\nname: two\nis_a: X:1\n"
            "[Typedef]\nid: part_of\nname: part of\nis_a: X:7\nrelationship: bogus\n"
            "[Term]\nid: X:1\n"
        )
        ids, edges, labels, report = parse_obo_subset(io.StringIO(text))
        assert (ids, labels) == (["X:2", "X:1"], {"X:2": ("two", ())})
        assert edges == [("X:2", "X:1")]
        assert report.warnings == []
        assert report.ignored_relation_count == 0

    def test_file_ending_in_a_bare_term_header(self):
        text = "[Term]\nid: X:1\n\n[Term]\n"
        with pytest.raises(MalformedStanza) as exc:
            parse_obo_subset(io.StringIO(text))
        assert exc.value.line == 4

    def test_undefined_parent_warnings_keep_first_reference_line_and_order(self):
        text = (
            "[Term]\nid: X:3\nis_a: X:8\nis_a: X:1\n"  # lines 1-4
            "[Term]\nid: X:1\nis_a: X:7 ! seven\nis_a: X:8\n"  # lines 5-8
            "[Term]\nid: X:2\nis_a: X:7\n"  # lines 9-11
        )
        ids, edges, labels, report = parse_obo_subset(io.StringIO(text))
        assert ids == ["X:3", "X:1", "X:2", "X:8", "X:7"]
        assert labels == {}
        assert report.warnings == [
            (3, "parent X:8 referenced but not defined; added as bare term"),
            (7, "parent X:7 referenced but not defined; added as bare term"),
        ]
        assert edges == [("X:3", "X:8"), ("X:3", "X:1"), ("X:1", "X:7"), ("X:1", "X:8"), ("X:2", "X:7")]

    def test_crlf_input(self):
        lf = '[Term]\nid: X:2\nname: two \nsynonym: "deux" EXACT []\nis_a: X:1 ! one\n\n[Term]\nid: X:1\n'
        crlf = lf.replace("\n", "\r\n")
        assert parse_obo_subset(io.StringIO(crlf, newline="")) == parse_obo_subset(io.StringIO(lf))
        ids, edges, labels, _ = parse_obo_subset(io.StringIO(crlf, newline=""))
        assert (ids, labels) == (["X:2", "X:1"], {"X:2": ("two", ("deux",))})
        assert edges == [("X:2", "X:1")]


class TestOboMatchesEdgeList:
    """One seeded DAG written both ways builds the same graph and matrix.

    The shapes are those of the benchmark generator: one random earlier
    parent per term and a second one every 10th term (which may repeat the
    first); every OBO stanza has a name, a synonym and commented is_a lines,
    and the labels TSV carries the same name and synonym.
    """

    N = 2000

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        rng = random.Random(20240)
        parents = [[] for _ in range(self.N)]
        for i in range(1, self.N):
            parents[i].append(rng.randrange(i))
            if i % 10 == 0:
                parents[i].append(rng.randrange(i))
        out = tmp_path_factory.mktemp("dag")
        (out / "dag.tsv").write_text(
            "".join(f"c{i}\tc{p}\n" for i in range(self.N) for p in parents[i]), encoding="utf-8"
        )
        obo = ["format-version: 1.2\nontology: dag\n"]
        for i in range(self.N):
            obo.append(f'\n[Term]\nid: c{i}\nname: concept {i}\nsynonym: "synthetic concept {i}" EXACT []\n')
            obo.extend(f"is_a: c{p} ! concept {p}\n" for p in parents[i])
        (out / "dag.obo").write_text("".join(obo), encoding="utf-8")
        (out / "labels.tsv").write_text(
            "".join(f"c{i}\tconcept {i}\tsynthetic concept {i}\n" for i in range(self.N)), encoding="utf-8"
        )
        picks = rng.sample(range(self.N), 90)
        catalog = {
            "ontology_version": "dag",
            "datasets": [
                {"id": f"d{k}", "name": f"d{k}", "origin": [], "category": "EHR",
                 "features": [{"name": f"f{j}", "term": f"c{i}"} for j, i in enumerate(picks[k::3])]}
                for k in range(3)
            ],
        }
        (out / "catalog.json").write_text(json.dumps(catalog), encoding="utf-8")
        return out

    def test_same_graph(self, files):
        with open(files / "dag.tsv", encoding="utf-8") as fh:
            ids, edges, _ = parse_edge_list(fh)
        from_edges = build_ontology(ids, edges)
        with open(files / "dag.obo", encoding="utf-8") as fh:
            ids, edges, _, report = parse_obo_subset(fh)
        from_obo = build_ontology(ids, edges)
        assert report.warnings == []
        assert sorted(from_edges.terms) == sorted(from_obo.terms)
        assert len(from_obo) == self.N
        assert from_edges.edge_count == from_obo.edge_count
        for term in from_obo.terms:
            assert from_edges.parents(term) == from_obo.parents(term)

    def test_same_matrix_csv(self, files, capsys):
        bodies = []
        for flag, name in (("--ontology-edges", "dag.tsv"), ("--ontology-obo", "dag.obo")):
            code = main(["matrix", flag, str(files / name), "--catalog", str(files / "catalog.json")])
            out = capsys.readouterr().out
            assert code == 0
            bodies.append([line for line in out.splitlines() if not line.startswith("#")])
        assert len(bodies[0]) == 91
        assert bodies[0] == bodies[1]

    def test_same_label_table(self, files):
        with open(files / "labels.tsv", encoding="utf-8") as fh:
            from_tsv, _ = parse_labels(fh)
        with open(files / "dag.obo", encoding="utf-8") as fh:
            _, _, from_obo, _ = parse_obo_subset(fh)
        assert len(from_obo) == self.N
        assert list(from_tsv.items()) == list(from_obo.items())

    def test_same_search_output(self, files, capsys):
        outputs = []
        for flag, name in (("--ontology-obo", "dag.obo"), ("--labels", "labels.tsv")):
            code = main(["search", "concept 1", "--top", "20", flag, str(files / name)])
            captured = capsys.readouterr()
            assert (code, captured.err) == (0, "")
            outputs.append(captured.out)
        assert len(outputs[0].splitlines()) == 20
        assert outputs[0] == outputs[1]
