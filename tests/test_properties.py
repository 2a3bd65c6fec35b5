"""Property tests over random DAGs, weights and catalogs.

Weights are drawn from the whole accepted domain: 0 or [1e-6, 1e6], with
both end points drawn explicitly. SimilarityParams rejects every other
weight, because there the float kernel cannot keep the bounds.
"""

import contextlib
import io
import json
import os
import random
import tempfile

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ontosim import (
    EmptyInput,
    MalformedLine,
    SchemaViolation,
    SimilarityParams,
    UnknownTerm,
    build_ontology,
    catalog_from_dict,
    distance,
    doss,
    doss_matrix,
    load_catalog,
    nearest_terms,
    pairwise_matrix,
    parse_edge_list,
    parse_obo_subset,
    sim_rm,
    sim_rm_directed,
    sim_rows,
    term_set,
    write_edge_list,
)
from ontosim.cli import main
from ontosim.similarity import MAX_WEIGHT, MIN_WEIGHT
from conftest import FIXTURES, TOY_TERMS
from helpers import DfsOracle, outcome, random_dag, reference_build_ontology, reference_parse_edge_list, shape

UNKNOWN = ("u0", "u1", "u2", "u3")
POLICIES = ("as-printed", "mean-of-directions")

fast = settings(derandomize=True, deadline=None, database=None, max_examples=150)


@st.composite
def dags(draw, max_nodes=10):
    """(declared ids, edges): every edge points to an earlier node of a
    random order, and the ids are declared in another random order."""
    n = draw(st.integers(1, max_nodes))
    ids = [f"n{i}" for i in range(n)]
    edges = [
        (ids[i], ids[p])
        for i in range(1, n)
        for p in sorted(draw(st.sets(st.integers(0, i - 1), max_size=3)))
    ]
    return draw(st.permutations(ids)), edges


weights = st.sampled_from((0.0, MIN_WEIGHT, MAX_WEIGHT)) | st.floats(MIN_WEIGHT, MAX_WEIGHT)
params = st.builds(SimilarityParams, weights, weights, st.sampled_from(POLICIES))


@st.composite
def graph_and_pair(draw):
    ids, edges = draw(dags())
    return build_ontology(ids, edges), DfsOracle(edges), draw(st.sampled_from(ids)), draw(st.sampled_from(ids))


def make_catalog(term_sets):
    return catalog_from_dict({
        "ontology_version": "test",
        "datasets": [
            {
                "id": f"d{i}",
                "name": f"d{i}",
                "origin": [],
                "category": "EHR",
                "features": [{"name": f"f{j}", "term": t} for j, t in enumerate(terms)]
                + [{"name": "unannotated", "term": None}],
            }
            for i, terms in enumerate(term_sets)
        ],
    })


@fast
@given(graph_and_pair(), params)
def test_sim_bounds_and_exact_one(case, p):
    g, oracle, t1, t2 = case
    value = sim_rm(g, p, t1, t2)
    assert 0.0 < value <= 1.0
    if t1 == t2:
        assert value == 1.0
    elif p.symmetrization == "mean-of-directions":
        assert (value == 1.0) == (p.alpha == 0.0 and p.beta == 0.0)
    else:
        # alpha weighs t1's own ancestors, beta t2's: each vanishes when that
        # weight is 0 or the term is an ancestor of the other
        t1_above = t1 in oracle.ancestors(t2)
        t2_above = t2 in oracle.ancestors(t1)
        assert (value == 1.0) == ((p.alpha == 0.0 or t1_above) and (p.beta == 0.0 or t2_above))


thetas = st.integers(1, 300) | st.integers(1, 2**31)


@fast
@given(params, thetas, thetas, st.data())
def test_score_is_non_decreasing_in_psi(p, theta1, theta2, data):
    # doss_matrix folds each reference's largest psi per theta2 and scores
    # only that, which is exact because of this, in float arithmetic too
    psi = data.draw(st.integers(0, min(theta1, theta2) - 1) | st.just(min(theta1, theta2) - 1))
    assert p.score(theta1, theta2, psi) <= p.score(theta1, theta2, psi + 1)


@fast
@given(graph_and_pair(), weights, weights)
def test_mean_of_directions_is_symmetric(case, alpha, beta):
    g, _, t1, t2 = case
    p = SimilarityParams(alpha, beta)
    assert sim_rm(g, p, t1, t2) == sim_rm(g, p, t2, t1)


@st.composite
def graph_and_catalog(draw):
    ids, edges = draw(dags())
    term_sets = draw(st.lists(st.sets(st.sampled_from(ids), min_size=1), min_size=2, max_size=5))
    return build_ontology(ids, edges), make_catalog(sorted(s) for s in term_sets)


@settings(fast, max_examples=100)
@given(graph_and_catalog(), params, st.sampled_from(("mean", "median", "min", "max")))
def test_doss_bounds_and_cover(case, p, aggregator):
    g, catalog = case
    ids = catalog.dataset_ids()
    matrix = doss_matrix(g, p, catalog, aggregator)
    assert matrix.dataset_ids == ids
    for i, source in enumerate(ids):
        for j, reference in enumerate(ids):
            value = doss(g, p, catalog, source, reference, aggregator).value
            assert matrix.values[i][j] == value
            assert 0.0 < value <= 1.0
            if term_set(catalog, source) <= term_set(catalog, reference):
                assert value == 1.0


@st.composite
def graph_and_mixed_terms(draw):
    """A graph and two lists of ids, known and unknown mixed, at least one
    unknown in all."""
    ids, edges = draw(dags(max_nodes=6))
    terms = st.lists(st.sampled_from([*ids, *UNKNOWN]), min_size=1, max_size=6)
    rows, cols = draw(terms), draw(terms)
    if not set(UNKNOWN).intersection(rows + cols):
        cols.append(draw(st.sampled_from(UNKNOWN)))
    return build_ontology(ids, edges), rows, cols


def unknown_in(terms):
    return tuple(dict.fromkeys(t for t in terms if t in UNKNOWN))


def raised(fn, *args):
    try:
        fn(*args)
    except UnknownTerm as exc:
        return exc.term_ids
    raise AssertionError("no UnknownTerm raised")


@fast
@given(graph_and_mixed_terms(), params)
def test_graph_and_kernel_name_every_unknown_id_rows_first(case, p):
    g, rows, cols = case
    assert raised(g.closures, rows + cols) == unknown_in(rows + cols)
    expected = unknown_in([*rows, *cols])
    if p.symmetrization == "mean-of-directions" and rows == cols:
        expected = unknown_in(rows)
    assert raised(sim_rows, g, p, rows, cols) == expected
    t1, t2 = (rows + cols)[0], (rows + cols)[-1]
    if unknown_in((t1, t2)):
        for fn in (sim_rm, sim_rm_directed, distance):
            assert raised(fn, g, p, t1, t2) == unknown_in((t1, t2))
        assert raised(g.psi, t1, t2) == unknown_in((t1, t2))


@fast
@given(graph_and_mixed_terms(), params)
def test_callers_keep_their_unknown_id_orders(case, p):
    g, rows, cols = case
    terms = rows + cols
    assert raised(pairwise_matrix, g, p, terms) == unknown_in(terms)
    query, pool = terms[0], set(terms[1:])
    if unknown_in([query, *pool]):
        # the query first, then the unknown candidates in ascending order
        assert raised(nearest_terms, g, p, query, pool, 3) == unknown_in([query, *sorted(pool)])
    catalog = make_catalog([rows, cols])
    assert raised(doss, g, p, catalog, "d0", "d1") == unknown_in(sorted(terms))
    assert raised(doss_matrix, g, p, catalog) == unknown_in(sorted(terms))


@fast
@given(st.sampled_from([*TOY_TERMS, *UNKNOWN]), st.sampled_from([*TOY_TERMS, *UNKNOWN]))
def test_term_sim_cli_names_unknown_ids_in_argv_order(t1, t2):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["term-sim", t1, t2, "--ontology-edges", str(FIXTURES / "toy_edges.tsv")])
    unknown = unknown_in((t1, t2))
    if unknown:
        assert code == 4
        assert err.getvalue() == f"error: {UnknownTerm(*unknown)}\n"
        assert out.getvalue() == ""
    else:
        assert code == 0


@st.composite
def edge_list_lines(draw):
    """Edge-list lines over a few ids: repeated edges and several parents per
    child are common, with comments, blank lines, padded fields and mixed
    line endings between them. Half the texts point every edge to a lower
    id, so they are DAGs; the rest may hold cycles. Now and then one line is
    malformed."""
    acyclic = draw(st.booleans())
    pad = st.sampled_from(("", " ", "  ", "\t"))
    ending = st.sampled_from(("\n", "\r\n", ""))
    note = st.sampled_from(("", " note", "n1\tn2"))
    lines = []
    for kind in draw(st.lists(st.sampled_from(("edge",) * 5 + ("comment", "blank")), min_size=1, max_size=25)):
        if kind == "edge":
            child, parent = draw(st.integers(0, 7)), draw(st.integers(0, 7))
            if acyclic:
                child, parent = max(child, parent) + 1, min(child, parent)
            # a tab would add a field, so an edge is padded with spaces only
            left, right = draw(pad).strip("\t"), draw(pad).strip("\t")
            lines.append(f"{left}n{child}{right}\t{right}n{parent}{left}{draw(ending)}")
        elif kind == "comment":
            lines.append(f"{draw(pad)}#{draw(note)}{draw(ending)}")
        else:
            lines.append(f"{draw(pad)}{draw(pad)}{draw(ending)}")
    if draw(st.integers(0, 4)) == 0:
        bad = draw(st.sampled_from(("n1\tn2\tn3\n", "\tn1\n", "n1\t \n", "n1 n2\n")))
        lines.insert(draw(st.integers(0, len(lines))), bad)
    return lines


def build_from_text(parse, build, lines):
    terms, edges, _ = parse(lines)
    return build(terms, edges)


@fast
@given(edge_list_lines())
def test_edge_list_ingest_matches_reference(lines):
    got = outcome(build_from_text, parse_edge_list, build_ontology, lines)
    expected = outcome(build_from_text, reference_parse_edge_list, reference_build_ontology, lines)
    assert shape(got) == shape(expected)


# ids built from characters the edge-list reader treats specially
SPACES = "\t\n\r \x0b\u2028"
awkward_ids = st.text(alphabet="ab#" + SPACES, max_size=4)


@fast
@given(st.lists(st.tuples(awkward_ids, awkward_ids), max_size=5))
def test_written_edge_list_reads_back_or_is_refused(edges):
    out = io.StringIO()
    try:
        write_edge_list(edges, out)
    except (MalformedLine, EmptyInput):
        assert out.getvalue() == ""
        # only an id the reader would change, or no edges, is refused
        assert not edges or any(
            not child or not parent or child[0] == "#" or set(child + parent) & set(SPACES)
            for child, parent in edges
        )
        return
    # read back as a file opened in text mode reads it
    stream = io.TextIOWrapper(io.BytesIO(out.getvalue().encode()), encoding="utf-8")
    assert parse_edge_list(stream)[1] == edges


def obo_quoted(text):
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


@st.composite
def decorated_obo(draw):
    """A random DAG as a plain edge list, and as OBO whose id: and is_a:
    values carry optional trailing {...} modifier blocks, with '!' or '}' in
    their quoted values, and '! comments'. Every stanza has a synonym holding
    an escaped quote. Returns (edge-list lines, OBO text, synonym per id)."""
    _, edges = random_dag(random.Random(draw(st.integers(0, 2**32))), max_nodes=12)
    assume(edges)
    lines = [f"{child}\t{parent}\n" for child, parent in edges]
    loose = st.text(alphabet='ab !{}"\\', max_size=6)

    # a value, then a modifier block, a comment, both or neither
    forms = st.sampled_from((
        "{0}", "{0} {{source={1}}}", "{0} {{source={1}, note=x}}", "{0} ! {2}", "{0}!{2}", "{0} {{source={1}}} !{2}",
    ))

    def value(term):
        text = draw(loose)
        return draw(forms).format(term, obo_quoted(text), text)

    parents = {}
    for child, parent in edges:
        parents.setdefault(child, []).append(parent)
    synonyms, stanzas = {}, []
    # stanzas in the edge list's first-appearance order, so ids compare in order
    for term in parse_edge_list(lines)[0]:
        synonyms[term] = f'{draw(loose)}"{term}"'
        body = [f"id: {value(term)}", f"synonym: {obo_quoted(synonyms[term])} EXACT []"]
        body += [f"is_a: {value(parent)}" for parent in parents.get(term, ())]
        stanzas.append("[Term]\n" + "\n".join(body) + "\n")
    return lines, "\n".join(stanzas), synonyms


@fast
@given(decorated_obo())
def test_decorated_obo_parses_to_its_edge_list(case):
    lines, obo, synonyms = case
    ids, edges, _ = parse_edge_list(lines)
    obo_ids, obo_edges, labels, obo_report = parse_obo_subset(io.StringIO(obo))
    assert (obo_ids, obo_edges) == (ids, edges)
    assert labels == {term: (None, (text,)) for term, text in synonyms.items()}
    assert obo_report.warnings == []


# a placeholder key that the generated catalogs never hold, swapped in the text
# for a second copy of one of its object's keys
REPEAT = "\x00repeat"


@st.composite
def catalog_with_repeated_key(draw):
    """(a valid catalog's JSON text over TOY_TERMS, the same text with one key
    of one object written twice: the root, a dataset or a feature, before or
    after the original, with the same value or another, and that key)."""
    feature_terms = st.lists(st.sampled_from([*TOY_TERMS, None, "absent"]), min_size=1, max_size=3)
    payload = {
        "ontology_version": draw(st.sampled_from(("", "v1", "2024-01"))),
        "datasets": [
            {
                "id": f"d{i}",
                "name": draw(st.sampled_from(("", "one"))),
                "origin": draw(st.lists(st.sampled_from(("x", "y")), max_size=2)),
                "category": draw(st.sampled_from(("EHR", "Survey"))),
                "features": [
                    {"name": f"f{j}", "term": term} if term != "absent" else {"name": f"f{j}"}
                    for j, term in enumerate(draw(feature_terms))
                ],
            }
            for i in range(draw(st.integers(2, 3)))
        ],
    }
    objects = [payload, *payload["datasets"], *(f for ds in payload["datasets"] for f in ds["features"])]
    target = draw(st.sampled_from(objects))
    key = draw(st.sampled_from(sorted(target)))
    value = draw(st.sampled_from((target[key], None, "other", [])))
    valid = json.dumps(payload)
    items = list(target.items())
    target.clear()
    target.update([(REPEAT, None), *items] if draw(st.booleans()) else [*items, (REPEAT, None)])
    text = json.dumps(payload).replace(json.dumps(REPEAT) + ": null", json.dumps(key) + ": " + json.dumps(value))
    return valid, text, key


@fast
@given(catalog_with_repeated_key())
def test_repeated_catalog_key_exits_1_before_any_output(case):
    valid, text, key = case
    assert load_catalog(valid).dataset_ids()
    with pytest.raises(SchemaViolation, match=r"^\$: repeated key "):
        load_catalog(text)
    edges = str(FIXTURES / "toy_edges.tsv")
    with tempfile.TemporaryDirectory() as tmp:
        catalog = os.path.join(tmp, "catalog.json")
        with open(catalog, "w", encoding="utf-8") as fh:
            fh.write(text)
        out = os.path.join(tmp, "out")
        for argv in (
            ["stats", "--out", out],
            ["terms", "--out", out],
            ["matrix", "--out", out, "--ontology-edges", edges],
            ["doss", "d0", "d1", "--ontology-edges", edges],
            ["doss-matrix", "--out", out, "--ontology-edges", edges],
        ):
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main([*argv, "--catalog", catalog])
            assert (code, stdout.getvalue()) == (1, ""), argv
            assert stderr.getvalue() == f"error: $: repeated key {key!r}\n"
            assert not os.path.exists(out)
