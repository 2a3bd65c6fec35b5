"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion. Tolerances are pinned here and nowhere else.

The catalog-statistics criterion runs against the bundled synthetic
healthcare fixture (the published annotation files need network access and
credentials this environment does not have); the fixture reproduces the
same per-dataset counts and top-term frequencies, so the criterion is
checked at fixture-exactness.
"""

import io
import random
import resource
import sys
import time

import pytest

from ontosim import (
    AGGREGATORS,
    SimilarityParams,
    build_ontology,
    catalog_from_dict,
    distance,
    doss,
    doss_matrix,
    pairwise_matrix,
    shared_term_count,
    sim_rm_directed,
)
from ontosim.cli import main
from conftest import DOSS_TOY, FIXTURES
from helpers import DfsOracle, random_dag, random_pairs

PARAMS = SimilarityParams()  # alpha=7.9, beta=3.9, mean-of-directions


def _ok(name):
    print(f"ACCEPTANCE {name}: PASS")


def test_eq1_oracle_equivalence_over_1000_random_dags():
    """Directed similarity must match direct evaluation from DFS ancestor
    sets to within 1e-12 on at least 1000 seeded random DAGs of <= 50 nodes."""
    rng = random.Random(20240401)
    started = time.perf_counter()
    checked = 0
    for _ in range(1000):
        ids, edges = random_dag(rng, max_nodes=50)
        graph = build_ontology(ids, edges)
        oracle = DfsOracle(edges)
        for t1, t2 in random_pairs(rng, ids, 25):
            got = sim_rm_directed(graph, PARAMS, t1, t2)
            expected = oracle.sim_directed(t1, t2)
            assert abs(got - expected) <= 1e-12, (t1, t2, got, expected)
            checked += 1
    elapsed = time.perf_counter() - started
    assert checked >= 25_000
    assert elapsed < 60.0
    _ok(f"eq1-oracle-equivalence ({checked} pairs, {elapsed:.1f}s)")


def test_derived_toy_values_via_cli(capsys):
    """CLI must report the four hand-derived directed values to 1e-6; each
    value is confirmed against the independent brute-force oracle first."""
    oracle = DfsOracle([("a", "r"), ("b", "a"), ("c", "r")])
    expected = {
        ("b", "c"): 0.132159,
        ("c", "b"): 0.112994,
        ("a", "b"): 0.338983,
        ("b", "a"): 0.275229,
    }
    for (t1, t2), value in expected.items():
        assert abs(oracle.sim_directed(t1, t2) - value) <= 1e-6

    edges_path = str(FIXTURES / "toy_edges.tsv")
    for (t1, t2), value in expected.items():
        code = main(["term-sim", t1, t2, "--ontology-edges", edges_path])
        out = capsys.readouterr().out
        assert code == 0
        line = next(l for l in out.splitlines() if l.startswith(f"sim({t1}->{t2})"))
        reported = float(line.split("=")[1])
        assert abs(reported - value) <= 1e-6, (t1, t2, reported)
    _ok("derived-toy-values-via-cli")


def test_identity_and_bounds_property_suite():
    """sim(t,t) = 1 exactly, 0 < sim <= 1 everywhere, distance(t,t) = 0."""
    rng = random.Random(20240402)
    for _ in range(100):
        ids, edges = random_dag(rng, max_nodes=50)
        graph = build_ontology(ids, edges)
        for term in rng.sample(ids, min(10, len(ids))):
            assert sim_rm_directed(graph, PARAMS, term, term) == 1.0
            assert distance(graph, PARAMS, term, term) == 0.0
        for t1, t2 in random_pairs(rng, ids, 20):
            value = sim_rm_directed(graph, PARAMS, t1, t2)
            assert 0.0 < value <= 1.0
    _ok("identity-and-bounds")


def test_doss_properties():
    """Reflexivity and containment give exactly 1 for every aggregator,
    strict containment stays below 1 the other way, and disjoint term sets
    under a shared root stay positive."""
    graph = build_ontology(
        ["r", "a", "b", "c"], [("a", "r"), ("b", "a"), ("c", "r")]
    )
    catalog = catalog_from_dict({
        "ontology_version": "toy-1",
        "datasets": [
            {"id": "BIG", "name": "", "origin": [], "category": "EHR",
             "features": [{"name": "f1", "term": "a"}, {"name": "f2", "term": "b"}]},
            {"id": "SUB", "name": "", "origin": [], "category": "EHR",
             "features": [{"name": "g1", "term": "a"}]},
            {"id": "LEFT", "name": "", "origin": [], "category": "EHR",
             "features": [{"name": "h1", "term": "b"}]},
            {"id": "RIGHT", "name": "", "origin": [], "category": "EHR",
             "features": [{"name": "k1", "term": "c"}]},
        ],
    })
    for aggregator in AGGREGATORS:
        for ds in ("BIG", "SUB", "LEFT", "RIGHT"):
            assert doss(graph, PARAMS, catalog, ds, ds, aggregator).value == 1.0
        # SUB's terms {a} are strictly contained in BIG's {a, b}
        assert doss(graph, PARAMS, catalog, "SUB", "BIG", aggregator).value == 1.0
    # the reverse direction drops below 1 for every order-sensitive
    # aggregator; max alone stays at 1 because the shared term contributes
    # a perfect match and max keeps only the best one
    for aggregator in ("mean", "median", "min"):
        assert doss(graph, PARAMS, catalog, "BIG", "SUB", aggregator).value < 1.0
    assert doss(graph, PARAMS, catalog, "BIG", "SUB", "max").value == 1.0
    # disjoint term sets, shared root
    assert shared_term_count(catalog, "LEFT", "RIGHT") == 0
    assert doss(graph, PARAMS, catalog, "LEFT", "RIGHT").value > 0.0
    _ok("doss-properties")


def test_toy_doss_value():
    """doss({a,b}|{c}) with the mean aggregator must be 0.133752 +- 1e-6."""
    graph = build_ontology(
        ["r", "a", "b", "c"], [("a", "r"), ("b", "a"), ("c", "r")]
    )
    catalog = catalog_from_dict({
        "ontology_version": "toy-1",
        "datasets": [
            {"id": "D1", "name": "", "origin": [], "category": "EHR",
             "features": [{"name": "f1", "term": "a"}, {"name": "f2", "term": "b"}]},
            {"id": "D2", "name": "", "origin": [], "category": "EHR",
             "features": [{"name": "g1", "term": "c"}]},
        ],
    })
    oracle = DfsOracle([("a", "r"), ("b", "a"), ("c", "r")])
    by_hand = (oracle.sim_mean("a", "c") + oracle.sim_mean("b", "c")) / 2
    assert abs(by_hand - 0.133752) <= 1e-6
    assert abs(DOSS_TOY - by_hand) <= 1e-15
    value = doss(graph, PARAMS, catalog, "D1", "D2", "mean").value
    assert abs(value - 0.133752) <= 1e-6
    _ok("toy-doss-value")


def test_doss_correlates_with_shared_term_count():
    """On a seeded 1000-term ontology with 20 random datasets of 5 to 50
    terms, Spearman correlation between the dataset similarity and the
    shared-term count must exceed 0.3."""
    scipy_stats = pytest.importorskip("scipy.stats", exc_type=ImportError)
    rng = random.Random(424242)
    ids = [f"t{i:04d}" for i in range(1000)]
    edges = []
    for i in range(1, len(ids)):
        for parent in rng.sample(range(i), k=min(i, rng.choice((1, 1, 2)))):
            edges.append((ids[i], ids[parent]))
    graph = build_ontology(ids, edges)
    datasets = []
    for d in range(20):
        picked = rng.sample(ids, rng.randint(5, 50))
        datasets.append({
            "id": f"D{d:02d}", "name": f"synthetic {d}", "origin": ["generated"],
            "category": "EHR",
            "features": [{"name": f"f{j}", "term": t} for j, t in enumerate(picked)],
        })
    catalog = catalog_from_dict({"ontology_version": "random-1", "datasets": datasets})
    matrix = doss_matrix(graph, PARAMS, catalog)
    doss_values, shared_counts = [], []
    for i, di in enumerate(matrix.dataset_ids):
        for j, dj in enumerate(matrix.dataset_ids):
            if i != j:
                doss_values.append(matrix.values[i][j])
                shared_counts.append(shared_term_count(catalog, di, dj))
    rho = scipy_stats.spearmanr(doss_values, shared_counts).statistic
    assert rho > 0.3, rho
    _ok(f"doss-shared-term-correlation (rho={rho:.3f})")


def test_catalog_statistics_fixture_exactness(capsys):
    """stats must reproduce the fixture's per-dataset feature/annotation
    counts (metaMIMIC 184/175, Stroke Prediction 11/11, all 16 rows) and
    terms must rank 397669002 first with 15 datasets and 263495000 second
    with 11."""
    catalog_path = str(FIXTURES / "healthcare_catalog.json")
    expected_counts = {
        "Cardiovascular Study": (16, 15),
        "Diagnosis of COVID-19 (Subset)": (19, 18),
        "Diabetes Health Indicators": (22, 21),
        "Diabetes 130 US": (49, 38),
        "GOSSIS-1-eICU Model Ready": (68, 60),
        "Stroke Prediction": (11, 11),
        "Heart Disease Indicators": (22, 21),
        "Heart Disease (Comprehensive)": (12, 11),
        "HCV data": (13, 13),
        "Hepatitis": (20, 19),
        "HiRID Preprocessed": (18, 17),
        "Pima Indians Diabetes": (9, 8),
        "ILPD": (11, 11),
        "Breast Cancer": (10, 9),
        "metaMIMIC": (184, 175),
        "Thyroid Disease": (30, 27),
    }
    code = main(["stats", "--catalog", catalog_path])
    out = capsys.readouterr().out
    assert code == 0
    import csv as _csv

    rows = list(_csv.reader(line for line in io.StringIO(out) if not line.startswith("#")))
    header = rows[0]
    got = {
        row[header.index("name")]: (
            int(row[header.index("feature_count")]),
            int(row[header.index("annotated_count")]),
        )
        for row in rows[1:]
    }
    assert got == expected_counts

    code = main(["terms", "--catalog", catalog_path, "--top", "5"])
    out = capsys.readouterr().out
    assert code == 0
    rows = list(_csv.reader(line for line in io.StringIO(out) if not line.startswith("#")))
    top = [(row[0], int(row[1]), int(row[2])) for row in rows[1:]]
    assert top[0] == ("397669002", 15, 3)
    assert top[1] == ("263495000", 11, 4)
    assert top[2:] == [("73211009", 6, 5), ("359986008", 5, 8), ("38341003", 5, 4)]
    _ok("catalog-statistics (fixture exactness)")


def _rss_gib() -> float:
    """Current RSS from psutil when installed; otherwise the process's peak
    RSS from getrusage, which is never below it, so the check is stricter."""
    try:
        import psutil
    except ImportError:
        # ru_maxrss is in KiB on Linux and in bytes on macOS
        unit = 1 if sys.platform == "darwin" else 1024
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * unit / 2**30
    return psutil.Process().memory_info().rss / 2**30


SCALE_TERMS = 350_000


def _scale_dag(rng: random.Random):
    """The scale gates' seeded DAG: every term but the first gets one random
    earlier parent, and every tenth term a second one."""
    ids = [f"c{i}" for i in range(SCALE_TERMS)]
    edges = []
    append = edges.append
    for i in range(1, SCALE_TERMS):
        append((ids[i], ids[rng.randrange(i)]))
        if i % 10 == 0:
            append((ids[i], ids[rng.randrange(i)]))
    return ids, build_ontology(ids, edges)


def test_scale_350k_terms_under_5_seconds_and_2_gb():
    """Building closures for 216 query terms on a 350,000-term DAG plus the
    216x216 similarity matrix must finish in under 5 seconds and stay under
    2 GB of resident memory."""
    rng = random.Random(987654321)
    ids, graph = _scale_dag(rng)
    assert len(graph) == SCALE_TERMS
    queries = rng.sample(ids, 216)

    started = time.perf_counter()
    for term in queries:
        graph.theta(term)  # forces closure construction
    matrix = pairwise_matrix(graph, PARAMS, queries)
    elapsed = time.perf_counter() - started

    assert len(matrix.terms) == 216
    assert all(matrix.values[i][i] == 1.0 for i in range(216))
    rss_gb = _rss_gib()
    assert elapsed < 5.0, f"{elapsed:.2f}s"
    assert rss_gb < 2.0, f"{rss_gb:.2f} GiB"
    _ok(f"scale-350k ({elapsed:.2f}s, {rss_gb:.2f} GiB)")


def test_scale_350k_all_closures_under_2_gb():
    """Memoising the ancestor closure of every term of the same 350,000-term
    DAG at once, as a whole-ontology sweep does, must stay under 2 GB of
    resident memory."""
    ids, graph = _scale_dag(random.Random(987654321))
    started = time.perf_counter()
    theta_total = sum(graph.theta(term) for term in ids)
    elapsed = time.perf_counter() - started
    assert theta_total > SCALE_TERMS  # each closure holds its own term, non-roots more
    rss_gb = _rss_gib()
    assert rss_gb < 2.0, f"{rss_gb:.2f} GiB"
    _ok(f"scale-350k-all-closures ({elapsed:.2f}s, theta sum {theta_total}, {rss_gb:.2f} GiB)")


def test_matrix_outputs_bit_identical_across_runs(tmp_path):
    """Serialized matrices must be byte-identical across repeated runs, on
    fresh and on warm graphs, in process and through the CLI."""
    with open(FIXTURES / "healthcare_edges.tsv", encoding="utf-8") as fh:
        from ontosim import parse_edge_list

        terms, edges, _ = parse_edge_list(fh)
    graph = build_ontology(terms, edges)
    with open(FIXTURES / "healthcare_catalog.json", encoding="utf-8") as fh:
        from ontosim import catalog_terms, load_catalog

        catalog = load_catalog(fh)
    query_terms = catalog_terms(catalog)

    def render() -> str:
        fresh = build_ontology(terms, edges)  # fresh caches each run
        matrix = pairwise_matrix(fresh, PARAMS, query_terms)
        buf = io.StringIO()
        matrix.to_csv(buf)
        return buf.getvalue()

    baseline = render()
    for _ in range(2):
        assert render() == baseline

    def render_doss() -> str:
        matrix = doss_matrix(graph, PARAMS, catalog)
        buf = io.StringIO()
        matrix.to_csv(buf)
        return buf.getvalue()

    doss_baseline = render_doss()
    assert render_doss() == doss_baseline  # the graph's closures are warm now

    # end-to-end through the CLI, twice, comparing file bytes
    out1, out2 = tmp_path / "m1.csv", tmp_path / "m2.csv"
    for target in (out1, out2):
        code = main([
            "matrix",
            "--ontology-edges", str(FIXTURES / "healthcare_edges.tsv"),
            "--catalog", str(FIXTURES / "healthcare_catalog.json"),
            "--out", str(target),
        ])
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    _ok("matrix-determinism")
