"""Tests of the benchmark's own code: the generator, the checker, failure
accounting and the traced counters.

Run with: python3 -m pytest perfbench/tests
"""

import io
import json

import pytest

import check
import gen
import run
import workload
from ontosim import SimilarityParams, build_ontology, doss_matrix, load_catalog, pairwise_matrix

TOY_EDGES = [("a", "r"), ("b", "a"), ("c", "r"), ("d", "b"), ("d", "c")]


@pytest.fixture
def small_dag(monkeypatch):
    monkeypatch.setattr(gen, "DAG_TERMS", 3000)
    monkeypatch.setattr(gen, "SWEEP_CANDIDATES", 400)
    monkeypatch.setattr(gen, "SWEEP_QUERIES", 20)


@pytest.mark.parametrize("name", gen.WORKLOADS)
def test_generator_is_byte_identical_for_one_seed(tmp_path, small_dag, name):
    first, second, other = tmp_path / "1", tmp_path / "2", tmp_path / "3"
    gen.generate(name, 7, first)
    gen.generate(name, 7, second)
    gen.generate(name, 8, other)
    files = sorted(p.name for p in first.iterdir())
    assert files == sorted(p.name for p in second.iterdir())
    for file in files:
        assert (first / file).read_bytes() == (second / file).read_bytes(), file
    assert (first / "plan.json").read_bytes() != (other / "plan.json").read_bytes()


def test_generated_inputs_describe_one_dag(tmp_path, small_dag):
    gen.generate("dag350k-cli", 3, tmp_path)
    parents = check.read_parents(tmp_path / "dag.tsv")
    assert len(parents) == gen.DAG_TERMS
    obo_is_a = (tmp_path / "dag.obo").read_text(encoding="utf-8").count("\nis_a: ")
    assert obo_is_a == sum(len(p) for p in parents.values())
    catalog = check.read_catalog(tmp_path / "catalog.json")
    original = check.read_catalog(gen.HEALTHCARE_CATALOG)
    assert [len(check.term_set(f)) for f in catalog.values()] == [len(check.term_set(f)) for f in original.values()]
    assert all(t in parents for f in catalog.values() for t in check.term_set(f))


def toy_matrix_csv() -> str:
    graph = build_ontology(["r", "a", "b", "c", "d"], TOY_EDGES)
    buf = io.StringIO()
    pairwise_matrix(graph, SimilarityParams(), ["a", "b", "c", "d"]).to_csv(buf, {"kind": "similarity"})
    return buf.getvalue()


def toy_catalog() -> dict:
    return {"x": [{"name": "f1", "term": "a"}, {"name": "f2", "term": "d"}],
            "y": [{"name": "f1", "term": "b"}, {"name": "f3", "term": "c"}]}


def test_checker_accepts_the_program_output():
    ref = check.Reference(check.parents_of(TOY_EDGES))
    assert check.check_matrix(toy_matrix_csv(), ref, toy_catalog(), seed=1) == []


def replace_cell(text: str, row: int, col: int, value: str) -> str:
    lines = text.splitlines()
    first = next(i for i, line in enumerate(lines) if not line.startswith("#")) + 1 + row
    cells = lines[first].split(",")
    cells[1 + col] = value
    lines[first] = ",".join(cells)
    return "\n".join(lines) + "\n"


def test_checker_flags_a_cell_off_in_the_sixth_decimal():
    ref = check.Reference(check.parents_of(TOY_EDGES))
    text = toy_matrix_csv()
    _, values = check._csv_matrix(text)
    for delta in (1e-6, -1e-6):
        bumped = replace_cell(text, 0, 1, f"{values[0][1] + delta:.6f}")
        problems = check.check_matrix(bumped, ref, toy_catalog(), seed=1)
        assert len(problems) == 1 and "[a, b]" in problems[0]


@pytest.mark.parametrize("value", ["0.000000", "1.000001", "-0.250000"])
def test_checker_flags_a_value_outside_the_unit_interval(value):
    ref = check.Reference(check.parents_of(TOY_EDGES))
    problems = check.check_matrix(replace_cell(toy_matrix_csv(), 2, 0, value), ref, toy_catalog(), seed=1)
    assert any("outside (0, 1]" in p for p in problems)


def test_checker_flags_a_doss_diagonal_below_one():
    ref = check.Reference(check.parents_of(TOY_EDGES))
    graph = build_ontology(["r", "a", "b", "c", "d"], TOY_EDGES)
    catalog = load_catalog(json.dumps({"ontology_version": "toy", "datasets": [
        {"id": ds, "name": ds, "origin": [], "category": "EHR", "features": features}
        for ds, features in toy_catalog().items()]}))
    buf = io.StringIO()
    doss_matrix(graph, SimilarityParams(), catalog).to_csv(buf)
    assert check.check_doss_matrix(buf.getvalue(), ref, toy_catalog(), seed=1) == []
    broken = replace_cell(buf.getvalue(), 1, 1, "0.999999")
    assert any("diagonal" in p for p in check.check_doss_matrix(broken, ref, toy_catalog(), seed=1))


def healthcare_runner() -> workload.Runner:
    plan = gen.healthcare_plan(5)
    runner = workload.Runner("healthcare-cli", plan, gen.input_files("healthcare-cli", None))
    runner.setup()
    return runner


def test_a_raising_job_is_counted_as_failed_and_the_run_goes_on(monkeypatch):
    runner = healthcare_runner()
    real = runner.cycle_jobs

    def jobs(i):
        def boom(tracer):
            raise RuntimeError("boom")
        return [("term-sim", "raises", boom), real(i)[0]]

    monkeypatch.setattr(runner, "cycle_jobs", jobs)
    runner.run_cycle(0, None)
    assert [job["error"] is None for job in runner.jobs] == [False, True]
    assert "RuntimeError: boom" in runner.jobs[0]["error"]


def test_a_non_zero_exit_and_a_failed_check_count_as_failed():
    runner = healthcare_runner()
    edges = str(gen.HEALTHCARE_EDGES)
    runner.cycle = lambda i: [("term-sim", ["term-sim", "no-such-term", "x", "--ontology-edges", edges])]
    runner.run_cycle(0, None)
    assert runner.jobs[0]["error"].startswith("JobFailed: exit 4")
    result = {"jobs": runner.jobs + [{"kind": "stats", "key": "k", "cycle": 1, "seconds": 0.1, "reference_s": 0.02, "error": None}],
              "setup_s": [0.1], "peak_rss_mib": 1.0, "elapsed_s": 1.0}
    report = run.summarise(result, {"k": ["wrong"]}, trace=False)
    assert report["attempted"] == 2 and report["failed"] == 2 and report["correct"] is False


def test_a_repeat_with_different_bytes_fails():
    runner = healthcare_runner()
    outputs = iter(["one\n", "two\n"])
    runner.cycle_jobs = lambda i: [("stats", "same", lambda tracer: next(outputs))]
    runner.run_cycle(0, None)
    runner.run_cycle(1, None)
    assert runner.jobs[0]["error"] is None
    assert "differs" in runner.jobs[1]["error"]


def test_traced_doss_matrix_counts_pairs():
    runner = healthcare_runner()
    runner.cycle = lambda i: [("doss-matrix", ["doss-matrix", "--ontology-edges", str(gen.HEALTHCARE_EDGES),
                                               "--catalog", str(gen.HEALTHCARE_CATALOG)])]
    tracer = workload.Tracer()
    tracer.install()
    try:
        runner.run_cycle(0, tracer)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    assert runner.jobs[0]["error"] is None
    assert metrics["similarity.sim_calls"] == 221_841
    assert metrics["similarity.distinct_pairs"] == 46_656
    assert metrics["ontology.closures"] == 216
    assert metrics["doss.cells"] == 256
    assert metrics["doss.matrix_s"] > 0 and metrics["ingest.edge_list_s"] > 0
    assert metrics["similarity.nearest_s"] == 0


def test_cycle_ref_is_the_middle_mean_of_whole_successful_cycles():
    seconds = [1.0, 2.0, 3.0, 4.0, 100.0]
    jobs = [{"kind": kind, "key": kind, "cycle": i, "seconds": s / 2, "reference_s": 0.5, "error": None}
            for i, s in enumerate(seconds) for kind in ("a", "b")]
    jobs.append({"kind": "a", "key": "a", "cycle": 5, "seconds": 0.1, "reference_s": 0.5, "error": "boom"})
    jobs.append({"kind": "b", "key": "b", "cycle": 5, "seconds": 0.1, "reference_s": 0.5, "error": None})
    result = {"jobs": jobs, "setup_s": [0.1], "peak_rss_mib": 1.0, "elapsed_s": 10.0}
    report = run.summarise(result, {}, trace=False)
    assert report["metrics"]["cycle_ref"]["value"] == 6.0
    assert "cycle_s = 3.000000 s  (middle mean, n=5)" in report["lines"]
    assert "jobs_per_s = 1.100000 1/s  (n=11)" in report["lines"]
    assert report["failed"] == 1


def test_each_job_records_the_reference_around_its_cycle(monkeypatch):
    runner = healthcare_runner()
    timings = iter([0.2, 0.4, 0.8])
    monkeypatch.setattr(workload, "reference_seconds", lambda: next(timings))
    runner.cycle_jobs = lambda i: [("stats", "same", lambda tracer: "out\n")] * 2
    runner.run_cycle(0, None)
    runner.run_cycle(1, None)
    assert [job["reference_s"] for job in runner.jobs] == pytest.approx([0.3, 0.3, 0.6, 0.6])
