"""Runs one workload against ``ontosim`` in this process and writes what it
measured, plus the output of every distinct job, to a JSON file.

One client, closed loop: each job starts when the previous one has ended.
CLI jobs call ``ontosim.cli.main(argv)`` in-process with stdout captured in
memory, at the CLI's default of one worker. The loop runs whole cycles of
the workload's job types until ``--seconds`` have passed.

Usage: python3 perfbench/workload.py --workload NAME --plan DIR --seconds S
           --trace 0|1 --result FILE [--spans FILE]
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import resource
import sys
import time
from pathlib import Path

import gen
from tracing import JOB_SPAN, Tracer

sys.path.insert(0, str(gen.ROOT / "src"))

IMPORT_REPEATS = 15
SWEEP_SETUPS = 3
REFERENCE_STEPS = 120_000


def reference_seconds() -> float:
    """Seconds of a fixed pure-Python loop of dict and integer work, about
    20 ms on a 2.1 GHz Xeon core. It is timed between cycles, so that a
    cycle's time can be read against the speed the host gave the process at
    that moment: on a shared host that speed drifts by up to a factor of two
    within minutes, which no length of run averages out."""
    started = time.perf_counter()
    counts: dict[int, int] = {}
    for i in range(REFERENCE_STEPS):
        key = i & 1023
        counts[key] = counts.get(key, 0) + (i * i) % 7
    return time.perf_counter() - started


class JobFailed(Exception):
    pass


def fresh_import() -> None:
    """Import ``ontosim`` and its CLI from scratch."""
    for name in [m for m in sys.modules if m == "ontosim" or m.startswith("ontosim.")]:
        del sys.modules[name]
    importlib.import_module("ontosim")
    importlib.import_module("ontosim.cli")


def run_cli(argv: list[str], tracer: Tracer | None) -> str:
    """One CLI call; its stdout, or JobFailed when it exits non-zero."""
    cli = sys.modules["ontosim.cli"]
    out, err = io.StringIO(), io.StringIO()
    index = tracer.open(JOB_SPAN) if tracer else None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    finally:
        if tracer:
            tracer.close(index)
    if code != 0:
        raise JobFailed(f"exit {code}: {err.getvalue().strip()[-300:]}")
    return out.getvalue()


def cli_cycle(workload: str, plan: dict, files: dict):
    """A function giving the jobs of cycle ``i`` as (kind, argv)."""
    edges = ["--ontology-edges", str(files["edges"])]
    catalog = ["--catalog", str(files["catalog"])]
    if workload == "dag350k-cli":
        return lambda i: [
            ("doss-matrix", ["doss-matrix", *edges, *catalog]),
            ("validate-obo", ["validate", "--ontology-obo", str(files["obo"])]),
        ]

    def cycle(i: int) -> list:
        j = i % gen.POOL
        t1, t2 = plan["term_pairs"][j]
        d1, d2 = plan["dataset_pairs"][j]
        return [
            ("term-sim", ["term-sim", t1, t2, *edges]),
            ("doss", ["doss", d1, d2, *edges, *catalog, "--verbose"]),
            ("matrix", ["matrix", *edges, *catalog]),
            ("doss-matrix", ["doss-matrix", *edges, *catalog]),
            ("stats", ["stats", *catalog]),
            ("search", ["search", plan["queries"][j], "--labels", str(files["labels"])]),
        ]

    return cycle


class Sweep:
    """Closures kept warm: set-up parses, builds and computes theta over the
    candidate sample; each job is one nearest-terms query."""

    def __init__(self, plan: dict, files: dict):
        self.plan = plan
        self.files = files
        self.graph = None

    def setup(self, tracer: Tracer | None) -> float:
        """Import (unless traced, which must keep the wrapped modules),
        parse, build and compute the candidates' closures."""
        self.graph = None
        gc.collect()
        started = time.perf_counter()
        if tracer:
            tracer.begin_unit("setup")
        else:
            fresh_import()
        ontosim = sys.modules["ontosim"]
        with open(self.files["edges"], encoding="utf-8") as fh:
            terms, edges, _ = ontosim.parse_edge_list(fh)
        graph = ontosim.build_ontology(terms, edges)
        del terms, edges
        if tracer:
            tracer.closure_pass(graph, self.plan["candidates"])
            tracer.end_unit()
        else:
            for term in self.plan["candidates"]:
                graph.theta(term)
        self.graph = graph
        return time.perf_counter() - started

    def query(self, i: int) -> str:
        return self.plan["queries"][i % len(self.plan["queries"])]

    def nearest(self, query: str) -> str:
        ontosim = sys.modules["ontosim"]
        found = ontosim.nearest_terms(
            self.graph, ontosim.SimilarityParams(), query, self.plan["candidates"], self.plan["k"]
        )
        return json.dumps([[term, score] for term, score in found])


class Runner:
    """Runs jobs, records their timings and keeps the first output of each
    distinct job; a repeat whose bytes differ fails."""

    def __init__(self, workload: str, plan: dict, files: dict):
        self.jobs: list[dict] = []
        self.outputs: dict[str, str] = {}
        self.reference: float | None = None
        if workload == "dag350k-sweep":
            self.sweep = Sweep(plan, files)
            self.cycle = None
        else:
            self.sweep = None
            self.cycle = cli_cycle(workload, plan, files)

    def setup(self, tracer: Tracer | None = None) -> float:
        if self.sweep:
            return self.sweep.setup(tracer)
        started = time.perf_counter()
        fresh_import()
        return time.perf_counter() - started

    def cycle_jobs(self, i: int) -> list:
        """The jobs of cycle ``i`` as (kind, key, call); the key names the
        job's arguments: the command line, or the sweep's query."""
        if self.sweep:
            query = self.sweep.query(i)
            return [("nearest", query, lambda tracer: self.sweep.nearest(query))]
        return [
            (kind, json.dumps(argv), lambda tracer, argv=argv: run_cli(argv, tracer))
            for kind, argv in self.cycle(i)
        ]

    def run_cycle(self, i: int, tracer: Tracer | None) -> None:
        """Run the jobs of cycle ``i``; each job records the mean of the
        reference timings just before and just after its cycle."""
        before = self.reference if self.reference is not None else reference_seconds()
        start = len(self.jobs)
        for kind, key, call in self.cycle_jobs(i):
            if tracer:
                tracer.begin_unit(kind)
            started = time.perf_counter()
            error = output = None
            try:
                output = call(tracer)
            except Exception as exc:  # a failed job is counted, the run goes on
                error = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - started
            if tracer:
                tracer.end_unit()
            if output is not None:
                first = self.outputs.setdefault(key, output)
                if first != output:
                    error = "output differs from an earlier run of the same job"
            self.jobs.append({"kind": kind, "key": key, "cycle": i, "seconds": elapsed, "error": error})
        self.reference = reference_seconds()
        for job in self.jobs[start:]:
            job["reference_s"] = (before + self.reference) / 2

    def loop(self, seconds: float, start_cycle: int, tracer: Tracer | None = None) -> tuple[int, float]:
        """Whole cycles until ``seconds`` have passed; returns the next cycle
        index and the elapsed wall time."""
        started = time.perf_counter()
        i = start_cycle
        while True:
            self.run_cycle(i, tracer)
            i += 1
            elapsed = time.perf_counter() - started
            if elapsed >= seconds:
                return i, elapsed


def jobs_per_s(jobs: list[dict], elapsed: float) -> float:
    return sum(1 for job in jobs if job["error"] is None) / elapsed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--plan", type=Path, required=True, help="directory written by gen.py")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args(argv)

    plan = json.loads((args.plan / "plan.json").read_text(encoding="utf-8"))
    runner = Runner(args.workload, plan, gen.input_files(args.workload, args.plan))
    result: dict = {"workload": args.workload}

    if not args.trace:
        repeats = SWEEP_SETUPS if runner.sweep else IMPORT_REPEATS
        result["setup_s"] = [runner.setup() for _ in range(repeats)]
        _, elapsed = runner.loop(args.seconds, 0)
        result["elapsed_s"] = elapsed
        result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        # Traced first, so that the sweep's set-up runs in a fresh process
        # and its RSS growth is the program's own; then the same job sequence
        # untraced. The ratio of the two throughputs is the tracing overhead.
        tracer = Tracer()
        tracer.install()  # also the first import of ontosim
        try:
            if runner.sweep:
                runner.sweep.setup(tracer)
            next_cycle, traced_s = runner.loop(args.seconds / 2, 0, tracer)
        finally:
            tracer.uninstall()
        traced = jobs_per_s(runner.jobs, traced_s)
        done = len(runner.jobs)
        _, untraced_s = runner.loop(args.seconds / 2, next_cycle)
        untraced = jobs_per_s(runner.jobs[done:], untraced_s)
        metrics = tracer.metrics()
        metrics["trace.overhead"] = traced / untraced if untraced else 0.0
        result["layers"] = metrics
        result["elapsed_s"] = untraced_s + traced_s
        if args.spans:
            tracer.write_spans(args.spans)
    result["jobs"] = runner.jobs
    result["outputs"] = runner.outputs
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
