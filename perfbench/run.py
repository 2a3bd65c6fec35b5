"""The ontosim benchmark: one command per workload run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each was chosen):
  healthcare-cli  fresh CLI calls on the 216-term healthcare fixture, cycling
                  term-sim, doss --verbose, matrix, doss-matrix, stats, search
  dag350k-sweep   nearest_terms(query, 50,000 candidates, k=10) on a seeded
                  350,000-term DAG with the candidates' closures kept warm
  dag350k-cli     fresh CLI calls on the same DAG, alternating doss-matrix
                  --ontology-edges and validate --ontology-obo; not listed in
                  BENCHMARK.json, as its 11 s cycles leave too few samples in
                  a run to be steady, but it can be run by hand

Three processes, one after another: gen.py writes the seeded inputs,
workload.py runs the closed loop and records timings and outputs, and this
launcher then checks every distinct output against an independent reference
(check.py). A job that raised, exited non-zero or failed a check counts as
failed. The last line of stdout is the JSON result; the lines before it
list every metric with its unit and sample count.

With --trace 0 the metrics are the end-to-end ones: setup_s (median of
several set-ups: the import, or for the sweep import, parse, build and
closures), peak_rss_mib (ru_maxrss of the workload process) and cycle_ref:
the time of one cycle of the workload's job types divided by the time of a
fixed pure-Python reference loop run just before and just after that cycle
(workload.reference_seconds), as the mean of the middle half of the cycles
whose jobs all succeeded. On a shared host the speed a process gets drifts
by up to a factor of two over minutes: over ten 40 s runs on a 2-vCPU
2.1 GHz Xeon VM, raw seconds of the same code spread (interquartile range
over median) by 10-35 %, and read against the reference by 4-10 %. The
raw figures are printed too, not gated: jobs_per_s
(completed jobs per timed second), cycle_s (the same middle mean of raw
cycle seconds) and the median seconds of each job type. With --trace 1 the
metrics are the per-layer ones from tracing.py plus trace.overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import gen

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
DEADLINE_S = 170
# Units of the per-layer metrics that are neither seconds (*_s) nor counts.
LAYER_UNITS = {
    "ingest.bytes": "bytes",
    "ingest.mib_per_s": "MiB/s",
    "ontology.closure_rss_mib": "MiB",
    "ontology.theta_mean": "terms",
    "similarity.useful_ratio": "ratio",
    "matrixio.bytes": "bytes",
    "trace.overhead": "ratio",
}


def run_step(argv: list[str], deadline: float) -> None:
    """Run one step as its own process, killing it at the deadline."""
    proc = subprocess.Popen([sys.executable, *argv], stdin=subprocess.DEVNULL)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"{Path(argv[0]).name} did not finish in time") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0:
        raise RuntimeError(f"{Path(argv[0]).name} exited with {code}")


def check_outputs(workload: str, plan: dict, files: dict, outputs: dict, seed: int) -> dict[str, list[str]]:
    """Problems found in each distinct job output, keyed like ``outputs``."""
    ref = check.Reference(check.read_parents(files["edges"]))
    problems = {}
    if workload == "dag350k-sweep":
        for query, text in outputs.items():
            problems[query] = check.check_nearest(json.loads(text), ref, query, plan["candidates"], plan["k"])
        return problems
    catalog = check.read_catalog(files["catalog"])
    labels = check.read_labels(files["labels"]) if "labels" in files else {}
    rng = random.Random(seed)
    edges = sum(len(set(parents)) for parents in ref.parents.values())
    for key, text in outputs.items():
        argv = json.loads(key)
        command = argv[0]
        if command == "term-sim":
            found = check.check_term_sim(text, ref, argv[1], argv[2])
        elif command == "doss":
            found = check.check_doss(text, ref, catalog, argv[1], argv[2])
        elif command == "matrix":
            found = check.check_matrix(text, ref, catalog, rng.randrange(2**32))
        elif command == "doss-matrix":
            found = check.check_doss_matrix(text, ref, catalog, rng.randrange(2**32))
        elif command == "validate":
            found = check.check_validate(text, plan["terms"], edges)
        elif command == "stats":
            found = check.check_stats(text, catalog)
        elif command == "search":
            found = check.check_search(text, labels, argv[1], 10)
        else:
            found = [f"no check for {command}"]
        problems[key] = found
    return problems


def middle_mean(values: list[float]) -> float:
    """The mean of the middle half of ``values`` (the interquartile mean)."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.mean(ordered[cut:len(ordered) - cut])


def summarise(result: dict, problems: dict[str, list[str]], trace: bool) -> dict:
    """Fail the jobs whose output failed a check, and build the report: the
    JSON result plus, under "lines", what is printed before it."""
    jobs = result["jobs"]
    for job in jobs:
        if job["error"] is None and problems.get(job["key"]):
            job["error"] = "; ".join(problems[job["key"]][:3])
    failed = sum(1 for job in jobs if job["error"] is not None)
    report = {
        "correct": failed == 0 and not any(problems.values()),
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {},
    }
    by_kind: dict[str, list[float]] = {}
    cycles: dict[int, list[dict]] = {}
    for job in jobs:
        if job["error"] is None:
            by_kind.setdefault(job["kind"], []).append(job["seconds"])
        cycles.setdefault(job["cycle"], []).append(job)
    whole = [cycle for cycle in cycles.values() if all(job["error"] is None for job in cycle)]
    cycle_seconds = [sum(job["seconds"] for job in cycle) for cycle in whole]
    cycle_refs = [sum(job["seconds"] for job in cycle) / cycle[0]["reference_s"] for cycle in whole]
    lines = [f"error_rate = {failed / len(jobs):.4f}  ({failed} of {len(jobs)} jobs)"]
    for kind, seconds in sorted(by_kind.items()):
        name = kind.replace("-", "_") + "_s"
        lines.append(f"{name} = {statistics.median(seconds):.6f} s  (median, n={len(seconds)})")
    metrics = report["metrics"]
    if trace:
        for name, value in result["layers"].items():
            unit = LAYER_UNITS.get(name, "s" if name.endswith("_s") else "count")
            metrics[name] = {"value": value, "unit": unit}
    elif cycle_seconds:
        metrics["setup_s"] = {"value": statistics.median(result["setup_s"]), "unit": "s"}
        metrics["peak_rss_mib"] = {"value": result["peak_rss_mib"], "unit": "MiB"}
        metrics["cycle_ref"] = {"value": middle_mean(cycle_refs), "unit": "ratio"}
        samples = {"setup_s": len(result["setup_s"]), "peak_rss_mib": 1, "cycle_ref": len(cycle_refs)}
        lines.append(f"jobs_per_s = {(len(jobs) - failed) / result['elapsed_s']:.6f} 1/s  (n={len(jobs) - failed})")
        lines.append(f"cycle_s = {middle_mean(cycle_seconds):.6f} s  (middle mean, n={len(cycle_seconds)})")
    for name, metric in metrics.items():
        n = samples[name] if not trace else "traced"
        lines.append(f"{name} = {metric['value']:.6f} {metric['unit']}  (n={n})")
    for job in jobs:
        if job["error"] is not None:
            lines.append(f"failed {job['kind']}: {job['error'][:300]}")
    report["lines"] = lines
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one ontosim benchmark workload.")
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    # turn SIGTERM into an exception, so the step running now is killed too
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (gen.ROOT / "src" / "ontosim" / "__init__.py").is_file() or not gen.HEALTHCARE_CATALOG.is_file():
        print(f"error: no ontosim source tree under {gen.ROOT}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        run_step([str(HERE / "gen.py"), "--workload", args.workload, "--seed", str(args.seed),
                  "--out", str(work)], deadline)
        result_file = work / "result.json"
        step = [str(HERE / "workload.py"), "--workload", args.workload, "--plan", str(work),
                "--seconds", str(args.seconds), "--trace", str(args.trace), "--result", str(result_file)]
        if args.trace:
            step += ["--spans", str(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")]
        run_step(step, deadline)
        result = json.loads(result_file.read_text(encoding="utf-8"))
        plan = json.loads((work / "plan.json").read_text(encoding="utf-8"))
        problems = check_outputs(args.workload, plan, gen.input_files(args.workload, work),
                                 result["outputs"], args.seed)
    except (RuntimeError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not result["jobs"]:
        print("error: no job ran", file=sys.stderr)
        return 1
    report = summarise(result, problems, bool(args.trace))
    for line in report.pop("lines"):
        print(line)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
