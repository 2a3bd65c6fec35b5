"""Seeded input generator for the benchmark workloads.

Runs in its own process before the workload process starts, so its time and
memory count toward neither ``setup_s`` nor ``peak_rss_mib``. For one seed
every file it writes is byte-identical.

Usage: python3 perfbench/gen.py --workload NAME --seed N --out DIR
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"
HEALTHCARE_EDGES = FIXTURES / "healthcare_edges.tsv"
HEALTHCARE_LABELS = FIXTURES / "healthcare_labels.tsv"
HEALTHCARE_CATALOG = FIXTURES / "healthcare_catalog.json"

WORKLOADS = ("healthcare-cli", "dag350k-cli", "dag350k-sweep")
DAG_TERMS = 350_000
SWEEP_CANDIDATES = 50_000
SWEEP_QUERIES = 400
NEAREST_K = 10
# Seeded argument pools for the healthcare jobs; cycle i uses entry i % POOL,
# so every distinct command line repeats and its output bytes can be compared.
POOL = 4


def dag_edges(n: int, seed: int) -> list[tuple[int, int]]:
    """The scale gate's generator: one random earlier parent per term, and a
    second one every 10th term (which may repeat the first)."""
    rng = random.Random(seed)
    edges = []
    append = edges.append
    for i in range(1, n):
        append((i, rng.randrange(i)))
        if i % 10 == 0:
            append((i, rng.randrange(i)))
    return edges


def write_edge_list(path: Path, edges: list[tuple[int, int]]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("".join(f"c{child}\tc{parent}\n" for child, parent in edges))


def write_obo(path: Path, n: int, edges: list[tuple[int, int]]) -> None:
    parents: list[list[int]] = [[] for _ in range(n)]
    for child, parent in edges:
        parents[child].append(parent)
    out = ["format-version: 1.2\nontology: dag350k\n"]
    for i in range(n):
        out.append(f'\n[Term]\nid: c{i}\nname: concept {i}\nsynonym: "synthetic concept {i}" EXACT []\n')
        out.extend(f"is_a: c{p} ! concept {p}\n" for p in parents[i])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("".join(out))


def catalog_terms(payload: dict) -> list[str]:
    return sorted({f["term"] for ds in payload["datasets"] for f in ds["features"] if f["term"]})


def remapped_catalog(rng: random.Random, n: int) -> dict:
    """The healthcare catalog with its terms mapped one-to-one onto seeded DAG
    terms; which datasets share which terms is unchanged."""
    with open(HEALTHCARE_CATALOG, encoding="utf-8") as fh:
        payload = json.load(fh)
    old = catalog_terms(payload)
    mapping = dict(zip(old, (f"c{i}" for i in rng.sample(range(n), len(old)))))
    for ds in payload["datasets"]:
        for feature in ds["features"]:
            if feature["term"]:
                feature["term"] = mapping[feature["term"]]
    payload["ontology_version"] = "dag350k"
    return payload


def healthcare_plan(seed: int) -> dict:
    rng = random.Random(seed)
    with open(HEALTHCARE_CATALOG, encoding="utf-8") as fh:
        payload = json.load(fh)
    terms = catalog_terms(payload)
    dataset_ids = [ds["id"] for ds in payload["datasets"]]
    words = []
    with open(HEALTHCARE_LABELS, encoding="utf-8") as fh:
        for line in fh:
            words.extend(w.lower() for w in line.rstrip("\n").split("\t")[1].split() if len(w) >= 3)
    words = sorted(set(words))
    return {
        "term_pairs": [rng.sample(terms, 2) for _ in range(POOL)],
        "dataset_pairs": [rng.sample(dataset_ids, 2) for _ in range(POOL)],
        "queries": [rng.choice(words) for _ in range(POOL)],
    }


def input_files(workload: str, out: Path) -> dict[str, Path]:
    """Where the workload's input files are: the fixtures, read in place, or
    the files generated into ``out``."""
    if workload == "healthcare-cli":
        return {"edges": HEALTHCARE_EDGES, "labels": HEALTHCARE_LABELS, "catalog": HEALTHCARE_CATALOG}
    files = {"edges": out / "dag.tsv"}
    if workload == "dag350k-cli":
        files.update(obo=out / "dag.obo", catalog=out / "catalog.json")
    return files


def generate(workload: str, seed: int, out: Path) -> dict:
    """Write the workload's inputs into ``out`` and return its plan, which is
    also saved as ``out/plan.json``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    out.mkdir(parents=True, exist_ok=True)
    if workload == "healthcare-cli":
        plan = healthcare_plan(seed)
    else:
        edges = dag_edges(DAG_TERMS, seed)
        rng = random.Random(f"picks-{seed}")
        files = input_files(workload, out)
        plan = {"terms": DAG_TERMS}
        write_edge_list(files["edges"], edges)
        if workload == "dag350k-cli":
            write_obo(files["obo"], DAG_TERMS, edges)
            payload = remapped_catalog(rng, DAG_TERMS)
            files["catalog"].write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        else:
            picked = rng.sample(range(DAG_TERMS), SWEEP_CANDIDATES + SWEEP_QUERIES)
            plan.update(
                candidates=[f"c{i}" for i in picked[:SWEEP_CANDIDATES]],
                # queries lie outside the candidate pool, so each job builds
                # exactly one fresh closure
                queries=[f"c{i}" for i in picked[SWEEP_CANDIDATES:]],
                k=NEAREST_K,
            )
    plan["workload"] = workload
    plan["seed"] = seed
    (out / "plan.json").write_text(json.dumps(plan, indent=1) + "\n", encoding="utf-8")
    return plan


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    generate(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
