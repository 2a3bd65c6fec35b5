"""Tracing from outside the program: timing and counting wrappers installed
on the public names that ``ontosim.cli`` and the library look up at call
time.

Spans (name, start, end, parent, unit) stay in memory and are written out
when the run ends. A unit is one job, or the sweep's set-up; counters are
kept per unit. Hot per-pair names are counted, never timed. A name that the
program no longer has is skipped, so its metrics read 0.
"""

from __future__ import annotations

import importlib
import json
import os
import statistics
import time
from collections import Counter
from pathlib import Path

# (module, attribute, span name): entry points timed as spans
TIMED = (
    ("ontosim.cli", "parse_edge_list", "ingest.edge_list"),
    ("ontosim.cli", "parse_obo_subset", "ingest.obo"),
    ("ontosim.cli", "parse_labels", "ingest.labels"),
    ("ontosim", "parse_edge_list", "ingest.edge_list"),
    ("ontosim.cli", "build_ontology", "ontology.build"),
    ("ontosim", "build_ontology", "ontology.build"),
    ("ontosim.cli", "load_catalog", "catalog.load"),
    ("ontosim.cli", "coverage_stats", "catalog.stats"),
    ("ontosim.cli", "search_labels", "catalog.search"),
    ("ontosim.cli", "pairwise_matrix", "similarity.matrix"),
    ("ontosim", "nearest_terms", "similarity.nearest"),
    ("ontosim.cli", "doss", "doss.pair"),
    ("ontosim.cli", "doss_matrix", "doss.matrix"),
    ("ontosim.matrixio", "write_matrix_csv", "matrixio.write"),
)
# (module, attribute, counter): hot names, counted per call
COUNTED = (
    ("ontosim.similarity", "sim_rm", "similarity.sim_calls"),
    ("ontosim.doss", "sim_rm", "similarity.sim_calls"),
    ("ontosim.similarity", "sim_rm_directed", "similarity.directed_evals"),
    ("ontosim.cli", "sim_rm_directed", "similarity.directed_evals"),
    ("ontosim.doss", "term_set", "catalog.term_set_calls"),
)
INGEST = ("ingest.edge_list", "ingest.obo", "ingest.labels")
# Kernel entry points, each preceded by a closure pre-pass.
KERNEL = ("similarity.matrix", "similarity.nearest", "doss.pair", "doss.matrix")
# Span-time metrics, in seconds: the summed duration of the named spans.
SPAN_METRICS = {
    "ingest.edge_list_s": "ingest.edge_list",
    "ingest.obo_s": "ingest.obo",
    "ingest.labels_s": "ingest.labels",
    "ontology.build_s": "ontology.build",
    "ontology.closure_s": "ontology.closure",
    "similarity.matrix_s": "similarity.matrix",
    "similarity.nearest_s": "similarity.nearest",
    "doss.matrix_s": "doss.matrix",
    "doss.pair_s": "doss.pair",
    "catalog.load_s": "catalog.load",
    "catalog.stats_s": "catalog.stats",
    "catalog.search_s": "catalog.search",
    "matrixio.write_s": "matrixio.write",
}
COUNTERS = (
    "ingest.bytes",
    "ontology.closures",
    "ontology.closure_rss_mib",
    "similarity.sim_calls",
    "similarity.directed_evals",
    "doss.cells",
    "catalog.term_set_calls",
    "matrixio.bytes",
)
JOB_SPAN = "cli.main"
PAGE_SIZE = os.sysconf("SC_PAGE_SIZE")


def current_rss_mib() -> float:
    """Resident set size now (not the peak); 0 where /proc is unavailable."""
    try:
        with open("/proc/self/statm", encoding="ascii") as fh:
            return int(fh.read().split()[1]) * PAGE_SIZE / 2**20
    except OSError:
        return 0.0


def _graph_cache_size(graph) -> int:
    # The number of memoised closures; 0 if the graph no longer keeps them
    # in this attribute.
    try:
        return len(graph._masks)
    except (AttributeError, TypeError):
        return 0


def _terms_of(entry: str, args: tuple) -> tuple[object, list[str], tuple]:
    """The graph and the terms an entry point is about to touch, plus its
    arguments with any one-shot iterable replaced by a list."""
    graph = args[0]
    if entry == "similarity.matrix":
        terms = list(args[2])
        return graph, terms, (*args[:2], terms, *args[3:])
    if entry == "similarity.nearest":
        candidates = list(args[3])
        return graph, [args[2], *candidates], (*args[:3], candidates, *args[4:])
    catalog = args[2]
    if entry == "doss.pair":
        records = [catalog.dataset(args[3]), catalog.dataset(args[4])]
    else:
        records = catalog.datasets
    terms = sorted({f.term for ds in records for f in ds.features if f.term is not None})
    return graph, terms, args


class Tracer:
    """Collects spans and per-unit counters while its wrappers are installed."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, unit index]
        self.units: list[dict] = []  # {"kind", "counts", "pairs", "theta"}
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans and units -------------------------------------------------
    def begin_unit(self, kind: str) -> None:
        self.units.append({"kind": kind, "counts": Counter(), "pairs": set(), "theta": [0, 0]})

    def end_unit(self) -> None:
        unit = self.units[-1]
        unit["counts"]["similarity.distinct_pairs"] = len(unit["pairs"])
        unit["pairs"] = None

    def open(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), None, parent, len(self.units) - 1])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._open.pop()

    def count(self, key: str, amount: int = 1) -> None:
        self.units[-1]["counts"][key] += amount

    def closure_pass(self, graph, terms) -> None:
        """Build the closures of ``terms`` ahead of the kernel, as its own
        span, so closure time is split from kernel time."""
        index = self.open("ontology.closure")
        before, rss = _graph_cache_size(graph), current_rss_mib()
        distinct = [term for term in dict.fromkeys(terms) if term in graph]
        total = 0
        try:
            for term in distinct:
                total += graph.theta(term)
        finally:
            self.close(index)
        self.count("ontology.closures", _graph_cache_size(graph) - before)
        self.count("ontology.closure_rss_mib", max(0.0, current_rss_mib() - rss))
        self.units[-1]["theta"][0] += total
        self.units[-1]["theta"][1] += len(distinct)

    # -- wrappers --------------------------------------------------------
    def _timed(self, fn, name: str):
        tracer = self
        kernel = name in KERNEL

        def wrapper(*args, **kwargs):
            if kernel:
                try:
                    graph, terms, args = _terms_of(name, args)
                except Exception:  # let the real call report bad arguments
                    pass
                else:
                    tracer.closure_pass(graph, terms)
            stream = args[0] if name == "matrixio.write" and args else None
            start = stream.tell() if hasattr(stream, "tell") else 0
            if name in INGEST and args and hasattr(args[0], "fileno"):
                tracer.count("ingest.bytes", os.fstat(args[0].fileno()).st_size)
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if stream is not None and hasattr(stream, "tell"):
                tracer.count("matrixio.bytes", stream.tell() - start)
            if name == "doss.matrix":
                tracer.count("doss.cells", sum(len(row) for row in getattr(result, "values", ())))
            return result

        return wrapper

    def _counted(self, fn, key: str):
        counts_pairs = key == "similarity.sim_calls"
        units = self.units

        def wrapper(*args, **kwargs):
            unit = units[-1]
            unit["counts"][key] += 1
            if counts_pairs and len(args) >= 4:
                unit["pairs"].add((args[2], args[3]))
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        for module_name, attr, name in TIMED:
            self._patch(module_name, attr, lambda fn, name=name: self._timed(fn, name))
        for module_name, attr, key in COUNTED:
            self._patch(module_name, attr, lambda fn, key=key: self._counted(fn, key))

    def _patch(self, module_name: str, attr: str, make) -> None:
        module = importlib.import_module(module_name)
        original = getattr(module, attr, None)
        if callable(original):
            self._patches.append((module, attr, original))
            setattr(module, attr, make(original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    # -- results ---------------------------------------------------------
    def unit_totals(self) -> list[dict[str, float]]:
        """Per unit: summed span seconds per metric, counters, and CLI self
        time (the job span minus the spans directly under it)."""
        totals = [dict(u["counts"]) for u in self.units]
        by_name = {span: metric for metric, span in SPAN_METRICS.items()}
        child_time = Counter()
        for name, start, end, parent, unit in self.spans:
            metric = by_name.get(name)
            if metric:
                totals[unit][metric] = totals[unit].get(metric, 0.0) + (end - start)
            if parent >= 0:
                child_time[parent] += end - start
        for index, (name, start, end, _, unit) in enumerate(self.spans):
            if name == JOB_SPAN:
                totals[unit]["cli.self_s"] = totals[unit].get("cli.self_s", 0.0) + (end - start) - child_time[index]
        return totals

    def metrics(self) -> dict[str, float]:
        """Each metric is the median over the units of one kind, taken for
        the kind where that median is largest: the job type (or set-up)
        that does the layer's work. Kinds that never touch a layer do not
        dilute it, and a layer no unit touches reads 0."""
        totals = self.unit_totals()
        kinds: dict[str, list[int]] = {}
        for index, unit in enumerate(self.units):
            kinds.setdefault(unit["kind"], []).append(index)

        def heaviest(metric: str) -> tuple[float, list[int]]:
            best, members = 0.0, []
            for indexes in kinds.values():
                value = statistics.median(totals[i].get(metric, 0) for i in indexes)
                if value > best:
                    best, members = value, indexes
            return best, members

        out = {}
        for metric in (*SPAN_METRICS, *COUNTERS, "cli.self_s"):
            out[metric] = heaviest(metric)[0]
        calls, members = heaviest("similarity.sim_calls")
        out["similarity.distinct_pairs"] = (
            statistics.median(totals[i].get("similarity.distinct_pairs", 0) for i in members) if members else 0
        )
        out["similarity.useful_ratio"] = out["similarity.distinct_pairs"] / calls if calls else 0.0
        theta_sum = sum(u["theta"][0] for u in self.units)
        theta_n = sum(u["theta"][1] for u in self.units)
        out["ontology.theta_mean"] = theta_sum / theta_n if theta_n else 0.0
        ingest_s = sum(end - start for name, start, end, *_ in self.spans if name in INGEST)
        ingest_bytes = sum(u["counts"]["ingest.bytes"] for u in self.units)
        out["ingest.mib_per_s"] = ingest_bytes / 2**20 / ingest_s if ingest_s else 0.0
        return out

    def write_spans(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, unit in self.spans:
                record = {"name": name, "start": start, "end": end, "parent": parent,
                          "unit": unit, "kind": self.units[unit]["kind"] if unit >= 0 else None}
                fh.write(json.dumps(record) + "\n")
