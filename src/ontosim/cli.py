"""Command-line interface.

Subcommands:
  validate      parse an ontology file and check it is a valid DAG
  term-sim      similarity between two terms, both directions plus symmetrized
  matrix        pairwise similarity (or distance) matrix over catalog terms
  doss          dataset-to-dataset similarity with best-match explanations
  doss-matrix   full dataset-by-dataset similarity matrix
  stats         per-dataset and catalog-wide annotation coverage
  terms         most common terms across datasets
  search        rank ontology labels and synonyms against a text query

Exit codes: 0 success; 1 malformed input (ontology parse or catalog schema);
2 cycle in the ontology; 3 I/O failure; 4 unknown term or dataset id;
5 dataset with no annotated terms; 64 command-line usage error.

Every output carries the ontology version string: as ``# ontology_version``
comment lines in CSV and text output, as a top-level key in JSON. The value
comes from --ontology-version when given, otherwise from the catalog.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import sys
from typing import IO, Iterator

from .catalog import (
    AnnotationCatalog,
    catalog_terms,
    coverage_stats,
    load_catalog,
    search_labels,
    term_frequency_report,
)
from .doss import AGGREGATORS, DEFAULT_AGGREGATOR, doss, doss_matrix
from .errors import (
    CycleDetected,
    EmptyTermList,
    EmptyTermSet,
    OntosimError,
    UnknownDataset,
    UnknownTerm,
)
from .ingest import ParseReport, parse_edge_list, parse_labels, parse_obo_subset
from .ontology import OntologyGraph, build_ontology
from .similarity import (
    SYMMETRIZE_AS_PRINTED,
    SYMMETRIZE_MEAN,
    SimilarityParams,
    pairwise_matrix,
    sim_rm,
    sim_rm_directed,
)

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_CYCLE = 2
EXIT_IO = 3
EXIT_UNKNOWN_ID = 4
EXIT_EMPTY_TERMS = 5
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors, which would collide with the
    # cycle exit code; route usage problems to a code outside the contract.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _nonnegative(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError("must be non-negative")
    return value


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _add_ontology_options(parser: argparse.ArgumentParser, required: bool) -> None:
    group = parser.add_mutually_exclusive_group(required=required)
    group.add_argument("--ontology-edges", metavar="PATH", help="edge-list TSV: child<TAB>parent per line")
    group.add_argument("--ontology-obo", metavar="PATH", help="OBO-format ontology subset")
    parser.add_argument("--labels", metavar="PATH", help="labels TSV: id<TAB>label[<TAB>synonym]*")
    parser.add_argument(
        "--ontology-version",
        metavar="STR",
        default=None,
        help="version string recorded in outputs (default: catalog value, else 'unspecified')",
    )


def _add_similarity_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--alpha", type=_nonnegative, default=7.9, help="weight of the source term's unshared information (default 7.9)")
    parser.add_argument("--beta", type=_nonnegative, default=3.9, help="weight of the target term's unshared information (default 3.9)")
    parser.add_argument(
        "--symmetrize",
        choices=("as-printed", "mean"),
        default="mean",
        help="'mean' averages both directions (default); 'as-printed' keeps the raw directed form",
    )


def _add_output_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("csv", "json"), default="csv", help="output format (default csv)")
    parser.add_argument("--out", metavar="PATH", default=None, help="output file (default stdout)")


def build_arg_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ontosim", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check an ontology file parses into a valid DAG")
    _add_ontology_options(p, required=True)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("term-sim", help="similarity between two terms")
    p.add_argument("term1")
    p.add_argument("term2")
    _add_ontology_options(p, required=True)
    _add_similarity_options(p)
    p.set_defaults(func=cmd_term_sim)

    p = sub.add_parser("matrix", help="pairwise similarity matrix over all annotated catalog terms")
    _add_ontology_options(p, required=True)
    _add_similarity_options(p)
    _add_output_options(p)
    p.add_argument("--catalog", metavar="PATH", required=True, help="annotation catalog JSON")
    p.add_argument("--distance", action="store_true", help="emit 1 - similarity instead")
    p.add_argument("--workers", type=_positive_int, default=1, help="accepted for compatibility; has no effect")
    p.set_defaults(func=cmd_matrix)

    p = sub.add_parser("doss", help="dataset-to-dataset similarity")
    p.add_argument("dataset1", help="source dataset id")
    p.add_argument("dataset2", help="reference dataset id")
    _add_ontology_options(p, required=True)
    _add_similarity_options(p)
    p.add_argument("--catalog", metavar="PATH", required=True)
    p.add_argument("--agg", choices=tuple(AGGREGATORS), default=DEFAULT_AGGREGATOR, help="summarising function (default mean)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--verbose", action="store_true", help="also print per-term best matches")
    p.set_defaults(func=cmd_doss)

    p = sub.add_parser("doss-matrix", help="dataset similarity matrix over the whole catalog")
    _add_ontology_options(p, required=True)
    _add_similarity_options(p)
    _add_output_options(p)
    p.add_argument("--catalog", metavar="PATH", required=True)
    p.add_argument("--agg", choices=tuple(AGGREGATORS), default=DEFAULT_AGGREGATOR)
    p.add_argument("--workers", type=_positive_int, default=1, help="accepted for compatibility; has no effect")
    p.set_defaults(func=cmd_doss_matrix)

    p = sub.add_parser("stats", help="annotation coverage per dataset and overall")
    p.add_argument("--catalog", metavar="PATH", required=True)
    _add_output_options(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("terms", help="most common terms across datasets")
    p.add_argument("--catalog", metavar="PATH", required=True)
    p.add_argument("--top", type=_positive_int, default=None, metavar="K", help="limit to the first K rows")
    _add_output_options(p)
    p.set_defaults(func=cmd_terms)

    p = sub.add_parser("search", help="rank labels and synonyms against a query string")
    p.add_argument("query")
    _add_ontology_options(p, required=False)
    p.add_argument("--top", type=_positive_int, default=10, metavar="K", help="maximum matches to print (default 10)")
    p.set_defaults(func=cmd_search)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CycleDetected as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CYCLE
    except (UnknownTerm, UnknownDataset) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNKNOWN_ID
    except (EmptyTermSet, EmptyTermList) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EMPTY_TERMS
    except OntosimError as exc:
        # parse errors, schema violations, duplicate ids, dangling endpoints
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


def _load_graph(args) -> tuple[OntologyGraph, ParseReport]:
    if args.ontology_edges:
        with open(args.ontology_edges, encoding="utf-8-sig") as fh:
            term_ids, edges, report = parse_edge_list(fh)
        terms: list = term_ids
        if args.labels:
            with open(args.labels, encoding="utf-8-sig") as fh:
                labels, label_report = parse_labels(fh)
            report.warnings.extend(label_report.warnings)
            terms = [(t, *labels[t]) if t in labels else t for t in term_ids]
    else:
        with open(args.ontology_obo, encoding="utf-8-sig") as fh:
            terms, edges, report = parse_obo_subset(fh)
    return build_ontology(terms, edges), report


def _load_catalog(args) -> AnnotationCatalog:
    with open(args.catalog, encoding="utf-8-sig") as fh:
        return load_catalog(fh)


def _params(args) -> SimilarityParams:
    policy = SYMMETRIZE_MEAN if args.symmetrize == "mean" else SYMMETRIZE_AS_PRINTED
    return SimilarityParams(alpha=args.alpha, beta=args.beta, symmetrization=policy)


def _version(args, catalog: AnnotationCatalog | None = None) -> str:
    if getattr(args, "ontology_version", None):
        return args.ontology_version
    if catalog is not None:
        return catalog.ontology_version
    return "unspecified"


@contextlib.contextmanager
def _out_stream(path: str | None) -> Iterator[IO[str]]:
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh


def _print_warnings(report: ParseReport) -> None:
    for line, message in report.warnings:
        print(f"warning: line {line}: {message}", file=sys.stderr)


def cmd_validate(args) -> int:
    graph, report = _load_graph(args)
    _print_warnings(report)
    print(f"{len(graph)} terms, {graph.edge_count} edges")
    if report.ignored_relation_count:
        print(f"{report.ignored_relation_count} non-taxonomic relation(s) ignored")
    return EXIT_OK


def cmd_term_sim(args) -> int:
    graph, _ = _load_graph(args)
    params = _params(args)
    t1, t2 = args.term1, args.term2
    unknown = [t for t in dict.fromkeys((t1, t2)) if t not in graph]
    if unknown:
        raise UnknownTerm(*unknown)
    d12 = sim_rm_directed(graph, params, t1, t2)
    d21 = sim_rm_directed(graph, params, t2, t1)
    combined = sim_rm(graph, params, t1, t2)
    print(f"# ontology_version: {_version(args)}")
    print(f"# alpha: {params.alpha}  beta: {params.beta}")
    print(f"theta({t1}) = {graph.theta(t1)}")
    print(f"theta({t2}) = {graph.theta(t2)}")
    print(f"psi({t1},{t2}) = {graph.psi(t1, t2)}")
    print(f"sim({t1}->{t2}) = {d12:.6f}")
    print(f"sim({t2}->{t1}) = {d21:.6f}")
    print(f"sim[{params.symmetrization}] = {combined:.6f}")
    return EXIT_OK


def cmd_matrix(args) -> int:
    graph, _ = _load_graph(args)
    catalog = _load_catalog(args)
    params = _params(args)
    matrix = pairwise_matrix(graph, params, catalog_terms(catalog))
    if args.distance:
        matrix = matrix.to_distance()
    metadata = {
        "ontology_version": _version(args, catalog),
        "alpha": params.alpha,
        "beta": params.beta,
        "symmetrization": params.symmetrization,
        "kind": "distance" if args.distance else "similarity",
    }
    with _out_stream(args.out) as fh:
        if args.format == "json":
            payload = matrix.to_json_dict()
            payload.update(metadata)
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        else:
            matrix.to_csv(fh, metadata=metadata)
    return EXIT_OK


def cmd_doss(args) -> int:
    graph, _ = _load_graph(args)
    catalog = _load_catalog(args)
    params = _params(args)
    result = doss(graph, params, catalog, args.dataset1, args.dataset2, args.agg)
    if args.format == "json":
        payload = result.to_json_dict()
        payload["ontology_version"] = _version(args, catalog)
        json.dump(payload, sys.stdout, indent=2)
        sys.stdout.write("\n")
        return EXIT_OK
    print(f"# ontology_version: {_version(args, catalog)}")
    print(
        f"doss({result.source_id}|{result.reference_id}) = {result.value:.6f}"
        f"  [aggregator={result.aggregator}, symmetrization={result.symmetrization}]"
    )
    if args.verbose:
        for match in result.best_matches:
            print(f"  {match.source_term} -> {match.best_term}  {match.similarity:.6f}")
    return EXIT_OK


def cmd_doss_matrix(args) -> int:
    graph, _ = _load_graph(args)
    catalog = _load_catalog(args)
    params = _params(args)
    matrix = doss_matrix(graph, params, catalog, args.agg)
    for dataset_id in matrix.excluded:
        print(f"excluded (no annotated terms): {dataset_id}", file=sys.stderr)
    metadata = {
        "ontology_version": _version(args, catalog),
        "alpha": params.alpha,
        "beta": params.beta,
        "symmetrization": params.symmetrization,
        "aggregator": matrix.aggregator,
    }
    with _out_stream(args.out) as fh:
        if args.format == "json":
            payload = matrix.to_json_dict()
            payload["ontology_version"] = metadata["ontology_version"]
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        else:
            matrix.to_csv(fh, metadata=metadata)
    return EXIT_OK


def cmd_stats(args) -> int:
    catalog = _load_catalog(args)
    stats = coverage_stats(catalog)
    by_id = {ds.id: ds for ds in catalog.datasets}
    with _out_stream(args.out) as fh:
        if args.format == "json":
            payload = {
                "ontology_version": _version(args, catalog),
                "datasets": [
                    {
                        "id": row.dataset_id,
                        "name": by_id[row.dataset_id].name,
                        "origin": list(by_id[row.dataset_id].origin),
                        "category": by_id[row.dataset_id].category,
                        "feature_count": row.feature_count,
                        "annotated_count": row.annotated_count,
                        "coverage": round(row.coverage_fraction, 6),
                    }
                    for row in stats.per_dataset
                ],
                "global": {
                    "distinct_feature_names": stats.distinct_feature_name_count,
                    "distinct_terms": stats.distinct_term_count,
                    "coverage": round(stats.global_coverage_fraction, 6),
                },
            }
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        else:
            fh.write(f"# ontology_version: {_version(args, catalog)}\n")
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["id", "name", "origin", "category", "feature_count", "annotated_count", "coverage"])
            for row in stats.per_dataset:
                ds = by_id[row.dataset_id]
                writer.writerow(
                    [ds.id, ds.name, ",".join(ds.origin), ds.category,
                     row.feature_count, row.annotated_count, f"{row.coverage_fraction:.6f}"]
                )
            fh.write(f"# distinct_feature_names: {stats.distinct_feature_name_count}\n")
            fh.write(f"# distinct_terms: {stats.distinct_term_count}\n")
            fh.write(f"# global_coverage: {stats.global_coverage_fraction:.6f}\n")
    return EXIT_OK


def cmd_terms(args) -> int:
    catalog = _load_catalog(args)
    rows = term_frequency_report(catalog)
    if args.top is not None:
        rows = rows[: args.top]
    with _out_stream(args.out) as fh:
        if args.format == "json":
            payload = {
                "ontology_version": _version(args, catalog),
                "terms": [
                    {
                        "term": row.term,
                        "dataset_count": row.dataset_count,
                        "unique_name_count": row.unique_name_count,
                        "example_names": list(row.example_names),
                    }
                    for row in rows
                ],
            }
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        else:
            fh.write(f"# ontology_version: {_version(args, catalog)}\n")
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["term", "dataset_count", "unique_name_count", "example_names"])
            for row in rows:
                writer.writerow([row.term, row.dataset_count, row.unique_name_count, ", ".join(row.example_names)])
    return EXIT_OK


def cmd_search(args) -> int:
    if args.labels:
        with open(args.labels, encoding="utf-8-sig") as fh:
            labels, report = parse_labels(fh)
        _print_warnings(report)
    elif args.ontology_obo:
        graph, _ = _load_graph(args)
        labels = graph.label_entries()
    else:
        print("error: search needs --labels or --ontology-obo", file=sys.stderr)
        return EXIT_USAGE
    for match in search_labels(labels, args.query, args.top):
        print(f"{match.term}\t{match.label}\t{match.score:.6f}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
