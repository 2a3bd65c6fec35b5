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

Exit codes: 0 success; 1 malformed input (ontology parse, catalog schema, or
text that is not UTF-8); 2 cycle in the ontology; 3 I/O failure; 4 unknown
term or dataset id; 5 dataset with no annotated terms; 64 command-line usage error.

The outputs of term-sim, matrix, doss, doss-matrix, stats and terms carry
the ontology version string: as ``# ontology_version`` comment lines in CSV
and text output, as a top-level key in JSON. The scoring commands (term-sim,
matrix, doss, doss-matrix) take it from --ontology-version when given,
otherwise from the catalog (term-sim: 'unspecified'); stats and terms take
it from the catalog.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import sys

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
    ParseError,
    UnknownDataset,
    UnknownTerm,
)
from .ingest import LabelTable, ParseReport, parse_edge_list, parse_labels, parse_obo_subset
from .matrixio import csv_line
from .ontology import OntologyGraph, build_ontology
from .similarity import (
    SYMMETRIZE_AS_PRINTED,
    SYMMETRIZE_MEAN,
    SimilarityParams,
    pairwise_matrix,
)

EXIT_OK = 0
EXIT_USAGE = 64
# the exit code of an error that main() catches: the first class it is an instance of wins
EXIT_CODES = (
    (CycleDetected, 2),
    ((UnknownTerm, UnknownDataset), 4),
    ((EmptyTermSet, EmptyTermList), 5),
    (OntosimError, 1),  # malformed input: parse errors, schema violations, duplicate ids, dangling endpoints
    (OSError, 3),
)


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors, which would collide with the
    # cycle exit code; route usage problems to a code outside the contract.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _weight(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    try:
        return SimilarityParams(alpha=value).alpha  # the library owns the weight domain
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _one_line(text: str) -> str:
    # a line break would split the "# ontology_version:" comment line
    if "\n" in text or "\r" in text:
        raise argparse.ArgumentTypeError("must not contain a line break")
    return text


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _add_ontology_options(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--ontology-edges", metavar="PATH", help="edge-list TSV: child<TAB>parent per line")
    group.add_argument("--ontology-obo", metavar="PATH", help="OBO-format ontology subset")


def _add_scoring_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--alpha", type=_weight, default=SimilarityParams.alpha, help="weight of the source term's unshared information (default %(default)s)")
    parser.add_argument("--beta", type=_weight, default=SimilarityParams.beta, help="weight of the target term's unshared information (default %(default)s)")
    parser.add_argument(
        "--symmetrize",
        choices=("as-printed", "mean"),
        default="mean",
        help="'mean' averages both directions (default); 'as-printed' keeps the raw directed form",
    )
    parser.add_argument(
        "--ontology-version",
        type=_one_line,
        metavar="STR",
        default=None,
        help="version string recorded in outputs (default: catalog value, else 'unspecified')",
    )


def _add_output_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("csv", "json"), default="csv", help="output format (default csv)")
    parser.add_argument("--out", metavar="PATH", default=None, help="output file (default stdout)")


def build_arg_parser() -> argparse.ArgumentParser:
    """A new parser for the whole CLI on each call."""
    parser = _Parser(prog="ontosim", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check an ontology file parses into a valid DAG")
    _add_ontology_options(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("term-sim", help="similarity between two terms")
    p.add_argument("term1")
    p.add_argument("term2")
    _add_ontology_options(p)
    _add_scoring_options(p)
    p.set_defaults(func=cmd_term_sim)

    p = sub.add_parser("matrix", help="pairwise similarity matrix over all annotated catalog terms")
    _add_ontology_options(p)
    _add_scoring_options(p)
    _add_output_options(p)
    p.add_argument("--catalog", metavar="PATH", required=True, help="annotation catalog JSON")
    p.add_argument("--distance", action="store_true", help="emit 1 - similarity instead")
    p.set_defaults(func=cmd_matrix)

    p = sub.add_parser("doss", help="dataset-to-dataset similarity")
    p.add_argument("dataset1", help="source dataset id")
    p.add_argument("dataset2", help="reference dataset id")
    _add_ontology_options(p)
    _add_scoring_options(p)
    p.add_argument("--catalog", metavar="PATH", required=True)
    p.add_argument("--agg", choices=tuple(AGGREGATORS), default=DEFAULT_AGGREGATOR, help="summarising function (default mean)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--verbose", action="store_true", help="also print per-term best matches")
    p.set_defaults(func=cmd_doss)

    p = sub.add_parser("doss-matrix", help="dataset similarity matrix over the whole catalog")
    _add_ontology_options(p)
    _add_scoring_options(p)
    _add_output_options(p)
    p.add_argument("--catalog", metavar="PATH", required=True)
    p.add_argument("--agg", choices=tuple(AGGREGATORS), default=DEFAULT_AGGREGATOR)
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
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--labels", metavar="PATH", help="labels TSV: id<TAB>label[<TAB>synonym]*")
    source.add_argument("--ontology-obo", metavar="PATH", help="OBO-format ontology subset: ranks its names and synonyms")
    p.add_argument("--top", type=_positive_int, default=10, metavar="K", help="maximum matches to print (default 10)")
    p.set_defaults(func=cmd_search)

    return parser


@functools.cache
def _arg_parser() -> argparse.ArgumentParser:
    # built on the first main() call, not at import; parse_args leaves a
    # parser unchanged and no option default is mutable, so calls can share it
    return build_arg_parser()


def main(argv: list[str] | None = None) -> int:
    """Run one CLI call and return its exit code; a usage error raises ``SystemExit(64)``.

    The argument parser is built once per process, on the first call, and
    every later call in the process reuses it. Stdout and stderr are
    written as UTF-8.
    """
    if hasattr(sys.stdout, "reconfigure"):
        sys.stdout.reconfigure(encoding="utf-8")
    if hasattr(sys.stderr, "reconfigure"):
        # stderr's own error handler, so a path with an undecodable byte still prints
        sys.stderr.reconfigure(encoding="utf-8", errors="backslashreplace")
    args = _arg_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OntosimError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kinds, code in EXIT_CODES if isinstance(exc, kinds))


def _print_warnings(report: ParseReport) -> None:
    for line, message in report.warnings:
        print(f"warning: line {line}: {message}", file=sys.stderr)


def _read(path: str, parse):
    """``parse(fh)`` of the file at ``path`` read as UTF-8, a leading BOM skipped."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return parse(fh)
    except UnicodeDecodeError:
        raise ParseError(f"{path}: not UTF-8 text") from None


def _load_graph(args) -> tuple[OntologyGraph, LabelTable, ParseReport]:
    # each parser is looked up at call time, so a wrapper set on its name here sees the call
    if args.ontology_obo is not None:
        terms, edges, labels, report = _read(args.ontology_obo, parse_obo_subset)
    else:
        terms, edges, report = _read(args.ontology_edges, parse_edge_list)
        labels = {}
    # before any error that the build or the command raises
    _print_warnings(report)
    return build_ontology(terms, edges), labels, report


def _params(args) -> SimilarityParams:
    policy = SYMMETRIZE_MEAN if args.symmetrize == "mean" else SYMMETRIZE_AS_PRINTED
    return SimilarityParams(alpha=args.alpha, beta=args.beta, symmetrization=policy)


def _version(args, catalog: AnnotationCatalog | None = None) -> str:
    if args.ontology_version:
        return args.ontology_version
    if catalog is not None:
        return catalog.ontology_version
    return "unspecified"


def _write(fmt: str, path: str | None, payload, write) -> None:
    """One command's output to ``path`` (stdout when None or '-'): the JSON of
    ``payload()`` for format 'json', else what ``write(fh)`` writes.

    ``payload`` is called only for JSON, so a CSV or text call builds no JSON.
    """
    to_file = path is not None and path != "-"
    with open(path, "w", encoding="utf-8", newline="") if to_file else contextlib.nullcontext(sys.stdout) as fh:
        if fmt == "json":
            json.dump(payload(), fh, indent=2)
            fh.write("\n")
        else:
            write(fh)


def cmd_validate(args) -> int:
    graph, _, report = _load_graph(args)
    print(f"{len(graph)} terms, {graph.edge_count} edges")
    if report.ignored_relation_count:
        print(f"{report.ignored_relation_count} non-taxonomic relation(s) ignored")
    return EXIT_OK


def cmd_term_sim(args) -> int:
    graph, _, _ = _load_graph(args)
    params = _params(args)
    t1, t2 = args.term1, args.term2
    # psi resolves both ids in one call, so UnknownTerm names both; the thetas are then memo hits
    psi = graph.psi(t1, t2)
    theta1, theta2 = graph.theta(t1), graph.theta(t2)
    print(f"# ontology_version: {_version(args)}")
    print(f"# alpha: {params.alpha}  beta: {params.beta}")
    print(f"theta({t1}) = {theta1}")
    print(f"theta({t2}) = {theta2}")
    print(f"psi({t1},{t2}) = {psi}")
    print(f"sim({t1}->{t2}) = {params.directed(theta1, theta2, psi):.6f}")
    print(f"sim({t2}->{t1}) = {params.directed(theta2, theta1, psi):.6f}")
    print(f"sim[{params.symmetrization}] = {params.score(theta1, theta2, psi):.6f}")
    return EXIT_OK


def _stamp(args, catalog: AnnotationCatalog, params: SimilarityParams, **extra) -> dict:
    """What every scoring output records, in output order."""
    return {
        "ontology_version": _version(args, catalog),
        "alpha": params.alpha,
        "beta": params.beta,
        "symmetrization": params.symmetrization,
        **extra,
    }


def _write_matrix(args, matrix, metadata: dict) -> None:
    # keys the JSON payload already has keep their position
    _write(args.format, args.out, lambda: {**matrix.to_json_dict(), **metadata}, lambda fh: matrix.to_csv(fh, metadata))


def cmd_matrix(args) -> int:
    graph, _, _ = _load_graph(args)
    catalog = _read(args.catalog, load_catalog)
    params = _params(args)
    matrix = pairwise_matrix(graph, params, catalog_terms(catalog))
    if args.distance:
        matrix = matrix.to_distance()
    _write_matrix(args, matrix, _stamp(args, catalog, params, kind="distance" if args.distance else "similarity"))
    return EXIT_OK


def cmd_doss(args) -> int:
    graph, _, _ = _load_graph(args)
    catalog = _read(args.catalog, load_catalog)
    params = _params(args)
    result = doss(graph, params, catalog, args.dataset1, args.dataset2, args.agg)

    def write_text(fh) -> None:
        fh.write(f"# ontology_version: {_version(args, catalog)}\n")
        fh.write(
            f"doss({result.source_id}|{result.reference_id}) = {result.value:.6f}"
            f"  [aggregator={result.aggregator}, symmetrization={result.symmetrization}]\n"
        )
        if args.verbose:
            for match in result.best_matches:
                fh.write(f"  {match.source_term} -> {match.best_term}  {match.similarity:.6f}\n")

    stamp = _stamp(args, catalog, params, aggregator=result.aggregator)
    _write(args.format, None, lambda: {**result.to_json_dict(), **stamp}, write_text)  # doss has no --out
    return EXIT_OK


def cmd_doss_matrix(args) -> int:
    graph, _, _ = _load_graph(args)
    catalog = _read(args.catalog, load_catalog)
    params = _params(args)
    matrix = doss_matrix(graph, params, catalog, args.agg)
    for dataset_id in matrix.excluded:
        print(f"excluded (no annotated terms): {dataset_id}", file=sys.stderr)
    _write_matrix(args, matrix, _stamp(args, catalog, params, aggregator=matrix.aggregator))
    return EXIT_OK


def cmd_stats(args) -> int:
    catalog = _read(args.catalog, load_catalog)
    stats = coverage_stats(catalog)
    rows = list(zip(catalog.datasets, stats.per_dataset))

    def payload() -> dict:
        return {
            "ontology_version": catalog.ontology_version,
            "datasets": [
                {
                    "id": ds.id,
                    "name": ds.name,
                    "origin": list(ds.origin),
                    "category": ds.category,
                    "feature_count": row.feature_count,
                    "annotated_count": row.annotated_count,
                    "coverage": round(row.coverage_fraction, 6),
                }
                for ds, row in rows
            ],
            "global": {
                "distinct_feature_names": stats.distinct_feature_name_count,
                "distinct_terms": stats.distinct_term_count,
                "coverage": round(stats.global_coverage_fraction, 6),
            },
        }

    def write_csv(fh) -> None:
        fh.write(f"# ontology_version: {catalog.ontology_version}\n")
        fh.write(csv_line(["id", "name", "origin", "category", "feature_count", "annotated_count", "coverage"]))
        for ds, row in rows:
            fields = [ds.id, ds.name, ",".join(ds.origin), ds.category,
                      row.feature_count, row.annotated_count, f"{row.coverage_fraction:.6f}"]
            fh.write(csv_line(fields))
        fh.write(f"# distinct_feature_names: {stats.distinct_feature_name_count}\n")
        fh.write(f"# distinct_terms: {stats.distinct_term_count}\n")
        fh.write(f"# global_coverage: {stats.global_coverage_fraction:.6f}\n")

    _write(args.format, args.out, payload, write_csv)
    return EXIT_OK


def cmd_terms(args) -> int:
    catalog = _read(args.catalog, load_catalog)
    rows = term_frequency_report(catalog)
    if args.top is not None:
        rows = rows[: args.top]

    def write_csv(fh) -> None:
        fh.write(f"# ontology_version: {catalog.ontology_version}\n")
        fh.write(csv_line(["term", "dataset_count", "unique_name_count", "example_names"]))
        for row in rows:
            fh.write(csv_line([row.term, row.dataset_count, row.unique_name_count, ", ".join(row.example_names)]))

    _write(
        args.format,
        args.out,
        # TermUsage's fields are the JSON keys, in order
        lambda: {"ontology_version": catalog.ontology_version, "terms": [dataclasses.asdict(row) for row in rows]},
        write_csv,
    )
    return EXIT_OK


def cmd_search(args) -> int:
    if args.ontology_obo is None:
        labels, report = _read(args.labels, parse_labels)
        _print_warnings(report)
    else:
        # building the graph is the check that the OBO is a DAG with unique ids
        _, labels, _ = _load_graph(args)
    for match in search_labels(labels, args.query, args.top):
        print(f"{match.term}\t{match.label}\t{match.score:.6f}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
