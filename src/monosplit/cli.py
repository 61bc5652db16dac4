"""Command line interface: mine a repository, decompose, sweep the weight grid, analyze results."""

from __future__ import annotations

import argparse
import csv
import io
import json
import logging
import math
import os
import sys

from . import __version__
from .accesses import load_access_model
from .analysis import (
    METRIC_COLUMNS,
    CodebaseStats,
    best_decompositions,
    best_share_by_group,
    group_summary,
    metric_value,
    size_split,
    welch_test,
)
from .clustering import agglomerate, cut, decomposition_json, to_dissimilarity
from .history import DevelopmentHistory, mine_history, read_git_log
from .similarity import (
    SimilarityError,
    Weights,
    build_similarity_matrix,
    map_entities_to_files,
    matrix_csv,
)
from .sweep import (
    CSV_COLUMNS,
    GROUPS,
    STEPS,
    read_results_csv,
    row_values,
    run_sweep,
    write_results_csv,
)


class UsageError(Exception):
    """Bad invocation (distinct from a pipeline failure)."""


# ASCII digits, as `--weights` takes them: int() also reads `1_0`, ` 10 ` and non-ASCII digits
def _positive_int(text: str) -> int:
    if not (text.isascii() and text.isdigit()) or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _non_negative_int(text: str) -> int:
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _read_text(path: str, errors: str = "strict") -> str:
    try:
        with open(path, encoding="utf-8", errors=errors) as handle:
            return handle.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _load_inputs(args):
    history = DevelopmentHistory.parse(_read_text(args.history))
    model = load_access_model(_read_text(args.accesses))
    entity_files = map_entities_to_files(model.entities, history)
    return history, model, entity_files


def _cmd_mine(args) -> int:
    if os.path.isdir(args.source):
        log_text = read_git_log(args.source)
    else:
        log_text = _read_text(args.source, errors="surrogateescape")
    history = mine_history(
        log_text,
        extension=args.ext,
        window_seconds=args.window_secs,
        max_files=args.max_files,
    )
    _write_text(args.out, history.serialize())
    return 0


def _cmd_decompose(args) -> int:
    history, model, entity_files = _load_inputs(args)
    try:
        weights = Weights.from_text(args.weights)
    except SimilarityError as exc:
        raise UsageError(str(exc)) from exc
    matrix = build_similarity_matrix(model, history, entity_files, weights)
    if args.matrix_out:
        _write_text(args.matrix_out, matrix_csv(model.entities, matrix))
    clusters = cut(agglomerate(to_dissimilarity(matrix)), args.clusters, model.entities)
    _write_text(args.out, decomposition_json(args.codebase, clusters, weights))
    return 0


def _cmd_sweep(args) -> int:
    history, model, entity_files = _load_inputs(args)
    rows, dropped = run_sweep(
        model,
        history,
        entity_files,
        args.codebase,
        step=args.step,
        parallelism=args.parallelism,
    )
    _write_text(args.out, write_results_csv(rows))
    if dropped and not args.quiet:
        print(f"{dropped} rows failed and were dropped", file=sys.stderr)
    return 0


def _read_codebase_stats(path: str) -> list[CodebaseStats]:
    # quoted, and counts written, as in the results CSV; blank and whitespace-only lines are skipped
    reader = csv.reader(io.StringIO(_read_text(path)), strict=True)
    try:
        records = [cells for cells in reader if len(cells) > 1 or "".join(cells).strip()]
    except csv.Error as exc:
        raise UsageError(f"{path}: bad stats row at line {reader.line_num}: {exc}") from None
    if not records or records[0] != ["codebase", "commits", "authors"]:
        raise UsageError(f"{path}: expected header codebase,commits,authors")
    stats: dict[str, CodebaseStats] = {}
    for cells in records[1:]:
        if len(cells) != 3 or any(not c.isascii() or "_" in c or c != c.strip() for c in cells[1:]):
            raise UsageError(f"{path}: bad stats row: {cells!r}")
        if not cells[0] or cells[0] != cells[0].strip():
            raise UsageError(f"{path}: codebase name empty or padded with spaces: {cells!r}")
        try:
            row = CodebaseStats(cells[0], float(cells[1]), float(cells[2]))
        except ValueError:
            raise UsageError(f"{path}: bad stats row: {cells!r}") from None
        # comparisons with NaN are false, so this also rejects NaN
        if not (0 <= row.commits < math.inf and 0 <= row.authors < math.inf):
            raise UsageError(f"{path}: counts must be finite and not negative: {cells!r}")
        if row.codebase in stats:
            raise UsageError(f"{path}: codebase listed twice: {row.codebase!r}")
        stats[row.codebase] = row
    return list(stats.values())


def _summary_dict(entry: dict) -> dict:
    if entry["count"] == 0:
        return {"count": 0}
    return {
        "count": entry["count"],
        "median": round(entry["median"], 6),
        "q1": round(entry["q1"], 6),
        "q3": round(entry["q3"], 6),
    }


def _cmd_analyze(args) -> int:
    rows = read_results_csv(_read_text(args.results))
    report: dict = {}
    any_section = args.groups or args.best or args.welch or args.size_split
    if args.groups or not any_section:
        report["summaries"] = {
            metric: {
                group: _summary_dict(entry)
                for group, entry in group_summary(rows, metric).items()
            }
            for metric in METRIC_COLUMNS
        }
    if args.best:
        winners = best_decompositions(rows, args.best)
        report["best"] = {
            "metric": args.best,
            "rows": [
                dict(zip(CSV_COLUMNS, row_values(row, lambda v: round(v, 6)))) for row in winners
            ],
            "shareByGroup": {
                group: round(pct, 6)
                for group, pct in best_share_by_group(winners).items()
            },
        }
    if args.welch:
        group_a, group_b, metric = args.welch
        for group in (group_a, group_b):
            if group not in GROUPS:
                raise UsageError(f"unknown group: {group!r}")
        if metric not in METRIC_COLUMNS:
            raise UsageError(f"unknown metric: {metric!r}")
        sample_a = [metric_value(r, metric) for r in rows if r.group == group_a]
        sample_b = [metric_value(r, metric) for r in rows if r.group == group_b]
        result = welch_test(sample_a, sample_b)
        report["welch"] = {
            "t": round(result.t_statistic, 6),
            "df": round(result.degrees_of_freedom, 6),
            "p": round(result.p_value, 6),
        }
    if args.size_split:
        split = size_split(_read_codebase_stats(args.size_split))
        report["sizeLabels"] = {
            "commitThreshold": round(split.commit_threshold, 6),
            "authorThreshold": round(split.author_threshold, 6),
            "labels": split.labels,
        }
    _write_text(args.out, json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="monosplit",
        description="Derive candidate microservice decompositions of a monolith "
        "from its git history and its functionality access traces.",
    )
    parser.add_argument("--version", action="version", version=f"monosplit {__version__}")
    parser.add_argument("--parallelism", type=_positive_int, default=1, metavar="N",
                        help="worker processes for the sweep (default 1)")
    parser.add_argument("--quiet", action="store_true", help="suppress warnings")
    sub = parser.add_subparsers(dest="command", required=True)

    mine = sub.add_parser("mine", help="mine a git repository or saved log into history JSON")
    mine.add_argument("source", help="repository directory or saved git log file")
    mine.add_argument("--ext", default=".java", help="file extension filter (default .java)")
    mine.add_argument("--window-secs", type=_non_negative_int, default=3600,
                      help="same-author bundling window in seconds, 0 for same-second "
                      "commits only (default 3600)")
    mine.add_argument("--max-files", type=_positive_int, default=100,
                      help="largest countable commit, in files (default 100)")
    mine.add_argument("--out", required=True, help="output history JSON path")
    mine.set_defaults(func=_cmd_mine)

    decompose = sub.add_parser("decompose", help="cluster entities once with fixed weights")
    decompose.add_argument("--history", required=True, help="history JSON from mine")
    decompose.add_argument("--accesses", required=True, help="functionality access JSON")
    decompose.add_argument("--weights", required=True,
                           help="six comma-separated weights summing to 100: "
                           "access,read,write,sequence,commit,author")
    decompose.add_argument("--clusters", type=_positive_int, required=True,
                           help="number of clusters")
    decompose.add_argument("--codebase", default="monolith", help="codebase id for the output")
    decompose.add_argument("--matrix-out", help="optional similarity matrix CSV dump")
    decompose.add_argument("--out", required=True, help="output decomposition JSON path")
    decompose.set_defaults(func=_cmd_decompose)

    sweep = sub.add_parser("sweep", help="score the full weight grid at every cluster count")
    sweep.add_argument("--history", required=True, help="history JSON from mine")
    sweep.add_argument("--accesses", required=True, help="functionality access JSON")
    sweep.add_argument("--codebase", required=True, help="codebase id for the result rows")
    sweep.add_argument("--step", type=_non_negative_int, choices=STEPS, default=10,
                       help="weight grid step, a divisor of 100 (default 10); the grid holds"
                       " C(100/step + 5, 5) vectors, a CSV row each per cluster count: 3003"
                       " at step 10, 3 478 761 at step 2, and 96 560 646 at step 1, about"
                       " 12 GiB before any row is written")
    sweep.add_argument("--out", required=True, help="output results CSV path")
    sweep.set_defaults(func=_cmd_sweep)

    analyze = sub.add_parser("analyze", help="summarize and compare sweep results")
    analyze.add_argument("results", help="results CSV from sweep")
    analyze.add_argument("--groups", action="store_true",
                         help="per-group quartile summaries of every metric")
    analyze.add_argument("--best", choices=METRIC_COLUMNS,
                         help="best row per (codebase, cluster count) for this metric")
    analyze.add_argument("--welch", nargs=3, metavar=("GROUP_A", "GROUP_B", "METRIC"),
                         help="one-sided Welch test that GROUP_A exceeds GROUP_B on METRIC")
    analyze.add_argument("--size-split", metavar="STATS_CSV",
                         help="codebase,commits,authors CSV to label SMALL/LARGE")
    analyze.add_argument("--out", required=True, help="output report JSON path")
    analyze.set_defaults(func=_cmd_analyze)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # a handler of this call's own, on the stderr of the moment and removed on return:
    # logging.basicConfig would fix the first call's level and stream for every later one
    handler = logging.StreamHandler(sys.stderr)
    handler.setLevel(logging.ERROR if args.quiet else logging.WARNING)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    package_logger = logging.getLogger(__package__)
    package_logger.addHandler(handler)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        package_logger.removeHandler(handler)


if __name__ == "__main__":
    sys.exit(main())
