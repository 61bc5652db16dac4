"""Exhaustive sweep of weight vectors and cluster counts, scored and exported as CSV."""

from __future__ import annotations

import csv
import io
import logging
import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .accesses import AccessModel
# `agglomerate` and `cut` are not called here: they stay importable by these names
# because benchmark/tracing.py wraps them in this module
from .clustering import agglomerate, agglomerate_stack, cut, cuts, to_dissimilarity
from .history import DevelopmentHistory
from .metrics import MetricsRecord, Scorer, evaluate
from .similarity import MEASURE_NAMES, Weights, blend, csv_cell, measure_matrices

logger = logging.getLogger(__name__)

FILES_ONLY = "FILES_ONLY"
AUTHORSHIP_ONLY = "AUTHORSHIP_ONLY"
SEQUENCES_ONLY = "SEQUENCES_ONLY"
HISTORY = "HISTORY"
COMBINED = "COMBINED"
GROUPS = (FILES_ONLY, AUTHORSHIP_ONLY, SEQUENCES_ONLY, HISTORY, COMBINED)

# the CSV names of MetricsRecord's fields, in its order
METRIC_COLUMNS = ("uniformComplexity", "cohesion", "coupling", "tsr", "combined")
CSV_COLUMNS = (
    "codebase",
    "nClusters",
    "wAccess",
    "wRead",
    "wWrite",
    "wSequence",
    "wCommit",
    "wAuthor",
    "group",
    *METRIC_COLUMNS,
)
# where a row's cells sit: the integer cells run from the cluster count to the last weight
_CODEBASE_CELL = CSV_COLUMNS.index("codebase")
_GROUP_CELL = CSV_COLUMNS.index("group")
_INTEGER_CELLS = slice(CSV_COLUMNS.index("nClusters"), CSV_COLUMNS.index("wAuthor") + 1)
_METRIC_CELLS = slice(
    CSV_COLUMNS.index(METRIC_COLUMNS[0]), CSV_COLUMNS.index(METRIC_COLUMNS[-1]) + 1
)

# the weight grid steps: the divisors of 100
STEPS = (1, 2, 4, 5, 10, 20, 25, 50, 100)


class SweepError(ValueError):
    """Invalid sweep input."""


def enumerate_weights(step: int = 10) -> list[Weights]:
    """All weight vectors on the step grid summing to 100, in ascending lexicographic order."""
    if step not in STEPS:
        raise SweepError(f"step must be a positive divisor of 100, got {step}")
    return [Weights(*parts) for parts in _compositions(100, len(MEASURE_NAMES), step)]


def _compositions(total: int, parts: int, step: int):
    """Tuples of `parts` multiples of `step` summing to `total`, in lexicographic order."""
    if parts == 1:
        yield (total,)
        return
    for first in range(0, total + 1, step):
        for rest in _compositions(total - first, parts - 1, step):
            yield (first, *rest)


def classify_group(weights: Weights) -> str:
    """Which representation family a weight vector draws on."""
    sequence_side = weights.access + weights.read + weights.write + weights.sequence
    if sequence_side == 0:
        if weights.author == 0:
            return FILES_ONLY
        if weights.commit == 0:
            return AUTHORSHIP_ONLY
        return HISTORY
    if weights.commit + weights.author == 0:
        return SEQUENCES_ONLY
    return COMBINED


def cluster_counts(n_entities: int) -> list[int]:
    """Cluster counts to evaluate, wider for larger entity sets."""
    if n_entities < 3:
        raise SweepError(f"too few entities to decompose: {n_entities}")
    if n_entities <= 9:
        return [3]
    if n_entities <= 19:
        return [3, 4, 5]
    return list(range(3, 11))


@dataclass(frozen=True)
class ResultRow:
    codebase: str
    n_clusters: int
    weights: Weights
    group: str
    metrics: MetricsRecord


# Bytes of dissimilarity matrices clustered as one stack, which bounds the memory
# a stack adds: 40 weight vectors at 160 entities, 1820 at 24.  Each merge step
# costs a stack a fixed numpy overhead besides its per-matrix work, so larger
# stacks cluster faster: against 2 MiB, a serial step-10 sweep at 160 entities
# took 7.7-9.0 s instead of 11.8-12.3 s, for 6.5 MiB more peak RSS (2-core VM,
# three fresh processes each).
_STACK_BYTES = 8 * 1024 * 1024


def _score_grid(
    stack: np.ndarray,
    scorer: Scorer,
    codebase: str,
    counts: list[int],
    weight_vectors: list[Weights],
) -> list[ResultRow]:
    rows: list[ResultRow] = []
    # `evaluate` is called once per distinct partition: the benchmark tracer counts its calls
    scored: dict[tuple[int, ...], MetricsRecord] = {}
    capacity = max(1, min(len(weight_vectors), _STACK_BYTES // stack[0].nbytes))
    batch = np.empty((capacity, *stack[0].shape))
    for start in range(0, len(weight_vectors), capacity):
        vectors = weight_vectors[start : start + capacity]
        for i, weights in enumerate(vectors):
            # every measure lies in [0, 1] and the weights are non-negative and sum to
            # 100, so the matrix is finite; to_dissimilarity makes it exactly symmetric
            # with a zero diagonal, so it needs none of agglomerate's checks
            batch[i] = to_dissimilarity(blend(stack, weights))
        # the dendrograms are dropped once cut, before the scorer's pass allocates
        stack_partitions = [
            cuts(dendrogram, counts) for dendrogram in agglomerate_stack(batch[: len(vectors)])
        ]
        # the partitions this stack cuts that no earlier stack did are scored in one
        # array pass per chunk, and `evaluate` reads each one's record.  Chunks of an
        # eighth of the budget ran the dense step-10 benchmark sweep (24 entities) as
        # fast as chunks of all of it, at 53.5 against 56.9 MiB of peak RSS (2-core VM)
        scorer.memoize(
            (partition for partitions in stack_partitions for partition in partitions.values()),
            _STACK_BYTES // 8,
        )
        for weights, partitions in zip(vectors, stack_partitions):
            group = classify_group(weights)
            for n in counts:
                partition = partitions[n]
                record = scored.get(partition)
                if record is None:
                    record = scored[partition] = evaluate(scorer, partition)
                rows.append(ResultRow(codebase, n, weights, group, record))
    return rows


def run_sweep(
    model: AccessModel,
    history: DevelopmentHistory,
    entity_files: dict[str, str | None],
    codebase: str,
    step: int = 10,
    parallelism: int = 1,
) -> tuple[list[ResultRow], int]:
    """Score every weight vector at every cluster count for one codebase.

    Returns the rows, in (weight vector, cluster count) order whatever the
    parallelism degree, and the count of rows dropped: every row, with one
    warning and nothing clustered, for a history without authors, on which
    tsr is undefined; else none.  A metric out of range raises MetricsError.
    """
    if parallelism < 1:
        raise SweepError(f"parallelism must be at least 1, got {parallelism}")
    counts = cluster_counts(len(model.entities))
    weight_vectors = enumerate_weights(step)
    stack = measure_matrices(model, history, entity_files, include_history=True)
    scorer = Scorer(model, history.entity_authors([entity_files[e] for e in model.entities]))
    if not scorer.n_authors:
        dropped = len(weight_vectors) * len(counts)
        logger.warning("dropped all %d rows of %s: history has no authors", dropped, codebase)
        return [], dropped
    score = partial(_score_grid, stack, scorer, codebase, counts)
    if parallelism == 1:
        return score(weight_vectors), 0
    # imported here: loading the process pool costs every command's start-up
    from concurrent.futures import ProcessPoolExecutor

    chunk_size = -(-len(weight_vectors) // parallelism)
    chunks = [
        weight_vectors[i : i + chunk_size] for i in range(0, len(weight_vectors), chunk_size)
    ]
    with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
        return [row for rows in pool.map(score, chunks) for row in rows], 0


def row_values(row: ResultRow, metric_format) -> list:
    """The row's values in CSV_COLUMNS order, with `metric_format` applied to its five metrics."""
    return [
        row.codebase,
        row.n_clusters,
        *row.weights.as_tuple(),
        row.group,
        *map(metric_format, row.metrics),
    ]


# a results row once its text cells are quoted; `%.6f` prints what "{:.6f}".format prints
_ROW_FORMAT = ",".join(["%s", *["%d"] * 7, "%s", *["%.6f"] * len(METRIC_COLUMNS)]) + "\n"


def write_results_csv(rows: list[ResultRow]) -> str:
    """The rows as csv.writer writes their `row_values` with six decimals, under the header."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerow(CSV_COLUMNS)
    texts = {text for row in rows for text in (row.codebase, row.group)}
    cells = {text: csv_cell(text) for text in texts}
    write = buffer.write
    for row in rows:
        write(
            _ROW_FORMAT
            % (
                cells[row.codebase],
                row.n_clusters,
                *row.weights.as_tuple(),
                cells[row.group],
                *row.metrics,
            )
        )
    return buffer.getvalue()


def read_results_csv(text: str) -> list[ResultRow]:
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise SweepError("empty results CSV") from None
    if header != list(CSV_COLUMNS):
        raise SweepError(f"unexpected results CSV header: {header}")
    rows = []
    for record in reader:
        if not record:
            continue
        if len(record) != len(CSV_COLUMNS):
            raise SweepError(f"bad results CSV row: {record}")
        # only the forms the writer emits: int() and float() also take `1_00`,
        # `+5`, surrounding spaces and non-ASCII digits
        integers = record[_INTEGER_CELLS]
        if not all(v.isascii() and v.isdigit() for v in integers):
            raise SweepError(f"bad results CSV row {record}: integer cells must be ASCII digits")
        metrics = record[_METRIC_CELLS]
        if any("_" in v or v != v.strip() for v in metrics):
            raise SweepError(f"bad results CSV row {record}: malformed metric cell")
        try:
            n_clusters, *weights = map(int, integers)
            values = [float(v) for v in metrics]
            row = ResultRow(
                record[_CODEBASE_CELL],
                n_clusters,
                Weights(*weights),
                record[_GROUP_CELL],
                MetricsRecord(*values),
            )
        except ValueError as exc:
            raise SweepError(f"bad results CSV row {record}: {exc}") from exc
        if not all(map(math.isfinite, values)):
            raise SweepError(f"non-finite metric in results CSV row: {record}")
        if row.group not in GROUPS:
            raise SweepError(f"unknown group in results CSV: {row.group!r}")
        if row.group != classify_group(row.weights):
            raise SweepError(f"group contradicts the weights in results CSV row: {record}")
        rows.append(row)
    return rows
