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
from .clustering import (  # `cut` stays importable here: benchmark/tracing.py wraps it by this name
    agglomerate,
    agglomerate_stack,
    cut,
    cuts,
    to_dissimilarity,
)
from .history import DevelopmentHistory
from .metrics import MetricsError, MetricsRecord, Scorer, evaluate
from .similarity import Weights, blend, measure_matrices

logger = logging.getLogger(__name__)

FILES_ONLY = "FILES_ONLY"
AUTHORSHIP_ONLY = "AUTHORSHIP_ONLY"
SEQUENCES_ONLY = "SEQUENCES_ONLY"
HISTORY = "HISTORY"
COMBINED = "COMBINED"
GROUPS = (FILES_ONLY, AUTHORSHIP_ONLY, SEQUENCES_ONLY, HISTORY, COMBINED)

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
    "uniformComplexity",
    "cohesion",
    "coupling",
    "tsr",
    "combined",
)


class SweepError(ValueError):
    """Invalid sweep input."""


def enumerate_weights(step: int = 10) -> list[Weights]:
    """All weight vectors on the step grid summing to 100, in ascending lexicographic order."""
    if step <= 0 or 100 % step != 0:
        raise SweepError(f"step must be a positive divisor of 100, got {step}")
    out = []
    grid = range(0, 101, step)
    for access in grid:
        for read in grid:
            if access + read > 100:
                break
            for write in grid:
                if access + read + write > 100:
                    break
                for sequence in grid:
                    if access + read + write + sequence > 100:
                        break
                    for commit in grid:
                        rest = 100 - access - read - write - sequence - commit
                        if rest < 0:
                            break
                        out.append(Weights(access, read, write, sequence, commit, rest))
    return out


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


@dataclass(frozen=True)
class SweepFailure:
    codebase: str
    n_clusters: int
    weights: Weights
    error: str


# Bytes of dissimilarity matrices clustered as one stack, which bounds the memory
# a stack adds: 40 weight vectors at 160 entities, 1820 at 24.  Each merge step
# costs a stack a fixed numpy overhead besides its per-matrix work, so larger
# stacks cluster faster: against 2 MiB, a serial step-10 sweep at 160 entities
# took 7.4-7.5 s instead of 9.7-10.7 s, for 7 MiB more peak RSS (2-core VM).
_STACK_BYTES = 8 * 1024 * 1024


def _score_grid(
    stack: np.ndarray,
    model: AccessModel,
    authors: np.ndarray,
    codebase: str,
    counts: list[int],
    weight_vectors: list[Weights],
) -> tuple[list[ResultRow], list[SweepFailure]]:
    rows: list[ResultRow] = []
    failures: list[SweepFailure] = []
    scorer = Scorer(model, authors)
    # each distinct partition is scored once; a domain error is kept as its message
    scored: dict[tuple[int, ...], MetricsRecord | str] = {}
    capacity = max(1, min(len(weight_vectors), _STACK_BYTES // stack[0].nbytes))
    batch = np.empty((capacity, *stack[0].shape))
    for start in range(0, len(weight_vectors), capacity):
        vectors = weight_vectors[start : start + capacity]
        for i, weights in enumerate(vectors):
            # every measure lies in [0, 1] and the weights are non-negative and sum to
            # 100, so the matrix is finite; to_dissimilarity makes it exactly symmetric
            # with a zero diagonal, so it needs none of agglomerate's checks
            batch[i] = to_dissimilarity(blend(stack, weights))
        if len(vectors) == 1:
            # on one matrix the slot kernel beats the stacked one: 0.6-0.8 against
            # 2.0-2.5 ms at 24 entities, 6.9-7.3 against 14.0-14.4 ms at 160
            dendrograms = [agglomerate(batch[0])]
        else:
            dendrograms = agglomerate_stack(batch[: len(vectors)])
        for weights, dendrogram in zip(vectors, dendrograms):
            group = classify_group(weights)
            partitions = cuts(dendrogram, counts)
            for n in counts:
                partition = partitions[n]
                record = scored.get(partition)
                if record is None:
                    try:
                        record = evaluate(scorer, partition)
                    except MetricsError as exc:
                        record = str(exc)
                    scored[partition] = record
                if isinstance(record, str):
                    failures.append(SweepFailure(codebase, n, weights, record))
                else:
                    rows.append(ResultRow(codebase, n, weights, group, record))
    return rows, failures


def run_sweep(
    model: AccessModel,
    history: DevelopmentHistory,
    entity_files: dict[str, str | None],
    codebase: str,
    step: int = 10,
    parallelism: int = 1,
) -> tuple[list[ResultRow], list[SweepFailure]]:
    """Score every weight vector at every cluster count for one codebase.

    Rows that fail on a metric's domain error are reported, not raised.  Rows
    and failures come out in (weight vector, cluster count) order, whatever
    the parallelism degree, so output is reproducible.
    """
    if parallelism < 1:
        raise SweepError(f"parallelism must be at least 1, got {parallelism}")
    counts = cluster_counts(len(model.entities))
    weight_vectors = enumerate_weights(step)
    stack = measure_matrices(model, history, entity_files, include_history=True)
    authors = history.entity_authors([entity_files[e] for e in model.entities])
    score = partial(_score_grid, stack, model, authors, codebase, counts)
    if parallelism == 1:
        rows, failures = score(weight_vectors)
    else:
        # imported here: loading the process pool costs every command's start-up
        from concurrent.futures import ProcessPoolExecutor

        chunk_size = -(-len(weight_vectors) // parallelism)
        chunks = [
            weight_vectors[i : i + chunk_size]
            for i in range(0, len(weight_vectors), chunk_size)
        ]
        rows, failures = [], []
        with ProcessPoolExecutor(max_workers=parallelism) as pool:
            for part_rows, part_failures in pool.map(score, chunks):
                rows.extend(part_rows)
                failures.extend(part_failures)
    for failure in failures:
        logger.warning(
            "dropped %s n=%d weights=%s: %s",
            failure.codebase,
            failure.n_clusters,
            failure.weights.as_tuple(),
            failure.error,
        )
    return rows, failures


def row_values(row: ResultRow, metric_format) -> list:
    """The row's values in CSV_COLUMNS order, with `metric_format` applied to its five metrics."""
    m = row.metrics
    return [
        row.codebase,
        row.n_clusters,
        *row.weights.as_tuple(),
        row.group,
        *map(metric_format, (m.uniform_complexity, m.cohesion, m.coupling, m.tsr, m.combined)),
    ]


def write_results_csv(rows: list[ResultRow]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow(row_values(row, "{:.6f}".format))
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
        integers = record[1:8]
        if not all(v.isascii() and v.isdigit() for v in integers):
            raise SweepError(f"bad results CSV row {record}: integer cells must be ASCII digits")
        if any("_" in v or v != v.strip() for v in record[9:14]):
            raise SweepError(f"bad results CSV row {record}: malformed metric cell")
        try:
            n_clusters, *weights = map(int, integers)
            values = [float(v) for v in record[9:14]]
            row = ResultRow(
                record[0], n_clusters, Weights(*weights), record[8], MetricsRecord(*values)
            )
        except ValueError as exc:
            raise SweepError(f"bad results CSV row {record}: {exc}") from exc
        if not all(map(math.isfinite, values)):
            raise SweepError(f"non-finite metric in results CSV row: {record}")
        if row.group not in GROUPS:
            raise SweepError(f"unknown group in results CSV: {row.group!r}")
        rows.append(row)
    return rows
