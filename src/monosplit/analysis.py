"""Comparison of sweep results: best rows, per-group spreads, Welch tests, size split."""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .sweep import GROUPS, METRIC_COLUMNS, ResultRow

# a metric's place in a MetricsRecord, whose fields are in METRIC_COLUMNS order
_METRIC_INDEX = {metric: i for i, metric in enumerate(METRIC_COLUMNS)}
HIGHER_IS_BETTER = {"cohesion"}

SMALL = "SMALL"
LARGE = "LARGE"


class StatsError(ValueError):
    """Invalid statistics input."""


def metric_value(row: ResultRow, metric: str) -> float:
    try:
        return row.metrics[_METRIC_INDEX[metric]]
    except KeyError:
        raise StatsError(f"unknown metric: {metric!r}") from None


@dataclass(frozen=True)
class WelchResult:
    t_statistic: float
    degrees_of_freedom: float
    p_value: float  # one-sided, H1: mean(a) > mean(b)


def welch_test(sample_a, sample_b) -> WelchResult:
    """Welch's unequal-variance t-test, one-sided for mean(a) greater than mean(b)."""
    # imported here: scipy.special takes longer to load than any command takes to run
    from scipy.special import stdtr

    a = [float(x) for x in sample_a]
    b = [float(x) for x in sample_b]
    if len(a) < 2 or len(b) < 2:
        raise StatsError("each sample needs at least two values")
    mean_a, mean_b = sum(a) / len(a), sum(b) / len(b)
    var_a = sum((x - mean_a) ** 2 for x in a) / (len(a) - 1)
    var_b = sum((x - mean_b) ** 2 for x in b) / (len(b) - 1)
    if var_a == 0.0 and var_b == 0.0:
        raise StatsError("both samples have zero variance")
    part_a, part_b = var_a / len(a), var_b / len(b)
    t = (mean_a - mean_b) / math.sqrt(part_a + part_b)
    df = (part_a + part_b) ** 2 / (
        part_a**2 / (len(a) - 1) + part_b**2 / (len(b) - 1)
    )
    p = float(stdtr(df, -t))  # upper tail by symmetry of the t distribution
    return WelchResult(t, df, p)


def best_decompositions(rows: list[ResultRow], metric: str) -> list[ResultRow]:
    """The winning row per (codebase, cluster count); weight-vector order breaks ties."""
    if metric not in METRIC_COLUMNS:
        raise StatsError(f"unknown metric: {metric!r}")
    sign = -1.0 if metric in HIGHER_IS_BETTER else 1.0
    groups: dict[tuple[str, int], ResultRow] = {}
    for row in rows:
        key = (row.codebase, row.n_clusters)
        rank = (sign * metric_value(row, metric), row.weights.as_tuple())
        held = groups.get(key)
        if held is None or rank < (sign * metric_value(held, metric), held.weights.as_tuple()):
            groups[key] = row
    return [groups[key] for key in sorted(groups)]


def quartiles(values) -> tuple[float, float, float]:
    """First quartile, median and third quartile, by linear interpolation over the sorted sample."""
    if not values:
        raise StatsError("quartiles of an empty sample")
    sample = np.asarray(values, dtype=float)
    q1, median, q3 = np.quantile(sample, [0.25, 0.5, 0.75], method="linear")
    return float(q1), float(median), float(q3)


def group_summary(rows: list[ResultRow], metric: str) -> dict[str, dict]:
    """Count and quartiles of one metric per representation group.

    Groups without rows still appear, with a count of 0 and no spread fields.
    """
    if metric not in METRIC_COLUMNS:
        raise StatsError(f"unknown metric: {metric!r}")
    by_group: dict[str, list[float]] = defaultdict(list)
    for row in rows:
        by_group[row.group].append(metric_value(row, metric))
    out: dict[str, dict] = {}
    for group in sorted(set(GROUPS) | by_group.keys()):
        values = by_group.get(group)
        if not values:
            out[group] = {"count": 0}
            continue
        q1, median, q3 = quartiles(values)
        out[group] = {"count": len(values), "median": median, "q1": q1, "q3": q3}
    return out


def best_share_by_group(best_rows: list[ResultRow]) -> dict[str, float]:
    """Percentage of winning rows contributed by each representation group."""
    if not best_rows:
        raise StatsError("no best rows to share out")
    counts: dict[str, int] = defaultdict(int)
    for row in best_rows:
        counts[row.group] += 1
    return {
        group: 100.0 * count / len(best_rows) for group, count in sorted(counts.items())
    }


@dataclass(frozen=True)
class CodebaseStats:
    codebase: str
    commits: float  # logical commit count
    authors: float


@dataclass(frozen=True)
class SizeSplit:
    commit_threshold: float
    author_threshold: float
    labels: dict[str, dict[str, str]]  # codebase -> {"commits": ..., "authors": ...}


def size_split(stats: list[CodebaseStats]) -> SizeSplit:
    """Label codebases LARGE whose count strictly exceeds mean + one population standard deviation.

    Commits and authors are split independently.
    """
    if len(stats) < 2:
        raise StatsError("size split needs at least two codebases")
    commits = np.array([s.commits for s in stats], dtype=float)
    authors = np.array([s.authors for s in stats], dtype=float)
    commit_threshold = float(commits.mean() + commits.std())
    author_threshold = float(authors.mean() + authors.std())
    labels = {
        s.codebase: {
            "commits": LARGE if s.commits > commit_threshold else SMALL,
            "authors": LARGE if s.authors > author_threshold else SMALL,
        }
        for s in sorted(stats, key=lambda s: s.codebase)
    }
    return SizeSplit(commit_threshold, author_threshold, labels)
