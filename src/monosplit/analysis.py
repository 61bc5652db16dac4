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
    """The row's value of a metric named in METRIC_COLUMNS."""
    return row.metrics[_METRIC_INDEX[metric]]


@dataclass(frozen=True)
class WelchResult:
    t_statistic: float
    degrees_of_freedom: float
    p_value: float  # one-sided, H1: mean(a) > mean(b)


def welch_test(sample_a, sample_b) -> WelchResult:
    """Welch's unequal-variance t-test, one-sided for mean(a) greater than mean(b).

    The p-value is the Student-t upper tail at Satterthwaite's degrees of
    freedom, from the regularized incomplete beta function evaluated as a
    continued fraction (modified Lentz). Against 50-digit mpmath its relative
    error is at most 2.5e-11 for df up to 10⁶ and |t| from 1e-8 to 40,
    wherever the tail is above 1e-300; it grows about in step with df
    (1.8e-10 at df 10⁷).
    """
    a = [float(x) for x in sample_a]
    b = [float(x) for x in sample_b]
    if len(a) < 2 or len(b) < 2:
        raise StatsError("each sample needs at least two values")
    if not all(map(math.isfinite, a + b)):
        raise StatsError("samples must hold finite values only")
    try:
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
    except (OverflowError, ZeroDivisionError):
        # a square beyond the float range, or the df fraction underflowing to 0/0
        t = df = math.nan
    if not (math.isfinite(t) and math.isfinite(df)):
        raise StatsError("samples out of range: t statistic or degrees of freedom not finite")
    return WelchResult(t, df, _student_upper_tail(t, df))


_LENTZ_FLOOR = 1e-300  # keeps a Lentz denominator off zero
# df 1 … 10¹⁰ needs at most 73 terms; past that, rounding in x keeps the fraction from settling
_MAX_FRACTION_TERMS = 200


def _student_upper_tail(t: float, df: float) -> float:
    """P(T > t) for Student's t with df degrees of freedom: ½·I_x(df/2, ½) at x = df/(df + t²).

    The prefactor x^a·(1−x)^½ / B(a, ½) is taken in log space, and the
    continued fraction of I_x(a, b) (Numerical Recipes' betacf) is summed by
    modified Lentz; past x = (a+1)/(a+b+2), where it converges slowly, the
    mirrored form 1 − I_{1−x}(½, a) is summed instead.
    """
    q = t * t / df  # (1 − x)/x; may be inf for a huge |t|
    if q == 0.0:
        return 0.5
    a = df / 2
    log_x = -math.log1p(q)
    log_y = -math.log1p(1 / q)  # log(1 − x), also where q is inf
    if a < 64:
        log_gamma_ratio = math.lgamma(a + 0.5) - math.lgamma(a)
    else:
        # asymptotic series of log Γ(a+½) − log Γ(a), within 2.2e-16 relative
        # of mpmath for a up to 10⁹; the lgamma difference cancels, putting up to 8e-11
        # relative error on the tail by df 10⁵ and 1.5e-9 by df 10⁶
        log_gamma_ratio = (
            0.5 * math.log(a) - 1 / (8 * a) + 1 / (192 * a**3) - 1 / (640 * a**5)
            + 17 / (14336 * a**7)
        )
    # log B(a, ½) = log Γ(½) − (log Γ(a+½) − log Γ(a)), and Γ(½) = √π
    front = math.exp(a * log_x + 0.5 * log_y + log_gamma_ratio - 0.5 * math.log(math.pi))
    mirrored = math.exp(log_x) >= (a + 1) / (a + 2.5)
    p, r, z = (0.5, a, math.exp(log_y)) if mirrored else (a, 0.5, math.exp(log_x))
    c = 1.0
    d = 1.0 - (p + r) * z / (p + 1)
    d = 1.0 / (d if abs(d) > _LENTZ_FLOOR else _LENTZ_FLOOR)
    fraction = d
    for m in range(1, _MAX_FRACTION_TERMS + 1):
        even = m * (r - m) * z / ((p + 2 * m - 1) * (p + 2 * m))
        odd = -(p + m) * (p + r + m) * z / ((p + 2 * m) * (p + 2 * m + 1))
        for coefficient in (even, odd):
            d = 1.0 + coefficient * d
            d = 1.0 / (d if abs(d) > _LENTZ_FLOOR else _LENTZ_FLOOR)
            c = 1.0 + coefficient / c
            c = c if abs(c) > _LENTZ_FLOOR else _LENTZ_FLOOR
            step = d * c
            fraction *= step
        if abs(step - 1.0) <= math.ulp(1.0):
            break
    else:
        raise ArithmeticError(f"t tail at t={t!r}, df={df!r}: continued fraction did not converge")
    both_tails = front * fraction / p
    if mirrored:
        both_tails = 1.0 - both_tails
    return both_tails / 2 if t > 0 else 1.0 - both_tails / 2


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
