"""Welch tests, quantile summaries, best-row selection and codebase size splits."""

import random

import numpy as np
import pytest

from monosplit import (
    CodebaseStats,
    MetricsRecord,
    ResultRow,
    StatsError,
    Weights,
    best_decompositions,
    best_share_by_group,
    group_summary,
    size_split,
    welch_test,
)
from monosplit.analysis import METRIC_COLUMNS, quartiles

import oracles


# ------------------------------------------------------------------- welch


def test_welch_reference_case():
    result = welch_test([1, 2, 3, 4, 5], [2, 3, 4, 5, 6])
    assert result.t_statistic == pytest.approx(-1.0)
    assert result.degrees_of_freedom == pytest.approx(8.0)
    assert result.p_value == pytest.approx(0.8267, abs=5e-4)


def test_welch_identical_samples_are_even_odds():
    result = welch_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert result.t_statistic == 0.0
    assert result.p_value == pytest.approx(0.5)


def test_welch_extreme_separation():
    a = [100.0, 100.001, 99.999, 100.002]
    b = [1.0, 1.001, 0.999, 1.002]
    result = welch_test(a, b)
    assert result.t_statistic > 0
    assert result.p_value < 1e-6


def test_welch_unequal_variances_use_satterthwaite_df():
    a = [0.0, 10.0, 20.0, 30.0]
    b = [10.0, 10.1, 9.9, 10.05, 9.95]
    result = welch_test(a, b)
    # variance dominated by sample a: df close to n_a - 1, far from pooled 7
    assert result.degrees_of_freedom == pytest.approx(3.0, abs=0.01)


@pytest.mark.parametrize("seed", range(12))
def test_welch_matches_high_precision_oracle(seed):
    rng = random.Random(seed)
    a = [rng.uniform(0, 1) for _ in range(rng.randint(3, 12))]
    b = [rng.uniform(0, 1) for _ in range(rng.randint(3, 12))]
    t, df, p = oracles.welch_measure(a, b)
    result = welch_test(a, b)
    assert result.t_statistic == pytest.approx(t, rel=1e-12)
    assert result.degrees_of_freedom == pytest.approx(df, rel=1e-12)
    assert result.p_value == pytest.approx(p, rel=1e-9)


@pytest.mark.parametrize("seed", range(8))
def test_welch_one_sided_p_values_are_antisymmetric(seed):
    rng = random.Random(100 + seed)
    a = [rng.gauss(0, 1) for _ in range(6)]
    b = [rng.gauss(0.5, 2) for _ in range(9)]
    forward = welch_test(a, b)
    backward = welch_test(b, a)
    assert forward.t_statistic == pytest.approx(-backward.t_statistic, rel=1e-12)
    assert forward.degrees_of_freedom == pytest.approx(backward.degrees_of_freedom, rel=1e-12)
    assert forward.p_value + backward.p_value == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize(
    "a, b",
    [
        ([1.0], [1.0, 2.0, 3.0]),
        ([1.0, 2.0], [4.0]),
        ([], [1.0, 2.0]),
    ],
)
def test_welch_rejects_short_samples(a, b):
    with pytest.raises(StatsError, match="at least two"):
        welch_test(a, b)


def test_welch_rejects_two_flat_samples():
    with pytest.raises(StatsError, match="zero variance"):
        welch_test([2.0, 2.0, 2.0], [5.0, 5.0])


def test_welch_allows_one_flat_sample():
    result = welch_test([2.0, 2.0, 2.0], [5.0, 6.0])
    assert result.t_statistic < 0
    assert 0.0 <= result.p_value <= 1.0


# ---------------------------------------------------------------- quantiles


def test_quantile_linear_interpolation_examples():
    assert quartiles([1, 2, 3]) == (1.5, 2.0, 2.5)
    assert quartiles([1, 2, 3, 4]) == pytest.approx((1.75, 2.5, 3.25))
    assert quartiles([7]) == (7.0, 7.0, 7.0)


def test_quantile_rejects_empty_sample():
    with pytest.raises(StatsError, match="empty"):
        quartiles([])


@pytest.mark.parametrize("seed", range(10))
def test_quantile_matches_sorted_order_oracle(seed):
    rng = random.Random(seed)
    values = [rng.uniform(-5, 5) for _ in range(rng.randint(1, 40))]
    expected = [oracles.quantile_measure(values, fraction) for fraction in (0.25, 0.5, 0.75)]
    assert quartiles(values) == pytest.approx(expected, abs=1e-12)
    # one call over the three fractions gives the bits of three single-fraction calls
    assert quartiles(values) == tuple(
        float(np.quantile(values, fraction, method="linear")) for fraction in (0.25, 0.5, 0.75)
    )


# ------------------------------------------------------------------- fixtures


def _row(codebase, n_clusters, vector, combined, cohesion=0.5):
    weights = Weights(*vector)
    record = MetricsRecord(0.4, cohesion, 0.3, 0.2, combined)
    from monosplit import classify_group

    return ResultRow(codebase, n_clusters, weights, classify_group(weights), record)


# ---------------------------------------------------------------- summaries


def test_group_summary_spread_fields():
    rows = [
        _row("m", 3, (100, 0, 0, 0, 0, 0), combined)
        for combined in (1.0, 2.0, 3.0, 4.0)
    ]
    summary = group_summary(rows, "combined")
    sequences = summary["SEQUENCES_ONLY"]
    assert sequences["count"] == 4
    assert sequences["median"] == pytest.approx(2.5)
    assert sequences["q1"] == pytest.approx(1.75)
    assert sequences["q3"] == pytest.approx(3.25)


def test_group_summary_lists_empty_groups_without_spread():
    rows = [_row("m", 3, (100, 0, 0, 0, 0, 0), 0.5)]
    summary = group_summary(rows, "combined")
    assert set(summary) == {
        "FILES_ONLY",
        "AUTHORSHIP_ONLY",
        "SEQUENCES_ONLY",
        "HISTORY",
        "COMBINED",
    }
    assert summary["COMBINED"] == {"count": 0}
    assert summary["SEQUENCES_ONLY"]["count"] == 1


def test_group_summary_rejects_unknown_metric():
    with pytest.raises(StatsError, match="unknown metric"):
        group_summary([_row("m", 3, (100, 0, 0, 0, 0, 0), 0.5)], "speed")


# --------------------------------------------------------------------- best


def test_best_picks_minimum_for_combined():
    rows = [
        _row("m", 3, (100, 0, 0, 0, 0, 0), 0.3),
        _row("m", 3, (0, 100, 0, 0, 0, 0), 0.2),
        _row("m", 3, (0, 0, 100, 0, 0, 0), 0.4),
    ]
    winners = best_decompositions(rows, "combined")
    assert len(winners) == 1
    assert winners[0].weights == Weights(0, 100, 0, 0, 0, 0)


def test_best_picks_maximum_for_cohesion():
    rows = [
        _row("m", 3, (100, 0, 0, 0, 0, 0), 0.5, cohesion=0.2),
        _row("m", 3, (0, 100, 0, 0, 0, 0), 0.5, cohesion=0.9),
    ]
    winners = best_decompositions(rows, "cohesion")
    assert winners[0].weights == Weights(0, 100, 0, 0, 0, 0)


def test_best_breaks_ties_on_smallest_weight_vector():
    rows = [
        _row("m", 3, (0, 100, 0, 0, 0, 0), 0.2),
        _row("m", 3, (0, 0, 100, 0, 0, 0), 0.2),
        _row("m", 3, (0, 0, 0, 100, 0, 0), 0.2),
    ]
    winners = best_decompositions(rows, "combined")
    # (0,0,0,100,0,0) sorts before the vectors with weight on earlier measures
    assert winners[0].weights == Weights(0, 0, 0, 100, 0, 0)


def test_best_returns_one_row_per_codebase_and_count():
    rows = []
    for codebase in ("alpha", "beta"):
        for n_clusters in (3, 4):
            rows.append(_row(codebase, n_clusters, (100, 0, 0, 0, 0, 0), 0.5))
            rows.append(_row(codebase, n_clusters, (0, 0, 0, 0, 100, 0), 0.4))
    winners = best_decompositions(rows, "combined")
    assert [(w.codebase, w.n_clusters) for w in winners] == [
        ("alpha", 3),
        ("alpha", 4),
        ("beta", 3),
        ("beta", 4),
    ]
    assert all(w.weights == Weights(0, 0, 0, 0, 100, 0) for w in winners)


def test_best_rejects_unknown_metric():
    with pytest.raises(StatsError, match="unknown metric"):
        best_decompositions([_row("m", 3, (100, 0, 0, 0, 0, 0), 0.5)], "speed")


def test_best_order_is_insensitive_to_row_order():
    rng = random.Random(3)
    rows = [
        _row("m", 3, vector, combined)
        for vector, combined in [
            ((100, 0, 0, 0, 0, 0), 0.31),
            ((0, 0, 0, 0, 100, 0), 0.29),
            ((0, 0, 0, 0, 0, 100), 0.29),
            ((10, 0, 0, 0, 90, 0), 0.35),
        ]
    ]
    for _ in range(5):
        shuffled = rows[:]
        rng.shuffle(shuffled)
        winners = best_decompositions(shuffled, "combined")
        assert winners[0].weights == Weights(0, 0, 0, 0, 0, 100)


# -------------------------------------------------------------------- share


def test_best_share_percentages_sum_to_100():
    winners = [
        _row("a", 3, (10, 0, 0, 0, 90, 0), 0.1),
        _row("a", 4, (10, 0, 0, 0, 90, 0), 0.1),
        _row("b", 3, (10, 0, 0, 0, 90, 0), 0.1),
        _row("b", 4, (100, 0, 0, 0, 0, 0), 0.1),
    ]
    share = best_share_by_group(winners)
    assert share["COMBINED"] == pytest.approx(75.0)
    assert share["SEQUENCES_ONLY"] == pytest.approx(25.0)
    assert sum(share.values()) == pytest.approx(100.0)


def test_best_share_thirteen_of_sixteen():
    winners = [_row("m", k, (10, 0, 0, 0, 90, 0), 0.1) for k in range(3, 16)]
    winners += [_row("m", k, (100, 0, 0, 0, 0, 0), 0.1) for k in range(16, 19)]
    share = best_share_by_group(winners)
    assert share["COMBINED"] == pytest.approx(81.25)


def test_best_share_rejects_empty_input():
    with pytest.raises(StatsError, match="no best rows"):
        best_share_by_group([])


# --------------------------------------------------------------- size split


def test_size_split_two_point_case_stays_small():
    # threshold lands exactly on the larger count; strict inequality keeps it SMALL
    stats = [CodebaseStats("a", 100, 100), CodebaseStats("b", 10_000, 10_000)]
    split = size_split(stats)
    assert split.commit_threshold == pytest.approx(10_000.0)
    assert split.labels["a"]["commits"] == "SMALL"
    assert split.labels["b"]["commits"] == "SMALL"


def test_size_split_labels_outliers_large():
    stats = [
        CodebaseStats("a", 10, 2),
        CodebaseStats("b", 12, 2),
        CodebaseStats("c", 11, 2),
        CodebaseStats("d", 500, 40),
    ]
    split = size_split(stats)
    assert split.labels["d"] == {"commits": "LARGE", "authors": "LARGE"}
    for codebase in ("a", "b", "c"):
        assert split.labels[codebase] == {"commits": "SMALL", "authors": "SMALL"}


def test_size_split_axes_are_independent():
    stats = [
        CodebaseStats("a", 10, 50),
        CodebaseStats("b", 11, 48),
        CodebaseStats("c", 12, 52),
        CodebaseStats("d", 900, 51),
    ]
    split = size_split(stats)
    assert split.labels["d"]["commits"] == "LARGE"
    assert split.labels["d"]["authors"] == "SMALL"


def test_size_split_equal_counts_are_all_small():
    stats = [CodebaseStats(c, 7, 7) for c in "abc"]
    split = size_split(stats)
    assert all(
        labels == {"commits": "SMALL", "authors": "SMALL"}
        for labels in split.labels.values()
    )


def test_size_split_uses_the_population_deviation():
    # population std of {0,50,100} is 40.8, sample std exactly 50: the top
    # codebase clears mean+std only under the population convention
    stats = [
        CodebaseStats("a", 0, 1),
        CodebaseStats("b", 50, 1),
        CodebaseStats("c", 100, 1),
    ]
    population = size_split(stats)
    assert population.commit_threshold == pytest.approx(50 + 50 * (2 / 3) ** 0.5)
    assert population.labels["c"]["commits"] == "LARGE"


def test_size_split_is_order_invariant():
    rng = random.Random(9)
    stats = [CodebaseStats(f"c{i}", rng.randint(1, 1000), rng.randint(1, 50)) for i in range(8)]
    reference = size_split(stats)
    for _ in range(4):
        shuffled = stats[:]
        rng.shuffle(shuffled)
        assert size_split(shuffled) == reference


def test_size_split_rejects_single_codebase():
    with pytest.raises(StatsError, match="at least two"):
        size_split([CodebaseStats("a", 10, 2)])


def test_metric_names_cover_results_columns():
    assert METRIC_COLUMNS == ("uniformComplexity", "cohesion", "coupling", "tsr", "combined")
