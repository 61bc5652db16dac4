"""Weight-grid enumeration, group classification, sweep execution and CSV round trips."""

import itertools
import logging
import random

import pytest

from monosplit import (
    ClusteringError,
    MetricsError,
    MetricsRecord,
    ResultRow,
    Scorer,
    SweepError,
    Weights,
    agglomerate,
    build_similarity_matrix,
    classify_group,
    cluster_counts,
    cut,
    enumerate_weights,
    evaluate,
    read_results_csv,
    run_sweep,
    to_dissimilarity,
    write_results_csv,
)
from monosplit.clustering import members
from monosplit.sweep import (
    AUTHORSHIP_ONLY,
    COMBINED,
    CSV_COLUMNS,
    FILES_ONLY,
    HISTORY,
    SEQUENCES_ONLY,
)

from synth import commits_to_history, partition_masks, random_commits, random_traces, to_model


# --------------------------------------------------------------- enumeration


@pytest.mark.parametrize("step, expected", [(10, 3003), (20, 252), (50, 21), (100, 6)])
def test_grid_sizes(step, expected):
    assert len(enumerate_weights(step)) == expected


@pytest.mark.parametrize("step", [20, 50])
def test_grid_matches_brute_force(step):
    grid = range(0, 101, step)
    expected = sorted(
        combo for combo in itertools.product(grid, repeat=6) if sum(combo) == 100
    )
    assert [w.as_tuple() for w in enumerate_weights(step)] == expected


def test_grid_is_sorted_and_on_step():
    vectors = [w.as_tuple() for w in enumerate_weights(10)]
    assert vectors == sorted(vectors)
    assert len(set(vectors)) == len(vectors)
    for vector in vectors:
        assert sum(vector) == 100
        assert all(value % 10 == 0 for value in vector)


@pytest.mark.parametrize("step", [0, -10, 30, 7, 200])
def test_grid_rejects_bad_step(step):
    with pytest.raises(SweepError, match="step"):
        enumerate_weights(step)


# ------------------------------------------------------------ classification


@pytest.mark.parametrize(
    "vector, group",
    [
        ((0, 0, 0, 0, 100, 0), FILES_ONLY),
        ((0, 0, 0, 0, 0, 100), AUTHORSHIP_ONLY),
        ((0, 0, 0, 0, 60, 40), HISTORY),
        ((0, 0, 0, 0, 10, 90), HISTORY),
        ((100, 0, 0, 0, 0, 0), SEQUENCES_ONLY),
        ((25, 25, 25, 25, 0, 0), SEQUENCES_ONLY),
        ((0, 0, 0, 100, 0, 0), SEQUENCES_ONLY),
        ((10, 0, 0, 0, 90, 0), COMBINED),
        ((10, 10, 10, 10, 30, 30), COMBINED),
        ((90, 0, 0, 0, 0, 10), COMBINED),
    ],
)
def test_group_classification(vector, group):
    assert classify_group(Weights(*vector)) == group


def test_group_census_on_full_grid():
    census = {FILES_ONLY: 0, AUTHORSHIP_ONLY: 0, SEQUENCES_ONLY: 0, HISTORY: 0, COMBINED: 0}
    vectors = enumerate_weights(10)
    for weights in vectors:
        census[classify_group(weights)] += 1
    assert census[SEQUENCES_ONLY] == 286
    assert census[FILES_ONLY] == 1
    assert census[AUTHORSHIP_ONLY] == 1
    assert census[HISTORY] == 9
    assert census[COMBINED] == 2706
    assert sum(census.values()) == 3003
    history_family = census[FILES_ONLY] + census[AUTHORSHIP_ONLY] + census[HISTORY]
    assert round(100 * census[SEQUENCES_ONLY] / len(vectors), 2) == 9.52
    assert round(100 * history_family / len(vectors), 2) == 0.37
    assert round(100 * census[COMBINED] / len(vectors), 2) == 90.11


# -------------------------------------------------------------- cluster bands


@pytest.mark.parametrize(
    "n_entities, expected",
    [
        (3, [3]),
        (5, [3]),
        (9, [3]),
        (10, [3, 4, 5]),
        (15, [3, 4, 5]),
        (19, [3, 4, 5]),
        (20, list(range(3, 11))),
        (25, list(range(3, 11))),
        (200, list(range(3, 11))),
    ],
)
def test_cluster_count_bands(n_entities, expected):
    assert cluster_counts(n_entities) == expected


@pytest.mark.parametrize("n_entities", [0, 1, 2])
def test_cluster_counts_rejects_tiny_sets(n_entities):
    with pytest.raises(SweepError, match="too few entities"):
        cluster_counts(n_entities)


# ------------------------------------------------------------------ run_sweep


def _setup(seed, n_entities=5):
    rng = random.Random(seed)
    traces = random_traces(rng, n_entities)
    model = to_model(traces)
    commits, files = random_commits(rng, model.entities)
    return model, commits_to_history(commits), files


@pytest.fixture(scope="module")
def small_sweep():
    model, history, files = _setup(42)
    rows, failures = run_sweep(model, history, files, "demo")
    return model, history, files, rows, failures


def test_sweep_emits_one_row_per_vector_and_count(small_sweep):
    _, _, _, rows, failures = small_sweep
    assert failures == []
    assert len(rows) == 3003
    assert all(row.n_clusters == 3 for row in rows)
    assert all(row.codebase == "demo" for row in rows)


def test_sweep_rows_are_sorted_and_complete(small_sweep):
    _, _, _, rows, _ = small_sweep
    keys = [(row.weights.as_tuple(), row.n_clusters) for row in rows]
    assert keys == sorted(keys)
    assert {row.weights.as_tuple() for row in rows} == {
        w.as_tuple() for w in enumerate_weights(10)
    }


def test_sweep_groups_round_trip(small_sweep):
    _, _, _, rows, _ = small_sweep
    for row in rows:
        assert row.group == classify_group(row.weights)


def test_sweep_metrics_are_in_range(small_sweep):
    _, _, _, rows, _ = small_sweep
    for row in rows:
        m = row.metrics
        for value in (m.uniform_complexity, m.cohesion, m.coupling, m.tsr, m.combined):
            assert 0.0 <= value <= 1.0


def _decompose_clusters(model, history, files, weights, counts):
    """The clusters `decompose` returns for these weights, by cluster count."""
    matrix = build_similarity_matrix(model, history, files, weights)
    dendrogram = agglomerate(to_dissimilarity(matrix.values))
    return {n: cut(dendrogram, n, matrix.entities) for n in counts}


def _single_runs(model, history, files, weights, counts):
    """Metrics of the partitions `decompose` returns for these weights, by cluster count.

    Each partition is scored by a fresh scorer, so no memo is shared with the sweep's.
    """
    out = {}
    for n, clusters in _decompose_clusters(model, history, files, weights, counts).items():
        scorer = Scorer(model, history.entity_authors([files[e] for e in model.entities]))
        out[n] = evaluate(scorer, partition_masks(model.entities, clusters))
    return out


def _names(partition, entities):
    return tuple(tuple(entities[i] for i in members(mask)) for mask in partition)


@pytest.mark.parametrize(
    "vector",
    [
        (100, 0, 0, 0, 0, 0),
        (0, 0, 0, 100, 0, 0),
        (0, 0, 0, 0, 100, 0),
        (0, 0, 0, 0, 50, 50),
    ],
)
def test_sweep_rows_match_single_runs(small_sweep, vector):
    model, history, files, rows, _ = small_sweep
    weights = Weights(*vector)
    expected = _single_runs(model, history, files, weights, [3])
    row = next(r for r in rows if r.weights == weights)
    assert row.metrics == expected[3]


@pytest.mark.parametrize("n_entities", [25, 50])
def test_sweep_rows_match_single_runs_on_whole_grid(n_entities):
    """Every row of a step-20 sweep scores the partition `decompose` gives its weights.

    The seeds give grids where some UPGMA merges tie; a blend that summed the
    measures in another order than the sweep's would break those ties apart.
    """
    rng = random.Random(n_entities)
    traces = random_traces(rng, n_entities, 10, max_extra=12)
    model = to_model(traces)
    commits, files = random_commits(rng, model.entities, extra_commits=4 * n_entities)
    history = commits_to_history(commits)
    rows, failures = run_sweep(model, history, files, "grid", step=20)
    assert failures == []
    counts = cluster_counts(n_entities)
    grid = enumerate_weights(20)
    scored = {(row.weights, row.n_clusters): row.metrics for row in rows}
    assert len(scored) == len(rows) == len(grid) * len(counts)
    mismatched = [
        (weights.as_tuple(), n)
        for weights in grid
        for n, record in _single_runs(model, history, files, weights, counts).items()
        if scored[(weights, n)] != record
    ]
    assert mismatched == []


def test_sweep_covers_wider_band_for_larger_codebases():
    model, history, files = _setup(7, n_entities=10)
    rows, failures = run_sweep(model, history, files, "wide")
    assert failures == []
    assert len(rows) == 9009
    assert sorted({row.n_clusters for row in rows}) == [3, 4, 5]


def test_parallel_sweep_matches_serial(small_sweep):
    model, history, files, rows, _ = small_sweep
    parallel_rows, failures = run_sweep(model, history, files, "demo", parallelism=2)
    assert failures == []
    assert parallel_rows == rows


@pytest.fixture(scope="module")
def wide_sweep_csv():
    model, history, files = _setup(7, n_entities=22)
    rows, failures = run_sweep(model, history, files, "demo", step=20)
    assert failures == []
    return model, history, files, write_results_csv(rows)


# stack sizes in matrices on the 252-vector step-20 grid, and how many stacks of one
# matrix go to `agglomerate`
@pytest.mark.parametrize("matrices, single", [(1, 252), (3, 0), (251, 1), (252, 0)])
def test_sweep_csv_does_not_depend_on_the_stack_size(monkeypatch, wide_sweep_csv, matrices, single):
    import monosplit.sweep as sweep_module

    model, history, files, expected = wide_sweep_csv
    calls = []
    monkeypatch.setattr(sweep_module, "_STACK_BYTES", matrices * 8 * len(model.entities) ** 2)
    monkeypatch.setattr(
        sweep_module, "agglomerate", lambda matrix: calls.append(1) or agglomerate(matrix)
    )
    rows, failures = run_sweep(model, history, files, "demo", step=20)
    assert failures == []
    assert write_results_csv(rows) == expected
    assert len(calls) == single


def test_sweep_rejects_bad_parallelism(small_sweep):
    model, history, files, _, _ = small_sweep
    with pytest.raises(SweepError, match="parallelism"):
        run_sweep(model, history, files, "demo", parallelism=0)


def _poison_evaluate(monkeypatch, model, poisoned, error):
    """Make the sweep's `evaluate` raise `error` on the partition of these clusters."""
    import monosplit.sweep as sweep_module

    real_evaluate = sweep_module.evaluate

    def flaky_evaluate(scorer, partition):
        if _names(partition, model.entities) == poisoned:
            raise error
        return real_evaluate(scorer, partition)

    monkeypatch.setattr(sweep_module, "evaluate", flaky_evaluate)


def test_row_failures_are_collected_not_raised(monkeypatch, caplog, small_sweep):
    model, history, files, clean_rows, _ = small_sweep
    partitions = {
        weights: _decompose_clusters(model, history, files, weights, [3])[3]
        for weights in enumerate_weights(10)
    }
    poisoned = partitions[Weights(0, 0, 0, 0, 0, 100)]
    dropped = [weights for weights, clusters in partitions.items() if clusters == poisoned]
    assert 1 < len(dropped) < len(partitions)
    _poison_evaluate(monkeypatch, model, poisoned, MetricsError("injected scoring fault"))
    with caplog.at_level(logging.WARNING, logger="monosplit.sweep"):
        rows, failures = run_sweep(model, history, files, "demo")
    assert [(f.weights, f.n_clusters) for f in failures] == [(w, 3) for w in dropped]
    assert all("injected scoring fault" in f.error for f in failures)
    dropped_logs = [record for record in caplog.records if "dropped" in record.message]
    assert len(dropped_logs) == len(dropped)
    assert rows == [row for row in clean_rows if partitions[row.weights] != poisoned]


@pytest.mark.parametrize("parallelism", [1, 2])
def test_rows_come_out_in_grid_order_with_failures(monkeypatch, parallelism):
    """Rows and failures are in (weights, count) order as emitted, with no re-sort of the rows."""
    model, history, files = _setup(7, n_entities=10)
    counts = cluster_counts(len(model.entities))
    grid = enumerate_weights(20)
    # this 4-cluster partition recurs across both halves of the grid, so in both workers
    poisoned = _decompose_clusters(model, history, files, Weights(0, 20, 20, 0, 0, 60), [4])[4]
    _poison_evaluate(monkeypatch, model, poisoned, MetricsError("injected scoring fault"))
    rows, failures = run_sweep(model, history, files, "order", step=20, parallelism=parallelism)
    row_keys = [(row.weights.as_tuple(), row.n_clusters) for row in rows]
    failure_keys = [(f.weights.as_tuple(), f.n_clusters) for f in failures]
    halves = {grid.index(f.weights) < len(grid) // 2 for f in failures}
    assert halves == {True, False}
    assert row_keys == sorted(row_keys)
    assert failure_keys == sorted(failure_keys)
    assert sorted(row_keys + failure_keys) == [
        (weights.as_tuple(), n) for weights in grid for n in counts
    ]


def test_each_distinct_partition_is_evaluated_once(monkeypatch):
    import monosplit.sweep as sweep_module

    model, history, files = _setup(7, n_entities=10)
    counts = cluster_counts(len(model.entities))
    real_evaluate = sweep_module.evaluate
    scored = []

    def counting_evaluate(scorer, partition):
        scored.append(_names(partition, model.entities))
        return real_evaluate(scorer, partition)

    monkeypatch.setattr(sweep_module, "evaluate", counting_evaluate)
    rows, failures = run_sweep(model, history, files, "wide", step=20)
    assert failures == []
    assert len(rows) == len(enumerate_weights(20)) * len(counts)
    distinct = {
        clusters
        for weights in enumerate_weights(20)
        for clusters in _decompose_clusters(model, history, files, weights, counts).values()
    }
    assert len(scored) == len(set(scored))
    assert set(scored) == distinct


def test_bad_matrix_drops_only_its_own_rows(monkeypatch, small_sweep):
    model, history, files, clean_rows, _ = small_sweep
    import monosplit.sweep as sweep_module

    real_check = sweep_module.check_dissimilarity
    calls = []

    def check_all_but_second(matrix):
        calls.append(None)
        if len(calls) == 2:
            raise ClusteringError("injected bad matrix")
        return real_check(matrix)

    monkeypatch.setattr(sweep_module, "check_dissimilarity", check_all_but_second)
    rows, failures = run_sweep(model, history, files, "demo")
    bad = enumerate_weights(10)[1]
    assert [(f.weights, f.n_clusters) for f in failures] == [(bad, 3)]
    assert rows == [row for row in clean_rows if row.weights != bad]


def test_programming_errors_are_raised_not_collected(monkeypatch):
    model, history, files = _setup(42)
    poisoned = _decompose_clusters(model, history, files, Weights(0, 0, 0, 0, 0, 100), [3])[3]
    _poison_evaluate(monkeypatch, model, poisoned, RuntimeError("injected bug"))
    with pytest.raises(RuntimeError, match="injected bug"):
        run_sweep(model, history, files, "demo")


# ------------------------------------------------------------------------ CSV


def test_csv_header_and_row_layout():
    row = ResultRow(
        "demo",
        3,
        Weights(10, 20, 30, 40, 0, 0),
        SEQUENCES_ONLY,
        MetricsRecord(0.1, 0.2, 0.25, 0.5, 0.3875),
    )
    text = write_results_csv([row])
    lines = text.splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert lines[1] == "demo,3,10,20,30,40,0,0,SEQUENCES_ONLY,0.100000,0.200000,0.250000,0.500000,0.387500"
    assert text.endswith("\n")


def test_csv_round_trip_exact_for_six_decimal_values():
    rows = [
        ResultRow(
            "demo",
            3,
            Weights(0, 0, 0, 0, 50, 50),
            HISTORY,
            MetricsRecord(0.015625, 1.0, 0.0, 0.25, 0.3125),
        )
    ]
    assert read_results_csv(write_results_csv(rows)) == rows


def test_csv_stabilizes_after_one_write(small_sweep):
    _, _, _, rows, _ = small_sweep
    first = write_results_csv(rows)
    assert write_results_csv(read_results_csv(first)) == first


def test_sweep_output_is_deterministic():
    model, history, files = _setup(42)
    rows_a, _ = run_sweep(model, history, files, "demo")
    rows_b, _ = run_sweep(model, history, files, "demo")
    assert write_results_csv(rows_a) == write_results_csv(rows_b)


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "empty results CSV"),
        ("a,b\n1,2\n", "unexpected results CSV header"),
        (",".join(CSV_COLUMNS) + "\ndemo,3,10\n", "bad results CSV row"),
        (
            ",".join(CSV_COLUMNS)
            + "\ndemo,x,10,20,30,40,0,0,SEQUENCES_ONLY,0,0,0,0,0\n",
            "bad results CSV row",
        ),
        (
            ",".join(CSV_COLUMNS)
            + "\ndemo,3,10,20,30,40,0,0,NO_SUCH_GROUP,0.1,0.2,0.25,0.5,0.3875\n",
            "unknown group",
        ),
        (
            ",".join(CSV_COLUMNS)
            + "\ndemo,3,10,20,30,40,0,0,SEQUENCES_ONLY,nan,0.2,0.25,0.5,0.3875\n",
            "non-finite metric",
        ),
        (
            ",".join(CSV_COLUMNS)
            + "\ndemo,3,10,20,30,40,0,0,SEQUENCES_ONLY,0.1,0.2,0.25,0.5,inf\n",
            "non-finite metric",
        ),
        *(
            (",".join(CSV_COLUMNS) + f"\ndemo,{row}\n", "integer cells must be ASCII digits")
            for row in (
                "3,1_0,20,30,40,0,0,SEQUENCES_ONLY,0.1,0.2,0.25,0.5,0.3875",
                "+3,10,20,30,40,0,0,SEQUENCES_ONLY,0.1,0.2,0.25,0.5,0.3875",
                "3,10,20,30,40,0, 0,SEQUENCES_ONLY,0.1,0.2,0.25,0.5,0.3875",
                "3,10,20,30,40,0,0 ,SEQUENCES_ONLY,0.1,0.2,0.25,0.5,0.3875",
                "\u0663,10,20,30,40,0,0,SEQUENCES_ONLY,0.1,0.2,0.25,0.5,0.3875",
                "3,10,20,30,4\uff10,0,0,SEQUENCES_ONLY,0.1,0.2,0.25,0.5,0.3875",
                "3,-10,20,30,40,20,0,SEQUENCES_ONLY,0.1,0.2,0.25,0.5,0.3875",
            )
        ),
        *(
            (",".join(CSV_COLUMNS) + f"\ndemo,{row}\n", "malformed metric cell")
            for row in (
                "3,10,20,30,40,0,0,SEQUENCES_ONLY,0.1,0.2,0.2_5,0.5,0.3875",
                "3,10,20,30,40,0,0,SEQUENCES_ONLY, 0.1,0.2,0.25,0.5,0.3875",
                "3,10,20,30,40,0,0,SEQUENCES_ONLY,0.1,0.2,0.25,0.5,0.3875\t",
            )
        ),
    ],
)
def test_csv_reader_rejects_malformed_documents(text, message):
    with pytest.raises(SweepError, match=message):
        read_results_csv(text)
