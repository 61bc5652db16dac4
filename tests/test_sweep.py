"""Weight-grid enumeration, group classification, sweep execution and CSV round trips."""

import csv
import io
import itertools
import logging
import pickle
import random

import pytest

from monosplit import (
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
from monosplit.sweep import row_values
from monosplit.sweep import (
    AUTHORSHIP_ONLY,
    COMBINED,
    CSV_COLUMNS,
    FILES_ONLY,
    HISTORY,
    SEQUENCES_ONLY,
)

from synth import (
    commits_to_history,
    empty_history,
    partition_masks,
    random_commits,
    random_traces,
    to_model,
)


# --------------------------------------------------------------- enumeration


@pytest.mark.parametrize(
    "step, expected",
    [(4, 142_506), (5, 53_130), (10, 3003), (20, 252), (25, 126), (50, 21), (100, 6)],
)
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
    rows, dropped = run_sweep(model, history, files, "demo")
    return model, history, files, rows, dropped


def test_sweep_emits_one_row_per_vector_and_count(small_sweep):
    _, _, _, rows, dropped = small_sweep
    assert dropped == 0
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
    dendrogram = agglomerate(to_dissimilarity(matrix))
    return {n: cut(dendrogram, n, model.entities) for n in counts}


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
    rows, dropped = run_sweep(model, history, files, "grid", step=20)
    assert dropped == 0
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
    rows, dropped = run_sweep(model, history, files, "wide")
    assert dropped == 0
    assert len(rows) == 9009
    assert sorted({row.n_clusters for row in rows}) == [3, 4, 5]


def test_parallel_sweep_matches_serial(small_sweep):
    model, history, files, rows, _ = small_sweep
    parallel_rows, dropped = run_sweep(model, history, files, "demo", parallelism=2)
    assert dropped == 0
    assert parallel_rows == rows


@pytest.fixture(scope="module")
def wide_sweep_csv():
    model, history, files = _setup(7, n_entities=22)
    rows, dropped = run_sweep(model, history, files, "demo", step=20)
    assert dropped == 0
    return model, history, files, write_results_csv(rows)


# stack sizes in matrices on the 252-vector step-20 grid: every stack, one matrix
# or many, goes to `agglomerate_stack`
@pytest.mark.parametrize("matrices", [1, 3, 251, 252])
def test_sweep_csv_does_not_depend_on_the_stack_size(monkeypatch, wide_sweep_csv, matrices):
    import monosplit.sweep as sweep_module

    model, history, files, expected = wide_sweep_csv
    calls = []
    monkeypatch.setattr(sweep_module, "_STACK_BYTES", matrices * 8 * len(model.entities) ** 2)
    monkeypatch.setattr(
        sweep_module, "agglomerate", lambda matrix: calls.append(1) or agglomerate(matrix)
    )
    rows, dropped = run_sweep(model, history, files, "demo", step=20)
    assert dropped == 0
    assert write_results_csv(rows) == expected
    assert calls == []


@pytest.mark.parametrize("parallelism, chunks", [(4, 3), (8, 6)])
def test_the_pool_starts_one_worker_per_chunk(monkeypatch, small_sweep, parallelism, chunks):
    """Six step-100 vectors make fewer chunks than workers asked for: only those start."""
    import concurrent.futures

    model, history, files, _, _ = small_sweep
    serial_rows, _ = run_sweep(model, history, files, "demo", step=100)
    asked = []

    class SpyPool(concurrent.futures.ThreadPoolExecutor):  # starts no process
        def __init__(self, max_workers):
            asked.append(max_workers)
            super().__init__(max_workers)

        def map(self, fn, *iterables):
            # as a process pool does, each task runs on its own copy of `fn` and its scorer
            return super().map(lambda *args: pickle.loads(pickle.dumps(fn))(*args), *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SpyPool)
    rows, dropped = run_sweep(model, history, files, "demo", step=100, parallelism=parallelism)
    assert asked == [chunks]
    assert dropped == 0
    assert rows == serial_rows


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
    rows, dropped = run_sweep(model, history, files, "wide", step=20)
    assert dropped == 0
    assert len(rows) == len(enumerate_weights(20)) * len(counts)
    distinct = {
        clusters
        for weights in enumerate_weights(20)
        for clusters in _decompose_clusters(model, history, files, weights, counts).values()
    }
    assert len(scored) == len(set(scored))
    assert set(scored) == distinct


@pytest.mark.parametrize("error", [RuntimeError, MetricsError])
def test_programming_errors_are_raised_not_collected(monkeypatch, error):
    """Past the no-authors check no row is dropped: any error in scoring fails the sweep."""
    model, history, files = _setup(42)
    poisoned = _decompose_clusters(model, history, files, Weights(0, 0, 0, 0, 0, 100), [3])[3]
    _poison_evaluate(monkeypatch, model, poisoned, error("injected bug"))
    with pytest.raises(error, match="injected bug"):
        run_sweep(model, history, files, "demo")


@pytest.mark.parametrize("parallelism", [1, 2])
def test_a_history_without_authors_drops_every_row_unclustered(
    monkeypatch, caplog, parallelism
):
    """tsr is undefined for every row alike: the sweep drops them all at once, with one warning."""
    import concurrent.futures

    import monosplit.sweep as sweep_module

    model = to_model(random_traces(random.Random(7), 10))
    files = {entity: None for entity in model.entities}

    def unexpected(*args):
        raise AssertionError("clustered a sweep whose every row is dropped")

    monkeypatch.setattr(sweep_module, "agglomerate", unexpected)
    monkeypatch.setattr(sweep_module, "agglomerate_stack", unexpected)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", unexpected)  # no worker starts
    with caplog.at_level(logging.WARNING, logger="monosplit.sweep"):
        rows, dropped = run_sweep(
            model, empty_history(), files, "lone", step=20, parallelism=parallelism
        )
    assert rows == []
    assert dropped == len(enumerate_weights(20)) * len(cluster_counts(len(model.entities)))
    assert [record.message for record in caplog.records] == [
        f"dropped all {dropped} rows of lone: history has no authors"
    ]


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


def _csv_writer_text(rows):
    """The results CSV as a plain csv.writer renders the header and each row's `row_values`."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows(row_values(row, "{:.6f}".format) for row in rows)
    return buffer.getvalue()


# names csv.writer quotes (a comma, a quote, a newline), or leaves bare with a leading space;
# an empty name, which it quotes only when the name is alone in its row
QUOTED_NAMES = ["a,b", 'say "hi"', "two\nlines", " leading", "plain", ""]


def test_csv_writer_writes_the_bytes_of_csv_writer(small_sweep):
    _, _, _, rows, _ = small_sweep
    edges = [0.0, -0.0, 1.0, 1 / 3, 2 / 3, 0.0000005, 0.0000015, 0.9999995, 1e-300]
    crafted = [
        ResultRow(
            name,
            3 + i,
            Weights(*vector),
            group,
            MetricsRecord(*(edges[(i + j) % len(edges)] for j in range(5))),
        )
        for i, (name, vector, group) in enumerate(
            zip(
                QUOTED_NAMES * 2,
                [(100, 0, 0, 0, 0, 0), (0, 0, 0, 0, 50, 50), (10, 20, 30, 40, 0, 0)] * 4,
                [SEQUENCES_ONLY, HISTORY, COMBINED, FILES_ONLY, AUTHORSHIP_ONLY] * 2,
            )
        )
    ]
    for case in (rows, crafted, rows[:3] + crafted + rows[3:6]):
        assert write_results_csv(case) == _csv_writer_text(case)


def test_csv_writer_round_trips_names_that_need_quoting():
    rows = [
        ResultRow(
            name,
            n,
            Weights(0, 0, 0, 0, 50, 50),
            HISTORY,
            MetricsRecord(0.015625, 1.0, 0.0, 0.25, 0.3125),
        )
        for name in QUOTED_NAMES
        for n in (3, 4)
    ]
    text = write_results_csv(rows)
    assert text == _csv_writer_text(rows)
    assert read_results_csv(text) == rows


def test_csv_writer_writes_the_header_alone_for_no_rows():
    assert write_results_csv([]) == ",".join(CSV_COLUMNS) + "\n" == _csv_writer_text([])
    assert read_results_csv(write_results_csv([])) == []


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
            # a lenient reader takes this cell as `shopx`
            ",".join(CSV_COLUMNS)
            + '\n"shop"x,3,10,20,30,40,0,0,SEQUENCES_ONLY,0.1,0.2,0.25,0.5,0.3875\n',
            "bad results CSV at line 2",
        ),
        (
            ",".join(CSV_COLUMNS)
            + "\ndemo,3,10,20,30,40,0,0,NO_SUCH_GROUP,0.1,0.2,0.25,0.5,0.3875\n",
            "unknown group",
        ),
        (
            ",".join(CSV_COLUMNS)
            + "\nshop,3,100,0,0,0,0,0,FILES_ONLY,0.1,0.2,0.25,0.5,0.3875\n",
            "group contradicts the weights",
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
                "3,10,20,30,40,0,0,SEQUENCES_ONLY,\u0660.\u0661,0.2,0.25,0.5,0.3875",
            )
        ),
    ],
)
def test_csv_reader_rejects_malformed_documents(text, message):
    with pytest.raises(SweepError, match=message):
        read_results_csv(text)
