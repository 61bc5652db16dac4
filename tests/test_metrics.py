"""Decomposition quality metric tests against hand-worked cases and naive oracles."""

import json
import random

import pytest

from monosplit import (
    DevelopmentHistory,
    MetricsError,
    Scorer,
    cohesion,
    combined_score,
    coupling,
    evaluate,
    load_access_model,
    max_complexity,
    tsr,
    uniform_complexity,
)
from monosplit import metrics

import oracles
from synth import (
    commits_to_history,
    history_maps,
    partition_masks,
    random_commits,
    random_partition,
    random_traces,
    to_model,
)


def _model(payload):
    return load_access_model(json.dumps(payload))


NO_HISTORY = DevelopmentHistory.from_maps({}, {}, {})


def _scored(model, clusters, history=NO_HISTORY, files={}):
    """A fresh scorer and the per-cluster terms of the clusters of entity names."""
    scorer = Scorer(model, history.entity_authors([files.get(e) for e in model.entities]))
    return scorer, scorer.clusters(partition_masks(model.entities, clusters))


def _complexity(model, clusters):
    """Splitting cost per functionality: the paper's complexity."""
    scorer, scored = _scored(model, clusters)
    return scorer.splitting_cost(scored) / len(model.functionalities)


def _metric(metric, model, clusters):
    return metric(*_scored(model, clusters))


CROSS_MODEL = _model({"f1": [["A", "R"], ["B", "W"]], "f2": [["B", "R"], ["A", "W"]]})


# ----------------------------------------------------------------- complexity


def test_single_cluster_has_no_complexity():
    assert _complexity(CROSS_MODEL, [["A", "B"]]) == 0.0


def test_opposite_mode_peers_counted_per_access():
    # each functionality pays 1 at each of its two accesses for the other one
    assert _complexity(CROSS_MODEL, [["A"], ["B"]]) == 2.0


def test_local_functionality_costs_nothing():
    model = _model({"f1": [["A", "R"], ["B", "W"]], "f2": [["B", "R"]]})
    assert _complexity(model, [["A"], ["B"]]) == 0.0


def test_repeated_accesses_count_once():
    model = _model(
        {
            "f1": [["A", "R"], ["A", "R"], ["B", "W"]],
            "f2": [["B", "R"], ["A", "W"], ["A", "W"]],
        }
    )
    assert _complexity(CROSS_MODEL, [["A"], ["B"]]) == 2.0
    assert _complexity(model, [["A"], ["B"]]) == 2.0


def test_empty_model_scores_zero():
    assert max_complexity(_model({})) == 0.0


# ------------------------------------------------------------- max/uniform


def test_max_complexity_ignores_modes():
    assert max_complexity(CROSS_MODEL) == 2.0
    same_mode = _model({"f1": [["A", "R"], ["B", "R"]], "f2": [["B", "R"], ["A", "R"]]})
    assert max_complexity(same_mode) == 2.0


def test_max_complexity_zero_for_single_entity_traces():
    model = _model({"f1": [["A", "R"]], "f2": [["A", "W"], ["A", "R"]]})
    assert max_complexity(model) == 0.0
    # degenerate ceiling: uniform defined as 0 for any decomposition
    assert _metric(uniform_complexity, model, [["A"]]) == 0.0


def test_uniform_complexity_hits_one_at_worst_case():
    assert _metric(uniform_complexity, CROSS_MODEL, [["A"], ["B"]]) == 1.0
    assert _metric(uniform_complexity, CROSS_MODEL, [["A", "B"]]) == 0.0


# ------------------------------------------------------------------ cohesion


def test_cohesion_partial_touch():
    model = _model({"f1": [["A", "R"], ["B", "W"]], "f2": [["A", "R"]]})
    assert _metric(cohesion, model, [["A", "B"]]) == pytest.approx(0.75)


def test_cohesion_full_touch_is_one():
    model = _model({"f1": [["A", "R"], ["B", "W"]], "f2": [["C", "R"], ["D", "W"]]})
    assert _metric(cohesion, model, [["A", "B"], ["C", "D"]]) == 1.0


def test_singletons_are_fully_cohesive():
    model = _model({"f1": [["A", "R"], ["B", "W"]], "f2": [["A", "R"], ["C", "W"]]})
    assert _metric(cohesion, model, [["A"], ["B"], ["C"]]) == 1.0


# ------------------------------------------------------------------ coupling


def test_single_cluster_has_no_coupling():
    assert _metric(coupling, CROSS_MODEL, [["A", "B"]]) == 0.0


def test_coupling_counts_exposed_share_of_target():
    model = _model({"f1": [["A", "R"], ["B", "W"]], "f2": [["C", "R"]]})
    # B is exposed to {A}: 1 of 2 entities one way, nothing the other way
    assert _metric(coupling, model, [["A"], ["B", "C"]]) == pytest.approx(0.25)


def test_no_cross_cluster_adjacency_means_no_coupling():
    model = _model({"f1": [["A", "R"], ["B", "W"]], "f2": [["C", "R"], ["C", "W"]]})
    assert _metric(coupling, model, [["A", "B"], ["C"]]) == 0.0


def test_exposure_is_directional():
    model = _model({"f1": [["A", "R"], ["B", "W"], ["A", "W"]]})
    # A->B exposes B, B->A exposes A: both directions, each a full singleton
    assert _metric(coupling, model, [["A"], ["B"]]) == 1.0


# ----------------------------------------------------------------------- tsr


def _history(file_authors):
    return DevelopmentHistory.from_maps(
        {f: 1 for f in file_authors},
        {f: {} for f in file_authors},
        {f: frozenset(a) for f, a in file_authors.items()},
    )


def _tsr(clusters, history, entity_files):
    """TSR of the clusters over a model whose one trace reads each of their members."""
    model = _model({"f": [[entity, "R"] for cluster in clusters for entity in cluster]})
    return tsr(*_scored(model, clusters, history, entity_files))


def test_tsr_mean_cluster_authors_over_total():
    history = _history(
        {
            "a/A.java": {"x", "y"},
            "c/C.java": {"y", "z"},
            "legacy/Old.java": {"w"},  # counts toward the total only
        }
    )
    entity_files = {"A": "a/A.java", "C": "c/C.java"}
    assert _tsr([["A"], ["C"]], history, entity_files) == pytest.approx(0.5)


def test_tsr_single_cluster_covering_everyone_is_one():
    history = _history({"a/A.java": {"x", "y"}, "b/B.java": {"z"}})
    entity_files = {"A": "a/A.java", "B": "b/B.java"}
    assert _tsr([["A", "B"]], history, entity_files) == 1.0


@pytest.mark.parametrize("k", [2, 3, 5])
def test_tsr_disjoint_single_author_teams(k):
    files = {f"E{i}": f"src/E{i}.java" for i in range(k)}
    history = _history({files[f"E{i}"]: {f"dev{i}"} for i in range(k)})
    assert _tsr([[f"E{i}"] for i in range(k)], history, files) == pytest.approx(1 / k)


def test_tsr_skips_unmapped_entities():
    history = _history({"a/A.java": {"x"}, "b/B.java": {"y"}})
    entity_files = {"A": "a/A.java", "B": "b/B.java", "Unmapped": None}
    # Unmapped contributes no authors; (1 + 1)/2 clusters over 2 total authors
    assert _tsr([["A", "Unmapped"], ["B"]], history, entity_files) == pytest.approx(0.5)


def test_tsr_follows_each_mapping_asked_of_one_history():
    history = _history({"a/A.java": {"x"}, "b/B.java": {"y"}})
    together = [["A", "B"]]
    entity_files = {"A": "a/A.java", "B": "b/B.java"}
    assert _tsr(together, history, entity_files) == 1.0
    assert _tsr(together, history, {"A": "a/A.java", "B": "a/A.java"}) == 0.5
    assert _tsr(together, history, entity_files) == 1.0
    entity_files["B"] = None  # changed in place, not replaced
    assert _tsr(together, history, entity_files) == 0.5


def test_tsr_rejects_history_without_authors():
    with pytest.raises(MetricsError, match="no authors"):
        _tsr([["A"]], NO_HISTORY, {"A": None})


# ------------------------------------------------------------------ combined


def test_combined_score_extremes_and_midpoint():
    assert combined_score(0.0, 1.0, 0.0, 0.0) == 0.0
    assert combined_score(1.0, 0.0, 1.0, 1.0) == 1.0
    assert combined_score(0.5, 0.75, 0.25, 0.5) == pytest.approx(0.375)


@pytest.mark.parametrize("position", range(4))
@pytest.mark.parametrize("bad", [-0.1, 1.1])
def test_combined_score_rejects_out_of_range(position, bad):
    values = [0.5, 0.5, 0.5, 0.5]
    values[position] = bad
    with pytest.raises(MetricsError, match="out of range"):
        combined_score(*values)


# ------------------------------------------------------------------ evaluate


def _evaluate(model, clusters, history, files):
    scorer = Scorer(model, history.entity_authors([files[e] for e in model.entities]))
    return evaluate(scorer, partition_masks(model.entities, clusters))


def test_evaluate_bundles_the_five_numbers():
    rng = random.Random(5)
    traces = random_traces(rng, 5)
    model = to_model(traces)
    commits, files = random_commits(rng, model.entities)
    history = commits_to_history(commits)
    clusters = random_partition(rng, model.entities, 2)
    record = _evaluate(model, clusters, history, files)
    scored = _scored(model, clusters, history, files)
    assert record.uniform_complexity == uniform_complexity(*scored)
    assert record.cohesion == cohesion(*scored)
    assert record.coupling == coupling(*scored)
    assert record.tsr == tsr(*scored)
    identity = 4 * record.combined - record.uniform_complexity
    identity -= record.coupling + record.tsr - record.cohesion
    assert identity == pytest.approx(1.0, abs=1e-12)


def test_evaluate_scores_through_the_module_level_metrics(monkeypatch):
    # the names benchmark/tracing.py wraps must be the ones evaluate calls
    rng = random.Random(5)
    model = to_model(random_traces(rng, 5))
    commits, files = random_commits(rng, model.entities)
    history = commits_to_history(commits)
    scorer = Scorer(model, history.entity_authors([files[e] for e in model.entities]))
    partition = partition_masks(model.entities, random_partition(rng, model.entities, 2))
    stand_ins = {"uniform_complexity": 0.25, "cohesion": 0.5, "coupling": 0.125, "tsr": 0.75}
    calls = []
    for name, value in stand_ins.items():
        def stand_in(got_scorer, clusters, name=name, value=value):
            calls.append((name, got_scorer, clusters))
            return value

        monkeypatch.setattr(metrics, name, stand_in)
    record = evaluate(scorer, partition)
    clusters = scorer.clusters(partition)
    assert calls == [(name, scorer, clusters) for name in stand_ins]
    assert (record.uniform_complexity, record.cohesion, record.coupling, record.tsr) == tuple(
        stand_ins.values()
    )
    assert record.combined == combined_score(*stand_ins.values())


@pytest.mark.parametrize("seed", range(20))
def test_range_and_boundary_properties(seed):
    rng = random.Random(seed)
    traces = random_traces(rng, rng.randint(2, 8))
    model = to_model(traces)
    commits, files = random_commits(rng, model.entities)
    history = commits_to_history(commits)
    n = len(model.entities)
    for k in range(1, n + 1):
        clusters = random_partition(rng, model.entities, k)
        record = _evaluate(model, clusters, history, files)
        for value in (
            record.uniform_complexity,
            record.cohesion,
            record.coupling,
            record.tsr,
            record.combined,
        ):
            assert 0.0 <= value <= 1.0
        if k == 1:
            assert _complexity(model, clusters) == 0.0
            assert record.coupling == 0.0
        if k == n:
            assert record.cohesion == 1.0


@pytest.mark.parametrize("seed", range(10))
def test_metrics_match_naive_oracles(seed):
    rng = random.Random(1000 + seed)
    traces = random_traces(rng, rng.randint(2, 6), rng.randint(2, 4))
    model = to_model(traces)
    commits, files = random_commits(rng, model.entities)
    history = commits_to_history(commits)
    for k in range(1, len(model.entities) + 1):
        clusters = sorted(random_partition(rng, model.entities, k))
        scored = _scored(model, clusters, history, files)
        assert _complexity(model, clusters) == oracles.complexity_measure(clusters, traces)
        assert max_complexity(model) == oracles.max_complexity_measure(traces)
        assert uniform_complexity(*scored) == oracles.uniform_complexity_measure(clusters, traces)
        assert cohesion(*scored) == oracles.cohesion_measure(clusters, traces)
        assert coupling(*scored) == oracles.coupling_measure(clusters, traces)
        file_authors = history_maps(history)[2]
        assert tsr(*scored) == oracles.tsr_measure(clusters, files, file_authors)
