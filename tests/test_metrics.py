"""Decomposition quality metric tests against hand-worked cases and naive oracles."""

import json
import random

import pytest

from monosplit import (
    Decomposition,
    DevelopmentHistory,
    MetricsError,
    cohesion,
    combined_score,
    complexity,
    coupling,
    evaluate,
    load_access_model,
    max_complexity,
    tsr,
    uniform_complexity,
)

import oracles
from synth import commits_to_history, random_commits, random_partition, random_traces, to_model


def _model(payload):
    return load_access_model(json.dumps(payload))


def _split(clusters):
    return Decomposition.from_clusters("demo", clusters)


CROSS_MODEL = _model({"f1": [["A", "R"], ["B", "W"]], "f2": [["B", "R"], ["A", "W"]]})


# ----------------------------------------------------------------- complexity


def test_single_cluster_has_no_complexity():
    assert complexity(_split([["A", "B"]]), CROSS_MODEL) == 0.0


def test_opposite_mode_peers_counted_per_access():
    # each functionality pays 1 at each of its two accesses for the other one
    assert complexity(_split([["A"], ["B"]]), CROSS_MODEL) == 2.0


def test_local_functionality_costs_nothing():
    model = _model({"f1": [["A", "R"], ["B", "W"]], "f2": [["B", "R"]]})
    assert complexity(_split([["A"], ["B"]]), model) == 0.0


def test_repeated_accesses_count_once():
    model = _model(
        {
            "f1": [["A", "R"], ["A", "R"], ["B", "W"]],
            "f2": [["B", "R"], ["A", "W"], ["A", "W"]],
        }
    )
    assert complexity(_split([["A"], ["B"]]), CROSS_MODEL) == 2.0
    assert complexity(_split([["A"], ["B"]]), model) == 2.0


def test_complexity_requires_full_coverage():
    with pytest.raises(MetricsError, match="missing from decomposition"):
        complexity(_split([["A"]]), CROSS_MODEL)


def test_empty_model_scores_zero():
    model = _model({})
    assert complexity(_split([["A"]]), model) == 0.0
    assert max_complexity(model) == 0.0


# ------------------------------------------------------------- max/uniform


def test_max_complexity_ignores_modes():
    assert max_complexity(CROSS_MODEL) == 2.0
    same_mode = _model({"f1": [["A", "R"], ["B", "R"]], "f2": [["B", "R"], ["A", "R"]]})
    assert max_complexity(same_mode) == 2.0


def test_max_complexity_zero_for_single_entity_traces():
    model = _model({"f1": [["A", "R"]], "f2": [["A", "W"], ["A", "R"]]})
    assert max_complexity(model) == 0.0
    # degenerate ceiling: uniform defined as 0 for any decomposition
    assert uniform_complexity(_split([["A"]]), model) == 0.0


def test_uniform_complexity_hits_one_at_worst_case():
    assert uniform_complexity(_split([["A"], ["B"]]), CROSS_MODEL) == 1.0
    assert uniform_complexity(_split([["A", "B"]]), CROSS_MODEL) == 0.0


def test_uniform_complexity_requires_full_coverage():
    model = _model({"f1": [["A", "R"]]})  # ceiling 0, coverage still checked
    with pytest.raises(MetricsError, match="missing from decomposition"):
        uniform_complexity(_split([["B"]]), model)


# ------------------------------------------------------------------ cohesion


def test_cohesion_partial_touch():
    model = _model({"f1": [["A", "R"], ["B", "W"]], "f2": [["A", "R"]]})
    assert cohesion(_split([["A", "B"]]), model) == pytest.approx(0.75)


def test_cohesion_full_touch_is_one():
    model = _model({"f1": [["A", "R"], ["B", "W"]], "f2": [["C", "R"], ["D", "W"]]})
    assert cohesion(_split([["A", "B"], ["C", "D"]]), model) == 1.0


def test_singletons_are_fully_cohesive():
    model = _model({"f1": [["A", "R"], ["B", "W"]], "f2": [["A", "R"], ["C", "W"]]})
    assert cohesion(_split([["A"], ["B"], ["C"]]), model) == 1.0


def test_untouched_cluster_scores_one():
    model = _model({"f1": [["A", "R"]]})
    decomposition = Decomposition.from_clusters("demo", [["A"], ["B", "C"]])
    assert cohesion(decomposition, model) == 1.0


def test_cohesion_requires_full_coverage():
    with pytest.raises(MetricsError, match="missing from decomposition"):
        cohesion(_split([["A"]]), CROSS_MODEL)


# ------------------------------------------------------------------ coupling


def test_single_cluster_has_no_coupling():
    assert coupling(_split([["A", "B"]]), CROSS_MODEL) == 0.0


def test_coupling_counts_exposed_share_of_target():
    model = _model({"f1": [["A", "R"], ["B", "W"]]})
    decomposition = Decomposition.from_clusters("demo", [["A"], ["B", "C"]])
    # B is exposed to {A}: 1 of 2 entities one way, nothing the other way
    assert coupling(decomposition, model) == pytest.approx(0.25)


def test_no_cross_cluster_adjacency_means_no_coupling():
    model = _model({"f1": [["A", "R"], ["B", "W"]], "f2": [["C", "R"], ["C", "W"]]})
    assert coupling(_split([["A", "B"], ["C"]]), model) == 0.0


def test_exposure_is_directional():
    model = _model({"f1": [["A", "R"], ["B", "W"], ["A", "W"]]})
    decomposition = _split([["A"], ["B"]])
    # A->B exposes B, B->A exposes A: both directions, each a full singleton
    assert coupling(decomposition, model) == 1.0


def test_coupling_requires_full_coverage():
    with pytest.raises(MetricsError, match="missing from decomposition"):
        coupling(_split([["A"]]), CROSS_MODEL)


# ----------------------------------------------------------------------- tsr


def _history(file_authors):
    return DevelopmentHistory(
        {f: 1 for f in file_authors},
        {f: {} for f in file_authors},
        {f: frozenset(a) for f, a in file_authors.items()},
    )


def test_tsr_mean_cluster_authors_over_total():
    history = _history(
        {
            "a/A.java": {"x", "y"},
            "c/C.java": {"y", "z"},
            "legacy/Old.java": {"w"},  # counts toward the total only
        }
    )
    decomposition = _split([["A"], ["C"]])
    entity_files = {"A": "a/A.java", "C": "c/C.java"}
    assert tsr(decomposition, history, entity_files) == pytest.approx(0.5)


def test_tsr_single_cluster_covering_everyone_is_one():
    history = _history({"a/A.java": {"x", "y"}, "b/B.java": {"z"}})
    decomposition = _split([["A", "B"]])
    entity_files = {"A": "a/A.java", "B": "b/B.java"}
    assert tsr(decomposition, history, entity_files) == 1.0


@pytest.mark.parametrize("k", [2, 3, 5])
def test_tsr_disjoint_single_author_teams(k):
    files = {f"E{i}": f"src/E{i}.java" for i in range(k)}
    history = _history({files[f"E{i}"]: {f"dev{i}"} for i in range(k)})
    decomposition = _split([[f"E{i}"] for i in range(k)])
    assert tsr(decomposition, history, files) == pytest.approx(1 / k)


def test_tsr_skips_unmapped_entities():
    history = _history({"a/A.java": {"x"}, "b/B.java": {"y"}})
    decomposition = _split([["A", "Ghost"], ["B"]])
    entity_files = {"A": "a/A.java", "B": "b/B.java", "Ghost": None}
    # Ghost contributes no authors; (1 + 1)/2 clusters over 2 total authors
    assert tsr(decomposition, history, entity_files) == pytest.approx(0.5)


def test_tsr_follows_each_mapping_asked_of_one_history():
    history = _history({"a/A.java": {"x"}, "b/B.java": {"y"}})
    together = _split([["A", "B"]])
    entity_files = {"A": "a/A.java", "B": "b/B.java"}
    assert tsr(together, history, entity_files) == 1.0
    assert tsr(together, history, {"A": "a/A.java", "B": "a/A.java"}) == 0.5
    assert tsr(together, history, entity_files) == 1.0
    entity_files["B"] = None  # changed in place, not replaced
    assert tsr(together, history, entity_files) == 0.5


def test_tsr_rejects_history_without_authors():
    with pytest.raises(MetricsError, match="no authors"):
        tsr(_split([["A"]]), DevelopmentHistory({}, {}, {}), {"A": None})


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


def test_evaluate_bundles_the_five_numbers():
    rng = random.Random(5)
    traces = random_traces(rng, 5)
    model = to_model(traces)
    commits, files = random_commits(rng, model.entities)
    history = commits_to_history(commits)
    decomposition = _split(random_partition(rng, model.entities, 2))
    record = evaluate(decomposition, model, history, files)
    assert record.uniform_complexity == uniform_complexity(decomposition, model)
    assert record.cohesion == cohesion(decomposition, model)
    assert record.coupling == coupling(decomposition, model)
    assert record.tsr == tsr(decomposition, history, files)
    identity = 4 * record.combined - record.uniform_complexity
    identity -= record.coupling + record.tsr - record.cohesion
    assert identity == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("seed", range(20))
def test_range_and_boundary_properties(seed):
    rng = random.Random(seed)
    traces = random_traces(rng, rng.randint(2, 8))
    model = to_model(traces)
    commits, files = random_commits(rng, model.entities)
    history = commits_to_history(commits)
    n = len(model.entities)
    for k in range(1, n + 1):
        decomposition = _split(random_partition(rng, model.entities, k))
        record = evaluate(decomposition, model, history, files)
        for value in (
            record.uniform_complexity,
            record.cohesion,
            record.coupling,
            record.tsr,
            record.combined,
        ):
            assert 0.0 <= value <= 1.0
        if k == 1:
            assert complexity(decomposition, model) == 0.0
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
        decomposition = _split(random_partition(rng, model.entities, k))
        clusters = [list(c) for c in decomposition.clusters]
        assert complexity(decomposition, model) == oracles.complexity_measure(clusters, traces)
        assert max_complexity(model) == oracles.max_complexity_measure(traces)
        assert uniform_complexity(decomposition, model) == oracles.uniform_complexity_measure(
            clusters, traces
        )
        assert cohesion(decomposition, model) == oracles.cohesion_measure(clusters, traces)
        assert coupling(decomposition, model) == oracles.coupling_measure(clusters, traces)
        file_authors = {f: set(history.authors(f)) for f in history.files()}
        assert tsr(decomposition, history, files) == oracles.tsr_measure(
            clusters, files, file_authors
        )
