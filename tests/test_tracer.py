"""The benchmark's tracer finds every name it wraps; its counters match a real `mine` and `sweep`."""

import json
import random

import pytest

import monosplit.cli as cli
from conftest import DATA, load_tracing, log_fixture
from monosplit import (
    agglomerate,
    build_similarity_matrix,
    bundle_commits,
    cluster_counts,
    enumerate_weights,
    map_entities_to_files,
    parse_git_log,
    prune_deleted,
    resolve_renames,
    to_dissimilarity,
)
from monosplit.clustering import cuts
from monosplit.history import drop_oversized_commits
from synth import commits_to_history, random_commits, random_traces, to_model, traces_json

def test_the_tracer_finds_every_name_it_wraps():
    assert load_tracing().Tracer().not_measured == []


@pytest.mark.parametrize(
    "name", ["rename_chain.log", "resurrection.log", "bulk_commit.log", "bundling.log"]
)
def test_traced_mine_counts_what_was_mined(tmp_path, name):
    out = tmp_path / "history.json"
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        assert cli.main(["mine", str(DATA / name), "--out", str(out)]) == 0
    finally:
        tracer.uninstall()
    counts = {key: value for key, (value, _) in tracer.metrics(1).items()}
    events = parse_git_log(log_fixture(name))
    kept = drop_oversized_commits(prune_deleted(resolve_renames(events)))
    assert counts["history.events"] == len(events)
    assert counts["history.events_kept"] == len(kept)
    assert counts["history.raw_commits"] == len({e.commit_hash for e in kept})
    assert counts["history.logical_commits"] == len(bundle_commits(kept))
    assert counts["history.files"] == len(json.loads(out.read_text())["fileChanges"])
    assert counts["cli.mine_s"] > 0


def test_traced_sweep_counts_what_was_swept(tmp_path):
    rng = random.Random(5)
    traces = random_traces(rng, 12)
    model = to_model(traces)
    commits, _ = random_commits(rng, model.entities)
    history = commits_to_history(commits)
    accesses = tmp_path / "accesses.json"
    accesses.write_text(traces_json(traces))
    history_path = tmp_path / "history.json"
    history_path.write_text(history.serialize())
    out = tmp_path / "results.csv"
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        assert cli.main(
            [
                "sweep",
                "--history", str(history_path),
                "--accesses", str(accesses),
                "--codebase", "synth",
                "--step", "50",
                "--out", str(out),
            ]
        ) == 0
    finally:
        tracer.uninstall()
    counts = {key: value for key, (value, _) in tracer.metrics(1).items()}
    assert counts["sweep.rows"] == len(out.read_text().splitlines()) - 1
    assert counts["sweep.csv_bytes"] == out.stat().st_size
    files = map_entities_to_files(model.entities, history)
    counts_of_clusters = cluster_counts(len(model.entities))
    partitions = set()
    for weights in enumerate_weights(50):
        matrix = build_similarity_matrix(model, history, files, weights)
        dendrogram = agglomerate(to_dissimilarity(matrix))
        partitions.update(cuts(dendrogram, counts_of_clusters).values())
    assert counts["metrics.evaluate_calls"] == len(partitions)
