"""Metrics at benchmark scale: oracle agreement and byte-identical sweep output."""

import hashlib
import random

import pytest

from monosplit import Decomposition, evaluate, run_sweep, write_results_csv

import oracles
from synth import (
    MODES,
    commits_to_history,
    random_commits,
    random_partition,
    random_traces,
    to_model,
)


def fixed_length_traces(rng, n_entities, n_functionalities, trace_len):
    """Traces of exactly trace_len accesses each, every entity placed at least once."""
    entities = [f"E{i:03d}" for i in range(n_entities)]
    slots = [(f, position) for f in range(n_functionalities) for position in range(trace_len)]
    rng.shuffle(slots)
    steps = [[None] * trace_len for _ in range(n_functionalities)]
    for index, (f, position) in enumerate(slots):
        entity = entities[index] if index < n_entities else rng.choice(entities)
        steps[f][position] = (entity, rng.choice(MODES))
    return {f"f{f:02d}": steps[f] for f in range(n_functionalities)}


def _partitions(rng, entities):
    n = len(entities)
    counts = [1, 2, 3, 5, 8, 10, n] + [rng.randint(1, n) for _ in range(4)]
    return [random_partition(rng, entities, k) for k in counts if k <= n]


def _oracle_record(clusters, traces, files, history):
    file_authors = {f: set(history.authors(f)) for f in history.files()}
    uniform = oracles.uniform_complexity_measure(clusters, traces)
    cohesion = oracles.cohesion_measure(clusters, traces)
    coupling = oracles.coupling_measure(clusters, traces)
    team = oracles.tsr_measure(clusters, files, file_authors)
    combined = oracles.combined_measure(uniform, cohesion, coupling, team)
    return (uniform, cohesion, coupling, team, combined)


@pytest.mark.parametrize(
    "seed, n_entities, n_functionalities, trace_len",
    [(1, 24, 30, 10), (2, 24, 30, 10), (3, 160, 8, 22)],
)
def test_evaluate_matches_oracles_at_benchmark_scale(seed, n_entities, n_functionalities, trace_len):
    rng = random.Random(f"metrics-scale/{seed}")
    traces = fixed_length_traces(rng, n_entities, n_functionalities, trace_len)
    model = to_model(traces)
    commits, files = random_commits(rng, model.entities, n_authors=8, extra_commits=4 * n_entities)
    history = commits_to_history(commits)
    partitions = _partitions(rng, model.entities)
    # a member no trace mentions still counts toward its cluster's size
    ghost = [list(c) for c in random_partition(rng, model.entities, 4)]
    ghost[0].append("Ghost")
    partitions.append(ghost)
    for clusters in partitions:
        decomposition = Decomposition.from_clusters("scale", clusters)
        canonical = [list(c) for c in decomposition.clusters]
        record = evaluate(decomposition, model, history, files)
        got = (record.uniform_complexity, record.cohesion, record.coupling, record.tsr, record.combined)
        want = _oracle_record(canonical, traces, files, history)
        for name, g, w in zip(("uniform", "cohesion", "coupling", "tsr", "combined"), got, want):
            assert abs(g - w) <= 1e-12, f"k={len(canonical)} {name}: {g!r} != {w!r}"


# Grid step and SHA-256 of the results CSV per (seed, entities, functionalities).
# The first two were taken before the metrics moved to incidence matrices; the
# third, before the sweep clustered its weight vectors in stacks.  At 160
# entities the 21 vectors of the step-50 grid are clustered as stacks of 10, 10
# and 1.  Re-take them when the blend changes (ROADMAP item 1): a different
# summation order can tie-break UPGMA merges differently and change the rows.
SWEEP_SHA256 = {
    (11, 12, 5): (25, "de9b1a2b79bc2b06f0cc7384f60ca9f3ec342fea62fc7027dc67ba9f2ab411b0"),
    (12, 24, 10): (25, "5f231a843c1154f3e9e8ddad5d4b88756aa3fcdba1cc1109a8dbd94216f2e552"),
    (13, 160, 8): (50, "257e0afc5f901e45a4c23511d786244c89eb376e14e4b3b1aaa53cdbc9d5839d"),
}


@pytest.mark.parametrize("seed, n_entities, n_functionalities", sorted(SWEEP_SHA256))
def test_sweep_csv_is_byte_identical(seed, n_entities, n_functionalities):
    step, expected = SWEEP_SHA256[(seed, n_entities, n_functionalities)]
    rng = random.Random(seed)
    traces = random_traces(rng, n_entities, n_functionalities, max_extra=12)
    model = to_model(traces)
    commits, files = random_commits(rng, model.entities, extra_commits=4 * n_entities)
    history = commits_to_history(commits)
    rows, failures = run_sweep(model, history, files, f"synth{seed}", step=step)
    assert not failures
    assert hashlib.sha256(write_results_csv(rows).encode()).hexdigest() == expected
