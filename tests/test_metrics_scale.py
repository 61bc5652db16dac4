"""Metrics at benchmark scale: oracle agreement and byte-identical sweep output."""

import hashlib
import random

import pytest

from monosplit import (
    Decomposition,
    Scorer,
    Weights,
    agglomerate,
    build_similarity_matrix,
    cut,
    evaluate,
    run_sweep,
    to_dissimilarity,
    write_results_csv,
)

import oracles
from synth import (
    MODES,
    commits_to_history,
    history_maps,
    partition_masks,
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
    file_authors = history_maps(history)[2]
    uniform = oracles.uniform_complexity_measure(clusters, traces)
    cohesion = oracles.cohesion_measure(clusters, traces)
    coupling = oracles.coupling_measure(clusters, traces)
    team = oracles.tsr_measure(clusters, files, file_authors)
    combined = oracles.combined_measure(uniform, cohesion, coupling, team)
    return (uniform, cohesion, coupling, team, combined)


def _benchmark_model(seed, n_entities, n_functionalities, trace_len):
    rng = random.Random(f"metrics-scale/{seed}")
    traces = fixed_length_traces(rng, n_entities, n_functionalities, trace_len)
    model = to_model(traces)
    commits, files = random_commits(rng, model.entities, n_authors=8, extra_commits=4 * n_entities)
    return rng, traces, model, commits_to_history(commits), files


def _chained_partitions(rng, entities, steps):
    """Partitions that each differ from the one before by merging two clusters or splitting one."""
    clusters = [list(c) for c in random_partition(rng, entities, rng.randint(3, 10))]
    out = [clusters]
    for _ in range(steps):
        clusters = [list(c) for c in clusters]
        splittable = [i for i, c in enumerate(clusters) if len(c) > 1]
        if len(clusters) > 1 and (rng.random() < 0.5 or not splittable):
            a, b = sorted(rng.sample(range(len(clusters)), 2))
            merged = clusters.pop(b) + clusters.pop(a)
            clusters.insert(rng.randint(0, len(clusters)), merged)
        else:
            members = clusters.pop(rng.choice(splittable))
            rng.shuffle(members)
            at = rng.randint(1, len(members) - 1)
            clusters += [members[:at], members[at:]]
        out.append(clusters)
    return out


@pytest.mark.parametrize(
    "seed, n_entities, n_functionalities, trace_len, steps",
    [(4, 24, 30, 10, 40), (5, 160, 8, 22, 8)],
)
def test_memo_keeps_every_bit(seed, n_entities, n_functionalities, trace_len, steps):
    """One scorer over partitions that share clusters gives a fresh scorer's records exactly."""
    rng, traces, model, history, files = _benchmark_model(
        seed, n_entities, n_functionalities, trace_len
    )
    partitions = _chained_partitions(rng, model.entities, steps)
    occurrences = [frozenset(c) for clusters in partitions for c in clusters]
    assert len(set(occurrences)) < len(occurrences)
    shared = Scorer(model, history.entity_authors([files[e] for e in model.entities]))
    for clusters in partitions:
        partition = partition_masks(model.entities, clusters)
        record = evaluate(shared, partition)
        fresh = Scorer(model, history.entity_authors([files[e] for e in model.entities]))
        assert record == evaluate(fresh, partition)
        got = (record.uniform_complexity, record.cohesion, record.coupling, record.tsr, record.combined)
        want = _oracle_record(clusters, traces, files, history)
        for name, g, w in zip(("uniform", "cohesion", "coupling", "tsr", "combined"), got, want):
            assert abs(g - w) <= 1e-12, f"k={len(clusters)} {name}: {g!r} != {w!r}"


@pytest.mark.parametrize(
    "seed, n_entities, n_functionalities, trace_len",
    [(1, 24, 30, 10), (2, 24, 30, 10), (3, 160, 8, 22)],
)
def test_evaluate_matches_oracles_at_benchmark_scale(seed, n_entities, n_functionalities, trace_len):
    rng, traces, model, history, files = _benchmark_model(
        seed, n_entities, n_functionalities, trace_len
    )
    for clusters in _partitions(rng, model.entities):
        scorer = Scorer(model, history.entity_authors([files[e] for e in model.entities]))
        record = evaluate(scorer, partition_masks(model.entities, clusters))
        got = (record.uniform_complexity, record.cohesion, record.coupling, record.tsr, record.combined)
        want = _oracle_record(clusters, traces, files, history)
        for name, g, w in zip(("uniform", "cohesion", "coupling", "tsr", "combined"), got, want):
            assert abs(g - w) <= 1e-12, f"k={len(clusters)} {name}: {g!r} != {w!r}"


# Grid step and SHA-256 of the results CSV per (seed, entities, functionalities).
# The first two were taken before the metrics moved to incidence matrices; the
# third, before the sweep clustered its weight vectors in stacks; the fourth,
# on the default step-10 grid, before partitions went to the metrics as member
# masks.  At 160 entities the 21 vectors of the step-50 grid are clustered as
# stacks of 10, 10 and 1.  Re-take them when the blend or the linkage changes:
# a different summation order can tie-break UPGMA merges differently and
# change the rows.
SWEEP_SHA256 = {
    (11, 12, 5): (25, "de9b1a2b79bc2b06f0cc7384f60ca9f3ec342fea62fc7027dc67ba9f2ab411b0"),
    (12, 24, 10): (25, "5f231a843c1154f3e9e8ddad5d4b88756aa3fcdba1cc1109a8dbd94216f2e552"),
    (13, 160, 8): (50, "257e0afc5f901e45a4c23511d786244c89eb376e14e4b3b1aaa53cdbc9d5839d"),
    (14, 25, 10): (10, "237de4d9f04ff4166491a4980f301c961b6a7a8c74bfe8354460c206f638c714"),
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


# SHA-256 of the decompose path's matrix CSV and of its 5-cluster decomposition
# JSON per (entities, weight vector).  The 24-entity pins, on a seeded
# random-trace model, were taken before the sequence measure moved onto the
# step-count matrix.  The 160-entity pins, on a model of the benchmark's
# sweep-wide shape (8 functionalities of 22 accesses), were taken before the
# matrix CSV formatted each distinct value once and `agglomerate` moved to the
# slot kernel; (100, 0, 0, 0, 0, 0) blends to three distinct values there, so
# nearly every merge is a tie.
DECOMPOSE_SHA256 = {
    (24, (0, 0, 0, 100, 0, 0)): (
        "3f6a673f9cb4521fb5e70783f0209cdbb168370103bda41729b7d1a4db89a8f3",
        "6a979f5b58a89a94c5a57af34849a8d6e2a68822590880da62c40a9a9df23a8e",
    ),
    (24, (100, 0, 0, 0, 0, 0)): (
        "2d299ad92c618acef0cda6520b6cab4ccc9291a0d9978f522c87f6a29fae7d76",
        "d021cc6fcf1ec7f5f649437324a0570b26206f684094bdc82a130be32e1d731e",
    ),
    (24, (20, 15, 15, 10, 20, 20)): (
        "ffce553a372a88a0af6d71c454a6eb72263bebf2ec34526e30a05f4503c3ad57",
        "61c7bd86cb6e0e9d8fa3927f3315fa4cd9d02a7694086342db3b6826249973fe",
    ),
    (160, (100, 0, 0, 0, 0, 0)): (
        "316a028013f64c65ac8de1589cd85caab9d189f41fa71c01e233755b1cc0f10e",
        "92b847d4ecaccbc20e8badc3b7a89c92881694c7e49f5da8c6da209b57d22e55",
    ),
    (160, (20, 15, 15, 10, 20, 20)): (
        "79e34fdccf81439059a4277888f45698705ab72974cfac53b0b751499f3c843b",
        "65280fb12d8859367b905f21f49bc811f8f891b2d2cd01d9262cd5a11e4dcfc1",
    ),
}


def _check_decompose_pins(n_entities, weights, model, history, files):
    matrix_sha, decomposition_sha = DECOMPOSE_SHA256[(n_entities, weights)]
    matrix = build_similarity_matrix(model, history, files, Weights(*weights))
    clusters = cut(agglomerate(to_dissimilarity(matrix.values)), 5, matrix.entities)
    decomposition = Decomposition("synth", clusters, Weights(*weights))
    assert hashlib.sha256(matrix.to_csv().encode()).hexdigest() == matrix_sha
    assert hashlib.sha256(decomposition.serialize().encode()).hexdigest() == decomposition_sha


@pytest.mark.parametrize("weights", sorted(w for n, w in DECOMPOSE_SHA256 if n == 24))
def test_decompose_outputs_are_byte_identical(weights):
    rng = random.Random(21)
    model = to_model(random_traces(rng, 24, 10, max_extra=12))
    commits, files = random_commits(rng, model.entities, extra_commits=4 * 24)
    _check_decompose_pins(24, weights, model, commits_to_history(commits), files)


@pytest.mark.parametrize("weights", sorted(w for n, w in DECOMPOSE_SHA256 if n == 160))
def test_decompose_outputs_are_byte_identical_at_160_entities(weights):
    _, _, model, history, files = _benchmark_model(6, 160, 8, 22)
    _check_decompose_pins(160, weights, model, history, files)
