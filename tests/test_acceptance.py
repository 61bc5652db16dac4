"""Acceptance gate: the eight headline guarantees, one verdict line each.

Each test prints `[PASS]`/`[FAIL] acceptance N: ...` through the captured-output
escape hatch so the verdict is visible in any pytest run, then asserts.
"""

import json
import random
import time

import numpy as np
import pytest

from monosplit import (
    CodebaseStats,
    Scorer,
    classify_group,
    cohesion,
    coupling,
    enumerate_weights,
    evaluate,
    mine_history,
    run_sweep,
    size_split,
    tsr,
    uniform_complexity,
    welch_test,
)
from monosplit.cli import main
from monosplit.metrics import splitting_cost
from monosplit.similarity import MEASURE_NAMES, measure_matrices

import oracles
from conftest import log_fixture
from synth import (
    commits_to_history,
    history_maps,
    partition_masks,
    random_commits,
    random_partition,
    random_traces,
    to_model,
)
from test_history import (
    EXPECTED_BULK,
    EXPECTED_BUNDLING,
    EXPECTED_RENAME_CHAIN,
    EXPECTED_RESURRECTION,
)


def _verdict(capsys, number, label, failures):
    status = "PASS" if not failures else "FAIL"
    with capsys.disabled():
        print(f"[{status}] acceptance {number}: {label}")
    assert not failures, f"acceptance {number}: " + "; ".join(failures)


def test_acceptance_1_weight_grid_census(capsys):
    failures = []
    started = time.perf_counter()
    vectors = enumerate_weights(10)
    census = {}
    for weights in vectors:
        group = classify_group(weights)
        census[group] = census.get(group, 0) + 1
    elapsed = time.perf_counter() - started
    if len(vectors) != 3003:
        failures.append(f"grid size {len(vectors)} != 3003")
    history_family = (
        census.get("FILES_ONLY", 0)
        + census.get("AUTHORSHIP_ONLY", 0)
        + census.get("HISTORY", 0)
    )
    if census.get("SEQUENCES_ONLY", 0) != 286:
        failures.append(f"sequences-only {census.get('SEQUENCES_ONLY')} != 286")
    if history_family != 11:
        failures.append(f"history family {history_family} != 11")
    if census.get("COMBINED", 0) != 2706:
        failures.append(f"combined {census.get('COMBINED')} != 2706")
    for share, target in (
        (100 * census.get("SEQUENCES_ONLY", 0) / len(vectors), 9.52),
        (100 * history_family / len(vectors), 0.37),
        (100 * census.get("COMBINED", 0) / len(vectors), 90.11),
    ):
        if abs(share - target) > 0.01:
            failures.append(f"share {share:.4f} deviates from {target} by >0.01pp")
    if elapsed >= 1.0:
        failures.append(f"census took {elapsed:.2f}s (budget 1s)")
    _verdict(capsys, 1, "3003-vector grid splits 286/11/2706 (9.52/0.37/90.11%) in <1s", failures)


def test_acceptance_2_sweep_cardinality(capsys):
    failures = []
    started = time.perf_counter()
    for n_entities, expected_rows in ((5, 3003), (15, 9009), (25, 24024)):
        rng = random.Random(n_entities)
        traces = random_traces(rng, n_entities)
        model = to_model(traces)
        commits, files = random_commits(rng, model.entities)
        history = commits_to_history(commits)
        rows, dropped = run_sweep(model, history, files, f"synevery{n_entities}")
        if dropped:
            failures.append(f"{n_entities} entities: {dropped} dropped rows")
        if len(rows) != expected_rows:
            failures.append(f"{n_entities} entities: {len(rows)} rows != {expected_rows}")
    elapsed = time.perf_counter() - started
    if elapsed >= 300.0:
        failures.append(f"sweeps took {elapsed:.1f}s (budget 300s)")
    _verdict(capsys, 2, "5/15/25-entity sweeps emit 3003/9009/24024 rows in <5min", failures)


def test_acceptance_3_metric_properties(capsys):
    failures = []
    for seed in range(200):
        rng = random.Random(seed)
        traces = random_traces(rng, rng.randint(2, 10))
        model = to_model(traces)
        commits, files = random_commits(rng, model.entities)
        history = commits_to_history(commits)
        n = len(model.entities)
        for k in range(1, n + 1):
            partition = partition_masks(model.entities, random_partition(rng, model.entities, k))
            scorer = Scorer(model, history.entity_authors([files[e] for e in model.entities]))
            record = evaluate(scorer, partition)
            values = (
                record.uniform_complexity,
                record.cohesion,
                record.coupling,
                record.tsr,
                record.combined,
            )
            if not all(0.0 <= v <= 1.0 for v in values):
                failures.append(f"seed {seed} k={k}: metric out of range {values}")
            if k == 1 and (
                splitting_cost(scorer, scorer.table([partition])).tolist() != [0]
                or record.coupling != 0.0
            ):
                failures.append(f"seed {seed}: single cluster not free of splitting cost")
            if k == n and record.cohesion != 1.0:
                failures.append(f"seed {seed}: singleton cohesion {record.cohesion} != 1")
            identity = (
                4 * record.combined
                - record.uniform_complexity
                - record.coupling
                - record.tsr
                + record.cohesion
            )
            if abs(identity - 1.0) > 1e-12:
                failures.append(f"seed {seed} k={k}: combined identity off by {identity - 1.0}")
            if failures:
                break
        if failures:
            break
    _verdict(capsys, 3, "200 random models: ranges, boundary cases, combined identity", failures)


def test_acceptance_4_oracle_equivalence(capsys):
    failures = []
    oracle_modes = {"access": "ANY", "read": "R", "write": "W"}
    for seed in range(30):
        rng = random.Random(10_000 + seed)
        traces = random_traces(rng, rng.randint(2, 6), rng.randint(2, 4))
        model = to_model(traces)
        commits, files = random_commits(rng, model.entities)
        history = commits_to_history(commits)
        stack = measure_matrices(model, history, files)
        entities = model.entities
        for name, matrix in zip(MEASURE_NAMES, stack):
            for i, a in enumerate(entities):
                for j, b in enumerate(entities):
                    if name in oracle_modes:
                        want = oracles.access_measure(traces, a, b, oracle_modes[name])
                    elif name == "sequence":
                        want = oracles.sequence_measure(traces, a, b)
                    elif name == "commit":
                        want = oracles.commit_measure(commits, files[a], files[b])
                    else:
                        want = oracles.author_measure(commits, files[a], files[b])
                    got = float(matrix[i, j])
                    if abs(got - want) > 1e-12:
                        failures.append(
                            f"seed {seed} {name}({a},{b}) = {got} != oracle {want}"
                        )
        for k in range(1, len(entities) + 1):
            clusters = sorted(random_partition(rng, entities, k))
            scorer = Scorer(model, history.entity_authors([files[e] for e in model.entities]))
            table = scorer.table([partition_masks(entities, clusters)])
            file_authors = history_maps(history)[2]
            (cost,) = splitting_cost(scorer, table).tolist()
            (uniform,), (cohesion_value,), (coupling_value,), (tsr_value,) = (
                metric(scorer, table).tolist()
                for metric in (uniform_complexity, cohesion, coupling, tsr)
            )
            checks = (
                ("complexity", cost / len(model.functionalities),
                 oracles.complexity_measure(clusters, traces)),
                ("max_cost", scorer.max_cost, oracles.max_complexity_total(traces)),
                ("uniform", uniform,
                 oracles.uniform_complexity_measure(clusters, traces)),
                ("cohesion", cohesion_value,
                 oracles.cohesion_measure(clusters, traces)),
                ("coupling", coupling_value,
                 oracles.coupling_measure(clusters, traces)),
                ("tsr", tsr_value,
                 oracles.tsr_measure(clusters, files, file_authors)),
            )
            for label, got, want in checks:
                if abs(got - want) > 1e-12:
                    failures.append(f"seed {seed} k={k} {label}: {got} != oracle {want}")
        if failures:
            break
    _verdict(capsys, 4, "brute-force oracles agree on all measures and metrics to 1e-12", failures)


def test_acceptance_5_mining_fixtures(capsys):
    failures = []
    cases = (
        ("rename_chain.log", EXPECTED_RENAME_CHAIN),
        ("resurrection.log", EXPECTED_RESURRECTION),
        ("bulk_commit.log", EXPECTED_BULK),
        ("bundling.log", EXPECTED_BUNDLING),
    )
    for name, expected in cases:
        text = log_fixture(name)
        first = mine_history(text)
        if json.loads(first.serialize()) != expected:
            failures.append(f"{name}: representation differs from hand derivation")
        if first.serialize() != mine_history(text).serialize():
            failures.append(f"{name}: serialization not reproducible")
    _verdict(capsys, 5, "four mining fixture logs match hand-derived JSON byte-stably", failures)


def test_acceptance_6_welch_reference_and_antisymmetry(capsys):
    failures = []
    reference = welch_test([1, 2, 3, 4, 5], [2, 3, 4, 5, 6])
    if abs(reference.t_statistic - (-1.0)) > 1e-9:
        failures.append(f"t {reference.t_statistic} != -1")
    if abs(reference.degrees_of_freedom - 8.0) > 1e-9:
        failures.append(f"df {reference.degrees_of_freedom} != 8")
    if abs(reference.p_value - 0.8267) > 5e-4:
        failures.append(f"p {reference.p_value} != 0.8267 +/- 5e-4")
    rng = random.Random(77)
    for trial in range(100):
        a = [rng.gauss(0, 1) for _ in range(rng.randint(2, 12))]
        b = [rng.gauss(rng.uniform(-1, 1), 1.5) for _ in range(rng.randint(2, 12))]
        forward = welch_test(a, b)
        backward = welch_test(b, a)
        if abs(forward.t_statistic + backward.t_statistic) > 1e-12 * max(
            1.0, abs(forward.t_statistic)
        ):
            failures.append(f"trial {trial}: t not antisymmetric")
            break
        if abs(forward.p_value + backward.p_value - 1.0) > 1e-9:
            failures.append(f"trial {trial}: one-sided p values do not sum to 1")
            break
    _verdict(capsys, 6, "Welch reference t=-1 df=8 p=0.8267 and 100-pair antisymmetry", failures)


def test_acceptance_7_size_threshold_from_published_moments(capsys):
    failures = []
    mean, std = 3080.8, 7604.5
    # two-point cohort {mean-std, mean+std} has exactly these population moments
    cohort = [
        CodebaseStats("low", mean - std, 1.0),
        CodebaseStats("high", mean + std, 1.0),
    ]
    split = size_split(cohort)
    if abs(split.commit_threshold - 10685.3) > 0.1:
        failures.append(f"threshold {split.commit_threshold} != 10685.3 +/- 0.1")
    _verdict(capsys, 7, "cohort moments (3080.8, 7604.5) give commit threshold 10685.3", failures)


def test_acceptance_8_pipeline_determinism(capsys, fixture_repo, tmp_path, accesses_path):
    failures = []
    artifacts = {}
    for attempt in ("one", "two"):
        workdir = tmp_path / attempt
        workdir.mkdir()
        history = workdir / "history.json"
        results = workdir / "results.csv"
        report = workdir / "report.json"
        codes = [
            main(["mine", str(fixture_repo), "--out", str(history)]),
            main(
                [
                    "sweep",
                    "--history", str(history),
                    "--accesses", str(accesses_path),
                    "--codebase", "shop",
                    "--out", str(results),
                ]
            ),
            main(
                [
                    "analyze", str(results),
                    "--groups",
                    "--best", "combined",
                    "--out", str(report),
                ]
            ),
        ]
        if codes != [0, 0, 0]:
            failures.append(f"attempt {attempt}: exit codes {codes}")
            break
        artifacts[attempt] = (
            history.read_bytes(),
            results.read_bytes(),
            report.read_bytes(),
        )
    if not failures and artifacts["one"] != artifacts["two"]:
        for index, label in enumerate(("history.json", "results.csv", "report.json")):
            if artifacts["one"][index] != artifacts["two"][index]:
                failures.append(f"{label} differs between runs")
    _verdict(capsys, 8, "mine->sweep->analyze twice yields byte-identical artifacts", failures)
