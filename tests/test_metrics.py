"""Decomposition quality metric tests against hand-worked cases and naive oracles."""

import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monosplit import (
    DevelopmentHistory,
    MetricsError,
    Scorer,
    cohesion,
    combined_score,
    coupling,
    evaluate,
    load_access_model,
    run_sweep,
    tsr,
    uniform_complexity,
)
from monosplit import metrics
from monosplit.metrics import splitting_cost

import oracles
from synth import (
    commits_to_history,
    empty_history,
    history_maps,
    partition_masks,
    random_commits,
    random_partition,
    random_traces,
    to_model,
)


def _model(payload):
    return load_access_model(json.dumps(payload))


NO_HISTORY = empty_history()


def _scored(model, clusters, history=NO_HISTORY, files={}):
    """A fresh scorer and the table of one partition, given as clusters of entity names."""
    scorer = Scorer(model, history.entity_authors([files.get(e) for e in model.entities]))
    return scorer, scorer.table([partition_masks(model.entities, clusters)])


def _single(metric, scored):
    """The value a metric function gives the one partition of a table."""
    (value,) = metric(*scored).tolist()
    return value


def _complexity(model, clusters):
    """Splitting cost per functionality: the paper's complexity."""
    return _single(splitting_cost, _scored(model, clusters)) / len(model.functionalities)


def _metric(metric, model, clusters):
    return _single(metric, _scored(model, clusters))


def _max_cost(model):
    """C, the splitting cost of the all-singletons decomposition, as a scorer holds it."""
    return Scorer(model, NO_HISTORY.entity_authors([None] * len(model.entities))).max_cost


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
    assert _max_cost(_model({})) == 0


# ------------------------------------------------------------- max/uniform


def test_max_complexity_ignores_modes():
    # two accesses per functionality, each paying 1 for the other functionality
    assert _max_cost(CROSS_MODEL) == 4
    same_mode = _model({"f1": [["A", "R"], ["B", "R"]], "f2": [["B", "R"], ["A", "R"]]})
    assert _max_cost(same_mode) == 4


def test_max_complexity_zero_for_single_entity_traces():
    model = _model({"f1": [["A", "R"]], "f2": [["A", "W"], ["A", "R"]]})
    assert _max_cost(model) == 0
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


def test_cohesion_is_the_exact_mean_share_rounded_once():
    """22 touches of 8 functionalities over 6 entities: 11/24, whatever the functionalities' order.

    Summed share by share in this order, the mean would round to 0.45833333333333337.
    """
    entities = "ABCDEF"
    touched = {f"f{i}": entities[:count] for i, count in enumerate((1, 1, 1, 3, 3, 6, 2, 5))}
    traces = {name: [(entity, "R") for entity in members] for name, members in touched.items()}
    for order in (traces, dict(reversed(traces.items()))):
        assert _metric(cohesion, to_model(order), [list(entities)]) == 0.4583333333333333 == 11 / 24
        assert oracles.cohesion_measure([list(entities)], order) == 11 / 24


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
    return DevelopmentHistory.parse(
        oracles.history_json(
            {f: 1 for f in file_authors},
            {f: {} for f in file_authors},
            {f: frozenset(a) for f, a in file_authors.items()},
        )
    )


def _tsr(clusters, history, entity_files):
    """TSR of the clusters over a model whose one trace reads each of their members."""
    model = _model({"f": [[entity, "R"] for cluster in clusters for entity in cluster]})
    return _single(tsr, _scored(model, clusters, history, entity_files))


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


# ------------------------------------------------------------ batched terms


def _terms(scorer, mask):
    """A cluster's row of the scorer's tables, in the form `oracles.cluster_terms` returns."""
    (row,) = scorer.table([(mask,)])[:, 0].tolist()

    def bits(words):
        return int.from_bytes(words[:, row].tobytes(), "little")  # the mask's own bytes

    return (
        bits(scorer.members),
        int(scorer.sizes[row]),
        float(scorer.cohesions[row]),
        int(scorer.author_counts[row]),
        sum(1 << f for f in np.flatnonzero(scorer.touching[row]).tolist()),
        bits(scorer.reach),
    )


@pytest.mark.parametrize("n", [13, 64, 65, 160, 300])
def test_batched_terms_equal_the_former_per_member_loop(n):
    """One pass over many masks gives each the terms of the per-member loop, bit for bit.

    The sizes put the last entity on either side of a byte of the
    functionality bits and of a 64-bit word of the member and reach bits;
    nine authors take two bytes.  One functionality touches every entity but
    Z, so at 300 entities a count outgrows a byte.  No trace steps to Z, and
    one author changed no entity's file: each is an all-zero column of the
    scorer's incidence table.
    """
    rng = random.Random(f"batched/{n}")
    traces = random_traces(rng, n - 1, 11, max_extra=12)
    traces["f11"] = [(f"E{i:02d}", "W") for i in range(n - 1)]
    traces["f12"] = [("Z", "R")]  # no trace steps on from Z, nor to Z
    model = to_model(traces)
    z = model.entities.index("Z")
    assert not model.steps[z].any() and not model.steps[:, z].any()
    commits, files = random_commits(rng, model.entities, n_authors=9, extra_commits=2 * n)
    commits.append(("idle@example.com", {"docs/README.md"}))  # an author of no entity's file
    authors = commits_to_history(commits).entity_authors([files[e] for e in model.entities])
    assert not authors.any(axis=0).all()
    masks = [(1 << n) - 1, 1 << z] + [1 << rng.randrange(n) for _ in range(5)]
    for k in (2, 3, 7, 10):
        masks += partition_masks(model.entities, random_partition(rng, model.entities, k))
    masks += [rng.getrandbits(n) | 1 << rng.randrange(n) for _ in range(20)]
    scorer = Scorer(model, authors)
    scorer.table([(mask,) for mask in masks])  # every mask's terms in one pass
    for mask in masks:
        assert _terms(scorer, mask) == oracles.cluster_terms(model, authors, mask)


def test_batched_terms_without_authors_keep_the_tsr_error():
    rng = random.Random(13)
    model = to_model(random_traces(rng, 13, 4))
    authors = NO_HISTORY.entity_authors([None] * len(model.entities))
    scorer = Scorer(model, authors)
    partition = partition_masks(model.entities, random_partition(rng, model.entities, 3))
    scorer.table([partition])
    assert [_terms(scorer, m) for m in partition] == [
        oracles.cluster_terms(model, authors, m) for m in partition
    ]
    with pytest.raises(MetricsError, match=r"^history has no authors$"):
        evaluate(scorer, partition)


def test_a_failed_pass_leaves_no_rows_behind(monkeypatch):
    """Masks of a pass that raised get no rows, so later masks cannot take theirs."""
    rng = random.Random(3)
    model = to_model(random_traces(rng, 10))
    commits, files = random_commits(rng, model.entities)
    authors = commits_to_history(commits).entity_authors([files[e] for e in model.entities])
    a, b = (0b0000011111, 0b1111100000), (0b0101010101, 0b1010101010)
    scorer = Scorer(model, authors)

    class OutOfMemory:
        """Stands in for the incidence table: the product with the unpacked masks raises."""

        __array_ufunc__ = None  # so that `membership @ table` defers to __rmatmul__

        def __rmatmul__(self, membership):
            raise MemoryError

    with monkeypatch.context() as patch, pytest.raises(MemoryError):
        patch.setattr(scorer, "_incidence", OutOfMemory())
        evaluate(scorer, a)
    evaluate(scorer, b)
    assert [_terms(scorer, mask) for mask in a + b] == [
        oracles.cluster_terms(model, authors, mask) for mask in a + b
    ]
    assert evaluate(scorer, a) == evaluate(Scorer(model, authors), a)


# ------------------------------------------------------------------ combined


def test_combined_score_extremes_and_midpoint():
    assert combined_score(0.0, 1.0, 0.0, 0.0) == 0.0
    assert combined_score(1.0, 0.0, 1.0, 1.0) == 1.0
    assert combined_score(0.5, 0.75, 0.25, 0.5) == pytest.approx(0.375)


@pytest.mark.parametrize("form", [float, lambda value: np.array([value])], ids=["float", "array"])
@pytest.mark.parametrize("position", range(4))
@pytest.mark.parametrize("bad", [-0.1, 1.1, math.nan])
def test_combined_score_rejects_out_of_range(position, bad, form):
    values = [form(0.5)] * 4
    values[position] = form(bad)
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
    assert record.uniform_complexity == _single(uniform_complexity, scored)
    assert record.cohesion == _single(cohesion, scored)
    assert record.coupling == _single(coupling, scored)
    assert record.tsr == _single(tsr, scored)
    identity = 4 * record.combined - record.uniform_complexity
    identity -= record.coupling + record.tsr - record.cohesion
    assert identity == pytest.approx(1.0, abs=1e-12)


def test_evaluate_scores_through_the_module_level_metrics(monkeypatch):
    # the names benchmark/tracing.py wraps must be the ones the scoring pass calls:
    # once each per pass, with the table of all its partitions
    rng = random.Random(5)
    model = to_model(random_traces(rng, 5))
    commits, files = random_commits(rng, model.entities)
    history = commits_to_history(commits)
    scorer = Scorer(model, history.entity_authors([files[e] for e in model.entities]))
    partitions = [
        partition_masks(model.entities, random_partition(rng, model.entities, k)) for k in (1, 2, 3)
    ]
    stand_ins = {"uniform_complexity": 0.25, "cohesion": 0.5, "coupling": 0.125, "tsr": 0.75}
    calls = []
    for name, value in stand_ins.items():
        def stand_in(got_scorer, clusters, name=name, value=value):
            calls.append((name, got_scorer, clusters))
            return np.full(clusters.shape[1], value)

        monkeypatch.setattr(metrics, name, stand_in)
    scorer.memoize(partitions)
    table = scorer.table(partitions)
    assert [(name, got_scorer) for name, got_scorer, _ in calls] == [
        (name, scorer) for name in stand_ins
    ]
    assert all(np.array_equal(clusters, table) for _, _, clusters in calls)
    for partition in partitions:
        record = evaluate(scorer, partition)
        assert (record.uniform_complexity, record.cohesion, record.coupling, record.tsr) == tuple(
            stand_ins.values()
        )
        assert record.combined == combined_score(*stand_ins.values())
    assert len(calls) == len(stand_ins)  # evaluate read the records: no second pass


@pytest.mark.parametrize("parallelism", [1, 2])
def test_a_metric_out_of_range_fails_the_pass(monkeypatch, parallelism):
    """Every metric lies in [0, 1] by construction: one outside it is a fault, not a dropped row."""
    rng = random.Random(7)
    model = to_model(random_traces(rng, 6))
    commits, files = random_commits(rng, model.entities)
    history = commits_to_history(commits)
    authors = history.entity_authors([files[e] for e in model.entities])
    partitions = [
        partition_masks(model.entities, random_partition(rng, model.entities, k)) for k in (1, 2, 3)
    ]
    real_coupling = metrics.coupling

    def skewed_coupling(scorer, clusters):
        values = real_coupling(scorer, clusters)
        values[-1] = 1.5  # the last partition of each pass
        return values

    monkeypatch.setattr(metrics, "coupling", skewed_coupling)
    scorer = Scorer(model, authors)
    with pytest.raises(MetricsError, match=r"^coupling out of range: 1\.5 \(partition 3 of 3\)$"):
        scorer.memoize(partitions)
    assert scorer.records == {}
    with pytest.raises(MetricsError, match=r"^coupling out of range: 1\.5 \(partition 1 of 1\)$"):
        evaluate(Scorer(model, authors), partitions[0])
    with pytest.raises(MetricsError, match=r"^coupling out of range: "):
        run_sweep(model, history, files, "demo", step=50, parallelism=parallelism)


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
        assert _max_cost(model) == oracles.max_complexity_total(traces)
        assert _single(uniform_complexity, scored) == oracles.uniform_complexity_measure(
            clusters, traces
        )
        assert _single(cohesion, scored) == oracles.cohesion_measure(clusters, traces)
        assert _single(coupling, scored) == oracles.coupling_measure(clusters, traces)
        file_authors = history_maps(history)[2]
        assert _single(tsr, scored) == oracles.tsr_measure(clusters, files, file_authors)


# ------------------------------------------------------------------- referee


@st.composite
def scoring_cases(draw):
    """A random model, its entity x author incidence and partitions of every shape.

    The partitions are random ones of 1 to 10 clusters in random order, the
    singletons (k = n) and the whole set.  Some histories have no authors,
    and some models touch one entity per functionality, so that their
    ceiling is 0.  Up to 70 entities take two 64-bit words of member bits.
    """
    rng = random.Random(draw(st.integers(0, 2**32)))
    n = draw(st.integers(1, 70))
    kind = draw(st.sampled_from(["random", "no authors", "zero ceiling"]))
    if kind == "zero ceiling":
        traces = {
            f"f{i:02d}": [(f"E{i:02d}", rng.choice("RW")) for _ in range(rng.randint(1, 3))]
            for i in range(n)
        }
    else:
        traces = random_traces(rng, n, rng.randint(1, 12), max_extra=rng.randint(0, 12))
    model = to_model(traces)
    entities = model.entities
    if kind == "no authors":
        authors = NO_HISTORY.entity_authors([None] * n)
    else:
        commits, files = random_commits(rng, entities, n_authors=rng.randint(1, 9))
        authors = commits_to_history(commits).entity_authors([files[e] for e in entities])
    partitions = [
        partition_masks(entities, random_partition(rng, entities, rng.randint(1, min(10, n))))
        for _ in range(6)
    ]
    partitions += [
        partition_masks(entities, [[e] for e in entities]),
        partition_masks(entities, [entities]),
    ]
    return kind, model, authors, partitions


@settings(max_examples=150, deadline=None)
@given(scoring_cases())
def test_one_pass_gives_the_former_scoring_bit_for_bit(case):
    """All partitions in one pass, or one pass each, score as the former per-partition code did."""
    kind, model, authors, partitions = case
    want = [oracles.evaluate(model, authors, partition) for partition in partitions]
    together = Scorer(model, authors)
    one_by_one = Scorer(model, authors)
    if kind == "no authors":
        # the former code's answer was this message for each partition; now the pass raises it
        assert set(want) == {"history has no authors"}
        with pytest.raises(MetricsError, match=r"^history has no authors$"):
            together.memoize(partitions)
        for partition in partitions:
            with pytest.raises(MetricsError, match=r"^history has no authors$"):
                one_by_one.memoize([partition])
        assert together.records == one_by_one.records == {}
        return
    together.memoize(partitions)
    for partition in partitions:
        one_by_one.memoize([partition])
    for scorer in (together, one_by_one):
        assert [tuple(scorer.records[partition]) for partition in partitions] == want
    if kind == "zero ceiling":
        assert together.max_cost == 0
        assert {values[0] for values in want} == {0.0}


@pytest.mark.parametrize("size", [1, 2, 3])
@pytest.mark.parametrize("seed", range(3))
def test_a_pass_split_into_chunks_keeps_every_bit(monkeypatch, seed, size):
    """Chunks of 1-3 partitions of differing k score as one chunk does, bit for bit."""
    rng = random.Random(300 + seed)
    model = to_model(random_traces(rng, 12, 5))
    entities = model.entities
    commits, files = random_commits(rng, entities)
    authors = commits_to_history(commits).entity_authors([files[e] for e in entities])
    partitions = [
        partition_masks(entities, random_partition(rng, entities, k))
        for k in rng.sample(range(1, len(entities) + 1), len(entities))
    ]
    one_chunk = Scorer(model, authors)
    one_chunk.memoize(partitions)
    # the pass's bytes per partition at the largest k, as `memoize` counts them
    k = max(map(len, partitions))
    monkeypatch.setattr(
        metrics, "_CHUNK_BYTES", size * (17 * k * k + (k + 32) * len(model.functionalities))
    )
    widths = []
    real_score = metrics._score

    def spy_score(scorer, clusters):
        widths.append(clusters.shape[1])
        return real_score(scorer, clusters)

    monkeypatch.setattr(metrics, "_score", spy_score)
    chunked = Scorer(model, authors)
    chunked.memoize(partitions)
    full, rest = divmod(len(partitions), size)
    assert widths == [size] * full + [rest] * (rest > 0)
    bits = [
        np.array([scorer.records[partition] for partition in partitions]).view(np.uint64)
        for scorer in (one_chunk, chunked)
    ]
    assert np.array_equal(*bits)
