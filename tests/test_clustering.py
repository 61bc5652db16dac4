"""Average-linkage clustering and decomposition container tests."""

import itertools
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.cluster.hierarchy import fcluster, linkage
from scipy.spatial.distance import squareform

from monosplit import (
    ClusteringError,
    Decomposition,
    Weights,
    agglomerate,
    cut,
    enumerate_weights,
    to_dissimilarity,
)
from monosplit.clustering import agglomerate_stack, cuts, members
from monosplit.similarity import blend, measure_matrices

from oracles import scan_upgma, upgma_merges
from synth import commits_to_history, random_commits, random_traces, to_model


def _square(values):
    return np.array(values, dtype=float)


def _random_symmetric(rng, n, distinct=False):
    matrix = np.zeros((n, n))
    pool = None
    if distinct:
        pool = rng.sample(range(1, 10_000), n * (n - 1) // 2)
    k = 0
    for i in range(n):
        for j in range(i + 1, n):
            value = pool[k] / 10_000 if distinct else rng.random()
            matrix[i, j] = matrix[j, i] = value
            k += 1
    return matrix


# ---------------------------------------------------------------- dissimilarity


def test_to_dissimilarity_symmetrizes_and_flips():
    dissimilarity = to_dissimilarity(_square([[1.0, 0.4], [0.2, 1.0]]))
    # mean of 0.4 and 0.2 is 0.3, flipped to 0.7
    assert dissimilarity[0, 1] == pytest.approx(0.7)
    assert dissimilarity[1, 0] == pytest.approx(0.7)
    assert dissimilarity[0, 0] == 0.0
    assert dissimilarity[1, 1] == 0.0


def test_to_dissimilarity_is_symmetric_for_any_input():
    rng = random.Random(7)
    values = np.array([[rng.random() for _ in range(5)] for _ in range(5)])
    dissimilarity = to_dissimilarity(values)
    assert np.array_equal(dissimilarity, dissimilarity.T)
    assert np.all(np.diag(dissimilarity) == 0.0)


def _merge_triples(dendrogram):
    return list(zip(dendrogram.left, dendrogram.right, dendrogram.height))


def _names(partition, entities):
    """A partition of member masks as clusters of entity names, in mask order."""
    return tuple(tuple(entities[i] for i in members(mask)) for mask in partition)


# ---------------------------------------------------------------- agglomerate


def test_two_pair_merge_sequence():
    # one close pair, everything else far: A+B first, then C+D, then the two pairs
    matrix = np.full((4, 4), 0.9)
    np.fill_diagonal(matrix, 0.0)
    matrix[0, 1] = matrix[1, 0] = 0.1
    dendrogram = agglomerate(matrix)
    assert dendrogram.n_leaves == 4
    assert _merge_triples(dendrogram) == [(0, 1, 0.1), (2, 3, 0.9), (4, 5, 0.9)]


def test_all_ties_merge_smallest_ids_first():
    matrix = np.full((6, 6), 0.5)
    np.fill_diagonal(matrix, 0.0)
    dendrogram = agglomerate(matrix)
    pairs = list(zip(dendrogram.left, dendrogram.right))
    assert pairs == [(0, 1), (2, 3), (4, 5), (6, 7), (8, 9)]
    assert all(height == 0.5 for height in dendrogram.height)


def test_single_leaf_dendrogram():
    dendrogram = agglomerate(np.zeros((1, 1)))
    assert dendrogram.n_leaves == 1
    assert _merge_triples(dendrogram) == []
    assert cut(dendrogram, 1, ["only"]) == (("only",),)


def test_average_linkage_height_uses_cluster_sizes():
    # after merging 0+1, distance to 2 is the plain mean of the original entries
    matrix = _square(
        [
            [0.0, 0.1, 0.4, 0.9],
            [0.1, 0.0, 0.6, 0.9],
            [0.4, 0.6, 0.0, 0.9],
            [0.9, 0.9, 0.9, 0.0],
        ]
    )
    dendrogram = agglomerate(matrix)
    assert _merge_triples(dendrogram)[0] == (0, 1, 0.1)
    assert dendrogram.left[1] == 2
    assert dendrogram.right[1] == 4
    assert dendrogram.height[1] == pytest.approx(0.5)  # mean of 0.4 and 0.6
    assert dendrogram.height[2] == pytest.approx(0.9)


@pytest.mark.parametrize(
    "matrix, message",
    [
        (np.zeros((2, 3)), "square"),
        (np.zeros((0, 0)), "empty"),
        (_square([[0.0, 0.2], [0.3, 0.0]]), "symmetric"),
        (_square([[0.5, 0.2], [0.2, 0.0]]), "diagonal"),
        (_square([[0.0, np.inf], [np.inf, 0.0]]), "finite"),
        (_square([[0.0, np.nan], [np.nan, 0.0]]), "finite"),
        (_square([[0.0, 0.5, np.inf], [0.5, 0.0, np.inf], [np.inf, np.inf, 0.0]]), "finite"),
    ],
)
def test_agglomerate_rejects_bad_input(matrix, message):
    with pytest.raises(ClusteringError, match=message):
        agglomerate(matrix)


def test_agglomerate_is_deterministic():
    rng = random.Random(11)
    matrix = _random_symmetric(rng, 8)
    first = agglomerate(matrix)
    second = agglomerate(matrix)
    assert first == second


@pytest.mark.parametrize("seed", range(6))
def test_merges_match_direct_average_oracle(seed):
    rng = random.Random(seed)
    matrix = _random_symmetric(rng, rng.randint(2, 9), distinct=True)
    dendrogram = agglomerate(matrix)
    expected = upgma_merges(matrix.tolist())
    assert list(zip(dendrogram.left, dendrogram.right)) == [(a, b) for a, b, _ in expected]
    for got, (_, _, height) in zip(dendrogram.height, expected):
        assert got == pytest.approx(height, abs=1e-12)


@pytest.mark.parametrize("seed", range(6))
def test_tie_breaking_matches_oracle_on_coarse_values(seed):
    # values from a 4-step grid force frequent ties; both sides must break them alike
    rng = random.Random(100 + seed)
    n = rng.randint(3, 6)
    matrix = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            matrix[i, j] = matrix[j, i] = rng.choice([0.25, 0.5, 0.75, 1.0])
    dendrogram = agglomerate(matrix)
    expected = upgma_merges(matrix.tolist())
    assert list(zip(dendrogram.left, dendrogram.right)) == [(a, b) for a, b, _ in expected]


@pytest.mark.parametrize("seed", range(4))
def test_relabeling_entities_relabels_clusters(seed):
    # with all-distinct distances the cluster structure ignores input order
    rng = random.Random(200 + seed)
    n = rng.randint(3, 8)
    matrix = _random_symmetric(rng, n, distinct=True)
    entities = [f"E{i}" for i in range(n)]
    order = list(range(n))
    rng.shuffle(order)
    permuted = matrix[np.ix_(order, order)]
    permuted_entities = [entities[i] for i in order]
    for k in range(1, n + 1):
        original = cut(agglomerate(matrix), k, entities)
        shuffled = cut(agglomerate(permuted), k, permuted_entities)
        assert original == shuffled


@pytest.mark.parametrize("seed", range(4))
def test_against_scipy_average_linkage(seed):
    rng = random.Random(300 + seed)
    n = rng.randint(3, 10)
    matrix = _random_symmetric(rng, n, distinct=True)
    dendrogram = agglomerate(matrix)
    reference = linkage(squareform(matrix), method="average")
    for (left, right, height), row in zip(_merge_triples(dendrogram), reference):
        assert height == pytest.approx(float(row[2]), abs=1e-12)
        assert {left, right} == {int(row[0]), int(row[1])}
    entities = [f"E{i}" for i in range(n)]
    for k in range(1, n + 1):
        labels = fcluster(reference, t=k, criterion="maxclust")
        expected = {}
        for entity, label in zip(entities, labels):
            expected.setdefault(label, []).append(entity)
        canonical = tuple(sorted(tuple(sorted(group)) for group in expected.values()))
        assert cut(dendrogram, k, entities) == canonical


# ------------------------------------------------- slot kernel against full scan


@st.composite
def tie_heavy_matrices(draw):
    """A symmetric n x n matrix, n in 1..40, with entries in quarters or in thirds."""
    n = draw(st.integers(1, 40))
    levels = draw(st.sampled_from([3, 4]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    upper = np.triu(rng.integers(0, levels + 1, size=(n, n)) / levels, 1)
    return upper + upper.T


@settings(deadline=None, max_examples=200)
@given(tie_heavy_matrices())
def test_slot_kernel_matches_full_scan_bit_for_bit(matrix):
    assert _merge_triples(agglomerate(matrix)) == scan_upgma(matrix)


def test_slot_kernel_matches_full_scan_on_step_20_grid():
    rng = random.Random(25)
    model = to_model(random_traces(rng, 25, 10, max_extra=12))
    commits, files = random_commits(rng, model.entities, extra_commits=4 * 25)
    stack = measure_matrices(model, commits_to_history(commits), files, include_history=True)
    mismatched = []
    for weights in enumerate_weights(20):
        matrix = to_dissimilarity(blend(stack, weights))
        if _merge_triples(agglomerate(matrix)) != scan_upgma(matrix):
            mismatched.append(weights.as_tuple())
    assert mismatched == []


# ---------------------------------------------------------------------- cut


@pytest.fixture()
def pair_dendrogram():
    matrix = np.full((4, 4), 0.9)
    np.fill_diagonal(matrix, 0.0)
    matrix[0, 1] = matrix[1, 0] = 0.1
    return agglomerate(matrix)


def test_cut_levels(pair_dendrogram):
    entities = ["A", "B", "C", "D"]
    assert cut(pair_dendrogram, 4, entities) == (("A",), ("B",), ("C",), ("D",))
    assert cut(pair_dendrogram, 3, entities) == (("A", "B"), ("C",), ("D",))
    assert cut(pair_dendrogram, 2, entities) == (("A", "B"), ("C", "D"))
    assert cut(pair_dendrogram, 1, entities) == (("A", "B", "C", "D"),)


def test_cut_canonicalizes_names_in_any_leaf_order(pair_dendrogram):
    # `decompose` writes these tuples as they come: members sorted, clusters sorted
    entities = ["d", "c", "b", "a"]
    assert cut(pair_dendrogram, 3, entities) == (("a",), ("b",), ("c", "d"))
    assert cut(pair_dendrogram, 2, entities) == (("a", "b"), ("c", "d"))


def test_cut_rejects_wrong_entity_count(pair_dendrogram):
    with pytest.raises(ClusteringError, match="expected 4 entities"):
        cut(pair_dendrogram, 2, ["A", "B", "C"])


@pytest.mark.parametrize("n_clusters", [0, 5, -1])
def test_cut_rejects_bad_cluster_count(pair_dendrogram, n_clusters):
    with pytest.raises(ClusteringError, match="cannot cut"):
        cut(pair_dendrogram, n_clusters, ["A", "B", "C", "D"])


@st.composite
def dissimilarity_matrices(draw):
    n = draw(st.integers(2, 7))
    count = n * (n - 1) // 2
    tri = draw(
        st.lists(
            st.floats(0.0, 1.0, allow_nan=False, allow_infinity=False),
            min_size=count,
            max_size=count,
        )
    )
    matrix = np.zeros((n, n))
    k = 0
    for i in range(n):
        for j in range(i + 1, n):
            matrix[i, j] = matrix[j, i] = tri[k]
            k += 1
    return matrix


@settings(deadline=None, max_examples=60)
@given(dissimilarity_matrices())
def test_heights_never_decrease(matrix):
    dendrogram = agglomerate(matrix)
    heights = dendrogram.height
    for earlier, later in zip(heights, heights[1:]):
        assert later >= earlier - 1e-12


@settings(deadline=None, max_examples=60)
@given(dissimilarity_matrices())
def test_every_cut_is_a_partition_and_cuts_nest(matrix):
    n = matrix.shape[0]
    entities = [f"E{i}" for i in range(n)]
    dendrogram = agglomerate(matrix)
    every = cuts(dendrogram, range(1, n + 1))
    previous = None
    for k in range(n, 0, -1):
        clusters = cut(dendrogram, k, entities)
        assert _names(every[k], entities) == clusters
        assert len(clusters) == k
        flattened = sorted(itertools.chain.from_iterable(clusters))
        assert flattened == sorted(entities)
        if previous is not None:
            # moving from k+1 to k clusters only ever fuses clusters
            fine = {frozenset(c) for c in previous}
            for coarse in clusters:
                merged = set(coarse)
                parts = [c for c in fine if c <= merged]
                assert set().union(*parts) == merged
        previous = clusters


# ------------------------------------------------------------ stacked UPGMA


@st.composite
def tie_heavy_stacks(draw):
    """1 to 6 symmetric n x n matrices, n in 1..30, entries on a grid of 2, 4 or 8 steps.

    On these the update rule and the oracle's plain mean of the original
    entries can round apart and so break ties differently; the oracle is
    compared on ultrametrics below, where both are exact.
    """
    n = draw(st.integers(1, 30))
    count = draw(st.integers(1, 6))
    levels = draw(st.sampled_from([2, 4, 8]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    upper = np.triu(rng.integers(0, levels + 1, size=(count, n, n)) / levels, 1)
    return upper + upper.transpose(0, 2, 1)


@st.composite
def quantised_ultrametric_stacks(draw):
    """1 to 6 ultrametrics over n in 1..30 leaves, with heights on a quarter grid.

    Every cluster pair UPGMA compares then averages equal entries, so the
    update rule and the oracle's plain mean are both exact and must agree
    bit for bit, ties included.
    """
    n = draw(st.integers(1, 30))
    count = draw(st.integers(1, 6))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    stack = np.zeros((count, n, n))
    for matrix in stack:
        groups = [([i], 0.0) for i in range(n)]
        while len(groups) > 1:
            a, b = sorted(rng.sample(range(len(groups)), 2))
            (members_b, height_b), (members_a, height_a) = groups.pop(b), groups.pop(a)
            height = max(height_a, height_b) + rng.choice([0.0, 0.0, 0.25, 0.5])
            matrix[np.ix_(members_a, members_b)] = height
            matrix[np.ix_(members_b, members_a)] = height
            groups.append((members_a + members_b, height))
    return stack




@settings(deadline=None, max_examples=150)
@given(tie_heavy_stacks())
def test_stacked_upgma_matches_agglomerate_bit_for_bit(stack):
    dendrograms = agglomerate_stack(stack.copy())
    assert len(dendrograms) == len(stack)
    for matrix, dendrogram in zip(stack, dendrograms):
        assert dendrogram == agglomerate(matrix)


@settings(deadline=None, max_examples=100)
@given(tie_heavy_stacks())
def test_cut_masks_match_sorted_names(stack):
    """Over sorted leaves, each mask partition names the clusters `cut` returns, in its order."""
    n = stack.shape[1]
    entities = [f"E{i:02d}" for i in range(n)]
    scanned = [agglomerate(matrix) for matrix in stack]
    for dendrogram in scanned + agglomerate_stack(stack.copy()):
        every = cuts(dendrogram, range(1, n + 1))
        assert sorted(every) == list(range(1, n + 1))
        for k, partition in every.items():
            assert _names(partition, entities) == cut(dendrogram, k, entities)


@settings(deadline=None, max_examples=150)
@given(quantised_ultrametric_stacks())
def test_stacked_upgma_matches_agglomerate_and_oracle_on_ultrametrics(stack):
    for matrix, dendrogram in zip(stack, agglomerate_stack(stack.copy())):
        assert dendrogram == agglomerate(matrix)
        assert _merge_triples(dendrogram) == [tuple(m) for m in upgma_merges(matrix.tolist())]


def test_stacked_upgma_rescans_the_merged_row():
    """The smallest matrix found where the merged row's cached slot is not its partner.

    After 0 and 1 merge into cluster 4, row 2 caches cluster 4's slot at 0.25,
    but pairs with cluster 3, the smallest id at that distance; its merged row
    must be scanned again, or cluster 5 keeps 0.25 to cluster 4, not 0.3125.
    """
    matrix = np.array(
        [[0, 0.25, 0.25, 0.25], [0.25, 0, 0.25, 0.5], [0.25, 0.25, 0, 0.25], [0.25, 0.5, 0.25, 0]]
    )
    graded = np.array([[0, 0.5, 0.75, 1], [0.5, 0, 0.25, 0.75], [0.75, 0.25, 0, 0.5], [1, 0.75, 0.5, 0]])
    level = 1 - np.eye(4)
    for stack in (matrix[None], np.stack([graded, matrix, level])):
        for one, dendrogram in zip(stack, agglomerate_stack(stack.copy())):
            assert dendrogram == agglomerate(one)
    assert agglomerate(matrix).height == (0.25, 0.25, 0.3125)


@pytest.mark.parametrize("shape", [(2, 3, 4), (3, 3), (2, 0, 0)])
def test_agglomerate_stack_rejects_bad_shape(shape):
    with pytest.raises(ClusteringError, match="stack"):
        agglomerate_stack(np.zeros(shape))


# -------------------------------------------------------------- decomposition


def test_serialize_layout():
    decomposition = Decomposition("shop", (("a", "b"), ("c",)), Weights(100, 0, 0, 0, 0, 0))
    assert decomposition.serialize() == (
        "{\n"
        '  "clusters": [\n'
        '    [\n      "a",\n      "b"\n    ],\n'
        '    [\n      "c"\n    ]\n'
        "  ],\n"
        '  "codebase": "shop",\n'
        '  "nClusters": 2,\n'
        '  "weights": [\n    100,\n    0,\n    0,\n    0,\n    0,\n    0\n  ]\n'
        "}\n"
    )


def test_serialize_parse_round_trip():
    for weights in (Weights(0, 0, 0, 40, 30, 30), None):
        decomposition = Decomposition("shop", (("a", "b"), ("c",)), weights)
        raw = json.loads(decomposition.serialize())
        assert raw["nClusters"] == decomposition.n_clusters
        again = Decomposition(
            raw["codebase"],
            tuple(map(tuple, raw["clusters"])),
            Weights(*raw["weights"]) if raw["weights"] else None,
        )
        assert again == decomposition
