"""Average-linkage agglomerative clustering of entities over a blended similarity matrix."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .similarity import Weights


class ClusteringError(ValueError):
    """Invalid clustering input."""


@dataclass(frozen=True)
class Dendrogram:
    """Full merge history as three merge arrays, one entry per merge.

    Leaves are 0..n_leaves-1; merge s creates cluster n_leaves + s out of
    clusters left[s] < right[s], at average dissimilarity height[s].
    """

    n_leaves: int
    left: tuple[int, ...]
    right: tuple[int, ...]
    height: tuple[float, ...]


def members(mask: int) -> list[int]:
    """Indices of the set bits of a member mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def to_dissimilarity(values: np.ndarray) -> np.ndarray:
    """Symmetrize the (possibly asymmetric) similarity values and flip them to a distance."""
    dissimilarity = 1.0 - (values + values.T) / 2.0
    np.fill_diagonal(dissimilarity, 0.0)
    return dissimilarity


def agglomerate(dissimilarity: np.ndarray) -> Dendrogram:
    """UPGMA merge sequence over a symmetric dissimilarity matrix.

    The matrix must be square, non-empty, finite, symmetric and zero on the
    diagonal; anything else raises ClusteringError.  Ties on the merge distance
    pick the pair with the smallest cluster ids, comparing (min id, max id)
    lexicographically, so results are reproducible.
    """
    matrix = np.asarray(dissimilarity, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ClusteringError("dissimilarity matrix must be square")
    if matrix.shape[0] == 0:
        raise ClusteringError("empty dissimilarity matrix")
    if not np.isfinite(matrix).all():
        # an infinite distance ties with the kernels' spent slots: a cluster would merge with itself
        raise ClusteringError("dissimilarity matrix must be finite")
    if not np.array_equal(matrix, matrix.T):
        raise ClusteringError("dissimilarity matrix must be symmetric")
    if np.any(np.diag(matrix) != 0):
        raise ClusteringError("dissimilarity matrix must have a zero diagonal")
    return _scan_upgma(matrix)


def _scan_upgma(matrix: np.ndarray) -> Dendrogram:
    """UPGMA that takes every live cluster's minimum at every merge, on a shrinking slot prefix.

    Before merge step s the m = n - s live clusters sit in slots 0 .. m-1,
    and `ids` maps slot to cluster id; the step reads and writes only that
    m x m prefix.  The merged cluster takes the lower of the pair's slots;
    the cluster in the last live slot moves into the upper one with its row,
    column, id and size, or stays put when the upper slot is the last one.
    This is the slot rule of `agglomerate_stack`.  Of the rows whose minimum
    is the smallest, the one with the smallest id is the pair's first
    cluster; the smallest id at that distance in its row is the second.
    That is the pair with the smallest (min id, max id), without listing the
    ties, and it is read through `ids` whatever slots the clusters sit in.

    A cluster's minimum is taken down its column, which numpy reduces a whole
    row of the C-ordered prefix at a time.  The prefix is exactly symmetric,
    since every merge writes a row and its column alike, so each column holds
    its row's values and their minimum is the row minimum, bit for bit.
    """
    n = matrix.shape[0]
    # -0.0 becomes 0.0, so that each minimum is one bit pattern whatever order it is taken in
    work = matrix + 0.0
    np.fill_diagonal(work, np.inf)
    ids = np.arange(n)
    sizes = [1] * n
    no_id = 2 * n
    lowest = np.empty(n)
    lefts, rights, heights = [], [], []
    for step in range(n - 1):
        last = n - 1 - step  # the last live slot; after this merge, slots 0 .. last-1 are live
        live, live_ids = work[: last + 1, : last + 1], ids[: last + 1]
        live_lowest = live.min(axis=0, out=lowest[: last + 1])
        height = live_lowest.min()
        first = int(np.where(live_lowest == height, live_ids, no_id).argmin())
        row = live[first]
        second = int(np.where(row == height, live_ids, no_id).argmin())
        first_size, second_size = sizes[first], sizes[second]
        # infinite at the pair's own slots, where one of the two lines holds its diagonal
        merged = first_size * row
        merged += second_size * live[second]
        merged /= first_size + second_size
        keep, gone = min(first, second), max(first, second)
        lefts.append(int(ids[first]))
        rights.append(int(ids[second]))
        heights.append(float(height))
        # the last live cluster moves into the upper slot (onto itself when it is that slot);
        # the row copy takes its diagonal along, which the column copy puts at (gone, gone)
        merged[gone] = merged[last]
        live[gone] = live[last]
        live[:last, gone] = live[:last, last]
        live[keep, :last] = live[:last, keep] = merged[:last]
        ids[gone], sizes[gone] = ids[last], sizes[last]
        ids[keep], sizes[keep] = n + step, first_size + second_size
    return Dendrogram(n, tuple(lefts), tuple(rights), tuple(heights))


# Live clusters at or below which `agglomerate_stack` takes a step's minima down
# the columns of the live prefix and keeps no nearest-cluster cache.  On a small
# prefix a step costs numpy's per-call overhead, and the cache's upkeep takes more
# calls per merge (about 48) than the one scan it saves (about 33); on a large one
# the scan's m² reads per matrix cost more.  Against the cache throughout, at 24
# the 21-matrix step-50 stacks clustered in 1.28-1.52 against 1.71-2.02 ms at 24
# entities and 4.5-5.5 against 4.8-5.6 ms at 60, and 160 entities read level; at
# 32 the first step-10 stack of 60 entities (291 matrices) read up to 3% slower,
# at 48 up to 14% and at 64 up to 23% (2-core VM, medians of 21-61 interleaved runs).
_SCAN_CLUSTERS = 24


def agglomerate_stack(stack: np.ndarray) -> list[Dendrogram]:
    """`agglomerate` of each matrix of a (count, n, n) float stack, merges and heights bit for bit.

    Each matrix must be finite, exactly symmetric and zero on the diagonal, as
    `agglomerate` checks; this function does not.  The stack is used as
    working memory and overwritten.  Each merge step runs once for all the
    matrices, so a stack of several beats `agglomerate` on each in turn; on a
    single matrix `agglomerate` is faster.

    Before merge step s each matrix keeps its m = n - s live clusters in
    slots 0 .. m-1, and the step reads and writes only that m x m prefix.
    While m is above `_SCAN_CLUSTERS`, row r caches its exact smallest
    distance and the id of the cluster in the first slot at it that `argmin`
    returns; from there on, each step takes the minima down the columns of
    the prefix, as `agglomerate` does, and no cache is kept (none is built
    when n is at most `_SCAN_CLUSTERS`).  A step's fixed numpy overhead
    outweighs the cache's savings on a small prefix, and the scan's m² reads
    outweigh the overhead on a large one.  Either way the minima are exact,
    and the rest of the step is one body.  Of the rows at the smallest
    distance, the one with the smallest id is the pair's first cluster, and
    the smallest id at that distance in its row is the second: the pair
    `agglomerate` picks.  The merged cluster takes the lower slot of the
    pair; the cluster in the last live slot moves into the upper one, with
    its row, column, id, size and any cache.  The merged row and the rows whose
    cached cluster was one of the pair are scanned again; another row moves
    to the merged cluster only when it is strictly closer.
    """
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2] or stack.shape[1] == 0:
        raise ClusteringError("expected a stack of non-empty square matrices")
    count, n, _ = stack.shape
    batch = np.arange(count)
    stack[:, np.arange(n), np.arange(n)] = np.inf
    ids = np.tile(np.arange(n), (count, 1))
    sizes = np.ones((count, n), dtype=int)
    if n > _SCAN_CLUSTERS:
        nearest = stack.argmin(axis=2)  # cluster ids, which are the slots before any merge
        distance = stack.min(axis=2)
    no_id = 2 * n
    lefts = np.empty((n - 1, count), dtype=int)
    rights = np.empty((n - 1, count), dtype=int)
    heights = np.empty((n - 1, count))
    for step in range(n - 1):
        last = n - 1 - step  # the last live slot; after this merge, slots 0 .. last-1 are live
        live_ids = ids[:, : last + 1]
        if last < _SCAN_CLUSTERS:
            # each column holds its row's values, as the prefix is exactly symmetric
            live_distance = stack[:, : last + 1, : last + 1].min(axis=1)
        else:
            live_distance = distance[:, : last + 1]
        lowest = live_distance.min(axis=1, out=heights[step])
        row = np.where(live_distance == lowest[:, None], live_ids, no_id).argmin(axis=1)
        row_line = stack[batch, row, : last + 1]
        partner = np.where(row_line == lowest[:, None], live_ids, no_id).argmin(axis=1)
        row_id, partner_id = ids[batch, row], ids[batch, partner]
        np.minimum(row_id, partner_id, out=lefts[step])
        np.maximum(row_id, partner_id, out=rights[step])
        row_size, partner_size = sizes[batch, row], sizes[batch, partner]
        size = row_size + partner_size
        # infinite at the pair's own slots, where one of the two lines holds its diagonal
        merged = (
            row_size[:, None] * row_line
            + partner_size[:, None] * stack[batch, partner, : last + 1]
        ) / size[:, None]
        keep, gone = np.minimum(row, partner), np.maximum(row, partner)
        # the last live cluster moves into the upper slot (onto itself when it is that slot);
        # the row copy takes its diagonal along, which the column copy puts at (gone, gone)
        merged[batch, gone] = merged[:, last]
        merged = merged[:, :last]
        stack[batch, gone, : last + 1] = stack[:, last, : last + 1]
        stack[batch, :last, gone] = stack[:, :last, last]
        stack[batch, keep, :last] = merged
        stack[batch, :last, keep] = merged
        cached = last > _SCAN_CLUSTERS  # the next step reads the cache
        for array in (ids, sizes, nearest, distance) if cached else (ids, sizes):
            array[batch, gone] = array[:, last]
        ids[batch, keep] = n + step
        sizes[batch, keep] = size
        if not cached:
            continue
        near, live_distance = nearest[:, :last], distance[:, :last]
        stale = (near == row_id[:, None]) | (near == partner_id[:, None])
        stale[batch, keep] = True  # its cached cluster may be a third one, not the partner
        closer = merged < live_distance
        np.copyto(near, n + step, where=closer)
        np.copyto(live_distance, merged, where=closer)
        which, slot = np.nonzero(stale)
        lines = stack[which, slot, :last]
        closest = lines.argmin(axis=1)
        nearest[which, slot] = ids[which, closest]
        distance[which, slot] = lines[np.arange(len(which)), closest]
    return [
        Dendrogram(n, tuple(left), tuple(right), tuple(height))
        for left, right, height in zip(lefts.T.tolist(), rights.T.tolist(), heights.T.tolist())
    ]


def cuts(dendrogram: Dendrogram, counts) -> dict[int, tuple[int, ...]]:
    """Partition at each of the cluster counts, from one replay of the merges.

    A partition is a tuple of member masks, bit i standing for leaf i, ordered
    by lowest set bit.  Over sorted leaves that is the order of `cut`'s sorted
    name tuples.
    """
    n = dendrogram.n_leaves
    wanted = set(counts)
    for n_clusters in wanted:
        if not 1 <= n_clusters <= n:
            raise ClusteringError(f"cannot cut {n} leaves into {n_clusters} clusters")
    slots = [1 << i for i in range(n)]  # slot i: the cluster whose lowest leaf is i, else 0
    lowest_leaf = list(range(n))  # by cluster id
    out = {n: tuple(slots)} if n in wanted else {}
    for step in range(n - min(wanted, default=n)):
        a = lowest_leaf[dendrogram.left[step]]
        b = lowest_leaf[dendrogram.right[step]]
        if b < a:
            a, b = b, a
        slots[a] |= slots[b]
        slots[b] = 0
        lowest_leaf.append(a)
        if n - step - 1 in wanted:
            out[n - step - 1] = tuple(filter(None, slots))
    return out


def cut(dendrogram: Dendrogram, n_clusters: int, entities) -> tuple[tuple[str, ...], ...]:
    """Undo the last n_clusters-1 merges and report clusters of entity names.

    Entities are given in leaf order (the matrix order).  Clusters come back
    with sorted members and sorted among themselves.
    """
    entities = tuple(entities)
    if len(entities) != dendrogram.n_leaves:
        raise ClusteringError(f"expected {dendrogram.n_leaves} entities, got {len(entities)}")
    partition = cuts(dendrogram, [n_clusters])[n_clusters]
    return tuple(
        sorted(tuple(sorted(entities[i] for i in members(mask))) for mask in partition)
    )


def decomposition_json(codebase: str, clusters, weights: Weights) -> str:
    """Candidate services as `cut` returns them (members and clusters sorted), in JSON."""
    document = {
        "codebase": codebase,
        "weights": list(weights.as_tuple()),
        "nClusters": len(clusters),
        "clusters": [list(cluster) for cluster in clusters],
    }
    return json.dumps(document, indent=2, sort_keys=True) + "\n"
