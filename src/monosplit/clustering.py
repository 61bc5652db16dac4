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
    """UPGMA that takes every row's minimum at every merge, on an n x n slot matrix.

    Each slot holds one live cluster, and `ids` maps slot to cluster id; the
    merged cluster takes the lower of the pair's slots, and the other slot's
    row and column go to infinity.  Of the rows whose minimum is the smallest,
    the one with the smallest id is the pair's first cluster; the smallest id
    at that distance in its row is the second.  That is the pair with the
    smallest (min id, max id), without listing the ties.
    """
    n = matrix.shape[0]
    work = matrix.copy()
    np.fill_diagonal(work, np.inf)
    ids = np.arange(n)
    sizes = [1] * n
    no_id = 2 * n
    lowest = np.empty(n)
    lefts, rights, heights = [], [], []
    for step in range(n - 1):
        work.min(axis=1, out=lowest)
        height = lowest.min()
        first = int(np.where(lowest == height, ids, no_id).argmin())
        row = work[first]
        second = int(np.where(row == height, ids, no_id).argmin())
        first_size, second_size = sizes[first], sizes[second]
        merged = first_size * row
        merged += second_size * work[second]
        merged /= first_size + second_size
        keep, gone = min(first, second), max(first, second)
        merged[keep] = merged[gone] = np.inf
        work[keep] = work[:, keep] = merged
        work[gone] = work[:, gone] = np.inf
        lefts.append(int(ids[first]))
        rights.append(int(ids[second]))
        heights.append(float(height))
        ids[keep] = n + step
        sizes[keep] = first_size + second_size
    return Dendrogram(n, tuple(lefts), tuple(rights), tuple(heights))


def agglomerate_stack(stack: np.ndarray) -> list[Dendrogram]:
    """`agglomerate` of each matrix of a (count, n, n) float stack, merges and heights bit for bit.

    Each matrix must be finite, exactly symmetric and zero on the diagonal, as
    `agglomerate` checks; this function does not.  The stack is used as
    working memory and overwritten.  Each merge step runs once for all the
    matrices, so a stack of several beats `agglomerate` on each in turn; on a
    single matrix `agglomerate` is faster.

    Each of a matrix's n slots holds one live cluster.  Row r caches its exact
    smallest distance and the first slot at it that `argmin` returns.  Of the
    rows at the smallest cached distance, the one with the smallest id is the
    pair's first cluster, and the smallest id at that distance in its row is
    the second: the pair `agglomerate` picks.  The merged cluster takes the
    lower slot, and the other slot's column goes to infinity.  The merged row
    and the rows whose cached slot was one of the pair's are scanned again;
    another row moves to the merged cluster only when it is strictly closer.
    """
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2] or stack.shape[1] == 0:
        raise ClusteringError("expected a stack of non-empty square matrices")
    count, n, _ = stack.shape
    batch = np.arange(count)
    stack[:, np.arange(n), np.arange(n)] = np.inf
    ids = np.tile(np.arange(n), (count, 1))
    sizes = np.ones((count, n), dtype=int)
    live = np.ones((count, n), dtype=bool)
    nearest = stack.argmin(axis=2)
    distance = stack.min(axis=2)
    no_id = 2 * n
    lefts = np.empty((n - 1, count), dtype=int)
    rights = np.empty((n - 1, count), dtype=int)
    heights = np.empty((n - 1, count))
    for step in range(n - 1):
        lowest = distance.min(axis=1)
        row = np.where(distance == lowest[:, None], ids, no_id).argmin(axis=1)
        row_line = stack[batch, row]
        partner = np.where(row_line == lowest[:, None], ids, no_id).argmin(axis=1)
        row_id, partner_id = ids[batch, row], ids[batch, partner]
        lefts[step] = np.minimum(row_id, partner_id)
        rights[step] = np.maximum(row_id, partner_id)
        heights[step] = lowest
        row_size, partner_size = sizes[batch, row], sizes[batch, partner]
        merged = (
            row_size[:, None] * row_line + partner_size[:, None] * stack[batch, partner]
        ) / (row_size + partner_size)[:, None]
        keep, gone = np.minimum(row, partner), np.maximum(row, partner)
        merged[batch, keep] = merged[batch, gone] = np.inf
        stack[batch, keep, :] = merged
        stack[batch, :, keep] = merged
        stack[batch, :, gone] = np.inf
        ids[batch, keep] = n + step
        sizes[batch, keep] = row_size + partner_size
        live[batch, gone] = False
        distance[batch, gone] = np.inf
        stale = live & ((nearest == row[:, None]) | (nearest == partner[:, None]))
        stale[batch, keep] = True  # its cached slot may be a third cluster, not the partner
        closer = merged < distance
        np.copyto(nearest, keep[:, None], where=closer)
        np.copyto(distance, merged, where=closer)
        which, slot = np.nonzero(stale)
        lines = stack[which, slot]
        near = lines.argmin(axis=1)
        nearest[which, slot] = near
        distance[which, slot] = lines[np.arange(len(which)), near]
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


@dataclass(frozen=True)
class Decomposition:
    """A partition of the entity set into candidate services."""

    codebase: str
    clusters: tuple[tuple[str, ...], ...]  # canonical: members sorted, clusters sorted
    weights: Weights | None = None

    @property
    def n_clusters(self) -> int:
        return len(self.clusters)

    def to_json_dict(self) -> dict:
        return {
            "codebase": self.codebase,
            "weights": list(self.weights.as_tuple()) if self.weights else None,
            "nClusters": self.n_clusters,
            "clusters": [list(cluster) for cluster in self.clusters],
        }

    def serialize(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"
