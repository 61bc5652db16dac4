"""Average-linkage agglomerative clustering of entities over a blended similarity matrix."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .similarity import Weights


class ClusteringError(ValueError):
    """Invalid clustering input."""


@dataclass(frozen=True)
class Merge:
    left: int  # cluster id, left < right
    right: int
    height: float  # average dissimilarity at merge time


@dataclass(frozen=True)
class Dendrogram:
    """Full merge history; leaves are 0..n_leaves-1, merged clusters count upward from n_leaves."""

    n_leaves: int
    merges: tuple[Merge, ...]


def to_dissimilarity(values: np.ndarray) -> np.ndarray:
    """Symmetrize the (possibly asymmetric) similarity values and flip them to a distance."""
    dissimilarity = 1.0 - (values + values.T) / 2.0
    np.fill_diagonal(dissimilarity, 0.0)
    return dissimilarity


def check_dissimilarity(dissimilarity) -> np.ndarray:
    """The matrix as floats, once it is square, non-empty, symmetric and zero on the diagonal."""
    matrix = np.asarray(dissimilarity, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ClusteringError("dissimilarity matrix must be square")
    if matrix.shape[0] == 0:
        raise ClusteringError("empty dissimilarity matrix")
    if not np.array_equal(matrix, matrix.T):
        raise ClusteringError("dissimilarity matrix must be symmetric")
    if np.any(np.diag(matrix) != 0):
        raise ClusteringError("dissimilarity matrix must have a zero diagonal")
    return matrix


def agglomerate(dissimilarity: np.ndarray) -> Dendrogram:
    """UPGMA merge sequence over a symmetric dissimilarity matrix.

    Ties on the merge distance pick the pair with the smallest cluster ids,
    comparing (min id, max id) lexicographically, so results are reproducible.
    """
    return _scan_upgma(check_dissimilarity(dissimilarity))


def _scan_upgma(matrix: np.ndarray) -> Dendrogram:
    """UPGMA that scans the whole distance matrix for the closest pair at every merge."""
    n = matrix.shape[0]
    total = 2 * n - 1
    work = np.full((total, total), np.inf)
    work[:n, :n] = matrix
    np.fill_diagonal(work, np.inf)
    sizes = np.zeros(total, dtype=int)
    sizes[:n] = 1
    active = np.zeros(total, dtype=bool)
    active[:n] = True
    merges = []
    for step in range(n - 1):
        new_id = n + step
        view = work[:new_id, :new_id]
        flat = int(np.argmin(view))  # first minimum in row-major order = smallest id pair
        left, right = divmod(flat, new_id)
        if left > right:
            left, right = right, left
        height = float(work[left, right])
        active[left] = active[right] = False
        others = np.nonzero(active[:new_id])[0]
        if others.size:
            merged = (
                sizes[left] * work[others, left] + sizes[right] * work[others, right]
            ) / (sizes[left] + sizes[right])
            work[others, new_id] = merged
            work[new_id, others] = merged
        sizes[new_id] = sizes[left] + sizes[right]
        active[new_id] = True
        work[left, :] = work[:, left] = np.inf
        work[right, :] = work[:, right] = np.inf
        merges.append(Merge(left, right, height))
    return Dendrogram(n, tuple(merges))


def agglomerate_stack(stack: np.ndarray) -> list[Dendrogram]:
    """`agglomerate` of each matrix of a (count, n, n) float stack, merges and heights bit for bit.

    Each matrix must already pass `check_dissimilarity`.  The stack is used as
    working memory and overwritten.  Each merge step runs once for all the
    matrices, so a stack of several beats `agglomerate` on each in turn; on a
    single matrix `agglomerate` is faster.

    Each of a matrix's n slots holds one live cluster.  Row r caches the slot of
    its nearest live cluster, ties going to the smallest cluster id, and the
    distance to it.  The row with the smallest id among those at the smallest
    cached distance, and its cached neighbour, are the pair the full scan
    picks.  The merged cluster takes the lower of the two slots.  Only rows
    whose neighbour was merged are scanned again; another row moves to the
    merged cluster only when it is strictly closer, because the merged cluster
    has the largest id.
    """
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2] or stack.shape[1] == 0:
        raise ClusteringError("expected a stack of non-empty square matrices")
    count, n, _ = stack.shape
    batch = np.arange(count)
    stack[:, np.arange(n), np.arange(n)] = np.inf
    ids = np.tile(np.arange(n), (count, 1))
    sizes = np.ones((count, n), dtype=int)
    live = np.ones((count, n), dtype=bool)
    nearest = stack.argmin(axis=2)  # slots still equal ids: the first minimum has the smallest id
    distance = stack.min(axis=2)
    no_id = 2 * n
    lefts = np.empty((n - 1, count), dtype=int)
    rights = np.empty((n - 1, count), dtype=int)
    heights = np.empty((n - 1, count))
    for step in range(n - 1):
        lowest = distance.min(axis=1)
        row = np.where(distance == lowest[:, None], ids, no_id).argmin(axis=1)
        partner = nearest[batch, row]
        row_id, partner_id = ids[batch, row], ids[batch, partner]
        lefts[step] = np.minimum(row_id, partner_id)
        rights[step] = np.maximum(row_id, partner_id)
        heights[step] = lowest
        row_size, partner_size = sizes[batch, row], sizes[batch, partner]
        merged = (
            row_size[:, None] * stack[batch, row] + partner_size[:, None] * stack[batch, partner]
        ) / (row_size + partner_size)[:, None]
        keep, gone = np.minimum(row, partner), np.maximum(row, partner)
        merged[batch, keep] = merged[batch, gone] = np.inf
        stack[batch, keep, :] = merged
        stack[batch, :, keep] = merged
        stack[batch, gone, :] = np.inf
        stack[batch, :, gone] = np.inf
        ids[batch, keep] = n + step
        sizes[batch, keep] = row_size + partner_size
        live[batch, gone] = False
        distance[batch, gone] = np.inf
        # the pair were each other's nearest neighbours, so this includes the merged row
        stale = live & ((nearest == row[:, None]) | (nearest == partner[:, None]))
        closer = merged < distance
        nearest[closer] = np.broadcast_to(keep[:, None], nearest.shape)[closer]
        distance[closer] = merged[closer]
        which, slot = np.nonzero(stale)
        lines = stack[which, slot]
        low = lines.min(axis=1)
        nearest[which, slot] = np.where(lines == low[:, None], ids[which], no_id).argmin(axis=1)
        distance[which, slot] = low
    return [
        Dendrogram(n, tuple(map(Merge, left, right, height)))
        for left, right, height in zip(lefts.T.tolist(), rights.T.tolist(), heights.T.tolist())
    ]


def cuts(dendrogram: Dendrogram, counts, entities) -> dict[int, tuple[tuple[str, ...], ...]]:
    """`cut` at each of the cluster counts, from one replay of the merges."""
    entities = tuple(entities)
    n = dendrogram.n_leaves
    if len(entities) != n:
        raise ClusteringError(f"expected {n} entities, got {len(entities)}")
    wanted = set(counts)
    for n_clusters in wanted:
        if not 1 <= n_clusters <= n:
            raise ClusteringError(f"cannot cut {n} leaves into {n_clusters} clusters")
    lowest = min(wanted, default=n)
    components = {i: (entities[i],) for i in range(n)}
    out = {}
    for step in range(n - lowest + 1):
        if n - step in wanted:
            out[n - step] = tuple(sorted(components.values()))
        if n - step > lowest:
            merge = dendrogram.merges[step]
            components[n + step] = tuple(
                sorted(components.pop(merge.left) + components.pop(merge.right))
            )
    return out


def cut(dendrogram: Dendrogram, n_clusters: int, entities) -> tuple[tuple[str, ...], ...]:
    """Undo the last n_clusters-1 merges and report clusters of entity names.

    Entities are given in leaf order (the matrix order).  Clusters come back
    with sorted members and sorted among themselves.
    """
    return cuts(dendrogram, [n_clusters], entities)[n_clusters]


@dataclass(frozen=True)
class Decomposition:
    """A partition of the entity set into candidate services."""

    codebase: str
    clusters: tuple[tuple[str, ...], ...]  # canonical: members sorted, clusters sorted
    weights: Weights | None = None

    @property
    def n_clusters(self) -> int:
        return len(self.clusters)

    def entities(self) -> tuple[str, ...]:
        return tuple(sorted(e for cluster in self.clusters for e in cluster))

    def assignment(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for index, cluster in enumerate(self.clusters):
            for entity in cluster:
                if entity in out:
                    raise ClusteringError(f"entity in two clusters: {entity!r}")
                out[entity] = index
        return out

    @classmethod
    def from_clusters(cls, codebase: str, clusters, weights: Weights | None = None):
        canonical = tuple(sorted(tuple(sorted(c)) for c in clusters))
        if any(not cluster for cluster in canonical):
            raise ClusteringError("empty cluster")
        decomposition = cls(codebase, canonical, weights)
        decomposition.assignment()  # disjointness check
        return decomposition

    def to_json_dict(self) -> dict:
        return {
            "codebase": self.codebase,
            "weights": list(self.weights.as_tuple()) if self.weights else None,
            "nClusters": self.n_clusters,
            "clusters": [list(cluster) for cluster in self.clusters],
        }

    def serialize(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def parse(cls, text: str) -> "Decomposition":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ClusteringError(f"invalid decomposition JSON: {exc}") from exc
        if not isinstance(raw, dict) or not {"codebase", "nClusters", "clusters"} <= set(raw):
            raise ClusteringError("decomposition JSON missing required keys")
        weights = Weights(*raw["weights"]) if raw.get("weights") else None
        decomposition = cls.from_clusters(raw["codebase"], raw["clusters"], weights)
        if decomposition.n_clusters != raw["nClusters"]:
            raise ClusteringError("nClusters does not match the cluster list")
        return decomposition
