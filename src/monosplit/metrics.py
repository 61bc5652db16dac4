"""Decomposition quality: functionality splitting cost, cohesion, coupling, team size ratio."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .accesses import AccessModel


class MetricsError(ValueError):
    """Invalid metric input."""


# Bytes of a scoring pass's temporaries, which sets how many partitions a chunk
# holds.  The sweep hands `memoize` all the partitions of a stack: chunks of 1 MiB
# ran the dense step-10 benchmark sweep (24 entities) as fast as chunks of the
# whole 8 MiB stack budget, at 53.5 against 56.9 MiB of peak RSS (2-core VM).
_CHUNK_BYTES = 1024 * 1024


class Scorer:
    """One model's tables for scoring partitions given as member masks, memoized per partition.

    Bit i of a member mask stands for entity i of the model, in sorted order.
    `memoize` scores the partitions it has not seen yet in one array pass per
    chunk, and keeps each one's `MetricsRecord`.  The terms that depend on
    one cluster alone are computed once per distinct mask and kept as a row
    of the cluster tables; a chunk reaches the metrics as a table of those
    rows.  Each term is one correctly rounded quotient of exact counts, so no
    term depends on the order of the functionalities or of the entities; a
    partition's terms are summed in cluster order, so its record has the
    same bits whatever chunk it was scored in.
    A pass that raises leaves the tables and records as they were.  One
    scorer is not shared between threads: its tables grow without a lock.
    """

    def __init__(self, model: AccessModel, authors: np.ndarray):
        """`authors` is the entity x author incidence, bool, a row per entity of the model."""
        self.n_entities = len(model.entities)
        self.n_functionalities = len(model.functionalities)
        self.max_cost = _max_cost(model)
        self.n_authors = authors.shape[1]
        # Entity x (functionality, then author, then entity) incidence: true where
        # the functionality touches the entity, the author changed its file, or some
        # trace steps from the entity straight to the other one.  Bool, so that the
        # scorer pickled to each pool worker stays small.
        self._incidence = np.hstack([model.touch.T > 0, authors, model.steps > 0])
        # With d the distributed indicator, r = R'd, w = W'd and b = (R and W)'d,
        # a read of e by f pays w_e less f's own write of e, and a write pays r_e
        # less f's own read, so the cost is 2 * (r.w - sum b) = 2 * (d'(RW')d - sum b),
        # taken in float64 products (see `splitting_cost`).
        self.products = (model.read @ model.write.T).astype(float)
        self.both = (model.read & model.write).sum(axis=1).astype(float)
        # The cluster tables, a row per distinct member mask.  Row 0 pads a
        # partition of fewer clusters than its table is wide: no members, no
        # functionalities, no authors, and a size of 1 so that its counts divide to 0.0.
        # Members and reach are bits packed little-endian in 64-bit words, as the
        # masks are, a row per word and a column per cluster: a popcount of the AND
        # of two clusters' words counts the entities in both.
        words = -(-self.n_entities // 64)
        self.sizes = np.ones(1, dtype=np.intp)
        self.cohesions = np.zeros(1)
        self.author_counts = np.zeros(1, dtype=np.intp)
        self.touching = np.zeros((1, self.n_functionalities), dtype=bool)
        self.members = np.zeros((words, 1), dtype=np.uint64)
        self.reach = np.zeros((words, 1), dtype=np.uint64)
        self._rows: dict[int, int] = {}  # member mask -> its row of the cluster tables
        self.records: dict[tuple[int, ...], MetricsRecord] = {}

    def memoize(self, partitions) -> None:
        """Score the partitions not seen yet, in chunks of one array pass each.

        A chunk holds as many partitions as keep the pass's temporaries within
        about `_CHUNK_BYTES`, and at least one.
        """
        records = self.records
        unseen = [partition for partition in dict.fromkeys(partitions) if partition not in records]
        if not unseen:
            return
        k = max(map(len, unseen))
        # the pass's temporaries per partition: coupling's float64 share and uint64 AND
        # of each pair of clusters, and the splitting cost's flag per cluster and
        # functionality and four 8-byte numbers per functionality
        size = max(1, _CHUNK_BYTES // (17 * k * k + (k + 32) * self.n_functionalities))
        for start in range(0, len(unseen), size):
            chunk = unseen[start : start + size]
            records.update(zip(chunk, _score(self, self.table(chunk))))

    def table(self, partitions) -> np.ndarray:
        """The partitions as a (largest k, partitions) table of rows of the cluster tables.

        Column p lists partition p's clusters in its order, then the padding
        row 0.  Clusters not seen yet get their rows first, all in one pass.
        """
        masks = [mask for partition in partitions for mask in partition]
        self._add_clusters(masks)
        counts = np.fromiter(map(len, partitions), np.intp, len(partitions))
        table = np.zeros((counts.max(), len(partitions)), dtype=np.intp)
        table.T[np.arange(len(table)) < counts[:, None]] = np.fromiter(
            map(self._rows.__getitem__, masks), np.intp, len(masks)
        )
        return table

    def _add_clusters(self, masks) -> None:
        """Append the terms of the member masks not seen yet to the cluster tables, in one pass."""
        rows = self._rows
        unseen = [mask for mask in dict.fromkeys(masks) if mask not in rows]
        if not unseen:
            return
        width = 8 * len(self.members)
        packed = np.frombuffer(
            b"".join(mask.to_bytes(width, "little") for mask in unseen), np.uint8
        ).reshape(len(unseen), width)
        membership = np.unpackbits(packed, axis=1, count=self.n_entities, bitorder="little")
        sizes = np.count_nonzero(membership, axis=1)
        # members of each cluster each functionality touches, each author changed and
        # that step straight to each entity: a float64 product of 0/1 tables, exact, every
        # partial sum being an integer at most n, far below 2**53
        touching, authored, reached = np.split(
            membership.astype(float) @ self._incidence,
            [self.n_functionalities, self.n_functionalities + self.n_authors],
            axis=1,
        )
        # the mean share of the cluster its touching functionalities touch: one
        # division of two exact integers
        cohesions = touching.sum(axis=1) / (sizes * np.count_nonzero(touching, axis=1))
        author_counts = np.count_nonzero(authored, axis=1)
        reach = np.zeros_like(packed)
        reach[:, : -(-self.n_entities // 8)] = np.packbits(reached > 0, axis=1, bitorder="little")
        start = len(self.sizes)
        # all six tables grow in one assignment, and only then do the masks get their
        # rows: a pass that raises leaves the scorer as it was
        self.sizes, self.cohesions, self.author_counts, self.touching, self.members, self.reach = (
            np.concatenate([self.sizes, sizes]),
            np.concatenate([self.cohesions, cohesions]),
            np.concatenate([self.author_counts, author_counts]),
            np.concatenate([self.touching, touching > 0]),
            np.concatenate([self.members, packed.view(np.uint64).T], axis=1),
            np.concatenate([self.reach, reach.view(np.uint64).T], axis=1),
        )
        rows.update(zip(unseen, range(start, start + len(unseen))))


def _score(scorer: Scorer, clusters: np.ndarray) -> list[MetricsRecord]:
    """The record of each partition of a table of cluster rows, in one pass over arrays.

    A history without authors fails the pass with tsr's MetricsError.  Every
    metric lies in [0, 1] by construction, so one outside it is a fault of
    this code: `combined_score`'s MetricsError fails the pass too.
    """
    values = (
        uniform_complexity(scorer, clusters),
        cohesion(scorer, clusters),
        coupling(scorer, clusters),
        tsr(scorer, clusters),
    )
    combined = combined_score(*values)
    return list(map(MetricsRecord, *(value.tolist() for value in values), combined.tolist()))


def _cluster_counts(clusters: np.ndarray) -> np.ndarray:
    """k of each partition of a table: its rows other than the padding row 0."""
    return np.count_nonzero(clusters, axis=0)


def _max_cost(model: AccessModel) -> int:
    """Splitting cost of the all-singletons decomposition, ignoring access modes.

    Here a functionality is distributed as soon as it touches two entities, and
    every distinct (entity, mode) access costs one per other distributed
    functionality touching that entity in any mode.
    """
    distributed = model.touch.sum(axis=1) >= 2
    touchers = model.touch[distributed].sum(axis=0)
    accesses = (model.read + model.write)[distributed].sum(axis=0)
    return int(accesses @ (touchers - 1))


def splitting_cost(scorer: Scorer, clusters: np.ndarray) -> np.ndarray:
    """Rework cost of the functionalities split across clusters, per partition of the table.

    A functionality is distributed when its trace touches more than one
    cluster.  Each of its distinct (entity, mode) accesses costs one per
    other distributed functionality touching that entity in the opposite
    mode.  The paper's complexity is this cost per functionality.
    """
    distributed = (np.count_nonzero(scorer.touching[clusters], axis=0) >= 2).astype(float)
    # float64 products of integers: exact, every partial sum being an integer below
    # F * F * n, far below 2**53
    paired = ((distributed @ scorer.products) * distributed).sum(axis=1)
    return 2 * (paired - distributed @ scorer.both).astype(np.int64)


def uniform_complexity(scorer: Scorer, clusters: np.ndarray) -> np.ndarray:
    """Splitting cost over the all-singletons worst case (0 when both are 0)."""
    if scorer.max_cost == 0:
        return np.zeros(clusters.shape[1])
    return splitting_cost(scorer, clusters) / scorer.max_cost


def cohesion(scorer: Scorer, clusters: np.ndarray) -> np.ndarray:
    """Mean share of a cluster its visiting functionalities actually touch."""
    # the clusters' terms summed one by one in cluster order; padding adds 0.0
    total = np.cumsum(scorer.cohesions[clusters], axis=0)[-1]
    return total / _cluster_counts(clusters)


def coupling(scorer: Scorer, clusters: np.ndarray) -> np.ndarray:
    """Mean share of a cluster's entities exposed to each other cluster.

    An entity is exposed to a cluster when some trace accesses it directly after
    an entity of that cluster.
    """
    width, count = clusters.shape
    # exposed[i, j, p]: the members of cluster j some trace reaches straight from
    # cluster i, counted word by word (exact integers in float64)
    exposed = np.zeros((width, width, count))
    for reach, members in zip(scorer.reach, scorer.members):
        exposed += np.bitwise_count(reach[clusters][:, None] & members[clusters])
    exposed[np.arange(width), np.arange(width)] = 0.0
    # each target's exact count from the other clusters over its size, these k
    # terms summed one by one in cluster order; the padding adds 0.0
    terms = exposed.sum(axis=0) / scorer.sizes[clusters]
    total = np.cumsum(terms, axis=0)[-1]
    n = _cluster_counts(clusters)
    return total / np.maximum(n * (n - 1), 1)  # a single cluster: 0.0 over 1


def tsr(scorer: Scorer, clusters: np.ndarray) -> np.ndarray:
    """Team size ratio: mean cluster author count over the total author count."""
    if not scorer.n_authors:
        raise MetricsError("history has no authors")
    author_count_sums = scorer.author_counts[clusters].sum(axis=0)
    return author_count_sums / (_cluster_counts(clusters) * scorer.n_authors)


def combined_score(uniform_complexity_value, cohesion_value, coupling_value, tsr_value):
    """Single score to minimize; shifts the improving direction of cohesion.

    Takes four floats, or four arrays of one value per partition; any value
    outside [0, 1] raises MetricsError, which names the first such value and,
    for arrays, its partition counted from 1.
    """
    for name, value in (
        ("uniform complexity", uniform_complexity_value),
        ("cohesion", cohesion_value),
        ("coupling", coupling_value),
        ("tsr", tsr_value),
    ):
        bad = np.flatnonzero(~np.logical_and(0.0 <= value, value <= 1.0))
        if len(bad):
            where = f" (partition {bad[0] + 1} of {np.size(value)})" if np.ndim(value) else ""
            raise MetricsError(f"{name} out of range: {np.ravel(value)[bad[0]].item()!r}{where}")
    return (uniform_complexity_value + coupling_value + tsr_value - cohesion_value + 1.0) / 4.0


class MetricsRecord(NamedTuple):
    """The five quality numbers of a partition, in the order of the results CSV's metric columns."""

    uniform_complexity: float
    cohesion: float
    coupling: float
    tsr: float
    combined: float


def evaluate(scorer: Scorer, partition: tuple[int, ...]) -> MetricsRecord:
    """All five quality numbers of one partition, given as member masks over the model's entities.

    Reads the scorer's record of the partition, scoring it first when it has
    none; that pass raises MetricsError for a history without authors or a
    metric out of range.
    """
    if partition not in scorer.records:
        scorer.memoize((partition,))
    return scorer.records[partition]
