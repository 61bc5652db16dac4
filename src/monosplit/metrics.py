"""Decomposition quality: functionality splitting cost, cohesion, coupling, team size ratio."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .accesses import AccessModel
from .clustering import members


class MetricsError(ValueError):
    """Invalid metric input."""


# Terms of one cluster: (member mask, size, cohesion term, author count,
# functionalities touching it, entities its traces step to straight from it)
Cluster = tuple[int, int, float, int, int, int]


class Scorer:
    """One model's tables for scoring partitions given as member masks, memoized per cluster.

    Bit i of a member mask stands for entity i of the model, in sorted order.
    The terms that depend on one cluster alone are computed once per distinct
    mask, for all the masks not seen yet in one pass over arrays, and the
    splitting cost once per set of distributed functionalities.
    Sums run in cluster order, and coupling's in (i, j) order, so a memoized
    term gives the same bits as a fresh one.
    """

    def __init__(self, model: AccessModel, authors: np.ndarray):
        """`authors` is the entity x author incidence, bool, a row per entity of the model."""
        self.n_entities = len(model.entities)
        self.n_functionalities = len(model.functionalities)
        self.ceiling = max_complexity(model)
        self.n_authors = authors.shape[1]
        # Entity x (functionality, then author) incidence: 1 where the
        # functionality touches the entity or the author changed its file; and
        # entity x entity, 1 where some trace steps from the one straight to the other.
        self._touched_or_authored = _by_column(np.hstack([model.touch.T, authors]))
        self._steps_to = _by_column(model.steps > 0)
        # With d the distributed indicator, r = R'd, w = W'd and b = (R and W)'d,
        # a read of e by f pays w_e less f's own write of e, and a write pays r_e
        # less f's own read, so the cost is 2 * (r.w - sum b) = 2 * (d'(RW')d - sum b).
        self._products = model.read @ model.write.T
        self._both = (model.read & model.write).sum(axis=1)
        self._clusters: dict[int, Cluster] = {}
        self._costs: dict[int, int] = {}

    def clusters(self, partition: tuple[int, ...]) -> list[Cluster]:
        """The per-cluster terms of each member mask of the partition, in its order."""
        memo = self._clusters
        unseen = [mask for mask in partition if mask not in memo]
        if unseen:
            self.memoize(unseen)
        return [memo[mask] for mask in partition]

    def memoize(self, masks) -> None:
        """Compute the terms of the member masks not seen yet, all in one pass."""
        memo = self._clusters
        unseen = [mask for mask in dict.fromkeys(masks) if mask not in memo]
        if not unseen:
            return
        width = (self.n_entities + 7) // 8
        packed = np.frombuffer(b"".join(mask.to_bytes(width, "little") for mask in unseen), np.uint8)
        membership = np.unpackbits(
            packed.reshape(len(unseen), width), axis=1, count=self.n_entities, bitorder="little"
        )
        sizes = np.count_nonzero(membership, axis=1)
        # members of each cluster each functionality touches, then each author changed
        count_type = np.min_scalar_type(self.n_entities)
        counts = _reduce_columns(np.add, membership, self._touched_or_authored, count_type)
        touching = counts[:, : self.n_functionalities]
        # share of the cluster each touching functionality touches, in float64, summed
        # one by one in model order (a functionality not touching it adds 0.0)
        shares = np.cumsum(touching / sizes[:, None], axis=1)[:, -1]
        cohesions = shares / np.count_nonzero(touching, axis=1)
        author_counts = np.count_nonzero(counts[:, self.n_functionalities :], axis=1)
        functionalities = np.packbits(touching > 0, axis=1, bitorder="little")
        reached = _reduce_columns(np.logical_or, membership.view(bool), self._steps_to, bool)
        targets = np.packbits(reached, axis=1, bitorder="little")
        for mask, size, cohesion_term, author_count, touched_by, steps_to in zip(
            unseen,
            sizes.tolist(),
            cohesions.tolist(),
            author_counts.tolist(),
            functionalities,
            targets,
        ):
            memo[mask] = (
                mask,
                size,
                cohesion_term,
                author_count,
                int.from_bytes(touched_by.tobytes(), "little"),
                int.from_bytes(steps_to.tobytes(), "little"),
            )

    def splitting_cost(self, clusters: list[Cluster]) -> int:
        """Rework cost of the functionalities split across clusters.

        A functionality is distributed when its trace touches more than one
        cluster.  Each of its distinct (entity, mode) accesses costs one per
        other distributed functionality touching that entity in the opposite
        mode.  The paper's complexity is this cost per functionality.
        """
        seen = distributed = 0
        for terms in clusters:
            functionalities = terms[4]
            distributed |= seen & functionalities
            seen |= functionalities
        cost = self._costs.get(distributed)
        if cost is None:
            rows = np.array(members(distributed), dtype=np.intp)
            cost = 2 * int(self._products[rows[:, None], rows].sum() - self._both[rows].sum())
            self._costs[distributed] = cost
        return cost


def _by_column(table: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """A 0/1 table as its nonzero cells grouped by column.

    Returns the cells' rows, column by column; where each column that has
    cells starts among them; those columns; and the table's width.
    """
    column, row = np.nonzero(table.T)
    starts = np.flatnonzero(np.diff(column, prepend=-1))
    return row, starts, column[starts], table.shape[1]


def _reduce_columns(ufunc, membership: np.ndarray, table: tuple, dtype) -> np.ndarray:
    """`ufunc` over each cluster's members in each column of a `_by_column` table.

    A row of `membership` is a cluster's 0/1 indicator over the entities,
    which are the table's rows: `np.add` counts the cluster's members in each
    column, `np.logical_or` tells whether it has any.  The result has
    `dtype`; when that is membership's own, the gathered cells are not cast.
    """
    rows, starts, columns, width = table
    out = np.zeros((len(membership), width), dtype=dtype)
    out[:, columns] = ufunc.reduceat(membership[:, rows], starts, axis=1, dtype=dtype)
    return out


def max_complexity(model: AccessModel) -> float:
    """Splitting cost of the all-singletons decomposition, ignoring access modes.

    Here a functionality is distributed as soon as it touches two entities, and
    every distinct (entity, mode) access costs one per other distributed
    functionality touching that entity in any mode.
    """
    if not model.functionalities:
        return 0.0
    distributed = model.touch.sum(axis=1) >= 2
    touchers = model.touch[distributed].sum(axis=0)
    accesses = (model.read + model.write)[distributed].sum(axis=0)
    return int(accesses @ (touchers - 1)) / len(model.functionalities)


def uniform_complexity(scorer: Scorer, clusters: list[Cluster]) -> float:
    """Splitting cost per functionality over the all-singletons worst case (0 when both are 0)."""
    if scorer.ceiling == 0:
        return 0.0
    return scorer.splitting_cost(clusters) / scorer.n_functionalities / scorer.ceiling


def cohesion(scorer: Scorer, clusters: list[Cluster]) -> float:
    """Mean share of a cluster its visiting functionalities actually touch."""
    total = 0.0
    for terms in clusters:
        total += terms[2]
    return total / len(clusters)


def coupling(scorer: Scorer, clusters: list[Cluster]) -> float:
    """Mean share of a cluster's entities exposed to each other cluster.

    An entity is exposed to a cluster when some trace accesses it directly after
    an entity of that cluster.
    """
    n = len(clusters)
    if n == 1:
        return 0.0
    sized = [(terms[0], terms[1]) for terms in clusters]
    total = 0.0
    for i, source in enumerate(clusters):
        # entities of cluster j some trace reaches straight from cluster i
        targets = source[5]
        for j, (mask, size) in enumerate(sized):
            if i != j:
                total += (targets & mask).bit_count() / size
    return total / (n * (n - 1))


def tsr(scorer: Scorer, clusters: list[Cluster]) -> float:
    """Team size ratio: mean cluster author count over the total author count."""
    if not scorer.n_authors:
        raise MetricsError("history has no authors")
    author_count_sum = 0
    for terms in clusters:
        author_count_sum += terms[3]
    return (author_count_sum / len(clusters)) / scorer.n_authors


def combined_score(
    uniform_complexity_value: float,
    cohesion_value: float,
    coupling_value: float,
    tsr_value: float,
) -> float:
    """Single score to minimize; shifts the improving direction of cohesion."""
    for name, value in (
        ("uniform complexity", uniform_complexity_value),
        ("cohesion", cohesion_value),
        ("coupling", coupling_value),
        ("tsr", tsr_value),
    ):
        if not 0.0 <= value <= 1.0:
            raise MetricsError(f"{name} out of range: {value!r}")
    return (uniform_complexity_value + coupling_value + tsr_value - cohesion_value + 1.0) / 4.0


@dataclass(frozen=True)
class MetricsRecord:
    uniform_complexity: float
    cohesion: float
    coupling: float
    tsr: float
    combined: float


def evaluate(scorer: Scorer, partition: tuple[int, ...]) -> MetricsRecord:
    """All five quality numbers of one partition, given as member masks over the model's entities."""
    clusters = scorer.clusters(partition)
    uniform = uniform_complexity(scorer, clusters)
    cohesion_value = cohesion(scorer, clusters)
    coupling_value = coupling(scorer, clusters)
    tsr_value = tsr(scorer, clusters)
    return MetricsRecord(
        uniform,
        cohesion_value,
        coupling_value,
        tsr_value,
        combined_score(uniform, cohesion_value, coupling_value, tsr_value),
    )
