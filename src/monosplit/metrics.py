"""Decomposition quality: functionality splitting cost, cohesion, coupling, team size ratio."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .accesses import AccessModel
from .clustering import Decomposition, members
from .history import DevelopmentHistory, EntityAuthors


class MetricsError(ValueError):
    """Invalid metric input."""


# Terms of one cluster: (member mask, size, cohesion term, author count,
# functionalities touching it, entities its traces step to straight from it)
Cluster = tuple[int, int, float, int, int, int]


class Scorer:
    """One model's tables for scoring partitions given as member masks, memoized per cluster.

    Bit i of a member mask stands for entity i: the model's entities in sorted
    order, then any other member a decomposition names, in the order first
    seen.  Such a member counts toward its cluster's size and authors only.
    The terms that depend on one cluster alone are computed once per distinct
    mask, and the splitting cost once per set of distributed functionalities.
    Sums run in cluster order, and coupling's in (i, j) order, so a memoized
    term gives the same bits as a fresh one.
    """

    def __init__(self, model: AccessModel, authors: EntityAuthors | None = None):
        incidence = model.incidence
        self._entities = list(model.entities)
        self._bits = {entity: i for i, entity in enumerate(self._entities)}
        self._n_model = len(self._entities)
        self._n_functionalities = len(model.functionalities)
        self._ceiling = max_complexity(model)
        self._author_bits = authors.masks if authors else {}
        self._n_authors = authors.incidence.shape[1] if authors else 0
        # Functionality f touches the entities of _touching[f].  Entity i is
        # touched by the functionalities of _touched_by[i], steps straight to
        # the entities of _targets[i] and has the authors of _authors[i].
        self._touching = [_mask(np.flatnonzero(row)) for row in incidence.touch]
        self._touched_by = [_mask(np.flatnonzero(column)) for column in incidence.touch.T]
        self._targets = [0] * self._n_model
        for a, b in zip(incidence.step_from.tolist(), incidence.step_to.tolist()):
            self._targets[a] |= 1 << b
        self._authors = [self._author_bits.get(entity, 0) for entity in self._entities]
        # With d the distributed indicator, r = R'd, w = W'd and b = (R and W)'d,
        # a read of e by f pays w_e less f's own write of e, and a write pays r_e
        # less f's own read, so the cost is 2 * (r.w - sum b) = 2 * (d'(RW')d - sum b).
        self._products = incidence.read @ incidence.write.T
        self._both = (incidence.read & incidence.write).sum(axis=1)
        self._clusters: dict[int, Cluster] = {}
        self._costs: dict[int, int] = {}

    def masks(self, decomposition: Decomposition) -> tuple[int, ...]:
        """Member masks of the decomposition's clusters, in its order, checked to cover the model."""
        if decomposition.n_clusters == 0:
            raise MetricsError("decomposition has no clusters")
        decomposition.assignment()  # raises when an entity is in two clusters
        masks = tuple(
            sum(1 << self._bit(entity) for entity in cluster) for cluster in decomposition.clusters
        )
        covered = 0
        for mask in masks:
            covered |= mask
        missing = ~covered & ((1 << self._n_model) - 1)
        if missing:
            first = self._entities[(missing & -missing).bit_length() - 1]
            raise MetricsError(f"trace entity missing from decomposition: {first!r}")
        return masks

    def _bit(self, entity: str) -> int:
        bit = self._bits.get(entity)
        if bit is None:
            bit = self._bits[entity] = len(self._entities)
            self._entities.append(entity)
            self._touched_by.append(0)
            self._targets.append(0)
            self._authors.append(self._author_bits.get(entity, 0))
        return bit

    def clusters(self, partition: tuple[int, ...]) -> list[Cluster]:
        """The per-cluster terms of each member mask of the partition, in its order."""
        memo = self._clusters
        out = []
        for mask in partition:
            terms = memo.get(mask)
            if terms is None:
                terms = memo[mask] = self._cluster(mask)
            out.append(terms)
        return out

    def _cluster(self, mask: int) -> Cluster:
        functionalities = targets = authors = 0
        for i in members(mask):
            functionalities |= self._touched_by[i]
            targets |= self._targets[i]
            authors |= self._authors[i]
        size = mask.bit_count()
        # share of the cluster each touching functionality touches, in model order
        shares = [(self._touching[f] & mask).bit_count() / size for f in members(functionalities)]
        cohesion_term = sum(shares) / len(shares) if shares else 1.0
        return (mask, size, cohesion_term, authors.bit_count(), functionalities, targets)

    def splitting_cost(self, clusters: list[Cluster]) -> int:
        """Summed opposite-mode peers over the distinct accesses of distributed functionalities."""
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

    def uniform_complexity(self, clusters: list[Cluster]) -> float:
        if self._ceiling == 0:
            return 0.0
        return self.splitting_cost(clusters) / self._n_functionalities / self._ceiling

    def cohesion(self, clusters: list[Cluster]) -> float:
        total = 0.0
        for terms in clusters:
            total += terms[2]
        return total / len(clusters)

    def coupling(self, clusters: list[Cluster]) -> float:
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

    def tsr(self, clusters: list[Cluster]) -> float:
        if not self._n_authors:
            raise MetricsError("history has no authors")
        author_count_sum = 0
        for terms in clusters:
            author_count_sum += terms[3]
        return (author_count_sum / len(clusters)) / self._n_authors


def _mask(indices: np.ndarray) -> int:
    out = 0
    for i in indices.tolist():
        out |= 1 << i
    return out


def _scored(
    decomposition: Decomposition, model: AccessModel, authors: EntityAuthors | None = None
) -> tuple[Scorer, list[Cluster]]:
    """A fresh scorer and the per-cluster terms of the decomposition."""
    scorer = Scorer(model, authors)
    return scorer, scorer.clusters(scorer.masks(decomposition))


def complexity(decomposition: Decomposition, model: AccessModel) -> float:
    """Mean rework cost of functionalities split across clusters.

    A functionality is distributed when its trace touches more than one cluster.
    Each of its distinct (entity, mode) accesses costs one per other distributed
    functionality touching that entity in the opposite mode.
    """
    scorer, clusters = _scored(decomposition, model)
    if not model.functionalities:
        return 0.0
    return scorer.splitting_cost(clusters) / len(model.functionalities)


def max_complexity(model: AccessModel) -> float:
    """Splitting cost of the all-singletons decomposition, ignoring access modes.

    Here a functionality is distributed as soon as it touches two entities, and
    every distinct (entity, mode) access costs one per other distributed
    functionality touching that entity in any mode.
    """
    if not model.functionalities:
        return 0.0
    return model.incidence.singletons_cost / len(model.functionalities)


def uniform_complexity(decomposition: Decomposition, model: AccessModel) -> float:
    """Splitting cost normalized by the all-singletons worst case (0 when both are 0)."""
    scorer, clusters = _scored(decomposition, model)
    return scorer.uniform_complexity(clusters)


def cohesion(decomposition: Decomposition, model: AccessModel) -> float:
    """Mean share of a cluster its visiting functionalities actually touch."""
    scorer, clusters = _scored(decomposition, model)
    return scorer.cohesion(clusters)


def coupling(decomposition: Decomposition, model: AccessModel) -> float:
    """Mean share of a cluster's entities exposed to each other cluster.

    An entity is exposed to a cluster when some trace accesses it directly after
    an entity of that cluster.
    """
    scorer, clusters = _scored(decomposition, model)
    return scorer.coupling(clusters)


def tsr(
    decomposition: Decomposition,
    history: DevelopmentHistory,
    entity_files: dict[str, str | None],
) -> float:
    """Team size ratio: mean cluster author count over the total author count."""
    # no traces: every member is an entity beyond the model, with its authors only
    scorer, clusters = _scored(
        decomposition, AccessModel([]), history.entity_authors(entity_files)
    )
    return scorer.tsr(clusters)


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
    """All five quality numbers of one partition, given as member masks over the scorer's entities."""
    clusters = scorer.clusters(partition)
    uniform = scorer.uniform_complexity(clusters)
    cohesion_value = scorer.cohesion(clusters)
    coupling_value = scorer.coupling(clusters)
    tsr_value = scorer.tsr(clusters)
    return MetricsRecord(
        uniform,
        cohesion_value,
        coupling_value,
        tsr_value,
        combined_score(uniform, cohesion_value, coupling_value, tsr_value),
    )
