"""Decomposition quality: functionality splitting cost, cohesion, coupling, team size ratio."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .accesses import AccessModel
from .clustering import Decomposition
from .history import DevelopmentHistory


class MetricsError(ValueError):
    """Invalid metric input."""


@dataclass(frozen=True)
class _Partition:
    """A decomposition over the model's sorted entities."""

    labels: np.ndarray  # cluster index of each model entity
    membership: np.ndarray  # one-hot H, model entities x clusters
    sizes: list[int]  # members per cluster, counting members no trace mentions


def _partition(decomposition: Decomposition, model: AccessModel) -> _Partition:
    """Cluster matrix of the decomposition, verified to cover every entity of the model."""
    if decomposition.n_clusters == 0:
        raise MetricsError("decomposition has no clusters")
    assignment = decomposition.assignment()
    try:
        labels = np.array([assignment[entity] for entity in model.entities], dtype=np.intp)
    except KeyError as exc:
        raise MetricsError(f"trace entity missing from decomposition: {exc.args[0]!r}") from None
    membership = np.eye(decomposition.n_clusters, dtype=np.int64)[labels]
    return _Partition(labels, membership, [len(cluster) for cluster in decomposition.clusters])


def _splitting_cost(model: AccessModel, partition: _Partition) -> int:
    """Summed opposite-mode peers over the distinct accesses of distributed functionalities.

    With d the distributed indicator, r = R'd, w = W'd and b = (R and W)'d, a
    read of e by f pays w_e less f's own write of e, and a write pays r_e less
    f's own read, so the total is 2 * sum_e (r_e * w_e - b_e).
    """
    incidence = model.incidence
    spread = (incidence.touch @ partition.membership > 0).sum(axis=1)
    distributed = (spread >= 2).astype(np.int64)
    readers = distributed @ incidence.read
    writers = distributed @ incidence.write
    both = distributed @ (incidence.read & incidence.write)
    return 2 * int(readers @ writers - both.sum())


def _uniform_complexity(model: AccessModel, partition: _Partition) -> float:
    ceiling = max_complexity(model)
    if ceiling == 0:
        return 0.0
    return _splitting_cost(model, partition) / len(model.functionalities) / ceiling


def _cohesion(model: AccessModel, partition: _Partition) -> float:
    total = 0.0
    touched = (model.incidence.touch @ partition.membership).T.tolist()
    for counts, size in zip(touched, partition.sizes):
        shares = [count / size for count in counts if count]
        total += sum(shares) / len(shares) if shares else 1.0
    return total / len(partition.sizes)


def _coupling(model: AccessModel, partition: _Partition) -> float:
    incidence = model.incidence
    sizes = partition.sizes
    n = len(sizes)
    if n == 1:
        return 0.0
    # reached = (H' Adj) > 0, scattered from the adjacency's nonzero steps
    reached = np.zeros((n, len(partition.labels)), dtype=np.int64)
    reached[partition.labels[incidence.step_from], incidence.step_to] = 1
    # exposed[i][j]: entities of cluster j some trace reaches straight from cluster i
    exposed = (reached @ partition.membership).tolist()
    total = 0.0
    for i in range(n):
        for j in range(n):
            if i != j:
                total += exposed[i][j] / sizes[j]
    return total / (n * (n - 1))


def complexity(decomposition: Decomposition, model: AccessModel) -> float:
    """Mean rework cost of functionalities split across clusters.

    A functionality is distributed when its trace touches more than one cluster.
    Each of its distinct (entity, mode) accesses costs one per other distributed
    functionality touching that entity in the opposite mode.
    """
    partition = _partition(decomposition, model)
    if not model.functionalities:
        return 0.0
    return _splitting_cost(model, partition) / len(model.functionalities)


def max_complexity(model: AccessModel) -> float:
    """Splitting cost of the all-singletons decomposition, ignoring access modes.

    Here a functionality is distributed as soon as it touches two entities, and
    every distinct (entity, mode) access costs one per other distributed
    functionality touching that entity in any mode.
    """
    if not model.functionalities:
        return 0.0
    return model.incidence.max_splitting_cost / len(model.functionalities)


def uniform_complexity(decomposition: Decomposition, model: AccessModel) -> float:
    """Splitting cost normalized by the all-singletons worst case (0 when both are 0)."""
    return _uniform_complexity(model, _partition(decomposition, model))


def cohesion(decomposition: Decomposition, model: AccessModel) -> float:
    """Mean share of a cluster its visiting functionalities actually touch."""
    return _cohesion(model, _partition(decomposition, model))


def coupling(decomposition: Decomposition, model: AccessModel) -> float:
    """Mean share of a cluster's entities exposed to each other cluster.

    An entity is exposed to a cluster when some trace accesses it directly after
    an entity of that cluster.
    """
    return _coupling(model, _partition(decomposition, model))


def tsr(
    decomposition: Decomposition,
    history: DevelopmentHistory,
    entity_files: dict[str, str | None],
) -> float:
    """Team size ratio: mean cluster author count over the total author count."""
    total_authors = history.all_authors()
    if not total_authors:
        raise MetricsError("history has no authors")
    if decomposition.n_clusters == 0:
        raise MetricsError("decomposition has no clusters")
    author_count_sum = 0
    for cluster in decomposition.clusters:
        authors: set[str] = set()
        for entity in cluster:
            filename = entity_files.get(entity)
            if filename is not None and history.has_file(filename):
                authors |= history.authors(filename)
        author_count_sum += len(authors)
    return (author_count_sum / decomposition.n_clusters) / len(total_authors)


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


def evaluate(
    decomposition: Decomposition,
    model: AccessModel,
    history: DevelopmentHistory,
    entity_files: dict[str, str | None],
) -> MetricsRecord:
    """All five quality numbers of one decomposition, from one cluster matrix."""
    partition = _partition(decomposition, model)
    uniform = _uniform_complexity(model, partition)
    cohesion_value = _cohesion(model, partition)
    coupling_value = _coupling(model, partition)
    tsr_value = tsr(decomposition, history, entity_files)
    return MetricsRecord(
        uniform,
        cohesion_value,
        coupling_value,
        tsr_value,
        combined_score(uniform, cohesion_value, coupling_value, tsr_value),
    )
