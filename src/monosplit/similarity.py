"""Entity similarity measures over access traces and development history, and their weighted blend."""

from __future__ import annotations

import logging
from dataclasses import dataclass
from posixpath import basename

import numpy as np

from .accesses import ANY, READ, WRITE, AccessModel
from .history import DevelopmentHistory

logger = logging.getLogger(__name__)

MEASURE_NAMES = ("access", "read", "write", "sequence", "commit", "author")


class SimilarityError(ValueError):
    """Invalid similarity computation input."""


@dataclass(frozen=True)
class Weights:
    """Blend weights for the six measures; integers summing to 100."""

    access: int
    read: int
    write: int
    sequence: int
    commit: int
    author: int

    def __post_init__(self):
        for name, value in zip(MEASURE_NAMES, self.as_tuple()):
            if not isinstance(value, int) or not 0 <= value <= 100:
                raise SimilarityError(f"weight {name} must be an integer in [0, 100], got {value!r}")
        if sum(self.as_tuple()) != 100:
            raise SimilarityError(f"weights must sum to 100, got {sum(self.as_tuple())}")

    def as_tuple(self) -> tuple[int, int, int, int, int, int]:
        return (self.access, self.read, self.write, self.sequence, self.commit, self.author)

    @classmethod
    def from_text(cls, text: str) -> "Weights":
        parts = text.split(",")
        if len(parts) != 6:
            raise SimilarityError(f"expected 6 comma-separated weights, got {len(parts)}")
        try:
            numbers = [int(p.strip()) for p in parts]
        except ValueError:
            raise SimilarityError(f"weights must be integers: {text!r}") from None
        return cls(*numbers)


def access_similarity(model: AccessModel, entity_a: str, entity_b: str, mode: str = ANY) -> float:
    """Share of the functionalities touching entity_a (in mode) that also touch entity_b."""
    functs_a = model.functionalities_accessing(entity_a, mode)
    functs_b = model.functionalities_accessing(entity_b, mode)
    if not functs_a:
        return 0.0
    return len(functs_a & functs_b) / len(functs_a)


def adjacency_pair_counts(model: AccessModel) -> tuple[dict[tuple[str, str], int], int]:
    """Count consecutive-position entity pairs over all traces.

    Keys are sorted (entity, entity) pairs of distinct entities; the second item
    is the maximum count over all pairs (0 when no pair is ever adjacent).
    """
    counts: dict[tuple[str, str], int] = {}
    for funct in model.functionalities:
        trace = funct.trace
        for first, second in zip(trace, trace[1:]):
            if first.entity == second.entity:
                continue
            key = (
                (first.entity, second.entity)
                if first.entity < second.entity
                else (second.entity, first.entity)
            )
            counts[key] = counts.get(key, 0) + 1
    return counts, max(counts.values(), default=0)


def sequence_similarity(model: AccessModel, entity_a: str, entity_b: str) -> float:
    """Adjacency count of the pair, normalized by the most-adjacent pair in the model."""
    model.functionalities_accessing(entity_a)  # entity existence check
    model.functionalities_accessing(entity_b)
    if entity_a == entity_b:
        return 0.0
    counts, max_count = adjacency_pair_counts(model)
    if max_count == 0:
        return 0.0
    key = (entity_a, entity_b) if entity_a < entity_b else (entity_b, entity_a)
    return counts.get(key, 0) / max_count


def commit_similarity(history: DevelopmentHistory, file_a: str, file_b: str) -> float:
    """Share of file_a's logical commits that also touched file_b."""
    return history.co_change_count(file_a, file_b) / history.commit_count(file_a)


def author_similarity(history: DevelopmentHistory, file_a: str, file_b: str) -> float:
    """Share of file_a's authors that also authored file_b."""
    authors_a = history.authors(file_a)
    authors_b = history.authors(file_b)
    if not authors_a:
        return 0.0
    return len(authors_a & authors_b) / len(authors_a)


def map_entities_to_files(
    entities, history: DevelopmentHistory, extension: str = ".java"
) -> dict[str, str | None]:
    """Map each entity name to the history file named <entity><extension>.

    Multiple candidates: the shortest path wins.  No candidate: the entity maps
    to None and takes zero history similarity everywhere.
    """
    by_basename: dict[str, list[str]] = {}
    for filename in history.files():
        by_basename.setdefault(basename(filename), []).append(filename)
    mapping: dict[str, str | None] = {}
    for entity in entities:
        candidates = by_basename.get(entity + extension, [])
        if not candidates:
            logger.warning("entity %s: no history file named %s%s", entity, entity, extension)
            mapping[entity] = None
        elif len(candidates) > 1:
            chosen = min(candidates, key=lambda p: (len(p), p))
            logger.warning(
                "entity %s: %d candidate files, keeping %s", entity, len(candidates), chosen
            )
            mapping[entity] = chosen
        else:
            mapping[entity] = candidates[0]
    return mapping


def _mode_matrix(model: AccessModel, mode: str) -> np.ndarray:
    incidence = model.incidence
    touches = {ANY: incidence.touch, READ: incidence.read, WRITE: incidence.write}[mode].astype(float)
    shared = touches.T @ touches
    sizes = np.diag(shared).copy()
    out = np.zeros_like(shared)
    nonzero = sizes > 0
    out[nonzero, :] = shared[nonzero, :] / sizes[nonzero, None]
    return out


def _sequence_matrix(model: AccessModel) -> np.ndarray:
    entities = model.entities
    index = {e: i for i, e in enumerate(entities)}
    counts, max_count = adjacency_pair_counts(model)
    out = np.zeros((len(entities), len(entities)))
    if max_count == 0:
        return out
    for (entity_a, entity_b), count in counts.items():
        i, j = index[entity_a], index[entity_b]
        out[i, j] = out[j, i] = count / max_count
    return out


def _validate_entity_files(model: AccessModel, history: DevelopmentHistory, entity_files) -> None:
    missing = [e for e in model.entities if e not in entity_files]
    if missing:
        raise SimilarityError(
            "entities with nonzero history weights lack a file mapping: " + ", ".join(missing)
        )
    lost = [
        e for e in model.entities if entity_files[e] is not None and not history.has_file(entity_files[e])
    ]
    if lost:
        raise SimilarityError(
            "entities mapped to files absent from history: "
            + ", ".join(f"{e} -> {entity_files[e]}" for e in lost)
        )


def measure_matrices(
    model: AccessModel,
    history: DevelopmentHistory | None,
    entity_files: dict[str, str | None] | None,
    include_history: bool = True,
) -> dict[str, np.ndarray]:
    """Compute the six per-measure matrices over the model's sorted entities.

    With include_history=False the commit and author matrices are zero and the
    history inputs may be None.
    """
    entities = model.entities
    n = len(entities)
    matrices = {
        "access": _mode_matrix(model, ANY),
        "read": _mode_matrix(model, READ),
        "write": _mode_matrix(model, WRITE),
        "sequence": _sequence_matrix(model),
        "commit": np.zeros((n, n)),
        "author": np.zeros((n, n)),
    }
    if not include_history:
        return matrices
    if history is None or entity_files is None:
        raise SimilarityError("history measures requested without history data")
    _validate_entity_files(model, history, entity_files)
    commit = matrices["commit"]
    author = matrices["author"]
    files = [entity_files[e] for e in entities]
    author_sets = [history.authors(f) if f is not None else frozenset() for f in files]
    for i in range(n):
        if files[i] is None:
            continue
        count_i = history.commit_count(files[i])
        authors_i = author_sets[i]
        for j in range(n):
            if files[j] is None:
                continue
            commit[i, j] = history.co_change_count(files[i], files[j]) / count_i
            if authors_i:
                author[i, j] = len(authors_i & author_sets[j]) / len(authors_i)
    return matrices


def blend(matrices: dict[str, np.ndarray], weights: Weights) -> np.ndarray:
    """Weighted average of the six measure matrices, with unit diagonal."""
    values = np.zeros_like(matrices["access"])
    for name, weight in zip(MEASURE_NAMES, weights.as_tuple()):
        if weight:
            values += weight * matrices[name]
    values /= 100.0
    np.fill_diagonal(values, 1.0)
    return values


@dataclass(frozen=True)
class SimilarityMatrix:
    entities: tuple[str, ...]  # sorted
    values: np.ndarray  # square, [0, 1], unit diagonal

    def value(self, entity_a: str, entity_b: str) -> float:
        i = self.entities.index(entity_a)
        j = self.entities.index(entity_b)
        return float(self.values[i, j])

    def to_csv(self) -> str:
        lines = ["entity," + ",".join(self.entities)]
        for i, entity in enumerate(self.entities):
            lines.append(entity + "," + ",".join(f"{v:.6f}" for v in self.values[i]))
        return "\n".join(lines) + "\n"


def build_similarity_matrix(
    model: AccessModel,
    history: DevelopmentHistory | None,
    entity_files: dict[str, str | None] | None,
    weights: Weights,
) -> SimilarityMatrix:
    """Blend the six measures into one similarity matrix over sorted entities."""
    if not model.entities:
        raise SimilarityError("model has no entities")
    include_history = weights.commit + weights.author > 0
    matrices = measure_matrices(model, history, entity_files, include_history=include_history)
    return SimilarityMatrix(model.entities, blend(matrices, weights))
