"""Entity similarity measures over access traces and development history, and their weighted blend."""

from __future__ import annotations

import csv
import io
import logging
from dataclasses import dataclass
from posixpath import basename

import numpy as np

from .accesses import AccessModel
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
            if type(value) is not int or not 0 <= value <= 100:  # bool is an int subclass
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


def _row_shares(shared: np.ndarray, totals: np.ndarray) -> np.ndarray:
    """Each row of shared counts over that row's total; rows with a zero total stay zero."""
    column = totals[:, None]
    return np.divide(shared, column, out=np.zeros(shared.shape), where=column > 0)


def _mode_matrix(incidence: np.ndarray) -> np.ndarray:
    """Share of the functionalities touching entity i that also touch entity j, in one mode."""
    touches = incidence.astype(float)
    shared = touches.T @ touches
    return _row_shares(shared, np.diag(shared))


def _sequence_matrix(steps: np.ndarray) -> np.ndarray:
    """Steps between two distinct entities, either way, over the most frequent such pair."""
    pairs = steps + steps.T
    np.fill_diagonal(pairs, 0)
    longest = pairs.max(initial=0)
    if longest == 0:
        return np.zeros(pairs.shape)
    return pairs / longest


def _commit_matrix(entities, history: DevelopmentHistory, entity_files) -> np.ndarray:
    """Share of entity i's logical commits that also touched entity j's file.

    Entities mapped to None or to a file absent from the history get an empty row
    and column.  Entities mapped to one file share all their commits.
    """
    shared = history.shared_commits([entity_files[e] for e in entities])
    return _row_shares(shared, np.diag(shared))


def _author_matrix(entities, history: DevelopmentHistory, entity_files) -> np.ndarray:
    """Share of entity i's authors that also authored entity j's file: EA EA' over row sizes."""
    incidence = history.entity_authors([entity_files[e] for e in entities]).astype(np.int64)
    shared = incidence @ incidence.T
    return _row_shares(shared, np.diag(shared))


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
    history: DevelopmentHistory,
    entity_files: dict[str, str | None],
    include_history: bool = True,
) -> np.ndarray:
    """The six per-measure matrices over the model's sorted entities, stacked in MEASURE_NAMES order.

    With include_history=False the commit and author matrices are zero, and
    the history and the mapping are not read.
    """
    entities = model.entities
    n = len(entities)
    stack = np.zeros((len(MEASURE_NAMES), n, n))
    stack[0] = _mode_matrix(model.touch)
    stack[1] = _mode_matrix(model.read)
    stack[2] = _mode_matrix(model.write)
    stack[3] = _sequence_matrix(model.steps)
    if not include_history:
        return stack
    _validate_entity_files(model, history, entity_files)
    stack[4] = _commit_matrix(entities, history, entity_files)
    stack[5] = _author_matrix(entities, history, entity_files)
    return stack


def blend(stack: np.ndarray, weights: Weights) -> np.ndarray:
    """Weighted average of the stacked measure matrices, with unit diagonal."""
    values = np.tensordot(np.array(weights.as_tuple(), dtype=float), stack, axes=1)
    values /= 100.0
    np.fill_diagonal(values, 1.0)
    return values


def csv_cell(text: str) -> str:
    """A text cell as csv.writer writes it within a row."""
    buffer = io.StringIO()
    # with a second cell: a row of one empty cell is written as `""`
    csv.writer(buffer, lineterminator="\n").writerow((text, ""))
    return buffer.getvalue()[: -len(",\n")]


@dataclass(frozen=True)
class SimilarityMatrix:
    entities: tuple[str, ...]  # sorted
    values: np.ndarray  # square, [0, 1], unit diagonal

    def to_csv(self) -> str:
        """Header row of entities, then one row per entity with its cells to six decimals.

        Entity names are quoted as csv.writer quotes them, so a name holding a
        comma, a quote or a line break stays one cell.

        Blended matrices hold few distinct values, so each distinct float64 bit
        pattern is formatted once and the rows are joined from the looked-up
        strings.  Keying on bits, not on float equality, keeps -0.0 apart from
        0.0, so every cell reads as its own `f"{v:.6f}"`.
        """
        values = np.ascontiguousarray(self.values, dtype=np.float64)
        bits, inverse = np.unique(values.view(np.uint64), return_inverse=True)
        text = np.array([f"{v:.6f}" for v in bits.view(np.float64).tolist()], dtype=object)
        cells = text[inverse.reshape(values.shape)].tolist()
        names = [csv_cell(entity) for entity in self.entities]
        lines = ["entity," + ",".join(names)]
        lines.extend(name + "," + ",".join(row) for name, row in zip(names, cells))
        return "\n".join(lines) + "\n"


def build_similarity_matrix(
    model: AccessModel,
    history: DevelopmentHistory,
    entity_files: dict[str, str | None],
    weights: Weights,
) -> SimilarityMatrix:
    """Blend the six measures into one similarity matrix over sorted entities."""
    if not model.entities:
        raise SimilarityError("model has no entities")
    include_history = weights.commit + weights.author > 0
    stack = measure_matrices(model, history, entity_files, include_history=include_history)
    return SimilarityMatrix(model.entities, blend(stack, weights))
