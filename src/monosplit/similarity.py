"""Entity similarity measures over access traces and development history, and their weighted blend."""

from __future__ import annotations

import csv
import io
import logging
from dataclasses import dataclass

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
        digits = [p.strip() for p in parts]
        # ASCII digits alone, as `read_results_csv` takes a weight: int() also reads
        # `1_0`, `+10` and non-ASCII digits
        if not all(d.isascii() and d.isdigit() for d in digits):
            raise SimilarityError(f"weights must be integers in ASCII digits: {text!r}")
        try:
            numbers = [int(d) for d in digits]
        except ValueError:  # more digits than `int` reads from a string
            raise SimilarityError(f"weights must be integers: {text!r}") from None
        return cls(*numbers)


def map_entities_to_files(entities, history: DevelopmentHistory) -> dict[str, str | None]:
    """Map each entity name to the history file of that name less its last extension.

    `mine` keeps the files of one extension, so the history settles it; of a
    multi-dot extension (`.spec.ts`) only the last part goes.
    Multiple candidates: the shortest path wins.  No candidate: the entity maps
    to None and takes zero history similarity everywhere.
    """
    by_stem: dict[str, list[str]] = {}
    for filename in history.files():
        name = filename.rpartition("/")[2]
        by_stem.setdefault(name.rpartition(".")[0] or name, []).append(filename)
    mapping: dict[str, str | None] = {}
    for entity in entities:
        candidates = by_stem.get(entity, [])
        if not candidates:
            logger.warning("entity %s: no history file named %s", entity, entity)
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


def _row_shares(shared: np.ndarray) -> np.ndarray:
    """Each row of shared counts over its diagonal cell, the row's own count; zero rows stay zero."""
    column = np.diag(shared)[:, None]
    return np.divide(shared, column, out=np.zeros(shared.shape), where=column > 0)


def _mode_matrix(incidence: np.ndarray) -> np.ndarray:
    """Share of the functionalities touching entity i that also touch entity j, in one mode."""
    touches = incidence.astype(float)
    return _row_shares(touches.T @ touches)


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
    return _row_shares(history.shared_commits([entity_files[e] for e in entities]))


def _author_matrix(entities, history: DevelopmentHistory, entity_files) -> np.ndarray:
    """Share of entity i's authors that also authored entity j's file: EA EA' over row sizes."""
    incidence = history.entity_authors([entity_files[e] for e in entities]).astype(np.int64)
    return _row_shares(incidence @ incidence.T)


def measure_matrices(
    model: AccessModel,
    history: DevelopmentHistory,
    entity_files: dict[str, str | None],
    weights: Weights | None = None,
) -> np.ndarray:
    """The six per-measure matrices over the model's sorted entities, stacked in MEASURE_NAMES order.

    Given weights, only the measures of nonzero weight are computed; the others
    stay zero matrices.  `blend` adds 0 * 0 = +0.0 for each where it would add
    0 * m = +0.0, so the blend keeps every bit.  With commit and author weights
    of 0, the history and the mapping are not read.  Where a history measure is
    computed, the mapping holds every entity (KeyError if not), and a file
    absent from the history reads as no file.
    """
    entities = model.entities
    n = len(entities)
    measures = (
        lambda: _mode_matrix(model.touch),
        lambda: _mode_matrix(model.read),
        lambda: _mode_matrix(model.write),
        lambda: _sequence_matrix(model.steps),
        lambda: _commit_matrix(entities, history, entity_files),
        lambda: _author_matrix(entities, history, entity_files),
    )
    wanted = weights.as_tuple() if weights is not None else (1,) * len(MEASURE_NAMES)
    stack = np.zeros((len(MEASURE_NAMES), n, n))
    for index, (weight, measure) in enumerate(zip(wanted, measures)):
        if weight:
            stack[index] = measure()
    return stack


def blend(stack: np.ndarray, weights: Weights) -> np.ndarray:
    """Weighted average of the stacked measure matrices, with unit diagonal."""
    values = np.tensordot(np.array(weights.as_tuple(), dtype=float), stack, axes=1)
    values /= 100.0
    np.fill_diagonal(values, 1.0)
    return values


def csv_cell(text: str) -> str:
    """A text cell as csv.writer writes it within a row.

    A text holding none of `,`, `"`, `\\r` and `\\n` is written as it is.
    """
    if "," not in text and '"' not in text and "\r" not in text and "\n" not in text:
        return text
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerow((text,))
    return buffer.getvalue()[:-1]


def matrix_csv(entities, values: np.ndarray) -> str:
    """Header row of entities, then one row per entity with its cells to six decimals.

    Entity names are quoted as csv.writer quotes them (`csv_cell`), so a
    name holding a comma, a quote or a line break stays one cell.

    Blended matrices hold few distinct values, so each distinct float64 bit pattern is
    formatted once: one sort finds the patterns, a binary search finds each cell's, and
    the rows are joined from the looked-up strings.  Keying on bits, not on float
    equality, keeps -0.0 apart from 0.0, so every cell reads as its own `f"{v:.6f}"`.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    cells = values.view(np.uint64).ravel()
    bits = np.sort(cells)
    first = np.ones(bits.shape, dtype=bool)
    np.not_equal(bits[1:], bits[:-1], out=first[1:])
    bits = bits[first]
    text = np.array([f"{v:.6f}" for v in bits.view(np.float64).tolist()], dtype=object)
    rows = text[np.searchsorted(bits, cells).reshape(values.shape)].tolist()
    names = list(map(csv_cell, entities))
    lines = ["entity," + ",".join(names)]
    lines.extend(name + "," + ",".join(row) for name, row in zip(names, rows))
    return "\n".join(lines) + "\n"


def build_similarity_matrix(
    model: AccessModel,
    history: DevelopmentHistory,
    entity_files: dict[str, str | None],
    weights: Weights,
) -> np.ndarray:
    """The blend of the six measures, rows and columns in `model.entities` order."""
    if not model.entities:
        raise SimilarityError("model has no entities")
    stack = measure_matrices(model, history, entity_files, weights)
    return blend(stack, weights)
