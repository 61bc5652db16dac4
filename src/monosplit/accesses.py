"""Functionality access traces: which domain entities each functionality reads and writes."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

READ = "R"
WRITE = "W"

_MODES = (READ, WRITE)


class AccessModelError(ValueError):
    """Malformed access description."""


@dataclass(frozen=True)
class AccessModel:
    """All functionalities of one monolith and their incidence arrays.

    The entity set is derived: exactly the names appearing in traces.  The
    arrays have a row per functionality, in model order, and a column per
    entity, in sorted order; `steps` has a row and a column per entity.
    """

    functionalities: tuple[str, ...]  # names, in input order
    entities: tuple[str, ...]  # sorted
    read: np.ndarray  # 1 where the functionality reads the entity
    write: np.ndarray  # 1 where it writes the entity
    touch: np.ndarray  # 1 where it reads or writes the entity
    steps: np.ndarray  # how often a trace steps from the row's entity straight to the column's


def _reject_duplicate_keys(pairs):
    seen = set()
    for key, _ in pairs:
        if key in seen:
            raise AccessModelError(f"duplicate functionality key: {key!r}")
        seen.add(key)
    return dict(pairs)


def load_access_model(text: str) -> AccessModel:
    """Parse the accesses JSON mapping functionality name -> [[entity, mode], ...]."""
    try:
        raw = json.loads(text, object_pairs_hook=_reject_duplicate_keys)
    except json.JSONDecodeError as exc:
        raise AccessModelError(f"invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise AccessModelError("top level must be an object of functionalities")
    for name, trace in raw.items():
        if not name:
            raise AccessModelError("empty functionality name")
        if not isinstance(trace, list):
            raise AccessModelError(f"trace of {name!r} must be a list")
        for step in trace:
            if not isinstance(step, list) or len(step) != 2:
                raise AccessModelError(f"access in {name!r} must be an [entity, mode] pair")
            entity, mode = step
            if not isinstance(entity, str) or not entity:
                raise AccessModelError(f"bad entity name in {name!r}: {entity!r}")
            if mode not in _MODES:
                raise AccessModelError(f"bad access mode in {name!r}: {mode!r}")
    traces = list(raw.values())
    entities = tuple(sorted({entity for trace in traces for entity, _ in trace}))
    n = len(entities)
    column = {e: i for i, e in enumerate(entities)}
    cells: dict[str, list[int]] = {READ: [], WRITE: []}  # row * n + column
    step_cells: list[int] = []  # from * n + to, once per step
    for row, trace in enumerate(traces):
        path = [column[entity] for entity, _ in trace]
        for (_, mode), entity in zip(trace, path):
            cells[mode].append(row * n + entity)
        step_cells.extend(a * n + b for a, b in zip(path, path[1:]))
    read = np.zeros((len(traces), n), dtype=np.int64)
    write = np.zeros_like(read)
    read.flat[cells[READ]] = 1
    write.flat[cells[WRITE]] = 1
    steps = np.bincount(np.array(step_cells, dtype=np.intp), minlength=n * n).reshape(n, n)
    return AccessModel(tuple(raw), entities, read, write, read | write, steps)
