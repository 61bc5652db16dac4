"""Functionality access traces: which domain entities each functionality reads and writes."""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

READ = "R"
WRITE = "W"
ANY = "ANY"  # union of read and write

_MODES = (READ, WRITE)


class AccessModelError(ValueError):
    """Malformed access description."""


@dataclass(frozen=True)
class Access:
    entity: str
    mode: str  # READ or WRITE


@dataclass(frozen=True)
class Functionality:
    name: str
    trace: tuple[Access, ...]  # ordered, consecutive duplicates preserved


@dataclass(frozen=True)
class Incidence:
    """Integer views of the traces: functionalities in model order, entities in sorted order."""

    read: np.ndarray  # (functionalities, entities): 1 where the functionality reads the entity
    write: np.ndarray  # (functionalities, entities): 1 where it writes the entity
    touch: np.ndarray  # (functionalities, entities): 1 where it reads or writes the entity
    # Directed trace adjacency (entities x entities), kept as its nonzero entries:
    # some trace steps straight from entity step_from[i] to entity step_to[i].
    step_from: np.ndarray
    step_to: np.ndarray
    max_splitting_cost: int  # all-singletons splitting cost ignoring modes (max_complexity numerator)


class AccessModel:
    """All functionalities of one monolith plus their incidence arrays.

    The entity set is derived: exactly the names appearing in traces.
    """

    def __init__(self, functionalities: list[Functionality]):
        self.functionalities: tuple[Functionality, ...] = tuple(functionalities)
        names = [f.name for f in self.functionalities]
        if len(set(names)) != len(names):
            raise AccessModelError("duplicate functionality name")
        self.entities: tuple[str, ...] = tuple(
            sorted({a.entity for f in self.functionalities for a in f.trace})
        )

    @cached_property
    def incidence(self) -> Incidence:
        """Read, write and adjacency arrays, built on first use."""
        n = len(self.entities)
        column = {e: i for i, e in enumerate(self.entities)}
        cells: dict[str, list[int]] = {READ: [], WRITE: []}  # row * n + column
        steps: set[int] = set()  # from * n + to
        for row, funct in enumerate(self.functionalities):
            path = [column[a.entity] for a in funct.trace]
            for access, entity in zip(funct.trace, path):
                cells[access.mode].append(row * n + entity)
            steps.update(a * n + b for a, b in zip(path, path[1:]))
        read = np.zeros((len(self.functionalities), n), dtype=np.int64)
        write = np.zeros_like(read)
        read.flat[cells[READ]] = 1
        write.flat[cells[WRITE]] = 1
        step_from, step_to = np.divmod(np.array(sorted(steps), dtype=np.intp), n)
        # A functionality touching two entities is split by the all-singletons
        # decomposition; each of its distinct (entity, mode) accesses costs one
        # per other such functionality touching that entity in any mode.
        touch = read | write
        distributed = touch.sum(axis=1) >= 2
        touchers = touch[distributed].sum(axis=0)
        accesses = (read + write)[distributed].sum(axis=0)
        return Incidence(
            read, write, touch, step_from, step_to, int(accesses @ (touchers - 1))
        )

    def to_json_dict(self) -> dict:
        return {
            f.name: [[a.entity, a.mode] for a in f.trace]
            for f in sorted(self.functionalities, key=lambda f: f.name)
        }

    def serialize(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"


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
    functionalities = []
    for name, trace in raw.items():
        if not isinstance(name, str) or not name:
            raise AccessModelError("empty functionality name")
        if not isinstance(trace, list):
            raise AccessModelError(f"trace of {name!r} must be a list")
        accesses = []
        for step in trace:
            if not isinstance(step, list) or len(step) != 2:
                raise AccessModelError(f"access in {name!r} must be an [entity, mode] pair")
            entity, mode = step
            if not isinstance(entity, str) or not entity:
                raise AccessModelError(f"bad entity name in {name!r}: {entity!r}")
            if mode not in _MODES:
                raise AccessModelError(f"bad access mode in {name!r}: {mode!r}")
            accesses.append(Access(entity, mode))
        functionalities.append(Functionality(name, tuple(accesses)))
    return AccessModel(functionalities)
