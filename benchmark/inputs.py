"""Seeded input generators: access traces, history JSON and git repositories.

Every generator takes a `random.Random` built from the workload seed and uses
nothing else, so one seed always gives byte-identical files and, for the git
repositories, identical object ids.  Each generator also returns its own record
of what it made; the checks derive the expected outputs from that record, never
from the program.
"""

from __future__ import annotations

import json
import os
import subprocess
from dataclasses import dataclass, field
from itertools import permutations

EPOCH = 1_600_000_000
EXT = ".java"


@dataclass(frozen=True)
class ModelSpec:
    entities: int
    functionalities: int
    trace_len: int
    authors: int
    commits: int
    max_commit_files: int


@dataclass
class Model:
    """One codebase for the sweep workloads: traces plus the commits behind its history."""

    traces: dict[str, list[tuple[str, str]]]
    entity_files: dict[str, str]
    commits: list[tuple[str, frozenset[str]]]  # (author, files), one logical commit each

    def accesses_json(self) -> str:
        payload = {name: [[e, m] for e, m in steps] for name, steps in self.traces.items()}
        return json.dumps(payload, indent=1, sort_keys=True) + "\n"

    def history_json(self) -> str:
        count: dict[str, int] = {}
        authors: dict[str, set[str]] = {}
        co: dict[str, dict[str, int]] = {}
        for author, files in self.commits:
            for name in files:
                count[name] = count.get(name, 0) + 1
                authors.setdefault(name, set()).add(author)
            for a, b in permutations(sorted(files), 2):
                partners = co.setdefault(a, {})
                partners[b] = partners.get(b, 0) + 1
        payload = {
            "fileChanges": {
                f: {"count": count[f], "with": dict(sorted(co.get(f, {}).items()))}
                for f in sorted(count)
            },
            "authorship": {f: sorted(authors[f]) for f in sorted(count)},
        }
        return json.dumps(payload, indent=1, sort_keys=True) + "\n"


def make_model(rng, spec: ModelSpec) -> Model:
    """Traces of exactly `trace_len` steps each, every entity used at least once."""
    if spec.functionalities * spec.trace_len < spec.entities:
        raise ValueError("traces too short to use every entity")
    entities = [f"Entity{i:03d}" for i in range(spec.entities)]
    names = [f"func{k:03d}" for k in range(spec.functionalities)]
    traces = {
        name: [(rng.choice(entities), rng.choice("RW")) for _ in range(spec.trace_len)]
        for name in names
    }
    slots = [(name, pos) for pos in range(spec.trace_len) for name in names]
    placed = entities[:]
    rng.shuffle(placed)
    for entity, (name, pos) in zip(placed, slots):
        traces[name][pos] = (entity, rng.choice("RW"))
    entity_files = {e: f"src/main/java/app/{e}{EXT}" for e in entities}
    authors = [f"dev{i:02d}@example.com" for i in range(spec.authors)]
    files = list(entity_files.values()) + [f"src/main/java/app/util/Helper{i:02d}{EXT}" for i in range(8)]
    commits = [(rng.choice(authors), frozenset([name])) for name in files]
    for _ in range(spec.commits):
        touched = rng.sample(files, rng.randint(1, spec.max_commit_files))
        commits.append((rng.choice(authors), frozenset(touched)))
    return Model(traces, entity_files, commits)


def write_model(model: Model, directory: str) -> tuple[str, str]:
    os.makedirs(directory, exist_ok=True)
    accesses = os.path.join(directory, "accesses.json")
    history = os.path.join(directory, "history.json")
    with open(accesses, "w", encoding="utf-8") as handle:
        handle.write(model.accesses_json())
    with open(history, "w", encoding="utf-8") as handle:
        handle.write(model.history_json())
    return accesses, history


# --- git repositories -------------------------------------------------------------------

@dataclass(frozen=True)
class RepoSpec:
    commits: int
    authors: int
    stable_files: int  # created first, never deleted; bulk commits touch only these
    bulk_every: int  # one commit in this many touches more than max_files files
    window: int = 3600
    max_files: int = 100
    type_change: bool = False  # one file turns into a symlink (git status T)
    non_ascii: bool = False  # some file names that git quotes by default


@dataclass
class FileState:
    path: str
    java: bool
    alive: bool = True
    revision: int = 0


@dataclass
class RepoRecord:
    """What the generator committed, in commit order (times strictly increase)."""

    files: list[FileState] = field(default_factory=list)
    # (time, author as committed, [(status, file id)])
    commits: list[tuple[int, str, list[tuple[str, int]]]] = field(default_factory=list)


def _blob(file_id: int, state: FileState) -> bytes:
    lines = [f"// file {file_id} revision {state.revision}"]
    lines += [f"class F{file_id}x{j} {{ int v{file_id}_{j} = {j * 7 + file_id}; }}" for j in range(6)]
    lines.append(f"// file {file_id} tail {state.revision}")
    return ("\n".join(lines) + "\n").encode()


def _data(payload: bytes) -> bytes:
    return b"data %d\n" % len(payload) + payload + b"\n"


class _RepoBuilder:
    def __init__(self, rng, spec: RepoSpec):
        self.rng = rng
        self.spec = spec
        self.record = RepoRecord()
        self.stream: list[bytes] = []
        self.used_paths: set[str] = set()
        self.authors = [f"Dev{i:02d}@Example.com" for i in range(spec.authors)]
        self.time = EPOCH
        self.author = self.authors[0]
        self.serial = 0

    def _fresh_path(self, java: bool, quotable: bool = True) -> str:
        while True:
            self.serial += 1
            if java:
                stem = f"Cls{self.serial:05d}"
                if quotable and self.spec.non_ascii and self.serial % 5 == 0:
                    stem = f"Café{self.serial:05d}"
                path = f"src/main/java/mod{self.rng.randrange(6)}/{stem}{EXT}"
            else:
                path = f"docs/note{self.serial:05d}.md"
            if path not in self.used_paths:
                self.used_paths.add(path)
                return path

    def _next_author_and_time(self) -> None:
        roll = self.rng.random()
        if roll < 0.35:  # same-author burst, inside the bundling window
            self.time += self.rng.randint(30, self.spec.window)
        elif roll < 0.45:  # same author, but just past the window
            self.time += self.rng.randint(self.spec.window + 1, 3 * self.spec.window)
        else:
            self.author = self.rng.choice(self.authors)
            self.time += self.rng.randint(1, 6 * self.spec.window)

    def commit(self, ops: list[tuple[str, int, str | None]]) -> None:
        """ops: (status, file id, old path for renames); file states are already updated."""
        self._next_author_and_time()
        message = f"change {len(self.record.commits)}\n".encode()
        head = (
            b"commit refs/heads/main\n"
            + f"author Dev <{self.author}> {self.time} +0000\n".encode()
            + f"committer Dev <{self.author}> {self.time} +0000\n".encode()
            + _data(message)
        )
        body = []
        for status, file_id, old_path in ops:
            state = self.record.files[file_id]
            path = state.path.encode()
            if status == "D":
                body.append(b"D " + path + b"\n")
            elif status == "R":
                body.append(b"R " + old_path.encode() + b" " + path + b"\n")
            elif status == "T":
                body.append(b"M 120000 inline " + path + b"\n" + _data(b"../shared/Target.java"))
            else:
                body.append(b"M 100644 inline " + path + b"\n" + _data(_blob(file_id, state)))
        self.stream.append(head + b"".join(body))
        self.record.commits.append((self.time, self.author, [(s, f) for s, f, _ in ops]))

    def new_file(self, java: bool) -> int:
        self.record.files.append(FileState(self._fresh_path(java), java))
        return len(self.record.files) - 1

    def build(self) -> None:
        spec, rng, files = self.spec, self.rng, self.record.files
        live: list[int] = []  # live java files that ordinary commits may touch
        for start in range(0, spec.stable_files, 20):
            ids = [self.new_file(True) for _ in range(min(20, spec.stable_files - start))]
            live.extend(ids)
            self.commit([("A", i, None) for i in ids])
        dead: list[int] = []
        docs: list[int] = []
        while len(self.record.commits) < spec.commits:
            number = len(self.record.commits)
            if spec.bulk_every and number % spec.bulk_every == 0:
                chosen = sorted(rng.sample(range(spec.stable_files), spec.max_files + 15))
                for i in chosen:
                    files[i].revision += 1
                self.commit([("M", i, None) for i in chosen])
                continue
            if spec.type_change and number == spec.commits // 2:
                typed = rng.randrange(spec.stable_files)
                live.remove(typed)
                self.commit([("T", typed, None)])
                continue
            ops: list[tuple[str, int, str | None]] = []
            touched: set[int] = set()
            for _ in range(rng.randint(1, 5)):
                roll = rng.random()
                if roll < 0.12 or len(live) < spec.stable_files + 4:
                    file_id = self.new_file(True)
                    live.append(file_id)
                    ops.append(("A", file_id, None))
                elif roll < 0.55:
                    file_id = rng.choice(live)
                    if file_id in touched:
                        continue
                    files[file_id].revision += 1
                    ops.append(("M", file_id, None))
                elif roll < 0.65:
                    file_id = rng.choice(live)
                    if file_id in touched or not files[file_id].path.isascii():
                        continue
                    old = files[file_id].path
                    files[file_id].path = self._fresh_path(True, quotable=False)
                    ops.append(("R", file_id, old))
                elif roll < 0.80:
                    file_id = live[rng.randrange(spec.stable_files, len(live))]
                    if file_id in touched:
                        continue
                    live.remove(file_id)
                    dead.append(file_id)
                    files[file_id].alive = False
                    ops.append(("D", file_id, None))
                elif roll < 0.88:
                    if not dead:
                        continue
                    file_id = dead.pop(rng.randrange(len(dead)))
                    live.append(file_id)
                    files[file_id].alive = True
                    files[file_id].revision += 1
                    ops.append(("A", file_id, None))
                elif docs and rng.random() < 0.5:
                    file_id = rng.choice(docs)
                    if file_id in touched:
                        continue
                    files[file_id].revision += 1
                    ops.append(("M", file_id, None))
                else:
                    file_id = self.new_file(False)
                    docs.append(file_id)
                    ops.append(("A", file_id, None))
                touched.add(file_id)
            if ops:
                self.commit(ops)


def build_repo(rng, spec: RepoSpec, directory: str, env: dict) -> RepoRecord:
    """Create a bare repository at `directory` with `git fast-import`."""
    builder = _RepoBuilder(rng, spec)
    builder.build()
    subprocess.run(
        ["git", "init", "--quiet", "--bare", "--initial-branch=main", directory],
        check=True, env=env, capture_output=True,
    )
    subprocess.run(
        ["git", "-C", directory, "fast-import", "--quiet"],
        input=b"".join(builder.stream),
        check=True, env=env, capture_output=True,
    )
    return builder.record
