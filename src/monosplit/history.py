"""Mining of git development history into per-file change counts, co-changes and author sets."""

from __future__ import annotations

import json
import re
import subprocess
from collections import Counter, defaultdict
from dataclasses import dataclass, replace
from itertools import combinations

import numpy as np

ADD = "A"
DELETE = "D"
MODIFY = "M"
RENAME = "R"

# header: commit<TAB><hash><TAB><unix time><TAB><author email>
GIT_LOG_ARGS = [
    "log",
    "--reverse",
    "--name-status",
    "--find-renames",
    "--pretty=format:commit%x09%H%x09%ct%x09%ae",
]

_STATUS_RE = re.compile(r"^([A-Z])(\d*)$")


class GitLogError(ValueError):
    """Malformed git log text."""


class HistoryError(ValueError):
    """History pipeline failure (unusable or malformed history data)."""


@dataclass(frozen=True)
class ChangeEvent:
    commit_hash: str
    timestamp: int  # unix seconds
    author: str  # email, lowercased
    status: str  # ADD / DELETE / MODIFY / RENAME
    filename: str
    previous_filename: str | None = None  # RENAME only
    rename_similarity: int | None = None  # RENAME only, 50..100


@dataclass(frozen=True)
class LogicalCommit:
    """One unit of work: a run of nearby same-author raw commits."""

    first_timestamp: int
    author: str
    files: frozenset[str]
    raw_commit_count: int


def read_git_log(repo_path: str) -> str:
    """Run git against a repository and return the raw log text."""
    try:
        proc = subprocess.run(
            ["git", "-C", repo_path, *GIT_LOG_ARGS],
            capture_output=True,
            text=True,
        )
    except OSError as exc:
        raise HistoryError(f"cannot run git: {exc}") from exc
    if proc.returncode != 0:
        raise HistoryError(f"git log failed: {proc.stderr.strip()}")
    return proc.stdout


def parse_git_log(text: str, extension: str = ".java") -> list[ChangeEvent]:
    """Parse log text into change events, keeping only files with the given extension.

    Events come back ordered by (timestamp, commit hash); file order within a
    commit is preserved.
    """
    events: list[ChangeEvent] = []
    current: tuple[str, int, str] | None = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("commit\t"):
            parts = line.split("\t")
            if len(parts) != 4 or not all(parts[1:]):
                raise GitLogError(f"line {lineno}: malformed commit header: {line!r}")
            try:
                timestamp = int(parts[2])
            except ValueError:
                raise GitLogError(f"line {lineno}: bad timestamp: {parts[2]!r}") from None
            current = (parts[1], timestamp, parts[3].lower())
            continue
        if current is None:
            raise GitLogError(f"line {lineno}: file change before any commit header")
        parts = line.split("\t")
        match = _STATUS_RE.match(parts[0])
        if not match:
            raise GitLogError(f"line {lineno}: malformed status token: {parts[0]!r}")
        letter, digits = match.groups()
        commit_hash, timestamp, author = current
        if letter == RENAME:
            if len(parts) != 3:
                raise GitLogError(f"line {lineno}: rename needs old and new path")
            if not digits:
                raise GitLogError(f"line {lineno}: rename without similarity score")
            similarity = int(digits)
            if not 50 <= similarity <= 100:
                raise GitLogError(f"line {lineno}: rename similarity out of range: {similarity}")
            if not parts[2].endswith(extension):
                continue
            events.append(
                ChangeEvent(
                    commit_hash,
                    timestamp,
                    author,
                    RENAME,
                    parts[2],
                    previous_filename=parts[1],
                    rename_similarity=similarity,
                )
            )
        elif letter in (ADD, DELETE, MODIFY):
            if digits:
                raise GitLogError(f"line {lineno}: unexpected score on {letter} status")
            if len(parts) != 2:
                raise GitLogError(f"line {lineno}: expected exactly one path")
            if not parts[1].endswith(extension):
                continue
            events.append(ChangeEvent(commit_hash, timestamp, author, letter, parts[1]))
        else:
            raise GitLogError(f"line {lineno}: unknown status letter: {letter!r}")
    events.sort(key=lambda e: (e.timestamp, e.commit_hash))
    return events


def resolve_renames(events: list[ChangeEvent]) -> list[ChangeEvent]:
    """Replace every path by the file's final name under chronological rename application.

    A chain a -> b -> c maps all three names to c.  A name freed by a rename can
    be reused by a later file without mixing the two histories.
    """
    name_to_id: dict[str, int] = {}
    final_name: list[str] = []
    event_file_id: list[int] = []
    for event in events:
        if event.status == RENAME:
            file_id = name_to_id.pop(event.previous_filename, None)
            if file_id is None:
                file_id = len(final_name)
                final_name.append(event.previous_filename)
            name_to_id[event.filename] = file_id
            final_name[file_id] = event.filename
        else:
            file_id = name_to_id.get(event.filename)
            if file_id is None:
                file_id = len(final_name)
                final_name.append(event.filename)
                name_to_id[event.filename] = file_id
        event_file_id.append(file_id)
    resolved = []
    for event, file_id in zip(events, event_file_id):
        name = final_name[file_id]
        if event.status == RENAME:
            resolved.append(replace(event, filename=name, previous_filename=name))
        elif event.filename != name:
            resolved.append(replace(event, filename=name))
        else:
            resolved.append(event)
    return resolved


def prune_deleted(events: list[ChangeEvent]) -> list[ChangeEvent]:
    """Drop files whose last delete is never followed by another change; drop all delete events."""
    last_delete: dict[str, int] = {}
    for event in events:
        if event.status == DELETE:
            prev = last_delete.get(event.filename)
            if prev is None or event.timestamp > prev:
                last_delete[event.filename] = event.timestamp
    dead = set()
    for filename, deleted_at in last_delete.items():
        revived = any(
            e.status != DELETE and e.timestamp > deleted_at
            for e in events
            if e.filename == filename
        )
        if not revived:
            dead.add(filename)
    return [e for e in events if e.status != DELETE and e.filename not in dead]


def drop_oversized_commits(events: list[ChangeEvent], max_files: int = 100) -> list[ChangeEvent]:
    """Remove all events of raw commits touching more than max_files distinct files.

    Applied after rename and delete handling so that bulk commits still informed
    those steps, but before bundling so they cannot be counted or chain bundles.
    """
    per_commit: dict[str, set[str]] = defaultdict(set)
    for event in events:
        per_commit[event.commit_hash].add(event.filename)
    oversized = {h for h, files in per_commit.items() if len(files) > max_files}
    return [e for e in events if e.commit_hash not in oversized]


def bundle_commits(events: list[ChangeEvent], window_seconds: int = 3600) -> list[LogicalCommit]:
    """Merge chronological runs of same-author raw commits with gaps within the window.

    The gap test is pairwise between adjacent commits of a run, so a long run can
    span more than one window.  A commit by another author breaks the run.
    """
    raw: dict[str, list] = {}
    for event in events:
        info = raw.get(event.commit_hash)
        if info is None:
            raw[event.commit_hash] = [event.timestamp, event.author, {event.filename}]
        else:
            info[2].add(event.filename)
    ordered = sorted(
        ((ts, commit_hash, author, files) for commit_hash, (ts, author, files) in raw.items()),
        key=lambda r: (r[0], r[1]),
    )
    bundles: list[LogicalCommit] = []
    last_timestamp: int | None = None
    for timestamp, _, author, files in ordered:
        if (
            bundles
            and bundles[-1].author == author
            and timestamp - last_timestamp <= window_seconds
        ):
            head = bundles[-1]
            bundles[-1] = LogicalCommit(
                head.first_timestamp,
                author,
                head.files | files,
                head.raw_commit_count + 1,
            )
        else:
            bundles.append(LogicalCommit(timestamp, author, frozenset(files), 1))
        last_timestamp = timestamp
    return bundles


@dataclass(frozen=True)
class EntityAuthors:
    """Entity x author incidence EA of one entity-to-file mapping; columns: sorted authors."""

    rows: dict[str, int]  # every entity of the mapping -> its row of EA
    incidence: np.ndarray  # EA, int64: 1 where the entity's file has the author
    masks: dict[str, int]  # every entity of the mapping -> its row of EA as bits, column j at bit j


class DevelopmentHistory:
    """Per-file commit counts, pairwise co-change counts and author sets."""

    def __init__(
        self,
        file_commit_count: dict[str, int],
        co_changes: dict[str, dict[str, int]],
        file_authors: dict[str, frozenset[str]],
    ):
        self.file_commit_count = dict(file_commit_count)
        self.co_changes = {f: dict(partners) for f, partners in co_changes.items()}
        self.file_authors = {f: frozenset(a) for f, a in file_authors.items()}
        self._entity_authors: tuple[dict, EntityAuthors] | None = None

    def files(self) -> list[str]:
        return sorted(self.file_commit_count)

    def has_file(self, filename: str) -> bool:
        return filename in self.file_commit_count

    def commit_count(self, filename: str) -> int:
        try:
            return self.file_commit_count[filename]
        except KeyError:
            raise HistoryError(f"file absent from history: {filename!r}") from None

    def co_change_count(self, file_a: str, file_b: str) -> int:
        """Logical commits touching both files; a file trivially co-changes with itself."""
        for name in (file_a, file_b):
            if name not in self.file_commit_count:
                raise HistoryError(f"file absent from history: {name!r}")
        if file_a == file_b:
            return self.file_commit_count[file_a]
        return self.co_changes.get(file_a, {}).get(file_b, 0)

    def authors(self, filename: str) -> frozenset[str]:
        try:
            return self.file_authors[filename]
        except KeyError:
            raise HistoryError(f"file absent from history: {filename!r}") from None

    def all_authors(self) -> frozenset[str]:
        out: set[str] = set()
        for authors in self.file_authors.values():
            out |= authors
        return frozenset(out)

    def entity_authors(self, entity_files: dict[str, str | None]) -> EntityAuthors:
        """Authors of each entity's file, as incidence; cached for the last mapping asked.

        Entities mapped to None or to a file absent from the history get an
        empty row.  There is one column per author of the whole history.
        """
        if self._entity_authors is None or self._entity_authors[0] != entity_files:
            columns = {a: i for i, a in enumerate(sorted(self.all_authors()))}
            rows: dict[str, int] = {}
            masks: dict[str, int] = {}
            cells: list[int] = []
            for row, (entity, filename) in enumerate(entity_files.items()):
                rows[entity] = row
                masks[entity] = 0
                for author in self.file_authors.get(filename, ()):
                    masks[entity] |= 1 << columns[author]
                    cells.append(row * len(columns) + columns[author])
            incidence = np.zeros((len(rows), len(columns)), dtype=np.int64)
            incidence.flat[cells] = 1
            self._entity_authors = (dict(entity_files), EntityAuthors(rows, incidence, masks))
        return self._entity_authors[1]

    def to_json_dict(self) -> dict:
        return {
            "fileChanges": {
                f: {
                    "count": self.file_commit_count[f],
                    "with": dict(sorted(self.co_changes.get(f, {}).items())),
                }
                for f in self.files()
            },
            "authorship": {f: sorted(self.file_authors[f]) for f in self.files()},
        }

    def serialize(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json_dict(cls, raw: dict) -> "DevelopmentHistory":
        if not isinstance(raw, dict) or set(raw) != {"fileChanges", "authorship"}:
            raise HistoryError("history JSON must have fileChanges and authorship")
        changes = raw["fileChanges"]
        authorship = raw["authorship"]
        if not isinstance(changes, dict) or not isinstance(authorship, dict):
            raise HistoryError("fileChanges and authorship must be objects")
        if set(changes) != set(authorship):
            raise HistoryError("fileChanges and authorship must cover the same files")
        counts: dict[str, int] = {}
        co: dict[str, dict[str, int]] = {}
        for filename, entry in changes.items():
            if not isinstance(entry, dict) or set(entry) != {"count", "with"}:
                raise HistoryError(f"bad fileChanges entry for {filename!r}")
            count = entry["count"]
            if not isinstance(count, int) or count < 1:
                raise HistoryError(f"bad commit count for {filename!r}: {count!r}")
            counts[filename] = count
            partners = entry["with"]
            if not isinstance(partners, dict):
                raise HistoryError(f"bad co-change map for {filename!r}")
            for other, k in partners.items():
                if not isinstance(k, int) or k < 1:
                    raise HistoryError(f"bad co-change count {filename!r}/{other!r}: {k!r}")
            co[filename] = dict(partners)
        for filename, partners in co.items():
            for other, k in partners.items():
                if other not in counts:
                    raise HistoryError(f"co-change partner not counted: {other!r}")
                if co.get(other, {}).get(filename) != k:
                    raise HistoryError(f"asymmetric co-change counts: {filename!r}/{other!r}")
                if k > min(counts[filename], counts[other]):
                    raise HistoryError(f"co-change exceeds commit count: {filename!r}/{other!r}")
        authors: dict[str, frozenset[str]] = {}
        for filename, names in authorship.items():
            if (
                not isinstance(names, list)
                or not names
                or not all(isinstance(a, str) and a for a in names)
            ):
                raise HistoryError(f"bad author list for {filename!r}")
            authors[filename] = frozenset(names)
        return cls(counts, co, authors)

    @classmethod
    def parse(cls, text: str) -> "DevelopmentHistory":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise HistoryError(f"invalid history JSON: {exc}") from exc
        return cls.from_json_dict(raw)


def build_history_representation(
    commits: list[LogicalCommit], max_files: int = 100
) -> DevelopmentHistory:
    """Count changes, co-changes and authors over logical commits of usable size."""
    counted = [c for c in commits if len(c.files) <= max_files]
    if not counted:
        raise HistoryError("no usable history")
    file_count: Counter = Counter()
    co: dict[str, Counter] = defaultdict(Counter)
    authors: dict[str, set[str]] = defaultdict(set)
    for commit in counted:
        files = sorted(commit.files)
        for filename in files:
            file_count[filename] += 1
            authors[filename].add(commit.author)
        for file_a, file_b in combinations(files, 2):
            co[file_a][file_b] += 1
            co[file_b][file_a] += 1
    return DevelopmentHistory(
        dict(file_count),
        {f: dict(partners) for f, partners in co.items()},
        {f: frozenset(a) for f, a in authors.items()},
    )


def mine_history(
    log_text: str,
    extension: str = ".java",
    window_seconds: int = 3600,
    max_files: int = 100,
) -> DevelopmentHistory:
    """Full pipeline from raw log text to a development history representation."""
    events = parse_git_log(log_text, extension=extension)
    events = resolve_renames(events)
    events = prune_deleted(events)
    events = drop_oversized_commits(events, max_files=max_files)
    commits = bundle_commits(events, window_seconds=window_seconds)
    return build_history_representation(commits, max_files=max_files)
