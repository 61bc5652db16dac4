"""Mining of git development history into per-file change counts, co-changes and author sets."""

from __future__ import annotations

import json
import re
import subprocess
from collections import Counter, defaultdict
from dataclasses import dataclass, replace
from itertools import chain, combinations
from json.encoder import encode_basestring_ascii

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
    """Drop files whose last delete is never followed by another change; drop all delete events.

    A change at the same timestamp as the last delete does not revive the file.
    """
    last_delete: dict[str, int] = {}
    last_change: dict[str, int] = {}
    for event in events:
        latest = last_delete if event.status == DELETE else last_change
        latest[event.filename] = max(event.timestamp, latest.get(event.filename, event.timestamp))
    dead = {
        filename
        for filename, deleted_at in last_delete.items()
        if last_change.get(filename, deleted_at) <= deleted_at
    }
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
    """Bundle chronological runs of same-author raw commits with gaps within the window.

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


@dataclass(frozen=True)
class HistoryIndex:
    """A history as arrays over its counted files in sorted order, built once per history."""

    positions: dict[str, int]  # counted file -> its position; the keys are in sorted order
    commit_counts: np.ndarray  # int64: each file's commit count, by position
    # the co-change cells, one per (file, partner) entry, ordered by (from, to); a
    # file listed as its own partner keeps that cell, which no measure uses
    pair_from: np.ndarray  # int64 positions
    pair_to: np.ndarray  # int64 positions
    pair_count: np.ndarray  # int64
    authorship: np.ndarray  # file x author incidence, bool; columns: the sorted authors

    def rows(self, filenames) -> np.ndarray:
        """Each file's position, or -1 for None and for a file absent from the history."""
        return np.array([self.positions.get(f, -1) for f in filenames], dtype=np.int64)


def _int64s(values: list, what: str) -> np.ndarray:
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        raise HistoryError(f"{what} does not fit in 64 bits") from None


def _index_history(
    file_commit_count: dict[str, int],
    co_changes: dict[str, dict[str, int]],
    file_authors: dict[str, frozenset[str]],
) -> HistoryIndex:
    """The arrays of a history's three maps.

    Raises HistoryError where the maps cannot be read into the arrays exactly:
    a co-change count that is not an int, a partner that is not counted, or a
    count beyond int64.
    """
    files = sorted(file_commit_count)
    positions = {f: i for i, f in enumerate(files)}
    commit_counts = _int64s([file_commit_count[f] for f in files], "commit count")
    owners: list[int] = []
    lengths: list[int] = []
    partners: list[str] = []
    values: list[int] = []
    for filename, cells in co_changes.items():
        owners.append(positions[filename])
        lengths.append(len(cells))
        partners.extend(cells)
        values.extend(cells.values())
    if not set(map(type, values)) <= {int}:  # not bool: JSON true is no count
        filename, other, k = next(
            (f, o, k)
            for f, cells in co_changes.items()
            for o, k in cells.items()
            if type(k) is not int
        )
        raise HistoryError(f"bad co-change count {filename!r}/{other!r}: {k!r}")
    try:
        pair_to = np.fromiter(map(positions.__getitem__, partners), np.int64, len(partners))
    except KeyError as exc:
        raise HistoryError(f"co-change partner not counted: {exc.args[0]!r}") from None
    pair_from = np.repeat(np.array(owners, dtype=np.int64), lengths)
    pair_count = _int64s(values, "co-change count")
    order = np.argsort(pair_from * len(files) + pair_to, kind="stable")
    authors = sorted(set().union(*file_authors.values()))
    columns = {a: j for j, a in enumerate(authors)}
    per_file = [file_authors.get(f, ()) for f in files]
    authorship = np.zeros((len(files), len(authors)), dtype=bool)
    authorship[
        np.repeat(np.arange(len(files)), [len(a) for a in per_file]),
        np.fromiter(map(columns.__getitem__, chain.from_iterable(per_file)), np.int64),
    ] = True
    return HistoryIndex(
        positions, commit_counts, pair_from[order], pair_to[order], pair_count[order], authorship
    )


def _check_co_changes(index: HistoryIndex) -> None:
    """Every co-change count at least 1, symmetric and no larger than either file's commit count."""
    files = list(index.positions)

    def fail(message: str, cell: int):
        pair = files[index.pair_from[cell]], files[index.pair_to[cell]]
        raise HistoryError(f"{message}: {pair[0]!r}/{pair[1]!r}")

    low = np.flatnonzero(index.pair_count < 1)
    if low.size:
        fail("bad co-change count", low[0])
    keys = index.pair_from * len(files) + index.pair_to  # ascending and unique
    mirror_keys = index.pair_to * len(files) + index.pair_from
    # symmetric: the sorted mirror keys are the keys, and each cell's count is its mirror's
    mirror = np.argsort(mirror_keys)
    asymmetric = np.flatnonzero(
        (mirror_keys[mirror] != keys) | (index.pair_count[mirror] != index.pair_count)
    )
    if asymmetric.size:
        # below the first difference the two sorted key lists agree, so the smaller
        # key there is missing from the other list: name the cell it belongs to
        cell = asymmetric[0]
        if mirror_keys[mirror[cell]] < keys[cell]:
            cell = mirror[cell]
        fail("asymmetric co-change counts", cell)
    ceiling = np.minimum(index.commit_counts[index.pair_from], index.commit_counts[index.pair_to])
    high = np.flatnonzero(index.pair_count > ceiling)
    if high.size:
        fail("co-change exceeds commit count", high[0])


def _json_block(items: list[str], depth: int, brackets: str) -> str:
    """Encoded `items` in `brackets`, as `json.dumps(indent=2)` lays out a container at `depth`."""
    if not items:
        return brackets
    inner = "\n" + "  " * (depth + 1)
    return brackets[0] + inner + ("," + inner).join(items) + "\n" + "  " * depth + brackets[1]


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
        self._index: HistoryIndex | None = None
        self._entity_authors: tuple[dict, EntityAuthors] | None = None

    @property
    def index(self) -> HistoryIndex:
        """The history as arrays: built by `from_json_dict`, or on first use."""
        if self._index is None:
            self._index = _index_history(self.file_commit_count, self.co_changes, self.file_authors)
        return self._index

    def files(self) -> list[str]:
        return sorted(self.file_commit_count)

    def has_file(self, filename: str) -> bool:
        return filename in self.file_commit_count

    def commit_count(self, filename: str) -> int:
        try:
            return self.file_commit_count[filename]
        except KeyError:
            raise HistoryError(f"file absent from history: {filename!r}") from None

    def entity_authors(self, entity_files: dict[str, str | None]) -> EntityAuthors:
        """Authors of each entity's file, as incidence; cached for the last mapping asked.

        Entities mapped to None or to a file absent from the history get an
        empty row.  There is one column per author of the whole history.
        """
        if self._entity_authors is None or self._entity_authors[0] != entity_files:
            authorship = self.index.authorship
            positions = self.index.rows(entity_files.values())
            incidence = np.zeros((len(positions), authorship.shape[1]), dtype=bool)
            mapped = positions >= 0
            incidence[mapped] = authorship[positions[mapped]]
            bits = np.packbits(incidence, axis=1, bitorder="little")
            rows = {entity: row for row, entity in enumerate(entity_files)}
            masks = {e: int.from_bytes(b.tobytes(), "little") for e, b in zip(entity_files, bits)}
            authors = EntityAuthors(rows, incidence.astype(np.int64), masks)
            self._entity_authors = (dict(entity_files), authors)
        return self._entity_authors[1]

    def serialize(self) -> str:
        """The history as `json.dumps(..., indent=2, sort_keys=True)` writes it, plus a newline.

        Built directly over the fixed shape: with an indent, `json.dumps` falls
        back to its pure-Python encoder.  Names are escaped by the function
        `json.dumps` itself escapes them with.
        """
        quote = encode_basestring_ascii
        files = self.files()
        changes = [
            f'{quote(f)}: {{\n      "count": {self.file_commit_count[f]},\n      "with": '
            + _json_block(
                [f"{quote(p)}: {k}" for p, k in sorted(self.co_changes.get(f, {}).items())], 3, "{}"
            )
            + "\n    }"
            for f in files
        ]
        authorship = [
            f"{quote(f)}: " + _json_block([quote(a) for a in sorted(self.file_authors[f])], 2, "[]")
            for f in files
        ]
        top = [
            f'"authorship": {_json_block(authorship, 1, "{}")}',
            f'"fileChanges": {_json_block(changes, 1, "{}")}',
        ]
        return _json_block(top, 0, "{}") + "\n"

    @classmethod
    def from_json_dict(cls, raw: dict) -> "DevelopmentHistory":
        """The history a parsed history.json describes, with its index.

        The co-change pair checks run on the index's arrays.
        """
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
            if type(count) is not int or count < 1:  # not bool: JSON true is no count
                raise HistoryError(f"bad commit count for {filename!r}: {count!r}")
            counts[filename] = count
            if not isinstance(entry["with"], dict):
                raise HistoryError(f"bad co-change map for {filename!r}")
            co[filename] = entry["with"]
        authors: dict[str, frozenset[str]] = {}
        for filename, names in authorship.items():
            if (
                not isinstance(names, list)
                or not names
                or not all(isinstance(a, str) and a for a in names)
            ):
                raise HistoryError(f"bad author list for {filename!r}")
            authors[filename] = frozenset(names)
        index = _index_history(counts, co, authors)
        _check_co_changes(index)
        history = cls(counts, co, authors)
        history._index = index
        return history

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
