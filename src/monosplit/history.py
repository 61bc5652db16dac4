"""Mining of git development history into per-file change counts, co-changes and author sets."""

from __future__ import annotations

import json
import re
import subprocess
from array import array
from collections import defaultdict
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


def _int64s(values: list, what: str) -> np.ndarray:
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        raise HistoryError(f"{what} does not fit in 64 bits") from None


def _read_maps(
    file_commit_count: dict[str, int],
    co_changes: dict[str, dict[str, int]],
    file_authors: dict[str, list[str]],
) -> tuple:
    """The fields of `DevelopmentHistory.from_maps`, before the pair checks."""
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
    return (
        positions,
        commit_counts,
        pair_from[order],
        pair_to[order],
        pair_count[order],
        tuple(authors),
        authorship,
    )


def _json_block(items: list[str], depth: int, brackets: str) -> str:
    """Encoded `items` in `brackets`, as `json.dumps(indent=2)` lays out a container at `depth`.

    Built by one join, so a block costs its items and its text, not more copies.
    """
    if not items:
        return brackets
    inner = "\n" + "  " * (depth + 1)
    pieces = [brackets[0] + inner + items[0], *items[1:]]
    pieces[-1] += "\n" + "  " * depth + brackets[1]
    return ("," + inner).join(pieces)


@dataclass(frozen=True)
class DevelopmentHistory:
    """Per-file commit counts, pairwise co-change counts and author sets, as arrays.

    Files are held in sorted order; a file's position is its index in that order.
    """

    positions: dict[str, int]  # counted file -> its position; the keys are in sorted order
    commit_counts: np.ndarray  # int64: each file's commit count, by position
    # the co-change cells, one per (file, partner) pair of distinct files, ordered by (from, to)
    pair_from: np.ndarray  # int64 positions
    pair_to: np.ndarray  # int64 positions
    pair_count: np.ndarray  # int64
    authors: tuple[str, ...]  # every author of the history, sorted
    authorship: np.ndarray  # file x author incidence, bool; columns: the sorted authors

    def files(self) -> list[str]:
        return list(self.positions)

    def has_file(self, filename: str) -> bool:
        return filename in self.positions

    @property
    def file_commit_count(self) -> dict[str, int]:
        """Each file's commit count, as a new dict.

        Kept for `benchmark/tracing.py`, which counts the files of a mined
        history by it.
        """
        return dict(zip(self.positions, self.commit_counts.tolist()))

    def _rows(self, filenames) -> np.ndarray:
        """Each file's position, or -1 for None and for a file absent from the history."""
        return np.array([self.positions.get(f, -1) for f in filenames], dtype=np.int64)

    def shared_commits(self, filenames) -> np.ndarray:
        """Logical commits shared by each two of the files, int64, a row and column per file given.

        A file's own commit count is on the diagonal, also where two entries
        name one file.  None and a file absent from the history get an empty row
        and column.
        """
        used, local = np.unique(self._rows(filenames), return_inverse=True)
        # slot of each file in use; -1, no file, sorts first and shares no commits, and
        # its slot[-1] is a spare last cell no co-change cell reads
        slot = np.full(len(self.positions) + 1, -1)
        slot[used] = np.arange(len(used))
        a, b = slot[self.pair_from], slot[self.pair_to]
        cells = (a >= 0) & (b >= 0)
        between = np.zeros((len(used), len(used)), dtype=np.int64)
        between[a[cells], b[cells]] = self.pair_count[cells]
        np.fill_diagonal(between, np.append(self.commit_counts, 0)[used])
        return between[np.ix_(local, local)]

    def entity_authors(self, filenames) -> np.ndarray:
        """Author incidence of each entity's file, bool, a row per file given.

        None and a file absent from the history get an empty row.  There is one
        column per author of the whole history.
        """
        # -1, no file, picks the empty row appended after the last file
        empty = np.zeros((1, len(self.authors)), dtype=bool)
        return np.concatenate([self.authorship, empty])[self._rows(filenames)]

    def serialize(self) -> str:
        """The history as `json.dumps(..., indent=2, sort_keys=True)` writes it, plus a newline.

        Built directly over the fixed shape, one file at a time: with an indent,
        `json.dumps` falls back to its pure-Python encoder.  Names are escaped
        by the function `json.dumps` itself escapes them with.
        """
        quote = encode_basestring_ascii
        names = [quote(f) for f in self.positions]
        author_names = [quote(a) for a in self.authors]
        counts = self.commit_counts.tolist()
        bounds = np.searchsorted(self.pair_from, np.arange(len(names) + 1)).tolist()

        def authors(i: int) -> str:
            row = np.flatnonzero(self.authorship[i]).tolist()
            return f"{names[i]}: " + _json_block([author_names[j] for j in row], 2, "[]")

        def changes(i: int) -> str:
            cells = slice(bounds[i], bounds[i + 1])
            partners = zip(self.pair_to[cells].tolist(), self.pair_count[cells].tolist())
            block = _json_block([f"{names[p]}: {k}" for p, k in partners], 3, "{}")
            return f'{names[i]}: {{\n      "count": {counts[i]},\n      "with": {block}\n    }}'

        # each block's items are freed once the block is joined, before the next join
        return "".join(
            [
                '{\n  "authorship": ',
                _json_block([authors(i) for i in range(len(names))], 1, "{}"),
                ',\n  "fileChanges": ',
                _json_block([changes(i) for i in range(len(names))], 1, "{}"),
                "\n}\n",
            ]
        )

    @classmethod
    def from_maps(
        cls,
        file_commit_count: dict[str, int],
        co_changes: dict[str, dict[str, int]],
        file_authors: dict[str, list[str]],
    ) -> "DevelopmentHistory":
        """The history of three maps: commit counts, co-changes and author names per file.

        Raises HistoryError where the maps cannot be read into the arrays
        exactly (a co-change count that is not an int, a partner that is not
        counted, or a count beyond int64) and where the co-change cells fail
        the pair checks.
        """
        # the pair checks run once the reading's temporaries are freed
        history = cls(*_read_maps(file_commit_count, co_changes, file_authors))
        history._check_co_changes()
        return history

    def _check_co_changes(self) -> None:
        """Every co-change count at least 1, between distinct files, symmetric and no larger
        than either file's commit count."""
        files = self.files()

        def fail(message: str, cell: int):
            pair = files[self.pair_from[cell]], files[self.pair_to[cell]]
            raise HistoryError(f"{message}: {pair[0]!r}/{pair[1]!r}")

        low = np.flatnonzero(self.pair_count < 1)
        if low.size:
            fail("bad co-change count", low[0])
        own = np.flatnonzero(self.pair_from == self.pair_to)
        if own.size:
            fail("file listed as its own co-change partner", own[0])
        keys = self.pair_from * len(files) + self.pair_to  # ascending and unique
        mirror_keys = self.pair_to * len(files) + self.pair_from
        # symmetric: the sorted mirror keys are the keys, and each cell's count is its mirror's
        mirror = np.argsort(mirror_keys)
        asymmetric = np.flatnonzero(
            (mirror_keys[mirror] != keys) | (self.pair_count[mirror] != self.pair_count)
        )
        if asymmetric.size:
            # below the first difference the two sorted key lists agree, so the smaller
            # key there is missing from the other list: name the cell it belongs to
            cell = asymmetric[0]
            if mirror_keys[mirror[cell]] < keys[cell]:
                cell = mirror[cell]
            fail("asymmetric co-change counts", cell)
        ceiling = np.minimum(self.commit_counts[self.pair_from], self.commit_counts[self.pair_to])
        high = np.flatnonzero(self.pair_count > ceiling)
        if high.size:
            fail("co-change exceeds commit count", high[0])

    @classmethod
    def from_json_dict(cls, raw: dict) -> "DevelopmentHistory":
        """The history a parsed history.json describes.

        Checks the document's shape here and the co-change pairs in `from_maps`.
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
        for filename, names in authorship.items():
            if (
                not isinstance(names, list)
                or not names
                or not all(isinstance(a, str) and a for a in names)
            ):
                raise HistoryError(f"bad author list for {filename!r}")
            if len(set(names)) != len(names):
                raise HistoryError(f"repeated name in the author list of {filename!r}")
        return cls.from_maps(counts, co, authorship)

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
    files = sorted(set().union(*(c.files for c in counted)))
    positions = {f: i for i, f in enumerate(files)}
    authors = sorted({c.author for c in counted})
    columns = {a: j for j, a in enumerate(authors)}
    n, n_authors = len(files), len(authors)
    authored = array("q")  # position * n_authors + author column, for each file of each commit
    pairs = array("q")  # a * n + b for each two files a < b of one commit
    for commit in counted:
        ids = sorted(map(positions.__getitem__, commit.files))
        column = columns[commit.author]
        authored.extend([i * n_authors + column for i in ids])
        pairs.extend([a * n + b for a, b in combinations(ids, 2)])
    keys = np.frombuffer(pairs, dtype=np.int64)
    first, second = np.divmod(keys, n)
    cells, pair_count = np.unique(np.concatenate([keys, second * n + first]), return_counts=True)
    pair_from, pair_to = np.divmod(cells, n)
    authored_cells = np.frombuffer(authored, dtype=np.int64)
    authorship = np.zeros((n, n_authors), dtype=bool)
    authorship.flat[authored_cells] = True
    return DevelopmentHistory(
        positions,
        np.bincount(authored_cells // n_authors, minlength=n),  # each file's commit count
        pair_from,
        pair_to,
        pair_count,
        tuple(authors),
        authorship,
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
