"""Mining of git development history into per-file change counts, co-changes and author sets."""

from __future__ import annotations

import json
import os
import re
import subprocess
from array import array
from collections import defaultdict
from dataclasses import dataclass
from functools import partial
from itertools import chain, combinations
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

import numpy as np

ADD = "A"
DELETE = "D"
MODIFY = "M"
RENAME = "R"

# header: commit<TAB><hash><TAB><unix time><TAB><author email after .mailmap>;
# -O/dev/null cancels a user's diff.orderFile, so a commit's files keep git's order
GIT_LOG_ARGS = [
    "log",
    "--root",
    "--reverse",
    "--topo-order",
    "--name-status",
    "--find-renames",
    "-O/dev/null",
    "--pretty=format:commit%x09%H%x09%ct%x09%aE",
]

_STATUS_RE = re.compile(r"^([A-Z])(\d*)$", re.ASCII)


class GitLogError(ValueError):
    """Malformed git log text."""


class HistoryError(ValueError):
    """History pipeline failure (unusable or malformed history data)."""


class ChangeEvent(NamedTuple):
    commit_hash: str
    timestamp: int  # unix seconds
    author: str  # email, lowercased
    status: str  # ADD / DELETE / MODIFY / RENAME
    filename: str
    previous_filename: str | None = None  # RENAME only


# An event from its six fields, with no call of the Python `__new__` that
# `NamedTuple` generates: the parse and rename passes build one per log line.
_new_event = partial(tuple.__new__, ChangeEvent)


@dataclass
class LogicalCommit:
    """One unit of work: a run of nearby same-author raw commits.

    `bundle_commits` grows `files` in place as it adds a raw commit to the run.
    """

    author: str
    files: set[str]


def read_git_log(repo_path: str) -> str:
    """Run git against a repository and return the raw log text.

    Bytes that are not UTF-8 decode to lone surrogates (`surrogateescape`),
    so two names that differ in such bytes stay two names.  `GIT_FLUSH=0`
    lets git write its output in blocks rather than flush it after every
    commit; the bytes are the same, read in far fewer pipe reads.
    """
    env = {**os.environ, "GIT_FLUSH": "0"}
    try:
        proc = subprocess.run(["git", "-C", repo_path, *GIT_LOG_ARGS], capture_output=True, env=env)
    except OSError as exc:
        raise HistoryError(f"cannot run git: {exc}") from exc
    if proc.returncode != 0:
        raise HistoryError(f"git log failed: {proc.stderr.decode(errors='replace').strip()}")
    return proc.stdout.decode(errors="surrogateescape")


def parse_git_log(text: str, extension: str = ".java") -> list[ChangeEvent]:
    """Parse log text into change events, keeping only files with the given extension.

    Events come back in log order, oldest commit first as `GIT_LOG_ARGS` prints
    them; commit times do not reorder them.  A rename out of the extension is
    a delete of the old path, as git would log it without rename detection.
    A line ends at `\\n`, or at `\\r\\n` as in a log saved with CRLF line
    ends.  The other characters at which `str.splitlines` breaks stay in their
    line: git writes U+2028 raw in a path under `core.quotePath=false`.  A
    commit time is ASCII digits.
    """
    events: list[ChangeEvent] = []
    commit_hash: str | None = None  # None before the first commit header
    timestamp, author = 0, ""
    for lineno, line in enumerate(text.replace("\r\n", "\n").split("\n"), start=1):
        parts = line.split("\t")
        letter = parts[0]
        # most lines: a plain A, D or M and one path, told apart with no regex
        if (letter == MODIFY or letter == ADD or letter == DELETE) and len(parts) == 2:
            if commit_hash is None:
                raise GitLogError(f"line {lineno}: file change before any commit header")
            if parts[1].endswith(extension):
                events.append(_new_event((commit_hash, timestamp, author, letter, parts[1], None)))
            continue
        if not line.strip():
            continue
        if letter == "commit" and len(parts) > 1:
            if len(parts) != 4 or not all(parts[1:]):
                raise GitLogError(f"line {lineno}: malformed commit header: {line!r}")
            try:
                # `int` also reads signs, spaces, underscores and other scripts' digits
                if not (parts[2].isascii() and parts[2].isdigit()):
                    raise ValueError
                timestamp = int(parts[2])
            except ValueError:  # also more digits than `int` reads from a string
                raise GitLogError(f"line {lineno}: bad timestamp: {parts[2]!r}") from None
            commit_hash, author = parts[1], parts[3].lower()
            continue
        if commit_hash is None:
            raise GitLogError(f"line {lineno}: file change before any commit header")
        match = _STATUS_RE.match(letter)
        if not match:
            raise GitLogError(f"line {lineno}: malformed status token: {letter!r}")
        letter, digits = match.groups()
        if letter == RENAME:
            if len(parts) != 3:
                raise GitLogError(f"line {lineno}: rename needs old and new path")
            if not digits:
                raise GitLogError(f"line {lineno}: rename without similarity score")
            try:
                similarity = int(digits)
            except ValueError:  # more digits than `int` reads from a string
                raise GitLogError(
                    f"line {lineno}: rename similarity out of range: {len(digits)} digits"
                ) from None
            if not 50 <= similarity <= 100:
                raise GitLogError(f"line {lineno}: rename similarity out of range: {similarity}")
            _, old, new = parts
            if new.endswith(extension):
                events.append(ChangeEvent(commit_hash, timestamp, author, RENAME, new, old))
            elif old.endswith(extension):
                events.append(ChangeEvent(commit_hash, timestamp, author, DELETE, old))
        elif letter in (ADD, DELETE, MODIFY):  # a plain token with one path took the branch above
            if digits:
                raise GitLogError(f"line {lineno}: unexpected score on {letter} status")
            raise GitLogError(f"line {lineno}: expected exactly one path")
        else:
            raise GitLogError(f"line {lineno}: unknown status letter: {letter!r}")
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
        commit_hash, timestamp, author, status, filename, _ = event
        if status == RENAME:
            resolved.append(_new_event((commit_hash, timestamp, author, status, name, name)))
        elif filename != name:
            resolved.append(_new_event((commit_hash, timestamp, author, status, name, None)))
        else:
            resolved.append(event)
    return resolved


def prune_deleted(events: list[ChangeEvent]) -> list[ChangeEvent]:
    """Drop files whose last event in log order is a delete; drop all delete events.

    Commit times are not read: a change listed after the last delete revives
    the file even where a skewed clock dates it earlier.
    """
    last_status = {filename: status for _, _, _, status, filename, _ in events}
    dead = {filename for filename, status in last_status.items() if status == DELETE}
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
    """Bundle runs of same-author raw commits with gaps within the window.

    Raw commits are taken in the order of their first event, which is log
    order; a raw commit's time is that of its first event.  The gap test is
    pairwise between adjacent commits of a run, so a long run can span more
    than one window.  Log order need not follow time (a merged branch's
    commits are listed together, dated before the commit listed ahead of
    them), so the gap is the distance between the two times, either way.
    A commit by another author breaks the run.
    """
    raw: dict[str, tuple[int, str, set[str]]] = {}
    for event in events:
        info = raw.get(event.commit_hash)
        if info is None:
            raw[event.commit_hash] = (event.timestamp, event.author, {event.filename})
        else:
            info[2].add(event.filename)
    bundles: list[LogicalCommit] = []
    last_timestamp = 0
    for timestamp, author, files in raw.values():
        same_run = bundles and bundles[-1].author == author
        if same_run and abs(timestamp - last_timestamp) <= window_seconds:
            bundles[-1].files.update(files)
        else:
            bundles.append(LogicalCommit(author, files))
        last_timestamp = timestamp
    return bundles


def _int64s(values, what: str) -> np.ndarray:
    try:
        return np.fromiter(values, np.int64)
    except OverflowError:
        raise HistoryError(f"{what} does not fit in 64 bits") from None


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
    def parse(cls, text: str) -> "DevelopmentHistory":
        """The history a history.json document describes.

        Raises HistoryError on a document that is not JSON or not of the
        shape `serialize` writes, where it cannot be read into the arrays
        exactly (a co-change count that is not an int, a partner that is not
        counted, or a count beyond int64), and where the co-change cells fail
        the pair checks.
        """
        try:
            raw = json.loads(text)
        except ValueError as exc:  # also an integer of more digits than `int` reads from a string
            raise HistoryError(f"invalid history JSON: {exc}") from exc
        if not isinstance(raw, dict) or set(raw) != {"fileChanges", "authorship"}:
            raise HistoryError("history JSON must have fileChanges and authorship")
        changes = raw["fileChanges"]
        authorship = raw["authorship"]
        if not isinstance(changes, dict) or not isinstance(authorship, dict):
            raise HistoryError("fileChanges and authorship must be objects")
        if set(changes) != set(authorship):
            raise HistoryError("fileChanges and authorship must cover the same files")
        for filename, entry in changes.items():
            if not isinstance(entry, dict) or set(entry) != {"count", "with"}:
                raise HistoryError(f"bad fileChanges entry for {filename!r}")
            count = entry["count"]
            if type(count) is not int or count < 1:  # not bool: JSON true is no count
                raise HistoryError(f"bad commit count for {filename!r}: {count!r}")
            if not isinstance(entry["with"], dict):
                raise HistoryError(f"bad co-change map for {filename!r}")
        for filename, names in authorship.items():
            if (
                not isinstance(names, list)
                or not names
                or not all(isinstance(a, str) and a for a in names)
            ):
                raise HistoryError(f"bad author list for {filename!r}")
            if len(set(names)) != len(names):
                raise HistoryError(f"repeated name in the author list of {filename!r}")
        files = sorted(changes)
        positions = {f: i for i, f in enumerate(files)}
        commit_counts = _int64s([changes[f]["count"] for f in files], "commit count")
        maps = [entry["with"] for entry in changes.values()]  # co-changes, in document order
        lengths = list(map(len, maps))
        # not bool: JSON true is no count
        if not set(map(type, chain.from_iterable(map(dict.values, maps)))) <= {int}:
            filename, other, k = next(
                (f, o, k) for f, cells in zip(changes, maps) for o, k in cells.items()
                if type(k) is not int
            )
            raise HistoryError(f"bad co-change count {filename!r}/{other!r}: {k!r}")
        try:
            partners = map(positions.__getitem__, chain.from_iterable(maps))
            pair_to = np.fromiter(partners, np.int64, sum(lengths))
        except KeyError as exc:
            raise HistoryError(f"co-change partner not counted: {exc.args[0]!r}") from None
        pair_count = _int64s(chain.from_iterable(map(dict.values, maps)), "co-change count")
        pair_from = np.repeat(np.fromiter(map(positions.__getitem__, changes), np.int64), lengths)
        order = np.argsort(pair_from * len(files) + pair_to, kind="stable")
        pair_from, pair_to, pair_count = pair_from[order], pair_to[order], pair_count[order]
        del order  # freed before the pair checks, which allocate as much again
        authors = sorted(set().union(*authorship.values()))
        columns = {a: j for j, a in enumerate(authors)}
        per_file = [authorship[f] for f in files]
        author_cells = np.zeros((len(files), len(authors)), dtype=bool)
        author_cells[
            np.repeat(np.arange(len(files)), [len(a) for a in per_file]),
            np.fromiter(map(columns.__getitem__, chain.from_iterable(per_file)), np.int64),
        ] = True
        history = cls(
            positions, commit_counts, pair_from, pair_to, pair_count, tuple(authors), author_cells
        )
        history._check_co_changes()
        return history


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
