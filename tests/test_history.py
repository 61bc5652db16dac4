"""Log parsing, rename/delete handling, bundling and history counting."""

import json
import random
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import log_fixture
from monosplit import (
    DevelopmentHistory,
    GitLogError,
    HistoryError,
    LogicalCommit,
    build_history_representation,
    bundle_commits,
    mine_history,
    parse_git_log,
    prune_deleted,
    resolve_renames,
)
from monosplit.history import ADD, DELETE, MODIFY, RENAME, ChangeEvent, drop_oversized_commits
from synth import NAME, history_maps, history_parts

SIMPLE_LOG = (
    "commit\th2\t2000\tBig.Dev@Example.COM\n"
    "M\tsrc/A.java\n"
    "R087\tsrc/B.java\tsrc/C.java\n"
    "\n"
    "commit\th1\t1000\tdev@example.com\n"
    "A\tsrc/A.java\n"
    "A\tsrc/B.java\n"
    "A\tnotes.txt\n"
)


def test_parse_fields_filter_and_order():
    events = parse_git_log(SIMPLE_LOG)
    assert [(e.commit_hash, e.status, e.filename) for e in events] == [
        ("h1", ADD, "src/A.java"),
        ("h1", ADD, "src/B.java"),
        ("h2", MODIFY, "src/A.java"),
        ("h2", RENAME, "src/C.java"),
    ]
    assert events[0].timestamp == 1000
    assert events[2].author == "big.dev@example.com"
    rename = events[3]
    assert rename.previous_filename == "src/B.java"
    assert rename.rename_similarity == 87


def test_parse_orders_same_timestamp_by_hash():
    text = (
        "commit\tzzz\t5000\tdev@example.com\nA\tZ.java\n\n"
        "commit\taaa\t5000\tdev@example.com\nA\tA.java\n"
    )
    events = parse_git_log(text)
    assert [e.commit_hash for e in events] == ["aaa", "zzz"]


def test_parse_honors_extension_filter():
    events = parse_git_log(SIMPLE_LOG, extension=".txt")
    assert [e.filename for e in events] == ["notes.txt"]


@pytest.mark.parametrize(
    "text",
    [
        "commit\tabc\t100\n",  # missing author
        "commit\tabc\tnope\tdev@example.com\n",  # bad timestamp
        "A\tX.java\n",  # file line before header
        "commit\tabc\t100\tdev@example.com\nT\tX.java\n",  # unknown status
        "commit\tabc\t100\tdev@example.com\nC055\tX.java\tY.java\n",  # unknown status
        "commit\tabc\t100\tdev@example.com\nM100\tX.java\n",  # score on modify
        "commit\tabc\t100\tdev@example.com\nR\tX.java\tY.java\n",  # rename without score
        "commit\tabc\t100\tdev@example.com\nR030\tX.java\tY.java\n",  # score too low
        "commit\tabc\t100\tdev@example.com\nR100\tX.java\n",  # rename missing new path
        "commit\tabc\t100\tdev@example.com\nA\tX.java\tY.java\n",  # extra path
    ],
)
def test_parse_errors(text):
    with pytest.raises(GitLogError):
        parse_git_log(text)


def _event(hash_, ts, status, filename, previous=None, author="dev@example.com"):
    similarity = 90 if status == RENAME else None
    return ChangeEvent(hash_, ts, author, status, filename, previous, similarity)


def test_rename_chain_canonicalizes_all_names():
    events = [
        _event("c1", 1, ADD, "A.java"),
        _event("c2", 2, RENAME, "B.java", previous="A.java"),
        _event("c3", 3, MODIFY, "B.java"),
        _event("c4", 4, RENAME, "C.java", previous="B.java"),
    ]
    resolved = resolve_renames(events)
    assert [e.filename for e in resolved] == ["C.java"] * 4
    assert all(e.previous_filename in (None, "C.java") for e in resolved)
    assert [e.status for e in resolved] == [ADD, RENAME, MODIFY, RENAME]


def test_rename_name_reuse_keeps_eras_apart():
    events = [
        _event("c1", 1, ADD, "A.java"),
        _event("c2", 2, RENAME, "B.java", previous="A.java"),
        _event("c3", 3, ADD, "A.java"),  # a new file takes the freed name
        _event("c4", 4, RENAME, "D.java", previous="A.java"),
    ]
    resolved = resolve_renames(events)
    assert [e.filename for e in resolved] == ["B.java", "B.java", "D.java", "D.java"]


def test_delete_then_readd_keeps_file():
    events = [
        _event("c1", 1, ADD, "F.java"),
        _event("c2", 2, DELETE, "F.java"),
        _event("c3", 3, ADD, "F.java"),
    ]
    pruned = prune_deleted(events)
    assert [(e.status, e.timestamp) for e in pruned] == [(ADD, 1), (ADD, 3)]


def test_final_delete_removes_file_entirely():
    events = [
        _event("c1", 1, ADD, "F.java"),
        _event("c2", 2, MODIFY, "F.java"),
        _event("c3", 3, DELETE, "F.java"),
        _event("c3", 3, MODIFY, "G.java"),
    ]
    pruned = prune_deleted(events)
    assert [e.filename for e in pruned] == ["G.java"]


def test_change_at_delete_timestamp_is_not_a_revival():
    events = [
        _event("c1", 1, ADD, "F.java"),
        _event("c2", 2, MODIFY, "F.java"),
        _event("c3", 2, DELETE, "F.java"),
    ]
    assert prune_deleted(events) == []


def test_bundling_chains_within_window():
    events = [
        _event("c1", 0, ADD, "A.java", author="x@x"),
        _event("c2", 1800, MODIFY, "A.java", author="x@x"),
        _event("c3", 5400, MODIFY, "B.java", author="x@x"),  # 3600 after c2: still chained
    ]
    bundles = bundle_commits(events)
    assert len(bundles) == 1
    assert bundles[0] == LogicalCommit(0, "x@x", frozenset({"A.java", "B.java"}), 3)


def test_bundling_breaks_on_author_change():
    events = [
        _event("c1", 0, ADD, "A.java", author="x@x"),
        _event("c2", 100, MODIFY, "A.java", author="y@y"),
        _event("c3", 200, MODIFY, "A.java", author="x@x"),
    ]
    assert len(bundle_commits(events)) == 3


def test_bundling_breaks_past_window():
    events = [
        _event("c1", 0, ADD, "A.java", author="x@x"),
        _event("c2", 3601, MODIFY, "A.java", author="x@x"),
    ]
    assert len(bundle_commits(events)) == 2


def test_oversized_raw_commit_is_dropped_before_bundling():
    events = [_event("c1", 0, ADD, "A.java", author="x@x")]
    events += [_event("c2", 100, ADD, f"F{i}.java", author="x@x") for i in range(101)]
    events += [_event("c3", 200, MODIFY, "A.java", author="x@x")]
    kept = drop_oversized_commits(events, max_files=100)
    assert {e.commit_hash for e in kept} == {"c1", "c3"}
    # without the oversized commit in between, c1 and c3 chain into one bundle
    assert len(bundle_commits(kept)) == 1


def _logical(author, files, ts=0):
    return LogicalCommit(ts, author, frozenset(files), 1)


def test_counts_over_logical_commits():
    commits = [
        _logical("x", {"A", "B"}, 0),
        _logical("y", {"A", "B", "C"}, 10),
        _logical("x", {"A"}, 20),
    ]
    history = build_history_representation(commits)
    counts, co_changes, authors = history_maps(history)
    assert counts["A"] == 3
    assert co_changes["A"]["B"] == 2
    assert co_changes["B"]["A"] == 2
    assert "A" not in co_changes["A"]  # a file's own count is its commit count
    assert authors["A"] == {"x", "y"}
    assert authors["C"] == {"y"}
    assert history.authors == ("x", "y")


@st.composite
def logical_commit_lists(draw):
    """Logical commits over a few files and three authors, and a max_files that some exceed."""
    files = draw(st.lists(NAME, unique=True, min_size=1, max_size=10))
    commits = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["a@x", "b@x", "c@x"]),
                st.sets(st.sampled_from(files), min_size=1, max_size=len(files)),
            ),
            max_size=20,
        )
    )
    logical = [LogicalCommit(10 * i, a, frozenset(f), 1) for i, (a, f) in enumerate(commits)]
    return logical, draw(st.integers(1, 6))


@given(logical_commit_lists())
@example(
    (
        [
            _logical("a@x", {"A"}),
            _logical("b@x", {"A", "B"}),
            _logical("a@x", {"A", "B", "C", "D"}),
            _logical("a@x", {"B", "C"}),
        ],
        3,
    )
)
@settings(max_examples=300, deadline=None)
def test_counting_equals_the_former_loop(case):
    commits, max_files = case
    try:
        expected = oracles.history_counts(commits, max_files)
    except ValueError:
        with pytest.raises(HistoryError, match="no usable history"):
            build_history_representation(commits, max_files)
        return
    history = build_history_representation(commits, max_files)
    assert history_maps(history) == expected
    assert history.serialize() == oracles.history_json(*expected)


def test_oversized_logical_commit_not_counted():
    commits = [
        _logical("x", {f"F{i}" for i in range(101)}, 0),
        _logical("x", {"A"}, 10),
    ]
    history = build_history_representation(commits)
    assert history.files() == ["A"]


def test_no_usable_history_raises():
    with pytest.raises(HistoryError, match="no usable history"):
        build_history_representation([])
    oversized = [_logical("x", {f"F{i}" for i in range(200)})]
    with pytest.raises(HistoryError, match="no usable history"):
        build_history_representation(oversized)


def test_unknown_file_reads_as_empty():
    history = build_history_representation([_logical("x", {"A"})])
    assert not history.has_file("B")
    assert history.shared_commits(["A", "B", None]).tolist() == [[1, 0, 0], [0, 0, 0], [0, 0, 0]]
    assert history.entity_authors(["A", "B", None]).tolist() == [[True], [False], [False]]


EXPECTED_RENAME_CHAIN = {
    "fileChanges": {
        "C.java": {"count": 5, "with": {"Other.java": 2}},
        "Other.java": {"count": 2, "with": {"C.java": 2}},
    },
    "authorship": {
        "C.java": ["dev1@example.com", "dev2@example.com"],
        "Other.java": ["dev1@example.com"],
    },
}

EXPECTED_RESURRECTION = {
    "fileChanges": {
        "Keep.java": {"count": 2, "with": {"Other.java": 1}},
        "Other.java": {"count": 2, "with": {"Keep.java": 1}},
    },
    "authorship": {
        "Keep.java": ["dev1@example.com"],
        "Other.java": ["dev1@example.com", "dev2@example.com"],
    },
}

EXPECTED_BULK = {
    "fileChanges": {
        "Core.java": {"count": 2, "with": {"Util.java": 2}},
        "Util.java": {"count": 2, "with": {"Core.java": 2}},
    },
    "authorship": {
        "Core.java": ["dev1@example.com"],
        "Util.java": ["dev1@example.com"],
    },
}

EXPECTED_BUNDLING = {
    "fileChanges": {
        "P.java": {"count": 2, "with": {"Q.java": 1}},
        "Q.java": {"count": 2, "with": {"P.java": 1}},
    },
    "authorship": {
        "P.java": ["dev1@example.com", "dev2@example.com"],
        "Q.java": ["dev1@example.com"],
    },
}


@pytest.mark.parametrize(
    "name,expected",
    [
        ("rename_chain.log", EXPECTED_RENAME_CHAIN),
        ("resurrection.log", EXPECTED_RESURRECTION),
        ("bulk_commit.log", EXPECTED_BULK),
        ("bundling.log", EXPECTED_BUNDLING),
    ],
)
def test_fixture_logs_match_hand_derivation(name, expected):
    history = mine_history(log_fixture(name))
    assert json.loads(history.serialize()) == expected


def test_mining_is_deterministic():
    text = log_fixture("rename_chain.log")
    assert mine_history(text).serialize() == mine_history(text).serialize()


def test_serialize_parse_round_trip():
    history = mine_history(log_fixture("bundling.log"))
    reparsed = DevelopmentHistory.parse(history.serialize())
    assert reparsed.serialize() == history.serialize()


@given(history_parts())
@example(({}, {}, {}))
@settings(max_examples=200, deadline=None)
def test_serialize_writes_what_json_dumps_writes(parts):
    text = DevelopmentHistory.from_maps(*parts).serialize()
    assert text == oracles.history_json(*parts)
    assert DevelopmentHistory.parse(text).serialize() == text


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.pop("authorship"),
        lambda d: d["fileChanges"]["P.java"].update(count=0),
        lambda d: d["fileChanges"]["P.java"]["with"].update({"Q.java": 9}),  # asymmetric
        lambda d: d["authorship"].update({"P.java": []}),
        lambda d: d["fileChanges"].update({"X.java": {"count": 1, "with": {}}}),
        lambda d: d["fileChanges"]["Q.java"].update(count=True),  # JSON true is no count
    ],
)
def test_malformed_history_json_rejected(mutate):
    raw = json.loads(mine_history(log_fixture("bundling.log")).serialize())
    mutate(raw)
    with pytest.raises(HistoryError):
        DevelopmentHistory.from_json_dict(raw)


# counts the loader must reject, and ints beyond int64, which the former loader took
_ODD_COUNTS = st.sampled_from(
    [True, False, None, 1.0, 1.5, "1", [1], 0, -1, 2**63, 2**64, -(2**63) - 1]
)


@st.composite
def edited_documents(draw):
    """A valid history.json document, then up to three edits, each of which may break it."""
    raw = json.loads(oracles.history_json(*draw(history_parts())))
    changes, authorship = raw["fileChanges"], raw["authorship"]

    def count(filename):  # a usable commit count, even after an edit spoiled it
        value = changes[filename]["count"]
        return value if type(value) is int and value >= 1 else 1

    for _ in range(draw(st.integers(0, 3))):
        edit = draw(
            st.sampled_from(
                [
                    "partner",
                    "asymmetric",
                    "above",
                    "value",
                    "count",
                    "self",
                    "repeated",
                    "huge",
                    "empty",
                ]
            )
        )
        if edit == "empty":
            emptied = draw(
                st.sampled_from(["fileChanges", "authorship", "both", "with", "authors"])
            )
            if emptied in ("fileChanges", "both"):
                changes.clear()
            if emptied in ("authorship", "both"):
                authorship.clear()
            if emptied in ("with", "authors") and changes and authorship:
                filename = draw(st.sampled_from(sorted(changes)))
                if emptied == "with":
                    changes[filename]["with"] = {}
                else:
                    authorship[filename] = []
            continue
        if not changes:
            continue
        a = draw(st.sampled_from(sorted(changes)))
        b = draw(st.sampled_from(sorted(changes)))
        if edit == "partner":  # a partner that has no entry of its own
            ghost = draw(NAME.filter(lambda name: name not in changes))
            changes[a]["with"][ghost] = draw(st.integers(1, 5))
        elif edit == "asymmetric":  # one side only; it may happen to match the other
            changes[a]["with"][b] = draw(st.integers(1, 50))
        elif edit == "above":  # symmetric, at or one above the smaller commit count
            k = min(count(a), count(b)) + draw(st.integers(0, 1))
            changes[a]["with"][b] = changes[b]["with"][a] = k
        elif edit == "value":
            changes[a]["with"][b] = changes[b]["with"][a] = draw(_ODD_COUNTS)
        elif edit == "count":
            changes[a]["count"] = draw(_ODD_COUNTS)
        elif edit == "self":  # a form `mine` never writes, which the former loader took
            changes[a]["with"][a] = draw(st.integers(1, count(a) + 1))
        elif edit == "repeated":  # another such form: a name twice in one author list
            names = authorship.get(a)
            if names:
                names.insert(draw(st.integers(0, len(names))), draw(st.sampled_from(names)))
        else:  # huge: a consistent pair whose counts int64 cannot hold
            changes[a]["count"] = changes[b]["count"] = 2**63 + draw(st.integers(0, 3))
            changes[a]["with"][b] = changes[b]["with"][a] = 2**63
    return raw


def _beyond_int64(raw) -> bool:
    counts = [entry["count"] for entry in raw["fileChanges"].values()]
    counts += [k for entry in raw["fileChanges"].values() for k in entry["with"].values()]
    return any(type(k) is int and not -(2**63) <= k < 2**63 for k in counts)


def _unwritten_form(raw) -> bool:
    """A file listed as its own co-change partner, or a name repeated in an author list."""
    own = any(f in entry["with"] for f, entry in raw["fileChanges"].items())
    return own or any(len(set(names)) != len(names) for names in raw["authorship"].values())


@given(edited_documents())
@example({"fileChanges": {}, "authorship": {}})
@settings(max_examples=400, deadline=None)
def test_loader_rejects_exactly_what_the_former_loader_rejects(raw):
    try:
        expected = oracles.history_from_json_dict(raw)
    except ValueError:
        expected = None
    # the loader now also rejects those
    if expected is None or _beyond_int64(raw) or _unwritten_form(raw):
        with pytest.raises(HistoryError):
            DevelopmentHistory.from_json_dict(raw)
        return
    history = DevelopmentHistory.from_json_dict(raw)
    counts, co_changes, authors = expected
    files = history.files()
    assert files == sorted(counts)
    assert history.commit_counts.tolist() == [counts[f] for f in files]
    cells = zip(history.pair_from.tolist(), history.pair_to.tolist(), history.pair_count.tolist())
    assert {(files[a], files[b]): k for a, b, k in cells} == {
        (a, b): k for a, partners in co_changes.items() for b, k in partners.items()
    }
    assert history_maps(history)[2] == authors
    # what the loader accepts, serialize writes back: the document, author lists sorted
    text = history.serialize()
    sorted_authors = {f: sorted(names) for f, names in raw["authorship"].items()}
    assert json.loads(text) == {**raw, "authorship": sorted_authors}
    assert text == oracles.history_json(*expected)


@st.composite
def commit_stream(draw):
    n_commits = draw(st.integers(min_value=1, max_value=12))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = random.Random(seed)
    files = [f"F{i}.java" for i in range(6)]
    authors = ["a@x", "b@x", "c@x"]
    events = []
    ts = 0
    for index in range(n_commits):
        ts += rng.randint(1, 7200)
        chosen = rng.sample(files, rng.randint(1, 4))
        author = rng.choice(authors)
        for name in chosen:
            status = rng.choice([ADD, MODIFY, MODIFY, DELETE])
            events.append(ChangeEvent(f"h{index}", ts, author, status, name))
    return events


@given(commit_stream())
@settings(max_examples=60, deadline=None)
def test_pipeline_invariants_on_random_streams(events):
    pruned = prune_deleted(resolve_renames(events))
    # pruned output is the input minus deletes and dead files, order kept
    assert all(e.status != DELETE for e in pruned)
    survivors = {e.filename for e in pruned}
    for event in events:
        if event.status != DELETE and event.filename in survivors:
            assert event in pruned
    commits = bundle_commits(drop_oversized_commits(pruned))
    if not commits:
        return
    history = build_history_representation(commits)
    counts, co_changes, authors = history_maps(history)
    for file_a in history.files():
        assert counts[file_a] >= 1
        assert authors[file_a]
        for file_b, shared in co_changes.get(file_a, {}).items():
            assert shared == co_changes[file_b][file_a]
            assert shared <= min(counts[file_a], counts[file_b])
    text = history.serialize()
    assert DevelopmentHistory.parse(text).serialize() == text


@given(commit_stream(), st.sampled_from([1, 3600, 86_400]), st.booleans(), st.randoms())
@settings(max_examples=80, deadline=None)
def test_prune_drops_exactly_the_dead_files(events, tick, shuffled, rng):
    # coarser clocks put deletes and other changes of one file at equal timestamps
    events = [replace(e, timestamp=e.timestamp // tick) for e in events]
    if shuffled:
        rng.shuffle(events)
    dead = oracles.dead_files([(e.filename, e.status, e.timestamp) for e in events])
    assert prune_deleted(events) == [
        e for e in events if e.status != DELETE and e.filename not in dead
    ]
