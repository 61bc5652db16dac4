"""Log parsing, rename/delete handling, bundling and history counting."""

import json
import random

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
    # log order is kept, also where a later commit has the earlier time
    events = parse_git_log(SIMPLE_LOG)
    assert [(e.commit_hash, e.status, e.filename) for e in events] == [
        ("h2", MODIFY, "src/A.java"),
        ("h2", RENAME, "src/C.java"),
        ("h1", ADD, "src/A.java"),
        ("h1", ADD, "src/B.java"),
    ]
    assert events[2].timestamp == 1000
    assert events[0].author == "big.dev@example.com"
    rename = events[1]
    assert rename.previous_filename == "src/B.java"


def test_parse_keeps_log_order_at_one_timestamp():
    text = (
        "commit\tzzz\t5000\tdev@example.com\nA\tZ.java\n\n"
        "commit\taaa\t5000\tdev@example.com\nA\tA.java\n"
    )
    events = parse_git_log(text)
    assert [e.commit_hash for e in events] == ["zzz", "aaa"]


def test_rename_applies_in_log_order_under_clock_skew():
    """A rename committed with an earlier clock than the add before it still follows the add."""
    text = (
        "commit\tc1\t200\tdev1@example.com\nA\tA.java\n\n"
        "commit\tc2\t100\tdev2@example.com\nR100\tA.java\tB.java\n\n"
        "commit\tc3\t300\tdev1@example.com\nM\tB.java\n"
    )
    history = mine_history(text, window_seconds=0)
    assert history.file_commit_count == {"B.java": 3}


def test_rename_under_clock_skew_by_one_author_stays_unbundled():
    """The skew log again with one author: c2 is dated 100 s before c1, which is no gap of 0."""
    text = (
        "commit\tc1\t200\tdev1@example.com\nA\tA.java\n\n"
        "commit\tc2\t100\tdev1@example.com\nR100\tA.java\tB.java\n\n"
        "commit\tc3\t300\tdev1@example.com\nM\tB.java\n"
    )
    history = mine_history(text, window_seconds=0)
    assert history.file_commit_count == {"B.java": 3}


# --topo-order lists a merged branch's commits together, after the main-line
# commit m2 that is dated later than both of them; mg is the merge itself
MERGE_LOG = (
    "commit\tm1\t100\tdev@example.com\nA\tMain.java\n\n"
    "commit\tm2\t300\tdev@example.com\nM\tMain.java\n\n"
    "commit\tb1\t150\tdev@example.com\nA\tSide.java\n\n"
    "commit\tb2\t200\tdev@example.com\nM\tSide.java\n\n"
    "commit\tmg\t400\tdev@example.com\n"
)


def test_merged_branch_dated_before_the_commit_ahead_of_it_stays_unbundled():
    events = parse_git_log(MERGE_LOG)
    assert [e.commit_hash for e in events] == ["m1", "m2", "b1", "b2"]
    assert [b.files for b in bundle_commits(events, window_seconds=0)] == [
        {"Main.java"}, {"Main.java"}, {"Side.java"}, {"Side.java"}
    ]
    # 150 s from m2 back to b1 is within a window of 150; m1 to m2 is not
    assert [b.files for b in bundle_commits(events, window_seconds=150)] == [
        {"Main.java"}, {"Main.java", "Side.java"}
    ]


def test_parse_honors_extension_filter():
    events = parse_git_log(SIMPLE_LOG, extension=".txt")
    assert [e.filename for e in events] == ["notes.txt"]


_HEADER = "commit\tabc\t100\tdev@example.com\n"


# each text and its message; the text is the test's id
_PARSE_ERRORS = {
    "commit\tabc\t100\n": "line 1: malformed commit header: 'commit\\tabc\\t100'",
    "commit\tabc\tnope\tdev@example.com\n": "line 1: bad timestamp: 'nope'",
    "A\tX.java\n": "line 1: file change before any commit header",
    "M\tX.java\n" + _HEADER: "line 1: file change before any commit header",
    _HEADER + "T\tX.java\n": "line 2: unknown status letter: 'T'",
    _HEADER + "C055\tX.java\tY.java\n": "line 2: unknown status letter: 'C'",
    _HEADER + "M100\tX.java\n": "line 2: unexpected score on M status",
    _HEADER + "R\tX.java\tY.java\n": "line 2: rename without similarity score",
    _HEADER + "R030\tX.java\tY.java\n": "line 2: rename similarity out of range: 30",
    _HEADER + "R100\tX.java\n": "line 2: rename needs old and new path",
    _HEADER + "A\tX.java\tY.java\n": "line 2: expected exactly one path",
    _HEADER + "A\tX.java\t\n": "line 2: expected exactly one path",
    _HEADER + "D\n": "line 2: expected exactly one path",
    _HEADER + "m\tX.java\n": "line 2: malformed status token: 'm'",
    _HEADER + "AD\tX.java\n": "line 2: malformed status token: 'AD'",
    # `\d` matches any Unicode digit; git writes a score in ASCII digits alone
    _HEADER + "R١٠٠\tA.java\tB.java\n": "line 2: malformed status token: 'R١٠٠'",
    _HEADER + "M١\tX.java\n": "line 2: malformed status token: 'M١'",
    _HEADER + "\n \t\nM\tX.java\tY.java\n": "line 4: expected exactly one path",
    # `int` reads each of these; git writes a commit time in ASCII digits alone
    "commit\tabc\t 7 \tdev@example.com\n": "line 1: bad timestamp: ' 7 '",
    "commit\tabc\t+5\tdev@example.com\n": "line 1: bad timestamp: '+5'",
    "commit\tabc\t1_0\tdev@example.com\n": "line 1: bad timestamp: '1_0'",
    "commit\tabc\t١٢٣\tdev@example.com\n": "line 1: bad timestamp: '١٢٣'",
}


@pytest.mark.parametrize("text", list(_PARSE_ERRORS))
def test_parse_errors(text):
    with pytest.raises(GitLogError) as info:
        parse_git_log(text)
    assert str(info.value) == _PARSE_ERRORS[text]


def test_rename_score_past_the_digit_limit_of_int_is_out_of_range():
    """`int` reads at most 4300 digits from a string; a longer score raised a bare ValueError."""
    with pytest.raises(GitLogError) as info:
        parse_git_log(_HEADER + "R" + "9" * 5000 + "\tX.java\tY.java\n")
    assert str(info.value) == "line 2: rename similarity out of range: 5000 digits"


@pytest.mark.parametrize(
    "char", ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
)
def test_only_a_newline_ends_a_log_line(char):
    """`str.splitlines` breaks at each of these; in a log they stay inside the path."""
    name = f"a{char}b.java"
    events = parse_git_log(f"commit\th1\t100\tdev@example.com\nA\t{name}\nM\tc.java\n")
    assert [(e.status, e.filename) for e in events] == [(ADD, name), (MODIFY, "c.java")]


def test_a_log_saved_with_crlf_line_ends_parses_as_with_lf():
    assert parse_git_log(SIMPLE_LOG.replace("\n", "\r\n")) == parse_git_log(SIMPLE_LOG)


# the same change logged with and without rename detection: X.java leaves the extension
RENAMED_OUT = (
    "commit\tc1\t1000\tdev@example.com\nA\tX.java\nA\tY.java\n\n"
    "commit\tc2\t9000\tdev@example.com\nR100\tX.java\tX.kt\nM\tY.java\n"
)
DELETED_AND_ADDED = (
    "commit\tc1\t1000\tdev@example.com\nA\tX.java\nA\tY.java\n\n"
    "commit\tc2\t9000\tdev@example.com\nD\tX.java\nA\tX.kt\nM\tY.java\n"
)


def test_rename_out_of_the_extension_deletes_the_old_path():
    assert parse_git_log(RENAMED_OUT)[2] == ("c2", 9000, "dev@example.com", DELETE, "X.java", None)
    text = mine_history(RENAMED_OUT).serialize()
    assert text == mine_history(DELETED_AND_ADDED).serialize()
    assert json.loads(text)["fileChanges"] == {"Y.java": {"count": 2, "with": {}}}


# pieces of change lines: git's own forms, and forms git never writes
_STATUS_TOKENS = st.sampled_from(
    ["A", "D", "M", "R100", "R087", "R050", "R049", "R101", "R0100", "R", "M100", "A1", "T",
     "C055", "U", "m", "r100", "AD", "", " ", "A ", " M", "commit", "R٥٠", "R１００", "M٣",
     "R" + "9" * 5000]
)
_PATHS = st.sampled_from(["X.java", "src/Y.java", "Z.kt", "X.java.kt", "Café.java", "", " "])
# each holds a character at which `str.splitlines` breaks, ends in a CR, or adds a tab
_ODD_PATHS = st.sampled_from(
    ["a\rb.java", "a\x1cb.java", "x\x1c", "\r", "a\u2028b.java", "\x85", "q.java\t", "A\tB.java"]
)
_HEADERS = st.builds(
    "commit\t{}\t{}\t{}".format,
    st.sampled_from(["h1", "h2", "h3"]),
    st.sampled_from(["100", "5000", "4000"]),
    st.sampled_from(["Dev@Example.COM", "b@x"]),
)
_BAD_HEADERS = st.builds(
    lambda fields: "\t".join(["commit", *fields]),
    st.lists(
        st.sampled_from(["h1", "", "100", "١٢٣", "+5", " 7 ", "1_0", "nope", "9" * 5000, "a@x"]),
        max_size=4,
    ),
)
_CHANGES = st.one_of(
    st.builds("{}\t{}".format, st.sampled_from("ADM"), _PATHS),
    st.builds("{}\t{}\t{}".format, st.sampled_from(["R100", "R087", "R050"]), _PATHS, _PATHS),
)
_BAD_CHANGES = st.builds(
    lambda token, paths: "\t".join([token, *paths]),
    _STATUS_TOKENS,
    st.lists(_PATHS | _ODD_PATHS, max_size=3),
)
_BLANK = st.sampled_from(["", " ", "\t", "\t\t", "　", "\x0c"])


@st.composite
def git_logs(draw):
    """Valid commits, then up to three corrupted lines put anywhere among them."""
    lines = []
    for header, changes in draw(st.lists(st.tuples(_HEADERS, st.lists(_CHANGES, max_size=4)))):
        lines += [header, *changes, ""]
    for line in draw(st.lists(st.one_of(_BAD_HEADERS, _BAD_CHANGES, _BLANK), max_size=3)):
        lines.insert(draw(st.integers(0, len(lines))), line)
    return "\n".join(lines)


def _check_against_the_former_parser(text, extension=".java"):
    try:
        expected = oracles.git_log_events(text, extension)
    except ValueError as exc:
        with pytest.raises(GitLogError) as info:
            parse_git_log(text, extension)
        assert str(info.value) == str(exc)
        return
    assert [tuple(e) for e in parse_git_log(text, extension)] == expected


@given(git_logs(), st.sampled_from([".java", ".kt", ""]))
@example(RENAMED_OUT, ".java")
@settings(max_examples=400, deadline=None)
def test_parse_equals_the_former_parser(text, extension):
    _check_against_the_former_parser(text, extension)


@given(st.text() | st.text(alphabet="ADMRcommit\t\n\r\x1c\u2028 05٥.java"))
@example("commit\th\t1\ta\nR" + "9" * 5000 + "\tX.java\tY.java")
@settings(max_examples=400, deadline=None)
def test_arbitrary_text_raises_only_git_log_errors(text):
    _check_against_the_former_parser(text)


def _event(hash_, ts, status, filename, previous=None, author="dev@example.com"):
    return ChangeEvent(hash_, ts, author, status, filename, previous)


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


def test_change_after_the_delete_in_log_order_revives_under_clock_skew():
    """c3 follows the delete in the log, though its clock dates it before c2: K.java lives."""
    text = (
        "commit\tc1\t100\tdev@example.com\nA\tK.java\nA\tO.java\n\n"
        "commit\tc2\t300\tdev@example.com\nD\tK.java\n\n"
        "commit\tc3\t200\tdev@example.com\nA\tK.java\n"
    )
    history = mine_history(text, window_seconds=0)
    assert history.file_commit_count == {"K.java": 2, "O.java": 1}
    events = [_event("c1", 200, MODIFY, "F.java"), _event("c2", 100, DELETE, "F.java")]
    assert prune_deleted(events) == []  # a delete dated before the change still follows it


def test_bundling_chains_within_window():
    events = [
        _event("c1", 0, ADD, "A.java", author="x@x"),
        _event("c2", 1800, MODIFY, "A.java", author="x@x"),
        _event("c3", 5400, MODIFY, "B.java", author="x@x"),  # 3600 after c2: still chained
    ]
    bundles = bundle_commits(events)
    assert len(bundles) == 1
    assert bundles[0] == LogicalCommit("x@x", {"A.java", "B.java"})


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


def test_counts_over_logical_commits():
    commits = [
        LogicalCommit("x", {"A", "B"}),
        LogicalCommit("y", {"A", "B", "C"}),
        LogicalCommit("x", {"A"}),
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
    logical = [LogicalCommit(a, f) for a, f in commits]
    return logical, draw(st.integers(1, 6))


@given(logical_commit_lists())
@example(
    (
        [
            LogicalCommit("a@x", {"A"}),
            LogicalCommit("b@x", {"A", "B"}),
            LogicalCommit("a@x", {"A", "B", "C", "D"}),
            LogicalCommit("a@x", {"B", "C"}),
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
        LogicalCommit("x", {f"F{i}" for i in range(101)}),
        LogicalCommit("x", {"A"}),
    ]
    history = build_history_representation(commits)
    assert history.files() == ["A"]


def test_no_usable_history_raises():
    with pytest.raises(HistoryError, match="no usable history"):
        build_history_representation([])
    oversized = [LogicalCommit("x", {f"F{i}" for i in range(200)})]
    with pytest.raises(HistoryError, match="no usable history"):
        build_history_representation(oversized)


def test_unknown_file_reads_as_empty():
    history = build_history_representation([LogicalCommit("x", {"A"})])
    assert "B" not in history.positions
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
    text = oracles.history_json(*parts)
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
        DevelopmentHistory.parse(json.dumps(raw))


def test_history_json_integer_beyond_the_int_digit_limit_is_a_history_error():
    """`int` reads at most 4300 digits from a string; json.loads raised a bare ValueError."""
    count = "1" * 5000
    text = '{"fileChanges": {"P.java": {"count": ' + count + ', "with": {}}}, "authorship": {}}'
    message = r"^invalid history JSON: Exceeds the limit \(4300 digits\)"
    with pytest.raises(HistoryError, match=message):
        DevelopmentHistory.parse(text)


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
            DevelopmentHistory.parse(json.dumps(raw))
        return
    history = DevelopmentHistory.parse(json.dumps(raw))
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


@given(commit_stream(), st.booleans(), st.randoms())
@settings(max_examples=80, deadline=None)
def test_prune_drops_exactly_the_dead_files(events, shuffled, rng):
    # shuffled events no longer follow their times
    if shuffled:
        rng.shuffle(events)
    dead = oracles.dead_files([(e.filename, e.status) for e in events])
    assert prune_deleted(events) == [
        e for e in events if e.status != DELETE and e.filename not in dead
    ]
