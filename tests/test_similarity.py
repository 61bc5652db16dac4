"""Six similarity measures, entity-file mapping, and matrix blending."""

import csv
import io
import json
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from monosplit import (
    DevelopmentHistory,
    SimilarityError,
    Weights,
    build_similarity_matrix,
    enumerate_weights,
    load_access_model,
    map_entities_to_files,
    matrix_csv,
)
from monosplit.similarity import (
    MEASURE_NAMES,
    _author_matrix,
    _commit_matrix,
    blend,
    measure_matrices,
)
from synth import (
    NAME,
    commits_to_history,
    empty_history,
    history_parts,
    random_commits,
    random_traces,
    to_model,
)

THREE_SHARED = {
    "f1": [["e1", "R"]],
    "f2": [["e1", "W"], ["e2", "R"]],
    "f3": [["e1", "R"], ["e2", "W"]],
}


class Unreadable:
    """A history or a mapping that fails on any read."""

    def __getattr__(self, name):
        raise AssertionError(f"read .{name}")

    def __getitem__(self, key):
        raise AssertionError(f"read [{key!r}]")


def _model(traces):
    return load_access_model(json.dumps(traces))


def _measure(model, name, entity_a, entity_b, history=None, entity_files=None):
    """One cell of a measure matrix, looked up by measure and entity names.

    Without a history, only the four trace measures are computed.
    """
    if history is None:
        stack = measure_matrices(model, Unreadable(), Unreadable(), Weights(25, 25, 25, 25, 0, 0))
    else:
        stack = measure_matrices(model, history, entity_files)
    i, j = model.entities.index(entity_a), model.entities.index(entity_b)
    return float(stack[MEASURE_NAMES.index(name)][i, j])


def test_access_measure_is_asymmetric_overlap():
    model = _model(THREE_SHARED)
    assert _measure(model, "access", "e1", "e2") == pytest.approx(2 / 3)
    assert _measure(model, "access", "e2", "e1") == 1.0


def test_access_measure_empty_side_is_zero():
    model = _model({"f1": [["e1", "R"], ["e2", "W"]]})
    assert _measure(model, "write", "e1", "e2") == 0.0  # e1 is never written
    assert _measure(model, "write", "e2", "e1") == 0.0  # empty intersection
    assert _measure(model, "write", "e2", "e2") == 1.0
    assert _measure(model, "read", "e2", "e1") == 0.0


def test_sequence_measure_counts_adjacent_positions():
    model = _model({"f": [["A", "R"], ["B", "W"], ["A", "R"], ["C", "R"]]})
    # pairs: (A,B) twice, (A,C) once; the maximum is 2
    assert _measure(model, "sequence", "A", "B") == 1.0
    assert _measure(model, "sequence", "B", "A") == 1.0
    assert _measure(model, "sequence", "A", "C") == 0.5
    assert _measure(model, "sequence", "B", "C") == 0.0
    assert _measure(model, "sequence", "A", "A") == 0.0


def test_sequence_measure_ignores_self_adjacency():
    model = _model({"f": [["A", "R"], ["A", "W"], ["B", "R"]]})
    assert _measure(model, "sequence", "A", "B") == 1.0


def test_sequence_measure_without_adjacency_is_zero():
    model = _model({"f1": [["A", "R"]], "f2": [["B", "W"]]})
    assert _measure(model, "sequence", "A", "B") == 0.0


COMMITS = [
    ("x", {"src/A.java", "src/B.java"}),
    ("y", {"src/A.java", "src/B.java", "src/C.java"}),
    ("x", {"src/A.java"}),
]
ABC = {"f": [["A", "R"], ["B", "R"], ["C", "R"]]}
ABC_FILES = {"A": "src/A.java", "B": "src/B.java", "C": "src/C.java"}


@pytest.fixture()
def small_history():
    return commits_to_history(COMMITS)


def test_commit_measure(small_history):
    model = _model(ABC)

    def commit(a, b):
        return _measure(model, "commit", a, b, small_history, ABC_FILES)

    assert commit("A", "B") == pytest.approx(2 / 3)
    assert commit("B", "A") == 1.0
    assert commit("A", "A") == 1.0
    assert commit("A", "C") == pytest.approx(1 / 3)
    # a file the history lacks reads as no file
    lost = measure_matrices(model, small_history, {**ABC_FILES, "B": "src/Nope.java"})
    unmapped = measure_matrices(model, small_history, {**ABC_FILES, "B": None})
    assert _same_bits(lost, unmapped)


def test_author_measure(small_history):
    model = _model(ABC)
    assert _measure(model, "author", "A", "C", small_history, ABC_FILES) == 0.5
    assert _measure(model, "author", "C", "A", small_history, ABC_FILES) == 1.0


def test_history_matrices_of_entities_sharing_a_file(small_history):
    model = _model({"f1": [["A", "R"], ["A2", "W"], ["C", "R"]]})
    entity_files = {"A": "src/A.java", "A2": "src/A.java", "C": "src/C.java"}
    stack = measure_matrices(model, small_history, entity_files)
    a, a2, c = (model.entities.index(e) for e in ("A", "A2", "C"))
    for name, oracle in (("commit", oracles.commit_measure), ("author", oracles.author_measure)):
        matrix = stack[MEASURE_NAMES.index(name)]
        assert matrix[a, a2] == matrix[a2, a] == 1.0
        assert matrix[a2, c] == matrix[a, c] == oracle(COMMITS, "src/A.java", "src/C.java")
        assert matrix[c, a2] == matrix[c, a] == oracle(COMMITS, "src/C.java", "src/A.java")


@st.composite
def mapped_histories(draw):
    """A random history and entities mapped to its files, to None or to a file it lacks."""
    parts = draw(history_parts())
    absent = draw(NAME.filter(lambda name: name not in parts[0]))
    targets = [*sorted(parts[0]), None, absent]
    entities = [f"E{i}" for i in range(draw(st.integers(1, 8)))]
    return parts, entities, {e: draw(st.sampled_from(targets)) for e in entities}


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


_SHARED = (
    {"a.java": 3, "b.java": 2},
    {"a.java": {"b.java": 2}, "b.java": {"a.java": 2}},
    {"a.java": frozenset({"x", "y"}), "b.java": frozenset({"y"})},
)


@given(mapped_histories())
@example(
    (_SHARED, ["A", "A2", "B", "N"], {"A": "a.java", "A2": "a.java", "B": "b.java", "N": None}),
)
@settings(max_examples=300, deadline=None)
def test_history_measures_equal_the_former_loops(case):
    parts, entities, entity_files = case
    history = DevelopmentHistory.parse(oracles.history_json(*parts))
    counts, co_changes, file_authors = parts
    _, incidence, _ = oracles.entity_authors(file_authors, entity_files)
    assert _same_bits(history.entity_authors(list(entity_files.values())), incidence.astype(bool))
    assert _same_bits(
        _author_matrix(entities, history, entity_files),
        oracles.author_matrix(entities, file_authors, entity_files),
    )
    # the former loop raised on a file the history lacks; such an entity now reads as unmapped
    known = {e: f if f in history.positions else None for e, f in entity_files.items()}
    assert _same_bits(
        _commit_matrix(entities, history, entity_files),
        oracles.commit_matrix(entities, counts, co_changes, known),
    )


def test_weights_validation():
    Weights(10, 0, 0, 40, 30, 20)
    Weights(25, 25, 25, 25, 0, 0)  # any integers summing to 100 are usable
    with pytest.raises(SimilarityError):
        Weights(50, 50, 50, 0, 0, 0)
    with pytest.raises(SimilarityError):
        Weights(-10, 50, 30, 30, 0, 0)
    with pytest.raises(SimilarityError):
        Weights(110, 0, 0, -10, 0, 0)
    with pytest.raises(SimilarityError, match="weight access"):
        Weights(True, 99, 0, 0, 0, 0)


def test_weights_from_text():
    assert Weights.from_text("0,0,0,0,50,50") == Weights(0, 0, 0, 0, 50, 50)
    with pytest.raises(SimilarityError):
        Weights.from_text("1,2,3")
    with pytest.raises(SimilarityError):
        Weights.from_text("a,b,c,d,e,f")
    # surrounding spaces are stripped, and leading zeros read as `int` reads them
    assert Weights.from_text(" 0, 0,0 ,0,050,50") == Weights(0, 0, 0, 0, 50, 50)
    # int() reads each of these; the results CSV holds a weight in ASCII digits alone
    for text in ("1_0,90,0,0,0,0", "+10,90,0,0,0,0", "١٠,90,0,0,0,0", "110,-10,0,0,0,0"):
        with pytest.raises(SimilarityError, match=r"^weights must be integers in ASCII digits: "):
            Weights.from_text(text)
    with pytest.raises(SimilarityError, match=r"^weights must be integers: "):
        Weights.from_text("9" * 5000 + ",0,0,0,0,0")  # past the digit limit of int


# commit(A,B) = 2/3, author(A,B) = 1/2: A has three commits, two shared with B, one by x alone
HAND_COMMITS = [
    ("y", {"src/A.java", "src/B.java"}),
    ("y", {"src/A.java", "src/B.java"}),
    ("x", {"src/A.java"}),
]


def _at(model, matrix, entity_a, entity_b):
    return float(matrix[model.entities.index(entity_a), model.entities.index(entity_b)])


def test_blend_matches_hand_value():
    history = commits_to_history(HAND_COMMITS)
    model = _model({"f1": [["A", "R"], ["B", "W"]], "f2": [["B", "R"]]})
    entity_files = {"A": "src/A.java", "B": "src/B.java"}
    matrix = build_similarity_matrix(model, history, entity_files, Weights(0, 0, 0, 0, 50, 50))
    assert _at(model, matrix, "A", "B") == pytest.approx(7 / 12)  # (50*(2/3) + 50*(1/2)) / 100
    assert _at(model, matrix, "B", "A") == 1.0
    assert _at(model, matrix, "A", "A") == 1.0
    assert _at(model, matrix, "B", "B") == 1.0


def test_unmapped_entity_contributes_zero_history(small_history):
    model = _model({"f1": [["A", "R"], ["Ghost", "W"]]})
    entity_files = {"A": "src/A.java", "Ghost": None}
    matrix = build_similarity_matrix(model, small_history, entity_files, Weights(0, 0, 0, 0, 50, 50))
    assert _at(model, matrix, "A", "Ghost") == 0.0
    assert _at(model, matrix, "Ghost", "A") == 0.0


def test_missing_map_entry_with_history_weights_raises(small_history):
    model = _model({"f1": [["A", "R"], ["B", "W"]]})
    with pytest.raises(KeyError, match="B"):
        build_similarity_matrix(model, small_history, {"A": "src/A.java"}, Weights(0, 0, 0, 0, 100, 0))


@pytest.mark.parametrize("weights", [(100, 0, 0, 0, 0, 0), (10, 20, 30, 40, 0, 0)])
def test_history_and_map_not_read_without_history_weights(weights):
    model = _model({"f1": [["A", "R"], ["B", "W"]], "f2": [["B", "R"], ["C", "W"]]})
    matrix = build_similarity_matrix(model, Unreadable(), Unreadable(), Weights(*weights))
    full = measure_matrices(model, empty_history(), dict.fromkeys(model.entities))
    assert _same_bits(matrix, blend(full, Weights(*weights)))
    assert _at(model, matrix, "A", "B") > 0


def test_each_history_measure_reads_the_history_only_when_weighted(small_history):
    """Commit weight alone never asks for authors; author weight alone never for co-changes."""

    class AuthorsOnly:
        def __getattr__(self, name):
            if name == "shared_commits":
                raise AssertionError("read the co-changes")
            return getattr(small_history, name)

    class CoChangesOnly:
        def __getattr__(self, name):
            if name == "entity_authors":
                raise AssertionError("read the authors")
            return getattr(small_history, name)

    model = _model(ABC)
    full = measure_matrices(model, small_history, ABC_FILES)
    cases = ((CoChangesOnly(), (50, 0, 0, 0, 50, 0)), (AuthorsOnly(), (0, 0, 0, 0, 0, 100)))
    for history, weights in cases:
        stack = measure_matrices(model, history, ABC_FILES, Weights(*weights))
        for index, weight in enumerate(weights):
            assert _same_bits(stack[index], full[index] if weight else np.zeros_like(full[index]))


@given(
    st.integers(0, 10**6),
    st.integers(1, 12),
    st.lists(st.sampled_from(enumerate_weights(10)), min_size=1, max_size=8),
)
@settings(max_examples=60, deadline=None)
def test_weighted_measures_blend_as_the_full_stack(seed, n_entities, vectors):
    """Leaving the measures of weight 0 at zero keeps every bit of the blend."""
    rng = random.Random(seed)
    model = to_model(random_traces(rng, n_entities))
    commits, files = random_commits(rng, model.entities)
    history = commits_to_history(commits)
    full = measure_matrices(model, history, files)
    for weights in vectors:
        weighted = measure_matrices(model, history, files, weights)
        assert _same_bits(blend(weighted, weights), blend(full, weights)), weights.as_tuple()


def test_map_to_file_absent_from_history_reads_as_unmapped(small_history):
    model = _model({"f1": [["A", "R"], ["B", "W"]]})
    weights = Weights(0, 0, 0, 0, 50, 50)
    lost = build_similarity_matrix(model, small_history, {"A": "src/A.java", "B": "src/Nope.java"}, weights)
    unmapped = build_similarity_matrix(model, small_history, {"A": "src/A.java", "B": None}, weights)
    assert _same_bits(lost, unmapped)
    assert _at(model, lost, "A", "B") == _at(model, lost, "B", "A") == 0.0


def test_map_entities_by_basename(small_history):
    mapping = map_entities_to_files(["A", "B", "Ghost"], small_history)
    assert mapping == {"A": "src/A.java", "B": "src/B.java", "Ghost": None}


def test_map_prefers_shortest_path():
    history = commits_to_history([("x", {"a/A.java", "deep/legacy/A.java"})])
    mapping = map_entities_to_files(["A"], history)
    assert mapping == {"A": "a/A.java"}


def test_map_by_name_less_its_last_extension(caplog):
    """The history's own extension decides: no extension is passed in.

    Only the last extension goes, so in a history mined with `--ext .test.kt`
    entity `B` maps to no file.
    """
    history = commits_to_history([("x", {"src/A.kt", "src/B.test.kt", "README"})])
    with caplog.at_level("WARNING", logger="monosplit"):
        mapping = map_entities_to_files(["A", "B", "B.test", "README"], history)
    assert mapping == {"A": "src/A.kt", "B": None, "B.test": "src/B.test.kt", "README": "README"}
    assert caplog.messages == ["entity B: no history file named B"]


def test_map_stem_shared_across_extensions_keeps_the_shortest_path(caplog):
    history = commits_to_history([("x", {"a/A.java", "deep/x/A.kt"})])
    with caplog.at_level("WARNING", logger="monosplit"):
        mapping = map_entities_to_files(["A"], history)
    assert mapping == {"A": "a/A.java"}
    assert caplog.messages == ["entity A: 2 candidate files, keeping a/A.java"]


def test_matrix_csv_format():
    history = commits_to_history(HAND_COMMITS)
    model = _model({"f1": [["A", "R"], ["B", "W"]]})
    entity_files = {"A": "src/A.java", "B": "src/B.java"}
    matrix = build_similarity_matrix(model, history, entity_files, Weights(0, 0, 0, 0, 50, 50))
    lines = matrix_csv(model.entities, matrix).splitlines()
    assert lines[0] == "entity,A,B"
    assert lines[1] == "A,1.000000,0.583333"
    assert lines[2] == "B,1.000000,1.000000"
    assert len(lines) == 3


def test_matrix_csv_quotes_entity_names():
    """A name holding a comma, a quote or a line break stays one cell; a plain one keeps its bytes."""
    entities = ("a,b", 'd"e', "plain", "x\ny")
    text = matrix_csv(entities, np.eye(len(entities)))
    header, *rows = csv.reader(io.StringIO(text))
    assert header == ["entity", *entities]
    assert [row[0] for row in rows] == list(entities)
    assert all(len(row) == len(entities) + 1 for row in rows)
    assert "\nplain,0.000000,0.000000,1.000000,0.000000\n" in text


def _per_cell_csv(entities, values):
    """The matrix CSV that csv.writer writes with one f-string per cell, the writer's reference."""
    if not entities:
        return "entity,\n"  # the header of no names keeps its comma, as the writer always wrote it
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["entity", *entities])
    for entity, row in zip(entities, values):
        writer.writerow([entity, *(f"{v:.6f}" for v in row)])
    return buffer.getvalue()


# names of these characters, and the empty name; only `,`, `"`, CR and LF need quotes
ENTITY_NAMES = st.text(alphabet=[",", '"', "\r", "\n", " ", "\u2028", "a", "Z"], max_size=5)

SPECIAL_CELLS = [0.0, -0.0, 1.0, 5e-7, -5e-7, 5e-324, -5e-324, 2.2250738585072014e-308]
SPECIAL_CELLS += [math.inf, -math.inf, math.nan]


@st.composite
def rounding_boundaries(draw):
    """A half-way point of the sixth decimal, or its float neighbour on either side."""
    value = (draw(st.integers(-(10**6), 10**6)) + 0.5) / 1e6
    toward = draw(st.sampled_from([None, -math.inf, math.inf]))
    return value if toward is None else float(np.nextafter(value, toward))


@st.composite
def float_matrices(draw):
    """Square float64 matrices, n in 0..8: mixed cells, one repeated cell, or all cells distinct."""
    n = draw(st.integers(0, 8))
    cells = st.one_of(st.sampled_from(SPECIAL_CELLS), rounding_boundaries(), st.floats(width=64))
    layout = draw(st.sampled_from(["mixed", "equal", "distinct"]))
    if layout == "mixed":
        values = draw(st.lists(cells, min_size=n * n, max_size=n * n))
    elif layout == "equal":
        values = [draw(cells)] * (n * n)
    else:
        values = draw(st.lists(st.floats(allow_nan=False), min_size=n * n, max_size=n * n, unique=True))
    matrix = np.array(values, dtype=np.float64).reshape(n, n)
    return matrix.T if draw(st.booleans()) else matrix  # the writer must not rely on C order


@settings(deadline=None, max_examples=300)
@given(float_matrices(), st.lists(ENTITY_NAMES, min_size=8, max_size=8))
@example(np.eye(8), ["", " ", "a,b", 'a"b', "\r", "\n", "\u2028", "plain"])
def test_matrix_csv_formats_every_cell_as_its_own_f_string(values, names):
    """... and writes every entity name as csv.writer does, quoted only where it must be."""
    entities = tuple(names[: len(values)])
    assert matrix_csv(entities, values) == _per_cell_csv(entities, values)


def _random_setup(seed, n_entities=6):
    rng = random.Random(seed)
    traces = random_traces(rng, n_entities)
    model = to_model(traces)
    commits, files = random_commits(rng, model.entities)
    history = commits_to_history(commits)
    return rng, traces, model, commits, history, files


@pytest.mark.parametrize("seed", range(8))
def test_measures_match_oracles(seed):
    _, traces, model, commits, history, files = _random_setup(seed)
    stack = measure_matrices(model, history, files)
    oracle = {
        "access": lambda a, b: oracles.access_measure(traces, a, b, "ANY"),
        "read": lambda a, b: oracles.access_measure(traces, a, b, "R"),
        "write": lambda a, b: oracles.access_measure(traces, a, b, "W"),
        "sequence": lambda a, b: oracles.sequence_measure(traces, a, b),
        "commit": lambda a, b: oracles.commit_measure(commits, files[a], files[b]),
        "author": lambda a, b: oracles.author_measure(commits, files[a], files[b]),
    }
    for matrix, name in zip(stack, MEASURE_NAMES):
        for i, a in enumerate(model.entities):
            for j, b in enumerate(model.entities):
                assert matrix[i, j] == pytest.approx(oracle[name](a, b), abs=1e-12), (name, a, b)


@pytest.mark.parametrize("seed", range(6))
def test_all_measures_within_unit_range(seed):
    _, _, model, _, history, files = _random_setup(seed)
    stack = measure_matrices(model, history, files)
    assert stack.shape == (len(MEASURE_NAMES), len(model.entities), len(model.entities))
    for name, values in zip(MEASURE_NAMES, stack):
        assert np.all(values >= 0.0) and np.all(values <= 1.0), name
    sequence = stack[MEASURE_NAMES.index("sequence")]
    assert np.allclose(sequence, sequence.T)


@pytest.mark.parametrize("index,name", list(enumerate(MEASURE_NAMES)))
def test_concentrated_weights_reproduce_each_measure(index, name):
    _, _, model, _, history, files = _random_setup(42)
    stack = measure_matrices(model, history, files)
    vector = [0] * 6
    vector[index] = 100
    blended = build_similarity_matrix(model, history, files, Weights(*vector))
    n = len(model.entities)
    off_diagonal = ~np.eye(n, dtype=bool)
    # up to one rounding of the multiply/divide by 100 round trip
    assert np.allclose(blended[off_diagonal], stack[index][off_diagonal], rtol=0, atol=1e-15)
    assert np.all(np.diag(blended) == 1.0)


@given(st.integers(min_value=0, max_value=999), st.data())
@settings(max_examples=30, deadline=None)
def test_blending_shift_is_linear_in_the_moved_weight(seed, data):
    _, _, model, _, history, files = _random_setup(seed, n_entities=4)
    stack = measure_matrices(model, history, files)
    base = [20, 20, 20, 20, 10, 10]
    up = data.draw(st.integers(min_value=0, max_value=5), label="up")
    down = data.draw(st.integers(min_value=0, max_value=5), label="down")
    if up == down:
        return
    moved = base[:]
    moved[up] += 10
    moved[down] -= 10
    before = blend(stack, Weights(*base))
    after = blend(stack, Weights(*moved))
    expected_delta = 0.1 * (stack[up] - stack[down])
    n = len(model.entities)
    off_diagonal = ~np.eye(n, dtype=bool)
    assert np.allclose((after - before)[off_diagonal], expected_delta[off_diagonal], atol=1e-12)
