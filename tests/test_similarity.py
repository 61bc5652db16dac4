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
    SimilarityMatrix,
    Weights,
    build_similarity_matrix,
    load_access_model,
    map_entities_to_files,
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


def _model(traces):
    return load_access_model(json.dumps(traces))


def _measure(model, name, entity_a, entity_b, history=None, entity_files=None):
    """One cell of a measure matrix, looked up by measure and entity names.

    Without a history, the history measures are not computed.
    """
    include_history = history is not None
    if not include_history:
        history, entity_files = empty_history(), {}
    stack = measure_matrices(model, history, entity_files, include_history=include_history)
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
    with pytest.raises(SimilarityError, match="Nope"):
        measure_matrices(model, small_history, {**ABC_FILES, "B": "src/Nope.java"})


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
    known = {e: f if f is None or history.has_file(f) else None for e, f in entity_files.items()}
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


# commit(A,B) = 2/3, author(A,B) = 1/2: A has three commits, two shared with B, one by x alone
HAND_COMMITS = [
    ("y", {"src/A.java", "src/B.java"}),
    ("y", {"src/A.java", "src/B.java"}),
    ("x", {"src/A.java"}),
]


def _at(matrix, entity_a, entity_b):
    return float(matrix.values[matrix.entities.index(entity_a), matrix.entities.index(entity_b)])


def test_blend_matches_hand_value():
    history = commits_to_history(HAND_COMMITS)
    model = _model({"f1": [["A", "R"], ["B", "W"]], "f2": [["B", "R"]]})
    entity_files = {"A": "src/A.java", "B": "src/B.java"}
    matrix = build_similarity_matrix(model, history, entity_files, Weights(0, 0, 0, 0, 50, 50))
    assert _at(matrix, "A", "B") == pytest.approx(7 / 12)  # (50*(2/3) + 50*(1/2)) / 100
    assert _at(matrix, "B", "A") == 1.0
    assert _at(matrix, "A", "A") == 1.0
    assert _at(matrix, "B", "B") == 1.0


def test_unmapped_entity_contributes_zero_history(small_history):
    model = _model({"f1": [["A", "R"], ["Ghost", "W"]]})
    entity_files = {"A": "src/A.java", "Ghost": None}
    matrix = build_similarity_matrix(model, small_history, entity_files, Weights(0, 0, 0, 0, 50, 50))
    assert _at(matrix, "A", "Ghost") == 0.0
    assert _at(matrix, "Ghost", "A") == 0.0


def test_missing_map_entry_with_history_weights_raises(small_history):
    model = _model({"f1": [["A", "R"], ["B", "W"]]})
    with pytest.raises(SimilarityError, match="B"):
        build_similarity_matrix(model, small_history, {"A": "src/A.java"}, Weights(0, 0, 0, 0, 100, 0))


def test_map_not_needed_without_history_weights():
    model = _model({"f1": [["A", "R"], ["B", "W"]]})
    matrix = build_similarity_matrix(model, empty_history(), {}, Weights(100, 0, 0, 0, 0, 0))
    assert _at(matrix, "A", "B") == 1.0


def test_map_to_file_absent_from_history_raises(small_history):
    model = _model({"f1": [["A", "R"]]})
    with pytest.raises(SimilarityError, match="Nope"):
        build_similarity_matrix(model, small_history, {"A": "src/Nope.java"}, Weights(0, 0, 0, 0, 100, 0))


def test_map_entities_by_basename(small_history):
    mapping = map_entities_to_files(["A", "B", "Ghost"], small_history)
    assert mapping == {"A": "src/A.java", "B": "src/B.java", "Ghost": None}


def test_map_prefers_shortest_path():
    history = commits_to_history([("x", {"a/A.java", "deep/legacy/A.java"})])
    mapping = map_entities_to_files(["A"], history)
    assert mapping == {"A": "a/A.java"}


def test_matrix_csv_format():
    history = commits_to_history(HAND_COMMITS)
    model = _model({"f1": [["A", "R"], ["B", "W"]]})
    entity_files = {"A": "src/A.java", "B": "src/B.java"}
    matrix = build_similarity_matrix(model, history, entity_files, Weights(0, 0, 0, 0, 50, 50))
    lines = matrix.to_csv().splitlines()
    assert lines[0] == "entity,A,B"
    assert lines[1] == "A,1.000000,0.583333"
    assert lines[2] == "B,1.000000,1.000000"
    assert len(lines) == 3


def test_matrix_csv_quotes_entity_names():
    """A name holding a comma, a quote or a line break stays one cell; a plain one keeps its bytes."""
    entities = ("a,b", 'd"e', "plain", "x\ny")
    matrix = SimilarityMatrix(entities, np.eye(len(entities)))
    text = matrix.to_csv()
    header, *rows = csv.reader(io.StringIO(text))
    assert header == ["entity", *entities]
    assert [row[0] for row in rows] == list(entities)
    assert all(len(row) == len(entities) + 1 for row in rows)
    assert "\nplain,0.000000,0.000000,1.000000,0.000000\n" in text


def _per_cell_csv(matrix):
    """The matrix CSV with one f-string per cell, the writer's reference."""
    lines = ["entity," + ",".join(matrix.entities)]
    for i, entity in enumerate(matrix.entities):
        lines.append(entity + "," + ",".join(f"{v:.6f}" for v in matrix.values[i]))
    return "\n".join(lines) + "\n"


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


@settings(deadline=None, max_examples=200)
@given(float_matrices())
def test_matrix_csv_formats_every_cell_as_its_own_f_string(values):
    matrix = SimilarityMatrix(tuple(f"E{i}" for i in range(len(values))), values)
    assert matrix.to_csv() == _per_cell_csv(matrix)


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
    blended = build_similarity_matrix(model, history, files, Weights(*vector)).values
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
