"""Access model loading and its incidence arrays."""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from monosplit import AccessModelError, Weights, load_access_model
from monosplit.similarity import measure_matrices

CHECKOUT = '{"checkout": [["Order", "R"], ["Card", "W"]]}'


def test_load_single_functionality():
    model = load_access_model(CHECKOUT)
    assert model.entities == ("Card", "Order")
    assert model.functionalities == ("checkout",)
    assert model.steps.tolist() == [[0, 0], [1, 0]]  # one step, from Order to Card


def test_lookup_by_mode():
    model = load_access_model(CHECKOUT)
    # one row per functionality, one column per sorted entity
    assert model.read.tolist() == [[0, 1]]  # checkout reads Order
    assert model.write.tolist() == [[1, 0]]  # and writes Card
    assert model.touch.tolist() == [[1, 1]]


def test_consecutive_duplicates_survive():
    model = load_access_model('{"f": [["A", "R"], ["A", "R"], ["A", "W"]]}')
    assert model.steps.tolist() == [[2]]  # three accesses, two steps from A to A


def test_empty_trace_is_allowed():
    model = load_access_model('{"noop": [], "f": [["A", "R"]]}')
    assert model.entities == ("A",)


@pytest.mark.parametrize(
    "payload",
    [
        '{"f": [["A", "R"]], "f": [["B", "W"]]}',  # duplicate key
        '{"f": "not a list"}',
        '{"f": [["A", "X"]]}',  # bad mode
        '{"f": [["A"]]}',  # not a pair
        '{"f": [["", "R"]]}',  # empty entity
        '{"": [["A", "R"]]}',  # empty name
        '[["A", "R"]]',  # not an object
        "not json",
    ],
)
def test_schema_errors(payload):
    with pytest.raises(AccessModelError):
        load_access_model(payload)


@pytest.mark.parametrize(
    "payload, message",
    [
        # `int` reads at most 4300 digits from a string: json.loads raised a bare ValueError
        ('{"f": [["A", ' + "1" * 5000 + "]]}", r"^invalid JSON: Exceeds the limit \(4300 digits\)"),
        ('{"f": [], "f": []}', r"^duplicate functionality key: 'f'$"),
    ],
    ids=["5000-digit-integer", "duplicate-key"],
)
def test_json_errors_are_access_model_errors(payload, message):
    with pytest.raises(AccessModelError, match=message):
        load_access_model(payload)


traces_strategy = st.dictionaries(
    st.text(alphabet="abcdef", min_size=1, max_size=4),
    st.lists(
        st.tuples(st.sampled_from(["A", "B", "C", "D"]), st.sampled_from(["R", "W"])),
        max_size=6,
    ),
    min_size=1,
    max_size=5,
)


@given(traces_strategy)
def test_any_is_union_of_read_and_write(traces):
    payload = {name: [[e, m] for e, m in steps] for name, steps in traces.items()}
    model = load_access_model(json.dumps(payload))
    assert set(model.entities) == {e for steps in traces.values() for e, _ in steps}
    assert (model.touch == (model.read | model.write)).all()
    names = model.functionalities
    for column, entity in enumerate(model.entities):
        for array, mode in ((model.read, "R"), (model.write, "W"), (model.touch, "ANY")):
            accessing = {name for name, cell in zip(names, array[:, column]) if cell}
            assert accessing == oracles.funct_set(traces, entity, mode)
    stack = measure_matrices(model, None, None, Weights(25, 25, 25, 25, 0, 0))
    for matrix, mode in zip(stack, ("ANY", "R", "W")):  # the access, read and write measures
        for i, a in enumerate(model.entities):
            for j, b in enumerate(model.entities):
                assert matrix[i, j] == oracles.access_measure(traces, a, b, mode)


@given(traces_strategy)
def test_steps_count_every_directed_step(traces):
    payload = {name: [[e, m] for e, m in steps] for name, steps in traces.items()}
    model = load_access_model(json.dumps(payload))
    for i, first in enumerate(model.entities):
        for j, second in enumerate(model.entities):
            assert model.steps[i, j] == oracles.step_count(traces, first, second)
