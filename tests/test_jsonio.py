from __future__ import annotations

import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amflood.jsonio import Encoded, dumps_stable

_SCALARS = st.none() | st.booleans() | st.integers() | st.text()
_TREES = st.recursive(
    _SCALARS,
    lambda children: (st.lists(children, max_size=4)
                      | st.lists(st.dictionaries(st.text(), children, max_size=3), max_size=3)
                      | st.dictionaries(st.text(), children, max_size=4)),
    max_leaves=30)


def _reference(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


@settings(max_examples=300, deadline=None)
@given(_TREES)
def test_dumps_stable_matches_json_dumps(obj):
    assert dumps_stable(obj) == _reference(obj)


@pytest.mark.parametrize("obj", [
    {}, [], [{}], {"": [], "é": {}}, [{"b": 1, "a": None}, {"ü": "ß\u2028"}],
    {"x": [[{}]], "y": [1, {"a": True}]}, {10: "int keys", 9: [{"b": 1}]},
], ids=repr)
def test_dumps_stable_on_edge_trees(obj):
    assert dumps_stable(obj) == _reference(obj)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.integers(), max_size=3), max_size=4))
def test_an_encoded_array_writes_what_it_stands_for(items):
    texts = (json.dumps(x, separators=(",", ":")) for x in items)
    obj = {"rounds": Encoded.array(texts), "rest": [{"k": 0}]}
    assert dumps_stable(obj) == _reference({"rounds": items, "rest": [{"k": 0}]})


def test_an_encoded_value_survives_pickle():
    obj = [{"trace": {"rounds": Encoded.array(["[1]", "[]"])}}]
    back = pickle.loads(pickle.dumps(obj))
    assert back == obj and back[0]["trace"]["rounds"] != Encoded(["[]"])
    assert dumps_stable(back) == dumps_stable(obj)


@pytest.mark.parametrize("obj", [
    [1, 2, Encoded(["3"])],
    [Encoded(["3"]), {"a": 1}],
    {"a": ({"b": Encoded(["3"])},)},
    {1: Encoded(["3"])},
], ids=["in_a_list_of_ints", "first_in_a_list", "in_a_tuple", "under_an_int_key"])
def test_an_encoded_value_outside_the_walk_is_refused(obj):
    with pytest.raises(TypeError):
        dumps_stable(obj)
