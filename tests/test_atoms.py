import json

import hypothesis.strategies as st
import pytest
from hypothesis import given

from ordkit import atom_from_json, atom_to_json, finset, leaf, pair, tagged, word
from ordkit.errors import InputError

from .oracles import atom_key

tokens = st.sampled_from(["a", "b", "c"])

atoms = st.recursive(
    st.builds(leaf, tokens),
    lambda kids: st.one_of(
        st.builds(pair, kids, kids),
        st.builds(tagged, kids, st.integers(0, 3)),
        st.builds(lambda els: finset(els), st.lists(kids, max_size=3)),
        st.builds(lambda syms: word(syms), st.lists(tokens, max_size=3)),
    ),
    max_leaves=6,
)


@given(atoms, atoms)
def test_total_order_trichotomy(a, b):
    assert (a < b) + (a == b) + (b < a) == 1


@given(atoms, atoms, atoms)
def test_order_transitive(a, b, c):
    x, y, z = sorted([a, b, c])
    assert x <= y <= z and x <= z


@given(st.lists(atoms, max_size=8))
def test_order_and_equality_are_the_canonical_key(items):
    def key(a):
        return atom_key(atom_to_json(a))

    assert sorted(items) == sorted(items, key=key)
    for a in items:
        for b in items:
            assert (a == b) == (key(a) == key(b))


def test_atom_equals_the_plain_tuple_of_its_contents():
    assert leaf("a") == (0, "a") and hash(leaf("a")) == hash((0, "a"))
    assert leaf("a") != "a"
    assert pair(leaf("a"), leaf("b")) == (1, (0, "a"), (0, "b"))
    assert json.dumps(finset([leaf("b"), leaf("a")])) == '[4, [[0, "a"], [0, "b"]]]'


@given(atoms)
def test_json_round_trip(a):
    assert atom_from_json(json.loads(json.dumps(atom_to_json(a)))) == a


def test_shape_rank_order():
    l = leaf("a")
    assert l < pair(l, l) < tagged(l, 0) < word("a") < finset([l])


def test_finset_is_canonical():
    a, b = leaf("a"), leaf("b")
    assert finset([b, a, b]) == finset([a, b])
    assert finset([b, a]).data[0] == (a, b)


def test_equality_is_structural():
    assert leaf("a") == leaf("a")
    assert pair(leaf("a"), leaf("b")) == pair(leaf("a"), leaf("b"))
    assert tagged(leaf("a"), 1) != tagged(leaf("a"), 2)
    assert word(("a", "b")) != word(("b", "a"))


def test_bad_json_reports_path():
    with pytest.raises(InputError) as err:
        atom_from_json({"pair": ["a", 3]}, "$.x")
    assert "$.x.pair" in str(err.value)
    with pytest.raises(InputError):
        atom_from_json({"mystery": []})
    with pytest.raises(InputError):
        atom_from_json(12)
    with pytest.raises(InputError):
        atom_from_json({"tag": ["a", True]})
