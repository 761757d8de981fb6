import dataclasses
import json
import math
import random
import tracemalloc

import pytest

from ordkit import (
    canonical_family,
    closure_bounded,
    concat,
    dim,
    elasticity_chain,
    family_transform,
    half,
    mk_fragment,
    power,
    qo_of,
    shuffle_product,
    shuffle_words,
    to_set_system,
    validate_chain,
)
from ordkit.errors import (
    AlphabetMismatch,
    BoundMismatch,
    HorizonRequired,
    InvalidQuery,
    UniverseTooLarge,
    UnknownFamily,
)
from ordkit.lang import LANG_WORD_BOUND, ElasticityChain, all_words, fragment_from_json

from .oracles import elasticity_chain_reference, shuffle_by_positions


def test_shuffle_words_base_cases():
    assert shuffle_words("", "ab") == frozenset({"ab"})
    assert shuffle_words("ab", "") == frozenset({"ab"})


def test_shuffle_words_fixture():
    got = shuffle_words("ab", "cd")
    assert got == frozenset({"abcd", "acbd", "acdb", "cabd", "cadb", "cdab"})
    assert got == shuffle_by_positions("ab", "cd")


def test_shuffle_words_count_bound():
    rng = random.Random(3)
    for _ in range(40):
        u = "".join(rng.choice("ab") for _ in range(rng.randint(0, 4)))
        v = "".join(rng.choice("cd") for _ in range(rng.randint(0, 4)))
        got = shuffle_words(u, v)
        assert got == shuffle_by_positions(u, v)
        assert len(got) == math.comb(len(u) + len(v), len(u))
    # shared letters only ever collapse words
    assert len(shuffle_words("ab", "ab")) <= math.comb(4, 2)


def test_shuffle_words_alphabet_check():
    with pytest.raises(AlphabetMismatch):
        shuffle_words("ab", "cd", alphabet="ab")


def test_shuffle_product_and_concat():
    a = mk_fragment("ab", 2, ["a"])
    b = mk_fragment("ab", 2, ["b"])
    assert shuffle_product(a, b).words == frozenset({"ab", "ba"})
    assert concat(a, b).words == frozenset({"ab"})
    assert power(mk_fragment("a", 3, ["a"]), 3).words == frozenset({"aaa"})
    with pytest.raises(AlphabetMismatch):
        shuffle_product(a, mk_fragment("xy", 2, ["x"]))


def test_bound_policy():
    a = mk_fragment("ab", 4, ["ab"], exact_up_to=True)
    b = mk_fragment("ab", 2, ["b"], exact_up_to=False)
    got = concat(a, b)
    assert got.max_len == 2 and not got.exact_up_to


def test_closure_fixtures():
    assert closure_bounded(mk_fragment("a", 1, ["a"]), "star", 3).words == frozenset(
        {"", "a", "aa", "aaa"}
    )
    got = closure_bounded(mk_fragment("ab", 2, ["ab"]), "shuffle_closure", 4)
    # frozen from the position-merge oracle: interleavings of ab with ab
    merges = shuffle_by_positions("ab", "ab")
    assert got.words == frozenset({"", "ab"}) | merges
    assert got.words == frozenset({"", "ab", "aabb", "abab"})
    plus = closure_bounded(mk_fragment("ab", 1, ["a"]), "plus", 3)
    star = closure_bounded(mk_fragment("ab", 1, ["a"]), "star", 3)
    assert plus.words == star.words - {""}
    with pytest.raises(InvalidQuery):
        closure_bounded(mk_fragment("a", 1, ["a"]), "weird", 3)
    with pytest.raises(InvalidQuery):
        closure_bounded(mk_fragment("a", 1, ["a"]), "star", -1)


def test_closure_refuses_a_word_space_over_budget_before_allocating():
    ab = mk_fragment("ab", 1, ["a", "b"])
    # sum_{k<=12} 2**k = 8,191 words fit the budget; one more length does not
    assert len(closure_bounded(ab, "star", 12).words) == 8191 <= LANG_WORD_BOUND
    with pytest.raises(UniverseTooLarge):
        closure_bounded(ab, "star", 13)
    # only letters of base words count, and without letters the space is one word
    assert closure_bounded(mk_fragment("ab", 1, ["a"]), "plus", 100).words == {
        "a" * k for k in range(1, 101)
    }
    assert closure_bounded(mk_fragment("a", 0, [""]), "star", 10**9).words == {""}
    one_letter = mk_fragment("a", 1, ["a"])
    tracemalloc.start()
    try:
        with pytest.raises(UniverseTooLarge):
            closure_bounded(one_letter, "shuffle_closure", 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def test_closure_monotone_and_idempotent():
    rng = random.Random(5)
    pool = all_words("ab", 3)
    for _ in range(30):
        words = {w for w in pool if rng.random() < 0.2}
        frag = mk_fragment("ab", 3, words)
        bigger = mk_fragment("ab", 3, words | {rng.choice(pool)})
        for kind in ("star", "plus", "shuffle_diamond", "shuffle_closure"):
            small = closure_bounded(frag, kind, 4)
            assert small.words <= closure_bounded(bigger, kind, 4).words
            assert small.words <= closure_bounded(frag, kind, 5).words
            again = closure_bounded(small, kind, 4)
            assert again.words == small.words


def test_epsilon_identities():
    rng = random.Random(7)
    pool = all_words("ab", 4)
    for _ in range(60):
        words = {w for w in pool if rng.random() < 0.15}
        frag = mk_fragment("ab", 4, words)
        minus = mk_fragment("ab", 4, words - {""})
        for diamond, closed in (("shuffle_diamond", "shuffle_closure"), ("plus", "star")):
            lhs = closure_bounded(minus, diamond, 4).words
            assert lhs == closure_bounded(frag, diamond, 4).words - {""}
            assert lhs | {""} == closure_bounded(frag, closed, 4).words


def test_half_examples():
    f = mk_fragment("abcd", 4, ["abcd"])
    assert half(f).words == frozenset({"ab"})
    assert half(mk_fragment("a", 1, ["a"])).words == frozenset({"a"})
    assert half(mk_fragment("a", 2, [])).words == frozenset()
    assert not half(f).exact_up_to


def test_to_set_system():
    a = mk_fragment("ab", 1, ["a"])
    b = mk_fragment("ab", 1, ["b"])
    s = to_set_system([a, b])
    assert dim(s) == 1
    q = qo_of(s)
    word_a = next(x for x in s.support)
    assert q.le(word_a, word_a)
    empty = to_set_system([])
    assert empty.members == ()
    with pytest.raises(BoundMismatch):
        to_set_system([a, mk_fragment("ab", 2, ["b"])])
    with pytest.raises(AlphabetMismatch):
        to_set_system([a, mk_fragment("xy", 1, ["x"])])


def test_fragment_json_round_trip():
    f = mk_fragment("ab", 3, ["ab", "b"], exact_up_to=False)
    assert fragment_from_json(json.loads(json.dumps(f.to_json()))) == f


def test_canonical_families():
    dcl = canonical_family("dcl")
    assert dcl.member_index(3, 2) and not dcl.member_index(3, 4)
    cosingl = canonical_family("cosingl")
    assert cosingl.member_index(3, 2) and not cosingl.member_index(3, 3)
    singl = canonical_family("singl")
    assert singl.member_index(3, 3) and not singl.member_index(3, 2)
    ap = canonical_family("arith_prog")
    assert ap.member_index(0, 0) and ap.member_index(0, 5)
    with pytest.raises(UnknownFamily):
        canonical_family("mystery")


def test_family_transforms():
    singl = canonical_family("singl")
    with pytest.raises(HorizonRequired):
        family_transform("down_closure", singl)
    down = family_transform("down_closure", singl, element_horizon=32)
    dcl = canonical_family("dcl")
    cosingl = canonical_family("cosingl")
    comp = family_transform("complement", singl)
    comp2 = family_transform("complement", comp)
    for i in range(10):
        for n in range(10):
            assert down.member_index(i, n) == dcl.member_index(i, n)
            assert comp.member_index(i, n) == cosingl.member_index(i, n)
            assert comp2.member_index(i, n) == singl.member_index(i, n)
    with pytest.raises(UnknownFamily):
        family_transform("mystery", singl)


def test_elasticity_chains():
    dcl = canonical_family("dcl")
    chain = elasticity_chain(dcl, 5)
    assert chain == ElasticityChain((0, 1, 2, 3, 4, 5), (0, 1, 2, 3, 4))
    assert validate_chain(dcl, chain)
    cosingl = canonical_family("cosingl")
    chain = elasticity_chain(cosingl, 5)
    assert chain == ElasticityChain((0, 1, 2, 3, 4, 5), (1, 2, 3, 4, 5))
    assert validate_chain(cosingl, chain)
    singl = canonical_family("singl")
    assert elasticity_chain(singl, 2) is None
    with pytest.raises(InvalidQuery):
        elasticity_chain(dcl, 0)
    with pytest.raises(InvalidQuery):
        elasticity_chain(dcl, 1, element_horizon=-1)
    with pytest.raises(InvalidQuery):
        elasticity_chain(dcl, 1, family_horizon=-1)


def test_elasticity_chain_answers_impossible_lengths_without_search():
    dcl = canonical_family("dcl")
    calls = []

    def member_index(i, n):
        calls.append((i, n))
        return dcl.member_index(i, n)

    counted = dataclasses.replace(dcl, member_index=member_index)
    # length k needs k + 1 distinct elements and k distinct families
    assert elasticity_chain(counted, 64) is None
    assert elasticity_chain(counted, 62, element_horizon=62) is None
    assert elasticity_chain(counted, 5, family_horizon=4) is None
    assert calls == []
    chain = elasticity_chain(counted, 4, element_horizon=5, family_horizon=4)
    assert chain == ElasticityChain((0, 1, 2, 3, 4), (0, 1, 2, 3))
    assert calls


@pytest.mark.parametrize("name", ["singl", "dcl", "cosingl", "arith_prog"])
@pytest.mark.parametrize("transform", [None, "complement", "down_closure"])
def test_elasticity_chain_matches_the_unmemoised_search(name, transform):
    family = canonical_family(name)
    if transform is not None:
        family = family_transform(transform, family, element_horizon=24)
    for horizon in (12, 24):
        for k in range(1, 5):
            chain = elasticity_chain(family, k, element_horizon=horizon, family_horizon=horizon)
            got = None if chain is None else (chain.elements, chain.families)
            assert got == elasticity_chain_reference(family, k, horizon, horizon)


def test_validator_rejects_corrupt_chain():
    dcl = canonical_family("dcl")
    assert not validate_chain(dcl, ElasticityChain((0, 1), (5,)))
    assert not validate_chain(dcl, ElasticityChain((0, 1, 2), (0,)))
