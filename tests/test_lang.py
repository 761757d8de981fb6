import dataclasses
import hashlib
import json
import math
import random
import tracemalloc

import pytest

from ordkit import (
    _kernels_py as py,
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
from ordkit.lang import (
    CHAIN_CELL_BOUND,
    LANG_WORD_BOUND,
    ElasticityChain,
    all_words,
    fragment_from_json,
)

from .oracles import (
    closure_reference,
    combine_reference,
    elasticity_chain_reference,
    shuffle_by_positions,
)


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
    # the budget counts up to the longest pair that fits, not up to max_len
    far = [mk_fragment("ab", 20, [w]) for w in ("a", "b")]
    assert shuffle_product(*far).words == frozenset({"ab", "ba"})
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


def test_closures_match_the_fixed_point_reference():
    short_words = ["", "a", "b", "aa", "ab", "ba", "bb"]
    for mask in range(1 << len(short_words)):
        words = {w for i, w in enumerate(short_words) if mask >> i & 1}
        frag = mk_fragment("ab", 2, words)
        for kind in ("star", "plus", "shuffle_diamond", "shuffle_closure"):
            got = closure_bounded(frag, kind, 4)
            assert got.words == closure_reference(words, kind, 4), (sorted(words), kind)
            assert got.max_len == 4 and got.exact_up_to


def test_shuffle_product_and_concat_match_the_reference():
    rng = random.Random(13)
    pool = all_words("ab", 3)
    frags = [
        mk_fragment("ab", rng.choice((3, 4)), {w for w in pool if rng.random() < 0.3},
                    exact_up_to=rng.random() < 0.8)
        for _ in range(16)
    ]
    for lhs in frags:
        for rhs in frags:
            bound = min(lhs.max_len, rhs.max_len)
            for op, shuffle in ((shuffle_product, True), (concat, False)):
                got = op(lhs, rhs)
                assert got.words == combine_reference(lhs.words, rhs.words, bound, shuffle)
                assert got.max_len == bound
                assert got.exact_up_to == (lhs.exact_up_to and rhs.exact_up_to)


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
    # the reference takes about 2.8 s over all cases up to k = 5, and 6.7 s up to k = 6
    for horizon in (12, 24):
        for k in range(1, 6):
            chain = elasticity_chain(family, k, element_horizon=horizon, family_horizon=horizon)
            got = None if chain is None else (chain.elements, chain.families)
            assert got == elasticity_chain_reference(family, k, horizon, horizon)


# sha256 of the JSON list of [family, transform, k, chain or None] below,
# recorded with the depth-first search that kept its own dead-state memo
_CHAIN_GRID_DIGEST = "41f9c137fd27c9852fdff7b4e6cc64439665e8a89795d74e20942898cd262f81"


def test_elasticity_chains_at_64_by_64_match_the_recorded_digest():
    rows = []
    for name in ("singl", "dcl", "cosingl", "arith_prog"):
        for transform in (None, "complement", "down_closure"):
            family = canonical_family(name)
            if transform is not None:
                family = family_transform(transform, family, element_horizon=64)
            for k in range(1, 21):
                chain = elasticity_chain(family, k, element_horizon=64, family_horizon=64)
                rows.append([name, transform, k, None if chain is None else chain.to_json()])
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == _CHAIN_GRID_DIGEST


def test_chain_walk_ranks_covers_only_up_to_the_length(monkeypatch):
    # the complement of arith_prog at 64 x 64: uncapped, ranking the first
    # cover filled 1,540,029 memo states before any chain of any length
    family = family_transform("complement", canonical_family("arith_prog"), element_horizon=64)
    solvers = []

    def solver(members, cap=None):
        solvers.append(py._ProductionSolver(members, cap))
        return solvers[-1]

    monkeypatch.setattr(py, "_solver", solver)
    states = {}
    for k in (1, 15):
        chain = elasticity_chain(family, k)
        assert validate_chain(family, chain)
        states[k] = len(solvers[-1].memo)
    assert states == {1: 3, 15: 23_921}


def test_elasticity_chain_over_budget_reads_no_membership():
    dcl = canonical_family("dcl")
    calls = []

    def member_index(i, n):
        calls.append((i, n))
        return dcl.member_index(i, n)

    counted = dataclasses.replace(dcl, member_index=member_index)
    assert CHAIN_CELL_BOUND == 65536
    with pytest.raises(UniverseTooLarge, match="65537 cells, limit is 65536"):
        elasticity_chain(counted, 1, element_horizon=65537, family_horizon=1)
    with pytest.raises(UniverseTooLarge, match="1690000 cells, limit is 65536"):
        elasticity_chain(counted, 1200, element_horizon=1300, family_horizon=1300)
    assert calls == []
    # at the budget the whole matrix is read, once
    chain = elasticity_chain(counted, 3, element_horizon=256, family_horizon=256)
    assert chain == ElasticityChain((0, 1, 2, 3), (0, 1, 2))
    assert len(calls) == len(set(calls)) == 65536


def test_validator_rejects_corrupt_chain():
    dcl = canonical_family("dcl")
    assert not validate_chain(dcl, ElasticityChain((0, 1), (5,)))
    assert not validate_chain(dcl, ElasticityChain((0, 1, 2), (0,)))
