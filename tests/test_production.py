import hashlib
import random

import pytest

from ordkit import (
    bang,
    dim,
    ew_disjoint,
    ew_intersect,
    ew_product,
    is_production_sequence,
    leaf,
    longest_production_sequence,
    mk_system,
    perp,
    tagged_union,
)
from ordkit.errors import HypothesisNotInSystem
from ordkit.generators import all_systems, random_system

from .oracles import naive_dim, nats, system


def test_is_production_sequence_examples():
    l = system(3, (), (0,), (0, 1, 2))
    u = nats(3)
    assert is_production_sequence(l, [(u[0], (u[0],)), (u[1], u)])
    assert not is_production_sequence(l, [(u[0], ())])
    assert is_production_sequence(l, [])
    # freshness violation: second example already explained
    assert not is_production_sequence(l, [(u[0], (u[0],)), (u[0], u)])
    with pytest.raises(HypothesisNotInSystem):
        is_production_sequence(l, [(u[0], (u[0], u[1]))])


def test_dim_fixtures():
    singl = system(4, (0,), (1,), (2,), (3,))
    assert dim(singl) == 1
    l = system(3, (), (0,), (0, 1, 2))
    m = system(3, (), (1,), (0, 1, 2))
    assert dim(l) == 2 and dim(m) == 2
    assert dim(mk_system([], [])) == 0
    assert dim(system(1, ())) == 0
    chain4 = system(3, (), (0,), (0, 1), (0, 1, 2))
    assert dim(chain4) == 3
    witness = longest_production_sequence(chain4)
    assert len(witness) == 3 and is_production_sequence(chain4, witness)


def test_dim_matches_naive_oracle_exhaustively():
    for n in range(4):
        for s in all_systems(n):
            assert dim(s) == naive_dim(s)


def test_dim_matches_naive_oracle_random():
    rng = random.Random(31)
    for _ in range(200):
        s = random_system(rng, 4, 5)
        assert dim(s) == naive_dim(s)


def test_monotone_in_the_family():
    for n in range(4):
        for s in all_systems(n):
            members = list(s.members)
            for drop in range(len(members)):
                sub = mk_system(s.universe, members[:drop] + members[drop + 1:])
                assert dim(sub) <= dim(s)
    rng = random.Random(37)
    for _ in range(100):
        s = random_system(rng, 5, 6)
        keep = [m for m in s.members if rng.random() < 0.6]
        assert dim(mk_system(s.universe, keep)) <= dim(s)


def test_relabeling_invariance():
    rng = random.Random(41)
    fresh = [leaf(t) for t in "pqrstu"]
    for _ in range(80):
        s = random_system(rng, 4, 5)
        table = dict(zip(nats(4), rng.sample(fresh, 4)))
        relabeled = mk_system(
            [table[a] for a in s.universe],
            [tuple(table[a] for a in m) for m in s.members],
        )
        assert dim(relabeled) == dim(s)


def test_witness_length_equals_dim():
    for n in range(4):
        for s in all_systems(n):
            w = longest_production_sequence(s)
            assert len(w) == dim(s)
            assert is_production_sequence(s, w)
    rng = random.Random(43)
    for _ in range(150):
        s = random_system(rng, 4, 6)
        w = longest_production_sequence(s)
        assert len(w) == dim(s) and is_production_sequence(s, w)


def test_witnesses_match_the_recorded_digest():
    # sha256 of every witness's steps, recorded at 04d4333
    digest = hashlib.sha256()
    for n in range(4):
        for s in all_systems(n):
            digest.update(repr(longest_production_sequence(s).steps).encode())
    rng = random.Random(5)
    for _ in range(3000):
        s = random_system(rng, 5, 10)
        digest.update(repr(longest_production_sequence(s).steps).encode())
    assert digest.hexdigest() == "cebeda031f0878fad2d20e97c8f7f2754836c54ea90b022f7e33defc595d9a88"


def test_product_and_intersection_bounds():
    for n in range(3):
        systems = list(all_systems(n))
        for a in systems:
            for b in systems:
                da, db = dim(a), dim(b)
                dprod = dim(ew_product(a, b))
                dcap = dim(ew_intersect(a, b))
                if da >= 1 and db >= 1:
                    assert dprod >= da + db - 1 >= dcap
                else:
                    assert dprod == 0 and dcap == 0


def test_product_bound_is_tight():
    one = mk_system([leaf("1")], [(leaf("1"),)])
    assert dim(ew_product(one, one)) == dim(one) + dim(one) - 1 == 1


def test_coproduct_dimension_is_max():
    for n in range(3):
        systems = list(all_systems(n))
        for a in systems:
            for b in systems:
                assert dim(tagged_union(a, b)) == max(dim(a), dim(b))


def test_disjoint_union_lower_bound():
    rng = random.Random(47)
    for _ in range(120):
        a = random_system(rng, 3, 4)
        b = random_system(rng, 3, 4)
        if a.members and b.members:
            assert dim(ew_disjoint(a, b)) >= max(dim(a), dim(b))


def test_bang_bounds_and_the_known_gap():
    # dim !M == dim M fails in general: the empty finset belongs to every
    # member of !M, so it is a free opening example.  The provable bounds:
    for n in range(4):
        for s in all_systems(n):
            d, db = dim(s), dim(bang(s))
            assert d <= db <= d + 1
    gap = system(2, (0,), (1,))
    assert dim(gap) == 1
    assert naive_dim(bang(gap)) == dim(bang(gap)) == 2


def test_perp_double_dual_bound():
    for n in range(4):
        for s in all_systems(n):
            assert dim(s) <= dim(perp(perp(s)))
    rng = random.Random(53)
    for _ in range(200):
        s = random_system(rng, 4, 6)
        assert dim(s) <= dim(perp(perp(s)))
