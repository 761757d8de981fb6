import hashlib
import itertools
import json
import random
import tracemalloc

import pytest

from ordkit import (
    bang,
    ew_disjoint,
    ew_intersect,
    ew_product,
    ew_union,
    finset,
    leaf,
    mk_system,
    pair,
    perp,
    tagged,
    tagged_union,
)
from ordkit.errors import (
    DuplicateUniverseElement,
    ElementOutsideUniverse,
    EmptyOperandList,
    UniverseTooLarge,
)
from ordkit.generators import all_systems, random_system
from ordkit.systems import BANG_SUPPORT_BOUND, MEMBER_BOUND, _bits, system_from_json

from .oracles import bits_reference, nats, system


def test_bits_match_the_peeling_reference():
    rng = random.Random(29)
    masks = [0, 1 << 65535, (1 << 4096) - 1, rng.getrandbits(1 << 16)]
    for width in (0, 1, 8, 9, 16, 17, 64, 65, 80):
        top = (1 << width) - 1
        masks += [top, top >> 1, 1 << width >> 1]
        masks += [rng.getrandbits(width) if width else 0 for _ in range(50)]
    for mask in masks:
        assert _bits(mask) == bits_reference(mask)


def test_mk_system_dedups_members():
    s = system(2, (0,), (0,))
    assert len(s.members) == 1


def test_mk_system_eq14_families():
    l = system(3, (), (0,), (0, 1, 2))
    assert l.family == frozenset(
        {frozenset(), frozenset({leaf("0")}), frozenset(nats(3))}
    )


def test_mk_system_empty():
    s = mk_system([], [])
    assert s.universe == () and s.members == ()


def test_mk_system_errors():
    u = nats(2)
    with pytest.raises(ElementOutsideUniverse):
        mk_system(u, [(leaf("9"),)])
    with pytest.raises(DuplicateUniverseElement):
        mk_system([u[0], u[0]], [])


def test_canonical_bytes_under_permutation():
    u = nats(3)
    members = [(u[2], u[0]), (u[1],), ()]
    blobs = set()
    for perm_u in itertools.permutations(u):
        for perm_m in itertools.permutations(members):
            s = mk_system(perm_u, [tuple(reversed(m)) for m in perm_m])
            blobs.add(json.dumps(s.to_json(), sort_keys=True))
    assert len(blobs) == 1


def test_ew_union_examples():
    a = system(2, (), (0,))
    b = system(2, (1,))
    got = ew_union(a, b)
    assert got.family == system(2, (1,), (0, 1)).family

    l = system(3, (), (0,), (0, 1, 2))
    m = system(3, (), (1,), (0, 1, 2))
    # frozen from the pairwise enumeration oracle
    expected = {
        fl | fm for fl in l.member_sets for fm in m.member_sets
    }
    assert ew_union(l, m).family == frozenset(expected)
    assert ew_union(l, m).family == system(3, (), (0,), (1,), (0, 1), (0, 1, 2)).family

    # union with the empty-set system follows the pairwise definition
    assert ew_union(l, system(3, ())).family == l.family


def test_ew_intersect_examples():
    l = system(3, (), (0,), (0, 1, 2))
    m = system(3, (), (1,), (0, 1, 2))
    assert ew_intersect(l, m).family == system(3, (), (0,), (1,), (0, 1, 2)).family
    chain = system(3, (0,), (0, 1), (0, 1, 2))
    assert ew_intersect(chain, chain).family == chain.family
    assert ew_intersect(l, system(3, ())).family == frozenset({frozenset()})


def test_support_of_intersection_shrinks():
    rng = random.Random(7)
    for _ in range(100):
        a = random_system(rng, 4, 5)
        b = random_system(rng, 4, 5)
        got = set(ew_intersect(a, b).support)
        assert got <= set(a.support) & set(b.support)


def test_ew_product_examples():
    a = system(1, (0,))
    b = mk_system([leaf("1")], [(leaf("1"),)])
    got = ew_product(a, b)
    assert got.family == frozenset({frozenset({pair(leaf("0"), leaf("1"))})})
    m = system(2, (0,), (1,))
    assert ew_product(system(2, ()), m).family == frozenset({frozenset()})


def test_ew_product_member_count_bound():
    rng = random.Random(11)
    for _ in range(60):
        a = random_system(rng, 3, 3)
        b = random_system(rng, 3, 3)
        prod = ew_product(a, b)
        assert len(prod.members) <= len(a.members) * len(b.members)
        distinct = {
            frozenset((x, y) for x in fl for y in fm)
            for fl in a.member_sets
            for fm in b.member_sets
        }
        assert len(prod.members) == len(distinct)


def test_ew_disjoint_examples():
    a = system(1, (0,))
    got = ew_disjoint(a, a)
    zero = leaf("0")
    assert got.family == frozenset(
        {frozenset({tagged(zero, 1), tagged(zero, 2)})}
    )
    b = system(2, (0,), (1,), ())
    assert len(ew_disjoint(b, b).members) == len(b.members) ** 2
    single = ew_disjoint(b)
    assert len(single.members) == len(b.members)
    with pytest.raises(EmptyOperandList):
        ew_disjoint()


def test_ew_disjoint_refuses_a_member_count_over_budget():
    operands = [system(2, (), (0,), (1,), (0, 1))] * 20  # 4**20 choice tuples
    tracemalloc.start()
    try:
        with pytest.raises(UniverseTooLarge, match=f"{4**20} members, limit is {MEMBER_BOUND}"):
            ew_disjoint(*operands)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10_000
    assert len(ew_disjoint(*operands[:8]).members) == 4**8 == MEMBER_BOUND


def test_pairwise_ops_refuse_a_member_count_over_budget():
    u = nats(9)
    subsets = [[a for i, a in enumerate(u) if k >> i & 1] for k in range(300)]
    wide = mk_system(u, subsets)  # 300 * 300 member pairs
    tracemalloc.start()
    try:
        for op, name in ((ew_product, "product"), (ew_union, "union"),
                         (ew_intersect, "intersection")):
            with pytest.raises(UniverseTooLarge,
                               match=f"elementwise {name} has 90000 member pairs, limit is {MEMBER_BOUND}"):
                op(wide, wide)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    full = mk_system(u, subsets[:256])  # 256 * 256 pairs fit the budget exactly
    assert len(ew_union(full, full).members) == 256


def test_tagged_union_examples():
    a = system(1, (0,))
    got = tagged_union(a, a)
    zero = leaf("0")
    assert got.family == frozenset(
        {frozenset({tagged(zero, 1)}), frozenset({tagged(zero, 2)})}
    )
    b = system(2, (0,), (0, 1))
    assert len(tagged_union(b).members) == len(b.members)
    with pytest.raises(EmptyOperandList):
        tagged_union()


def test_bang_examples():
    a = system(1, (0,))
    got = bang(a)
    zero = leaf("0")
    assert got.family == frozenset(
        {frozenset({finset(()), finset((zero,))})}
    )
    b = system(3, (0, 1), (0, 1, 2))
    for member, source in zip(
        sorted(bang(b).member_sets, key=len), sorted(b.member_sets, key=len)
    ):
        assert len(member) == 2 ** len(source)


def test_bang_output_matches_the_recorded_digest():
    # sha256 of every system on at most 3 points and 200 seeded ones on 4 to
    # 10 points, recorded when bang still built each atom through finset
    systems = [s for n in range(4) for s in all_systems(n)]
    rng = random.Random(26)
    systems += [random_system(rng, rng.randint(4, 10), 6) for _ in range(200)]
    digest = hashlib.sha256()
    for s in systems:
        digest.update(json.dumps(bang(s).to_json()).encode())
    assert digest.hexdigest() == "94b1271c1dc7992294caf721bf6ccbb1af8f29bd617954dd99e71de45dfe02f0"


def test_bang_refuses_a_support_over_budget():
    u = nats(BANG_SUPPORT_BOUND + 1)
    singletons = mk_system(u, [(a,) for a in u])
    with pytest.raises(UniverseTooLarge, match="17 elements, limit is 16"):
        bang(singletons)


def test_perp_examples():
    a = system(2, (0,), (1,))
    zero, one = nats(2)
    assert perp(a).family == frozenset(
        {frozenset({finset((zero,))}), frozenset({finset((one,))})}
    )
    l = system(3, (), (0,), (0, 1, 2))
    whole = finset(nats(3))
    assert perp(l).family == frozenset(
        {frozenset({finset((leaf("0"),)), whole}), frozenset({whole})}
    )


def test_union_intersect_commutative_associative():
    rng = random.Random(3)
    for _ in range(40):
        a = random_system(rng, 3, 4)
        b = random_system(rng, 3, 4)
        c = random_system(rng, 3, 4)
        assert ew_union(a, b) == ew_union(b, a)
        assert ew_intersect(a, b) == ew_intersect(b, a)
        assert ew_union(ew_union(a, b), c) == ew_union(a, ew_union(b, c))
        assert ew_intersect(ew_intersect(a, b), c) == ew_intersect(
            a, ew_intersect(b, c)
        )


def test_system_json_round_trip():
    s = system(3, (), (0, 2))
    assert system_from_json(json.loads(json.dumps(s.to_json()))) == s
