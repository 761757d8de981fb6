"""Every systems op against the atom-level reference canonical form.

The ops build their results on member bitmasks; here each op is redone on
atoms, the way the definitions read, and canonicalized by the atom-key
reference in ``oracles``.  The inputs live over nested atoms (pairs, tags,
words, finsets) listed in a shuffled order, so bit order and atom order
differ before canonicalization.  ``qo_of`` is checked the same way, against
the atom-scan reference.
"""

import itertools
import random

from ordkit import (
    atom_to_json,
    bang,
    bang_trace,
    direct_image,
    ew_disjoint,
    ew_intersect,
    ew_product,
    ew_union,
    finset,
    leaf,
    mk_qo,
    mk_system,
    pair,
    perp,
    qo_of,
    ss,
    tagged,
    tagged_union,
    word,
)
from ordkit.generators import all_systems, random_trace
from ordkit.systems import _bits, _index_order

from .oracles import bang_trace_reference, canonical_reference, qo_of_reference, upper_sets

TRIALS = 60


def atom_pool():
    leaves = [leaf(t) for t in ("b", "a", "10", "2")]
    pool = list(leaves)
    pool += [pair(x, y) for x in leaves[:2] for y in leaves[1:3]]
    pool += [tagged(x, k) for x in leaves[1:3] for k in (2, 1)]
    pool += [word(w) for w in ("ba", "a", "ab", "")]
    pool += [finset(leaves[:k]) for k in range(3)] + [finset([pair(leaves[0], leaves[1])])]
    return pool


POOL = atom_pool()


def raw_system(rng, size, max_members):
    """A universe and members listed in a random order, with repeats."""
    universe = rng.sample(POOL, size)
    members = []
    for _ in range(rng.randint(0, max_members)):
        m = [a for a in universe if rng.random() < 0.5]
        members.append(rng.sample(m, len(m)) + m[:1])
    return universe, members + members[:1]


def reference(universe, members):
    u, support, canon = canonical_reference(universe, members)
    return {"universe": u, "support": support, "members": canon}


def sets(ref):
    return [frozenset(m) for m in ref["members"]]


def ref_union(l, r):
    return reference(l["universe"] + r["universe"], [a | b for a in sets(l) for b in sets(r)])


def ref_intersect(l, r):
    return reference(l["universe"] + r["universe"], [a & b for a in sets(l) for b in sets(r)])


def ref_product(l, r):
    universe = [pair(x, y) for x in l["support"] for y in r["support"]]
    members = [{pair(x, y) for x in a for y in b} for a in sets(l) for b in sets(r)]
    return reference(universe, members)


def ref_tagged_atoms(refs):
    return [tagged(a, j + 1) for j, ref in enumerate(refs) for a in ref["support"]]


def ref_disjoint(*refs):
    combos = [frozenset()]
    for j, ref in enumerate(refs):
        combos = [c | {tagged(a, j + 1) for a in m} for c in combos for m in sets(ref)]
    return reference(ref_tagged_atoms(refs), combos)


def ref_tagged_union(*refs):
    members = [{tagged(a, j + 1) for a in m} for j, ref in enumerate(refs) for m in sets(ref)]
    return reference(ref_tagged_atoms(refs), members)


def subsets(atoms):
    atoms = list(atoms)
    return [
        finset(a for i, a in enumerate(atoms) if s >> i & 1) for s in range(1 << len(atoms))
    ]


def ref_bang(ref):
    return reference(subsets(ref["support"]), [subsets(m) for m in ref["members"]])


def ref_perp(ref):
    universe = [finset(m) for m in ref["members"] if m]
    members = [{finset(m) for m in ref["members"] if x in m} for x in ref["support"]]
    return reference(universe, members)


def assert_matches(got, ref):
    assert got.universe == ref["universe"]
    assert got.support == ref["support"]
    assert got.members == ref["members"]
    assert got.to_json() == {
        "universe": [atom_to_json(a) for a in ref["universe"]],
        "sets": [[atom_to_json(a) for a in m] for m in ref["members"]],
    }
    rng = random.Random(len(ref["members"]))
    rebuilt = mk_system(
        rng.sample(ref["universe"], len(ref["universe"])),
        [rng.sample(m, len(m)) for m in reversed(ref["members"])],
    )
    assert got == rebuilt and hash(got) == hash(rebuilt)


def system_and_reference(rng, size, max_members):
    universe, members = raw_system(rng, size, max_members)
    got = mk_system(universe, members)
    ref = reference(universe, members)
    assert_matches(got, ref)
    return got, ref


def test_binary_ops_match_the_reference():
    rng = random.Random(5)
    for _ in range(TRIALS):
        (a, ra), (b, rb) = (system_and_reference(rng, rng.randint(2, 5), 4) for _ in "ab")
        assert_matches(ew_union(a, b), ref_union(ra, rb))
        assert_matches(ew_intersect(a, b), ref_intersect(ra, rb))
        assert_matches(ew_product(a, b), ref_product(ra, rb))
        assert_matches(ew_disjoint(a, b), ref_disjoint(ra, rb))
        assert_matches(ew_disjoint(a), ref_disjoint(ra))
        assert_matches(tagged_union(a, b, a), ref_tagged_union(ra, rb, ra))


def test_unary_ops_match_the_reference():
    rng = random.Random(6)
    for _ in range(TRIALS):
        a, ra = system_and_reference(rng, rng.randint(0, 5), 5)
        assert_matches(bang(a), ref_bang(ra))
        assert_matches(perp(a), ref_perp(ra))
        assert_matches(perp(perp(a)), ref_perp(ref_perp(ra)))


def test_perp_matches_the_finset_reference_on_every_small_system():
    nested = (POOL[19], POOL[8], POOL[4])  # a finset, a tag and a pair, out of atom order
    for n in range(4):
        for s in all_systems(n):
            relabel = dict(zip(s.universe, nested))
            relabelled = mk_system(nested[:n], [[relabel[a] for a in m] for m in s.members])
            for t in (s, relabelled):
                assert_matches(perp(t), ref_perp(reference(t.universe, t.members)))


def test_bang_trace_matches_the_mk_trace_reference():
    atoms = (POOL[0], POOL[1], POOL[4], POOL[9], POOL[17], POOL[14])
    for n in range(5):
        for field in itertools.permutations(atoms, n):
            for f in (field, field + field[:1]):
                got, want = bang_trace(f), bang_trace_reference(f)
                assert got.source_field == want.source_field
                assert got.target_field == want.target_field
                assert got.options == want.options


def test_ss_and_direct_image_match_the_reference():
    rng = random.Random(7)
    for _ in range(TRIALS):
        elements = rng.sample(POOL, rng.randint(1, 5))
        rel = [(rng.choice(elements), rng.choice(elements)) for _ in range(3)]
        qo = mk_qo(elements, rel)
        assert_matches(ss(qo), reference(elements, upper_sets(qo)))

        a, ra = system_and_reference(rng, rng.randint(1, 4), 5)
        source = rng.sample(POOL, rng.randint(1, 4))
        trace = random_trace(rng, source, a.universe)
        images = [{x for x, v in trace.pairs if v <= m} for m in sets(ra)]
        assert_matches(direct_image(trace, a), reference(source, images))


def test_qo_of_matches_the_atom_scan():
    for n in range(4):
        for s in all_systems(n):
            assert qo_of(s) == qo_of_reference(s)
    rng = random.Random(8)
    for _ in range(TRIALS):
        universe, members = raw_system(rng, rng.randint(1, 6), 5)
        narrow = mk_system(universe, [[a for a in m if a != universe[0]] for m in members])
        assert len(narrow.support) < len(narrow.universe)
        for s in (mk_system(universe, members), narrow):
            assert qo_of(s) == qo_of_reference(s)
        elements = rng.sample(POOL, rng.randint(1, 5))
        qo = mk_qo(elements, [(rng.choice(elements), rng.choice(elements)) for _ in range(3)])
        assert qo_of(ss(qo)) == qo_of_reference(ss(qo)) == qo


def test_member_order_key_is_index_list_order():
    rng = random.Random(9)
    masks = list(range(1 << 9)) + [rng.getrandbits(rng.randint(1, 300)) for _ in range(500)]
    assert sorted(masks, key=_index_order) == sorted(masks, key=_bits)


def test_pool_order_differs_from_atom_order():
    assert POOL != sorted(POOL)
    assert len(set(POOL)) == len(POOL)
