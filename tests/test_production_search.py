"""The version-space production search against naive game-tree oracles.

These run in every lane: the production kernels are pure Python even when
the compiled extension is built.
"""

import random
from functools import lru_cache

from ordkit import (
    _kernels_py as py,
    dim,
    ew_product,
    leaf,
    longest_production_sequence,
    mk_qo,
    mk_system,
    ss,
)
from ordkit.atoms import atom_to_json
from ordkit.generators import all_systems, random_system

from .oracles import naive_dim


def small_systems():
    """Every system on at most 3 elements, then seeded ones on 4-5 elements."""
    for n in range(4):
        yield from all_systems(n)
    rng = random.Random(11)
    for _ in range(40):
        yield random_system(rng, rng.randint(4, 5), 7)


def mask_args(system):
    support, masks = system.masks()
    return masks, (1 << len(support)) - 1


def naive_state_depths(masks, support_mask):
    """Game-tree depth of every reachable (seen, hyp) state, from the rules."""
    members = set(masks)
    bits = [1 << i for i in range(support_mask.bit_length()) if support_mask >> i & 1]

    def moves(seen, hyp):
        for t in bits:
            if hyp is None or not t & hyp:
                for m in members:
                    if (seen | t) & ~m == 0:
                        yield seen | t, m

    @lru_cache(maxsize=None)
    def depth(seen, hyp):
        return max((1 + depth(*nxt) for nxt in moves(seen, hyp)), default=0)

    reached, todo = set(), [(0, None)]
    while todo:
        for nxt in moves(*todo.pop()):
            if nxt not in reached:
                reached.add(nxt)
                todo.append(nxt)
    return {state: depth(*state) for state in reached}


def test_production_rank_matches_naive_dim():
    for system in small_systems():
        assert py.production_rank(*mask_args(system)) == naive_dim(system)


def test_production_state_rank_matches_naive_depth_at_every_reachable_state():
    for system in small_systems():
        masks, support_mask = mask_args(system)
        for (seen, hyp), depth in naive_state_depths(masks, support_mask).items():
            assert py.production_state_rank(masks, support_mask, seen, hyp) == depth


def test_production_rank_on_duplicate_and_empty_members():
    assert py.production_rank((), 0) == 0
    assert py.production_rank((0, 0), 0b11) == 0
    assert py.production_rank((0b01, 0b01, 0b11), 0b11) == py.production_rank(
        (0b01, 0b11), 0b11
    )
    wide = 1 << 80
    assert py.production_rank((wide,), wide) == 1


def powerset_system(n):
    u = [leaf(str(i)) for i in range(n)]
    members = [
        tuple(a for i, a in enumerate(u) if mask >> i & 1) for mask in range(1 << n)
    ]
    return mk_system(u, members)


def witness_json(system):
    return [
        [atom_to_json(t), [atom_to_json(a) for a in h]]
        for t, h in longest_production_sequence(system).steps
    ]


def test_witness_of_antichain_up_sets_is_pinned():
    # the up-sets of a 9-antichain are all 512 subsets; recorded at the
    # (examples, hypothesis) search that preceded the version-space one
    system = ss(mk_qo([leaf(str(i)) for i in range(9)]))
    expected = [[str(k), [str(i) for i in range(k + 1)]] for k in range(9)]
    assert dim(system) == 9
    assert witness_json(system) == expected


def test_witness_of_powerset_product_is_pinned():
    def p(a, b):
        return {"pair": [str(a), str(b)]}

    def row(a):
        return [p(a, b) for b in range(3)]

    expected = [
        [p(0, 0), [p(0, 0)]],
        [p(0, 1), [p(0, 0), p(0, 1)]],
        [p(0, 2), row(0)],
        [p(1, 0), row(0) + row(1)],
        [p(2, 0), row(0) + row(1) + row(2)],
    ]
    system = ew_product(powerset_system(3), powerset_system(3))
    assert dim(system) == 5
    assert witness_json(system) == expected


def test_witness_reuses_the_memo_dim_filled():
    system = ew_product(powerset_system(2), powerset_system(3))
    py.production_rank(*mask_args(system))
    misses = py._solver.cache_info().misses
    longest_production_sequence(system)
    assert py._solver.cache_info().misses == misses


def test_solver_cache_stays_bounded():
    rng = random.Random(5)
    for _ in range(50):
        py.production_rank(tuple(rng.randrange(1, 64) for _ in range(6)), 63)
    info = py._solver.cache_info()
    assert info.maxsize == 8 and info.currsize <= info.maxsize
