"""The version-space production search against naive game-tree oracles."""

import random
from functools import lru_cache

from ordkit import (
    _kernels_py as py,
    dim,
    ew_product,
    kernels,
    leaf,
    longest_production_sequence,
    mk_qo,
    mk_system,
    production,
    ss,
)
from ordkit.atoms import atom_to_json
from ordkit.generators import all_quasi_orders, all_systems, random_system

from .oracles import (
    naive_dim,
    production_solver_reference,
    production_witness_reference,
    solver_columns_reference,
    transpose_reference,
)


def small_systems():
    """Every system on at most 3 elements, then seeded ones on 4-5 elements."""
    for n in range(4):
        yield from all_systems(n)
    rng = random.Random(11)
    for _ in range(40):
        yield random_system(rng, rng.randint(4, 5), 7)


def member_masks(system):
    return system.masks()[1]


def naive_state_depths(masks):
    """Game-tree depth of every reachable (seen, hyp) state, from the rules."""
    members = set(masks)
    width = max(masks, default=0).bit_length()
    bits = [1 << i for i in range(width)]

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
        assert py.production_rank(member_masks(system)) == naive_dim(system)


def test_production_state_rank_matches_naive_depth_at_every_reachable_state():
    for system in small_systems():
        masks = member_masks(system)
        for (seen, hyp), depth in naive_state_depths(masks).items():
            assert py.production_state_rank(masks, seen, hyp) == depth


def test_production_rank_on_duplicate_and_empty_members():
    assert py.production_rank(()) == 0
    assert py.production_rank((0, 0)) == 0
    assert py.production_rank((0b01, 0b01, 0b11)) == py.production_rank((0b01, 0b11))
    # masks wider than a machine word, through the entry point callers use
    wide = 1 << 80
    assert py.production_rank((wide,)) == 1
    assert kernels.production_rank((wide,)) == 1


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
    py.production_rank(member_masks(system))
    misses = py._solver.cache_info().misses
    longest_production_sequence(system)
    assert py._solver.cache_info().misses == misses


def test_solver_cache_stays_bounded():
    rng = random.Random(5)
    for _ in range(50):
        py.production_rank(tuple(rng.randrange(1, 64) for _ in range(6)))
    info = py._solver.cache_info()
    assert info.maxsize == 8 and info.currsize <= info.maxsize


def ceiling_cases():
    """Every system on at most 3 points, the up-sets of every labelled
    quasi-order on at most 4 points, then 300 seeded systems."""
    for n in range(4):
        yield from all_systems(n)
    for n in range(5):
        for qo in all_quasi_orders(n):
            yield ss(qo)
    rng = random.Random(19)
    for _ in range(300):
        yield random_system(rng, rng.randint(4, 6), 12)


def ranked(solver_class, system):
    """The rank of every opening cover of ``system``, and the memo's size after."""
    solver = solver_class(tuple(dict.fromkeys(member_masks(system))))
    return [solver.rank(c) for c in sorted(set(solver.contains.values()))], len(solver.memo)


def dim_and_witness(system):
    production._dim_cached.cache_clear()
    return dim(system), witness_json(system)


def test_production_ceiling_matches_the_reference_and_never_grows_the_memo(monkeypatch):
    cases = list(ceiling_cases())
    for system in cases:
        ranks, states = ranked(py._ProductionSolver, system)
        want_ranks, want_states = ranked(production_solver_reference, system)
        assert ranks == want_ranks and states <= want_states, system
    py._solver.cache_clear()
    ours = [dim_and_witness(system) for system in cases]
    monkeypatch.setattr(py, "_solver", lru_cache(maxsize=8)(production_solver_reference))
    assert [dim_and_witness(system) for system in cases] == ours
    production._dim_cached.cache_clear()


def test_production_ceiling_memo_states_are_pinned():
    # the successor-count ceiling cuts the antichain up-sets from 2**k
    # states; the co-singletons need the |C| - 1 ceiling as well, without
    # which they take 16,383
    antichain_up_sets = [ss(mk_qo([leaf(str(i)) for i in range(k)])) for k in (9, 12)]
    assert [ranked(py._ProductionSolver, s)[1] for s in antichain_up_sets] == [46, 90]
    u = [leaf(str(i)) for i in range(14)]
    co_singletons = mk_system(u, [[a for a in u if a != b] for b in u])
    assert dim(co_singletons) == 13
    assert ranked(py._ProductionSolver, co_singletons)[1] == 113


def test_capped_ranks_are_the_uncapped_ranks_cut_at_the_cap():
    # the chain walk's solver; every state it ranked holds min(V(C), cap)
    for system in ceiling_cases():
        members = tuple(dict.fromkeys(member_masks(system)))
        uncapped = py._ProductionSolver(members)
        for cap in (1, 2, 3):
            capped = py._ProductionSolver(members, cap)
            for column in set(capped.contains.values()):
                capped.rank(column)
            assert all(r == min(uncapped.rank(c), cap) for c, r in capped.memo.items()), system


def test_witness_walk_matches_the_reference_walk():
    # the kernel's walk stops a candidate's scan at the remaining rank and
    # carries the cover forward; the reference ranks every candidate in full
    for system in ceiling_cases():
        masks = member_masks(system)
        want = production_witness_reference(masks)
        assert kernels.production_witness(masks) == want, system


def test_witness_of_the_16_antichain_up_sets_is_closed_form():
    # all 65,536 subsets of 16 points: example k, hypothesis {0, ..., k}
    points = [leaf(f"{i:02d}") for i in range(16)]
    system = ss(mk_qo(points))
    assert len(system.members) == 1 << 16
    assert dim(system) == 16
    assert longest_production_sequence(system).steps == tuple(
        (points[k], tuple(points[: k + 1])) for k in range(16)
    )


COLUMN_WIDTHS = (0, 1, 8, 9, 16, 17, 64, 65, 80)


def column_cases():
    """Members of every width in ``COLUMN_WIDTHS``, with zero and duplicate
    masks among them, then 4,096 and 65,536 members."""
    rng = random.Random(23)
    for width in COLUMN_WIDTHS:
        top = (1 << width) - 1
        for count in (1, 2, 7, 40):
            members = [rng.getrandbits(width) for _ in range(count)]
            yield tuple(members)
            yield tuple(members + [0, top] + members[:3] + [0])
    yield ()
    yield tuple(range(1 << 12))
    yield tuple(rng.getrandbits(80) for _ in range(1 << 12))
    yield tuple(range(1 << 16))


def test_solver_columns_match_the_bit_peeling_reference():
    for members in column_cases():
        contains, columns = solver_columns_reference(members)
        # ascending, the order in which the witness walk tries examples
        assert list(py._contains(members).items()) == sorted(contains.items())
        # the same columns in the same order, so ``rank`` visits the same states
        assert py._ProductionSolver(members).columns == columns
        # every column, zero ones included, up to the highest set bit and past
        # it, within its byte and into new byte planes; the cases hold no rows,
        # all-zero rows and rows up to 80 bits wide
        width = max(members, default=0).bit_length()
        want = transpose_reference(members, width)
        for extra in (0, 1, 9):
            assert kernels.transpose(members, width + extra) == want + [0] * extra
