import itertools
import random
import tracemalloc

import pytest

from ordkit import (
    SetSystem,
    Simulation,
    compose_simulations,
    identity_simulation,
    intersect_qo,
    is_bad_sequence,
    is_coatomic_lattice,
    is_simulation,
    leaf,
    linearizations,
    mk_qo,
    mk_simulation,
    mk_system,
    otp,
    qo_of,
    ss,
    upset,
)
from ordkit import kernels, orders
from ordkit.errors import (
    CarrierMismatch,
    NotALattice,
    RelationNotClosed,
    UniverseTooLarge,
    UnknownElement,
)
from ordkit.generators import (
    all_quasi_orders,
    all_relations,
    all_systems,
    quasi_orders_up_to_iso,
    random_quasi_order,
    random_simulation,
    random_system,
)
from ordkit.systems import MEMBER_BOUND

from .oracles import (
    coatomic_reference,
    compose_simulations_reference,
    is_simulation_reference,
    linearizations_reference,
    naive_otp,
    nats,
    random_qo,
    ss_reference,
    system,
    upper_sets,
)


def chain(n):
    u = nats(n)
    return mk_qo(u, [(u[i], u[i + 1]) for i in range(n - 1)])


def antichain(n):
    return mk_qo(nats(n))


def test_mk_qo_closure_examples():
    u = nats(2)
    q = mk_qo(u, [(u[0], u[1])])
    assert set(q.pairs()) == {(u[0], u[0]), (u[1], u[1]), (u[0], u[1])}
    q = mk_qo(u, [(u[0], u[1]), (u[1], u[0])])
    assert q.le(u[0], u[1]) and q.le(u[1], u[0])
    u3 = nats(3)
    q = mk_qo(u3, [(u3[0], u3[1]), (u3[1], u3[2])])
    assert q.le(u3[0], u3[2])
    # only the JSON boundary rejects repeated elements; mk_qo merges them
    assert mk_qo(u3 + u3[:1], [(u3[0], u3[1])]) == mk_qo(u3, [(u3[0], u3[1])])


def test_mk_qo_strict_mode():
    u = nats(3)
    with pytest.raises(RelationNotClosed):
        mk_qo(u, [(u[0], u[1]), (u[1], u[2])], strict=True)
    q = mk_qo(u, [(u[0], u[1]), (u[1], u[2]), (u[0], u[2])], strict=True)
    assert q.le(u[0], u[2])
    with pytest.raises(UnknownElement):
        mk_qo(u[:1], [(u[0], u[2])])


def test_is_bad_sequence_examples():
    u = nats(2)
    two = chain(2)
    assert is_bad_sequence(two, [u[1], u[0]])
    assert not is_bad_sequence(two, [u[0], u[0]])
    assert is_bad_sequence(antichain(3), nats(3))
    with pytest.raises(UnknownElement):
        is_bad_sequence(two, [leaf("9")])


def test_otp_small_shapes():
    assert otp(mk_qo([])) == 0
    for n in range(1, 6):
        assert otp(antichain(n)) == n
        assert otp(chain(n)) == n


def test_otp_matches_naive_oracle():
    for n in range(5):
        for qo in all_quasi_orders(n):
            assert otp(qo) == naive_otp(qo)
    rng = random.Random(13)
    for _ in range(100):
        qo = random_quasi_order(rng, 5)
        assert otp(qo) == naive_otp(qo)


def test_otp_is_certified_by_the_bad_sequence_search():
    for n in range(5):
        for qo in all_quasi_orders(n):
            assert otp(qo) == kernels.bad_sequence_rank(qo.up)
    rng = random.Random(29)
    for _ in range(200):
        u = nats(rng.randint(5, 12))
        density = rng.uniform(0.02, 0.4)
        qo = mk_qo(u, [(x, y) for x in u for y in u if rng.random() < density])
        assert otp(qo) == kernels.bad_sequence_rank(qo.up)


def test_otp_of_a_large_antichain_runs_no_search():
    qo = antichain(200)
    tracemalloc.start()
    try:
        assert otp(qo) == 200
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_ss_examples():
    u = nats(2)
    assert ss(chain(2)).family == system(2, (), (1,), (0, 1)).family
    assert len(ss(antichain(2)).members) == 4
    with pytest.raises(UniverseTooLarge):
        ss(antichain(5), max_elements=4)


def test_ss_matches_definition_oracle():
    rng = random.Random(17)
    for _ in range(60):
        qo = random_quasi_order(rng, 5)
        assert set(ss(qo).member_sets) == upper_sets(qo)


def test_ss_of_intersection_counterexample():
    u = nats(3)
    le0 = mk_qo(u, [(u[1], u[2]), (u[2], u[1]), (u[1], u[0]), (u[2], u[0])])
    le1 = mk_qo(u, [(u[0], u[2]), (u[2], u[0]), (u[0], u[1]), (u[2], u[1])])
    inter = intersect_qo(le0, le1)
    assert not inter.le(u[0], u[1]) and not inter.le(u[1], u[0])
    assert inter.le(u[2], u[0]) and inter.le(u[2], u[1])
    assert ss(inter).family == system(3, (), (0,), (1,), (0, 1), (0, 1, 2)).family


def test_ss_matches_the_subset_scan():
    rng = random.Random(14)
    cases = [qo for n in range(5) for qo in all_quasi_orders(n)]
    cases += quasi_orders_up_to_iso(5)
    cases += [random_qo(rng, rng.randint(6, 12)) for _ in range(300)]
    for qo in cases:
        assert ss(qo).to_json() == ss_reference(qo).to_json(), qo


def test_ss_of_a_20_chain_is_its_21_final_segments():
    # the subset scan would visit 2**20 subsets here; the segments are the definition
    u = nats(20)
    got = ss(mk_qo(u, [(u[i], u[i + 1]) for i in range(19)]))
    assert len(got.members) == 21
    assert got.to_json() == mk_system(u, [u[i:] for i in range(21)]).to_json()


def test_ss_refuses_more_up_sets_than_the_member_bound(monkeypatch):
    # 16 incomparable points have exactly MEMBER_BOUND up-sets; 20 pass the
    # element bound but have 2**20, and the walk stops at the first one over
    assert len(ss(antichain(16)).members) == MEMBER_BOUND
    monkeypatch.setattr(orders, "_canonical", None)  # never reached
    with pytest.raises(UniverseTooLarge) as refused:
        ss(antichain(20))
    assert str(refused.value) == (
        f"up-set system has at least {MEMBER_BOUND + 1} members, limit is {MEMBER_BOUND}"
    )


def test_qo_of_examples():
    singl = system(4, (0,), (1,), (2,), (3,))
    assert qo_of(singl) == mk_qo(nats(4))
    trivial = system(2, ())
    q = qo_of(trivial)
    assert all(q.le(x, y) for x in nats(2) for y in nats(2))


def test_qo_roundtrip_exhaustive_small():
    for n in range(4):
        for qo in all_quasi_orders(n):
            assert qo_of(ss(qo)) == qo


def test_membership_containment():
    for n in range(4):
        for sys_ in all_systems(n):
            closed = ss(qo_of(sys_))
            assert sys_.family <= closed.family


def test_upset_examples():
    u = nats(3)
    c = chain(3)
    assert upset([], c) == ()
    assert upset([u[0]], c) == u
    rng = random.Random(23)
    for _ in range(50):
        qo = random_quasi_order(rng, 5)
        sample = [a for a in qo.elements if rng.random() < 0.4]
        up = set(upset(sample, qo))
        assert set(sample) <= up
        assert all(y in up for x in up for y in qo.elements if qo.le(x, y))


def test_finite_basis_property():
    rng = random.Random(29)
    for _ in range(40):
        qo = random_quasi_order(rng, 5)
        for member in ss(qo).member_sets:
            minimal = [
                x
                for x in member
                if not any(qo.le(y, x) and not qo.le(x, y) for y in member)
            ]
            assert frozenset(upset(minimal, qo)) == member


def test_dim_bounded_by_otp_of_induced_order():
    from ordkit import dim

    for n in range(4):
        for sys_ in all_systems(n):
            assert dim(sys_) <= otp(qo_of(sys_))
    rng = random.Random(59)
    for _ in range(500):
        sys_ = random_system(rng, 4, 6)
        assert dim(sys_) <= otp(qo_of(sys_))
    # strict for the singleton family: one game move, but long bad sequences
    singl = system(4, (0,), (1,), (2,), (3,))
    assert dim(singl) == 1 < otp(qo_of(singl)) == 4


def test_intersect_qo_examples():
    c = chain(3)
    assert intersect_qo(c, c) == c
    u = nats(3)
    rev = mk_qo(u, [(u[i + 1], u[i]) for i in range(2)])
    eq_order = intersect_qo(c, rev)
    assert eq_order == mk_qo(u)
    with pytest.raises(CarrierMismatch):
        intersect_qo(c, chain(2))


def test_intersect_qo_matches_pairwise_le():
    rng = random.Random(12)
    for _ in range(100):
        u = nats(rng.randint(0, 6))
        a, b = (mk_qo(u, [(x, y) for x in u for y in u if rng.random() < 0.3]) for _ in "ab")
        meet = intersect_qo(a, b)
        for x in u:
            for y in u:
                assert meet.le(x, y) == (a.le(x, y) and b.le(x, y))


def test_coatomic_examples():
    assert is_coatomic_lattice(system(2, (), (0, 1)))
    assert is_coatomic_lattice(system(2, (), (0,), (1,), (0, 1)))
    with pytest.raises(NotALattice):
        is_coatomic_lattice(system(2, (0,), (1,)))
    with pytest.raises(NotALattice):
        is_coatomic_lattice(mk_system(nats(2), []))


def test_coatomic_for_up_set_systems():
    for n in range(4):
        for qo in all_quasi_orders(n):
            assert is_coatomic_lattice(ss(qo))


def _coatomic_outcome(check, system_):
    try:
        return check(system_)
    except NotALattice as exc:
        return str(exc)


def test_coatomic_matches_the_pairwise_reference():
    rng = random.Random(14)
    cases = [s for n in range(4) for s in all_systems(n)]
    cases += [random_system(rng, rng.randint(4, 6), 12) for _ in range(300)]
    cases += [ss(qo) for n in range(6) for qo in all_quasi_orders(n)]
    # a support wider than the members' union: closed, but with no top
    no_top = SetSystem(nats(2), nats(2), (0, 1))
    assert _coatomic_outcome(is_coatomic_lattice, no_top) == "family has no top element"
    cases.append(no_top)
    outcomes = set()
    for s in cases:
        got = _coatomic_outcome(is_coatomic_lattice, s)
        assert got == _coatomic_outcome(coatomic_reference, s), s
        outcomes.add(got)
    assert outcomes == {
        True,
        "the family has no members",
        "family is not closed under union/intersection",
        "family has no top element",
    }


def test_is_simulation_examples():
    c2 = chain(2)
    assert is_simulation(identity_simulation(c2))
    assert is_simulation(mk_simulation(c2, c2, frozenset()))
    u = nats(2)
    partial = mk_simulation(c2, c2, frozenset({(u[0], u[1])}))
    assert not is_simulation(partial)


def test_linearizations_examples():
    lins = linearizations(antichain(3))
    assert len(lins) == 13
    assert any(len(t.elements) == 3 for t, _ in lins)
    assert all(is_simulation(s) for _, s in lins)
    lins = linearizations(chain(3))
    assert len(lins) == 4
    assert any(len(t.elements) == 3 for t, _ in lins)
    with pytest.raises(UniverseTooLarge):
        linearizations(antichain(9))


def test_linearization_bound():
    for n in range(4):
        for qo in all_quasi_orders(n):
            for target, simf in linearizations(qo):
                assert otp(target) <= otp(qo)
                assert is_simulation(simf)


def test_simulation_rows_hold_the_pairs():
    c2 = chain(2)
    u = nats(2)
    assert identity_simulation(c2).rows == (0b01, 0b10)
    assert mk_simulation(c2, antichain(1), frozenset({(u[1], u[0])})).rows == (0, 1)
    assert mk_simulation(c2, c2, frozenset()).rows == (0, 0)


def test_mk_simulation_refuses_an_atom_outside_either_carrier():
    c2, c1 = chain(2), chain(1)
    u, stray = nats(2), leaf("9")
    with pytest.raises(UnknownElement) as bad_source:
        mk_simulation(c2, c1, [(u[0], u[0]), (stray, u[0])])
    assert bad_source.value.atom == stray
    with pytest.raises(UnknownElement) as bad_target:
        mk_simulation(c2, c1, [(u[0], u[0]), (u[1], u[1])])
    assert bad_target.value.atom == u[1]


def test_simulation_pairs_are_a_view_of_the_rows():
    c2 = chain(2)
    u = nats(2)
    sim = Simulation(c2, c2, (0b11, 0b10))
    assert sim.pairs == {(u[0], u[0]), (u[0], u[1]), (u[1], u[1])}
    assert mk_simulation(c2, c2, sim.pairs) == sim


def test_all_relations_follow_the_cell_order():
    # relation number `mask` holds cell k of the row-major cell list iff bit k is set
    for n, m in itertools.product(range(3), repeat=2):
        x, y = chain(n), antichain(m)
        cells = [(a, b) for a in x.elements for b in y.elements]
        want = [
            frozenset(c for k, c in enumerate(cells) if mask >> k & 1)
            for mask in range(1 << len(cells))
        ]
        assert [r.pairs for r in all_relations(x, y)] == want


def test_is_simulation_matches_the_pairwise_reference():
    # every relation between every pair of labelled orders on at most 2 points
    for n in range(3):
        for m in range(3):
            for x in all_quasi_orders(n):
                for y in all_quasi_orders(m):
                    for cand in all_relations(x, y):
                        assert is_simulation(cand) == is_simulation_reference(cand), cand


def test_linearizations_match_the_reference():
    for n in range(5):
        for qo in all_quasi_orders(n):
            assert linearizations(qo) == linearizations_reference(qo)


def test_compose_simulations_matches_the_reference():
    rng = random.Random(29)
    for _ in range(300):
        x, y, z = (random_quasi_order(rng, 4) for _ in range(3))
        r = random_simulation(rng, x, y)
        s = random_simulation(rng, y, z)
        assert compose_simulations(s, r) == compose_simulations_reference(s, r)
        # and on relations that need not be simulations
        r = mk_simulation(x, y, frozenset(p for p in itertools.product(x.elements, y.elements)
                                       if rng.random() < 0.3))
        s = mk_simulation(y, z, frozenset(p for p in itertools.product(y.elements, z.elements)
                                       if rng.random() < 0.3))
        assert compose_simulations(s, r) == compose_simulations_reference(s, r)
    with pytest.raises(CarrierMismatch):
        compose_simulations(identity_simulation(chain(2)), identity_simulation(chain(3)))
