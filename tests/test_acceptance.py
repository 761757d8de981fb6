"""Acceptance criteria, one test per criterion, at their stated sizes and budgets.

Two criteria assert statements that are provably false under the defining
tree-rank conventions (the bang dimension equality and the sequential image
bound over traces with empty option sets); they are implemented faithfully
and left failing, with the counterexamples cross-checked against the naive
oracles inside the tests.  See the companion green tests in
test_production.py and test_traces.py for the corrected statements.
"""

import random
import time

from ordkit import (
    bang,
    canonicalize,
    check_union_bound,
    check_wqo_intersection_bound,
    compose,
    apply,
    dim,
    direct_image,
    discoloration_trace,
    ew_intersect,
    ew_product,
    ew_union,
    identity_trace,
    intersect_qo,
    intersection_trace,
    is_coatomic_lattice,
    is_simulation,
    mk_qo,
    mk_trace,
    otp,
    qo_functor,
    qo_of,
    ram_upper,
    ram_verify,
    shuffle_words,
    ss,
    ss_functor,
    tagged_union,
)
from ordkit.checks import run_paper_fixtures
from ordkit.generators import (
    all_quasi_orders,
    all_relations,
    all_systems,
    nat_atoms,
    quasi_orders_up_to_iso,
    random_quasi_order,
    random_sequential_trace,
    random_simulation,
    random_system,
    random_trace,
    sequential_traces,
)
from ordkit.lang import (
    all_words,
    canonical_family,
    closure_bounded,
    elasticity_chain,
    mk_fragment,
    validate_chain,
)
from ordkit.orders import mk_simulation

from .oracles import naive_dim, nats, system


def repre_instances():
    for n in range(5):
        yield from quasi_orders_up_to_iso(n)
    rng = random.Random(42)
    for _ in range(500):
        yield random_quasi_order(rng, 6)


def test_c01_representation():
    t0 = time.perf_counter()
    count = 0
    for qo in repre_instances():
        assert otp(qo) == dim(ss(qo)), qo
        count += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"ACCEPTANCE 1 representation: PASS ({count} instances, {elapsed:.1f}s)")


def test_c02_round_trip():
    for qo in repre_instances():
        assert qo_of(ss(qo)) == qo
    print("ACCEPTANCE 2 round trip: PASS")


def test_c03_best_possible_fixture():
    t0 = time.perf_counter()
    l = system(3, (), (0,), (0, 1, 2))
    m = system(3, (), (1,), (0, 1, 2))
    assert dim(l) == 2 and dim(m) == 2
    cap = ew_intersect(l, m)
    oracle_value = naive_dim(cap)
    assert dim(cap) == oracle_value
    assert dim(l) + dim(m) - 1 >= oracle_value
    report = run_paper_fixtures()
    recorded = report.info["intersection_dim"]
    assert recorded["computed"] == oracle_value == 2
    assert recorded["recorded"] == 3
    assert report.ok
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"ACCEPTANCE 3 fixture: PASS (computed {oracle_value}, recorded 3)")


def _chain_inequalities(a, b):
    da, db = dim(a), dim(b)
    dprod = dim(ew_product(a, b))
    dcap = dim(ew_intersect(a, b))
    if da >= 1 and db >= 1:
        assert dprod >= da + db - 1 >= dcap, (a, b, dprod, da, db, dcap)
    else:
        # any first example of the product or intersection would witness
        # dim >= 1 for both operands
        assert dprod == 0 and dcap == 0, (a, b)


def test_c04_dim_inequalities():
    for n in range(4):
        systems = list(all_systems(n))
        for a in systems:
            for b in systems:
                _chain_inequalities(a, b)
    rng = random.Random(42)
    for _ in range(500):
        _chain_inequalities(random_system(rng, 4, 6), random_system(rng, 4, 6))
    print("ACCEPTANCE 4 dim inequalities: PASS")


def test_c05_coproduct():
    for n in range(4):
        systems = list(all_systems(n))
        for a in systems:
            for b in systems:
                assert dim(tagged_union(a, b)) == max(dim(a), dim(b))
    print("ACCEPTANCE 5 (coproduct half): PASS")


def test_c05_bang_equality_as_stated():
    """Faithful check of the stated equality dim !M == dim M; known to fail.

    The empty finset lies in every member of !M, so it opens a free extra
    move whenever some member misses the first example of a maximal
    sequence (e.g. M = {{0},{1}}).  The provable corrected bounds
    dim M <= dim !M <= dim M + 1 are tested green in test_production.py.
    """
    violations = []
    for n in range(4):
        for s in all_systems(n):
            if dim(bang(s)) != dim(s):
                violations.append(s)
    for s in violations[:3]:
        # self-certify via the full-tree oracle
        assert naive_dim(bang(s)) == dim(bang(s)) != naive_dim(s) == dim(s)
    assert not violations, (
        f"dim !M == dim M fails on {len(violations)} systems over <=3-element "
        f"universes; first counterexamples: {violations[:3]}"
    )


def test_c06_ramsey_oracle():
    t0 = time.perf_counter()
    r5 = ram_verify(3, 3, 5)
    assert not r5.holds_at_n and r5.witness is not None
    r6 = ram_verify(3, 3, 6)
    assert r6.holds_at_n
    assert ram_upper((3, 3)) == 6
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"ACCEPTANCE 6 Ramsey oracle: PASS (R(3,3)=6 in {elapsed:.2f}s)")


def test_c07_union_bound():
    for n in range(4):
        systems = list(all_systems(n))
        for a in systems:
            for b in systems:
                report = check_union_bound(a, b)
                assert report.holds, (a, b, report)
                if dim(a) <= 1 and dim(b) <= 1:
                    assert report.rhs_kind == "exact"
                    if dim(a) == dim(b) == 1:
                        assert report.rhs == 6
    print("ACCEPTANCE 7 union bound: PASS")


def test_c08_image_bound_as_stated():
    """Faithful check of dim(image) <= dim(system) over all sequential traces.

    Sequential traces include pairs with empty option sets, which fire on
    every input; for those the bound is provably false (e.g. the trace
    {(x,{}),(z,{y})} on M = {{},{y}}).  The corrected statement over
    productive traces is tested green in test_traces.py.
    """
    violations = []

    def record(trace, s):
        if dim(direct_image(trace, s)) > dim(s):
            violations.append((trace, s))

    for n in range(1, 4):
        fld = nat_atoms(n)
        systems = list(all_systems(n))
        for trace in sequential_traces(fld, fld, include_empty_options=True):
            if len(violations) >= 10:
                break
            for s in systems:
                record(trace, s)
        if len(violations) >= 10:
            break
    rng = random.Random(42)
    fld4 = nat_atoms(4)
    for _ in range(500):
        if len(violations) >= 10:
            break
        record(
            random_sequential_trace(rng, fld4, fld4, allow_empty_options=True),
            random_system(rng, 4, 6),
        )
    # equality holds for identity-like traces with a section
    for n in range(1, 4):
        fld = nat_atoms(n)
        ident = identity_trace(fld)
        for s in all_systems(n):
            assert dim(direct_image(ident, s)) == dim(s)
    for trace, s in violations[:3]:
        assert naive_dim(direct_image(trace, s)) > naive_dim(s)
    assert not violations, (
        f"dim(image) <= dim(system) fails for sequential traces with empty "
        f"option sets; scan stopped after {len(violations)} violations, "
        f"first: {violations[0] if violations else None}"
    )


def test_c09_wqo_intersection():
    for n in range(1, 5):
        qos = list(all_quasi_orders(n))
        for a in qos:
            for b in qos:
                report = check_wqo_intersection_bound(a, b)
                assert report.holds, (a, b, report)
    print("ACCEPTANCE 9 wqo intersection bound: PASS")


def test_c10_trace_calculus():
    rng = random.Random(42)

    def subsets(atoms):
        for mask in range(1 << len(atoms)):
            yield frozenset(a for i, a in enumerate(atoms) if mask >> i & 1)

    for _ in range(300):
        na, nb, nc = (rng.randint(1, 4) for _ in range(3))
        fa, fb, fc = nats(na), nats(nb), nats(nc)
        outer = random_trace(rng, fa, fb)
        inner = random_trace(rng, fb, fc)
        comp = compose(outer, inner)
        for g in subsets(fc):
            assert apply(comp, g) == apply(outer, apply(inner, g))
    # linear singleton-lifted uniqueness on singletons
    for _ in range(200):
        n = rng.randint(1, 3)
        u = nats(n)
        rel_a = frozenset((x, y) for x in u for y in u if rng.random() < 0.4)
        rel_b = frozenset((x, y) for x in u for y in u if rng.random() < 0.4)
        ta = mk_trace(u, u, [(x, (y,)) for x, y in rel_a])
        tb = mk_trace(u, u, [(x, (y,)) for x, y in rel_b])
        same_on_singletons = all(apply(ta, (y,)) == apply(tb, (y,)) for y in u)
        assert same_on_singletons == (rel_a == rel_b)
    # canonical-form functional equivalence
    for _ in range(200):
        n = rng.randint(1, 3)
        u = nats(n)
        t1 = random_trace(rng, u, u)
        t2 = random_trace(rng, u, u)
        same = all(apply(t1, g) == apply(t2, g) for g in subsets(u))
        assert same == (canonicalize(t1) == canonicalize(t2))
    # exact fixture identities
    l = system(3, (), (0,), (0, 1, 2))
    m = system(3, (), (1,), (0, 1, 2))
    from ordkit import ew_disjoint

    base = sorted(set(l.support) | set(m.support))
    assert (
        direct_image(discoloration_trace(2, base), ew_disjoint(l, m)).family
        == ew_union(l, m).family
    )
    assert (
        direct_image(intersection_trace(l.support, m.support), ew_product(l, m)).family
        == ew_intersect(l, m).family
    )
    print("ACCEPTANCE 10 trace calculus: PASS")


def test_c11_functor_laws_and_triangles():
    for n in range(1, 3):
        for m in range(1, 3):
            for x in all_quasi_orders(n):
                for y in all_quasi_orders(m):
                    for cand in all_relations(x, y):
                        if is_simulation(cand):
                            back = qo_functor(ss_functor(cand), x, y)
                            assert back.pairs == cand.pairs
    rng = random.Random(42)
    for _ in range(200):
        x = random_quasi_order(rng, 3)
        y = random_quasi_order(rng, 3)
        r = random_simulation(rng, x, y)
        assert qo_functor(ss_functor(r), x, y).pairs == r.pairs
    for n in range(4):
        for qo in all_quasi_orders(n):
            s = ss(qo)
            assert qo_of(s) == qo and ss(qo_of(s)) == s
        for sys_ in all_systems(n):
            q = qo_of(sys_)
            assert sys_.family <= ss(q).family
            assert qo_of(ss(q)) == q
    # the identity simulation maps to the identity trace and back
    u = nats(3)
    q = mk_qo(u, [(u[0], u[1])])
    ident = mk_simulation(q, q, frozenset((a, a) for a in u))
    assert ss_functor(ident) == identity_trace(u)
    assert qo_functor(identity_trace(u), q, q).pairs == ident.pairs
    print("ACCEPTANCE 11 functor laws and triangles: PASS")


def test_c12_shuffle_kleene_identities():
    assert len(shuffle_words("ab", "cd")) == 6
    pool2 = all_words("ab", 2)

    def check(frag):
        minus = mk_fragment("ab", frag.max_len, frag.words - {""})
        for diamond, closed in (
            ("shuffle_diamond", "shuffle_closure"),
            ("plus", "star"),
        ):
            lhs = closure_bounded(minus, diamond, 5).words
            assert lhs == closure_bounded(frag, diamond, 5).words - {""}
            assert lhs | {""} == closure_bounded(frag, closed, 5).words

    for mask in range(1 << len(pool2)):
        words = {pool2[i] for i in range(len(pool2)) if mask >> i & 1}
        check(mk_fragment("ab", 2, words))
    rng = random.Random(42)
    pool5 = all_words("ab", 5)
    for _ in range(300):
        words = {w for w in pool5 if rng.random() < 0.12}
        check(mk_fragment("ab", 5, words))
    print("ACCEPTANCE 12 shuffle/kleene identities: PASS")


def test_c13_elasticity_chains():
    for name, expect_families in (("dcl", tuple(range(12))), ("cosingl", tuple(range(1, 13)))):
        fam = canonical_family(name)
        t0 = time.perf_counter()
        chain = elasticity_chain(fam, 12, element_horizon=64, family_horizon=64)
        elapsed = time.perf_counter() - t0
        assert chain is not None and validate_chain(fam, chain)
        assert len(chain.elements) == 13
        assert chain.families == expect_families
        assert elapsed < 5.0
    singl = canonical_family("singl")
    for horizon in (8, 32, 64):
        assert (
            elasticity_chain(singl, 2, element_horizon=horizon, family_horizon=horizon)
            is None
        )
    print("ACCEPTANCE 13 elasticity chains: PASS")


def test_c14_intersection_counterexample():
    u = nats(3)
    le0 = mk_qo(u, [(u[1], u[2]), (u[2], u[1]), (u[1], u[0]), (u[2], u[0])])
    le1 = mk_qo(u, [(u[0], u[2]), (u[2], u[0]), (u[0], u[1]), (u[2], u[1])])
    ss_inter = ss(intersect_qo(le0, le1))
    expected = system(3, (), (0,), (1,), (0, 1), (0, 1, 2))
    assert ss_inter.family == expected.family
    cap = ew_intersect(ss(le0), ss(le1))
    assert cap.family == system(3, (), (0,), (1,), (0, 1, 2)).family
    assert cap.family < ss_inter.family
    print("ACCEPTANCE 14 intersection counterexample: PASS")


def test_c15_coatomicity():
    count = 0
    for n in range(6):
        for qo in quasi_orders_up_to_iso(n):
            assert is_coatomic_lattice(ss(qo))
            count += 1
    print(f"ACCEPTANCE 15 coatomicity: PASS ({count} orders)")
