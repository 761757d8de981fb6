import itertools
import random
import tracemalloc

import pytest

from ordkit import (
    apply,
    bang,
    bang_trace,
    branching_degree,
    canonicalize,
    compose,
    compose_simulations,
    coproduct,
    dim,
    direct_image,
    discoloration_trace,
    empty_trace,
    equalizer,
    ew_disjoint,
    ew_intersect,
    ew_product,
    ew_union,
    finset,
    identity_simulation,
    identity_trace,
    intersection_trace,
    inverse_image_rel,
    is_linear,
    is_sequential,
    is_simulation,
    leaf,
    mediating_cocone,
    mediating_cone,
    mk_qo,
    mk_system,
    mk_trace,
    product,
    qo_functor,
    qo_of,
    ss,
    ss_functor,
)
from ordkit import traces
from ordkit.errors import (
    ElementOutsideField,
    FieldMismatch,
    InvalidArity,
    NotASimulation,
    NotLinear,
    UniverseTooLarge,
)
from ordkit.generators import (
    all_quasi_orders,
    all_relations,
    all_systems,
    random_quasi_order,
    random_simulation,
    random_system,
    random_trace,
    sequential_traces,
)
from ordkit.ramsey import check_image_bound
from ordkit.systems import BANG_SUPPORT_BOUND
from ordkit.traces import COMPOSE_OPTION_BOUND

from .oracles import nats, system


def subsets(atoms):
    for r in range(len(atoms) + 1):
        for combo in itertools.combinations(atoms, r):
            yield frozenset(combo)


def test_apply_examples():
    u = nats(3)
    ident = identity_trace(u)
    for g in subsets(u):
        assert apply(ident, g) == g
    x, y = leaf("x"), leaf("y")
    t = mk_trace([x], [y], [(x, ())])
    assert apply(t, ()) == frozenset({x})
    assert apply(t, (y,)) == frozenset({x})
    with pytest.raises(ElementOutsideField) as exc:
        apply(ident, [u[0], leaf("9"), leaf("7"), leaf("8")])
    assert exc.value.atom == leaf("9")  # the first one given, whatever the hash seed


def test_direct_image_identity_and_errors():
    s = system(3, (), (0, 2))
    ident = identity_trace(nats(3))
    assert direct_image(ident, s).family == s.family
    with pytest.raises(FieldMismatch):
        direct_image(identity_trace(nats(2)), s)


def test_intersection_trace_fixture():
    l = system(3, (), (0,), (0, 1, 2))
    m = system(3, (), (1,), (0, 1, 2))
    it = intersection_trace(l.support, m.support)
    assert is_sequential(it)
    assert direct_image(it, ew_product(l, m)).family == ew_intersect(l, m).family
    empty = intersection_trace([leaf("a")], [leaf("b")])
    assert empty.pairs == frozenset()


def test_discoloration_fixture():
    l = system(3, (), (0,), (0, 1, 2))
    m = system(3, (), (1,), (0, 1, 2))
    base = sorted(set(l.support) | set(m.support))
    d2 = discoloration_trace(2, base)
    assert branching_degree(d2) == 2
    assert is_linear(d2)
    assert direct_image(d2, ew_disjoint(l, m)).family == ew_union(l, m).family
    with pytest.raises(InvalidArity):
        discoloration_trace(1, base)


def test_bang_trace_fixture():
    for n in range(3):
        s = system(n, *[tuple(range(k)) for k in range(n + 1)])
        bt = bang_trace(s.support)
        assert direct_image(bt, s).family == bang(s).family


def test_bang_trace_refuses_a_field_over_budget(monkeypatch):
    field = [leaf(f"a{i}") for i in range(BANG_SUPPORT_BOUND + 1)]
    tracemalloc.start()
    try:
        with pytest.raises(UniverseTooLarge, match="field has 17 elements, limit is 16"):
            bang_trace(field)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    monkeypatch.setattr(traces, "BANG_SUPPORT_BOUND", 3)
    assert len(bang_trace(field[:3]).source_field) == 8
    with pytest.raises(UniverseTooLarge, match="field has 4 elements, limit is 3"):
        bang_trace(field[:4])


def test_bang_bridge_relational_equality():
    # the double-bracket image of M equals the relational inverse image of !M
    rng = random.Random(61)
    for _ in range(60):
        s = random_system(rng, 3, 4)
        fld = nats(3)
        trace = random_trace(rng, fld, s.support or fld)
        if not set(s.support) <= set(trace.target_field):
            continue
        lifted = [(x, finset(v)) for x, v in trace.pairs]
        banged = bang(s)
        via_bang = inverse_image_rel(lifted, banged)
        direct = direct_image(trace, s)
        assert via_bang.family == direct.family


def test_inverse_image_rel_examples():
    s = system(3, (0,), (1, 2))
    u = nats(3)
    diag = [(a, a) for a in u]
    assert inverse_image_rel(diag, s).family == s.family
    swap = [(u[0], u[1]), (u[1], u[0]), (u[2], u[2])]
    got = inverse_image_rel(swap, s)
    assert got.family == system(3, (1,), (0, 2)).family


def test_inverse_image_agrees_with_singleton_lift():
    rng = random.Random(67)
    u = nats(4)
    for _ in range(80):
        rel = [(x, y) for x in u for y in u if rng.random() < 0.3]
        s = random_system(rng, 4, 5)
        lift = mk_trace(u, u, [(x, (y,)) for x, y in rel])
        assert inverse_image_rel(rel, s).family == direct_image(lift, s).family


def test_compose_identity_and_linear_case():
    u = nats(3)
    ident = identity_trace(u)
    rng = random.Random(71)
    t = random_trace(rng, u, u)
    assert compose(ident, t) == canonicalize(t)
    assert compose(t, ident) == canonicalize(t)
    rel_a = [(u[0], u[1]), (u[1], u[2])]
    rel_b = [(u[1], u[0]), (u[2], u[0])]
    ta = mk_trace(u, u, [(x, (y,)) for x, y in rel_a])
    tb = mk_trace(u, u, [(x, (y,)) for x, y in rel_b])
    composed = compose(ta, tb)
    relational = {(x, z) for x, y in rel_a for y2, z in rel_b if y == y2}
    assert composed.pairs == frozenset((x, frozenset((z,))) for x, z in relational)
    with pytest.raises(FieldMismatch):
        compose(ta, identity_trace(nats(2)))


def test_compose_functional_law():
    rng = random.Random(73)
    for _ in range(150):
        na, nb, nc = (rng.randint(1, 4) for _ in range(3))
        fa, fb, fc = nats(na), nats(nb), nats(nc)
        outer = random_trace(rng, fa, fb)
        inner = random_trace(rng, fb, fc)
        comp = compose(outer, inner)
        for g in subsets(fc):
            assert apply(comp, g) == apply(outer, apply(inner, g))


def wide_composition(width):
    """Outer pairs over all of a width-element middle field, two inner options each.

    Every outer pair expands into 2**width option sets.
    """
    mid = nats(width)
    options = [(y, (leaf(f"{i}{side}"),)) for i, y in enumerate(mid) for side in "ab"]
    outer = mk_trace(mid, mid, [(x, mid) for x in mid])
    inner = mk_trace(mid, [v[0] for _, v in options], options)
    return outer, inner


def test_compose_refuses_an_expansion_over_budget():
    outer, inner = wide_composition(40)
    tracemalloc.start()
    try:
        with pytest.raises(UniverseTooLarge, match=f"limit is {COMPOSE_OPTION_BOUND}"):
            compose(outer, inner)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    outer, inner = wide_composition(16)  # 16 pairs of 2**16 each: over by the sum
    with pytest.raises(UniverseTooLarge, match="at least 131072 option sets"):
        compose(outer, inner)
    outer, inner = wide_composition(3)
    assert len(compose(outer, inner).pairs) == 3 * 2**3


def test_apply_is_monotone():
    rng = random.Random(103)
    u = nats(4)
    for _ in range(100):
        t = random_trace(rng, u, u)
        small = frozenset(a for a in u if rng.random() < 0.4)
        extra = frozenset(a for a in u if rng.random() < 0.4)
        assert apply(t, small) <= apply(t, small | extra)


def test_classification_examples():
    u = nats(2)
    ident = identity_trace(u)
    assert is_linear(ident) and is_sequential(ident)
    wide = mk_trace(u, u, [(u[0], (u[0], u[1]))])
    assert not is_linear(wide) and is_sequential(wide)
    branchy = mk_trace(u, u, [(u[0], (u[0],)), (u[0], (u[1],))])
    assert is_linear(branchy) and not is_sequential(branchy)
    assert branching_degree(empty_trace(u, u)) == 0
    assert branching_degree(ident) == 1


def test_canonicalize_examples():
    u = nats(2)
    t = mk_trace(u, u, [(u[0], (u[0],)), (u[0], (u[0], u[1]))])
    assert canonicalize(t).pairs == frozenset({(u[0], frozenset((u[0],)))})
    minimal = mk_trace(u, u, [(u[0], (u[0],)), (u[0], (u[1],))])
    assert canonicalize(minimal) == minimal
    e = empty_trace(u, u)
    assert canonicalize(e) == e


def test_behavior_equality_is_canonical_equality():
    u = nats(2)
    gs = list(subsets(u))
    option_sets = [frozenset(s) for s in gs]
    traces = []
    for opts in itertools.product(range(16), repeat=2):
        pairs = []
        for x, chosen in zip(u, opts):
            for i in range(4):
                if chosen >> i & 1:
                    pairs.append((x, option_sets[i]))
        traces.append(mk_trace(u, u, pairs))
    behaviors = {}
    for t in traces:
        vec = tuple(frozenset(apply(t, g)) for g in gs)
        behaviors.setdefault(vec, []).append(canonicalize(t))
        assert all(apply(canonicalize(t), g) == apply(t, g) for g in gs)
    for canons in behaviors.values():
        assert len(set(canons)) == 1


def test_ss_functor_and_qo_functor():
    u = nats(3)
    c = mk_qo(u, [(u[0], u[1]), (u[1], u[2])])
    ident = identity_simulation(c)
    t = ss_functor(ident)
    assert t == identity_trace(u)
    back = qo_functor(t, c, c)
    assert back.pairs == ident.pairs
    with pytest.raises(NotASimulation):
        from ordkit import mk_simulation

        ss_functor(mk_simulation(c, c, frozenset({(u[0], u[2]), (u[2], u[0])})))
    wide = mk_trace(u, u, [(u[0], (u[0], u[1]))])
    with pytest.raises(NotLinear):
        qo_functor(wide, c, c)


def test_functor_roundtrip_exhaustive_tiny():
    for n in range(1, 3):
        for m in range(1, 3):
            for x in all_quasi_orders(n):
                for y in all_quasi_orders(m):
                    for cand in all_relations(x, y):
                        if is_simulation(cand):
                            back = qo_functor(ss_functor(cand), x, y)
                            assert back.pairs == cand.pairs


def test_functoriality_and_simulation_image():
    rng = random.Random(79)
    for _ in range(60):
        x = random_quasi_order(rng, 3)
        y = random_quasi_order(rng, 3)
        z = random_quasi_order(rng, 3)
        r = random_simulation(rng, x, y)
        s = random_simulation(rng, y, z)
        assert canonicalize(ss_functor(compose_simulations(s, r))) == canonicalize(
            compose(ss_functor(r), ss_functor(s))
        )
        img = direct_image(ss_functor(r), ss(y))
        assert img.family <= ss(x).family


def test_adjunction_triangles_small():
    for n in range(4):
        for qo in all_quasi_orders(n):
            s = ss(qo)
            assert qo_of(s) == qo
            assert ss(qo_of(s)) == s
        for sys_ in all_systems(n):
            q = qo_of(sys_)
            assert sys_.family <= ss(q).family
            assert qo_of(ss(q)) == q


def test_equalizer_examples():
    s = system(2, (), (0,), (0, 1))
    u = nats(2)
    ident = identity_trace(u)
    assert equalizer(ident, ident, s) == s
    empty = empty_trace(u, u)
    got = equalizer(ident, empty, s)
    assert got.family == frozenset({frozenset()})
    with pytest.raises(FieldMismatch):
        equalizer(ident, identity_trace(nats(3)), s)


def test_coproduct_universal_property():
    a = system(2, (0,), (0, 1))
    b = system(2, (1,))
    carrier, injections = coproduct(a, b)
    assert dim(carrier) == max(dim(a), dim(b))
    for inj, operand in zip(injections, (a, b)):
        img = direct_image(inj, operand)
        assert img.family <= carrier.family
    # mediating morphism over productive legs reproduces each leg
    rng = random.Random(83)
    tgt = nats(2)
    legs = [
        random_trace(rng, tgt, a.support, allow_empty_options=False),
        random_trace(rng, tgt, b.support, allow_empty_options=False),
    ]
    med = mediating_cocone(legs)
    for leg, inj in zip(legs, injections):
        composite = compose(med, inj)
        for g in subsets(leg.target_field):
            assert apply(composite, g) == apply(leg, g)


def test_product_universal_property():
    a = system(2, (0,), (0, 1))
    b = system(2, (1,), ())
    carrier, projections = product(a, b)
    # projections reproduce the factors from the tagged tuples
    for proj, operand in zip(projections, (a, b)):
        img = direct_image(proj, carrier)
        for m in operand.member_sets:
            assert m in img.family
    rng = random.Random(89)
    d_field = nats(2)
    legs = [
        random_trace(rng, a.support, d_field),
        random_trace(rng, b.support, d_field),
    ]
    med = mediating_cone(legs)
    for leg, proj in zip(legs, projections):
        composite = compose(proj, med)
        for g in subsets(d_field):
            assert apply(composite, g) == apply(leg, g)


def test_image_bound_holds_for_productive_sequential_traces():
    for n in range(1, 3):
        fld = nats(n)
        systems = list(all_systems(n))
        for trace in sequential_traces(fld, fld, include_empty_options=False):
            for s in systems:
                assert dim(direct_image(trace, s)) <= dim(s)
    rng = random.Random(97)
    fld = nats(4)
    for _ in range(200):
        from ordkit.generators import random_sequential_trace

        trace = random_sequential_trace(rng, fld, fld, allow_empty_options=False)
        s = random_system(rng, 4, 6)
        assert dim(direct_image(trace, s)) <= dim(s)


def test_image_bound_needs_productive_options():
    # with an empty option set the image dimension can exceed the source
    x, y, z = leaf("x"), leaf("y"), leaf("z")
    trace = mk_trace([x, z], [y], [(x, ()), (z, (y,))])
    s = mk_system([y], [(), (y,)])
    assert dim(s) == 1
    assert dim(direct_image(trace, s)) == 2
    report = check_image_bound(trace, s)
    assert not report.holds and report.detail["empty_option_sets"]


def test_identity_equality_with_section():
    for n in range(1, 4):
        fld = nats(n)
        ident = identity_trace(fld)
        xi = {a: a for a in fld}
        for s in all_systems(n):
            report = check_image_bound(ident, s, xi=xi)
            assert report.holds
