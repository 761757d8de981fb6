"""Seeded theorem-check suites with machine-readable reports.

Every suite walks a deterministic instance stream (exhaustive enumerations
plus seeded random draws), evaluates its properties, and returns a
CheckReport whose header lists the property formulas it checked.  A suite
with an empty failure list maps to exit code 0 in the CLI.

A suite is declared once, with ``@_suite(name, properties, size=(default,
cap))`` on a body ``(report, rng, trials, bound)``.  The harness builds
the report, resolves ``max_size`` against the default and the cap
(``None`` for no cap) into ``bound``, seeds one ``random.Random(seed)``,
times the body into ``report.ms`` and files the runner in ``SUITES`` under
``name``; the body only walks its instances and calls ``report.fail``.  An
``OrdkitError`` that escapes the body is recorded as one failure of that
suite, labelled "the suite raised an error", so ``check all`` still runs
the other suites and exits 1.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from . import kernels
from .atoms import finset, leaf
from .errors import InvalidQuery, OrdkitError
from .generators import (
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
from .lang import (
    ElasticityChain,
    all_words,
    canonical_family,
    closure_bounded,
    elasticity_chain,
    family_transform,
    mk_fragment,
    shuffle_product,
    validate_chain,
)
from .orders import (
    compose_simulations,
    intersect_qo,
    is_coatomic_lattice,
    is_simulation,
    linearizations,
    mk_qo,
    otp,
    qo_of,
    ss,
)
from .production import dim, is_production_sequence, longest_production_sequence
from .ramsey import (
    check_image_bound,
    check_union_bound,
    check_wqo_intersection_bound,
    ram_exact,
    ram_upper,
)
from .sdr import find_sdr
from .systems import (
    SetSystem,
    _bits,
    bang,
    ew_disjoint,
    ew_intersect,
    ew_product,
    ew_union,
    mk_system,
    perp,
    tagged_union,
)
from .traces import (
    _fire,
    bang_trace,
    canonicalize,
    compose,
    direct_image,
    discoloration_trace,
    identity_trace,
    intersection_trace,
    mk_trace,
    qo_functor,
    ss_functor,
)


@dataclass
class CheckReport:
    suite: str
    properties: tuple[str, ...]
    seed: int
    trials: int
    failures: list[dict] = field(default_factory=list)
    ms: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures

    def fail(self, prop, instance, /, **values):
        """Record a failure of header property ``prop`` (an index) or of a label of its own."""
        if isinstance(prop, int):
            prop = self.properties[prop]
        self.failures.append({"property": prop, "instance": instance, "values": values})

    def to_json(self):
        return {
            "suite": self.suite,
            "properties": list(self.properties),
            "seed": self.seed,
            "trials": self.trials,
            "failures": self.failures,
            "info": self.info,
            "ms": round(self.ms, 3),
        }


SUITES: dict[str, Callable[..., CheckReport]] = {}


def _suite(name: str, properties: tuple[str, ...], size=(None, None)):
    """Register a suite body ``(report, rng, trials, bound)`` as ``run_<suite>``."""
    default, cap = size

    def register(body):
        def run(seed: int = 42, trials: int = 500, max_size: Optional[int] = None) -> CheckReport:
            report = CheckReport(name, properties, seed, trials)
            t0 = time.perf_counter()
            bound = default if max_size is None else max_size if cap is None else min(max_size, cap)
            try:
                body(report, random.Random(seed), trials, bound)
            except OrdkitError as exc:
                report.fail("the suite raised an error", {},
                            error=type(exc).__name__, message=str(exc))
            report.ms = (time.perf_counter() - t0) * 1000
            return report

        run.__name__, run.__doc__ = body.__name__, body.__doc__
        SUITES[name] = run
        return run

    return register


def _quasi_orders(rng, trials: int, bound: int):
    """Every quasi-order up to isomorphism on at most ``bound`` points, then
    ``trials`` random ones on at most 6."""
    instances = [qo for n in range(bound + 1) for qo in quasi_orders_up_to_iso(n)]
    return instances + [random_quasi_order(rng, 6) for _ in range(trials)]


def _eq14_pair() -> tuple[SetSystem, SetSystem]:
    u = nat_atoms(3)
    l = mk_system(u, [(), (u[0],), u])
    m = mk_system(u, [(), (u[1],), u])
    return l, m


def _eq14_trace_identities(l: SetSystem, m: SetSystem) -> tuple[bool, bool]:
    """Whether the discoloration image of the disjoint union is the union,
    and the intersection-trace image of the product the intersection."""
    dis = ew_disjoint(l, m)
    d2 = discoloration_trace(2, sorted(set(l.support) | set(m.support)))
    it = intersection_trace(l.support, m.support)
    return (
        direct_image(d2, dis).family == ew_union(l, m).family,
        direct_image(it, ew_product(l, m)).family == ew_intersect(l, m).family,
    )


@_suite("repre", ("otp(X) == dim(ss(X))",), size=(4, 5))
def run_repre(report, rng, trials, bound):
    """Order type of a quasi-order equals the dimension of its up-set system.

    ``otp`` is the class count; each instance also certifies it against
    the bad-sequence search, the definition of the order type.
    """
    instances = _quasi_orders(rng, trials, bound)
    for qo in instances:
        value, search, d = otp(qo), kernels.bad_sequence_rank(qo.up), dim(ss(qo))
        if not value == search == d:
            report.fail(0, qo.to_json(), otp=value, bad_sequence_rank=search, dim=d)
    report.info["instances"] = len(instances)


@_suite("qo-roundtrip", ("qo(ss(X)) == X",), size=(4, 5))
def run_qo_roundtrip(report, rng, trials, bound):
    """Reading the up-set system back as a quasi-order is the identity."""
    for qo in _quasi_orders(rng, trials, bound):
        if qo_of(ss(qo)) != qo:
            report.fail(0, qo.to_json())


def _dim_pair_checks(report: CheckReport, a: SetSystem, b: SetSystem):
    da, db = dim(a), dim(b)
    dprod = dim(ew_product(a, b))
    dcap = dim(ew_intersect(a, b))
    instance = {"A": a.to_json(), "B": b.to_json()}
    if da >= 1 and db >= 1:
        if not (dprod >= da + db - 1 >= dcap):
            report.fail("dim(AxB) >= dim A + dim B - 1 >= dim(A&B)",
                        instance, prod=dprod, a=da, b=db, cap=dcap)
    elif dprod != 0 or dcap != 0:
        report.fail("degenerate operands force dim(AxB) == dim(A&B) == 0",
                    instance, prod=dprod, cap=dcap)
    dco = dim(tagged_union(a, b))
    if dco != max(da, db):
        report.fail("dim(tagged_union) == max(dim A, dim B)", instance,
                    coproduct=dco, a=da, b=db)
    if a.members and b.members:
        ddis = dim(ew_disjoint(a, b))
        if ddis < max(da, db):
            report.fail("dim(disjoint union) >= max(dim A, dim B)", instance,
                        disjoint=ddis, a=da, b=db)


def _dim_single_checks(report: CheckReport, a: SetSystem):
    da = dim(a)
    dbang = dim(bang(a))
    if not (da <= dbang <= da + 1):
        report.fail("dim A <= dim !A <= dim A + 1", a.to_json(), a=da, bang=dbang)
    dperp2 = dim(perp(perp(a)))
    if da > dperp2:
        report.fail("dim A <= dim perp(perp(A))", a.to_json(), a=da, perp2=dperp2)
    witness = longest_production_sequence(a)
    if len(witness) != da or not is_production_sequence(a, witness):
        report.fail("longest witness has length dim A", a.to_json(),
                    a=da, witness=len(witness))


@_suite(
    "dim-bounds",
    (
        "dim(AxB) >= dim A + dim B - 1 >= dim(A&B) [dims >= 1]",
        "dim(tagged_union) == max",
        "dim(disjoint union) >= max [nonempty]",
        "dim A <= dim !A <= dim A + 1",
        "dim A <= dim perp(perp(A))",
        "longest witness length == dim",
    ),
    size=(2, 3),
)
def run_dim_bounds(report, rng, trials, bound):
    """Product/intersection/coproduct/disjoint/bang/perp dimension laws."""
    for n in range(bound + 1):
        systems = list(all_systems(n))
        for a in systems:
            _dim_single_checks(report, a)
            for b in systems:
                _dim_pair_checks(report, a, b)
    for _ in range(trials):
        a = random_system(rng, 4, 6)
        b = random_system(rng, 4, 6)
        _dim_pair_checks(report, a, b)


@_suite(
    "union-ramsey",
    ("dim(A|B)+1 < Ram(dim A + 2, dim B + 2)", "single operand convention"),
    size=(3, 3),
)
def run_union_ramsey(report, rng, trials, bound):
    """Union dimension against the two-color Ramsey gate."""
    for n in range(bound + 1):
        systems = list(all_systems(n))
        for a in systems:
            for b in systems:
                rep = check_union_bound(a, b)
                if not rep.holds:
                    report.fail(0, {"A": a.to_json(), "B": b.to_json()}, **rep.to_json())
    for _ in range(trials):
        a = random_system(rng, 4, 6)
        rep = check_union_bound(a)
        if not rep.holds:
            report.fail(1, a.to_json(), **rep.to_json())


@_suite(
    "image-ramsey",
    (
        "dim(image) <= dim(system) [sequential, productive options]",
        "dim(image) == dim(system) [identity trace with section]",
        "dim(image)+1 < Ram(dim+2; n) [discoloration, n=2]",
    ),
    size=(2, 3),
)
def run_image_ramsey(report, rng, trials, bound):
    """Image dimension bounds for sequential and bounded-branching traces.

    The sequential gate presumes productive pairs (no empty option sets);
    the enumeration below respects that hypothesis.
    """
    def sequential(trace, system):
        rep = check_image_bound(trace, system)
        if not rep.holds:
            report.fail(0, {"trace": trace.to_json(), "system": system.to_json()},
                        **rep.to_json())

    for n in range(1, bound + 1):
        fld = nat_atoms(n)
        systems = list(all_systems(n))
        for trace in sequential_traces(fld, fld, include_empty_options=False):
            for system in systems:
                sequential(trace, system)
        ident = identity_trace(fld)
        xi = {a: a for a in fld}
        for system in systems:
            rep = check_image_bound(ident, system, xi=xi)
            if not rep.holds:
                report.fail(1, system.to_json(), **rep.to_json())
    fld4 = nat_atoms(4)
    for _ in range(trials):
        trace = random_sequential_trace(rng, fld4, fld4, allow_empty_options=False)
        sequential(trace, random_system(rng, 4, 6))
    for _ in range(max(1, trials // 10)):
        a = random_system(rng, 3, 4)
        b = random_system(rng, 3, 4)
        dis = ew_disjoint(a, b)
        base = sorted(set(a.support) | set(b.support))
        if not base:
            continue
        trace = discoloration_trace(2, base)
        if not set(dis.support) <= set(trace.target_field):
            continue
        rep = check_image_bound(trace, dis)
        if not rep.holds:
            report.fail(2, {"A": a.to_json(), "B": b.to_json()}, **rep.to_json())


@_suite("wqo-ramsey", ("otp(X & Y) < Ram(otp(X)+1, otp(Y)+1)",), size=(4, 4))
def run_wqo_ramsey(report, rng, trials, bound):
    """Order type of quasi-order intersections against the Ramsey gate."""
    def gate(x, y):
        rep = check_wqo_intersection_bound(x, y)
        if not rep.holds:
            report.fail(0, {"X": x.to_json(), "Y": y.to_json()}, **rep.to_json())

    for n in range(1, bound + 1):
        qos = list(all_quasi_orders(n))
        for a in qos:
            for b in qos:
                gate(a, b)
    for _ in range(trials):
        n = rng.randint(1, 5)
        x = random_quasi_order(rng, n)
        y = random_quasi_order(rng, len(x.elements))
        if x.elements == y.elements:
            gate(x, y)


@_suite(
    "trace-laws",
    (
        "apply(compose(R,S), g) == apply(R, apply(S, g))",
        "canonicalize preserves apply; equal behavior <=> equal canonical form",
        "linear singleton traces are determined by singleton inputs",
        "discoloration image of tagged sum == elementwise union",
        "intersection-trace image of product == elementwise intersection",
    ),
    size=(4, 4),
)
def run_trace_laws(report, rng, trials, bound):
    """Composition functoriality, canonical forms, linear uniqueness, identities."""
    for _ in range(trials):
        na, nb, nc = (rng.randint(1, bound) for _ in range(3))
        fa, fb, fc = nat_atoms(na), nat_atoms(nb), nat_atoms(nc)
        outer = random_trace(rng, fa, fb)
        inner = random_trace(rng, fb, fc)
        comp = compose(outer, inner)
        for g in range(1 << nc):
            if _fire(comp, g) != _fire(outer, _fire(inner, g)):
                report.fail(0, {"outer": outer.to_json(), "inner": inner.to_json()},
                            g=sorted(repr(fc[i]) for i in _bits(g)))
                break
        canon = canonicalize(outer)
        for g in range(1 << nb):
            if _fire(canon, g) != _fire(outer, g):
                report.fail(1, outer.to_json(), g=sorted(repr(fb[i]) for i in _bits(g)))
                break
    # exhaustive behavior/canonical correspondence over a 2-element field
    fld = nat_atoms(2)
    option_sets = [frozenset(a for i, a in enumerate(fld) if m >> i & 1) for m in range(4)]
    groups: dict[tuple, set] = {}
    for opts0 in range(16):
        for opts1 in range(16):
            pairs = [(x, option_sets[i]) for x, opts in zip(fld, (opts0, opts1))
                     for i in range(4) if opts >> i & 1]
            tr = mk_trace(fld, fld, pairs)
            groups.setdefault(tuple(_fire(tr, g) for g in range(4)), set()).add(canonicalize(tr))
    for vec, canons in groups.items():
        if len(canons) != 1:
            behavior = [sorted(repr(fld[i]) for i in _bits(m)) for m in vec]
            report.fail(1, {"behavior": behavior}, canonical_forms=len(canons))
    # linear uniqueness: distinct singleton-lift relations differ on a singleton
    for _ in range(max(1, trials // 5)):
        n = rng.randint(1, 3)
        fa, fb = nat_atoms(n), nat_atoms(n)
        rel_a = frozenset((x, y) for x in fa for y in fb if rng.random() < 0.4)
        rel_b = frozenset((x, y) for x in fa for y in fb if rng.random() < 0.4)
        ta = mk_trace(fa, fb, [(x, (y,)) for x, y in rel_a])
        tb = mk_trace(fa, fb, [(x, (y,)) for x, y in rel_b])
        if rel_a != rel_b and all(_fire(ta, 1 << j) == _fire(tb, 1 << j) for j in range(n)):
            report.fail(2, {"R": ta.to_json(), "S": tb.to_json()})
    union_ok, intersection_ok = _eq14_trace_identities(*_eq14_pair())
    if not union_ok:
        report.fail(3, {})
    if not intersection_ok:
        report.fail(4, {})


@_suite(
    "functor-laws",
    (
        "qo(ss(X)) == X and ss(qo(ss(X))) == ss(X)",
        "L subset of ss(qo(L)); qo(ss(qo(L))) == qo(L)",
        "Qo(Ss(R)) == R for simulations",
        "Ss(S o R) == Ss(R) o Ss(S)",
        "images of up-sets under simulations are up-sets",
        "linearizations: otp(chain) <= otp(X), graphs are simulations",
    ),
    size=(3, 3),
)
def run_functor_laws(report, rng, trials, bound):
    """The contravariant functor pair and the adjunction triangle identities."""
    for n in range(bound + 1):
        for qo in all_quasi_orders(n):
            s = ss(qo)
            if qo_of(s) != qo or ss(qo_of(s)) != s:
                report.fail(0, qo.to_json())
    for n in range(bound + 1):
        for system in all_systems(n):
            q = qo_of(system)
            closed = ss(q)
            if not system.family <= closed.family:
                report.fail(1, system.to_json())
            if qo_of(closed) != q:
                report.fail(1, system.to_json())
    # exhaustive simulations on tiny carriers
    for n in range(1, 3):
        for m in range(1, 3):
            for x in all_quasi_orders(n):
                for y in all_quasi_orders(m):
                    for cand in all_relations(x, y):
                        if not is_simulation(cand):
                            continue
                        back = qo_functor(ss_functor(cand), x, y)
                        if back.rows != cand.rows:
                            report.fail(2, {"X": x.to_json(), "Y": y.to_json(),
                                            "R": sorted(map(repr, cand.pairs))})
    for _ in range(trials):
        x = random_quasi_order(rng, 3)
        y = random_quasi_order(rng, 3)
        z = random_quasi_order(rng, 3)
        r = random_simulation(rng, x, y)
        s = random_simulation(rng, y, z)
        back = qo_functor(ss_functor(r), x, y)
        if back.rows != r.rows:
            report.fail(2, {"X": x.to_json()})
        lhs = ss_functor(compose_simulations(s, r))
        rhs = compose(ss_functor(r), ss_functor(s))
        if canonicalize(lhs) != canonicalize(rhs):
            report.fail(3, {"X": x.to_json()})
        img = direct_image(ss_functor(r), ss(y))
        if not img.family <= ss(x).family:
            report.fail(4, {"X": x.to_json()})
    for n in range(bound + 1):
        for qo in quasi_orders_up_to_iso(n):
            for chain, simf in linearizations(qo):
                if otp(chain) > otp(qo) or not is_simulation(simf):
                    report.fail(5, qo.to_json(), chain=len(chain.elements))


@_suite(
    "shuffle-identities",
    (
        "(L-e)<> == L<> - e and (L-e)<> + e == L<*>  [shuffle]",
        "(L-e)+ == L+ - e and (L-e)+ + e == L*       [kleene]",
        "shuffle product is commutative and associative on fragments",
    ),
    size=(5, 5),
)
def run_shuffle_identities(report, rng, trials, bound):
    """Empty-word adjustment identities for the four closure operators."""
    alphabet = ("a", "b")

    def check_fragment(frag):
        minus = mk_fragment(alphabet, frag.max_len, frag.words - {""}, frag.exact_up_to)
        dia_minus = closure_bounded(minus, "shuffle_diamond", bound).words
        dia = closure_bounded(frag, "shuffle_diamond", bound).words
        shc = closure_bounded(frag, "shuffle_closure", bound).words
        if dia_minus != dia - {""} or dia_minus | {""} != shc:
            report.fail(0, frag.to_json())
        plus_minus = closure_bounded(minus, "plus", bound).words
        plus = closure_bounded(frag, "plus", bound).words
        star = closure_bounded(frag, "star", bound).words
        if plus_minus != plus - {""} or plus_minus | {""} != star:
            report.fail(1, frag.to_json())

    short_words = [""] + ["a", "b"] + ["aa", "ab", "ba", "bb"]
    for mask in range(1 << len(short_words)):
        words = {short_words[i] for i in range(len(short_words)) if mask >> i & 1}
        check_fragment(mk_fragment(alphabet, 2, words))
    pool = all_words(alphabet, bound)
    for _ in range(trials):
        frag = mk_fragment(alphabet, bound, {w for w in pool if rng.random() < 0.15})
        check_fragment(frag)
        other = mk_fragment(alphabet, bound, {w for w in pool if rng.random() < 0.1})
        third = mk_fragment(alphabet, bound, {w for w in pool if rng.random() < 0.05})
        ab = shuffle_product(frag, other)
        if ab != shuffle_product(other, frag):
            report.fail(2, frag.to_json())
        if shuffle_product(ab, third) != shuffle_product(frag, shuffle_product(other, third)):
            report.fail(2, frag.to_json())


@_suite("coatomic", ("is_coatomic_lattice(ss(X))",), size=(4, 5))
def run_coatomic(report, rng, trials, bound):
    """Up-set systems are coatomic lattices."""
    for n in range(bound + 1):
        for qo in quasi_orders_up_to_iso(n):
            if not is_coatomic_lattice(ss(qo)):
                report.fail(0, qo.to_json())


RECORDED_INTERSECTION_DIM = 3  # value quoted alongside the classic example


@_suite(
    "paper-fixtures",
    (
        "dim L == dim M == 2 for the best-possible pair",
        "L & M family == {0, {0}, {1}, {0,1,2}}; sum inequality gates",
        "ss of the intersection order == {0,{0},{1},{0,1},{0,1,2}} and strictly contains ss&ss",
        "qo(Singl) is the equality order; dim Singl == 1 < otp",
        "coproduct dimension is the maximum",
        "discoloration and intersection trace identities",
        "bang and perp fixtures",
        "Ramsey fixtures: Ram(l;1)=l, Ram(3,3)=6",
        "elasticity chains for dcl and cosingl; none for singl",
        "transform fixtures: down_closure(singl)=dcl, complement(singl)=cosingl",
        "distinct-representative fixtures",
    ),
)
def run_paper_fixtures(report, rng, trials, bound):
    """The classic worked examples, re-executed and compared exactly."""
    u = nat_atoms(3)
    n0, n1, n2 = u
    l, m = _eq14_pair()

    if dim(l) != 2 or dim(m) != 2:
        report.fail(0, {}, dim_l=dim(l), dim_m=dim(m))

    cap = ew_intersect(l, m)
    expected_cap = mk_system(u, [(), (n0,), (n1,), u])
    computed = dim(cap)
    report.info["intersection_dim"] = {
        "computed": computed,
        "recorded": RECORDED_INTERSECTION_DIM,
        "note": "the quoted value differs from the tree rank; the sum inequality gates",
    }
    if cap.family != expected_cap.family or not (dim(l) + dim(m) - 1 >= computed):
        report.fail(1, {}, computed=computed)

    le0 = mk_qo(u, [(n1, n2), (n2, n1), (n1, n0), (n2, n0)])
    le1 = mk_qo(u, [(n0, n2), (n2, n0), (n0, n1), (n2, n1)])
    ss_inter = ss(intersect_qo(le0, le1))
    expected_ss = mk_system(u, [(), (n0,), (n1,), (n0, n1), u])
    cap_ss = ew_intersect(ss(le0), ss(le1))
    if ss_inter.family != expected_ss.family:
        report.fail(2, {}, got=ss_inter.to_json())
    if not (cap_ss.family < ss_inter.family):
        report.fail(2, {}, note="containment not strict")
    if ss(le0).family != l.family or ss(le1).family != m.family:
        report.fail(2, {}, note="component systems differ")

    singl = mk_system(nat_atoms(5), [(a,) for a in nat_atoms(5)])
    q_singl = qo_of(singl)
    if q_singl != mk_qo(nat_atoms(5)) or dim(singl) != 1 or otp(q_singl) != 5:
        report.fail(3, {}, dim=dim(singl), otp=otp(q_singl))

    if dim(tagged_union(l, m)) != max(dim(l), dim(m)):
        report.fail(4, {})

    union_ok, intersection_ok = _eq14_trace_identities(l, m)
    if not union_ok:
        report.fail(5, {}, side="discoloration")
    if not intersection_ok:
        report.fail(5, {}, side="intersection")

    single = mk_system(nat_atoms(1), [(n0,)])
    banged = bang(single)
    if banged.family != frozenset({frozenset({finset(()), finset((n0,))})}):
        report.fail(6, {}, side="bang")
    if direct_image(bang_trace(single.support), single).family != banged.family:
        report.fail(6, {}, side="bang trace")
    fs_all = finset(u)
    if perp(l).family != frozenset({frozenset({finset((n0,)), fs_all}), frozenset({fs_all})}):
        report.fail(6, {}, side="perp")
    if dim(l) > dim(perp(perp(l))):
        report.fail(6, {}, side="perp bound")

    if any(ram_upper((k,)) != k for k in range(1, 6)) or ram_upper((3, 3)) != 6:
        report.fail(7, {}, side="upper")
    if ram_exact((3, 3)) != 6:
        report.fail(7, {}, side="exact")

    for name, families in (("dcl", (0, 1, 2, 3, 4)), ("cosingl", (1, 2, 3, 4, 5))):
        fam = canonical_family(name)
        chain = elasticity_chain(fam, 5)
        if chain != ElasticityChain((0, 1, 2, 3, 4, 5), families) or not validate_chain(fam, chain):
            report.fail(8, {}, family=name)
    singl_f = canonical_family("singl")
    if elasticity_chain(singl_f, 2) is not None:
        report.fail(8, {}, family="singl")

    dcl, cosingl = canonical_family("dcl"), canonical_family("cosingl")
    down = family_transform("down_closure", singl_f, element_horizon=64)
    comp = family_transform("complement", singl_f)
    comp2 = family_transform("complement", comp)
    for i in range(12):
        for n in range(12):
            if down.member_index(i, n) != dcl.member_index(i, n):
                report.fail(9, {}, side="down_closure")
            if comp.member_index(i, n) != cosingl.member_index(i, n):
                report.fail(9, {}, side="complement")
            if comp2.member_index(i, n) != singl_f.member_index(i, n):
                report.fail(9, {}, side="involution")

    one, two, three = leaf("1"), leaf("2"), leaf("3")
    sdr = find_sdr([(one, two), (two, three), (three, one)])
    if sdr is None or len(set(sdr.values())) != 3:
        report.fail(10, {}, case="triangle")
    if find_sdr([(one,), (one,)]) is not None:
        report.fail(10, {}, case="hall violation")


def run_suite(
    name: str, seed: int = 42, trials: int = 500, max_size: Optional[int] = None
) -> list[CheckReport]:
    if name == "all":
        return [fn(seed=seed, trials=trials, max_size=max_size) for fn in SUITES.values()]
    if name not in SUITES:
        raise InvalidQuery(f"unknown suite {name!r}")
    return [SUITES[name](seed=seed, trials=trials, max_size=max_size)]
