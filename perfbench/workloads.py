"""The four benchmark workloads: seeded inputs, timed ops and per-op checks.

A workload is built by ``build(name, seed, results_dir)`` into a ``Workload``:
a fixed list of ops, each a ``(cls, args)`` pair, plus one runner and one
checker per op class.  The runner is the only code that is timed; it calls
the library through module attributes (``production.dim``, ``cli.main``)
so that a traced run sees the same calls through its wrappers.  The
checker gets the op's arguments and result after timing and returns True
when the result passes an independent check.

Inputs are built here, before timing, from ``random.Random(seed)`` and the
exhaustive enumerators in ``ordkit.generators``; the library only ever sees
the finished inputs.
"""

from __future__ import annotations

import io
import itertools
import json
import os
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

from ordkit import cli, kernels, orders, production, ramsey, systems
from ordkit.atoms import leaf
from ordkit.generators import (
    all_quasi_orders,
    all_systems,
    nat_atoms,
    quasi_orders_up_to_iso,
    random_system,
)

import clicheck

# Shards per sweep.  A child runs one shard, so a run of fixed length holds
# several children, and the median over them is steadier than one long
# child spanning a single phase of the host's speed.
SHARDS = {"systems-sweep": 4, "orders-sweep": 3}
# Known two-colour Ramsey numbers R(l1, l2) for the searches below.
RAMSEY = {(3, 3): 6, (3, 4): 9}
# dim of powerset(n) x powerset(n), recorded with the program at commit
# cde2bca.  Both equal 2n - 1, the product lower bound dim A + dim B - 1;
# no closed form is proved for them.
POWERSET_PRODUCT_DIM = {3: 5, 4: 7}


@dataclass
class Workload:
    ops: list = field(default_factory=list)
    runners: dict = field(default_factory=dict)
    checkers: dict = field(default_factory=dict)
    # (stdout, stderr) the timed loop writes to, for workloads that print.
    streams: tuple = ()
    # Called once after the timed loop; returns extra failure messages.
    finish: Callable[[list], list] = lambda results: []

    def add_class(self, cls: str, run: Callable, check: Callable):
        self.runners[cls] = run
        self.checkers[cls] = check


def spread(ops: list) -> list:
    """The same ops, with every class spread evenly over the list.

    The host's speed drifts in phases of seconds; a class timed as one
    block would see a single phase, while a spread class sees them all.
    """
    sizes = Counter(cls for cls, _ in ops)
    seen: Counter = Counter()
    keyed = []
    for op in ops:
        keyed.append(((seen[op[0]] + 0.5) / sizes[op[0]], op))
        seen[op[0]] += 1
    keyed.sort(key=lambda item: item[0])
    return [op for _, op in keyed]


def _distinct_rows(qo) -> int:
    """otp in closed form: a longest bad sequence of a finite quasi-order
    takes one element per equivalence class, and two elements are
    equivalent exactly when their up-rows are equal."""
    return len(set(qo.up))


# ---------------------------------------------------------------- systems-sweep


def _pair_run(a, b):
    da, db = production.dim(a), production.dim(b)
    dprod = production.dim(systems.ew_product(a, b))
    dcap = production.dim(systems.ew_intersect(a, b))
    dco = production.dim(systems.tagged_union(a, b))
    ddis = production.dim(systems.ew_disjoint(a, b)) if a.members and b.members else None
    rep = ramsey.check_union_bound(a, b)
    return da, db, dprod, dcap, dco, ddis, rep.holds


def _pair_check(args, out) -> bool:
    da, db, dprod, dcap, dco, ddis, holds = out
    if da >= 1 and db >= 1:
        chain = dprod >= da + db - 1 >= dcap
    else:
        chain = dprod == dcap == 0
    disjoint = ddis is None or ddis >= max(da, db)
    return chain and dco == max(da, db) and disjoint and holds


def _single_run(a):
    da = production.dim(a)
    dbang = production.dim(systems.bang(a))
    dperp2 = production.dim(systems.perp(systems.perp(a)))
    witness = production.longest_production_sequence(a)
    return da, dbang, dperp2, witness, production.is_production_sequence(a, witness)


def _is_production_witness(system, witness) -> bool:
    """The witness is a production sequence of ``system``, checked here
    rather than with ``production.is_production_sequence``: every
    hypothesis is a member containing every example so far, and the next
    example lies outside it."""
    members = set(system.member_sets)
    seen: set = set()
    steps = witness.steps
    for k, (t, hyp) in enumerate(steps):
        hyp = frozenset(hyp)
        seen.add(t)
        if hyp not in members or not seen <= hyp:
            return False
        if k + 1 < len(steps) and steps[k + 1][0] in hyp:
            return False
    return True


def _single_check(args, out) -> bool:
    da, dbang, dperp2, witness, is_seq = out
    return (
        da <= dbang <= da + 1
        and da <= dperp2
        and len(witness) == da
        and is_seq
        and _is_production_witness(args[0], witness)
    )


def _union_run(a, b):
    return ramsey.check_union_bound(a, b).holds


def _true_check(args, out) -> bool:
    return out is True


def build_systems_sweep(seed: int) -> Workload:
    """The work of test_c04, dim-bounds and union-ramsey, op by op.

    Classes, spread over the op list: ``pair`` (both systems over the same
    universe of size <= 2), ``single`` (every system over a universe of
    size <= 3), ``union3`` (all 65,536 pairs over a 3-element universe) and
    ``random`` (1,000 seeded pairs over a 4-element universe with at most 6
    members, run through the pair and single chains).
    """
    w = Workload()
    w.add_class("pair", _pair_run, _pair_check)
    w.add_class("single", _single_run, _single_check)
    w.add_class("union3", _union_run, _true_check)

    def random_run(a, b):
        return _pair_run(a, b), _single_run(a)

    def random_check(args, out):
        return _pair_check(args, out[0]) and _single_check(args[:1], out[1])

    w.add_class("random", random_run, random_check)
    by_size = [list(all_systems(n)) for n in range(4)]
    for n in range(3):
        w.ops += [("pair", (a, b)) for a in by_size[n] for b in by_size[n]]
    w.ops += [("single", (a,)) for group in by_size for a in group]
    w.ops += [("union3", (a, b)) for a in by_size[3] for b in by_size[3]]
    rng = random.Random(seed)
    w.ops += [
        ("random", (random_system(rng, 4, 6), random_system(rng, 4, 6)))
        for _ in range(1000)
    ]
    w.ops = spread(w.ops)
    return w


# ----------------------------------------------------------------- orders-sweep


def _wqo_run(a, b):
    value = orders.otp(orders.intersect_qo(a, b))
    rep = ramsey.check_wqo_intersection_bound(a, b)
    return value, rep.lhs, rep.holds


def _wqo_check(args, out) -> bool:
    value, lhs, holds = out
    a, b = args
    meet = tuple(x & y for x, y in zip(a.up, b.up))
    return holds and value == lhs == len(set(meet))


def _repr_run(qo):
    up_sets = orders.ss(qo)
    return (
        orders.otp(qo),
        production.dim(up_sets),
        orders.qo_of(up_sets) == qo,
        orders.is_coatomic_lattice(up_sets),
    )


def _repr_check(args, out) -> bool:
    value, d, round_trip, coatomic = out
    return value == d == _distinct_rows(args[0]) and round_trip and coatomic


def _iso_classes(path: str) -> list:
    """Up-rows of the isomorphism classes on 0..5 points, in enumeration order.

    Enumerating them takes about 3 s, so the first child of a checkout
    stores them at ``path`` and later children read them back.
    """
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            return [tuple(rows) for rows in json.load(handle)]
    classes = [qo.up for n in range(6) for qo in quasi_orders_up_to_iso(n)]
    with open(path + ".tmp", "w", encoding="utf-8") as handle:
        json.dump(classes, handle)
    os.replace(path + ".tmp", path)
    return classes


def build_orders_sweep(seed: int, results_dir: str) -> Workload:
    """The work of wqo-ramsey, repre, qo-roundtrip and coatomic.

    Classes, spread over the op list: ``wqo`` (all 126,883 ordered pairs of
    labelled quasi-orders on 1..4 points) and ``repr`` (the 186 isomorphism
    classes on 0..5 points, then 4,000 seeded random quasi-orders on 6
    points).
    """
    w = Workload()
    w.add_class("wqo", _wqo_run, _wqo_check)
    w.add_class("repr", _repr_run, _repr_check)
    for n in range(1, 5):
        qos = list(all_quasi_orders(n))
        w.ops += [("wqo", (a, b)) for a in qos for b in qos]
    for rows in _iso_classes(os.path.join(results_dir, "iso-classes.json")):
        w.ops.append(("repr", (orders.QuasiOrder(nat_atoms(len(rows)), rows),)))
    rng = random.Random(seed)
    elems = [leaf(str(i)) for i in range(6)]
    for _ in range(4000):
        density = rng.choice((0.1, 0.2, 0.35))
        rel = [(x, y) for x in elems for y in elems if x != y and rng.random() < density]
        w.ops.append(("repr", (orders.mk_qo(elems, rel),)))
    w.ops = spread(w.ops)
    return w


# ---------------------------------------------------------------- kernel-search


def near_antichain(rng: random.Random, n: int, k: int):
    """An n-point antichain plus k disjoint comparable pairs at seeded places.

    Every seed gives an isomorphic partial order, so the search size does
    not depend on the seed; its otp is n (no two points are equivalent).
    """
    points = rng.sample(range(n), 2 * k)
    elems = [leaf(f"p{i:02d}") for i in range(n)]
    rel = [(elems[points[2 * j]], elems[points[2 * j + 1]]) for j in range(k)]
    return orders.mk_qo(elems, rel)


def _antichain_upsets(k: int):
    return orders.ss(orders.mk_qo([leaf(str(i)) for i in range(k)]))


def _powerset(n: int):
    u = [leaf(str(i)) for i in range(n)]
    return systems.mk_system(
        u, [[a for i, a in enumerate(u) if mask >> i & 1] for mask in range(1 << n)]
    )


def _is_ramsey_coloring(l1: int, l2: int, n: int, colors) -> bool:
    """No clique of l1 vertices in colour 0 and none of l2 in colour 1."""
    edges = [(i, j) for j in range(n) for i in range(j)]
    if colors is None or len(colors) != len(edges):
        return False
    colour = dict(zip(edges, colors))
    for c, size in ((0, l1), (1, l2)):
        for clique in itertools.combinations(range(n), size):
            if all(colour[(i, j)] == c for i, j in itertools.combinations(clique, 2)):
                return False
    return True


def build_kernel_search(seed: int) -> Workload:
    """Nineteen exact searches through public entry points, most of them large.

    Classes: ``otp`` (near-antichains on 16, 17 and 18 points), ``dim``
    and ``witness`` (up-set systems of 6-, 8- and 9-point antichains,
    powerset(3) x powerset(3) and powerset(4) x powerset(4)) and
    ``ramsey`` (kernels.ramsey_search at (3,3,5), (3,3,6), (3,3,7),
    (3,4,8) and (3,4,9)).
    """
    w = Workload()
    rng = random.Random(seed)
    w.add_class(
        "otp", lambda qo: orders.otp(qo), lambda args, out: out == len(args[0].elements)
    )
    # dim and witness args: (system, d), with d the known dimension.
    w.add_class("dim", lambda s, d: production.dim(s), lambda args, out: out == args[1])
    w.add_class(
        "witness",
        lambda s, d: production.longest_production_sequence(s),
        lambda args, out: len(out) == args[1] and _is_production_witness(args[0], out),
    )
    w.add_class(
        "ramsey",
        lambda l1, l2, n: kernels.ramsey_search(l1, l2, n),
        lambda args, out: _ramsey_check(*args, out),
    )
    for n, k in ((16, 5), (17, 3), (18, 2), (18, 4)):
        w.ops.append(("otp", (near_antichain(rng, n, k),)))
    for k in (6, 8, 9):
        s = _antichain_upsets(k)
        w.ops += [("dim", (s, k)), ("witness", (s, k))]
    for n, d in POWERSET_PRODUCT_DIM.items():
        s = systems.ew_product(_powerset(n), _powerset(n))
        w.ops += [("dim", (s, d)), ("witness", (s, d))]
    for args in ((3, 3, 5), (3, 3, 6), (3, 3, 7), (3, 4, 8), (3, 4, 9)):
        w.ops.append(("ramsey", args))
    w.finish = _lane_agreement
    return w


def _ramsey_check(l1, l2, n, out) -> bool:
    if n >= RAMSEY[(l1, l2)]:
        return out is None
    return _is_ramsey_coloring(l1, l2, n, out)


def _lane_agreement(ops_results) -> list:
    """Compiled-vs-pure agreement on every kernel op, when both lanes import."""
    from ordkit import _kernels_py as pure

    try:
        from ordkit import _kernels as compiled
    except ImportError:
        return []
    lanes = (pure, compiled)
    problems = []
    for (cls, args), out in ops_results:
        if cls == "otp":
            got = [lane.bad_sequence_rank(args[0].up) for lane in lanes]
        elif cls == "dim":
            support, masks = args[0].masks()
            got = [lane.production_rank(masks, (1 << len(support)) - 1) for lane in lanes]
        elif cls == "ramsey":
            got = [lane.ramsey_search(*args) for lane in lanes]
        else:
            continue
        if got[0] != got[1]:
            problems.append(f"lanes disagree on {cls}{args!r}: {got}")
    return problems


# --------------------------------------------------------------------- cli-json


def build_cli_json(seed: int, workdir: str) -> Workload:
    """A seeded batch of in-process ``ordkit.cli.main`` calls on JSON files.

    The input files are written to ``workdir`` (a path relative to the
    working directory, so diagnostics are the same on every run).  Each op
    is one call; stdout and stderr are captured per call.
    """
    w = Workload()
    out, err = io.StringIO(), io.StringIO()
    w.streams = (out, err)

    def run(argv, expect):
        o0, e0 = out.tell(), err.tell()
        code = cli.main(argv, standalone_mode=False)
        return code, o0, out.tell(), e0, err.tell()

    w.ops = [("cli", call) for call in clicheck.make_calls(random.Random(seed), workdir)]
    w.add_class("cli", run, clicheck.Checker(seed, out, err))
    return w


def build(name: str, seed: int, results_dir: str, shard: int = 0) -> Workload:
    """The named workload, or one shard of it for a sharded workload.

    ``results_dir`` holds input files and caches.  A sweep's op list is cut
    into ``SHARDS[name]`` strided shards; as the classes are spread evenly
    over the list, every shard has about the same mix of ops.
    """
    if name == "systems-sweep":
        w = build_systems_sweep(seed)
    elif name == "orders-sweep":
        w = build_orders_sweep(seed, results_dir)
    elif name == "kernel-search":
        w = build_kernel_search(seed)
    elif name == "cli-json":
        w = build_cli_json(seed, os.path.join(results_dir, "work"))
    else:
        raise ValueError(f"unknown workload {name!r}")
    w.ops = w.ops[shard :: SHARDS.get(name, 1)]
    return w
