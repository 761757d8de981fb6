"""Instance enumeration and seeded random generation for the check suites.

Everything here is deterministic: exhaustive enumerators walk canonical
orders, and random generators draw from a caller-supplied ``random.Random``.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterator

from .atoms import Atom, leaf
from .orders import QuasiOrder, Simulation, _closure
from .systems import SetSystem, _bits, _canonical, _remap
from .traces import Trace, mk_trace

DIGITS = tuple(leaf(str(i)) for i in range(10))


def nat_atoms(n: int) -> tuple[Atom, ...]:
    """The first ``n`` of the ten atoms ``"0"``, ..., ``"9"``."""
    if not 0 <= n <= len(DIGITS):
        raise ValueError(f"nat_atoms gives 0 to {len(DIGITS)} atoms, not {n}")
    return DIGITS[:n]


def all_preorder_rows(n: int) -> Iterator[tuple[int, ...]]:
    """All reflexive transitive relations on n points, as row bitmasks.

    Rows are chosen depth-first; the pairwise constraint (j in row i forces
    row j inside row i) is checked as soon as both rows exist, which prunes
    most of the 2^(n(n-1)) space.
    """
    if n == 0:
        yield ()
        return
    rows: list[int] = []

    def consistent(d: int) -> bool:
        rd = rows[d]
        for i in range(d):
            ri = rows[i]
            if rd >> i & 1 and ri & ~rd:
                return False
            if ri >> d & 1 and rd & ~ri:
                return False
        return True

    def walk(d: int) -> Iterator[tuple[int, ...]]:
        if d == n:
            yield tuple(rows)
            return
        base = 1 << d
        for extra in range(1 << n):
            if extra & base:
                continue
            rows.append(base | extra)
            if consistent(d):
                yield from walk(d + 1)
            rows.pop()

    yield from walk(0)


def all_quasi_orders(n: int) -> Iterator[QuasiOrder]:
    elems = nat_atoms(n)
    for rows in all_preorder_rows(n):
        yield QuasiOrder(elems, rows)


def quasi_orders_up_to_iso(n: int) -> list[QuasiOrder]:
    """One quasi-order per isomorphism class: the first of its class in
    ``all_preorder_rows`` order.

    Each kept order marks its whole orbit, all n! relabellings, as seen, so
    only the kept orders are relabelled (139 of the 6,942 orders at n = 5).
    """
    elems = nat_atoms(n)
    seen: set[tuple[int, ...]] = set()
    out = []
    for rows in all_preorder_rows(n):
        if rows in seen:
            continue
        out.append(QuasiOrder(elems, rows))
        for perm in itertools.permutations(range(n)):
            table = [1 << p for p in perm]
            relabelled = [0] * n
            for i, row in enumerate(rows):
                relabelled[perm[i]] = _remap(row, table)
            seen.add(tuple(relabelled))
    return out


def all_systems(n: int) -> Iterator[SetSystem]:
    """Every family of subsets of a fixed n-element universe."""
    universe = nat_atoms(n)
    for fam in range(1 << (1 << n)):
        yield _canonical(universe, universe, [s for s in range(1 << n) if fam >> s & 1])


def random_quasi_order(rng: random.Random, max_size: int) -> QuasiOrder:
    """Random directed pairs plus closure; cycles yield equivalent elements."""
    if max_size > len(DIGITS):
        # refused before any draw, so a refused call leaves the rng as it was
        raise ValueError(f"nat_atoms gives 0 to {len(DIGITS)} atoms, not {max_size}")
    n = rng.randint(1, max_size)
    elems = nat_atoms(n)
    rows = [0] * n
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < 0.35:
                rows[i] |= 1 << j
    return QuasiOrder(elems, tuple(_closure(rows, n)))


def random_system(rng: random.Random, universe_size: int, max_members: int) -> SetSystem:
    universe = nat_atoms(universe_size)
    count = rng.randint(0, max_members)
    members = [rng.randrange(1 << universe_size) for _ in range(count)]
    return _canonical(universe, universe, members)


def random_trace(
    rng: random.Random,
    source: tuple[Atom, ...],
    target: tuple[Atom, ...],
    max_options: int = 2,
    allow_empty_options: bool = True,
) -> Trace:
    lo = 0 if allow_empty_options else 1
    pairs = []
    for x in source:
        for _ in range(rng.randint(0, max_options)):
            if len(target) < lo:
                continue
            size = rng.randint(lo, len(target))
            pairs.append((x, rng.sample(target, size)))
    return mk_trace(source, target, pairs)


def random_sequential_trace(
    rng: random.Random,
    source: tuple[Atom, ...],
    target: tuple[Atom, ...],
    allow_empty_options: bool = True,
) -> Trace:
    lo = 0 if allow_empty_options else 1
    pairs = []
    for x in source:
        if rng.random() < 0.75 and len(target) >= lo:
            size = rng.randint(lo, len(target))
            pairs.append((x, rng.sample(target, size)))
    return mk_trace(source, target, pairs)


def sequential_traces(
    source: tuple[Atom, ...],
    target: tuple[Atom, ...],
    include_empty_options: bool = True,
) -> Iterator[Trace]:
    """Every trace with at most one option set per source element."""
    source, target = tuple(sorted(set(source))), tuple(sorted(set(target)))
    lo = 0 if include_empty_options else 1
    choices = [()] + [(m,) for m in range(1 << len(target)) if m.bit_count() >= lo]
    for options in itertools.product(choices, repeat=len(source)):
        yield Trace(source, target, options)


def random_simulation(
    rng: random.Random, src: QuasiOrder, tgt: QuasiOrder
) -> Simulation:
    """Random seed pairs repaired to a simulation by propagating upward.

    Each source element, in index order, is related with probability 0.7 to
    one target element drawn uniformly.  The rows are then repaired in index
    order: for each related pair (i, y) and each j above i with no related
    element above y, y joins row j.  A pair added this way already obeys
    the law, since everything above j is above i, so one pass ends with a
    simulation, and the result depends on ``rng`` alone.
    """
    if not tgt.elements:
        return Simulation(src, tgt, (0,) * len(src.elements))
    rows = [0] * len(src.elements)
    for i in range(len(rows)):
        if rng.random() < 0.7:
            rows[i] = 1 << rng.randrange(len(tgt.elements))
    for i, row in enumerate(rows):
        for y in _bits(row):
            for j in _bits(src.up[i]):
                if not rows[j] & tgt.up[y]:
                    rows[j] |= 1 << y
    return Simulation(src, tgt, tuple(rows))


def all_relations(src: QuasiOrder, tgt: QuasiOrder) -> Iterator[Simulation]:
    """Every relation between two carriers, wrapped as a candidate simulation.

    Row i of relation ``mask`` is its m-bit slice at ``i*m``, m the target size.
    """
    n, m = len(src.elements), len(tgt.elements)
    low = (1 << m) - 1
    for mask in range(1 << (n * m)):
        yield Simulation(src, tgt, tuple(mask >> (i * m) & low for i in range(n)))
