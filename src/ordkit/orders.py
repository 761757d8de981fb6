"""Finite quasi-orders: bad sequences, order type, up-set systems, simulations.

The carrier is a canonically sorted atom tuple; the relation is stored as
one bitmask row per element (``up[i]`` = everything above element i,
inclusive).  All values are immutable and all operations pure.

The order type of a quasi-order is the rank of its tree of bad sequences.
On a finite quasi-order Q it is the number of equivalence classes,
``otp(Q) = |Q/≡|``, the finite case of the maximal order type of de Jongh
& Parikh, "Well-partial orderings and hierarchies", Indag. Math. 39
(1977): a bad sequence never repeats a class, since equivalent elements
lie below each other, and listing one element per class along a linear
extension of the partial order of classes, from the top down, is bad.
``otp`` is this class count; ``kernels.bad_sequence_rank`` computes the
rank by search and is kept as its certificate.

A simulation between two quasi-orders stores its relation as one bitmask
row per source element, and the simulation law, composition and the
linearizations all work on those rows; ``Simulation.pairs`` is an atom view,
and ``mk_simulation`` builds a simulation from atom pairs.
"""

from __future__ import annotations

import itertools
from functools import cached_property, reduce
from typing import Iterable, Iterator

from . import kernels
from .atoms import Atom, _Frozen, atom_from_json, atom_to_json, atoms_from_json, leaf
from .errors import (
    CarrierMismatch,
    InputError,
    NotALattice,
    RelationNotClosed,
    UniverseTooLarge,
    UnknownElement,
)
from .systems import MEMBER_BOUND, SetSystem, _bits, _canonical

SS_ELEMENT_BOUND = 20
LINEARIZATION_BOUND = 8


def _index(index: dict[Atom, int], atom: Atom) -> int:
    """The position of ``atom`` in a carrier's ``index``; ``UnknownElement`` if it has none."""
    i = index.get(atom)
    if i is None:
        raise UnknownElement(atom)
    return i


class QuasiOrder(_Frozen):
    __slots__ = ("elements", "up", "__dict__")
    elements: tuple[Atom, ...]
    up: tuple[int, ...]  # up[i] bit j set <=> elements[i] <= elements[j]

    def __init__(self, elements, up):
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "up", up)

    @cached_property
    def index(self) -> dict[Atom, int]:
        return {a: i for i, a in enumerate(self.elements)}

    def le(self, x: Atom, y: Atom) -> bool:
        return bool(self.up[_index(self.index, x)] >> _index(self.index, y) & 1)

    def pairs(self) -> Iterator[tuple[Atom, Atom]]:
        for i, row in enumerate(self.up):
            for j in _bits(row):
                yield self.elements[i], self.elements[j]

    def to_json(self):
        return {
            "elements": [atom_to_json(a) for a in self.elements],
            "le": [[atom_to_json(x), atom_to_json(y)] for x, y in self.pairs()],
        }

    def __repr__(self):
        rel = ",".join(f"{x!r}<={y!r}" for x, y in self.pairs() if x != y)
        return f"QuasiOrder({list(self.elements)!r}; {rel})"


def _closure(rows: list[int], n: int) -> list[int]:
    """The reflexive-transitive closure of the relation ``rows``, by Warshall."""
    rows = [row | 1 << i for i, row in enumerate(rows)]
    for k in range(n):
        for i in range(n):
            if rows[i] >> k & 1:
                rows[i] |= rows[k]
    return rows


def mk_qo(
    elements: Iterable[Atom],
    pairs: Iterable[tuple[Atom, Atom]] = (),
    strict: bool = False,
) -> QuasiOrder:
    """Build a quasi-order from generating pairs.

    The input is closed reflexively and transitively; with strict=True a
    non-closed input is rejected instead.
    """
    elems = tuple(sorted(set(elements)))
    index = {a: i for i, a in enumerate(elems)}
    given = [0] * len(elems)
    for x, y in pairs:
        given[_index(index, x)] |= 1 << _index(index, y)
    closed = _closure(given, len(elems))
    if strict:
        for i in range(len(elems)):
            if closed[i] != given[i] | (1 << i):
                raise RelationNotClosed(
                    "input relation is not transitively closed"
                )
    return QuasiOrder(elems, tuple(closed))


def qo_from_json(obj, path: str = "$", strict: bool = False) -> QuasiOrder:
    if not isinstance(obj, dict) or "elements" not in obj or "le" not in obj:
        raise InputError(f"{path}: expected an object with 'elements' and 'le'")
    if not isinstance(obj["elements"], list) or not isinstance(obj["le"], list):
        raise InputError(f"{path}: 'elements' and 'le' must be lists")
    elems: dict[Atom, int] = {}  # element -> its first index
    for i, a in enumerate(obj["elements"]):
        atom = atom_from_json(a, f"{path}.elements[{i}]")
        if elems.setdefault(atom, i) != i:
            raise InputError(
                f"{path}.elements[{i}]: {atom!r} repeats {path}.elements[{elems[atom]}]"
            )
    rel = []
    for i, p in enumerate(obj["le"]):
        if not isinstance(p, list) or len(p) != 2:
            raise InputError(f"{path}.le[{i}]: expected a pair [x, y]")
        rel.append(atoms_from_json(p, f"{path}.le[{i}]"))
    try:
        return mk_qo(elems, rel, strict=strict)
    except UnknownElement as exc:
        raise InputError(f"{path}.le: {exc}") from exc


def is_bad_sequence(qo: QuasiOrder, seq: Iterable[Atom]) -> bool:
    """True iff no earlier element is below a later one."""
    idx = [_index(qo.index, a) for a in seq]
    for i in range(len(idx)):
        for j in range(i + 1, len(idx)):
            if qo.up[idx[i]] >> idx[j] & 1:
                return False
    return True


def otp(qo: QuasiOrder) -> int:
    """Order type: the rank of the tree of bad sequences.

    Equal to the number of equivalence classes ``|Q/≡|`` on a finite
    quasi-order (de Jongh & Parikh 1977; see the module docstring), and
    two elements are equivalent exactly when their up rows are equal.
    """
    return len(set(qo.up))


def upset(atoms: Iterable[Atom], qo: QuasiOrder) -> tuple[Atom, ...]:
    """Upward closure of a subset of the carrier."""
    bits = 0
    for a in atoms:
        bits |= qo.up[_index(qo.index, a)]
    return tuple(a for i, a in enumerate(qo.elements) if bits >> i & 1)


def ss(qo: QuasiOrder) -> SetSystem:
    """The system of all upward-closed subsets (bounded).

    A binary search tree decides the elements lowest index first: putting
    element i in adds everything above it, ``up[i]``, and leaving it out
    removes everything below it.  What is decided in stays up-closed and
    what is decided out down-closed, so no branch is ever dead, every leaf
    is a distinct up-set, and the cost is O(n) per up-set, with no scan of
    all 2**n subsets.  More than ``MEMBER_BOUND`` up-sets are refused as
    the walk reaches the next one, before any system is built.
    """
    n = len(qo.elements)
    if n > SS_ELEMENT_BOUND:
        raise UniverseTooLarge(n, SS_ELEMENT_BOUND)
    up = qo.up
    down = kernels.transpose(up, n)
    full = (1 << n) - 1
    members = []
    stack = [(0, 0)]
    while stack:
        inside, outside = stack.pop()
        free = full & ~(inside | outside)
        if not free:
            members.append(inside)
            if len(members) > MEMBER_BOUND:
                raise UniverseTooLarge(
                    f"at least {len(members)}", MEMBER_BOUND, "up-set system", "members"
                )
            continue
        i = (free & -free).bit_length() - 1
        stack.append((inside | up[i], outside))
        stack.append((inside, outside | down[i]))
    return _canonical(tuple(sorted(qo.elements)), qo.elements, members)


def qo_of(system: SetSystem) -> QuasiOrder:
    """x below y iff every member containing x contains y.

    Element x's column has bit k set iff member k contains x; an element of
    the universe outside the support lies in no member, so its column is 0.
    """
    support = system.support
    columns = kernels.transpose(system.member_masks, len(support))
    elems = support
    if support != system.universe:
        elems = tuple(sorted(set(system.universe) | set(support)))
        column = dict(zip(support, columns))
        columns = [column.get(a, 0) for a in elems]
    up = []
    for x in columns:
        row = 0
        for j, y in enumerate(columns):
            if x & y == x:
                row |= 1 << j
        up.append(row)
    return QuasiOrder(elems, tuple(up))


def intersect_qo(a: QuasiOrder, b: QuasiOrder) -> QuasiOrder:
    if a.elements != b.elements:
        raise CarrierMismatch("quasi-orders must share one carrier")
    return QuasiOrder(a.elements, tuple(map(int.__and__, a.up, b.up)))


def is_coatomic_lattice(system: SetSystem) -> bool:
    """Check coatomicity of a member family closed under union and intersection.

    A coatom is a nontop member C such that every nontop member either joins
    with C to the top or sits below C; the family is coatomic when every
    nontop member lies below some coatom.  Raises ``NotALattice`` unless the
    family is nonempty, closed under union and intersection, and holds the
    top.  Once it does, the answer is True: in a family closed under union a
    nontop member joins with C to a member, which is the top or C itself
    exactly when no member lies strictly between C and the top, so the
    coatoms are the maximal nontop members (Birkhoff, "Rings of sets", Duke
    Math. J. 3, 1937), and in a finite family every nontop member lies below
    a maximal one.
    """
    members = system.member_masks
    if not members:
        raise NotALattice("the family has no members")
    fam = set(members)
    for x, y in itertools.combinations(members, 2):
        if x | y not in fam or x & y not in fam:
            raise NotALattice("family is not closed under union/intersection")
    if (1 << len(system.support)) - 1 not in fam:
        raise NotALattice("family has no top element")
    return True


class Simulation(_Frozen):
    __slots__ = ("source", "target", "rows", "__dict__")
    source: QuasiOrder
    target: QuasiOrder
    rows: tuple[int, ...]  # rows[i] bit j set <=> source i is related to target j

    def __init__(self, source, target, rows):
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "rows", rows)

    @cached_property
    def pairs(self) -> frozenset[tuple[Atom, Atom]]:
        xs, ys = self.source.elements, self.target.elements
        return frozenset((xs[i], ys[j]) for i, row in enumerate(self.rows) for j in _bits(row))


def mk_simulation(
    source: QuasiOrder, target: QuasiOrder, pairs: Iterable[tuple[Atom, Atom]]
) -> Simulation:
    """The relation given by atom pairs; an atom outside its carrier raises ``UnknownElement``."""
    rows = [0] * len(source.elements)
    for x, y in pairs:
        rows[_index(source.index, x)] |= 1 << _index(target.index, y)
    return Simulation(source, target, tuple(rows))


def is_simulation(sim: Simulation) -> bool:
    """Does every related pair propagate along source increases?

    For x related to y and every x2 above x, some y2 above y is related to
    x2: ``rows[j] & target.up[y]`` for every y in ``rows[i]`` and every j in
    ``source.up[i]``.
    """
    rows, up, tgt_up = sim.rows, sim.source.up, sim.target.up
    return all(
        rows[j] & tgt_up[y]
        for i, row in enumerate(rows)
        for y in _bits(row)
        for j in _bits(up[i])
    )


def identity_simulation(qo: QuasiOrder) -> Simulation:
    return Simulation(qo, qo, tuple(1 << i for i in range(len(qo.elements))))


def compose_simulations(second: Simulation, first: Simulation) -> Simulation:
    """Relational composite: first from X to Y, second from Y to Z."""
    if first.target.elements != second.source.elements:
        raise CarrierMismatch("simulations do not chain")
    rows = second.rows
    return Simulation(
        first.source,
        second.target,
        tuple(reduce(int.__or__, map(rows.__getitem__, _bits(row)), 0) for row in first.rows),
    )


def _chain(n: int) -> QuasiOrder:
    elems = tuple(leaf(str(i)) for i in range(n))
    up = tuple(((1 << n) - 1) & ~((1 << i) - 1) for i in range(n))
    return QuasiOrder(elems, up)


def linearizations(qo: QuasiOrder) -> list[tuple[QuasiOrder, Simulation]]:
    """All surjections onto canonical chains that preserve the order.

    Each result is the chain target plus the graph of the mapping as a
    simulation.  Enumerated as ordered partitions whose blocks are
    down-closed in what remains: the next block is a nonempty submask of
    the remaining elements, in ascending order, with no remaining element
    outside it below an element in it.
    """
    n = len(qo.elements)
    if n > LINEARIZATION_BOUND:
        raise UniverseTooLarge(n, LINEARIZATION_BOUND)
    up = qo.up
    results: list[tuple[QuasiOrder, Simulation]] = []

    def walk(remaining: int, blocks: list[int]):
        if remaining == 0:
            target = _chain(len(blocks))
            rows = tuple(kernels.transpose(blocks, n))
            results.append((target, Simulation(qo, target, rows)))
            return
        block = -remaining & remaining
        while block:
            rest = remaining & ~block
            if not any(up[i] & block for i in _bits(rest)):
                walk(rest, blocks + [block])
            block = (block - remaining) & remaining

    walk((1 << n) - 1, [])
    return results
