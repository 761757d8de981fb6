"""Finite set systems: a universe, its sorted support, and one bitmask per member.

Bit ``i`` of a member mask stands for ``support[i]``; members are ordered
lexicographically on their index lists (the order of their sorted atom
tuples), so structurally equal inputs serialize to identical bytes.  One
canonicaliser, ``_canonical``, builds every system; ``members``,
``member_sets`` and ``family`` are views derived from the masks.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Collection, Iterable, Sequence

from . import kernels
from .atoms import FINSET, Atom, atom_from_json, atom_to_json, finset, pair, tagged
from .errors import (
    DuplicateUniverseElement,
    ElementOutsideUniverse,
    EmptyOperandList,
    InputError,
    UniverseTooLarge,
)

# bang's universe has 2**|support| finset atoms; the bound matches dim's
# default --max-universe
BANG_SUPPORT_BOUND = 16
# ew_union, ew_intersect, ew_product and ew_disjoint build one member per
# choice of one member from each operand, the product of their member counts
MEMBER_BOUND = 1 << 16


def _byte_table(first: int) -> list[tuple[int, ...]]:
    """Entry b: the set bit positions of the byte b, ascending, numbered from ``first``."""
    table = [()]
    for bit in range(first, first + 8):
        table += [bits + (bit,) for bits in table]
    return table


# bit positions of a mask's low byte and of its second byte
_BYTE_BITS = _byte_table(0)
_HIGH_BITS = _byte_table(8)
# binary digits to the selector bytes 0 and 1
_DIGIT_VALUES = bytes.maketrans(b"01", b"\0\1")


def _bits(mask: int) -> tuple[int, ...]:
    """The set bit positions of ``mask``, ascending: a member's index list.

    A mask of up to two bytes is one table entry per byte; a wider one is
    walked in C, its binary digits read lowest first as selectors over the
    positions.
    """
    if mask < 256:
        return _BYTE_BITS[mask]
    if mask < 65536:
        return _BYTE_BITS[mask & 255] + _HIGH_BITS[mask >> 8]
    digits = bin(mask)[:1:-1].encode().translate(_DIGIT_VALUES)
    return tuple(itertools.compress(itertools.count(), digits))


def _index_order(mask: int) -> str:
    """A sort key giving masks the lexicographic order of their index lists.

    Bit ``i`` becomes character ``i``: "1" for a present index, "2" for an
    absent one below the highest; a proper prefix sorts first, as a shorter
    index list with the same start does.
    """
    return bin(mask)[:1:-1].replace("0", "2") if mask else ""


def _remap(mask: int, table) -> int:
    """``mask`` with every set bit ``i`` replaced by the disjoint bits ``table[i]``."""
    return sum(table[i] for i in _bits(mask))


@dataclass(frozen=True)
class SetSystem:
    universe: tuple[Atom, ...]
    support: tuple[Atom, ...]
    member_masks: tuple[int, ...]

    @cached_property
    def members(self) -> tuple[tuple[Atom, ...], ...]:
        return tuple(tuple(self.support[i] for i in _bits(m)) for m in self.member_masks)

    @cached_property
    def member_sets(self) -> tuple[frozenset[Atom], ...]:
        return tuple(frozenset(m) for m in self.members)

    @cached_property
    def family(self) -> frozenset[frozenset[Atom]]:
        """The family as a set of sets; universe-independent equality."""
        return frozenset(self.member_sets)

    def masks(self) -> tuple[tuple[Atom, ...], tuple[int, ...]]:
        """Members as bitmasks over the support, in canonical member order."""
        return self.support, self.member_masks

    def to_json(self):
        return {
            "universe": [atom_to_json(a) for a in self.universe],
            "sets": [[atom_to_json(a) for a in m] for m in self.members],
        }

    def __repr__(self):
        sets = ",".join("{" + ",".join(repr(a) for a in m) + "}" for m in self.members)
        return f"SetSystem[{sets}]"


def _canonical(universe: tuple, atoms: Sequence[Atom], masks: Iterable[int]) -> SetSystem:
    """The system over the sorted ``universe`` whose members are ``masks`` over
    the distinct ``atoms``: masks deduplicated and compacted to the bits in
    use, support sorted, members ordered by index list."""
    masks = set(masks)
    order = sorted(_bits(reduce(int.__or__, masks, 0)), key=atoms.__getitem__)
    if order != list(range(len(order))):
        table = {i: 1 << k for k, i in enumerate(order)}
        masks = [_remap(m, table) for m in masks]
    return SetSystem(universe, tuple(atoms[i] for i in order), tuple(sorted(masks, key=_index_order)))


def _system(universe: Iterable[Atom], members: Iterable[Iterable[Atom]]) -> SetSystem:
    """Canonicalize atom-level members, which must lie inside ``universe`` (unchecked)."""
    atoms = tuple(sorted(set(universe)))
    bit = {a: 1 << i for i, a in enumerate(atoms)}
    return _canonical(atoms, atoms, [sum({bit[a] for a in m}) for m in members])


def mk_system(
    universe: Iterable[Atom], members: Iterable[Iterable[Atom]]
) -> SetSystem:
    """Validate and canonicalize a system: sorted universe, deduplicated members."""
    seen: set[Atom] = set()
    for a in universe:
        if a in seen:
            raise DuplicateUniverseElement(a)
        seen.add(a)
    member_list = [set(m) for m in members]
    for m in member_list:
        if not m <= seen:
            raise ElementOutsideUniverse(min(m - seen))
    return _system(seen, member_list)


def system_from_json(obj, path: str = "$") -> SetSystem:
    if not isinstance(obj, dict):
        raise InputError(f"{path}: expected an object with 'universe' and 'sets'")
    if "universe" not in obj or "sets" not in obj:
        raise InputError(f"{path}: missing 'universe' or 'sets'")
    if not isinstance(obj["universe"], list) or not isinstance(obj["sets"], list):
        raise InputError(f"{path}: 'universe' and 'sets' must be lists")
    universe = [
        atom_from_json(a, f"{path}.universe[{i}]") for i, a in enumerate(obj["universe"])
    ]
    members = []
    for i, m in enumerate(obj["sets"]):
        if not isinstance(m, list):
            raise InputError(f"{path}.sets[{i}]: expected a list of atoms")
        members.append(
            [atom_from_json(a, f"{path}.sets[{i}][{j}]") for j, a in enumerate(m)]
        )
    return mk_system(universe, members)


def _refuse_over_budget(what: str, unit: str, counts: Iterable[int]) -> None:
    """Refuse, before anything is built, an op making one member per choice of
    a member from each operand, when the choices (the product of the
    operands' member ``counts``) exceed ``MEMBER_BOUND``."""
    count = math.prod(counts)
    if count > MEMBER_BOUND:
        raise UniverseTooLarge(count, MEMBER_BOUND, what, unit)


def _pairwise_masks(
    op, what: str, atoms: tuple[Atom, ...], masks: Collection[int], rhs: SetSystem
) -> tuple[tuple[Atom, ...], set[int]]:
    """``op`` on every pair of a mask in ``masks`` over ``atoms`` and a member
    of ``rhs``: the atoms, ``atoms`` then rhs's new ones, and the distinct
    result masks over them.

    The masks are neither compacted nor sorted, so they are the canonical
    family up to a relabelling of bits and an order of members.  Whatever
    depends on neither, such as the production rank of the masks, can be
    read from them directly, and an
    earlier result can be passed back as ``(atoms, masks)`` to fold a chain
    of operands.  More than ``MEMBER_BOUND`` member pairs are refused
    before any is built."""
    _refuse_over_budget(what, "member pairs", (len(masks), len(rhs.member_masks)))
    r_masks = rhs.member_masks
    if rhs.support != atoms:
        bit = {a: 1 << i for i, a in enumerate(atoms)}
        for a in rhs.support:
            bit.setdefault(a, 1 << len(bit))
        atoms, table = tuple(bit), [bit[a] for a in rhs.support]
        r_masks = [_remap(r, table) for r in r_masks]
    return atoms, set(itertools.starmap(op, itertools.product(masks, r_masks)))


def _pairwise(op, what: str, lhs: SetSystem, rhs: SetSystem) -> SetSystem:
    """``op`` on every pair of members, over lhs's support then rhs's new atoms.

    More than ``MEMBER_BOUND`` member pairs are refused before any is built."""
    atoms, members = _pairwise_masks(op, what, lhs.support, lhs.member_masks, rhs)
    if lhs.universe == rhs.universe:
        return _canonical(lhs.universe, atoms, members)
    return _canonical(tuple(sorted(set(lhs.universe + rhs.universe))), atoms, members)


def ew_union(lhs: SetSystem, rhs: SetSystem) -> SetSystem:
    """All pairwise unions of members; universes merged."""
    return _pairwise(int.__or__, "elementwise union", lhs, rhs)


def ew_intersect(lhs: SetSystem, rhs: SetSystem) -> SetSystem:
    """All pairwise intersections of members; universes merged."""
    return _pairwise(int.__and__, "elementwise intersection", lhs, rhs)


def ew_product(lhs: SetSystem, rhs: SetSystem) -> SetSystem:
    """All pairwise cartesian products, over the pair atoms of the supports.

    Pair ``(x_i, y_j)`` is bit ``i * len(rhs.support) + j``, already atom order.
    More than ``MEMBER_BOUND`` member pairs are refused before any is built."""
    _refuse_over_budget(
        "elementwise product", "member pairs", (len(lhs.member_masks), len(rhs.member_masks))
    )
    width = len(rhs.support)
    atoms = tuple(pair(x, y) for x in lhs.support for y in rhs.support)
    members = []
    for r in rhs.member_masks:
        table = [r << (i * width) for i in range(len(lhs.support))]
        members += [_remap(l, table) for l in lhs.member_masks]
    return _canonical(atoms, atoms, members)


def _tagged_space(systems: tuple[SetSystem, ...]) -> tuple[list[Atom], list[int]]:
    """The tagged supports, operand ``j`` as the block of bits from ``offsets[j]``."""
    atoms = [tagged(a, j + 1) for j, s in enumerate(systems) for a in s.support]
    return atoms, list(itertools.accumulate((len(s.support) for s in systems), initial=0))


def ew_disjoint(*systems: SetSystem) -> SetSystem:
    """Tagged elementwise disjoint union: one member per choice tuple.

    More than ``MEMBER_BOUND`` choice tuples are refused before any is built.
    """
    if not systems:
        raise EmptyOperandList("disjoint union needs at least one operand")
    _refuse_over_budget("disjoint union", "members", (len(s.member_masks) for s in systems))
    atoms, offsets = _tagged_space(systems)
    members = [
        sum(m << off for m, off in zip(combo, offsets))
        for combo in itertools.product(*(s.member_masks for s in systems))
    ]
    return _canonical(tuple(sorted(atoms)), atoms, members)


def tagged_union(*systems: SetSystem) -> SetSystem:
    """Coproduct carrier: every member of every operand, tagged by its slot."""
    if not systems:
        raise EmptyOperandList("tagged union needs at least one operand")
    atoms, offsets = _tagged_space(systems)
    members = [m << off for s, off in zip(systems, offsets) for m in s.member_masks]
    return _canonical(tuple(sorted(atoms)), atoms, members)


def bang(system: SetSystem) -> SetSystem:
    """Each member M becomes the family of all subsets of M, as finset atoms.

    The universe is every finset over the support, so it grows as
    2**|support|.  The support is sorted and distinct, so a submask's index
    list spells its finset as it stands, and the finsets' atom order is the
    index order of their submasks: the universe is built in that order, and
    a member is the numeral whose digit at a submask's position is 1 when
    the submask lies inside it.  A support over ``BANG_SUPPORT_BOUND`` is
    refused before anything is built.
    """
    support = system.support
    if len(support) > BANG_SUPPORT_BOUND:
        raise UniverseTooLarge(len(support), BANG_SUPPORT_BOUND, "support")
    order = sorted(range(1 << len(support)), key=_index_order)
    atoms = tuple(Atom((FINSET, tuple(map(support.__getitem__, _bits(s))))) for s in order)
    # digit[s]: the place of submask s in a numeral written most significant first
    digit = [0] * len(order)
    for place, s in enumerate(reversed(order)):
        digit[s] = place
    members = []
    for m in system.member_masks:
        # the empty submask is atom 0, the last digit; the loop adds the others
        numeral, s = bytearray(b"0" * (len(order) - 1) + b"1"), m
        while s:
            numeral[digit[s]] = 49  # the digit "1"
            s = (s - 1) & m
        members.append(int(numeral, 2))
    return _canonical(atoms, atoms, members)


def perp(system: SetSystem) -> SetSystem:
    """Fibers system: one member per support element, listing the members containing it.

    The universe is the nonempty members of the input, encoded as finset
    atoms; in canonical member order these are already sorted.
    """
    masks = [m for m in system.member_masks if m]
    atoms = tuple(finset(m) for m in system.members if m)
    return _canonical(atoms, atoms, kernels.transpose(masks, len(system.support)))
