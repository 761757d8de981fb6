"""Finitely branching traces: monotone continuous deformations of set systems.

A trace relates source-field elements to finite option sets over the
target field.  Applied to a subset g of the target field it yields every
source element one of whose option sets lies inside g; an empty option set
therefore fires on every input.  Images, composition, classification, the
up-set/quasi-order functor pair, and the finite category constructions
(product, coproduct, equalizer, mediating morphisms) all live here.

Both fields are sorted; ``options[i]`` holds the distinct option masks of
``source_field[i]`` over the target field, in ``SetSystem`` member order.
Atoms appear only in ``mk_trace``, the finsets of ``bang_trace``, ``pairs``,
``to_json`` and ``__repr__``.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property, reduce
from typing import Iterable, Sequence

from .atoms import Atom, _Frozen, atom_from_json, atom_to_json, atoms_from_json, pair, tagged
from .errors import (
    ElementOutsideField,
    EmptyOperandList,
    FieldMismatch,
    InputError,
    InvalidArity,
    NotASimulation,
    NotLinear,
    UniverseTooLarge,
)
from .orders import QuasiOrder, Simulation, is_simulation
from .systems import (
    BANG_SUPPORT_BOUND,
    SetSystem,
    _bits,
    _canonical,
    _finsets,
    _index_order,
    _remap,
    ew_disjoint,
    tagged_union,
)

# compose expands each outer option set into the product of its elements'
# inner option counts; the sum of those products is the work it would do
COMPOSE_OPTION_BOUND = 1 << 16


class Trace(_Frozen):
    __slots__ = ("source_field", "target_field", "options", "__dict__")
    source_field: tuple[Atom, ...]
    target_field: tuple[Atom, ...]
    options: tuple[tuple[int, ...], ...]

    def __init__(self, source_field, target_field, options):
        object.__setattr__(self, "source_field", source_field)
        object.__setattr__(self, "target_field", target_field)
        object.__setattr__(self, "options", options)

    @cached_property
    def _bit(self) -> dict[Atom, int]:
        return {a: 1 << j for j, a in enumerate(self.target_field)}

    @cached_property
    def pairs(self) -> frozenset[tuple[Atom, frozenset[Atom]]]:
        return frozenset((x, frozenset(v)) for x, v in self._entries())

    def _entries(self) -> Iterable[tuple[Atom, list[Atom]]]:
        """(element, option atoms) for every option set, in index order."""
        tgt = self.target_field
        options = zip(self.source_field, self.options)
        return ((x, [tgt[j] for j in _bits(v)]) for x, opts in options for v in opts)

    def to_json(self):
        return {
            "source_field": [atom_to_json(a) for a in self.source_field],
            "target_field": [atom_to_json(a) for a in self.target_field],
            "pairs": [
                {"x": atom_to_json(x), "v": [atom_to_json(a) for a in v]}
                for x, v in self._entries()
            ],
        }

    def __repr__(self):
        pairs = ",".join(f"{x!r}:{{{','.join(map(repr, v))}}}" for x, v in self._entries())
        return f"Trace[{pairs}]"


def _trace(source_field, target_field, options: Iterable[Iterable[int]]) -> Trace:
    """The trace with each source index's option masks deduplicated and ordered."""
    options = tuple(tuple(sorted(set(opts), key=_index_order)) for opts in options)
    return Trace(source_field, target_field, options)


def _mask(bit: dict[Atom, int], atoms: Iterable[Atom]) -> int:
    """The OR of ``bit[a]`` over ``atoms``, refusing the first atom outside ``bit``."""
    mask = 0
    for a in atoms:
        b = bit.get(a)
        if b is None:
            raise ElementOutsideField(a)
        mask |= b
    return mask


def mk_trace(
    source_field: Iterable[Atom],
    target_field: Iterable[Atom],
    pairs: Iterable[tuple[Atom, Iterable[Atom]]],
) -> Trace:
    src = tuple(sorted(set(source_field)))
    tgt = tuple(sorted(set(target_field)))
    bit = {a: 1 << j for j, a in enumerate(tgt)}
    options: dict[Atom, set[int]] = {x: set() for x in src}
    for x, v in pairs:
        if x not in options:
            raise ElementOutsideField(x)
        options[x].add(_mask(bit, v))
    return _trace(src, tgt, options.values())


def trace_from_json(obj, path: str = "$") -> Trace:
    if not isinstance(obj, dict) or not {"source_field", "target_field", "pairs"} <= set(obj):
        raise InputError(
            f"{path}: expected an object with source_field/target_field/pairs"
        )
    for key in ("source_field", "target_field", "pairs"):
        if not isinstance(obj[key], list):
            raise InputError(f"{path}.{key}: expected a list")
    src = atoms_from_json(obj["source_field"], f"{path}.source_field")
    tgt = atoms_from_json(obj["target_field"], f"{path}.target_field")
    pairs = []
    for i, entry in enumerate(obj["pairs"]):
        if not isinstance(entry, dict) or "x" not in entry or "v" not in entry:
            raise InputError(f"{path}.pairs[{i}]: expected an object with x and v")
        x = atom_from_json(entry["x"], f"{path}.pairs[{i}].x")
        pairs.append((x, atoms_from_json(entry["v"], f"{path}.pairs[{i}].v")))
    try:
        return mk_trace(src, tgt, pairs)
    except ElementOutsideField as exc:
        raise InputError(f"{path}.pairs: {exc}") from exc


def _fire(trace: Trace, g: int) -> int:
    """The source mask of the elements with an option mask inside ``g``."""
    out = 0
    for i, opts in enumerate(trace.options):
        for v in opts:
            if v & g == v:
                out |= 1 << i
                break
    return out


def _images(trace: Trace, system: SetSystem) -> list[int]:
    """The source mask fired by each member of ``system``, in member order."""
    if any(a not in trace._bit for a in system.support):
        raise FieldMismatch("system support is not inside the trace target field")
    table = [trace._bit[a] for a in system.support]
    return [_fire(trace, _remap(m, table)) for m in system.member_masks]


def apply(trace: Trace, g: Iterable[Atom]) -> frozenset[Atom]:
    """Source elements with some option set inside g."""
    fired = _fire(trace, _mask(trace._bit, g))
    return frozenset([x for i, x in enumerate(trace.source_field) if fired >> i & 1])


def direct_image(trace: Trace, system: SetSystem) -> SetSystem:
    """The system of member images, over the source field."""
    return _canonical(trace.source_field, trace.source_field, _images(trace, system))


def inverse_image_rel(
    rel: Iterable[tuple[Atom, Atom]], system: SetSystem
) -> SetSystem:
    """Relational inverse image of every member; the singleton-lifted trace."""
    rel = tuple(rel)
    targets = {y for _, y in rel} | set(system.support)
    lift = mk_trace((x for x, _ in rel), targets, ((x, (y,)) for x, y in rel))
    return direct_image(lift, system)


def identity_trace(field: Iterable[Atom]) -> Trace:
    f = tuple(sorted(set(field)))
    return Trace(f, f, tuple((1 << j,) for j in range(len(f))))


def empty_trace(source_field: Iterable[Atom], target_field: Iterable[Atom]) -> Trace:
    return mk_trace(source_field, target_field, ())


def branching_degree(trace: Trace) -> int:
    return max(map(len, trace.options), default=0)


def is_linear(trace: Trace) -> bool:
    return all(v & (v - 1) == 0 for opts in trace.options for v in opts)


def is_sequential(trace: Trace) -> bool:
    return branching_degree(trace) <= 1


def canonicalize(trace: Trace) -> Trace:
    """Keep only inclusion-minimal option sets per source element."""
    options = tuple(
        tuple(v for v in opts if not any(w & v == w != v for w in opts))
        for opts in trace.options
    )
    return Trace(trace.source_field, trace.target_field, options)


def compose(outer: Trace, inner: Trace) -> Trace:
    """The trace of the composite map: apply(compose(R,S), g) == apply(R, apply(S, g)).

    Option sets multiply out (one inner option per outer option element);
    the result is canonicalized to keep the expansion in check.  More than
    ``COMPOSE_OPTION_BOUND`` option sets in all are refused before any is
    built: the count is summed over the source elements in index order and
    tested after each, so the refusal names the same count in every process.
    """
    if outer.target_field != inner.source_field:
        raise FieldMismatch("outer target field must equal inner source field")
    pools = [[[inner.options[y] for y in _bits(v)] for v in opts] for opts in outer.options]
    sizes = (sum(math.prod(map(len, p)) for p in per_x) for per_x in pools)
    for count in itertools.accumulate(sizes):
        if count > COMPOSE_OPTION_BOUND:
            raise UniverseTooLarge(
                f"at least {count}", COMPOSE_OPTION_BOUND, "composition", "option sets"
            )
    options = [
        {reduce(int.__or__, combo, 0) for p in per_x for combo in itertools.product(*p)}
        for per_x in pools
    ]
    return canonicalize(_trace(outer.source_field, inner.target_field, options))


def discoloration_trace(n: int, field: Iterable[Atom]) -> Trace:
    """Options {tagged(s, i)} for i = 1..n: merges an n-slot tagged union."""
    if n < 2:
        raise InvalidArity("discoloration needs at least two slots")
    f = tuple(sorted(set(field)))
    target = [tagged(s, i) for s in f for i in range(1, n + 1)]
    pairs = [(s, (tagged(s, i),)) for s in f for i in range(1, n + 1)]
    return mk_trace(f, target, pairs)


def intersection_trace(field_l: Iterable[Atom], field_m: Iterable[Atom]) -> Trace:
    """Options {pair(s, s)} on the common field; images of products are intersections."""
    fl = set(field_l)
    fm = set(field_m)
    common = sorted(fl & fm)
    target = [pair(x, y) for x in sorted(fl) for y in sorted(fm)]
    pairs = [(s, (pair(s, s),)) for s in common]
    return mk_trace(common, target, pairs)


def bang_trace(field: Iterable[Atom]) -> Trace:
    """Relates each finset atom over the field to its own element set; a field
    over ``BANG_SUPPORT_BOUND`` is refused before anything is built.

    The submasks of the sorted field, in index order, are the finsets in
    atom order, and each one's only option set is the submask itself.
    """
    f = tuple(sorted(set(field)))
    if len(f) > BANG_SUPPORT_BOUND:
        raise UniverseTooLarge(len(f), BANG_SUPPORT_BOUND, "field")
    order = sorted(range(1 << len(f)), key=_index_order)
    return Trace(_finsets(f, order), f, tuple((s,) for s in order))


def ss_functor(sim: Simulation) -> Trace:
    """The linear trace of a simulation, mapping target up-sets to source up-sets."""
    if not is_simulation(sim):
        raise NotASimulation("the relation does not satisfy the simulation law")
    return Trace(
        sim.source.elements,
        sim.target.elements,
        tuple(tuple(1 << j for j in _bits(row)) for row in sim.rows),
    )


def qo_functor(trace: Trace, source_qo: QuasiOrder, target_qo: QuasiOrder) -> Simulation:
    """Read a linear trace back as a relation between the given quasi-orders.

    The quasi-orders must carry the trace fields; empty option sets have no
    counterpart and are dropped.
    """
    if not is_linear(trace):
        raise NotLinear("trace has an option set with more than one element")
    if trace.source_field != source_qo.elements:
        raise FieldMismatch("source field does not match the source carrier")
    if trace.target_field != target_qo.elements:
        raise FieldMismatch("target field does not match the target carrier")
    return Simulation(
        source_qo, target_qo, tuple(reduce(int.__or__, opts, 0) for opts in trace.options)
    )


def coproduct(*systems: SetSystem) -> tuple[SetSystem, list[Trace]]:
    """Tagged-union carrier plus one injection trace per operand."""
    if not systems:
        raise EmptyOperandList("coproduct needs at least one operand")
    carrier = tagged_union(*systems)
    injections = [
        mk_trace(carrier.universe, s.support, [(tagged(x, j + 1), (x,)) for x in s.support])
        for j, s in enumerate(systems)
    ]
    return carrier, injections


def product(*systems: SetSystem) -> tuple[SetSystem, list[Trace]]:
    """Tagged disjoint-union carrier plus one projection trace per operand."""
    if not systems:
        raise EmptyOperandList("product needs at least one operand")
    carrier = ew_disjoint(*systems)
    projections = [
        mk_trace(s.support, carrier.universe, [(x, (tagged(x, j + 1),)) for x in s.support])
        for j, s in enumerate(systems)
    ]
    return carrier, projections


def mediating_cocone(legs: Sequence[Trace]) -> Trace:
    """The morphism out of a coproduct determined by one leg per slot.

    All legs must share the source field (the common codomain).  Slot j of
    the result rewrites each option set of leg j onto tag j.  With an empty
    option set in some leg the tag is lost, so only legs with nonempty
    option sets separate cleanly.
    """
    if not legs:
        raise EmptyOperandList("a cocone needs at least one leg")
    src = legs[0].source_field
    for leg in legs:
        if leg.source_field != src:
            raise FieldMismatch("cocone legs must share their source field")
    target = [tagged(a, j + 1) for j, leg in enumerate(legs) for a in leg.target_field]
    pairs = [
        (y, [tagged(a, j + 1) for a in v]) for j, leg in enumerate(legs) for y, v in leg.pairs
    ]
    return mk_trace(src, target, pairs)


def mediating_cone(legs: Sequence[Trace]) -> Trace:
    """The morphism into a product determined by one leg per slot."""
    if not legs:
        raise EmptyOperandList("a cone needs at least one leg")
    tgt = legs[0].target_field
    for leg in legs:
        if leg.target_field != tgt:
            raise FieldMismatch("cone legs must share their target field")
    source = [tagged(a, j + 1) for j, leg in enumerate(legs) for a in leg.source_field]
    pairs = [(tagged(s, j + 1), v) for j, leg in enumerate(legs) for s, v in leg.pairs]
    return mk_trace(source, tgt, pairs)


def equalizer(first: Trace, second: Trace, system: SetSystem) -> SetSystem:
    """Members on which both traces act identically."""
    if first.source_field != second.source_field or first.target_field != second.target_field:
        raise FieldMismatch("equalizer needs two parallel traces")
    images = zip(system.member_masks, _images(first, system), _images(second, system))
    return _canonical(system.universe, system.support, [m for m, a, b in images if a == b])
