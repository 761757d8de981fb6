"""Finitely branching traces: monotone continuous deformations of set systems.

A trace relates source-field elements to finite option sets over the
target field.  Applied to a subset g of the target field it yields every
source element one of whose option sets lies inside g; an empty option set
therefore fires on every input.  Images, composition, classification, the
up-set/quasi-order functor pair, and the finite category constructions
(product, coproduct, equalizer, mediating morphisms) all live here.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .atoms import Atom, atom_from_json, atom_to_json, finset, pair, tagged
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
from .systems import SetSystem, _system, ew_disjoint, tagged_union

TracePairs = frozenset[tuple[Atom, frozenset[Atom]]]

# compose expands each outer pair into the product of its elements' inner
# option counts; the sum of those products is the work it would do
COMPOSE_OPTION_BOUND = 1 << 16


@dataclass(frozen=True)
class Trace:
    source_field: tuple[Atom, ...]
    target_field: tuple[Atom, ...]
    pairs: TracePairs

    @cached_property
    def options(self) -> dict[Atom, tuple[frozenset[Atom], ...]]:
        by_x: dict[Atom, list[frozenset[Atom]]] = {}
        for x, v in self.pairs:
            by_x.setdefault(x, []).append(v)
        return {x: tuple(vs) for x, vs in by_x.items()}

    def to_json(self):
        entries = sorted(
            ((x, tuple(sorted(v))) for x, v in self.pairs),
            key=lambda e: (e[0], e[1]),
        )
        return {
            "source_field": [atom_to_json(a) for a in self.source_field],
            "target_field": [atom_to_json(a) for a in self.target_field],
            "pairs": [
                {"x": atom_to_json(x), "v": [atom_to_json(a) for a in v]}
                for x, v in entries
            ],
        }


def mk_trace(
    source_field: Iterable[Atom],
    target_field: Iterable[Atom],
    pairs: Iterable[tuple[Atom, Iterable[Atom]]],
) -> Trace:
    src = tuple(sorted(set(source_field)))
    tgt = tuple(sorted(set(target_field)))
    src_set, tgt_set = set(src), set(tgt)
    canon = set()
    for x, v in pairs:
        if x not in src_set:
            raise ElementOutsideField(x)
        vset = frozenset(v)
        for a in vset:
            if a not in tgt_set:
                raise ElementOutsideField(a)
        canon.add((x, vset))
    return Trace(src, tgt, frozenset(canon))


def trace_from_json(obj, path: str = "$") -> Trace:
    if not isinstance(obj, dict) or not {"source_field", "target_field", "pairs"} <= set(obj):
        raise InputError(
            f"{path}: expected an object with source_field/target_field/pairs"
        )
    for key in ("source_field", "target_field", "pairs"):
        if not isinstance(obj[key], list):
            raise InputError(f"{path}.{key}: expected a list")
    src = [
        atom_from_json(a, f"{path}.source_field[{i}]")
        for i, a in enumerate(obj["source_field"])
    ]
    tgt = [
        atom_from_json(a, f"{path}.target_field[{i}]")
        for i, a in enumerate(obj["target_field"])
    ]
    pairs = []
    for i, entry in enumerate(obj["pairs"]):
        if not isinstance(entry, dict) or "x" not in entry or "v" not in entry:
            raise InputError(f"{path}.pairs[{i}]: expected an object with x and v")
        x = atom_from_json(entry["x"], f"{path}.pairs[{i}].x")
        if not isinstance(entry["v"], list):
            raise InputError(f"{path}.pairs[{i}].v: expected a list of atoms")
        v = [
            atom_from_json(a, f"{path}.pairs[{i}].v[{j}]")
            for j, a in enumerate(entry["v"])
        ]
        pairs.append((x, v))
    try:
        return mk_trace(src, tgt, pairs)
    except ElementOutsideField as exc:
        raise InputError(f"{path}.pairs: {exc}") from exc


def apply(trace: Trace, g: Iterable[Atom]) -> frozenset[Atom]:
    """Source elements with some option set inside g."""
    gset = frozenset(g)
    tgt = set(trace.target_field)
    for a in gset:
        if a not in tgt:
            raise ElementOutsideField(a)
    return frozenset(x for x, v in trace.pairs if v <= gset)


def direct_image(trace: Trace, system: SetSystem) -> SetSystem:
    """The system of member images, over the source field."""
    if not set(system.support) <= set(trace.target_field):
        raise FieldMismatch("system support is not inside the trace target field")
    members = [apply(trace, m) for m in system.member_sets]
    return _system(trace.source_field, members)


def inverse_image_rel(
    rel: Iterable[tuple[Atom, Atom]], system: SetSystem
) -> SetSystem:
    """Relational inverse image of every member; the singleton-lifted trace."""
    rel = tuple(rel)
    xs = sorted({x for x, _ in rel})
    members = [
        frozenset(x for x, y in rel if y in m) for m in system.member_sets
    ]
    return _system(xs, members)


def identity_trace(field: Iterable[Atom]) -> Trace:
    f = tuple(sorted(set(field)))
    return Trace(f, f, frozenset((x, frozenset((x,))) for x in f))


def empty_trace(source_field: Iterable[Atom], target_field: Iterable[Atom]) -> Trace:
    return mk_trace(source_field, target_field, ())


def branching_degree(trace: Trace) -> int:
    return max((len(vs) for vs in trace.options.values()), default=0)


def is_linear(trace: Trace) -> bool:
    return all(len(v) <= 1 for _, v in trace.pairs)


def is_sequential(trace: Trace) -> bool:
    return branching_degree(trace) <= 1


def canonicalize(trace: Trace) -> Trace:
    """Keep only inclusion-minimal option sets per source element."""
    kept = []
    for x, vs in trace.options.items():
        uniq = set(vs)
        for v in uniq:
            if not any(w < v for w in uniq):
                kept.append((x, v))
    return Trace(trace.source_field, trace.target_field, frozenset(kept))


def compose(outer: Trace, inner: Trace) -> Trace:
    """The trace of the composite map: apply(compose(R,S), g) == apply(R, apply(S, g)).

    Option sets multiply out (one inner option per outer option element);
    the result is canonicalized to keep the expansion in check.  More than
    ``COMPOSE_OPTION_BOUND`` option sets in all are refused before any is
    built: the count is summed over the source elements in sorted order and
    tested after each, so the refusal names the same count in every process.
    """
    if outer.target_field != inner.source_field:
        raise FieldMismatch("outer target field must equal inner source field")
    inner_opts, outer_opts = inner.options, outer.options
    expansions = []
    count = 0
    for x in sorted(outer_opts):
        for v in outer_opts[x]:
            pools = [inner_opts.get(y) for y in sorted(v)]
            if any(p is None for p in pools):
                continue
            count += math.prod(map(len, pools))
            expansions.append((x, pools))
        if count > COMPOSE_OPTION_BOUND:
            raise UniverseTooLarge(
                f"at least {count}", COMPOSE_OPTION_BOUND, "composition", "option sets"
            )
    pairs = [
        (x, frozenset().union(*combo))
        for x, pools in expansions
        for combo in itertools.product(*pools)
    ]
    return canonicalize(Trace(outer.source_field, inner.target_field, frozenset(pairs)))


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
    """Relates each finset atom over the field to its own element set."""
    f = tuple(sorted(set(field)))
    subsets = [
        tuple(c) for r in range(len(f) + 1) for c in itertools.combinations(f, r)
    ]
    return mk_trace([finset(c) for c in subsets], f, [(finset(c), c) for c in subsets])


def ss_functor(sim: Simulation) -> Trace:
    """The linear trace of a simulation, mapping target up-sets to source up-sets."""
    if not is_simulation(sim):
        raise NotASimulation("the relation does not satisfy the simulation law")
    return Trace(
        sim.source.elements,
        sim.target.elements,
        frozenset((x, frozenset((y,))) for x, y in sim.pairs),
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
    rel = frozenset((x, next(iter(v))) for x, v in trace.pairs if v)
    return Simulation(source_qo, target_qo, rel)


def coproduct(*systems: SetSystem) -> tuple[SetSystem, list[Trace]]:
    """Tagged-union carrier plus one injection trace per operand."""
    if not systems:
        raise EmptyOperandList("coproduct needs at least one operand")
    carrier = tagged_union(*systems)
    injections = []
    for j, s in enumerate(systems):
        pairs = [(tagged(x, j + 1), (x,)) for x in s.support]
        injections.append(mk_trace(carrier.universe, s.support, pairs))
    return carrier, injections


def product(*systems: SetSystem) -> tuple[SetSystem, list[Trace]]:
    """Tagged disjoint-union carrier plus one projection trace per operand."""
    if not systems:
        raise EmptyOperandList("product needs at least one operand")
    carrier = ew_disjoint(*systems)
    projections = []
    for j, s in enumerate(systems):
        pairs = [(x, (tagged(x, j + 1),)) for x in s.support]
        projections.append(mk_trace(s.support, carrier.universe, pairs))
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
    target = [
        tagged(a, j + 1) for j, leg in enumerate(legs) for a in leg.target_field
    ]
    pairs = []
    for j, leg in enumerate(legs):
        for y, v in leg.pairs:
            pairs.append((y, tuple(tagged(a, j + 1) for a in v)))
    return mk_trace(src, target, pairs)


def mediating_cone(legs: Sequence[Trace]) -> Trace:
    """The morphism into a product determined by one leg per slot."""
    if not legs:
        raise EmptyOperandList("a cone needs at least one leg")
    tgt = legs[0].target_field
    for leg in legs:
        if leg.target_field != tgt:
            raise FieldMismatch("cone legs must share their target field")
    source = [
        tagged(a, j + 1) for j, leg in enumerate(legs) for a in leg.source_field
    ]
    pairs = []
    for j, leg in enumerate(legs):
        for s, v in leg.pairs:
            pairs.append((tagged(s, j + 1), tuple(v)))
    return mk_trace(source, tgt, pairs)


def equalizer(first: Trace, second: Trace, system: SetSystem) -> SetSystem:
    """Members on which both traces act identically."""
    if first.source_field != second.source_field or first.target_field != second.target_field:
        raise FieldMismatch("equalizer needs two parallel traces")
    if not set(system.support) <= set(first.target_field):
        raise FieldMismatch("system support is not inside the trace target field")
    members = [
        m for m in system.member_sets if apply(first, m) == apply(second, m)
    ]
    return _system(system.universe, members)
