"""Independent brute-force oracles; intentionally unshared with the library code.

These enumerate the defining objects literally (full game trees, all
subsets, all merge positions) and are used to freeze expected values.
"""

from __future__ import annotations

import itertools
from functools import reduce
from typing import NamedTuple

from ordkit import (
    QuasiOrder,
    SetSystem,
    Simulation,
    Trace,
    atom_to_json,
    dim,
    ew_union,
    finset,
    intersect_qo,
    leaf,
    mk_qo,
    mk_simulation,
    mk_system,
    mk_trace,
    otp,
    ramsey,
)
from ordkit._kernels_py import _ProductionSolver, production_rank, production_state_rank
from ordkit.errors import (
    CarrierMismatch,
    FieldMismatch,
    NotALattice,
    NotASimulation,
    NotLinear,
)
from ordkit.generators import all_preorder_rows
from ordkit.systems import _canonical, _system


def nats(n: int) -> tuple:
    return tuple(leaf(str(i)) for i in range(n))


def system(universe_size: int, *sets: tuple) -> SetSystem:
    u = nats(universe_size)
    return mk_system(u, [tuple(u[i] for i in s) for s in sets])


def random_qo(rng, n: int) -> QuasiOrder:
    """A quasi-order on ``nats(n)`` generated by random pairs at a random density."""
    u = nats(n)
    density = rng.uniform(0.02, 0.35)
    return mk_qo(u, [(x, y) for x in u for y in u if rng.random() < density])


def atom_key(obj) -> tuple:
    """The canonical sort key of an atom, rebuilt from its JSON form: the
    shape rank (leaf, pair, tag, word, finset) first, then the contents, with
    a finset's elements as their sorted distinct keys."""
    if isinstance(obj, str):
        return (0, obj)
    ((kind, body),) = obj.items()
    if kind == "pair":
        return (1, atom_key(body[0]), atom_key(body[1]))
    if kind == "tag":
        return (2, atom_key(body[0]), body[1])
    if kind == "word":
        return (3, tuple(body))
    return (4, tuple(sorted({atom_key(a) for a in body})))


def canonical_reference(universe, members) -> tuple[tuple, tuple, tuple]:
    """The atom-key canonical form: sorted universe, sorted support, and the
    distinct members as sorted atom tuples, ordered by their atom keys."""
    canon = {tuple(sorted(set(m))) for m in members}
    ordered = sorted(canon, key=lambda m: tuple(atom_key(atom_to_json(a)) for a in m))
    support = sorted(set().union(*canon))
    return tuple(sorted(set(universe))), tuple(support), tuple(ordered)


def iso_classes_reference(n: int) -> list[tuple[int, ...]]:
    """The rows of the first labelled quasi-order of each isomorphism class,
    in enumeration order: every labelled order is keyed by its least row
    encoding over all n! relabellings, and equal keys mean isomorphic."""
    relabellings = []
    for perm in itertools.permutations(range(n)):
        image = [sum(1 << perm[j] for j in range(n) if row >> j & 1) for row in range(1 << n)]
        inverse = sorted(range(n), key=perm.__getitem__)
        relabellings.append((image, inverse))
    seen: set[tuple[int, ...]] = set()
    out = []
    for rows in all_preorder_rows(n):
        key = min(tuple([image[rows[i]] for i in inverse]) for image, inverse in relabellings)
        if key not in seen:
            seen.add(key)
            out.append(rows)
    return out


def qo_of_reference(system: SetSystem) -> QuasiOrder:
    """The induced quasi-order, scanning every member for every element."""
    elems = tuple(sorted(set(system.universe) | set(system.support)))
    memberships = []
    for a in elems:
        bits = 0
        for k, m in enumerate(system.member_sets):
            if a in m:
                bits |= 1 << k
        memberships.append(bits)
    up = []
    for i in range(len(elems)):
        row = 0
        for j in range(len(elems)):
            if memberships[i] & ~memberships[j] == 0:
                row |= 1 << j
        up.append(row)
    return QuasiOrder(elems, tuple(up))


def naive_dim(sys: SetSystem) -> int:
    """Longest production sequence by explicit full-tree enumeration."""
    members = list(sys.member_sets)
    support = frozenset().union(*members) if members else frozenset()

    def depth(presented: tuple, hyps: tuple) -> int:
        best = 0
        for t in support:
            if hyps and t in hyps[-1]:
                continue
            covered = set(presented)
            covered.add(t)
            for h in members:
                if covered <= h:
                    best = max(best, 1 + depth(presented + (t,), hyps + (h,)))
        return best

    return depth((), ())


class _ProductionSolverReference(_ProductionSolver):
    """A production solver whose ``rank`` stops a scan only at ``|C| - 1``,
    without the successor-count ceiling; its memo holds every state it ranked."""

    def rank(self, cover: int) -> int:
        memo = self.memo
        val = memo.get(cover)
        if val is not None:
            return val
        best = 0
        ceiling = cover.bit_count() - 1  # each move strictly shrinks the cover
        for nxt in {cover & c for c in self.columns}:
            if nxt != cover:
                r = memo.get(nxt)
                if r is None:
                    r = self.rank(nxt)
                if r > best:
                    best = r
                    if best == ceiling:
                        break
        memo[cover] = best + 1
        return best + 1


production_solver_reference = _ProductionSolverReference


def solver_columns_reference(members: tuple[int, ...]) -> tuple[dict, tuple]:
    """A production solver's ``contains`` and ``columns``, by peeling every
    member bit by bit: ``contains`` in the order the elements first occur,
    and ``columns`` as the set of its columns taken in that order."""
    contains: dict[int, int] = {}
    for i, m in enumerate(members):
        while m:
            t = m & -m
            m ^= t
            contains[t] = contains.get(t, 0) | 1 << i
    return contains, tuple(set(contains.values()))


def transpose_reference(rows, width: int) -> list[int]:
    """The ``width`` columns of the bit matrix ``rows``, by peeling every row
    bit by bit: column ``t`` has bit ``k`` set iff row ``k`` has bit ``t``."""
    columns = [0] * width
    for k, row in enumerate(rows):
        while row:
            t = row & -row
            row ^= t
            columns[t.bit_length() - 1] |= 1 << k
    return columns


def bits_reference(mask: int) -> tuple[int, ...]:
    """The set bit positions of ``mask``, ascending, peeled one bit at a time."""
    bits = []
    while mask:
        bits.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return tuple(bits)


def _extension_reference(masks, seen, hyp, rank):
    """The first example bit and member that extend a sequence with examples
    ``seen`` and last hypothesis ``hyp`` to a state of ``rank``, each state
    ranked by a full ``production_state_rank`` scan."""
    for mask in masks:
        if seen & ~mask:
            continue
        bits = mask & ~hyp
        while bits:
            t = bits & -bits
            bits ^= t
            if production_state_rank(masks, seen | t, mask) == rank:
                return t, mask
    raise AssertionError("rank bookkeeping must always yield an extension")


def production_witness_reference(masks: tuple[int, ...]) -> list[tuple[int, int]]:
    """The ``(t, hyp)`` steps of a longest production sequence by the walk that
    ranked every candidate state from scratch: members in order, each holding
    every example so far, and bits outside the last hypothesis, ascending."""
    steps = []
    seen = hyp = 0
    for rank in reversed(range(production_rank(masks))):
        t, hyp = _extension_reference(masks, seen, hyp, rank)
        seen |= t
        steps.append((t, hyp))
    return steps


def naive_otp(qo: QuasiOrder) -> int:
    """Longest bad sequence by explicit enumeration."""

    def depth(seq: tuple) -> int:
        best = 0
        for a in qo.elements:
            if all(not qo.le(b, a) for b in seq):
                best = max(best, 1 + depth(seq + (a,)))
        return best

    return depth(())


def upper_sets(qo: QuasiOrder) -> set[frozenset]:
    """All upward-closed subsets, straight from the definition."""
    out = set()
    for r in range(len(qo.elements) + 1):
        for combo in itertools.combinations(qo.elements, r):
            u = frozenset(combo)
            if all(y in u for x in u for y in qo.elements if qo.le(x, y)):
                out.add(u)
    return out


def ss_reference(qo: QuasiOrder) -> SetSystem:
    """The up-set system by a scan of all 2**n subsets, keeping each subset
    that holds the up row of every element in it."""
    n = len(qo.elements)
    members = []
    for u in range(1 << n):
        closure = 0
        bits = u
        while bits:
            b = bits & -bits
            bits ^= b
            closure |= qo.up[b.bit_length() - 1]
        if closure | u == u:
            members.append(u)
    return _canonical(tuple(sorted(qo.elements)), qo.elements, members)


def coatomic_reference(system: SetSystem) -> bool:
    """Coatomicity with each coatom tested against every nontop member:
    C is a coatom when every nontop member joins with C to the top or to C."""
    members = system.member_masks
    if not members:
        raise NotALattice("the family has no members")
    fam = set(members)
    for x, y in itertools.combinations(members, 2):
        if x | y not in fam or x & y not in fam:
            raise NotALattice("family is not closed under union/intersection")
    top = (1 << len(system.support)) - 1
    if top not in fam:
        raise NotALattice("family has no top element")
    nontop = [m for m in members if m != top]
    coatoms = [c for c in nontop if all(m | c in (top, c) for m in nontop)]
    return all(any(m | c == c for c in coatoms) for m in nontop)


def hall_holds(blocks: list[frozenset]) -> bool:
    """Exhaustive subset scan of Hall's condition."""
    for r in range(1, len(blocks) + 1):
        for combo in itertools.combinations(range(len(blocks)), r):
            union = frozenset().union(*(blocks[i] for i in combo))
            if len(union) < len(combo):
                return False
    return True


def shuffle_by_positions(u: str, v: str) -> frozenset[str]:
    """Interleavings via explicit position choices for the first word."""
    n = len(u) + len(v)
    out = set()
    for pos in itertools.combinations(range(n), len(u)):
        slots: list = [None] * n
        for i, p in enumerate(pos):
            slots[p] = u[i]
        rest = iter(v)
        merged = "".join(c if c is not None else next(rest) for c in slots)
        out.add(merged)
    return frozenset(out)


def combine_reference(lhs, rhs, bound: int, shuffle: bool) -> frozenset[str]:
    """Every shuffle (or concatenation) of a word of lhs with one of rhs, cut at bound."""
    return frozenset(
        w for u in lhs for v in rhs if len(u) + len(v) <= bound
        for w in (shuffle_by_positions(u, v) if shuffle else (u + v,))
    )


def closure_reference(words, kind: str, max_len: int) -> frozenset[str]:
    """The closure as a plain fixed point: combine any two closed words until nothing is new."""
    shuffle = kind in ("shuffle_diamond", "shuffle_closure")
    closed = frozenset(w for w in words if len(w) <= max_len)
    while True:
        grown = closed | combine_reference(closed, closed, max_len, shuffle)
        if grown == closed:
            break
        closed = grown
    return closed | {""} if kind in ("star", "shuffle_closure") else closed


def has_mono_clique(n: int, colored_edges: dict, color: str, size: int) -> bool:
    """Brute scan for a monochromatic clique in an edge-colored K_n."""
    for combo in itertools.combinations(range(n), size):
        if all(
            colored_edges[(min(a, b), max(a, b))] == color
            for a, b in itertools.combinations(combo, 2)
        ):
            return True
    return False


def ramsey_search_reference(l1: int, l2: int, n: int):
    """The edge DFS with clique pruning and only the first-edge color-swap pin.

    Edges are colored in the order (0,1), (0,2), (1,2), (0,3), ..., color 0
    first, so it returns the lexicographically least coloring of K_n with
    no l1-clique in color 0 and no l2-clique in color 1, or None.
    """
    if l1 == 1 or l2 == 1:
        return None
    edges = [(i, j) for j in range(n) for i in range(j)]
    m = len(edges)
    adj = ([0] * n, [0] * n)
    colors = [0] * m
    need = (l1 - 2, l2 - 2)
    sym = l1 == l2

    def clique(adjc, cand, size):
        if size == 0:
            return True
        if cand.bit_count() < size:
            return False
        while cand:
            v = cand & -cand
            cand ^= v
            if clique(adjc, cand & adjc[v.bit_length() - 1], size - 1):
                return True
        return False

    def dfs(e):
        if e == m:
            return True
        i, j = edges[e]
        for c in ((0,) if (e == 0 and sym) else (0, 1)):
            if not clique(adj[c], adj[c][i] & adj[c][j], need[c]):
                colors[e] = c
                adj[c][i] |= 1 << j
                adj[c][j] |= 1 << i
                if dfs(e + 1):
                    return True
                adj[c][i] &= ~(1 << j)
                adj[c][j] &= ~(1 << i)
        return False

    return list(colors) if dfs(0) else None


def ramsey_search_lex_leader_reference(l1: int, l2: int, n: int):
    """``ramsey_search_reference`` plus the lex-leader cut, checked in full.

    At every vertex boundary, just before the edge (0, j), the prefix is
    dropped if some transposition (a b), a < b < j, makes the coloring of
    K_j colex-smaller; every transposition is compared row by row from
    row a, with nothing carried over from the previous boundary.
    """
    if l1 == 1 or l2 == 1:
        return None
    edges = [(i, j) for j in range(n) for i in range(j)]
    m = len(edges)
    adj = ([0] * n, [0] * n)
    colors = [0] * m
    need = (l1 - 2, l2 - 2)
    sym = l1 == l2

    def clique(adjc, cand, size):
        if size == 0:
            return True
        if cand.bit_count() < size:
            return False
        while cand:
            v = cand & -cand
            cand ^= v
            if clique(adjc, cand & adjc[v.bit_length() - 1], size - 1):
                return True
        return False

    def lex_leader(j):
        rows = adj[1]
        for b in range(1, j):
            for a in range(b):
                ab = 1 << a | 1 << b
                for v in range(a, j):
                    r = rows[b if v == a else a if v == b else v]
                    if (r >> a ^ r >> b) & 1:
                        r ^= ab
                    d = (r ^ rows[v]) & ((1 << v) - 1)
                    if d:
                        if r & d & -d:
                            break
                        return False
        return True

    def dfs(e):
        if e == m:
            return True
        i, j = edges[e]
        if i == 0 and not lex_leader(j):
            return False
        for c in ((0,) if (e == 0 and sym) else (0, 1)):
            if not clique(adj[c], adj[c][i] & adj[c][j], need[c]):
                colors[e] = c
                adj[c][i] |= 1 << j
                adj[c][j] |= 1 << i
                if dfs(e + 1):
                    return True
                adj[c][i] &= ~(1 << j)
                adj[c][j] &= ~(1 << i)
        return False

    return list(colors) if dfs(0) else None


def union_bound_reference(*systems: SetSystem) -> dict:
    """``check_union_bound(*systems).to_json()`` with the union built as a
    system by ``ew_union`` and ranked by ``dim``; the gate is ``ramsey._gate``."""
    dims = [dim(s) for s in systems]
    union_dim = dim(reduce(ew_union, systems))
    sizes = tuple(d + 2 for d in dims)
    detail = {"dims": dims, "union_dim": union_dim, "ramsey_args": list(sizes)}
    rhs, kind = ramsey._gate(sizes, detail)
    return ramsey.BoundReport(
        "dim(union)+1 < Ram(dims+2)", union_dim + 1, rhs, kind, union_dim + 1 < rhs, detail
    ).to_json()


def wqo_bound_reference(a: QuasiOrder, b: QuasiOrder) -> dict:
    """``check_wqo_intersection_bound(a, b).to_json()`` with the meet built
    by ``intersect_qo`` and every order type taken by ``otp``; the gate is
    ``ramsey._gate``."""
    if a.elements != b.elements:
        raise CarrierMismatch("quasi-orders must share one carrier")
    lhs = otp(intersect_qo(a, b))
    sizes = (otp(a) + 1, otp(b) + 1)
    detail = {"otp_a": sizes[0] - 1, "otp_b": sizes[1] - 1}
    rhs, kind = ramsey._gate(sizes, detail)
    return ramsey.BoundReport(
        "otp(a ∩ b) < Ram(otp(a)+1, otp(b)+1)", lhs, rhs, kind, lhs < rhs, detail
    ).to_json()


def elasticity_chain_reference(family, k: int, element_horizon: int, family_horizon: int):
    """The unmemoised depth-first chain search, in the same index order:
    for each t_0, each family holding every element so far, then each
    element outside it.  Returns ``(elements, families)`` or None."""
    elements: list[int] = []
    families: list[int] = []

    def extend() -> bool:
        if len(families) == k:
            return True
        for i in range(family_horizon):
            if all(family.member_index(i, t) for t in elements):
                for t in range(element_horizon):
                    if not family.member_index(i, t):
                        families.append(i)
                        elements.append(t)
                        if extend():
                            return True
                        families.pop()
                        elements.pop()
        return False

    for t0 in range(element_horizon):
        elements = [t0]
        families = []
        if extend():
            return tuple(elements), tuple(families)
    return None


def is_simulation_reference(sim: Simulation) -> bool:
    """The simulation law on atom pairs: for every related (x, y) and every
    x2 above x, some y2 above y is related to x2."""
    src, tgt = sim.source, sim.target
    rel = sim.pairs
    for x, y in rel:
        for x2 in src.elements:
            if not src.le(x, x2):
                continue
            if not any((x2, y2) in rel and tgt.le(y, y2) for y2 in tgt.elements):
                return False
    return True


def compose_simulations_reference(second: Simulation, first: Simulation) -> Simulation:
    """The relational composite, joined on the middle carrier pair by pair."""
    if first.target.elements != second.source.elements:
        raise CarrierMismatch("simulations do not chain")
    rel = frozenset(
        (x, z) for x, y in first.pairs for y2, z in second.pairs if y == y2
    )
    return mk_simulation(first.source, second.target, rel)


def linearizations_reference(qo: QuasiOrder) -> list[tuple[QuasiOrder, Simulation]]:
    """Every ordered partition into blocks down-closed in what remains, each
    block chosen by counting through the subsets of the remaining elements,
    with the chain and the graph of the map to its levels."""
    n = len(qo.elements)
    results = []

    def walk(remaining: list[int], blocks: list[list[int]]):
        if not remaining:
            k = len(blocks)
            target = QuasiOrder(
                nats(k), tuple(((1 << k) - 1) & ~((1 << i) - 1) for i in range(k))
            )
            graph = frozenset(
                (qo.elements[i], target.elements[level])
                for level, block in enumerate(blocks)
                for i in block
            )
            results.append((target, mk_simulation(qo, target, graph)))
            return
        for bits in range(1, 1 << len(remaining)):
            block = [i for k, i in enumerate(remaining) if bits >> k & 1]
            rest = [i for i in remaining if i not in block]
            if any(qo.up[i] >> j & 1 for i in rest for j in block):
                continue
            walk(rest, blocks + [block])

    walk(list(range(n)), [])
    return results


def simulation_seed_pairs_reference(rng, src: QuasiOrder, tgt: QuasiOrder) -> set:
    """The seed pairs of ``random_simulation``, drawn in its order: each
    source element, with probability 0.7, paired with a uniform target
    element."""
    pairs = set()
    if not tgt.elements:
        return pairs
    for x in src.elements:
        if rng.random() < 0.7:
            pairs.add((x, rng.choice(tgt.elements)))
    return pairs


def random_simulation_reference(rng, src: QuasiOrder, tgt: QuasiOrder) -> Simulation:
    """The seed pairs repaired by adding (x2, y) for every related (x, y) and
    x2 above x with no related element above y, sweeping the pair set until
    nothing changes; the sweep order, and so the result, follows the set's
    iteration order, which varies with the hash seed."""
    pairs = simulation_seed_pairs_reference(rng, src, tgt)
    changed = True
    while changed:
        changed = False
        for x, y in list(pairs):
            for x2 in src.elements:
                if src.le(x, x2) and not any(
                    (x2, y2) in pairs and tgt.le(y, y2) for y2 in tgt.elements
                ):
                    pairs.add((x2, y))
                    changed = True
    return mk_simulation(src, tgt, frozenset(pairs))


class TraceReference(NamedTuple):
    """A trace in the atom form: ``pairs`` is a frozenset of (source
    element, frozenset of target atoms), over sorted fields."""

    source_field: tuple
    target_field: tuple
    pairs: frozenset

    @property
    def options(self) -> dict:
        by_x: dict = {}
        for x, v in self.pairs:
            by_x.setdefault(x, []).append(v)
        return {x: tuple(vs) for x, vs in by_x.items()}


def trace_reference(source_field, target_field, pairs) -> TraceReference:
    """The atom-form trace of ``pairs``, which must lie inside the fields."""
    return TraceReference(
        tuple(sorted(set(source_field))),
        tuple(sorted(set(target_field))),
        frozenset((x, frozenset(v)) for x, v in pairs),
    )


def bang_trace_reference(field) -> Trace:
    """``bang_trace`` through ``mk_trace``: each subset of the sorted field,
    taken by ``itertools.combinations``, as a finset atom related to its
    own elements."""
    f = tuple(sorted(set(field)))
    subsets = [c for r in range(len(f) + 1) for c in itertools.combinations(f, r)]
    return mk_trace([finset(c) for c in subsets], f, [(finset(c), c) for c in subsets])


def trace_to_json_reference(trace: TraceReference):
    """The JSON form, pairs sorted on (element, sorted option atoms)."""
    entries = sorted(
        ((x, tuple(sorted(v))) for x, v in trace.pairs),
        key=lambda e: (e[0], e[1]),
    )
    return {
        "source_field": [atom_to_json(a) for a in trace.source_field],
        "target_field": [atom_to_json(a) for a in trace.target_field],
        "pairs": [
            {"x": atom_to_json(x), "v": [atom_to_json(a) for a in v]}
            for x, v in entries
        ],
    }


def apply_reference(trace: TraceReference, g) -> frozenset:
    """Source elements with some option set inside g."""
    gset = frozenset(g)
    return frozenset(x for x, v in trace.pairs if v <= gset)


def direct_image_reference(trace: TraceReference, system: SetSystem) -> SetSystem:
    """The system of member images, over the source field."""
    if not set(system.support) <= set(trace.target_field):
        raise FieldMismatch("system support is not inside the trace target field")
    members = [apply_reference(trace, m) for m in system.member_sets]
    return _system(trace.source_field, members)


def inverse_image_rel_reference(rel, system: SetSystem) -> SetSystem:
    """Relational inverse image of every member, pair by pair."""
    rel = tuple(rel)
    xs = sorted({x for x, _ in rel})
    members = [
        frozenset(x for x, y in rel if y in m) for m in system.member_sets
    ]
    return _system(xs, members)


def canonicalize_reference(trace: TraceReference) -> TraceReference:
    """Keep only inclusion-minimal option sets per source element."""
    kept = []
    for x, vs in trace.options.items():
        uniq = set(vs)
        for v in uniq:
            if not any(w < v for w in uniq):
                kept.append((x, v))
    return TraceReference(trace.source_field, trace.target_field, frozenset(kept))


def compose_reference(outer: TraceReference, inner: TraceReference) -> TraceReference:
    """Each outer option set multiplied out, one inner option per element,
    skipping an option set with an element that has no inner options."""
    if outer.target_field != inner.source_field:
        raise FieldMismatch("outer target field must equal inner source field")
    inner_opts, outer_opts = inner.options, outer.options
    pairs = []
    for x in sorted(outer_opts):
        for v in outer_opts[x]:
            pools = [inner_opts.get(y) for y in sorted(v)]
            if any(p is None for p in pools):
                continue
            pairs += [(x, frozenset().union(*combo)) for combo in itertools.product(*pools)]
    return canonicalize_reference(
        TraceReference(outer.source_field, inner.target_field, frozenset(pairs))
    )


def equalizer_reference(
    first: TraceReference, second: TraceReference, system: SetSystem
) -> SetSystem:
    """Members on which both traces act identically."""
    if first.source_field != second.source_field or first.target_field != second.target_field:
        raise FieldMismatch("equalizer needs two parallel traces")
    if not set(system.support) <= set(first.target_field):
        raise FieldMismatch("system support is not inside the trace target field")
    members = [
        m for m in system.member_sets
        if apply_reference(first, m) == apply_reference(second, m)
    ]
    return _system(system.universe, members)


def ss_functor_reference(sim: Simulation) -> TraceReference:
    """The singleton lift of the simulation's atom pairs."""
    if not is_simulation_reference(sim):
        raise NotASimulation("the relation does not satisfy the simulation law")
    return TraceReference(
        sim.source.elements,
        sim.target.elements,
        frozenset((x, frozenset((y,))) for x, y in sim.pairs),
    )


def qo_functor_reference(
    trace: TraceReference, source_qo: QuasiOrder, target_qo: QuasiOrder
) -> Simulation:
    """A linear trace read back as a relation, empty option sets dropped."""
    if not all(len(v) <= 1 for _, v in trace.pairs):
        raise NotLinear("trace has an option set with more than one element")
    if trace.source_field != source_qo.elements:
        raise FieldMismatch("source field does not match the source carrier")
    if trace.target_field != target_qo.elements:
        raise FieldMismatch("target field does not match the target carrier")
    rel = frozenset((x, next(iter(v))) for x, v in trace.pairs if v)
    return mk_simulation(source_qo, target_qo, rel)


def sequential_traces_reference(source, target, include_empty_options: bool = True):
    """Every trace with at most one option set per source element: per
    element no option, or one subset of the target (by counting mask)."""
    lo = 0 if include_empty_options else 1
    per_x = [
        [None] + [m for m in range(1 << len(target)) if bin(m).count("1") >= lo]
        for _ in source
    ]
    for combo in itertools.product(*per_x):
        pairs = [
            (x, tuple(a for i, a in enumerate(target) if mask >> i & 1))
            for x, mask in zip(source, combo)
            if mask is not None
        ]
        yield trace_reference(source, target, pairs)
