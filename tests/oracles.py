"""Independent brute-force oracles; intentionally unshared with the library code.

These enumerate the defining objects literally (full game trees, all
subsets, all merge positions) and are used to freeze expected values.
"""

from __future__ import annotations

import itertools
from functools import reduce

from ordkit import (
    QuasiOrder,
    SetSystem,
    atom_to_json,
    dim,
    ew_union,
    leaf,
    mk_system,
    ramsey,
)
from ordkit.generators import all_preorder_rows


def nats(n: int) -> tuple:
    return tuple(leaf(str(i)) for i in range(n))


def system(universe_size: int, *sets: tuple) -> SetSystem:
    u = nats(universe_size)
    return mk_system(u, [tuple(u[i] for i in s) for s in sets])


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
