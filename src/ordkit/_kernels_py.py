"""Pure-Python implementations of the hot search kernels.

The three kernels below dominate the runtime of the exhaustive suites:

* ``production_rank`` / ``production_state_rank`` -- rank of the
  example/hypothesis game tree of a set system, and of its continuation
  from a mid-game state.  Members and example sets are bitmasks over the
  support.  Both are answered by one search memoised on the version space
  (Mitchell, "Generalization as Search", AIJ 1982): the set ``C`` of
  members that still cover every example presented so far, itself a
  bitmask over member indices.
* ``bad_sequence_rank`` -- rank of the tree of bad sequences of a finite
  quasi-order, memoized on the forbidden upward closure.
* ``ramsey_search`` -- exhaustive two-coloring search with clique pruning
  and a color-swap symmetry cut on the first edge.

The production search.  Let ``contains[t]`` be the set of members holding
element ``t``.  Then ``V(empty) = 0`` and ``V(C) = 1 + max V(C & contains[t])``
over the ``t`` with ``C & contains[t] != C`` (the max is 0 when there is
none); ``production_rank = max_t V(contains[t])`` and the continuation
from ``(seen, hyp)`` is ``max over t not in hyp of V(cover(seen) &
contains[t])``.  Why: the covers of ``seen | {t}`` are exactly
``cover(seen) & contains[t]``, and some hypothesis in ``C`` leaves ``t``
fresh exactly when that set differs from ``C``.

One solver, and so one memo, is shared per (deduplicated members, support)
in a small LRU cache, so a witness extraction reuses the memo that the
rank just filled.  Memo values are pure functions of that key.

A compiled twin of the other two kernels lives in ``_kernels.pyx``;
``ordkit.kernels`` picks whichever is importable.  Both must return
identical values everywhere.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Sequence


class _ProductionSolver:
    """Ranks of version spaces of one set system; ``memo`` grows across calls."""

    def __init__(self, members: tuple[int, ...], support_mask: int):
        contains: dict[int, int] = {}
        for i, m in enumerate(members):
            while m:
                t = m & -m
                m ^= t
                contains[t] = contains.get(t, 0) | 1 << i
        self.contains = contains
        self.all_members = (1 << len(members)) - 1
        # elements with the same holders are interchangeable; a held-by-none
        # element leads to the empty version space, of rank 0
        self.columns = tuple({c for t, c in contains.items() if t & support_mask})
        self.memo: dict[int, int] = {0: 0}

    def rank(self, cover: int) -> int:
        """V(cover): the longest play whose first hypothesis lies in ``cover``."""
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

    def cover(self, seen: int) -> int:
        """Indices of the members that hold every element of ``seen``."""
        contains = self.contains
        cover = self.all_members
        while seen and cover:
            t = seen & -seen
            seen ^= t
            cover &= contains.get(t, 0)
        return cover


@lru_cache(maxsize=8)
def _solver(members: tuple[int, ...], support_mask: int) -> _ProductionSolver:
    return _ProductionSolver(members, support_mask)


def production_rank(member_masks: Sequence[int], support_mask: int) -> int:
    """Length of the longest production sequence (0 if no nonempty member).

    The opening example may be any element of any member; later examples
    are drawn from ``support_mask``.
    """
    solver = _solver(tuple(dict.fromkeys(member_masks)), support_mask)
    return max(map(solver.rank, set(solver.contains.values())), default=0)


def production_state_rank(
    member_masks: Sequence[int], support_mask: int, seen: int, hyp: int
) -> int:
    """Rank of the game continuation from a mid-game state; used for witnesses."""
    solver = _solver(tuple(dict.fromkeys(member_masks)), support_mask)
    cover = solver.cover(seen)
    contains = solver.contains
    best = 0
    free = support_mask & ~hyp
    while free:
        t = free & -free
        free ^= t
        r = solver.rank(cover & contains.get(t, 0))
        if r > best:
            best = r
    return best


def bad_sequence_rank(up_masks: Sequence[int]) -> int:
    """Length of the longest bad sequence of a finite quasi-order.

    ``up_masks[i]`` is the bitmask of elements above element i (inclusive).
    State: the union of upward closures of the elements picked so far.
    """
    n = len(up_masks)
    full = (1 << n) - 1
    memo: dict[int, int] = {}

    def rank(forbidden: int) -> int:
        val = memo.get(forbidden)
        if val is not None:
            return val
        best = 0
        free = full & ~forbidden
        while free:
            a = free & -free
            free ^= a
            r = 1 + rank(forbidden | up_masks[a.bit_length() - 1])
            if r > best:
                best = r
        memo[forbidden] = best
        return best

    return rank(0)


def ramsey_search(l1: int, l2: int, n: int) -> Optional[list[int]]:
    """Search K_n for a coloring with no clique of size l1 in color 0 nor l2 in color 1.

    Returns the counterexample coloring (edge colors in the order (0,1),
    (0,2), (1,2), (0,3), ...) or None when every coloring contains a
    monochromatic clique.  When l1 == l2 the first edge is pinned to color
    0; a color swap maps counterexamples to counterexamples.
    """
    if l1 < 1 or l2 < 1 or n < 1:
        raise ValueError("clique sizes and vertex count must be positive")
    if l1 == 1 or l2 == 1:
        return None
    edges = [(i, j) for j in range(n) for i in range(j)]
    m = len(edges)
    adj = ([0] * n, [0] * n)
    colors = [0] * m
    need = (l1 - 2, l2 - 2)
    sym = l1 == l2

    def clique(adjc: list[int], cand: int, size: int) -> bool:
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

    def dfs(e: int) -> bool:
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

    if dfs(0):
        return list(colors)
    return None
