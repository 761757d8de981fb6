"""The hot search kernels, in pure Python on arbitrary-width integers.

The kernels below dominate the runtime of the exhaustive suites; callers
reach them through ``ordkit.kernels``:

* ``production_rank`` / ``production_state_rank`` -- rank of the
  example/hypothesis game tree of a set system, and of its continuation
  from a mid-game state.  Members and example sets are bitmasks over the
  support.  Both are answered by one search memoised on the version space
  (Mitchell, "Generalization as Search", AIJ 1982): the set ``C`` of
  members that still cover every example presented so far, itself a
  bitmask over member indices.
* ``bad_sequence_rank`` -- rank of the tree of bad sequences of a finite
  quasi-order, memoized on the forbidden upward closure.  It explores up
  to 2**n states and certifies ``orders.otp``, the equivalence-class
  count, rather than computing it.
* ``ramsey_search`` -- exhaustive two-coloring search with clique pruning
  that returns the lexicographically least valid coloring.  It skips only
  colorings that a symmetry maps to a smaller valid one: a color swap on
  the first edge when both clique sizes agree, and a lex-leader cut at
  each vertex boundary, which drops a complete K_j whose coloring some
  vertex transposition makes colex-smaller.

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
    The value equals ``len(set(up_masks))``, which ``orders.otp`` returns;
    this search is the certificate that ``repre`` checks it against.
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

    Returns the counterexample coloring (edge colors in the colex order
    (0,1), (0,2), (1,2), (0,3), ...) or None when every coloring contains
    a monochromatic clique.

    The search colors edges in that order, color 0 first, so the coloring
    it returns is the lexicographically least valid one, L.  Two cuts skip
    only subtrees that cannot hold L:

    * when l1 == l2 the first edge is pinned to color 0, since swapping the
      colors maps valid colorings to valid colorings;
    * lex-leader: once vertices 0..j-1 are complete, just before the edge
      (0, j), the prefix is dropped if some transposition (a b) with
      a < b < j makes the coloring of K_j colex-smaller.  A vertex
      permutation maps valid colorings to valid colorings, and the edges
      of K_j precede every later edge, so the transposition lowers every
      completion of the prefix.

    Rows are compared on the color-1 adjacency masks: row v of K_j is the
    set of i < v with (i, v) in color 1, read from bit 0 up.
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

    def lex_leader(j: int) -> bool:
        """False if some transposition (a b), a < b < j, lowers the coloring of K_j."""
        rows = adj[1]
        for b in range(1, j):
            for a in range(b):
                ab = 1 << a | 1 << b
                # rows below a are fixed; row v of the image is row sigma(v)
                # with bits a and b swapped, cut to the bits below v
                for v in range(a, j):
                    r = rows[b if v == a else a if v == b else v]
                    if (r >> a ^ r >> b) & 1:
                        r ^= ab
                    d = (r ^ rows[v]) & ((1 << v) - 1)
                    if d:
                        if r & d & -d:
                            break  # the image is larger
                        return False
        return True

    def dfs(e: int) -> bool:
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

    if dfs(0):
        return list(colors)
    return None
