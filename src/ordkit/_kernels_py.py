"""The hot search kernels, in pure Python on arbitrary-width integers.

The kernels below dominate the runtime of the exhaustive suites; callers
reach them through ``ordkit.kernels``:

* ``production_rank`` / ``production_state_rank`` / ``production_witness``
  -- rank of the example/hypothesis game tree of a set system, rank of its
  continuation from a mid-game state, and a longest play.  Members and
  example sets are bitmasks over the elements.  The kernels take the
  members alone: every example lies in the next hypothesis, so only the
  elements some member holds are ever played.  All three are answered by
  one search memoised on the version space (Mitchell, "Generalization as
  Search", AIJ 1982): the set ``C`` of members that still cover every
  example presented so far, itself a bitmask over member indices.
* ``elasticity_witness`` -- the first elasticity chain of a given length,
  walked on the same search's ranks (see "The chain walk" below).
* ``bad_sequence_rank`` -- rank of the tree of bad sequences of a finite
  quasi-order, memoized on the forbidden upward closure.  It explores up
  to 2**n states and certifies ``orders.otp``, the equivalence-class
  count, rather than computing it.
* ``ramsey_search`` -- exhaustive two-coloring search with clique pruning
  that returns the lexicographically least valid coloring.  It skips only
  colorings that a symmetry maps to a smaller valid one: a color swap on
  the first edge when both clique sizes agree, and a lex-leader cut at
  each vertex boundary, which drops a complete K_j whose coloring some
  vertex transposition makes colex-smaller.  The cut is incremental: a
  transposition that an earlier boundary decided stays decided, because
  the rows it compared do not change, and one that tied there is decided
  by the one new row, so each boundary rereads whole rows only for the
  transpositions that move the newest vertex.  Before any search, a
  degree window refutes K_n outright when no vertex degree can be valid
  (see "The Ramsey degree window" below).
* ``transpose`` -- the columns of a bit matrix given by its rows, the
  member-by-element matrix's among them (see "The transpose" below).

The production search.  Let ``contains[t]`` be the set of members holding
element ``t``.  Then ``V(empty) = 0`` and ``V(C) = 1 + max V(C & contains[t])``
over the ``t`` with ``C & contains[t] != C`` (the max is 0 when there is
none); ``production_rank = max_t V(contains[t])`` and the continuation
from ``(seen, hyp)`` is ``max over t not in hyp of V(cover(seen) &
contains[t])``.  Why: the covers of ``seen | {t}`` are exactly
``cover(seen) & contains[t]``, and some hypothesis in ``C`` leaves ``t``
fresh exactly when that set differs from ``C``.

The production ceiling.  ``rank`` stops scanning the moves from ``C`` once
its best value reaches ``min(len(nexts), |C| - 1)``, where ``nexts`` is
the set of distinct covers ``C & contains[t]`` other than ``C``.  Both
counts bound ``max V(next)``, so the memo stays exact.  That maximum is
the longest chain ``C > C_1 > ... > C_k`` of nonempty covers, where
``C_i = C_{i-1} & contains[t_i]``, so ``k <= |C| - 1``.  And the sets
``D_i = C & contains[t_i]`` are ``k`` distinct members of ``nexts``:
each differs from ``C`` because ``contains[t_i]`` misses a member of
``C_{i-1}``, and were ``D_i == D_j`` with ``i < j``, then ``C_{j-1}``,
which lies inside ``D_i``, would lie inside ``contains[t_j]``, and move
``j`` would not shrink it.  The second count is the one that binds on
antichain up-sets, where ``|C|`` is exponential in the support but
``len(nexts)`` is linear in it.

One solver, and so one memo, is shared per (deduplicated members, cap)
in a small LRU cache, and each kernel call looks it up once, so a witness
walks the memo that the rank just filled.  Memo values are pure functions
of that key, and so are its states: ``rank`` visits the successors of a
cover in an order fixed by the cover and ``columns`` and stops on exact
values, so a call adds the same states whatever the memo already holds.

The transpose.  ``transpose(rows, width)`` turns a bit matrix, one mask
per row, into its ``width`` columns: column ``t`` holds bit ``k`` when row
``k`` holds bit ``t``.  It is the one transpose of the package: the
solver's ``contains[t]`` and the chain walk's columns are the columns of
a member-by-element matrix, and ``orders`` and ``systems.perp`` take
element columns, ``down`` rows and fibres from it.  The rows, last
first, are laid out as one byte row each: ``bytes`` of the masks when
the width fits in a byte, else one ``to_bytes`` join.  Byte plane ``j``
holds byte ``j`` of every row, and translating it by bit ``i`` to the
digits 0 and 1 spells column ``8j + i`` in binary, most significant row
first, so one ``int(..., 2)`` reads it.  That is one C pass per column
instead of a Python step per set bit.  The solver's ``columns``, the
distinct columns of the held elements, enter their set in the order the
elements first occur in a member (members in order, bits ascending): the
set's order steers which successors ``rank`` visits before its ceiling,
so it fixes the memo's states.

The witness walk.  ``production_witness`` extends the empty play one step
at a time and keeps the remaining rank.  With ``r + 1`` steps left at a
state whose version space is ``C``, it takes the first member ``h``, in
the given order, that holds every example so far, and the first of its
elements ``t`` outside the last hypothesis, ascending, whose state
``(C & contains[t], h)`` has rank exactly ``r``; then ``C & contains[t]``
is the cover carried forward.  That state's rank is ``max
V(C & contains[t] & contains[u])`` over the ``u`` outside ``h``, and the
scan stops as soon as one move reaches ``r``.  The stop is exact: the
candidate is a successor of a state of rank ``r + 1``, and a successor of
a state of rank ``r + 1`` never has a rank above ``r``, since a state's
rank is one more than the largest rank among its successors.  So a move
that reaches ``r`` settles the maximum.  ``production_state_rank`` is the
same scan for one state, with no stop, and ``production_rank`` the scan of
the opening state, where every member is a cover and every element free.

The chain walk.  In a chain ``t_0, (i_1, t_1), ..., (i_k, t_k)`` family
``i_j`` holds ``t_0 .. t_{j-1}`` and misses ``t_j``, so the cover, the
families that may come next, starts as the holders of ``t_0`` and each
step shrinks it to the strict subset ``cover & column[t_j]``.  With the
full rows dropped (they are never chosen) every nonempty cover has a
step, so ``rank(cover)`` is the most steps left.  The walk takes the
first ``t_0``, then the first family of the cover and its first missing
element, whose cover still ranks the steps left: the first chain of the
depth-first search in index order.  The solver gets the rows over the
distinct columns, so its ``contains`` keys stay narrow at any width.

The walk only asks whether a cover ranks at least the steps left, which
never exceed ``length``, so its solver is capped at ``length``: ``rank``
returns ``min(V(C), cap)``.  It scans with the ceiling ``min(len(nexts),
|C| - 1, cap - 1)``, stops once its best reaches it and clamps the best
to it; at a ceiling of 0 it ranks no successor.  That is exact, since
``min(1 + m, cap) = 1 + min(m, cap - 1)`` and ``min(max V(next), cap -
1)`` is ``min(max min(V(next), cap), cap - 1)``; so the memo holds
exactly ``min(V(C), cap)``, a pure function of the solver's key.  A test
``rank(cover) >= need`` with ``need <= length`` reads the same under the
cap, so the walk returns the uncapped walk's chain, but no cover is
ranked past ``length``: on the complement of ``arith_prog`` at 64 x 64
the memo holds 3 states at length 1 and 23,921 at length 15, where
ranking the first cover in full took 1,540,029.  The default cap,
``len(members) + 1``, never binds, because ``V(C) <= |C|``; ``dim`` and
its witness walk see the uncapped ranks.

The Ramsey degree window.  Let ``U(a, b)`` be the Greenwood–Gleason bound:
``U = 1`` when ``min(a, b) = 1``, ``U = max(a, b)`` when ``min(a, b) = 2``,
and otherwise ``U(a-1, b) + U(a, b-1)``, less 1 when both terms are even
(Canad. J. Math. 7, 1955); ``U(a, b) >= R(a, b)``.  In a coloring of K_n
with no color-0 K_l1 and no color-1 K_l2, the color-0 neighbours of a
vertex hold no color-0 K_{l1-1} and no color-1 K_l2, so there are at most
``U(l1-1, l2) - 1`` of them; likewise at most ``U(l1, l2-1) - 1`` color-1
neighbours, so at least ``n - U(l1, l2-1)`` color-0 ones.  When that
window is empty, or is one degree ``d`` with ``n * d`` odd (the degrees
sum to twice the edge count), no valid coloring exists.  The window is
arithmetic only and is checked once, before the search: it refutes K_9
for (3, 4), K_14 for (3, 5) and K_18 for (4, 4).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import repeat
from typing import Optional, Sequence


# _BIT_PLANES[i] maps a byte to b"1" where its bit i is set and to b"0" elsewhere
_BIT_PLANES = tuple((b"0" * (1 << i) + b"1" * (1 << i)) * (128 >> i) for i in range(8))


def transpose(rows: Sequence[int], width: int) -> list[int]:
    """The ``width`` columns of the bit matrix ``rows``, every row below
    ``2**width``: column ``t`` has bit ``k`` set iff row ``k`` has bit ``t``
    set.  Zero columns are included; read off byte planes (see "The
    transpose" above)."""
    if not rows:
        return [0] * width
    step = (width + 7) >> 3
    if step == 1:
        planes = [bytes(rows[::-1])]
    else:
        matrix = b"".join(map(int.to_bytes, rows[::-1], repeat(step), repeat("little")))
        planes = [matrix[j::step] for j in range(step)]
    return [int(planes[t >> 3].translate(_BIT_PLANES[t & 7]), 2) for t in range(width)]


def _contains(members: Sequence[int]) -> dict[int, int]:
    """``contains[t]``: the indices of the members holding the bit ``t``, as a
    bitmask, for every held bit, ascending."""
    width = max(members).bit_length() if members else 0
    return {1 << t: column for t, column in enumerate(transpose(members, width)) if column}


class _ProductionSolver:
    """Ranks of version spaces of one set system; ``memo`` grows across calls."""

    def __init__(self, members: tuple[int, ...], cap: Optional[int] = None):
        self.contains = _contains(members)
        self.all_members = (1 << len(members)) - 1
        # V(C) <= |C|, so the default cap never binds ("The chain walk" above)
        self.cap = len(members) + 1 if cap is None else cap
        # elements with the same holders are interchangeable.  The set takes
        # the columns in the order their elements first occur in a member
        # (see "The transpose" above)
        self.columns = tuple(set(sorted(self.contains.values(), key=lambda c: c & -c)))
        self.memo: dict[int, int] = {0: 0}

    def rank(self, cover: int) -> int:
        """min(V(cover), cap): the longest play whose first hypothesis lies in
        ``cover``, or ``cap`` if that is longer."""
        memo = self.memo
        val = memo.get(cover)
        if val is not None:
            return val
        nexts = {cover & c for c in self.columns}
        nexts.discard(cover)
        # max V(next) is at most either count ("The production ceiling" above)
        ceiling = min(len(nexts), cover.bit_count() - 1, self.cap - 1)
        best = 0
        if ceiling > 0:  # else no successor needs ranking
            for nxt in nexts:
                r = memo.get(nxt)
                if r is None:
                    r = self.rank(nxt)
                if r > best:
                    best = r
                    if best >= ceiling:
                        best = ceiling
                        break
        memo[cover] = best + 1
        return best + 1

    def state_rank(self, cover: int, free: int, goal: int = -1) -> int:
        """Rank of a state with version space ``cover`` whose next example is
        drawn from ``free``: max V(cover & contains[t]) over the held ``t`` in
        ``free``, ascending, or ``goal`` as soon as one move reaches it."""
        rank = self.rank
        best = 0
        for t, column in self.contains.items():
            if t & free:
                r = rank(cover & column)
                if r > best:
                    best = r
                    if best == goal:
                        break
        return best

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
def _solver(members: tuple[int, ...], cap: Optional[int] = None) -> _ProductionSolver:
    return _ProductionSolver(members, cap)


def production_rank(member_masks: Sequence[int]) -> int:
    """Length of the longest production sequence (0 if no nonempty member)."""
    solver = _solver(tuple(dict.fromkeys(member_masks)))
    return solver.state_rank(solver.all_members, -1)


def production_state_rank(member_masks: Sequence[int], seen: int, hyp: int) -> int:
    """Rank of the game continuation from a mid-game state."""
    solver = _solver(tuple(dict.fromkeys(member_masks)))
    return solver.state_rank(solver.cover(seen), ~hyp)


def production_witness(member_masks: Sequence[int]) -> list[tuple[int, int]]:
    """The ``(example bit, hypothesis mask)`` steps of a longest production
    sequence; empty when no member is nonempty.

    At every state the first extension that keeps the remaining rank is
    taken: members in the given order, each holding every example so far,
    and a member's bits outside the last hypothesis, ascending (see "The
    witness walk" above).
    """
    members = tuple(dict.fromkeys(member_masks))
    solver = _solver(members)
    cover = solver.all_members
    seen = hyp = 0
    steps = []
    for goal in reversed(range(solver.state_rank(cover, -1))):
        t, hyp, cover = next(
            (t, mask, cover & column)
            for mask in members
            if not seen & ~mask
            for t, column in solver.contains.items()
            if t & mask & ~hyp and solver.state_rank(cover & column, ~mask, goal) == goal
        )
        steps.append((t, hyp))
        seen |= t
    return steps


def elasticity_witness(
    rows: Sequence[int], width: int, length: int
) -> Optional[tuple[list[int], list[int]]]:
    """The first ``length``-step chain ``(elements, families)`` of the families
    ``rows`` over the elements below ``width``, or None ("The chain walk")."""
    full = (1 << width) - 1
    index = [i for i, row in enumerate(rows) if row != full]
    columns = transpose([rows[i] for i in index], width)
    distinct = list(dict.fromkeys(columns))
    rank = _solver(tuple(transpose(distinct, len(index))), length).rank
    t0 = next((t for t, cover in enumerate(columns) if rank(cover) >= length), None)
    if t0 is None:
        return None
    cover, elements, families = columns[t0], [t0], []
    for need in reversed(range(length)):
        i, t, cover = next(
            (i, t, nxt)
            for d, i in enumerate(index)
            if cover >> d & 1
            for t, column in enumerate(columns)
            if not column >> d & 1 and rank(nxt := cover & column) >= need
        )
        elements.append(t)
        families.append(i)
    return elements, families


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


def _ramsey_ceiling(a: int, b: int) -> int:
    """U(a, b) >= R(a, b) for a, b >= 1, by the Greenwood–Gleason recurrence.

    U = 1 when min(a, b) = 1 and U = max(a, b) when min(a, b) = 2;
    otherwise U(a, b) = U(a-1, b) + U(a, b-1), less 1 when both terms are
    even (Greenwood & Gleason, Canad. J. Math. 7, 1955).
    """
    a, b = min(a, b), max(a, b)
    if a == 1:
        return 1
    row = list(range(b + 1))  # row[k] = U(i, k) for 2 <= k <= b, from i = 2
    for i in range(3, a + 1):
        row[2] = i
        for k in range(3, b + 1):
            up, left = row[k], row[k - 1]  # U(i-1, k) and U(i, k-1)
            row[k] = up + left - 1 if (up | left) % 2 == 0 else up + left
    return row[b]


def _refuted_by_degrees(l1: int, l2: int, n: int) -> bool:
    """True when no coloring of K_n can satisfy the degree window; l1, l2 >= 2.

    In a valid coloring the color-0 degree of every vertex lies in
    [n - U(l1, l2-1), U(l1-1, l2) - 1] (see ``ramsey_search``).  A clique
    size above n never refutes, since U(a, b) >= max(a, b) once
    min(a, b) >= 2 and U >= 1 always: if l2 > n the window holds 0, and if
    l1 > n it holds n - 1, and n times either is even.  So U is only
    computed for sizes up to n, in O(n**2) steps.
    """
    if max(l1, l2) > n:
        return False
    lo = n - _ramsey_ceiling(l1, l2 - 1)
    hi = _ramsey_ceiling(l1 - 1, l2) - 1
    return lo > hi or lo == hi and n * lo % 2 == 1


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
    set of i < v with (i, v) in color 1, read from bit 0 up.  The check is
    incremental.  K_j is K_{j-1} plus row j-1, and a transposition (a b)
    with b < j-1 fixes j-1, so it leaves rows below j-1 as they were on
    K_{j-1} and changes row j-1 only by swapping bits a and b.  A
    transposition that some earlier row already decided stays decided: had
    it lowered K_{j-1}, the prefix would have been dropped there, so it
    raises K_j.  One that tied on K_{j-1} is decided by row j-1 alone, at
    bit a, where the image holds bit b.  So ``dfs`` carries the tied
    transpositions down the search, and each boundary reads one row for
    each of them and full rows only for the j-1 new transpositions
    (a, j-1).

    An edge (i, j) may take color c unless it closes a clique of size l_c,
    that is unless the common color-c neighbours of i and j hold a clique
    of size l_c - 2.  A color with l_c = 2 is never offered, size 1 is
    tested inline, and ``clique`` answers sizes 2 and up.

    Before the search, the degree window returns None without a node.  In
    a valid coloring, the color-0 neighbours of a vertex span no color-0
    K_{l1-1} and no color-1 K_l2, so they number fewer than R(l1-1, l2);
    its color-1 neighbours number fewer than R(l1, l2-1).  So every color-0
    degree lies in [n - U(l1, l2-1), U(l1-1, l2) - 1], where U >= R is the
    Greenwood–Gleason bound (``_ramsey_ceiling``).  If the window is empty,
    or is a single degree d with n * d odd, which no graph has since the
    degrees sum to twice the edge count, there is no valid coloring.  The
    window only ever answers None where the search would, so the coloring
    returned and the nodes visited otherwise stay as they were.
    """
    if l1 < 1 or l2 < 1 or n < 1:
        raise ValueError("clique sizes and vertex count must be positive")
    if l1 == 1 or l2 == 1 or _refuted_by_degrees(l1, l2, n):
        return None
    edges = [(i, j) for j in range(n) for i in range(j)]
    m = len(edges)
    adj = ([0] * n, [0] * n)
    rows = adj[1]
    colors = [0] * m
    # (color, its adjacency masks, the clique size that blocks it)
    options = tuple((c, adj[c], l - 2) for c, l in enumerate((l1, l2)) if l > 2)
    first = options[:1] if l1 == l2 else options

    def clique(adjc: list[int], cand: int, size: int) -> bool:
        if cand.bit_count() < size:
            return False
        while cand:
            v = cand & -cand
            cand ^= v
            nxt = cand & adjc[v.bit_length() - 1]
            if nxt and (size == 2 or clique(adjc, nxt, size - 1)):
                return True
        return False

    def lex_leader(j: int, tied: list[tuple[int, int]]) -> Optional[list[tuple[int, int]]]:
        """The transpositions (a b), a < b < j, that fix the coloring of K_j,
        or None if one of them lowers it; ``tied`` are those fixing K_{j-1}."""
        b = j - 1
        last = rows[b]
        still = []
        for pair in tied:
            a, c = pair
            # row j-1 first differs from its image at bit a, if at all
            if (last >> a ^ last >> c) & 1:
                if not last >> c & 1:
                    return None  # the image has color 0 at (a, j-1)
            else:
                still.append(pair)
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
                    return None
            else:
                still.append((a, b))
        return still

    def dfs(e: int, tied: list[tuple[int, int]]) -> bool:
        if e == m:
            return True
        i, j = edges[e]
        if i == 0:
            tied = lex_leader(j, tied)
            if tied is None:
                return False
        bi = 1 << i
        bj = 1 << j
        for c, adjc, size in first if e == 0 else options:
            cand = adjc[i] & adjc[j]
            if cand and (size == 1 or clique(adjc, cand, size)):
                continue
            colors[e] = c
            adjc[i] |= bj
            adjc[j] |= bi
            if dfs(e + 1, tied):
                return True
            # both bits were clear before the edge was colored
            adjc[i] ^= bj
            adjc[j] ^= bi
        return False

    if dfs(0, []):
        return list(colors)
    return None
