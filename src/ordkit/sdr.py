"""Systems of distinct representatives via augmenting-path maximum matching."""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional

from .atoms import Atom


class SdrProblem(NamedTuple):
    blocks: tuple[frozenset[Atom], ...]


def mk_sdr_problem(blocks: Iterable[Iterable[Atom]]) -> SdrProblem:
    return SdrProblem(tuple(frozenset(b) for b in blocks))


def find_sdr(problem: SdrProblem | Iterable[Iterable[Atom]]) -> Optional[dict[int, Atom]]:
    """One distinct representative per block, or None when Hall's condition fails.

    Returns a mapping block index -> chosen atom.  Absence is a value: a
    maximum matching smaller than the number of blocks means some block
    family violates Hall's condition.
    """
    if not isinstance(problem, SdrProblem):
        problem = mk_sdr_problem(problem)
    blocks = problem.blocks
    elements = sorted({a for b in blocks for a in b})
    elem_index = {a: i for i, a in enumerate(elements)}
    adj = [sorted(elem_index[a] for a in b) for b in blocks]

    owner: list[Optional[int]] = [None] * len(elements)

    def augment(b: int, visited: list[bool]) -> bool:
        for e in adj[b]:
            if not visited[e]:
                visited[e] = True
                if owner[e] is None or augment(owner[e], visited):
                    owner[e] = b
                    return True
        return False

    matched = 0
    for b in range(len(blocks)):
        if augment(b, [False] * len(elements)):
            matched += 1
    if matched < len(blocks):
        return None
    assignment: dict[int, Atom] = {}
    for e, b in enumerate(owner):
        if b is not None:
            assignment[b] = elements[e]
    return assignment
