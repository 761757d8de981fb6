"""Production sequences and the order type (dimension) of a finite set system.

A production sequence alternates fresh examples with covering hypotheses:
every hypothesis contains all examples presented so far, and each example
after a hypothesis falls outside that hypothesis.  The dimension is the
rank of the tree of production sequences.

Once the examples are fixed, the rest of the game depends only on the
version space, the set of members that still cover them, and on the
current hypothesis, which only rules out some next examples.  The kernel
search is therefore memoised on that set, with ``V(C) = 1 + max
V(C & contains[t])`` over the elements ``t`` left out by some member of
``C``.  The two facts behind it: the covers of ``seen | {t}`` are exactly
``cover(seen) & contains[t]``, and some hypothesis in ``C`` leaves ``t``
fresh exactly when that set differs from ``C``.  The tests cross-check
the search against a naive full-tree oracle.  A witness extraction shares
the memo that ``dim`` filled for the same system.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

from . import kernels
from .atoms import Atom
from .errors import HypothesisNotInSystem
from .systems import SetSystem


@dataclass(frozen=True)
class ProductionSequence:
    steps: tuple[tuple[Atom, tuple[Atom, ...]], ...]

    def __len__(self):
        return len(self.steps)

    def examples(self) -> tuple[Atom, ...]:
        return tuple(t for t, _ in self.steps)


def is_production_sequence(
    system: SetSystem, seq: ProductionSequence | Sequence[tuple[Atom, Iterable[Atom]]]
) -> bool:
    """Check the two defining conditions; hypotheses must be members."""
    steps = seq.steps if isinstance(seq, ProductionSequence) else tuple(seq)
    fam = system.family
    hyps = []
    for _, hyp in steps:
        hset = frozenset(hyp)
        if hset not in fam:
            raise HypothesisNotInSystem(f"{sorted(hset)!r} is not a member")
        hyps.append(hset)
    presented: set[Atom] = set()
    for i, (t, _) in enumerate(steps):
        presented.add(t)
        if not presented <= hyps[i]:
            return False
    for j in range(len(steps) - 1):
        if steps[j + 1][0] in hyps[j]:
            return False
    return True


@lru_cache(maxsize=1 << 14)
def _dim_cached(member_masks: tuple[int, ...], support_mask: int) -> int:
    return kernels.production_rank(member_masks, support_mask)


def dim(system: SetSystem) -> int:
    """Rank of the production-sequence tree (0 when no member is nonempty)."""
    _, masks = system.masks()
    support_mask = (1 << len(system.support)) - 1
    return _dim_cached(masks, support_mask)


def longest_production_sequence(system: SetSystem) -> ProductionSequence:
    """A witness sequence of length dim(system); empty when the dimension is 0.

    Deterministic: at every state the first extension (in canonical member
    and atom order) that preserves the remaining rank is taken.
    """
    support, masks = system.masks()
    support_mask = (1 << len(support)) - 1
    total = _dim_cached(masks, support_mask)
    if total == 0:
        return ProductionSequence(())

    def member_atoms(mask: int) -> tuple[Atom, ...]:
        return tuple(a for i, a in enumerate(support) if mask >> i & 1)

    steps: list[tuple[Atom, tuple[Atom, ...]]] = []
    seen = 0
    hyp = 0
    remaining = total
    for step in range(total):
        found = False
        candidates = support_mask & ~hyp if step else support_mask
        for mask in masks:
            if found:
                break
            avail = candidates & mask if step == 0 else candidates
            bits = avail
            while bits:
                t = bits & -bits
                bits ^= t
                need = seen | t
                if need & ~mask:
                    continue
                r = kernels.production_state_rank(masks, support_mask, need, mask)
                if 1 + r == remaining:
                    steps.append(
                        (support[t.bit_length() - 1], member_atoms(mask))
                    )
                    seen = need
                    hyp = mask
                    remaining -= 1
                    found = True
                    break
        assert found, "rank bookkeeping must always yield an extension"
    return ProductionSequence(tuple(steps))
