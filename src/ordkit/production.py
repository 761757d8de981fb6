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
the search against a naive full-tree oracle.

A longest production sequence is walked in the kernel
(``kernels.production_witness``) on the memo that ``dim`` filled for the
same system: it returns the ``(example bit, hypothesis mask)`` steps, and
``longest_production_sequence`` only maps them to atoms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

from . import kernels
from .atoms import Atom
from .errors import HypothesisNotInSystem
from .systems import SetSystem, _bits


@dataclass(frozen=True)
class ProductionSequence:
    steps: tuple[tuple[Atom, tuple[Atom, ...]], ...]

    def __len__(self):
        return len(self.steps)


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
def _dim_cached(member_masks: tuple[int, ...]) -> int:
    return kernels.production_rank(member_masks)


def _mask_rank(masks: set[int]) -> int:
    """The rank of the family whose members are ``masks``, under any labelling
    of their bits.

    The rank depends neither on which bit stands for which atom nor on the
    order of the members, so the sorted masks key the same memo as ``dim``
    and give the rank of every system these masks relabel."""
    return _dim_cached(tuple(sorted(masks)))


def dim(system: SetSystem) -> int:
    """Rank of the production-sequence tree (0 when no member is nonempty)."""
    return _dim_cached(system.masks()[1])


def longest_production_sequence(system: SetSystem) -> ProductionSequence:
    """A witness sequence of length dim(system); empty when the dimension is 0.

    Deterministic: at every state the first extension (in canonical member
    and atom order) that preserves the remaining rank is taken.
    """
    support, masks = system.masks()
    steps = kernels.production_witness(masks)
    return ProductionSequence(
        tuple(
            (support[t.bit_length() - 1], tuple(map(support.__getitem__, _bits(hyp))))
            for t, hyp in steps
        )
    )
