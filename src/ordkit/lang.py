"""Bounded language fragments, shuffle and Kleene closures, lazy indexed families.

Fragments are honest finite windows: a fragment carries its length bound
and an exactness flag meaning "these are all the words of the intended
language up to the bound".  Closure operators treat the fragment's words
as the language being closed and compute the closure exactly up to the
requested bound.  Lazy families provide decidable membership for the
classic infinite examples, driving the elasticity-chain search.

``shuffle_product``, ``concat`` and ``closure_bounded`` combine word pairs
in one loop, ``_pairwise``.  Shuffles go through ``_shuffle`` and a memo of
suffix pairs that lives for one operation: one ``shuffle_words`` or
``shuffle_product`` call, or all rounds of one ``closure_bounded`` call.
No memo outlives its call.  It holds only suffix pairs of the words that
operation combines, and ``_refuse_word_space`` keeps those words inside
``LANG_WORD_BOUND``: ``shuffle_product`` and ``closure_bounded`` refuse a
word space over it before building anything.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from . import kernels
from .atoms import word
from .errors import (
    AlphabetMismatch,
    BoundMismatch,
    HorizonRequired,
    InputError,
    InvalidQuery,
    UniverseTooLarge,
    UnknownFamily,
)
from .systems import SetSystem, mk_system

Word = str

# closure_bounded and shuffle_product refuse a candidate space sum_{k<=n} s**k
# (s distinct letters, n the longest word they could build) above this;
# {a, b} up to length 12 (8,191 words) still fits
LANG_WORD_BOUND = 1 << 13
# elasticity_chain reads its E * F membership cells at once; min(E, F) <= 256 bounds rank's depth
CHAIN_CELL_BOUND = 1 << 16


@dataclass(frozen=True)
class LanguageFragment:
    alphabet: frozenset[str]
    max_len: int
    words: frozenset[Word]
    exact_up_to: bool = True

    def to_json(self):
        return {
            "alphabet": sorted(self.alphabet),
            "max_len": self.max_len,
            "words": sorted(self.words),
            "exact_up_to": self.exact_up_to,
        }


def mk_fragment(
    alphabet: Iterable[str],
    max_len: int,
    words: Iterable[Word],
    exact_up_to: bool = True,
) -> LanguageFragment:
    al = frozenset(alphabet)
    if not all(isinstance(t, str) and len(t) == 1 for t in al):
        raise InputError("alphabet tokens must be single characters")
    ws = frozenset(words)
    for w in ws:
        if len(w) > max_len:
            raise BoundMismatch(f"word {w!r} exceeds max_len {max_len}")
        if not set(w) <= al:
            raise AlphabetMismatch(f"word {w!r} uses symbols outside the alphabet")
    return LanguageFragment(al, max_len, ws, exact_up_to)


def fragment_from_json(obj, path: str = "$") -> LanguageFragment:
    if not isinstance(obj, dict) or not {"alphabet", "max_len", "words"} <= set(obj):
        raise InputError(f"{path}: expected alphabet/max_len/words")
    max_len = obj["max_len"]
    if not isinstance(max_len, int) or isinstance(max_len, bool) or max_len < 0:
        raise InputError(f"{path}.max_len: expected a nonnegative integer")
    for key in ("alphabet", "words"):
        if not isinstance(obj[key], list) or not all(isinstance(t, str) for t in obj[key]):
            raise InputError(f"{path}.{key}: expected a list of strings")
    exact_up_to = obj.get("exact_up_to", True)
    if not isinstance(exact_up_to, bool):
        raise InputError(f"{path}.exact_up_to: expected true or false")
    try:
        return mk_fragment(obj["alphabet"], max_len, obj["words"], exact_up_to)
    except (AlphabetMismatch, BoundMismatch, InputError) as exc:
        raise InputError(f"{path}: {exc}") from exc


def _shuffle(u: Word, v: Word, memo: dict[tuple[Word, Word], frozenset[Word]]) -> frozenset[Word]:
    """All interleavings of ``u`` and ``v``; ``memo`` keeps the set of every suffix pair.

    The set of ``(a, b)`` puts ``a[0]`` before those of ``(a[1:], b)`` and
    ``b[0]`` before those of ``(a, b[1:])``.  A stack stands in for that
    recursion, so words of any length fit, and only pairs missing from
    ``memo`` are pushed.
    """
    stack = [(u, v)]
    while stack:
        pair = a, b = stack[-1]
        if pair in memo:
            stack.pop()
        elif not a or not b:
            memo[pair] = frozenset((a + b,))
        elif (left := (a[1:], b)) not in memo:
            stack.append(left)
        elif (right := (a, b[1:])) not in memo:
            stack.append(right)
        else:
            memo[pair] = frozenset(a[0] + w for w in memo[left]) | frozenset(
                b[0] + w for w in memo[right]
            )
    return memo[u, v]


def shuffle_words(u: Word, v: Word, alphabet: Optional[Iterable[str]] = None) -> frozenset[Word]:
    """All order-preserving interleavings of two words.

    The memo lives for this call only and holds one entry per suffix pair,
    at most ``(len(u) + 1) * (len(v) + 1)``.
    """
    if alphabet is not None:
        al = set(alphabet)
        for w in (u, v):
            if not set(w) <= al:
                raise AlphabetMismatch(f"word {w!r} uses symbols outside the alphabet")
    return _shuffle(u, v, {})


def _refuse_word_space(words: Iterable[Word], max_len: int) -> None:
    """Refuse when the words up to ``max_len`` over the letters of ``words`` exceed the budget.

    The count sum_{k<=max_len} s**k (s distinct letters) stops as soon as
    it passes ``LANG_WORD_BOUND``, so a huge ``max_len`` costs nothing.
    """
    letters = len(set().union(*words))
    count, term = 0, 1
    for _ in range(max_len + 1):
        count += term
        if count > LANG_WORD_BOUND:
            raise UniverseTooLarge(f"at least {count}", LANG_WORD_BOUND, "word space", "words")
        term *= letters
        if not term:
            break


def _pairwise(
    lhs: Iterable[Word], rhs: Iterable[Word], bound: int, memo: Optional[dict] = None
) -> set[Word]:
    """Each word of ``lhs`` with each of ``rhs`` whose lengths sum to at most ``bound``.

    A pair is concatenated, or shuffled through ``memo`` when one is given.
    """
    rhs = sorted(rhs, key=len)
    out: set[Word] = set()
    for u in lhs:
        room = bound - len(u)
        for v in rhs:
            if len(v) > room:
                break
            if memo is None:
                out.add(u + v)
            else:
                out |= _shuffle(u, v, memo)
    return out


def _merge(lhs: LanguageFragment, rhs: LanguageFragment) -> tuple[frozenset[str], int, bool]:
    if lhs.alphabet != rhs.alphabet:
        raise AlphabetMismatch("fragments use different alphabets")
    return (
        lhs.alphabet,
        min(lhs.max_len, rhs.max_len),
        lhs.exact_up_to and rhs.exact_up_to,
    )


def shuffle_product(lhs: LanguageFragment, rhs: LanguageFragment) -> LanguageFragment:
    """The shuffles of each pair of words that fits the smaller bound.

    Refused with ``UniverseTooLarge`` before anything is built when the
    words over the letters of the pairing words, up to the longest pair
    that fits, number more than ``LANG_WORD_BOUND``.  One memo serves every
    pair of this call and is dropped with it.
    """
    alphabet, bound, exact = _merge(lhs, rhs)
    lengths = [{len(w) for w in f.words} for f in (lhs, rhs)]
    fits = [(m, n) for m in lengths[0] for n in lengths[1] if m + n <= bound]
    used = [{p[k] for p in fits} for k in (0, 1)]
    pairing = [w for f, ok in zip((lhs, rhs), used) for w in f.words if len(w) in ok]
    _refuse_word_space(pairing, max(map(sum, fits), default=-1))
    out = _pairwise(lhs.words, rhs.words, bound, {})
    return LanguageFragment(alphabet, bound, frozenset(out), exact)


def concat(lhs: LanguageFragment, rhs: LanguageFragment) -> LanguageFragment:
    alphabet, bound, exact = _merge(lhs, rhs)
    out = _pairwise(lhs.words, rhs.words, bound)
    return LanguageFragment(alphabet, bound, frozenset(out), exact)


def power(fragment: LanguageFragment, m: int) -> LanguageFragment:
    """m-fold concatenation; the zeroth power is the empty word."""
    if m < 0:
        raise InvalidQuery("power must be nonnegative")
    out = LanguageFragment(fragment.alphabet, fragment.max_len, frozenset(("",)), fragment.exact_up_to)
    for _ in range(m):
        out = concat(out, fragment)
    return out


_CLOSURE_KINDS = ("star", "plus", "shuffle_diamond", "shuffle_closure")


def closure_bounded(
    fragment: LanguageFragment, kind: str, max_len: int
) -> LanguageFragment:
    """Iterated concatenation or shuffle of the fragment's words, cut at max_len.

    The fragment's word set is treated as the whole language being closed,
    so the result is exact up to the bound by construction.  It is refused
    with ``UniverseTooLarge`` before anything is built when the words up to
    ``max_len`` over the letters of the base words number more than
    ``LANG_WORD_BOUND``.  The shuffle kinds share one memo across all
    rounds of this call; it holds suffix pairs of the words combined, all
    inside that word space, and is dropped with the call.
    """
    if kind not in _CLOSURE_KINDS:
        raise InvalidQuery(f"unknown closure kind {kind!r}")
    if max_len < 0:
        raise InvalidQuery(f"max_len must be at least 0, got {max_len}")
    base = {w for w in fragment.words if len(w) <= max_len}
    _refuse_word_space(base, max_len)
    memo = {} if kind in ("shuffle_diamond", "shuffle_closure") else None
    closed = set(base)
    frontier = set(base)
    while frontier:
        frontier = _pairwise(frontier, base, max_len, memo) - closed
        closed |= frontier
    if kind in ("star", "shuffle_closure"):
        closed.add("")
    return LanguageFragment(fragment.alphabet, max_len, frozenset(closed), True)


def half(fragment: LanguageFragment) -> LanguageFragment:
    """Prefixes of ceil(n/2) letters of each word.

    The halving convention here fixes the prefix length as the rounded-up
    half of the whole word.  Exactness is cleared: witnesses for short
    prefixes may be longer than the fragment bound.
    """
    out = frozenset(w[: (len(w) + 1) // 2] for w in fragment.words)
    return LanguageFragment(fragment.alphabet, fragment.max_len, out, False)


def all_words(alphabet: Iterable[str], max_len: int) -> list[Word]:
    al = sorted(set(alphabet))
    out: list[str] = []
    for n in range(max_len + 1):
        out.extend("".join(p) for p in itertools.product(al, repeat=n))
    return out


def to_set_system(fragments: Iterable[LanguageFragment]) -> SetSystem:
    """Bridge to set systems: word atoms over the full bounded universe."""
    frags = list(fragments)
    if frags:
        alphabet = frags[0].alphabet
        bound = frags[0].max_len
        for f in frags[1:]:
            if f.alphabet != alphabet:
                raise AlphabetMismatch("fragments use different alphabets")
            if f.max_len != bound:
                raise BoundMismatch("fragments use different length bounds")
    else:
        alphabet, bound = frozenset(), 0
    universe = [word(tuple(w)) for w in all_words(alphabet, bound)]
    members = [[word(tuple(w)) for w in f.words] for f in frags]
    return mk_system(universe, members)


@dataclass(frozen=True)
class LazyFamily:
    """An indexed family over the naturals, given by its membership predicate.

    ``member_index(i, n)`` tells whether the natural ``n`` belongs to the
    ``i``-th member; families, chains and their validation all speak of
    elements and members by these indices.
    """

    description: str
    member_index: Callable[[int, int], bool]


def _unpair(k: int) -> tuple[int, int]:
    t = (math.isqrt(8 * k + 1) - 1) // 2  # the largest t with t(t+1)/2 <= k
    r = k - t * (t + 1) // 2
    return r, t - r + 1


def canonical_family(name: str) -> LazyFamily:
    """The classic indexed families over the naturals, by name."""
    if name == "singl":
        return LazyFamily("singletons {x}", lambda i, n: n == i)
    if name == "dcl":
        return LazyFamily("downward closures {0..i}", lambda i, n: n <= i)
    if name == "cosingl":
        return LazyFamily("complements of singletons", lambda i, n: n != i)
    if name == "arith_prog":
        def pred(i: int, n: int) -> bool:
            a, d = _unpair(i)
            return n >= a and (n - a) % d == 0

        return LazyFamily("arithmetic progressions a + k*d", pred)
    raise UnknownFamily(f"no family named {name!r}")


def family_transform(
    kind: str, family: LazyFamily, element_horizon: Optional[int] = None
) -> LazyFamily:
    """Compose a family with the downward-closure or complement transformer.

    Downward closure needs a witness search upward, so an element horizon is
    required; membership reads false when no witness exists below it.
    """
    if kind == "complement":
        return LazyFamily(
            f"complement of {family.description}",
            lambda i, n: not family.member_index(i, n),
        )
    if kind == "down_closure":
        if element_horizon is None:
            raise HorizonRequired("down_closure needs an element_horizon")

        def pred(i: int, n: int) -> bool:
            return any(
                family.member_index(i, m) for m in range(n, element_horizon + 1)
            )

        return LazyFamily(
            f"downward closure of {family.description} (horizon {element_horizon})",
            pred,
        )
    raise UnknownFamily(f"no transform named {kind!r}")


@dataclass(frozen=True)
class ElasticityChain:
    elements: tuple[int, ...]  # t_0 .. t_k
    families: tuple[int, ...]  # i_1 .. i_k

    def to_json(self):
        return {"elements": list(self.elements), "families": list(self.families)}


def validate_chain(family: LazyFamily, chain: ElasticityChain) -> bool:
    """Re-check the elasticity conditions element by element, unmemoised."""
    ts = chain.elements
    fs = chain.families
    if len(ts) != len(fs) + 1:
        return False
    for j, i in enumerate(fs, start=1):
        if not all(family.member_index(i, t) for t in ts[:j]):
            return False
        if family.member_index(i, ts[j]):
            return False
    return True


def elasticity_chain(
    family: LazyFamily,
    k: int,
    element_horizon: int = 64,
    family_horizon: int = 64,
) -> Optional[ElasticityChain]:
    """The first length-k elasticity prefix within the horizons in depth-first
    order (``t_0`` ascending, then the lowest family holding every element
    so far, then its lowest missing element), or None, which proves nothing
    beyond the horizons.

    A chain of length k needs k + 1 distinct elements and k distinct
    families: t_j is outside i_j while i_j holds every earlier element, so
    t_j differs from them; and every later family holds t_j, so i_j differs
    from all of them.  So ``k > min(element_horizon - 1, family_horizon)``
    is answered None before any membership is read.  Otherwise a matrix of
    more than ``CHAIN_CELL_BOUND`` cells is refused, before any read; else
    it is read once, one row per family, for ``kernels.elasticity_witness``,
    which ranks the covers of the walk only up to k, so a short chain in a
    large matrix costs no more than the search for it needs.
    """
    if k < 1:
        raise InvalidQuery("chain length must be at least 1")
    if element_horizon < 0:
        raise InvalidQuery(f"element_horizon must be at least 0, got {element_horizon}")
    if family_horizon < 0:
        raise InvalidQuery(f"family_horizon must be at least 0, got {family_horizon}")
    if k > min(element_horizon - 1, family_horizon):
        return None
    cells = element_horizon * family_horizon
    if cells > CHAIN_CELL_BOUND:
        raise UniverseTooLarge(cells, CHAIN_CELL_BOUND, "membership matrix", "cells")
    member, digits = family.member_index, range(element_horizon - 1, -1, -1)
    rows = [int("".join("01"[bool(member(i, t))] for t in digits), 2) for i in range(family_horizon)]
    found = kernels.elasticity_witness(rows, element_horizon, k)
    return None if found is None else ElasticityChain(*map(tuple, found))
