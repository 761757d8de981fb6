"""Structurally ordered atoms: the element values every universe is built from.

An atom has one of five shapes: a leaf token, an ordered pair, a tagged
value, a word of alphabet symbols, or a finite set of atoms.  Atoms are
immutable, hashable, and totally ordered (shape rank first, then contents),
so any collection of atoms has a single canonical enumeration order and
serializes to identical bytes regardless of construction order.
"""

from __future__ import annotations

from typing import Iterable

from .errors import InputError

LEAF, PAIR, TAGGED, WORD, FINSET = range(5)

_SHAPE_NAMES = ("leaf", "pair", "tagged", "word", "finset")


class Atom:
    """Immutable structural value; equality, hashing and order use one key."""

    __slots__ = ("shape", "data", "_key")

    def __init__(self, shape: int, data: tuple, key: tuple):
        self.shape = shape
        self.data = data
        self._key = key

    def __eq__(self, other):
        return isinstance(other, Atom) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __lt__(self, other):
        return self._key < other._key

    def __le__(self, other):
        return self._key <= other._key

    def __gt__(self, other):
        return self._key > other._key

    def __ge__(self, other):
        return self._key >= other._key

    def __repr__(self):
        if self.shape == LEAF:
            return self.data[0]
        if self.shape == PAIR:
            return f"({self.data[0]!r},{self.data[1]!r})"
        if self.shape == TAGGED:
            return f"{self.data[0]!r}@{self.data[1]}"
        if self.shape == WORD:
            return "w'" + "".join(self.data[0]) + "'"
        return "{" + ",".join(repr(a) for a in self.data[0]) + "}"


def leaf(token: str) -> Atom:
    if not isinstance(token, str):
        raise TypeError(f"leaf token must be a string, got {token!r}")
    return Atom(LEAF, (token,), (LEAF, token))


def pair(left: Atom, right: Atom) -> Atom:
    return Atom(PAIR, (left, right), (PAIR, left._key, right._key))


def tagged(value: Atom, tag: int) -> Atom:
    if tag < 0:
        raise ValueError("tag must be a nonnegative integer")
    return Atom(TAGGED, (value, tag), (TAGGED, value._key, tag))


def word(symbols: Iterable[str]) -> Atom:
    syms = tuple(symbols)
    if not all(isinstance(s, str) for s in syms):
        raise TypeError("word symbols must be strings")
    return Atom(WORD, (syms,), (WORD, syms))


def finset(elements: Iterable[Atom]) -> Atom:
    els = tuple(sorted(set(elements)))
    return Atom(FINSET, (els,), (FINSET, tuple(a._key for a in els)))


def atom_to_json(atom: Atom):
    if atom.shape == LEAF:
        return atom.data[0]
    if atom.shape == PAIR:
        return {"pair": [atom_to_json(atom.data[0]), atom_to_json(atom.data[1])]}
    if atom.shape == TAGGED:
        return {"tag": [atom_to_json(atom.data[0]), atom.data[1]]}
    if atom.shape == WORD:
        return {"word": list(atom.data[0])}
    return {"finset": [atom_to_json(a) for a in atom.data[0]]}


def atom_from_json(obj, path: str = "$") -> Atom:
    if isinstance(obj, str):
        return leaf(obj)
    if not isinstance(obj, dict) or len(obj) != 1:
        raise InputError(
            f"{path}: expected an atom (string or one-key object), got {obj!r}"
        )
    ((kind, body),) = obj.items()
    if kind == "pair":
        if not isinstance(body, list) or len(body) != 2:
            raise InputError(f"{path}.pair: expected a two-element list")
        return pair(
            atom_from_json(body[0], f"{path}.pair[0]"),
            atom_from_json(body[1], f"{path}.pair[1]"),
        )
    if kind == "tag":
        if (
            not isinstance(body, list)
            or len(body) != 2
            or not isinstance(body[1], int)
            or isinstance(body[1], bool)
            or body[1] < 0
        ):
            raise InputError(f"{path}.tag: expected [atom, nonnegative int]")
        return tagged(atom_from_json(body[0], f"{path}.tag[0]"), body[1])
    if kind == "word":
        if not isinstance(body, list) or not all(isinstance(s, str) for s in body):
            raise InputError(f"{path}.word: expected a list of strings")
        return word(body)
    if kind == "finset":
        if not isinstance(body, list):
            raise InputError(f"{path}.finset: expected a list of atoms")
        return finset(
            atom_from_json(a, f"{path}.finset[{i}]") for i, a in enumerate(body)
        )
    raise InputError(
        f"{path}: unknown atom shape {kind!r} (expected pair/tag/word/finset)"
    )
