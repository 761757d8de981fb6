"""Structurally ordered atoms: the element values every universe is built from.

An atom has one of five shapes: a leaf token, an ordered pair, a tagged
value, a word of alphabet symbols, or a finite set of atoms.  An atom is
the tuple ``(shape, *data)``, child atoms nested as themselves: ``(LEAF,
token)``, ``(PAIR, left, right)``, ``(TAGGED, value, tag)``, ``(WORD,
syms)`` and ``(FINSET, sorted distinct elements)``.  Equality, hashing and
order are the tuple's own, and the tuple order (shape rank first, then
contents) is the canonical order, so any collection of atoms has a single
canonical enumeration order and serializes to identical bytes regardless
of construction order.
"""

from __future__ import annotations

from typing import Iterable

from .errors import InputError

LEAF, PAIR, TAGGED, WORD, FINSET = range(5)


class Atom(tuple):
    """Immutable structural value ``(shape, *data)``."""

    __slots__ = ()

    @property
    def data(self) -> tuple:
        return self[1:]

    def __repr__(self):
        shape = self[0]
        if shape == LEAF:
            return self[1]
        if shape == PAIR:
            return f"({self[1]!r},{self[2]!r})"
        if shape == TAGGED:
            return f"{self[1]!r}@{self[2]}"
        if shape == WORD:
            return "w'" + "".join(self[1]) + "'"
        # a direct call, like ``!r`` above, costs two stack frames per level
        return "{" + ",".join([a.__repr__() for a in self[1]]) + "}"


def leaf(token: str) -> Atom:
    if not isinstance(token, str):
        raise TypeError(f"leaf token must be a string, got {token!r}")
    return Atom((LEAF, token))


def pair(left: Atom, right: Atom) -> Atom:
    return Atom((PAIR, left, right))


def tagged(value: Atom, tag: int) -> Atom:
    if tag < 0:
        raise ValueError("tag must be a nonnegative integer")
    return Atom((TAGGED, value, tag))


def word(symbols: Iterable[str]) -> Atom:
    syms = tuple(symbols)
    if not all(isinstance(s, str) for s in syms):
        raise TypeError("word symbols must be strings")
    return Atom((WORD, syms))


def finset(elements: Iterable[Atom]) -> Atom:
    return Atom((FINSET, tuple(sorted(set(elements)))))


def atom_to_json(atom: Atom):
    shape = atom[0]
    if shape == LEAF:
        return atom[1]
    if shape == PAIR:
        return {"pair": [atom_to_json(atom[1]), atom_to_json(atom[2])]}
    if shape == TAGGED:
        return {"tag": [atom_to_json(atom[1]), atom[2]]}
    if shape == WORD:
        return {"word": list(atom[1])}
    return {"finset": [atom_to_json(a) for a in atom[1]]}


# the deepest nesting of pair, tag, word and finset levels an input atom may
# have; printing an atom takes two stack frames per level
ATOM_DEPTH_BOUND = 256


def atom_from_json(obj, path: str = "$", depth: int = 0) -> Atom:
    if isinstance(obj, str):
        return leaf(obj)
    if depth >= ATOM_DEPTH_BOUND:
        raise InputError(f"{path}: atom nested more than {ATOM_DEPTH_BOUND} levels deep")
    if not isinstance(obj, dict) or len(obj) != 1:
        raise InputError(
            f"{path}: expected an atom (string or one-key object), got {obj!r}"
        )
    ((kind, body),) = obj.items()
    if kind == "pair":
        if not isinstance(body, list) or len(body) != 2:
            raise InputError(f"{path}.pair: expected a two-element list")
        return pair(
            atom_from_json(body[0], f"{path}.pair[0]", depth + 1),
            atom_from_json(body[1], f"{path}.pair[1]", depth + 1),
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
        return tagged(atom_from_json(body[0], f"{path}.tag[0]", depth + 1), body[1])
    if kind == "word":
        if not isinstance(body, list) or not all(isinstance(s, str) for s in body):
            raise InputError(f"{path}.word: expected a list of strings")
        return word(body)
    if kind == "finset":
        if not isinstance(body, list):
            raise InputError(f"{path}.finset: expected a list of atoms")
        return finset(
            atom_from_json(a, f"{path}.finset[{i}]", depth + 1) for i, a in enumerate(body)
        )
    raise InputError(
        f"{path}: unknown atom shape {kind!r} (expected pair/tag/word/finset)"
    )
