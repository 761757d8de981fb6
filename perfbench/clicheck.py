"""Inputs and independent checks for the cli-json workload.

``make_calls`` writes a seeded batch of JSON input files and returns the
argument lists for ``ordkit.cli.main``.  ``Checker`` re-derives every
successful answer from the input JSON with plain Python sets (no ordkit
code), checks each malformed input's exit code and diagnostic, and, for the
seed the reference file was recorded with, compares every call's exit code,
stdout and stderr byte for byte through a digest.

The malformed share covers JSON shape errors only.  Flag validation (the
``--max-size -1`` traceback, among others) is a separate defect with its
own fuzz test and is outside this mix.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
from functools import lru_cache

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference", "cli-json.json")

CALLS = 3000

# (kind, weight); "bad" is a malformed input expected to exit 2.
MIX = (
    ("dim", 14), ("product", 7), ("union", 7), ("bang", 6), ("perp", 6),
    ("qo", 8), ("ss", 7), ("otp", 7), ("image", 7), ("compose", 6),
    ("classify", 5), ("closure", 5), ("shuffle", 10), ("bad", 5),
)


# --------------------------------------------------------------------- inputs


def _atoms(rng, n):
    """n distinct atoms; most carry nested pair, tag or finset shapes."""
    out = []
    for i in range(n):
        base = f"e{i}"
        shape = rng.randrange(4)
        if shape == 0:
            out.append(base)
        elif shape == 1:
            out.append({"pair": [base, {"tag": [f"t{rng.randrange(3)}", rng.randrange(1, 3)]}]})
        elif shape == 2:
            out.append({"tag": [{"pair": [base, "z"]}, rng.randrange(3)]})
        else:
            out.append({"finset": [base, {"pair": ["w", str(rng.randrange(2))]}]})
    return out


def _subset(rng, items, p=0.5):
    return [a for a in items if rng.random() < p]


def _system(rng, universe, max_members):
    return {
        "universe": universe,
        "sets": [_subset(rng, universe) for _ in range(rng.randint(1, max_members))],
    }


def _qo(rng, n, p=0.2):
    elems = _atoms(rng, n)
    le = [[x, y] for x in elems for y in elems if x is not y and rng.random() < p]
    return {"elements": elems, "le": le}


def _trace(rng, source, target, max_options=2, max_size=2):
    pairs = []
    for x in source:
        for _ in range(rng.randint(0, max_options)):
            size = rng.randint(0, min(max_size, len(target)))
            pairs.append({"x": x, "v": rng.sample(target, size)})
    return {"source_field": source, "target_field": target, "pairs": pairs}


def _words(rng, max_len, p):
    words = [""]
    for n in range(1, max_len + 1):
        words += ["".join(w) for w in itertools.product("ab", repeat=n)]
    return [w for w in words if rng.random() < p]


def _fragment(rng, max_len, word_len, p):
    return {"alphabet": ["a", "b"], "max_len": max_len, "words": _words(rng, word_len, p)}


def _malformed(rng, n):
    """(argv tail, files) for one JSON shape error."""
    atoms = _atoms(rng, n)
    case = rng.randrange(6)
    if case == 0:
        return ["dim", "--witness"], [{"universe": atoms}]
    if case == 1:
        bad = {"universe": atoms, "sets": [[atoms[0], {"pair": ["a"]}]]}
        return ["op", "product"], [bad, _system(rng, atoms, 2)]
    if case == 2:
        return ["otp"], [{"elements": atoms, "le": [[atoms[0], atoms[1], atoms[0]]]}]
    if case == 3:
        return ["trace", "classify"], [{"source_field": atoms, "target_field": atoms,
                                        "pairs": [{"x": atoms[0]}]}]
    if case == 4:
        frag = {"alphabet": ["a", "b"], "max_len": -1, "words": []}
        return ["lang", "shuffle"], [frag, frag]
    return ["qo"], [{"universe": atoms[1:], "sets": [[atoms[0]]]}]


def _call(rng, kind):
    """(argv tail, input files) for one call of the given kind."""
    if kind == "dim":
        return ["dim", "--witness"], [_system(rng, _atoms(rng, rng.randint(3, 6)), 6)]
    if kind == "product":
        return ["op", "product"], [_system(rng, _atoms(rng, rng.randint(2, 3)), 4) for _ in range(2)]
    if kind == "union":
        u = _atoms(rng, rng.randint(3, 5))
        return ["op", "union"], [_system(rng, u, 5), _system(rng, u, 5)]
    if kind == "bang":
        return ["op", "bang"], [_system(rng, _atoms(rng, rng.randint(2, 4)), 4)]
    if kind == "perp":
        return ["op", "perp"], [_system(rng, _atoms(rng, rng.randint(3, 6)), 6)]
    if kind == "qo":
        return ["qo"], [_system(rng, _atoms(rng, rng.randint(3, 6)), 6)]
    if kind == "ss":
        return ["ss"], [_qo(rng, rng.randint(3, 6))]
    if kind == "otp":
        return ["otp"], [_qo(rng, rng.randint(4, 8))]
    if kind == "image":
        src, tgt = _atoms(rng, rng.randint(2, 4)), _atoms(rng, rng.randint(2, 4))
        return ["trace", "image"], [_trace(rng, src, tgt), _system(rng, tgt, 5)]
    if kind == "compose":
        a, b, c = (_atoms(rng, rng.randint(2, 4)) for _ in range(3))
        return ["trace", "compose"], [_trace(rng, a, b), _trace(rng, b, c)]
    if kind == "classify":
        return ["trace", "classify"], [_trace(rng, _atoms(rng, 4), _atoms(rng, 4), 3, 3)]
    if kind == "closure":
        return ["lang", "closure"], [_fragment(rng, rng.randint(3, 5), 2, 0.3)]
    if kind == "shuffle":
        bound = rng.randint(4, 6)
        return ["lang", "shuffle"], [_fragment(rng, bound, 3, 0.3) for _ in range(2)]
    return _malformed(rng, rng.randint(2, 5))


def make_calls(rng, workdir: str) -> list:
    """Write the input files and return ``(argv, expect)`` per call.

    ``expect`` is ``(index, kind, inputs)``: the call's position in the
    batch (which names its reference digest), the call kind and the parsed
    input objects the checker re-derives the answer from.
    """
    os.makedirs(workdir, exist_ok=True)
    kinds = [k for k, _ in MIX]
    weights = [w for _, w in MIX]
    calls = []
    for i in range(CALLS):
        kind = rng.choices(kinds, weights)[0]
        tail, inputs = _call(rng, kind)
        paths = []
        for j, obj in enumerate(inputs):
            path = os.path.join(workdir, f"c{i:04d}-{j}.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(obj, handle)
            paths.append(path)
        calls.append((["--json", *tail, *paths], (i, kind, inputs)))
    return calls


# --------------------------------------------------------------------- checks


def atom(obj):
    """Hashable form of a JSON atom; leaves stay strings."""
    if isinstance(obj, str):
        return obj
    ((kind, body),) = obj.items()
    if kind == "pair":
        return ("pair", atom(body[0]), atom(body[1]))
    if kind == "tag":
        return ("tag", atom(body[0]), body[1])
    if kind == "word":
        return ("word", tuple(body))
    return ("finset", frozenset(atom(a) for a in body))


def _family(system):
    return frozenset(frozenset(atom(a) for a in m) for m in system["sets"])


def _support(family):
    return frozenset().union(*family) if family else frozenset()


def _finset(items):
    return ("finset", frozenset(items))


def _subsets(items):
    items = sorted(items, key=repr)
    return [c for r in range(len(items) + 1) for c in itertools.combinations(items, r)]


def _system_out(out):
    """(universe, family) of an emitted system; None if it has duplicates."""
    universe = [atom(a) for a in out["universe"]]
    family = [frozenset(atom(a) for a in m) for m in out["sets"]]
    if len(set(universe)) != len(universe) or len(set(family)) != len(family):
        return None
    return frozenset(universe), frozenset(family)


def _closure(qo):
    elems = [atom(a) for a in qo["elements"]]
    le = {(x, x) for x in elems} | {(atom(x), atom(y)) for x, y in qo["le"]}
    for k in elems:
        for i in elems:
            if (i, k) in le:
                le |= {(i, j) for j in elems if (k, j) in le}
    return elems, le


def _dim(family) -> int:
    """Longest production sequence by a direct search over frozensets."""
    members = tuple(family)
    support = _support(family)

    @lru_cache(maxsize=None)
    def rank(seen, hyp):
        best = 0
        for t in support - hyp:
            need = seen | {t}
            for m in members:
                if need <= m:
                    best = max(best, 1 + rank(need, m))
        return best

    return max((1 + rank(frozenset((t,)), m) for m in members for t in m), default=0)


def _trace_pairs(trace):
    return {(atom(p["x"]), frozenset(atom(a) for a in p["v"])) for p in trace["pairs"]}


def _apply(pairs, g):
    return frozenset(x for x, v in pairs if v <= g)


def _shuffles(u, v):
    if not u or not v:
        return {u + v}
    return {u[0] + w for w in _shuffles(u[1:], v)} | {v[0] + w for w in _shuffles(u, v[1:])}


def expected_ok(kind, inputs, out) -> bool:
    """Does the decoded stdout ``out`` answer the call on ``inputs``?"""
    if kind == "dim":
        family = _family(inputs[0])
        steps = out["witness"]
        seen = set()
        for k, step in enumerate(steps):
            hyp = frozenset(atom(a) for a in step["hypothesis"])
            seen.add(atom(step["example"]))
            if hyp not in family or not seen <= hyp:
                return False
            if k + 1 < len(steps) and atom(steps[k + 1]["example"]) in hyp:
                return False
        return out["dim"] == len(steps) == _dim(family)
    if kind in ("product", "union", "bang", "perp", "image", "ss"):
        got = _system_out(out)
        return got is not None and got == _expected_system(kind, inputs)
    if kind == "qo":
        family = _family(inputs[0])
        elems = frozenset(atom(a) for a in inputs[0]["universe"]) | _support(family)
        le = {(x, y) for x in elems for y in elems if all(y in m for m in family if x in m)}
        return (
            frozenset(atom(a) for a in out["elements"]) == elems
            and {(atom(x), atom(y)) for x, y in out["le"]} == le
            and len(out["le"]) == len(le)
        )
    if kind == "otp":
        elems, le = _closure(inputs[0])
        classes = {frozenset(y for y in elems if (x, y) in le and (y, x) in le) for x in elems}
        return out == {"otp": len(classes)}
    if kind == "compose":
        outer, inner = (_trace_pairs(t) for t in inputs)
        got = _trace_pairs(out)
        target = [atom(a) for a in inputs[1]["target_field"]]
        for g in _subsets(target):
            g = frozenset(g)
            if _apply(got, g) != _apply(outer, _apply(inner, g)):
                return False
        minimal = all(not (x == y and w < v) for x, v in got for y, w in got)
        return (
            minimal
            and len(got) == len(out["pairs"])
            and {atom(a) for a in out["source_field"]} == {atom(a) for a in inputs[0]["source_field"]}
            and {atom(a) for a in out["target_field"]} == set(target)
        )
    if kind == "classify":
        pairs = _trace_pairs(inputs[0])
        per_x = {}
        for x, _ in pairs:
            per_x[x] = per_x.get(x, 0) + 1
        degree = max(per_x.values(), default=0)
        return out == {
            "linear": all(len(v) <= 1 for _, v in pairs),
            "sequential": degree <= 1,
            "branching_degree": degree,
        }
    if kind == "closure":
        frag = inputs[0]
        bound = frag["max_len"]
        base = {w for w in frag["words"] if len(w) <= bound}
        closed = {""} | base
        grown = True
        while grown:
            size = len(closed)
            for w in list(closed):
                for b in base:
                    if len(w) + len(b) <= bound:
                        closed |= _shuffles(w, b)
            grown = len(closed) != size
        return out == {"alphabet": ["a", "b"], "max_len": bound,
                       "words": sorted(closed), "exact_up_to": True}
    if kind == "shuffle":
        left, right = inputs
        bound = min(left["max_len"], right["max_len"])
        words = set()
        for u in set(left["words"]):
            for v in set(right["words"]):
                if len(u) + len(v) <= bound:
                    words |= _shuffles(u, v)
        return out == {"alphabet": ["a", "b"], "max_len": bound,
                       "words": sorted(words), "exact_up_to": True}
    raise ValueError(kind)


def _expected_system(kind, inputs):
    """(universe, family) the system-valued commands must return."""
    if kind == "ss":
        elems, le = _closure(inputs[0])
        family = frozenset(
            frozenset(u)
            for u in _subsets(elems)
            if all((x, y) not in le or y in u for x in u for y in elems)
        )
        return frozenset(elems), family
    if kind == "image":
        pairs = _trace_pairs(inputs[0])
        family = frozenset(_apply(pairs, m) for m in _family(inputs[1]))
        return frozenset(atom(a) for a in inputs[0]["source_field"]), family
    a = _family(inputs[0])
    sa = _support(a)
    if kind == "product":
        b = _family(inputs[1])
        sb = _support(b)
        universe = frozenset(("pair", x, y) for x in sa for y in sb)
        family = frozenset(
            frozenset(("pair", x, y) for x in l for y in r) for l in a for r in b
        )
        return universe, family
    if kind == "union":
        universe = frozenset(atom(x) for s in inputs for x in s["universe"])
        return universe, frozenset(l | r for l in a for r in _family(inputs[1]))
    if kind == "bang":
        universe = frozenset(_finset(c) for c in _subsets(sa))
        family = frozenset(frozenset(_finset(c) for c in _subsets(m)) for m in a)
        return universe, family
    # perp
    universe = frozenset(_finset(m) for m in a if m)
    family = frozenset(frozenset(_finset(m) for m in a if x in m) for x in sa)
    return universe, family


def digest(code, stdout: str, stderr: str) -> str:
    blob = f"{code}\0{stdout}\0{stderr}".encode()
    return hashlib.sha256(blob).hexdigest()[:16]


class Checker:
    """Per-call check of a cli op result ``(code, o0, o1, e0, e1)``.

    Called after the timed loop has finished writing to the ``out`` and
    ``err`` streams.  The reference digest is looked up by the call's own
    index, so a call that raised does not shift the comparison of later
    calls.
    """

    def __init__(self, seed: int, out, err):
        self.streams = (out, err)
        self.text = None
        with open(REFERENCE, encoding="utf-8") as handle:
            ref = json.load(handle)
        self.reference = ref["digests"] if ref["seed"] == seed else None

    def __call__(self, args, result) -> bool:
        (_, (index, kind, inputs)) = args
        code, o0, o1, e0, e1 = result
        if self.text is None:
            self.text = [stream.getvalue() for stream in self.streams]
        stdout, stderr = self.text[0][o0:o1], self.text[1][e0:e1]
        if self.reference is not None and self.reference[index] != digest(code, stdout, stderr):
            return False
        if kind == "bad":
            return code == 2 and stdout == "" and stderr.startswith("error: ")
        if code not in (None, 0) or stderr:
            return False
        return expected_ok(kind, inputs, json.loads(stdout))
