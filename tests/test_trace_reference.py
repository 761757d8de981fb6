"""Every trace operation against its atom-form reference in ``oracles``.

A ``Trace`` stores one tuple of option masks per source element; the
references keep the atom form, a frozenset of (element, option set)
pairs.  Both are compared on every trace between fields of 1–2 points,
on seeded traces of 3–5 points over nested atoms, and on every
simulation between quasi-orders of at most 2 points: the JSON form,
``pairs``, equality and hashing, and the JSON form of every system
output.
"""

import itertools
import random

import pytest

from ordkit import (
    apply,
    branching_degree,
    canonicalize,
    compose,
    direct_image,
    equalizer,
    finset,
    inverse_image_rel,
    is_linear,
    is_simulation,
    leaf,
    mk_system,
    mk_trace,
    pair,
    qo_functor,
    ss_functor,
    tagged,
)
from ordkit.errors import FieldMismatch, NotASimulation, NotLinear
from ordkit.generators import (
    all_quasi_orders,
    all_relations,
    all_systems,
    sequential_traces,
)

from .oracles import (
    apply_reference,
    canonicalize_reference,
    compose_reference,
    direct_image_reference,
    equalizer_reference,
    inverse_image_rel_reference,
    nats,
    qo_functor_reference,
    sequential_traces_reference,
    ss_functor_reference,
    trace_reference,
    trace_to_json_reference,
)


def subsets(atoms):
    for r in range(len(atoms) + 1):
        yield from itertools.combinations(atoms, r)


def assert_same(trace, ref):
    """Same JSON form and pairs; rebuilt from the pairs in reverse order,
    with every option set reversed, the trace is equal and hashes equal."""
    assert trace.to_json() == trace_to_json_reference(ref)
    assert trace.pairs == ref.pairs
    rebuilt = mk_trace(
        reversed(ref.source_field),
        reversed(ref.target_field),
        [(x, tuple(v)[::-1]) for x, v in sorted(ref.pairs, reverse=True)],
    )
    assert rebuilt == trace and hash(rebuilt) == hash(trace)


def assert_same_system(got, want):
    assert got.to_json() == want.to_json() and got == want


def same_outcome(fn, ref_fn, args, ref_args):
    """Both calls return equal systems, or both raise ``FieldMismatch``."""
    try:
        want = ref_fn(*ref_args)
    except FieldMismatch:
        with pytest.raises(FieldMismatch):
            fn(*args)
        return
    assert_same_system(fn(*args), want)


def every_trace(n, m):
    """(trace, reference) for every trace from ``nats(n)`` to ``nats(m)``:
    each source element takes any set of the 2**m option sets."""
    src, tgt = nats(n), nats(m)
    option_sets = list(subsets(tgt))
    for choice in itertools.product(range(1 << len(option_sets)), repeat=n):
        pairs = [
            (x, v) for x, c in zip(src, choice) for k, v in enumerate(option_sets) if c >> k & 1
        ]
        yield mk_trace(src, tgt, pairs), trace_reference(src, tgt, pairs)


TINY = {(n, m): list(every_trace(n, m)) for n in (1, 2) for m in (1, 2)}


def check_unary(trace, ref, systems):
    assert_same(trace, ref)
    assert_same(canonicalize(trace), canonicalize_reference(ref))
    assert branching_degree(trace) == max(map(len, ref.options.values()), default=0)
    assert is_linear(trace) == all(len(v) <= 1 for _, v in ref.pairs)
    for g in subsets(ref.target_field):
        assert apply(trace, g) == apply_reference(ref, g)
    for s in systems:
        same_outcome(direct_image, direct_image_reference, (trace, s), (ref, s))


def test_every_tiny_trace_matches_the_reference():
    for (n, m), traces in TINY.items():
        systems = list(all_systems(2))
        for k, (trace, ref) in enumerate(traces):
            check_unary(trace, ref, systems)
            other, other_ref = traces[(k * 7 + 3) % len(traces)]
            for s in systems:
                same_outcome(
                    equalizer, equalizer_reference, (trace, other, s), (ref, other_ref, s)
                )
    assert len(TINY[2, 2]) == 256


def test_every_tiny_composition_matches_the_reference():
    # every pair, except that a 2 -> 2 outer meets every 16th 2 -> 2 inner,
    # so each 2 -> 2 trace is composed 16 times on either side
    for (n, k), outers in TINY.items():
        for (k2, m), inners in TINY.items():
            if k2 != k:
                continue
            for i, (outer, outer_ref) in enumerate(outers):
                wide = len(outers) == len(inners) == 256
                for inner, inner_ref in inners[i % 16::16] if wide else inners:
                    got, want = compose(outer, inner), compose_reference(outer_ref, inner_ref)
                    assert got.pairs == want.pairs
                    assert got.to_json() == trace_to_json_reference(want)
    outer, _ = TINY[2, 2][5]
    inner, _ = TINY[1, 1][1]
    with pytest.raises(FieldMismatch):
        compose(outer, inner)


def test_every_tiny_linear_trace_reads_back_as_the_reference_relation():
    for (n, m), traces in TINY.items():
        for trace, ref in traces:
            for x in all_quasi_orders(n):
                for y in all_quasi_orders(m):
                    try:
                        want = qo_functor_reference(ref, x, y)
                    except NotLinear:
                        with pytest.raises(NotLinear):
                            qo_functor(trace, x, y)
                        continue
                    assert qo_functor(trace, x, y) == want


def test_every_tiny_simulation_matches_the_reference():
    for n in range(3):
        for m in range(3):
            for x in all_quasi_orders(n):
                for y in all_quasi_orders(m):
                    for cand in all_relations(x, y):
                        if not is_simulation(cand):
                            with pytest.raises(NotASimulation):
                                ss_functor(cand)
                            with pytest.raises(NotASimulation):
                                ss_functor_reference(cand)
                            continue
                        trace, ref = ss_functor(cand), ss_functor_reference(cand)
                        assert_same(trace, ref)
                        assert qo_functor(trace, x, y) == qo_functor_reference(ref, x, y) == cand


def test_sequential_traces_match_the_reference():
    for n, m in itertools.product(range(3), repeat=2):
        for empty in (True, False):
            got = list(sequential_traces(nats(n), nats(m), include_empty_options=empty))
            want = list(sequential_traces_reference(nats(n), nats(m), include_empty_options=empty))
            assert len(got) == len(want)
            for trace, ref in zip(got, want):
                assert_same(trace, ref)


NESTED = [leaf("b"), leaf("a"), pair(leaf("a"), leaf("b")), tagged(leaf("a"), 2),
          finset([leaf("a")]), tagged(leaf("a"), 1), pair(leaf("a"), leaf("a"))]


def field(rng, size):
    """``size`` distinct atoms, nested ones included, in no particular order."""
    return tuple(rng.sample(NESTED, size))


def random_traces(rng, src, tgt, max_options):
    """A random trace given twice, built by ``mk_trace`` and as its reference."""
    pairs = [
        (x, rng.sample(tgt, rng.randint(0, len(tgt))))
        for x in src
        for _ in range(rng.randint(0, max_options))
    ]
    return mk_trace(src, tgt, pairs), trace_reference(src, tgt, pairs)


def test_seeded_traces_match_the_reference():
    rng = random.Random(2011)
    for _ in range(300):
        src, tgt, low = (field(rng, rng.randint(3, 5)) for _ in range(3))
        trace, ref = random_traces(rng, src, tgt, 3)
        systems = [
            mk_system(tgt, [rng.sample(tgt, rng.randint(0, len(tgt))) for _ in range(k)])
            for k in (0, rng.randint(1, 5), rng.randint(1, 5))
        ]
        check_unary(trace, ref, systems)
        other, other_ref = random_traces(rng, src, tgt, 3)
        for s in systems:
            same_outcome(equalizer, equalizer_reference, (trace, other, s), (ref, other_ref, s))
        inner, inner_ref = random_traces(rng, tgt, low, 2)
        got, want = compose(trace, inner), compose_reference(ref, inner_ref)
        assert_same(got, want)
        rel = [(x, y) for x in src for y in tgt + low[:1] if rng.random() < 0.3]
        for s in systems:
            assert_same_system(inverse_image_rel(rel, s), inverse_image_rel_reference(rel, s))

