import hashlib
import itertools
import random
import sys
import tracemalloc
from collections import Counter
from functools import lru_cache

import pytest

from ordkit import (
    check_image_bound,
    check_union_bound,
    check_wqo_intersection_bound,
    dim,
    discoloration_trace,
    ew_disjoint,
    ew_union,
    identity_trace,
    intersect_qo,
    mk_qo,
    mk_system,
    otp,
    ram_exact,
    ram_exact_entry,
    ram_upper,
    ram_verify,
)
from ordkit import _kernels_py, kernels, ramsey
from ordkit._kernels_py import _ramsey_ceiling, _refuted_by_degrees
from ordkit.cli import main
from ordkit.errors import CarrierMismatch, InvalidQuery, SearchBoundExceeded, UniverseTooLarge
from ordkit.generators import all_quasi_orders, all_systems, random_system
from ordkit.systems import MEMBER_BOUND

from .clirun import CliRunner
from .oracles import (
    has_mono_clique,
    nats,
    ramsey_search_lex_leader_reference,
    ramsey_search_reference,
    random_qo,
    system,
    union_bound_reference,
    wqo_bound_reference,
)
from .test_canonical_form import raw_system


def test_ram_upper_values():
    assert ram_upper((3, 3)) == 6
    for l in range(1, 6):
        assert ram_upper((l,)) == l
        assert ram_upper((l, 2)) == l
        assert ram_upper((2, l)) == l
    assert ram_upper((3, 4)) == 10
    assert ram_upper((3, 3, 3)) == ram_upper((3, ram_upper((3, 3))))


@lru_cache(maxsize=None)
def recurrence(l, m):
    """R(l, m) <= R(l-1, m) + R(l, m-1) and its base rows, as a reference."""
    if l == 1 or m == 1:
        return 1
    if l == 2:
        return m
    if m == 2:
        return l
    return recurrence(l - 1, m) + recurrence(l, m - 1)


def test_ram_upper_matches_the_recurrence():
    for l in range(1, 13):
        for m in range(1, 13):
            assert ram_upper((l, m)) == recurrence(l, m)


def test_ram_upper_refuses_a_bound_too_large_to_print():
    # 15 threes give a 4,227-digit bound; 16 would give 8,453 digits
    assert len(str(ram_upper((3,) * 15))) == 4227
    with pytest.raises(InvalidQuery, match="would exceed"):
        ram_upper((3,) * 16)
    # wide but shallow rows stay exact
    assert ram_upper((2, 10**4000)) == 10**4000
    assert ram_upper((1, 10**5000)) == 1


def test_ram_exact_values():
    assert ram_exact((3, 3)) == 6
    for k in range(2, 8):
        assert ram_exact((2, k)) == k
    assert ram_exact((1, 7)) == 1
    assert ram_exact((5,)) == 5
    assert ram_exact((5, 5)) is None
    value, source = ram_exact_entry((4, 4))
    assert value == 18 and source == "literature"


def test_ram_upper_dominates_exact():
    for sizes in [(3, 3), (3, 4), (3, 5), (4, 4), (2, 6), (1, 3), (3, 3, 3)]:
        exact = ram_exact(sizes)
        if exact is not None:
            assert ram_upper(sizes) >= exact


def test_ram_verify_33():
    r5 = ram_verify(3, 3, 5)
    assert not r5.holds_at_n and r5.witness is not None
    colored = {tuple(e): c for e, c in r5.witness}
    assert len(colored) == 10
    assert not has_mono_clique(5, colored, "red", 3)
    assert not has_mono_clique(5, colored, "black", 3)
    assert ram_verify(3, 3, 6).holds_at_n
    # monotone in the vertex count for the verified row
    assert ram_verify(3, 3, 7).holds_at_n


def test_ram_verify_edges():
    assert ram_verify(2, 2, 2).holds_at_n
    assert not ram_verify(2, 2, 1).holds_at_n
    assert ram_verify(1, 9, 1).holds_at_n
    with pytest.raises(SearchBoundExceeded):
        ram_verify(3, 3, 8)
    with pytest.raises(InvalidQuery):
        ram_verify(0, 3, 3)


_SEARCH_GRID = [
    *itertools.product(range(1, 5), range(1, 5), range(1, 9)),
    (3, 5, 9), (3, 5, 10), (5, 3, 10), (3, 5, 11), (5, 3, 11),
    (4, 4, 9), (4, 4, 10), (3, 6, 9), (4, 5, 8),
]


@pytest.mark.parametrize("l1, l2, n", _SEARCH_GRID)
def test_ramsey_search_returns_the_reference_value(l1, l2, n):
    assert kernels.ramsey_search(l1, l2, n) == ramsey_search_reference(l1, l2, n)


@pytest.mark.parametrize("l1, l2, n", [(3, 5, 11), (3, 5, 12), (5, 3, 12), (4, 4, 10)])
def test_incremental_lex_leader_matches_the_full_check(l1, l2, n):
    assert kernels.ramsey_search(l1, l2, n) == ramsey_search_lex_leader_reference(l1, l2, n)


def _entries(search, *args) -> Counter:
    """How often each Python function is entered while ``search(*args)`` runs."""
    counts: Counter = Counter()

    def profile(frame, event, arg):
        if event == "call":
            counts[frame.f_code.co_name] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        search(*args)
    finally:
        sys.setprofile(previous)
    return counts


@pytest.mark.parametrize("l1, l2, n", [(3, 5, 11), (5, 3, 11), (4, 4, 10)])
def test_incremental_lex_leader_cuts_the_same_nodes(l1, l2, n):
    # any sound cut returns the same coloring; equal node counts show that
    # carrying the tied transpositions forward drops nothing from the cut
    got = _entries(kernels.ramsey_search, l1, l2, n)
    want = _entries(ramsey_search_lex_leader_reference, l1, l2, n)
    assert (got["dfs"], got["lex_leader"]) == (want["dfs"], want["lex_leader"])


def test_ramsey_search_k13_coloring_for_35_is_pinned():
    # recorded at a5311d3, before the incremental lex-leader check
    coloring = kernels.ramsey_search(3, 5, 13)
    digest = hashlib.sha256(bytes(coloring)).hexdigest()
    assert digest == "b666e97ea5beab868456ec42f66c1b135f9827c3f003ec87ef7ae198821a0418"


@pytest.mark.parametrize("l1, l2, n", [(3, 4, 9), (4, 3, 9), (3, 4, 10)])
def test_ramsey_search_refutes_beyond_r34(l1, l2, n):
    # R(3,4) = 9: every coloring of K_9 has a red l1-clique or a black l2-clique
    assert kernels.ramsey_search(l1, l2, n) is None


@pytest.mark.parametrize(
    "l1, l2, n", [(3, 4, 9), (4, 3, 9), (3, 5, 14), (5, 3, 14), (4, 4, 18)]
)
def test_degree_window_refutes_without_a_search_node(l1, l2, n):
    results = []
    entries = _entries(lambda: results.append(kernels.ramsey_search(l1, l2, n)))
    assert results == [None] and entries["dfs"] == 0


@pytest.mark.parametrize(
    "l1, l2, n", [(2, 3, 3), (4, 2, 4), (3, 3, 6), (3, 3, 8), (3, 4, 9), (4, 3, 9), (3, 4, 10)]
)
def test_search_alone_refutes_where_the_window_does(monkeypatch, l1, l2, n):
    # every None of the grid now comes from the window, so switch it off to
    # keep an exhausted search covered
    assert _refuted_by_degrees(l1, l2, n)
    monkeypatch.setattr(_kernels_py, "_refuted_by_degrees", lambda *args: False)
    assert kernels.ramsey_search(l1, l2, n) is None


# R(a, b) from Radziszowski, "Small Ramsey Numbers", Electron. J. Combin. DS1
_KNOWN_RAMSEY = {
    **{(3, b): r for b, r in zip(range(3, 10), (6, 9, 14, 18, 23, 28, 36))},
    (4, 4): 18,
    (4, 5): 25,
}


@pytest.mark.parametrize("pair, r", sorted(_KNOWN_RAMSEY.items()))
def test_ramsey_ceiling_bounds_the_known_values(pair, r):
    a, b = pair
    assert _ramsey_ceiling(a, b) >= r and _ramsey_ceiling(b, a) >= r


@pytest.mark.parametrize("pair, r", sorted(_KNOWN_RAMSEY.items()))
def test_degree_window_never_refutes_below_the_known_value(pair, r):
    # K_{R-1} has a valid coloring, so a sound window must leave it to the search
    a, b = pair
    assert not _refuted_by_degrees(a, b, r - 1)
    assert not _refuted_by_degrees(b, a, r - 1)


def test_degree_window_skips_clique_sizes_beyond_n():
    def window_refutes(l1, l2, n):
        lo = n - _ramsey_ceiling(l1, l2 - 1)
        hi = _ramsey_ceiling(l1 - 1, l2) - 1
        return lo > hi or lo == hi and n * lo % 2 == 1

    for n in range(1, 13):
        for l1, l2 in itertools.product(range(2, 16), repeat=2):
            assert _refuted_by_degrees(l1, l2, n) == window_refutes(l1, l2, n)
    # U at these sizes would take about 10**12 additions; the window must not compute it
    assert kernels.ramsey_search(10**6, 10**6, 5) == [0] * 10


def test_ramsey_ceiling_base_rows_and_recurrence():
    assert [_ramsey_ceiling(1, b) for b in range(1, 5)] == [1, 1, 1, 1]
    assert [_ramsey_ceiling(2, b) for b in range(2, 6)] == [2, 3, 4, 5]
    assert (_ramsey_ceiling(3, 4), _ramsey_ceiling(3, 5), _ramsey_ceiling(4, 4)) == (9, 14, 18)


# sha256 of `ordkit --json ramsey verify L1 L2 N` output, recorded at 4689932,
# before the lex-leader cut
_WITNESS_DIGESTS = {
    (3, 3, 5): "bf2b9c65541ef1e3d32cc07b95c8ffaa61ca1577eff7b180cbd80067edce1442",
    (3, 4, 7): "68c837eb37b1e4dc5da4d04029c708454ca489c11f481d1c0067a25fbd6d0f83",
    (4, 4, 7): "5cf7f9e4711a13fb7e0fc146b4c28d5e41c64aba00ad74ea8b44e4560a7f887f",
    (4, 3, 6): "f69da22cc43a8bbe713ba4bd9999780057de18970e6e7a332401a46cbb46d32a",
    (2, 5, 4): "e1eaf06b7c65ebf46ddc12fc0e02380727114ed20ca1940300ecf3020b6ee515",
}


@pytest.mark.parametrize("args, digest", sorted(_WITNESS_DIGESTS.items()))
def test_ramsey_verify_witness_bytes_are_pinned(args, digest):
    result = CliRunner().invoke(main, ["--json", "ramsey", "verify", *map(str, args)])
    assert result.exit_code == 0
    assert hashlib.sha256(result.output.encode()).hexdigest() == digest


def test_check_union_bound_fixtures():
    singl_a = system(3, (0,), (1,), (2,))
    singl_b = system(3, (0,), (1,), (2,))
    report = check_union_bound(singl_a, singl_b)
    assert report.holds and report.rhs_kind == "exact"
    assert report.lhs == dim(ew_union(singl_a, singl_b)) + 1 == 3
    assert report.rhs == 6

    l = system(3, (), (0,), (0, 1, 2))
    m = system(3, (), (1,), (0, 1, 2))
    report = check_union_bound(l, m)
    assert report.holds
    assert report.lhs == 4
    assert report.rhs_kind == "upper-bound"
    assert report.detail == {
        "dims": [2, 2], "union_dim": 3, "ramsey_args": [4, 4], "literature_value": 18
    }

    single = check_union_bound(l)
    assert single.holds and single.rhs == dim(l) + 2


def test_check_union_bound_matches_the_built_union_on_two_points():
    small = [s for n in range(3) for s in all_systems(n)]
    for a, b in itertools.product(small, repeat=2):
        assert check_union_bound(a, b).to_json() == union_bound_reference(a, b)


def test_check_union_bound_matches_the_built_union_over_nested_atoms():
    rng = random.Random(10)
    for _ in range(300):
        # universes of different sizes drawn from one pool, so supports
        # overlap partly and the rhs bits are realigned
        a, b = (mk_system(*raw_system(rng, rng.randint(0, 6), 5)) for _ in "ab")
        assert check_union_bound(a, b).to_json() == union_bound_reference(a, b)
    for _ in range(40):
        ops = [mk_system(*raw_system(rng, rng.randint(0, 5), 4)) for _ in range(3)]
        assert check_union_bound(*ops).to_json() == union_bound_reference(*ops)
        assert check_union_bound(ops[0]).to_json() == union_bound_reference(ops[0])


def test_check_union_bound_refuses_member_pairs_over_budget_before_building():
    u = nats(9)
    powerset = mk_system(u, [[a for i, a in enumerate(u) if k >> i & 1] for k in range(512)])
    message = f"elementwise union has {512 * 512} member pairs, limit is {MEMBER_BOUND}"
    with pytest.raises(UniverseTooLarge, match=message):
        ew_union(powerset, powerset)
    tracemalloc.start()
    try:
        with pytest.raises(UniverseTooLarge, match=message):
            check_union_bound(powerset, powerset)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    # a fold refuses at the same step, with the same count, as the chain of
    # ew_union calls: the first pair fits, its union times the third does not
    half = mk_system(u, powerset.members[:256])
    with pytest.raises(UniverseTooLarge, match="member pairs") as chain:
        ew_union(ew_union(half, half), powerset)
    with pytest.raises(UniverseTooLarge) as fold:
        check_union_bound(half, half, powerset)
    assert str(fold.value) == str(chain.value)


def test_check_image_bound_fixtures():
    fld = nats(3)
    ident = identity_trace(fld)
    for _ in range(20):
        rng = random.Random(101)
        s = random_system(rng, 3, 4)
        report = check_image_bound(ident, s, xi={a: a for a in fld})
        assert report.holds and report.lhs == report.rhs
    a = system(2, (0,), (0, 1))
    b = system(2, (1,))
    dis = ew_disjoint(a, b)
    base = sorted(set(a.support) | set(b.support))
    report = check_image_bound(discoloration_trace(2, base), dis)
    assert report.detail == {
        "branching": 2, "image_dim": 1, "system_dim": 2,
        "empty_option_sets": False, "literature_value": 18,
    }
    assert report.holds and report.rhs_kind == "upper-bound"
    report = check_image_bound(discoloration_trace(2, base), ew_disjoint(b, b))
    assert (report.rhs, report.rhs_kind) == (6, "exact")
    assert "literature_value" not in report.detail
    with pytest.raises(InvalidQuery):
        check_image_bound(ident, system(3, (0,)), xi={})


def test_check_wqo_intersection_fixtures():
    for k in range(1, 5):
        u = nats(k)
        chain = mk_qo(u, [(u[i], u[i + 1]) for i in range(k - 1)])
        rev = mk_qo(u, [(u[i + 1], u[i]) for i in range(k - 1)])
        report = check_wqo_intersection_bound(chain, rev)
        assert report.holds
        assert report.lhs == otp(intersect_qo(chain, rev)) == k
        literature = {"literature_value": 18} if k == 3 else {}
        assert report.detail == {"otp_a": k, "otp_b": k, **literature}
    u = nats(3)
    le0 = mk_qo(u, [(u[1], u[2]), (u[2], u[1]), (u[1], u[0]), (u[2], u[0])])
    le1 = mk_qo(u, [(u[0], u[2]), (u[2], u[0]), (u[0], u[1]), (u[2], u[1])])
    report = check_wqo_intersection_bound(le0, le1)
    assert report.holds
    report = check_wqo_intersection_bound(le0, le0)
    assert report.holds and report.lhs == otp(le0)
    with pytest.raises(CarrierMismatch):
        check_wqo_intersection_bound(le0, mk_qo(nats(2)))


def test_wqo_gate_matches_the_intersect_qo_reference():
    pairs = [
        (a, b)
        for n in range(4)
        for a in all_quasi_orders(n)
        for b in all_quasi_orders(n)
    ]
    rng = random.Random(14)
    for _ in range(300):
        n = rng.randint(1, 8)
        pairs.append((random_qo(rng, n), random_qo(rng, n)))
    for a, b in pairs:
        assert check_wqo_intersection_bound(a, b).to_json() == wqo_bound_reference(a, b)
    a, b = random_qo(rng, 3), random_qo(rng, 4)
    for gate in (check_wqo_intersection_bound, wqo_bound_reference):
        with pytest.raises(CarrierMismatch):
            gate(a, b)


def test_bound_report_is_an_immutable_named_tuple():
    rep = ramsey.BoundReport("p", 1, 3, "exact", True, {"otp_a": 2})
    assert repr(rep) == (
        "BoundReport(property='p', lhs=1, rhs=3, rhs_kind='exact', holds=True, "
        "detail={'otp_a': 2})"
    )
    assert rep == ("p", 1, 3, "exact", True, {"otp_a": 2})
    with pytest.raises(AttributeError):
        rep.holds = False
    flipped = rep._replace(holds=False)
    assert (rep.holds, flipped.holds) == (True, False)
    assert flipped.to_json() == {
        "property": "p",
        "lhs": 1,
        "rhs": 3,
        "rhs_kind": "exact",
        "holds": False,
        "detail": {"otp_a": 2},
    }


def test_invalid_queries():
    with pytest.raises(InvalidQuery):
        ram_upper(())
    with pytest.raises(InvalidQuery):
        ram_upper((0, 3))


def gate_reference(sizes):
    """The gate through the public table and bound, as two separate lookups."""
    detail = {}
    entry = ram_exact_entry(sizes)
    if entry is not None and entry[1] in ("trivial", "oracle"):
        return (entry[0], "exact"), detail
    if entry is not None:
        detail["literature_value"] = entry[0]
    return (ram_upper(sizes), "upper-bound"), detail


def test_gate_matches_the_public_lookups_and_builds_no_query():
    ramsey._gate_entry.cache_clear()
    grid = [s for k in (1, 2, 3) for s in itertools.product(range(1, 6), repeat=k)]
    expected = [gate_reference(s) for s in grid]
    for _ in range(2):  # the second pass is served from the memo
        for sizes, (want, want_detail) in zip(grid, expected):
            detail = {}
            assert ramsey._gate(sizes, detail) == want
            assert detail == want_detail
    assert ramsey._gate_entry.cache_info().hits >= len(grid)


def test_gate_records_the_literature_value_on_a_cached_call():
    ramsey._gate_entry.cache_clear()
    for _ in range(2):
        detail = {"otp_a": 3}
        assert ramsey._gate((4, 4), detail) == (20, "upper-bound")
        assert detail == {"otp_a": 3, "literature_value": 18}
    info = ramsey._gate_entry.cache_info()
    assert info.hits == 1 and info.maxsize == 1 << 10


@pytest.mark.parametrize(
    "sizes, message",
    [((0, 3), "positive"), ((3,) * 16, "would exceed"), ((), "at least one")],
)
def test_gate_refuses_bad_sizes_on_every_call(sizes, message):
    for _ in range(3):
        with pytest.raises(InvalidQuery, match=message):
            ramsey._gate(sizes, {})


def test_gate_keys_on_the_given_order():
    # the nested bound is not symmetric once there are three colours
    assert ramsey._gate((3, 4, 5), {}) == (630, "upper-bound")
    assert ramsey._gate((5, 4, 3), {}) == (715, "upper-bound")
