"""Ramsey numbers at desk scale plus the three Ramsey-bounded order-type checks.

Exact values come from a small table whose entries are either re-verifiable
by the exhaustive search within its bound or flagged as literature values;
everything else uses the classic two-color recurrence upper bound.  Gating
comparisons only ever use verified exact values or the recurrence bound,
never unverified literature numbers.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple, Optional

from . import kernels
from .errors import CarrierMismatch, InvalidQuery, SearchBoundExceeded
from .orders import QuasiOrder
from .production import _mask_rank, dim
from .systems import SetSystem, _pairwise_masks
from .traces import Trace, branching_degree, direct_image

VERIFY_VERTEX_BOUND = 7
# a number below 2**UPPER_BOUND_BITS has at most 4,300 decimal digits, the
# most that Python's int-to-str conversion accepts by default
UPPER_BOUND_BITS = 14_283


def _validate(sizes) -> tuple[int, ...]:
    """The clique sizes as a tuple, refused unless nonempty and positive."""
    sizes = tuple(sizes)
    if not sizes:
        raise InvalidQuery("at least one clique size is required")
    if any(l < 1 for l in sizes):
        raise InvalidQuery("clique sizes must be positive")
    return sizes


def _upper2(l: int, m: int) -> int:
    """R(l, m) <= C(l+m-2, l-1), the closed form of the two-color recurrence."""
    n, k = l + m - 2, l - 1
    # C(n, k) < 2**n and C(n, k) <= n**j with j = min(k, n-k): a cap on its bits
    if min(n, min(k, n - k) * n.bit_length()) > UPPER_BOUND_BITS:
        raise InvalidQuery(
            f"the Ramsey upper bound would exceed {UPPER_BOUND_BITS} bits"
        )
    return math.comb(n, k)


def ram_upper(sizes) -> int:
    """Recurrence upper bound; exact on the base rows, nested for many colors.

    A bound that could exceed ``UPPER_BOUND_BITS`` bits is refused before it
    is computed.
    """
    return _upper(_validate(sizes))


def _upper(ls: tuple[int, ...]) -> int:
    if len(ls) == 1:
        return ls[0]
    bound = ls[-1]
    for l in reversed(ls[:-1]):
        bound = _upper2(l, bound)
    return bound


# (l1, l2) sorted -> (value, source); "oracle" rows re-verify inside the
# search bound, "literature" rows are informational only.
_EXACT_TWO_COLOR: dict[tuple[int, int], tuple[int, str]] = {
    (3, 3): (6, "oracle"),
    (3, 4): (9, "literature"),
    (3, 5): (14, "literature"),
    (3, 6): (18, "literature"),
    (3, 7): (23, "literature"),
    (4, 4): (18, "literature"),
    (4, 5): (25, "literature"),
}

_EXACT_MULTI: dict[tuple[int, ...], tuple[int, str]] = {
    (3, 3, 3): (17, "literature"),
}


def ram_exact_entry(sizes) -> Optional[tuple[int, str]]:
    """Exact value plus its source tag, when the table covers the query."""
    return _exact_entry(tuple(sorted(_validate(sizes))))


def _exact_entry(ls: tuple[int, ...]) -> Optional[tuple[int, str]]:
    if len(ls) == 1:
        return ls[0], "trivial"
    if ls[0] == 1:
        return 1, "trivial"
    if len(ls) == 2:
        if ls[0] == 2:
            return ls[1], "trivial"
        return _EXACT_TWO_COLOR.get(ls)
    if ls[0] == 2:
        return _exact_entry(ls[1:])
    return _EXACT_MULTI.get(ls)


def ram_exact(sizes) -> Optional[int]:
    entry = ram_exact_entry(sizes)
    return entry[0] if entry else None


class RamseyVerification(NamedTuple):
    holds_at_n: bool
    witness: Optional[tuple[tuple[tuple[int, int], str], ...]]


def ram_verify(l1: int, l2: int, n: int) -> RamseyVerification:
    """Exhaustively decide whether every 2-coloring of K_n forces the cliques.

    A False verdict carries a counterexample coloring.
    """
    if l1 < 1 or l2 < 1 or n < 1:
        raise InvalidQuery("clique sizes and vertex count must be positive")
    if n > VERIFY_VERTEX_BOUND:
        raise SearchBoundExceeded(n, VERIFY_VERTEX_BOUND)
    colors = kernels.ramsey_search(l1, l2, n)
    if colors is None:
        return RamseyVerification(True, None)
    edges = [(i, j) for j in range(n) for i in range(j)]
    names = ("red", "black")
    witness = tuple((e, names[c]) for e, c in zip(edges, colors))
    return RamseyVerification(False, witness)


@lru_cache(maxsize=1 << 10)
def _gate_entry(sizes: tuple[int, ...]) -> tuple[int, str, Optional[int]]:
    """``(rhs, kind, literature value or None)`` for the clique sizes as given.

    Keyed on the unsorted tuple, since the nested bound depends on the
    order of three or more sizes; a refused tuple raises again on every
    call, because ``lru_cache`` does not cache exceptions.
    """
    _validate(sizes)
    entry = _exact_entry(tuple(sorted(sizes)))
    if entry is not None and entry[1] in ("trivial", "oracle"):
        return entry[0], "exact", None
    return _upper(sizes), "upper-bound", entry[0] if entry is not None else None


def _gate(sizes, detail: dict) -> tuple[int, str]:
    """Exact verified value when available, else the recurrence bound.

    An unverified literature value is only recorded, as
    ``detail["literature_value"]``.
    """
    rhs, kind, literature = _gate_entry(tuple(sizes))
    if literature is not None:
        detail["literature_value"] = literature
    return rhs, kind


class BoundReport(NamedTuple):
    """One gate's verdict; a tuple, so it equals the plain tuple of its fields."""

    property: str
    lhs: int
    rhs: int
    rhs_kind: str  # "exact" or "upper-bound"
    holds: bool
    detail: dict

    def to_json(self):
        return self._asdict()


def check_union_bound(*systems: SetSystem) -> BoundReport:
    """dim(union of all) + 1 < Ram(dim_i + 2, ...).

    The elementwise union is folded as masks through
    ``systems._pairwise_masks``, with the same refusal as ``ew_union``, and
    is never built as a system: its rank depends neither on bit labels nor
    on member order, so it is read from the distinct masks alone.  A single
    operand is its own union.
    """
    if not systems:
        raise InvalidQuery("at least one system is required")
    dims = [dim(s) for s in systems]
    atoms, masks = systems[0].support, systems[0].member_masks
    for s in systems[1:]:
        atoms, masks = _pairwise_masks(int.__or__, "elementwise union", atoms, masks, s)
    lhs = (_mask_rank(masks) if len(systems) > 1 else dims[0]) + 1
    sizes = tuple(d + 2 for d in dims)
    detail = {"dims": dims, "union_dim": lhs - 1, "ramsey_args": list(sizes)}
    rhs, kind = _gate(sizes, detail)
    return BoundReport("dim(union)+1 < Ram(dims+2)", lhs, rhs, kind, lhs < rhs, detail)


def check_image_bound(
    trace: Trace, system: SetSystem, xi: Optional[dict] = None
) -> BoundReport:
    """Image order type against the branching-indexed diagonal Ramsey bound.

    For branching degree 1 the gate is dim(image) <= dim(system); the
    derivation presumes productive pairs, so empty option sets are flagged
    in the detail and will typically show up as violations.  With a
    right-inverse xi (element -> preimage with option {element}) equality
    is asserted instead.
    """
    n = branching_degree(trace)
    image = direct_image(trace, system)
    d_img = dim(image)
    d_sys = dim(system)
    has_empty = any(0 in opts for opts in trace.options)
    detail = {
        "branching": n,
        "image_dim": d_img,
        "system_dim": d_sys,
        "empty_option_sets": has_empty,
    }
    if n <= 1:
        if xi is not None:
            for y in system.support:
                if (xi.get(y), frozenset((y,))) not in trace.pairs:
                    raise InvalidQuery(f"xi is not a section at {y!r}")
            return BoundReport(
                "dim(image) == dim(system) [sequential, with section]",
                d_img,
                d_sys,
                "exact",
                d_img == d_sys,
                detail,
            )
        return BoundReport(
            "dim(image) <= dim(system) [sequential]",
            d_img,
            d_sys,
            "exact",
            d_img <= d_sys,
            detail,
        )
    sizes = tuple([d_sys + 2] * n)
    rhs, kind = _gate(sizes, detail)
    return BoundReport(
        "dim(image)+1 < Ram(dim(system)+2; branching)",
        d_img + 1,
        rhs,
        kind,
        d_img + 1 < rhs,
        detail,
    )


def check_wqo_intersection_bound(a: QuasiOrder, b: QuasiOrder) -> BoundReport:
    """otp(intersection) < Ram(otp(a)+1, otp(b)+1).

    Each order type is a class count read from the up rows (see
    ``orders.otp``), and the meet's rows are the pairwise ANDs of the two
    carriers' rows, so the intersection is never built as a quasi-order.
    """
    if a.elements != b.elements:
        raise CarrierMismatch("quasi-orders must share one carrier")
    lhs = len(set(map(int.__and__, a.up, b.up)))
    sizes = (len(set(a.up)) + 1, len(set(b.up)) + 1)
    detail = {"otp_a": sizes[0] - 1, "otp_b": sizes[1] - 1}
    rhs, kind = _gate(sizes, detail)
    return BoundReport(
        "otp(a ∩ b) < Ram(otp(a)+1, otp(b)+1)", lhs, rhs, kind, lhs < rhs, detail
    )
