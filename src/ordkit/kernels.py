"""Kernel backend selection: compiled extension when available, pure Python otherwise.

Set ORDKIT_PURE=1 to force the Python lane (used by the benchmark and the
parity tests).  ``BACKEND`` names the lane in use; ``FALLBACK_REASON`` keeps
the import error of the compiled lane when it could not be loaded, and is
None when the lane is compiled or the Python lane was forced.

The production kernels run the pure search in every lane.  Its memo is
keyed on the version space (the set of members still covering the
examples), which is far smaller than the (examples, hypothesis) states of
the compiled search.  On the up-sets of a 9-antichain and on P(4) x P(4)
the pure search, from a cold memo, is 18x and 45x faster than the
compiled one (2.0 vs 36 ms and 1.2 vs 53 ms on a 2-CPU Xeon VM).
The other two kernels use the compiled lane for instances that fit its
fixed word size; anything larger routes to the Python lane, which works on
arbitrary-width integers.
"""

from __future__ import annotations

import importlib
import os
from typing import Optional, Sequence

from . import _kernels_py as _py

_c = None
FALLBACK_REASON: Optional[str] = None
if os.environ.get("ORDKIT_PURE") != "1":
    try:
        _c = importlib.import_module("._kernels", __package__)
    except ImportError as exc:
        FALLBACK_REASON = f"{type(exc).__name__}: {exc}"

BACKEND = "compiled" if _c is not None else "python"


def production_rank(member_masks: Sequence[int], support_mask: int) -> int:
    return _py.production_rank(member_masks, support_mask)


def production_state_rank(
    member_masks: Sequence[int], support_mask: int, seen: int, hyp: int
) -> int:
    return _py.production_state_rank(member_masks, support_mask, seen, hyp)


def bad_sequence_rank(up_masks: Sequence[int]) -> int:
    masks = tuple(up_masks)
    if _c is not None and len(masks) <= 20:
        return _c.bad_sequence_rank(masks)
    return _py.bad_sequence_rank(masks)


def ramsey_search(l1: int, l2: int, n: int) -> Optional[list[int]]:
    if _c is not None and n <= 10:
        return _c.ramsey_search(l1, l2, n)
    return _py.ramsey_search(l1, l2, n)
