"""The search kernels behind ``dim``, the ``otp`` certificate and the Ramsey
verifier, and the one transpose of the member-by-element matrix.

This module is the one entry point the rest of the package calls, always
as ``kernels.<name>``, so a single rebinding here reroutes every caller.
The kernels themselves live in ``_kernels_py``; ``BACKEND`` names the lane
that runs them, which is pure Python.

``bad_sequence_rank`` does not compute ``orders.otp``, which is the
equivalence-class count; it is the definition that count is certified
against, in the ``repre`` suite and the tests.

``transpose`` turns bitmask rows into bitmask columns.  ``orders.qo_of``,
``orders.ss``, ``orders.linearizations``, ``systems.perp`` and the
production solver's ``contains`` all take their columns from it.
"""

from __future__ import annotations

from ._kernels_py import (
    bad_sequence_rank,
    production_rank,
    production_state_rank,
    production_witness,
    ramsey_search,
    transpose,
)

__all__ = [
    "BACKEND",
    "bad_sequence_rank",
    "production_rank",
    "production_state_rank",
    "production_witness",
    "ramsey_search",
    "transpose",
]

BACKEND = "python"
