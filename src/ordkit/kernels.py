"""The search kernels behind ``dim``, ``chain``, the ``otp`` certificate and
the Ramsey verifier, and the one transpose of the member-by-element matrix.

This module is the one entry point the rest of the package calls, always
as ``kernels.<name>``, so a single rebinding here reroutes every caller.
The kernels themselves live in ``_kernels_py``; ``BACKEND`` names the lane
that runs them, which is pure Python.

``bad_sequence_rank`` does not compute ``orders.otp``, which is the
equivalence-class count; it is the definition that count is certified
against, in the ``repre`` suite and the tests.

``dim`` ranks by ``production_rank`` and walks ``production_witness``, and
``chain`` walks ``elasticity_witness``: three callers of one production
solver.  ``transpose`` turns bitmask rows into columns for the package.
"""

from __future__ import annotations

from ._kernels_py import (
    bad_sequence_rank,
    elasticity_witness,
    production_rank,
    production_state_rank,
    production_witness,
    ramsey_search,
    transpose,
)

__all__ = [
    "BACKEND",
    "bad_sequence_rank",
    "elasticity_witness",
    "production_rank",
    "production_state_rank",
    "production_witness",
    "ramsey_search",
    "transpose",
]

BACKEND = "python"
