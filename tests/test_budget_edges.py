"""Each size budget at its edge: the largest admitted input answers, and the
smallest refused one exits 2 at once.

Every row runs ``python -m ordkit.cli`` in a fresh process under coreutils
``timeout``: an answer must come within ``ANSWER_S`` seconds, a refusal
within ``REFUSAL_S``, so a refusal that first builds what it refuses fails
with the timeout's exit code 124.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ordkit

ANSWER_S = 10
REFUSAL_S = 1


def _chain(n):
    e = [str(i) for i in range(n)]
    return {"elements": e, "le": [[x, y] for x, y in zip(e, e[1:])]}


def _upsets_of_chain(n):
    """``--json ss`` of ``_chain(n)``: the n + 1 suffixes, as sorted lists in list order."""
    e = sorted(str(i) for i in range(n))
    suffixes = [[str(j) for j in range(i, n)] for i in range(n + 1)]
    return json.dumps({"sets": sorted(map(sorted, suffixes)), "universe": e}, sort_keys=True) + "\n"


def _antichain(n):
    return {"elements": [str(i) for i in range(n)], "le": []}


def _down_closures(n):
    e = [str(i) for i in range(n)]
    return {"universe": e, "sets": [e[:k] for k in range(n + 1)]}


# (argv, input document or None, exit code, stdout, stderr); the input is
# written to a file whose path replaces "FILE" in argv
ROWS = {
    # orders.SS_ELEMENT_BOUND = 20
    "ss-chain-20": (["--json", "ss", "FILE"], _chain(20), 0, _upsets_of_chain(20), ""),
    "ss-antichain-21": (
        ["ss", "FILE"], _antichain(21), 2, "", "error: carrier has 21 elements, limit is 20\n",
    ),
    # ramsey.UPPER_BOUND_BITS = 14,283: C(2l-2, l-1) has at most 2l-2 bits
    "ramsey-bound-7142": (
        ["ramsey", "bound", "7142", "7142"], None, 0, f"{math.comb(14282, 7141)}\n", "",
    ),
    "ramsey-bound-7143": (
        ["ramsey", "bound", "7143", "7143"], None, 2, "",
        "error: the Ramsey upper bound would exceed 14283 bits\n",
    ),
    # dim --max-universe, default 16
    "dim-16": (["dim", "FILE"], _down_closures(16), 0, "16\n", ""),
    "dim-17": (
        ["dim", "FILE"], _down_closures(17), 2, "",
        "error: support has 17 elements; raise --max-universe\n",
    ),
}


@pytest.mark.parametrize("name", list(ROWS))
def test_budget_edge(tmp_path, name):
    argv, doc, code, stdout, stderr = ROWS[name]
    if doc is not None:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        argv = [str(path) if a == "FILE" else a for a in argv]
    limit = ANSWER_S if code == 0 else REFUSAL_S
    src = str(Path(ordkit.__file__).parents[1])
    result = subprocess.run(
        ["timeout", str(limit), sys.executable, "-m", "ordkit.cli", *argv],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
    )
    assert (result.returncode, result.stdout, result.stderr) == (code, stdout, stderr)
