"""The failure path of every check suite, pinned by a digest.

The ``check all`` digest in CI sees only passing reports.  Here the names
that ``ordkit.checks`` imports are replaced by perturbed versions, so that
every suite records failures, and the timing-stripped reports are compared
with a digest recorded before the suites shared one harness.
"""

import hashlib
import json
import types

import pytest

from ordkit import checks
from ordkit.orders import identity_simulation, mk_qo
from ordkit.systems import mk_system

# sha256 of the perturbed run_suite("all", seed=3, trials=4, max_size=2)
# reports, "ms" removed, json.dumps(..., sort_keys=True); recorded at fcd3a0e
FAILURE_PATH_DIGEST = "b967702bdc292d57ac2810783b96780455270e3a6664365c898f4a142374ce29"


def _flip(real, when):
    """A Ramsey gate whose verdict is reversed on the reports ``when`` picks."""
    def gate(*args, **kwargs):
        rep = real(*args, **kwargs)
        return rep._replace(holds=rep.holds != when(rep))
    return gate


def _perturbations():
    c = types.SimpleNamespace(**vars(checks))  # the real functions
    return {
        "otp": lambda qo: c.otp(qo) + (len(qo.elements) in (2, 5)),
        "dim": lambda s: c.dim(s) + (len(s.members) == 3),
        "qo_of": lambda s: mk_qo(s.universe) if len(s.support) == 2 else c.qo_of(s),
        "_fire": lambda t, g: 0 if len(t.pairs) % 3 == 1 else c._fire(t, g),
        "canonicalize": lambda t: c.canonicalize(t) if len(t.pairs) % 4 else t,
        "direct_image": lambda t, s: mk_system(s.universe, s.members[1:]),
        "closure_bounded": lambda f, kind, bound: c.closure_bounded(
            f, {"plus": "star", "shuffle_diamond": "shuffle_closure"}.get(kind, kind)
            if len(f.words) % 2 else kind, bound),
        "shuffle_product": lambda a, b: a if len(a.words) % 2 else c.shuffle_product(a, b),
        "is_coatomic_lattice": lambda s: len(s.members) != 3 and c.is_coatomic_lattice(s),
        "is_simulation": lambda sim: len(sim.pairs) != 2 and c.is_simulation(sim),
        "qo_functor": lambda t, x, y: identity_simulation(x)
        if len(x.elements) == len(y.elements) == 2 else c.qo_functor(t, x, y),
        "check_union_bound": _flip(c.check_union_bound, lambda r: r.lhs == 2),
        "check_image_bound": _flip(c.check_image_bound, lambda r: r.lhs == 1),
        "check_wqo_intersection_bound": _flip(
            c.check_wqo_intersection_bound, lambda r: r.lhs == 2),
        "ram_upper": lambda sizes: c.ram_upper(sizes) + (tuple(sizes) == (3, 3)),
        "ram_exact": lambda sizes: None,
        "elasticity_chain": lambda fam, k, **kw: None,
        "family_transform": lambda kind, fam, **kw: fam,
        "find_sdr": lambda sets: None,
        "perp": lambda s: mk_system(s.universe, []),
        "bang": lambda s: mk_system(s.universe, []),
        "ew_intersect": lambda a, b: a,
        "ew_disjoint": lambda *s: c.ew_disjoint(*s[:1] if len(s[0].members) == 2 else s),
        "intersect_qo": lambda a, b: a,
        "compose_simulations": lambda second, first: first,
    }


@pytest.fixture()
def perturbed(monkeypatch):
    for name, fn in _perturbations().items():
        monkeypatch.setattr(checks, name, fn)


def test_every_suite_reports_failures_under_perturbation(perturbed):
    reports = checks.run_suite("all", seed=3, trials=4, max_size=2)
    assert [r.suite for r in reports] == list(checks.SUITES)
    assert all(r.failures for r in reports), [r.suite for r in reports if r.ok]
    stripped = [{k: v for k, v in r.to_json().items() if k != "ms"} for r in reports]
    text = json.dumps(stripped, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == FAILURE_PATH_DIGEST
