"""The value types: equality, hashing, immutability and repr.

Each ``make`` builds a fresh value from equal fields, so two calls give
distinct but equal objects.  The reprs were recorded when these types were
still dataclasses; none of them may show a frozenset's hash order.
"""

import pickle

import pytest

from ordkit import (
    ElasticityChain,
    LanguageFragment,
    LazyFamily,
    SdrProblem,
    identity_simulation,
    leaf,
    longest_production_sequence,
    mk_fragment,
    mk_qo,
    mk_system,
    mk_trace,
)
from ordkit.checks import CheckReport
from ordkit.orders import QuasiOrder, Simulation
from ordkit.production import ProductionSequence
from ordkit.ramsey import RamseyVerification
from ordkit.systems import SetSystem
from ordkit.traces import Trace

a, b, c, x = leaf("a"), leaf("b"), leaf("c"), leaf("x")


def _system():
    return mk_system([a, b, c], [[a], [a, b]])


def _qo():
    return mk_qo([a, b], [(a, b)])


VALUES = {
    SetSystem: (_system, "SetSystem[{a},{a,b}]"),
    QuasiOrder: (_qo, "QuasiOrder([a, b]; a<=b)"),
    Trace: (lambda: mk_trace([x], [a, b], [(x, [a]), (x, [])]), "Trace[x:{},x:{a}]"),
    Simulation: (
        lambda: identity_simulation(_qo()),
        "Simulation(source=QuasiOrder([a, b]; a<=b), target=QuasiOrder([a, b]; a<=b), "
        "rows=(1, 2))",
    ),
    ProductionSequence: (
        lambda: longest_production_sequence(_system()),
        "ProductionSequence(steps=((a, (a,)), (b, (a, b))))",
    ),
    RamseyVerification: (
        lambda: RamseyVerification(False, (((0, 1), "red"),)),
        "RamseyVerification(holds_at_n=False, witness=(((0, 1), 'red'),))",
    ),
    SdrProblem: (
        lambda: SdrProblem((frozenset({a}), frozenset({b}))),
        "SdrProblem(blocks=(frozenset({a}), frozenset({b})))",
    ),
    LanguageFragment: (
        lambda: mk_fragment("a", 2, ["aa"]),
        "LanguageFragment(alphabet=frozenset({'a'}), max_len=2, words=frozenset({'aa'}), "
        "exact_up_to=True)",
    ),
    LazyFamily: (
        lambda: LazyFamily("lengths", len),
        "LazyFamily(description='lengths', member_index=<built-in function len>)",
    ),
    ElasticityChain: (
        lambda: ElasticityChain((0, 1), (3,)),
        "ElasticityChain(elements=(0, 1), families=(3,))",
    ),
}


@pytest.mark.parametrize("cls", VALUES, ids=lambda cls: cls.__name__)
def test_value_type_contract(cls):
    make, text = VALUES[cls]
    one, two = make(), make()
    assert type(one) is cls and one is not two
    assert one == two and not one != two and hash(one) == hash(two)
    assert repr(one) == text
    field = cls._fields[0]
    with pytest.raises(AttributeError):
        setattr(one, field, None)
    with pytest.raises(AttributeError):
        delattr(one, field)
    assert one == two
    assert pickle.loads(pickle.dumps(one)) == one


@pytest.mark.parametrize(
    "cls", [SetSystem, QuasiOrder, Trace, Simulation, ProductionSequence],
    ids=lambda cls: cls.__name__,
)
def test_slotted_values_compare_only_within_their_class(cls):
    value = VALUES[cls][0]()
    fields = tuple(getattr(value, f) for f in cls._fields)
    assert cls.__eq__(value, fields) is NotImplemented
    assert value != fields
    assert cls(*fields) == value
    with pytest.raises(AttributeError):
        value.extra = 1


def test_set_system_views_are_cached_on_a_frozen_value():
    s = _system()
    assert s.members is s.members
    assert s.family == frozenset({frozenset({a}), frozenset({a, b})})


def test_check_report_is_mutable_with_fresh_defaults():
    one, two = CheckReport("s", ("p",), 1, 2), CheckReport("s", ("p",), 1, 2)
    assert repr(one) == (
        "CheckReport(suite='s', properties=('p',), seed=1, trials=2, failures=[], "
        "ms=0.0, info={})"
    )
    one.fail(0, {"X": 1}, got=2)
    one.ms = 1.5
    one.info["k"] = 3
    assert not one.ok and two.ok
    assert (two.failures, two.ms, two.info) == ([], 0.0, {})
    assert one.to_json() == {
        "suite": "s", "properties": ["p"], "seed": 1, "trials": 2,
        "failures": [{"property": "p", "instance": {"X": 1}, "values": {"got": 2}}],
        "info": {"k": 3}, "ms": 1.5,
    }
