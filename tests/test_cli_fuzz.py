"""Hostile JSON documents never crash the command line.

Each file-reading command gets documents that are mostly of the kind it
expects, with nested atoms, repeated atoms and elements outside their
carrier, and sometimes a field or the whole document of the wrong type.
Every run must end with exit code 0, 1 or 2 and print no traceback.
"""

import json

from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from ordkit.cli import main

_KEYS = ("universe", "sets", "elements", "le", "source_field", "target_field",
         "pairs", "x", "v", "alphabet", "max_len", "words", "exact_up_to",
         "pair", "tag", "word", "finset")

atoms = st.recursive(
    st.sampled_from(["0", "1", "2", "a", "b"]),
    lambda inner: st.one_of(
        st.builds(lambda a, b: {"pair": [a, b]}, inner, inner),
        st.builds(lambda a, n: {"tag": [a, n]}, inner, st.integers(0, 2)),
        st.builds(lambda w: {"word": w}, st.lists(st.sampled_from("ab"), max_size=2)),
        st.builds(lambda xs: {"finset": xs}, st.lists(inner, max_size=2)),
    ),
    max_leaves=3,
)
scalars = st.one_of(st.none(), st.booleans(), st.integers(-2, 5), st.floats(-1, 3), st.text("ab", max_size=2))
junk = st.recursive(
    scalars | atoms,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(_KEYS), inner, max_size=3),
    max_leaves=8,
)


def _members(draw, carrier, max_size=3):
    """A list of atoms, mostly drawn from ``carrier`` (so repeats occur)."""
    pool = st.sampled_from(carrier) | atoms if carrier else atoms
    return draw(st.lists(pool, max_size=max_size))


@st.composite
def systems(draw):
    universe = draw(st.lists(atoms, max_size=4))
    return {"universe": universe,
            "sets": [_members(draw, universe) for _ in range(draw(st.integers(0, 4)))]}


@st.composite
def quasi_orders(draw):
    elements = draw(st.lists(atoms, max_size=4))
    le = [_members(draw, elements, 2) for _ in range(draw(st.integers(0, 4)))]
    return {"elements": elements, "le": le}


@st.composite
def traces(draw):
    source, target = draw(st.lists(atoms, max_size=3)), draw(st.lists(atoms, max_size=3))
    pairs = [{"x": draw(st.sampled_from(source)), "v": _members(draw, target)}
             for _ in range(draw(st.integers(0, 4)) if source else 0)]
    return {"source_field": source, "target_field": target, "pairs": pairs}


fragments = st.fixed_dictionaries(
    {"alphabet": st.lists(st.sampled_from("ab"), max_size=2),
     "max_len": st.integers(-1, 4),
     "words": st.lists(st.text("abc", max_size=4), max_size=4)},
    optional={"exact_up_to": st.booleans()},
)
_KINDS = {"system": systems(), "qo": quasi_orders(), "trace": traces(),
          "fragment": fragments, "atoms": st.lists(atoms, max_size=3)}
documents = st.one_of(
    *_KINDS.values(),
    junk,
    st.builds(lambda doc, key, value: {**doc, key: value},
              st.one_of(*_KINDS.values()).filter(lambda d: isinstance(d, dict)),
              st.sampled_from(_KEYS), junk),
)

_COMMANDS = {
    ("dim",): ["system"], ("dim", "--witness"): ["system"], ("qo",): ["system"],
    ("otp",): ["qo"], ("--strict", "otp"): ["qo"], ("ss",): ["qo"],
    **{("op", k): ["system", "system"] for k in ("union", "intersect", "product", "disjoint", "tagged")},
    **{("op", k): ["system"] for k in ("bang", "perp")},
    ("trace", "apply"): ["trace", "atoms"], ("trace", "image"): ["trace", "system"],
    ("trace", "compose"): ["trace", "trace"], ("trace", "classify"): ["trace"],
    **{("lang", k): ["fragment"] for k in ("star", "plus", "closure", "half")},
    ("lang", "shuffle"): ["fragment", "fragment"],
}


@st.composite
def invocations(draw):
    """A command and its documents: each of the expected kind three times in
    four, and one time in ten an extra, surplus document."""
    argv = draw(st.sampled_from(sorted(_COMMANDS)))
    docs = [draw(documents if draw(st.integers(0, 3)) == 3 else _KINDS[kind])
            for kind in _COMMANDS[argv]]
    if draw(st.integers(0, 9)) == 9:
        docs.append(draw(documents))
    return list(argv), docs


@settings(max_examples=250, deadline=None, derandomize=True)
@given(invocation=invocations())
def test_hostile_json_never_crashes(tmp_path_factory, invocation):
    argv, docs = invocation
    folder = tmp_path_factory.mktemp("fuzz")
    paths = []
    for i, doc in enumerate(docs):
        path = folder / f"{i}.json"
        path.write_text(json.dumps(doc))
        paths.append(str(path))
    result = CliRunner().invoke(main, argv + paths)
    assert result.exit_code in (0, 1, 2), result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
