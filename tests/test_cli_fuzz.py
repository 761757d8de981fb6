"""Hostile JSON documents and flag values never crash the command line.

Each file-reading command gets documents that are mostly of the kind it
expects, with nested atoms, repeated atoms and elements outside their
carrier, and sometimes a field or the whole document of the wrong type.
The integer arguments of ``ramsey``, ``lang --max-len`` and ``chain`` get
zero, negative, small and (where a budget refuses them before any work)
huge values.  Every run must end with exit code 0, 1 or 2 and print no
traceback.
"""

import json

from hypothesis import given, settings, strategies as st

from ordkit.cli import main

from .clirun import CliRunner

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


@st.composite
def hostile_ints(draw, top):
    """Mostly -3..top; one time in ten a value that a budget or a range
    check refuses before any work (a width far over ``LANG_WORD_BOUND``, a
    vertex count far over ``VERIFY_VERTEX_BOUND``)."""
    if draw(st.integers(0, 9)) == 9:
        return draw(st.sampled_from([-10**30, -10**9, 10**9, 10**30]))
    return draw(st.integers(-3, top))


# horizon pairs at CHAIN_CELL_BOUND (65,536 cells), read in full, and just over it, refused;
# neither horizon is below 16, so lengths up to 15 reach the read or the refusal
_BUDGET_HORIZONS = [(256, 256), (4096, 16), (16, 4096), (256, 257), (257, 256), (4097, 16)]


@st.composite
def flag_invocations(draw):
    """``ramsey``, ``lang --max-len`` and ``chain`` with hostile integers.

    ``chain`` reads its whole membership matrix and walks the production
    solver, so every family answers any length in milliseconds at small
    horizons and in well under a second at the cell budget.  The horizons
    are small, or a pair on either side of that budget.
    """
    command = draw(st.sampled_from(["ramsey", "lang", "chain"]))
    if command == "ramsey":
        kind = draw(st.sampled_from(["bound", "exact", "verify"]))
        count = 3 if kind == "verify" and draw(st.integers(0, 3)) else draw(st.integers(1, 4))
        numbers = [draw(hostile_ints(12)) for _ in range(count)]
        # "--" lets a negative number reach the command instead of the parser
        return ["ramsey", kind, "--", *map(str, numbers)], []
    if command == "lang":
        kind = draw(st.sampled_from(["star", "plus", "closure", "shuffle", "half"]))
        max_len = draw(hostile_ints(12))
        docs = [draw(fragments) for _ in range(2 if kind == "shuffle" else 1)]
        return ["lang", kind, "--max-len", str(max_len)], docs
    family = draw(st.sampled_from(["singl", "dcl", "cosingl", "arith_prog"]))
    length = draw(st.integers(-3, 20))
    element_horizon, family_horizon = draw(
        st.tuples(st.integers(-3, 12), st.integers(-3, 12)) | st.sampled_from(_BUDGET_HORIZONS)
    )
    return ["chain", "--family", family, "--length", str(length),
            "--element-horizon", str(element_horizon),
            "--family-horizon", str(family_horizon)], []


def _run(tmp_path_factory, argv, docs):
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


@settings(max_examples=250, deadline=None, derandomize=True)
@given(invocation=invocations())
def test_hostile_json_never_crashes(tmp_path_factory, invocation):
    _run(tmp_path_factory, *invocation)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(invocation=flag_invocations())
def test_hostile_flag_values_never_crash(tmp_path_factory, invocation):
    _run(tmp_path_factory, *invocation)
