import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ordkit
from ordkit.atoms import ATOM_DEPTH_BOUND
from ordkit.checks import run_suite
from ordkit.cli import main

from .clirun import CliRunner
from .oracles import system


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def eq14_file(tmp_path):
    path = tmp_path / "eq14-L.json"
    path.write_text(json.dumps(system(3, (), (0,), (0, 1, 2)).to_json()))
    return str(path)


def test_dim_command(runner, eq14_file):
    result = runner.invoke(main, ["dim", eq14_file])
    assert result.exit_code == 0
    assert result.output.strip() == "2"


def test_dim_witness_json(runner, eq14_file):
    result = runner.invoke(main, ["--json", "dim", eq14_file, "--witness"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["dim"] == 2
    assert len(payload["witness"]) == 2


def test_trailing_json_flag(runner, eq14_file):
    result = runner.invoke(main, ["dim", eq14_file, "--json"])
    assert result.exit_code == 0
    assert json.loads(result.output) == {"dim": 2}


def test_otp_ss_qo_commands(runner, tmp_path):
    qo_path = tmp_path / "chain.json"
    qo_path.write_text(
        json.dumps({"elements": ["0", "1"], "le": [["0", "1"]]})
    )
    result = runner.invoke(main, ["otp", str(qo_path)])
    assert result.exit_code == 0 and result.output.strip() == "2"
    result = runner.invoke(main, ["--json", "ss", str(qo_path)])
    assert result.exit_code == 0
    assert json.loads(result.output)["sets"] == [[], ["0", "1"], ["1"]]
    sys_path = tmp_path / "sys.json"
    sys_path.write_text(json.dumps({"universe": ["0", "1"], "sets": [["0"]]}))
    result = runner.invoke(main, ["--json", "qo", str(sys_path)])
    assert result.exit_code == 0
    assert ["1", "0"] in json.loads(result.output)["le"]


def test_strict_mode(runner, tmp_path):
    qo_path = tmp_path / "open.json"
    qo_path.write_text(
        json.dumps(
            {"elements": ["0", "1", "2"], "le": [["0", "1"], ["1", "2"]]}
        )
    )
    assert runner.invoke(main, ["otp", str(qo_path)]).exit_code == 0
    result = runner.invoke(main, ["--strict", "otp", str(qo_path)])
    assert result.exit_code == 2


def test_op_commands(runner, tmp_path, eq14_file):
    m_path = tmp_path / "eq14-M.json"
    m_path.write_text(json.dumps(system(3, (), (1,), (0, 1, 2)).to_json()))
    result = runner.invoke(main, ["--json", "op", "intersect", eq14_file, str(m_path)])
    assert result.exit_code == 0
    assert json.loads(result.output)["sets"] == [[], ["0"], ["0", "1", "2"], ["1"]]
    result = runner.invoke(main, ["--json", "op", "bang", eq14_file])
    assert result.exit_code == 0
    result = runner.invoke(main, ["op", "union", eq14_file])
    assert result.exit_code == 2


def test_trace_commands(runner, tmp_path):
    trace_path = tmp_path / "trace.json"
    trace_path.write_text(
        json.dumps(
            {
                "source_field": ["x"],
                "target_field": ["y"],
                "pairs": [{"x": "x", "v": ["y"]}],
            }
        )
    )
    set_path = tmp_path / "set.json"
    set_path.write_text(json.dumps(["y"]))
    result = runner.invoke(main, ["--json", "trace", "apply", str(trace_path), str(set_path)])
    assert result.exit_code == 0 and json.loads(result.output) == ["x"]
    result = runner.invoke(main, ["--json", "trace", "classify", str(trace_path)])
    payload = json.loads(result.output)
    assert payload == {"linear": True, "sequential": True, "branching_degree": 1}
    system_path = tmp_path / "target-sys.json"
    system_path.write_text(json.dumps({"universe": ["y"], "sets": [[], ["y"]]}))
    result = runner.invoke(main, ["--json", "trace", "image", str(trace_path), str(system_path)])
    assert result.exit_code == 0
    assert json.loads(result.output)["sets"] == [[], ["x"]]
    result = runner.invoke(main, ["--json", "trace", "compose", str(trace_path), str(trace_path)])
    assert result.exit_code == 2  # field mismatch is an input error


_TEXT_UNIVERSE = ["a", "b", {"finset": ["a", "b"]}, {"pair": ["a", {"tag": ["c", 1]}]}]
_TEXT_INPUTS = {
    "qo.json": {
        "elements": ["a", {"pair": ["a", "b"]}, {"tag": ["c", 1]}, {"word": ["a", "b"]}],
        "le": [["a", {"pair": ["a", "b"]}], [{"word": ["a", "b"]}, "a"]],
    },
    "system.json": {
        "universe": _TEXT_UNIVERSE,
        "sets": [["a"], ["b", _TEXT_UNIVERSE[2]], [_TEXT_UNIVERSE[3], "a"], []],
    },
    "trace.json": {
        "source_field": ["x", "y", "z"],
        "target_field": _TEXT_UNIVERSE,
        "pairs": [
            {"x": "x", "v": ["a"]},
            {"x": "y", "v": ["b", _TEXT_UNIVERSE[2]]},
            {"x": "y", "v": []},
            {"x": "z", "v": [_TEXT_UNIVERSE[3], "a"]},
        ],
    },
    "inner.json": {
        "source_field": _TEXT_UNIVERSE,
        "target_field": ["0", "1"],
        "pairs": [
            {"x": "a", "v": ["0"]},
            {"x": "b", "v": ["1"]},
            {"x": _TEXT_UNIVERSE[2], "v": []},
            {"x": _TEXT_UNIVERSE[3], "v": ["0", "1"]},
            {"x": _TEXT_UNIVERSE[3], "v": ["1"]},
        ],
    },
    "fragment.json": {"alphabet": ["a", "b"], "max_len": 4, "words": ["ab", "b"]},
}


@pytest.mark.parametrize(
    "argv, text",
    [
        (
            ["ss", "qo.json"],
            "SetSystem[{},{a,(a,b)},{a,(a,b),c@1},{a,(a,b),c@1,w'ab'},{a,(a,b),w'ab'},"
            "{(a,b)},{(a,b),c@1},{c@1}]",
        ),
        (["qo", "system.json"], "QuasiOrder([a, b, (a,c@1), {a,b}]; b<={a,b},(a,c@1)<=a,{a,b}<=b)"),
        (
            ["op", "bang", "system.json"],
            "SetSystem[{{}},{{},{a}},{{},{a},{a,(a,c@1)},{(a,c@1)}},{{},{b},{b,{a,b}},{{a,b}}}]",
        ),
        (
            ["op", "union", "system.json", "system.json"],
            "SetSystem[{},{a},{a,b,(a,c@1),{a,b}},{a,b,{a,b}},{a,(a,c@1)},{b,{a,b}}]",
        ),
        (["trace", "image", "trace.json", "system.json"], "SetSystem[{x,y},{x,y,z},{y}]"),
        (["trace", "compose", "trace.json", "inner.json"], "Trace[x:{0},y:{},z:{0,1}]"),
        (["lang", "star", "fragment.json"], "ε ab abab abb abbb b bab babb bb bbab bbb bbbb"),
        (["lang", "shuffle", "fragment.json", "fragment.json"], "aabb abab abb bab bb"),
    ],
    ids=["ss", "qo", "op-bang", "op-union", "trace-image", "trace-compose", "lang-star", "lang-shuffle"],
)
def test_text_mode_builds_no_json(runner, monkeypatch, tmp_path, argv, text):
    # the expected text is what these commands printed before text mode stopped
    # building the JSON payload
    for name, doc in _TEXT_INPUTS.items():
        (tmp_path / name).write_text(json.dumps(doc))

    def refuse(self):
        raise AssertionError("text mode built the JSON payload")

    for cls in (ordkit.SetSystem, ordkit.QuasiOrder, ordkit.Trace, ordkit.LanguageFragment):
        monkeypatch.setattr(cls, "to_json", refuse)
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
    result = runner.invoke(main, argv)
    assert (result.exit_code, result.stdout, result.stderr) == (0, text + "\n", "")


def test_ramsey_commands(runner):
    assert runner.invoke(main, ["ramsey", "bound", "3", "3"]).output.strip() == "6"
    assert runner.invoke(main, ["ramsey", "exact", "3", "3"]).output.strip() == "6"
    result = runner.invoke(main, ["ramsey", "verify", "3", "3", "6"])
    assert result.exit_code == 0 and result.output.strip() == "holds"
    result = runner.invoke(main, ["--json", "ramsey", "verify", "3", "3", "5"])
    payload = json.loads(result.output)
    assert payload["holds_at_n"] is False and len(payload["witness"]) == 10


def _bad_input_exit(result, diagnostic):
    assert result.exit_code == 2
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert result.stdout == ""
    assert result.stderr.startswith(f"error: {diagnostic}")


def test_ramsey_bound_is_closed_form_and_refuses_unprintable_bounds(runner):
    result = runner.invoke(main, ["ramsey", "bound", "300", "300"])
    assert result.exit_code == 0
    assert result.stdout == f"{math.comb(598, 299)}\n"
    result = runner.invoke(main, ["ramsey", "bound", *["3"] * 16])
    _bad_input_exit(result, "the Ramsey upper bound would exceed")


def test_negative_lang_bound_exits_2(runner, tmp_path):
    frag = tmp_path / "frag.json"
    frag.write_text(json.dumps({"alphabet": ["a"], "max_len": 1, "words": ["a"]}))
    result = runner.invoke(main, ["lang", "star", str(frag), "--max-len", "-1"])
    _bad_input_exit(result, "max_len must be at least 0")
    frag.write_text(json.dumps({"alphabet": ["a"], "max_len": -1, "words": []}))
    _bad_input_exit(runner.invoke(main, ["lang", "star", str(frag)]), str(frag))


def test_lang_max_len_on_shuffle_or_half_exits_2(runner, tmp_path):
    frag = tmp_path / "frag.json"
    frag.write_text(json.dumps({"alphabet": ["a"], "max_len": 1, "words": ["a"]}))
    for kind, files in (("shuffle", [frag, frag]), ("half", [frag])):
        for bound in ("-5", "3"):
            result = runner.invoke(main, ["lang", kind, *map(str, files), "--max-len", bound])
            _bad_input_exit(result, f"--max-len applies to star, plus and closure, not to {kind}")
        assert runner.invoke(main, ["lang", kind, *map(str, files)]).exit_code == 0


def test_lang_exact_up_to_must_be_a_json_boolean(runner, tmp_path):
    # bool("false") is True, so only a JSON boolean may set the flag
    frag = tmp_path / "frag.json"
    base = {"alphabet": ["a"], "max_len": 1, "words": ["a"]}
    for bad in ("false", "true", 0, 1, None, []):
        frag.write_text(json.dumps(dict(base, exact_up_to=bad)))
        result = runner.invoke(main, ["--json", "lang", "shuffle", str(frag), str(frag)])
        _bad_input_exit(result, f"{frag}.exact_up_to: expected true or false")
    for flag in (False, True):
        frag.write_text(json.dumps(dict(base, exact_up_to=flag)))
        result = runner.invoke(main, ["--json", "lang", "shuffle", str(frag), str(frag)])
        assert result.exit_code == 0
        assert json.loads(result.stdout)["exact_up_to"] is flag


def test_lang_closure_over_budget_exits_2(runner, tmp_path):
    frag = tmp_path / "frag.json"
    frag.write_text(json.dumps({"alphabet": ["a"], "max_len": 1000000, "words": ["a"]}))
    result = runner.invoke(main, ["lang", "star", str(frag)])
    _bad_input_exit(result, "word space has at least 8193 words, limit is 8192")


def _lang_doc(tmp_path, name, alphabet, max_len, words):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"alphabet": alphabet, "max_len": max_len, "words": words}))
    return str(path)


def test_lang_shuffle_over_budget_exits_2_before_building(tmp_path):
    # two 30-letter words over {a, b} fit max_len 60: 2**61 - 1 candidate words.
    # A fresh process with a timeout, since building the product would not end
    lhs = _lang_doc(tmp_path, "lhs", ["a", "b"], 60, ["ab" * 15])
    rhs = _lang_doc(tmp_path, "rhs", ["a", "b"], 60, ["ba" * 15])
    src = str(Path(ordkit.__file__).parents[1])
    result = subprocess.run(
        [sys.executable, "-m", "ordkit.cli", "lang", "shuffle", lhs, rhs],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=20,
    )
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == "error: word space has at least 16383 words, limit is 8192\n"


def test_lang_shuffle_of_a_long_word_is_depth_safe(runner, tmp_path):
    lhs = _lang_doc(tmp_path, "lhs", ["a"], 2000, ["a" * 1500])
    rhs = _lang_doc(tmp_path, "rhs", ["a"], 2000, ["a"])
    result = runner.invoke(main, ["--json", "lang", "shuffle", lhs, rhs])
    assert result.exit_code == 0, result.stderr
    assert json.loads(result.stdout)["words"] == ["a" * 1501]


def test_lang_closure_of_one_letter_at_max_len_2000(runner, tmp_path):
    frag = _lang_doc(tmp_path, "frag", ["a"], 1, ["a"])
    result = runner.invoke(main, ["--json", "lang", "closure", frag, "--max-len", "2000"])
    assert result.exit_code == 0, result.stderr
    assert json.loads(result.stdout)["words"] == sorted("a" * k for k in range(2001))


def test_a_suite_that_raises_is_a_failure_and_the_others_still_run(runner, monkeypatch):
    from ordkit import checks as checks_mod
    from ordkit.errors import NotASimulation

    def broken(second, first):
        raise NotASimulation("the relation does not satisfy the simulation law")

    monkeypatch.setattr(checks_mod, "compose_simulations", broken)
    result = runner.invoke(
        main, ["--json", "check", "all", "--trials", "2", "--max-size", "2"]
    )
    assert result.exit_code == 1
    reports = json.loads(result.stdout)
    assert [r["suite"] for r in reports] == list(checks_mod.SUITES)
    assert len(reports) == 11
    failed = {r["suite"]: r["failures"] for r in reports if r["failures"]}
    assert failed == {"functor-laws": [{
        "property": "the suite raised an error",
        "instance": {},
        "values": {"error": "NotASimulation",
                   "message": "the relation does not satisfy the simulation law"},
    }]}
    assert reports[list(checks_mod.SUITES).index("functor-laws")]["ms"] > 0


def test_otp_of_a_wide_antichain(runner, tmp_path):
    qo_path = tmp_path / "antichain.json"
    qo_path.write_text(json.dumps({"elements": [str(i) for i in range(40)], "le": []}))
    result = runner.invoke(main, ["--json", "otp", str(qo_path)])
    assert result.exit_code == 0
    assert json.loads(result.stdout) == {"otp": 40}


def test_compose_over_budget_exits_2(runner, tmp_path):
    mid = [str(i) for i in range(40)]
    low = [f"{y}{side}" for y in mid for side in "ab"]
    outer = tmp_path / "outer.json"
    outer.write_text(json.dumps({
        "source_field": mid, "target_field": mid,
        "pairs": [{"x": x, "v": mid} for x in mid],
    }))
    inner = tmp_path / "inner.json"
    inner.write_text(json.dumps({
        "source_field": mid, "target_field": low,
        "pairs": [{"x": v[:-1], "v": [v]} for v in low],
    }))
    result = runner.invoke(main, ["trace", "compose", str(outer), str(inner)])
    _bad_input_exit(result, f"composition has at least {2**40} option sets, limit is 65536")


def _cli_under_hash_seeds(seeds, *args):
    """``ordkit`` run as a fresh process under each ``PYTHONHASHSEED``."""
    src = str(Path(ordkit.__file__).parents[1])
    return [
        subprocess.run(
            [sys.executable, "-m", "ordkit.cli", *args],
            env=dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src),
            capture_output=True, text=True,
        )
        for seed in seeds
    ]


def test_compose_refusal_count_ignores_the_hash_seed(tmp_path):
    # outer pairs expanding to 2**10, 2**15 and 2**17 option sets: in sorted
    # source order the bound is crossed only by the third
    mid = [str(i) for i in range(17)]
    low = [f"{y}{side}" for y in mid for side in "ab"]
    outer = tmp_path / "outer.json"
    outer.write_text(json.dumps({
        "source_field": ["a", "b", "c"], "target_field": mid,
        "pairs": [{"x": x, "v": mid[:k]} for x, k in zip("abc", (10, 15, 17))],
    }))
    inner = tmp_path / "inner.json"
    inner.write_text(json.dumps({
        "source_field": mid, "target_field": low,
        "pairs": [{"x": v[:-1], "v": [v]} for v in low],
    }))
    results = _cli_under_hash_seeds(range(6), "trace", "compose", str(outer), str(inner))
    for hash_seed, result in enumerate(results):
        assert result.returncode == 2 and result.stdout == ""
        assert result.stderr.startswith(
            "error: composition has at least 164864 option sets, limit is 65536"
        ), (hash_seed, result.stderr)


def test_trace_compose_text_ignores_the_hash_seed(tmp_path):
    outer = tmp_path / "outer.json"
    outer.write_text(json.dumps({
        "source_field": ["x", "y", "z"], "target_field": ["a", "b", "c"],
        "pairs": [{"x": "x", "v": ["a", "b"]}, {"x": "x", "v": ["c"]}, {"x": "y", "v": []},
                  {"x": "z", "v": ["b"]}, {"x": "z", "v": ["a", "c"]}],
    }))
    inner = tmp_path / "inner.json"
    inner.write_text(json.dumps({
        "source_field": ["a", "b", "c"], "target_field": ["0", "1", "2"],
        "pairs": [{"x": "a", "v": ["0"]}, {"x": "a", "v": ["1", "2"]}, {"x": "b", "v": ["2"]},
                  {"x": "c", "v": ["0", "1"]}, {"x": "c", "v": ["2"]}],
    }))
    for result in _cli_under_hash_seeds((0, 1), "trace", "compose", str(outer), str(inner)):
        assert (result.returncode, result.stderr) == (0, "")
        assert result.stdout == "Trace[x:{0,1},x:{2},y:{},z:{0,1},z:{2}]\n"


def test_out_of_field_error_names_the_first_bad_atom_given(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "source_field": ["x"], "target_field": ["a"],
        "pairs": [{"x": "x", "v": ["k", "l", "m", "n"]}],
    }))
    for result in _cli_under_hash_seeds((0, 1), "trace", "classify", str(bad)):
        assert result.returncode == 2 and result.stdout == ""
        assert result.stderr.startswith(f"error: {bad}.pairs: k is not in the trace field\n")


def test_ss_over_budget_exits_2(runner, tmp_path):
    antichain = tmp_path / "antichain-20.json"
    antichain.write_text(json.dumps({"elements": [str(i) for i in range(20)], "le": []}))
    result = runner.invoke(main, ["--json", "ss", str(antichain)])
    _bad_input_exit(result, "up-set system has at least 65537 members, limit is 65536")


def test_disjoint_over_budget_exits_2(runner, tmp_path):
    four = tmp_path / "four.json"
    four.write_text(json.dumps({"universe": ["0", "1"], "sets": [[], ["0"], ["1"], ["0", "1"]]}))
    result = runner.invoke(main, ["op", "disjoint"] + [str(four)] * 20)
    _bad_input_exit(result, f"disjoint union has {4**20} members, limit is 65536")


def test_product_over_budget_exits_2(runner, tmp_path):
    u = [str(i) for i in range(9)]
    wide = tmp_path / "wide.json"
    wide.write_text(json.dumps({
        "universe": u,
        "sets": [[a for i, a in enumerate(u) if k >> i & 1] for k in range(300)],
    }))
    result = runner.invoke(main, ["op", "product", str(wide), str(wide)])
    _bad_input_exit(result, "elementwise product has 90000 member pairs, limit is 65536")


def test_internal_error_exits_3(runner, monkeypatch, tmp_path):
    def broken(qo):
        raise RuntimeError("boom")

    monkeypatch.setattr("ordkit.cli.otp", broken)
    qo_path = tmp_path / "chain.json"
    qo_path.write_text(json.dumps({"elements": ["0", "1"], "le": [["0", "1"]]}))
    result = runner.invoke(main, ["otp", str(qo_path)])
    assert result.exit_code == 3
    assert isinstance(result.exception, SystemExit)
    assert result.stdout == ""
    assert result.stderr == "internal error: RuntimeError: boom\n"


def test_lang_and_chain_commands(runner, tmp_path):
    frag = tmp_path / "frag.json"
    frag.write_text(
        json.dumps({"alphabet": ["a"], "max_len": 1, "words": ["a"], "exact_up_to": True})
    )
    result = runner.invoke(main, ["lang", "star", str(frag), "--max-len", "3"])
    assert result.exit_code == 0
    assert result.output.split() == ["ε", "a", "aa", "aaa"]
    result = runner.invoke(main, ["--json", "chain", "--family", "dcl", "--length", "4"])
    payload = json.loads(result.output)
    assert payload["found"] and payload["elements"] == [0, 1, 2, 3, 4]
    result = runner.invoke(
        main, ["--json", "chain", "--family", "singl", "--length", "2"]
    )
    assert json.loads(result.output) == {"found": False}


def test_chain_over_its_budget_exits_2_naming_it(runner):
    argv = ["chain", "--family", "arith_prog", "--length", "15",
            "--element-horizon", "4000", "--family-horizon", "4000"]
    _bad_input_exit(runner.invoke(main, argv),
                    "membership matrix has 16000000 cells, limit is 65536")


def test_chain_of_1200_steps_exits_2():
    # the recursive search this replaced hit the recursion limit here (exit 3)
    argv = ["chain", "--family", "cosingl", "--length", "1200",
            "--element-horizon", "1300", "--family-horizon", "1300"]
    src = str(Path(ordkit.__file__).parents[1])
    result = subprocess.run(
        [sys.executable, "-m", "ordkit.cli", *argv],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == "error: membership matrix has 1690000 cells, limit is 65536\n"


def strip_ms(output):
    reports = json.loads(output)
    for r in reports:
        r.pop("ms")
    return json.dumps(reports, sort_keys=True)


def test_check_command_and_determinism(runner):
    args = ["--json", "--trials", "40", "--max-size", "2", "check", "repre"]
    first = runner.invoke(main, args)
    second = runner.invoke(main, args)
    assert first.exit_code == 0 and second.exit_code == 0
    assert strip_ms(first.output) == strip_ms(second.output)


@pytest.mark.parametrize("suite", ["repre", "qo-roundtrip"])
def test_isomorphism_class_suites_cap_max_size_at_5(runner, suite):
    # the up-to-isomorphism enumerator walks every labelled quasi-order: 209,527 at n = 6
    capped = runner.invoke(main, ["--json", "check", suite, "--trials", "0", "--max-size", "30"])
    at_cap = runner.invoke(main, ["--json", "check", suite, "--trials", "0", "--max-size", "5"])
    assert capped.exit_code == 0 and at_cap.exit_code == 0
    assert strip_ms(capped.output) == strip_ms(at_cap.output)


def test_check_exit_code_contract(runner):
    result = runner.invoke(
        main, ["--trials", "20", "--max-size", "2", "check", "paper-fixtures"]
    )
    assert result.exit_code == 0
    assert "[ok]" in result.output


def test_repre_certifies_otp_by_the_bad_sequence_search(monkeypatch):
    from ordkit import kernels
    from ordkit.checks import run_repre

    search = kernels.bad_sequence_rank
    monkeypatch.setattr(kernels, "bad_sequence_rank", lambda up: search(up) + 1)
    report = run_repre(seed=7, trials=5, max_size=2)
    assert report.properties == ("otp(X) == dim(ss(X))",)
    assert len(report.failures) == report.info["instances"] == 10
    values = report.failures[-1]["values"]
    assert values["bad_sequence_rank"] == values["otp"] + 1 == values["dim"] + 1


@pytest.mark.parametrize("trials", [2, 3, 4])
def test_trace_laws_checks_linear_uniqueness_below_five_trials(monkeypatch, trials):
    from ordkit import checks as checks_mod

    # every trace now behaves alike, so two distinct relations violate property 2
    monkeypatch.setattr(checks_mod, "_fire", lambda trace, g: 0)
    report = checks_mod.run_trace_laws(trials=trials)
    failed = {f["property"] for f in report.failures}
    assert report.properties[2] in failed


def test_check_failures_exit_1(runner, monkeypatch):
    from ordkit import checks as checks_mod
    from ordkit.checks import CheckReport

    def broken(seed=42, trials=500, max_size=None):
        report = CheckReport("repre", ("always false",), seed, trials)
        report.failures.append({"property": "always false", "instance": {}, "values": {}})
        return report

    monkeypatch.setitem(checks_mod.SUITES, "repre", broken)
    result = runner.invoke(main, ["check", "repre"])
    assert result.exit_code == 1
    assert "FAILURES" in result.output
    result = runner.invoke(main, ["--json", "check", "repre"])
    assert result.exit_code == 1


_TRACE = {"source_field": ["x"], "target_field": ["y"], "pairs": [{"x": "x", "v": ["y"]}]}
_FRAGMENT = {"alphabet": ["a", "b"], "max_len": 2, "words": ["ab"]}
_MALFORMED = [
    (["trace", "classify"], _TRACE, "source_field", "ab", ".source_field: expected a list"),
    (["trace", "classify"], _TRACE, "source_field", 5, ".source_field: expected a list"),
    (["trace", "classify"], _TRACE, "target_field", 7, ".target_field: expected a list"),
    (["trace", "classify"], _TRACE, "pairs", "xy", ".pairs: expected a list"),
    (["trace", "classify"], _TRACE, "pairs", [{"x": "x", "v": "c"}], ".pairs[0].v: expected"),
    (["trace", "classify"], _TRACE, "pairs", [{"x": "x", "v": 3}], ".pairs[0].v: expected"),
    (["trace", "classify"], _TRACE, "source_field", [{"tag": ["a", True]}],
     ".source_field[0].tag: expected"),
    (["lang", "half"], _FRAGMENT, "alphabet", "ab", ".alphabet: expected a list"),
    (["lang", "half"], _FRAGMENT, "alphabet", 5, ".alphabet: expected a list"),
    (["lang", "half"], _FRAGMENT, "alphabet", [["a"]], ".alphabet: expected a list"),
    (["lang", "half"], _FRAGMENT, "words", "ab", ".words: expected a list"),
    (["lang", "half"], _FRAGMENT, "words", ["a", 3], ".words: expected a list"),
    (["lang", "half"], _FRAGMENT, "max_len", True, ".max_len: expected"),
]


def test_malformed_input_exits_2(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"universe": ["0", 7], "sets": []}))
    result = runner.invoke(main, ["dim", str(bad)])
    assert result.exit_code == 2
    assert "$.universe[1]" in result.output
    notjson = tmp_path / "not.json"
    notjson.write_text("{oops")
    assert runner.invoke(main, ["dim", str(notjson)]).exit_code == 2
    assert runner.invoke(main, ["dim", str(tmp_path / "missing.json")]).exit_code == 2
    dup = tmp_path / "dup.json"
    dup.write_text(json.dumps({"elements": ["0", {"pair": ["0", "1"]}, "0"], "le": []}))
    _bad_input_exit(runner.invoke(main, ["otp", str(dup)]), "$.elements[2]: 0 repeats $.elements[0]")
    for argv, base, key, value, where in _MALFORMED:
        path = tmp_path / "input.json"
        path.write_text(json.dumps({**base, key: value}))
        _bad_input_exit(runner.invoke(main, argv + [str(path)]), f"{path}{where}")


def test_non_utf8_file_exits_2(runner, tmp_path):
    bad = tmp_path / "latin1.json"
    bad.write_bytes('{"universe": ["é"], "sets": []}'.encode("latin-1"))
    _bad_input_exit(runner.invoke(main, ["dim", str(bad)]), f"{bad}: not UTF-8 text")


def test_directory_as_file_exits_2(runner, tmp_path):
    _bad_input_exit(runner.invoke(main, ["dim", str(tmp_path)]), f"{tmp_path}: cannot read")


def test_too_deeply_nested_json_exits_2(runner, tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    _bad_input_exit(runner.invoke(main, ["dim", str(deep)]), f"{deep}: JSON nested too deeply")


@pytest.mark.parametrize("shape, rest", [("pair", ["y"]), ("tag", [1]), ("finset", [])])
def test_atoms_answer_at_the_depth_bound_and_exit_2_past_it(tmp_path, shape, rest):
    # a fresh process, so the stack holds only the command line's own frames;
    # op prints the result's repr even under --json, two frames per level
    src = str(Path(ordkit.__file__).parents[1])
    for depth in (ATOM_DEPTH_BOUND, ATOM_DEPTH_BOUND + 1):
        atom = "x"
        for _ in range(depth):
            atom = {shape: [atom, *rest]}
        path = tmp_path / f"depth-{depth}.json"
        path.write_text(json.dumps({"universe": [atom, "z"], "sets": [[atom], [atom, "z"]]}))
        for argv in (["--json", "op", "perp"], ["op", "bang"], ["--json", "dim", "--witness"]):
            result = subprocess.run(
                [sys.executable, "-m", "ordkit.cli", *argv, str(path)],
                env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=20,
            )
            if depth == ATOM_DEPTH_BOUND:
                assert result.returncode == 0, (argv, result.stderr[-200:])
            else:
                where = ".universe[0]" + f".{shape}[0]" * ATOM_DEPTH_BOUND
                assert result.returncode == 2 and result.stdout == "", argv
                assert result.stderr.startswith("error: ")
                assert result.stderr.endswith(
                    f"{where}: atom nested more than {ATOM_DEPTH_BOUND} levels deep\n"
                )


def test_all_suites_pass_at_small_sizes():
    for report in run_suite("all", seed=7, trials=30, max_size=2):
        assert report.ok, f"{report.suite}: {report.failures[:2]}"


_CHAIN = ["chain", "--family", "singl", "--length", "2"]


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["check", "trace-laws", "--max-size", "0"], "--max-size"),
        (["check", "all", "--max-size", "-1"], "--max-size"),
        (["--max-size", "0", "check", "trace-laws"], "--max-size"),
        (["check", "repre", "--trials", "-5"], "--trials"),
        (["--trials", "-5", "check", "repre"], "--trials"),
        (["--max-size", "0", "dim", "unused.json"], "--max-size"),
        (_CHAIN + ["--element-horizon", "-1"], "element_horizon"),
        (_CHAIN + ["--family-horizon", "-3"], "family_horizon"),
    ],
)
def test_bad_limits_exit_2_with_diagnostic(runner, argv, flag):
    _bad_input_exit(runner.invoke(main, argv), f"{flag} must be at least")


def test_check_options_after_the_subcommand_override_the_global_ones(runner):
    argv = ["--json", "--seed", "3", "check", "repre", "--seed", "5", "--trials", "0",
            "--max-size", "2"]
    result = runner.invoke(main, argv)
    assert result.exit_code == 0
    (report,) = json.loads(result.stdout)
    assert (report["seed"], report["trials"]) == (5, 0)
    result = runner.invoke(main, ["--json", "--seed", "3", "check", "repre", "--trials", "0",
                                  "--max-size", "2"])
    assert json.loads(result.stdout)[0]["seed"] == 3
    _bad_input_exit(runner.invoke(main, ["check", "repre", "--trials", "-1"]),
                    "--trials must be at least 0, got -1")


def test_smallest_limits_are_accepted(runner):
    result = runner.invoke(main, ["check", "repre", "--max-size", "1", "--trials", "0"])
    assert result.exit_code == 0


def test_info_reports_lane(runner):
    result = runner.invoke(main, ["--json", "info"])
    assert result.exit_code == 0
    assert json.loads(result.stdout) == {"backend": "python"}
    result = runner.invoke(main, ["info"])
    assert result.exit_code == 0
    assert result.stdout == "backend: python\n"


def test_main_returns_its_exit_code_without_standalone_mode(monkeypatch, tmp_path, capsys):
    from ordkit import kernels

    assert main(["--json", "info"], standalone_mode=False) is None
    assert main(["dim", str(tmp_path / "missing.json")], standalone_mode=False) == 2
    assert main(["dim"], standalone_mode=False) == 2
    assert main(["--help"], standalone_mode=False) == 0
    search = kernels.bad_sequence_rank
    monkeypatch.setattr(kernels, "bad_sequence_rank", lambda up: search(up) + 1)
    argv = ["--trials", "5", "--max-size", "2", "check", "repre"]
    assert main(argv, standalone_mode=False) == 1

    def broken(qo):
        raise RuntimeError("boom")

    monkeypatch.setattr("ordkit.cli.otp", broken)
    qo_path = tmp_path / "chain.json"
    qo_path.write_text(json.dumps({"elements": ["0", "1"], "le": [["0", "1"]]}))
    assert main(["otp", str(qo_path)], standalone_mode=False) == 3
    assert capsys.readouterr().err.endswith("internal error: RuntimeError: boom\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["frobnicate"],
        ["dim"],
        ["--trials", "x", "info"],
        ["op", "frobnicate", "a.json"],
        ["dim", "a.json", "--wit"],
        [],
    ],
    ids=["unknown-command", "missing-positional", "bad-int", "bad-choice", "abbreviation",
         "no-command"],
)
def test_usage_errors_exit_2(runner, argv):
    result = runner.invoke(main, argv)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.startswith("usage: ordkit")
    assert "Traceback" not in result.output


def test_help_shows_the_defaults(runner):
    result = runner.invoke(main, ["--help"])
    assert result.exit_code == 0
    assert "(default: 42)" in result.stdout and "(default: 500)" in result.stdout
    result = runner.invoke(main, ["dim", "--help"])
    assert result.exit_code == 0
    assert "(default: 16)" in result.stdout


def test_importing_the_command_line_loads_no_suites_and_no_dataclasses():
    # a fresh process: this test process has imported the suites already
    src = str(Path(ordkit.__file__).parents[1])
    code = (
        "import json, sys; before = set(sys.modules); import ordkit, ordkit.cli; "
        "print(json.dumps(sorted(set(sys.modules) - before)))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, check=True,
    )
    loaded = set(json.loads(result.stdout))
    assert "ordkit.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "ordkit.checks", "ordkit.generators"}


def test_an_unknown_suite_lists_every_suite_and_exits_2():
    src = str(Path(ordkit.__file__).parents[1])
    result = subprocess.run(
        [sys.executable, "-m", "ordkit.cli", "check", "nosuch"],
        env=dict(os.environ, PYTHONPATH=src, COLUMNS="80"), capture_output=True, text=True,
    )
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == (
        "usage: ordkit check [-h] [--seed SEED] [--trials TRIALS] [--max-size MAX_SIZE]\n"
        "                    [--json]\n"
        "                    {coatomic,dim-bounds,functor-laws,image-ramsey,paper-fixtures,"
        "qo-roundtrip,repre,shuffle-identities,trace-laws,union-ramsey,wqo-ramsey,all}\n"
        "ordkit check: error: argument suite: invalid choice: 'nosuch' (choose from "
        "'coatomic', 'dim-bounds', 'functor-laws', 'image-ramsey', 'paper-fixtures', "
        "'qo-roundtrip', 'repre', 'shuffle-identities', 'trace-laws', 'union-ramsey', "
        "'wqo-ramsey', 'all')\n"
    )
