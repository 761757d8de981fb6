import json

import pytest
from click.testing import CliRunner

from ordkit.checks import run_suite
from ordkit.cli import main

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


def test_ramsey_commands(runner):
    assert runner.invoke(main, ["ramsey", "bound", "3", "3"]).output.strip() == "6"
    assert runner.invoke(main, ["ramsey", "exact", "3", "3"]).output.strip() == "6"
    result = runner.invoke(main, ["ramsey", "verify", "3", "3", "6"])
    assert result.exit_code == 0 and result.output.strip() == "holds"
    result = runner.invoke(main, ["--json", "ramsey", "verify", "3", "3", "5"])
    payload = json.loads(result.output)
    assert payload["holds_at_n"] is False and len(payload["witness"]) == 10


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


def test_check_command_and_determinism(runner):
    args = ["--json", "--trials", "40", "--max-size", "2", "check", "repre"]
    first = runner.invoke(main, args)
    second = runner.invoke(main, args)
    assert first.exit_code == 0 and second.exit_code == 0

    def strip_ms(output):
        reports = json.loads(output)
        for r in reports:
            r.pop("ms")
        return json.dumps(reports, sort_keys=True)

    assert strip_ms(first.output) == strip_ms(second.output)


def test_check_exit_code_contract(runner):
    result = runner.invoke(
        main, ["--trials", "20", "--max-size", "2", "check", "paper-fixtures"]
    )
    assert result.exit_code == 0
    assert "[ok]" in result.output


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


def test_all_suites_pass_at_small_sizes():
    for report in run_suite("all", seed=7, trials=30, max_size=2):
        assert report.ok, f"{report.suite}: {report.failures[:2]}"


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["check", "trace-laws", "--max-size", "0"], "--max-size"),
        (["check", "all", "--max-size", "-1"], "--max-size"),
        (["--max-size", "0", "check", "trace-laws"], "--max-size"),
        (["check", "repre", "--trials", "-5"], "--trials"),
        (["--trials", "-5", "check", "repre"], "--trials"),
        (["--max-size", "0", "dim", "unused.json"], "--max-size"),
    ],
)
def test_bad_limits_exit_2_with_diagnostic(runner, argv, flag):
    result = runner.invoke(main, argv)
    assert result.exit_code == 2
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert result.stdout == ""
    assert result.stderr.startswith(f"error: {flag} must be at least")


def test_smallest_limits_are_accepted(runner):
    result = runner.invoke(main, ["check", "repre", "--max-size", "1", "--trials", "0"])
    assert result.exit_code == 0


def test_info_reports_lane(runner, monkeypatch):
    from ordkit import kernels

    result = runner.invoke(main, ["--json", "info"])
    assert result.exit_code == 0
    payload = json.loads(result.stdout)
    assert payload == {
        "backend": kernels.BACKEND,
        "fallback_reason": kernels.FALLBACK_REASON,
    }
    monkeypatch.setattr(kernels, "BACKEND", "python")
    monkeypatch.setattr(kernels, "FALLBACK_REASON", "ImportError: no lane")
    result = runner.invoke(main, ["info"])
    assert result.stdout == "backend: python\nfallback reason: ImportError: no lane\n"
