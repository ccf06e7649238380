"""Exit codes of the command-line front end."""

import json

import pytest

from dftsim import cli, powersim
from dftsim.program import (
    FunctionSchedule,
    Operation,
    Region,
    ScheduledProgram,
    serialize_program,
    validate,
)


def loop(oid, reg, iters):
    return Region(kind="loop", iterations=iters, body_length=2,
                  live_in=(reg, "s"),
                  ops=(Operation(id=oid, opcode="add", inputs=(reg, "s"),
                                 output=reg, start=0, end=0),))


def two_loop_program():
    # two loop-carried accumulators under one function; normalize splits it
    f = FunctionSchedule(id="f", regions=(loop("a1", "acc1", 3), loop("a2", "acc2", 4)),
                         result_regs=frozenset(["acc1", "acc2"]))
    return ScheduledProgram(functions=(f,), dependencies=(),
                            default_inputs={"acc1": 1, "acc2": 2, "s": 10})


def straight_fn(fid):
    return {"id": fid, "result_regs": [], "regions": [
        {"kind": "straight", "iterations": 1, "body_length": 1,
         "live_in": [], "ops": []}]}


@pytest.fixture
def two_loop_path(tmp_path):
    path = tmp_path / "twoloop.json"
    path.write_text(serialize_program(two_loop_program()))
    return path


def test_analyze_split_program_exits_ok(two_loop_path, tmp_path):
    out = tmp_path / "out"
    code = cli.main(["analyze", "--program", str(two_loop_path), "--out", str(out)])
    assert code == cli.EXIT_OK
    normalized = json.loads((out / "twoloop.normalized.json").read_text())
    assert [f["id"] for f in normalized["functions"]] == ["f__s0", "f__s1"]


def test_simulate_split_program_is_consistent(two_loop_path, tmp_path):
    code = cli.main(["simulate", "--program", str(two_loop_path), "--outages", "3",
                     "--out", str(tmp_path)])
    assert code == cli.EXIT_OK


def test_dependency_cycle_exits_validation(tmp_path, capsys):
    doc = {"functions": [straight_fn("f1"), straight_fn("f2")],
           "dependencies": [["f1", "f2"], ["f2", "f1"]], "inputs": {}}
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps(doc))
    code = cli.main(["analyze", "--program", str(path), "--out", str(tmp_path)])
    assert code == cli.EXIT_VALIDATION
    assert "dependencies: dependency cycle" in capsys.readouterr().err


def test_split_dataflow_break_exits_validation(tmp_path, capsys):
    # region 0 reads `late`, which only region 1 writes: validate accepts the
    # raw function, normalize cannot split it
    first = Region(kind="straight", iterations=1, body_length=1, live_in=("late",),
                   ops=(Operation(id="o1", opcode="pass", inputs=("late",),
                                  output="y", start=0, end=0),))
    second = Region(kind="straight", iterations=1, body_length=1,
                    ops=(Operation(id="o2", opcode="const", inputs=(), output="late",
                                   start=0, end=0, value=3),))
    f = FunctionSchedule(id="bad", regions=(first, second), result_regs=frozenset(["y"]))
    path = tmp_path / "bad.json"
    path.write_text(serialize_program(ScheduledProgram(functions=(f,), dependencies=())))
    for command in ("analyze", "simulate", "compare"):
        code = cli.main([command, "--program", str(path), "--out", str(tmp_path),
                         "--rounds", "1"])
        assert code == cli.EXIT_VALIDATION, command
        assert "split dataflow break" in capsys.readouterr().err, command


@pytest.mark.parametrize("command,outages", [("simulate", "100"), ("compare", "0..100")])
def test_outages_past_progress_cycles_exit_config(command, outages, tmp_path, capsys):
    # global has 34 progress cycles, so at most 33 distinct outage points
    code = cli.main([command, "--preset", "global", "--outages", outages,
                     "--rounds", "1", "--out", str(tmp_path)])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "--outages 100" in err and "34 progress cycles" in err
    assert not list(tmp_path.iterdir())   # compare ran no cell


@pytest.mark.parametrize("command", ("analyze", "simulate", "compare"))
def test_normalized_program_validated_once(command, two_loop_path, tmp_path, monkeypatch):
    normalized = []

    def counting(program):
        normalized.append(program.is_normalized)
        return validate(program)

    monkeypatch.setattr(cli, "validate", counting)
    monkeypatch.setattr(powersim, "validate", counting)
    code = cli.main([command, "--program", str(two_loop_path), "--out", str(tmp_path),
                     "--rounds", "1"])
    assert code == cli.EXIT_OK
    # analyze also validates the raw program, before normalizing it
    assert normalized == ([False, True] if command == "analyze" else [True])


@pytest.mark.parametrize("argv,message", [
    (["simulate", "--program", "/nonexistent/p.json"],
     "cannot read program /nonexistent/p.json: No such file or directory"),
    (["simulate", "--preset", "nosuch"], "unknown preset 'nosuch'"),
    (["compare", "--preset", "global", "--rounds", "0"], "bad --rounds 0"),
    (["analyze", "--preset", "struct", "--preset", "float"],
     "analyze takes exactly one --program or --preset"),
], ids=("missing-file", "unknown-preset", "zero-rounds", "two-sources"))
def test_bad_arguments_exit_config(argv, message, tmp_path, capsys):
    code = cli.main(argv + ["--out", str(tmp_path)])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err
    assert not list(tmp_path.iterdir())


def test_binary_program_file_exits_validation(tmp_path, capsys):
    path = tmp_path / "blob.json"
    path.write_bytes(b"{\xb7\x00")
    code = cli.main(["simulate", "--program", str(path), "--out", str(tmp_path)])
    assert code == cli.EXIT_VALIDATION
    assert capsys.readouterr().err == f"{path}: not UTF-8 text (byte 1)\n"


def set_path(doc, path, value):
    *parents, last = path
    for key in parents:
        doc = doc[key]
    doc[last] = value


FN = ("functions", 0)
REGION = FN + ("regions", 0)


@pytest.mark.parametrize("path,value,located", [
    (("functions",), 5, "top: functions must be a list"),
    (("functions",), [5], "functions[0]: must be an object"),
    (("dependencies",), 5, "top: dependencies must be a list"),
    (("main",), 5, "main: must be an object"),
    (("main",), {"sequence": [5]}, "main.sequence[0]: must be an object"),
    (FN + ("regions",), [5], "functions[0].regions[0]: must be an object"),
    (REGION + ("ops",), 5, "functions[0].regions[0]: ops must be a list"),
    (FN + ("result_regs",), 5, "functions[0]: result_regs must be a list of register ids"),
    (FN + ("result_regs",), [5], "functions[0]: result_regs must be a list of register ids"),
    (REGION + ("live_in",), [5], "functions[0].regions[0]: live_in must be a list of register ids"),
    (REGION + ("iterations",), True, "functions[0].regions[0]: iterations must be a positive integer"),
    (("inputs",), {"a": "x"}, "inputs: value of 'a' must be an integer"),
    (("inputs",), {"a": True}, "inputs: value of 'a' must be an integer"),
], ids=("functions-not-list", "function-not-object", "dependencies-not-list",
        "main-not-object", "main-item-not-object", "region-not-object", "ops-not-list",
        "result-regs-not-list", "result-reg-not-string", "live-in-not-string",
        "boolean-iterations", "string-input", "boolean-input"))
def test_malformed_program_exits_validation(path, value, located, tmp_path, capsys):
    doc = {"functions": [{"id": "f", "result_regs": ["y"], "regions": [
        {"kind": "straight", "iterations": 1, "body_length": 1, "live_in": ["a"],
         "ops": [{"id": "o", "opcode": "pass", "inputs": ["a"], "output": "y",
                  "start": 0, "end": 0}]}]}],
        "dependencies": [], "inputs": {"a": 1}}
    set_path(doc, path, value)
    prog_path = tmp_path / "p.json"
    prog_path.write_text(json.dumps(doc))
    code = cli.main(["analyze", "--program", str(prog_path), "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_VALIDATION
    assert capsys.readouterr().err == located + "\n"
