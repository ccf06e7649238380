"""Exit codes of the command-line front end."""

import json
import re
import shlex

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
from programs import make_main_program


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
    for command, extra in (("analyze", []), ("simulate", []), ("compare", ["--rounds", "1"])):
        code = cli.main([command, "--program", str(path), "--out", str(tmp_path), *extra])
        assert code == cli.EXIT_VALIDATION, command
        assert "split dataflow break" in capsys.readouterr().err, command


def const_fn(fid, *regs):
    """A function of one straight region per register, each writing it."""
    regions = tuple(Region(kind="straight", iterations=1, body_length=1,
                           ops=(Operation(id=f"{fid}_{reg}", opcode="const", inputs=(),
                                          output=reg, start=0, end=0, value=1),))
                    for reg in regs)
    return FunctionSchedule(id=fid, regions=regions, result_regs=frozenset(regs))


@pytest.mark.parametrize("program,message", [
    (ScheduledProgram(functions=(const_fn("F", "a", "b"), const_fn("F__s1", "c")),
                      dependencies=()),
     "function id F__s1, made from region 1 of F, is already taken"),
    (ScheduledProgram(functions=(const_fn("main__m0", "c"),), dependencies=(),
                      main_sequence=(("op", Operation(id="m", opcode="const", inputs=(),
                                                      output="q", start=0, end=0)),
                                     ("call", "main__m0"))),
     "function id main__m0, made from loose main-sequence ops, is already taken"),
], ids=("split-fragment", "main-run"))
def test_a_generated_function_id_that_is_taken_exits_validation(program, message, tmp_path,
                                                                 capsys):
    path = tmp_path / "clash.json"
    path.write_text(serialize_program(program))
    for command, extra in (("analyze", []), ("simulate", []), ("compare", ["--rounds", "1"])):
        code = cli.main([command, "--program", str(path), "--out", str(tmp_path), *extra])
        assert code == cli.EXIT_VALIDATION, command
        assert capsys.readouterr().err == message + "\n", command


def test_analyze_accepts_a_read_through_the_main_sequence(tmp_path):
    # F2 reads F1's result r1, and only the main sequence orders them: the
    # raw program has no dependency, the normalized one has (F1, F2)
    path = tmp_path / "main.json"
    path.write_text(serialize_program(make_main_program()))
    out = tmp_path / "out"
    assert cli.main(["analyze", "--program", str(path), "--out", str(out)]) == cli.EXIT_OK
    normalized = json.loads((out / "main.normalized.json").read_text())
    assert normalized["dependencies"] == [["F1", "F2"]]


def test_a_function_called_twice_by_the_main_sequence_exits_validation(tmp_path, capsys):
    # the parser names the second call; merge would chain the two calls
    # into the self-edge (F, F) and report a dependency cycle
    doc = {"functions": [straight_fn("F")], "dependencies": [],
           "main": {"sequence": [{"call": "F"}, {"call": "F"}]}}
    path = tmp_path / "twice.json"
    path.write_text(json.dumps(doc))
    for command, extra in (("analyze", []), ("simulate", []), ("compare", ["--rounds", "1"])):
        code = cli.main([command, "--program", str(path), "--out", str(tmp_path), *extra])
        assert code == cli.EXIT_VALIDATION, command
        assert capsys.readouterr().err == (
            "main.sequence[1]: function 'F' is called more than once\n"), command


def pass_fn(fid, op_id, src, dst, widths=None, start=0, end=0, opcode="pass"):
    """A function of one two-cycle straight region, with live-in ``a``,
    whose one op reads ``src`` into ``dst``."""
    region = {"kind": "straight", "iterations": 1, "body_length": 2, "live_in": ["a"],
              "ops": [{"id": op_id, "opcode": opcode, "inputs": src, "output": dst,
                       "start": start, "end": end}]}
    if widths:
        region["reg_widths"] = widths
    return {"id": fid, "result_regs": [dst], "regions": [region]}


@pytest.mark.parametrize("functions,message", [
    ([pass_fn("f", "o", ["a"], "y", opcode="add")],
     "bad-arity [f/o]: add takes 2 inputs, got 1"),
    ([pass_fn("f", "o", ["a"], "y", start=1, end=0)],
     "bad-span [f/o]: invalid cycle span [1, 0]"),
    ([pass_fn("f", "o", ["b"], "y")],
     "undefined-input [f/o]: b is never written and not a live-in"),
    ([pass_fn("f", "o", ["a"], "y"), pass_fn("g", "o", ["a"], "z")],
     "duplicate-op-id [g/o]: op id also used in f"),
    ([pass_fn("f", "o", ["a"], "y", widths={"a": 8}),
      pass_fn("g", "p", ["a"], "z", widths={"a": 16})],
     "width-conflict [a]: declared 8 bits in f, 16 bits in g"),
], ids=("bad-arity", "bad-span", "undefined-input", "duplicate-op-id", "width-conflict"))
def test_a_program_that_breaks_a_validate_rule_exits_validation(functions, message, tmp_path,
                                                                capsys):
    # the schema accepts each document; validate names the rule and the entity
    path = tmp_path / "invalid.json"
    path.write_text(json.dumps({"functions": functions, "dependencies": [],
                                "inputs": {"a": 1}}))
    for command, extra in (("analyze", []), ("simulate", []), ("compare", ["--rounds", "1"])):
        code = cli.main([command, "--program", str(path), "--out", str(tmp_path), *extra])
        assert code == cli.EXIT_VALIDATION, command
        assert capsys.readouterr().err == message + "\n", command


@pytest.mark.parametrize("argv", [["simulate", "--outages", "100"],
                                  ["compare", "--outages", "0..100", "--rounds", "1"]],
                         ids=("simulate-100", "compare-0..100"))
def test_outages_past_progress_cycles_exit_config(argv, tmp_path, capsys):
    # global has 34 progress cycles, so at most 33 distinct outage points
    code = cli.main(argv + ["--preset", "global", "--out", str(tmp_path)])
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

    monkeypatch.setattr(powersim, "validate", counting)
    extra = ["--rounds", "1"] if command == "compare" else []
    code = cli.main([command, "--program", str(two_loop_path), "--out", str(tmp_path), *extra])
    assert code == cli.EXIT_OK
    assert normalized == [True]


@pytest.mark.parametrize("argv,message", [
    (["simulate", "--program", "/nonexistent/p.json"],
     "cannot read program /nonexistent/p.json: No such file or directory"),
    (["simulate", "--preset", "nosuch"], "unknown preset 'nosuch'"),
    (["compare", "--preset", "global", "--rounds", "0"], "bad --rounds 0"),
    (["compare", "--preset", "global", "--jobs", "0"], "bad --jobs 0 (need at least 1)"),
    (["compare", "--preset", "global", "--jobs", "-2"], "bad --jobs -2 (need at least 1)"),
    (["analyze", "--preset", "struct", "--preset", "float"],
     "analyze takes exactly one --program or --preset"),
    (["simulate", "--preset", "global", "--grid", "0x5"], "bad grid '0x5'"),
    (["analyze", "--preset", "global", "--grid=-3x5"], "bad grid '-3x5'"),
], ids=("missing-file", "unknown-preset", "zero-rounds", "zero-jobs", "negative-jobs",
        "two-sources", "zero-grid", "negative-grid"))
def test_bad_arguments_exit_config(argv, message, tmp_path, capsys):
    code = cli.main(argv + ["--out", str(tmp_path)])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["analyze", "--policy", "dft"], ["analyze", "--outages", "1"],
    ["analyze", "--rounds", "1"], ["analyze", "--seed", "3"], ["analyze", "--jobs", "2"],
    ["simulate", "--rounds", "1"], ["simulate", "--jobs", "2"],
], ids=lambda argv: argv[0] + argv[1][1:])
def test_options_a_command_does_not_read_are_usage_errors(argv, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--preset", "global", "--out", str(tmp_path / "out")])
    assert exc.value.code == 2     # argparse's usage error
    assert "unrecognized arguments" in capsys.readouterr().err
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
    # stricter than Draft-7, as the schema's $comment says
    (("inputs",), {"a": 1.0}, "inputs: value of 'a' must be an integer"),
    (("inputs",), {"a": -1}, "inputs: value of 'a' must not be negative"),
    (REGION + ("ops", 0, "value"), -3, "functions[0].regions[0].ops[0]: value must not be negative"),
    (REGION + ("ops", 0, "start"), -1, "functions[0].regions[0].ops[0]: start must not be negative"),
    (FN + ("id",), 5, "functions[0]: id must be a string"),
    (REGION + ("ops", 0, "output"), 5, "functions[0].regions[0].ops[0]: output must be a string"),
    (("dependencies",), [["f", 5]],
     "dependencies[0]: dependency must be a [pred, succ] pair of ids"),
    (("main",), {"sequence": [{"call": "f", "op": {}}]},
     "main.sequence[0]: item must carry exactly one of 'call' and 'op'"),
    (("bogus",), 1, "top: unknown field 'bogus'"),
    (FN + ("bogus",), 1, "functions[0]: unknown field 'bogus'"),
    (REGION + ("bogus",), 1, "functions[0].regions[0]: unknown field 'bogus'"),
    (REGION + ("ops", 0, "bogus"), 1, "functions[0].regions[0].ops[0]: unknown field 'bogus'"),
    (("main",), {"sequence": [], "bogus": 1}, "main: unknown field 'bogus'"),
], ids=("functions-not-list", "function-not-object", "dependencies-not-list",
        "main-not-object", "main-item-not-object", "region-not-object", "ops-not-list",
        "result-regs-not-list", "result-reg-not-string", "live-in-not-string",
        "boolean-iterations", "string-input", "boolean-input", "float-input",
        "negative-input", "negative-op-value", "negative-op-start",
        "function-id-not-string", "op-output-not-string", "dependency-id-not-string",
        "main-item-call-and-op", "unknown-top-field", "unknown-function-field",
        "unknown-region-field", "unknown-op-field", "unknown-main-field"))
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


def test_compare_prepares_each_source_once(tmp_path, monkeypatch):
    # the check pass, the cells and bram.csv all read the same prepared
    # program, however many sources there are
    calls = []
    prepare_source = cli._prepare_source

    def counting(source, grid, ffs_per_slice):
        calls.append(source)
        return prepare_source(source, grid, ffs_per_slice)

    monkeypatch.setattr(cli, "_prepare_source", counting)
    argv = ["compare", "--policy", "dft", "--rounds", "1", "--out", str(tmp_path / "out")]
    for name in ("p1", "p2", "p3"):
        path = tmp_path / f"{name}.json"
        path.write_text(serialize_program(two_loop_program()))
        argv += ["--program", str(path)]
    for name in ("adpcm", "aes", "float", "global", "gsm", "struct"):
        argv += ["--preset", name]
    assert cli.main(argv) == cli.EXIT_OK
    assert len(calls) == len(set(calls)) == 9


def test_programs_with_the_same_stem_get_their_own_rows(tmp_path):
    longer = ScheduledProgram(
        functions=(FunctionSchedule(id="g", regions=(loop("b1", "acc", 40),),
                                    result_regs=frozenset(["acc"])),),
        dependencies=(), default_inputs={"acc": 3, "s": 7})
    paths = []
    for sub, program in (("one", two_loop_program()), ("two", longer)):
        (tmp_path / sub).mkdir()
        paths.append(tmp_path / sub / "prog.json")
        paths[-1].write_text(serialize_program(program))

    def rows(*programs):
        out = tmp_path / f"out{len(programs)}_{programs[0].parent.name}"
        argv = ["compare", "--policy", "cp", "--outages", "1", "--rounds", "4",
                "--out", str(out)]
        for path in programs:
            argv += ["--program", str(path)]
        assert cli.main(argv) == cli.EXIT_OK
        return (out / "rollback.csv").read_text().splitlines()[1:]

    alone = [rows(path) for path in paths]
    assert alone[0] != alone[1]
    assert rows(*paths) == alone[0] + alone[1]
    # a program file rewritten between two runs in one process is read again
    paths[0].write_text(paths[1].read_text())
    assert rows(paths[0]) == alone[1]


def one_loop_doc(iterations, body_length, n_results):
    """One loop function whose const ops write the 32-bit results r0, r1, ...
    at cycles 0, 1, ..."""
    ops = [{"id": f"o{i}", "opcode": "const", "inputs": [], "output": f"r{i}",
            "start": i, "end": i, "value": i} for i in range(n_results)]
    return {"functions": [{"id": "f", "result_regs": [op["output"] for op in ops],
                           "regions": [{"kind": "loop", "iterations": iterations,
                                        "body_length": body_length, "live_in": [],
                                        "ops": ops}]}],
            "dependencies": [], "inputs": {}}


def test_a_table_too_large_for_its_binary_form_exits_validation(tmp_path, capsys):
    # 3,000 status rows of up to 30 four-SLICE registers: 358,385 pool
    # entries, past the u16 pool start of cu_table.bin
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(one_loop_doc(2, 3000, 30)))
    out = tmp_path / "out"
    code = cli.main(["analyze", "--program", str(path), "--out", str(out)])
    assert code == cli.EXIT_VALIDATION
    assert capsys.readouterr().err == ("address table too large for its binary form: "
                                       "row 563 has pool start 65585, above 65535\n")
    assert not out.exists()
    code = cli.main(["simulate", "--program", str(path), "--out", str(out)])
    assert code == cli.EXIT_OK


def test_an_untrackable_length_names_its_function(tmp_path, capsys):
    path = tmp_path / "long.json"
    path.write_text(json.dumps(one_loop_doc(70000, 2, 1)))
    code = cli.main(["analyze", "--program", str(path), "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_VALIDATION
    assert capsys.readouterr().err == (
        "untrackable length of f: max(iterations, body_length) = 70000 "
        "exceeds the 16-bit ceiling\n")


@pytest.mark.parametrize("command", ("analyze", "simulate", "compare"))
@pytest.mark.parametrize("under,reason", ((False, "File exists"), (True, "Not a directory")),
                         ids=("file", "under-file"))
def test_an_out_that_is_not_a_directory_exits_config(command, under, reason, tmp_path, capsys):
    blocker = tmp_path / "taken"
    blocker.write_text("")
    out = blocker / "out" if under else blocker
    code = cli.main([command, "--preset", "global", "--out", str(out)])
    assert code == cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"cannot use output directory {out}: {reason}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]


@pytest.mark.parametrize("argv,code", [
    (["analyze", "--program", "{bad}"], cli.EXIT_VALIDATION),
    (["simulate", "--program", "{bad}"], cli.EXIT_VALIDATION),
    (["compare", "--program", "{bad}"], cli.EXIT_VALIDATION),
    (["simulate", "--preset", "global", "--outages", "100"], cli.EXIT_CONFIG),
    (["compare", "--preset", "global", "--outages", "0..100"], cli.EXIT_CONFIG),
    (["compare", "--preset", "global", "--program", "{bad}"], cli.EXIT_VALIDATION),
], ids=("analyze-parse", "simulate-parse", "compare-parse", "simulate-outages",
        "compare-outages", "compare-second-source"))
def test_a_failing_command_makes_no_out_directory(argv, code, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"functions": 3}))
    out = tmp_path / "new" / "out"
    argv = [str(bad) if a == "{bad}" else a for a in argv]
    assert cli.main(argv + ["--out", str(out)]) == code
    assert [p.name for p in tmp_path.iterdir()] == ["bad.json"]


def corrupt_cp_runs(monkeypatch):
    """Flip one bit of the last register of every ``cp`` run with an
    outage, so that ``compare`` and ``simulate`` see the same divergence."""
    run = powersim.run

    def corrupting(program, policy, trace, *, prepared):
        report = run(program, policy, trace, prepared=prepared)
        if policy.name == "cp" and trace.points:
            reg = max(report.final_state)
            report.final_state = {**report.final_state, reg: report.final_state[reg] ^ 1}
        return report

    monkeypatch.setattr(powersim, "run", corrupting)


@pytest.mark.parametrize("options, shown", [
    ([], []),
    (["--grid", "60x50", "--ffs-per-slice", "16"], ["--grid", "60x50", "--ffs-per-slice", "16"]),
    (["--grid", "100X100", "--ffs-per-slice", "8"], []),
])
@pytest.mark.parametrize("kind", ["preset", "program"])
def test_an_inconsistent_run_prints_a_command_that_reproduces_it(kind, options, shown,
                                                                 two_loop_path, tmp_path,
                                                                 monkeypatch, capsys):
    corrupt_cp_runs(monkeypatch)
    source = ["--preset", "struct"] if kind == "preset" else ["--program", str(two_loop_path)]
    out = ["--out", str(tmp_path / "out")]
    argv = ["compare", *source, *options, "--policy", "dft", "--policy", "cp",
            "--outages", "0..2", "--rounds", "2", "--seed", "5", *out]
    assert cli.main(argv) == cli.EXIT_CONSISTENCY
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    case, _, text = err.partition(": ")
    reg = re.match(r"final state diverged from reference at (\S+): ", text).group(1)
    command = shlex.split(text.rpartition("reproduce with ")[2])
    name = "struct" if kind == "preset" else "twoloop"
    seed = powersim.derive_seed(5, name, "cp", 1, 0)
    assert case == f"{name}/cp/k=1/round=0"
    assert command == ["dftsim", "simulate", *source, *shown,
                       "--policy", "cp", "--outages", "1", "--seed", str(seed)]

    assert cli.main(command[1:] + out) == cli.EXIT_CONSISTENCY
    lines = capsys.readouterr()
    assert lines.out.endswith("consistent=False\n")
    case, _, again = lines.err.partition(": ")
    assert case == f"{name}/cp/k=1"
    assert again == text
    assert f"at {reg}: " in again
