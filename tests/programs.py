"""Builders of the small test programs that several test modules share."""

from dftsim import benchgen
from dftsim.program import FunctionSchedule, Operation, Region, ScheduledProgram


def op(oid, opcode, inputs, output, start, end, value=0):
    return Operation(id=oid, opcode=opcode, inputs=tuple(inputs), output=output,
                     start=start, end=end, value=value)


def straight(ops, length, live_in=(), widths=None):
    return Region(kind="straight", iterations=1, body_length=length,
                  live_in=tuple(live_in), ops=tuple(ops),
                  reg_widths=widths or {})


def loop(ops, length, iters, live_in=()):
    return Region(kind="loop", iterations=iters, body_length=length,
                  live_in=tuple(live_in), ops=tuple(ops))


def fn(fid, kind, iterations, length, ops, live_in, results):
    region = Region(kind=kind, iterations=iterations, body_length=length,
                    live_in=tuple(live_in), ops=tuple(ops))
    return FunctionSchedule(id=fid, regions=(region,), result_regs=frozenset(results))


def fork_join_program():
    """A -> {B, C} -> D: B and C run at once, for different lengths, and D
    reads the results of both."""
    a = fn("A", "loop", 2, 4,
           [op("a0", "add", ["x", "y"], "a1", 0, 1),
            op("a1", "mul", ["a1", "x"], "a2", 2, 2),
            op("a2", "add", ["aacc", "a2"], "aacc", 3, 3)],
           ["x", "y", "aacc"], ["a1", "aacc"])
    b = fn("B", "loop", 3, 5,
           [op("b0", "xor", ["a1", "bacc"], "b1", 0, 2),
            op("b1", "sub", ["b1", "a1"], "b2", 3, 3),
            op("b2", "add", ["bacc", "b2"], "bacc", 4, 4)],
           ["a1", "bacc"], ["bacc", "b2"])
    c = fn("C", "straight", 1, 9,
           [op("c0", "mul", ["aacc", "aacc"], "c1", 0, 3),
            op("c1", "const", [], "c2", 2, 2, value=0x9E3779B9),
            op("c2", "add", ["c1", "c2"], "c3", 4, 7),
            op("c3", "sub", ["c3", "aacc"], "c4", 8, 8)],
           ["aacc"], ["c4"])
    d = fn("D", "loop", 2, 4,
           [op("d0", "add", ["bacc", "c4"], "d1", 0, 0),
            op("d1", "xor", ["d1", "b2"], "d2", 1, 2),
            op("d2", "add", ["dacc", "d2"], "dacc", 3, 3)],
           ["bacc", "c4", "b2", "dacc"], ["dacc", "d2"])
    return ScheduledProgram(
        functions=(a, b, c, d),
        dependencies=(("A", "B"), ("A", "C"), ("B", "D"), ("C", "D")),
        default_inputs={"x": 0xDEAD, "y": 0xBEEF, "aacc": 3, "bacc": 5, "dacc": 7})


def two_chain_program():
    """Two random small chains side by side, so two trackers run at once."""
    a = benchgen.generate(benchgen.random_small_shape(3))
    b = benchgen.generate(benchgen.random_small_shape(4))
    return ScheduledProgram(functions=a.functions + b.functions,
                            dependencies=a.dependencies + b.dependencies,
                            default_inputs={**a.default_inputs, **b.default_inputs})


def make_main_program(head_ops=(), mid_ops=(), tail_ops=()):
    f1 = FunctionSchedule(id="F1", regions=(straight(
        [op("f1o", "add", ["x", "x"], "r1", 0, 0)], 1, live_in=["x"]),),
        result_regs=frozenset(["r1"]))
    f2 = FunctionSchedule(id="F2", regions=(straight(
        [op("f2o", "add", ["r1", "m0"], "r2", 0, 0)], 1,
        live_in=["r1", "m0"]),), result_regs=frozenset(["r2"]))
    seq = [("op", o) for o in head_ops] + [("call", "F1")] \
        + [("op", o) for o in mid_ops] + [("call", "F2")] \
        + [("op", o) for o in tail_ops]
    return ScheduledProgram(functions=(f1, f2), dependencies=(),
                            main_sequence=tuple(seq),
                            default_inputs={"x": 5, "m0": 0})
