"""The generated engine against the dict interpreter.

``CompiledRegion.run`` steps every span through one kernel generated per
distinct region body and bound to the region's register indices: a
guarded copy of the body for a partial head or tail and for the first
``S`` whole iterations (the settle depth), and an unguarded copy of the
variant ops alone (those on a dependency cycle through the body, or
downstream of one) for the whole iterations after those.
``program._interp_region`` shares no code with it. The cuts below end
spans mid-iteration, at seams and across several iterations, so every
path of the generated function runs; after every span the whole register
file must equal the interpreter's state after the same number of cycles.
Start registers are random, so an invariant register that the kernel
stops updating too early holds a value the interpreter does not. The
hand-built bodies below reach what no ``benchgen`` body does: a settle
depth of 2, no variant op, every op variant, and a register written
twice. The golden two-chain program holds its second chain at shifted
register indices, so that chain's kernels are checked bound at a
non-zero index offset.
"""

import hashlib
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from hypothesis import given, settings, strategies as st

from dftsim import benchgen, engine
from dftsim.program import (
    STRAIGHT,
    _ARITY,
    FunctionSchedule,
    Region,
    ScheduledProgram,
    _interp_region,
    _widths_map,
    compile_program,
    validate,
)
from programs import op, two_chain_program


def one_region_program(region):
    f = FunctionSchedule(id="f", regions=(region,), result_regs=frozenset())
    return ScheduledProgram(functions=(f,), dependencies=())


def head(region, cycles):
    """The first ``cycles`` body cycles of one iteration, as a region."""
    return region._replace(kind=STRAIGHT, iterations=1, body_length=cycles,
                           ops=tuple(o for o in region.ops if o.end < cycles))


def check_spans(program, fid, cuts, seed=0):
    """Step region ``fid`` span by span, ending each span at a cut, and
    compare the register file with the interpreter after every span.
    Returns the region's CompiledRegion."""
    widths = _widths_map(program)
    compiled = compile_program(program)
    rng = random.Random(seed)
    start = {reg: rng.getrandbits(32) & ((1 << widths.get(reg, 32)) - 1)
             for reg in compiled.reg_index}
    regfile = compiled.new_regfile(start)
    region = program.function(fid).region
    kernel = compiled.regions[fid]
    L = region.body_length
    total = region.iterations * L
    seam, seam_iters = dict(start), 0    # interpreter state at the last seam
    done = 0
    for cut in sorted(set(cuts) | {total}):
        if not done < cut <= total:
            continue
        kernel.run(regfile, done % L, done % L + cut - done)
        done = cut
        full, tail = divmod(done, L)
        if full > seam_iters:
            _interp_region(region._replace(iterations=full - seam_iters), seam, widths)
            seam_iters = full
        expected = dict(seam)
        if tail:
            _interp_region(head(region, tail), expected, widths)
        actual = {reg: int(regfile[i]) for reg, i in compiled.reg_index.items()}
        assert actual == expected, (fid, done)
    return kernel


def programs():
    out = [benchgen.preset_program(name) for name in benchgen.PRESETS]
    out += [benchgen.generate(benchgen.random_small_shape(s)) for s in range(12)]
    out.append(two_chain_program())
    return out


PROGRAMS = programs()
FUNCTIONS = [(p, f.id) for p in PROGRAMS for f in p.functions]


def test_every_function_in_one_call():
    for program, fid in FUNCTIONS:
        check_spans(program, fid, [])


def test_every_function_seam_by_seam():
    for program, fid in FUNCTIONS:
        region = program.function(fid).region
        L = region.body_length
        check_spans(program, fid, [i * L for i in range(region.iterations)]
                    + [L // 2, 2 * L + 1])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_random_spans(data):
    program, fid = data.draw(st.sampled_from(FUNCTIONS), label="function")
    region = program.function(fid).region
    total = region.iterations * region.body_length
    cuts = data.draw(st.lists(st.integers(1, total), max_size=6), label="cuts")
    check_spans(program, fid, cuts, seed=data.draw(st.integers(0, 99)))


def swap_region(iterations=3):
    # x and y latch together from each other's pre-edge values; z reads
    # both in the same cycle they are overwritten
    ops = (op("sx", "pass", ["y"], "x", 0, 0),
           op("sy", "add", ["x", "k"], "y", 0, 0),
           op("sz", "sub", ["x", "y"], "z", 0, 0),
           op("sk", "xor", ["k", "z"], "k", 1, 2))
    return Region(kind="loop", iterations=iterations, body_length=4,
                  live_in=("x", "y", "k", "z"), ops=ops)


@given(st.lists(st.integers(1, 12), max_size=5))
def test_latch_group_reads_its_own_outputs(cuts):
    check_spans(one_region_program(swap_region()), "f", cuts)


def test_latch_group_swaps_in_one_call():
    program = one_region_program(swap_region(iterations=1))
    compiled = compile_program(program)
    regfile = compiled.new_regfile({"x": 1, "y": 2, "k": 0, "z": 0})
    compiled.regions["f"].run(regfile, 0, 4)
    idx = compiled.reg_index
    assert (int(regfile[idx["x"]]), int(regfile[idx["y"]])) == (2, 1)
    assert int(regfile[idx["z"]]) == 0xFFFFFFFF


def narrow_region():
    ops = (op("c", "const", [], "big", 0, 0, value=0x1234_5678),
           op("d", "sub", ["a", "b"], "d", 0, 1),
           op("m", "mul", ["d", "big"], "m", 2, 2),
           op("p", "pass", ["big"], "n", 1, 1),
           op("acc", "add", ["acc", "d"], "acc", 2, 2))
    widths = {"big": 12, "d": 4, "m": 8, "n": 5, "acc": 8, "a": 8, "b": 8}
    return Region(kind="loop", iterations=5, body_length=3,
                  live_in=("a", "b", "acc"), ops=ops, reg_widths=widths)


@given(st.lists(st.integers(1, 15), max_size=5), st.integers(0, 99))
def test_narrow_widths_and_sub_wrap(cuts, seed):
    check_spans(one_region_program(narrow_region()), "f", cuts, seed)


def test_sub_wraps_to_declared_width():
    program = one_region_program(narrow_region())
    compiled = compile_program(program)
    regfile = compiled.new_regfile({"a": 1, "b": 3, "acc": 0})
    compiled.regions["f"].run(regfile, 0, 15)
    idx = compiled.reg_index
    assert int(regfile[idx["d"]]) == 0xE            # (1 - 3) mod 2^4
    assert int(regfile[idx["acc"]]) == 5 * 0xE & 0xFF
    assert int(regfile[idx["n"]]) == 0x678 & 0x1F


def test_chain_shares_its_kernels_inside_a_two_chain_program():
    chain = benchgen.generate(benchgen.random_small_shape(4))
    pair = two_chain_program()       # chains 3 and 4, chain 4 second
    shifted = compile_program(pair).reg_index
    assert all(shifted[reg] > i for reg, i in compile_program(chain).reg_index.items())
    for f in chain.functions:
        check_spans(chain, f.id, [1, f.region.body_length + 1])
        misses = engine._compile.cache_info().misses
        check_spans(pair, f.id, [1, f.region.body_length + 1])
        assert engine._compile.cache_info().misses == misses, f.id


def test_kernels_differ_in_every_folded_value():
    base = narrow_region()
    variants = [
        base,
        base._replace(reg_widths={**base.reg_widths, "d": 5}),
        base._replace(ops=tuple(o._replace(value=7) if o.id == "c" else o
                                for o in base.ops)),
        base._replace(ops=tuple(o._replace(opcode="xor") if o.id == "acc" else o
                                for o in base.ops)),
        base._replace(body_length=4),
    ]
    codes = []
    for region in variants:
        kernel = check_spans(one_region_program(region), "f", [2, 7])
        codes.append(kernel._span.__code__)
    assert len(set(codes)) == len(variants)


def settle(region):
    """The settle levels and depth of a region's latching ops."""
    return engine._settle([o for o in region.ops if 0 <= o.end < region.body_length])


def settle_cuts(region):
    """Cut lists that end spans in the head, at seams and deep in the
    variant-only loop, and start spans mid-iteration before several whole
    iterations."""
    L = region.body_length
    total = region.iterations * L
    return [[], [1], [L], [1, total - 1], [L + 1, 4 * L + 2],
            [i * L for i in range(region.iterations)], list(range(1, total, 3))]


def check_span_from_any_state(region, lo, cycles, seed):
    """One call of ``cycles`` cycles from body cycle ``lo``, on registers
    that hold random values rather than a state the body reached: the
    interpreter steps the rest of the first iteration, the whole
    iterations and the tail."""
    program = one_region_program(region)
    widths = _widths_map(program)
    compiled = compile_program(program)
    rng = random.Random(seed)
    expected = {reg: rng.getrandbits(32) & ((1 << widths.get(reg, 32)) - 1)
                for reg in compiled.reg_index}
    regfile = compiled.new_regfile(expected)
    compiled.regions["f"].run(regfile, lo, lo + cycles)
    L = region.body_length
    rest = region._replace(kind=STRAIGHT, iterations=1,
                           ops=tuple(o for o in region.ops if o.end >= lo))
    whole, tail = divmod(lo + cycles, L)
    _interp_region(rest if lo + cycles >= L else head(rest, lo + cycles), expected, widths)
    if whole > 1:
        _interp_region(region._replace(iterations=whole - 1), expected, widths)
    if tail and whole:
        _interp_region(head(region, tail), expected, widths)
    actual = {reg: int(regfile[i]) for reg, i in compiled.reg_index.items()}
    assert actual == expected, (lo, cycles, seed)


def check_settle(region, seeds=range(6)):
    program = one_region_program(region)
    for cuts in settle_cuts(region):
        for seed in seeds:
            check_spans(program, "f", cuts, seed)
    L = region.body_length
    for lo in range(L):
        for cycles in (1, L - lo, L - lo + 1, 3 * L + 1, 4 * L - lo):
            for seed in seeds:
                check_span_from_any_state(region, lo, cycles, seed)


def settle_two_region():
    # a reads b from the previous iteration, and b reads only k, so a
    # settles in the second whole iteration; acc reads itself
    ops = (op("a", "add", ["b", "k"], "a", 0, 0),
           op("acc", "add", ["acc", "a"], "acc", 1, 1),
           op("b", "pass", ["k"], "b", 2, 2))
    return Region(kind="loop", iterations=9, body_length=3,
                  live_in=("b", "k", "acc"), ops=ops)


def test_a_previous_iteration_read_settles_in_the_second_iteration():
    region = settle_two_region()
    assert validate(one_region_program(region)) == []
    assert settle(region) == ([2, 0, 1], 2)
    check_settle(region)


def test_a_body_without_a_variant_op_runs_one_whole_iteration():
    ops = (op("x", "add", ["a", "b"], "x", 0, 0),
           op("y", "mul", ["x", "c"], "y", 1, 2),
           op("z", "xor", ["y", "a"], "z", 3, 3))
    region = Region(kind="loop", iterations=7, body_length=4,
                    live_in=("a", "b", "c"), ops=ops)
    assert settle(region) == ([1, 1, 1], 1)
    check_settle(region)
    program = one_region_program(region)
    assert "range(" not in compile_program(program).regions["f"]._source()[0]


def mixed_group_region():
    # cycle 1 latches acc (variant), y (invariant) and w, which reads acc
    # and so is variant though no cycle runs through it; w reads y before
    # the group latches it
    ops = (op("x", "sub", ["a", "k"], "x", 0, 0),
           op("acc", "add", ["acc", "x"], "acc", 1, 1),
           op("y", "xor", ["x", "k"], "y", 1, 1),
           op("w", "sub", ["acc", "y"], "w", 1, 1),
           op("v", "mul", ["w", "y"], "v", 2, 2),
           op("u", "pass", ["y"], "u", 2, 2))
    widths = {"x": 7, "acc": 9, "y": 5, "w": 6, "v": 11, "u": 3}
    return Region(kind="loop", iterations=8, body_length=3,
                  live_in=("a", "k", "acc", "y"), ops=ops, reg_widths=widths)


def test_a_latch_group_mixing_variant_and_invariant_ops():
    region = mixed_group_region()
    assert validate(one_region_program(region)) == []
    assert settle(region) == ([1, 0, 1, 0, 0, 1], 1)
    check_settle(region)


def test_a_body_of_variant_ops_runs_every_op_in_every_iteration():
    region = swap_region(iterations=6)
    assert settle(region) == ([0, 0, 0, 0], 0)
    check_settle(region)


def test_a_register_written_twice_falls_back_to_every_op():
    ops = (op("p", "add", ["a", "b"], "t", 0, 0),
           op("q", "pass", ["a"], "u", 1, 1),
           op("r", "xor", ["u", "b"], "t", 2, 2))
    region = Region(kind="loop", iterations=5, body_length=3,
                    live_in=("a", "b"), ops=ops)
    assert validate(one_region_program(region)) != []
    assert settle(region) == ([0, 0, 0], 0)
    check_settle(region, seeds=range(2))


def test_preset_bodies_settle_in_one_iteration():
    for name in benchgen.PRESETS:
        for f in benchgen.preset_program(name).functions:
            assert settle(f.region)[1] == 1, (name, f.id)


REGS = [f"g{i}" for i in range(6)]


@st.composite
def small_bodies(draw):
    """A random body of at most six ops, each writing its own register:
    inputs read any register, so reads go backwards across the seam and
    into their own latch group, and widths are often narrow."""
    L = draw(st.integers(1, 4))
    outputs = draw(st.lists(st.sampled_from(REGS), min_size=1, max_size=6, unique=True))
    ops = []
    for i, out in enumerate(outputs):
        opcode = draw(st.sampled_from(sorted(_ARITY)))
        arity = {"const": 0, "pass": 1}.get(opcode, 2)
        inputs = draw(st.lists(st.sampled_from(REGS), min_size=arity, max_size=arity))
        end = draw(st.integers(0, L - 1))
        ops.append(op(f"o{i}", opcode, inputs, out, draw(st.integers(0, end)), end,
                      value=draw(st.integers(0, 2**32 - 1))))
    widths = draw(st.dictionaries(st.sampled_from(REGS), st.integers(1, 32)))
    return Region(kind="loop", iterations=draw(st.integers(1, 7)), body_length=L,
                  live_in=tuple(REGS), ops=tuple(ops), reg_widths=widths)


@settings(max_examples=150, deadline=None)
@given(small_bodies(), st.lists(st.integers(1, 28), max_size=5), st.integers(0, 99))
def test_random_small_bodies(region, cuts, seed):
    check_spans(one_region_program(region), "f", cuts, seed)
    L = region.body_length
    check_span_from_any_state(region, seed % L, 1 + seed % (4 * L), seed)


def kernel_programs():
    """The presets and ``random_small_shape`` seeds 0-4: the kinds of body
    that ``paper-grid`` and ``crash-sweep`` run."""
    out = [benchgen.preset_program(name) for name in benchgen.PRESETS]
    return out + [benchgen.generate(benchgen.random_small_shape(s)) for s in range(5)]


LOAD = re.compile(r"    r(\d+) = regs\[i(\d+)\]")
STORE = re.compile(r"    regs\[i(\d+)\] = r(\d+)")


def check_kernel_form(region, widths):
    """A kernel loads exactly the registers that an op of the body reads,
    writes back exactly those that an op both writes and reads, and names
    a register that no op reads only as a ``regs[iK]`` target."""
    kernel = engine.CompiledRegion(region.ops, region.body_length, {}, widths)
    source, slot = kernel._source()
    ops = [o for o in region.ops if 0 <= o.end < region.body_length]
    read = {r for o in ops for r in o.inputs}
    lines = source.split("\n")
    loads = [LOAD.fullmatch(line).groups() for line in lines if LOAD.fullmatch(line)]
    stores = [STORE.fullmatch(line).groups() for line in lines if STORE.fullmatch(line)]
    assert all(a == b for a, b in loads + stores)
    assert sorted(int(a) for a, _ in loads) == sorted(slot[r] for r in read)
    assert {int(a) for a, _ in stores} == {slot[o.output] for o in ops if o.output in read}
    assert lines[1:1 + len(loads)] == [f"    r{s} = regs[i{s}]" for s in sorted(
        slot[r] for r in read)]
    for reg in {o.output for o in ops} - read:
        s = slot[reg]
        assert not re.search(rf"\br{s}\b", source), reg
        for line in lines:
            if f"regs[i{s}]" in line:
                lhs, _, rhs = line.split(": ")[-1].strip().partition(" = ")
                assert f"regs[i{s}]" in lhs.split(", ") and f"i{s}" not in rhs, line
    return source


def test_kernels_load_and_write_back_only_registers_the_body_reads():
    never_read = 0
    for program in kernel_programs():
        widths = _widths_map(program)
        for f in program.functions:
            check_kernel_form(f.region, widths)
            never_read += len({o.output for o in f.region.ops}
                              - {r for o in f.region.ops for r in o.inputs})
    assert never_read
    # v is variant and never read, so the variant-only loop stores it
    source = check_kernel_form(mixed_group_region(), mixed_group_region().reg_widths)
    assert "                regs[i" in source


def narrowing_region():
    # n reads a 12-bit register into 4 bits and x an 8-bit and a 16-bit one
    # into 8 bits, so both keep their masks; y and z read no wider inputs
    # and drop theirs; w and h change from one iteration to the next, and
    # no op reads z
    ops = (op("n", "pass", ["w"], "n", 0, 0),
           op("x", "xor", ["b", "h"], "x", 1, 1),
           op("y", "xor", ["b", "n"], "y", 1, 1),
           op("z", "pass", ["n"], "z", 1, 1),
           op("w", "add", ["w", "x"], "w", 2, 2),
           op("h", "mul", ["h", "y"], "h", 2, 2))
    widths = {"w": 12, "n": 4, "b": 8, "h": 16, "x": 8, "y": 8, "z": 5}
    return Region(kind="loop", iterations=6, body_length=3,
                  live_in=("w", "b", "h"), ops=ops, reg_widths=widths)


def test_a_mask_that_can_change_a_value_is_kept():
    region = narrowing_region()
    assert validate(one_region_program(region)) == []
    kernel = engine.CompiledRegion(region.ops, 3, {}, region.reg_widths)
    source, slot = kernel._source()
    n, w, b, h, x, y = (f"r{slot[reg]}" for reg in "nwbhxy")
    assert f"if lo <= 0 < e: {n} = {w} & 15" in source
    assert (f"if lo <= 1 < e: {x}, {y}, regs[i{slot['z']}] = "
            f"({b} ^ {h}) & 255, {b} ^ {n}, {n}") in source
    check_settle(region)


def test_a_body_that_reads_none_of_its_outputs():
    ops = (op("x", "add", ["a", "b"], "x", 0, 0),
           op("y", "xor", ["a", "b"], "y", 1, 2),
           op("z", "pass", ["b"], "z", 2, 2),
           op("c", "const", [], "c", 1, 1, value=0xFFFF_FFFF))
    region = Region(kind="loop", iterations=5, body_length=3, live_in=("a", "b"), ops=ops,
                    reg_widths={"a": 7, "b": 9, "x": 6, "y": 9, "z": 3, "c": 5})
    source = check_kernel_form(region, region.reg_widths)
    assert not STORE.search(source)
    check_settle(region)


def preset_sources():
    """A digest of the kernel source of every body of ``kernel_programs``."""
    h = hashlib.sha256()
    for program in kernel_programs():
        for kernel in compile_program(program).regions.values():
            h.update(kernel._source()[0].encode())
    return h.hexdigest()


@pytest.mark.parametrize("hash_seed", ["1", "2024"])
def test_kernel_sources_do_not_depend_on_the_hash_seed(hash_seed):
    code = "import test_kernel; print(test_kernel.preset_sources())"
    here = Path(__file__).resolve().parent
    env = {**os.environ, "PYTHONHASHSEED": hash_seed,
           "PYTHONPATH": os.pathsep.join([str(here), str(here.parent / "src")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == preset_sources()
