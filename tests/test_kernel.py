"""The generated engine against the dict interpreter.

``CompiledRegion.run`` steps every span through one kernel generated per
distinct region body and bound to the region's register indices: a
guarded copy of the body for a partial head or tail and an unguarded copy
for the whole iterations between them. ``program._interp_region`` shares
no code with it. The cuts below end spans mid-iteration, at seams and
across several iterations, so every path of the generated function runs;
after every span the whole register file must equal the interpreter's
state after the same number of cycles. The golden two-chain program holds
its second chain at shifted register indices, so that chain's kernels are
checked bound at a non-zero index offset.
"""

import random
from dataclasses import replace

from hypothesis import given, settings, strategies as st

from dftsim import benchgen, engine
from dftsim.program import (
    STRAIGHT,
    FunctionSchedule,
    Region,
    ScheduledProgram,
    _interp_region,
    _widths_map,
    compile_program,
)
from programs import op, two_chain_program


def one_region_program(region):
    f = FunctionSchedule(id="f", regions=(region,), result_regs=frozenset())
    return ScheduledProgram(functions=(f,), dependencies=())


def head(region, cycles):
    """The first ``cycles`` body cycles of one iteration, as a region."""
    return replace(region, kind=STRAIGHT, iterations=1, body_length=cycles,
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
            _interp_region(replace(region, iterations=full - seam_iters), seam, widths)
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
        replace(base, reg_widths={**base.reg_widths, "d": 5}),
        replace(base, ops=tuple(replace(o, value=7) if o.id == "c" else o
                                for o in base.ops)),
        replace(base, ops=tuple(replace(o, opcode="xor") if o.id == "acc" else o
                                for o in base.ops)),
        replace(base, body_length=4),
    ]
    codes = []
    for region in variants:
        kernel = check_spans(one_region_program(region), "f", [2, 7])
        codes.append(kernel._span.__code__)
    assert len(set(codes)) == len(variants)
