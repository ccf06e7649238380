"""Intermittent runs: fork/join crash consistency, the event-driven
scheduler, and consistency-failure reports."""

import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from dftsim import benchgen, powersim, tracker as trk, transform
from dftsim.program import (
    FunctionSchedule,
    ProgramError,
    Region,
    ScheduledProgram,
    execute_reference,
    validate,
)
from programs import fn, fork_join_program, op, two_chain_program

POLICIES = [powersim.Policy(name) for name in powersim.POLICY_NAMES]


@pytest.fixture(scope="module")
def fork_join():
    program = fork_join_program()
    assert validate(program) == []
    return powersim.prepare(program)


def test_fork_join_shape(fork_join):
    # B (15 cycles) and C (9 cycles) overlap, so the longer one sets the pace
    assert fork_join.total_cycles == 8 + 15 + 8
    assert fork_join.succs["A"] == ("B", "C")
    assert fork_join.preds["D"] == ("B", "C")


@pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.name)
def test_fork_join_uninterrupted(fork_join, policy):
    trace = powersim.gen_trace(fork_join.total_cycles, 0, 0)
    report = powersim.run(fork_join.program, policy, trace, prepared=fork_join)
    assert report.final_state == execute_reference(fork_join.program)
    assert report.wall_progress_cycles == powersim.makespan(fork_join.program)


@pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.name)
def test_fork_join_single_outage_sweep(fork_join, policy):
    reference = execute_reference(fork_join.program)
    for point in range(fork_join.total_cycles):
        trace = powersim.PowerTrace(points=(point,), seed=point,
                                    total_cycles=fork_join.total_cycles)
        report = powersim.run(fork_join.program, policy, trace, prepared=fork_join)
        assert len(report.outages) == 1
        assert report.final_state == reference, (policy.name, point)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(POLICIES), st.integers(0, 20), st.integers(0, 2**32))
@example(POLICIES[0], 5, 2)   # C rolls back at 11 while B, the longer branch, does not
def test_fork_join_multi_outage(fork_join, policy, k, seed):
    # every traced outage fires, also when a roll-back does not delay the end
    trace = powersim.gen_trace(fork_join.total_cycles, k, seed)
    report = powersim.run(fork_join.program, policy, trace, prepared=fork_join)
    assert len(report.outages) == k
    assert report.consistent


@pytest.mark.parametrize("program", ("fork-join", "two-chain"))
@pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.name)
def test_wall_from_every_start_state_without_outages(program, policy):
    # a k=0 run from any state of the uninterrupted run steps the rest of
    # it: its wall clock ends at the makespan
    prep = powersim.prepare(fork_join_program() if program == "fork-join"
                            else transform.normalize(two_chain_program()))
    trace = powersim.gen_trace(prep.total_cycles, 0, 0)
    powersim.run(prep.program, policy, trace, prepared=prep)
    for i in range(len(prep.states)):
        upto = prep._replace(states=prep.states[:i + 1])
        report = powersim.run(prep.program, policy, trace, prepared=upto)
        assert report.wall_progress_cycles == prep.total_cycles, i
        assert report.consistent, i


@pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.name)
def test_wall_is_makespan_plus_rollback_on_chains(policy):
    # In a chain one function runs at a time, so every cycle of roll-back
    # is stepped again and nothing else: a single outage anywhere costs
    # exactly its roll-back in wall cycles.
    for seed in range(40):
        prep = powersim.prepare(benchgen.generate(benchgen.random_small_shape(seed)))
        for point in range(prep.total_cycles):
            trace = powersim.PowerTrace(points=(point,), seed=0,
                                        total_cycles=prep.total_cycles)
            report = powersim.run(prep.program, policy, trace, prepared=prep)
            assert report.wall_progress_cycles == (
                prep.total_cycles + report.total_rollback), (seed, point)


def test_trackers_start_only_on_completions(monkeypatch):
    # one check per function at the start of the run, then one per
    # successor of each completing function: A starts B and C, each of B
    # and C checks D. The first run on a fresh Prepared steps the
    # uninterrupted run for its state table; a k=0 run then starts after
    # the last completion and checks none.
    calls = []

    def counting(fid, preds, done):
        calls.append(fid)
        return can_start(fid, preds, done)

    can_start = trk.can_start
    monkeypatch.setattr(trk, "can_start", counting)
    prep = powersim.prepare(fork_join_program())
    trace = powersim.gen_trace(prep.total_cycles, 0, 0)
    powersim.run(prep.program, POLICIES[0], trace, prepared=prep)
    assert calls == ["A", "B", "C", "D", "B", "C", "D", "D"]
    calls.clear()
    report = powersim.run(prep.program, POLICIES[0], trace, prepared=prep)
    assert calls == []
    assert report.consistent


def test_one_kernel_call_per_function_without_outages(monkeypatch):
    from dftsim.engine import CompiledRegion

    program = benchgen.preset_program("adpcm")
    prep = powersim.prepare(program)
    spans = []
    run = CompiledRegion.run

    def recording(self, regs, c_lo, c_hi):
        spans.append((c_lo, c_hi))
        return run(self, regs, c_lo, c_hi)

    monkeypatch.setattr(CompiledRegion, "run", recording)
    trace = powersim.gen_trace(prep.total_cycles, 0, 0)
    report = powersim.run(program, POLICIES[0], trace, prepared=prep)
    assert report.consistent
    assert len(spans) == len(program.functions)
    assert sum(hi - lo for lo, hi in spans) == prep.total_cycles


def test_consistency_error_names_first_diverging_register():
    program = benchgen.generate(benchgen.random_small_shape(3))
    prep = powersim.prepare(program)
    regs = sorted(prep.reference)
    true = dict(prep.reference)
    for reg in (regs[-1], regs[0]):
        prep.reference[reg] ^= 1
    seed = powersim.derive_seed(11, "rnd3", "cp", 2, 0)
    with pytest.raises(powersim.ConsistencyError) as exc:
        powersim.run_monte_carlo(program, [powersim.Policy("cp")], [2], 1, 11,
                                 benchmark="rnd3", prepared=prep)
    message = str(exc.value)
    assert f"at {regs[0]}: expected {true[regs[0]] ^ 1}, got {true[regs[0]]}" in message
    assert f"trace seed {seed}" in message
    assert regs[-1] not in message


def test_corrupt_status_raises_on_a_repeated_key(fork_join, monkeypatch):
    # the per-run store-set memo must not hide the address table's range
    # check: A's statuses at points 2..6 are 2, 3, 4, 1, 2, so the fifth
    # outage repeats the first key; there A reports one past its row range
    from dftsim.control_unit import ControlUnitError

    snapshot = trk.snapshot
    seen = []

    def corrupting(trackers, boundary):
        out = snapshot(trackers, boundary)
        seen.append(dict(out))
        if len(seen) == 5:
            assert seen[4] == seen[0] == {"A": 2}
            out["A"] = len(fork_join.table.blocks["A"]) - 1
        return out

    monkeypatch.setattr(trk, "snapshot", corrupting)
    trace = powersim.PowerTrace(points=(2, 3, 4, 5, 6), seed=0,
                                total_cycles=fork_join.total_cycles)
    with pytest.raises(ControlUnitError, match="corrupt status 5 for A"):
        powersim.run(fork_join.program, POLICIES[0], trace, prepared=fork_join)
    assert len(seen) == 5


def test_fullchip_rejects_a_status_past_the_body(fork_join, monkeypatch):
    # fullchip reads no address table, so only the roll-back's own range
    # check stands between a corrupt status and a wrong resume point; at
    # point 2 only A runs, at status 2 of its 4-cycle body
    boundary_status = trk.TrackerState.boundary_status

    def corrupting(tracker):
        status = boundary_status(tracker)
        return tracker.spec.body_length + 1 if status else status

    monkeypatch.setattr(trk.TrackerState, "boundary_status", corrupting)
    trace = powersim.PowerTrace(points=(2,), seed=0, total_cycles=fork_join.total_cycles)
    with pytest.raises(trk.StatusCorruptionError, match=r"status 5 of A is outside the counter range \[0, 4\]"):
        powersim.run(fork_join.program, powersim.Policy(powersim.FULLCHIP), trace,
                     prepared=fork_join)


@pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.name)
def test_outages_compute_only_what_the_policy_reads(fork_join, policy, monkeypatch):
    # only dft reads emitted statuses, and only dft and fullchip hand
    # boundary statuses to the roll-back; cp reads neither
    calls = {"snapshot": 0, "boundary_status": 0}
    snapshot = trk.snapshot
    boundary_status = trk.TrackerState.boundary_status

    def counting_snapshot(trackers, boundary):
        calls["snapshot"] += 1
        return snapshot(trackers, boundary)

    def counting_status(tracker):
        calls["boundary_status"] += 1
        return boundary_status(tracker)

    monkeypatch.setattr(trk, "snapshot", counting_snapshot)
    monkeypatch.setattr(trk.TrackerState, "boundary_status", counting_status)
    trace = powersim.PowerTrace(points=(2, 6, 9, 12, 17, 20, 25, 30), seed=0,
                                total_cycles=fork_join.total_cycles)
    report = powersim.run(fork_join.program, policy, trace, prepared=fork_join)
    assert report.consistent
    assert len(report.outages) == len(trace.points)
    assert calls["snapshot"] == (len(trace.points) if policy.name == powersim.DFT else 0)
    if policy.name == powersim.CP:
        assert calls["boundary_status"] == 0
    else:
        assert calls["boundary_status"] >= len(trace.points)


def test_dense_runs_keep_their_hook_counts(monkeypatch):
    # a dft and a fullchip run on aes with an outage every 5 cycles on
    # average; the counts are pinned, so that a leaner outage path can
    # neither skip nor repeat a call that a test or a span hooks
    from dftsim.control_unit import ControlUnitTable
    from dftsim.engine import CompiledRegion

    prep = powersim.prepare(transform.normalize(benchgen.preset_program("aes")))
    counts = {}

    def count(owner, name):
        inner = getattr(owner, name)

        def counting(*args):
            counts[name] = counts.get(name, 0) + 1
            return inner(*args)

        monkeypatch.setattr(owner, name, counting)

    for owner, name in ((CompiledRegion, "run"), (trk.TrackerState, "advance"),
                        (trk.TrackerState, "boundary_status"), (trk, "restore"),
                        (trk, "snapshot"), (trk, "can_start"), (ControlUnitTable, "row")):
        count(owner, name)
    trace = powersim.gen_trace(prep.total_cycles, prep.total_cycles // 5, 11)
    for policy in (powersim.DFT, powersim.FULLCHIP):
        report = powersim.run(prep.program, powersim.Policy(policy), trace, prepared=prep)
        assert report.consistent
        assert len(report.outages) == 3460
    assert counts == {"run": 6930, "advance": 6928, "boundary_status": 6914,
                      "restore": 6920, "snapshot": 3460, "can_start": 30, "row": 107}


@pytest.mark.parametrize("points,message", [
    ((5, 3), "outage point 3 (index 1) does not follow 5"),
    ((3, 3), "outage point 3 (index 1) does not follow 3"),
    ((2, 9, 9, 4), "outage point 9 (index 2) does not follow 9"),
    ((34,), "outage point 34 (index 0) is outside [0, 34)"),
    ((38,), "outage point 38 (index 0) is outside [0, 34)"),
    ((-1,), "outage point -1 (index 0) is outside [0, 34)"),
    ((0, 33, 34), "outage point 34 (index 2) is outside [0, 34)"),
])
def test_malformed_trace_names_its_first_bad_point(points, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        powersim.PowerTrace(points=points, seed=0, total_cycles=34)


def test_trace_for_another_program_is_rejected():
    prep = powersim.prepare(transform.normalize(benchgen.preset_program("global")))
    assert prep.total_cycles == 34
    for total in (33, 35):
        trace = powersim.PowerTrace(points=(3,), seed=0, total_cycles=total)
        with pytest.raises(ValueError, match=f"trace is for {total} progress "
                                             "cycles, the program has 34"):
            powersim.run(prep.program, POLICIES[0], trace, prepared=prep)
    # the edges of the range are valid points
    trace = powersim.PowerTrace(points=(0, 33), seed=0, total_cycles=34)
    for policy in POLICIES:
        report = powersim.run(prep.program, policy, trace, prepared=prep)
        assert [o.point for o in report.outages] == [0, 33]
        assert report.consistent


def test_prepare_reports_every_violation():
    # an op latching past the body, and a result register nothing writes
    program = ScheduledProgram(
        functions=(fn("f", "straight", 1, 2, [op("o", "add", ["x", "x"], "y", 0, 2)],
                      ["x"], ["z"]),),
        dependencies=(), default_inputs={"x": 1})
    violations = [str(v) for v in validate(program)]
    assert len(violations) >= 2
    with pytest.raises(ProgramError) as exc:
        powersim.prepare(program)
    assert str(exc.value).splitlines() == violations


def test_a_width_declared_by_a_reader_holds_program_wide():
    # F1 writes `a` and declares no width for it; its successor F2 reads `a`
    # and declares it 8 bits wide, which the engine applies to F1's write
    f1 = fn("F1", "straight", 1, 2, [op("o1", "const", [], "a", 0, 1, value=0x1FE)],
            [], ["a"])
    f2 = FunctionSchedule(id="F2", regions=(Region(
        kind="straight", iterations=1, body_length=1, live_in=("a",),
        ops=(op("o2", "pass", ["a"], "b", 0, 0),), reg_widths={"a": 8}),),
        result_regs=frozenset(["b"]))
    program = ScheduledProgram(functions=(f1, f2), dependencies=(("F1", "F2"),))
    assert validate(program) == []
    assert execute_reference(program) == {"a": 254, "b": 254}
    prep = powersim.prepare(program)
    # one 8-FF SLICE for `a`, so F1's smallest tracker (15 FFs) costs more
    # than the registers it guards
    assert prep.placement.regs["a"].bit_count() == 1
    assert prep.specs["F1"].mode == "store_all"
    assert prep.specs["F2"].mode == "tracked"
    for policy in POLICIES:
        for point in range(prep.total_cycles):
            trace = powersim.PowerTrace(points=(point,), seed=0,
                                        total_cycles=prep.total_cycles)
            assert powersim.run(program, policy, trace, prepared=prep).consistent


def sweep_digest():
    """SHA-256 of the reports of a single-outage sweep of the two-chain
    program under every policy; a report's repr names every field."""
    prep = powersim.prepare(transform.normalize(two_chain_program()))
    digest = hashlib.sha256()
    for point in range(prep.total_cycles):
        trace = powersim.PowerTrace(points=(point,), seed=0, total_cycles=prep.total_cycles)
        for policy in POLICIES:
            report = powersim.run(prep.program, policy, trace, prepared=prep)
            digest.update(repr(report).encode())
    return digest.hexdigest()


def test_reports_do_not_depend_on_the_hash_seed():
    # records hash by their fields, and string hashes differ between
    # processes; a run that iterated a set of them could differ too
    code = "import test_powersim; print(test_powersim.sweep_digest())"
    here = Path(__file__).resolve().parent
    digests = []
    for hash_seed in ("1", "2024"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed,
               "PYTHONPATH": os.pathsep.join([str(here), str(here.parent / "src")])}
        digests.append(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                      capture_output=True, text=True).stdout)
    assert len(digests[0].strip()) == 64 and digests[0] == digests[1]
