"""Runs that start from a state of the uninterrupted run, against the same
runs stepped from cycle 0.

``powersim.run`` starts at the last state of ``Prepared.states`` at or
before the first outage point. A copy of the Prepared whose table holds
only the start state steps every run from cycle 0, so every field of the
two reports must match.
"""

import pytest
from hypothesis import given, settings, strategies as st

from dftsim import benchgen, powersim, tracker as trk, transform
from programs import fork_join_program, two_chain_program

POLICIES = [powersim.Policy(name) for name in powersim.POLICY_NAMES]
SEEDS = range(20)


def prepared(name):
    if name == "fork-join":
        return powersim.prepare(fork_join_program())
    if name == "two-chain":
        return powersim.prepare(transform.normalize(two_chain_program()))
    seed = int(name[3:])
    return powersim.prepare(transform.normalize(
        benchgen.generate(benchgen.random_small_shape(seed))))


def from_zero(prep):
    return prep._replace(states=(prep.start,))


def check(prep, zero, policy, points):
    trace = powersim.PowerTrace(points=tuple(points), seed=0,
                                total_cycles=prep.total_cycles)
    report = powersim.run(prep.program, policy, trace, prepared=prep)
    assert report == powersim.run(prep.program, policy, trace, prepared=zero), (
        policy.name, points)
    assert report.consistent, (policy.name, points)
    assert len(report.outages) == len(points)


@pytest.mark.parametrize("name", [f"rnd{s}" for s in SEEDS] + ["fork-join", "two-chain"])
def test_single_outage_sweep_matches_a_run_from_zero(name):
    prep = prepared(name)
    assert prep.states is None      # built by the first run, not by prepare
    zero = from_zero(prep)
    for point in range(prep.total_cycles):
        for policy in POLICIES:
            check(prep, zero, policy, [point])
        # a run that steps from cycle 0 anyway does not build the table
        assert (prep.states is None) == (point < prep.first_completion)
    # one state per completion, after the start; a state per function
    # unless two complete at the same cycle
    positions = [s.position for s in prep.states]
    assert positions[0] == 0 and positions[-1] == prep.total_cycles
    assert positions[1] == prep.first_completion
    assert positions == sorted(set(positions))
    assert len(prep.states) - 1 <= len(prep.order) == len(prep.states[-1].done)


GUARDED = ("fork-join", "two-chain", "rnd0", "rnd7")


def with_states(name):
    prep = prepared(name)
    powersim.run(prep.program, POLICIES[0],
                 powersim.gen_trace(prep.total_cycles, 0, 0), prepared=prep)
    return prep


def frozen(prep):
    """A copy of everything a run may read from ``prep.start`` and
    ``prep.states``, sharing no mutable object with them: trackers are
    immutable values, so a copy of each state's tracker dict will do."""
    return [(s.position, s.regs, s.running, s.done, s.candidates, dict(s.trackers))
            for s in (prep.start, *prep.states)]


@pytest.mark.parametrize("name", GUARDED)
def test_single_outage_sweep_leaves_the_start_states_unchanged(name):
    # runs read the tracker dict and the registers of the state they start
    # from, so a run that wrote into them would corrupt every later run
    prep = with_states(name)
    before = frozen(prep)
    for point in range(prep.total_cycles):
        for policy in POLICIES:
            trace = powersim.PowerTrace(points=(point,), seed=0,
                                        total_cycles=prep.total_cycles)
            assert powersim.run(prep.program, policy, trace, prepared=prep).consistent
    assert frozen(prep) == before


@pytest.fixture(scope="module")
def preps():
    out = {}
    for name in GUARDED:
        prep = with_states(name)
        out[name] = (prep, from_zero(prep), frozen(prep))
    return out


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(GUARDED), st.sampled_from(POLICIES), st.data())
def test_multi_outage_traces_match_a_run_from_zero(preps, name, policy, data):
    prep, zero, before = preps[name]
    points = data.draw(st.sets(st.integers(0, prep.total_cycles - 1), max_size=12))
    check(prep, zero, policy, sorted(points))
    assert frozen(prep) == before


@pytest.mark.parametrize("name", ("fork-join", "two-chain"))
@pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.name)
def test_outage_at_a_completion_fires_before_the_successors_start(
        name, policy, monkeypatch):
    # The running set at the outage, where each policy reads it: ``dft``
    # and ``fullchip`` hand it to ``tracker.restore``, and ``cp`` reads the
    # start tracker of each running function from ``prep.start``.
    prep = prepared(name)
    zero = from_zero(prep)
    powersim.run(prep.program, policy, powersim.gen_trace(prep.total_cycles, 0, 0),
                 prepared=prep)
    restore = trk.restore
    restored = []
    reads = set()

    def recording(trackers, statuses, live_tables):
        restored.append(set(trackers))
        return restore(trackers, statuses, live_tables)

    class Reads(dict):
        def __getitem__(self, fid):
            reads.add(fid)
            return super().__getitem__(fid)

    monkeypatch.setattr(trk, "restore", recording)
    recorded = prep._replace(start=prep.start._replace(trackers=Reads(prep.start.trackers)))
    for before, state in zip(prep.states, prep.states[1:-1]):
        finished = set(state.done) - set(before.done)
        successors = {s for fid in finished for s in prep.succs[fid]}
        restored.clear()
        reads.clear()
        # the recorded run comes first, and it starts from ``state``
        check(recorded, zero, policy, [state.position])
        seen = reads if policy.name == powersim.CP else restored[0]
        assert seen == set(state.running), state.position
        assert not seen & successors, state.position
    if name == "fork-join":
        # A completes at 8, C at 17, B at 23 and D at 31
        assert [s.position for s in prep.states] == [0, 8, 17, 23, 31]
