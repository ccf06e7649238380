"""Golden simulation results, pinned as sha256 digests.

Any change to the simulator must leave every simulated result of these
runs byte-identical; a digest mismatch means behaviour moved. The digests
cover the paper's compare grid (six presets, three policies, k in
{0, 5, 20} with ``derive_seed`` cell seeds), a single-outage sweep of a
parallel program in which two trackers run at once, and dense traces (an
outage every five progress cycles) on small presets, that parallel
program and a fork/join program, so that outages repeat the same tracker
statuses and finished functions many times within one run; the record
of every outage of those runs is pinned on its own. The
``analyze`` artifacts of every preset are pinned too, under the default
configuration and under 16 flip-flops per SLICE on a 37-wide grid, whose
SLICE rows wrap so that address order differs from fill order. So
are the CSVs of ``compare`` on three small presets, written the same by
one process and by two worker processes, and the ``simulate`` report
JSON under every policy.
"""

import hashlib
import json

import pytest

from dftsim import benchgen, cli, powersim, transform
from programs import fork_join_program, two_chain_program

BASE_SEED = 7
KS = (0, 5, 20)

GRID_DIGEST = "b73009773e311f151e70a637d8c7d98d20fa5a8bc415c9eda7050013ac75128f"
SWEEP_DIGEST = "34cdc539736718320d42620f20ca93a9800808a6cf0765095a857c047e9b5e3c"
DENSE_DIGEST = "c562c321e7ef3a991844d420e51451906802c74965c070cdfd7fbd597f24bfa4"
OUTAGE_RECORDS_DIGEST = "3d328321e853947760d716fa0f82e5d0f43cdf90b025790d7d5f68ada1a71d33"
DENSE_PRESETS = ("float", "global", "struct")
ANALYZE_ARTIFACTS = ("cu_table.bin", "placement.txt", "resources.json",
                     "livesets.json", "trackers.json", "normalized.json")
ANALYZE_DIGESTS = {
    ("8", "100x100"): "23530b60cbea3ed0633933c492fa3f8da8e0b06d19422c4d0479c15b20694aab",
    ("16", "37x50"): "466f6d7cbfd3a202436f4c07dd718ff014f30d62e9d4f516b16e75dc55644c45",
}
CLI_PRESETS = ("float", "global", "struct")
COMPARE_CSVS = ("rollback.csv", "ffstores.csv", "bram.csv")
COMPARE_DIGEST = "0471ea66f1107be2cfe211bcd1ac6747a7889141198d7b814beb3f154ef851e6"
SIMULATE_DIGEST = "e579dfcac35d1d8b55ef59801111cbbe7ba57e15a5a35b9437c20a1666f9a787"


def report_row(report, k):
    return [report.policy, k, report.trace.seed, report.total_rollback,
            list(report.per_outage_rollback), report.ff_stores,
            report.slice_store_events, report.store_cost_cycles,
            report.wall_progress_cycles, report.bram_count,
            sorted(report.final_state.items())]


def file_digest(paths):
    h = hashlib.sha256()
    for path in paths:
        h.update(f"{path.name}\n".encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def digest(rows):
    h = hashlib.sha256()
    for row in rows:
        h.update(json.dumps(row).encode() + b"\n")
    return h.hexdigest()


def grid_rows():
    rows = []
    for name in benchgen.PRESETS:
        prep = powersim.prepare(transform.normalize(benchgen.preset_program(name)))
        for pol in powersim.POLICY_NAMES:
            for k in KS:
                seed = powersim.derive_seed(BASE_SEED, name, pol, k, 0)
                trace = powersim.gen_trace(prep.total_cycles, k, seed)
                report = powersim.run(prep.program, powersim.Policy(pol), trace,
                                      prepared=prep)
                assert report.consistent, (name, pol, k)
                rows.append([name] + report_row(report, k))
    return rows


def sweep_rows():
    prep = powersim.prepare(transform.normalize(two_chain_program()))
    rows = []
    for point in range(prep.total_cycles):
        trace = powersim.PowerTrace(points=(point,), seed=point,
                                    total_cycles=prep.total_cycles)
        for pol in powersim.POLICY_NAMES:
            report = powersim.run(prep.program, powersim.Policy(pol), trace,
                                  prepared=prep)
            assert report.consistent, (pol, point)
            rows.append(report_row(report, 1))
    return rows


def dense_programs():
    """(program name, normalized program) of each dense run's program."""
    programs = [(name, transform.normalize(benchgen.preset_program(name)))
                for name in DENSE_PRESETS]
    return programs + [("two-chain", transform.normalize(two_chain_program())),
                       ("fork-join", fork_join_program())]


def dense_reports():
    """(program name, k, report) of each dense run."""
    for name, program in dense_programs():
        prep = powersim.prepare(program)
        k = prep.total_cycles // 5
        for pol in powersim.POLICY_NAMES:
            seed = powersim.derive_seed(BASE_SEED, name, pol, k, 0)
            trace = powersim.gen_trace(prep.total_cycles, k, seed)
            report = powersim.run(prep.program, powersim.Policy(pol), trace,
                                  prepared=prep)
            assert report.consistent, (name, pol)
            assert len(report.outages) == k, (name, pol)
            yield name, k, report


@pytest.fixture(scope="module")
def dense():
    return list(dense_reports())


def test_paper_grid_golden():
    assert digest(grid_rows()) == GRID_DIGEST


def test_two_chain_sweep_golden():
    assert digest(sweep_rows()) == SWEEP_DIGEST


def test_dense_outage_golden(dense):
    assert digest([name] + report_row(report, k) for name, k, report in dense) \
        == DENSE_DIGEST


def test_dense_outage_records_golden(dense):
    # the FFs and SLICEs stored at each outage, which the report only sums
    assert digest([name, report.policy, o.point, o.rollback, o.ff_stored,
                   o.slices_stored]
                  for name, _, report in dense for o in report.outages) \
        == OUTAGE_RECORDS_DIGEST


def test_report_totals_match_the_outage_records(dense):
    programs = dict(dense_programs())
    for name, _, report in dense:
        outages = report.outages
        rollbacks = tuple(o.rollback for o in outages)
        slices = sum(o.slices_stored for o in outages)
        assert report.per_outage_rollback == rollbacks, (name, report.policy)
        assert report.total_rollback == sum(rollbacks), (name, report.policy)
        assert report.slice_store_events == slices, (name, report.policy)
        if report.policy == powersim.CP:
            # one checkpoint per function completion, whatever the trace
            program = programs[name]
            widths = {reg: w for f in program.functions
                      for reg, w in f.region.reg_widths.items()}
            results = [reg for f in program.functions for reg in f.result_regs]
            assert report.ff_stores == sum(widths.get(reg, 32) for reg in results), name
            assert report.store_cost_cycles == len(results), name
        else:
            assert report.ff_stores == sum(o.ff_stored for o in outages), \
                (name, report.policy)
            assert report.store_cost_cycles == slices, (name, report.policy)


@pytest.mark.parametrize("ffs_per_slice,grid", sorted(ANALYZE_DIGESTS))
def test_analyze_artifacts_golden(ffs_per_slice, grid, tmp_path):
    h = hashlib.sha256()
    for name in benchgen.PRESETS:
        assert cli.main(["analyze", "--preset", name, "--ffs-per-slice", ffs_per_slice,
                         "--grid", grid, "--out", str(tmp_path)]) == cli.EXIT_OK
        for artifact in ANALYZE_ARTIFACTS:
            h.update(f"{name}.{artifact}\n".encode())
            h.update((tmp_path / f"{name}.{artifact}").read_bytes())
    assert h.hexdigest() == ANALYZE_DIGESTS[(ffs_per_slice, grid)]


def compare_csvs(out, jobs):
    argv = ["compare", "--outages", "0..5", "--rounds", "3", "--jobs", jobs,
            "--out", str(out)]
    for name in CLI_PRESETS:
        argv += ["--preset", name]
    assert cli.main(argv) == cli.EXIT_OK
    return [out / name for name in COMPARE_CSVS]


def test_compare_csvs_golden(tmp_path):
    one = compare_csvs(tmp_path / "jobs1", "1")
    assert file_digest(one) == COMPARE_DIGEST
    two = compare_csvs(tmp_path / "jobs2", "2")
    assert [p.read_bytes() for p in two] == [p.read_bytes() for p in one]


def test_simulate_reports_golden(tmp_path):
    for policy in powersim.POLICY_NAMES:
        for name in CLI_PRESETS:
            assert cli.main(["simulate", "--preset", name, "--policy", policy,
                             "--outages", "3", "--out", str(tmp_path)]) == cli.EXIT_OK
    assert file_digest(sorted(tmp_path.iterdir())) == SIMULATE_DIGEST
