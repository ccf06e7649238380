"""Command-line front end: analyze, simulate, compare.

``analyze`` runs the offline pipeline (normalize, tracker planning, live
sets, placement, address table) and writes its artifacts. ``simulate``
performs one intermittent run and serializes the report. ``compare``
sweeps outage counts over seeded Monte Carlo rounds and emits CSV grids.
Every command normalizes its program and validates the normalized
program (in ``powersim.prepare``), so all three accept the same programs.

Every command takes ``--program`` or ``--preset`` (``compare`` several,
the others exactly one), ``--grid``, ``--ffs-per-slice`` and ``--out``.
``simulate`` and ``compare`` add ``--outages``, ``--seed`` and
``--policy`` (one for ``simulate``, default ``dft``; any number for
``compare``, default all); ``compare`` alone takes ``--rounds`` and
``--jobs``. An option that a command does not take is a usage error.
``compare`` names each source's rows by its preset or file stem, so two
sources of one name, or a repeated policy, are a configuration error.

Exit codes: 0 success, 2 validation or usage error (argparse also exits 2
for a value it rejects, such as ``--ffs-per-slice 4``), 3
crash-consistency violation (stderr names the first diverging register
and ends with a ``dftsim simulate`` command that reruns the run), 4
configuration error (including an ``--out`` that names a file or a path
under one). Output directory defaults to $DFTSIM_OUT or cwd. It is
created only once the program is read, validated and prepared, so a run
that exits 2 or 4 leaves no new directory.

``compare`` writes three CSV files. In ``rollback.csv`` and
``ffstores.csv`` each row is one (benchmark, policy, k) cell, in the
order of the sources, then the policies, then k, and ``mean``/``stddev``
are the mean and population standard deviation over the cell's reports,
the ``rounds`` runs that ``powersim.run_monte_carlo`` returns for it:

* ``rollback.csv``: total roll-back cycles of one run, summed over its
  k outages;
* ``ffstores.csv``: flip-flops stored in one run (``ff_stores`` of
  ``powersim.SimulationReport``);
* ``bram.csv``: one row per benchmark, with ``states`` its functions
  after normalization and ``bram_dft``/``bram_cp`` counts of 18 Kb block
  RAMs (the address table under ``dft``, one per state under ``cp``).

Every compare cell derives its trace seed as
``base_seed XOR sha256(benchmark:policy:k:round)[:8]`` (see
``powersim.derive_seed``), so any cell is reproducible standalone via
``simulate --seed <derived> --outages <k>`` with the cell's source,
``--policy``, and ``--grid`` and ``--ffs-per-slice``.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import shlex
import sys
from concurrent.futures import ProcessPoolExecutor
from functools import cache
from pathlib import Path
from statistics import fmean, pstdev
from typing import List, Optional, Sequence, Tuple

from . import benchgen, placement, powersim, transform
from .control_unit import serialize_table
from .liveness import TRACKED
from .program import ParseError, ProgramError, parse_program, serialize_program

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CONSISTENCY = 3
EXIT_CONFIG = 4

GRID = (100, 100)
FFS_PER_SLICE = 8


class ConfigError(Exception):
    pass


def _parse_outages(text: str) -> Tuple[int, int]:
    """Accept 'K' or 'A..B' (inclusive)."""
    try:
        if ".." in text:
            a, b = text.split("..", 1)
            lo, hi = int(a), int(b)
        else:
            lo = hi = int(text)
    except ValueError:
        raise ConfigError(f"bad outage range '{text}' (expected K or A..B)")
    if lo < 0 or hi < lo:
        raise ConfigError(f"bad outage range '{text}'")
    return lo, hi


def _parse_grid(text: str) -> Tuple[int, int]:
    try:
        w, h = text.lower().split("x", 1)
        w, h = int(w), int(h)
    except ValueError:
        raise ConfigError(f"bad grid '{text}' (expected WxH)")
    if w < 1 or h < 1:
        raise ConfigError(f"bad grid '{text}' (need W and H at least 1)")
    return w, h


def _load_sources(args) -> List[Tuple[str, str]]:
    """(benchmark name, source) pairs; source is a path or preset name."""
    out = []
    for path in args.program or []:
        out.append((Path(path).stem, f"path:{path}"))
    for name in args.preset or []:
        out.append((name, f"preset:{name}"))
    if not out:
        raise ConfigError("need --program or --preset")
    return out


def _check_distinct(sources: Sequence[Tuple[str, str]], policies: Sequence[str]) -> None:
    """``compare`` rows and trace seeds are keyed by benchmark name and
    policy, so neither may repeat."""
    seen = {}
    for name, source in sources:
        if name in seen:
            raise ConfigError(f"benchmark name '{name}' is given twice, by "
                              f"{shlex.join(_option(seen[name]))} and "
                              f"{shlex.join(_option(source))}")
        seen[name] = source
    for i, policy in enumerate(policies):
        if policy in policies[:i]:
            raise ConfigError(f"--policy {policy} is given twice")


def _option(source: str) -> List[str]:
    """The option that names ``source``, such as ``--preset aes``."""
    kind, _, ref = source.partition(":")
    return ["--preset" if kind == "preset" else "--program", ref]


def _one_source(args) -> Tuple[str, str]:
    sources = _load_sources(args)
    if len(sources) != 1:
        raise ConfigError(f"{args.command} takes exactly one --program or --preset")
    return sources[0]


def _load_program(source: str):
    kind, _, ref = source.partition(":")
    if kind == "preset":
        if ref not in benchgen.PRESETS:
            raise ConfigError(f"unknown preset '{ref}' (have {', '.join(benchgen.PRESETS)})")
        return benchgen.preset_program(ref)
    try:
        text = Path(ref).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read program {ref}: {exc.strerror or exc}")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text (byte {exc.start})", ref)
    return parse_program(text)


def _out_dir(args) -> Path:
    """The output directory, made if missing; each command calls this
    just before its first write."""
    path = Path(args.out or os.environ.get("DFTSIM_OUT") or ".")
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot use output directory {path}: {exc.strerror or exc}")
    return path


def _prepare_source(source: str, grid: Tuple[int, int], ffs_per_slice: int):
    program = transform.normalize(_load_program(source))
    config = powersim.SimConfig(ffs_per_slice=ffs_per_slice, grid=grid)
    return program, powersim.prepare(program, config)


def _simulate_command(source: str, grid: Tuple[int, int], ffs_per_slice: int) -> str:
    """The start of a ``dftsim simulate`` command line for ``source``, with
    ``--grid`` and ``--ffs-per-slice`` when they are not the defaults."""
    words = ["dftsim", "simulate", *_option(source)]
    if grid != GRID:
        words += ["--grid", f"{grid[0]}x{grid[1]}"]
    if ffs_per_slice != FFS_PER_SLICE:
        words += ["--ffs-per-slice", str(ffs_per_slice)]
    return shlex.join(words)


def _check_outages(name: str, k: int, prep) -> None:
    """Outages fire at distinct progress points, so k must stay below the
    program's progress cycles."""
    if k >= prep.total_cycles:
        raise ConfigError(
            f"{name}: --outages {k} needs fewer outages than the program's "
            f"{prep.total_cycles} progress cycles")


def cmd_analyze(args) -> int:
    name, source = _one_source(args)
    program, prep = _prepare_source(source, _parse_grid(args.grid), args.ffs_per_slice)
    table_blob = serialize_table(prep.table)   # may not fit: fail before any write

    out = _out_dir(args)
    (out / f"{name}.normalized.json").write_text(serialize_program(program))
    trackers = {
        fid: {"width": s.width, "iterations": s.iterations,
              "body_length": s.body_length, "mode": s.mode,
              "max_cycles": s.max_cycles}
        for fid, s in sorted(prep.specs.items())
    }
    (out / f"{name}.trackers.json").write_text(json.dumps(trackers, indent=2) + "\n")
    livesets = {
        fid: {"body_length": t.body_length,
              "set_sizes": [len(s) for s in t.live],
              "resume": list(t.resume)}
        for fid, t in sorted(prep.live_tables.items())
    }
    (out / f"{name}.livesets.json").write_text(json.dumps(livesets, indent=2) + "\n")
    (out / f"{name}.placement.txt").write_text(prep.placement.dump())
    (out / f"{name}.cu_table.bin").write_bytes(table_blob)

    per_fn = {}
    for fid, spec in sorted(prep.specs.items()):
        tracked = spec.mode == TRACKED
        entry = {"mode": spec.mode, "width": spec.width,
                 "tracker_ffs": spec.ffs if tracked else 0,
                 "tracker_luts": placement.tracker_resources(spec.width)[1] if tracked else 0}
        if 4 <= spec.width <= 9:
            cf, cl, cb = placement.cu_resources(spec.width)
            entry["cu_ffs"], entry["cu_luts"], entry["cu_brams"] = cf, cl, cb
        per_fn[fid] = entry
    summary = {
        "benchmark": name,
        "states": len(program.functions),
        "bram_dft": prep.brams[powersim.DFT],
        "bram_cp": prep.brams[powersim.CP],
        "table_bits": prep.table.total_bits,
        "slices_used": len(prep.placement.slice_ffs),
        "total_cycles": prep.total_cycles,
        "chip": {"ffs": placement.CHIP_FFS, "luts": placement.CHIP_LUTS,
                 "brams": placement.CHIP_BRAMS, "slices": placement.CHIP_SLICES},
        "functions": per_fn,
    }
    (out / f"{name}.resources.json").write_text(json.dumps(summary, indent=2) + "\n")
    print(f"analyzed {name}: {summary['states']} states, "
          f"bram_dft={summary['bram_dft']}, slices={summary['slices_used']}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    name, source = _one_source(args)
    lo, hi = _parse_outages(args.outages)
    if lo != hi:
        raise ConfigError("simulate takes a single outage count")
    grid = _parse_grid(args.grid)
    program, prep = _prepare_source(source, grid, args.ffs_per_slice)
    _check_outages(name, lo, prep)
    trace = powersim.gen_trace(prep.total_cycles, lo, args.seed)
    report = powersim.run(program, powersim.Policy(args.policy), trace, prepared=prep)
    doc = {
        "benchmark": name,
        "policy": report.policy,
        "seed": trace.seed,
        "outage_points": list(trace.points),
        "total_rollback": report.total_rollback,
        "per_outage_rollback": list(report.per_outage_rollback),
        "ff_stores": report.ff_stores,
        "bram_count": report.bram_count,
        "slice_store_events": report.slice_store_events,
        "store_cost_cycles": report.store_cost_cycles,
        "wall_progress_cycles": report.wall_progress_cycles,
        "consistent": report.consistent,
        "final_state": report.final_state,
    }
    path = _out_dir(args) / f"{name}.{report.policy}.k{lo}.report.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"{name}/{report.policy}/k={lo}: rollback={report.total_rollback} "
          f"ff_stores={report.ff_stores} consistent={report.consistent}")
    if report.consistent:
        return EXIT_OK
    command = _simulate_command(source, grid, args.ffs_per_slice)
    print(f"{name}/{report.policy}/k={lo}: {powersim.divergence(report, command)}",
          file=sys.stderr)
    return EXIT_CONSISTENCY


@cache
def _worker_prep(source: str, grid: Tuple[int, int], ffs_per_slice: int):
    return _prepare_source(source, grid, ffs_per_slice)


def _run_cell(job) -> Tuple[Tuple[float, float], Tuple[float, float]]:
    """(mean, stddev) of the roll-back and of the FFs stored over the
    cell's reports."""
    (name, source, policy, k, rounds, base_seed, grid, ffs_per_slice) = job
    program, prep = _worker_prep(source, grid, ffs_per_slice)
    reports = powersim.run_monte_carlo(
        program, [powersim.Policy(policy)], [k], rounds, base_seed, benchmark=name,
        command=_simulate_command(source, grid, ffs_per_slice), prepared=prep)[(policy, k)]
    rollback = [r.total_rollback for r in reports]
    ffs = [r.ff_stores for r in reports]
    return (fmean(rollback), pstdev(rollback)), (fmean(ffs), pstdev(ffs))


def cmd_compare(args) -> int:
    sources = _load_sources(args)
    policies = args.policy or list(powersim.POLICY_NAMES)
    _check_distinct(sources, policies)
    lo, hi = _parse_outages(args.outages)
    if args.rounds < 1:
        raise ConfigError(f"bad --rounds {args.rounds} (need at least 1)")
    if args.jobs < 1:
        raise ConfigError(f"bad --jobs {args.jobs} (need at least 1)")
    ks = list(range(lo, hi + 1))
    grid = _parse_grid(args.grid)
    _worker_prep.cache_clear()    # read each program file again
    for name, source in sources:
        _check_outages(name, hi, _worker_prep(source, grid, args.ffs_per_slice)[1])
    out = _out_dir(args)          # before the cells run, so a bad --out fails fast

    jobs = [(name, source, pol, k, args.rounds, args.seed, grid, args.ffs_per_slice)
            for name, source in sources for pol in policies for k in ks]
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(_run_cell, jobs))
    else:
        results = [_run_cell(j) for j in jobs]

    with open(out / "rollback.csv", "w", newline="\n") as rollback, \
            open(out / "ffstores.csv", "w", newline="\n") as ffstores:
        writers = [csv.writer(fh, lineterminator="\n") for fh in (rollback, ffstores)]
        for w in writers:
            w.writerow(["benchmark", "policy", "k", "mean", "stddev", "rounds", "seed"])
        # results come in job order, which is the rows' order
        for (name, _, pol, k, *_), stats in zip(jobs, results):
            for w, (mean, std) in zip(writers, stats):
                w.writerow([name, pol, k, f"{mean:.6f}", f"{std:.6f}",
                            args.rounds, args.seed])
    with open(out / "bram.csv", "w", newline="\n") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["benchmark", "states", "bram_dft", "bram_cp"])
        for name, source in sources:
            program, prep = _worker_prep(source, grid, args.ffs_per_slice)
            w.writerow([name, len(program.functions),
                        prep.brams[powersim.DFT], prep.brams[powersim.CP]])
    print(f"wrote rollback.csv, ffstores.csv, bram.csv to {out}")
    return EXIT_OK


COMMANDS = {"analyze": cmd_analyze, "simulate": cmd_simulate, "compare": cmd_compare}


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dftsim",
        description="Tracker-based checkpoint simulation for non-volatile FPGAs")
    sub = parser.add_subparsers(dest="command", required=True)
    analyze, simulate, compare = (sub.add_parser(name) for name in COMMANDS)
    for p in (analyze, simulate, compare):
        p.add_argument("--program", action="append", metavar="PATH",
                       help="program description JSON")
        p.add_argument("--preset", action="append", metavar="NAME",
                       help=f"built-in benchmark shape ({', '.join(benchgen.PRESETS)})")
        p.add_argument("--grid", default=f"{GRID[0]}x{GRID[1]}", metavar="WxH")
        p.add_argument("--ffs-per-slice", type=int, choices=(8, 16), default=FFS_PER_SLICE)
        p.add_argument("--out", default=None, metavar="DIR",
                       help="output directory (default: $DFTSIM_OUT or .)")
    for p, outages in ((simulate, "K"), (compare, "K|A..B")):
        p.add_argument("--outages", default="0", metavar=outages)
        p.add_argument("--seed", type=int, default=1)
    simulate.add_argument("--policy", default="dft", choices=list(powersim.POLICY_NAMES))
    compare.add_argument("--policy", action="append", choices=list(powersim.POLICY_NAMES),
                         help="policy to compare; repeatable (default: all)")
    compare.add_argument("--rounds", type=int, default=10)
    compare.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_CONFIG
    except powersim.ConsistencyError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_CONSISTENCY
    except ProgramError as exc:  # parse errors, split breaks, invalid programs
        print(str(exc), file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
