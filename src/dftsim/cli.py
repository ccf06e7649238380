"""Command-line front end: analyze, simulate, compare.

``analyze`` runs the offline pipeline (normalize, tracker planning, live
sets, placement, address table) and writes its artifacts. ``simulate``
performs one intermittent run and serializes the report. ``compare``
sweeps outage counts over seeded Monte Carlo rounds and emits CSV grids.

Exit codes: 0 success, 2 validation error, 3 crash-consistency violation,
4 configuration error. Output directory defaults to $DFTSIM_OUT or cwd.

``compare`` writes three CSV files. In ``rollback.csv`` and
``ffstores.csv`` each row is one (benchmark, policy, k) cell, and
``mean``/``stddev`` are the mean and population standard deviation over
its ``rounds`` runs:

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
``simulate --seed <derived> --outages <k>``.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from functools import lru_cache
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from . import benchgen, placement, powersim, transform
from .control_unit import serialize_table
from .liveness import TRACKED
from .program import ParseError, ProgramError, parse_program, serialize_program, validate

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CONSISTENCY = 3
EXIT_CONFIG = 4


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
        return int(w), int(h)
    except ValueError:
        raise ConfigError(f"bad grid '{text}' (expected WxH)")


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
    out = args.out or os.environ.get("DFTSIM_OUT") or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _prepare_source(source: str, grid: Tuple[int, int], ffs_per_slice: int):
    program = transform.normalize(_load_program(source))
    config = powersim.SimConfig(ffs_per_slice=ffs_per_slice, grid=grid)
    return program, powersim.prepare(program, config)


def _check_outages(name: str, k: int, prep) -> None:
    """Outages fire at distinct progress points, so k must stay below the
    program's progress cycles."""
    if k >= prep.total_cycles:
        raise ConfigError(
            f"{name}: --outages {k} needs fewer outages than the program's "
            f"{prep.total_cycles} progress cycles")


def cmd_analyze(args) -> int:
    out = _out_dir(args)
    name, source = _one_source(args)
    program = _load_program(source)
    problems = validate(program)
    if problems:
        for p in problems:
            print(str(p), file=sys.stderr)
        return EXIT_VALIDATION
    program = transform.normalize(program)
    config = powersim.SimConfig(ffs_per_slice=args.ffs_per_slice,
                                grid=_parse_grid(args.grid))
    prep = powersim.prepare(program, config)

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
    (out / f"{name}.cu_table.bin").write_bytes(serialize_table(prep.table))

    per_fn = {}
    for fid, spec in sorted(prep.specs.items()):
        ffs, luts = placement.tracker_resources(spec.width)
        entry = {"mode": spec.mode, "width": spec.width,
                 "tracker_ffs": ffs if spec.mode == TRACKED else 0,
                 "tracker_luts": luts if spec.mode == TRACKED else 0}
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
    out = _out_dir(args)
    name, source = _one_source(args)
    policies = args.policy or ["dft"]
    if len(policies) != 1:
        raise ConfigError("simulate takes exactly one --policy")
    lo, hi = _parse_outages(args.outages)
    if lo != hi:
        raise ConfigError("simulate takes a single outage count")
    program, prep = _prepare_source(source, _parse_grid(args.grid), args.ffs_per_slice)
    _check_outages(name, lo, prep)
    trace = powersim.gen_trace(prep.total_cycles, lo, args.seed)
    report = powersim.run(program, powersim.Policy(policies[0]), trace, prepared=prep)
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
    path = out / f"{name}.{report.policy}.k{lo}.report.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"{name}/{report.policy}/k={lo}: rollback={report.total_rollback} "
          f"ff_stores={report.ff_stores} consistent={report.consistent}")
    return EXIT_OK if report.consistent else EXIT_CONSISTENCY


@lru_cache(maxsize=8)
def _worker_prep(source: str, grid: Tuple[int, int], ffs_per_slice: int):
    return _prepare_source(source, grid, ffs_per_slice)


def _run_cell(job) -> Tuple:
    (name, source, policy, k, rounds, base_seed, grid, ffs_per_slice) = job
    program, prep = _worker_prep(source, grid, ffs_per_slice)
    cells = powersim.run_monte_carlo(
        program, [powersim.Policy(policy)], [k], rounds, base_seed,
        benchmark=name, prepared=prep)
    cell = cells[(policy, k)]
    return (name, policy, k, cell.mean_rollback, cell.std_rollback,
            cell.mean_ff, cell.std_ff)


def cmd_compare(args) -> int:
    out = _out_dir(args)
    sources = _load_sources(args)
    policies = args.policy or list(powersim.POLICY_NAMES)
    lo, hi = _parse_outages(args.outages)
    if args.rounds < 1:
        raise ConfigError(f"bad --rounds {args.rounds} (need at least 1)")
    ks = list(range(lo, hi + 1))
    grid = _parse_grid(args.grid)
    for name, source in sources:
        _check_outages(name, hi, _worker_prep(source, grid, args.ffs_per_slice)[1])

    jobs = [(name, source, pol, k, args.rounds, args.seed, grid, args.ffs_per_slice)
            for name, source in sources for pol in policies for k in ks]
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(_run_cell, jobs))
    else:
        results = [_run_cell(j) for j in jobs]

    by_key = {(r[0], r[1], r[2]): r for r in results}
    header = ["benchmark", "policy", "k", "mean", "stddev", "rounds", "seed"]
    with open(out / "rollback.csv", "w", newline="\n") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for name, _ in sources:
            for pol in policies:
                for k in ks:
                    r = by_key[(name, pol, k)]
                    w.writerow([name, pol, k, f"{r[3]:.6f}", f"{r[4]:.6f}",
                                args.rounds, args.seed])
    with open(out / "ffstores.csv", "w", newline="\n") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for name, _ in sources:
            for pol in policies:
                for k in ks:
                    r = by_key[(name, pol, k)]
                    w.writerow([name, pol, k, f"{r[5]:.6f}", f"{r[6]:.6f}",
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


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dftsim",
        description="Tracker-based checkpoint simulation for non-volatile FPGAs")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--program", action="append", metavar="PATH",
                       help="program description JSON")
        p.add_argument("--preset", action="append", metavar="NAME",
                       help=f"built-in benchmark shape ({', '.join(benchgen.PRESETS)})")
        p.add_argument("--policy", action="append",
                       choices=list(powersim.POLICY_NAMES))
        p.add_argument("--outages", default="0", metavar="A..B",
                       help="outage count or inclusive range")
        p.add_argument("--rounds", type=int, default=10)
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--grid", default="100x100", metavar="WxH")
        p.add_argument("--ffs-per-slice", type=int, choices=(8, 16), default=8)
        p.add_argument("--out", default=None, metavar="DIR",
                       help="output directory (default: $DFTSIM_OUT or .)")
        p.add_argument("--jobs", type=int, default=1,
                       help="parallel worker processes for compare")

    for name, fn in (("analyze", cmd_analyze), ("simulate", cmd_simulate),
                     ("compare", cmd_compare)):
        p = sub.add_parser(name)
        common(p)
        p.set_defaults(fn=fn)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.fn(args)
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
