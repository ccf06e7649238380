"""Cycle-accurate simulation of tracker-based register checkpointing for
non-volatile FPGAs: offline live-set mapping, online tracker state
machines, an offset-partitioned address table, and intermittent-power
experiments against checkpoint and whole-chip baselines.
"""

from .engine import KERNEL_NAME
from .program import (
    FunctionSchedule,
    Operation,
    ProgramError,
    Region,
    ScheduledProgram,
    execute_reference,
    parse_program,
    serialize_program,
    validate,
)
from .transform import merge, normalize, split
from .liveness import (
    LiveSetTable,
    TrackerSpec,
    live_sets,
    resume_point,
)
from .tracker import TrackerState, can_start
from .placement import Placement, assign_slices
from .control_unit import ControlUnitTable, bram_usage, build_table, lookup
from .powersim import (
    Policy,
    PowerTrace,
    SimConfig,
    SimulationReport,
    gen_trace,
    prepare,
    run,
    run_monte_carlo,
)
from .benchgen import BenchmarkShape, generate, preset_program, preset_shape

__version__ = "0.1.0"
