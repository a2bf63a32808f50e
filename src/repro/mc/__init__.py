"""repro.mc: a stateless model checker for the shipped IQ sessions.

The consistency clients of :mod:`repro.core` write every session once,
as an announce-then-perform generator (:mod:`repro.core.steps`); BG runs
those generators to completion, and this checker steps the very same
generators through every interleaving of a bounded scenario (N sessions,
optionally including fault-delivery pseudo-programs).  It prunes
commuting orders with sleep sets (DPOR-lite) and state-fingerprint
deduplication, and checks two oracles at every terminal state -- the
no-stale/no-dirty value checks and the :class:`~repro.obs.audit.
IQAuditor` protocol state machine.  Any violating schedule is
delta-debugged down to a 1-minimal replayable script, and the paper's
race figures are stored schedules replayed with :func:`replay`
(:mod:`repro.mc.figures`).

Entry points::

    from repro.mc import explore, get_scenario, shrink, fuzz, replay

    report = explore(get_scenario("fig3-baseline"))
    report.summary()        # schedules/states/pruned/deduped counts
    report.violations[0]    # a violating schedule
    shrink(get_scenario("fig3-baseline"),
           report.violations[0].schedule)   # -> minimal script

or ``python -m repro mc`` on the command line.
"""

from repro.mc.explorer import (
    ExplorationReport,
    MCViolation,
    ReplayResult,
    explore,
    replay,
)
from repro.mc.figures import FIGURES, FigureRun, run_figures
from repro.mc.fuzz import FuzzFailure, FuzzReport, fuzz
from repro.mc.program import (
    MCProgram,
    MCRun,
    Op,
    Program,
    ProgramCrash,
    ProgramRun,
    ScheduleError,
    independent,
)
from repro.mc.scenarios import (
    FIGURE_PAIRS,
    SCENARIOS,
    Scenario,
    clock_final_checks,
    default_final_checks,
    get_scenario,
    scenario_names,
)
from repro.mc.shrink import ShrinkResult, emit_script, shrink
from repro.mc.world import GatedShard, World

__all__ = [
    "ExplorationReport",
    "MCViolation",
    "ReplayResult",
    "explore",
    "replay",
    "FIGURES",
    "FigureRun",
    "run_figures",
    "FuzzFailure",
    "FuzzReport",
    "fuzz",
    "MCProgram",
    "MCRun",
    "Op",
    "Program",
    "ProgramCrash",
    "ProgramRun",
    "ScheduleError",
    "independent",
    "FIGURE_PAIRS",
    "SCENARIOS",
    "Scenario",
    "clock_final_checks",
    "default_final_checks",
    "get_scenario",
    "scenario_names",
    "ShrinkResult",
    "emit_script",
    "shrink",
    "GatedShard",
    "World",
]
