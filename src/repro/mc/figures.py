"""The paper's race figures as named model-checker replays.

Each figure is one stored schedule -- the figure's numbered
interleaving, written as the order in which its sessions take steps --
replayed with :func:`repro.mc.replay` against the figure's scenarios:
the unleased baseline, which exhibits the race, and the IQ twin, which
must end consistent under the very same schedule.  The sessions are the
shipped clients (:mod:`repro.mc.sessions`), so the table
``python -m repro figures`` prints is what BG's own code does under
each interleaving.  Replay is lenient and completing: steps a variant
does not have are skipped, and whatever remains runs to completion.
"""

from repro.mc.explorer import replay
from repro.mc.scenarios import get_scenario

__all__ = ["FIGURES", "FigureRun", "run_figures"]

#: (figure, schedule, [(variant, scenario name), ...])
FIGURES = (
    ("Figure 2", ("S1", "S1", "S2", "S2", "S2", "S2", "S1", "S1"),
     [("baseline-cas", "fig2-baseline"), ("iq-refresh", "fig2-iq")]),
    ("Figure 3", ("S1", "S1", "S2", "S2", "S1", "S2"),
     [("baseline-invalidate", "fig3-baseline"),
      ("iq-invalidate", "fig3-iq")]),
    ("Figure 4", ("S1", "S1", "R1", "R2", "S1", "S1"),
     [("iq-optimized", "fig4-iq")]),
    ("Figure 6", ("S1", "S2", "S1", "S1"),
     [("baseline-refresh", "fig6-baseline"), ("iq-refresh", "fig6-iq")]),
    ("Figure 7", ("S1", "S2", "S2", "S1", "S1", "S2"),
     [("baseline-delta", "fig7-baseline"), ("iq-delta", "fig7-iq")]),
    ("Figure 8", ("S2", "S1", "S1", "S2", "S2", "S1"),
     [("baseline-delta", "fig8-baseline"), ("iq-delta", "fig8-iq")]),
)


class FigureRun:
    """One replayed figure variant: final RDBMS and KVS values of key k0."""

    def __init__(self, figure, variant, scenario, result):
        self.figure = figure
        self.variant = variant
        self.scenario = scenario
        #: the :class:`~repro.mc.explorer.ReplayResult`
        self.result = result
        self.rdbms_value = result.world.sql_contents()["k0"]
        kvs = result.world.kvs_contents()["k0"]
        if kvs is not None and isinstance(self.rdbms_value, int):
            kvs = int(kvs)
        self.kvs_value = kvs

    @property
    def consistent(self):
        """True when the KVS matches the RDBMS or holds nothing (the
        next read session recomputes an absent key)."""
        return self.kvs_value is None or self.kvs_value == self.rdbms_value

    @property
    def cache_reads(self):
        """Every value a session was served from the cache, in order."""
        return [value for _program, _key, value
                in self.result.world.cache_reads()]

    def __repr__(self):
        return ("FigureRun({}, {}, rdbms={!r}, kvs={!r}, consistent={})"
                .format(self.figure, self.variant, self.rdbms_value,
                        self.kvs_value, self.consistent))


def run_figures():
    """Replay every figure under every variant, in figure order."""
    runs = []
    for figure, schedule, variants in FIGURES:
        for variant, name in variants:
            result = replay(get_scenario(name), list(schedule), complete=True)
            if result.crash is not None:
                raise result.crash
            runs.append(FigureRun(figure, variant, name, result))
    return runs
