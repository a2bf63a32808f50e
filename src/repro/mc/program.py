"""Programs the model checker interleaves: announce-then-perform generators.

A *program* is a generator that yields an :class:`~repro.core.steps.Op`
*before* each operation on shared state -- its label and the resources
it is about to read and write -- and performs the operation when it is
next advanced::

    def session(world):
        yield Op("qar", kvs=[KEY])        # announce the next operation
        world.backend.qar(tid, KEY)       # ...then perform it

Almost every program the checker runs is a shipped session -- the
``read_steps``/``write_steps`` generators of :mod:`repro.core`, wrapped
by :mod:`repro.mc.sessions` -- so the explored interleavings are those
of the code BG runs.  Because each ``yield`` hands the scheduler the
*pending* operation without running it, the explorer can decide which
interleavings commute (sleep-set pruning) before executing anything.

:class:`ProgramRun` advances one generator; a program exception becomes
a :class:`ProgramCrash` carrying the schedule prefix, so a crashing
schedule is as replayable as a violating one.  :class:`MCRun` binds a
run to a :class:`~repro.mc.world.World` and tracks the announcements.
"""

from repro.core.steps import Op, independent
from repro.errors import ReproError

__all__ = [
    "Op",
    "MCProgram",
    "MCRun",
    "Program",
    "ProgramCrash",
    "ProgramRun",
    "ScheduleError",
    "independent",
]


class ScheduleError(ReproError):
    """A schedule advanced a finished program."""


class ProgramCrash(ScheduleError):
    """A program raised mid-step while being driven by a schedule.

    The bare exception is useless to a shrinker or fuzzer -- by the time
    it propagates, the interleaving that provoked it is gone.  This
    wrapper carries the program name, the label of the last completed
    step, and the schedule prefix executed so far, so the failure is
    replayable: re-running ``schedule_prefix`` and advancing ``program``
    once more reproduces it deterministically.
    """

    def __init__(self, program, step_label, schedule_prefix, original):
        self.program = program
        self.step_label = step_label
        self.schedule_prefix = tuple(schedule_prefix)
        self.original = original
        super().__init__(
            "program {!r} crashed after step {!r} under schedule prefix "
            "{!r}: {}: {}".format(
                program, step_label, list(self.schedule_prefix),
                type(original).__name__, original,
            )
        )


class Program:
    """A named generator function."""

    def __init__(self, name, generator_fn):
        self.name = name
        self.generator_fn = generator_fn

    def __repr__(self):
        return "Program({!r})".format(self.name)


class ProgramRun:
    """Execution state of one program."""

    def __init__(self, program):
        self.program = program
        self.generator = program.generator_fn()
        self.finished = False
        self.result = None
        self.error = None

    def advance(self):
        """Run the program up to its next yield (or completion).

        Returns the yielded value, or ``None`` once the program
        finished.  A mid-step exception is recorded in :attr:`error`
        (the program counts as finished -- its generator is dead)
        before propagating, so drivers can wrap it with schedule
        context.
        """
        if self.finished:
            raise ScheduleError(
                "program {!r} already finished".format(self.program.name)
            )
        try:
            return next(self.generator)
        except StopIteration as stop:
            self.finished = True
            self.result = stop.value
            return None
        except Exception as exc:
            self.finished = True
            self.error = exc
            raise

    def close(self):
        """Discard an unfinished program (runs its ``finally`` blocks)."""
        self.generator.close()


class MCProgram:
    """A named announce-then-perform program factory.

    ``factory(world)`` must return a generator yielding :class:`Op`
    announcements.  Labels are local to the program; :class:`MCRun`
    prefixes them with the program name (``"S1:sql-commit"``).
    """

    def __init__(self, name, factory):
        self.name = name
        self.factory = factory

    def __repr__(self):
        return "MCProgram({!r})".format(self.name)


class MCRun:
    """Execution state of one announce-then-perform program.

    Construction advances the generator to its first announcement; the
    code before the first ``yield`` must therefore be free of shared
    side effects that do not commute (binding locals, building clients,
    minting a TID -- TIDs are aliased to their program -- is fine).
    """

    def __init__(self, mc_program, world):
        self.name = mc_program.name
        self.trace_id = world.new_trace_id(self.name)
        self._world = world
        self._run = ProgramRun(Program(
            self.name, lambda: mc_program.factory(world)
        ))
        #: labels of every executed (performed) operation, in order
        self.history = []
        #: the announced, not yet performed operation (None when done)
        self.pending = None
        #: its label, prefixed with the program name
        self.pending_label = None
        self._advance([])

    @property
    def finished(self):
        return self._run.finished

    @property
    def result(self):
        return self._run.result

    def _advance(self, executed_prefix):
        from repro.obs.trace import trace_context

        self._world.current = self.name
        try:
            with trace_context(self.trace_id):
                op = self._run.advance()
        except Exception as exc:
            raise ProgramCrash(
                self.name, self.pending_label, executed_prefix, exc,
            ) from exc
        if op is not None and not isinstance(op, Op):
            raise TypeError(
                "mc program {!r} must yield Op announcements, got {!r}"
                .format(self.name, op)
            )
        self.pending = op
        self.pending_label = (
            None if op is None else "{}:{}".format(self.name, op.label))

    def step(self, executed_prefix):
        """Perform the announced operation; capture the next announcement.

        Returns the label of the operation that was executed.
        """
        if self.finished:
            raise ProgramCrash(
                self.name, self.pending_label, executed_prefix,
                RuntimeError("stepping a finished program"),
            )
        performed = self.pending_label
        self._advance(executed_prefix)
        self.history.append(performed)
        return performed

    def close(self):
        if not self.finished:
            self._run.close()
