"""Programs, runs and schedules: the substrate the explorer drives."""

import pytest

from repro.mc import (
    MCProgram,
    Op,
    Program,
    ProgramCrash,
    ProgramRun,
    Scenario,
    ScheduleError,
    World,
    explore,
    replay,
)

pytestmark = pytest.mark.mc


def logging_program(name, steps=3, sql=True):
    """``steps`` announced steps, each appending its label to a log."""

    def factory(world):
        for i in range(steps):
            label = "{}{}".format(name, i)
            yield Op(label, sql=sql, local=not sql)
            world.flags["log"] = world.flags.get("log", ()) + (label,)
        return "{}-done".format(name)

    return MCProgram(name, factory)


def crashing_program(name, crash_after):
    def factory(world):
        for i in range(crash_after):
            yield Op("step{}".format(i), sql=True)
        raise RuntimeError("boom in {}".format(name))

    return MCProgram(name, factory)


def scenario(*programs, check_final=None):
    return Scenario("programs", lambda: (World(), list(programs)),
                    check_final=check_final or (lambda world, runs: []),
                    audit=False)


def log_of(result):
    return list(result.world.flags.get("log", ()))


def explored_logs(*programs):
    """Explore ``programs``; the step log of every terminal schedule."""
    logs = []

    def collect(world, runs):
        logs.append(world.flags.get("log", ()))
        return []

    explore(scenario(*programs, check_final=collect))
    return logs


class TestProgramRun:
    def test_steps_recorded(self):
        def generator():
            yield "a"
            yield "b"
            return "done"

        run = ProgramRun(Program("P", generator))
        assert [run.advance(), run.advance(), run.advance()] == [
            "a", "b", None]
        assert run.finished and run.result == "done"
        result = replay(scenario(logging_program("A", 2)), ["A", "A"])
        assert result.runs["A"].history == ["A:A0", "A:A1"]

    def test_advancing_finished_program_rejected(self):
        run = ProgramRun(Program("P", lambda: iter(())))
        run.advance()
        with pytest.raises(ScheduleError):
            run.advance()


class TestReplay:
    def test_schedule_order_is_honored(self):
        result = replay(scenario(logging_program("A", 2),
                                 logging_program("B", 2)),
                        ["A", "B", "A", "B"], complete=False)
        assert log_of(result) == ["A0", "B0", "A1", "B1"]

    def test_results_returned(self):
        result = replay(scenario(logging_program("A", 1)), ["A"])
        assert result.runs["A"].result == "A-done"
        assert result.steps == (("A", "A:A0"),)  # labels name the program

    def test_finish_remaining(self):
        # Stragglers drain round-robin in program order.
        result = replay(scenario(logging_program("A", 3),
                                 logging_program("B", 1)), ["A"])
        assert log_of(result) == ["A0", "A1", "B0", "A2"]
        assert all(run.finished for run in result.runs.values())

    def test_entries_for_finished_programs_are_skipped(self):
        result = replay(scenario(logging_program("A", 1)), ["A", "A", "A"])
        assert result.ok and log_of(result) == ["A0"]

    def test_unknown_program_rejected(self):
        with pytest.raises(KeyError):
            replay(scenario(logging_program("A", 1)), ["ghost"])

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            replay(scenario(logging_program("A"), logging_program("A")), [])


class TestProgramCrash:
    def test_crash_carries_schedule_context(self):
        # B crashes performing its second announced step; the prefix is
        # everything executed before that step.
        result = replay(scenario(logging_program("A", 3),
                                 crashing_program("B", 2)),
                        ["A", "B", "A", "B"], complete=False)
        crash = result.crash
        assert crash.program == "B"
        assert crash.step_label == "B:step1"
        assert crash.schedule_prefix == ("A", "B", "A")
        assert isinstance(crash.original, RuntimeError)
        assert crash.__cause__ is crash.original
        assert not result.ok

    def test_crash_message_is_replayable_context(self):
        result = replay(scenario(crashing_program("X", 1)), ["X"])
        message = str(result.crash)
        assert "'X'" in message
        assert "RuntimeError" in message
        assert "boom in X" in message

    def test_crash_during_drain_includes_scheduled_prefix(self):
        result = replay(scenario(crashing_program("B", 3)), ["B"])
        assert result.crash.schedule_prefix == ("B", "B")

    def test_crash_is_a_schedule_error(self):
        # Callers that already catch ScheduleError keep working.
        assert issubclass(ProgramCrash, ScheduleError)

    def test_crashed_program_is_finished(self):
        def generator():
            yield "a"
            raise ValueError("boom")

        run = ProgramRun(Program("P", generator))
        run.advance()
        with pytest.raises(ValueError):
            run.advance()
        assert run.finished
        assert isinstance(run.error, ValueError)

    def test_schedule_errors_not_double_wrapped(self):
        run = ProgramRun(Program("P", lambda: iter(())))
        run.advance()
        with pytest.raises(ScheduleError) as exc_info:
            run.advance()
        assert not isinstance(exc_info.value, ProgramCrash)

    def test_explorer_records_crashes_as_violations(self):
        report = explore(scenario(crashing_program("B", 1)))
        assert report.violation_count == 1
        assert report.violations[0].kind == "crash"


class TestAllInterleavings:
    def test_count_is_multinomial(self):
        # Dependent steps (both touch the RDBMS) commute with nothing.
        assert len(explored_logs(logging_program("A", 2),
                                 logging_program("B", 2))) == 6  # C(4,2)

    def test_each_schedule_has_right_multiplicity(self):
        for log in explored_logs(logging_program("A", 1),
                                 logging_program("B", 3)):
            assert [step[0] for step in log].count("A") == 1
            assert [step[0] for step in log].count("B") == 3

    def test_unique(self):
        logs = explored_logs(logging_program("A", 2),
                             logging_program("B", 1),
                             logging_program("C", 1))
        assert len(logs) == len(set(logs)) == 12  # 4! / 2!

    def test_independent_steps_are_pruned_to_one_order(self):
        report = explore(scenario(logging_program("A", 2, sql=False),
                                  logging_program("B", 2, sql=False)))
        assert report.schedules_explored == 1
        assert report.sleep_pruned > 0
