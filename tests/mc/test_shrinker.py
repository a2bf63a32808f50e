"""Minimality of the delta-debugging shrinker.

A shrunk schedule must still violate, and must be 1-minimal: removing
any single forced step (and letting the deterministic drain complete
the run) loses the violation.
"""

import pytest

from repro.mc import emit_script, explore, get_scenario, replay, shrink

pytestmark = pytest.mark.mc


def _shrunk(name):
    scenario = get_scenario(name)
    report = explore(scenario, max_states=100000)
    assert report.violations, "scenario {} explored clean".format(name)
    return scenario, shrink(scenario, report.violations[0].schedule)


class TestShrunkSchedulesStillViolate:
    @pytest.mark.parametrize("name", ["fig2-baseline", "fig3-baseline",
                                      "fig4-baseline", "fig8-baseline"])
    def test_violation_survives_shrinking(self, name):
        scenario, result = _shrunk(name)
        replayed = replay(scenario, result.schedule, complete=True)
        assert not replayed.ok
        assert result.violations == replayed.violations


class TestOneMinimality:
    @pytest.mark.parametrize("name", ["fig3-baseline", "fig4-baseline",
                                      "fig8-baseline"])
    def test_every_forced_step_is_load_bearing(self, name):
        scenario, result = _shrunk(name)
        assert result.minimal
        for index in range(len(result.schedule)):
            candidate = (result.schedule[:index]
                         + result.schedule[index + 1:])
            replayed = replay(scenario, candidate, complete=True)
            assert replayed.ok, (
                "dropping step {} ({!r}) of {!r} still violates -- "
                "not 1-minimal".format(index, result.schedule[index],
                                       list(result.schedule))
            )

    def test_drain_only_races_shrink_to_empty(self):
        # Figure 6's race is the drain order itself: the shrinker must
        # discover that no forced step is needed at all.
        _scenario, result = _shrunk("fig6-baseline")
        assert result.schedule == ()


class TestCleanInputIsNotShrunk:
    def test_non_violating_schedule_returned_unchanged(self):
        scenario = get_scenario("fig3-iq")
        result = shrink(scenario, ["S1", "S2", "S1", "S2"])
        assert not result.minimal
        assert result.schedule == ("S1", "S2", "S1", "S2")
        assert not result.violations


class TestEmittedScript:
    def test_script_lists_forced_and_drain_steps(self):
        # Figure 8's race needs forced steps (the shipped trigger
        # invalidator of Figure 3 now races in the plain drain order).
        _scenario, result = _shrunk("fig8-baseline")
        script = emit_script(result)
        assert "[forced]" in script
        assert "[drain ]" in script
        for message in result.violations:
            assert message in script
