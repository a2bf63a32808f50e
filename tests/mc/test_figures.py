"""The paper's figures, replayed through the shipped clients.

Each figure is one stored schedule replayed against the unleased
baseline (which must exhibit the figure's race) and its IQ twin (which
must end consistent under the same schedule).  These are the
qualitative claims of Sections 2-4, asserted on the replay's final
RDBMS and KVS values.
"""

import pytest

from repro.mc import FIGURES, run_figures

pytestmark = pytest.mark.mc


@pytest.fixture(scope="module")
def figures():
    return {(run.figure, run.variant): run for run in run_figures()}


class TestFigure2:
    def test_baseline_cas_diverges_exactly_as_paper(self, figures):
        run = figures["Figure 2", "baseline-cas"]
        assert run.rdbms_value == 1500  # (100 + 50) * 10
        assert run.kvs_value == 1050    # (100 * 10) + 50
        assert not run.consistent

    def test_iq_refresh_converges(self, figures):
        run = figures["Figure 2", "iq-refresh"]
        assert (run.rdbms_value, run.kvs_value) == (1500, 1500)


class TestFigure3:
    def test_baseline_inserts_stale_value(self, figures):
        run = figures["Figure 3", "baseline-invalidate"]
        assert (run.rdbms_value, run.kvs_value) == (1, 0)

    def test_iq_backoff_prevents_stale_insert(self, figures):
        run = figures["Figure 3", "iq-invalidate"]
        assert (run.rdbms_value, run.kvs_value) == (1, 1)
        reader_gets = [label for name, label in run.result.steps
                       if label == "S2:get"]
        assert len(reader_gets) > 1  # backed off against the Q lease


class TestFigure4:
    def test_rearrangement_window_serves_old_version(self, figures):
        run = figures["Figure 4", "iq-optimized"]
        assert run.cache_reads == ["0", "0"]
        assert (run.rdbms_value, run.kvs_value) == (1, None)


class TestFigure6:
    def test_baseline_dirty_read(self, figures):
        run = figures["Figure 6", "baseline-refresh"]
        assert run.rdbms_value == 0  # the writer aborted
        assert run.kvs_value == 1    # dirty value stuck in the KVS
        assert run.cache_reads == ["1"]

    def test_iq_abort_leaves_old_value(self, figures):
        run = figures["Figure 6", "iq-refresh"]
        assert (run.rdbms_value, run.kvs_value) == (0, 0)
        assert run.cache_reads == ["0"]


class TestFigure7:
    def test_baseline_stale_overwrite(self, figures):
        run = figures["Figure 7", "baseline-delta"]
        assert (run.rdbms_value, run.kvs_value) == ("xd", "x")

    def test_iq_voids_readers_lease(self, figures):
        run = figures["Figure 7", "iq-delta"]
        assert (run.rdbms_value, run.kvs_value) == ("xd", None)


class TestFigure8:
    def test_baseline_double_append(self, figures):
        run = figures["Figure 8", "baseline-delta"]
        assert (run.rdbms_value, run.kvs_value) == ("xd", "xdd")

    def test_iq_never_doubles(self, figures):
        run = figures["Figure 8", "iq-delta"]
        assert run.rdbms_value == "xd" and run.kvs_value in ("xd", None)


class TestRunAll:
    def test_every_baseline_races_every_iq_holds(self, figures):
        assert len(figures) == sum(len(v) for _f, _s, v in FIGURES)
        for (_figure, variant), run in figures.items():
            assert run.result.crash is None
            if variant.startswith("baseline"):
                assert not run.consistent, run
            else:
                assert run.consistent, run

    def test_outcomes_are_reproducible(self):
        def outcomes():
            return [(r.figure, r.variant, r.rdbms_value, r.kvs_value)
                    for r in run_figures()]

        assert outcomes() == outcomes()
