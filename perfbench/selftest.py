"""Self-tests of the benchmark's own machinery.

Run: ``python3 perfbench/run.py --self-test`` (exits non-zero on a
failure).  They check that

* the open-loop driver times queued requests from their due time, shows
  a stall in its lag, and fails the SLA at a rate whose backlog grows;
* the SoAR search retries at the same rate a step the hypervisor spoiled
  that missed the SLA, counts one that met it, and converges on the SLA
  knee from far below it;
* self time on a synthetic span tree is exact, and the span recorder
  links nested and handed-over calls and restores what it wrapped;
* on real traced runs of every workload the layer self times add up to
  at least 90% of action wall time;
* the correctness gate catches an unpredictable read, an unaccounted
  action and a bad server exit.
"""

import time
import traceback

from driver import SLA_LATENCY, OpenLoopDriver, SoarSearch
from spans import ROOT_NAME, Ledger, SpanRecorder, self_times

#: Minimum share of action wall time the traced layers must account for.
LEDGER_COVERAGE = 0.90


def check(condition, message):
    if not condition:
        raise AssertionError(message)


# -- driver ------------------------------------------------------------------

def test_stall_counts_from_due_time():
    """One 200 ms stall, one worker: everything due during the stall is
    charged from its due time, and the lag shows it."""
    stall = 0.200
    stalled = []

    def action(request_id, _worker):
        if request_id == 50 and not stalled:
            stalled.append(time.perf_counter())
            time.sleep(stall)
        return "read"

    driver = OpenLoopDriver(action, workers=1, seed=7)
    step = driver.step(rate=200.0, seconds=1.5)
    check(step.accounted == step.attempted, "every request accounted")
    stall_start, stall_end = stalled[0], stalled[0] + stall
    behind = 0
    for due, latency in zip(step.dues, step.all_latency):
        if stall_start < due < stall_end:
            behind += 1
            check(latency >= stall_end - due,
                  "latency of a request queued behind the stall is "
                  "counted from its due time")
    check(behind >= 20,
          "requests were queued behind the stall ({})".format(behind))
    check(step.lag_p99() >= 0.1,
          "lag p99 {:.1f} ms shows the stall".format(step.lag_p99() * 1e3))
    # ~40 of ~300 requests queue behind the stall: more than 5%, so the
    # SLA percentile itself lands in the stall's queue.
    check(step.sla_latency() > SLA_LATENCY / 2,
          "the stall's queue reaches p95 ({:.1f} ms)".format(
              step.sla_latency() * 1e3))


def test_growing_backlog_fails_sla():
    """5 ms per action on one worker is 200/s of capacity: 150/s passes,
    260/s builds a backlog and fails."""

    def action(_request_id, _worker):
        time.sleep(0.005)
        return "read"

    driver = OpenLoopDriver(action, workers=1, seed=3)
    under = driver.step(rate=100.0, seconds=2.0)
    check(under.meets_sla(), "100/s against 200/s of capacity meets SLA "
          "(p95 {:.1f} ms)".format(under.sla_latency() * 1e3))
    over = driver.step(rate=260.0, seconds=2.0)
    check(over.backlog_grew(), "260/s against 200/s: backlog grows")
    check(not over.meets_sla(), "a growing backlog fails the SLA")


def test_soar_search_retries_spoiled_steps():
    """A fake system that meets the SLA up to 1000/s, and up to 700/s in
    every third step, which steal spoils; the probe reads 300/s, far below
    the knee."""

    class Step:
        def __init__(self, rate, spoiled):
            self.rate = rate
            self._spoiled = spoiled

        def meets_sla(self):
            return self.rate <= (700.0 if self._spoiled else 1000.0)

        def spoiled(self):
            return self._spoiled

    class FakeDriver:
        def __init__(self):
            self.count = 0

        def saturate(self, _seconds):
            return 300.0, 1, 0

        def step(self, rate, _seconds):
            self.count += 1
            return Step(rate, spoiled=self.count % 3 == 0)

    search = SoarSearch(FakeDriver(), probe_seconds=0, step_seconds=0,
                        steps=60)
    soar, bracketed = search.run()
    results = search.results
    for before, after in zip(results, results[1:]):
        if before.spoiled() and not before.meets_sla():
            check(after.rate == before.rate,
                  "a spoiled step that missed is retried at the same rate")
        else:
            check(after.rate != before.rate,
                  "a step that met, or missed unspoiled, moves the rate")
    check(bracketed, "the search brackets the knee")
    check(1000.0 / SoarSearch.FINE <= soar <= 1000.0 * SoarSearch.FINE,
          "SoAR {:.0f} within one fine step of the 1000/s knee".format(soar))


# -- spans and ledger ------------------------------------------------------------

def test_self_time_synthetic_tree():
    """Children overlap each other and overrun their parent."""
    spans = [
        (1, "a.root", 0.0, 10.0, None, 1, None),
        (2, "b.x", 1.0, 4.0, 1, 1, None),
        (3, "b.y", 3.0, 6.0, 1, 1, None),
        (4, "c.z", 8.0, 12.0, 1, 1, None),
        (5, "d.w", 2.0, 3.0, 2, 1, None),
        (6, "backoff.sleep", 4.5, 5.5, 3, 1, None),
    ]
    own = self_times(spans)
    # root: 10 - |[1,6] u [8,10]| = 3; b.y: 3 - 1 (the backoff child).
    check(own == {1: 3.0, 2: 2.0, 3: 2.0, 4: 4.0, 5: 1.0, 6: 1.0},
          "self times {}".format(own))
    ledger = Ledger(spans)
    check(ledger.layers["b"] == [3, 5.0],
          "backoff wait is charged to the waiting layer: {}".format(
              ledger.layers))
    root = [(9, ROOT_NAME, 0.0, 4.0, None, 1, None),
            (10, "x.f", 0.0, 3.0, 9, 1, None)]
    check(Ledger(root).coverage() == 0.75, "coverage of a 3-of-4 tree")


def test_recorder_nesting_and_restore():
    class Inner:
        def work(self):
            return "inner"

    class Outer:
        def __init__(self):
            self.inner = Inner()

        def call(self):
            return self.inner.work()

    original = Outer.__dict__["call"]
    recorder = SpanRecorder()
    recorder.wrap(Outer, "call", "outer.call")
    recorder.wrap(Inner, "work", "inner.work")
    recorder.enabled = True
    token = recorder.begin_action(42)
    check(Outer().call() == "inner", "wrapped call returns its result")
    recorder.end_action(token)
    recorder.unwrap_all()
    spans, _ = recorder.take()
    by_name = {span[1]: span for span in spans}
    check(set(by_name) == {ROOT_NAME, "outer.call", "inner.work"},
          "spans {}".format(sorted(by_name)))
    check(by_name["inner.work"][4] == by_name["outer.call"][0]
          and by_name["outer.call"][4] == by_name[ROOT_NAME][0],
          "parents link child to caller")
    check(all(span[5] == 42 for span in spans), "action id on every span")
    check(Outer.__dict__["call"] is original and "work" in Inner.__dict__
          and Inner.__dict__["work"].__name__ == "work",
          "unwrap restores the original attributes")


# -- real traced runs ----------------------------------------------------------------

def test_ledger_closes_on_real_runs():
    import layers
    import workloads as wl

    for workload in wl.WORKLOADS:
        recorder = SpanRecorder()
        deployment = wl.Deployment(workload, seed=5)
        try:
            executor = wl.BGExecutor(deployment.system, seed=5)
            layers.instrument_client(
                recorder, in_process_cache=deployment.server is None)
            recorder.enabled = True
            driver = OpenLoopDriver(executor, workers=wl.WORKERS, seed=5,
                                    hooks=recorder)
            step = driver.step(workload.fixed_rate, 2.0)
        finally:
            recorder.unwrap_all()
            code, _ = deployment.close()
        spans, _ = recorder.take()
        coverage = Ledger(spans).coverage()
        print("  {}: {} actions, ledger covers {:.1%} of action wall "
              "time".format(workload.name, step.accounted, coverage))
        check(step.accounted == step.attempted, "every action accounted")
        check(code == 0, "server exit code {}".format(code))
        check(coverage >= LEDGER_COVERAGE,
              "{}: ledger covers {:.1%} < {:.0%}".format(
                  workload.name, coverage, LEDGER_COVERAGE))


def test_correctness_gate():
    import bench
    from repro.bg.validation import ValidationLog

    class Stub:
        pass

    log = ValidationLog()
    log.register(("friendcount", 1), 10)
    floors = log.read_begin([("friendcount", 1)])
    log.validate(("friendcount", 1), 10, floors, log.read_end())
    deployment = Stub()
    deployment.system = Stub()
    deployment.system.log = log
    tally = bench.Tally()
    check(bench.check_correct(deployment, tally, 0) == [], "a clean run")
    tally.unaccounted = 1
    check(len(bench.check_correct(deployment, tally, 3)) == 2,
          "unaccounted action and bad server exit")
    log.validate(("friendcount", 1), 11, floors, log.read_end())
    check(any("unpredictable" in p
              for p in bench.check_correct(deployment, bench.Tally(), 0)),
          "an unpredictable read")


TESTS = (
    test_stall_counts_from_due_time,
    test_growing_backlog_fails_sla,
    test_soar_search_retries_spoiled_steps,
    test_self_time_synthetic_tree,
    test_recorder_nesting_and_restore,
    test_correctness_gate,
    test_ledger_closes_on_real_runs,
)


def main():
    failures = 0
    for test in TESTS:
        try:
            test()
        except Exception:
            failures += 1
            print("FAIL", test.__name__)
            traceback.print_exc()
        else:
            print("ok  ", test.__name__)
    print("{} of {} self-tests passed".format(len(TESTS) - failures,
                                              len(TESTS)))
    return 1 if failures else 0
