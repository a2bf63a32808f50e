"""Open-loop BG driver and the SoAR search.

Requests arrive on a seeded Poisson schedule, independent of how fast the
system answers: an open loop, because BG's members are independent users.
A fixed pool of worker threads takes requests in due order; a worker that
is free early sleeps until the request is due, one that is late starts it
at once.  Each request's latency runs from the moment it was **due**, so a
stall also charges the wait it imposes on every request queued behind it
(no coordinated omission).

Driver health is reported separately.  ``lag`` is how late each request
was sent after its due time: a stall shows in the lag of every request
queued behind it.  ``oversleep`` is the part of that lag no busy worker
explains -- how late a *free* worker woke for a request it was waiting
on (sleep granularity, interpreter-lock hand-off, a starved process).  A
run whose oversleep p99 exceeds :data:`MAX_OVERSLEEP_P99` measured the
driver, not the system, and is invalid.

SoAR (paper Table 8) is the highest offered rate at which the
``SLA_PERCENTILE`` of action latencies stays within ``SLA_LATENCY`` and the
backlog does not grow.
"""

import itertools
import math
import random
import statistics
import threading
import time

from repro.config import BGConfig

SLA_PERCENTILE = BGConfig.sla_percentile
SLA_LATENCY = BGConfig.sla_latency

#: Driver oversleep p99 above this makes a measurement invalid.
MAX_OVERSLEEP_P99 = 0.020

#: A SoAR step, capacity probe or timed setup whose steal share exceeds
#: this is spoiled (see :class:`SoarSearch`).  On the
#: shared 2-core host the benchmark was written on, steps were bimodal:
#: up to 4% steal, or 13-58%.
MAX_STEAL = 0.08

#: A step's backlog grows when the median queueing delay of its last
#: quarter exceeds that of its first quarter by more than this.
BACKLOG_GROWTH = SLA_LATENCY / 2

FAILED = math.inf


def percentile(values, q):
    """Nearest-rank percentile of ``values`` (``q`` in [0, 1])."""
    if not values:
        return math.nan
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def median(values):
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return math.nan
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def arrivals(rate, seconds, rng):
    """Poisson arrival offsets (s) in ``[0, seconds)``."""
    offsets = []
    t = rng.expovariate(rate)
    while t < seconds:
        offsets.append(t)
        t += rng.expovariate(rate)
    return offsets


class StepResult:
    """What one fixed-rate step observed."""

    def __init__(self, rate, seconds, dues, starts, ends, kinds, oversleeps,
                 elapsed, cpu):
        self.rate = rate
        self.seconds = seconds
        self.dues = dues
        self.attempted = len(dues)
        self.accounted = sum(1 for end in ends if end is not None)
        self.failed = sum(
            1 for end, kind in zip(ends, kinds)
            if end is not None and kind is None
        )
        self.elapsed = elapsed
        #: client process CPU seconds spent during the step
        self.cpu = cpu
        self.oversleeps = oversleeps
        self.latency = {"read": [], "write": []}
        self.all_latency = []
        self.queueing = []
        for due, start, end, kind in zip(dues, starts, ends, kinds):
            if end is None:
                continue
            latency = end - due if kind is not None else FAILED
            self.all_latency.append(latency)
            self.queueing.append(start - due)
            if kind is not None:
                self.latency[kind].append(latency)
            else:
                for samples in self.latency.values():
                    samples.append(FAILED)

    @property
    def achieved(self):
        """Completed actions per second of schedule."""
        return (self.accounted - self.failed) / self.seconds

    def sla_latency(self):
        return percentile(self.all_latency, SLA_PERCENTILE)

    def backlog_grew(self):
        n = len(self.queueing)
        if n < 8:
            return False
        quarter = n // 4
        first = median(self.queueing[:quarter])
        last = median(self.queueing[-quarter:])
        return last - first > BACKLOG_GROWTH

    def meets_sla(self):
        return (self.attempted > 0 and self.accounted == self.attempted
                and self.sla_latency() <= SLA_LATENCY
                and not self.backlog_grew())

    def lag_p99(self):
        """p99 of how late requests were sent (s)."""
        return percentile(self.queueing, 0.99) if self.queueing else 0.0

    def oversleep_p99(self):
        """p99 of how late free workers woke for their request (s)."""
        return percentile(self.oversleeps, 0.99) if self.oversleeps else 0.0

    def valid(self):
        return self.oversleep_p99() <= MAX_OVERSLEEP_P99

    def spoiled(self):
        return self.steal > MAX_STEAL


def cpu_ticks():
    """``(steal, busy, total)`` jiffies of the host's CPUs (``/proc/stat``).

    ``busy`` is time the CPUs ran guest work: user, nice, system, irq and
    softirq."""
    with open("/proc/stat") as stat:
        fields = [int(v) for v in stat.readline().split()[1:]]
    user, nice, system, _idle, _iowait, irq, softirq, steal = fields[:8]
    return steal, user + nice + system + irq + softirq, sum(fields)


def steal_share(before, after):
    """Share of the CPU time the guest wanted between two :func:`cpu_ticks`
    readings that the hypervisor gave to other guests: steal / (busy +
    steal)."""
    steal = after[0] - before[0]
    wanted = steal + after[1] - before[1]
    return steal / wanted if wanted else 0.0


def merge_steps(steps):
    """One :class:`StepResult` over consecutive steps at one rate."""
    merged = StepResult.__new__(StepResult)
    merged.rate = steps[0].rate
    merged.seconds = sum(s.seconds for s in steps)
    merged.dues = [d for s in steps for d in s.dues]
    for name in ("attempted", "accounted", "failed", "elapsed", "cpu"):
        setattr(merged, name, sum(getattr(s, name) for s in steps))
    for name in ("oversleeps", "all_latency", "queueing", "crashes"):
        setattr(merged, name, [x for s in steps for x in getattr(s, name)])
    merged.latency = {
        kind: [x for s in steps for x in s.latency[kind]]
        for kind in ("read", "write")
    }
    return merged


class OpenLoopDriver:
    """Runs ``execute(request_index, worker_index)`` on a schedule.

    ``execute`` returns the action kind (``"read"``/``"write"``); an
    exception marks the request failed.  ``hooks`` (optional) is an
    object with ``begin_action(i)``/``end_action(token, error)`` called
    around every request -- the traced run's root span.
    """

    def __init__(self, execute, workers=2, seed=0, hooks=None):
        self.execute = execute
        self.workers = workers
        self.seed = seed
        self.hooks = hooks
        self._steps = itertools.count()
        self._request_ids = itertools.count()

    def step(self, rate, seconds):
        """Offer ``rate`` actions/s for ``seconds``; drain; report."""
        rng = random.Random("{}:{}".format(self.seed, next(self._steps)))
        offsets = arrivals(rate, seconds, rng)
        n = len(offsets)
        base = next(self._request_ids)
        self._request_ids = itertools.count(base + n + 1)
        starts = [None] * n
        ends = [None] * n
        kinds = [None] * n
        oversleeps = []
        next_index = itertools.count()
        execute = self.execute
        hooks = self.hooks
        clock = time.perf_counter
        sleep = time.sleep
        t0 = clock() + 0.002
        dues = [t0 + offset for offset in offsets]
        crashes = []

        def worker(worker_index):
            try:
                while True:
                    i = next(next_index)
                    if i >= n:
                        return
                    due = dues[i]
                    now = clock()
                    if now < due:
                        sleep(due - now)
                        now = clock()
                        oversleeps.append(now - due)
                    starts[i] = now
                    token = hooks.begin_action(base + i) if hooks else None
                    error = None
                    try:
                        kinds[i] = execute(base + i, worker_index)
                    except Exception as exc:
                        error = type(exc).__name__
                    if hooks:
                        hooks.end_action(token, error)
                    ends[i] = clock()
            except BaseException as exc:  # reported by the accounting check
                crashes.append(exc)

        cpu_before = time.process_time()
        ticks_before = cpu_ticks()
        threads = [
            threading.Thread(target=worker, args=(w,), daemon=True)
            for w in range(self.workers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = clock() - t0
        result = StepResult(rate, seconds, dues, starts, ends, kinds,
                            oversleeps, elapsed,
                            time.process_time() - cpu_before)
        result.crashes = crashes
        result.steal = steal_share(ticks_before, cpu_ticks())
        return result

    def saturate(self, seconds):
        """Closed loop: every worker runs back to back for ``seconds``.

        Gives the capacity the SoAR search brackets; not a reported
        metric (a closed loop hides queueing).  Returns ``(actions/s,
        attempted, failed)``."""
        done = [0] * self.workers
        failed = [0] * self.workers
        stop = time.perf_counter() + seconds
        ids = itertools.count(next(self._request_ids))

        def worker(worker_index):
            while time.perf_counter() < stop:
                try:
                    self.execute(next(ids), worker_index)
                except Exception:
                    failed[worker_index] += 1
                done[worker_index] += 1

        start = time.perf_counter()
        threads = [
            threading.Thread(target=worker, args=(w,), daemon=True)
            for w in range(self.workers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        self._request_ids = itertools.count(next(ids) + 1)
        elapsed = time.perf_counter() - start
        return (sum(done) - sum(failed)) / elapsed, sum(done), sum(failed)


class SoarSearch:
    """Find SoAR with an up-down staircase over fixed-rate steps.

    The first step offers 0.9x the closed-loop capacity.  After a step
    that met the SLA the next offers ``factor`` times more, after one
    that missed it ``factor`` times less.  ``factor`` is :data:`COARSE`
    until the first reversal and :data:`FINE` after it, except that
    :data:`STREAK` moves in one direction switch back to :data:`COARSE`
    until the next reversal, so the search catches up when the answer
    lies far from where it started.  From the first reversal on the
    staircase oscillates about the rate that meets the SLA half the time;
    SoAR is the geometric mean of the rates it offered there.  Each step
    moves the rate by one factor and weighs 1/N in the mean, so one step
    spoiled by host noise cannot move SoAR far.

    A step during which the hypervisor held back more than
    :data:`MAX_STEAL` of the CPU time the guest wanted (see
    :func:`steal_share`) is spoiled.  Steal only makes the SLA harder to
    meet, so a spoiled step that met it counts as met; one that missed it
    may have measured the host's other tenants, not the program, so it
    counts as neither and the next step offers the same rate again.  The
    spoiled steps are kept in :attr:`results`.  A spoiled capacity probe
    is taken again, up to :data:`PROBES` times in all, and the highest
    capacity a probe saw is used.
    """

    START = 0.9
    COARSE = 1.1
    FINE = 1.05
    STREAK = 3
    PROBES = 3

    def __init__(self, driver, probe_seconds, step_seconds, steps):
        self.driver = driver
        self.probe_seconds = probe_seconds
        self.step_seconds = step_seconds
        self.steps = steps
        self.results = []
        self.capacity = None
        self.probe_attempted = 0
        self.probe_failed = 0

    def run(self):
        """Return ``(SoAR, bracketed)``.  Without a reversal the answer
        is the highest rate that met the SLA (or, if none did, the lowest
        one tried) and ``bracketed`` is False."""
        capacity = 0.0
        for _ in range(self.PROBES):
            before = cpu_ticks()
            probed, attempted, failed = self.driver.saturate(
                self.probe_seconds)
            capacity = max(capacity, probed)
            self.probe_attempted += attempted
            self.probe_failed += failed
            if steal_share(before, cpu_ticks()) <= MAX_STEAL:
                break
        self.capacity = capacity
        rate = capacity * self.START
        factor = self.COARSE
        previous = None
        streak = 0
        reversed_once = False
        tracked = []
        for _ in range(self.steps):
            result = self.driver.step(rate, self.step_seconds)
            self.results.append(result)
            met = result.meets_sla()
            if result.spoiled() and not met:
                continue
            if previous is not None and met != previous[1]:
                factor = self.FINE
                streak = 0
                reversed_once = True
            if reversed_once:
                tracked.append(rate)
            streak += 1
            if streak > self.STREAK:
                factor = self.COARSE
            previous = (rate, met)
            rate = rate * factor if met else rate / factor
        if tracked:
            return math.exp(statistics.fmean(map(math.log, tracked))), True
        counted = [r for r in self.results
                   if r.meets_sla() or not r.spoiled()] or self.results
        rates = [r.rate for r in counted]
        if counted[0].meets_sla():
            return max(rates), False
        return min(rates), False
