"""Measurement logic of the benchmark; ``run.py`` is the command line.

Imported only after ``run.py`` has found ``src/``.
"""

import fnmatch
import gc
import json
import math
import os
import platform
import resource
import statistics
import time

import layers
import workloads
from driver import (
    MAX_STEAL,
    SLA_PERCENTILE,
    OpenLoopDriver,
    SoarSearch,
    cpu_ticks,
    merge_steps,
    percentile,
    steal_share,
)
from spans import (
    Ledger,
    SpanRecorder,
    attributed_layer,
    layer_of,
    write_spans,
)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

#: Deployments an untraced run builds to measure ``setup_s``: the median
#: of :data:`SETUPS` builds that the host's CPU steal did not spoil (see
#: ``driver.SoarSearch``), building again up to :data:`MAX_SETUPS` in all;
#: if every build was spoiled, the median of all of them.
SETUPS = 3
MAX_SETUPS = 4

#: The untraced fixed-rate phase runs as this many back-to-back chunks.
FIXED_CHUNKS = 4

#: Target length of one SoAR step (s): the search runs as many steps as
#: its share of ``--seconds`` holds, and never fewer than
#: :data:`SOAR_MIN_STEPS`.  Many short steps give the staircase many
#: reversals, so the median over them averages host-speed bursts that
#: last a second or two.
SOAR_STEP_SECONDS = 1.0
SOAR_MIN_STEPS = 10

#: Share of ``--seconds`` each phase gets (untraced / traced run).  The
#: untraced run gives most of its time to the gated SoAR search; at 30 s
#: its fixed-rate phase still holds 1200 reads at the lowest fixed rate,
#: so the pooled read p99 has ten samples beyond it.
PLAN = {
    0: {"fixed": 0.2, "probe": 0.04, "steps": 0.76},
    1: {"soar_probe": 0.05, "soar_steps": 0.3, "fixed": 0.3},
}

#: Metrics measured and printed but not in ``BENCHMARK.json``: their
#: run-to-run spread on a shared 2-core host reached or passed the
#: largest bound the benchmark may set (see README.md).
REPORTED_ONLY = {"read_p50_ms": "ms", "read_p99_ms": "ms",
                 "action_p95_ms": "ms"}

#: Layers whose self time per action the traced run reports.
LEDGER_LAYERS = (
    "bg.runner", "bg.actions", "core.policies", "core.iq_client",
    "net.resilient", "net.client", "sharding.router", "net.async_server", "net.dispatch",
    "core.iq_server", "core.leases", "kvs.store", "sql",
)



def select(known, args):
    """The workloads ``--workload`` or ``--only`` name."""
    if args.workload is not None:
        if args.workload not in {w.name for w in known}:
            raise SystemExit("unknown workload {!r}; known: {}".format(
                args.workload, ", ".join(w.name for w in known)))
        return [w for w in known if w.name == args.workload]
    patterns = [p.strip() for p in args.only.split(",") if p.strip()]
    chosen = [w for w in known
              if any(fnmatch.fnmatchcase(w.name, p) for p in patterns)]
    if not chosen:
        raise SystemExit("--only {!r} selects no workload".format(args.only))
    return chosen



# -- provenance ----------------------------------------------------------------

def git_sha():
    """The checkout's commit, read from ``.git`` without running git."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path) as head:
            ref = head.read().strip()
    except OSError:
        return "unknown"
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    try:
        with open(os.path.join(ROOT, ".git", name)) as loose:
            return loose.read().strip()
    except OSError:
        pass
    try:
        with open(os.path.join(ROOT, ".git", "packed-refs")) as packed:
            for line in packed:
                parts = line.split()
                if len(parts) == 2 and parts[1] == name:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def provenance(workload, args):
    return {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "fixed_rate_aps": workload.fixed_rate,
        "workers": workloads.WORKERS,
    }


# -- measurements ----------------------------------------------------------------

def ms(seconds):
    return seconds * 1e3


def proc_cpu_seconds(pid):
    """utime + stime of ``pid`` from ``/proc``."""
    with open("/proc/{}/stat".format(pid)) as stat:
        fields = stat.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def fixed_rate_metrics(chunks):
    """Latency at the fixed rate: the median over chunks of each chunk's
    percentile, so a burst of host noise spoils one chunk, not the run."""
    def over_chunks(q, kind):
        return ms(statistics.median(
            percentile(c.latency[kind] if kind else c.all_latency, q)
            for c in chunks))

    return {
        "read_p50_ms": over_chunks(0.50, "read"),
        "read_p99_ms": over_chunks(0.99, "read"),
        "action_p95_ms": over_chunks(SLA_PERCENTILE, None),
    }


def write_metrics(step):
    """Write latency, only where at least ten samples lie beyond the
    percentile (the ``writeheavy-wire`` workload)."""
    writes = step.latency["write"]
    out = {"write_samples": len(writes)}
    for name, q in (("write_p50_ms", 0.50), ("write_p95_ms", 0.95)):
        if len(writes) * (1 - q) >= 10:
            out[name] = ms(percentile(writes, q))
    return out


class Tally:
    """Every action attempted in the run, and whether each was settled."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unaccounted = 0
        self.crashes = []

    def add_step(self, step):
        self.attempted += step.attempted
        self.failed += step.failed
        self.unaccounted += step.attempted - step.accounted
        self.crashes.extend(step.crashes)
        return step

    def add_search(self, search):
        self.attempted += search.probe_attempted
        self.failed += search.probe_failed
        for step in search.results:
            self.add_step(step)
        return search


class Discarding:
    """Driver adapter for the traced SoAR search: pays the tracing cost
    but drops each step's spans so memory stays bounded."""

    def __init__(self, driver, recorder, server):
        self.driver = driver
        self.recorder = recorder
        self.server = server

    def _clear(self):
        self.recorder.take()
        if self.server is not None:
            self.server.order("trace clear")

    def step(self, rate, seconds):
        try:
            return self.driver.step(rate, seconds)
        finally:
            self._clear()

    def saturate(self, seconds):
        try:
            return self.driver.saturate(seconds)
        finally:
            self._clear()


def soar(driver, seconds, probe_share, steps_share):
    budget = seconds * steps_share
    steps = max(SOAR_MIN_STEPS, round(budget / SOAR_STEP_SECONDS))
    search = SoarSearch(driver, probe_seconds=seconds * probe_share,
                        step_seconds=budget / steps, steps=steps)
    rate, bracketed = search.run()
    return search, rate, bracketed


def check_correct(deployment, tally, exit_code):
    """The run's correctness gate; returns a list of violations."""
    problems = []
    log = deployment.system.log
    if log.unpredictable_reads() != 0:
        problems.append("{} unpredictable reads ({})".format(
            log.unpredictable_reads(), log.breakdown()))
    if log.reads() == 0:
        problems.append("no read was validated")
    if tally.unaccounted:
        problems.append("{} actions neither completed nor failed".format(
            tally.unaccounted))
    if tally.crashes:
        problems.append("driver worker crashed: {!r}".format(
            tally.crashes[0]))
    if exit_code != 0:
        problems.append("cache server exited with code {}".format(exit_code))
    return problems


def run_untraced(workload, args, report):
    plan = PLAN[0]
    setups = []
    clean_setups = []
    deployment = None
    exit_codes = []
    try:
        while len(clean_setups) < SETUPS and len(setups) < MAX_SETUPS:
            if deployment is not None:
                exit_codes.append(deployment.close()[0])
                deployment = None
            ticks = cpu_ticks()
            start = time.perf_counter()
            deployment = workloads.Deployment(workload, args.seed)
            setups.append(time.perf_counter() - start)
            if steal_share(ticks, cpu_ticks()) <= MAX_STEAL:
                clean_setups.append(setups[-1])
            # Earlier deployments' garbage must not be collected on the
            # measured clock.
            gc.collect()
        executor = workloads.BGExecutor(deployment.system, args.seed)
        driver = OpenLoopDriver(executor, workers=workloads.WORKERS, seed=args.seed)
        tally = Tally()
        chunks = [
            tally.add_step(driver.step(
                workload.fixed_rate,
                args.seconds * plan["fixed"] / FIXED_CHUNKS))
            for _ in range(FIXED_CHUNKS)
        ]
        fixed = merge_steps(chunks)
        search, soar_aps, bracketed = soar(
            driver, args.seconds, plan["probe"], plan["steps"])
        tally.add_search(search)
        exit_code, server_rss = deployment.close()
        closed = deployment
        deployment = None
    finally:
        if deployment is not None:
            deployment.abort()
    exit_codes.append(exit_code)
    worst_exit = next((c for c in exit_codes if c != 0), 0)
    problems = check_correct(closed, tally, worst_exit)
    metrics = {"setup_s": statistics.median(clean_setups or setups),
               "soar_aps": soar_aps}
    metrics.update(fixed_rate_metrics(chunks))
    metrics["peak_rss_mb"] = peak_rss_mb() + server_rss
    report.update({
        "setups_s": setups,
        "clean_setups_s": clean_setups,
        "soar": soar_report(search, bracketed),
        "fixed": step_report(fixed),
        "read_p99_pooled_ms": ms(percentile(fixed.latency["read"], 0.99)),
        "writes": write_metrics(fixed),
        "failed_frac": tally.failed / tally.attempted,
        "valid": fixed.valid(),
    })
    return metrics, tally, problems


def step_report(step):
    return {
        "offered_aps": step.attempted / step.seconds,
        "achieved_aps": step.achieved,
        "attempted": step.attempted,
        "failed": step.failed,
        "reads": len(step.latency["read"]),
        "writes": len(step.latency["write"]),
        "sla_latency_ms": ms(step.sla_latency()),
        "backlog_grew": step.backlog_grew(),
        "lag_p99_ms": ms(step.lag_p99()),
        "oversleep_p99_ms": ms(step.oversleep_p99()),
        "client_cpu_frac": step.cpu / step.elapsed,
    }


def soar_report(search, bracketed):
    return {
        "capacity_aps": search.capacity,
        "bracketed": bracketed,
        "steps": [
            {"rate": s.rate, "sla_latency_ms": ms(s.sla_latency()),
             "backlog_grew": s.backlog_grew(), "met": s.meets_sla(),
             "steal_share": s.steal, "spoiled": s.spoiled()}
            for s in search.results
        ],
    }


def run_traced(workload, args, report):
    plan = PLAN[1]
    recorder = SpanRecorder()
    deployment = workloads.Deployment(workload, args.seed)
    gc.collect()
    try:
        executor = workloads.BGExecutor(deployment.system, args.seed)
        plain = OpenLoopDriver(executor, workers=workloads.WORKERS, seed=args.seed)
        tally = Tally()
        search_plain, soar_plain, plain_bracketed = soar(
            plain, args.seconds, plan["soar_probe"], plan["soar_steps"])
        tally.add_search(search_plain)

        server = deployment.server
        layers.instrument_client(recorder,
                                 in_process_cache=server is None)
        recorder.enabled = True
        if server is not None:
            server.order("trace on")
        traced = OpenLoopDriver(executor, workers=workloads.WORKERS,
                                seed=args.seed + 1, hooks=recorder)
        stats_before = deployment.cache_stats()
        coalesced_before = deployment.system.consistency_client.client \
            .flights.coalesced
        restarts_before = len(executor.restarts())
        server_cpu_before = (proc_cpu_seconds(server.pid)
                             if server is not None else 0.0)
        fixed = tally.add_step(traced.step(
            workload.fixed_rate, args.seconds * plan["fixed"]))
        server_cpu = (proc_cpu_seconds(server.pid) - server_cpu_before
                      if server is not None else 0.0)
        stats_after = deployment.cache_stats()
        os.makedirs(OUT, exist_ok=True)
        stem = os.path.join(OUT, "{}-s{}".format(workload.name, args.seed))
        server_ledger = None
        if server is not None:
            server_ledger = server.order(
                "trace off {}-server-spans.jsonl".format(stem))
        spans, counts = recorder.take()
        write_spans(stem + "-client-spans.jsonl", spans)
        context = {
            "step": fixed,
            "stats": {k: stats_after.get(k, 0) - stats_before.get(k, 0)
                      for k in stats_after},
            "coalesced": deployment.system.consistency_client.client
            .flights.coalesced - coalesced_before,
            "restarts": executor.restarts()[restarts_before:],
            "server_cpu": server_cpu,
            "server_ledger": server_ledger,
            "counts": counts,
        }
        ledger = Ledger(spans)

        if server is not None:
            server.order("trace on")
        search_traced, soar_traced, traced_bracketed = soar(
            Discarding(traced, recorder, server), args.seconds,
            plan["soar_probe"], plan["soar_steps"])
        tally.add_search(search_traced)
        recorder.unwrap_all()
        if server is not None:
            server.order("trace off")
        exit_code, _server_rss = deployment.close()
        closed = deployment
        deployment = None
    finally:
        recorder.unwrap_all()
        if deployment is not None:
            deployment.abort()
    problems = check_correct(closed, tally, exit_code)
    metrics = layer_metrics(ledger, context)
    metrics["trace.overhead_frac"] = 1.0 - soar_traced / soar_plain
    report.update({
        "soar_untraced": soar_report(search_plain, plain_bracketed),
        "soar_traced": soar_report(search_traced, traced_bracketed),
        "fixed": step_report(fixed),
        "ledger": {
            "client_layers": ledger.table(),
            "client_names": ledger.by_name(),
            "server": server_ledger,
        },
        "failed_frac": tally.failed / tally.attempted,
        "valid": fixed.valid(),
    })
    return metrics, tally, problems


def layer_metrics(ledger, context):
    """The per-layer metrics of ``BENCHMARK.json`` from one traced step."""
    step = context["step"]
    stats = context["stats"]
    server = context["server_ledger"]
    actions = max(1, step.accounted)
    per_write = max(1, len(step.latency["write"]))

    rtts = ledger.durations("net.client.")
    query_names = ("sql.execute", "sql.query_one", "sql.query_scalar")
    queries = 0
    query_self = 0.0
    commits = []
    aborts = 0
    backoffs = 0
    backoff_wait = 0.0
    router_commits = 0
    legs = 0
    by_id = ledger.by_id
    for span in ledger.spans:
        name = span[1]
        parent = by_id.get(span[4])
        parent_layer = layer_of(parent[1]) if parent is not None else None
        if name in query_names:
            query_self += ledger.self_time[span[0]]
            if parent_layer != "sql":
                queries += 1
                if span[6] == "TransactionAbortedError":
                    aborts += 1
        elif name == "sql.commit" and parent_layer != "sql":
            commits.append(span[3] - span[2])
        elif name.startswith("backoff."):
            if attributed_layer(span, by_id) == "core.iq_client":
                backoffs += 1
                backoff_wait += span[3] - span[2]
        elif name == "sharding.router.commit":
            router_commits += 1
        if (name.startswith("core.iq_server.") and parent is not None
                and parent[1] == "sharding.router.commit"):
            legs += 1

    hits = stats.get("get_hits", 0)
    lookups = hits + stats.get("get_misses", 0)
    restarts = context["restarts"]
    if server is not None:
        iq_self_us = server["iq_server_self_us"]
        get_us = server["store_get_us"]
    else:
        iq_self_us = ledger.mean_self("core.iq_server.") * 1e6
        get_us = ledger.mean("kvs.store.get")[1] * 1e6

    metrics = {
        "net.client.round_trips_per_action": len(rtts) / actions,
        "net.client.rtt_p50_us": _us(percentile(rtts, 0.50)),
        "net.client.rtt_p99_us": _us(percentile(rtts, 0.99)),
        "net.server.cpu_frac": context["server_cpu"] / step.elapsed,
        "core.iq_server.self_us": iq_self_us,
        "kvs.store.get_us": get_us,
        "proc.client_cpu_frac": step.cpu / step.elapsed,
        "kvs.store.hit_ratio": hits / lookups if lookups else 0.0,
        "kvs.store.evictions_per_s": stats.get("evictions", 0) / step.elapsed,
        "sql.queries_per_action": queries / actions,
        "sql.query_self_ms": ms(query_self / queries) if queries else 0.0,
        "sql.rows_scanned_per_query": (
            context["counts"].get("sql.rows_scanned", 0) / queries
            if queries else 0.0),
        "sql.commit_ms": ms(statistics.fmean(commits)) if commits else 0.0,
        "sql.tx_aborts_per_write": aborts / per_write,
        "core.leases.q_rejects_per_write":
            stats.get("q_lease_rejects", 0) / per_write,
        "core.leases.i_voids": stats.get("i_lease_voids", 0),
        "core.iq_client.backoffs_per_action": backoffs / actions,
        "core.iq_client.backoff_wait_ms": ms(backoff_wait / actions),
        "core.iq_client.coalesced_fills": context["coalesced"],
        "core.policies.write_restarts_per_session": (
            statistics.fmean(restarts) if restarts else 0.0),
        "core.policies.read_self_us":
            ledger.mean("core.policies.read")[0] * 1e6,
        "core.policies.write_self_us":
            ledger.mean("core.policies.write")[0] * 1e6,
        "sharding.router.self_us":
            ledger.mean_self("sharding.router.") * 1e6,
        "sharding.router.legs_per_commit": (
            legs / router_commits if router_commits else 0.0),
        "driver.lag_p99_ms": ms(step.lag_p99()),
        "driver.oversleep_p99_ms": ms(step.oversleep_p99()),
        "driver.offered_aps": step.attempted / step.seconds,
        "driver.achieved_aps": step.achieved,
        "trace.ledger_coverage": ledger.coverage(),
    }
    server_layers = server["layers"] if server is not None else {}
    for layer in LEDGER_LAYERS:
        total = ledger.layers.get(layer, (0, 0.0))[1]
        total += server_layers.get(layer, {}).get("self_ms", 0.0) / 1e3
        metrics["ledger.{}.self_us_per_action".format(layer)] = (
            total / actions * 1e6)
    return metrics


def _us(seconds):
    return 0.0 if math.isnan(seconds) else seconds * 1e6


# -- output ------------------------------------------------------------------------

def metric_units():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec:
        bench = json.load(spec)
    return {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }


def finite(value):
    value = float(value)
    return value if math.isfinite(value) else None


def run_one(workload, args):
    """Run one workload; print its metrics; return (result, ok)."""
    report = {"provenance": provenance(workload, args)}
    runner = run_traced if args.trace else run_untraced
    steal_before, _busy, total_before = cpu_ticks()
    metrics, tally, problems = runner(workload, args, report)
    steal_after, _busy, total_after = cpu_ticks()
    # CPU time the hypervisor gave to other guests while this run wanted
    # it: a shared host's noise, recorded so noisy runs can be told apart.
    report["provenance"]["cpu_steal_frac"] = (
        (steal_after - steal_before) / max(1, total_after - total_before))
    units = metric_units()[args.trace]
    missing = sorted(set(units) - set(metrics))
    if missing:
        problems.append("metrics not measured: {}".format(missing))
    prov = report["provenance"]
    print("# {workload} seed={seed} trace={trace} seconds={seconds} "
          "cpus={cpu_count} affinity={cpu_affinity} python={python} "
          "sha={git_sha} fixed_rate={fixed_rate_aps}/s workers={workers} "
          "steal={cpu_steal_frac:.3f}"
          .format(**prov))
    for name, value in metrics.items():
        if name in units:
            print("{:<44} {:>14.4f} {}".format(name, value, units[name]))
        else:
            print("{:<44} {:>14.4f} {} (not gated)".format(
                name, value, REPORTED_ONLY[name]))
    for name, value in sorted(report.get("writes", {}).items()):
        print("{:<44} {:>14.4f}".format(name, value))
    print("{:<44} {:>14.6f} ({} of {})".format(
        "failed_frac", report["failed_frac"], tally.failed, tally.attempted))
    if not report["valid"]:
        print("driver: INVALID -- oversleep p99 {:.2f} ms at the fixed "
              "rate; the figures measure the load generator".format(
                  report["fixed"]["oversleep_p99_ms"]))
    for problem in problems:
        print("FAILED workload={} seed={}: {}".format(
            workload.name, args.seed, problem))
    result = {
        "correct": not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": finite(metrics[name]), "unit": unit}
            for name, unit in units.items() if name in metrics
        },
    }
    report["metrics"] = metrics
    report["result"] = result
    report["problems"] = problems
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "{}-s{}-trace{}.json".format(
        workload.name, args.seed, args.trace))
    with open(path, "w") as out:
        json.dump(report, out, indent=1, default=str)
    return result, not problems


def main(args):
    chosen = select(workloads.WORKLOADS, args)
    if args.list:
        for workload in chosen:
            print("{:<20} fixed {:>6.0f}/s  {}".format(
                workload.name, workload.fixed_rate, workload.why))
        return 0
    if args.dry_run:
        for workload in chosen:
            print("would run {} seed={} seconds={} trace={}: {}".format(
                workload.name, args.seed, args.seconds, args.trace,
                {k: round(v * args.seconds, 2)
                 for k, v in PLAN[args.trace].items()}))
        return 0
    ok = True
    for workload in chosen:
        result, passed = run_one(workload, args)
        ok = ok and passed
        print(json.dumps(result), flush=True)
    return 0 if ok else 1
