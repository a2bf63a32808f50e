"""The benchmark's workloads and the deployments they run on.

All three run BG under IQ-invalidate with the default hotspot (70% of
requests to 20% of members) over a seeded graph of 10 friends and 3
resources per member.  Each exists to load a different set of layers:

* ``readhot-wire`` -- almost every action is a cache hit served over
  loopback, so time goes to the wire client, codec, IQ server, lease
  table and store; ``sql`` is nearly idle.
* ``writeheavy-wire`` -- the same layers with 10% writes: Q leases,
  ``qar``/``dar``/``commit`` round trips, snapshot-isolation write
  conflicts and invalidation-driven I-lease refills through ``sql``.
* ``overbudget-sharded`` -- the working set is four times the cache, so
  evictions force misses and ``sql`` plus I-lease fills dominate; the
  router does per-key work and there is no wire.
"""

import json
import os
import select
import subprocess
import sys
from dataclasses import dataclass

from repro.bg.actions import Technique
from repro.bg.harness import build_bg_system
from repro.bg.runner import _ThreadState
from repro.bg.workload import HIGH_WRITE_MIX, VERY_LOW_WRITE_MIX
from repro.config import KVSConfig, NetConfig
from repro.core.iq_server import IQServer
from repro.net.resilient import ResilientIQServer

HERE = os.path.dirname(os.path.abspath(__file__))

#: Threads driving load and cache connections in the wire pool: at most
#: the host's two cores, so the load generator cannot outnumber them.
WORKERS = 2

FRIENDS_PER_MEMBER = 10
RESOURCES_PER_MEMBER = 3

#: ``overbudget-sharded``: each shard's store holds about a quarter of its
#: share of the ~1.26 MB working set of 1000 members.
SHARD_MEMORY_LIMIT = 160_000


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    members: int
    mix: object
    hot_writes: bool
    #: ``"wire"`` (out-of-process AsyncIQServer) or ``"sharded"``
    #: (in-process router over two memory-limited IQ servers)
    deployment: str
    #: offered actions/s of the fixed-rate phase: a fifth to a third of
    #: the SoAR measured on a quiet 2-core host when the benchmark was
    #: introduced, so the phase stays well below the knee even when CPU
    #: steal on a shared host halves capacity
    fixed_rate: float


WORKLOADS = (
    Workload(
        name="readhot-wire",
        why=("0.1% writes, 500 members, whole working set cached, wire "
             "server: hits load net.client, codec, core.iq_server, "
             "core.leases and kvs.store; sql nearly idle"),
        members=500, mix=VERY_LOW_WRITE_MIX, hot_writes=False,
        deployment="wire", fixed_rate=1000.0,
    ),
    Workload(
        name="writeheavy-wire",
        why=("10% writes on hot members, same deployment: Q leases, "
             "qar/dar round trips, SI conflicts and I-lease refills "
             "through sql; a read gain that costs writes shows here"),
        members=500, mix=HIGH_WRITE_MIX, hot_writes=True,
        deployment="wire", fixed_rate=140.0,
    ),
    Workload(
        name="overbudget-sharded",
        why=("0.1% writes, 1000 members, working set 4x the cache of a "
             "2-shard in-process router: evictions force misses, so sql "
             "and I-lease fills dominate; no wire"),
        members=1000, mix=VERY_LOW_WRITE_MIX, hot_writes=False,
        deployment="sharded", fixed_rate=200.0,
    ),
)


class ActionFailed(Exception):
    """A write action the BG runner gave up on (counted as failed)."""


class ServerProcess:
    """``perfbench/server.py`` as a child process, ordered over stdin."""

    def __init__(self, timeout=30.0):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "server.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        words = self._line(timeout).split()
        if len(words) != 2 or words[0] != "READY":
            raise RuntimeError("server did not start: {!r}".format(words))
        self.port = int(words[1])

    @property
    def pid(self):
        return self.proc.pid

    def _line(self, timeout):
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        if not ready:
            raise RuntimeError("server did not answer in {}s".format(timeout))
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("server exited with code {}".format(
                self.proc.wait(timeout)))
        return line

    def order(self, text, timeout=60.0):
        """Send one order; return the JSON reply (``None`` for none)."""
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()
        if text == "trace on":
            return None
        return json.loads(self._line(timeout))

    def stop(self, timeout=30.0):
        """Ask for a drained exit; return ``(exit code, peak RSS MB)``."""
        reply = self.order("exit", timeout)
        self.proc.stdin.close()
        code = self.proc.wait(timeout)
        self.proc.stdout.close()
        return code, reply.get("peak_rss_mb", 0.0)

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            try:
                stream.close()
            except OSError:
                pass


class Deployment:
    """One built and warmed BG system for a workload."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.server = None
        self.backend = None
        if workload.deployment == "wire":
            self.server = ServerProcess()
            self.backend = ResilientIQServer(
                port=self.server.port, config=NetConfig(pool_size=WORKERS))
            cache = self.backend
        else:
            cache = [
                IQServer(kvs_config=KVSConfig(
                    memory_limit_bytes=SHARD_MEMORY_LIMIT))
                for _ in range(2)
            ]
        self.system = build_bg_system(
            members=workload.members,
            friends_per_member=FRIENDS_PER_MEMBER,
            resources_per_member=RESOURCES_PER_MEMBER,
            technique=Technique.INVALIDATE, mix=workload.mix, seed=seed,
            hot_writes=workload.hot_writes, iq_server=cache,
        )
        self.warm(seed)

    def shard_backends(self):
        cache = self.system.cache
        return [cache.backend(name) for name in cache.shard_names]

    def warm(self, seed):
        """Wire: every key cached.  Sharded: cache full (every shard has
        evicted), filled in the workload's own popularity order."""
        actions = self.system.actions
        graph = self.system.graph
        reads = (actions.view_profile, actions.list_friends,
                 actions.view_friend_requests, actions.view_top_k_resources)
        if self.workload.deployment == "wire":
            for member in graph.member_ids():
                for read in reads:
                    read(member)
            for resource in range(graph.total_resources()):
                actions.view_comments_on_resource(resource)
            return
        runner = self.system.runner
        state = _ThreadState(seed ^ 0xA11, graph.config.members,
                             graph.config.resources_per_member,
                             runner.hot_exponent)
        stores = [backend.store for backend in self.shard_backends()]
        for _ in range(4 * graph.config.members):
            if all(store.stats.get("evictions") for store in stores):
                return
            member = state.popular_member()
            for read in reads:
                read(member)

    def cache_stats(self):
        """Summed cache counters (``get_hits``, ``evictions`` ...)."""
        if self.backend is not None:
            return {k: _number(v) for k, v in self.backend.stats().items()}
        total = {}
        for backend in self.shard_backends():
            for name, value in backend.stats.snapshot().items():
                total[name] = total.get(name, 0) + _number(value)
        return total

    def close(self):
        """Tear down; return ``(server exit code, server peak RSS MB)``
        (``(0, 0.0)`` without a server process)."""
        if self.backend is not None:
            self.backend.close()
        if self.server is None:
            return 0, 0.0
        try:
            return self.server.stop()
        finally:
            self.server.kill()

    def abort(self):
        """Best-effort teardown after an error."""
        if self.backend is not None:
            self.backend.close()
        if self.server is not None:
            self.server.kill()


def _number(value):
    try:
        return float(value)
    except (TypeError, ValueError):
        return 0.0


class BGExecutor:
    """``execute(request_id, worker)`` for the driver: one BG action drawn
    from the workload mix by the worker's seeded sampling state."""

    def __init__(self, system, seed, workers=WORKERS):
        self.runner = system.runner
        config = system.graph.config
        self.states = [
            _ThreadState(seed * 7919 + w, config.members,
                         config.resources_per_member,
                         self.runner.hot_exponent)
            for w in range(workers)
        ]
        self.stats = [
            {"restarts": [], "fallbacks": 0, "errors": 0}
            for _ in range(workers)
        ]

    def __call__(self, request_id, worker):
        state = self.states[worker]
        stats = self.stats[worker]
        errors = stats["errors"]
        name = self.runner.mix.sample(state.rng)
        kind = self.runner.execute_one(name, state, stats)
        if stats["errors"] != errors:
            raise ActionFailed(name)
        return kind

    def restarts(self):
        return [r for stats in self.stats for r in stats["restarts"]]
