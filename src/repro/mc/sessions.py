"""The model checker's programs: shipped sessions, plus a few mc-only ones.

Every session a shipped client runs is explored *as shipped*: each
builder below constructs the real consistency client of
:mod:`repro.core.policies` against the scenario's
:class:`~repro.mc.world.World` and steps its ``read_steps`` /
``write_steps`` generator -- the code BG drives to completion -- one
announced operation at a time.  The builders only translate between
the scenario's vocabulary and the client's:

* the SQL body updates ``items`` rows and, on commit, folds the new
  values into the world's committed history;
* ``compute`` (a reader's RDBMS query) and refreshers record the values
  they read, so the explorer's state fingerprint covers values held in
  generator locals;
* ``attempts`` becomes the client's :class:`~repro.util.backoff.
  NoBackoff` cap: a back-off or flight wait is a scheduling point, and a
  session whose cap runs out ends ``"starved"`` / ``"gave-up"`` instead
  of spinning.

The deliberately unsafe controls are substitutions a scenario makes,
never flags on shipped code: an unfenced flight registry
(:meth:`~repro.mc.world.World.flights`), :class:`JournalAtFailure`
(a backend that journals a key the moment its Q lease fails, i.e. before
the commit), :class:`WithoutPoison` (a backend without the router's
``poison`` marker) and :class:`GuessingClock` (a commit clock that sizes
an interval without registering a promise).

Only programs no shipped client runs are written here: the fault
pseudo-program, the journal reconciler, the migration driver, and the
two figure controls whose unsafe shape has no live twin
(:func:`dirty_refresher`, :func:`precommit_delta_writer`).
"""

from repro.config import ClockConfig
from repro.core.iq_client import IQClient
from repro.core.policies import (
    BaselineDeltaClient,
    BaselineInvalidateClient,
    BaselineRefreshClient,
    ClockClient,
    IQDeltaClient,
    IQInvalidateClient,
    IQRefreshClient,
    KeyChange,
    transaction_steps,
)
from repro.core.session import AcquisitionMode
from repro.core.steps import Op
from repro.errors import (
    CacheUnavailableError,
    StarvationError,
    TransactionAbortedError,
)
from repro.mc.program import MCProgram
from repro.sql.clock import CommitClock
from repro.util.backoff import NoBackoff

__all__ = [
    "iq_reader",
    "iq_invalidate_writer",
    "iq_refresh_writer",
    "iq_delta_writer",
    "baseline_reader",
    "baseline_trigger_invalidator",
    "baseline_cas_writer",
    "baseline_delta_writer",
    "clock_reader",
    "clock_writer",
    "dirty_refresher",
    "precommit_delta_writer",
    "fault_program",
    "reconciler",
    "migration_program",
    "JournalAtFailure",
    "WithoutPoison",
    "GuessingClock",
]

#: how a read session ended, by the label of its last performed step
_READ_ENDINGS = {
    "get": "hit", "flight-wait": "coalesced", "fill-set": "filled",
    "db-read": "degraded", "cget": "hit", "cset": "filled",
}


class _Abort(Exception):
    """An application-level failure raised inside a SQL body."""


def _encode(value):
    return str(value).encode()


def _delta_sql_expr(op, operand):
    if op in ("append", "prepend"):
        text = operand.decode() if isinstance(operand, bytes) else operand
        if op == "append":
            return "val + '{}'".format(text)
        return "'{}' + val".format(text)
    amount = int(operand)
    return "val + {}".format(amount) if op == "incr" else (
        "val - {}".format(amount)
    )


def _delta_assignments(deltas):
    """``[(key, op, operand)]`` -> ``{key: set-expression}``."""
    assignments = {}
    for key, op, operand in deltas:
        expr = assignments.get(key, "val")
        assignments[key] = _delta_sql_expr(op, operand).replace("val", expr, 1)
    return assignments


def _sql_body(world, name, assignments, abort=False):
    """The application's SQL: update ``items`` rows, record the commit.

    With ``abort`` the body fails after its updates -- the aborting
    writer of Figure 6.
    """

    def on_commit():
        world.record_commit()
        world.flags["sql_committed:{}".format(name)] = True

    def body(session):
        for key, expr in assignments.items():
            session.execute(
                "UPDATE items SET val = {} WHERE id = ?".format(expr),
                (world.row_id(key),),
            )
        if abort:
            raise _Abort(name)
        session.on_commit(on_commit)

    return body


def _compute(world, name, key):
    """A reader's RDBMS query; the value is recorded for fingerprints."""

    def compute():
        value = world.query_committed(key)
        world.observe(name, "query", key, value)
        return _encode(value)

    return compute


class _ProgramClient(IQClient):
    """An IQ client that attributes the TIDs it mints to its program."""

    def __init__(self, world, name, backend, attempts):
        super().__init__(backend, backoff=NoBackoff(attempts),
                         clock=world.clock, coalesce_fills=False)
        self._world = world
        self._name = name

    def gen_id(self):
        tid = self.server.gen_id()
        self._world.bind_tid(self._name, tid)
        return tid


def _tracked(steps, trail):
    """Re-yield ``steps``, remembering the last announced op's label."""
    try:
        op = next(steps)
        while True:
            trail[0] = op.label
            yield op
            op = next(steps)
    except StopIteration as stop:
        return stop.value


# ---------------------------------------------------------------------------
# shipped read sessions
# ---------------------------------------------------------------------------

def _read_program(name, key, make_client, expect=None):
    def factory(world):
        client = make_client(world)
        if expect is not None:
            yield from expect(world)
        trail = [None]
        try:
            value = yield from _tracked(
                client.read_steps(key, _compute(world, name, key)), trail)
        except StarvationError:
            return "starved"
        ending = _READ_ENDINGS[trail[0]]
        if ending in ("hit", "coalesced"):
            world.observe(name, "cache", key, value)
        return ending

    return MCProgram(name, factory)


def iq_reader(name, key, attempts=3, flights=None, expect=False):
    """The IQ read session (:meth:`_IQClientBase.read_steps`).

    ``attempts`` bounds the ``IQget`` polls.  ``flights`` -- one registry
    shared by the scenario's co-located readers -- turns on miss
    coalescing; waiters then spend the same budget on flight waits.

    With ``expect=True`` the program's first step snapshots the
    committed value -- the freshness baseline for the
    ``coalesced-stale`` oracle
    (:func:`repro.mc.scenarios.coalesced_final_checks`).  The snapshot
    is recorded only when no Q lease is outstanding on ``key``: a
    pending write session means this read may legally serialize before
    the writer (Figure 4's rearrangement window), so only reads that
    began *after* the writer's session fully ended carry the obligation
    to observe its value.
    """

    def make_client(world):
        client = _ProgramClient(world, name, world.backend, attempts - 1)
        client.flights = flights
        return IQInvalidateClient(client, world.connect, clock=world.clock)

    def snapshot(world):
        yield Op("expect", kvs=[key], sql=True)
        _has_i, q_holders = world.backend.leases.leases_on(key)
        if not q_holders:
            world.observe(name, "expect", key, world.query_committed(key))

    return _read_program(name, key, make_client, snapshot if expect else None)


def baseline_reader(name, key, attempts=3):
    """The Facebook read-lease reader of the unleased baseline."""
    return _read_program(name, key, lambda world: BaselineInvalidateClient(
        world.backend, world.connect, backoff=NoBackoff(attempts - 1),
        clock=world.clock))


def clock_reader(name, key, commit_clock=None):
    """The precise-clock read session (:meth:`ClockClient.read_steps`).

    The promise is announced as a SQL-side step (it reads and mutates
    the commit clock under the transaction-manager mutex) and the
    ``cget`` as a KVS step, so the explorer interleaves a writer's
    commit in between -- exactly the window the commit's clock jump must
    cover.  The client-local interval tier and fill coalescing are off
    (the world models the shared cache), so the session never backs
    off.  ``commit_clock(world)`` substitutes the client's commit clock
    (see :class:`GuessingClock`).
    """

    def make_client(world):
        client = ClockClient(
            world.backend, world.connect, clock=world.clock,
            config=ClockConfig(local_cache_entries=0), coalesce_fills=False)
        if commit_clock is not None:
            client.commit_clock = commit_clock(world)
        return client

    return _read_program(name, key, make_client)


# ---------------------------------------------------------------------------
# shipped write sessions
# ---------------------------------------------------------------------------

def _write_program(name, make_client, assignments, make_changes, attempts,
                   abort=False):
    def factory(world):
        client = make_client(world, attempts)
        body = _sql_body(world, name, assignments, abort=abort)
        try:
            yield from client.write_steps(body, make_changes(world))
        except StarvationError:
            return "gave-up"
        except _Abort:
            return "aborted"
        except TransactionAbortedError:
            return "sql-aborted"
        return "committed"

    return MCProgram(name, factory)


def _invalidations(assignments):
    return lambda world: [KeyChange(key) for key in assignments]


def _refreshes(name, key, compute, kind):
    """One refresher per world: records the old value it is handed."""

    def make_changes(world):
        def refresher(old):
            world.observe(name, kind, key, old)
            return None if old is None else _encode(compute(int(old)))

        return [KeyChange(key, refresher=refresher)]

    return make_changes


def _iq_client(cls, name, mode, backend=None, **options):
    def make(world, attempts):
        client = _ProgramClient(
            world, name,
            backend(world.backend) if backend else world.backend, 0)
        return cls(client, world.connect, mode=mode,
                   backoff=NoBackoff(attempts - 1), clock=world.clock,
                   **options)

    return make


def iq_invalidate_writer(name, assignments, attempts=3,
                         mode=AcquisitionMode.DURING, batch=False,
                         backend=None):
    """Figure 3's invalidate session (:class:`IQInvalidateClient`).

    ``assignments`` maps key -> SQL set-expression, all updated in one
    transaction.  ``batch`` acquires a multi-key write-set with one
    ``qareg`` step instead of per-key ``qar`` steps; ``backend`` wraps
    the world's backend (a substitution such as :class:`JournalAtFailure`).
    """
    return _write_program(
        name, _iq_client(IQInvalidateClient, name, mode, backend,
                         batch_leases=batch),
        assignments, _invalidations(assignments), attempts)


def iq_refresh_writer(name, key, expr, compute, attempts=3,
                      mode=AcquisitionMode.PRIOR, abort=False):
    """Figure 2's R-M-W session (:class:`IQRefreshClient`).

    ``compute`` maps the QaRead'd old value (an ``int``) to the new one;
    like BG's refreshers, a cold key (nothing to QaRead) yields no new
    value, and SaR releases the lease without installing.  ``abort``
    makes the SQL body fail after its update -- Figure 6's aborting
    writer, which ``Abort(TID)`` must clean up.
    """
    return _write_program(
        name, _iq_client(IQRefreshClient, name, mode), {key: expr},
        _refreshes(name, key, compute, "qaread"), attempts, abort=abort)


def iq_delta_writer(name, deltas, attempts=3, mode=AcquisitionMode.DURING,
                    backend=None):
    """Figures 7/8's incremental-update session (:class:`IQDeltaClient`).

    ``deltas`` is a list of ``(key, op, operand)``; each key's deltas
    form one :class:`KeyChange` and the SQL mirror of all of them runs
    in one transaction.
    """
    by_key = {}
    for key, op, operand in deltas:
        by_key.setdefault(key, []).append((op, operand))
    return _write_program(
        name, _iq_client(IQDeltaClient, name, mode, backend),
        _delta_assignments(deltas),
        lambda world: [KeyChange(key, deltas=ops)
                       for key, ops in by_key.items()],
        attempts)


def _baseline_client(cls, **options):
    return lambda world, attempts: cls(world.backend, world.connect,
                                       clock=world.clock, **options)


def baseline_trigger_invalidator(name, assignments):
    """Figure 3: the unleased invalidate, deleted by a trigger inside the
    transaction (:class:`BaselineInvalidateClient`)."""
    return _write_program(
        name, _baseline_client(BaselineInvalidateClient), assignments,
        _invalidations(assignments), 1)


def baseline_cas_writer(name, key, expr, compute):
    """Figure 2's R-M-W with gets/cas after commit
    (:class:`BaselineRefreshClient`, one cas attempt)."""
    return _write_program(
        name, _baseline_client(BaselineRefreshClient, cas_retries=1),
        {key: expr}, _refreshes(name, key, compute, "gets"), 1)


def baseline_delta_writer(name, key, op, operand):
    """Figure 8: the unleased delta applied after commit
    (:class:`BaselineDeltaClient`)."""
    operand = operand if isinstance(operand, bytes) else _encode(operand)
    return _write_program(
        name, _baseline_client(BaselineDeltaClient),
        _delta_assignments([(key, op, operand)]),
        lambda world: [KeyChange(key, deltas=[(op, operand)])], 1)


def clock_writer(name, assignments, attempts=3, abort=False):
    """The precise-clock write (:class:`ClockClient`): the SQL body,
    then a commit naming the keys in ``clock_keys`` -- zero cache steps.
    ``abort`` makes the body fail before commit (Figure 6)."""

    def make_client(world, attempts):
        return ClockClient(
            world.backend, world.connect, backoff=NoBackoff(attempts - 1),
            clock=world.clock, config=ClockConfig(local_cache_entries=0),
            coalesce_fills=False)

    return _write_program(
        name, make_client, assignments, _invalidations(assignments),
        attempts, abort=abort)


# ---------------------------------------------------------------------------
# unsafe controls, as substitutions
# ---------------------------------------------------------------------------

class _Proxy:
    def __init__(self, backend):
        self._backend = backend

    def __getattr__(self, name):
        return getattr(self._backend, name)


class JournalAtFailure(_Proxy):
    """A backend that journals a key the moment its ``qar`` fails --
    before the session's RDBMS transaction commits."""

    def qar(self, tid, key):
        try:
            return self._backend.qar(tid, key)
        except CacheUnavailableError:
            self._backend.journal.add([key])
            raise


class WithoutPoison(_Proxy):
    """A sharded backend without the ``poison`` marker: a failed delta
    proposal's leg commits whatever subset of deltas got through."""

    def __getattr__(self, name):
        if name == "poison":
            raise AttributeError(name)
        return super().__getattr__(name)


class GuessingClock(CommitClock):
    """A commit clock that sizes ``[now, now + guess)`` without
    registering a write horizon, so a clock-keyed commit advances the
    key's clock by one tick instead of jumping past the interval."""

    def __init__(self, db, guess=8):
        super().__init__(db)
        self.guess = guess

    def promise(self, key, ticks=None):
        now = self.now_of(key)
        return now, now + self.guess


# ---------------------------------------------------------------------------
# programs no shipped client runs
# ---------------------------------------------------------------------------

def dirty_refresher(name, key, expr, value):
    """Figure 6's control: refresh the cache pre-commit, then abort.

    No shipped client writes the cache before its commit; this program
    stays here to show the checker finds the dirty read it causes.
    """

    def factory(world):
        def set_dirty():
            yield Op("kvs-set", kvs=[key])
            world.backend.set(key, _encode(value))

        try:
            yield from transaction_steps(
                world.connect, _sql_body(world, name, {key: expr}, abort=True),
                trigger=set_dirty)
        except _Abort:
            return "aborted"

    return MCProgram(name, factory)


def precommit_delta_writer(name, key, op, operand):
    """Figure 7's control: the unleased delta applied inside the
    transaction, where a concurrent miss loses it.

    :class:`BaselineDeltaClient` applies deltas after commit (Figure 8);
    no shipped client applies them before, so this program stays here.
    """
    operand = operand if isinstance(operand, bytes) else _encode(operand)

    def factory(world):
        def apply_delta():
            yield Op("kvs-delta", kvs=[key])
            getattr(world.backend, op)(key, operand)

        body = _sql_body(world, name,
                         _delta_assignments([(key, op, operand)]))
        try:
            yield from transaction_steps(world.connect, body,
                                         trigger=apply_delta)
        except TransactionAbortedError:
            return "sql-aborted"
        return "committed"

    return MCProgram(name, factory)


def fault_program(name, label, action, keys):
    """A one-step pseudo-program that delivers a fault.

    ``action(world)`` flips a world-level fault control (arm an injector
    rule, gate a shard, expire leases); ``keys`` is the set of keys whose
    cache state the fault can affect, i.e. the op's write footprint --
    that is what lets DPOR treat fault delivery like any other
    conflicting operation.  Faults are environment events, not sessions,
    so no shipped client runs them.
    """

    def factory(world):
        yield Op(label, kvs=keys)
        action(world)
        return "delivered"

    return MCProgram(name, factory)


def reconciler(name, rounds=1):
    """Drain the sharded router's local journal (one pass per step).

    Delete-on-recover is a background duty of the router, not a client
    session, so the checker schedules it as its own program.
    """

    def factory(world):
        for _ in range(rounds):
            yield Op("reconcile", kvs=world.keys)
            world.backend.reconcile_local()
        return "reconciled"

    return MCProgram(name, factory)


def migration_program(name, plan):
    """Drive a :class:`~repro.sharding.Rebalancer` step sequence.

    ``plan(world)`` binds the rebalancer to the world and returns
    ``(rebalancer, step_iterator)``, e.g.::

        def plan(world):
            reb = Rebalancer(world.backend, quarantine_attempts=2)
            return reb, reb.steps_add("shard2", world.spare_gates["shard2"])

    The rebalancer already exposes its migration as steps; every
    :class:`~repro.sharding.MigrationStep` becomes one announced
    :class:`Op` whose footprint is the step's key list (``None`` -- begin
    / flip, which re-route *every* key -- widens to the whole key
    universe).  Migration TIDs are aliased to this program per source
    shard, so lease fingerprints stay schedule-independent.
    """

    def factory(world):
        rebalancer, steps = plan(world)
        rebalancer.tid_hook = (
            lambda shard, tid: world.bind_tid(name, tid, server=shard)
        )
        for step in steps:
            keys = world.keys if step.keys is None else tuple(step.keys)
            yield Op(step.label, kvs=keys)
            step.run()
        return "migrated" if rebalancer.report.completed else "incomplete"

    return MCProgram(name, factory)
