"""IQ-Client: token and backoff management on behalf of the application.

The paper: "We represent a lease as a unique token generated by the
IQ-Server and maintained by the IQ-Client on behalf of a session.  These
tokens are transparent to the application."  Accordingly, application code
calls :meth:`IQClient.read_through` and never sees an I token; write
sessions go through :class:`repro.core.session.WriteSession`, which hides
the TID plumbing.

The client is transport-agnostic: it drives any
:class:`~repro.core.backend.LeaseBackend` -- the in-process
:class:`~repro.core.iq_server.IQServer`, a
:class:`repro.net.client.RemoteIQServer` over TCP, its fault-tolerant
wrapper :class:`repro.net.resilient.ResilientIQServer`, or a
:class:`repro.sharding.ShardedIQServer` routing across a fleet.
"""

from repro.config import BackoffConfig
from repro.errors import QuarantinedError
from repro.core.singleflight import FillOutcome, SingleFlight
from repro.core.steps import Op, drive
from repro.obs.trace import current_trace_id, get_tracer, trace_context
from repro.util.backoff import ExponentialBackoff
from repro.util.clock import SystemClock


class LocalPipeline:
    """Batch context over an in-process backend.

    Mirrors the :class:`repro.net.client.Pipeline` API -- queue methods
    return ``self``, ``execute()`` returns per-command results in order,
    a :class:`~repro.errors.QuarantinedError` lands in its result slot --
    but runs the commands sequentially at execute time, since there is no
    wire to amortize.  It exists so ``IQClient.pipeline()`` works
    uniformly over every :class:`~repro.core.backend.LeaseBackend`.
    """

    def __init__(self, server):
        self._server = server
        self._calls = []
        self._executed = False
        #: per-command results after :meth:`execute`, in request order
        self.results = None

    def __len__(self):
        return len(self._calls)

    def __getattr__(self, name):
        if name.startswith("_"):
            raise AttributeError(name)

        def queue(*args, **kwargs):
            if self._executed:
                raise RuntimeError("pipeline already executed")
            self._calls.append((name, args, kwargs))
            return self

        return queue

    def execute(self):
        if self._executed:
            raise RuntimeError("pipeline already executed")
        self._executed = True
        results = []
        for name, args, kwargs in self._calls:
            try:
                results.append(getattr(self._server, name)(*args, **kwargs))
            except QuarantinedError as exc:
                results.append(exc)
        self.results = results
        return results

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None and not self._executed:
            self.execute()
        return False


class IQClient:
    """Client-side of the IQ framework.

    With ``coalesce_fills`` (the default), concurrent read sessions of
    one key in this process share a single fill: a reader told to back
    off blocks on the in-flight filler's outcome instead of sleeping
    and re-polling the wire.  The coalesced value is consumed only when
    the filler's install was *applied* -- the fencing rule documented in
    :mod:`repro.core.singleflight`.  Write sessions reading their own
    keys never coalesce (their read-your-own view is session-private).
    """

    def __init__(self, server, backoff=None, clock=None,
                 coalesce_fills=True):
        self.server = server
        self.backoff = backoff or ExponentialBackoff(BackoffConfig())
        self.clock = clock or SystemClock()
        self.flights = SingleFlight() if coalesce_fills else None
        self._tracer = get_tracer()

    def pipeline(self):
        """A batch context over the backend.

        Wire backends (:class:`~repro.net.client.RemoteIQServer`,
        :class:`~repro.net.resilient.ResilientIQServer`) send every
        queued command in one write -- N commands, one round trip.
        In-process backends get a :class:`LocalPipeline` with the same
        API, so application code is transport-agnostic.
        """
        factory = getattr(self.server, "pipeline", None)
        if factory is not None:
            return factory()
        return LocalPipeline(self.server)

    # -- read sessions -----------------------------------------------------

    def read_through(self, key, compute, session=None):
        """Execute a read session for ``key``.

        On a hit returns the cached value.  On a miss with an I lease
        grant, calls ``compute()`` (the application's RDBMS query) and
        installs the result with ``IQset`` -- which the server ignores if
        the lease was voided by a concurrent Q lease in the meantime, in
        which case the *computed* value is still returned to the caller
        (the read serializes before the writer).  On a miss without a
        lease the client backs off and retries, per Section 3.2.

        ``compute`` may return ``None`` to indicate the object does not
        exist in the RDBMS; nothing is cached and ``None`` is returned.
        """
        return self.run_read(self.read_steps(key, compute, session))

    def run_read(self, steps):
        """Drive a read session to completion.

        Read sessions get their own trace unless one is already in
        flight (a write session reading its own keys keeps its trace).
        """
        tracer = self._tracer
        if tracer.active and current_trace_id() is None:
            with trace_context(tracer.new_trace()):
                return drive(steps)
        return drive(steps)

    def read_steps(self, key, compute, session=None):
        """The read session of :meth:`read_through`, as announced steps.

        A back-off sleeps (live) or is a scheduling point (model
        checker); with coalescing, a reader told to back off parks on a
        co-located in-flight fill instead.
        """
        tracer = self._tracer
        server = self.server
        delays = self.backoff.delays()
        coalesce = self.flights is not None and session is None
        while True:
            yield Op("get", kvs=(key,))
            result = server.iq_get(key, session=session)
            if result.is_hit:
                if tracer.active:
                    tracer.emit("client.read", key=key, outcome="hit")
                return result.value
            if result.has_lease:
                if coalesce:
                    return (yield from self._fill_steps(
                        key, compute, result.token, tracer))
                yield Op("fill-query", sql=True)
                value = compute()
                if value is None:
                    yield Op("release", kvs=(key,))
                    server.release_i(key, result.token)
                    if tracer.active:
                        tracer.emit("client.read", key=key, outcome="empty")
                    return None
                yield Op("fill-set", kvs=(key,))
                applied = server.iq_set(key, value, result.token)
                if tracer.active:
                    tracer.emit("client.read", key=key, outcome="fill",
                                applied=applied)
                return value
            if result.backoff:
                if tracer.active:
                    tracer.emit("client.backoff", key=key)
                delay = next(delays)
                flight = self.flights.join(key) if coalesce else None
                if flight is None:
                    self.clock.sleep(delay)
                    continue
                # Waiting on the flight *is* the backoff sleep: the
                # event trips the moment the filler resolves.  While the
                # flight is live the co-located filler holds the I
                # lease, so a wire poll can only come back as another
                # back-off -- park here instead, drawing each successive
                # delay from the same policy so StarvationError fires
                # exactly as it would have.
                yield Op("flight-wait", kvs=(key,))
                outcome = flight.wait(delay)
                while outcome is None and not flight.resolved:
                    yield Op("flight-wait", kvs=(key,))
                    outcome = flight.wait(next(delays))
                if outcome is not None and outcome.applied:
                    # Fence: the install redeemed a live I lease, so no
                    # invalidation intervened after we joined.
                    self.flights.note(True)
                    if tracer.active:
                        tracer.emit("client.read", key=key,
                                    outcome="coalesced")
                    return outcome.value
                self.flights.note(False)
                continue
            # Miss with neither lease nor backoff: the caller is a write
            # session reading its own invalidated key -- compute directly.
            if tracer.active:
                tracer.emit("client.read", key=key, outcome="own-miss")
            yield Op("fill-query", sql=True)
            return compute()

    def _fill_steps(self, key, compute, token, tracer):
        """Compute and install as the elected filler, publishing the
        outcome to coalesced waiters under the fencing rule."""
        yield Op("flight-begin", kvs=(key,))
        flight = self.flights.begin(key)
        yield Op("fill-query", sql=True)
        try:
            value = compute()
        except BaseException:
            self.flights.abandon(key, flight)
            raise
        if value is None:
            yield Op("release", kvs=(key,))
            self.server.release_i(key, token)
            self.flights.abandon(key, flight)
            if tracer.active:
                tracer.emit("client.read", key=key, outcome="empty")
            return None
        # Unregister BEFORE the install: no waiter may join afterwards,
        # so every waiter's read window opened while the fill was still
        # in flight (half of the fencing rule; the other half is the
        # applied check the waiters make).
        yield Op("flight-close", kvs=(key,))
        self.flights.unregister(key, flight)
        yield Op("fill-set", kvs=(key,))
        applied = False
        try:
            applied = self.server.iq_set(key, value, token)
        finally:
            flight.resolve(FillOutcome(value, applied=applied))
        if tracer.active:
            tracer.emit("client.read", key=key, outcome="fill",
                        applied=applied)
        return value

    def iq_get(self, key, session=None):
        """Raw ``IQget`` passthrough with a session's read-your-own view.

        Used by :class:`~repro.core.session.WriteSession` so sessions
        never reach past the client into a concrete backend.
        """
        return self.server.iq_get(key, session=session)

    def get_cached(self, key, session=None):
        """Return the cached value for ``key`` or ``None`` (no lease work).

        A plain consistency-agnostic read used by monitoring code; regular
        read sessions must use :meth:`read_through`.
        """
        result = self.server.iq_get(key, session=session)
        return result.value if result.is_hit else None

    # -- write-session command passthroughs ------------------------------------

    def gen_id(self):
        return self.server.gen_id()

    def qar(self, tid, key):
        return self.server.qar(tid, key)

    def qar_many(self, tid, keys):
        """Bulk invalidation ``qar`` (one round trip where the backend
        supports it; the :class:`LeaseBackend` default loops ``qar``)."""
        return self.server.qar_many(tid, keys)

    def iq_mget(self, keys, session=None):
        """Bulk ``iq_get`` preserving each key's read-your-own view."""
        return self.server.iq_mget(keys, session=session)

    def dar(self, tid):
        return self.server.dar(tid)

    def qaread(self, key, tid):
        return self.server.qaread(key, tid)

    def sar(self, key, value, tid):
        return self.server.sar(key, value, tid)

    def propose_refresh(self, key, value, tid):
        return self.server.propose_refresh(key, value, tid)

    def iq_delta(self, tid, key, op, operand):
        return self.server.iq_delta(tid, key, op, operand)

    def commit(self, tid):
        return self.server.commit(tid)

    def abort(self, tid):
        return self.server.abort(tid)
