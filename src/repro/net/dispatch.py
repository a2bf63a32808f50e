"""Transport-independent command dispatch for the wire servers.

Both wire transports -- the thread-per-connection
:class:`~repro.net.server.IQTCPServer` and the event-loop
:class:`~repro.net.async_server.AsyncIQServer` -- serve the same
protocol against the same :class:`~repro.core.iq_server.IQServer`.  The
*transport parity contract* (docs/ARCHITECTURE.md §12) demands that the
two produce byte-identical replies for any request stream; the only way
to keep that true as commands are added is for exactly one dispatcher
to exist.  This module is that dispatcher: a pure function from
``(iq, command, args, data)`` to reply bytes, plus the error-to-reply
mapping both transports share.

Dispatch is a precomputed table (:data:`_HANDLERS`) of per-command
functions rather than an if-chain: one dict probe replaces up to ~30
string comparisons for the commands at the chain's tail, and each
handler assembles its reply with ``bytes`` %-formatting (PEP 461) in a
single buffer instead of ``str.format().encode()`` -- same bytes on the
wire (the parity corpus pins this), fewer intermediate objects per
request.

Nothing here touches a socket; framing (reading the command line,
consuming the announced data block) stays in each transport, because
that is where the transports legitimately differ.
"""

from repro.errors import (
    BadValueError,
    KeyFormatError,
    ProtocolError,
    QuarantinedError,
    ReproError,
    ValueTooLargeError,
)
from repro.kvs.store import StoreResult
from repro.net.protocol import (
    CRLF,
    error_response,
    split_session_token,
    value_block,
    value_response,
)

STORE_REPLIES = {
    StoreResult.STORED: b"STORED",
    StoreResult.NOT_STORED: b"NOT_STORED",
    StoreResult.EXISTS: b"EXISTS",
    StoreResult.NOT_FOUND: b"NOT_FOUND",
}

QAREG_WORDS = {
    "granted": "GRANTED",
    "abort": "ABORT",
    "unavailable": "UNAVAIL",
}


def exception_reply(exc):
    """Map a dispatch-time exception to its reply bytes, or re-raise.

    The classification mirrors memcached: protocol violations and
    malformed arguments keep the connection usable (any data block was
    consumed before dispatch), server-side errors are reported as
    ``SERVER_ERROR``.  Exceptions outside the taxonomy propagate.
    """
    if isinstance(exc, ProtocolError):
        return error_response(str(exc))
    if isinstance(exc, (BadValueError, KeyFormatError, ValueTooLargeError)):
        return "CLIENT_ERROR {}".format(exc).encode()
    if isinstance(exc, ReproError):
        return error_response(str(exc))
    if isinstance(exc, (ValueError, IndexError)):
        # Malformed arguments (non-integer token/tid, missing fields).
        return "CLIENT_ERROR bad command arguments: {}".format(exc).encode()
    raise exc


# -- memcached base commands -------------------------------------------------

def _h_get(iq, args, data):
    return _retrieve(iq.store, args, with_cas=False)


def _h_gets(iq, args, data):
    return _retrieve(iq.store, args, with_cas=True)


def _store_handler(name):
    def handle(iq, args, data):
        key, flags, exptime = args[0], int(args[1]), float(args[2])
        ttl = exptime if exptime > 0 else None
        result = getattr(iq.store, name)(key, data, int(flags), ttl)
        return STORE_REPLIES[result]
    return handle


def _concat_handler(name):
    def handle(iq, args, data):
        return STORE_REPLIES[getattr(iq.store, name)(args[0], data)]
    return handle


def _h_cas(iq, args, data):
    key, flags, exptime, _size, cas_id = args[:5]
    ttl = float(exptime) if float(exptime) > 0 else None
    result = iq.store.cas(key, data, int(cas_id), int(flags), ttl)
    return STORE_REPLIES[result]


def _h_delete(iq, args, data):
    return b"DELETED" if iq.store.delete(args[0]) else b"NOT_FOUND"


def _delta_handler(name):
    def handle(iq, args, data):
        new = getattr(iq.store, name)(args[0], int(args[1]))
        if new is None:
            return b"NOT_FOUND"
        return b"%d" % new
    return handle


def _h_touch(iq, args, data):
    if iq.store.touch(args[0], float(args[1])):
        return b"TOUCHED"
    return b"NOT_FOUND"


def _h_flush_all(iq, args, data):
    iq.flush_all()
    return b"OK"


def _h_stats(iq, args, data):
    lines = [
        "STAT {} {}".format(name, value).encode()
        for name, value in sorted(iq.stats.snapshot().items())
    ]
    return CRLF.join(lines + [b"END"])


def _h_version(iq, args, data):
    return b"VERSION repro-iq-twemcached 1.0"


# -- IQ extensions -----------------------------------------------------------

def _h_genid(iq, args, data):
    return b"ID %d" % iq.gen_id()


def _h_iqget(iq, args, data):
    session = int(args[1]) if len(args) > 1 else None
    result = iq.iq_get(args[0], session=session)
    if result.is_hit:
        return value_block(args[0], result.value)
    if result.has_lease:
        return b"LEASE %d" % result.token
    return b"BACKOFF" if result.backoff else b"MISS"


def _h_iqset(iq, args, data):
    return b"STORED" if iq.iq_set(args[0], data, int(args[1])) else b"IGNORED"


def _h_releasei(iq, args, data):
    iq.release_i(args[0], int(args[1]))
    return b"OK"


def _h_qaread(iq, args, data):
    try:
        result = iq.qaread(args[0], int(args[1]))
    except QuarantinedError:
        return b"ABORT"
    if result.value is None:
        return b"MISS"
    return value_block(args[0], result.value)


def _h_sar(iq, args, data):
    stored = iq.sar(args[0], data, int(args[1]))
    if data is None:
        return b"RELEASED"
    return b"STORED" if stored else b"IGNORED"


def _h_qar(iq, args, data):
    try:
        iq.qar(int(args[0]), args[1])
    except QuarantinedError:
        return b"ABORT"
    return b"GRANTED"


def _h_dar(iq, args, data):
    iq.dar(int(args[0]))
    return b"OK"


def _h_iqdelta(iq, args, data):
    try:
        iq.iq_delta(int(args[0]), args[1], args[2], data)
    except QuarantinedError:
        return b"ABORT"
    return b"GRANTED"


def _h_commit(iq, args, data):
    iq.commit(int(args[0]))
    return b"OK"


def _h_abort(iq, args, data):
    iq.abort(int(args[0]))
    return b"OK"


# -- precise-clock extensions (ClockClient, repro.sql.clock) ---------------

def _h_cget(iq, args, data):
    extend = int(args[2]) if len(args) > 2 else None
    result = iq.cget(args[0], int(args[1]), extend=extend)
    if result.is_hit:
        return b"CVALUE %s %d %d %d %d\r\n%s\r\nEND" % (
            args[0].encode(),
            result.flags,
            result.valid_from,
            result.valid_until,
            len(result.value),
            result.value,
        )
    return b"EXPIRED" if result.expired else b"MISS"


def _h_cset(iq, args, data):
    stored = iq.cset(args[0], data, int(args[1]), int(args[2]))
    return b"STORED" if stored else b"IGNORED"


# -- multi-key extensions ----------------------------------------------------

def _h_iqmget(iq, args, data):
    keys, session = split_session_token(args)
    chunks = []
    for key, result in iq.iq_mget(keys, session=session).items():
        if result.is_hit:
            chunks.append(b"VALUE %s 0 %d\r\n%s" % (
                key.encode(), len(result.value), result.value))
        elif result.has_lease:
            chunks.append(b"LEASE %s %d" % (key.encode(), result.token))
        elif result.backoff:
            chunks.append(b"BACKOFF %s" % key.encode())
        else:
            chunks.append(b"MISS %s" % key.encode())
    chunks.append(b"END")
    return CRLF.join(chunks)


def _h_qareg(iq, args, data):
    results = iq.qar_many(int(args[0]), args[1:])
    chunks = [
        "{} {}".format(QAREG_WORDS[status], key).encode()
        for key, status in results.items()
    ]
    chunks.append(b"END")
    return CRLF.join(chunks)


def _h_mdelete(iq, args, data):
    hits = sum(1 for key in args if iq.store.delete(key))
    return b"DELETED %d" % hits


def _h_keysnap(iq, args, data):
    chunks = [
        "KEY {}".format(key).encode() for key in sorted(iq.store.keys())
    ]
    chunks.append(b"END")
    return CRLF.join(chunks)


#: Command name -> handler ``(iq, args, data) -> reply bytes``.  Built
#: once at import; :func:`dispatch` is a single dict probe.
_HANDLERS = {
    "get": _h_get,
    "gets": _h_gets,
    "set": _store_handler("set"),
    "add": _store_handler("add"),
    "replace": _store_handler("replace"),
    "append": _concat_handler("append"),
    "prepend": _concat_handler("prepend"),
    "cas": _h_cas,
    "delete": _h_delete,
    "incr": _delta_handler("incr"),
    "decr": _delta_handler("decr"),
    "touch": _h_touch,
    "flush_all": _h_flush_all,
    "stats": _h_stats,
    "version": _h_version,
    "genid": _h_genid,
    "iqget": _h_iqget,
    "iqset": _h_iqset,
    "releasei": _h_releasei,
    "qaread": _h_qaread,
    "sar": _h_sar,
    "qar": _h_qar,
    "dar": _h_dar,
    "iqdelta": _h_iqdelta,
    "commit": _h_commit,
    "abort": _h_abort,
    "cget": _h_cget,
    "cset": _h_cset,
    "iqmget": _h_iqmget,
    "qareg": _h_qareg,
    "mdelete": _h_mdelete,
    "keysnap": _h_keysnap,
}


def dispatch(iq, command, args, data):
    """Execute one parsed command against ``iq``; return the reply bytes.

    ``args`` must already have its trailing ``@t``/``@s`` tokens intact
    except the trace token (stripped by the caller, which owns the trace
    context).  Raises the dispatch-time exceptions listed in
    :func:`exception_reply`; the transports funnel them through it so
    both reply identically.
    """
    handler = _HANDLERS.get(command)
    if handler is None:
        raise ProtocolError("unknown command {!r}".format(command))
    return handler(iq, args, data)


def _retrieve(store, keys, with_cas):
    chunks = []
    if with_cas:
        for key in keys:
            hit = store.gets(key)
            if hit is not None:
                value, flags, cas_id = hit
                chunks.append(b"VALUE %s %d %d %d\r\n%s" % (
                    key.encode(), flags, len(value), cas_id, value))
    else:
        for key in keys:
            hit = store.get(key)
            if hit is not None:
                value, flags = hit
                chunks.append(b"VALUE %s %d %d\r\n%s" % (
                    key.encode(), flags, len(value), value))
    chunks.append(b"END")
    return CRLF.join(chunks)


def bump_stat(iq, name, amount=1):
    """Increment a server-side counter if the stats object supports it.

    Both transports report serving-layer counters (``pipelined_commands``,
    the event loop's per-loop metrics) through the IQ server's stats
    registry so ``stats`` exposes them over the wire; shards wrapping a
    stats-less backend simply skip the count.

    This does a ``getattr`` probe per call; hot loops should resolve a
    counter handle once via :func:`stat_handle` instead.
    """
    stats = getattr(iq, "stats", None)
    if stats is not None and callable(getattr(stats, "incr", None)):
        stats.incr(name, amount)


def stat_handle(iq, name):
    """Resolve ``name`` to a bound ``inc(amount=1)`` callable, or ``None``.

    The returned handle skips the per-call reflection *and* the stats
    view's per-call dict lookup -- it is the underlying registry
    counter's ``inc`` method, safe to call from any thread.  ``None``
    means the backend has no such counter (same condition under which
    :func:`bump_stat` silently skips).
    """
    stats = getattr(iq, "stats", None)
    if stats is None:
        return None
    counter = getattr(stats, "counter", None)
    if callable(counter):
        try:
            return counter(name).inc
        except KeyError:
            return None
    if callable(getattr(stats, "incr", None)):
        def inc(amount=1, _incr=stats.incr, _name=name):
            _incr(_name, amount)
        return inc
    return None
