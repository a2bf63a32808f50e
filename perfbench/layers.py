"""Which public entry points of which modules the traced run wraps.

Each layer is a module of this repository; its spans are named
``<layer>.<method>``.  The lists hold the entry points BG's IQ-invalidate
path calls (the lease-backend interface, the SQL connection, the BG
actions); wrapping them from here keeps the program itself untouched.
"""

#: The lease-backend commands (``repro.core.backend.LeaseBackend``) that
#: the IQ-invalidate client, the router and the wire clients expose.
BACKEND_COMMANDS = (
    "gen_id", "iq_get", "iq_set", "release_i", "qaread", "sar",
    "propose_refresh", "qar", "dar", "qar_many", "iq_mget", "iq_delta",
    "commit", "abort",
)

BG_ACTIONS = (
    "view_profile", "list_friends", "view_friend_requests",
    "view_top_k_resources", "view_comments_on_resource", "invite_friend",
    "accept_friend_request", "reject_friend_request", "thaw_friendship",
    "post_comment", "delete_comment",
)

LEASE_METHODS = (
    "request_i", "i_valid", "redeem_i", "void_i", "request_q", "q_held_by",
    "release_q",
)

STORE_METHODS = (
    "get", "gets", "get_multi", "set", "add", "replace", "append", "prepend",
    "cas", "delete", "incr", "decr", "touch",
)

SQL_METHODS = ("execute", "query_one", "query_scalar", "commit", "rollback")

IQ_CLIENT_METHODS = ("read_through", "get_cached") + BACKEND_COMMANDS


def _wrap_all(recorder, owner, layer, methods):
    for method in methods:
        if method in owner.__dict__:
            recorder.wrap(owner, method, "{}.{}".format(layer, method))


def instrument_cache(recorder):
    """The cache server's own layers: IQ server, lease table, store."""
    from repro.core.iq_server import IQServer
    from repro.core.leases import LeaseTable
    from repro.kvs.store import CacheStore

    _wrap_all(recorder, IQServer, "core.iq_server", BACKEND_COMMANDS)
    _wrap_all(recorder, LeaseTable, "core.leases", LEASE_METHODS)
    _wrap_all(recorder, CacheStore, "kvs.store", STORE_METHODS)


def instrument_server(recorder):
    """The wire server process: event loop, dispatcher, cache layers."""
    from repro.net import async_server

    recorder.wrap(async_server.AsyncIQServer, "_on_readable",
                  "net.async_server.readable")
    recorder.wrap(async_server, "dispatch", "net.dispatch.command")
    instrument_cache(recorder)


def instrument_client(recorder, in_process_cache):
    """The benchmark process: BG runner and actions, consistency client, IQ client, wire
    client or router, SQL engine (and the cache itself when it runs
    in-process)."""
    from repro.bg.actions import BGActions
    from repro.bg.runner import WorkloadRunner
    from repro.core.iq_client import IQClient
    from repro.core.policies import _IQClientBase
    from repro.core.singleflight import Flight
    from repro.net.client import RemoteIQServer
    from repro.net.resilient import ResilientIQServer
    from repro.sharding.router import ShardedIQServer, _FanoutPool
    from repro.sql.engine import Connection
    from repro.sql.storage import TableStorage
    from repro.util.clock import SystemClock

    recorder.wrap(WorkloadRunner, "execute_one", "bg.runner.execute_one")
    _wrap_all(recorder, BGActions, "bg.actions", BG_ACTIONS)
    _wrap_all(recorder, _IQClientBase, "core.policies", ("read", "write"))
    _wrap_all(recorder, IQClient, "core.iq_client", IQ_CLIENT_METHODS)
    recorder.wrap(SystemClock, "sleep", "backoff.sleep")
    recorder.wrap(Flight, "wait", "backoff.flight_wait")
    _wrap_all(recorder, ResilientIQServer, "net.resilient", BACKEND_COMMANDS)
    _wrap_all(recorder, RemoteIQServer, "net.client", BACKEND_COMMANDS)
    _wrap_all(recorder, ShardedIQServer, "sharding.router", BACKEND_COMMANDS)
    recorder.hand_over(_FanoutPool, "run")
    _wrap_all(recorder, Connection, "sql", SQL_METHODS)
    recorder.count_rows(TableStorage, "scan", "sql.rows_scanned")
    recorder.count_rows(TableStorage, "scan_rowids", "sql.rows_scanned")
    if in_process_cache:
        instrument_cache(recorder)
