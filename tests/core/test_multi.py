"""Multi-transaction sessions (the Section 8 future-work extension)."""

import pytest

from repro.core.iq_client import IQClient
from repro.core.multi import (
    CompensationError,
    MultiSessionRunner,
    MultiTransactionSession,
)
from repro.errors import QuarantinedError, SessionAbortedError
from repro.util.backoff import NoBackoff


@pytest.fixture
def client(iq):
    return IQClient(iq, backoff=NoBackoff())


@pytest.fixture
def bank_db(db):
    connection = db.connect()
    connection.execute(
        "CREATE TABLE accounts (id INTEGER PRIMARY KEY, balance INTEGER)"
    )
    connection.execute(
        "INSERT INTO accounts (id, balance) VALUES (1, 100), (2, 50)"
    )
    connection.close()
    return db


def balance(db, account):
    connection = db.connect()
    try:
        return connection.query_scalar(
            "SELECT balance FROM accounts WHERE id = ?", (account,)
        )
    finally:
        connection.close()


class TestHappyPath:
    def test_two_transactions_one_session(self, client, bank_db, iq):
        iq.store.set("acct:1", b"100")
        iq.store.set("acct:2", b"50")
        session = MultiTransactionSession(client, bank_db.connect)
        old1 = session.qaread("acct:1")
        old2 = session.qaread("acct:2")

        with session.transaction() as txn:
            txn.execute(
                "UPDATE accounts SET balance = balance - 10 WHERE id = 1"
            )
        with session.transaction() as txn:
            txn.execute(
                "UPDATE accounts SET balance = balance + 10 WHERE id = 2"
            )

        session.sar_at_commit("acct:1", str(int(old1) - 10).encode())
        session.sar_at_commit("acct:2", str(int(old2) + 10).encode())
        session.commit()

        assert balance(bank_db, 1) == 90
        assert balance(bank_db, 2) == 60
        assert iq.store.get("acct:1") == (b"90", 0)
        assert iq.store.get("acct:2") == (b"60", 0)

    def test_leases_held_across_transactions(self, client, bank_db, iq):
        session = MultiTransactionSession(client, bank_db.connect)
        session.qaread("acct:1")
        with session.transaction() as txn:
            txn.execute("UPDATE accounts SET balance = 0 WHERE id = 1")
        # Between constituent transactions the key stays quarantined.
        with pytest.raises(QuarantinedError):
            iq.qaread("acct:1", iq.gen_id())
        session.commit()
        iq.qaread("acct:1", iq.gen_id())

    def test_invalidate_and_delta_mix(self, client, bank_db, iq):
        iq.store.set("acct:1", b"100")
        iq.store.set("total", b"150")
        session = MultiTransactionSession(client, bank_db.connect)
        session.qar("acct:1")
        session.delta("total", "decr", 10)
        with session.transaction() as txn:
            txn.execute(
                "UPDATE accounts SET balance = balance - 10 WHERE id = 1"
            )
        session.commit()
        assert iq.store.get("acct:1") is None
        assert iq.store.get("total") == (b"140", 0)


class TestAbortAndCompensation:
    def test_abort_compensates_committed_steps(self, client, bank_db, iq):
        iq.store.set("acct:1", b"100")
        session = MultiTransactionSession(client, bank_db.connect)
        session.qaread("acct:1")

        def undo(connection):
            connection.execute(
                "UPDATE accounts SET balance = balance + 10 WHERE id = 1"
            )

        with session.transaction(undo=undo) as txn:
            txn.execute(
                "UPDATE accounts SET balance = balance - 10 WHERE id = 1"
            )
        assert balance(bank_db, 1) == 90  # committed
        session.abort()
        assert balance(bank_db, 1) == 100  # compensated
        # KVS untouched; lease released.
        assert iq.store.get("acct:1") == (b"100", 0)
        iq.qaread("acct:1", iq.gen_id())

    def test_compensations_run_newest_first(self, client, bank_db):
        order = []
        session = MultiTransactionSession(client, bank_db.connect)
        for step in (1, 2):
            def undo(connection, step=step):
                order.append(step)

            with session.transaction(undo=undo, description=str(step)) as txn:
                txn.execute(
                    "UPDATE accounts SET balance = balance - 1 WHERE id = 1"
                )
        session.abort()
        assert order == [2, 1]

    def test_lease_conflict_mid_session_aborts_whole_session(
        self, client, bank_db, iq
    ):
        blocker = iq.gen_id()
        iq.qaread("acct:2", blocker)
        session = MultiTransactionSession(client, bank_db.connect)
        session.qaread("acct:1")

        def undo(connection):
            connection.execute(
                "UPDATE accounts SET balance = balance + 10 WHERE id = 1"
            )

        with session.transaction(undo=undo) as txn:
            txn.execute(
                "UPDATE accounts SET balance = balance - 10 WHERE id = 1"
            )
        with pytest.raises(QuarantinedError):
            session.qaread("acct:2")
        assert balance(bank_db, 1) == 100  # first step compensated
        iq.qaread("acct:1", iq.gen_id())   # leases released

    def test_missing_undo_deletes_keys_for_safety(self, client, bank_db, iq):
        iq.store.set("acct:1", b"100")
        session = MultiTransactionSession(client, bank_db.connect)
        session.qaread("acct:1")
        with session.transaction() as txn:  # no undo registered
            txn.execute("UPDATE accounts SET balance = 0 WHERE id = 1")
        with pytest.raises(CompensationError):
            session.abort()
        # Safety via deletion: the possibly-inconsistent key is gone.
        assert iq.store.get("acct:1") is None

    def test_session_unusable_after_finish(self, client, bank_db):
        session = MultiTransactionSession(client, bank_db.connect)
        session.commit()
        with pytest.raises(SessionAbortedError):
            session.qar("k")

    def test_sar_without_lease_rejected(self, client, bank_db):
        session = MultiTransactionSession(client, bank_db.connect)
        with pytest.raises(SessionAbortedError):
            session.sar_at_commit("nope", b"v")


class TestRunner:
    def test_retries_until_lease_free(self, client, bank_db, iq, clock):
        blocker = iq.gen_id()
        iq.qaread("acct:1", blocker)
        attempts = []
        runner = MultiSessionRunner(
            client, bank_db.connect, backoff=NoBackoff(max_attempts=10),
            clock=clock,
        )

        def body(session):
            attempts.append(1)
            if len(attempts) == 2:
                iq.sar("acct:1", None, blocker)
            old = session.qaread("acct:1")
            with session.transaction() as txn:
                txn.execute(
                    "UPDATE accounts SET balance = balance - 1 WHERE id = 1"
                )
            if old is not None:
                session.sar_at_commit(
                    "acct:1", str(int(old) - 1).encode()
                )
            return "moved"

        assert runner.run(body) == "moved"
        assert len(attempts) == 2
        assert balance(bank_db, 1) == 99


class TestNoStaleDataExhaustive:
    def test_reader_vs_two_transaction_writer(self):
        """Explore every reader/two-txn-writer interleaving: never stale."""
        from repro.mc import MCProgram, Op, Scenario, World, explore
        from repro.mc.sessions import iq_reader

        def writer(world):
            yield Op("qaread", kvs=["k0"])
            session = MultiTransactionSession(
                IQClient(world.backend), world.connect)
            world.bind_tid("W", session.tid)
            old = session.qaread("k0")
            world.observe("W", "qaread", "k0", old)
            for step in ("txn1", "txn2"):
                yield Op(step, sql=True)
                with session.transaction() as txn:
                    txn.execute("UPDATE items SET val = val + 1 WHERE id = 1")
                world.record_commit()
            yield Op("commit", kvs=["k0"])
            session.sar_at_commit("k0", str(int(old) + 2).encode())
            session.commit()

        def build():
            world = World(keys=("k0",))
            world.seed("k0", 0)
            return world, [MCProgram("W", writer),
                           iq_reader("R", "k0", attempts=6)]

        report = explore(Scenario("multi-txn", build), max_states=200000)
        assert report.ok, [v.messages for v in report.violations]
        assert report.schedules_explored > 1
