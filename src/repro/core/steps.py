"""Announce-then-perform steps: the one form every session is written in.

Each consistency session (an IQ read, an invalidate/refresh/delta write,
a clock read or write, the unleased baselines) is a generator that,
before every operation on shared state, yields an :class:`Op` naming
the operation and the resources it is about to touch, and *then*
performs it against the lease backend or the SQL connection::

    def read_steps(self, key, compute):
        yield Op("get", kvs=(key,))        # announce ...
        result = self.server.iq_get(key)   # ... then perform
        ...

Two drivers run the same generators:

* the live clients run them to completion with :func:`drive` -- a
  back-off step really sleeps, a flight wait really blocks;
* the model checker (:mod:`repro.mc`) advances them one step at a time
  and, because each pending operation is announced before it runs,
  knows which interleavings commute without executing them.

Footprints are built lazily: the live driver never reads them, so an
:class:`Op` costs one small object per step on the hot path.
"""

__all__ = ["Op", "drive", "independent"]


class Op:
    """One announced operation: a label plus its shared-resource footprint.

    ``reads``/``writes`` are sets of opaque resource names.  Two
    operations are *dependent* when one writes a resource the other
    touches; dependent operations do not commute, so their orders must
    both be explored.  Convenience keywords:

    * ``kvs=[key, ...]`` -- touches the cache/lease state of those keys
      (always a write: lease tables mutate even on reads);
    * ``sql=True`` -- touches the shared RDBMS (snapshots, row locks,
      commit order, the commit clock);
    * ``local=True`` (implied by an empty footprint) -- a purely
      program-local step that commutes with everything.
    """

    __slots__ = ("label", "_kvs", "_sql", "_extra", "_reads", "_writes")

    def __init__(self, label, kvs=(), sql=False, reads=(), writes=(),
                 local=False):
        self.label = label
        self._kvs = () if local else kvs
        self._sql = sql and not local
        self._extra = None if local or not (reads or writes) else (
            reads, writes)
        self._reads = None
        self._writes = None

    def _build(self):
        reads, writes = self._extra or ((), ())
        writes = set(writes)
        writes.update("kvs:{}".format(key) for key in self._kvs)
        if self._sql:
            writes.add("sql")
        self._reads = frozenset(reads)
        self._writes = frozenset(writes)

    @property
    def reads(self):
        if self._reads is None:
            self._build()
        return self._reads

    @property
    def writes(self):
        if self._writes is None:
            self._build()
        return self._writes

    @property
    def footprint(self):
        return self.reads | self.writes

    def __repr__(self):
        return "Op({!r})".format(self.label)

    def __str__(self):
        return self.label


def independent(op_a, op_b):
    """True when the two operations commute (disjoint conflict footprint)."""
    if op_a is None or op_b is None:
        return True
    if op_a.writes & (op_b.reads | op_b.writes):
        return False
    if op_b.writes & (op_a.reads | op_a.writes):
        return False
    return True


def drive(steps):
    """Run a session generator to completion; return its result."""
    try:
        while True:
            next(steps)
    except StopIteration as stop:
        return stop.value
