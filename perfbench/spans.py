"""In-memory span recorder and the per-layer ledger built from its spans.

The recorder instruments the program from outside: :meth:`SpanRecorder.wrap`
replaces a class (or module) attribute with a timing wrapper and
:meth:`SpanRecorder.unwrap_all` puts the original back, so nothing under
``src/`` changes and an untraced run executes the original code.

A span is ``(span_id, name, start, end, parent_id, action_id, error)``:

* ``name`` is ``<layer>.<method>``, where ``<layer>`` is one of this repo's
  modules (``core.iq_server``, ``kvs.store``, ``sql`` ...);
* ``parent_id`` is the innermost open span of the same thread, or of the
  thread that handed the work over (the router's commit fan-out pool);
* ``action_id`` is the BG action the span served (``None`` server-side,
  where a command carries no action identity);
* ``error`` is the exception class name when the call raised.

Self time is a span's duration minus the part of that interval its child
spans cover (the union of the children's intervals, so parallel children
are not counted twice).
"""

import itertools
import json
import threading
import time

#: Spans whose time belongs to the layer that called them, not to a layer
#: of their own: backoff sleeps and coalesced-fill waits.
BACKOFF_PREFIX = "backoff."

ROOT_NAME = "driver.action"

_MISSING = object()


class _ThreadSpans:
    __slots__ = ("spans", "stack", "action", "counts")

    def __init__(self):
        self.spans = []
        self.stack = []
        self.action = None
        self.counts = {}


class SpanRecorder:
    """Collects spans in per-thread lists; install with :meth:`wrap`."""

    def __init__(self):
        self._local = threading.local()
        self._threads = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._patches = []
        self.enabled = False

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadSpans()
            with self._lock:
                self._threads.append(state)
        return state

    # -- instrumentation -----------------------------------------------------

    def wrap(self, owner, attr, name):
        """Time every call of ``owner.attr`` as a span called ``name``."""
        original = getattr(owner, attr)
        recorder = self

        def traced(*args, **kwargs):
            if not recorder.enabled:
                return original(*args, **kwargs)
            state = recorder._state()
            stack = state.stack
            span_id = next(recorder._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            error = None
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                state.spans.append(
                    (span_id, name, start, end, parent, state.action, error)
                )

        self._patch(owner, attr, traced)

    def count_rows(self, owner, attr, counter):
        """Count the items a generator method yields under ``counter``."""
        original = getattr(owner, attr)
        recorder = self

        def counted(*args, **kwargs):
            if not recorder.enabled:
                yield from original(*args, **kwargs)
                return
            counts = recorder._state().counts
            for item in original(*args, **kwargs):
                counts[counter] = counts.get(counter, 0) + 1
                yield item

        self._patch(owner, attr, counted)

    def hand_over(self, owner, attr):
        """Make closures passed to ``owner.attr(self, fns)`` run with the
        caller's open span and action as their parent (thread pools)."""
        original = getattr(owner, attr)
        recorder = self

        def handed(pool, fns):
            if not recorder.enabled:
                return original(pool, fns)
            state = recorder._state()
            parent = state.stack[-1] if state.stack else None
            action = state.action
            return original(
                pool, [recorder._adopt(fn, parent, action) for fn in fns]
            )

        self._patch(owner, attr, handed)

    def _adopt(self, fn, parent, action):
        def run():
            state = self._state()
            saved = state.stack, state.action
            state.stack = [parent] if parent is not None else []
            state.action = action
            try:
                return fn()
            finally:
                state.stack, state.action = saved
        return run

    def _patch(self, owner, attr, replacement):
        previous = owner.__dict__.get(attr, _MISSING)
        self._patches.append((owner, attr, previous))
        setattr(owner, attr, replacement)

    def unwrap_all(self):
        """Restore every wrapped attribute (reverse order)."""
        self.enabled = False
        while self._patches:
            owner, attr, previous = self._patches.pop()
            if previous is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)

    # -- the driver's root span ----------------------------------------------

    def begin_action(self, action_id):
        """Open the root span of one BG action on this thread."""
        state = self._state()
        state.action = action_id
        span_id = next(self._ids)
        state.stack.append(span_id)
        return span_id, time.perf_counter()

    def end_action(self, token, error=None):
        span_id, start = token
        end = time.perf_counter()
        state = self._state()
        state.stack.pop()
        state.spans.append(
            (span_id, ROOT_NAME, start, end, None, state.action, error)
        )
        state.action = None

    # -- results ---------------------------------------------------------------

    def take(self):
        """Return and clear every span and row count recorded so far."""
        spans, counts = [], {}
        with self._lock:
            threads = list(self._threads)
        for state in threads:
            taken, state.spans = state.spans, []
            spans.extend(taken)
            for name, value in state.counts.items():
                counts[name] = counts.get(name, 0) + value
            state.counts.clear()
        spans.sort(key=lambda span: span[2])
        return spans, counts


def write_spans(path, spans):
    """Write spans as one JSON array per line."""
    with open(path, "w") as out:
        for span in spans:
            out.write(json.dumps(span))
            out.write("\n")


def layer_of(name):
    """``core.iq_server.iq_get`` -> ``core.iq_server``."""
    return name.rsplit(".", 1)[0]


def self_times(spans):
    """Map span id -> self time: duration minus the union of the
    intervals its children cover (clipped to the span)."""
    children = {}
    for span in spans:
        parent = span[4]
        if parent is not None:
            children.setdefault(parent, []).append((span[2], span[3]))
    result = {}
    for span in spans:
        span_id, _name, start, end = span[0], span[1], span[2], span[3]
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(span_id, ())):
            lo = max(child_start, cursor)
            hi = min(child_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span_id] = (end - start) - covered
    return result


def attributed_layer(span, by_id):
    """The layer a span's self time is charged to: backoff waits belong
    to the layer that waited."""
    name = span[1]
    while name.startswith(BACKOFF_PREFIX):
        parent = by_id.get(span[4])
        if parent is None:
            return "driver"
        span = parent
        name = span[1]
    return layer_of(name)


class Ledger:
    """Per-layer and per-span-name totals over one set of spans."""

    def __init__(self, spans):
        self.spans = spans
        self.by_id = {span[0]: span for span in spans}
        self.self_time = self_times(spans)
        self.layers = {}
        self.names = {}
        for span in spans:
            own = self.self_time[span[0]]
            layer = attributed_layer(span, self.by_id)
            entry = self.layers.setdefault(layer, [0, 0.0])
            entry[0] += 1
            entry[1] += own
            entry = self.names.setdefault(span[1], [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += own
            entry[2] += span[3] - span[2]

    def mean(self, name):
        """``(mean self time, mean duration)`` (s) of spans ``name``."""
        calls, own, duration = self.names.get(name, (0, 0.0, 0.0))
        return (own / calls, duration / calls) if calls else (0.0, 0.0)

    def calls_with_prefix(self, prefix):
        return sum(v[0] for n, v in self.names.items() if n.startswith(prefix))

    def self_with_prefix(self, prefix):
        return sum(v[1] for n, v in self.names.items() if n.startswith(prefix))

    def mean_self(self, prefix):
        """Mean self time (s) of spans whose name starts with ``prefix``."""
        calls = self.calls_with_prefix(prefix)
        return self.self_with_prefix(prefix) / calls if calls else 0.0

    def durations(self, prefix):
        """Durations (s) of the spans whose name starts with ``prefix``."""
        return [span[3] - span[2] for span in self.spans
                if span[1].startswith(prefix)]

    def coverage(self):
        """Share of action wall time the layer spans' self times cover.

        Action wall time is the driver's root span; a ledger that closes
        leaves at most a few percent unattributed to a layer.
        """
        wall = 0.0
        covered = 0.0
        for span in self.spans:
            own = self.self_time[span[0]]
            if span[1] == ROOT_NAME:
                wall += span[3] - span[2]
            elif span[5] is not None:
                covered += own
        return covered / wall if wall else 0.0

    def table(self):
        """``{layer: {"calls": n, "self_ms": total}}`` sorted by self time."""
        rows = sorted(self.layers.items(), key=lambda kv: -kv[1][1])
        return {
            layer: {"calls": calls, "self_ms": round(total * 1e3, 3)}
            for layer, (calls, total) in rows
        }

    def by_name(self):
        """``{span name: {"calls", "self_us_mean", "dur_us_mean"}}``."""
        return {
            name: {
                "calls": calls,
                "self_us_mean": round(own / calls * 1e6, 3),
                "dur_us_mean": round(dur / calls * 1e6, 3),
            }
            for name, (calls, own, dur) in sorted(self.names.items())
        }
