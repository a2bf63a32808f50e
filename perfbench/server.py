"""Cache server process for the wire workloads.

Serves one :class:`~repro.net.async_server.AsyncIQServer` over an
:class:`~repro.core.iq_server.IQServer` on loopback and takes orders on
standard input, one per line:

* ``trace on`` -- wrap the server-side layers (event loop, dispatcher,
  IQ server, lease table, store) and start recording spans;
* ``trace clear`` -- drop the spans recorded so far (prints ``{}``);
* ``trace off [<path>]`` -- stop and restore the original code; with a
  path, write the spans there and print the server's ledger as one JSON
  line, without one drop them (prints ``{}``);
* ``exit`` (or end of input) -- drain, print the process's peak RSS as a
  JSON line, and exit 0.

The first line it prints is ``READY <port>``.

Run: ``python3 perfbench/server.py`` (reads ``src/`` beside ``perfbench/``).
"""

import json
import os
import resource
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from repro.core.iq_server import IQServer  # noqa: E402
from repro.net.async_server import AsyncIQServer  # noqa: E402

import layers  # noqa: E402
from spans import Ledger, SpanRecorder, write_spans  # noqa: E402


def server_ledger(spans):
    """Per-layer self time and per-command costs of the server spans."""
    ledger = Ledger(spans)
    return {
        "layers": ledger.table(),
        "names": ledger.by_name(),
        "commands": ledger.calls_with_prefix("net.dispatch."),
        "iq_server_self_us": ledger.mean_self("core.iq_server.") * 1e6,
        "store_get_us": ledger.mean("kvs.store.get")[1] * 1e6,
    }


def reply(payload):
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def main():
    server = AsyncIQServer(("127.0.0.1", 0), iq_server=IQServer())
    loop = threading.Thread(target=server.serve_forever,
                            kwargs={"poll_interval": 0.05}, daemon=True)
    loop.start()
    recorder = SpanRecorder()
    reply_line = "READY {}\n".format(server.port)
    sys.stdout.write(reply_line)
    sys.stdout.flush()
    for line in sys.stdin:
        words = line.split()
        if words == ["trace", "on"]:
            layers.instrument_server(recorder)
            recorder.enabled = True
        elif words == ["trace", "clear"]:
            recorder.take()
            reply({})
        elif words[:2] == ["trace", "off"] and len(words) <= 3:
            recorder.unwrap_all()
            spans, _counts = recorder.take()
            if len(words) == 3:
                write_spans(words[2], spans)
                reply(server_ledger(spans))
            else:
                reply({})
        elif words == ["exit"]:
            break
        else:
            reply({"error": "unknown order {!r}".format(line.strip())})
    server.shutdown()
    server.server_close()
    loop.join(timeout=10)
    if loop.is_alive():
        sys.exit(3)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    reply({"peak_rss_mb": peak_kb / 1024.0})


if __name__ == "__main__":
    main()
