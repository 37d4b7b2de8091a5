"""``python -m repro.server`` with the benchmark's layer wrappers.

    python3 e2ebench/serve_traced.py --trace-out FILE --open DIR --port 0

Installs the span wrappers of :mod:`layers` in the server process, tags
each request with its op or the leading characters of its text, and then
serves exactly as ``python -m repro.server`` does. Tracing is off until
SIGUSR1, which resets the aggregates, turns tracing on and writes
``FILE.on``. SIGUSR2 writes the aggregates to ``FILE`` and the spans to
``FILE.spans``.
"""

from __future__ import annotations

import json
import os
import signal
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from layers import Tracer, install  # noqa: E402
from wire import TAG_CHARS  # noqa: E402


def _write(path: str, text: str) -> None:
    temporary = path + ".tmp"
    with open(temporary, "w", encoding="utf-8") as handle:
        handle.write(text)
    os.replace(temporary, path)


def main() -> int:
    argv = sys.argv[1:]
    at = argv.index("--trace-out")
    out = argv[at + 1]
    del argv[at:at + 2]

    tracer = Tracer()
    install(tracer, wire=True)

    from repro.server import server

    dispatch = server.ExcessServer._dispatch

    def tagged(self, session, op, request):
        tracer.stmt += 1
        text = request.get("text") if op == "query" else None
        tracer.tag = text[:TAG_CHARS] if isinstance(text, str) else str(op)
        return dispatch(self, session, op, request)

    server.ExcessServer._dispatch = tagged

    def start(_signum, _frame):
        tracer.reset()
        tracer.enabled = True
        _write(out + ".on", "on")

    def dump(_signum, _frame):
        tracer.enabled = False
        tracer.write_spans(out + ".spans")
        _write(out, json.dumps(tracer.snapshot()))

    signal.signal(signal.SIGUSR1, start)
    signal.signal(signal.SIGUSR2, dump)
    return server.main(argv)


if __name__ == "__main__":
    sys.exit(main())
