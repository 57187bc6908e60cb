"""Tiny stdlib HTTP thread exposing a metrics page at ``/metrics``.

No framework, no dependency: a :class:`~http.server.ThreadingHTTPServer`
on a daemon thread, rendering its source's ``render()`` per scrape — a
registry (``repro serve --metrics-port``) or a
:class:`~repro.obs.federation.Federator` (``repro cluster proxy
--federate-port``).  ``/healthz`` answers ``ok`` for liveness probes.
Anything heavier should scrape this endpoint rather than import the
process.
"""

from __future__ import annotations

import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

__all__ = ["MetricsServer"]

CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class MetricsServer:
    """Serves ``GET /metrics`` (text exposition) from a background thread.

    ``source`` is any object whose ``render()`` returns the exposition
    text.  ``port=0`` binds an ephemeral port; read :attr:`port` after
    :meth:`start`.  Usable as a context manager.
    """

    def __init__(self, source, *, port: int = 0,
                 host: str = "127.0.0.1") -> None:
        self.source = source
        self._host = host
        self._requested_port = port
        self._httpd: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None

    @property
    def port(self) -> int:
        """The bound port (valid after :meth:`start`)."""
        if self._httpd is None:
            return self._requested_port
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        """The scrape URL."""
        return f"http://{self._host}:{self.port}/metrics"

    def start(self) -> "MetricsServer":
        """Bind and start serving on a daemon thread."""
        if self._httpd is not None:
            return self
        source = self.source

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 - stdlib naming
                if self.path.split("?", 1)[0] == "/metrics":
                    body = source.render().encode("utf-8")
                    self.send_response(200)
                    self.send_header("Content-Type", CONTENT_TYPE)
                elif self.path == "/healthz":
                    body = b"ok\n"
                    self.send_response(200)
                    self.send_header("Content-Type", "text/plain")
                else:
                    body = b"not found\n"
                    self.send_response(404)
                    self.send_header("Content-Type", "text/plain")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, fmt, *args) -> None:
                pass  # scrapes should not spam the CLI

        self._httpd = ThreadingHTTPServer(
            (self._host, self._requested_port), Handler
        )
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="repro-metrics",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop serving and release the port (idempotent)."""
        if self._httpd is None:
            return
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self._httpd = None
        self._thread = None

    def __enter__(self) -> "MetricsServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def __repr__(self) -> str:
        state = "serving" if self._httpd is not None else "stopped"
        return f"MetricsServer({self.url}, {state})"
