"""The HTTP presentation over :class:`~repro.serve.service.RankingService`.

Deliberately thin: the handler parses the URL, picks a service method,
and turns the returned dict into a JSON body — every domain decision
(validation, store lookup, compute) lives one layer down where it is
unit-testable without sockets. Built on the stdlib
:class:`~http.server.ThreadingHTTPServer`; no third-party deps.

Each connection gets its own thread, which parses, calls the service
and writes the response. In the daemon those threads compute nothing:
the service hands every computation to its
:class:`~repro.serve.service.ComputeThread`, the thread that ran the
pipeline, and a connection thread waits for the answer (see
:mod:`repro.serve.service` for why).

Routes (all ``GET``, all ``application/json``):

==============  ============================================  =======
path            query parameters                              status
==============  ============================================  =======
``/healthz``    —                                             200
``/rank``       ``metric`` (required), ``country``, ``k``     200
``/report``     ``country``                                   200
``/case-study`` ``country``                                   200
==============  ============================================  =======

A :class:`~repro.serve.service.QueryError` — a bad parameter or a
request target that does not parse — maps to 400 with an
``{"error": ...}`` body, an unknown path to 404, and any unexpected
failure to 500 — one bad request must never take the daemon down.
Response bodies are serialized with ``sort_keys=True`` so identical
queries yield byte-identical bodies across threads and restarts.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Mapping
from urllib.parse import parse_qs, urlsplit

from repro.serve.service import QueryError, RankingService

ROUTES = ("/healthz", "/rank", "/report", "/case-study")


class RankingServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one :class:`RankingService`.

    ``max_requests`` (used by smoke tests and the load generator)
    shuts the server down after that many requests have been answered;
    ``None`` serves forever.

    The daemon runs the accept loop through :meth:`serve` and ends it
    with :meth:`stop`, which may come first: ``shutdown`` alone waits
    forever for a loop that never started.
    """

    daemon_threads = True

    def __init__(
        self,
        address: tuple[str, int],
        service: RankingService,
        max_requests: int | None = None,
    ) -> None:
        super().__init__(address, ServeHandler)
        self.service = service
        self._remaining = max_requests
        self._countdown = threading.Lock()
        #: orders :meth:`serve`'s start against :meth:`stop`
        self._lifecycle = threading.Lock()
        self._serving = False
        self._stopped = False

    @property
    def port(self) -> int:
        """The bound port (useful with ephemeral ``port=0``)."""
        return self.server_address[1]

    def serve(self) -> None:
        """Run the accept loop until shutdown; return at once if
        :meth:`stop` came first."""
        with self._lifecycle:
            if self._stopped:
                return
            self._serving = True
        try:
            self.serve_forever()
        finally:
            with self._lifecycle:
                self._serving = False

    def stop(self) -> None:
        """End the accept loop if :meth:`serve` runs it, and keep a
        later :meth:`serve` from starting it (from any thread)."""
        with self._lifecycle:
            self._stopped = True
            serving = self._serving
        if serving:
            self.shutdown()

    def request_served(self) -> None:
        """One response went out; shut down once the budget is spent.

        ``shutdown`` blocks until the accept loop exits, so it runs on
        a side thread rather than the handler's own.
        """
        if self._remaining is None:
            return
        with self._countdown:
            self._remaining -= 1
            exhausted = self._remaining <= 0
        if exhausted:
            threading.Thread(target=self.shutdown, daemon=True).start()


class ServeHandler(BaseHTTPRequestHandler):
    """Parses one request, dispatches to the service, writes JSON."""

    server: RankingServer
    server_version = "repro-serve"
    protocol_version = "HTTP/1.1"
    #: headers and body go out in two writes; without TCP_NODELAY,
    #: Nagle's algorithm holds the body back on a kept-alive connection
    #: until the client's delayed ACK
    disable_nagle_algorithm = True

    def do_GET(self) -> None:
        path = ""
        try:
            path, params = self._parse(self.path)
            payload = self._dispatch(path, params)
            status = 200
        except QueryError as error:
            payload = {"error": str(error)}
            status = 400
        except Exception as error:  # repro: noqa[R006] — one failing request must not kill the daemon; the error is surfaced to the client as a 500 body instead
            payload = {"error": f"{type(error).__name__}: {error}"}
            status = 500
        if payload is None:
            payload = {
                "error": f"unknown path {path!r}",
                "routes": list(ROUTES),
            }
            status = 404
        self._send(status, payload)
        self.server.request_served()

    # -- routing -------------------------------------------------------------

    @staticmethod
    def _parse(target: str) -> tuple[str, dict[str, list[str]]]:
        """The request target's path and query parameters; a target
        ``urlsplit`` cannot parse (``http://[/rank``) is a
        :class:`QueryError`."""
        try:
            url = urlsplit(target)
        except ValueError as error:
            raise QueryError(f"malformed request target: {error}") from None
        return url.path, parse_qs(url.query)

    def _dispatch(
        self, path: str, params: Mapping[str, list[str]]
    ) -> dict | None:
        """The service call for one path, or ``None`` for a 404."""
        service = self.server.service
        if path == "/healthz":
            return service.health()
        if path == "/rank":
            metric = self._one(params, "metric")
            if metric is None:
                raise QueryError("missing required parameter 'metric'")
            return service.rank(
                metric,
                self._one(params, "country"),
                k=self._int(params, "k", default=10),
            )
        if path == "/report":
            return service.report(self._one(params, "country"))
        if path == "/case-study":
            return service.case_study(self._one(params, "country"))
        return None

    @staticmethod
    def _one(params: Mapping[str, list[str]], name: str) -> str | None:
        values = params.get(name)
        if not values:
            return None
        if len(values) > 1:
            raise QueryError(f"parameter {name!r} given more than once")
        return values[0]

    def _int(
        self, params: Mapping[str, list[str]], name: str, default: int
    ) -> int:
        raw = self._one(params, name)
        if raw is None:
            return default
        try:
            return int(raw)
        except ValueError:
            raise QueryError(
                f"parameter {name!r} must be an integer (got {raw!r})"
            ) from None

    # -- plumbing ------------------------------------------------------------

    def _send(self, status: int, payload: dict) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args: object) -> None:
        """Silence the default stderr access log; request telemetry
        flows through the service's obs counters instead."""
