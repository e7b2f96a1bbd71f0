"""Live HTTP status endpoint for the fleet scoring service.

A stdlib :mod:`http.server` bound next to the scoring socket
(``python -m repro serve --status-port N``) exposing two routes:

``/status``
    One JSON object assembled by the provider callback at request
    time -- connected/peak/expected/signed-off workers, cells
    completed and in flight (derived from the merged
    ``campaign.cells_*`` counters the STATS frames ship), the legacy
    :class:`~repro.serving.ServiceStats` view, and the full merged
    telemetry snapshot.

``/metrics``
    The merged snapshot in Prometheus text exposition format
    (:func:`repro.telemetry.render_prometheus_text`): ``# HELP`` /
    ``# TYPE`` metadata and ``le``-labelled histogram buckets, so a
    stock Prometheus scrape job ingests it directly.  The legacy flat
    ``name value`` lines remain available as ``/metrics?format=flat``
    (:func:`repro.telemetry.render_metrics_text`).

``POST /inject``
    The chaos control plane: a JSON body like
    ``{"action": "kill_worker"}`` or ``{"action": "requeue_cell",
    "cell_id": 3}`` is dispatched to the configured ``inject_handler``
    (normally :meth:`repro.serving.chaos.ChaosControl.inject`).
    Answers 200 with the applied-injection record, 400 on a malformed
    or rejected request, and 405 when no handler is configured (the
    GET routes then stay strictly read-only, the pre-chaos contract).

The server runs on a daemon thread; the provider and inject handler
must be safe to call from another thread mid-``serve()``
(:meth:`GONScoringService.merged_telemetry` takes care of its side).
The GET routes are observation only -- ``/inject`` is the single,
explicit mutation point, and it perturbs *execution*, never record
contents (cells re-run from their own ``SeedSequence.spawn`` seeds,
so results stay bit-identical).
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Optional
from urllib.parse import parse_qs, urlsplit

from ..telemetry import render_metrics_text, render_prometheus_text

__all__ = ["StatusServer"]


class _StatusHandler(BaseHTTPRequestHandler):
    server: "_StatusHTTPServer"

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        parts = urlsplit(self.path)
        path = parts.path.rstrip("/") or "/status"
        query = parse_qs(parts.query)
        try:
            if path == "/status":
                payload = json.dumps(
                    self.server.provider(), indent=2, sort_keys=True
                ).encode("utf-8")
                content_type = "application/json"
            elif path == "/metrics":
                status = self.server.provider()
                snap = status.get("telemetry", {})
                fmt = query.get("format", ["prometheus"])[0]
                if fmt == "flat":
                    payload = render_metrics_text(snap).encode("utf-8")
                elif fmt == "prometheus":
                    payload = render_prometheus_text(snap).encode("utf-8")
                else:
                    self.send_error(
                        400, "unknown ?format (try prometheus or flat)"
                    )
                    return
                content_type = "text/plain; charset=utf-8"
            else:
                self.send_error(404, "unknown route (try /status or /metrics)")
                return
        except Exception as error:  # provider failed: loud 500, no hang
            self.send_error(500, f"status provider failed: {error}")
            return
        self.send_response(200)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        path = urlsplit(self.path).path.rstrip("/")
        if path != "/inject":
            self.send_error(404, "unknown POST route (try /inject)")
            return
        handler = self.server.inject_handler
        if handler is None:
            self.send_error(405, "injection is not enabled on this service")
            return
        try:
            length = int(self.headers.get("Content-Length") or 0)
            body = self.rfile.read(length) if length else b"{}"
            request = json.loads(body.decode("utf-8") or "{}")
            if not isinstance(request, dict) or "action" not in request:
                raise ValueError('body must be a JSON object with an "action"')
            action = request.pop("action")
            result = handler(action, request)
        except (ValueError, TypeError, KeyError, json.JSONDecodeError) as error:
            self.send_error(400, f"bad injection: {error}")
            return
        except Exception as error:  # handler failed: loud 500, no hang
            self.send_error(500, f"injection failed: {error}")
            return
        payload = json.dumps(result, indent=2, sort_keys=True).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args) -> None:  # pragma: no cover - quiet
        pass


class _StatusHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    provider: Callable[[], dict]
    inject_handler: Optional[Callable[[str, dict], dict]]


class StatusServer:
    """Serve ``/status`` + ``/metrics`` from a provider callback.

    ``provider`` returns the ``/status`` JSON dict; its ``"telemetry"``
    key (a merged registry snapshot) additionally backs ``/metrics``.
    ``inject_handler`` (``(action, params) -> dict``) enables the
    ``POST /inject`` chaos route; without one, POSTs answer 405.
    Port 0 picks an ephemeral port (read :attr:`port` back).
    """

    def __init__(
        self,
        provider: Callable[[], dict],
        host: str = "127.0.0.1",
        port: int = 0,
        inject_handler: Optional[Callable[[str, dict], dict]] = None,
    ) -> None:
        self._server = _StatusHTTPServer((host, port), _StatusHandler)
        self._server.provider = provider
        self._server.inject_handler = inject_handler
        self.host, self.port = self._server.server_address[:2]
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="fleet-status-http",
            daemon=True,
        )

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def start(self) -> "StatusServer":
        self._thread.start()
        return self

    def close(self) -> None:
        self._server.shutdown()
        self._server.server_close()
