"""``repro-serve``: a thin HTTP front door over one shared run store.

Stdlib only (:mod:`http.server`), deliberately thin: every endpoint is a
direct wrapper over the :class:`~repro.api.session.Session` /
:class:`~repro.api.session.CampaignHandle` surface, and the server holds
no state of its own — campaigns live in the store, execution belongs to
the ``repro-daemon`` fleet, so the server can restart (or run N-way
behind a load balancer) at any instant without losing anything.

Routes (all JSON unless noted)::

    GET  /v1/healthz                          liveness + store path
    GET  /v1/metrics                          Prometheus text (not JSON)
    GET  /v1/fleet                            aggregated daemon heartbeats
    GET  /v1/campaigns                        ids in the store
    POST /v1/campaigns                        submit (campaign-file schema);
                                              400 if invalid, 413 if a cell
                                              is over the memory budget
    GET  /v1/campaigns/<id>/status            per-cell live state
    GET  /v1/campaigns/<id>/result            typed result; 409 if incomplete
    GET  /v1/campaigns/<id>/events?offset=N   journal tail from offset
    POST /v1/campaigns/<id>/cancel            cancel pending cells
    GET  /v1/campaigns/<id>/cells/<i>/decoys  raw decoys.npz bytes

The POST body is exactly the campaign-file schema of
:func:`repro.api.campaign.campaign_from_dict` — what ``repro-campaign
submit`` reads from TOML, as JSON.  Submission only writes a manifest
(plus any cache fills), so it returns in milliseconds; an identical
resubmission is idempotent, and with a result cache bound a resubmitted
campaign can come back ``complete`` before any daemon polls.

``/events`` is the remote form of :meth:`CampaignHandle.watch`: clients
poll with the returned ``offset`` cursor and receive each journal record
once, without the server holding connections open (no streaming — the
stdlib server stays boring on purpose).
"""

from __future__ import annotations

import dataclasses
import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Tuple, Union

from repro.obs.fleet import fleet_snapshot
from repro.obs.metrics import REGISTRY
from repro.runtime.store import RunStore, RunStoreError

__all__ = ["build_server", "serve_forever"]

#: Largest accepted POST body; campaign documents are a few KB.
MAX_BODY_BYTES = 1 << 20

#: Prometheus text exposition content type (format version 0.0.4).
METRICS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_HTTP_REQUESTS = REGISTRY.counter(
    "repro_http_requests_total", "repro-serve requests, by method."
)


def _json_bytes(payload: Dict[str, Any]) -> bytes:
    return json.dumps(payload, sort_keys=True).encode("utf8")


class _Handler(BaseHTTPRequestHandler):
    """One request: parse the route, call the session, serialise."""

    # Set by build_server on the subclass.
    session = None  # type: ignore[assignment]
    progress: Optional[Callable[[str], None]] = None
    server_version = "repro-serve/1"

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------

    def log_message(self, fmt: str, *args: Any) -> None:  # noqa: A003
        if self.progress is not None:
            self.progress(f"{self.address_string()} {fmt % args}")

    def _send(self, code: int, body: bytes, content_type: str) -> None:
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, code: int, payload: Dict[str, Any]) -> None:
        self._send(code, _json_bytes(payload), "application/json")

    def _error(self, code: int, message: str) -> None:
        self._send_json(code, {"error": message})

    def _read_body(self) -> Optional[Dict[str, Any]]:
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0 or length > MAX_BODY_BYTES:
            self._error(400, "request body required (JSON, at most 1 MiB)")
            return None
        raw = self.rfile.read(length)
        try:
            payload = json.loads(raw)
        except ValueError:
            self._error(400, "request body is not valid JSON")
            return None
        if not isinstance(payload, dict):
            self._error(400, "request body must be a JSON object")
            return None
        return payload

    def _route(self) -> Tuple[str, ...]:
        path = self.path.split("?", 1)[0]
        return tuple(part for part in path.split("/") if part)

    def _query(self) -> Dict[str, str]:
        if "?" not in self.path:
            return {}
        pairs = self.path.split("?", 1)[1].split("&")
        query: Dict[str, str] = {}
        for pair in pairs:
            if "=" in pair:
                name, value = pair.split("=", 1)
                query[name] = value
        return query

    def _handle(self, name: str) -> Optional[Any]:
        """A campaign handle, or ``None`` after sending a 404."""
        try:
            return self.session.handle(name)
        except (RunStoreError, OSError, ValueError):
            self._error(404, f"unknown campaign {name!r}")
            return None

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server naming
        route = self._route()
        _HTTP_REQUESTS.inc(method="GET")
        try:
            if route == ("v1", "healthz"):
                self._send_json(
                    200, {"ok": True, "store": str(self.session.store.root)}
                )
            elif route == ("v1", "metrics"):
                self._send(
                    200, REGISTRY.render().encode("utf8"), METRICS_CONTENT_TYPE
                )
            elif route == ("v1", "fleet"):
                self._send_json(200, fleet_snapshot(self.session.store))
            elif route == ("v1", "campaigns"):
                self._send_json(200, {"campaigns": self.session.campaigns()})
            elif len(route) == 4 and route[:2] == ("v1", "campaigns"):
                self._get_campaign(route[2], route[3])
            elif (
                len(route) == 6
                and route[:2] == ("v1", "campaigns")
                and route[3] == "cells"
                and route[5] == "decoys"
            ):
                self._get_decoys(route[2], route[4])
            else:
                self._error(404, f"no such route: GET {self.path}")
        except BrokenPipeError:  # pragma: no cover - client went away
            pass
        except Exception as exc:  # noqa: BLE001 - one request must not kill the server
            self._error(500, f"{type(exc).__name__}: {exc}")

    def do_POST(self) -> None:  # noqa: N802 - http.server naming
        route = self._route()
        _HTTP_REQUESTS.inc(method="POST")
        try:
            if route == ("v1", "campaigns"):
                self._post_campaign()
            elif len(route) == 4 and route[:2] == ("v1", "campaigns") and route[
                3
            ] == "cancel":
                handle = self._handle(route[2])
                if handle is not None:
                    handle.cancel()
                    self._send_json(
                        200, {"campaign_id": handle.campaign_id, "cancelled": True}
                    )
            else:
                self._error(404, f"no such route: POST {self.path}")
        except BrokenPipeError:  # pragma: no cover - client went away
            pass
        except Exception as exc:  # noqa: BLE001 - one request must not kill the server
            self._error(500, f"{type(exc).__name__}: {exc}")

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------

    def _post_campaign(self) -> None:
        from repro.api.campaign import campaign_from_dict
        from repro.api.session import CampaignError, CampaignTooLarge

        payload = self._read_body()
        if payload is None:
            return
        try:
            grid = campaign_from_dict(payload)
            handle = self.session.submit(grid)
        except CampaignTooLarge as exc:
            self._error(413, str(exc))
            return
        except (ValueError, TypeError, CampaignError, RunStoreError) as exc:
            self._error(400, str(exc))
            return
        status = handle.status()
        self._send_json(
            201,
            {
                "campaign_id": handle.campaign_id,
                "n_cells": status.n_cells,
                "n_done": status.n_done,
                "complete": status.complete,
            },
        )

    def _get_campaign(self, name: str, verb: str) -> None:
        from repro.api.session import CampaignIncomplete

        handle = self._handle(name)
        if handle is None:
            return
        if verb == "status":
            status = handle.status()
            self._send_json(
                200,
                {
                    "campaign_id": status.campaign_id,
                    "cancelled": status.cancelled,
                    "complete": status.complete,
                    "counts": status.counts,
                    "n_cells": status.n_cells,
                    "n_done": status.n_done,
                    "cells": [dataclasses.asdict(cell) for cell in status.cells],
                },
            )
        elif verb == "result":
            try:
                result = handle.result()
            except CampaignIncomplete as exc:
                self._error(409, str(exc))
                return
            self._send_json(200, result.to_dict())
        elif verb == "events":
            try:
                offset = int(self._query().get("offset", "0"))
            except ValueError:
                self._error(400, "offset must be an integer")
                return
            records, new_offset = handle.store.read_journal(
                handle.campaign_id, offset
            )
            self._send_json(
                200,
                {
                    "campaign_id": handle.campaign_id,
                    "events": records,
                    "offset": new_offset,
                    "complete": handle.status().complete,
                },
            )
        else:
            self._error(404, f"no such campaign view {verb!r}")

    def _get_decoys(self, name: str, index: str) -> None:
        handle = self._handle(name)
        if handle is None:
            return
        try:
            cell_index = int(index)
        except ValueError:
            self._error(400, "cell index must be an integer")
            return
        store = handle.store
        if not store.has_shard_result(handle.campaign_id, cell_index):
            self._error(409, f"cell {cell_index} of {name!r} has no result yet")
            return
        blob = (
            store.shard_dir(handle.campaign_id, cell_index) / "decoys.npz"
        ).read_bytes()
        self._send(200, blob, "application/octet-stream")


def build_server(
    store: Union[RunStore, str, Path],
    host: str = "127.0.0.1",
    port: int = 8080,
    cache: Union[str, Path, None] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> ThreadingHTTPServer:
    """Build (and bind) the HTTP server; ``port=0`` picks a free port.

    The caller owns the returned server: ``serve_forever()`` it (the tests
    run it on a thread), and ``server_close()`` when done.  ``cache``
    optionally binds a result-cache root so submissions fill known cells
    immediately.
    """
    from repro.api.session import Session

    session = Session(store, progress=progress, cache=cache)
    handler = type(
        "_BoundHandler", (_Handler,), {"session": session, "progress": progress}
    )
    return ThreadingHTTPServer((host, port), handler)


def serve_forever(
    store: Union[RunStore, str, Path],
    host: str = "127.0.0.1",
    port: int = 8080,
    cache: Union[str, Path, None] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> None:
    """Run the front end until interrupted (the ``repro-serve`` loop)."""
    server = build_server(store, host=host, port=port, cache=cache, progress=progress)
    if progress is not None:
        bound_host, bound_port = server.server_address[:2]
        progress(f"repro-serve listening on http://{bound_host}:{bound_port}")
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
        if progress is not None:
            progress("repro-serve interrupted; campaigns stay in the store")
    finally:
        server.server_close()
