"""The interest service: an async HTTP API over the resident pipeline.

The paper frames mined interest areas as something that "help[s] to
explore the database" and "offer[s] orientation" to users; QueRIE (its
related work) shows the natural delivery vehicle is a recommendation
service over the live query log.  This package is that service: one
long-lived :class:`~repro.service.state.AppState` keeps the stream
monitor, the incremental clusterer (whose fingerprint index is the one
resident area pool) with its distance layout, and a fitted
recommender resident, and a small ASGI application
(:func:`~repro.service.app.create_app`) faces the traffic.

The application is a plain ASGI 3 callable built on the in-repo
micro-framework in :mod:`.asgi` (the "stdlib fallback": the container
ships no FastAPI/Starlette, and the routing needs of six endpoints do
not justify one).  It runs under any ASGI server; :mod:`.server`
provides a dependency-free ``asyncio`` HTTP/1.1 server for
``repro serve``, and :mod:`.testclient` an in-process client for tests
and benchmarks.
"""

from .app import create_app
from .asgi import App, HTTPError, JSONResponse, Request, Response
from .server import HTTPServer, run_server
from .state import AppState, IngestOutcome, ServiceConfig
from .testclient import TestClient

__all__ = [
    "App", "AppState", "HTTPError", "HTTPServer", "IngestOutcome",
    "JSONResponse", "Request", "Response", "ServiceConfig",
    "TestClient", "create_app", "run_server",
]
