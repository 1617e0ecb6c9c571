"""Loopback HTTP/HTTPS fixture servers for tests and the benchmark.

The package ships the servers only; the profiles they serve are the
caller's.  ``spawn`` starts an endpoint, ``mutate(routes)`` swaps its route
table, ``start()`` brings an ``initially_down`` endpoint up on its reserved
ports, and ``shutdown()`` closes its listeners.

Each endpoint serves the exact bytes its profile describes: the handler
writes the status line and headers itself, so no implicit Server or Date
headers sneak into the fixtures (only Content-Length and Connection: close
are added).  HTTPS listeners present one self-signed certificate for
localhost and 127.0.0.1, checked in beside this module with its key.  The
key is public: never add the certificate to a real trust store.  Its path,
``ca_file``, lets a probe config trust it; a probe that does not is refused
like any other untrusted peer.

Header values and string bodies may reference {base}, {http_base}, and
{https_base}, replaced at response time with the endpoint's bound URLs.
This keeps redirect plans (loops, downgrades, upgrade hops) port-agnostic.
"""

from __future__ import annotations

import http.client
import socket
import ssl
import threading
import time
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path


@dataclass(frozen=True)
class RouteSpec:
    """The wire response for one path."""

    status: int = 200
    headers: tuple[tuple[str, str], ...] = ()
    body: bytes | str = b""
    delay: float = 0.0


@dataclass(frozen=True)
class FixtureProfile:
    name: str
    schemes: tuple[str, ...] = ("http",)
    routes: dict[str, RouteSpec] = field(default_factory=dict)
    initially_down: bool = False

    def __post_init__(self) -> None:
        for scheme in self.schemes:
            if scheme not in ("http", "https"):
                raise ValueError(f"unknown scheme: {scheme!r}")


@dataclass(frozen=True)
class RequestRecord:
    scheme: str
    host: str
    path: str


# The https listeners' certificate and its public key; each PEM's first lines
# say how it was made.
_CERT_FILE = str(Path(__file__).with_name("fixture_cert.pem"))
_KEY_FILE = str(Path(__file__).with_name("fixture_key.pem"))


# How often a listener checks for shutdown.  serve_forever's default of 0.5 s
# makes every shutdown wait up to that long; requests are served at once
# either way.
_POLL_INTERVAL = 0.02


class _FixtureServer(ThreadingHTTPServer):
    daemon_threads = True
    # socketserver's listen backlog of 5 overflows when a scan's default 16
    # workers connect at once, and each refused SYN waits a second for its
    # retransmit.
    request_queue_size = 128
    endpoint: "FixtureEndpoint"
    fixture_scheme: str

    def handle_error(self, request, client_address):  # noqa: D102 - quiet rejected TLS clients
        pass


class _FixtureHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def log_message(self, *args) -> None:
        pass

    def do_GET(self) -> None:
        server: _FixtureServer = self.server  # type: ignore[assignment]
        endpoint = server.endpoint
        endpoint._record(
            RequestRecord(
                scheme=server.fixture_scheme,
                host=self.headers.get("Host", ""),
                path=self.path,
            )
        )
        route = endpoint.current_routes().get(self.path)
        if route is None:
            route = RouteSpec(status=404)
        try:
            if route.delay:
                time.sleep(route.delay)
            self._write_route(endpoint, route)
        finally:
            endpoint._done()

    def _write_route(self, endpoint: "FixtureEndpoint", route: RouteSpec) -> None:
        body = route.body
        if isinstance(body, str):
            body = endpoint.expand(body).encode("utf-8")
        reason = http.client.responses.get(route.status, "Unknown")
        wire = [f"HTTP/1.1 {route.status} {reason}\r\n".encode("latin-1")]
        for name, value in route.headers:
            wire.append(f"{name}: {endpoint.expand(value)}\r\n".encode("latin-1"))
        wire.append(f"Content-Length: {len(body)}\r\n".encode("latin-1"))
        wire.append(b"Connection: close\r\n\r\n")
        wire.append(body)
        self.wfile.write(b"".join(wire))
        self.close_connection = True


class FixtureEndpoint:
    """A spawned fixture: one route table behind one or two listeners."""

    def __init__(self, profile: FixtureProfile):
        self.profile = profile
        self.requests: list[RequestRecord] = []
        self.max_in_flight = 0
        self._in_flight = 0
        self._lock = threading.Lock()
        self._routes = dict(profile.routes)
        self._servers: dict[str, _FixtureServer] = {}
        self._ports: dict[str, int] = {}
        self.ca_file: str | None = None

        if profile.initially_down:
            # Reserve ports now so the URL is stable; nothing listens until
            # start() brings the endpoint up.
            for scheme in profile.schemes:
                self._ports[scheme] = _free_port()
        else:
            self.start()

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Start one listener per scheme, on its reserved port if it has one."""
        for scheme in self.profile.schemes:
            port = self._ports.get(scheme, 0)
            server = _FixtureServer(("127.0.0.1", port), _FixtureHandler)
            server.endpoint = self
            server.fixture_scheme = scheme
            if scheme == "https":
                self.ca_file = _CERT_FILE
                context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
                context.load_cert_chain(_CERT_FILE, _KEY_FILE)
                server.socket = context.wrap_socket(server.socket, server_side=True)
            self._ports[scheme] = server.server_address[1]
            self._servers[scheme] = server
            threading.Thread(
                target=server.serve_forever, kwargs={"poll_interval": _POLL_INTERVAL}, daemon=True
            ).start()

    def mutate(self, routes: dict[str, RouteSpec]) -> None:
        """Swap the route table atomically."""
        with self._lock:
            self._routes = dict(routes)

    def shutdown(self) -> None:
        for server in self._servers.values():
            server.shutdown()
            server.server_close()
        self._servers.clear()

    # -- request-time plumbing ----------------------------------------------

    def current_routes(self) -> dict[str, RouteSpec]:
        with self._lock:
            return self._routes

    def expand(self, text: str) -> str:
        for token, value in (
            ("{http_base}", self.base_url("http") if "http" in self._ports else ""),
            ("{https_base}", self.base_url("https") if "https" in self._ports else ""),
        ):
            text = text.replace(token, value)
        default_scheme = self.profile.schemes[0]
        return text.replace("{base}", self.base_url(default_scheme))

    def _record(self, record: RequestRecord) -> None:
        with self._lock:
            self.requests.append(record)
            self._in_flight += 1
            self.max_in_flight = max(self.max_in_flight, self._in_flight)

    def _done(self) -> None:
        with self._lock:
            self._in_flight -= 1

    # -- addressing ----------------------------------------------------------

    def port(self, scheme: str) -> int:
        return self._ports[scheme]

    def base_url(self, scheme: str | None = None) -> str:
        scheme = scheme or self.profile.schemes[0]
        return f"{scheme}://127.0.0.1:{self._ports[scheme]}"

    def url(self, path: str = "/", scheme: str | None = None) -> str:
        return self.base_url(scheme) + path

    def __enter__(self) -> "FixtureEndpoint":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()


def spawn(profile: FixtureProfile) -> FixtureEndpoint:
    """Bind the profile to loopback listeners and start serving."""
    return FixtureEndpoint(profile)


def _free_port() -> int:
    sock = socket.socket()
    try:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]
    finally:
        sock.close()
