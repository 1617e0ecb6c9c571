"""HTTP probing: single GET exchanges and manually followed redirect chains.

The transport sits directly on ``http.client`` so that response headers are
captured in wire order (including repeats) and redirects are never followed
implicitly.  Every exchange opens a fresh connection, sends a minimal header
set, and closes; no cookies or connection state persist between exchanges.

The TLS client context (the trust store and the validation settings) is the
one exception: it is built once per ``ProbeConfig``, the first time an https
exchange needs it, and shared by every worker, redirect hop and retry of the
scan.  It carries no connection state: each exchange still does a full
handshake on a fresh connection, with no session resumption.
"""

from __future__ import annotations

import http.client
import json
import socket
import ssl
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from datetime import datetime, timezone
from enum import Enum
from urllib.parse import urljoin, urlsplit

from .corpus import ProbeTarget

TOOL_VERSION = "0.1.0"
DEFAULT_USER_AGENT = f"smellprobe/{TOOL_VERSION}"


class BodyFormat(str, Enum):
    JSON = "json"
    NON_JSON = "non_json"
    EMPTY = "empty"


class Scheme(str, Enum):
    HTTP = "http"
    HTTPS = "https"


# Serialises the first build of each config's TLS context, so that workers
# racing to their first https exchange build it once, not once each.
_TLS_CONTEXT_LOCK = threading.Lock()


@dataclass(frozen=True)
class ProbeConfig:
    """Tunables for one probe run.

    ca_bundle is an optional PEM path used as the trust root instead of the
    system store (how tests pin their fixture certificate).  Certificate
    validation itself is always on and never downgraded.

    tls_context is built from these settings on first https use and then
    shared by all workers of the scan; connections and TLS sessions are still
    fresh for every exchange.
    """

    connect_timeout: float = 10.0
    read_timeout: float = 30.0
    retries: int = 3
    retry_backoff: float = 2.0
    max_redirects: int = 10
    body_sample_limit: int = 256 * 1024
    parallelism: int = 16
    user_agent: str = DEFAULT_USER_AGENT
    ca_bundle: str | None = None

    def __post_init__(self) -> None:
        numeric = {
            "connect_timeout": self.connect_timeout,
            "read_timeout": self.read_timeout,
            "retry_backoff": self.retry_backoff,
            "body_sample_limit": self.body_sample_limit,
            "parallelism": self.parallelism,
        }
        for name, value in numeric.items():
            if value <= 0:
                raise ValueError(f"{name} must be > 0")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if self.max_redirects < 1:
            raise ValueError("max_redirects must be >= 1")

    @property
    def tls_context(self) -> ssl.SSLContext:
        """The client context shared by every https exchange under this config.

        Loading the trust store costs tens of milliseconds of CPU, so it is
        done once and lazily: a dry run or a plain-http scan never pays it.
        It is not a dataclass field, so it stays out of eq, hash and repr.
        """
        with _TLS_CONTEXT_LOCK:
            context = self.__dict__.get("_tls_context")
            if context is None:
                context = ssl.create_default_context(cafile=self.ca_bundle)
                object.__setattr__(self, "_tls_context", context)
        return context


@dataclass(frozen=True)
class ProbeResult:
    """One HTTP exchange. Exactly one of status / transport_error is set."""

    target: ProbeTarget
    url: str
    timestamp: datetime
    scheme_used: Scheme
    status: int | None
    headers: tuple[tuple[str, str], ...]
    body_sample: bytes
    body_format: BodyFormat
    transport_error: str | None = None

    def __post_init__(self) -> None:
        if (self.status is None) == (self.transport_error is None):
            raise ValueError("exactly one of status and transport_error must be set")

    def header_values(self, name: str) -> tuple[str, ...]:
        name = name.lower()
        return tuple(v for n, v in self.headers if n == name)

    def first_header(self, name: str) -> str | None:
        values = self.header_values(name)
        return values[0] if values else None

    @property
    def ok(self) -> bool:
        return self.status is not None


@dataclass(frozen=True)
class RedirectChain:
    """Manually followed redirects: 3xx hops plus the terminal exchange."""

    hops: tuple[tuple[str, int, str], ...]
    terminal: ProbeResult
    loop_detected: bool
    downgrade_hops: int
    chain_length: int

    def requested_urls(self) -> tuple[str, ...]:
        """Every URL an exchange was issued to, in order."""
        urls = [url for url, _, _ in self.hops]
        if not urls or urls[-1] != self.terminal.url:
            urls.append(self.terminal.url)
        return tuple(urls)


def classify_body(body: bytes, content_type: str | None) -> BodyFormat:
    """json when the payload parses as JSON or the content type says so."""
    if content_type and "json" in content_type.lower():
        return BodyFormat.JSON
    if not body:
        return BodyFormat.EMPTY
    try:
        json.loads(body)
    except (ValueError, UnicodeDecodeError):
        return BodyFormat.NON_JSON
    return BodyFormat.JSON


def _classify_exception(exc: BaseException) -> str:
    if isinstance(exc, socket.gaierror):
        return "dns failure"
    if isinstance(exc, ssl.SSLCertVerificationError):
        return "tls handshake failure"
    if isinstance(exc, ssl.SSLError):
        return "tls handshake failure"
    if isinstance(exc, ConnectionRefusedError):
        return "connection refused"
    if isinstance(exc, (socket.timeout, TimeoutError)):
        return "timeout"
    if isinstance(exc, ConnectionResetError):
        return "connection reset"
    if isinstance(exc, http.client.HTTPException):
        return f"malformed response: {exc.__class__.__name__}"
    if isinstance(exc, OSError):
        return f"connection error: {exc}"
    return f"error: {exc}"


# Failures that a retry cannot mend: an untrusted certificate, a name that
# does not resolve, a malformed URL.  Timeouts, resets, refusals and other
# socket errors may be transient and are retried.
_PERMANENT_ERRORS = (
    ssl.SSLCertVerificationError,
    socket.gaierror,
    ValueError,
    http.client.InvalidURL,
)


def _exchange(url: str, cfg: ProbeConfig) -> tuple[int, list[tuple[str, str]], bytes]:
    """One raw GET. Returns (status, wire-ordered headers, capped body)."""
    parts = urlsplit(url)
    host = parts.hostname
    if not host:
        raise ValueError(f"url has no host: {url!r}")
    path = parts.path or "/"
    if parts.query:
        path = f"{path}?{parts.query}"

    if parts.scheme.lower() == "https":
        conn = http.client.HTTPSConnection(
            host, parts.port, timeout=cfg.connect_timeout, context=cfg.tls_context
        )
    else:
        conn = http.client.HTTPConnection(host, parts.port, timeout=cfg.connect_timeout)

    try:
        conn.connect()
        # Connect honored connect_timeout; reads get their own budget.
        if conn.sock is not None:
            conn.sock.settimeout(cfg.read_timeout)
        conn.putrequest("GET", path, skip_host=True, skip_accept_encoding=True)
        host_header = parts.hostname or ""
        default_port = 443 if parts.scheme.lower() == "https" else 80
        if parts.port and parts.port != default_port:
            host_header = f"{host_header}:{parts.port}"
        conn.putheader("Host", host_header)
        conn.putheader("User-Agent", cfg.user_agent)
        conn.putheader("Accept", "*/*")
        conn.putheader("Connection", "close")
        conn.endheaders()
        response = conn.getresponse()
        headers = [(name.lower(), value) for name, value in response.msg.items()]
        body = response.read(cfg.body_sample_limit + 1)
        if len(body) > cfg.body_sample_limit:
            body = body[: cfg.body_sample_limit]
        return response.status, headers, body
    finally:
        conn.close()


def _probe_url(target: ProbeTarget, url: str, cfg: ProbeConfig) -> ProbeResult:
    scheme = Scheme(urlsplit(url).scheme.lower())
    last_reason = "unknown transport error"
    for attempt in range(cfg.retries + 1):
        try:
            status, headers, body = _exchange(url, cfg)
        except Exception as exc:  # noqa: BLE001 - every transport fault becomes a reason string
            last_reason = _classify_exception(exc)
            if isinstance(exc, _PERMANENT_ERRORS):
                break
            if attempt < cfg.retries:
                time.sleep(cfg.retry_backoff)
            continue
        content_type = next((v for n, v in headers if n == "content-type"), None)
        return ProbeResult(
            target=target,
            url=url,
            timestamp=datetime.now(timezone.utc),
            scheme_used=scheme,
            status=status,
            headers=tuple(headers),
            body_sample=body,
            body_format=classify_body(body, content_type),
            transport_error=None,
        )
    return ProbeResult(
        target=target,
        url=url,
        timestamp=datetime.now(timezone.utc),
        scheme_used=scheme,
        status=None,
        headers=(),
        body_sample=b"",
        body_format=BodyFormat.EMPTY,
        transport_error=last_reason,
    )


def probe_once(target: ProbeTarget, cfg: ProbeConfig) -> ProbeResult:
    """Issue a single GET against the target URL. Never follows redirects."""
    return _probe_url(target, target.url, cfg)


def _is_redirect(result: ProbeResult) -> str | None:
    """Location value when this result is a followable 3xx, else None."""
    if result.status is None or not (300 <= result.status < 400):
        return None
    location = result.first_header("location")
    if not location or not location.strip():
        return None
    return location


def follow_chain(target: ProbeTarget, cfg: ProbeConfig) -> RedirectChain:
    """Manually follow Location headers starting from the target URL.

    Stops at the first non-3xx response, at max_redirects hops, or right
    after a request URL repeats (loop).  Every https->http transition in
    the requested-URL sequence counts as a downgrade hop.
    """
    _, chain = probe_and_follow(target, cfg)
    return chain


def probe_and_follow(target: ProbeTarget, cfg: ProbeConfig) -> tuple[ProbeResult, RedirectChain]:
    """The initial exchange plus the chain built from it, probing each URL once."""
    hops: list[tuple[str, int, str]] = []
    visited: set[str] = set()
    current = target.url
    first: ProbeResult | None = None
    loop_detected = False

    while True:
        result = _probe_url(target, current, cfg)
        if first is None:
            first = result
        location = _is_redirect(result)
        if location is None:
            terminal = result
            break
        assert result.status is not None
        hops.append((current, result.status, location))
        if current in visited:
            loop_detected = True
            terminal = result
            break
        visited.add(current)
        if len(hops) >= cfg.max_redirects:
            terminal = result
            break
        try:
            current = urljoin(current, location.strip())
            next_scheme = urlsplit(current).scheme.lower()
        except ValueError:
            terminal = result
            break
        if next_scheme not in ("http", "https"):
            # Location points off the web (e.g. ftp:); the chain ends here.
            terminal = result
            break

    chain = RedirectChain(
        hops=tuple(hops),
        terminal=terminal,
        loop_detected=loop_detected,
        downgrade_hops=_count_downgrades([u for u, _, _ in hops], terminal.url),
        chain_length=len(hops),
    )
    return first, chain


def _count_downgrades(hop_urls: list[str], terminal_url: str) -> int:
    urls = list(hop_urls)
    if not urls or urls[-1] != terminal_url:
        urls.append(terminal_url)
    schemes = [urlsplit(u).scheme.lower() for u in urls]
    return sum(
        1
        for previous, following in zip(schemes, schemes[1:])
        if previous == "https" and following == "http"
    )


def probe_all(
    corpus: list[ProbeTarget] | tuple[ProbeTarget, ...],
    cfg: ProbeConfig,
) -> list[tuple[ProbeResult, RedirectChain]]:
    """Probe every target with at most cfg.parallelism exchanges in flight.

    Output order matches the input corpus; per-target transport errors are
    embedded in the results, never raised.
    """
    if not corpus:
        return []
    with ThreadPoolExecutor(max_workers=cfg.parallelism) as pool:
        return list(pool.map(lambda t: probe_and_follow(t, cfg), corpus))
