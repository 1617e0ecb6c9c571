"""HTTP probing: single GET exchanges and manually followed redirect chains.

The transport sits directly on ``http.client`` so that response headers are
captured in wire order (including repeats) and redirects are never followed
implicitly.  Every exchange opens a fresh connection, sends a minimal header
set, and closes; no cookies or connection state persist between exchanges.
Each exchange is a ``ProbeResult`` and each probe a ``RedirectChain``; both
live in ``smellprobe.model``.

The TLS client context (the trust store and the validation settings) is the
one exception: it is built once per ``ProbeConfig`` and shared by every
worker, redirect hop and retry of the scan.  A config given a ``ca_bundle``
builds it when it is made, so a bundle that cannot be loaded fails there.
With the system store, ``probe_each`` builds it on the calling thread before
its workers start when any target is https, so the store's certificates are
allocated outside the workers' malloc arenas; otherwise the first https
exchange builds it.  It carries no connection state: each exchange still
does a full handshake on a fresh connection, with no session resumption.

A failed exchange is looked up once in ``_failure_table``, an ordered list of
``(exception type, stored reason, retryable)`` rows where the first match
wins.  That one row gives both the ``transport_error`` string stored in the
snapshot and whether the exchange is tried again.

``probe_each`` probes a corpus on ``parallelism`` plain ``threading``
workers fed from a ``SimpleQueue`` and yields each target's chain as soon as
it is done, with at most 2 x parallelism targets handed out and not yet
consumed.  ``scan`` detects and spools each chain as it arrives, so it holds
at most that many chains whatever the corpus size, and a slow target holds up
no other.  Closing the generator sets a stop flag that each worker checks
before it starts a target, so the targets not yet started are skipped, and
then joins the workers, which waits for the running targets to finish.
"""

from __future__ import annotations

import io
import math
import threading
import time
from collections.abc import Iterator
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import cache
from itertools import islice
from queue import SimpleQueue
from urllib.parse import urlsplit

from .model import TOOL_VERSION, ProbeResult, ProbeTarget, RedirectChain

# http.client, ssl and socket are imported by the functions that probe, so a
# dry run loads none of them.  The workers are plain threads, so no scan loads
# concurrent.futures (nor the logging it imports).

DEFAULT_USER_AGENT = f"smellprobe/{TOOL_VERSION}"

# What every scan keeps, fixed so that snapshots of two rounds hold the same
# evidence: the first bytes of each body, kept and scanned, and the exchanges
# of each chain, the first included.
BODY_SAMPLE_LIMIT = 256 * 1024
MAX_EXCHANGES = 10


# Serialises the first build of each config's TLS context, so that workers
# racing to their first https exchange build it once, not once each.
_TLS_CONTEXT_LOCK = threading.Lock()


@dataclass(frozen=True)
class ProbeConfig:
    """Tunables for one probe run: how long and how often to wait, who asks, whom to trust.

    What a scan keeps is fixed, not tuned: ``BODY_SAMPLE_LIMIT`` and
    ``MAX_EXCHANGES``.

    ca_bundle is an optional PEM path used as the trust root instead of the
    system store (how tests pin their fixture certificate), loaded when the
    config is made: one that cannot be read or holds no certificate raises
    ``OSError`` (``ssl.SSLError``).  Validation is always on and never
    downgraded.  One TLS context serves the whole scan (see ``tls_context``).
    """

    connect_timeout: float = 10.0
    read_timeout: float = 30.0
    retries: int = 3
    retry_backoff: float = 2.0
    parallelism: int = 16
    user_agent: str = DEFAULT_USER_AGENT
    ca_bundle: str | None = None

    def __post_init__(self) -> None:
        for name in ("parallelism", "retries"):
            if type(getattr(self, name)) is not int:  # so a bool is refused too
                raise ValueError(f"{name} must be an integer")
        for name in ("connect_timeout", "read_timeout", "retry_backoff", "parallelism"):
            value = getattr(self, name)
            if value <= 0:
                raise ValueError(f"{name} must be > 0")
            if not value < math.inf:  # NaN or infinity
                raise ValueError(f"{name} must be finite")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if not self.user_agent:
            raise ValueError("user_agent must not be empty")
        if self.ca_bundle is not None:
            self.tls_context  # noqa: B018 - built now, raising here if it cannot be

    @property
    def tls_context(self) -> "ssl.SSLContext":
        """The client context shared by every https exchange under this config.

        Loading the trust store costs tens of milliseconds of CPU, so it is
        done once.  A ca_bundle is loaded when the config is made, and its
        ``OSError`` raised there.  The system store is loaded only for https,
        so a dry run or a plain-http scan never pays it: ``probe_each`` reads
        it before its workers start when a target is https, and otherwise the
        first https exchange builds it, under a lock.  It is not a dataclass
        field, so it stays out of eq, hash and repr.
        """
        with _TLS_CONTEXT_LOCK:
            context = self.__dict__.get("_tls_context")
            if context is None:
                import ssl

                context = ssl.create_default_context(cafile=self.ca_bundle)
                object.__setattr__(self, "_tls_context", context)
        return context


@cache
def _failure_table() -> tuple[tuple[type[Exception], str, bool], ...]:
    """Ordered ``(exception type, stored reason, retryable)`` rows; the first match wins.

    So a subclass comes before its base: ``RemoteDisconnected`` is both a
    ``ConnectionResetError`` and an ``HTTPException`` and is stored as a
    reset.  A reason may name the exception's class (``{name}``) or quote its
    message (``{exc}``).  A failure that a retry cannot mend is not retried:
    an untrusted certificate, a name that does not resolve, a malformed URL,
    an unsupported stream operation (an ``OSError`` that is also a
    ``ValueError``).  The last row takes every ``Exception``.  Built on first
    use, because it needs ``http.client``, ``socket`` and ``ssl``.
    """
    import http.client
    import socket
    import ssl

    return (
        (socket.gaierror, "dns failure", False),
        (ssl.SSLCertVerificationError, "tls handshake failure", False),
        (ssl.SSLError, "tls handshake failure", True),
        (ConnectionRefusedError, "connection refused", True),
        (TimeoutError, "timeout", True),
        (ConnectionResetError, "connection reset", True),
        (http.client.InvalidURL, "malformed response: {name}", False),
        (http.client.HTTPException, "malformed response: {name}", True),
        (io.UnsupportedOperation, "connection error: {exc}", False),
        (OSError, "connection error: {exc}", True),
        (ValueError, "error: {exc}", False),
        (Exception, "error: {exc}", True),
    )


def _exchange(url: str, cfg: ProbeConfig) -> tuple[int, list[tuple[str, str]], bytes]:
    """One raw GET. Returns (status, wire-ordered headers, capped body)."""
    import http.client

    parts = urlsplit(url)  # request_url_problem passed it, so it has a host and a valid port
    host = parts.hostname
    path = parts.path or "/"
    if parts.query:
        path = f"{path}?{parts.query}"

    # http.client would take the last group of a bare IPv6 literal as the port.
    if parts.scheme == "https":
        conn = http.client.HTTPSConnection(
            host, parts.port or 443, timeout=cfg.connect_timeout, context=cfg.tls_context
        )
    else:
        conn = http.client.HTTPConnection(host, parts.port or 80, timeout=cfg.connect_timeout)

    try:
        conn.connect()
        # Connect honored connect_timeout; reads get their own budget.
        if conn.sock is not None:
            conn.sock.settimeout(cfg.read_timeout)
        # http.client writes Host: brackets for IPv6, punycode for IDN hosts,
        # and the port only when it is not the scheme's default.
        conn.putrequest("GET", path, skip_accept_encoding=True)
        conn.putheader("User-Agent", cfg.user_agent)
        conn.putheader("Accept", "*/*")
        conn.putheader("Connection", "close")
        conn.endheaders()
        response = conn.getresponse()
        headers = [(name.lower(), value) for name, value in response.msg.items()]
        body = response.read(BODY_SAMPLE_LIMIT + 1)
        if len(body) > BODY_SAMPLE_LIMIT:
            body = body[:BODY_SAMPLE_LIMIT]
        return response.status, headers, body
    finally:
        conn.close()


def _probe_url(target: ProbeTarget, url: str, cfg: ProbeConfig) -> ProbeResult:
    """One exchange, retried after each retryable failure until retries run out."""
    for attempt in range(cfg.retries + 1):
        try:
            status, headers, body = _exchange(url, cfg)
            reason = None
        except Exception as exc:  # noqa: BLE001 - the failure table's last row takes any Exception
            status, headers, body = None, [], b""
            _, template, retryable = next(r for r in _failure_table() if isinstance(exc, r[0]))
            reason = template.format(exc=exc, name=type(exc).__name__)
            if retryable and attempt < cfg.retries:
                time.sleep(cfg.retry_backoff)
                continue
        break
    return ProbeResult(
        target=target,
        url=url,
        timestamp=datetime.now(timezone.utc),
        status=status,
        headers=tuple(headers),
        body_sample=body,
        transport_error=reason,
    )


def probe_and_follow(target: ProbeTarget, cfg: ProbeConfig) -> tuple[ProbeResult, RedirectChain]:
    """Probe the target URL and follow its Location headers by hand.

    Each later exchange requests ``chain.next_url``, so where a Location
    leads is decided by ``ProbeResult.redirect_url`` in ``smellprobe.model``.
    Following stops when there is no next URL (no followable 3xx, a loop, a
    Location that does not parse or leads off the web) or once the chain
    holds ``MAX_EXCHANGES`` exchanges, the first included (so at most
    ``MAX_EXCHANGES - 1`` redirects).  Returns the first exchange and the chain.
    """
    chain = RedirectChain((_probe_url(target, target.url, cfg),))
    while (url := chain.next_url) is not None and len(chain.exchanges) < MAX_EXCHANGES:
        chain = RedirectChain((*chain.exchanges, _probe_url(target, url, cfg)))
    return chain.result, chain


def probe_each(
    corpus: list[ProbeTarget] | tuple[ProbeTarget, ...],
    cfg: ProbeConfig,
) -> Iterator[tuple[int, RedirectChain]]:
    """Probe every target; yield ``(corpus index, chain)`` as each finishes.

    The call itself imports ``http.client`` and, when any target is https,
    builds ``cfg.tls_context`` on the calling thread (a ``ca_bundle`` was
    loaded when ``cfg`` was made, so nothing here raises for trust).  The
    workers start on the first ``next``.

    cfg.parallelism worker threads (fewer for a shorter corpus) take
    ``(index, target)`` pairs from one queue and put ``(index, chain)`` on
    another.  At most 2 x parallelism targets are handed out and not yet
    consumed, so a caller holds at most that many chains and a slow target
    delays no other.  Closing the generator, or an exception or interrupt
    while it waits, makes the workers skip the targets not yet started and
    waits for the running ones to finish.  Per-target transport errors are
    embedded in the chains, never raised; any other exception in a worker is
    raised again here.
    """
    # Loaded here, on the calling thread, these long-lived objects go to its
    # malloc arena; loaded by the first worker to need them, they would grow
    # that worker's own arena by as much.
    import http.client  # noqa: F401 - and ssl with it

    if any(urlsplit(t.url).scheme == "https" for t in corpus):
        cfg.tls_context  # noqa: B018 - built now, on this thread
    return _probe_each(corpus, cfg)


def _probe_each(
    corpus: list[ProbeTarget] | tuple[ProbeTarget, ...],
    cfg: ProbeConfig,
) -> Iterator[tuple[int, RedirectChain]]:
    """The generator ``probe_each`` returns once the set-up is done."""
    window = 2 * cfg.parallelism
    queued = iter(enumerate(corpus))
    todo: SimpleQueue = SimpleQueue()
    finished: SimpleQueue = SimpleQueue()
    stopping = False

    def work() -> None:
        # None is the signal to leave; so is stopping, checked before each target.
        while (item := todo.get()) is not None and not stopping:
            index, target = item
            try:
                finished.put((index, probe_and_follow(target, cfg)[1]))
            except BaseException as exc:  # noqa: BLE001 - raised again in the consumer
                finished.put((index, exc))

    workers: list[threading.Thread] = []
    count = min(cfg.parallelism, len(corpus))
    outstanding = 0
    try:
        # Daemon threads, so that the workers of a generator never closed
        # hold up no exit.
        for _ in range(count):
            worker = threading.Thread(target=work, daemon=True)
            worker.start()
            workers.append(worker)
        while True:
            for item in islice(queued, window - outstanding):
                todo.put(item)
                outstanding += 1
            if not outstanding:
                return
            index, chain = finished.get()
            outstanding -= 1
            if isinstance(chain, BaseException):
                raise chain
            yield index, chain
    finally:
        stopping = True
        # A None for every worker that may have started, also one that an
        # interrupt inside Thread.start kept out of the list, so that none
        # takes another's None and leaves it waiting in join.
        for _ in range(count):
            todo.put(None)
        for worker in workers:
            worker.join()


def probe_all(
    corpus: list[ProbeTarget] | tuple[ProbeTarget, ...],
    cfg: ProbeConfig,
) -> list[tuple[ProbeResult, RedirectChain]]:
    """Probe every target (see ``probe_each``) and return the pairs in corpus order."""
    pairs: list = [None] * len(corpus)
    for index, chain in probe_each(corpus, cfg):
        pairs[index] = (chain.result, chain)
    return pairs
