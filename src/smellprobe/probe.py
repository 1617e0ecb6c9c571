"""HTTP probing: single GET exchanges and manually followed redirect chains.

Each exchange opens a fresh connection (``socket.create_connection``, then
the shared TLS context for https), writes a minimal request head itself, and
reads the response itself, so that headers are kept in wire order (repeats
included) and no redirect is ever followed implicitly.  No cookies or
connection state persist between exchanges.  Each exchange is a
``ProbeResult`` and each probe a ``RedirectChain``; both live in
``smellprobe.model``.

The reader takes a response (RFC 9112 sections 2-7) by the rules that
``http.client`` and its ``email.feedparser`` applied when they read it, quirks
included, so that every stored result is the one they gave: lines of at most
65,536 bytes, at most 100 header lines, only ``100 Continue`` skipped, the
header block ended by the first line that is not a field, folded lines kept in
their value, and a chunked or Content-Length body read as ``HTTPResponse.read``
read it.  A failure raises one of the exception classes below, which carry
``http.client``'s names and bases, so each is stored and retried as before.

The TLS client context (the trust store and the validation settings) is the
one exception to "no shared state": it is built once per ``ProbeConfig`` and
shared by every worker, redirect hop and retry of the scan.  A config given a
``ca_bundle`` builds it when it is made, so a bundle that cannot be loaded
fails there.  With the system store, ``probe_each`` builds it on the calling
thread before its workers start when any target is https, so the store's
certificates are allocated outside the workers' malloc arenas; otherwise the
first https exchange builds it.  It carries no connection state: each exchange
still does a full handshake on a fresh connection, with no session resumption.

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
import re
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

# ssl and socket are imported by the functions that probe, so a dry run loads
# neither.  The workers are plain threads, so no scan loads
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


# The limits http.client read responses under, kept so that every server is
# read as before.
_MAX_LINE = 65536
_MAX_HEADER_LINES = 100  # the blank line that ends the block counts

# A request target or host with one of these is refused before it is sent.
_CONTROL_OR_SPACE = re.compile("[\x00-\x20\x7f]")
# A CR or LF that does not start an obs-fold: such a field value is refused.
_BAD_VALUE_BREAK = re.compile(rb"\n(?![ \t])|\r(?![ \t\n])")
# A line that email.feedparser takes as part of a header block: a field, a
# folded line, or a mailbox "From " line.
_HEADER_BLOCK_LINE = re.compile(r"From |[\041-\071\073-\176]*:|[\t ]")


class HTTPException(Exception):
    """A request the probe refuses to send or a response it cannot read."""


class InvalidURL(HTTPException):
    """A request target or host with a control character or a space."""


class BadStatusLine(HTTPException):
    """A status line without an ``HTTP/`` version or a code from 100 to 999."""


class UnknownProtocol(HTTPException):
    """A final response whose version is neither HTTP/0.9 nor HTTP/1.x."""


class LineTooLong(HTTPException):
    """A status, header, chunk-size or trailer line longer than 65,536 bytes."""

    def __init__(self, what: str):
        super().__init__(f"got more than {_MAX_LINE} bytes when reading {what}")


class IncompleteRead(HTTPException):
    """A chunked body that ends early or has a chunk size that is not hex."""


class RemoteDisconnected(ConnectionResetError, BadStatusLine):
    """The server closed the connection before it sent a status line."""


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
    use, because it needs ``socket`` and ``ssl``.
    """
    import socket
    import ssl

    return (
        (socket.gaierror, "dns failure", False),
        (ssl.SSLCertVerificationError, "tls handshake failure", False),
        (ssl.SSLError, "tls handshake failure", True),
        (ConnectionRefusedError, "connection refused", True),
        (TimeoutError, "timeout", True),
        (ConnectionResetError, "connection reset", True),
        (InvalidURL, "malformed response: {name}", False),
        (HTTPException, "malformed response: {name}", True),
        (io.UnsupportedOperation, "connection error: {exc}", False),
        (OSError, "connection error: {exc}", True),
        (ValueError, "error: {exc}", False),
        (Exception, "error: {exc}", True),
    )


def _exchange(url: str, cfg: ProbeConfig) -> tuple[int, list[tuple[str, str]], bytes]:
    """One raw GET. Returns (status, wire-ordered headers, capped body)."""
    import socket

    parts = urlsplit(url)  # request_url_problem passed it, so it has a host and a valid port
    https = parts.scheme == "https"
    context = cfg.tls_context if https else None
    host = parts.hostname
    default_port = 443 if https else 80
    port = parts.port or default_port
    path = parts.path or "/"
    if parts.query:
        path = f"{path}?{parts.query}"
    _refuse_controls(host)

    sock = socket.create_connection((host, port), cfg.connect_timeout)
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        if context is not None:
            sock = context.wrap_socket(sock, server_hostname=host)
        # Connect honored connect_timeout; the request and the reads get their own budget.
        sock.settimeout(cfg.read_timeout)
        sock.sendall(_request_head(host, port if port != default_port else None, path, cfg.user_agent))
        with sock.makefile("rb") as fp:
            return _read_response(fp)
    finally:
        sock.close()


def _refuse_controls(text: str) -> None:
    match = _CONTROL_OR_SPACE.search(text)
    if match:
        raise InvalidURL(f"URL can't contain control characters. {text!r} (found at least {match.group()!r})")


def _request_head(host: str, port: int | None, path: str, user_agent: str) -> bytes:
    """The request line and fields, refused where ``http.client`` refused them.

    The Host field brackets an IPv6 literal (without its zone), gives an IDN
    host in punycode, and names the port only when it is not the scheme's
    default (``port`` is None then).
    """
    _refuse_controls(path)
    request_line = f"GET {path} HTTP/1.1".encode("ascii")
    try:
        host_field = host.encode("ascii")
    except UnicodeEncodeError:
        host_field = host.encode("idna")
    if ":" in host:
        host_field = b"[" + host_field.partition(b"%")[0] + b"]"
    if port is not None:
        host_field += b":%d" % port
    agent = user_agent.encode("latin-1")
    if _BAD_VALUE_BREAK.search(agent):
        raise ValueError(f"Invalid header value {agent!r}")
    return b"\r\n".join((request_line, b"Host: " + host_field, b"User-Agent: " + agent,
                          b"Accept: */*", b"Connection: close", b"", b""))


def _read_response(fp: io.BufferedReader) -> tuple[int, list[tuple[str, str]], bytes]:
    """Status, fields and body (at most ``BODY_SAMPLE_LIMIT`` bytes) of one response."""
    status, version = _read_status(fp)
    while status == 100:  # 100 Continue is skipped; any other 1xx is the response
        _read_header_lines(fp)
        status, version = _read_status(fp)
    if version not in ("HTTP/1.0", "HTTP/0.9") and not version.startswith("HTTP/1."):
        raise UnknownProtocol(version)
    headers = _parse_fields(_read_header_lines(fp))
    encoding = next((value for name, value in headers if name == "transfer-encoding"), None)
    if encoding and encoding.lower() == "chunked":
        body = _read_chunked(fp, BODY_SAMPLE_LIMIT + 1)
    else:
        # The first Content-Length counts; one that int() refuses or below 0 is
        # ignored, and then the body runs to the end of the stream.
        amount = BODY_SAMPLE_LIMIT + 1
        declared = next((value for name, value in headers if name == "content-length"), None)
        if status in (204, 304) or 100 <= status < 200:
            amount = 0
        elif declared:
            try:
                length = int(declared)
            except ValueError:
                length = -1
            if 0 <= length < amount:
                amount = length
        body = fp.read(amount)  # a short body is kept as it came
    return status, headers, body[:BODY_SAMPLE_LIMIT]


def _read_status(fp: io.BufferedReader) -> tuple[int, str]:
    line = str(fp.readline(_MAX_LINE + 1), "iso-8859-1")
    if len(line) > _MAX_LINE:
        raise LineTooLong("status line")
    if not line:
        raise RemoteDisconnected("Remote end closed connection without response")
    words = line.split(None, 2)
    if len(words) < 2 or not words[0].startswith("HTTP/"):
        raise BadStatusLine(line)
    try:
        status = int(words[1])
    except ValueError:
        raise BadStatusLine(line) from None
    if not 100 <= status <= 999:
        raise BadStatusLine(line)
    return status, words[0]


def _read_header_lines(fp: io.BufferedReader) -> list[bytes]:
    """The lines of a header block, the blank line (or end of stream) that ends it included."""
    lines = []
    while True:
        line = fp.readline(_MAX_LINE + 1)
        if len(line) > _MAX_LINE:
            raise LineTooLong("header line")
        lines.append(line)
        if len(lines) > _MAX_HEADER_LINES:
            raise HTTPException(f"got more than {_MAX_HEADER_LINES} headers")
        if line in (b"\r\n", b"\n", b""):
            return lines


def _parse_fields(raw: list[bytes]) -> list[tuple[str, str]]:
    """``(lowercased name, value)`` of each field, as ``email.feedparser`` took them.

    The block is read as Latin-1 and split at CRLF, CR or LF.  It ends at the
    first line that is neither a field, a folded line nor a "From " line, so
    the fields after a line without a colon are lost.  A folded line is kept
    in its value with the line break before it; a value is stripped of
    spaces and tabs on the left only.  A "From " line, a field without a name
    and a folded line with no field before it are dropped.
    """
    fields = []
    current: list[str] = []  # the first line of the field being read, and its folded lines
    for line in io.StringIO(b"".join(raw).decode("iso-8859-1"), newline="").readlines():
        if not _HEADER_BLOCK_LINE.match(line):
            break
        if line[0] in " \t":
            if current:
                current.append(line)
            continue
        if current:
            fields.append(_field(current))
            current = []
        if not line.startswith("From ") and not line.startswith(":"):
            current = [line]
    if current:
        fields.append(_field(current))
    return fields


def _field(lines: list[str]) -> tuple[str, str]:
    name, value = lines[0].split(":", 1)
    return name.lower(), (value.lstrip(" \t") + "".join(lines[1:])).rstrip("\r\n")


def _read_chunked(fp: io.BufferedReader, amount: int) -> bytes:
    """Up to ``amount`` bytes of a chunked body, as ``HTTPResponse.read(amount)`` read them.

    A chunk size is what ``int(size, 16)`` makes of its line without the
    extensions, and the two bytes after a chunk are skipped unread.
    """
    parts = []
    left = None  # bytes left in the current chunk; None before the first
    while True:
        if not left:
            if left is not None:
                _read_exactly(fp, 2)
            line = fp.readline(_MAX_LINE + 1)
            if len(line) > _MAX_LINE:
                raise LineTooLong("chunk size")
            try:
                left = int(line.partition(b";")[0], 16)
            except ValueError:
                raise IncompleteRead(f"chunk size {line!r}") from None
            if left == 0:
                _skip_trailer(fp)
                return b"".join(parts)
        if amount <= left:
            parts.append(_read_exactly(fp, amount))
            return b"".join(parts)
        parts.append(_read_exactly(fp, left))
        amount -= left
        left = 0


def _read_exactly(fp: io.BufferedReader, amount: int) -> bytes:
    # A negative amount reads to the end of the stream, as it did in http.client.
    data = fp.read(amount)
    if len(data) < amount:
        raise IncompleteRead(f"{len(data)} of {amount} bytes")
    return data


def _skip_trailer(fp: io.BufferedReader) -> None:
    while True:
        line = fp.readline(_MAX_LINE + 1)
        if len(line) > _MAX_LINE:
            raise LineTooLong("trailer line")
        if line in (b"\r\n", b"\n", b""):
            return


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

    The call itself imports ``ssl`` and, when any target is https,
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
    import ssl  # noqa: F401

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
