"""The probe's transport as it was when it read responses through ``http.client``.

``_failure_table`` and ``_exchange`` are copied unchanged from the last
version of ``smellprobe.probe`` that used ``http.client``, so that
``test_probe_reader`` can hold the probe's own reader to the results every
stored snapshot was made with.  Only the tests import this module.
"""

from __future__ import annotations

import io
from functools import cache
from urllib.parse import urlsplit

from smellprobe.probe import BODY_SAMPLE_LIMIT, ProbeConfig


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
