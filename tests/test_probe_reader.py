"""The probe's own request writer and response reader, held to ``http.client``'s results.

``http_client_reference`` is the transport that every stored snapshot was made
with.  Each comparison serves one scripted reply from a ``ScriptedServer`` to
the reference and then to ``probe._exchange``, with ``socket.create_connection``
sent to that server whatever the URL's host, and compares what each made of
it: the status, fields and body, or the stored reason and retry decision; the
address each asked for; and the request head each sent.
"""

import socket
from queue import Empty
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import http_client_reference as reference
from helpers import ScriptedServer, fast_cfg, make_target
from smellprobe import probe
from smellprobe.probe import BODY_SAMPLE_LIMIT, DEFAULT_USER_AGENT, probe_and_follow


@pytest.fixture(scope="module")
def server():
    with ScriptedServer() as server:
        yield server


def _run(server, transport, url, cfg):
    """One transport's outcome, the addresses it connected to, and the request heads it sent."""
    addresses = []
    create_connection = socket.create_connection

    def to_server(address, *args):
        addresses.append(address)
        return create_connection(server.address, *args)

    with mock.patch.object(socket, "create_connection", to_server):
        try:
            outcome = transport._exchange(url, cfg)
        except Exception as exc:  # noqa: BLE001 - looked up in the failure table, as _probe_url does
            _, template, retryable = next(r for r in transport._failure_table() if isinstance(exc, r[0]))
            outcome = (template.format(exc=exc, name=type(exc).__name__), retryable)
    return outcome, addresses, [server.requests.get(timeout=5) for _ in addresses]


def assert_read_as_http_client_did(server, reply, url="http://127.0.0.1/", user_agent=DEFAULT_USER_AGENT):
    server.reply = reply
    cfg = fast_cfg(user_agent=user_agent)
    expected = _run(server, reference, url, cfg)
    assert _run(server, probe, url, cfg) == expected
    assert server.requests.empty()


# --- generated responses ---------------------------------------------------------

LINE_ENDS = st.sampled_from([b"\r\n", b"\r\n", b"\r\n", b"\n", b"\r"])
STATUS_LINES = st.one_of(
    st.sampled_from([b"HTTP/1.1 200 OK", b"HTTP/1.0 200 OK", b"HTTP/1.1 404 Not Found", b"HTTP/1.1 302 Found"]),
    st.sampled_from([
        b"HTTP/0.9 200 OK", b"HTTP/2 200 OK", b"HTTP/1.1 200", b"HTTP/1.1 1_00 Continue", b"HTTP/1.1 99 Low",
        b"HTTP/1.1 1000 High", b"HTTP/1.1 +204 x", b"HTTP/1.1 abc", b"HTTP/1.1", b"ICY 200 OK", b"",
        b" HTTP/1.1 200 OK", b"HTTP/1.1\xa0200 OK", b"HTTP/1.1  302  Found  ", b"http/1.1 200 OK",
        b"HTTP/1.1 101 Switching", b"HTTP/1.1 204 No Content", b"HTTP/1.1 304 Not Modified",
        b"HTTP/1.1 103 Early Hints",
    ]),
    st.builds(
        lambda version, code, reason: version + b" " + code + reason,
        st.sampled_from([b"HTTP/1.1", b"HTTP/1.0", b"HTTP/0.9", b"HTTP/2", b"HTTP/1.9", b"HTTP/", b"HTTPS/1.1"]),
        st.sampled_from([b"100", b"101", b"103", b"199", b"200", b"204", b"302", b"304", b"599", b"600", b"999",
                         b"1000", b"99", b"0", b"-1", b"1_00", b"2_00", b"+200", b"0200", b"20x", b"", b"\xb2"]),
        st.sampled_from([b"", b" OK", b" Not Found", b"  spaced  ", b" \xe9t\xe9"]),
    ),
)
CONTENT_LENGTHS = [b"5", b"-1", b"abc", b" 7 ", b"1_0", b"+2", b"0", b"00", b"", b"5, 5", b"99"]
CHUNKED = [
    b"5\r\nhello\r\n0\r\n\r\n", b"5;ext=1\r\nhello\r\n0;x\r\n\r\n", b"0x5\r\nhello\r\n0\r\n\r\n",
    b"zz\r\nhello\r\n0\r\n\r\n", b"5\r\nhel", b"5\r\nhelloXY0\r\n\r\n", b"5\r\nhello", b"-1\r\nabc",
    b"5\r\nhello\r\n0\r\nTrailer: x\r\n\r\n", b"5\r\nhello\r\n0\r\n", b"", b"\r\n", b" 5 \r\nhello\r\n0\r\n\r\n",
    b"1_0\r\n0123456789abcdef\r\n0\r\n\r\n", b"3\r\nabc\r\n", b"ffffffff\r\nabc", b"5\nhello\n0\n\n",
]
FIELDS = st.one_of(
    st.sampled_from([
        b"Server: Apache/2.4.29", b" (Ubuntu)", b"\tfolded", b"Server: nginx/1.2.3  ", b"BadLine",
        b"From x", b"From: a@b.example", b":x", b"X-A: b\rX-B: c", b"Content-Type: text/html",
        b"Content-Type: multipart/mixed; boundary=x", b"--x", b"Set-Cookie: a=1", b"Set-Cookie: b=2",
        b"Link: </s.css>; rel=preload", b"Caf\xe9: \xff", b"Name With Space: v", b"X-Tab:\tv",
        b"Key\x7f: v", b"X:Y", b"X-Empty:", b"X-V: a\x0bb", b"X-F: a\x0cb", b"X-N: a\x85b", b"X-S: a\x1cb",
    ]),
    st.builds(
        lambda name, colon, value: name + colon + value,
        st.sampled_from([b"Server", b"Content-Length", b"content-length", b"Transfer-Encoding",
                         b"Content-Type", b"From", b"", b"X Y", b"\xe9"]),
        st.sampled_from([b":", b": ", b":\t", b" :", b":  "]),
        st.one_of(st.sampled_from([b"chunked", b"CHUNKED", b"gzip, chunked", b"chunked ", b"Apache/2.4.29",
                                   *CONTENT_LENGTHS]),
                  st.binary(max_size=8)),
    ),
)
INTERIM = st.sampled_from([
    b"", b"", b"", b"", b"HTTP/1.1 100 Continue\r\n\r\n", b"HTTP/1.1 100 Continue\r\nX-A: 1\r\n\r\n",
    b"HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 100 Continue\r\n\r\n", b"HTTP/2 100 x\r\n\r\n",
    b"HTTP/1.1 103 Early Hints\r\nLink: </s.css>\r\n\r\n", b"HTTP/1.1 100 Continue\r\nBad",
])


@st.composite
def responses(draw) -> bytes:
    """An interim response or none, a status line, fields, the end of the head and a body."""
    fields = draw(st.lists(FIELDS, max_size=8))
    chunked = draw(st.booleans())
    if chunked:
        fields.insert(draw(st.integers(0, len(fields))), b"Transfer-Encoding: chunked")
    head = b"".join(line + draw(LINE_ENDS) for line in [draw(STATUS_LINES), *fields])
    end = draw(st.sampled_from([b"\r\n", b"\r\n", b"\n", b""]))
    body = draw(st.sampled_from(CHUNKED) if chunked else st.binary(max_size=24))
    return draw(INTERIM) + head + end + body


@settings(max_examples=300, deadline=None)
@given(reply=st.one_of(responses(), st.binary(max_size=40)))
@example(reply=b"")
@example(reply=b"HTTP/1.1 200 OK\r\nFrom x\r\n folded\r\nA: 1\r\nFrom y\r\n folded\r\nB: 2\r\nFrom z\r\n\r\n")
@example(reply=b"HTTP/1.1 200 OK\r\n folded first\r\n:x\r\n folded\r\nA: 1\rB: 2\x0b3\r\n\r\n")
def test_reads_every_response_as_http_client_did(server, reply):
    assert_read_as_http_client_did(server, reply)


URLS = st.builds(
    lambda host, port, target: f"http://{host}{port}{target}",
    # No IPv6 zone: whether http.client strips it from the Host field depends on the Python release.
    st.sampled_from(["127.0.0.1", "h.example", "H.Example", "b\xfccher.example", "[::1]", "a b", "h\x01",
                     "a" * 64 + "\xfc.example", "xn--bcher-kva.example"]),
    st.sampled_from(["", ":80", ":8080", ":443", ":0"]),
    st.text(alphabet="/a?=%#& \x00\x1f\x7f\t\xe9☃", max_size=8),
)
USER_AGENTS = st.one_of(
    st.sampled_from([DEFAULT_USER_AGENT, "a\r\n b", "a\r\n\tb", "a\r\nb", "a\rb", "a\nb", "a\r\n", "caf\xe9",
                     "☃", "\r\n x"]),
    st.text(alphabet="ab \t\r\n\xe9☃", min_size=1, max_size=6),
)


@settings(max_examples=200, deadline=None)
@given(url=URLS, user_agent=USER_AGENTS)
def test_writes_and_refuses_every_request_as_http_client_did(server, url, user_agent):
    assert_read_as_http_client_did(server, b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok", url, user_agent)


@pytest.mark.parametrize("body", CHUNKED)
def test_reads_each_chunked_body_as_http_client_did(server, body):
    assert_read_as_http_client_did(
        server, b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nTransfer-Encoding: chunked\r\n\r\n" + body,
    )


@pytest.mark.parametrize("length", CONTENT_LENGTHS)
def test_reads_each_content_length_as_http_client_did(server, length):
    """The first Content-Length field counts."""
    assert_read_as_http_client_did(
        server, b"HTTP/1.1 200 OK\r\nContent-Length: %s\r\nContent-Length: 3\r\n\r\nhello world" % length,
    )


# --- the limits, at and past each, and the bodies of 1xx, 204 and 304 -----------


def _fields(count: int) -> bytes:
    return b"".join(b"X-%d: v\r\n" % n for n in range(count))


def _line(length: int, start: bytes) -> bytes:
    """A line of ``length`` bytes, CRLF included, that begins with ``start``."""
    return start + b"x" * (length - len(start) - 2) + b"\r\n"


BIG = b"b" * (BODY_SAMPLE_LIMIT + 100)


@pytest.mark.parametrize("reply", [
    _line(65536, b"HTTP/1.1 200 ") + b"\r\n",
    _line(65537, b"HTTP/1.1 200 ") + b"\r\n",
    b"HTTP/1.1 200 OK\r\n" + _line(65536, b"X-Long: ") + b"\r\n",
    b"HTTP/1.1 200 OK\r\n" + _line(65537, b"X-Long: ") + b"\r\n",
    b"HTTP/1.1 200 OK\r\n" + _fields(99) + b"\r\n",
    b"HTTP/1.1 200 OK\r\n" + _fields(100) + b"\r\n",
    b"HTTP/1.1 200 OK\r\n" + _fields(101) + b"\r\n",
    b"HTTP/1.1 100 Continue\r\n" + _fields(99) + b"\r\nHTTP/1.1 200 OK\r\n\r\n",
    b"HTTP/1.1 100 Continue\r\n" + _fields(100) + b"\r\nHTTP/1.1 200 OK\r\n\r\n",
    b"HTTP/1.1 200 OK\r\n\r\n" + BIG,
    b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n" % len(BIG) + BIG,
    b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n" % (BODY_SAMPLE_LIMIT - 1) + BIG,
    b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n%x\r\n" % len(BIG) + BIG + b"\r\n0\r\n\r\n",
    b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n" + b"1000\r\n" + b"c" * 4096 + b"\r\n" * 80,
    b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n" + _line(65537, b"5;") + b"hello\r\n0\r\n\r\n",
    b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n" + _line(65537, b"T: "),
    b"HTTP/1.1 204 No Content\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n",
    b"HTTP/1.1 101 Switching\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n",
    b"HTTP/1.1 304 Not Modified\r\nContent-Length: 5\r\n\r\nhello",
], ids=[
    "status line at the limit", "status line past it", "field line at the limit", "field line past it",
    "99 fields", "100 fields", "101 fields", "99 fields of a 100", "100 fields of a 100",
    "body to the end past the cap", "declared body past the cap", "short declared body",
    "one chunk past the cap", "chunks past the cap", "chunk size line past the limit",
    "trailer line past the limit", "chunked 204", "chunked 101", "304 with a declared body",
])
def test_reads_each_limit_as_http_client_did(server, reply):
    assert_read_as_http_client_did(server, reply)


# --- today's quirks, each pinned as a scan stores it --------------------------------
# Each is a departure from RFC 9112 that the probe keeps so that stored
# results do not move; ROADMAP.md plans to change them.


def _stored(server, reply, path="/", **cfg):
    server.reply = reply
    result, _ = probe_and_follow(make_target(server.url(path)), fast_cfg(**cfg))
    return result


def test_a_line_without_a_colon_hides_the_fields_after_it(server):
    result = _stored(server, b"HTTP/1.1 200 OK\r\nContent-Type: text/html\r\nBadLine\r\n"
                             b"Server: Apache/2.4.29\r\n\r\n")
    assert server.requests.get(timeout=5).startswith(b"GET / HTTP/1.1\r\n")
    assert result.headers == (("content-type", "text/html"),)


def test_a_folded_value_keeps_its_line_break(server):
    result = _stored(server, b"HTTP/1.1 200 OK\r\nServer: Apache/2.4.29\r\n (Ubuntu)\r\n\r\n")
    server.requests.get(timeout=5)
    assert result.headers == (("server", "Apache/2.4.29\r\n (Ubuntu)"),)


def test_a_value_keeps_its_trailing_spaces(server):
    result = _stored(server, b"HTTP/1.1 200 OK\r\nServer: nginx/1.2.3  \r\n\r\n")
    server.requests.get(timeout=5)
    assert result.headers == (("server", "nginx/1.2.3  "),)


def test_an_interim_103_is_stored_instead_of_the_final_response(server):
    result = _stored(server, b"HTTP/1.1 103 Early Hints\r\nLink: </s.css>; rel=preload\r\n\r\n"
                             b"HTTP/1.1 200 OK\r\nServer: Apache/2.4.29\r\nContent-Length: 2\r\n\r\nok")
    server.requests.get(timeout=5)
    assert (result.status, result.headers, result.body_sample) == (
        103, (("link", "</s.css>; rel=preload"),), b"",
    )


def test_a_target_with_a_space_is_refused_once_and_sends_nothing(server):
    result = _stored(server, b"HTTP/1.1 200 OK\r\n\r\n", path="/a b", retries=2, retry_backoff=0.01)
    assert result.transport_error == "malformed response: InvalidURL"
    assert server.requests.get(timeout=5) == b""
    with pytest.raises(Empty):  # no second connection
        server.requests.get(timeout=0.2)
