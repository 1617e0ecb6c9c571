import io
import math
import random
import re
import socket
import ssl
import sys
import threading
import time
import urllib.parse
from concurrent.futures import ThreadPoolExecutor
from itertools import islice
from queue import SimpleQueue
from urllib.parse import urlsplit

import pytest

import smellprobe

from smellprobe import probe
from smellprobe.cli import EXIT_OK, run
from smellprobe.corpus import load_targets
from smellprobe.harness import FixtureProfile, RouteSpec
from smellprobe.model import JSON_MAX_DEPTH, BodyFormat, RedirectChain, Scheme, classify_body
from smellprobe.probe import (
    BODY_SAMPLE_LIMIT, MAX_EXCHANGES, ProbeConfig, probe_all, probe_and_follow,
)

from helpers import ScriptedServer, fast_cfg, make_result, make_target


def hop_profile(count: int, terminal_status: int = 200) -> FixtureProfile:
    routes = {}
    for i in range(1, count + 1):
        nxt = f"{{base}}/hop/{i + 1}" if i < count else "{base}/final"
        routes[f"/hop/{i}"] = RouteSpec(status=302, headers=(("Location", nxt),))
    routes["/final"] = RouteSpec(status=terminal_status, body=b"done")
    return FixtureProfile(name=f"chain{count}", routes=routes)


class TestProbeOnce:
    def test_json_response_classified(self, endpoints):
        ep = endpoints(
            FixtureProfile(
                name="json",
                routes={
                    "/": RouteSpec(
                        status=200,
                        headers=(("Content-Type", "application/json"),),
                        body=b'{"a":1}',
                    )
                },
            )
        )
        result, _ = probe_and_follow(make_target(ep.url("/")), fast_cfg())
        assert result.status == 200
        assert result.body_format is BodyFormat.JSON
        assert result.transport_error is None

    def test_connection_refused(self, refusing_endpoint):
        result, _ = probe_and_follow(make_target(refusing_endpoint.url("/")), fast_cfg())
        assert result.status is None
        assert result.transport_error == "connection refused"

    def test_body_truncated_at_limit(self, endpoints):
        ep = endpoints(
            FixtureProfile(name="big", routes={
                "/": RouteSpec(status=200, body=b"x" * (BODY_SAMPLE_LIMIT + 5000)),
            })
        )
        result, _ = probe_and_follow(make_target(ep.url("/")), fast_cfg())
        assert len(result.body_sample) == BODY_SAMPLE_LIMIT

    def test_read_timeout_reason(self, endpoints):
        ep = endpoints(
            FixtureProfile(name="slow", routes={"/": RouteSpec(status=200, delay=2.0)})
        )
        result, _ = probe_and_follow(make_target(ep.url("/")), fast_cfg(read_timeout=0.3))
        assert result.transport_error == "timeout"

    def test_dns_failure_reason(self):
        result, _ = probe_and_follow(make_target("http://smellprobe-nonexistent.invalid/"), fast_cfg())
        assert result.transport_error == "dns failure"

    def test_retries_before_giving_up(self, refusing_endpoint):
        started = time.monotonic()
        cfg = fast_cfg(retries=2, retry_backoff=0.1)
        result, _ = probe_and_follow(make_target(refusing_endpoint.url("/")), cfg)
        elapsed = time.monotonic() - started
        assert result.transport_error == "connection refused"
        assert elapsed >= 0.2  # two backoff sleeps happened

    def test_tls_untrusted_by_default(self, endpoints, library):
        ep = endpoints(library.profile("https_no_hsts"))
        result, _ = probe_and_follow(make_target(ep.url("/")), fast_cfg())
        assert result.transport_error == "tls handshake failure"

    def test_header_order_and_case(self, endpoints):
        ep = endpoints(
            FixtureProfile(
                name="ordered",
                routes={
                    "/": RouteSpec(
                        status=200,
                        headers=(
                            ("X-First", "1"),
                            ("Server", "nginx"),
                            ("X-Last", "3"),
                        ),
                    )
                },
            )
        )
        result, _ = probe_and_follow(make_target(ep.url("/")), fast_cfg())
        names = [n for n, _ in result.headers]
        assert names[:3] == ["x-first", "server", "x-last"]

    def test_repeated_headers_kept_in_wire_order(self, endpoints):
        ep = endpoints(
            FixtureProfile(
                name="multi",
                routes={
                    "/": RouteSpec(
                        status=200,
                        headers=(
                            ("X-Note", "one"),
                            ("Server", "nginx"),
                            ("X-Note", "two"),
                        ),
                    )
                },
            )
        )
        result, _ = probe_and_follow(make_target(ep.url("/")), fast_cfg())
        assert result.header_values("x-note") == ("one", "two")
        names = [n for n, _ in result.headers]
        assert names[:3] == ["x-note", "server", "x-note"]


class TestFollowChain:
    def test_single_upgrade_hop(self, endpoints, library):
        ep = endpoints(library.profile("http_upgrade_redirect"))
        cfg = fast_cfg(ca_bundle=ep.ca_file)
        _, chain = probe_and_follow(make_target(ep.url("/", scheme="http")), cfg)
        assert chain.chain_length == 1
        assert chain.downgrade_hops == 0
        assert chain.terminal.status == 200
        assert not chain.loop_detected

    def test_two_node_loop(self, endpoints, library):
        ep = endpoints(library.profile("http_redirect_loop"))
        _, chain = probe_and_follow(make_target(ep.url("/a")), fast_cfg())
        assert chain.loop_detected
        hop_urls = [hop.url for hop in chain.hops]
        assert hop_urls.count(hop_urls[-1]) == 2

    def test_cutoff_at_max_redirects(self, endpoints):
        ep = endpoints(hop_profile(12))
        _, chain = probe_and_follow(make_target(ep.url("/hop/1")), fast_cfg())
        assert len(chain.exchanges) == chain.chain_length == MAX_EXCHANGES
        assert chain.terminal.status == 302
        assert chain.terminal.url == ep.url(f"/hop/{MAX_EXCHANGES}")
        assert len(ep.requests) == MAX_EXCHANGES
        assert not chain.loop_detected

    def test_downgrade_counted(self, endpoints, library):
        ep = endpoints(library.profile("https_downgrade"))
        cfg = fast_cfg(ca_bundle=ep.ca_file)
        _, chain = probe_and_follow(make_target(ep.url("/", scheme="https")), cfg)
        assert chain.downgrade_hops == 1
        assert chain.terminal.status == 200

    def test_loop_implies_repeated_request_url(self, endpoints, library):
        ep = endpoints(library.profile("https_redirect_loop"))
        cfg = fast_cfg(ca_bundle=ep.ca_file)
        _, chain = probe_and_follow(make_target(ep.url("/")), cfg)
        assert chain.loop_detected
        urls = [hop.url for hop in chain.hops]
        assert urls[-1] in urls[:-1]

    def test_downgrade_recount_brute_force(self, endpoints, library):
        for name in ("https_downgrade", "http_upgrade_redirect", "http_redirect_loop"):
            ep = endpoints(library.profile(name))
            scheme = ep.profile.schemes[0]
            path = "/a" if name == "http_redirect_loop" else "/"
            cfg = fast_cfg(ca_bundle=ep.ca_file)
            _, chain = probe_and_follow(make_target(ep.url(path, scheme=scheme)), cfg)
            schemes = [urlsplit(u).scheme for u in chain.requested_urls()]
            expected = sum(
                1
                for a, b in zip(schemes, schemes[1:])
                if a == "https" and b == "http"
            )
            assert chain.downgrade_hops == expected

    def test_relative_locations_resolved_against_current_hop(self, endpoints):
        ep = endpoints(
            FixtureProfile(
                name="relative",
                routes={
                    "/api/v1": RouteSpec(status=302, headers=(("Location", "/api/v2"),)),
                    "/api/v2": RouteSpec(status=302, headers=(("Location", "v3"),)),
                    "/api/v3": RouteSpec(status=200, body=b"here"),
                },
            )
        )
        _, chain = probe_and_follow(make_target(ep.url("/api/v1")), fast_cfg())
        assert chain.chain_length == 2
        assert chain.terminal.status == 200
        assert chain.terminal.url == ep.url("/api/v3")

    def test_redirect_without_location_is_terminal(self, endpoints):
        ep = endpoints(
            FixtureProfile(
                name="lost",
                routes={"/": RouteSpec(status=302, headers=(("Location", ""),))},
            )
        )
        _, chain = probe_and_follow(make_target(ep.url("/")), fast_cfg())
        assert chain.chain_length == 0
        assert chain.terminal.status == 302
        assert not chain.loop_detected

    def test_transport_error_lands_in_terminal(self, refusing_endpoint):
        _, chain = probe_and_follow(make_target(refusing_endpoint.url("/")), fast_cfg())
        assert chain.terminal.transport_error == "connection refused"
        assert chain.chain_length == 0

    @pytest.mark.parametrize("location", ["ftp://files.example/x", "http://[::1/broken"])
    def test_location_off_the_web_or_unparsable_ends_chain(self, endpoints, location):
        ep = endpoints(
            FixtureProfile(
                name="dead-end",
                routes={"/": RouteSpec(status=302, headers=(("Location", location),))},
            )
        )
        result, chain = probe_and_follow(make_target(ep.url("/")), fast_cfg())
        assert chain.exchanges == (result,)
        assert chain.chain_length == 1
        assert chain.hops == (result,)
        assert not chain.loop_detected
        assert [r.path for r in ep.requests] == ["/"]

    def test_mid_chain_failure_keeps_every_exchange(self, endpoints, refusing_endpoint):
        ep = endpoints(
            FixtureProfile(
                name="to-nowhere",
                routes={
                    "/": RouteSpec(
                        status=302,
                        headers=(("Location", refusing_endpoint.url("/gone")), ("X-Hop", "1")),
                        body=b"moving",
                    )
                },
            )
        )
        result, chain = probe_and_follow(make_target(ep.url("/")), fast_cfg())
        assert chain.requested_urls() == (ep.url("/"), refusing_endpoint.url("/gone"))
        assert chain.result is result
        assert result.header_values("x-hop") == ("1",)
        assert result.body_sample == b"moving"
        assert chain.terminal.transport_error == "connection refused"
        assert chain.chain_length == 1


@pytest.mark.parametrize("host", ["127.0.0.1", "::1"], ids=["ipv4", "ipv6"])
def test_host_header(host):
    """The whole request head: the path with its query, and these fields alone, so no
    Accept-Encoding."""
    reply = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: close\r\n\r\nok"
    with ScriptedServer(reply, host) as server:
        result, _ = probe_and_follow(make_target(server.url("/p?q=1")), fast_cfg())
    assert result.status == 200
    assert server.requests.get(timeout=5).split(b"\r\n") == [
        b"GET /p?q=1 HTTP/1.1",
        f"Host: {urlsplit(server.url()).netloc}".encode(),
        f"User-Agent: smellprobe/{smellprobe.__version__}".encode(),
        b"Accept: */*",
        b"Connection: close",
        b"",
        b"",
    ]


class TestRedirectChain:
    """Properties derived from the exchanges alone, without the network."""

    def redirect(self, target, url, location, status=302):
        return make_result(target, status=status, url=url, headers=(("Location", location),))

    def test_self_redirect_then_answer_is_two_requests(self):
        target = make_target("http://h.example/")
        first = self.redirect(target, "http://h.example/", "http://h.example/")
        answer = make_result(target, status=200, url="http://h.example/")
        chain = RedirectChain((first, answer))
        assert chain.requested_urls() == ("http://h.example/", "http://h.example/")
        assert not chain.loop_detected
        assert chain.chain_length == 1
        assert chain.result is first and chain.terminal is answer

    def test_self_redirect_twice_is_a_loop(self):
        target = make_target("http://h.example/")
        first = self.redirect(target, "http://h.example/", "/")
        again = self.redirect(target, "http://h.example/", "/")
        chain = RedirectChain((first, again))
        assert chain.loop_detected
        assert chain.chain_length == 2
        assert chain.hops == (first, again)

    def test_downgrades_counted_per_https_to_http_step(self):
        target = make_target("https://h.example/")
        chain = RedirectChain(
            (
                self.redirect(target, "https://h.example/", "http://h.example/a"),
                self.redirect(target, "http://h.example/a", "https://h.example/b"),
                self.redirect(target, "https://h.example/b", "http://h.example/c"),
                make_result(target, status=200, url="http://h.example/c"),
            )
        )
        assert chain.downgrade_hops == 2
        assert chain.chain_length == 3
        assert not chain.loop_detected

    def test_empty_chain_rejected(self):
        with pytest.raises(ValueError):
            RedirectChain(())

    def test_exchanges_of_another_target_rejected(self):
        first = self.redirect(make_target("http://h.example/"), "http://h.example/", "/b")
        other = make_result(make_target("http://other.example/"), url="http://h.example/b")
        with pytest.raises(ValueError):
            RedirectChain((first, other))

    @pytest.mark.parametrize(
        "url", ["ftp://elsewhere/", "http://127.0.0.2/b", "http://h.example/c", "http://h.example/b "]
    )
    def test_exchange_not_where_the_location_leads_rejected(self, url):
        target = make_target("http://h.example/")
        first = self.redirect(target, "http://h.example/", " /b ")
        with pytest.raises(ValueError, match="is not where the Location of 'http://h.example/' leads"):
            RedirectChain((first, make_result(target, url=url)))

    def test_exchange_after_an_unfollowable_location_rejected(self):
        target = make_target("http://h.example/")
        first = self.redirect(target, "http://h.example/", "ftp://elsewhere/")
        with pytest.raises(ValueError, match="is not where the Location"):
            RedirectChain((first, make_result(target, url="ftp://elsewhere/")))

    def test_next_url_is_the_terminal_redirect_url_until_a_loop(self):
        target = make_target("http://h.example/")
        first = self.redirect(target, "http://h.example/", "/b")
        assert RedirectChain((first,)).next_url == "http://h.example/b"
        back = self.redirect(target, "http://h.example/b", "/")
        assert RedirectChain((first, back)).next_url == "http://h.example/"
        again = self.redirect(target, "http://h.example/", "/b")
        assert RedirectChain((first, back, again)).loop_detected
        assert RedirectChain((first, back, again)).next_url is None
        answer = make_result(target, url="http://h.example/b")
        assert RedirectChain((first, answer)).next_url is None


@pytest.mark.parametrize(
    "status, location, expected",
    [
        (302, "/b?q=1", "http://h.example/b?q=1"),
        (301, "c", "http://h.example/a/c"),
        (307, "//other.example/x", "http://other.example/x"),
        (302, " \t https://h.example/next \r\n", "https://h.example/next"),
        (302, "https://h.example ", "https://h.example"),
        (302, "\x01https://h.example/", "https://h.example/"),  # leading C0 control
        (302, "https://h.example/b\x1f\x00", "https://h.example/b"),  # trailing C0 controls
        (302, "\xa0/b\x85", "http://h.example/b"),  # the other Latin-1 whitespace
        (302, "HTTPS://H.example/Up", "HTTPS://H.example/Up"),  # another scheme: kept as it is
        (302, "   ", None),
        (302, "", None),
        (302, None, None),
        (302, "http://[::1/broken", None),
        (302, "ftp://elsewhere/", None),
        (302, "javascript:alert(1)", None),
        (200, "https://h.example/", None),
        (404, "/b", None),
    ],
)
def test_redirect_url_is_where_a_location_leads(status, location, expected):
    target = make_target("http://h.example/a/x")
    headers = () if location is None else (("Location", location),)
    assert make_result(target, status=status, headers=headers).redirect_url == expected


def test_redirect_url_does_not_lean_on_urlsplit_stripping(monkeypatch):
    """Python 3.10.11 and older urlsplit strip no leading controls; the rule gives the same URL."""
    monkeypatch.setattr(urllib.parse, "_WHATWG_C0_CONTROL_OR_SPACE", "", raising=False)
    urllib.parse.urlsplit.cache_clear()
    try:
        target = make_target("http://h.example/a/x")
        result = make_result(target, status=302, headers=(("Location", "\x01\x1fhttps://h.example/"),))
        assert result.redirect_url == "https://h.example/"
    finally:
        urllib.parse.urlsplit.cache_clear()


# Each URL with the reason request_url_problem gives, or None where the probe
# may request it.  Every URL here is as the corpus normalizes it.
REQUEST_URLS = [
    ("http://h.example/", None),
    ("https://h.example:65535/", None),
    ("http://h.example:/", None),
    ("http://h.example:00080/", None),
    ("http://h.example/[x]", None),
    ("http://u@[::1]:/", None),
    ("http://[::1]/x", None),
    ("http://[::ffff:1.2.3.4]:8080/", None),
    ("https://[v1f.x]/", None),
    ("http://:80/", "url has no host"),
    ("http://u@/", "url has no host"),
    ("http:///x", "url not absolute"),
    ("mailto:a@h.example", "url not absolute"),
    ("ftp://h.example/", "unsupported scheme"),
    ("http://x\uff03/", "unparseable url: netloc 'x\uff03' contains invalid characters under NFKC normalization"),
    ("http://h.example:8x/", "bad port: '8x'"),
    ("https://127.0.0.1:8x/", "bad port: '8x'"),
    ("http://h.example:+80/", "bad port: '+80'"),
    ("http://h.example:99999/", "bad port: '99999'"),
    ("http://h.example:\u0668\u0660/", "bad port: '\u0668\u0660'"),
    ("http://h.example:80:90/", "bad port: '80:90'"),
    ("http://[::1]:8x/", "bad port: '8x'"),
    ("http://[garbage]/", "bad bracketed host: '[garbage]'"),
    ("http://[1.2.3.4]/", "bad bracketed host: '[1.2.3.4]'"),
    ("http://[vz.x]/", "bad bracketed host: '[vz.x]'"),
    ("http://a[::1]b/", "bad bracketed host: 'a[::1]b'"),
    ("http://[::1]x/", "bad bracketed host: '[::1]x'"),
    ("http://[::1]@h.example/", "bad bracketed host: '[::1]@h.example'"),
    ("http://[::1/", "bad bracketed host: '[::1'"),
    ("ftp://[garbage]/", "bad bracketed host: '[garbage]'"),
]


@pytest.mark.parametrize("checked", [True, False], ids=["urlsplit checks", "urlsplit does not check"])
@pytest.mark.parametrize("url, reason", REQUEST_URLS)
def test_one_rule_decides_every_request_url(tmp_path, monkeypatch, checked, url, reason):
    """A corpus row, a target and a Location get the same verdict, on every interpreter.

    Releases before 3.11.4 and 3.10.12 have no bracketed-host check in
    urlsplit.  The Location is resolved against a URL of the other scheme, so
    that it leads to itself: ``http:///x`` under an http URL leads to its host.
    """
    if not checked:
        monkeypatch.setattr(urllib.parse, "_check_bracketed_host", lambda host: None, raising=False)
    urllib.parse.urlsplit.cache_clear()
    try:
        corpus = tmp_path / "corpus.csv"
        corpus.write_text(f"url,app_id,source_model,declared_format\n{url},a,open_source,\n", encoding="utf-8")
        loaded = load_targets(corpus)
        assert [r.reason for r in loaded.rejects] == ([reason] if reason else [])
        assert [t.url for t in loaded.targets] == ([] if reason else [url])

        if reason:
            with pytest.raises(ValueError, match=re.escape(f"{reason}: {url!r}")):
                make_target(url)
        else:
            assert make_target(url).url == url

        other = make_target("https://h.example/" if url.startswith("http:") else "http://h.example/")
        location = make_result(other, status=302, headers=(("Location", url),))
        assert location.redirect_url == (None if reason else url)
    finally:
        urllib.parse.urlsplit.cache_clear()


class TestProbeAll:
    def test_one_unreachable_target_embedded(self, endpoints, refusing_endpoint):
        ep = endpoints(FixtureProfile(name="ok", routes={"/": RouteSpec(status=200)}))
        corpus = [
            make_target(ep.url("/"), app_id="a"),
            make_target(refusing_endpoint.url("/"), app_id="b"),
            make_target(ep.url("/"), app_id="c"),
        ]
        pairs = probe_all(corpus, fast_cfg())
        assert len(pairs) == 3
        errors = [result.transport_error for result, _ in pairs]
        assert errors[0] is None and errors[2] is None
        assert errors[1] == "connection refused"

    def test_empty_corpus(self):
        assert probe_all([], fast_cfg()) == []

    def test_parallelism_bound_respected(self, endpoints):
        ep = endpoints(
            FixtureProfile(name="slowfarm", routes={"/": RouteSpec(status=200, delay=0.2)})
        )
        corpus = [make_target(ep.url("/"), app_id=f"a{i}") for i in range(6)]
        probe_all(corpus, fast_cfg(parallelism=2))
        assert ep.max_in_flight <= 2

    def test_only_corpus_hosts_contacted(self, endpoints, library):
        eps = [endpoints(library.profile(n)) for n in ("http_plain_ok", "http_redirect_loop")]
        corpus = [
            make_target(eps[0].url("/"), app_id="a"),
            make_target(eps[1].url("/a"), app_id="b"),
        ]
        allowed_hosts = {urlsplit(t.url).netloc for t in corpus}
        probe_all(corpus, fast_cfg())
        seen = {r.host for ep in eps for r in ep.requests}
        assert seen <= allowed_hosts

    def test_static_fixtures_deterministic_modulo_timestamp(self, endpoints, library):
        ep = endpoints(library.profile("http_nginx_banner"))
        corpus = [make_target(ep.url("/"), app_id="a")]
        first = probe_all(corpus, fast_cfg())
        second = probe_all(corpus, fast_cfg())
        for (r1, c1), (r2, c2) in zip(first, second):
            assert r1.status == r2.status
            assert r1.headers == r2.headers
            assert r1.body_sample == r2.body_sample
            assert c1.requested_urls() == c2.requested_urls()
            assert c1.loop_detected == c2.loop_detected
            assert c1.downgrade_hops == c2.downgrade_hops


class TestProbeEach:
    def test_results_come_in_completion_order(self, endpoints):
        routes = {"/slow": RouteSpec(delay=0.5), **{f"/fast{i}": RouteSpec() for i in range(5)}}
        ep = endpoints(FixtureProfile(name="mixed", routes=routes))
        corpus = [make_target(ep.url(path)) for path in routes]
        yielded = list(probe.probe_each(corpus, fast_cfg(parallelism=2)))
        order = [index for index, _ in yielded]
        assert sorted(order) == list(range(6))
        assert all(chain.result.target == corpus[index] for index, chain in yielded)
        assert order[-1] == 0
        pairs = probe_all(corpus, fast_cfg(parallelism=2))
        assert [result.target for result, _ in pairs] == corpus

    def test_at_most_twice_parallelism_results_held(self, endpoints):
        ep = endpoints(FixtureProfile(name="farm", routes={"/": RouteSpec()}))
        corpus = [make_target(ep.url("/"), app_id=f"a{i}") for i in range(12)]
        results = probe.probe_each(corpus, fast_cfg(parallelism=2))
        next(results)
        time.sleep(0.3)  # the consumer stalls: only the window is probed
        assert len(ep.requests) == 4
        results.close()  # cancels what is queued; nothing more is probed
        time.sleep(0.1)
        assert len(ep.requests) == 4

    def test_close_skips_the_targets_not_yet_started(self, monkeypatch):
        release = threading.Event()
        started = []

        def probe_target(target, cfg):
            started.append(target.app_id)
            if target.app_id != "a0":
                release.wait(timeout=10)
            return None, RedirectChain((make_result(target),))

        monkeypatch.setattr(probe, "probe_and_follow", probe_target)
        threads = threading.active_count()
        corpus = [make_target(f"http://h{i}.example/", app_id=f"a{i}") for i in range(8)]
        results = probe.probe_each(corpus, fast_cfg(parallelism=2))
        assert next(results)[0] == 0  # a0-a3 are handed out; a1 and perhaps a2 are running
        timer = threading.Timer(0.2, release.set)
        timer.start()
        results.close()  # waits for the running targets, and starts no other
        timer.join()
        assert threading.active_count() == threads
        assert set(started) <= {"a0", "a1", "a2"}

    @pytest.mark.parametrize("fault", [RuntimeError, KeyboardInterrupt])
    def test_worker_exception_is_raised_in_the_consumer(self, monkeypatch, fault):
        def probe_target(target, cfg):
            if target.app_id == "a3":
                raise fault("worker failed")
            return None, RedirectChain((make_result(target),))

        monkeypatch.setattr(probe, "probe_and_follow", probe_target)
        threads = threading.active_count()
        corpus = [make_target(f"http://h{i}.example/", app_id=f"a{i}") for i in range(8)]
        raised = []

        def consume():  # on a thread of its own, so that a lost exception fails the test
            try:
                for _ in probe.probe_each(corpus, fast_cfg(parallelism=2)):
                    pass
            except BaseException as exc:  # noqa: BLE001 - the exception under test
                raised.append(exc)

        consumer = threading.Thread(target=consume, daemon=True)
        consumer.start()
        consumer.join(timeout=10)
        assert not consumer.is_alive(), "the consumer still waits for the failed target"
        assert [type(exc) for exc in raised] == [fault]
        assert str(raised[0]) == "worker failed"
        assert threading.active_count() == threads

    def test_many_workers_yield_each_target_once_within_the_window(self, monkeypatch):
        """More workers than cores, switching threads often, closed at random points."""
        lock = threading.Lock()
        started = []

        def probe_target(target, cfg):
            with lock:
                started.append(target)
            return None, RedirectChain((make_result(target),))

        monkeypatch.setattr(probe, "probe_and_follow", probe_target)
        threads = threading.active_count()
        corpus = [make_target(f"http://h{i}.example/", app_id=f"a{i}") for i in range(400)]
        cfg = fast_cfg(parallelism=8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            seen = []
            for index, chain in probe.probe_each(corpus, cfg):
                assert len(started) <= len(seen) + 2 * cfg.parallelism
                assert chain.result.target is corpus[index]
                seen.append(index)
            assert sorted(seen) == list(range(len(corpus)))
            assert len(started) == len(corpus)
            for stop in random.Random(20).sample(range(1, len(corpus)), 8):
                started.clear()
                results = probe.probe_each(corpus, cfg)
                assert len(list(islice(results, stop))) == stop
                results.close()
                assert threading.active_count() == threads
                assert stop <= len(started) <= stop + 2 * cfg.parallelism
        finally:
            sys.setswitchinterval(interval)

    def test_one_stop_signal_per_worker_started(self, monkeypatch):
        """A one-target corpus at a vast parallelism starts one worker and queues one None for it."""
        stops = []

        class CountingQueue(SimpleQueue):
            def put(self, item, *args, **kwargs):
                if item is None:
                    stops.append(item)
                super().put(item, *args, **kwargs)

        monkeypatch.setattr(probe, "SimpleQueue", CountingQueue)
        monkeypatch.setattr(probe, "probe_and_follow",
                            lambda target, cfg: (None, RedirectChain((make_result(target),))))
        threads = threading.active_count()
        corpus = [make_target("http://h0.example/")]
        assert [index for index, _ in probe.probe_each(corpus, fast_cfg(parallelism=100_000))] == [0]
        assert len(stops) <= 1
        assert threading.active_count() == threads


class TestConfigAndBodyFormat:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            ProbeConfig(connect_timeout=0)
        with pytest.raises(ValueError):
            ProbeConfig(retries=-1)
        with pytest.raises(ValueError):
            ProbeConfig(user_agent="")

    @pytest.mark.parametrize("name", ["parallelism", "retries"])
    @pytest.mark.parametrize("value", [1.5, 2.0, True, "2", None])
    def test_counts_must_be_integers(self, name, value):
        """A count range() could not take is refused here, not by the scan's workers."""
        with pytest.raises(ValueError, match=f"^{name} must be an integer$"):
            ProbeConfig(**{name: value})

    @pytest.mark.parametrize("name", ["connect_timeout", "read_timeout", "retry_backoff"])
    def test_durations_must_be_positive_and_finite(self, name):
        for value in (0, -1.5, -math.inf):
            with pytest.raises(ValueError, match=f"^{name} must be > 0$"):
                ProbeConfig(**{name: value})
        for value in (math.nan, math.inf):
            with pytest.raises(ValueError, match=f"^{name} must be finite$"):
                ProbeConfig(**{name: value})

    def test_classify_body(self):
        assert classify_body(b"", None) is BodyFormat.EMPTY
        assert classify_body(b'{"a":1}', None) is BodyFormat.JSON
        assert classify_body(b"<html>", None) is BodyFormat.NON_JSON
        assert classify_body(b"<html>", "application/json") is BodyFormat.JSON
        assert classify_body(b"", "application/json; charset=utf-8") is BodyFormat.JSON

    @pytest.mark.parametrize("body, expected", [
        (b"[" * JSON_MAX_DEPTH + b"]" * JSON_MAX_DEPTH, BodyFormat.JSON),
        (b"[" * (JSON_MAX_DEPTH + 1) + b"]" * (JSON_MAX_DEPTH + 1), BodyFormat.NON_JSON),
        (b'{"a":' * JSON_MAX_DEPTH + b"1" + b"}" * JSON_MAX_DEPTH, BodyFormat.JSON),
        (b"[" * 500 + b"]" * 500, BodyFormat.NON_JSON),
        (b"[" * 100_000, BodyFormat.NON_JSON),
        (b'["' + b"[{" * 1000 + b'"]', BodyFormat.JSON),  # brackets inside a string do not nest
        (b'["\\\\",' + b"[" * 1000 + b"]" * 1000 + b"]", BodyFormat.NON_JSON),  # after a string they do
        (b'["\\"' + b"[" * 1000 + b'"]', BodyFormat.JSON),  # an escaped quote does not end it
        (("[" * 200 + "]" * 200).encode("utf-16"), BodyFormat.NON_JSON),
    ])
    def test_classify_body_at_any_call_depth(self, body, expected):
        """A body's class does not depend on how much stack its caller has used."""

        def at_depth(frames):
            return classify_body(body, None) if frames == 0 else at_depth(frames - 1)

        frame, used = sys._getframe(), 0
        while frame is not None:
            frame, used = frame.f_back, used + 1
        room = sys.getrecursionlimit() - used - JSON_MAX_DEPTH - 20
        assert room > 0
        assert classify_body(body, None) is at_depth(room) is expected

    def test_first_probe_result_is_first_exchange(self, endpoints, library):
        ep = endpoints(library.profile("http_upgrade_redirect"))
        target = make_target(ep.url("/", scheme="http"))
        first, chain = probe_and_follow(target, fast_cfg(ca_bundle=ep.ca_file))
        assert first is chain.exchanges[0] is chain.result
        assert first.url == target.url
        assert first.status == 301
        assert chain.terminal.status == 200


@pytest.fixture
def context_builds(monkeypatch):
    """Records the cafile of every TLS context built; each is still built for real."""
    builds = []
    real = ssl.create_default_context

    def counting(*args, **kwargs):
        builds.append(kwargs.get("cafile"))
        return real(*args, **kwargs)

    monkeypatch.setattr(ssl, "create_default_context", counting)
    return builds


def requests_at_each_build(monkeypatch, ep):
    """Records, for every TLS context built, how many requests ``ep`` had been sent by then."""
    served = []
    real = ssl.create_default_context

    def recording(*args, **kwargs):
        served.append(len(ep.requests))
        return real(*args, **kwargs)

    monkeypatch.setattr(ssl, "create_default_context", recording)
    return served


class TestSharedTlsContext:
    def test_one_context_per_scan(self, endpoints, context_builds):
        routes = dict(hop_profile(3).routes)
        routes["/slow"] = RouteSpec(status=200, body=b"late", delay=1.0)
        ep = endpoints(FixtureProfile(name="tls-farm", schemes=("https",), routes=routes))
        paths = ["/hop/1", "/hop/2", "/final", "/slow"]
        corpus = [make_target(ep.url(p), app_id=f"a{i}") for i, p in enumerate(paths)]
        cfg = fast_cfg(ca_bundle=ep.ca_file, parallelism=4, read_timeout=0.3, retries=1)
        pairs = probe_all(corpus, cfg)
        statuses = [chain.terminal.status for _, chain in pairs]
        assert statuses == [200, 200, 200, None]
        assert pairs[3][1].terminal.transport_error == "timeout"
        # 4 + 3 + 1 chain exchanges and two attempts at /slow, one context.
        assert len(ep.requests) == 10
        assert context_builds == [ep.ca_file]

    def test_https_scan_builds_context_on_calling_thread_before_any_request(self, endpoints,
                                                                            monkeypatch):
        ep = endpoints(hop_profile(2))
        https = endpoints(FixtureProfile(name="tls", schemes=("https",), routes=hop_profile(1).routes))
        builds = []
        real = ssl.create_default_context

        def recording(*args, **kwargs):
            builds.append((threading.get_ident(), len(ep.requests) + len(https.requests)))
            return real(*args, **kwargs)

        monkeypatch.setattr(ssl, "create_default_context", recording)
        corpus = [make_target(ep.url("/hop/1"), app_id="a"), make_target(https.url("/hop/1"))]
        pairs = probe_all(corpus, fast_cfg(ca_bundle=https.ca_file, parallelism=2))
        assert [chain.terminal.status for _, chain in pairs] == [200, 200]
        assert builds == [(threading.get_ident(), 0)]

    def test_http_target_redirected_to_https_builds_context_on_first_use(self, endpoints, library,
                                                                         monkeypatch):
        """The system store is loaded lazily; the fixture is trusted through it here."""
        ep = endpoints(library.profile("http_upgrade_redirect"))
        monkeypatch.setenv("SSL_CERT_FILE", ep.ca_file)
        served = requests_at_each_build(monkeypatch, ep)
        target = make_target(ep.url("/", scheme="http"))
        result, chain = probe_and_follow(target, fast_cfg())
        assert (result.status, chain.terminal.status) == (301, 200)
        # Built once, between the http request and the https one.
        assert served == [1]

    def test_bundle_without_certificate_fails_the_call_before_any_request(self, tmp_path,
                                                                          endpoints, library):
        """The config loads its bundle when it is made, so no probe call ever gets one it cannot use."""
        ep = endpoints(library.profile("https_no_hsts"))
        bundle = tmp_path / "no-certificate.pem"
        bundle.write_text("no PEM block here\n", encoding="utf-8")
        with pytest.raises(ssl.SSLError):
            fast_cfg(ca_bundle=str(bundle))
        assert ep.requests == []

    def test_http_only_scan_builds_no_context(self, endpoints, context_builds):
        ep = endpoints(hop_profile(2))
        corpus = [make_target(ep.url("/hop/1"), app_id="a"), make_target(ep.url("/final"))]
        pairs = probe_all(corpus, fast_cfg(parallelism=2))
        assert [chain.terminal.status for _, chain in pairs] == [200, 200]
        assert context_builds == []

    def test_dry_run_builds_no_context(self, tmp_path, endpoints, library, context_builds):
        """A dry run loads no system store; a --ca-bundle it loads once, to check it."""
        ep = endpoints(library.profile("https_no_hsts"))
        corpus = tmp_path / "corpus.csv"
        corpus.write_text(
            f"url,app_id,source_model,declared_format\n{ep.url('/')},app-0,open_source,\n",
            encoding="utf-8",
        )
        args = ["scan", "--corpus", str(corpus), "--out", str(tmp_path / "s.jsonl"), "--dry-run"]
        assert run(args) == EXIT_OK
        assert context_builds == []
        assert run([*args, "--ca-bundle", ep.ca_file]) == EXIT_OK
        assert context_builds == [ep.ca_file]
        assert ep.requests == []

    def test_http_scan_with_ca_bundle_builds_context_before_any_request(self, tmp_path, endpoints,
                                                                        library, monkeypatch):
        bundle = endpoints(library.profile("https_no_hsts")).ca_file
        ep = endpoints(hop_profile(1))
        served = requests_at_each_build(monkeypatch, ep)
        corpus = tmp_path / "corpus.csv"
        corpus.write_text(
            f"url,app_id,source_model,declared_format\n{ep.url('/final')},app-0,open_source,\n",
            encoding="utf-8",
        )
        args = ["scan", "--corpus", str(corpus), "--out", str(tmp_path / "s.jsonl"),
                "--ca-bundle", bundle, "--retries", "0"]
        assert run(args) == EXIT_OK
        assert served == [0]
        assert len(ep.requests) == 1

    def test_ca_bundle_replaces_system_store(self, endpoints, library):
        ep = endpoints(library.profile("https_no_hsts"))
        cfg = fast_cfg(ca_bundle=ep.ca_file)
        context = cfg.tls_context
        # The fixture certificate is a self-signed leaf, so OpenSSL files it
        # under x509, not x509_ca; no system root (all of them CAs) is loaded.
        stats = context.cert_store_stats()
        assert (stats["x509"], stats["x509_ca"]) == (1, 0)
        assert context.verify_mode is ssl.CERT_REQUIRED
        assert context.check_hostname
        assert cfg.tls_context is context
        assert probe_and_follow(make_target(ep.url("/")), cfg)[0].status == 200

    def test_racing_workers_build_one_context(self, context_builds):
        cfg = fast_cfg()
        workers = 8
        start = threading.Barrier(workers, timeout=10)

        def first_use(_):
            start.wait()
            return cfg.tls_context

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                contexts = list(pool.map(first_use, range(workers), timeout=30))
        finally:
            sys.setswitchinterval(interval)
        assert context_builds == [None]
        assert all(context is contexts[0] for context in contexts)

    def test_context_stays_out_of_config_identity(self, endpoints, library):
        ep = endpoints(library.profile("https_no_hsts"))
        used, fresh = fast_cfg(ca_bundle=ep.ca_file), fast_cfg(ca_bundle=ep.ca_file)
        assert used.tls_context is not fresh.tls_context
        assert used == fresh and hash(used) == hash(fresh)
        assert repr(used) == repr(fresh)
        assert "context" not in repr(used)


class TestRetries:
    def test_untrusted_certificate_not_retried(self, endpoints, library):
        ep = endpoints(library.profile("https_no_hsts"))
        started = time.monotonic()
        cfg = fast_cfg(retries=2, retry_backoff=0.5)
        result, _ = probe_and_follow(make_target(ep.url("/")), cfg)
        assert time.monotonic() - started < 0.5
        assert result.transport_error == "tls handshake failure"

    @pytest.mark.parametrize(
        "exc, reason, attempts",
        [
            (ssl.SSLCertVerificationError("untrusted"), "tls handshake failure", 1),
            (socket.gaierror(-2, "Name or service not known"), "dns failure", 1),
            (ValueError("url has no host"), "error: url has no host", 1),
            (UnicodeError("label too long"), "error: label too long", 1),
            (probe.InvalidURL("URL can't contain control characters."), "malformed response: InvalidURL", 1),
            (io.UnsupportedOperation("not readable"), "connection error: not readable", 1),
            (socket.timeout("timed out"), "timeout", 3),
            (TimeoutError(), "timeout", 3),
            (ConnectionResetError(), "connection reset", 3),
            # Both a ConnectionResetError and an HTTPException: the reset row
            # comes first.
            (probe.RemoteDisconnected("closed"), "connection reset", 3),
            (ConnectionRefusedError(), "connection refused", 3),
            (probe.IncompleteRead(b"par"), "malformed response: IncompleteRead", 3),
            (OSError("network unreachable"), "connection error: network unreachable", 3),
            (ssl.SSLError("handshake"), "tls handshake failure", 3),
            (RuntimeError("boom"), "error: boom", 3),
        ],
    )
    def test_only_transient_errors_retried(self, monkeypatch, exc, reason, attempts):
        calls = []

        def failing(url, cfg):
            calls.append(url)
            raise exc

        monkeypatch.setattr(probe, "_exchange", failing)
        cfg = fast_cfg(retries=2, retry_backoff=0.01)
        result, _ = probe_and_follow(make_target("http://127.0.0.1:1/"), cfg)
        assert len(calls) == attempts
        assert result.transport_error == reason
        assert result.status is None and result.headers == () and result.body_sample == b""
        assert result.body_format is BodyFormat.EMPTY


@pytest.mark.parametrize(
    "url, address",
    [
        ("http://[::1]/", ("::1", 80)),
        ("https://[2001:db8::1]/", ("2001:db8::1", 443)),
        ("http://[::1]:8080/", ("::1", 8080)),
        ("https://h.example/", ("h.example", 443)),
    ],
)
def test_connects_to_the_url_host_and_its_default_port(monkeypatch, url, address):
    # The host and port go to create_connection apart, so an IPv6 literal without a
    # port is not split at its last colon.
    addresses = []

    def refuse(addr, *args, **kwargs):
        addresses.append(addr)
        raise ConnectionRefusedError

    monkeypatch.setattr(socket, "create_connection", refuse)
    with pytest.raises(ConnectionRefusedError):
        probe._exchange(url, fast_cfg())
    assert addresses == [address]


def test_scheme_and_body_format_derived_from_url_body_and_first_content_type():
    target = make_target("https://h.example/")
    headers = (("Content-Type", "application/json"), ("Content-Type", "text/html"))
    labelled = make_result(target, headers=headers, body=b"<html>")
    assert (labelled.scheme_used, labelled.body_format) == (Scheme.HTTPS, BodyFormat.JSON)
    plain = make_result(target, url="HTTP://h.example/x", body=b"<html>")
    assert (plain.scheme_used, plain.body_format) == (Scheme.HTTP, BodyFormat.NON_JSON)


def test_chain_starts_at_the_target_url():
    target = make_target("http://h.example/")
    with pytest.raises(ValueError, match="requests the target's URL"):
        RedirectChain((make_result(target, url="http://h.example/other"),))
