import http.client
import socket
import ssl
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from urllib.parse import urlsplit

import pytest

from smellprobe import probe
from smellprobe.cli import EXIT_OK, run
from smellprobe.harness import FixtureProfile, RouteSpec
from smellprobe.probe import (
    BodyFormat,
    ProbeConfig,
    classify_body,
    follow_chain,
    probe_all,
    probe_and_follow,
    probe_once,
)

from helpers import fast_cfg, make_target


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
        result = probe_once(make_target(ep.url("/")), fast_cfg())
        assert result.status == 200
        assert result.body_format is BodyFormat.JSON
        assert result.transport_error is None

    def test_connection_refused(self):
        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
        sock.close()
        result = probe_once(make_target(f"http://127.0.0.1:{port}/"), fast_cfg())
        assert result.status is None
        assert result.transport_error == "connection refused"

    def test_redirect_not_followed(self, endpoints):
        ep = endpoints(
            FixtureProfile(
                name="one-redirect",
                routes={
                    "/": RouteSpec(status=301, headers=(("Location", "{base}/next"),)),
                    "/next": RouteSpec(status=200),
                },
            )
        )
        result = probe_once(make_target(ep.url("/")), fast_cfg())
        assert result.status == 301
        assert result.first_header("location") == ep.url("/next")
        # only the first exchange happened
        assert [r.path for r in ep.requests] == ["/"]

    def test_body_truncated_at_limit(self, endpoints):
        ep = endpoints(
            FixtureProfile(name="big", routes={"/": RouteSpec(status=200, body=b"x" * 5000)})
        )
        result = probe_once(make_target(ep.url("/")), fast_cfg(body_sample_limit=100))
        assert len(result.body_sample) == 100

    def test_read_timeout_reason(self, endpoints):
        ep = endpoints(
            FixtureProfile(name="slow", routes={"/": RouteSpec(status=200, delay=2.0)})
        )
        result = probe_once(make_target(ep.url("/")), fast_cfg(read_timeout=0.3))
        assert result.transport_error == "timeout"

    def test_dns_failure_reason(self):
        result = probe_once(make_target("http://smellprobe-nonexistent.invalid/"), fast_cfg())
        assert result.transport_error == "dns failure"

    def test_retries_before_giving_up(self, endpoints):
        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
        sock.close()
        started = time.monotonic()
        cfg = fast_cfg(retries=2, retry_backoff=0.1)
        result = probe_once(make_target(f"http://127.0.0.1:{port}/"), cfg)
        elapsed = time.monotonic() - started
        assert result.transport_error == "connection refused"
        assert elapsed >= 0.2  # two backoff sleeps happened

    def test_tls_untrusted_by_default(self, endpoints, library):
        ep = endpoints(library.profile("https_no_hsts"))
        result = probe_once(make_target(ep.url("/")), fast_cfg())
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
        result = probe_once(make_target(ep.url("/")), fast_cfg())
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
        result = probe_once(make_target(ep.url("/")), fast_cfg())
        assert result.header_values("x-note") == ("one", "two")
        names = [n for n, _ in result.headers]
        assert names[:3] == ["x-note", "server", "x-note"]


class TestFollowChain:
    def test_single_upgrade_hop(self, endpoints, library):
        ep = endpoints(library.profile("http_upgrade_redirect"))
        cfg = fast_cfg(ca_bundle=ep.ca_file)
        chain = follow_chain(make_target(ep.url("/", scheme="http")), cfg)
        assert chain.chain_length == 1
        assert chain.downgrade_hops == 0
        assert chain.terminal.status == 200
        assert not chain.loop_detected

    def test_two_node_loop(self, endpoints, library):
        ep = endpoints(library.profile("http_redirect_loop"))
        chain = follow_chain(make_target(ep.url("/a")), fast_cfg())
        assert chain.loop_detected
        hop_urls = [u for u, _, _ in chain.hops]
        assert hop_urls.count(hop_urls[-1]) == 2

    def test_cutoff_at_max_redirects(self, endpoints):
        ep = endpoints(hop_profile(8))
        chain = follow_chain(make_target(ep.url("/hop/1")), fast_cfg(max_redirects=7))
        assert chain.chain_length == 7
        assert chain.terminal.status == 302
        assert chain.terminal.url == ep.url("/hop/7")
        assert not chain.loop_detected

    def test_downgrade_counted(self, endpoints, library):
        ep = endpoints(library.profile("https_downgrade"))
        cfg = fast_cfg(ca_bundle=ep.ca_file)
        chain = follow_chain(make_target(ep.url("/", scheme="https")), cfg)
        assert chain.downgrade_hops == 1
        assert chain.terminal.status == 200

    def test_loop_implies_repeated_request_url(self, endpoints, library):
        ep = endpoints(library.profile("https_redirect_loop"))
        cfg = fast_cfg(ca_bundle=ep.ca_file)
        chain = follow_chain(make_target(ep.url("/")), cfg)
        assert chain.loop_detected
        urls = [u for u, _, _ in chain.hops]
        assert urls[-1] in urls[:-1]

    def test_downgrade_recount_brute_force(self, endpoints, library):
        for name in ("https_downgrade", "http_upgrade_redirect", "http_redirect_loop"):
            ep = endpoints(library.profile(name))
            scheme = ep.profile.schemes[0]
            path = "/a" if name == "http_redirect_loop" else "/"
            cfg = fast_cfg(ca_bundle=ep.ca_file)
            chain = follow_chain(make_target(ep.url(path, scheme=scheme)), cfg)
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
        chain = follow_chain(make_target(ep.url("/api/v1")), fast_cfg())
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
        chain = follow_chain(make_target(ep.url("/")), fast_cfg())
        assert chain.chain_length == 0
        assert chain.terminal.status == 302
        assert not chain.loop_detected

    def test_transport_error_lands_in_terminal(self):
        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
        sock.close()
        chain = follow_chain(make_target(f"http://127.0.0.1:{port}/"), fast_cfg())
        assert chain.terminal.transport_error == "connection refused"
        assert chain.chain_length == 0


class TestProbeAll:
    def test_one_unreachable_target_embedded(self, endpoints):
        ep = endpoints(FixtureProfile(name="ok", routes={"/": RouteSpec(status=200)}))
        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        dead_port = sock.getsockname()[1]
        sock.close()
        corpus = [
            make_target(ep.url("/"), app_id="a"),
            make_target(f"http://127.0.0.1:{dead_port}/", app_id="b"),
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
            assert c1.hops == c2.hops
            assert c1.loop_detected == c2.loop_detected
            assert c1.downgrade_hops == c2.downgrade_hops


class TestConfigAndBodyFormat:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            ProbeConfig(connect_timeout=0)
        with pytest.raises(ValueError):
            ProbeConfig(max_redirects=0)
        with pytest.raises(ValueError):
            ProbeConfig(retries=-1)

    def test_classify_body(self):
        assert classify_body(b"", None) is BodyFormat.EMPTY
        assert classify_body(b'{"a":1}', None) is BodyFormat.JSON
        assert classify_body(b"<html>", None) is BodyFormat.NON_JSON
        assert classify_body(b"<html>", "application/json") is BodyFormat.JSON
        assert classify_body(b"", "application/json; charset=utf-8") is BodyFormat.JSON

    def test_first_probe_result_matches_probe_once(self, endpoints, library):
        ep = endpoints(library.profile("http_plain_ok"))
        target = make_target(ep.url("/"))
        direct = probe_once(target, fast_cfg())
        first, _ = probe_and_follow(target, fast_cfg())
        assert direct.status == first.status
        assert direct.headers == first.headers
        assert direct.body_sample == first.body_sample


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

    def test_http_only_scan_builds_no_context(self, endpoints, context_builds):
        ep = endpoints(hop_profile(2))
        corpus = [make_target(ep.url("/hop/1"), app_id="a"), make_target(ep.url("/final"))]
        pairs = probe_all(corpus, fast_cfg(parallelism=2))
        assert [chain.terminal.status for _, chain in pairs] == [200, 200]
        assert context_builds == []

    def test_dry_run_builds_no_context(self, tmp_path, endpoints, library, context_builds):
        ep = endpoints(library.profile("https_no_hsts"))
        corpus = tmp_path / "corpus.csv"
        corpus.write_text(
            f"url,app_id,source_model,declared_format\n{ep.url('/')},app-0,open_source,\n",
            encoding="utf-8",
        )
        args = ["scan", "--corpus", str(corpus), "--out", str(tmp_path / "s.jsonl"),
                "--ca-bundle", ep.ca_file, "--dry-run"]
        assert run(args) == EXIT_OK
        assert context_builds == []
        assert ep.requests == []

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
        assert probe_once(make_target(ep.url("/")), cfg).status == 200

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
        result = probe_once(make_target(ep.url("/")), cfg)
        assert time.monotonic() - started < 0.5
        assert result.transport_error == "tls handshake failure"

    @pytest.mark.parametrize(
        "exc, attempts",
        [
            (ssl.SSLCertVerificationError("untrusted"), 1),
            (socket.gaierror(-2, "Name or service not known"), 1),
            (ValueError("url has no host"), 1),
            (http.client.InvalidURL("nonnumeric port"), 1),
            (socket.timeout("timed out"), 3),
            (ConnectionResetError(), 3),
            (ConnectionRefusedError(), 3),
            (OSError("network unreachable"), 3),
            (ssl.SSLError("handshake"), 3),
        ],
    )
    def test_only_transient_errors_retried(self, monkeypatch, exc, attempts):
        calls = []

        def failing(url, cfg):
            calls.append(url)
            raise exc

        monkeypatch.setattr(probe, "_exchange", failing)
        cfg = fast_cfg(retries=2, retry_backoff=0.01)
        result = probe_once(make_target("http://127.0.0.1:1/"), cfg)
        assert len(calls) == attempts
        assert result.transport_error == probe._classify_exception(exc)
