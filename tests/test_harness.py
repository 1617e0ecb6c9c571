import http.client
import socket
import ssl
import time
from importlib import resources
from urllib.parse import urlsplit

from smellprobe.harness import FixtureProfile, RouteSpec
from smellprobe.model import SmellKind
from smellprobe.probe import probe_and_follow, probe_each

from helpers import fast_cfg, make_target


def raw_get(url):
    """Fetch without any client-side header processing, for byte-level checks."""
    parts = urlsplit(url)
    conn = http.client.HTTPConnection(parts.hostname, parts.port, timeout=3)
    try:
        conn.request("GET", parts.path or "/")
        response = conn.getresponse()
        return response.status, list(response.msg.items()), response.read()
    finally:
        conn.close()


def raw_bytes(url):
    """The untouched wire response for one GET."""
    parts = urlsplit(url)
    with socket.create_connection((parts.hostname, parts.port), timeout=3) as sock:
        request = f"GET {parts.path or '/'} HTTP/1.1\r\nHost: {parts.netloc}\r\n\r\n"
        sock.sendall(request.encode("ascii"))
        chunks = []
        while True:
            chunk = sock.recv(4096)
            if not chunk:
                break
            chunks.append(chunk)
    return b"".join(chunks)


def test_serves_exactly_the_profile_bytes(endpoints):
    profile = FixtureProfile(
        name="exact",
        routes={
            "/": RouteSpec(
                status=200,
                headers=(("Server", "nginx/1.14.1"), ("X-Odd-Header", "tab\tand  spaces")),
                body=b"payload-bytes",
            )
        },
    )
    ep = endpoints(profile)
    wire = raw_bytes(ep.url("/"))
    assert wire == (
        b"HTTP/1.1 200 OK\r\n"
        b"Server: nginx/1.14.1\r\n"
        b"X-Odd-Header: tab\tand  spaces\r\n"
        b"Content-Length: 13\r\n"
        b"Connection: close\r\n"
        b"\r\n"
        b"payload-bytes"
    )


def test_no_implicit_server_header(endpoints):
    ep = endpoints(FixtureProfile(name="bare", routes={"/": RouteSpec(status=200)}))
    _, headers, _ = raw_get(ep.url("/"))
    assert all(n.lower() != "server" for n, _ in headers)


def test_unknown_path_is_404(endpoints):
    ep = endpoints(FixtureProfile(name="bare", routes={"/": RouteSpec(status=200)}))
    status, _, _ = raw_get(ep.url("/nope"))
    assert status == 404


def test_mutate_swaps_banner(endpoints, library):
    ep = endpoints(library.profile("m_version_downgrade"))
    target = make_target(ep.url("/"))
    before = probe_and_follow(target, fast_cfg())[0]
    assert before.first_header("server") == "nginx/1.14.1"
    ep.mutate(library.second_round["m_version_downgrade"].routes)
    after = probe_and_follow(target, fast_cfg())[0]
    assert after.first_header("server") == "nginx/1.12.1"


def test_shutdown_refuses_connections(endpoints):
    ep = endpoints(FixtureProfile(name="gone", routes={"/": RouteSpec(status=200)}))
    target = make_target(ep.url("/"))
    assert probe_and_follow(target, fast_cfg())[0].status == 200
    ep.shutdown()
    result = probe_and_follow(target, fast_cfg())[0]
    assert result.transport_error == "connection refused"


def test_initially_down_then_started(endpoints, library):
    ep = endpoints(library.profile("u_spawned_unknown_config"))
    target = make_target(ep.url("/"))
    first = probe_and_follow(target, fast_cfg())[0]
    assert first.transport_error == "connection refused"
    ep.mutate(library.second_round["u_spawned_unknown_config"].routes)
    ep.start()
    second = probe_and_follow(target, fast_cfg())[0]
    assert second.status == 200
    assert second.first_header("server") == "nginx/1.14.1"


def test_request_log_records_host_and_path(endpoints):
    ep = endpoints(FixtureProfile(name="log", routes={"/x": RouteSpec(status=200)}))
    probe_and_follow(make_target(ep.url("/x")), fast_cfg())
    assert len(ep.requests) == 1
    assert ep.requests[0].path == "/x"
    assert ep.requests[0].host == f"127.0.0.1:{ep.port('http')}"


def test_endpoint_takes_a_default_scan_without_waiting_on_its_listen_queue(endpoints):
    """16 workers connecting at once fit the listen backlog; a 5-slot queue overflows and
    each refused connection waits a second for its SYN retransmit."""
    ep = endpoints(FixtureProfile(name="many", routes={f"/u{i}": RouteSpec(body=b"ok") for i in range(40)}))
    corpus = [make_target(ep.url(f"/u{i}"), app_id=f"a{i}") for i in range(40)]
    started = time.monotonic()
    chains = [chain for _, chain in probe_each(corpus, fast_cfg(parallelism=16))]
    elapsed = time.monotonic() - started
    assert [chain.terminal.status for chain in chains] == [200] * 40
    assert elapsed < 0.5, f"{elapsed:.2f} s"


def test_placeholder_expansion(endpoints):
    ep = endpoints(
        FixtureProfile(
            name="redir",
            routes={"/": RouteSpec(status=302, headers=(("Location", "{base}/next"),))},
        )
    )
    result, _ = probe_and_follow(make_target(ep.url("/")), fast_cfg())
    assert result.first_header("location") == f"{ep.base_url('http')}/next"


def test_https_listener_uses_injectable_trust_root(endpoints, library):
    ep = endpoints(library.profile("https_no_hsts"))
    assert ep.ca_file is not None
    result, _ = probe_and_follow(make_target(ep.url("/")), fast_cfg(ca_bundle=ep.ca_file))
    assert result.status == 200


def test_fixture_certificate_stays_valid_for_a_decade_for_both_test_names(endpoints, library):
    """Fails ten years before the checked-in certificate expires, not on the day."""
    ep = endpoints(library.profile("https_no_hsts"))
    context = ssl.create_default_context(cafile=ep.ca_file)
    with socket.create_connection(("127.0.0.1", ep.port("https")), timeout=3) as raw:
        with context.wrap_socket(raw, server_hostname="localhost") as tls:
            cert = tls.getpeercert()
    ten_years = 10 * 365 * 24 * 3600
    assert ssl.cert_time_to_seconds(cert["notAfter"]) - time.time() >= ten_years, cert["notAfter"]
    assert {("DNS", "localhost"), ("IP Address", "127.0.0.1")} <= set(cert["subjectAltName"])


def test_package_data_holds_only_runtime_tables():
    shipped = {
        entry.name for entry in resources.files("smellprobe.data").iterdir()
        if entry.name.endswith(".json")
    }
    assert shipped == {
        "body_banners.json",
        "framework_patterns.json",
        "os_dictionary.json",
        "service_names.json",
    }


class TestProfileLibrary:
    def test_every_smell_has_enough_fixtures(self, library):
        for kind in SmellKind:
            cases = library.smell_cases[kind.value]
            assert len(cases["positive"]) >= 3, kind
            assert len(cases["negative"]) >= 2, kind

    def test_every_case_references_a_profile(self, library):
        for sides in library.smell_cases.values():
            for cases in sides.values():
                for case in cases:
                    assert case.profile in library.profiles

    def test_every_scenario_has_a_pair(self, library):
        from smellprobe.maintenance import MaintenanceScenario, UnclassifiableReason

        for scenario in MaintenanceScenario:
            name = library.maintenance_cases[scenario.value]
            assert name in library.profiles
        for reason in UnclassifiableReason:
            name = library.unclassifiable_cases[reason.value]
            assert name in library.profiles

    def test_every_pair_names_a_second_round_step(self, library):
        names = [*library.maintenance_cases.values(), *library.unclassifiable_cases.values()]
        assert sorted(library.second_round) == sorted(names)
        for name in names:
            step = library.second_round[name]
            assert step.action in ("swap", "start", "shutdown", "drop"), name
            assert (step.routes is not None) == (step.action in ("swap", "start")), name
            assert library.profile(name).initially_down == (step.action == "start"), name
