"""Acceptance suite: one test per shipped exit criterion.

Each test prints a [PASS]/[FAIL] line; run with ``pytest tests/test_acceptance.py -v -s``
to see them.  Everything here runs against the loopback fixture library or
synthetic snapshots; nothing touches the real network.
"""

import itertools
import random
import time
from contextlib import contextmanager
from datetime import timedelta

import pytest

from smellprobe.cli import EXIT_OK, run
from smellprobe.harness import spawn
from smellprobe.maintenance import (
    MaintenanceScenario,
    UnclassifiableReason,
    classify_pair,
    diff_snapshots,
)
from smellprobe.model import DeclaredFormat, RedirectChain, SmellKind, SourceModel
from smellprobe.probe import probe_and_follow
from smellprobe.reports import (
    GroupKey,
    correlate,
    hsts_stats,
    leak_breakdown,
    pct_display,
    prevalence,
)
from smellprobe.smells import detect_all, detect_missing_hsts
from smellprobe.snapshot import Snapshot, SnapshotEntry, load, save
from smellprobe.versions import SoftwareId, compare_versions

from helpers import (
    EPOCH,
    SIDE_STATES,
    build_entry,
    build_snapshot,
    fast_cfg,
    make_finding,
    make_target,
    one_sided_outcome,
    oracle_compare_versions,
    random_snapshot,
    replaced,
    recount_correlation,
    recount_leaks,
    recount_prevalence,
    side_entry,
    snapshot_pair,
)


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except Exception:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    print(f"[PASS] criterion {number}: {description}")


def probe_case(endpoint, case, cfg):
    scheme = case.scheme or endpoint.profile.schemes[0]
    target = make_target(endpoint.url(case.path, scheme=scheme))
    result, chain = probe_and_follow(target, cfg)
    assert result.transport_error is None, f"fixture unreachable: {result.transport_error}"
    return target, result, chain


def test_criterion_1_smell_detector_suite(library):
    """Every positive fixture detected, every negative fixture clean, < 30 s."""
    started = time.monotonic()
    spawned = {}

    def endpoint_for(name):
        if name not in spawned:
            spawned[name] = spawn(library.profile(name))
        return spawned[name]

    failures = []
    try:
        with criterion(1, "smell-detector suite clean across the fixture library"):
            for kind in SmellKind:
                cases = library.smell_cases[kind.value]
                assert len(cases["positive"]) >= 3
                assert len(cases["negative"]) >= 2
                for side, expectation in (("positive", True), ("negative", False)):
                    for case in cases[side]:
                        endpoint = endpoint_for(case.profile)
                        cfg = fast_cfg(ca_bundle=endpoint.ca_file)
                        target, result, chain = probe_case(endpoint, case, cfg)
                        report = detect_all(target, result, chain)
                        detected = kind in report.kinds()
                        if detected != expectation:
                            failures.append((kind.value, side, case.profile))
            assert failures == [], f"misclassified fixtures: {failures}"
            elapsed = time.monotonic() - started
            assert elapsed < 30.0, f"suite took {elapsed:.1f}s"
    finally:
        for endpoint in spawned.values():
            endpoint.shutdown()


HSTS_EXPECTATIONS = [
    ("https_no_hsts", {"absent"}),
    ("https_weak_hsts", {"short_max_age", "missing_include_subdomains", "missing_preload"}),
    ("https_no_subdomains", {"missing_include_subdomains"}),
    ("https_no_preload", {"missing_preload"}),
    ("https_hardened", None),
]


def test_criterion_2_hsts_subflag_sets(library, endpoints):
    """Exact subflag sets for the five HSTS postures."""
    with criterion(2, "HSTS weak-config subflag sets exact"):
        for name, expected in HSTS_EXPECTATIONS:
            endpoint = endpoints(library.profile(name))
            cfg = fast_cfg(ca_bundle=endpoint.ca_file)
            target = make_target(endpoint.url("/"))
            result, _ = probe_and_follow(target, cfg)
            finding = detect_missing_hsts(result)
            if expected is None:
                assert finding is None, name
            else:
                assert finding is not None, name
                assert finding.subflags == expected, name


def test_criterion_3_redirect_analysis(library, endpoints):
    """Loop, excessive chain, and downgrade fixtures flag exactly."""
    with criterion(3, "redirect loop / excessive chain / downgrade detection exact"):
        loop_ep = endpoints(library.profile("http_redirect_loop"))
        target = make_target(loop_ep.url("/a"))
        result, chain = probe_and_follow(target, fast_cfg())
        assert chain.loop_detected
        report = detect_all(target, result, chain)
        finding = next(
            f for f in report.findings if f.kind is SmellKind.MISSING_HTTPS_REDIRECT
        )
        assert "loop" in finding.subflags

        six_ep = endpoints(library.profile("http_six_hop_chain"))
        target = make_target(six_ep.url("/hop/1"))
        result, chain = probe_and_follow(target, fast_cfg())
        assert chain.chain_length == 6
        report = detect_all(target, result, chain)
        finding = next(
            f for f in report.findings if f.kind is SmellKind.MISSING_HTTPS_REDIRECT
        )
        assert "excessive_chain" in finding.subflags

        down_ep = endpoints(library.profile("https_downgrade"))
        cfg = fast_cfg(ca_bundle=down_ep.ca_file)
        target = make_target(down_ep.url("/", scheme="https"))
        result, chain = probe_and_follow(target, cfg)
        assert chain.downgrade_hops == 1
        report = detect_all(target, result, chain)
        finding = next(
            f for f in report.findings if f.kind is SmellKind.MISSING_HTTPS_REDIRECT
        )
        assert "downgrade" in finding.subflags


def run_maintenance_pair(library, name):
    """Probe, apply the second-round step, probe again; None marks a missing second entry."""
    profile = library.profile(name)
    endpoint = spawn(profile)
    try:
        cfg = fast_cfg(ca_bundle=endpoint.ca_file)
        target = make_target(endpoint.url("/"))
        result1, chain1 = probe_and_follow(target, cfg)
        entry1 = SnapshotEntry(result1, chain1, detect_all(target, result1, chain1))

        step = library.second_round[name]
        if step.action == "drop":
            return target.url, entry1, None
        if step.action == "shutdown":
            endpoint.shutdown()
        else:
            endpoint.mutate(step.routes)
        if step.action == "start":
            endpoint.start()
        result2, chain2 = probe_and_follow(target, cfg)
        entry2 = SnapshotEntry(result2, chain2, detect_all(target, result2, chain2))
        return target.url, entry1, entry2
    finally:
        endpoint.shutdown()


def test_criterion_4_maintenance_taxonomy(library):
    """Each scenario and unclassifiable reason from its dedicated pair."""
    with criterion(4, "maintenance taxonomy: 8 scenarios + 3 unclassifiable reasons + partition"):
        for scenario in MaintenanceScenario:
            url, entry1, entry2 = run_maintenance_pair(
                library, library.maintenance_cases[scenario.value]
            )
            first = {url: entry1} if entry1 else {}
            second = {url: entry2} if entry2 else {}
            s1, s2 = snapshot_pair(first, second)
            records = diff_snapshots(s1, s2)
            assert len(records) == 1, scenario
            assert records[0].scenario is scenario, (scenario, records[0])

        for reason in UnclassifiableReason:
            name = library.unclassifiable_cases[reason.value]
            url, entry1, entry2 = run_maintenance_pair(library, name)
            first = {url: entry1} if entry1 else {}
            second = {url: entry2} if entry2 else {}
            s1, s2 = snapshot_pair(first, second)
            records = diff_snapshots(s1, s2)
            assert len(records) == 1, reason
            assert records[0].unclassifiable_reason is reason, (reason, records[0])

        # Each side is missing, a transport failure, an answer without a
        # banner, or an answer with one of these banners.
        tokens = [
            "nginx",
            "nginx/1.12.1",
            "nginx/1.14.1",
            "nginx/beta2",
            "Apache",
            "Apache/2.4.41",
            "cloudflare",
            "Microsoft-IIS/10.0",
            "openresty/1.19.3.1",
        ]
        rng = random.Random(41)
        url = "http://u.example/"
        for _ in range(1000):
            states = rng.choice(SIDE_STATES), rng.choice(SIDE_STATES)
            first, second = (side_entry(url, state, rng.choice(tokens)) for state in states)
            record = classify_pair(url, first, second)
            if "banner" not in states:
                assert record is None, states
                continue
            assert (record.scenario is None) != (record.unclassifiable_reason is None)
            if states.count("banner") == 1:
                outcome = (record.scenario, record.unclassifiable_reason)
                assert outcome == one_sided_outcome(*states), states


def test_criterion_5_version_ordering():
    """compare_versions agrees with the encoding oracle, exhaustive + sampled."""
    with criterion(5, "version ordering matches brute-force oracle"):
        assert compare_versions((1, 12, 1), (1, 14, 1)) == -1

        pool = [
            tuple(c)
            for length in (1, 2, 3)
            for c in itertools.product(range(4), repeat=length)
        ]
        for a, b in itertools.product(pool, repeat=2):
            assert compare_versions(a, b) == oracle_compare_versions(a, b), (a, b)

        rng = random.Random(5)
        for _ in range(10_000):
            a = tuple(rng.randrange(100) for _ in range(rng.randint(1, 4)))
            b = tuple(rng.randrange(100) for _ in range(rng.randint(1, 4)))
            assert compare_versions(a, b) == oracle_compare_versions(a, b), (a, b)


def build_group(entries, corpus, prefix, size, flagged, model, declared):
    for i in range(size):
        url = f"http://{prefix}{i}.example/api"
        kinds = (SmellKind.INSECURE_TRANSPORT,) if i < flagged else ()
        entry = build_entry(
            url, app_id=f"{prefix}-{i}", model=model, declared=declared, kinds=kinds
        )
        entries[url] = entry
        corpus.append(entry.result.target)


def test_criterion_6_arithmetic_reproduction():
    """The printed percentages come out of the aggregator exactly."""
    with criterion(6, "group percentages reproduce printed values exactly"):
        entries, corpus = {}, []
        build_group(entries, corpus, "onj", 1171, 582, SourceModel.OPEN_SOURCE, DeclaredFormat.NON_JSON)
        build_group(entries, corpus, "cnj", 7997, 5639, SourceModel.CLOSED_SOURCE, DeclaredFormat.NON_JSON)
        build_group(entries, corpus, "oj", 59, 6, SourceModel.OPEN_SOURCE, DeclaredFormat.JSON)
        build_group(entries, corpus, "cj", 489, 245, SourceModel.CLOSED_SOURCE, DeclaredFormat.JSON)
        table = prevalence(build_snapshot(entries), corpus)
        kind = SmellKind.INSECURE_TRANSPORT
        assert table.cells[(GroupKey.OPEN_NONJSON, kind)].url_pct_display == 50
        assert table.cells[(GroupKey.CLOSED_NONJSON, kind)].url_pct_display == 71
        assert table.cells[(GroupKey.OPEN_JSON, kind)].url_pct_display == 10
        assert table.cells[(GroupKey.CLOSED_JSON, kind)].url_pct_display == 50

        def hsts_corpus(prefix, total, protected):
            entries = {}
            for i in range(total):
                url = f"https://{prefix}{i}.example/api"
                if i < protected:
                    entries[url] = build_entry(url)
                else:
                    entries[url] = build_entry(
                        url,
                        findings=(
                            make_finding(SmellKind.MISSING_HSTS, url, frozenset({"absent"})),
                        ),
                    )
            return build_snapshot(entries)

        open_stats = hsts_stats(hsts_corpus("oh", 1171, 397))
        assert pct_display(open_stats.protected, open_stats.https_total) == 34
        closed_stats = hsts_stats(hsts_corpus("ch", 7997, 992))
        assert pct_display(closed_stats.protected, closed_stats.https_total) == 12


def neutralize(snapshot: Snapshot) -> Snapshot:
    """Equalize every timestamp so canonical forms can be compared."""
    entries = {}
    for url, entry in snapshot.entries.items():
        chain = RedirectChain(tuple(replaced(e, timestamp=EPOCH) for e in entry.chain.exchanges))
        entries[url] = SnapshotEntry(chain.result, chain, entry.report)
    return Snapshot(id=snapshot.id, taken_at=EPOCH, entries=entries)


FARM_PROFILES = ["http_plain_ok", "http_nginx_banner", "http_aspnet_version", "m_no_update"]


def test_criterion_7_determinism(library, tmp_path):
    """Two scans of a static farm differ only in timestamps; diff is all no_update."""
    with criterion(7, "determinism: rescan differs only in timestamps, diff all no_update"):
        endpoints = [spawn(library.profile(name)) for name in FARM_PROFILES]
        try:
            corpus_path = tmp_path / "farm.csv"
            lines = ["url,app_id,source_model,declared_format"]
            for i, endpoint in enumerate(endpoints):
                lines.append(f"{endpoint.url('/')},app-{i},open_source,")
            corpus_path.write_text("\n".join(lines) + "\n", encoding="utf-8")

            s1_path, s2_path = tmp_path / "one.jsonl", tmp_path / "two.jsonl"
            argv = [
                "scan", "--corpus", str(corpus_path),
                "--retries", "0", "--retry-backoff", "0.05",
                "--connect-timeout", "3", "--read-timeout", "3",
                "--id", "farm",
            ]
            assert run(argv + ["--out", str(s1_path)]) == EXIT_OK
            assert run(argv + ["--out", str(s2_path)]) == EXIT_OK

            first, second = load(s1_path), load(s2_path)
            assert s1_path.read_bytes() != s2_path.read_bytes()  # timestamps differ
            neutral = [tmp_path / "one.neutral.jsonl", tmp_path / "two.neutral.jsonl"]
            for snapshot, path in zip((first, second), neutral):
                save(neutralize(snapshot), path)
            assert neutral[0].read_bytes() == neutral[1].read_bytes()

            second_shifted = Snapshot(
                id=second.id, taken_at=first.taken_at + timedelta(days=1), entries=second.entries
            )
            records = diff_snapshots(first, second_shifted)
            assert len(records) >= 1
            assert all(r.scenario is MaintenanceScenario.NO_UPDATE for r in records)
        finally:
            for endpoint in endpoints:
                endpoint.shutdown()


def test_criterion_8_aggregator_oracle():
    """Aggregates equal an independent recount on 200 randomized snapshots."""
    with criterion(8, "aggregator equals brute-force recount on 200 random snapshots"):
        rng = random.Random(8)
        scenarios = list(MaintenanceScenario)
        for round_number in range(200):
            snapshot, corpus = random_snapshot(rng, n_urls=rng.randint(5, 35))

            table = prevalence(snapshot, corpus)
            expected = recount_prevalence(snapshot, corpus)
            for key, (ua, ut, aa, at) in expected.items():
                cell = table.cells[key]
                got = (cell.urls_affected, cell.urls_total, cell.apps_affected, cell.apps_total)
                assert got == (ua, ut, aa, at), (round_number, key)

            breakdown = leak_breakdown(snapshot)
            assert breakdown.counts == recount_leaks(snapshot), round_number

            from smellprobe.maintenance import MaintenanceRecord

            smell_counts = {
                url: len(entry.report.findings) for url, entry in snapshot.entries.items()
            }
            records = []
            for url in snapshot.entries:
                if rng.random() < 0.2:
                    records.append(
                        MaintenanceRecord(
                            url, SoftwareId("x/1"), None, None,
                            UnclassifiableReason.SHUTDOWN_NO_COMPARISON,
                        )
                    )
                else:
                    sid = SoftwareId("nginx/1.0")
                    records.append(
                        MaintenanceRecord(url, sid, sid, rng.choice(scenarios), None)
                    )
            matrix = correlate(smell_counts, records)
            assert matrix.cells == recount_correlation(smell_counts, records), round_number
            assert sum(matrix.cells.values()) == sum(1 for r in records if r.scenario is not None)
