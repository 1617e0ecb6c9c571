import random
from decimal import ROUND_HALF_UP, Decimal

import pytest

from smellprobe.maintenance import (
    MaintenanceRecord,
    MaintenanceScenario,
    UnclassifiableReason,
    diff_snapshots,
)
from smellprobe.model import DeclaredFormat, LeakCategory, LeakRecord, SmellKind, SourceModel
from smellprobe.reports import (
    GroupKey,
    correlate,
    export,
    group_key,
    hsts_stats,
    leak_breakdown,
    pct_display,
    prevalence,
    tabulate,
)
from smellprobe.versions import SoftwareId

from helpers import (
    build_entry,
    build_snapshot,
    make_finding,
    make_result,
    make_target,
    random_snapshot,
    recount_correlation,
    recount_leaks,
    recount_prevalence,
    replaced,
    snapshot_pair,
)


class TestGroupKey:
    def test_observed_body_format_partitions(self):
        target = make_target("https://a.example/x", model=SourceModel.OPEN_SOURCE)
        json_result = make_result(target, body=b'{"a":1}')
        html_result = make_result(target, body=b"<html>")
        assert group_key(target, json_result) is GroupKey.OPEN_JSON
        assert group_key(target, html_result) is GroupKey.OPEN_NONJSON

    def test_declared_format_overrides_observation(self):
        target = make_target(
            "https://a.example/x",
            model=SourceModel.CLOSED_SOURCE,
            declared=DeclaredFormat.JSON,
        )
        html_result = make_result(target, body=b"<html>")
        assert group_key(target, html_result) is GroupKey.CLOSED_JSON

    def test_empty_body_counts_as_nonjson(self):
        target = make_target("https://a.example/x", model=SourceModel.CLOSED_SOURCE)
        assert group_key(target, make_result(target, body=b"")) is GroupKey.CLOSED_NONJSON


class TestPctDisplay:
    def test_reference_ratios_round_half_up_to_integers(self):
        assert pct_display(582, 1171) == 50
        assert pct_display(5639, 7997) == 71
        assert pct_display(6, 59) == 10
        assert pct_display(245, 489) == 50
        assert pct_display(397, 1171) == 34
        assert pct_display(992, 7997) == 12

    def test_half_rounds_up(self):
        assert pct_display(1, 200) == 1  # 0.5 -> 1
        assert pct_display(3, 200) == 2  # 1.5 -> 2

    def test_empty_denominator(self):
        assert pct_display(0, 0) == 0

    def test_matches_decimal_half_up(self):
        """The integer rounding agrees with Decimal's ROUND_HALF_UP on counts."""

        def reference(numerator, denominator):
            ratio = Decimal(100 * numerator) / Decimal(denominator)
            return int(ratio.quantize(Decimal(1), rounding=ROUND_HALF_UP))

        rng = random.Random(20)
        pairs = [(n, d) for d in range(1, 401) for n in range(d + 1)]  # every x.5 of a small d
        for _ in range(2000):
            denominator = rng.randrange(1, 10**9)
            pairs.append((rng.randrange(denominator + 1), denominator))
            unit, half = rng.randrange(1, 10**6), rng.randrange(100)
            pairs.append((unit * (2 * half + 1), 200 * unit))  # exactly half + 0.5 percent
        halves = sum(200 * n % (2 * d) == d for n, d in pairs)  # 100 n / d ends in .5
        assert halves > 2000
        assert [pct_display(n, d) for n, d in pairs] == [reference(n, d) for n, d in pairs]


def flagged_entry(url, kind=None, **kwargs):
    kinds = (kind,) if kind else ()
    return build_entry(url, kinds=kinds, **kwargs)


class TestPrevalence:
    def test_half_flagged_group_reports_fifty(self):
        entries = {}
        corpus = []
        for i in range(20):
            url = f"http://h{i}.example/"
            kind = SmellKind.INSECURE_TRANSPORT if i < 10 else None
            entry = flagged_entry(url, kind, app_id=f"app-{i}", model=SourceModel.OPEN_SOURCE)
            entries[url] = entry
            corpus.append(entry.result.target)
        table = prevalence(build_snapshot(entries), corpus)
        cell = table.cells[(GroupKey.OPEN_NONJSON, SmellKind.INSECURE_TRANSPORT)]
        assert cell.urls_affected == 10
        assert cell.urls_total == 20
        assert cell.url_pct_display == 50

    def test_app_level_aggregation(self):
        entries = {}
        corpus = []
        # one app with two urls, one flagged -> app affected
        for i, flagged in enumerate([True, False]):
            url = f"http://h{i}.example/"
            entry = flagged_entry(
                url,
                SmellKind.MISSING_HSTS if flagged else None,
                app_id="shared-app",
            )
            entries[url] = entry
            corpus.append(entry.result.target)
        table = prevalence(build_snapshot(entries), corpus)
        cell = table.cells[(GroupKey.OPEN_NONJSON, SmellKind.MISSING_HSTS)]
        assert cell.apps_total == 1
        assert cell.apps_affected == 1
        assert cell.urls_affected == 1

    def test_empty_snapshot_all_zero(self):
        table = prevalence(build_snapshot({}), [])
        for cell in table.cells.values():
            assert cell.urls_affected == 0
            assert cell.url_pct == 0.0

    def test_snapshot_must_cover_corpus(self):
        target = make_target("http://h.example/")
        with pytest.raises(ValueError):
            prevalence(build_snapshot({}), [target])

    def test_matches_brute_force_recount(self):
        rng = random.Random(9)
        for _ in range(20):
            snapshot, corpus = random_snapshot(rng, n_urls=25)
            table = prevalence(snapshot, corpus)
            expected = recount_prevalence(snapshot, corpus)
            for key, (ua, ut, aa, at) in expected.items():
                cell = table.cells[key]
                assert (cell.urls_affected, cell.urls_total, cell.apps_affected, cell.apps_total) == (
                    ua,
                    ut,
                    aa,
                    at,
                )

    def test_app_level_at_least_all_urls_flagged_prevalence(self):
        rng = random.Random(10)
        snapshot, corpus = random_snapshot(rng, n_urls=30)
        table = prevalence(snapshot, corpus)
        from collections import defaultdict

        by_app: dict = defaultdict(list)
        for target in corpus:
            by_app[(group_key(target, snapshot.entries[target.url].result), target.app_id)].append(
                target.url
            )
        for group in GroupKey:
            for kind in SmellKind:
                all_urls_flagged = 0
                for (g, app), urls in by_app.items():
                    if g is not group:
                        continue
                    if all(
                        any(f.kind is kind for f in snapshot.entries[u].report.findings)
                        for u in urls
                    ):
                        all_urls_flagged += 1
                assert table.cells[(group, kind)].apps_affected >= all_urls_flagged


class TestLeakBreakdown:
    def test_header_and_body_loci_split(self):
        entries = {}
        for i in range(3):
            url = f"http://h{i}.example/"
            entries[url] = build_entry(
                url, leaks=(LeakRecord(LeakCategory.SERVICE, "nginx", None, "server"),)
            )
        entries["http://body.example/"] = build_entry(
            "http://body.example/",
            leaks=(
                LeakRecord(LeakCategory.SERVICE, "Apache", None, "body"),
                LeakRecord(LeakCategory.VERSION, "Apache", "2.4", "body"),
            ),
        )
        breakdown = leak_breakdown(build_snapshot(entries))
        assert breakdown.counts == {
            (LeakCategory.SERVICE, "nginx", "server"): 3,
            (LeakCategory.SERVICE, "apache", "body"): 1,
            (LeakCategory.VERSION, "apache", "body"): 1,
        }

    def test_single_response_packs_multiple_leaks(self):
        url = "http://h.example/"
        leaks = (
            LeakRecord(LeakCategory.SERVICE, "nginx", None, "server"),
            LeakRecord(LeakCategory.OS, "Ubuntu", None, "server"),
            LeakRecord(LeakCategory.SERVICE, "PHP", None, "x-powered-by"),
            LeakRecord(LeakCategory.VERSION, "PHP", "7.4", "x-powered-by"),
        )
        breakdown = leak_breakdown(build_snapshot({url: build_entry(url, leaks=leaks)}))
        assert breakdown.counts == {
            (LeakCategory.SERVICE, "nginx", "server"): 1,
            (LeakCategory.OS, "ubuntu", "server"): 1,
            (LeakCategory.SERVICE, "php", "x-powered-by"): 1,
            (LeakCategory.VERSION, "php", "x-powered-by"): 1,
        }

    def test_empty_snapshot(self):
        breakdown = leak_breakdown(build_snapshot({}))
        assert breakdown.counts == {}
        assert breakdown.to_rows() == []

    def test_rows_count_every_leak_once(self):
        rng = random.Random(11)
        snapshot, _ = random_snapshot(rng, n_urls=40)
        breakdown = leak_breakdown(snapshot)
        leaks = sum(len(entry.report.leaks) for entry in snapshot.entries.values())
        assert sum(row["count"] for row in breakdown.to_rows()) == leaks
        assert breakdown.counts == recount_leaks(snapshot)

    def test_rows_carry_canonical_display_names(self):
        url = "http://h.example/"
        leaks = (
            LeakRecord(LeakCategory.SERVICE, "NGINX", None, "server"),
            LeakRecord(LeakCategory.OS, "Ubuntu", None, "server"),
        )
        breakdown = leak_breakdown(build_snapshot({url: build_entry(url, leaks=leaks)}))
        rows = {row["category"]: row for row in breakdown.to_rows()}
        assert rows["service"]["software"] == "nginx"
        assert rows["service"]["display"] == "Nginx"
        assert rows["os"]["display"] == "Ubuntu"


def hsts_entry(url, header=None, subflags=None):
    findings = ()
    if subflags is not None:
        findings = (make_finding(SmellKind.MISSING_HSTS, url, frozenset(subflags)),)
    headers = (("strict-transport-security", header),) if header else ()
    return build_entry(url, findings=findings, headers=headers)


class TestHstsStats:
    def test_hand_tally(self):
        entries = {
            "https://strong.example/": hsts_entry("https://strong.example/",
                                                  "max-age=63072000; includeSubDomains; preload"),
            "https://short.example/": hsts_entry(
                "https://short.example/",
                "max-age=300",
                {"short_max_age", "missing_include_subdomains", "missing_preload"},
            ),
            "https://absent.example/": hsts_entry("https://absent.example/", None, {"absent"}),
        }
        stats = hsts_stats(build_snapshot(entries))
        assert stats.protected == 1
        assert stats.short_max_age == 1
        assert stats.missing_preload == 2
        assert stats.absent == 1
        assert stats.missing_include_subdomains == 2

    def test_all_strong(self):
        entries = {
            f"https://h{i}.example/": hsts_entry(
                f"https://h{i}.example/", "max-age=63072000; includeSubDomains; preload"
            )
            for i in range(4)
        }
        stats = hsts_stats(build_snapshot(entries))
        assert stats.protected == 4
        assert stats.absent == 0
        assert stats.short_max_age == 0
        assert stats.missing_preload == 0

    def test_synthetic_34_percent_protected(self):
        entries = {}
        for i in range(1171):
            url = f"https://h{i}.example/"
            if i < 397:
                entries[url] = hsts_entry(url, "max-age=63072000; includeSubDomains; preload")
            else:
                entries[url] = hsts_entry(url, None, {"absent"})
        stats = hsts_stats(build_snapshot(entries))
        assert stats.protected == 397
        assert pct_display(stats.protected, stats.https_total) == 34

    def test_http_urls_not_counted(self):
        entries = {"http://h.example/": build_entry("http://h.example/")}
        stats = hsts_stats(build_snapshot(entries))
        assert stats.https_total == 0


def record_for(url, scenario):
    before = SoftwareId("nginx/1.0")
    after = SoftwareId("nginx/1.0")
    return MaintenanceRecord(url, before, after, scenario, None) if scenario else None


class TestCorrelate:
    def test_direct_tabulation(self):
        records = [
            record_for("http://a.example/", MaintenanceScenario.NO_UPDATE),
            record_for("http://b.example/", MaintenanceScenario.NO_UPDATE),
            record_for("http://c.example/", MaintenanceScenario.VERSION_UPGRADE),
        ]
        counts = {"http://a.example/": 3, "http://b.example/": 3, "http://c.example/": 1}
        matrix = correlate(counts, records)
        assert matrix.cells[(MaintenanceScenario.NO_UPDATE, 3)] == 2
        assert matrix.cells[(MaintenanceScenario.VERSION_UPGRADE, 1)] == 1

    def test_empty_inputs(self):
        assert correlate({}, []).cells == {}

    def test_total_equals_classified_count(self):
        rng = random.Random(12)
        urls = [f"http://u{i}.example/" for i in range(50)]
        counts = {u: rng.randrange(7) for u in urls}
        records = []
        classified = 0
        for u in urls:
            scenario = rng.choice(list(MaintenanceScenario) + [None])
            if scenario is None:
                from smellprobe.maintenance import UnclassifiableReason

                records.append(
                    MaintenanceRecord(
                        u, None, SoftwareId("x/1"), None,
                        UnclassifiableReason.SPAWNED_UNKNOWN_CONFIG,
                    )
                )
            else:
                records.append(record_for(u, scenario))
                classified += 1
        matrix = correlate(counts, records)
        assert sum(matrix.cells.values()) == classified
        assert matrix.cells == recount_correlation(counts, records)

    def test_missing_smell_count_raises(self):
        records = [record_for("http://a.example/", MaintenanceScenario.NO_UPDATE)]
        with pytest.raises(KeyError):
            correlate({}, records)


def url_sorted(snapshot):
    return (snapshot.entries[url] for url in sorted(snapshot.entries))


def random_pair(rng):
    """Two snapshots that share some URLs, and a corpus over part of the first."""
    first, targets = random_snapshot(rng, n_urls=rng.randint(0, 30))
    second, _ = random_snapshot(rng, n_urls=rng.randint(0, 30))
    corpus = rng.sample(targets, rng.randint(0, len(targets)))
    if corpus:
        # A second app behind a corpus URL counts that URL once more.
        corpus.append(replaced(corpus[0], app_id="shared-url-app"))
    return *snapshot_pair(first.entries, second.entries), tuple(corpus)


class TestTabulate:
    """tabulate's single pass gives what the whole-run functions give."""

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_whole_run_functions(self, seed):
        rng = random.Random(seed)
        first, second, corpus = random_pair(rng)
        own_targets = tuple(entry.result.target for entry in first.entries.values())
        records = diff_snapshots(first, second)
        smell_counts = {url: len(e.report.findings) for url, e in second.entries.items()}
        smell_counts.update((url, len(e.report.findings)) for url, e in first.entries.items())
        matrix = correlate(smell_counts, records)
        for table_corpus in (None, corpus):
            expected = {
                "prevalence": prevalence(first, own_targets if table_corpus is None else corpus),
                "leaks": leak_breakdown(first),
                "hsts": hsts_stats(first),
            }
            tables, got_records = tabulate(url_sorted(first), corpus=table_corpus)
            assert got_records is None
            assert {name: t.to_rows() for name, t in tables.items()} == {
                name: t.to_rows() for name, t in expected.items()
            }
            tables, got_records = tabulate(url_sorted(first), url_sorted(second), table_corpus)
            expected["correlation"] = matrix
            assert {name: t.to_rows() for name, t in tables.items()} == {
                name: t.to_rows() for name, t in expected.items()
            }
            assert got_records == records

    def test_pairs_reach_every_table_branch(self):
        scenarios, reasons, hsts_flags = set(), set(), set()
        for seed in range(12):
            first, second, _ = random_pair(random.Random(seed))
            for record in diff_snapshots(first, second):
                scenarios.add(record.scenario)
                reasons.add(record.unclassifiable_reason)
            hsts = hsts_stats(first)
            hsts_flags.update(row["metric"] for row in hsts.to_rows() if row["count"])
        assert None in scenarios and len(scenarios) >= 5
        assert UnclassifiableReason.SHUTDOWN_NO_COMPARISON in reasons
        assert {"absent", "short_max_age", "missing_include_subdomains"} <= hsts_flags

    def test_corpus_url_missing_from_snapshot_raises(self):
        snapshot, corpus = random_snapshot(random.Random(3), n_urls=5)
        corpus += (make_target("http://missing.example/"),)
        with pytest.raises(ValueError) as from_prevalence:
            prevalence(snapshot, corpus)
        with pytest.raises(ValueError) as from_tabulate:
            tabulate(url_sorted(snapshot), corpus=corpus)
        assert str(from_tabulate.value) == str(from_prevalence.value)


class TestExport:
    def test_csv_reexport_byte_identical(self, tmp_path):
        rng = random.Random(13)
        snapshot, corpus = random_snapshot(rng, n_urls=15)
        table = prevalence(snapshot, corpus)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        export(table, a, "csv")
        export(table, b, "csv")
        assert a.read_bytes() == b.read_bytes()

    def test_json_reexport_byte_identical(self, tmp_path):
        rng = random.Random(14)
        snapshot, _ = random_snapshot(rng, n_urls=15)
        breakdown = leak_breakdown(snapshot)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        export(breakdown, a, "json")
        export(breakdown, b, "json")
        assert a.read_bytes() == b.read_bytes()

    def test_csv_columns_stable(self, tmp_path):
        stats = hsts_stats(build_snapshot({}))
        out = tmp_path / "h.csv"
        export(stats, out, "csv")
        header = out.read_text(encoding="utf-8").splitlines()[0]
        assert header == "metric,count"

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            export(hsts_stats(build_snapshot({})), tmp_path / "x.bin", "parquet")

    @pytest.mark.parametrize("failure", [ValueError, KeyboardInterrupt])
    def test_failed_export_leaves_previous_file(self, tmp_path, failure):
        out = tmp_path / "hsts.csv"
        export(hsts_stats(build_snapshot({})), out, "csv")
        before = out.read_bytes()

        class Failing:
            columns = ["metric", "count"]

            def to_rows(self):
                yield {"metric": "https_total", "count": 1}
                raise failure("interrupted while writing rows")

        with pytest.raises(failure):
            export(Failing(), out, "csv")
        assert out.read_bytes() == before
        assert list(tmp_path.iterdir()) == [out]
