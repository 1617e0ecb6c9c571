import json

import pytest
from hypothesis import given, strategies as st

from smellprobe.cli import EXIT_OK, run
from smellprobe.maintenance import (
    MaintenanceRecord,
    MaintenanceScenario,
    UnclassifiableReason,
    classify_pair,
    diff_snapshots,
    server_banner,
)
from smellprobe.snapshot import save
from smellprobe.versions import SoftwareId

from helpers import SIDE_STATES, build_entry, one_sided_outcome, side_entry, snapshot_pair

URL = "http://u.example/"


def sid(token):
    return SoftwareId(token) if token is not None else None


def outcome_of(first, second):
    """``(scenario, reason)`` of classify_pair for two entries, None when it gives no record."""
    record = classify_pair(URL, first, second)
    return None if record is None else (record.scenario, record.unclassifiable_reason)


def outcome(before, after):
    """The outcome for two answering entries with these Server banners (None: no banner)."""
    return outcome_of(build_entry(URL, server=before), build_entry(URL, server=after))


class TestClassifyPair:
    def test_downgrade(self):
        assert outcome("nginx/1.14.1", "nginx/1.12.1") == (
            MaintenanceScenario.VERSION_DOWNGRADE, None
        )

    def test_identity_is_no_update(self):
        assert outcome("nginx/1.14.1", "nginx/1.14.1") == (MaintenanceScenario.NO_UPDATE, None)

    def test_upgrade(self):
        assert outcome("nginx/1.12.1", "nginx/1.14.1") == (
            MaintenanceScenario.VERSION_UPGRADE, None
        )

    def test_cloudflare_gateway(self):
        assert outcome("apache/2.4.41", "cloudflare") == (
            MaintenanceScenario.CLOUDFLARE_ENABLED, None
        )

    def test_cloudflare_requires_after_side(self):
        # moving OFF cloudflare is an environment change, not cloudflare_enabled
        assert outcome("cloudflare", "apache/2.4.41") == (
            MaintenanceScenario.ENVIRONMENT_CHANGED, None
        )

    def test_environment_changed(self):
        assert outcome("Apache/2.4.41", "Microsoft-IIS/10.0") == (
            MaintenanceScenario.ENVIRONMENT_CHANGED, None
        )

    def test_leak_closed_when_version_disappears(self):
        assert outcome("Apache/2.4.41", "Apache") == (MaintenanceScenario.LEAK_CLOSED, None)

    def test_bare_names_both_sides_is_no_update(self):
        assert outcome("cloudflare", "cloudflare") == (MaintenanceScenario.NO_UPDATE, None)

    def test_both_absent_yields_nothing(self):
        assert outcome(None, None) is None
        assert outcome_of(None, None) is None

    def test_unorderable_version_text(self):
        assert outcome("nginx/1.14.1", "nginx/beta2") == (
            None, UnclassifiableReason.VERSIONING_SCHEME_CHANGED
        )

    def test_version_appearing_is_unorderable(self):
        assert outcome("nginx", "nginx/1.14.1") == (
            None, UnclassifiableReason.VERSIONING_SCHEME_CHANGED
        )

    def test_name_comparison_case_insensitive(self):
        assert outcome("Apache/2.4.41", "apache/2.4.41") == (MaintenanceScenario.NO_UPDATE, None)

    def test_zero_padded_versions_equal(self):
        assert outcome("thing/1.0", "thing/1.0.0") == (MaintenanceScenario.NO_UPDATE, None)


TOKENS = [
    "nginx",
    "nginx/1.12.1",
    "nginx/1.14.1",
    "nginx/beta2",
    "Apache",
    "Apache/2.4.41",
    "cloudflare",
    "Microsoft-IIS/10.0",
]

LIVENESS_SCENARIOS = (MaintenanceScenario.SERVER_SPAWNED, MaintenanceScenario.SERVER_SHUTDOWN)
LIVENESS_REASONS = (
    UnclassifiableReason.SPAWNED_UNKNOWN_CONFIG, UnclassifiableReason.SHUTDOWN_NO_COMPARISON
)

# Every side a snapshot can give one URL: each state, and a banner state with each token.
SIDES = [(state, None) for state in SIDE_STATES if state != "banner"] + [
    ("banner", token) for token in TOKENS
]


class TestClassifyProperties:
    @pytest.mark.parametrize("before_state, before", SIDES)
    def test_partition_over_every_pair_of_sides(self, before_state, before):
        for after_state, after in SIDES:
            first = side_entry(URL, before_state, before)
            second = side_entry(URL, after_state, after)
            result = outcome_of(first, second)
            banners = (before_state == "banner", after_state == "banner")
            if banners == (False, False):
                assert result is None
                continue
            scenario, reason = result
            assert (scenario is None) != (reason is None)
            if banners != (True, True):
                assert result == one_sided_outcome(before_state, after_state)
            else:
                # liveness outcomes come only from a pair with one banner
                assert scenario not in LIVENESS_SCENARIOS and reason not in LIVENESS_REASONS

    @given(
        st.sampled_from(TOKENS),
        st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=4),
        st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=4),
    )
    def test_antisymmetry_of_version_moves(self, name, seg_a, seg_b):
        name = name.split("/")[0]
        a = f"{name}/{'.'.join(map(str, seg_a))}"
        b = f"{name}/{'.'.join(map(str, seg_b))}"
        forward, _ = outcome(a, b)
        backward, _ = outcome(b, a)
        mapping = {
            MaintenanceScenario.VERSION_UPGRADE: MaintenanceScenario.VERSION_DOWNGRADE,
            MaintenanceScenario.VERSION_DOWNGRADE: MaintenanceScenario.VERSION_UPGRADE,
            MaintenanceScenario.NO_UPDATE: MaintenanceScenario.NO_UPDATE,
        }
        assert backward == mapping[forward]


class TestMaintenanceRecord:
    def test_exactly_one_outcome_enforced(self):
        with pytest.raises(ValueError):
            MaintenanceRecord("u", None, None, None, None)
        with pytest.raises(ValueError):
            MaintenanceRecord(
                "u",
                None,
                None,
                MaintenanceScenario.SERVER_SPAWNED,
                UnclassifiableReason.SPAWNED_UNKNOWN_CONFIG,
            )

    def test_version_moves_require_same_name(self):
        with pytest.raises(ValueError):
            MaintenanceRecord(
                "u",
                sid("nginx/1.0"),
                sid("apache/2.0"),
                MaintenanceScenario.VERSION_UPGRADE,
                None,
            )


class TestDiffSnapshots:
    def test_requires_chronological_order(self):
        s1, s2 = snapshot_pair({}, {})
        with pytest.raises(ValueError):
            diff_snapshots(s2, s1)

    def test_url_missing_from_first_snapshot_is_spawned(self):
        url = "http://u.example/"
        s1, s2 = snapshot_pair({}, {url: build_entry(url, server="nginx/1.14.1")})
        records = diff_snapshots(s1, s2)
        assert len(records) == 1
        assert records[0].scenario is MaintenanceScenario.SERVER_SPAWNED

    def test_bannerless_then_banner_is_spawned(self):
        url = "http://u.example/"
        s1, s2 = snapshot_pair(
            {url: build_entry(url)},
            {url: build_entry(url, server="nginx/1.14.1")},
        )
        assert diff_snapshots(s1, s2)[0].scenario is MaintenanceScenario.SERVER_SPAWNED

    def test_dead_then_banner_is_unknown_config(self):
        url = "http://u.example/"
        s1, s2 = snapshot_pair(
            {url: build_entry(url, status=None, error="connection refused")},
            {url: build_entry(url, server="nginx/1.14.1")},
        )
        record = diff_snapshots(s1, s2)[0]
        assert record.scenario is None
        assert record.unclassifiable_reason is UnclassifiableReason.SPAWNED_UNKNOWN_CONFIG

    def test_banner_lost_but_alive_is_leak_closed(self):
        url = "http://u.example/"
        s1, s2 = snapshot_pair(
            {url: build_entry(url, server="Apache/2.4.41")},
            {url: build_entry(url)},
        )
        assert diff_snapshots(s1, s2)[0].scenario is MaintenanceScenario.LEAK_CLOSED

    def test_banner_then_transport_failure_is_shutdown(self):
        url = "http://u.example/"
        s1, s2 = snapshot_pair(
            {url: build_entry(url, server="nginx/1.14.1")},
            {url: build_entry(url, status=None, error="connection refused")},
        )
        assert diff_snapshots(s1, s2)[0].scenario is MaintenanceScenario.SERVER_SHUTDOWN

    def test_banner_then_missing_record_is_no_comparison(self):
        url = "http://u.example/"
        s1, s2 = snapshot_pair({url: build_entry(url, server="Apache/2.4.41")}, {})
        record = diff_snapshots(s1, s2)[0]
        assert record.unclassifiable_reason is UnclassifiableReason.SHUTDOWN_NO_COMPARISON

    def test_bannerless_on_both_sides_skipped(self):
        url = "http://u.example/"
        s1, s2 = snapshot_pair(
            {url: build_entry(url)},
            {url: build_entry(url, status=None, error="timeout")},
        )
        assert diff_snapshots(s1, s2) == []

    def test_empty_snapshots_empty_diff(self):
        s1, s2 = snapshot_pair({}, {})
        assert diff_snapshots(s1, s2) == []

    def test_every_record_has_exactly_one_outcome(self):
        urls = {}
        urls1, urls2 = {}, {}
        cases = [
            ("nginx/1.14.1", "nginx/1.14.1"),
            ("nginx/1.14.1", "nginx/1.12.1"),
            ("nginx/1.12.1", "nginx/1.14.1"),
            ("Apache/2.4.41", "Apache"),
            ("Apache/2.4.41", "Microsoft-IIS/10.0"),
            ("Apache/2.4.41", "cloudflare"),
            (None, "nginx/1.14.1"),
            ("nginx/1.14.1", "nginx/beta2"),
        ]
        for i, (before, after) in enumerate(cases):
            url = f"http://u{i}.example/"
            urls1[url] = build_entry(url, server=before)
            urls2[url] = build_entry(url, server=after)
        s1, s2 = snapshot_pair(urls1, urls2)
        records = diff_snapshots(s1, s2)
        assert len(records) == len(cases)
        for record in records:
            assert (record.scenario is None) != (record.unclassifiable_reason is None)

    def test_first_product_token_is_comparison_subject(self):
        url = "http://u.example/"
        s1, s2 = snapshot_pair(
            {url: build_entry(url, server="Apache/2.4.41 (Ubuntu) OpenSSL/1.1.1")},
            {url: build_entry(url, server="Apache/2.4.46 (Ubuntu) OpenSSL/1.1.1k")},
        )
        record = diff_snapshots(s1, s2)[0]
        assert record.scenario is MaintenanceScenario.VERSION_UPGRADE
        assert record.before.name == "apache"
        assert "OpenSSL/1.1.1" in record.annotations

    def test_cloudflare_only_when_after_is_cloudflare(self):
        records_with_cf = []
        for before, after in [("a/1", "cloudflare"), ("cloudflare", "b/1"), ("a/1", "b/1")]:
            url = "http://u.example/"
            s1, s2 = snapshot_pair(
                {url: build_entry(url, server=before)},
                {url: build_entry(url, server=after)},
            )
            record = diff_snapshots(s1, s2)[0]
            if record.scenario is MaintenanceScenario.CLOUDFLARE_ENABLED:
                records_with_cf.append(record)
        assert len(records_with_cf) == 1
        assert records_with_cf[0].after.name == "cloudflare"


def test_server_banner_reads_direct_result():
    entry = build_entry("http://u.example/", server="nginx/1.14.1 (Ubuntu) mod_x/1.0")
    first, rest = server_banner(entry)
    assert first.name == "nginx"
    assert rest == ("mod_x/1.0",)
    assert server_banner(None) == (None, ())
    # A banner with no product token gives no software to compare.
    assert server_banner(build_entry("http://u.example/", server="(Ubuntu)")) == (None, ())


def test_token_with_nothing_before_its_slash_unchanged_is_no_update(tmp_path):
    """``/1.2`` is all name, so the same banner in both rounds has no version text to compare."""
    paths = [tmp_path / "round1.smellsnap.jsonl", tmp_path / "round2.smellsnap.jsonl"]
    for snapshot, path in zip(snapshot_pair({URL: build_entry(URL, server="/1.2")},
                                            {URL: build_entry(URL, server="/1.2")}), paths):
        save(snapshot, path)
    out = tmp_path / "maintenance.jsonl"
    assert run(["diff", *map(str, paths), "--out", str(out)]) == EXIT_OK
    [record] = map(json.loads, out.read_text(encoding="utf-8").splitlines())
    assert (record["before"], record["after"], record["scenario"]) == ("/1.2", "/1.2", "no_update")
