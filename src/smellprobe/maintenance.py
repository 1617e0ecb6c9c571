"""Classify how a server's software banner changed between two snapshots.

The comparison subject is the first product token of the ``Server`` header
of the direct probe result; additional tokens ride along as annotations.
URLs with no Server banner on either side are not comparable and yield no
record.

Name/version decision table (same comparison subject on both sides):

    same name, neither side has version text        -> no_update
    same name, versions parse, after == before      -> no_update
    same name, versions parse, after <  before      -> version_downgrade
    same name, versions parse, after >  before      -> version_upgrade
    same name, before versioned, after has none     -> leak_closed
    same name, any version text unorderable         -> versioning_scheme_changed
    different name, after is cloudflare             -> cloudflare_enabled
    different name otherwise                        -> environment_changed

When a banner exists on only one side, endpoint liveness disambiguates:

    banner gone, endpoint still answers             -> leak_closed
    banner gone, probe failed at transport level    -> server_shutdown
    banner gone, url missing from second snapshot   -> shutdown_no_comparison
    banner new, url missing from first snapshot     -> server_spawned
    banner new, endpoint answered banner-less first -> server_spawned
    banner new, first probe failed at transport     -> spawned_unknown_config
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from datetime import datetime
from enum import Enum

from .model import Record, _set
from .snapshot import Snapshot, SnapshotEntry
from .versions import SoftwareId, compare_versions, parse_banner


class MaintenanceScenario(str, Enum):
    NO_UPDATE = "no_update"
    VERSION_DOWNGRADE = "version_downgrade"
    VERSION_UPGRADE = "version_upgrade"
    LEAK_CLOSED = "leak_closed"
    ENVIRONMENT_CHANGED = "environment_changed"
    CLOUDFLARE_ENABLED = "cloudflare_enabled"
    SERVER_SPAWNED = "server_spawned"
    SERVER_SHUTDOWN = "server_shutdown"


class UnclassifiableReason(str, Enum):
    SPAWNED_UNKNOWN_CONFIG = "spawned_unknown_config"
    SHUTDOWN_NO_COMPARISON = "shutdown_no_comparison"
    VERSIONING_SCHEME_CHANGED = "versioning_scheme_changed"


class MaintenanceRecord(Record):
    __slots__ = ("url", "before", "after", "scenario", "unclassifiable_reason", "annotations")

    def __init__(
        self,
        url: str,
        before: SoftwareId | None,
        after: SoftwareId | None,
        scenario: MaintenanceScenario | None,
        unclassifiable_reason: UnclassifiableReason | None = None,
        annotations: tuple[str, ...] = (),
    ) -> None:
        if (scenario is None) == (unclassifiable_reason is None):
            raise ValueError("exactly one of scenario and unclassifiable_reason must be set")
        if scenario in (
            MaintenanceScenario.NO_UPDATE,
            MaintenanceScenario.VERSION_DOWNGRADE,
            MaintenanceScenario.VERSION_UPGRADE,
        ):
            if before is None or after is None or before.name != after.name:
                raise ValueError(f"{scenario.value} requires an unchanged software name")
        _set(self, "url", url)
        _set(self, "before", before)
        _set(self, "after", after)
        _set(self, "scenario", scenario)
        _set(self, "unclassifiable_reason", unclassifiable_reason)
        _set(self, "annotations", annotations)


def _classify(
    before: SoftwareId | None,
    after: SoftwareId | None,
    first: SnapshotEntry | None,
    second: SnapshotEntry | None,
) -> tuple[MaintenanceScenario | None, UnclassifiableReason | None] | None:
    """The whole decision table of the module docstring as ``(scenario, reason)``.

    None when both banners are absent.  ``first`` and ``second`` are the
    URL's entries (None where a snapshot lacks it); they matter only on the
    side without a banner, since a side with one answered.
    """
    if before is None and after is None:
        return None
    if before is None:
        if first is not None and not first.result.ok:
            return None, UnclassifiableReason.SPAWNED_UNKNOWN_CONFIG
        return MaintenanceScenario.SERVER_SPAWNED, None
    if after is None:
        if second is None:
            return None, UnclassifiableReason.SHUTDOWN_NO_COMPARISON
        if second.result.ok:
            return MaintenanceScenario.LEAK_CLOSED, None
        return MaintenanceScenario.SERVER_SHUTDOWN, None

    if before.name != after.name:
        if after.name == "cloudflare":
            return MaintenanceScenario.CLOUDFLARE_ENABLED, None
        return MaintenanceScenario.ENVIRONMENT_CHANGED, None

    before_text = before.version_text
    after_text = after.version_text
    if before_text is None and after_text is None:
        return MaintenanceScenario.NO_UPDATE, None
    if before_text is not None and after_text is None:
        return MaintenanceScenario.LEAK_CLOSED, None
    if before.version is None or after.version is None:
        # Version text exists on a side we cannot order numerically.
        return None, UnclassifiableReason.VERSIONING_SCHEME_CHANGED
    ordering = compare_versions(after.version, before.version)
    if ordering < 0:
        return MaintenanceScenario.VERSION_DOWNGRADE, None
    if ordering > 0:
        return MaintenanceScenario.VERSION_UPGRADE, None
    return MaintenanceScenario.NO_UPDATE, None


def server_banner(entry: SnapshotEntry | None) -> tuple[SoftwareId | None, tuple[str, ...]]:
    """First Server-header product token plus the remaining tokens' raw text."""
    if entry is None:
        return None, ()
    value = entry.result.first_header("server")
    if value is None or not value.strip():
        return None, ()
    parsed = parse_banner(value)
    if not parsed.software:
        return None, ()
    rest = tuple(sid.raw for sid in parsed.software[1:])
    return parsed.software[0], rest


def classify_pair(
    url: str,
    first: SnapshotEntry | None,
    second: SnapshotEntry | None,
) -> MaintenanceRecord | None:
    """The record of one URL from its entries in the two snapshots (None where absent)."""
    before, before_rest = server_banner(first)
    after, after_rest = server_banner(second)
    outcome = _classify(before, after, first, second)
    if outcome is None:
        return None
    return MaintenanceRecord(url, before, after, *outcome, before_rest + after_rest)


def pair_entries(
    first: Iterable[SnapshotEntry], second: Iterable[SnapshotEntry]
) -> Iterator[tuple[str, SnapshotEntry | None, SnapshotEntry | None]]:
    """Merge-join two entry streams sorted by strictly increasing URL.

    Yields ``(url, first entry, second entry)`` in URL order, with None for
    the side that lacks the URL, and reads each stream to its end.
    """
    first, second = iter(first), iter(second)
    a, b = next(first, None), next(second, None)
    while a is not None or b is not None:
        if b is None or (a is not None and a.url < b.url):
            yield a.url, a, None
            a = next(first, None)
        elif a is None or b.url < a.url:
            yield b.url, None, b
            b = next(second, None)
        else:
            yield a.url, a, b
            a, b = next(first, None), next(second, None)


def require_chronological(first_taken_at: datetime, second_taken_at: datetime) -> None:
    if not first_taken_at < second_taken_at:
        raise ValueError("first snapshot must predate the second")


def diff_entries(
    first: Iterable[SnapshotEntry], second: Iterable[SnapshotEntry]
) -> Iterator[MaintenanceRecord]:
    """One record per comparable URL of two URL-sorted entry streams, in URL order."""
    for url, a, b in pair_entries(first, second):
        record = classify_pair(url, a, b)
        if record is not None:
            yield record


def _in_url_order(snapshot: Snapshot) -> Iterator[SnapshotEntry]:
    return (snapshot.entries[url] for url in sorted(snapshot.entries))


def diff_snapshots(first: Snapshot, second: Snapshot) -> list[MaintenanceRecord]:
    """One record per comparable URL across the two snapshots.

    Requires first.taken_at < second.taken_at.  Output is sorted by URL.
    """
    require_chronological(first.taken_at, second.taken_at)
    return list(diff_entries(_in_url_order(first), _in_url_order(second)))
