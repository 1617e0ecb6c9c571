"""Aggregate views over snapshots: prevalence, leak counts, HSTS posture,
and the smell-count vs maintenance-scenario matrix.

Each table counts what the entries store and detects nothing again: the
findings and leak records, the first exchange's body format (for a target
that declares none), and whether an https first exchange was answered.
Display percentages round half-up to integers while machine output keeps
full precision.
"""

from __future__ import annotations

import csv
import json
from collections import Counter
from collections.abc import Iterable
from enum import Enum
from pathlib import Path

from .maintenance import MaintenanceRecord, MaintenanceScenario, classify_pair, pair_entries
from .model import (
    BodyFormat,
    DeclaredFormat,
    LeakCategory,
    ProbeResult,
    ProbeTarget,
    Record,
    Scheme,
    SmellKind,
    SourceModel,
    _set,
)
from .snapshot import Snapshot, SnapshotEntry, replacing
from .versions import OS_DICTIONARY, canonical_service_name


class GroupKey(str, Enum):
    OPEN_JSON = "open_json"
    OPEN_NONJSON = "open_nonjson"
    CLOSED_JSON = "closed_json"
    CLOSED_NONJSON = "closed_nonjson"


def pct(numerator: int, denominator: int) -> float:
    """Exact percentage; 0.0 for an empty denominator."""
    if denominator == 0:
        return 0.0
    return 100.0 * numerator / denominator


def pct_display(numerator: int, denominator: int) -> int:
    """Percentage of two counts rounded half up to an integer, as printed in reports."""
    if denominator == 0:
        return 0
    whole, rest = divmod(100 * numerator, denominator)
    return whole + (2 * rest >= denominator)


def group_key(target: ProbeTarget, result: ProbeResult) -> GroupKey:
    """Development model x payload format; declared_format wins when present."""
    if target.declared_format is not None:
        is_json = target.declared_format is DeclaredFormat.JSON
    else:
        is_json = result.body_format is BodyFormat.JSON
    if target.source_model is SourceModel.OPEN_SOURCE:
        return GroupKey.OPEN_JSON if is_json else GroupKey.OPEN_NONJSON
    return GroupKey.CLOSED_JSON if is_json else GroupKey.CLOSED_NONJSON


class PrevalenceCell(Record):
    __slots__ = ("urls_affected", "urls_total", "apps_affected", "apps_total")

    def __init__(self, urls_affected: int, urls_total: int, apps_affected: int, apps_total: int) -> None:
        _set(self, "urls_affected", urls_affected)
        _set(self, "urls_total", urls_total)
        _set(self, "apps_affected", apps_affected)
        _set(self, "apps_total", apps_total)

    @property
    def url_pct(self) -> float:
        return pct(self.urls_affected, self.urls_total)

    @property
    def app_pct(self) -> float:
        return pct(self.apps_affected, self.apps_total)

    @property
    def url_pct_display(self) -> int:
        return pct_display(self.urls_affected, self.urls_total)

    @property
    def app_pct_display(self) -> int:
        return pct_display(self.apps_affected, self.apps_total)


class PrevalenceTable:
    """Per-group, per-smell affected counts at URL and app granularity.

    An app suffers from a smell when at least one of its URLs in the group
    has the finding; denominators are group sizes.  With a corpus, an added
    entry counts once for each corpus target with its URL and entries
    outside the corpus are skipped; without one, every entry counts under
    its own target.
    """

    columns = [
        "group",
        "smell",
        "urls_affected",
        "urls_total",
        "url_pct",
        "url_pct_display",
        "apps_affected",
        "apps_total",
        "app_pct",
        "app_pct_display",
    ]

    def __init__(self, corpus: list[ProbeTarget] | tuple[ProbeTarget, ...] | None = None) -> None:
        self._uncovered: dict[str, list[ProbeTarget]] | None = None
        if corpus is not None:
            self._uncovered = {}
            for target in corpus:
                self._uncovered.setdefault(target.url, []).append(target)
        self._group_urls: Counter = Counter()
        self._group_apps: dict[GroupKey, set[str]] = {g: set() for g in GroupKey}
        self._flagged_urls: Counter = Counter()
        self._flagged_apps: dict[tuple[GroupKey, SmellKind], set[str]] = {
            (g, k): set() for g in GroupKey for k in SmellKind
        }

    def add(self, entry: SnapshotEntry) -> None:
        if self._uncovered is None:
            targets = [entry.result.target]
        else:
            targets = self._uncovered.pop(entry.url, [])
        for target in targets:
            group = group_key(target, entry.result)
            self._group_urls[group] += 1
            self._group_apps[group].add(target.app_id)
            for kind in entry.report.kinds():
                self._flagged_urls[(group, kind)] += 1
                self._flagged_apps[(group, kind)].add(target.app_id)

    def require_covered(self) -> None:
        """Raise ValueError if some corpus URL was never added."""
        if self._uncovered:
            missing = sum(len(targets) for targets in self._uncovered.values())
            raise ValueError(f"snapshot does not cover corpus: {missing} url(s) missing")

    @property
    def cells(self) -> dict[tuple[GroupKey, SmellKind], PrevalenceCell]:
        return {
            (group, kind): PrevalenceCell(
                urls_affected=self._flagged_urls[(group, kind)],
                urls_total=self._group_urls[group],
                apps_affected=len(self._flagged_apps[(group, kind)]),
                apps_total=len(self._group_apps[group]),
            )
            for group in GroupKey
            for kind in SmellKind
        }

    def to_rows(self) -> list[dict]:
        return [
            {"group": group.value, "smell": kind.value}
            | {name: getattr(cell, name) for name in self.columns[2:]}
            for (group, kind), cell in self.cells.items()
        ]


def prevalence(snapshot: Snapshot, corpus: list[ProbeTarget] | tuple[ProbeTarget, ...]) -> PrevalenceTable:
    """The prevalence of every smell over the corpus, which the snapshot must cover."""
    table = PrevalenceTable(corpus)
    for entry in snapshot.entries.values():
        table.add(entry)
    table.require_covered()
    return table


class LeakBreakdown:
    """Counts keyed by (category, lowercased software name, locus)."""

    columns = ["category", "software", "display", "locus", "count"]

    def __init__(self) -> None:
        self.counts: Counter[tuple[LeakCategory, str, str]] = Counter()

    def add(self, entry: SnapshotEntry) -> None:
        for leak in entry.report.leaks:
            self.counts[(leak.category, leak.software.lower(), leak.locus)] += 1

    def to_rows(self) -> list[dict]:
        rows = []
        for (category, software, locus), count in sorted(
            self.counts.items(), key=lambda item: (item[0][0].value, item[0][1], item[0][2])
        ):
            if category is LeakCategory.OS:
                display = OS_DICTIONARY.get(software, software)
            else:
                display = canonical_service_name(software)
            rows.append(
                {
                    "category": category.value,
                    "software": software,
                    "display": display,
                    "locus": locus,
                    "count": count,
                }
            )
        return rows


def leak_breakdown(snapshot: Snapshot) -> LeakBreakdown:
    """Tally every stored leak record by category, software, and locus."""
    breakdown = LeakBreakdown()
    for entry in snapshot.entries.values():
        breakdown.add(entry)
    return breakdown


class HstsStats:
    """HSTS posture tallies over the https endpoints that answered.

    missing_include_subdomains and missing_preload count endpoints without
    the respective directive, including those with no HSTS header at all.
    Each tally starts at its class default, 0.
    """

    metrics = (
        "https_total", "protected", "absent", "short_max_age", "missing_include_subdomains", "missing_preload",
    )
    https_total = protected = absent = short_max_age = missing_include_subdomains = missing_preload = 0

    columns = ["metric", "count"]

    def add(self, entry: SnapshotEntry) -> None:
        result = entry.result
        if result.scheme_used is not Scheme.HTTPS or result.status is None:
            return
        self.https_total += 1
        finding = next(
            (f for f in entry.report.findings if f.kind is SmellKind.MISSING_HSTS), None
        )
        if finding is None:
            self.protected += 1
        elif "absent" in finding.subflags:
            self.absent += 1
            self.missing_include_subdomains += 1
            self.missing_preload += 1
        else:
            self.short_max_age += "short_max_age" in finding.subflags
            self.missing_include_subdomains += "missing_include_subdomains" in finding.subflags
            self.missing_preload += "missing_preload" in finding.subflags

    def to_rows(self) -> list[dict]:
        return [{"metric": name, "count": getattr(self, name)} for name in self.metrics]


def hsts_stats(snapshot: Snapshot) -> HstsStats:
    """Tally detect_missing_hsts outcomes stored in the snapshot."""
    stats = HstsStats()
    for entry in snapshot.entries.values():
        stats.add(entry)
    return stats


class CorrelationMatrix:
    """scenario x smell-count cells; they sum to the classified URL count."""

    columns = ["scenario", "smell_count", "urls"]

    def __init__(self) -> None:
        self.cells: Counter[tuple[MaintenanceScenario, int]] = Counter()

    def add(self, record: MaintenanceRecord, smell_count: int) -> None:
        """Count a classified record; an unclassifiable one is left out."""
        if record.scenario is not None:
            self.cells[(record.scenario, smell_count)] += 1

    def to_rows(self) -> list[dict]:
        rows = []
        for (scenario, count), urls in sorted(
            self.cells.items(), key=lambda item: (item[0][0].value, item[0][1])
        ):
            rows.append({"scenario": scenario.value, "smell_count": count, "urls": urls})
        return rows


def correlate(
    smell_counts: dict[str, int], records: list[MaintenanceRecord]
) -> CorrelationMatrix:
    """Cell (scenario, k): URLs with k smells that landed in that scenario.

    Only classified records participate; every classified record's URL must
    appear in smell_counts.
    """
    matrix = CorrelationMatrix()
    for record in records:
        if record.scenario is not None and record.url not in smell_counts:
            raise KeyError(f"no smell count for {record.url!r}")
        matrix.add(record, smell_counts.get(record.url, 0))
    return matrix


def tabulate(
    first: Iterable[SnapshotEntry],
    second: Iterable[SnapshotEntry] | None = None,
    corpus: list[ProbeTarget] | tuple[ProbeTarget, ...] | None = None,
) -> tuple[dict[str, object], list[MaintenanceRecord] | None]:
    """Every report table in one pass over one or two URL-sorted entry streams.

    Returns the tables by file name (``prevalence``, ``leaks``, ``hsts``, and
    with a second stream ``correlation``) and, with a second stream, the
    maintenance records.  Prevalence, leaks and HSTS count the first stream;
    prevalence groups by ``corpus`` when one is given.  The records come from
    the merge-join of both streams, and a URL's smell count for the
    correlation is the first stream's, or the second's for a URL new there.
    """
    table, leaks, hsts = PrevalenceTable(corpus), LeakBreakdown(), HstsStats()
    records: list[MaintenanceRecord] = []
    correlation = CorrelationMatrix()
    for url, before, after in pair_entries(first, () if second is None else second):
        if before is not None:
            table.add(before)
            leaks.add(before)
            hsts.add(before)
        if second is None:
            continue
        record = classify_pair(url, before, after)
        if record is None:
            continue
        records.append(record)
        counted = before if before is not None else after
        correlation.add(record, len(counted.report.findings))
    table.require_covered()
    tables = {"prevalence": table, "leaks": leaks, "hsts": hsts}
    if second is None:
        return tables, None
    tables["correlation"] = correlation
    return tables, records


def export(report, path: str | Path, format: str = "csv") -> None:
    """Write a report's rows with a stable column order, replacing ``path`` atomically.

    Re-exports of the same report are byte-identical.  If writing fails,
    ``path`` is left as it was.
    """
    if format not in ("csv", "json"):
        raise ValueError(f"unknown export format: {format!r}")
    rows = report.to_rows()
    columns = report.columns
    with replacing(path) as fh:
        if format == "csv":
            writer = csv.DictWriter(fh, fieldnames=columns, lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
        else:
            payload = {"columns": columns, "rows": rows}
            fh.write(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")
