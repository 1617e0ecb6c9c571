"""The traced per-layer run (``run.py --trace 1``).

It calls each layer's public functions in-process on the run's own inputs
and records a span around every call: name, start, end, parent, and the
root span of its pass.  Spans stay in memory and are written as JSONL when
the run ends.  The CPU-only layers run in passes that alternate between
tracing on and off; the difference between the two medians is reported as
``trace.overhead_pct``.  End-to-end metrics never come from this run.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from contextlib import contextmanager
from datetime import datetime, timedelta, timezone
from pathlib import Path

from run import SRC, Run, run_cli

LATENCY_SAMPLE = 100  # URLs probed one at a time for the latency percentiles
MIN_PASSES = 3  # traced and untraced CPU-only passes, each
STARTUP_RUNS = 5


class Tracer:
    """In-memory spans; a disabled tracer records nothing."""

    def __init__(self) -> None:
        self.enabled = True
        self.spans: list[tuple[int, int | None, int, str, int, int]] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        span_id = len(self.spans) + len(self._stack) + 1
        parent = self._stack[-1] if self._stack else None
        root = self._stack[0] if self._stack else span_id
        self._stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append((span_id, parent, root, name, start, end))

    def seconds(self, name: str, lo: int, hi: int) -> float:
        """Summed duration of the spans called ``name`` among spans[lo:hi]."""
        return sum(end - start for _, _, _, n, start, end in self.spans[lo:hi] if n == name) / 1e9

    def durations(self, name: str) -> list[float]:
        return [(end - start) / 1e9 for _, _, _, n, start, end in self.spans if n == name]

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for span_id, parent, root, name, start, end in sorted(self.spans):
                fh.write(json.dumps({"id": span_id, "parent": parent, "root": root, "name": name,
                                     "start_ns": start, "end_ns": end}) + "\n")


def _percentile(values: list[float], share: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def traced_run(run: Run, seconds: float, spans_path: Path) -> dict:
    sys.path.insert(0, str(SRC))
    from smellprobe import cli, corpus, maintenance, probe, reports, smells, snapshot

    if "SSL_CERT_FILE" in run.env:
        os.environ["SSL_CERT_FILE"] = run.env["SSL_CERT_FILE"]
    deadline = time.perf_counter() + seconds
    tracer = Tracer()
    fixture = run.fixture
    targets = {n: corpus.load_targets(run.corpora[n]).targets for n in (1, 2)}
    n1, n2 = len(targets[1]), len(targets[2])
    union = len(run.plan.urls)
    cfg = {p: probe.ProbeConfig(parallelism=p) for p in (1, 2)}
    metrics = {}

    def probe_pass(round_no: int, parallelism: int) -> tuple[list, float, float]:
        with tracer.span(f"probe.probe_all.p{parallelism}"):
            wall, cpu = time.perf_counter(), time.process_time()
            pairs = probe.probe_all(targets[round_no], cfg[parallelism])
            wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
        run.attempted += len(pairs)
        run.failed += sum(1 for result, chain in pairs if not (result.ok and chain.terminal.ok))
        return pairs, wall, cpu

    with tracer.span("probe"):
        fixture.command("round 1")
        requests = fixture.command("requests")
        pairs1, wall2, cpu2 = probe_pass(1, 2)
        requests = fixture.command("requests") - requests
        _, wall1, _ = probe_pass(1, 1)
        for target in targets[1][:LATENCY_SAMPLE]:
            with tracer.span("probe.probe_and_follow"):
                result, chain = probe.probe_and_follow(target, cfg[2])
            run.attempted += 1
            run.failed += not (result.ok and chain.terminal.ok)
        fixture.command("round 2")
        pairs2, _, _ = probe_pass(2, 2)
    latencies = tracer.durations("probe.probe_and_follow")
    metrics["probe.urls_per_s"] = (n1 / wall2, "URL/s")
    metrics["probe.cpu_ms_per_url"] = (1000 * cpu2 / n1, "ms")
    metrics["probe.speedup_p2"] = (wall1 / wall2, "x")
    metrics["probe.url_ms_p50"] = (1000 * statistics.median(latencies), "ms")
    metrics["probe.url_ms_p95"] = (1000 * _percentile(latencies, 0.95), "ms")
    metrics["probe.requests_per_url"] = (requests / n1, "requests/URL")

    body_kb = sum(len(result.body_sample) for result, _ in pairs1) / 1024
    both_kb = body_kb + sum(len(result.body_sample) for result, _ in pairs2) / 1024
    work = run.work
    taken = datetime.now(timezone.utc)

    def layer_pass() -> None:
        with tracer.span("corpus.load_targets"):
            corpus.load_targets(run.corpora[1])
        snaps = []
        for round_no, (tgts, pairs) in enumerate(((targets[1], pairs1), (targets[2], pairs2)), start=1):
            entries = {}
            for target, (result, chain) in zip(tgts, pairs):
                with tracer.span("smells.detect_all"):
                    report = smells.detect_all(target, result, chain)
                entries[target.url] = snapshot.SnapshotEntry(result=result, chain=chain, report=report)
            snaps.append(snapshot.Snapshot(id=f"round{round_no}", taken_at=taken + timedelta(days=round_no),
                                           entries=entries))
        for target, (result, chain) in zip(targets[1], pairs1):
            with tracer.span("smells.detect_source_code_disclosure"):
                smells.detect_source_code_disclosure(result)
            with tracer.span("smells.detect_version_disclosure"):
                smells.detect_version_disclosure(result)
            with tracer.span("smells.other_detectors"):
                smells.detect_insecure_transport(target)
                smells.detect_lack_of_access_control(result)
                smells.detect_missing_https_redirect(chain)
                smells.detect_missing_hsts(result)
        paths = [work / f"traced{n}.smellsnap.jsonl" for n in (1, 2)]
        with tracer.span("snapshot.save"):
            for snap, path in zip(snaps, paths):
                snapshot.save(snap, path)
        with tracer.span("snapshot.load"):
            first, second = (snapshot.load(path) for path in paths)
        with tracer.span("maintenance.diff_snapshots"):
            records = maintenance.diff_snapshots(first, second)
        primary = tuple(entry.result.target for entry in first.entries.values())
        with tracer.span("reports.prevalence"):
            table = reports.prevalence(first, primary)
        with tracer.span("reports.leaks"):
            leaks = reports.leak_breakdown(first)
        with tracer.span("reports.hsts"):
            hsts = reports.hsts_stats(first)
        with tracer.span("reports.correlate"):
            counts = {url: len(entry.report.findings) for url, entry in first.entries.items()}
            matrix = reports.correlate(counts, records)
        out = work / "traced-reports"
        out.mkdir(exist_ok=True)
        with tracer.span("reports.export"):
            for name, rows in (("prevalence", table), ("leaks", leaks), ("hsts", hsts), ("correlation", matrix)):
                reports.export(rows, out / f"{name}.json", "json")
            cli.write_maintenance_records(records, out / "maintenance.jsonl")

    traced_walls, plain_walls = [], []
    marks = []
    while len(traced_walls) < MIN_PASSES or time.perf_counter() < deadline:
        for enabled, walls in ((True, traced_walls), (False, plain_walls)):
            tracer.enabled = enabled
            marks.append(len(tracer.spans))
            start = time.perf_counter()
            with tracer.span("pass"):
                layer_pass()
            walls.append(time.perf_counter() - start)
            if len(walls) == 1 and enabled:
                for n, path in ((1, work / "traced1.smellsnap.jsonl"), (2, work / "traced2.smellsnap.jsonl")):
                    run.checker.snapshot(path, n)
                run.checker.reports(work / "traced-reports")
    tracer.enabled = True

    def per_pass(name: str, scale: float) -> float:
        # Traced pass i recorded spans[marks[2i]:marks[2i + 1]].
        return statistics.median(scale * tracer.seconds(name, lo, hi)
                                 for lo, hi in zip(marks[0::2], marks[1::2]))

    layer = {
        "corpus.rows_per_s": (1 / per_pass("corpus.load_targets", 1 / n1), "rows/s"),
        "smells.detect_ms_per_url": (per_pass("smells.detect_all", 1000 / (n1 + n2)), "ms"),
        "smells.detect_us_per_kb": (per_pass("smells.detect_all", 1e6 / both_kb), "us/KB"),
        "smells.source_code_us_per_kb": (per_pass("smells.detect_source_code_disclosure", 1e6 / body_kb), "us/KB"),
        "smells.version_disclosure_us_per_kb": (per_pass("smells.detect_version_disclosure", 1e6 / body_kb), "us/KB"),
        "smells.other_detectors_us_per_url": (per_pass("smells.other_detectors", 1e6 / n1), "us"),
        "snapshot.save_us_per_url": (per_pass("snapshot.save", 1e6 / (n1 + n2)), "us"),
        "snapshot.load_us_per_url": (per_pass("snapshot.load", 1e6 / (n1 + n2)), "us"),
        "maintenance.diff_us_per_url": (per_pass("maintenance.diff_snapshots", 1e6 / union), "us"),
        "reports.prevalence_us_per_url": (per_pass("reports.prevalence", 1e6 / n1), "us"),
        "reports.leaks_us_per_url": (per_pass("reports.leaks", 1e6 / n1), "us"),
        "reports.hsts_us_per_url": (per_pass("reports.hsts", 1e6 / n1), "us"),
        "reports.correlate_us_per_url": (per_pass("reports.correlate", 1e6 / n1), "us"),
        "reports.export_ms": (per_pass("reports.export", 1000), "ms"),
    }
    metrics.update(layer)
    plain = statistics.median(plain_walls)
    metrics["trace.overhead_pct"] = (100 * (statistics.median(traced_walls) - plain) / plain, "%")

    one_row = work / "one-row.csv"
    header, first_row = run.corpora[1].read_text(encoding="utf-8").splitlines(keepends=True)[:2]
    one_row.write_text(header + first_row, encoding="utf-8")
    startups = []
    for _ in range(STARTUP_RUNS):
        with tracer.span("cli.scan_dry_run"):
            child = run_cli(["scan", "--corpus", one_row, "--out", "dry.smellsnap.jsonl", "--dry-run"],
                            run.env, work)
        run.attempted += 1
        run.failed += child.code != 0
        startups.append(child.wall)
    metrics["cli.startup_ms"] = (1000 * statistics.median(startups), "ms")
    tracer.write(spans_path)
    return metrics
