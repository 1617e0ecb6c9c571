"""Command-line entry point: scan, diff, report.

Exit codes: 0 success, 1 usage error, 2 scan finished with transport
errors on some targets, 3 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import reports as reports_mod
from .corpus import load_targets, write_rejects
from .maintenance import MaintenanceRecord, diff_snapshots
from .probe import ProbeConfig, probe_all
from .smells import SmellKind, detect_all
from .snapshot import Snapshot, SnapshotEntry, SnapshotIntegrityError, load, save

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARTIAL = 2
EXIT_IO = 3

PARALLELISM_ENV = "SMELLPROBE_PARALLELISM"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D102 - usage errors exit 1, not argparse's 2
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="smellprobe", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    scan = sub.add_parser("scan", help="probe a corpus and write a snapshot")
    scan.add_argument("--corpus", required=True, help="corpus file (csv or jsonl)")
    scan.add_argument("--corpus-format", choices=["csv", "jsonl"], default=None,
                      help="corpus format (default: by file extension)")
    scan.add_argument("--out", required=True, help="snapshot output path (.smellsnap.jsonl)")
    scan.add_argument("--id", default=None, help="snapshot id (default: output file stem)")
    scan.add_argument("--rejects", default=None,
                      help="rejects output path (default: <out>.rejects.jsonl)")
    scan.add_argument("--dry-run", action="store_true",
                      help="list target urls without probing")
    scan.add_argument("--json-auth-heuristic", action="store_true",
                      help="annotate 2xx findings whose JSON body looks like an auth error")
    scan.add_argument("--connect-timeout", type=float, default=10.0)
    scan.add_argument("--read-timeout", type=float, default=30.0)
    scan.add_argument("--retries", type=int, default=3)
    scan.add_argument("--retry-backoff", type=float, default=2.0)
    scan.add_argument("--max-redirects", type=int, default=10)
    scan.add_argument("--body-sample-limit", type=int, default=256 * 1024)
    scan.add_argument("--parallelism", type=int, default=16,
                      help=f"worker count (env {PARALLELISM_ENV} overrides)")
    scan.add_argument("--user-agent", default=None)
    scan.add_argument("--ca-bundle", default=None,
                      help="PEM trust roots used instead of the system store "
                           "(validation always stays on)")

    diff = sub.add_parser("diff", help="classify changes between two snapshots")
    diff.add_argument("snapshots", nargs=2, metavar="SNAPSHOT")
    diff.add_argument("--out", required=True, help="maintenance records output path")
    diff.add_argument("--format", choices=["jsonl", "csv"], default="jsonl")

    report = sub.add_parser("report", help="aggregate one or two snapshots into tables")
    report.add_argument("snapshots", nargs="+", metavar="SNAPSHOT")
    report.add_argument("--out-dir", required=True)
    report.add_argument("--format", choices=["csv", "json"], default="csv")
    report.add_argument("--corpus", default=None,
                        help="corpus file for group denominators (default: derived from snapshot)")
    report.add_argument("--corpus-format", choices=["csv", "jsonl"], default=None)

    return parser


def _probe_config(args: argparse.Namespace) -> ProbeConfig:
    parallelism = args.parallelism
    env_value = os.environ.get(PARALLELISM_ENV)
    if env_value:
        try:
            parallelism = int(env_value)
        except ValueError:
            raise UsageError(f"{PARALLELISM_ENV} must be an integer, got {env_value!r}") from None
    kwargs = {
        "connect_timeout": args.connect_timeout,
        "read_timeout": args.read_timeout,
        "retries": args.retries,
        "retry_backoff": args.retry_backoff,
        "max_redirects": args.max_redirects,
        "body_sample_limit": args.body_sample_limit,
        "parallelism": parallelism,
        "ca_bundle": args.ca_bundle,
    }
    if args.user_agent:
        kwargs["user_agent"] = args.user_agent
    if args.ca_bundle is not None:
        # Checked here, not when the first https exchange loads it, so a bad
        # path fails the scan once instead of failing every https URL.
        try:
            with open(args.ca_bundle, "rb"):
                pass
        except OSError as exc:
            raise UsageError(f"--ca-bundle {args.ca_bundle}: {exc.strerror or exc}") from None
    try:
        return ProbeConfig(**kwargs)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _corpus_format(path: str, explicit: str | None) -> str:
    if explicit:
        return explicit
    return "jsonl" if path.endswith((".jsonl", ".ndjson")) else "csv"


def _cmd_scan(args: argparse.Namespace) -> int:
    cfg = _probe_config(args)
    try:
        loaded = load_targets(args.corpus, format=_corpus_format(args.corpus, args.corpus_format))
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO

    if loaded.rejects:
        rejects_path = args.rejects or f"{args.out}.rejects.jsonl"
        write_rejects(loaded.rejects, rejects_path)
        print(f"rejected {len(loaded.rejects)} row(s) -> {rejects_path}", file=sys.stderr)
    if loaded.duplicates_collapsed:
        print(f"collapsed {loaded.duplicates_collapsed} duplicate url(s)", file=sys.stderr)

    if args.dry_run:
        for target in loaded.targets:
            print(target.url)
        return EXIT_OK

    pairs = probe_all(loaded.targets, cfg)
    entries = {}
    failed = 0
    for target, (result, chain) in zip(loaded.targets, pairs):
        report = detect_all(
            target, result, chain, json_auth_heuristic=args.json_auth_heuristic
        )
        entries[target.url] = SnapshotEntry(result=result, chain=chain, report=report)
        if not result.ok or not chain.terminal.ok:
            failed += 1

    snapshot = Snapshot(
        id=args.id or Path(args.out).stem,
        taken_at=datetime.now(timezone.utc),
        entries=entries,
    )
    try:
        save(snapshot, args.out)
    except OSError as exc:
        print(f"error: cannot write snapshot: {exc}", file=sys.stderr)
        return EXIT_IO

    _print_scan_summary(snapshot, failed)
    return EXIT_PARTIAL if failed else EXIT_OK


def _print_scan_summary(snapshot: Snapshot, failed: int) -> None:
    total = len(snapshot.entries)
    print(f"scanned {total} url(s); {failed} with transport errors")
    tally = {kind: 0 for kind in SmellKind}
    for entry in snapshot.entries.values():
        for kind in entry.report.kinds():
            tally[kind] += 1
    for kind in SmellKind:
        print(f"  {kind.value}: {tally[kind]} url(s)")


def _record_to_dict(record: MaintenanceRecord) -> dict:
    return {
        "after": record.after.raw if record.after else None,
        "annotations": list(record.annotations),
        "before": record.before.raw if record.before else None,
        "scenario": record.scenario.value if record.scenario else None,
        "unclassifiable_reason": (
            record.unclassifiable_reason.value if record.unclassifiable_reason else None
        ),
        "url": record.url,
    }


def write_maintenance_records(records, path: str | Path, format: str = "jsonl") -> None:
    path = Path(path)
    if format == "jsonl":
        with path.open("w", encoding="utf-8") as fh:
            for record in records:
                fh.write(json.dumps(_record_to_dict(record), sort_keys=True))
                fh.write("\n")
    else:
        columns = ["url", "scenario", "unclassifiable_reason", "before", "after", "annotations"]
        with path.open("w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=columns, lineterminator="\n")
            writer.writeheader()
            for record in records:
                data = _record_to_dict(record)
                data["annotations"] = "|".join(record.annotations)
                writer.writerow(data)


def _cmd_diff(args: argparse.Namespace) -> int:
    try:
        first = load(args.snapshots[0])
        second = load(args.snapshots[1])
    except (OSError, SnapshotIntegrityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        records = diff_snapshots(first, second)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        write_maintenance_records(records, args.out, args.format)
    except OSError as exc:
        print(f"error: cannot write records: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"classified {len(records)} url(s) -> {args.out}")
    return EXIT_OK


def _cmd_report(args: argparse.Namespace) -> int:
    if len(args.snapshots) > 2:
        raise UsageError("report takes one or two snapshots")
    try:
        snapshots = [load(p) for p in args.snapshots]
    except (OSError, SnapshotIntegrityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO

    primary = snapshots[0]
    if args.corpus:
        try:
            loaded = load_targets(
                args.corpus, format=_corpus_format(args.corpus, args.corpus_format)
            )
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_IO
        corpus = loaded.targets
    else:
        corpus = tuple(entry.result.target for entry in primary.entries.values())

    out_dir = Path(args.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        ext = args.format
        reports_mod.export(
            reports_mod.prevalence(primary, corpus), out_dir / f"prevalence.{ext}", args.format
        )
        reports_mod.export(
            reports_mod.leak_breakdown(primary), out_dir / f"leaks.{ext}", args.format
        )
        reports_mod.export(
            reports_mod.hsts_stats(primary), out_dir / f"hsts.{ext}", args.format
        )
        if len(snapshots) == 2:
            records = diff_snapshots(primary, snapshots[1])
            write_maintenance_records(records, out_dir / "maintenance.jsonl", "jsonl")
            # The first snapshot's count wins (it is read last); a URL new in
            # the second snapshot takes its count from there.
            smell_counts = {
                url: len(entry.report.findings)
                for snapshot in reversed(snapshots)
                for url, entry in snapshot.entries.items()
            }
            matrix = reports_mod.correlate(smell_counts, records)
            reports_mod.export(matrix, out_dir / f"correlation.{ext}", args.format)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO

    print(f"reports written to {out_dir}")
    return EXIT_OK


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EXIT_USAGE

    try:
        if args.command == "scan":
            return _cmd_scan(args)
        if args.command == "diff":
            return _cmd_diff(args)
        if args.command == "report":
            return _cmd_report(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    raise AssertionError("unreachable")


def console_main() -> None:
    sys.exit(run())
