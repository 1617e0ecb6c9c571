"""Command-line entry point: scan, diff, report.

Exit codes: 0 success; 1 a command line that cannot run ("usage error: ...")
or two snapshots out of time order ("error: ..."); 2 a scan that met
transport errors on some targets; 3 a file, stdout included, that cannot be
read or written, or bad data in one ("error: ..."); 130 Ctrl-C; 143 SIGTERM.
"""

from __future__ import annotations

import argparse
import atexit
import csv
import gc
import json
import os
import signal
import sys
from collections.abc import Iterator
from contextlib import ExitStack, closing, contextmanager
from datetime import datetime, timezone
from pathlib import Path
from typing import TYPE_CHECKING

# Each command imports the modules it runs when it starts, so diff and report
# load no probe or detector code, and a dry run no detector or snapshot code.
if TYPE_CHECKING:
    from .maintenance import MaintenanceRecord
    from .probe import ProbeConfig

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARTIAL = 2
EXIT_IO = 3


class CommandError(Exception):
    """A command that cannot finish: ``run`` prints ``error: <message>`` and returns ``code``."""

    def __init__(self, message: str, code: int = EXIT_IO):
        super().__init__(message)
        self.code = code


class UsageError(CommandError):
    """A command line or option value that cannot run: ``usage error: <message>``, exit 1."""

    def __init__(self, message: str):
        super().__init__(message, EXIT_USAGE)


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D102 - usage errors exit 1, not argparse's 2
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="smellprobe", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    scan = sub.add_parser("scan", help="probe a corpus and write a snapshot")
    scan.add_argument("--corpus", required=True,
                      help="corpus file: JSONL if named *.jsonl or *.ndjson, else CSV")
    scan.add_argument("--out", required=True, help="snapshot output path (.smellsnap.jsonl)")
    scan.add_argument("--id", default=None, help="snapshot id (default: output file stem)")
    scan.add_argument("--rejects", default=None,
                      help="rejects output path (default: <out>.rejects.jsonl)")
    scan.add_argument("--dry-run", action="store_true",
                      help="list target urls without probing")
    # Probe flags default to None, meaning "not given": ProbeConfig's field
    # defaults are the only ones.
    scan.add_argument("--connect-timeout", type=float,
                      help="seconds to open a connection, TLS handshake included")
    scan.add_argument("--read-timeout", type=float,
                      help="seconds each read may wait once connected")
    scan.add_argument("--retries", type=int,
                      help="further attempts of an exchange after a retryable error")
    scan.add_argument("--retry-backoff", type=float, help="seconds to wait before each retry")
    scan.add_argument("--parallelism", type=int, help="worker count")
    scan.add_argument("--user-agent", help="User-Agent header of every request")
    scan.add_argument("--ca-bundle",
                      help="PEM trust roots used instead of the system store "
                           "(validation always stays on)")

    diff = sub.add_parser("diff", help="classify changes between two snapshots")
    diff.add_argument("snapshots", nargs=2, metavar="SNAPSHOT")
    diff.add_argument("--out", required=True,
                      help="maintenance records output path: CSV if named *.csv, else JSONL")

    report = sub.add_parser("report", help="aggregate one or two snapshots into tables")
    report.add_argument("snapshots", nargs="+", metavar="SNAPSHOT")
    report.add_argument("--out-dir", required=True)
    report.add_argument("--format", choices=["csv", "json"], default="csv")
    report.add_argument("--corpus", default=None,
                        help="corpus file for group denominators (default: derived from snapshot)")

    return parser


def _probe_config(args: argparse.Namespace) -> ProbeConfig:
    """The scan's ProbeConfig: each probe flag not given keeps its field default."""
    from .probe import ProbeConfig

    flags = {name: getattr(args, name) for name in ProbeConfig._fields}
    try:
        return ProbeConfig(**{name: value for name, value in flags.items() if value is not None})
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    except OSError as exc:  # loading ca_bundle is the one thing that opens a file
        raise UsageError(f"--ca-bundle {args.ca_bundle}: {exc.strerror or exc}") from None


def _cmd_scan(args: argparse.Namespace) -> int:
    from .corpus import load_targets, write_rejects

    # Made before the corpus is read, so a flag value or --ca-bundle that
    # cannot be used fails a dry run as it fails the scan.
    cfg = _probe_config(args)
    try:
        loaded = load_targets(args.corpus)
    except (OSError, ValueError) as exc:
        raise CommandError(str(exc)) from None

    if loaded.duplicates_collapsed:
        print(f"collapsed {loaded.duplicates_collapsed} duplicate url(s)", file=sys.stderr)
    if args.dry_run:
        if loaded.rejects:
            print(f"rejected {len(loaded.rejects)} row(s)", file=sys.stderr)
        for target in loaded.targets:
            print(target.url)
        return EXIT_OK

    from .model import SmellKind
    from .probe import probe_each
    from .smells import detect_all
    from .snapshot import SnapshotEntry, SnapshotSpool, replacing

    # The spool is created, and then the rejects written to a file beside
    # their path, before the first next(results) starts the workers: an --out
    # or --rejects that cannot be written fails the scan before it probes
    # anything.  The rejects replace their path only once the snapshot is
    # committed, so a scan that fails or is interrupted leaves both as they were.
    results = probe_each(loaded.targets, cfg)
    tally = {kind: 0 for kind in SmellKind}
    failed = 0
    try:
        with closing(results), SnapshotSpool(args.out) as spool, ExitStack() as rejects_file:
            if loaded.rejects:
                rejects_path = args.rejects or f"{args.out}.rejects.jsonl"
                with _writing_rejects():
                    write_rejects(loaded.rejects, rejects_file.enter_context(replacing(rejects_path)))
                print(f"rejected {len(loaded.rejects)} row(s) -> {rejects_path}", file=sys.stderr)
            for _, chain in results:
                result = chain.result
                report = detect_all(result.target, result, chain)
                spool.add(SnapshotEntry(result=result, chain=chain, report=report))
                for kind in report.kinds():
                    tally[kind] += 1
                if not result.ok or not chain.terminal.ok:
                    failed += 1
            total = spool.commit(args.id or Path(args.out).stem, datetime.now(timezone.utc))
            with _writing_rejects():
                rejects_file.close()
    except OSError as exc:
        raise CommandError(f"cannot write snapshot: {exc}") from None

    print(f"scanned {total} url(s); {failed} with transport errors")
    for kind in SmellKind:
        print(f"  {kind.value}: {tally[kind]} url(s)")
    return EXIT_PARTIAL if failed else EXIT_OK


@contextmanager
def _writing_rejects() -> Iterator[None]:
    try:
        yield
    except OSError as exc:
        raise CommandError(f"cannot write rejects: {exc}") from None


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


def write_maintenance_records(records, path: str | Path) -> int:
    """Write the records as they come, replacing ``path`` only once all are written.

    A ``path`` named ``*.csv`` gets CSV, any other JSONL.  Returns how many were
    written.  If ``records`` raises, ``path`` is left as it was.
    """
    from .snapshot import replacing

    count = 0
    with replacing(path) as fh:
        if str(path).endswith(".csv"):
            columns = ["url", "scenario", "unclassifiable_reason", "before", "after", "annotations"]
            writer = csv.DictWriter(fh, fieldnames=columns, lineterminator="\n")
            writer.writeheader()
            for count, record in enumerate(records, start=1):
                data = _record_to_dict(record)
                data["annotations"] = "|".join(record.annotations)
                writer.writerow(data)
        else:
            for count, record in enumerate(records, start=1):
                fh.write(json.dumps(_record_to_dict(record), sort_keys=True))
                fh.write("\n")
    return count


def _open_rounds(stack: ExitStack, paths: list[str]) -> list:
    """A reader per path, closed by ``stack``; two out of order fail the command with exit 1."""
    from .maintenance import require_chronological
    from .snapshot import iter_entries

    readers = [stack.enter_context(iter_entries(path)) for path in paths]
    try:
        if len(readers) == 2:
            require_chronological(readers[0].taken_at, readers[1].taken_at)
    except ValueError as exc:
        raise CommandError(str(exc), EXIT_USAGE) from None
    return readers


def _cmd_diff(args: argparse.Namespace) -> int:
    from .maintenance import diff_entries
    from .snapshot import SnapshotIntegrityError

    try:
        with ExitStack() as stack:
            rounds = _open_rounds(stack, args.snapshots)
            try:
                count = write_maintenance_records(diff_entries(*rounds), args.out)
            except OSError as exc:
                raise CommandError(f"cannot write records: {exc}") from None
    except (OSError, SnapshotIntegrityError) as exc:
        raise CommandError(str(exc)) from None
    print(f"classified {count} url(s) -> {args.out}")
    return EXIT_OK


def _cmd_report(args: argparse.Namespace) -> int:
    if len(args.snapshots) > 2:
        raise UsageError("report takes one or two snapshots")
    from .reports import export, tabulate
    from .snapshot import SnapshotIntegrityError

    out_dir = Path(args.out_dir)
    try:
        with ExitStack() as stack:
            rounds = _open_rounds(stack, args.snapshots)
            corpus = None
            if args.corpus:
                from .corpus import load_targets

                corpus = load_targets(args.corpus).targets
            tables, records = tabulate(*rounds, corpus=corpus)
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, table in tables.items():
            export(table, out_dir / f"{name}.{args.format}", args.format)
        if records is not None:
            write_maintenance_records(records, out_dir / "maintenance.jsonl")
    except (OSError, ValueError, SnapshotIntegrityError) as exc:
        raise CommandError(str(exc)) from None

    print(f"reports written to {out_dir}")
    return EXIT_OK


def _terminate(signum: int, frame: object) -> None:
    raise SystemExit(128 + signum)


def run(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code.

    Call it on the main thread: while the command runs, SIGTERM and SIGINT
    raise ``SystemExit(128 + signum)``, so ``kill`` or Ctrl-C unwinds it with
    no traceback and no spool or temporary file left, save a SIGINT ignored
    at the start, as in a background job.  Both handlers come back after.

    The process that calls this skips the interpreter's exit-time garbage
    collection, in-process callers included: at exit the collector ignores
    every object alive then, so no ``__del__`` of such an object runs
    (CPython does not promise one at exit either).
    """
    previous = {signal.SIGTERM: signal.signal(signal.SIGTERM, _terminate)}
    if signal.getsignal(signal.SIGINT) is not signal.SIG_IGN:
        previous[signal.SIGINT] = signal.signal(signal.SIGINT, _terminate)
    try:
        return _run(argv)
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)


def _run(argv: list[str] | None) -> int:
    # Every command closes and replaces each file it writes before it returns,
    # so the final collections and the freeing of every imported module are
    # work nobody can observe.  Closing probe_each joins the scan's worker
    # threads before run() returns, and atexit runs before the standard streams
    # are flushed; unregistering first keeps one registration however often
    # run() is called.
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    parser = _build_parser()
    args = None
    # The one place a failed command ends: its line on stderr, its exit code.
    try:
        args = parser.parse_args(argv)
        return {"scan": _cmd_scan, "diff": _cmd_diff, "report": _cmd_report}[args.command](args)
    except CommandError as exc:
        print(f"{'usage error' if isinstance(exc, UsageError) else 'error'}: {exc}", file=sys.stderr)
        if args is None:  # argparse refused the command line: its usage follows
            parser.print_usage(sys.stderr)
        return exc.code


class _Stdout:
    """The console script's stdout: a write or flush that fails ends the process with exit 3.

    A reader that has gone gets nothing on stderr, as the default SIGPIPE
    action would give it; any other error, such as a full disk, one line.
    """

    def __init__(self, stream):
        self.stream = stream

    def __getattr__(self, name: str):
        return getattr(self.stream, name)

    def write(self, text: str) -> int:
        return self._guard(self.stream.write, text)

    def flush(self) -> None:
        self._guard(self.stream.flush)

    def _guard(self, method, *args):
        try:
            return method(*args)
        except OSError as exc:
            if not isinstance(exc, BrokenPipeError):
                print(f"error: cannot write stdout: {exc}", file=sys.stderr)
            # As the Python signal docs advise: fd 1 goes to devnull, so that the
            # flush at exit cannot raise again.  A scan commits before it prints.
            os.dup2(os.open(os.devnull, os.O_WRONLY), self.stream.fileno())
            raise SystemExit(EXIT_IO) from None


def console_main() -> None:
    """Run as the console script, on a ``_Stdout``: exit 3, with no traceback, once stdout fails."""
    sys.stdout = _Stdout(sys.stdout)
    try:
        code = run()
    finally:  # here, and after --help too, so that a failed write never waits for exit
        sys.stdout.flush()
    sys.exit(code)


if __name__ == "__main__":
    console_main()
