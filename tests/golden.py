"""The fixture library's golden outputs: how a scan of it is masked, and their one writer.

``test_snapshot_does_not_depend_on_parallelism_or_corpus_order`` scans every
profile of ``fixture_library``, applies its ``second_round`` steps and scans
again, then runs ``diff`` and ``report`` (CSV) on the two rounds.  It
compares the masked outputs with the files under ``tests/data/golden/``: the
two snapshots and the ``report`` directory, whose ``maintenance.jsonl`` is
also ``diff``'s output.  No test writes them.  A change that moves a stored
result writes them all again, from the repository root::

    PYTHONPATH=src python tests/golden.py

and the files' git diff is the list of records that moved.
"""

from __future__ import annotations

import re
import sys
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).parent / "data" / "golden"
LIBRARY_GOLDEN = GOLDEN / "library.smellsnap.jsonl"
LIBRARY_ROUND2 = GOLDEN / "library-round2.smellsnap.jsonl"
LIBRARY_REPORT = GOLDEN / "library-report"
# What differs between two scans of the same servers: the header's taken_at,
# each exchange's timestamp and any Date header.
SCAN_TIMES = re.compile(rb'"(taken_at|timestamp)":"[^"]*"|\["date","[^"]*"\]')
_LOOPBACK_PORT = re.compile(rb"127\.0\.0\.1:(\d+)")


def library_rows(spawned) -> list[str]:
    """One corpus row per endpoint, its app id numbered in library order."""
    return [f"{ep.url('/')},app-{i},open_source," for i, ep in enumerate(spawned)]


def second_round_rows(spawned) -> list[str]:
    """Apply each endpoint's ``second_round`` step; the rows of round 2, each dropped URL left out."""
    import fixture_library

    rows = []
    for row, ep in zip(library_rows(spawned), spawned):
        step = fixture_library.second_round.get(ep.profile.name)
        action = step.action if step else None
        if action == "drop":
            continue
        if action == "shutdown":
            ep.shutdown()
        elif step:
            ep.mutate(step.routes)
        if action == "start":
            ep.start()
        rows.append(row)
    return rows


def write_library_corpus(path: Path, rows: list[str]) -> None:
    path.write_text("\n".join(["url,app_id,source_model,declared_format", *rows]) + "\n", encoding="utf-8")


def _mask_ports(data: bytes, spawned) -> bytes:
    """``data`` with each port as ``<profile>-<scheme>``; a port no endpoint holds raises ``KeyError``."""
    labels = {ep.port(scheme): f"{ep.profile.name}-{scheme}".encode()
              for ep in spawned for scheme in ep.profile.schemes}
    return _LOOPBACK_PORT.sub(lambda match: b"127.0.0.1:" + labels[int(match[1])], data)


def mask_library_scan(snapshot: bytes, spawned) -> bytes:
    """``snapshot`` with its ports and times masked and its records sorted.

    URL order depends on the ports, so the records are sorted after the
    masking.
    """
    header, *records = SCAN_TIMES.sub(b"T", _mask_ports(snapshot, spawned)).splitlines(keepends=True)
    return header + b"".join(sorted(records))


def mask_library_report(out_dir: Path, spawned) -> dict[str, bytes]:
    """Each file of ``report``'s ``out_dir`` by name, ports masked, maintenance records sorted."""
    files = {}
    for path in sorted(out_dir.iterdir()):
        data = _mask_ports(path.read_bytes(), spawned)
        if path.suffix == ".jsonl":  # records in URL order, which the ports decide
            data = b"".join(sorted(data.splitlines(keepends=True)))
        files[path.name] = data
    return files


def write_library_golden() -> None:
    """Run the two rounds, ``diff`` and ``report`` as the parallelism test does, at one worker,
    and write every golden file."""
    import fixture_library
    from smellprobe.cli import EXIT_OK, EXIT_PARTIAL, run
    from smellprobe.harness import spawn

    spawned = [spawn(profile) for profile in fixture_library.profiles.values()]
    try:
        bundle = next(ep.ca_file for ep in spawned if ep.ca_file)
        with tempfile.TemporaryDirectory() as work:
            scans = []
            for name, rows in (("library", library_rows), ("library-round2", second_round_rows)):
                corpus, out = Path(work) / f"{name}.csv", Path(work) / f"{name}.smellsnap.jsonl"
                write_library_corpus(corpus, rows(spawned))
                code = run(["scan", "--corpus", str(corpus), "--out", str(out), "--ca-bundle", bundle,
                            "--parallelism", "1", "--retries", "0", "--id", name])
                if code != EXIT_PARTIAL:  # the endpoints that are down refuse
                    sys.exit(f"scan {name} exited {code}, not {EXIT_PARTIAL}")
                scans.append(str(out))
            reports = Path(work) / "report"
            if run(["report", *scans, "--out-dir", str(reports)]) != EXIT_OK:
                sys.exit("report failed")
            LIBRARY_REPORT.mkdir(parents=True, exist_ok=True)
            for golden, scan in zip((LIBRARY_GOLDEN, LIBRARY_ROUND2), scans):
                golden.write_bytes(mask_library_scan(Path(scan).read_bytes(), spawned))
            for name, data in mask_library_report(reports, spawned).items():
                (LIBRARY_REPORT / name).write_bytes(data)
    finally:
        for ep in spawned:
            ep.shutdown()


if __name__ == "__main__":
    write_library_golden()
