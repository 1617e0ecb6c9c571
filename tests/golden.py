"""The fixture library's golden snapshot: how a scan of it is masked, and its one writer.

``test_snapshot_does_not_depend_on_parallelism_or_corpus_order`` scans every
profile of ``fixture_library`` and compares the masked snapshot with
``tests/data/golden/library.smellsnap.jsonl``; no test writes that file.  A
change that moves a stored result writes it again, from the repository root::

    PYTHONPATH=src python tests/golden.py

and the file's git diff is the list of records that moved.
"""

from __future__ import annotations

import re
import sys
import tempfile
from pathlib import Path

LIBRARY_GOLDEN = Path(__file__).parent / "data" / "golden" / "library.smellsnap.jsonl"
# What differs between two scans of the same servers: the header's taken_at,
# each exchange's timestamp and any Date header.
SCAN_TIMES = re.compile(rb'"(taken_at|timestamp)":"[^"]*"|\["date","[^"]*"\]')
_LOOPBACK_PORT = re.compile(rb"127\.0\.0\.1:(\d+)")


def library_rows(spawned) -> list[str]:
    """One corpus row per endpoint, its app id numbered in library order."""
    return [f"{ep.url('/')},app-{i},open_source," for i, ep in enumerate(spawned)]


def mask_library_scan(snapshot: bytes, spawned) -> bytes:
    """``snapshot`` with each port as ``<profile>-<scheme>``, its times masked, records sorted.

    URL order depends on the ports, so the records are sorted after the
    masking.  A port no endpoint of ``spawned`` holds raises ``KeyError``.
    """
    labels = {ep.port(scheme): f"{ep.profile.name}-{scheme}".encode()
              for ep in spawned for scheme in ep.profile.schemes}
    masked = _LOOPBACK_PORT.sub(lambda match: b"127.0.0.1:" + labels[int(match[1])], snapshot)
    header, *records = SCAN_TIMES.sub(b"T", masked).splitlines(keepends=True)
    return header + b"".join(sorted(records))


def write_library_golden() -> None:
    """Scan every fixture-library profile as the parallelism test's first scan does, and
    write the masked snapshot to ``LIBRARY_GOLDEN``."""
    import fixture_library
    from smellprobe.cli import EXIT_PARTIAL, run
    from smellprobe.harness import spawn

    spawned = [spawn(profile) for profile in fixture_library.profiles.values()]
    try:
        bundle = next(ep.ca_file for ep in spawned if ep.ca_file)
        with tempfile.TemporaryDirectory() as work:
            corpus, out = Path(work) / "library.csv", Path(work) / "library.smellsnap.jsonl"
            corpus.write_text("\n".join(["url,app_id,source_model,declared_format", *library_rows(spawned)])
                              + "\n", encoding="utf-8")
            code = run(["scan", "--corpus", str(corpus), "--out", str(out), "--ca-bundle", bundle,
                        "--parallelism", "1", "--retries", "0", "--id", "library"])
            if code != EXIT_PARTIAL:  # the endpoints that start down refuse
                sys.exit(f"scan exited {code}, not {EXIT_PARTIAL}")
            LIBRARY_GOLDEN.parent.mkdir(parents=True, exist_ok=True)
            LIBRARY_GOLDEN.write_bytes(mask_library_scan(out.read_bytes(), spawned))
    finally:
        for ep in spawned:
            ep.shutdown()


if __name__ == "__main__":
    write_library_golden()
