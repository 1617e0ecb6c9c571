"""Shared builders and independent oracles used across the test suite."""

from __future__ import annotations

import json
import random
import signal
import socket
import threading
import time
from contextlib import contextmanager, suppress
from datetime import datetime, timedelta, timezone
from pathlib import Path
from queue import SimpleQueue

import pytest

from smellprobe.model import (
    DeclaredFormat,
    LeakCategory,
    LeakRecord,
    Locus,
    ProbeResult,
    ProbeTarget,
    RedirectChain,
    SmellFinding,
    SmellKind,
    SmellReport,
    SourceModel,
)
from smellprobe.probe import ProbeConfig
from smellprobe.snapshot import Snapshot, SnapshotEntry

EPOCH = datetime(2024, 1, 1, tzinfo=timezone.utc)

# CPU seconds allowed for one hostile input, such as a body as long as a scan
# keeps (probe.BODY_SAMPLE_LIMIT, 256 KiB).  Recorded: the whole framework
# table takes 3-15 ms on such bodies on a 2-CPU host,
# while the PHP regexes took 1.2 s on 8.4 KB of "Warning: x in " and grow
# cubically.
ADVERSARIAL_BUDGET_S = 0.5
# A block still running at this multiple of its budget is stopped: a
# quadratic pattern on a body of probe.BODY_SAMPLE_LIMIT bytes would run for
# about an hour.
_STALL_FACTOR = 10


@contextmanager
def within_cpu_budget(what: str):
    """Fail, naming ``what``, when the block takes ADVERSARIAL_BUDGET_S CPU seconds or more.

    A SIGPROF timer stops a block that stalls at ``_STALL_FACTOR`` times the
    budget.  A watchdog thread could not: ``re`` holds the GIL while it matches.
    """
    limit = ADVERSARIAL_BUDGET_S * _STALL_FACTOR

    def stalled(signum, frame):
        pytest.fail(f"{what}: still running after {limit} s of CPU")

    previous = signal.signal(signal.SIGPROF, stalled)
    signal.setitimer(signal.ITIMER_PROF, limit)
    start = time.process_time()
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, previous)
    elapsed = time.process_time() - start
    assert elapsed < ADVERSARIAL_BUDGET_S, f"{what}: {elapsed:.2f} s of CPU"


class ScriptedServer:
    """A loopback listener that answers every connection with the bytes of ``reply``, then closes it.

    For each connection it first reads the request head, up to the blank line
    that ends it or until the client closes, and puts what it read on
    ``requests``: ``b""`` for a client that connected and sent nothing.
    ``reply`` may be changed between connections.  Connections are served one
    at a time.  Use it in a ``with`` block, which stops the listener.
    """

    def __init__(self, reply: bytes = b"", host: str = "127.0.0.1"):
        self.reply = reply
        self.requests: SimpleQueue = SimpleQueue()
        family = socket.AF_INET6 if ":" in host else socket.AF_INET
        try:
            self._listener = socket.create_server((host, 0), family=family)
        except OSError:
            pytest.skip(f"no loopback listener on {host}")
        self._listener.settimeout(0.05)  # how often the loop looks at _stopping
        self.address = self._listener.getsockname()[:2]
        self._stopping = False
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def url(self, path: str = "/") -> str:
        host, port = self.address
        return f"http://{f'[{host}]' if ':' in host else host}:{port}{path}"

    def _serve(self) -> None:
        while not self._stopping:
            try:
                conn, _ = self._listener.accept()
            except TimeoutError:
                continue
            with conn:
                conn.settimeout(5)
                head = b""
                with suppress(OSError):
                    while b"\r\n\r\n" not in head and (chunk := conn.recv(65536)):
                        head += chunk
                self.requests.put(head)
                # A client that stops reading (a body past the cap, a bad line)
                # resets the connection.
                with suppress(OSError):
                    conn.sendall(self.reply)

    def __enter__(self) -> "ScriptedServer":
        return self

    def __exit__(self, *exc) -> None:
        self._stopping = True
        self._thread.join()
        self._listener.close()


def replaced(record, **changes):
    """A copy of ``record`` with ``changes``, built by its constructor, which checks it again."""
    return type(record)(**{name: getattr(record, name) for name in record._fields} | changes)


def fast_cfg(**overrides) -> ProbeConfig:
    defaults = dict(
        connect_timeout=3.0,
        read_timeout=3.0,
        retries=0,
        retry_backoff=0.05,
        parallelism=8,
    )
    defaults.update(overrides)
    return ProbeConfig(**defaults)


def make_target(
    url: str,
    app_id: str = "app-1",
    model: SourceModel = SourceModel.OPEN_SOURCE,
    declared: DeclaredFormat | None = None,
) -> ProbeTarget:
    return ProbeTarget(url=url, app_id=app_id, source_model=model, declared_format=declared)


def make_result(
    target: ProbeTarget,
    *,
    status: int | None = 200,
    headers: tuple[tuple[str, str], ...] = (),
    body: bytes = b"",
    error: str | None = None,
    url: str | None = None,
    timestamp: datetime | None = None,
) -> ProbeResult:
    return ProbeResult(
        target=target,
        url=url or target.url,
        timestamp=timestamp or EPOCH,
        status=None if error else status,
        headers=tuple((n.lower(), v) for n, v in headers),
        body_sample=body,
        transport_error=error,
    )


def direct_chain(result: ProbeResult) -> RedirectChain:
    """Chain for a target that answered without redirecting."""
    return RedirectChain((result,))


def make_finding(kind: SmellKind, url: str, subflags: frozenset[str] = frozenset()) -> SmellFinding:
    return SmellFinding(
        kind=kind,
        evidence=((Locus.URL, url),),
        subflags=subflags,
    )


def build_entry(
    url: str,
    *,
    app_id: str = "app-1",
    model: SourceModel = SourceModel.OPEN_SOURCE,
    declared: DeclaredFormat | None = None,
    server: str | None = None,
    status: int | None = 200,
    error: str | None = None,
    kinds: tuple[SmellKind, ...] = (),
    findings: tuple[SmellFinding, ...] | None = None,
    leaks: tuple[LeakRecord, ...] = (),
    headers: tuple[tuple[str, str], ...] = (),
    body: bytes = b"",
) -> SnapshotEntry:
    target = make_target(url, app_id=app_id, model=model, declared=declared)
    all_headers = tuple(headers)
    if server is not None:
        all_headers = (("server", server),) + all_headers
    result = make_result(target, status=status, headers=all_headers, body=body, error=error)
    if findings is None:
        findings = tuple(make_finding(kind, url) for kind in kinds)
    report = SmellReport(findings=findings, leaks=leaks)
    return SnapshotEntry(result=result, chain=direct_chain(result), report=report)


def build_snapshot(
    entries: dict[str, SnapshotEntry],
    snapshot_id: str = "snap",
    taken_at: datetime | None = None,
) -> Snapshot:
    return Snapshot(id=snapshot_id, taken_at=taken_at or EPOCH, entries=entries)


def snapshot_pair(first: dict[str, SnapshotEntry], second: dict[str, SnapshotEntry]):
    return (
        build_snapshot(first, "s1", EPOCH),
        build_snapshot(second, "s2", EPOCH + timedelta(days=425)),
    )


# --- corrupt snapshots -------------------------------------------------------

SCHEMA4 = Path(__file__).parent / "data" / "schema4"
SCHEMA4_ROUND1 = SCHEMA4 / "round1.smellsnap.jsonl"


def _move_first_redirect(record: dict, url: str) -> None:
    record["redirects"][0]["url"] = url


def _relocate_first_redirect(record: dict, url: str) -> None:
    """Point the first exchange's Location at ``url`` and move the redirect there."""
    record["result"]["headers"][0] = ["location", url]
    _move_first_redirect(record, url)


# Changes to one record of SCHEMA4_ROUND1 that no writer of schema 4 makes, as
# ``(record number, change, what the error says after "record N: ")``.
# Record 0 is the header; record 1 has findings and leaks; record 11 stores
# its body as body_b64; record 17 redirects once, to /json.
SCHEMA4_CORRUPTIONS = {
    "redirect off the web": (
        17, lambda r: _move_first_redirect(r, "ftp://elsewhere/"),
        r"'ftp://elsewhere/' is not where the Location of 'http://127\.0\.0\.1:\d+/redirect-json' leads",
    ),
    "redirect to another host": (
        17, lambda r: _move_first_redirect(r, r["redirects"][0]["url"].replace("127.0.0.1", "127.0.0.2")),
        r"'http://127\.0\.0\.2:\d+/json' is not where the Location of",
    ),
    "extra record key": (1, lambda r: r.update(extra=[[[1]]]), r"record has keys \['extra', "),
    "extra first exchange key": (1, lambda r: r["result"].update(zzz=1), "first exchange has keys"),
    "extra target key": (1, lambda r: r["result"]["target"].update(url=r["url"]), "target has keys"),
    "extra redirect key": (17, lambda r: r["redirects"][0].update(scheme_used="http"), "redirect has keys"),
    "extra report key": (1, lambda r: r["report"].update(url=r["url"]), "report has keys"),
    "extra finding key": (1, lambda r: r["report"]["findings"][0].update(zzz=1), "finding has keys"),
    "extra leak key": (1, lambda r: r["report"]["leaks"][0].update(zzz=1), "leak has keys"),
    "missing leak key": (1, lambda r: r["report"]["leaks"][0].pop("version"), "leak has keys"),
    "target with a bad port": (
        1, lambda r: r.update(url="http://127.0.0.1:8x/"), r"bad port: '8x': 'http://127\.0\.0\.1:8x/'",
    ),
    "redirect to a bad port": (
        17, lambda r: _relocate_first_redirect(r, "https://127.0.0.1:8x/"),
        r"'https://127\.0\.0\.1:8x/' is not where the Location of 'http://127\.0\.0\.1:\d+/redirect-json' leads",
    ),
    "status a string": (1, lambda r: r["result"].update(status="200"), "status '200' is not a number"),
    "status a float": (1, lambda r: r["result"].update(status=200.0), "status 200.0 is not a number"),
    "status a boolean": (1, lambda r: r["result"].update(status=True), "status True is not a number"),
    "status out of range": (1, lambda r: r["result"].update(status=99999), "status 99999 is not a number"),
    "transport_error not a string": (
        1, lambda r: r["result"].update(status=None, transport_error=5), "transport_error 5 is not a string",
    ),
    "naive exchange timestamp": (
        1, lambda r: r["result"].update(timestamp=r["result"]["timestamp"].removesuffix("+00:00")),
        r"timestamp '[0-9T:.-]+' has no UTC offset",
    ),
    "header value not a string": (
        1, lambda r: r["result"].update(headers=[["server", 5]]), r"header \['server', 5\] is not a lowercase name",
    ),
    "header name not lowercase": (
        1, lambda r: r["result"].update(headers=[["Server", "nginx/1.14.1"]]), r"header \['Server', 'nginx/1\.14\.1'\]",
    ),
    "body_b64 not strict base64": (
        11, lambda r: r["result"].update(body_b64="*!\n" + r["result"]["body_b64"]), "Only base64 data is allowed",
    ),
    "leak software not a string": (
        1, lambda r: r["report"]["leaks"][0].update(software=5), "software 5 is not a non-empty string",
    ),
    "leak locus not a string": (
        1, lambda r: r["report"]["leaks"][0].update(locus=["server"]), r"locus \['server'\] is not a non-empty string",
    ),
    "leak version not a string": (
        1, lambda r: r["report"]["leaks"][1].update(version=1.14), "version 1.14 is not a string or None",
    ),
    "target app_id not a string": (
        1, lambda r: r["result"]["target"].update(app_id={"id": 0}), r"app_id \{'id': 0\} is not a non-empty string",
    ),
    "header entries a string": (0, lambda h: h.update(entries="43"), r"bad header \(entries '43' is not an integer\)"),
    "header entries a float": (0, lambda h: h.update(entries=43.5), r"bad header \(entries 43\.5 is not an integer\)"),
    "header id a number": (0, lambda h: h.update(id=5), r"bad header \(id 5 is not a string\)"),
    "header tool_version null": (
        0, lambda h: h.update(tool_version=None), r"bad header \(tool_version None is not a string\)",
    ),
    "evidence excerpt a list": (
        1, lambda r: r["report"]["findings"][0].update(evidence=[["url", ["x", 5]]]),
        r"evidence excerpt \['x', 5\] is not a string",
    ),
    "evidence item an object": (
        1, lambda r: r["report"]["findings"][0].update(evidence=[{"url": 1, "x": 2}]),
        "evidence item is dict, not a list",
    ),
    "declared_format zero": (
        1, lambda r: r["result"]["target"].update(declared_format=0), "0 is not a valid DeclaredFormat",
    ),
    "redirects a string": (1, lambda r: r.update(redirects=""), "redirects is str, not a list"),
    "headers an object": (1, lambda r: r["result"].update(headers={}), "headers is dict, not a list"),
    "header item a string": (1, lambda r: r["result"].update(headers=["ab"]), "headers item is str, not a list"),
    "findings a string": (1, lambda r: r["report"].update(findings=""), "findings is str, not a list"),
    "subflags an object": (
        1, lambda r: r["report"]["findings"][1].update(subflags={}), "subflags is dict, not a list",
    ),
    "leaks a string": (1, lambda r: r["report"].update(leaks=""), "leaks is str, not a list"),
    "missing record key": (1, lambda r: r.pop("redirects"), r"record has keys \['report', 'result', 'url'\]"),
    "missing first exchange key": (1, lambda r: r["result"].pop("timestamp"), "first exchange has keys"),
    "missing target key": (1, lambda r: r["result"]["target"].pop("source_model"), "target has keys"),
    "missing redirect key": (17, lambda r: r["redirects"][0].pop("status"), "redirect has keys"),
    "missing report key": (1, lambda r: r["report"].pop("leaks"), "report has keys"),
    "missing finding key": (1, lambda r: r["report"]["findings"][0].pop("subflags"), "finding has keys"),
    "body_text not ASCII": (1, lambda r: r["result"].update(body_text="café"), "'ascii' codec can't encode"),
    "body_text a number": (1, lambda r: r["result"].update(body_text=5), "body_text is int, not a string"),
    "source_model unknown": (
        1, lambda r: r["result"]["target"].update(source_model="closed"), "'closed' is not a valid SourceModel",
    ),
    "finding kind unknown": (
        1, lambda r: r["report"]["findings"][0].update(kind="weak_cipher"), "'weak_cipher' is not a valid SmellKind",
    ),
    "evidence locus unknown": (
        1, lambda r: r["report"]["findings"][0].update(evidence=[["cookie", "x"]]), "'cookie' is not a valid Locus",
    ),
    "leak category unknown": (
        1, lambda r: r["report"]["leaks"][0].update(category="cpu"), "'cpu' is not a valid LeakCategory",
    ),
    "subflag outside the kind's vocabulary": (
        1, lambda r: r["report"]["findings"][1].update(subflags=["loop"]),
        r"subflags \['loop'\] not in version_disclosure vocabulary",
    ),
    # Written only by development builds run with the former --json-auth-heuristic flag.
    "subflag of the removed json-auth heuristic": (
        1, lambda r: r["report"]["findings"][2].update(subflags=["json_auth_error_heuristic"]),
        r"subflags \['json_auth_error_heuristic'\] not in lack_of_access_control vocabulary",
    ),
    "finding without evidence": (
        1, lambda r: r["report"]["findings"][0].update(evidence=[]), "finding needs at least one piece of evidence",
    ),
    "version leak without a version": (
        1, lambda r: r["report"]["leaks"][1].update(version=None), "version leak records must carry a version",
    ),
    "status and transport_error both set": (
        1, lambda r: r["result"].update(transport_error="connection refused"),
        "exactly one of status and transport_error must be set",
    ),
    "neither status nor transport_error": (
        1, lambda r: r["result"].update(status=None), "exactly one of status and transport_error must be set",
    ),
    "exchange timestamp not ISO": (
        1, lambda r: r["result"].update(timestamp="yesterday"), "Invalid isoformat string: 'yesterday'",
    ),
    "redirect from an exchange with no Location": (
        17, lambda r: r["result"]["headers"].pop(0),
        r"'http://127\.0\.0\.1:\d+/json' is not where the Location of 'http://127\.0\.0\.1:\d+/redirect-json' leads",
    ),
    "redirect from an exchange that answered 200": (
        17, lambda r: r["result"].update(status=200),
        r"'http://127\.0\.0\.1:\d+/json' is not where the Location of 'http://127\.0\.0\.1:\d+/redirect-json' leads",
    ),
    "header taken_at naive": (
        0, lambda h: h.update(taken_at="2024-01-01T00:00:00"), r"taken_at '2024-01-01T00:00:00' has no UTC offset",
    ),
    # Schemas 1 to 3 were written only while the tool was built; the reader takes the integer 4 alone.
    "header schema absent": (0, lambda h: h.pop("schema"), "schema 1 is not read; this tool reads schema 4$"),
    "header schema 3": (0, lambda h: h.update(schema=3), "schema 3 is not read; this tool reads schema 4$"),
    "header schema a string": (0, lambda h: h.update(schema="4"), "schema '4' is not read; this tool reads schema 4$"),
    "header schema a float": (0, lambda h: h.update(schema=4.0), r"schema 4\.0 is not read; this tool reads schema 4$"),
    "header schema a boolean": (0, lambda h: h.update(schema=True), "schema True is not read; this tool reads schema 4$"),
}


def corrupt_schema4_round1(directory: Path, name: str) -> tuple[Path, str]:
    """A copy of SCHEMA4_ROUND1 in ``directory`` with the named corruption, and the error it gives."""
    number, change, message = SCHEMA4_CORRUPTIONS[name]
    lines = SCHEMA4_ROUND1.read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[number])
    change(record)
    lines[number] = json.dumps(record, sort_keys=True, separators=(",", ":"))
    path = directory / SCHEMA4_ROUND1.name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path, rf"record {number}: {message}"


# What a snapshot can say about one URL: not in the snapshot, probed but
# failed at the transport level, answered without a Server banner, or
# answered with one.
SIDE_STATES = ("missing", "failed", "bannerless", "banner")


def side_entry(url: str, state: str, server: str | None = None) -> SnapshotEntry | None:
    """One side of a maintenance pair in ``state``; ``server`` is the banner of a "banner" side."""
    if state == "missing":
        return None
    if state == "failed":
        return build_entry(url, status=None, error="connection refused")
    return build_entry(url, server=server if state == "banner" else None)


# --- independent oracles ----------------------------------------------------


def oracle_compare_versions(a: tuple[int, ...], b: tuple[int, ...], bound: int = 100) -> int:
    """Positional base-`bound` encoding; valid while every segment < bound."""
    width = max(len(a), len(b))
    value_a = sum(seg * bound ** (width - i - 1) for i, seg in enumerate(a + (0,) * (width - len(a))))
    value_b = sum(seg * bound ** (width - i - 1) for i, seg in enumerate(b + (0,) * (width - len(b))))
    return (value_a > value_b) - (value_a < value_b)


def recount_prevalence(snapshot: Snapshot, corpus) -> dict:
    """Naive per-cell recount over raw findings."""
    from smellprobe.reports import GroupKey, group_key

    cells = {}
    for group in GroupKey:
        for kind in SmellKind:
            urls_total = 0
            urls_affected = 0
            apps: set[str] = set()
            flagged_apps: set[str] = set()
            for target in corpus:
                entry = snapshot.entries[target.url]
                if group_key(target, entry.result) is not group:
                    continue
                urls_total += 1
                apps.add(target.app_id)
                if any(f.kind is kind for f in entry.report.findings):
                    urls_affected += 1
                    flagged_apps.add(target.app_id)
            cells[(group, kind)] = (urls_affected, urls_total, len(flagged_apps), len(apps))
    return cells


def recount_leaks(snapshot: Snapshot) -> dict:
    counts: dict = {}
    for entry in snapshot.entries.values():
        for leak in entry.report.leaks:
            key = (leak.category, leak.software.lower(), leak.locus)
            counts[key] = counts.get(key, 0) + 1
    return counts


def one_sided_outcome(before_state: str, after_state: str) -> tuple:
    """``(scenario, reason)`` for a pair with a banner on one side only, per the
    table of the ``smellprobe.maintenance`` docstring."""
    from smellprobe.maintenance import MaintenanceScenario as S, UnclassifiableReason as R

    return {
        ("banner", "bannerless"): (S.LEAK_CLOSED, None),
        ("banner", "failed"): (S.SERVER_SHUTDOWN, None),
        ("banner", "missing"): (None, R.SHUTDOWN_NO_COMPARISON),
        ("missing", "banner"): (S.SERVER_SPAWNED, None),
        ("bannerless", "banner"): (S.SERVER_SPAWNED, None),
        ("failed", "banner"): (None, R.SPAWNED_UNKNOWN_CONFIG),
    }[(before_state, after_state)]


def recount_correlation(smell_counts: dict[str, int], records) -> dict:
    cells: dict = {}
    for record in records:
        if record.scenario is None:
            continue
        key = (record.scenario, smell_counts[record.url])
        cells[key] = cells.get(key, 0) + 1
    return cells


_SOFTWARE_POOL = [
    ("nginx", "nginx/1.14.1"),
    ("apache", "Apache/2.4.41"),
    ("microsoft-iis", "Microsoft-IIS/10.0"),
    ("cloudflare", "cloudflare"),
    (None, None),
]


_HSTS_SUBFLAGS = (
    frozenset({"absent"}),
    frozenset({"short_max_age", "missing_preload"}),
    frozenset({"missing_include_subdomains"}),
)


def random_snapshot(rng: random.Random, n_urls: int = 30) -> tuple[Snapshot, tuple[ProbeTarget, ...]]:
    """A synthetic snapshot with randomized groups, findings, leaks, and Server banners."""
    entries: dict[str, SnapshotEntry] = {}
    corpus: list[ProbeTarget] = []
    for index in range(n_urls):
        scheme = rng.choice(["http", "https"])
        url = f"{scheme}://host{index}.example/api"
        app_id = f"app-{rng.randrange(max(2, n_urls // 3))}"
        model = rng.choice(list(SourceModel))
        declared = rng.choice([None, DeclaredFormat.JSON, DeclaredFormat.NON_JSON])
        kinds = tuple(kind for kind in SmellKind if rng.random() < 0.4)
        hsts_flags = _HSTS_SUBFLAGS[index % len(_HSTS_SUBFLAGS)]
        findings = tuple(
            make_finding(kind, url, hsts_flags if kind is SmellKind.MISSING_HSTS else frozenset())
            for kind in kinds
        )
        leaks = []
        banner = None
        if rng.random() < 0.5:
            name, banner = rng.choice(_SOFTWARE_POOL)
            if name is not None:
                leaks.append(LeakRecord(LeakCategory.SERVICE, name, None, "server"))
                if "/" in banner:
                    version = banner.split("/", 1)[1]
                    leaks.append(LeakRecord(LeakCategory.VERSION, name, version, "server"))
        if rng.random() < 0.2:
            leaks.append(LeakRecord(LeakCategory.OS, "Ubuntu", None, rng.choice(["server", "body"])))
        entry = build_entry(
            url,
            app_id=app_id,
            model=model,
            declared=declared,
            findings=findings,
            leaks=tuple(leaks),
            server=banner,
            body=b'{"a":1}' if rng.random() < 0.5 else b"<html></html>",
        )
        entries[url] = entry
        corpus.append(entry.result.target)
    return build_snapshot(entries), tuple(corpus)
