"""Snapshot persistence: one scan run serialized as canonical JSONL.

Line 1 is a header record ``{entries, id, schema, taken_at, tool_version}``;
each following line is one URL's record ``{url, result, redirects, report}``:
the first exchange with its target, each later exchange of the redirect
chain, and the smell report.  No exchange is stored twice and nothing
derived from the chain is stored.  Entries are sorted by URL and objects
are dumped with sorted keys, so equal snapshots are byte-identical files.
``load`` also reads schema 1 (see ``_v1_chain``); it never touches the
network.
"""

from __future__ import annotations

import base64
import json
import os
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from pathlib import Path
from urllib.parse import urlsplit

from .corpus import DeclaredFormat, ProbeTarget, SourceModel
from .probe import TOOL_VERSION, BodyFormat, ProbeResult, RedirectChain, Scheme
from .smells import LeakCategory, LeakRecord, Locus, SmellFinding, SmellKind, SmellReport


class SnapshotIntegrityError(Exception):
    """Raised when a snapshot file is corrupt; names the first bad record."""


SCHEMA = 2  # what serialize() writes; load() also reads schema 1


@dataclass(frozen=True)
class SnapshotEntry:
    result: ProbeResult
    chain: RedirectChain
    report: SmellReport

    def __post_init__(self) -> None:
        if self.result != self.chain.result:
            raise ValueError("result must be the first exchange of the chain")


@dataclass(frozen=True)
class Snapshot:
    id: str
    taken_at: datetime
    entries: dict[str, SnapshotEntry]

    def __post_init__(self) -> None:
        if self.taken_at.tzinfo is None:
            raise ValueError("taken_at must be timezone-aware")
        for url, entry in self.entries.items():
            if entry.result.target.url != url:
                raise ValueError(f"entry key {url!r} does not match its target url")


def _iso(ts: datetime) -> str:
    return ts.astimezone(timezone.utc).isoformat()


def _target_to_dict(target: ProbeTarget) -> dict:
    return {
        "app_id": target.app_id,
        "declared_format": target.declared_format.value if target.declared_format else None,
        "source_model": target.source_model.value,
        "url": target.url,
    }


def _target_from_dict(data: dict) -> ProbeTarget:
    declared = data.get("declared_format")
    return ProbeTarget(
        url=data["url"],
        app_id=data["app_id"],
        source_model=SourceModel(data["source_model"]),
        declared_format=DeclaredFormat(declared) if declared else None,
    )


def _result_to_dict(result: ProbeResult) -> dict:
    """One exchange without its target, which the record stores once."""
    return {
        "body_b64": base64.b64encode(result.body_sample).decode("ascii"),
        "body_format": result.body_format.value,
        "headers": [[n, v] for n, v in result.headers],
        "scheme_used": result.scheme_used.value,
        "status": result.status,
        "timestamp": _iso(result.timestamp),
        "transport_error": result.transport_error,
        "url": result.url,
    }


def _result_from_dict(data: dict, target: ProbeTarget) -> ProbeResult:
    return ProbeResult(
        target=target,
        url=data["url"],
        timestamp=datetime.fromisoformat(data["timestamp"]),
        scheme_used=Scheme(data["scheme_used"]),
        status=data["status"],
        headers=tuple((n, v) for n, v in data["headers"]),
        body_sample=base64.b64decode(data["body_b64"]),
        body_format=BodyFormat(data["body_format"]),
        transport_error=data["transport_error"],
    )


def _v1_chain(result: ProbeResult, data: dict) -> RedirectChain:
    """Rebuild a schema-1 chain and check it against the values stored with it.

    Schema 1 kept the first and the terminal exchange in full and each
    redirect only as a hop ``[url, status, location]``, so a hop between
    them comes back with that status, a location header, no body and the
    first exchange's timestamp.
    """
    hops = data["hops"]
    terminal = _result_from_dict(data["terminal"], _target_from_dict(data["terminal"]["target"]))
    count = max(1, len(hops) + (terminal.redirect_location is None))
    middle = tuple(
        replace(result, url=url, scheme_used=Scheme(urlsplit(url).scheme), status=status,
                headers=(("location", location),), body_sample=b"", body_format=BodyFormat.EMPTY)
        for url, status, location in hops[1 : count - 1]
    )
    chain = RedirectChain((result, *middle, terminal) if count > 1 else (result,))
    stored = hops, terminal, data["chain_length"], data["downgrade_hops"], data["loop_detected"]
    if stored != (
        [[h.url, h.status, h.redirect_location] for h in chain.hops],
        chain.terminal, chain.chain_length, chain.downgrade_hops, chain.loop_detected,
    ):
        raise ValueError("schema-1 chain disagrees with its stored hops, terminal or counts")
    return chain


def _report_to_dict(report: SmellReport) -> dict:
    return {
        "findings": [
            {
                "evidence": [[locus.value, excerpt] for locus, excerpt in f.evidence],
                "kind": f.kind.value,
                "subflags": sorted(f.subflags),
                "url": f.url,
            }
            for f in report.findings
        ],
        "leaks": [
            {
                "category": leak.category.value,
                "locus": leak.locus,
                "software": leak.software,
                "version": leak.version,
            }
            for leak in report.leaks
        ],
        "url": report.url,
    }


def _report_from_dict(data: dict) -> SmellReport:
    findings = tuple(
        SmellFinding(
            kind=SmellKind(f["kind"]),
            url=f["url"],
            evidence=tuple((Locus(locus), excerpt) for locus, excerpt in f["evidence"]),
            subflags=frozenset(f["subflags"]),
        )
        for f in data["findings"]
    )
    leaks = tuple(
        LeakRecord(
            category=LeakCategory(leak["category"]),
            software=leak["software"],
            version=leak["version"],
            locus=leak["locus"],
        )
        for leak in data["leaks"]
    )
    return SmellReport(url=data["url"], findings=findings, leaks=leaks)


def _dump(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def serialize(snapshot: Snapshot) -> str:
    """Canonical text form of a snapshot (what save() writes)."""
    lines = [
        _dump(
            {
                "entries": len(snapshot.entries),
                "id": snapshot.id,
                "schema": SCHEMA,
                "taken_at": _iso(snapshot.taken_at),
                "tool_version": TOOL_VERSION,
            }
        )
    ]
    for url in sorted(snapshot.entries):
        entry = snapshot.entries[url]
        lines.append(
            _dump(
                {
                    "redirects": [_result_to_dict(e) for e in entry.chain.exchanges[1:]],
                    "report": _report_to_dict(entry.report),
                    "result": {
                        **_result_to_dict(entry.result),
                        "target": _target_to_dict(entry.result.target),
                    },
                    "url": url,
                }
            )
        )
    return "\n".join(lines) + "\n"


def save(snapshot: Snapshot, path: str | Path) -> None:
    """Write the snapshot so that a crash leaves either the old file or the new one.

    The text goes to a temporary file beside ``path``, which then replaces
    it; a failed write removes the temporary file and leaves ``path`` as it
    was.
    """
    path = Path(path)
    text = serialize(snapshot)
    temporary = path.with_name(f".{path.name}.{os.getpid()}-{os.urandom(4).hex()}.tmp")
    try:
        with temporary.open("x", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(temporary, path)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise


def load(path: str | Path) -> Snapshot:
    """Reload a snapshot of schema 2 or 1, verifying record structure and the entry count."""
    text = Path(path).read_text(encoding="utf-8")
    lines = text.splitlines()
    if not lines:
        raise SnapshotIntegrityError("record 0: empty snapshot file")
    try:
        header = json.loads(lines[0])
        snapshot_id = header["id"]
        taken_at = datetime.fromisoformat(header["taken_at"])
        declared = int(header["entries"])
        schema = header.get("schema", 1)
    except (ValueError, KeyError, TypeError) as exc:
        raise SnapshotIntegrityError(f"record 0: bad header ({exc})") from exc
    if type(schema) is not int or schema not in (1, SCHEMA):
        raise SnapshotIntegrityError(f"record 0: unknown schema {schema!r}")

    entries: dict[str, SnapshotEntry] = {}
    for number, line in enumerate(lines[1:], start=1):
        try:
            data = json.loads(line)
            url = data["url"]
            target = _target_from_dict(data["result"]["target"])
            result = _result_from_dict(data["result"], target)
            if schema == 1:
                chain = _v1_chain(result, data["chain"])
            else:
                redirects = (_result_from_dict(e, target) for e in data["redirects"])
                chain = RedirectChain((result, *redirects))
            report = _report_from_dict(data["report"])
            entry = SnapshotEntry(result=result, chain=chain, report=report)
        except (ValueError, KeyError, TypeError) as exc:
            raise SnapshotIntegrityError(f"record {number}: {exc}") from exc
        if entry.result.target.url != url:
            raise SnapshotIntegrityError(f"record {number}: key does not match target url")
        if url in entries:
            raise SnapshotIntegrityError(f"record {number}: duplicate url {url!r}")
        entries[url] = entry

    if len(entries) != declared:
        raise SnapshotIntegrityError(
            f"record {len(entries) + 1}: expected {declared} entries, found {len(entries)}"
        )
    return Snapshot(id=snapshot_id, taken_at=taken_at, entries=entries)
