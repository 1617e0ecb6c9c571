"""Snapshot persistence: one scan run serialized as canonical JSONL.

Line 1 is a header record ``{entries, id, schema, taken_at, tool_version}``;
each following line is one URL's record ``{url, result, redirects, report}``:
the first exchange with its target, each later exchange of the redirect
chain, and the smell report.  No fact, not even the URL, is stored twice,
and nothing derived is stored.  A body is stored as ``body_text`` when it
is ASCII and its JSON string is no longer than its base64 form, and as
``body_b64`` otherwise.  Entries are sorted by URL and objects are dumped
with sorted keys, so equal snapshots are byte-identical files.

No function here holds a whole file: ``iter_entries`` reads one record at a
time, and ``SnapshotSpool``, the one writer, keeps a scan's records in a
spool file beside the output in the order they arrive and writes them out
in URL order; ``save`` adds a whole ``Snapshot`` to one.  ``scan`` creates
the spool before it sends a request, so an output path that cannot be
written fails the scan at once.  Reading a ``body_text`` costs a JSON
string parse and an ASCII encode, not a base64 decode.  Reading accepts
schema 4 alone, refuses an object with keys the writer does not write (the
``_*_KEYS`` tuples), and never touches the network.
"""

from __future__ import annotations

import base64
import errno
import json
import os
from collections.abc import Collection, Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import IO

from .model import (
    TOOL_VERSION,
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


class SnapshotIntegrityError(Exception):
    """Raised when a snapshot file is corrupt; names the first bad record."""


SCHEMA = 4  # what save() and SnapshotSpool write


@dataclass(frozen=True)
class SnapshotEntry:
    result: ProbeResult
    chain: RedirectChain
    report: SmellReport

    def __post_init__(self) -> None:
        if self.result != self.chain.result:
            raise ValueError("result must be the first exchange of the chain")

    @property
    def url(self) -> str:
        return self.result.target.url


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


# The keys of each object a schema-4 file holds.  The writer builds every
# object from these with _object, and the reader refuses an object with any
# other keys, whatever SCHEMA the writer has moved on to, so this is the one
# statement of the layout.  An exchange also holds one of body_text and
# body_b64 (see _body_to_dict).
_HEADER_KEYS = ("entries", "id", "schema", "taken_at", "tool_version")
_RECORD_KEYS = ("redirects", "report", "result", "url")
_EXCHANGE_KEYS = ("headers", "status", "timestamp", "transport_error")
_FIRST_EXCHANGE_KEYS = (*_EXCHANGE_KEYS, "target")
_TARGET_KEYS = ("app_id", "declared_format", "source_model")
_REDIRECT_KEYS = (*_EXCHANGE_KEYS, "url")
_REPORT_KEYS = ("findings", "leaks")
_FINDING_KEYS = ("evidence", "kind", "subflags")
_LEAK_KEYS = ("category", "locus", "software", "version")
_BODY_KEYS = frozenset({"body_text", "body_b64"})


def _object(keys: tuple[str, ...], *values) -> dict:
    """The object holding ``values`` under ``keys``, in that order."""
    return dict(zip(keys, values, strict=True))


def _target_to_dict(target: ProbeTarget) -> dict:
    return _object(
        _TARGET_KEYS,
        target.app_id,
        target.declared_format.value if target.declared_format else None,
        target.source_model.value,
    )


def _target_from_dict(data: dict, url: str) -> ProbeTarget:
    declared = data.get("declared_format")
    return ProbeTarget(
        url=url,
        app_id=data["app_id"],
        source_model=SourceModel(data["source_model"]),
        declared_format=None if declared is None else DeclaredFormat(declared),
    )


def _array(value: object, what: str) -> list:
    """``value`` if it is a JSON array, as every writer stores each sequence; else TypeError."""
    if type(value) is not list:
        raise TypeError(f"{what} is {type(value).__name__}, not a list")
    return value


def _pairs(value: object, what: str) -> tuple[tuple, ...]:
    """A JSON array of two-item arrays, such as ``headers``, as a tuple of pairs."""
    return tuple((a, b) for a, b in (_array(item, f"{what} item") for item in _array(value, what)))


# The ASCII bytes a JSON string holds as they are.  The quote, the backslash,
# the control characters and DEL are escaped: those in _SHORT_ESCAPES in two
# characters, the rest in six (\u00XX).
_JSON_PLAIN = bytes(c for c in range(0x20, 0x7F) if c not in b'"\\')
_SHORT_ESCAPES = b'"\\\b\f\n\r\t'


def _body_to_dict(body: bytes) -> dict:
    """``body_text`` for an ASCII body whose JSON string is no longer than its base64 form."""
    if body.isascii():
        escaped = body.translate(None, _JSON_PLAIN)
        text_length = len(body) + len(escaped) + 4 * len(escaped.translate(None, _SHORT_ESCAPES))
        if text_length <= 4 * ((len(body) + 2) // 3):
            return {"body_text": body.decode("ascii")}
    return {"body_b64": base64.b64encode(body).decode("ascii")}


def _body_from_dict(data: dict) -> bytes:
    if ("body_text" in data) == ("body_b64" in data):
        raise ValueError("an exchange stores exactly one of body_text and body_b64")
    if "body_b64" in data:
        return base64.b64decode(data["body_b64"], validate=True)
    text = data["body_text"]
    if not isinstance(text, str):
        raise TypeError(f"body_text is {type(text).__name__}, not a string")
    return text.encode("ascii")


def _exchange_to_dict(result: ProbeResult, keys: tuple[str, ...], last: object) -> dict:
    """One exchange with ``last``, its target or its URL, as the last of ``keys``."""
    return {
        **_body_to_dict(result.body_sample),
        **_object(
            keys,
            [[n, v] for n, v in result.headers],
            result.status,
            _iso(result.timestamp),
            result.transport_error,
            last,
        ),
    }


def _result_from_dict(data: dict, target: ProbeTarget, url: str) -> ProbeResult:
    return ProbeResult(
        target=target,
        url=url,
        timestamp=datetime.fromisoformat(data["timestamp"]),
        status=data["status"],
        headers=_pairs(data["headers"], "headers"),
        body_sample=_body_from_dict(data),
        transport_error=data["transport_error"],
    )


def _report_to_dict(report: SmellReport) -> dict:
    findings = [
        _object(
            _FINDING_KEYS,
            [[locus.value, excerpt] for locus, excerpt in f.evidence],
            f.kind.value,
            sorted(f.subflags),
        )
        for f in report.findings
    ]
    leaks = [
        _object(_LEAK_KEYS, leak.category.value, leak.locus, leak.software, leak.version)
        for leak in report.leaks
    ]
    return _object(_REPORT_KEYS, findings, leaks)


def _report_from_dict(data: dict) -> SmellReport:
    findings = tuple(
        SmellFinding(
            kind=SmellKind(f["kind"]),
            evidence=tuple((Locus(locus), text) for locus, text in _pairs(f["evidence"], "evidence")),
            subflags=frozenset(_array(f["subflags"], "subflags")),
        )
        for f in _array(data["findings"], "findings")
    )
    leaks = tuple(
        LeakRecord(
            category=LeakCategory(leak["category"]),
            software=leak["software"],
            version=leak["version"],
            locus=leak["locus"],
        )
        for leak in _array(data["leaks"], "leaks")
    )
    return SmellReport(findings=findings, leaks=leaks)


def _dump(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _header_line(snapshot_id: str, taken_at: datetime, count: int) -> str:
    header = _object(_HEADER_KEYS, count, snapshot_id, SCHEMA, _iso(taken_at), TOOL_VERSION)
    return _dump(header) + "\n"


def _record_line(entry: SnapshotEntry) -> str:
    record = _object(
        _RECORD_KEYS,
        [_exchange_to_dict(e, _REDIRECT_KEYS, e.url) for e in entry.chain.exchanges[1:]],
        _report_to_dict(entry.report),
        _exchange_to_dict(entry.result, _FIRST_EXCHANGE_KEYS, _target_to_dict(entry.result.target)),
        entry.url,
    )
    return _dump(record) + "\n"


def _create_beside(path: Path, suffix: str, mode: str, **kwargs) -> tuple[Path, IO]:
    """Create a fresh hidden file in the directory of ``path``: its name and the open file.

    An ``OSError`` of the open names ``path``, the file the caller asked for,
    not the hidden one; a ``path`` no file can replace, a directory, raises
    ``IsADirectoryError`` here, before any work.
    """
    if path.is_dir():
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    hidden = path.with_name(f".{path.name}.{os.getpid()}-{os.urandom(4).hex()}.{suffix}")
    try:
        return hidden, hidden.open(mode, **kwargs)
    except OSError as exc:
        raise type(exc)(exc.errno, exc.strerror, str(path)) from None


@contextmanager
def replacing(path: str | Path, binary: bool = False) -> Iterator[IO]:
    """Write a file so that a crash leaves either the old file or the new one.

    The block writes to a temporary file beside ``path`` (UTF-8 text without
    newline translation, or bytes), which replaces ``path`` when the block
    ends; if it raises, the temporary file is removed and ``path`` is left
    as it was.  The file is not fsynced, so this guards against a crashed or
    interrupted process, not against power loss.
    """
    text = {} if binary else {"encoding": "utf-8", "newline": ""}
    temporary, fh = _create_beside(Path(path), "tmp", "xb" if binary else "x", **text)
    try:
        with fh:
            yield fh
        os.replace(temporary, path)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise


class SnapshotSpool:
    """A scan's records in the order they arrive, written out as a snapshot.

    The spool file beside ``path`` is created when the spool is, so a
    directory that is missing or not writable, or a ``path`` that is a
    directory, fails before any work.
    ``add`` appends a record to it and keeps only the URL, offset and
    length; ``commit`` writes the header and then the records in URL order
    to a temporary file that replaces ``path``.  ``close`` (the end of a
    ``with`` block) deletes the spool file, so a scan that fails or is
    interrupted leaves ``path`` as it was and nothing beside it.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._spool_path, self._file = _create_beside(self.path, "spool", "xb+")
        self._index: dict[str, tuple[int, int]] = {}
        self._end = 0  # the spool's length, kept so ``add`` makes no seek call

    def add(self, entry: SnapshotEntry) -> None:
        line = _record_line(entry).encode("ascii")
        self._index[entry.url] = (self._end, len(line))
        self._file.write(line)
        self._end += len(line)

    def commit(self, snapshot_id: str, taken_at: datetime) -> int:
        """Write the snapshot to ``path``; returns its entry count."""
        if taken_at.tzinfo is None:
            raise ValueError("taken_at must be timezone-aware")

        with replacing(self.path, binary=True) as fh:
            fh.write(_header_line(snapshot_id, taken_at, len(self._index)).encode("ascii"))
            for url in sorted(self._index):
                offset, length = self._index[url]
                self._file.seek(offset)
                fh.write(self._file.read(length))
        return len(self._index)

    def close(self) -> None:
        self._file.close()
        self._spool_path.unlink(missing_ok=True)

    def __enter__(self) -> "SnapshotSpool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def save(snapshot: Snapshot, path: str | Path) -> None:
    """Write the snapshot through a ``SnapshotSpool``, replacing ``path`` atomically."""
    with SnapshotSpool(path) as spool:
        for entry in snapshot.entries.values():
            spool.add(entry)
        spool.commit(snapshot.id, snapshot.taken_at)


# A corrupt record raises one of these while it is parsed; json.loads raises
# RecursionError on a line nested deeper than the stack allows.
_RECORD_ERRORS = (ValueError, KeyError, TypeError, AttributeError, RecursionError)


def _check_keys(what: str, obj: dict, keys: Collection[str]) -> None:
    """Refuse an object whose keys are not those the writer builds it from."""
    if obj.keys() != set(keys):
        raise ValueError(f"{what} has keys {sorted(obj)}, not {sorted(keys)}")


def _header_from_line(line: bytes) -> tuple[str, datetime, int]:
    """(id, taken_at, declared entry count) of a schema-4 header line."""
    if not line:
        raise SnapshotIntegrityError("record 0: empty snapshot file")
    try:
        header = json.loads(line)
        snapshot_id = header["id"]
        taken_at = datetime.fromisoformat(header["taken_at"])
        declared = header["entries"]
        if type(declared) is not int:
            raise ValueError(f"entries {declared!r} is not an integer")
        schema = header.get("schema", 1)  # schema 1 wrote no schema key
        if type(schema) is not int or schema != 4:
            raise SnapshotIntegrityError(f"record 0: schema {schema!r} is not read; this tool reads schema 4")
        _check_keys("header", header, _HEADER_KEYS)
        for key in ("id", "tool_version"):
            if not isinstance(header[key], str):
                raise ValueError(f"{key} {header[key]!r} is not a string")
    except _RECORD_ERRORS as exc:
        raise SnapshotIntegrityError(f"record 0: bad header ({exc})") from exc
    if taken_at.tzinfo is None:
        # Every writer stores UTC; a naive time cannot be ordered against it.
        raise SnapshotIntegrityError(f"record 0: taken_at {header['taken_at']!r} has no UTC offset")
    return snapshot_id, taken_at, declared


def _entry_from_record(data: dict) -> SnapshotEntry:
    # Each object's keys are checked before those of the objects inside it.  An
    # exchange's keys include whichever of body_text and body_b64 it holds;
    # _body_from_dict checks that it holds one.
    first, report = data.get("result"), data.get("report")
    _check_keys("record", data, _RECORD_KEYS)
    _check_keys("first exchange", first, (first.keys() & _BODY_KEYS).union(_FIRST_EXCHANGE_KEYS))
    _check_keys("target", first["target"], _TARGET_KEYS)
    for redirect in data["redirects"]:
        _check_keys("redirect", redirect, (redirect.keys() & _BODY_KEYS).union(_REDIRECT_KEYS))
    _check_keys("report", report, _REPORT_KEYS)
    for finding in report["findings"]:
        _check_keys("finding", finding, _FINDING_KEYS)
    for leak in report["leaks"]:
        _check_keys("leak", leak, _LEAK_KEYS)
    target = _target_from_dict(first["target"], data["url"])
    result = _result_from_dict(first, target, data["url"])
    redirects = _array(data["redirects"], "redirects")
    chain = RedirectChain((result, *(_result_from_dict(e, target, e["url"]) for e in redirects)))
    return SnapshotEntry(result=result, chain=chain, report=_report_from_dict(report))


# Read buffer of iter_entries: a record line holding a body sample cut at the
# probe's BODY_SAMPLE_LIMIT (256 KiB) is one raw read instead of dozens of
# 8 KiB reads and a join.
_READ_BUFFER = 1 << 20


class _EntryReader:
    """The iterator ``iter_entries`` returns; see there."""

    def __init__(self, path: str | Path):
        self._file = open(path, "rb", buffering=_READ_BUFFER)
        try:
            self.id, self.taken_at, self.declared = _header_from_line(self._file.readline())
        except BaseException:
            self._file.close()
            raise
        self._entries = self._read()

    def _read(self) -> Iterator[SnapshotEntry]:
        count = 0
        previous = None
        with self._file:
            for count, line in enumerate(self._file, start=1):
                try:
                    entry = _entry_from_record(json.loads(line))
                except _RECORD_ERRORS as exc:
                    raise SnapshotIntegrityError(f"record {count}: {exc}") from exc
                url = entry.url
                if previous is not None and url <= previous:
                    if url == previous:
                        raise SnapshotIntegrityError(f"record {count}: duplicate url {url!r}")
                    raise SnapshotIntegrityError(
                        f"record {count}: url {url!r} is out of order after {previous!r}"
                    )
                previous = url
                yield entry
        if count != self.declared:
            raise SnapshotIntegrityError(
                f"record {count + 1}: expected {self.declared} entries, found {count}"
            )

    def __iter__(self) -> "_EntryReader":
        return self

    def __next__(self) -> SnapshotEntry:
        return next(self._entries)

    def close(self) -> None:
        self._entries.close()
        self._file.close()

    def __enter__(self) -> "_EntryReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def iter_entries(path: str | Path) -> _EntryReader:
    """Open a schema-4 snapshot and read its entries one line at a time.

    The header is read at once: the returned iterator has ``id``,
    ``taken_at`` and ``declared`` (the entry count).  It yields the entries
    in file order and checks that their URLs strictly increase and, at the
    end, that their number matches the header.  A bad header or record
    raises SnapshotIntegrityError naming the record (0 is the header), and so
    does a header of any other schema, naming its number.  The file closes
    when the entries run out, or on ``close()`` or the end of a ``with``
    block.
    """
    return _EntryReader(path)


def load(path: str | Path) -> Snapshot:
    """Read a whole schema-4 snapshot with the checks of ``iter_entries``."""
    with iter_entries(path) as reader:
        entries = {entry.url: entry for entry in reader}
    return Snapshot(id=reader.id, taken_at=reader.taken_at, entries=entries)
