"""Corpus loading: URL targets with app metadata, deduplicated and validated.

Accepted inputs are CSV with a ``url,app_id,source_model,declared_format``
header or JSONL with the same keys, in UTF-8 with or without a byte-order
mark, told apart by file name (``load_targets``).  Rows that fail validation
are kept in a rejects list, never dropped silently.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import TextIO
from urllib.parse import urlsplit, urlunsplit

from .model import DeclaredFormat, ProbeTarget, Record, SourceModel, _set, request_url_problem


class RejectedRow(Record):
    """A row that failed validation, with the reason it was refused."""

    __slots__ = ("row", "reason")

    def __init__(self, row: str, reason: str) -> None:
        _set(self, "row", row)
        _set(self, "reason", reason)


class LoadResult(Record):
    __slots__ = ("targets", "rejects", "duplicates_collapsed")

    def __init__(
        self, targets: tuple[ProbeTarget, ...], rejects: tuple[RejectedRow, ...], duplicates_collapsed: int
    ) -> None:
        _set(self, "targets", targets)
        _set(self, "rejects", rejects)
        _set(self, "duplicates_collapsed", duplicates_collapsed)


def normalize_url(url: str) -> str:
    """Lowercase scheme and host; path, query, and fragment stay verbatim."""
    parts = urlsplit(url)
    netloc = parts.netloc
    if "@" in netloc:
        creds, _, hostport = netloc.rpartition("@")
        netloc = creds + "@" + hostport.lower()
    else:
        netloc = netloc.lower()
    return urlunsplit((parts.scheme, netloc, parts.path, parts.query, parts.fragment))


def _text(fields: dict, name: str) -> str:
    """The field's stripped text: '' if missing or false; any other non-string rejects the row."""
    value = fields.get(name) or ""
    if not isinstance(value, str):
        raise ValueError(f"{name} is not a string")
    return value.strip()


def _validate_row(fields: dict) -> ProbeTarget:
    url = _text(fields, "url")
    if not url:
        raise ValueError("missing url")
    problem = request_url_problem(url)
    if problem is not None:
        raise ValueError(problem)

    app_id = _text(fields, "app_id")
    if not app_id:
        raise ValueError("missing app_id")

    model_text = _text(fields, "source_model")
    try:
        model = SourceModel(model_text)
    except ValueError:
        raise ValueError(f"bad source_model: {model_text!r}") from None

    declared: DeclaredFormat | None = None
    declared_text = _text(fields, "declared_format")
    if declared_text:
        try:
            declared = DeclaredFormat(declared_text)
        except ValueError:
            raise ValueError(f"bad declared_format: {declared_text!r}") from None

    return ProbeTarget(
        url=normalize_url(url),
        app_id=app_id,
        source_model=model,
        declared_format=declared,
    )


_FIELDS = ("url", "app_id", "source_model", "declared_format")


def _iter_csv(path: Path):
    """Yield ``(raw, fields)`` for each data row, or a RejectedRow where the csv reader fails."""
    with path.open("r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.DictReader(fh)
        while True:
            try:
                record = next(reader)
            except StopIteration:
                return
            except csv.Error as exc:
                # The reader skips past the bad row but keeps no copy of its text.
                yield RejectedRow(row="", reason=f"unreadable csv row: {exc}")
                continue
            fields = {k: record.get(k) for k in _FIELDS}
            yield ",".join(value or "" for value in fields.values()), fields


def _iter_jsonl(path: Path):
    """Yield ``(raw, fields)`` for each non-blank line, or its RejectedRow if it is no JSON object."""
    with path.open("r", encoding="utf-8-sig") as fh:
        for line in fh:
            raw = line.strip()
            if not raw:
                continue
            try:
                fields = json.loads(raw)
            except (json.JSONDecodeError, RecursionError) as exc:
                message = getattr(exc, "msg", "nested too deeply")  # a RecursionError has no msg
                yield RejectedRow(row=raw, reason=f"invalid json: {message}")
                continue
            if isinstance(fields, dict):
                yield raw, fields
            else:
                yield RejectedRow(row=raw, reason="row is not an object")


def load_targets(path: str | Path) -> LoadResult:
    """Load and deduplicate a corpus file: JSONL if named ``*.jsonl`` or ``*.ndjson``, else CSV.

    Duplicate URLs (scheme and host compared case-insensitively) collapse
    onto the first occurrence.  Returns targets, rejects, and the number
    of collapsed duplicates; the three always sum to the input row count.
    """
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"corpus file not found: {path}")

    targets: list[ProbeTarget] = []
    rejects: list[RejectedRow] = []
    seen: set[str] = set()
    collapsed = 0

    for row in _iter_jsonl(path) if path.name.endswith((".jsonl", ".ndjson")) else _iter_csv(path):
        if isinstance(row, RejectedRow):
            rejects.append(row)
            continue
        raw, fields = row
        try:
            target = _validate_row(fields)
        except ValueError as exc:
            rejects.append(RejectedRow(row=raw, reason=str(exc)))
            continue
        if target.url in seen:
            collapsed += 1
            continue
        seen.add(target.url)
        targets.append(target)

    return LoadResult(
        targets=tuple(targets),
        rejects=tuple(rejects),
        duplicates_collapsed=collapsed,
    )


def write_rejects(rejects, fh: TextIO) -> None:
    """Write rejects to the open text file ``fh`` as JSONL records of ``{row, reason}``.

    ``scan`` opens it with ``snapshot.replacing``, so the file replaces the
    old one only once the snapshot is written.
    """
    for reject in rejects:
        fh.write(json.dumps({"row": reject.row, "reason": reject.reason}, sort_keys=True))
        fh.write("\n")
