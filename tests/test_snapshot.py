import os
import socket

import pytest

from smellprobe.smells import LeakCategory, LeakRecord, SmellKind
from smellprobe.snapshot import Snapshot, SnapshotIntegrityError, load, save, serialize

from helpers import EPOCH, build_entry, build_snapshot, make_finding


def sample_snapshot():
    entries = {
        "http://a.example/x": build_entry(
            "http://a.example/x",
            server="nginx/1.14.1 (Ubuntu)",
            kinds=(SmellKind.INSECURE_TRANSPORT, SmellKind.VERSION_DISCLOSURE),
            leaks=(
                LeakRecord(LeakCategory.SERVICE, "nginx", None, "server"),
                LeakRecord(LeakCategory.VERSION, "nginx", "1.14.1", "server"),
            ),
            body=b'{"ok":true}',
        ),
        "https://b.example/y": build_entry(
            "https://b.example/y",
            status=None,
            error="connection refused",
        ),
        "https://c.example/z": build_entry(
            "https://c.example/z",
            findings=(
                make_finding(SmellKind.MISSING_HSTS, "https://c.example/z", frozenset({"absent"})),
            ),
            headers=(("content-type", "application/json"),),
            body=b"\x00\x01binary\xff",
        ),
    }
    return build_snapshot(entries, "sample")


def test_round_trip_structural_equality(tmp_path):
    snapshot = sample_snapshot()
    path = tmp_path / "run.smellsnap.jsonl"
    save(snapshot, path)
    loaded = load(path)
    assert loaded.id == snapshot.id
    assert loaded.taken_at == snapshot.taken_at
    assert loaded.entries == snapshot.entries


def test_two_saves_byte_identical(tmp_path):
    snapshot = sample_snapshot()
    first = tmp_path / "one.jsonl"
    second = tmp_path / "two.jsonl"
    save(snapshot, first)
    save(snapshot, second)
    assert first.read_bytes() == second.read_bytes()


def test_equal_snapshots_serialize_identically():
    assert serialize(sample_snapshot()) == serialize(sample_snapshot())


@pytest.mark.parametrize("failure", ["write", "replace"])
def test_failed_save_keeps_previous_snapshot(tmp_path, monkeypatch, failure):
    path = tmp_path / "s.smellsnap.jsonl"
    save(sample_snapshot(), path)
    before = path.read_bytes()
    if failure == "write":
        # The text is long enough to be mid-file when encoding it fails.
        monkeypatch.setattr("smellprobe.snapshot.serialize", lambda snap: "x" * 100_000 + "\udc80")
        expected = UnicodeEncodeError
    else:
        def refuse(src, dst):
            raise OSError("replace refused")
        monkeypatch.setattr(os, "replace", refuse)
        expected = OSError
    with pytest.raises(expected):
        save(build_snapshot({}, "other"), path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


def test_truncated_file_names_bad_record(tmp_path):
    snapshot = sample_snapshot()
    path = tmp_path / "run.jsonl"
    save(snapshot, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    # cut the last record in half
    broken = "\n".join(lines[:-1] + [lines[-1][: len(lines[-1]) // 2]])
    path.write_text(broken, encoding="utf-8")
    with pytest.raises(SnapshotIntegrityError, match=r"record 3"):
        load(path)


def test_missing_trailing_record_detected(tmp_path):
    snapshot = sample_snapshot()
    path = tmp_path / "run.jsonl"
    save(snapshot, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
    with pytest.raises(SnapshotIntegrityError, match=r"expected 3 entries"):
        load(path)


def test_corrupt_header_detected(tmp_path):
    path = tmp_path / "run.jsonl"
    path.write_text('{"nope": 1}\n', encoding="utf-8")
    with pytest.raises(SnapshotIntegrityError, match=r"record 0"):
        load(path)


def test_empty_file_detected(tmp_path):
    path = tmp_path / "run.jsonl"
    path.write_text("", encoding="utf-8")
    with pytest.raises(SnapshotIntegrityError):
        load(path)


def test_entry_key_must_match_target(tmp_path):
    import json

    snapshot = sample_snapshot()
    path = tmp_path / "run.jsonl"
    save(snapshot, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[1])
    record["url"] = "http://evil.example/"
    lines[1] = json.dumps(record, sort_keys=True, separators=(",", ":"))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(SnapshotIntegrityError, match="does not match"):
        load(path)


def test_load_never_touches_network(tmp_path, monkeypatch):
    snapshot = sample_snapshot()
    path = tmp_path / "run.jsonl"
    save(snapshot, path)

    def _boom(*args, **kwargs):
        raise AssertionError("network activity during load")

    monkeypatch.setattr(socket, "create_connection", _boom)
    monkeypatch.setattr(socket.socket, "connect", _boom)
    load(path)


def test_snapshot_validates_entry_keys():
    entry = build_entry("http://a.example/x")
    with pytest.raises(ValueError):
        Snapshot(id="bad", taken_at=EPOCH, entries={"http://other.example/": entry})


def test_naive_timestamp_rejected():
    from datetime import datetime

    with pytest.raises(ValueError):
        Snapshot(id="bad", taken_at=datetime(2024, 1, 1), entries={})
