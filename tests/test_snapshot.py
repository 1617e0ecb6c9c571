import json
import os
import socket
from dataclasses import replace
from datetime import timedelta
from pathlib import Path

import pytest

from smellprobe.cli import EXIT_OK, run
from smellprobe.probe import RedirectChain
from smellprobe.smells import LeakCategory, LeakRecord, SmellKind, SmellReport
from smellprobe.snapshot import (
    Snapshot,
    SnapshotEntry,
    SnapshotIntegrityError,
    load,
    save,
    serialize,
)

from helpers import EPOCH, build_entry, build_snapshot, make_finding, make_result, make_target

SCHEMA1 = Path(__file__).parent / "data" / "schema1"


def chain_entry(url, *exchanges):
    """An entry whose chain is the given (url, status, headers, body | error) exchanges."""
    target = make_target(url)
    results = tuple(
        make_result(
            target,
            url=hop_url,
            status=status,
            headers=headers,
            body=body if isinstance(body, bytes) else b"",
            error=None if isinstance(body, bytes) else body,
            timestamp=EPOCH + timedelta(seconds=i),
        )
        for i, (hop_url, status, headers, body) in enumerate(exchanges)
    )
    chain = RedirectChain(results)
    report = SmellReport(url=url, findings=(), leaks=())
    return SnapshotEntry(result=chain.result, chain=chain, report=report)


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
        # https -> http -> http: two redirects, one downgrade
        "https://d.example/": chain_entry(
            "https://d.example/",
            ("https://d.example/", 301, (("Location", "http://d.example/a"), ("Server", "edge/1")), b"first"),
            ("http://d.example/a", 302, (("Location", "/b"), ("Set-Cookie", "k=v")), b"\x00middle"),
            ("http://d.example/b", 200, (("Content-Type", "text/plain"),), b"landed"),
        ),
        # a loop: the last exchange redirects to a URL already requested
        "http://e.example/a": chain_entry(
            "http://e.example/a",
            ("http://e.example/a", 302, (("Location", "/b"),), b""),
            ("http://e.example/b", 307, (("Location", "/a"), ("Via", "loop-proxy")), b"b body"),
            ("http://e.example/a", 302, (("Location", "/b"),), b""),
        ),
        # the target redirects, then the next exchange fails
        "http://f.example/": chain_entry(
            "http://f.example/",
            ("http://f.example/", 302, (("Location", "http://g.example/"), ("X-Hop", "1")), b"bye"),
            ("http://g.example/", None, (), "connection refused"),
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


def test_redirect_exchanges_survive_round_trip(tmp_path):
    snapshot = sample_snapshot()
    path = tmp_path / "run.smellsnap.jsonl"
    save(snapshot, path)
    loaded = load(path)
    down = loaded.entries["https://d.example/"].chain
    assert down.exchanges == snapshot.entries["https://d.example/"].chain.exchanges
    assert down.exchanges[1].header_values("set-cookie") == ("k=v",)
    assert down.exchanges[1].body_sample == b"\x00middle"
    assert (down.chain_length, down.downgrade_hops, down.loop_detected) == (2, 1, False)
    loop = loaded.entries["http://e.example/a"].chain
    assert loop.exchanges[1].header_values("via") == ("loop-proxy",)
    assert loop.exchanges[1].body_sample == b"b body"
    assert (loop.chain_length, loop.loop_detected) == (3, True)
    failed = loaded.entries["http://f.example/"].chain
    assert failed.result.body_sample == b"bye"
    assert failed.terminal.transport_error == "connection refused"
    assert (failed.chain_length, failed.loop_detected) == (1, False)


def test_each_exchange_stored_once_and_nothing_derived(tmp_path):
    path = tmp_path / "run.smellsnap.jsonl"
    save(sample_snapshot(), path)
    header, *records = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    assert header["schema"] == 2
    for record in records:
        assert set(record) == {"url", "result", "redirects", "report"}
        assert record["result"]["target"]["url"] == record["url"]
        for exchange in record["redirects"]:
            assert "target" not in exchange
    by_url = {record["url"]: record for record in records}
    assert by_url["http://a.example/x"]["redirects"] == []
    assert [e["url"] for e in by_url["https://d.example/"]["redirects"]] == [
        "http://d.example/a",
        "http://d.example/b",
    ]
    text = path.read_text(encoding="utf-8")
    for derived in ("chain_length", "downgrade_hops", "loop_detected", "terminal", "hops"):
        assert f'"{derived}"' not in text


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
    with pytest.raises(SnapshotIntegrityError, match=rf"record {len(snapshot.entries)}"):
        load(path)


def test_missing_trailing_record_detected(tmp_path):
    snapshot = sample_snapshot()
    path = tmp_path / "run.jsonl"
    save(snapshot, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
    with pytest.raises(SnapshotIntegrityError, match=rf"expected {len(snapshot.entries)} entries"):
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


def test_unknown_schema_names_record_0(tmp_path):
    path = tmp_path / "run.jsonl"
    save(sample_snapshot(), path)
    lines = path.read_text(encoding="utf-8").splitlines()
    header = json.loads(lines[0])
    header["schema"] = 3
    lines[0] = json.dumps(header)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(SnapshotIntegrityError, match=r"record 0: unknown schema 3"):
        load(path)


def test_entry_result_must_be_first_exchange():
    entry = sample_snapshot().entries["https://d.example/"]
    with pytest.raises(ValueError, match="first exchange"):
        SnapshotEntry(result=entry.chain.terminal, chain=entry.chain, report=entry.report)
    retimed = replace(entry.chain.result, timestamp=EPOCH + timedelta(days=1))
    with pytest.raises(ValueError, match="first exchange"):
        SnapshotEntry(result=retimed, chain=entry.chain, report=entry.report)


# --- schema 1 -----------------------------------------------------------------
#
# tests/data/schema1 holds two rounds of schema-1 snapshots of library
# fixtures, written by smellprobe 0.1.0 before schema 2, with the diff and the
# CSV report tables that version made from them.  Ports are baked in.

SCHEMA1_CHAINS = {
    # url: (exchanges, chain_length, loop_detected, downgrade_hops, terminal status or error)
    "http://127.0.0.1:35473/": (1, 0, False, 0, 200),  # direct
    "http://127.0.0.1:38187/": (1, 0, False, 0, 200),
    "http://127.0.0.1:41451/": (1, 0, False, 0, 200),
    "http://127.0.0.1:44681/": (1, 0, False, 0, 200),
    "http://127.0.0.1:43953/": (2, 1, False, 0, 200),  # 1 hop, http -> https
    "https://127.0.0.1:40993/": (2, 1, False, 1, 200),  # 1 hop, https -> http
    "http://127.0.0.1:35779/hop/1": (7, 6, False, 0, 200),  # multi-hop
    "http://127.0.0.1:35779/hop/2": (3, 3, False, 0, 302),  # cut off at max_redirects 3
    "http://127.0.0.1:42755/a": (3, 3, True, 0, 302),  # /a -> /b -> /a
    "https://127.0.0.1:38737/": (2, 2, True, 0, 302),  # self-loop
    "http://127.0.0.1:53879/": (1, 0, False, 0, "connection refused"),
    "http://127.0.0.1:43681/": (2, 1, False, 0, "connection refused"),  # fails mid-chain
}


def chain_shape(chain):
    terminal = chain.terminal
    outcome = terminal.status if terminal.ok else terminal.transport_error
    return (len(chain.exchanges), chain.chain_length, chain.loop_detected, chain.downgrade_hops, outcome)


def test_schema1_file_loads_with_its_chains():
    snapshot = load(SCHEMA1 / "round1.smellsnap.jsonl")
    assert {url: chain_shape(e.chain) for url, e in snapshot.entries.items()} == SCHEMA1_CHAINS
    multi = snapshot.entries["http://127.0.0.1:35779/hop/1"].chain
    # an intermediate schema-1 hop keeps only its status and Location
    assert multi.exchanges[2].url == "http://127.0.0.1:35779/hop/3"
    assert multi.exchanges[2].status == 302
    assert multi.exchanges[2].headers == (("location", "http://127.0.0.1:35779/hop/4"),)
    assert multi.exchanges[2].body_sample == b""
    assert multi.terminal.body_sample == b"done"


@pytest.mark.parametrize("name", ["round1", "round2"])
def test_schema1_resaved_as_schema2_gives_equal_entries(tmp_path, name):
    old = load(SCHEMA1 / f"{name}.smellsnap.jsonl")
    path = tmp_path / "v2.smellsnap.jsonl"
    save(old, path)
    assert json.loads(path.read_text(encoding="utf-8").splitlines()[0])["schema"] == 2
    new = load(path)
    assert (new.id, new.taken_at, new.entries) == (old.id, old.taken_at, old.entries)


@pytest.mark.parametrize(
    "field, value",
    [("chain_length", 5), ("downgrade_hops", 1), ("loop_detected", True), ("hops", [])],
)
def test_schema1_record_disagreeing_with_its_chain_rejected(tmp_path, field, value):
    lines = (SCHEMA1 / "round1.smellsnap.jsonl").read_text(encoding="utf-8").splitlines()
    number = next(
        i for i, line in enumerate(lines) if '"url":"http://127.0.0.1:35779/hop/1"' in line[-60:]
    )
    record = json.loads(lines[number])
    record["chain"][field] = value
    lines[number] = json.dumps(record)
    path = tmp_path / "bad.smellsnap.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(SnapshotIntegrityError, match=rf"record {number}:"):
        load(path)


@pytest.mark.parametrize("resave", [(False, True), (True, False), (True, True), (False, False)])
def test_diff_and_report_across_schemas_match_schema1_outputs(tmp_path, resave):
    """v1/v2 pairs give the records and tables the schema-1 writer gave for v1/v1."""
    paths = []
    for name, as_v2 in zip(("round1", "round2"), resave):
        path = SCHEMA1 / f"{name}.smellsnap.jsonl"
        if as_v2:
            save(load(path), tmp_path / path.name)
            path = tmp_path / path.name
        paths.append(str(path))
    out = tmp_path / "maintenance.jsonl"
    assert run(["diff", *paths, "--out", str(out)]) == EXIT_OK
    expected = SCHEMA1 / "report"
    assert out.read_bytes() == (expected / "maintenance.jsonl").read_bytes()
    assert run(["report", *paths, "--out-dir", str(tmp_path / "report")]) == EXIT_OK
    for table in sorted(expected.iterdir()):
        assert (tmp_path / "report" / table.name).read_bytes() == table.read_bytes(), table.name
