import base64
import json
import os
import re
import socket
import tracemalloc
from datetime import datetime, timedelta
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from smellprobe.cli import EXIT_IO, EXIT_OK, run
from smellprobe.model import LeakCategory, LeakRecord, RedirectChain, SmellKind, SmellReport
from smellprobe import snapshot as snapshot_module
from smellprobe.snapshot import (
    SCHEMA,
    Snapshot,
    SnapshotEntry,
    SnapshotIntegrityError,
    SnapshotSpool,
    iter_entries,
    load,
    save,
)

from helpers import (
    EPOCH,
    SCHEMA4,
    SCHEMA4_CORRUPTIONS,
    SCHEMA4_ROUND1,
    build_entry,
    build_snapshot,
    corrupt_schema4_round1,
    make_finding,
    make_result,
    make_target,
    replaced,
)


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
    report = SmellReport(findings=(), leaks=())
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
    assert header["schema"] == SCHEMA == 4
    for record in records:
        assert set(record) == {"url", "result", "redirects", "report"}
        assert "url" not in record["result"] and "url" not in record["result"]["target"]
        assert "url" not in record["report"]
        assert all("url" not in finding for finding in record["report"]["findings"])
        for exchange in record["redirects"]:
            assert "target" not in exchange and "url" in exchange
        for exchange in (record["result"], *record["redirects"]):
            assert len({"body_text", "body_b64"} & set(exchange)) == 1
            assert not {"scheme_used", "body_format"} & set(exchange)
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
    """The same snapshot saved twice, and an equal one built apart, give the same bytes."""
    snapshot = sample_snapshot()
    paths = [tmp_path / "one.jsonl", tmp_path / "two.jsonl", tmp_path / "equal.jsonl"]
    for saved, path in zip((snapshot, snapshot, sample_snapshot()), paths):
        save(saved, path)
    assert paths[0].read_bytes() == paths[1].read_bytes() == paths[2].read_bytes()


@pytest.mark.parametrize("failure", ["write", "replace"])
def test_failed_save_keeps_previous_snapshot(tmp_path, monkeypatch, failure):
    path = tmp_path / "s.smellsnap.jsonl"
    save(sample_snapshot(), path)
    before = path.read_bytes()
    if failure == "write":
        # Two records are written before the third cannot be encoded.
        record_line = snapshot_module._record_line
        calls = []

        def third_fails(entry):
            calls.append(entry)
            return "x" * 100_000 + "\udc80" if len(calls) == 3 else record_line(entry)

        monkeypatch.setattr(snapshot_module, "_record_line", third_fails)
        expected = UnicodeEncodeError
    else:
        def refuse(src, dst):
            raise OSError("replace refused")
        monkeypatch.setattr(os, "replace", refuse)
        expected = OSError
    with pytest.raises(expected):
        save(replaced(sample_snapshot(), id="other"), path)
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


@pytest.mark.parametrize("header", ['{"nope": 1}', "[" * 100_000])
def test_corrupt_header_detected(tmp_path, header):
    path = tmp_path / "run.jsonl"
    path.write_text(header + "\n", encoding="utf-8")
    with pytest.raises(SnapshotIntegrityError, match=r"record 0"):
        load(path)


def test_deeply_nested_record_detected(tmp_path):
    path = tmp_path / "run.jsonl"
    save(sample_snapshot(), path)
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[2] = "[" * 100_000
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(SnapshotIntegrityError, match=r"record 2"):
        load(path)


def test_header_without_utc_offset_names_record_0(tmp_path):
    path = tmp_path / "run.jsonl"
    save(sample_snapshot(), path)
    lines = path.read_text(encoding="utf-8").splitlines()
    header = json.loads(lines[0])
    header["taken_at"] = "2024-01-01T00:00:00"
    lines[0] = json.dumps(header)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(SnapshotIntegrityError, match=r"record 0: taken_at .* has no UTC offset"):
        load(path)


def test_empty_file_detected(tmp_path):
    path = tmp_path / "run.jsonl"
    path.write_text("", encoding="utf-8")
    with pytest.raises(SnapshotIntegrityError):
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
    with pytest.raises(ValueError):
        Snapshot(id="bad", taken_at=datetime(2024, 1, 1), entries={})


def test_unknown_schema_names_record_0(tmp_path):
    path = tmp_path / "run.jsonl"
    save(sample_snapshot(), path)
    lines = path.read_text(encoding="utf-8").splitlines()
    header = json.loads(lines[0])
    header["schema"] = 5
    lines[0] = json.dumps(header)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(SnapshotIntegrityError, match=r"record 0: schema 5 is not read; this tool reads schema 4$"):
        load(path)


def test_entry_result_must_be_first_exchange():
    entry = sample_snapshot().entries["https://d.example/"]
    with pytest.raises(ValueError, match="first exchange"):
        SnapshotEntry(result=entry.chain.terminal, chain=entry.chain, report=entry.report)
    retimed = replaced(entry.chain.result, timestamp=EPOCH + timedelta(days=1))
    with pytest.raises(ValueError, match="first exchange"):
        SnapshotEntry(result=retimed, chain=entry.chain, report=entry.report)


# --- the checked-in schema-4 rounds ---------------------------------------------
#
# tests/data/schema4 holds two rounds of schema-4 snapshots of every library
# fixture profile and of bodies that are not ASCII, hold control characters or
# many quotes, or whose Content-Type and payload disagree, written by
# smellprobe 0.1.0, with the diff and the CSV report tables (report/) that
# version made from them.  Ports are baked in.  Each must load, and give those
# outputs, whatever schema the writer has moved on to.

SCHEMA4_CHAINS = {
    # url: (exchanges, chain_length, loop_detected, downgrade_hops, terminal status or error)
    "http://127.0.0.1:33403/": (1, 0, False, 0, 200),  # direct
    "http://127.0.0.1:33543/": (1, 0, False, 0, 200),
    "http://127.0.0.1:34601/": (1, 0, False, 0, 200),
    "http://127.0.0.1:35119/": (1, 0, False, 0, 200),
    "http://127.0.0.1:35261/": (1, 0, False, 0, 500),
    "http://127.0.0.1:37993/": (1, 0, False, 0, 200),
    "http://127.0.0.1:39371/": (1, 0, False, 0, 500),
    "http://127.0.0.1:39417/": (1, 0, False, 0, 200),
    "http://127.0.0.1:39427/": (1, 0, False, 0, 200),
    "http://127.0.0.1:39537/": (1, 0, False, 0, 403),
    "http://127.0.0.1:40067/binary": (1, 0, False, 0, 200),
    "http://127.0.0.1:40067/control": (1, 0, False, 0, 200),
    "http://127.0.0.1:40067/json": (1, 0, False, 0, 200),
    "http://127.0.0.1:40067/json-type": (1, 0, False, 0, 200),
    "http://127.0.0.1:40067/latin1": (1, 0, False, 0, 200),
    "http://127.0.0.1:40067/quotes": (1, 0, False, 0, 200),
    "http://127.0.0.1:40067/redirect-json": (2, 1, False, 0, 200),  # 1 hop
    "http://127.0.0.1:40341/": (1, 0, False, 0, 500),
    "http://127.0.0.1:40981/": (1, 0, False, 0, 500),
    "http://127.0.0.1:41163/": (1, 0, False, 0, 200),
    "http://127.0.0.1:43061/hop/1": (7, 6, False, 0, 200),  # multi-hop
    "http://127.0.0.1:43081/": (1, 0, False, 0, 200),
    "http://127.0.0.1:43293/": (1, 0, False, 0, 200),
    "http://127.0.0.1:43631/": (1, 0, False, 0, 500),
    "http://127.0.0.1:44267/": (1, 0, False, 0, 200),
    "http://127.0.0.1:44535/": (1, 0, False, 0, 200),
    "http://127.0.0.1:45595/a": (3, 3, True, 0, 302),  # /a -> /b -> /a
    "http://127.0.0.1:46259/": (1, 0, False, 0, 200),
    "http://127.0.0.1:46663/": (2, 1, False, 0, 200),  # 1 hop, http -> https
    "http://127.0.0.1:57339/": (1, 0, False, 0, "connection refused"),
    "https://127.0.0.1:32907/": (1, 0, False, 0, 403),
    "https://127.0.0.1:35593/": (1, 0, False, 0, 404),
    "https://127.0.0.1:35805/": (1, 0, False, 0, 401),
    "https://127.0.0.1:37061/": (1, 0, False, 0, 500),
    "https://127.0.0.1:37341/": (1, 0, False, 0, 200),
    "https://127.0.0.1:38679/": (1, 0, False, 0, 200),
    "https://127.0.0.1:40183/": (1, 0, False, 0, 401),
    "https://127.0.0.1:40873/": (1, 0, False, 0, 200),
    "https://127.0.0.1:41577/": (2, 2, True, 0, 302),  # self-loop
    "https://127.0.0.1:43321/": (1, 0, False, 0, 200),
    "https://127.0.0.1:44119/": (2, 1, False, 1, 200),  # 1 hop, https -> http
    "https://127.0.0.1:44633/": (1, 0, False, 0, 200),
    "https://127.0.0.1:46557/": (1, 0, False, 0, 200),
}


def chain_shape(chain):
    terminal = chain.terminal
    outcome = terminal.status if terminal.ok else terminal.transport_error
    return (len(chain.exchanges), chain.chain_length, chain.loop_detected, chain.downgrade_hops, outcome)


def test_schema4_file_loads_with_its_chains():
    snapshot = load(SCHEMA4 / "round1.smellsnap.jsonl")
    assert {url: chain_shape(e.chain) for url, e in snapshot.entries.items()} == SCHEMA4_CHAINS
    multi = snapshot.entries["http://127.0.0.1:43061/hop/1"].chain
    # each exchange of the chain is stored in full, its own timestamp included
    assert multi.exchanges[2].url == "http://127.0.0.1:43061/hop/3"
    assert multi.exchanges[2].status == 302
    assert multi.exchanges[2].header_values("location") == ("http://127.0.0.1:43061/hop/4",)
    assert multi.exchanges[2].body_sample == b""
    assert len({e.timestamp for e in multi.exchanges}) == 7
    assert multi.terminal.body_sample == b"done"
    downgrade = snapshot.entries["https://127.0.0.1:44119/"].chain
    assert downgrade.terminal.url == "http://127.0.0.1:46169/legacy"


def assert_stored_outputs(tmp_path, paths):
    """diff and the CSV and JSON reports over ``paths`` give the files stored in
    ``report`` and ``report-json`` beside the schema-4 rounds."""
    out = tmp_path / "maintenance.jsonl"
    assert run(["diff", *map(str, paths), "--out", str(out)]) == EXIT_OK
    assert out.read_bytes() == (SCHEMA4 / "report" / "maintenance.jsonl").read_bytes()
    for fmt, expected in (("csv", SCHEMA4 / "report"), ("json", SCHEMA4 / "report-json")):
        written = tmp_path / expected.name
        assert run(["report", *map(str, paths), "--out-dir", str(written), "--format", fmt]) == EXIT_OK
        assert sorted(p.name for p in written.iterdir()) == sorted(p.name for p in expected.iterdir())
        for table in sorted(expected.iterdir()):
            assert (written / table.name).read_bytes() == table.read_bytes(), table.name


@pytest.mark.parametrize("name", ["round1", "round2"])
def test_schema4_file_loads_when_schema_moves_on(monkeypatch, name):
    """The reader takes schema 4 by its number, not as the SCHEMA the writer is at."""
    path = SCHEMA4 / f"{name}.smellsnap.jsonl"
    now = load(path)
    monkeypatch.setattr(snapshot_module, "SCHEMA", 5)
    later = load(path)
    assert (later.id, later.taken_at, later.entries) == (now.id, now.taken_at, now.entries)


@pytest.mark.parametrize("name", ["round1", "round2"])
def test_schema4_file_resaves_to_its_own_bytes(tmp_path, name):
    old = load(SCHEMA4 / f"{name}.smellsnap.jsonl")
    assert any(len(entry.chain.exchanges) > 2 for entry in old.entries.values())
    path = tmp_path / "v4.smellsnap.jsonl"
    save(old, path)
    header, *records = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    assert header["schema"] == 4
    stored = [
        key for record in records for e in (record["result"], *record["redirects"])
        for key in ("body_text", "body_b64") if key in e
    ]
    assert "body_text" in stored and "body_b64" in stored
    new = load(path)
    assert (new.id, new.taken_at, new.entries) == (old.id, old.taken_at, old.entries)
    assert path.read_bytes() == (SCHEMA4 / f"{name}.smellsnap.jsonl").read_bytes()


@pytest.mark.parametrize("resave", [(False, False), (False, True), (True, False), (True, True)])
def test_diff_and_report_across_schemas_match_stored_outputs(tmp_path, resave):
    """Each round as checked in or saved again gives the records and tables stored in
    report/ and report-json/."""
    paths = []
    for name, again in zip(("round1", "round2"), resave):
        path = SCHEMA4 / f"{name}.smellsnap.jsonl"
        if again:
            save(load(path), tmp_path / path.name)
            path = tmp_path / path.name
        paths.append(path)
    assert_stored_outputs(tmp_path, paths)


@pytest.mark.parametrize("command", ["diff", "report"])
@pytest.mark.parametrize("schema", [1, 2, 3])
def test_schema_1_to_3_header_refused_with_its_schema_named(tmp_path, capsys, command, schema):
    """Schemas 1 to 3 were written only while the tool was built; they are no longer read."""
    header = {"entries": 0, "id": "old", "taken_at": "2024-01-01T00:00:00+00:00", "tool_version": "0.1.0"}
    if schema > 1:  # schema 1 wrote no schema key
        header["schema"] = schema
    old = tmp_path / "old.smellsnap.jsonl"
    old.write_text(json.dumps(header) + "\n", encoding="utf-8")
    later = str(SCHEMA4 / "round2.smellsnap.jsonl")
    args = {
        "diff": ["diff", str(old), later, "--out", str(tmp_path / "m.jsonl")],
        "report": ["report", str(old), later, "--out-dir", str(tmp_path / "r")],
    }[command]
    assert run(args) == EXIT_IO
    message = f"error: record 0: schema {schema} is not read; this tool reads schema 4"
    assert capsys.readouterr().err.splitlines() == [message]
    assert sorted(p.name for p in tmp_path.iterdir()) == [old.name]


def readme_key_sets():
    """Label -> key set of each ``- label: `{keys}``` line of the README's "Snapshot format"."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Snapshot format", 1)[1].split("\n#", 1)[0]
    return {
        label: set(keys.split(", "))
        for label, keys in re.findall(r"^- ([a-z ]+): `\{([^}]*)\}`", section, re.MULTILINE)
    }


def written_key_set(obj):
    return {"body_text|body_b64" if key in ("body_text", "body_b64") else key for key in obj}


def test_readme_lists_the_keys_the_writer_writes():
    entry = sample_snapshot().entries["https://d.example/"]
    finding = make_finding(SmellKind.MISSING_HSTS, entry.url, frozenset({"absent"}))
    leak = LeakRecord(LeakCategory.SERVICE, "edge", None, "server")
    entry = replaced(entry, report=SmellReport(findings=(finding,), leaks=(leak,)))
    record = json.loads(snapshot_module._record_line(entry))
    header = json.loads(snapshot_module._header_line("s", EPOCH, 1))
    written = {
        "header": header,
        "record": record,
        "first exchange": record["result"],
        "target": record["result"]["target"],
        "redirect": record["redirects"][0],
        "report": record["report"],
        "finding": record["report"]["findings"][0],
        "leak": record["report"]["leaks"][0],
    }
    assert readme_key_sets() == {label: written_key_set(obj) for label, obj in written.items()}


# --- bodies as text -------------------------------------------------


def stored_body(body):
    """The body fields an exchange with ``body`` is stored with."""
    target = make_target("http://a.example/")
    result = make_result(target, body=body)
    report = SmellReport(findings=(), leaks=())
    entry = SnapshotEntry(result=result, chain=RedirectChain((result,)), report=report)
    record = json.loads(snapshot_module._record_line(entry))
    return {k: v for k, v in record["result"].items() if k in ("body_text", "body_b64")}


@pytest.mark.parametrize(
    "body, key",
    [
        (b"<html>plain text, a few \"quotes\" and\nnew lines</html>", "body_text"),
        (b"", "body_text"),
        ("café".encode(), "body_b64"),  # not ASCII
        (b"a\x00b\x01c\x1b" * 20, "body_b64"),  # control characters take six characters each
        (b'"' * 30 + b"x", "body_b64"),  # a quote takes two characters
        (bytes(range(256)), "body_b64"),
    ],
)
def test_body_stored_as_text_only_when_ascii_and_not_longer(tmp_path, body, key):
    assert list(stored_body(body)) == [key]
    url = "http://a.example/"
    snapshot = build_snapshot({url: build_entry(url, body=body)}, "s")
    path = tmp_path / "s.smellsnap.jsonl"
    save(snapshot, path)
    assert load(path).entries == snapshot.entries


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.binary(max_size=200),
        st.text(st.characters(max_codepoint=0x7F), max_size=200).map(str.encode),
    )
)
def test_stored_body_never_longer_than_base64(body):
    (key, value), = stored_body(body).items()
    as_base64 = json.dumps(base64.b64encode(body).decode("ascii"))
    assert len(json.dumps(value)) <= len(as_base64)
    text_fits = body.isascii() and len(json.dumps(body.decode("ascii"))) <= len(as_base64)
    assert key == ("body_text" if text_fits else "body_b64")
    assert snapshot_module._body_from_dict({key: value}) == body


def rewrite_record(path, number, change):
    lines = path.read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[number])
    change(record)
    lines[number] = json.dumps(record, sort_keys=True, separators=(",", ":"))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.mark.parametrize("keys", [("body_text", "body_b64"), ()])
def test_exchange_with_both_or_neither_body_key_rejected(tmp_path, keys):
    path = tmp_path / "run.smellsnap.jsonl"
    save(sample_snapshot(), path)

    def set_body(record):
        result = record["result"]
        result.pop("body_text", None)
        result.pop("body_b64", None)
        result.update({key: "" for key in keys})

    rewrite_record(path, 2, set_body)
    with pytest.raises(SnapshotIntegrityError, match=r"record 2: .*exactly one of body_text and body_b64"):
        load(path)


@pytest.mark.parametrize("name", sorted(SCHEMA4_CORRUPTIONS))
def test_schema4_record_no_writer_makes_rejected(tmp_path, name):
    """A URL or redirect the probe could not have requested, a value it could not have
    recorded, or a key the writer does not write."""
    path, message = corrupt_schema4_round1(tmp_path, name)
    with pytest.raises(SnapshotIntegrityError, match=message):
        with iter_entries(path) as reader:
            for _ in reader:
                pass


@pytest.mark.parametrize("name", sorted(SCHEMA4_CORRUPTIONS))
def test_schema4_record_no_writer_makes_rejected_when_schema_moves_on(tmp_path, monkeypatch, name):
    """The checks belong to the file's schema, not to the one the writer is at."""
    monkeypatch.setattr(snapshot_module, "SCHEMA", 5)
    test_schema4_record_no_writer_makes_rejected(tmp_path, name)


@pytest.mark.parametrize("change", ["extra", "missing"])
def test_schema4_header_with_other_keys_rejected(tmp_path, change):
    lines = SCHEMA4_ROUND1.read_text(encoding="utf-8").splitlines(keepends=True)
    header = json.loads(lines[0])
    if change == "extra":
        header["zzz"] = 1
    else:
        del header["tool_version"]
    path = tmp_path / SCHEMA4_ROUND1.name
    path.write_text(json.dumps(header) + "\n" + "".join(lines[1:]), encoding="utf-8")
    with pytest.raises(SnapshotIntegrityError, match=r"record 0: bad header \(header has keys"):
        iter_entries(path)


def test_schema4_header_with_extra_key_rejected_when_schema_moves_on(tmp_path, monkeypatch):
    monkeypatch.setattr(snapshot_module, "SCHEMA", 5)
    test_schema4_header_with_other_keys_rejected(tmp_path, "extra")


@pytest.mark.parametrize("swap", ["out of order", "duplicate"])
def test_record_out_of_url_order_rejected(tmp_path, swap):
    path = tmp_path / "run.smellsnap.jsonl"
    save(sample_snapshot(), path)
    lines = path.read_text(encoding="utf-8").splitlines()
    if swap == "out of order":
        lines[3], lines[4] = lines[4], lines[3]
        message = r"record 4: url 'http://f\.example/' is out of order after 'https://b\.example/y'"
    else:
        lines[4] = lines[3]
        message = r"record 4: duplicate url 'http://f\.example/'"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(SnapshotIntegrityError, match=message):
        load(path)


def test_iter_entries_reads_header_then_entries_in_url_order(tmp_path):
    snapshot = sample_snapshot()
    path = tmp_path / "run.smellsnap.jsonl"
    save(snapshot, path)
    with iter_entries(path) as reader:
        assert (reader.id, reader.taken_at, reader.declared) == (snapshot.id, snapshot.taken_at, 6)
        assert [entry.url for entry in reader] == sorted(snapshot.entries)


def test_record_lines_longer_than_the_read_buffer_read_back_equal(tmp_path):
    """Five redirects of 256 KiB non-ASCII bodies, stored as base64, make a ~1.7 MiB line."""
    entries = {}
    for name in ("a", "b"):
        target = make_target(f"http://{name}.example/0")
        chain = RedirectChain(tuple(
            make_result(
                target,
                url=f"http://{name}.example/{hop}",
                status=302 if hop < 4 else 200,
                headers=(("Location", f"/{hop + 1}"),) if hop < 4 else (),
                body=("é" * (128 * 1024) + name + str(hop)).encode("utf-8"),
            )
            for hop in range(5)
        ))
        entries[target.url] = SnapshotEntry(result=chain.result, chain=chain, report=SmellReport((), ()))
    snapshot = build_snapshot(entries, "long")
    path = tmp_path / "long.smellsnap.jsonl"
    save(snapshot, path)
    lines = path.read_bytes().splitlines()
    assert min(len(line) for line in lines[1:]) > snapshot_module._READ_BUFFER
    assert load(path).entries == snapshot.entries


def test_spool_writes_records_in_url_order_whatever_their_arrival(tmp_path):
    snapshot = sample_snapshot()
    saved = tmp_path / "saved.smellsnap.jsonl"
    save(snapshot, saved)
    path = tmp_path / "spooled" / "run.smellsnap.jsonl"
    path.parent.mkdir()
    with SnapshotSpool(path) as spool:
        for url in sorted(snapshot.entries, reverse=True):
            spool.add(snapshot.entries[url])
        assert spool.commit(snapshot.id, snapshot.taken_at) == 6
    assert path.read_bytes() == saved.read_bytes()
    assert [p.name for p in path.parent.iterdir()] == [path.name]


def test_commit_with_naive_taken_at_leaves_path_as_it_was(tmp_path):
    path = tmp_path / "run.smellsnap.jsonl"
    save(sample_snapshot(), path)
    before = path.read_bytes()
    with SnapshotSpool(path) as spool:
        spool.add(sample_snapshot().entries["http://a.example/x"])
        with pytest.raises(ValueError, match="taken_at must be timezone-aware"):
            spool.commit("naive", datetime(2024, 1, 1))
        # The refusal comes before any temporary file: the snapshot and the spool alone.
        assert sorted(p.suffix for p in tmp_path.iterdir()) == [".jsonl", ".spool"]
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


def test_spool_closed_without_commit_leaves_nothing(tmp_path):
    path = tmp_path / "run.smellsnap.jsonl"
    save(sample_snapshot(), path)
    before = path.read_bytes()
    with pytest.raises(RuntimeError):
        with SnapshotSpool(path) as spool:
            spool.add(sample_snapshot().entries["http://a.example/x"])
            raise RuntimeError("scan failed")
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


def shared_body_entries(count, body):
    """Entries that all hold the same body object, so they cost little memory themselves."""
    for i in range(count):
        url = f"http://h{i:04d}.example/"
        yield build_entry(url, body=body)


def peak_while(work):
    tracemalloc.start()
    try:
        work()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_streamed_save_and_read_memory_does_not_grow_with_entries(tmp_path):
    body = (b"<p>" + b"x" * 96 + b"</p>\n") * 1000  # 100 KB, stored as text
    peaks = {}
    for count in (20, 200):
        path = tmp_path / f"{count}.smellsnap.jsonl"
        entries = list(shared_body_entries(count, body))
        snapshot = build_snapshot({e.url: e for e in entries}, "big")

        def work():
            save(snapshot, path)
            with SnapshotSpool(path) as spool:
                for entry in entries:
                    spool.add(entry)
                spool.commit("big", EPOCH)
            with iter_entries(path) as reader:
                for _ in reader:
                    pass

        peaks[count] = peak_while(work)
    # One record is ~100 KB of text; a whole file of 200 would be ~20 MB.
    assert peaks[200] < peaks[20] + 512 * 1024, peaks
