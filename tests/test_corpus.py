import json
import random

import pytest

from smellprobe.corpus import (
    DeclaredFormat,
    ProbeTarget,
    RejectedRow,
    SourceModel,
    load_targets,
    normalize_url,
    write_rejects,
)

HEADER = "url,app_id,source_model,declared_format\n"


def write_csv(tmp_path, rows, name="corpus.csv"):
    path = tmp_path / name
    path.write_text(HEADER + "".join(r + "\n" for r in rows), encoding="utf-8")
    return path


def test_duplicate_urls_collapse_to_first(tmp_path):
    path = write_csv(
        tmp_path,
        [
            "http://api.example.com/v1,app-a,open_source,",
            "http://api.example.com/v1,app-b,closed_source,",
        ],
    )
    loaded = load_targets(path)
    assert len(loaded.targets) == 1
    assert loaded.targets[0].app_id == "app-a"
    assert loaded.rejects == ()
    assert loaded.duplicates_collapsed == 1


def test_unsupported_scheme_goes_to_rejects(tmp_path):
    path = write_csv(tmp_path, ["ftp://x,app-a,open_source,"])
    loaded = load_targets(path)
    assert loaded.targets == ()
    assert len(loaded.rejects) == 1
    assert loaded.rejects[0].reason == "unsupported scheme"


def test_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("", encoding="utf-8")
    loaded = load_targets(path)
    assert loaded.targets == ()
    assert loaded.rejects == ()
    assert loaded.duplicates_collapsed == 0


def test_header_only_file(tmp_path):
    path = write_csv(tmp_path, [])
    loaded = load_targets(path)
    assert loaded.targets == ()
    assert loaded.rejects == ()


def test_loading_is_idempotent(tmp_path):
    path = write_csv(
        tmp_path,
        [
            "https://a.example/x,app-a,open_source,json",
            "http://b.example/y,app-b,closed_source,",
            "not-a-url,app-c,open_source,",
        ],
    )
    first = load_targets(path)
    second = load_targets(path)
    assert first.targets == second.targets
    assert first.rejects == second.rejects


def test_row_conservation_randomized(tmp_path):
    rng = random.Random(42)
    rows = []
    expected_rows = 0
    for i in range(200):
        kind = rng.random()
        if kind < 0.5:
            rows.append(f"http://host{rng.randrange(40)}.example/p,app-{i},open_source,")
        elif kind < 0.7:
            rows.append(f"ftp://bad{i},app-{i},open_source,")
        elif kind < 0.85:
            rows.append(f"http://h{i}.example/p,app-{i},middle_source,")
        else:
            rows.append(f"https://h{i}.example/p,app-{i},closed_source,json")
        expected_rows += 1
    path = write_csv(tmp_path, rows)
    loaded = load_targets(path)
    assert len(loaded.targets) + len(loaded.rejects) + loaded.duplicates_collapsed == expected_rows


def test_scheme_and_host_lowercased_path_preserved(tmp_path):
    path = write_csv(tmp_path, ["HTTP://API.Example.COM/CaseSensitive?Q=1,app-a,open_source,"])
    loaded = load_targets(path)
    assert loaded.targets[0].url == "http://api.example.com/CaseSensitive?Q=1"


def test_dedup_key_ignores_host_case_only(tmp_path):
    path = write_csv(
        tmp_path,
        [
            "http://API.example.com/path,app-a,open_source,",
            "http://api.example.com/path,app-b,open_source,",
            "http://api.example.com/PATH,app-c,open_source,",
        ],
    )
    loaded = load_targets(path)
    assert len(loaded.targets) == 2
    assert loaded.duplicates_collapsed == 1


def test_jsonl_format(tmp_path):
    path = tmp_path / "corpus.jsonl"
    rows = [
        {"url": "https://a.example/x", "app_id": "app-a", "source_model": "open_source",
         "declared_format": "json"},
        {"url": "https://b.example/y", "app_id": "app-b", "source_model": "closed_source"},
        {"url": "bogus", "app_id": "app-c", "source_model": "open_source"},
    ]
    path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    loaded = load_targets(path)
    assert len(loaded.targets) == 2
    assert loaded.targets[0].declared_format is DeclaredFormat.JSON
    assert loaded.targets[1].declared_format is None
    assert len(loaded.rejects) == 1
    assert loaded.rejects[0].reason == "url not absolute"


def test_file_name_decides_the_format(tmp_path):
    """A name ending in .jsonl or .ndjson is read as JSONL, any other as CSV."""
    ndjson = tmp_path / "corpus.ndjson"
    ndjson.write_text('{"url": "http://a.example/", "app_id": "app-a", "source_model": "open_source"}\n',
                      encoding="utf-8")
    txt = write_csv(tmp_path, ["http://a.example/,app-a,open_source,"], name="corpus.txt")
    for path in (ndjson, txt):
        loaded = load_targets(path)
        assert [(t.url, t.app_id) for t in loaded.targets] == [("http://a.example/", "app-a")]
        assert loaded.rejects == ()


def test_jsonl_bad_json_rejected(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"url": "https://a.example/x", \n', encoding="utf-8")
    loaded = load_targets(path)
    assert loaded.targets == ()
    assert len(loaded.rejects) == 1
    assert loaded.rejects[0].reason.startswith("invalid json")


def test_jsonl_row_not_an_object_rejected(tmp_path):
    path = tmp_path / "corpus.jsonl"
    lines = ['["https://a.example/x", "app-a"]', '"https://b.example/"', "null", "{not json}",
             "[" * 100_000,
             '{"url": "https://c.example/", "app_id": "app-c", "source_model": "open_source"}']
    path.write_text("".join(f"  {line}\n" for line in lines), encoding="utf-8")
    loaded = load_targets(path)
    assert [t.url for t in loaded.targets] == ["https://c.example/"]
    assert [(r.row, r.reason) for r in loaded.rejects] == [
        (lines[0], "row is not an object"),
        (lines[1], "row is not an object"),
        (lines[2], "row is not an object"),
        (lines[3], "invalid json: Expecting property name enclosed in double quotes"),
        (lines[4], "invalid json: nested too deeply"),
    ]


def test_missing_file_raises():
    with pytest.raises(FileNotFoundError):
        load_targets("/nonexistent/corpus.csv")


def test_bad_source_model_rejected(tmp_path):
    path = write_csv(tmp_path, ["http://a.example/x,app-a,shareware,"])
    loaded = load_targets(path)
    assert loaded.rejects[0].reason == "bad source_model: 'shareware'"


def test_placeholder_paths_accepted(tmp_path):
    path = write_csv(tmp_path, ["https://api.example.com/users/{userId}/posts,app-a,closed_source,"])
    loaded = load_targets(path)
    assert loaded.targets[0].url.endswith("/users/{userId}/posts")


def test_write_rejects_schema(tmp_path):
    path = write_csv(tmp_path, ["ftp://x,app-a,open_source,"])
    loaded = load_targets(path)
    out = tmp_path / "rejects.jsonl"
    write_rejects(loaded.rejects, out)
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert set(record) == {"row", "reason"}
    assert record["reason"] == "unsupported scheme"


def test_write_rejects_that_fails_midway_keeps_previous_file(tmp_path):
    out = tmp_path / "rejects.jsonl"
    out.write_text('{"reason": "earlier", "row": "earlier"}\n', encoding="utf-8")
    before = out.read_bytes()

    def rejects():
        yield RejectedRow(row="ftp://x,app-a,open_source,", reason="unsupported scheme")
        raise RuntimeError("interrupted")

    with pytest.raises(RuntimeError, match="interrupted"):
        write_rejects(rejects(), out)
    assert out.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == [out.name]


def test_normalize_url_keeps_query_case():
    assert normalize_url("HTTPS://Host.Example/A?B=C") == "https://host.example/A?B=C"


def test_probe_target_validates_scheme():
    with pytest.raises(ValueError):
        ProbeTarget(url="ftp://x", app_id="a", source_model=SourceModel.OPEN_SOURCE)


def test_oversized_csv_field_goes_to_rejects(tmp_path):
    long_url = "http://b.example/" + "x" * 140_000
    path = write_csv(
        tmp_path,
        [
            "http://a.example/,app-a,open_source,",
            f"{long_url},app-b,open_source,",
            "http://c.example/,app-c,open_source,",
        ],
    )
    loaded = load_targets(path)
    assert [t.url for t in loaded.targets] == ["http://a.example/", "http://c.example/"]
    # The csv reader gives no access to the raw line, so the row is left empty.
    assert loaded.rejects == (
        RejectedRow(row="", reason="unreadable csv row: field larger than field limit (131072)"),
    )
    assert len(loaded.targets) + len(loaded.rejects) + loaded.duplicates_collapsed == 3


def test_csv_with_byte_order_mark(tmp_path):
    path = tmp_path / "corpus.csv"
    rows = HEADER + "http://a.example/,app-a,open_source,json\nhttp://b.example/,app-b,closed_source,\n"
    path.write_text(rows, encoding="utf-8-sig")
    assert path.read_bytes().startswith(b"\xef\xbb\xbf")
    loaded = load_targets(path)
    assert [t.url for t in loaded.targets] == ["http://a.example/", "http://b.example/"]
    assert loaded.targets[0].declared_format is DeclaredFormat.JSON
    assert loaded.rejects == ()


def test_jsonl_with_byte_order_mark(tmp_path):
    path = tmp_path / "corpus.jsonl"
    rows = [
        {"url": "http://a.example/", "app_id": "app-a", "source_model": "open_source"},
        {"url": "http://b.example/", "app_id": "app-b", "source_model": "closed_source"},
    ]
    path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8-sig")
    assert path.read_bytes().startswith(b"\xef\xbb\xbf")
    loaded = load_targets(path)
    assert [t.url for t in loaded.targets] == ["http://a.example/", "http://b.example/"]
    assert loaded.rejects == ()
