import json
import socket

import pytest

from smellprobe.cli import EXIT_IO, EXIT_OK, EXIT_PARTIAL, EXIT_USAGE, run
from smellprobe.snapshot import load


def write_corpus(tmp_path, urls, name="corpus.csv"):
    path = tmp_path / name
    lines = ["url,app_id,source_model,declared_format"]
    for i, url in enumerate(urls):
        lines.append(f"{url},app-{i},open_source,")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def scan_args(corpus, out, extra=()):
    return [
        "scan",
        "--corpus", str(corpus),
        "--out", str(out),
        "--connect-timeout", "3",
        "--read-timeout", "3",
        "--retries", "0",
        "--retry-backoff", "0.05",
        "--parallelism", "4",
        *extra,
    ]


@pytest.fixture
def healthy_endpoint(endpoints, library):
    return endpoints(library.profile("http_nginx_banner"))


def test_scan_writes_snapshot(tmp_path, healthy_endpoint, capsys):
    corpus = write_corpus(tmp_path, [healthy_endpoint.url("/")])
    out = tmp_path / "s1.smellsnap.jsonl"
    code = run(scan_args(corpus, out))
    assert code == EXIT_OK
    assert out.is_file()
    snapshot = load(out)
    assert len(snapshot.entries) == 1
    assert snapshot.id == "s1.smellsnap"
    assert "scanned 1 url(s)" in capsys.readouterr().out


def test_scan_without_corpus_is_usage_error(tmp_path, capsys):
    code = run(["scan", "--out", str(tmp_path / "x.jsonl")])
    assert code == EXIT_USAGE
    assert "usage" in capsys.readouterr().err.lower()


def test_scan_missing_corpus_file_is_io_error(tmp_path):
    code = run(scan_args(tmp_path / "nope.csv", tmp_path / "x.jsonl"))
    assert code == EXIT_IO


def test_scan_partial_failure_exit_code(tmp_path, healthy_endpoint):
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    dead = f"http://127.0.0.1:{sock.getsockname()[1]}/"
    sock.close()
    corpus = write_corpus(tmp_path, [healthy_endpoint.url("/"), dead])
    code = run(scan_args(corpus, tmp_path / "s.jsonl"))
    assert code == EXIT_PARTIAL


def test_dry_run_lists_without_probing(tmp_path, healthy_endpoint, capsys):
    corpus = write_corpus(tmp_path, [healthy_endpoint.url("/")])
    code = run(scan_args(corpus, tmp_path / "s.jsonl", extra=["--dry-run"]))
    assert code == EXIT_OK
    assert healthy_endpoint.url("/") in capsys.readouterr().out
    assert healthy_endpoint.requests == []
    assert not (tmp_path / "s.jsonl").exists()


def test_scan_writes_rejects_file(tmp_path, healthy_endpoint, capsys):
    path = tmp_path / "corpus.csv"
    path.write_text(
        "url,app_id,source_model,declared_format\n"
        f"{healthy_endpoint.url('/')},app-0,open_source,\n"
        "ftp://bad,app-1,open_source,\n",
        encoding="utf-8",
    )
    out = tmp_path / "s.jsonl"
    code = run(scan_args(path, out))
    assert code == EXIT_OK
    rejects = tmp_path / "s.jsonl.rejects.jsonl"
    assert rejects.is_file()
    record = json.loads(rejects.read_text(encoding="utf-8").splitlines()[0])
    assert record["reason"] == "unsupported scheme"


def test_parallelism_env_override(tmp_path, healthy_endpoint, monkeypatch):
    monkeypatch.setenv("SMELLPROBE_PARALLELISM", "not-a-number")
    corpus = write_corpus(tmp_path, [healthy_endpoint.url("/")])
    assert run(scan_args(corpus, tmp_path / "s.jsonl")) == EXIT_USAGE
    monkeypatch.setenv("SMELLPROBE_PARALLELISM", "2")
    assert run(scan_args(corpus, tmp_path / "s.jsonl")) == EXIT_OK


def test_diff_between_two_scans(tmp_path, endpoints, library, capsys):
    ep = endpoints(library.profile("m_version_downgrade"))
    corpus = write_corpus(tmp_path, [ep.url("/")])
    s1, s2 = tmp_path / "s1.jsonl", tmp_path / "s2.jsonl"
    assert run(scan_args(corpus, s1)) == EXIT_OK
    ep.mutate(ep.profile.mutation)
    assert run(scan_args(corpus, s2)) == EXIT_OK

    out = tmp_path / "diff.jsonl"
    code = run(["diff", str(s1), str(s2), "--out", str(out)])
    assert code == EXIT_OK
    records = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
    assert len(records) == 1
    assert records[0]["scenario"] == "version_downgrade"
    assert records[0]["before"] == "nginx/1.14.1"
    assert records[0]["after"] == "nginx/1.12.1"


def test_diff_rejects_reversed_order(tmp_path, healthy_endpoint):
    corpus = write_corpus(tmp_path, [healthy_endpoint.url("/")])
    s1, s2 = tmp_path / "s1.jsonl", tmp_path / "s2.jsonl"
    run(scan_args(corpus, s1))
    run(scan_args(corpus, s2))
    code = run(["diff", str(s2), str(s1), "--out", str(tmp_path / "d.jsonl")])
    assert code == EXIT_USAGE


def test_diff_csv_format(tmp_path, healthy_endpoint):
    corpus = write_corpus(tmp_path, [healthy_endpoint.url("/")])
    s1, s2 = tmp_path / "s1.jsonl", tmp_path / "s2.jsonl"
    run(scan_args(corpus, s1))
    run(scan_args(corpus, s2))
    out = tmp_path / "d.csv"
    assert run(["diff", str(s1), str(s2), "--out", str(out), "--format", "csv"]) == EXIT_OK
    header = out.read_text(encoding="utf-8").splitlines()[0]
    assert header == "url,scenario,unclassifiable_reason,before,after,annotations"


def test_diff_on_corrupt_snapshot_is_io_error(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("garbage\n", encoding="utf-8")
    code = run(["diff", str(bad), str(bad), "--out", str(tmp_path / "d.jsonl")])
    assert code == EXIT_IO


def test_report_writes_tables(tmp_path, healthy_endpoint):
    corpus = write_corpus(tmp_path, [healthy_endpoint.url("/")])
    s1 = tmp_path / "s1.jsonl"
    run(scan_args(corpus, s1))
    out_dir = tmp_path / "reports"
    code = run(["report", str(s1), "--out-dir", str(out_dir)])
    assert code == EXIT_OK
    for name in ("prevalence.csv", "leaks.csv", "hsts.csv"):
        assert (out_dir / name).is_file()
    assert not (out_dir / "correlation.csv").exists()


def test_report_with_two_snapshots_adds_correlation(tmp_path, healthy_endpoint):
    corpus = write_corpus(tmp_path, [healthy_endpoint.url("/")])
    s1, s2 = tmp_path / "s1.jsonl", tmp_path / "s2.jsonl"
    run(scan_args(corpus, s1))
    run(scan_args(corpus, s2))
    out_dir = tmp_path / "reports"
    code = run(["report", str(s1), str(s2), "--out-dir", str(out_dir), "--format", "json"])
    assert code == EXIT_OK
    assert (out_dir / "correlation.json").is_file()
    assert (out_dir / "maintenance.jsonl").is_file()


def test_report_rejects_three_snapshots(tmp_path, healthy_endpoint, capsys):
    corpus = write_corpus(tmp_path, [healthy_endpoint.url("/")])
    s1 = tmp_path / "s1.jsonl"
    run(scan_args(corpus, s1))
    code = run(["report", str(s1), str(s1), str(s1), "--out-dir", str(tmp_path / "r")])
    assert code == EXIT_USAGE


def test_unknown_subcommand_is_usage_error(capsys):
    assert run(["polish"]) == EXIT_USAGE


def test_report_counts_url_new_in_second_snapshot(tmp_path, healthy_endpoint, endpoints, library):
    newcomer = endpoints(library.profile("http_nginx_banner"))
    corpus1 = write_corpus(tmp_path, [healthy_endpoint.url("/")], name="c1.csv")
    corpus2 = write_corpus(
        tmp_path, [healthy_endpoint.url("/"), newcomer.url("/")], name="c2.csv"
    )
    s1, s2 = tmp_path / "s1.jsonl", tmp_path / "s2.jsonl"
    assert run(scan_args(corpus1, s1)) == EXIT_OK
    assert run(scan_args(corpus2, s2)) == EXIT_OK

    out_dir = tmp_path / "reports"
    code = run(["report", str(s1), str(s2), "--out-dir", str(out_dir), "--format", "json"])
    assert code == EXIT_OK
    rows = json.loads((out_dir / "correlation.json").read_text(encoding="utf-8"))["rows"]
    spawned = [row for row in rows if row["scenario"] == "server_spawned"]
    new_count = len(load(s2).entries[newcomer.url("/")].report.findings)
    assert spawned == [{"scenario": "server_spawned", "smell_count": new_count, "urls": 1}]
    assert sum(row["urls"] for row in rows) == 2
