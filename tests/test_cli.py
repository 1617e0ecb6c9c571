import contextlib
import json
import os
import random
import re
import signal
import subprocess
import sys
import time
from dataclasses import fields
from datetime import timedelta
from pathlib import Path

import pytest

import smellprobe

from smellprobe import cli, model
from smellprobe.cli import EXIT_IO, EXIT_OK, EXIT_PARTIAL, EXIT_USAGE, run
from smellprobe.harness import FixtureProfile, RouteSpec
from smellprobe.model import BodyFormat, SmellKind
from smellprobe.probe import ProbeConfig
from smellprobe.smells import detect_all
from smellprobe.snapshot import load, save

from golden import (
    LIBRARY_GOLDEN, LIBRARY_REPORT, LIBRARY_ROUND2, SCAN_TIMES, library_rows, mask_library_report,
    mask_library_scan, second_round_rows, write_library_corpus,
)
from helpers import EPOCH, SCHEMA4, SCHEMA4_ROUND1, build_entry, build_snapshot, corrupt_schema4_round1


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


def test_scan_partial_failure_exit_code(tmp_path, healthy_endpoint, refusing_endpoint):
    corpus = write_corpus(tmp_path, [healthy_endpoint.url("/"), refusing_endpoint.url("/")])
    code = run(scan_args(corpus, tmp_path / "s.jsonl"))
    assert code == EXIT_PARTIAL


def test_dry_run_lists_without_probing(tmp_path, healthy_endpoint, capsys):
    corpus = write_corpus(tmp_path, [healthy_endpoint.url("/")])
    code = run(scan_args(corpus, tmp_path / "s.jsonl", extra=["--dry-run"]))
    assert code == EXIT_OK
    assert healthy_endpoint.url("/") in capsys.readouterr().out
    assert healthy_endpoint.requests == []
    assert not (tmp_path / "s.jsonl").exists()


@pytest.mark.parametrize("dry_run", [[], ["--dry-run"]], ids=["scan", "dry run"])
@pytest.mark.parametrize("bundle", ["missing.pem", ".", "no-certificate.pem"])
def test_unreadable_ca_bundle_is_usage_error(tmp_path, endpoints, library, capsys, bundle, dry_run):
    """A bundle that cannot be read, or that is read and holds no certificate, fails the scan
    once, before any request, and its dry run with the same line."""
    ep = endpoints(library.profile("https_no_hsts"))
    corpus = write_corpus(tmp_path, [ep.url("/"), ep.url("/other")])
    (tmp_path / "no-certificate.pem").write_text("no PEM block here\n", encoding="utf-8")
    path = str(tmp_path / bundle)
    out = tmp_path / "s.jsonl"
    code = run(scan_args(corpus, out, extra=["--ca-bundle", path, *dry_run]))
    assert code == EXIT_USAGE
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith(f"usage error: --ca-bundle {path}: ")
    assert ep.requests == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.csv", "no-certificate.pem"]


def test_ca_bundle_without_certificate_fails_an_http_scan_redirected_to_https(tmp_path, endpoints,
                                                                               library, capsys):
    """The bundle is loaded once, before any request, even when only a redirect reaches https."""
    ep = endpoints(library.profile("http_upgrade_redirect"))
    corpus = write_corpus(tmp_path, [ep.url("/", scheme="http")])
    bundle = tmp_path / "no-certificate.pem"
    bundle.write_text("no PEM block here\n", encoding="utf-8")
    code = run(scan_args(corpus, tmp_path / "s.jsonl", extra=["--ca-bundle", str(bundle)]))
    assert code == EXIT_USAGE
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith(f"usage error: --ca-bundle {bundle}: ")
    assert ep.requests == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.csv", "no-certificate.pem"]


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


# Rows the request-URL rule refuses, and the rejects a scan writes for them:
# the same byte for byte on every Python, brackets and ports included.
REFUSED_ROWS = [
    ("http://[garbage]/,app-0,open_source,", "bad bracketed host: '[garbage]'"),
    ("http://a[::1]b/,app-1,open_source,", "bad bracketed host: 'a[::1]b'"),
    ("http://[::1/,app-2,open_source,", "bad bracketed host: '[::1'"),
    ("http://:80/,app-3,open_source,", "url has no host"),
    ("http://h.example:8x/,app-4,open_source,", "bad port: '8x'"),
    ("http://h.example:99999/,app-5,open_source,", "bad port: '99999'"),
    ("http:///x,app-6,open_source,", "url not absolute"),
    ("ftp://h.example/,app-7,open_source,", "unsupported scheme"),
]


def test_scan_of_refused_rows_writes_their_rejects_byte_for_byte(tmp_path, capsys):
    corpus = tmp_path / "refused.csv"
    corpus.write_text("url,app_id,source_model,declared_format\n"
                      + "".join(f"{row}\n" for row, _ in REFUSED_ROWS), encoding="utf-8")
    rejects = tmp_path / "refused.rejects.jsonl"
    assert run(scan_args(corpus, tmp_path / "refused.jsonl", extra=["--rejects", str(rejects)])) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[0] == "scanned 0 url(s); 0 with transport errors"
    assert rejects.read_text(encoding="utf-8") == "".join(
        f'{{"reason": "{reason}", "row": "{row}"}}\n' for row, reason in REFUSED_ROWS
    )


def test_dry_run_writes_no_file(tmp_path, healthy_endpoint, capsys):
    corpus = write_corpus(tmp_path, [healthy_endpoint.url("/"), "ftp://files.example/"])
    out = tmp_path / "missing" / "s.smellsnap.jsonl"
    assert run(scan_args(corpus, out, extra=["--dry-run"])) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [healthy_endpoint.url("/")]
    assert "rejected 1 row(s)" in captured.err
    assert healthy_endpoint.requests == []
    assert [p.name for p in tmp_path.iterdir()] == ["corpus.csv"]


def test_empty_user_agent_is_usage_error(tmp_path, healthy_endpoint, capsys):
    corpus = write_corpus(tmp_path, [healthy_endpoint.url("/")])
    out = tmp_path / "s.jsonl"
    assert run(scan_args(corpus, out, extra=["--user-agent", ""])) == EXIT_USAGE
    assert "user_agent" in capsys.readouterr().err
    assert healthy_endpoint.requests == []
    assert not out.exists()


def test_non_finite_retry_backoff_is_usage_error(tmp_path, healthy_endpoint, capsys):
    corpus = write_corpus(tmp_path, [healthy_endpoint.url("/")])
    out = tmp_path / "s.jsonl"
    code = run(scan_args(corpus, out, extra=["--retries", "1", "--retry-backoff", "nan"]))
    assert code == EXIT_USAGE
    assert "usage error: retry_backoff must be finite" in capsys.readouterr().err
    assert healthy_endpoint.requests == []
    assert [p.name for p in tmp_path.iterdir()] == ["corpus.csv"]


def test_json_auth_heuristic_flag_is_gone(tmp_path, healthy_endpoint, capsys):
    corpus = write_corpus(tmp_path, [healthy_endpoint.url("/")])
    out = tmp_path / "s.jsonl"
    assert run(scan_args(corpus, out, extra=["--json-auth-heuristic"])) == EXIT_USAGE
    assert "--json-auth-heuristic" in capsys.readouterr().err
    assert healthy_endpoint.requests == []
    assert not out.exists()


@pytest.mark.parametrize("command, removed", [
    ("scan", "--corpus-format csv"), ("report", "--corpus-format csv"), ("diff", "--format csv"),
    ("scan", "--max-redirects 3"), ("scan", "--body-sample-limit 100"),
])
def test_removed_flags_are_usage_errors(tmp_path, healthy_endpoint, capsys, command, removed):
    """The flags that set a file's format or what a scan keeps are gone: each is a usage error."""
    corpus = write_corpus(tmp_path, [healthy_endpoint.url("/")])
    rounds = [str(SCHEMA4 / f"round{n}.smellsnap.jsonl") for n in (1, 2)]
    args = {
        "scan": scan_args(corpus, tmp_path / "s.jsonl"),
        "report": ["report", *rounds, "--out-dir", str(tmp_path / "r"), "--corpus", str(corpus)],
        "diff": ["diff", *rounds, "--out", str(tmp_path / "m.csv")],
    }[command]
    assert run([*args, *removed.split()]) == EXIT_USAGE
    assert f"unrecognized arguments: {removed}" in capsys.readouterr().err
    assert healthy_endpoint.requests == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.csv"]


def test_scan_without_probe_flags_uses_config_defaults():
    args = cli._build_parser().parse_args(["scan", "--corpus", "c.csv", "--out", "s.jsonl"])
    assert cli._probe_config(args) == ProbeConfig()


def test_probe_flags_match_config_fields_and_readme():
    """The scan parser, ProbeConfig and the README name the same probe settings."""
    scan = cli._build_parser()._subparsers._group_actions[0].choices["scan"]
    other = {"-h", "--help", "--corpus", "--out", "--id", "--rejects", "--dry-run"}
    flags = {opt for action in scan._actions for opt in action.option_strings} - other
    settings = {"--" + f.name.replace("_", "-") for f in fields(ProbeConfig)}
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    paragraph = readme[readme.index("Probe behavior is tunable with"):].split("\n\n")[0]
    documented = set(re.findall(r"`(--[a-z-]+)`", paragraph))
    assert len(settings) == 7
    assert flags == settings == documented


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == smellprobe.__version__


def test_version_is_written_once():
    """Snapshots and the User-Agent take the version from the package root."""
    assert model.TOOL_VERSION is smellprobe.__version__
    package = Path(smellprobe.__file__).parent
    literal = f'"{smellprobe.__version__}"'
    assert [path.name for path in sorted(package.rglob("*.py")) if literal in path.read_text()] == ["__init__.py"]


def test_package_holds_its_data_tables_and_fixture_pems():
    """What package-data must ship: against an install, this checks the install."""
    package = Path(smellprobe.__file__).parent
    tables = ["body_banners.json", "framework_patterns.json", "os_dictionary.json", "service_names.json"]
    assert sorted(path.name for path in (package / "data").glob("*.json")) == tables
    assert sorted(path.name for path in package.glob("*.pem")) == ["fixture_cert.pem", "fixture_key.pem"]


def test_readme_library_example_runs(tmp_path, healthy_endpoint):
    """The README's "Library use" block, run as it stands on a one-row corpus."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("## Library use"):]
    block = section[section.index("```python\n") + len("```python\n"):section.index("```\n\n")]
    write_corpus(tmp_path, [healthy_endpoint.url("/")])
    env = dict(os.environ, PYTHONPATH=str(Path(smellprobe.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", block], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    smells = ["insecure_transport", "lack_of_access_control", "missing_https_redirect", "version_disclosure"]
    assert done.stdout == f"{healthy_endpoint.url('/')} {smells}\n"


def test_diff_between_two_scans(tmp_path, endpoints, library, capsys):
    ep = endpoints(library.profile("m_version_downgrade"))
    corpus = write_corpus(tmp_path, [ep.url("/")])
    s1, s2 = tmp_path / "s1.jsonl", tmp_path / "s2.jsonl"
    assert run(scan_args(corpus, s1)) == EXIT_OK
    ep.mutate(library.second_round["m_version_downgrade"].routes)
    assert run(scan_args(corpus, s2)) == EXIT_OK

    out = tmp_path / "diff.jsonl"
    code = run(["diff", str(s1), str(s2), "--out", str(out)])
    assert code == EXIT_OK
    records = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
    assert len(records) == 1
    assert records[0]["scenario"] == "version_downgrade"
    assert records[0]["before"] == "nginx/1.14.1"
    assert records[0]["after"] == "nginx/1.12.1"


def test_diff_csv_format(tmp_path, healthy_endpoint):
    corpus = write_corpus(tmp_path, [healthy_endpoint.url("/")])
    s1, s2 = tmp_path / "s1.jsonl", tmp_path / "s2.jsonl"
    run(scan_args(corpus, s1))
    run(scan_args(corpus, s2))
    out = tmp_path / "d.csv"
    assert run(["diff", str(s1), str(s2), "--out", str(out)]) == EXIT_OK
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


ROUND1, ROUND2 = (str(SCHEMA4 / f"round{n}.smellsnap.jsonl") for n in (1, 2))
ORDER_ERROR = "error: first snapshot must predate the second"
# Run in a directory that holds the files FAILURE_FILES writes, through
# relative paths, so each line names a file as the user gave it.
FAILURES = {
    "missing corpus": (["scan", "--corpus", "missing.csv", "--out", "s.jsonl"],
                       EXIT_IO, ["error: corpus file not found: missing.csv"]),
    "corpus not utf-8": (["scan", "--corpus", "latin1.csv", "--out", "s.jsonl"], EXIT_IO,
                         ["error: 'utf-8' codec can't decode byte 0xff in position 11: invalid start byte"]),
    "unwritable rejects": (
        ["scan", "--corpus", "mixed.csv", "--out", "s.jsonl", "--rejects", "missing/r.jsonl"], EXIT_IO,
        ["error: cannot write rejects: [Errno 2] No such file or directory: 'missing/r.jsonl'"]),
    "unwritable snapshot": (
        ["scan", "--corpus", "corpus.csv", "--out", "missing/s.jsonl"], EXIT_IO,
        ["error: cannot write snapshot: [Errno 2] No such file or directory: 'missing/s.jsonl'"]),
    "unwritable records": (
        ["diff", ROUND1, ROUND2, "--out", "missing/m.jsonl"], EXIT_IO,
        ["error: cannot write records: [Errno 2] No such file or directory: 'missing/m.jsonl'"]),
    "snapshot a directory": (["scan", "--corpus", "corpus.csv", "--out", "a-dir"], EXIT_IO,
                             ["error: cannot write snapshot: [Errno 21] Is a directory: 'a-dir'"]),
    "snapshot a directory, with rejects": (
        ["scan", "--corpus", "mixed.csv", "--out", "a-dir"], EXIT_IO,
        ["error: cannot write snapshot: [Errno 21] Is a directory: 'a-dir'"]),
    "records a directory": (["diff", ROUND1, ROUND2, "--out", "a-dir"], EXIT_IO,
                            ["error: cannot write records: [Errno 21] Is a directory: 'a-dir'"]),
    "corrupt snapshot": (
        ["diff", "corrupt.smellsnap.jsonl", ROUND2, "--out", "m.jsonl"], EXIT_IO,
        ["error: record 0: bad header (Expecting value: line 1 column 1 (char 0))"]),
    "missing snapshot": (
        ["report", "missing.smellsnap.jsonl", "--out-dir", "r"], EXIT_IO,
        ["error: [Errno 2] No such file or directory: 'missing.smellsnap.jsonl'"]),
    "corpus not covered": (
        ["report", ROUND1, "--corpus", "corpus.csv", "--out-dir", "r"], EXIT_IO,
        ["error: snapshot does not cover corpus: 1 url(s) missing"]),
    "out-dir is a file": (["report", ROUND1, "--out-dir", "a-file"], EXIT_IO,
                          ["error: [Errno 17] File exists: 'a-file'"]),
    "diff out of order": (["diff", ROUND2, ROUND1, "--out", "m.jsonl"], EXIT_USAGE, [ORDER_ERROR]),
    "report out of order": (["report", ROUND2, ROUND1, "--out-dir", "r"], EXIT_USAGE, [ORDER_ERROR]),
    "three report snapshots": (["report", ROUND1, ROUND1, ROUND2, "--out-dir", "r"], EXIT_USAGE,
                               ["usage error: report takes one or two snapshots"]),
    "negative retries": (["scan", "--corpus", "corpus.csv", "--out", "s.jsonl", "--retries", "-1"],
                         EXIT_USAGE, ["usage error: retries must be >= 0"]),
    "missing ca-bundle": (
        ["scan", "--corpus", "corpus.csv", "--out", "s.jsonl", "--ca-bundle", "missing.pem"], EXIT_USAGE,
        ["usage error: --ca-bundle missing.pem: No such file or directory"]),
    # The one failure that prints more than its line: argparse's usage follows.
    "missing required flag": (["scan", "--out", "s.jsonl"], EXIT_USAGE,
                              ["usage error: the following arguments are required: --corpus",
                               "usage: smellprobe [-h] {scan,diff,report} ..."]),
}
# Each {url} is the test's live endpoint; None is an empty directory.
FAILURE_FILES = {
    "corpus.csv": b"url,app_id,source_model,declared_format\n{url},app-0,open_source,\n",
    "mixed.csv": b"url,app_id,source_model,declared_format\n"
                 b"{url},app-0,open_source,\nftp://files.example/,app-1,open_source,\n",
    "latin1.csv": b"url,app_id\n\xff\xfe\n",
    "a-file": b"not a directory\n",
    "a-dir": None,
    "corrupt.smellsnap.jsonl": b"garbage\n",
}


@pytest.mark.parametrize("name", FAILURES)
def test_each_failure_exits_with_its_code_and_one_stderr_line(tmp_path, monkeypatch, capsys,
                                                              healthy_endpoint, name):
    """Exit 3 with ``error:`` for I/O and data, exit 1 for a command line that cannot run;
    the failure sends no request and writes no file, hidden ones included."""
    args, code, stderr = FAILURES[name]
    for file_name, data in FAILURE_FILES.items():
        if data is None:
            (tmp_path / file_name).mkdir()
        else:
            (tmp_path / file_name).write_bytes(data.replace(b"{url}", healthy_endpoint.url("/").encode()))
    monkeypatch.chdir(tmp_path)
    assert run(args) == code
    captured = capsys.readouterr()
    assert (captured.out, captured.err.splitlines()) == ("", stderr)
    assert healthy_endpoint.requests == []
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(FAILURE_FILES)
    assert list((tmp_path / "a-dir").iterdir()) == []


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


def test_https_fixture_and_scan_need_only_the_standard_library(tmp_path):
    """An https loopback fixture starts, and a scan trusting it succeeds, in a
    child where importing anything outside the standard library fails."""
    corpus = tmp_path / "corpus.csv"
    out = tmp_path / "s.smellsnap.jsonl"
    child = (
        "import sys\n"
        "class StdlibOnly:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name.partition('.')[0] not in {*sys.stdlib_module_names, 'smellprobe'}:\n"
        "            raise ImportError(f'{name} is outside the standard library')\n"
        "sys.meta_path.insert(0, StdlibOnly())\n"
        "from smellprobe.cli import run\n"
        "from smellprobe.harness import FixtureProfile, RouteSpec, spawn\n"
        "ep = spawn(FixtureProfile(name='tls', schemes=('https',), routes={'/': RouteSpec()}))\n"
        "corpus, *args = sys.argv[1:]\n"
        "with open(corpus, 'w', encoding='utf-8') as f:\n"
        "    f.write(f'url,app_id,source_model,declared_format\\n{ep.url()},app-0,open_source,\\n')\n"
        "code = run([*args, '--ca-bundle', ep.ca_file])\n"
        "ep.shutdown()\n"
        "sys.exit(code)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(smellprobe.__file__).parent.parent))
    done = subprocess.run(
        [sys.executable, "-c", child, str(corpus), *scan_args(corpus, out)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == EXIT_OK, done.stderr
    assert "scanned 1 url(s); 0 with transport errors" in done.stdout
    [entry] = load(out).entries.values()
    assert entry.result.target.url.startswith("https://127.0.0.1:")
    assert entry.result.status == 200


def test_cli_import_and_diff_compile_no_detector_pattern(tmp_path):
    """diff never detects, so it builds neither detector pattern table."""
    rounds = [str(SCHEMA4 / f"round{n}.smellsnap.jsonl") for n in (1, 2)]
    child = (
        "import sys\n"
        "from smellprobe import smells\n"
        "from smellprobe.cli import run\n"
        "code = run(sys.argv[1:])\n"
        "tables = (smells._framework_table, smells._body_banner_table)\n"
        "sys.exit(code if all(t.cache_info().currsize == 0 for t in tables) else 99)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(smellprobe.__file__).parent.parent))
    done = subprocess.run(
        [sys.executable, "-c", child, "diff", *rounds, "--out", str(tmp_path / "m.jsonl")],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == EXIT_OK, done.stderr


def test_module_entry_runs_the_cli(tmp_path, healthy_endpoint):
    """``python -m smellprobe.cli`` behaves as the console script does."""
    corpus = write_corpus(tmp_path, [healthy_endpoint.url("/")])
    out = tmp_path / "s.jsonl"
    env = dict(os.environ, PYTHONPATH=str(Path(smellprobe.__file__).parent.parent))

    def module(*extra):
        return subprocess.run(
            [sys.executable, "-m", "smellprobe.cli", *scan_args(corpus, out, extra)],
            env=env, capture_output=True, text=True, timeout=60,
        )

    bad = module("--connect-timeout", "nan")
    assert bad.returncode == EXIT_USAGE
    assert "usage error: connect_timeout must be finite" in bad.stderr
    dry = module("--dry-run")
    assert (dry.returncode, dry.stdout) == (EXIT_OK, healthy_endpoint.url("/") + "\n")
    assert healthy_endpoint.requests == []
    assert not out.exists()


def test_closed_stdout_exits_io_without_traceback(tmp_path, healthy_endpoint):
    """A reader that closes stdout early gets exit 3 and nothing on stderr, not a traceback."""
    big = tmp_path / "big.csv"
    rows = "".join(f"http://h{i}.example/,app-{i},open_source,\n" for i in range(20_000))
    big.write_text("url,app_id,source_model,declared_format\n" + rows, encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(Path(smellprobe.__file__).parent.parent))
    cli_module = [sys.executable, "-m", "smellprobe.cli"]
    # A dry run far longer than the pipe's buffer, read as `| head -n 1` reads it.
    dry = subprocess.Popen(
        [*cli_module, "scan", "--corpus", str(big), "--out", str(tmp_path / "d.jsonl"), "--dry-run"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert dry.stdout.readline() == b"http://h0.example/\n"
    dry.stdout.close()
    _, stderr = dry.communicate(timeout=60)
    assert (dry.returncode, stderr) == (EXIT_IO, b"")

    # A scan whose summary meets a pipe with no reader still commits its snapshot.
    corpus = write_corpus(tmp_path, [healthy_endpoint.url("/")])
    out = tmp_path / "s.smellsnap.jsonl"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run([*cli_module, *scan_args(corpus, out)], env=env, stdout=write_end,
                              stderr=subprocess.PIPE, timeout=60)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (EXIT_IO, b"")
    [entry] = load(out).entries.values()
    assert entry.result.status == 200


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("buffered", [True, False])
@pytest.mark.parametrize("command", ["diff", "dry run", "help"])
def test_stdout_write_error_exits_io_with_one_error_line(tmp_path, command, buffered):
    """A stdout that cannot be written exits 3 with one error line, whether a write fails
    while the command runs or the last flush does, after argparse's --help exit included."""
    rounds = [str(SCHEMA4 / f"round{n}.smellsnap.jsonl") for n in (1, 2)]
    big = tmp_path / "big.csv"
    rows = "".join(f"http://h{i}.example/,app-{i},open_source,\n" for i in range(2_000))
    big.write_text("url,app_id,source_model,declared_format\n" + rows, encoding="utf-8")
    args = {
        "diff": ["diff", *rounds, "--out", str(tmp_path / "m.jsonl")],
        "dry run": ["scan", "--corpus", str(big), "--out", str(tmp_path / "d.jsonl"), "--dry-run"],
        "help": ["diff", "--help"],
    }[command]
    env = dict(os.environ, PYTHONPATH=str(Path(smellprobe.__file__).parent.parent))
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "w") as full:
        done = subprocess.run([sys.executable, "-m", "smellprobe.cli", *args], env=env,
                              stdout=full, stderr=subprocess.PIPE, text=True, timeout=60)
    assert done.returncode == EXIT_IO
    assert done.stderr == "error: cannot write stdout: [Errno 28] No space left on device\n"
    if command == "diff":  # the records are written before the line that reports them
        expected = SCHEMA4 / "report" / "maintenance.jsonl"
        assert (tmp_path / "m.jsonl").read_bytes() == expected.read_bytes()


def test_os_error_not_from_stdout_is_raised(tmp_path):
    """Only stdout's write errors become exit 3: any other OSError keeps its traceback."""
    child = (
        "from smellprobe import cli\n"
        "def broken(args):\n"
        "    raise OSError(5, 'disk gone')\n"
        "cli._cmd_diff = broken\n"
        "cli.console_main()\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(smellprobe.__file__).parent.parent))
    rounds = [str(SCHEMA4 / f"round{n}.smellsnap.jsonl") for n in (1, 2)]
    done = subprocess.run(
        [sys.executable, "-c", child, "diff", *rounds, "--out", str(tmp_path / "m.jsonl")],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 1
    assert "Traceback" in done.stderr
    assert done.stderr.splitlines()[-1] == "OSError: [Errno 5] disk gone"


# Registered before run(), so atexit calls it after run()'s own exit hook.
EXIT_PROBE = (
    "import atexit, gc, sys\n"
    "freezes = []\n"
    "freeze = gc.freeze\n"
    "gc.freeze = lambda: (freezes.append(1), freeze())\n"
    "atexit.register(lambda: print(f'probe: {len(freezes)} freeze(s), {gc.get_freeze_count() > 0}'))\n"
    "from smellprobe.cli import run\n"
    "sys.exit(max(run(sys.argv[1:]) for _ in range(2)))\n"
)


def written_files(directory: Path) -> dict[str, bytes]:
    return {str(p.relative_to(directory)): SCAN_TIMES.sub(b"T", p.read_bytes())
            for p in sorted(directory.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("command", ["scan", "diff", "report"])
def test_exit_path_freezes_once_and_changes_no_output(tmp_path, healthy_endpoint, monkeypatch,
                                                      capsys, command):
    """A child that runs a command twice writes what two in-process runs write."""
    corpus = write_corpus(tmp_path, [healthy_endpoint.url("/")])
    rounds = [str(SCHEMA4 / f"round{n}.smellsnap.jsonl") for n in (1, 2)]
    args = {
        "scan": scan_args(corpus, "s.smellsnap.jsonl"),
        "diff": ["diff", *rounds, "--out", "m.jsonl"],
        "report": ["report", *rounds, "--out-dir", "r", "--format", "json"],
    }[command]
    in_process, child = tmp_path / "in-process", tmp_path / "child"
    in_process.mkdir()
    child.mkdir()
    monkeypatch.chdir(in_process)
    assert [run(args) for _ in range(2)] == [EXIT_OK, EXIT_OK]
    expected = capsys.readouterr().out
    env = dict(os.environ, PYTHONPATH=str(Path(smellprobe.__file__).parent.parent))
    done = subprocess.run([sys.executable, "-c", EXIT_PROBE, *args], cwd=child, env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == EXIT_OK, done.stderr
    assert done.stdout == expected + "probe: 1 freeze(s), True\n"
    assert written_files(child) == written_files(in_process) != {}


# --- what each command loads -------------------------------------------------------

# The smellprobe modules each command leaves in sys.modules.
COMMAND_MODULES = {
    "dry run": {"cli", "corpus", "model", "probe"},
    "scan": {"cli", "corpus", "data", "model", "probe", "smells", "snapshot", "versions"},
    "scan with a transport error": {"cli", "corpus", "data", "model", "probe", "smells", "snapshot", "versions"},
    "diff": {"cli", "data", "maintenance", "model", "snapshot", "versions"},
    "report": {"cli", "data", "maintenance", "model", "reports", "snapshot", "versions"},
    "report --corpus": {
        "cli", "corpus", "data", "maintenance", "model", "reports", "snapshot", "versions",
    },
}


# The modules each command leaves out of sys.modules (README "Library use").
# The probe's workers are plain threads, so no command loads concurrent.futures
# or the logging it imports; the probe reads each response itself, so none
# loads http.client or the email package it parsed header blocks with, not even
# to look up a failed exchange; diff and report never probe or detect, and
# report rounds percentages with integers alone.
NOT_LOADED = {"concurrent.futures", "logging", "http.client", "email"}
NOT_PROBING = NOT_LOADED | {"ssl", "socket", "smellprobe.probe", "smellprobe.smells"}
COMMAND_SHUNS = {
    "dry run": NOT_LOADED | {"ssl"},
    "scan": NOT_LOADED,
    "scan with a transport error": NOT_LOADED,
    "diff": NOT_PROBING,
    "report": NOT_PROBING | {"decimal"},
    "report --corpus": NOT_PROBING | {"decimal"},
}


def loaded_modules(code: str, args=(), flags=()) -> set[str]:
    """Every module a child interpreter, started with ``flags``, holds after running ``code``."""
    child = f"import sys\n{code}\nprint(' '.join(sys.modules))\n"
    env = dict(os.environ, PYTHONPATH=str(Path(smellprobe.__file__).parent.parent))
    done = subprocess.run(
        [sys.executable, *flags, "-c", child, *args], env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return set(done.stdout.splitlines()[-1].split())


def own_modules(names: set[str]) -> set[str]:
    return {name.removeprefix("smellprobe.") for name in names if name.startswith("smellprobe.")}


@pytest.mark.parametrize("command", sorted(COMMAND_MODULES))
def test_each_command_loads_only_the_modules_it_runs(tmp_path, healthy_endpoint, refusing_endpoint, command):
    rounds = [str(SCHEMA4 / f"round{n}.smellsnap.jsonl") for n in (1, 2)]
    corpus = write_corpus(tmp_path, [healthy_endpoint.url("/")])
    failing = write_corpus(tmp_path, [healthy_endpoint.url("/"), refusing_endpoint.url("/")], name="failing.csv")
    covered_url = json.loads(Path(rounds[0]).read_text(encoding="utf-8").splitlines()[1])["url"]
    covered = write_corpus(tmp_path, [covered_url], name="covered.csv")
    out = tmp_path / "s.smellsnap.jsonl"
    args = {
        "dry run": scan_args(corpus, out, extra=["--dry-run"]),
        "scan": scan_args(corpus, out),
        "scan with a transport error": scan_args(failing, out, extra=["--retries", "0"]),
        "diff": ["diff", *rounds, "--out", str(tmp_path / "m.jsonl")],
        "report": ["report", *rounds, "--out-dir", str(tmp_path / "r")],
        "report --corpus": ["report", rounds[0], "--out-dir", str(tmp_path / "r"),
                            "--corpus", str(covered)],
    }[command]
    exit_code = EXIT_PARTIAL if command == "scan with a transport error" else EXIT_OK
    code = f"from smellprobe.cli import run\nassert run(sys.argv[1:]) == {exit_code}"
    loaded = loaded_modules(code, args)
    assert own_modules(loaded) == COMMAND_MODULES[command]
    assert loaded & COMMAND_SHUNS[command] == set()
    # The data tables are read by path.  Only without site (-S) does that show:
    # a .pth hook that site runs may import importlib.resources itself.
    assert "importlib.resources" not in loaded_modules(code, args, flags=["-S"])


def test_importing_the_package_loads_no_module():
    assert own_modules(loaded_modules("import smellprobe\nassert smellprobe.__version__")) == set()


# --- streaming scan, diff and report ---------------------------------------------


def delayed_endpoint(endpoints, delays):
    """One endpoint with a route per (path, delay)."""
    routes = {path: RouteSpec(headers=(("Server", "nginx/1.14.1"),), body=b"ok", delay=delay)
              for path, delay in delays}
    return endpoints(FixtureProfile(name="delayed", routes=routes))


@pytest.mark.parametrize("out", ["missing/s.smellsnap.jsonl", "a-file/s.smellsnap.jsonl"])
def test_scan_to_unwritable_out_fails_before_probing(tmp_path, healthy_endpoint, capsys, out):
    (tmp_path / "a-file").write_text("not a directory", encoding="utf-8")
    corpus = write_corpus(tmp_path, [healthy_endpoint.url("/")])
    assert run(scan_args(corpus, tmp_path / out)) == EXIT_IO
    assert healthy_endpoint.requests == []
    assert "cannot write snapshot" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a-file", "corpus.csv"]


def test_scan_with_rejects_to_missing_directory_is_io_error(tmp_path, healthy_endpoint, capsys):
    """The default rejects go beside --out: the snapshot, checked first, names the missing directory."""
    corpus = write_corpus(tmp_path, [healthy_endpoint.url("/"), "ftp://files.example/"])
    out = tmp_path / "missing" / "s.smellsnap.jsonl"
    assert run(scan_args(corpus, out)) == EXIT_IO
    assert capsys.readouterr().err == f"error: cannot write snapshot: [Errno 2] No such file or directory: '{out}'\n"
    assert healthy_endpoint.requests == []


@pytest.mark.parametrize("fault", [RuntimeError, KeyboardInterrupt])
def test_scan_failing_midway_cancels_queue_and_keeps_previous_snapshot(
    tmp_path, endpoints, monkeypatch, fault
):
    ep = delayed_endpoint(endpoints, [(f"/u{i:02d}", 0.2) for i in range(40)])
    corpus = write_corpus(tmp_path, [ep.url(f"/u{i:02d}") for i in range(40)])
    out = tmp_path / "s.smellsnap.jsonl"
    out.write_bytes(b"the previous snapshot\n")
    calls = []

    def third_call_fails(*args, **kwargs):
        calls.append(args)
        if len(calls) == 3:
            raise fault("detector failed")
        return detect_all(*args, **kwargs)

    monkeypatch.setattr("smellprobe.smells.detect_all", third_call_fails)
    start = time.monotonic()
    with pytest.raises(fault):
        run(scan_args(corpus, out))
    elapsed = time.monotonic() - start
    # Probing all 40 URLs four at a time takes 2 s.  The third result comes
    # in at 0.2 s: URLs 0-9 have been submitted and at most 0-7 started.
    # The rest are cancelled and the running ones finish.
    assert elapsed < 1.0
    assert len(ep.requests) <= 8
    assert out.read_bytes() == b"the previous snapshot\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.csv", out.name]


def test_scan_interrupted_while_probing_keeps_the_previous_rejects(tmp_path, healthy_endpoint, monkeypatch):
    corpus = write_corpus(tmp_path, [healthy_endpoint.url("/"), "ftp://files.example/"])
    out = tmp_path / "s.smellsnap.jsonl"
    rejects = tmp_path / "s.smellsnap.jsonl.rejects.jsonl"
    rejects.write_bytes(b"the previous rejects\n")

    def interrupted(target, cfg):
        raise KeyboardInterrupt

    monkeypatch.setattr("smellprobe.probe.probe_and_follow", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run(scan_args(corpus, out))
    assert rejects.read_bytes() == b"the previous rejects\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.csv", rejects.name]


@pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM], ids=lambda s: s.name)
def test_scan_interrupted_by_sigint_leaves_previous_snapshot(tmp_path, endpoints, signum):
    """Ctrl-C and SIGTERM (``kill``, ``timeout``, a CI cancel) unwind the scan alike."""
    ep = delayed_endpoint(endpoints, [(f"/u{i:02d}", 1.0) for i in range(20)])
    corpus = write_corpus(tmp_path, [ep.url(f"/u{i:02d}") for i in range(20)])
    out = tmp_path / "s.smellsnap.jsonl"
    out.write_bytes(b"the previous snapshot\n")
    # faulthandler dumps every thread's stack on SIGABRT, so a child that
    # hangs after the signal fails the test with the place where it hangs.
    env = {**os.environ, "PYTHONPATH": str(Path(smellprobe.__file__).parents[1]),
           "PYTHONFAULTHANDLER": "1"}
    stderr = tmp_path / "child.stderr"
    with stderr.open("wb") as child_stderr:
        child = subprocess.Popen(
            [sys.executable, "-c", "import sys; from smellprobe.cli import run; sys.exit(run(sys.argv[1:]))",
             *scan_args(corpus, out, extra=["--parallelism", "2"])],
            env=env, stdout=subprocess.DEVNULL, stderr=child_stderr,
        )
    hung = False
    try:
        deadline = time.monotonic() + 10
        while not ep.requests and time.monotonic() < deadline:
            time.sleep(0.01)
        assert ep.requests, "the scan never started"
        child.send_signal(signum)
        try:
            child.wait(timeout=5)
        except subprocess.TimeoutExpired:
            hung = True
            child.send_signal(signal.SIGABRT)
            with contextlib.suppress(subprocess.TimeoutExpired):
                child.wait(timeout=5)
    finally:
        child.kill()
        child.wait()
        dump = stderr.read_text(encoding="utf-8", errors="replace")
        stderr.unlink()
    if hung:
        pytest.fail(f"the scan did not exit within 5 s of {signum.name}; its stderr:\n{dump}")
    assert (child.returncode, dump) == (128 + signum, "")
    # Interrupted while the two workers run their first URLs: the two
    # queued URLs are cancelled.
    assert len(ep.requests) <= 2
    assert out.read_bytes() == b"the previous snapshot\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.csv", out.name]


@pytest.mark.parametrize("ignored", [False, True], ids=["sigint handled", "sigint ignored"])
def test_run_handles_sigint_unless_ignored_and_restores_both_handlers(monkeypatch, ignored):
    """A background job starts with SIGINT ignored; run leaves it so."""
    inherited = signal.SIG_IGN if ignored else signal.default_int_handler
    seen = {}

    def command(argv):
        seen.update((signum, signal.getsignal(signum)) for signum in (signal.SIGINT, signal.SIGTERM))
        return EXIT_OK

    monkeypatch.setattr(cli, "_run", command)
    before = signal.signal(signal.SIGINT, inherited), signal.getsignal(signal.SIGTERM)
    try:
        assert run([]) == EXIT_OK
        assert (signal.getsignal(signal.SIGINT), signal.getsignal(signal.SIGTERM)) == (inherited, before[1])
    finally:
        signal.signal(signal.SIGINT, before[0])
    assert seen == {signal.SIGINT: inherited if ignored else cli._terminate, signal.SIGTERM: cli._terminate}


def test_scan_interrupted_at_random_moments_exits_and_keeps_previous_snapshot(tmp_path, endpoints):
    """SIGINT at seeded random moments, from interpreter start-up to mid-scan.

    Each child must exit within 5 s of the signal, so the interrupt never
    lands where it leaves a worker, a queue or a lock waited on forever.
    """
    ep = delayed_endpoint(endpoints, [(f"/u{i:02d}", 0.25) for i in range(20)])
    work = tmp_path / "scan"
    work.mkdir()
    corpus = write_corpus(work, [ep.url(f"/u{i:02d}") for i in range(20)])
    out = work / "s.smellsnap.jsonl"
    out.write_bytes(b"the previous snapshot\n")
    env = {**os.environ, "PYTHONPATH": str(Path(smellprobe.__file__).parents[1]),
           "PYTHONFAULTHANDLER": "1"}
    command = [sys.executable, "-c", "import sys; from smellprobe.cli import run; sys.exit(run(sys.argv[1:]))",
               *scan_args(corpus, out, extra=["--parallelism", "2"])]
    rng = random.Random(20)
    for delay in [rng.uniform(0.05, 0.5) for _ in range(6)]:
        with (tmp_path / "child.stderr").open("w+b") as stderr:
            child = subprocess.Popen(command, env=env, stdout=subprocess.DEVNULL, stderr=stderr)
            try:
                time.sleep(delay)
                child.send_signal(signal.SIGINT)
                try:
                    child.wait(timeout=5)
                except subprocess.TimeoutExpired:
                    child.send_signal(signal.SIGABRT)  # faulthandler prints every thread's stack
                    with contextlib.suppress(subprocess.TimeoutExpired):
                        child.wait(timeout=5)
                    stderr.seek(0)
                    dump = stderr.read().decode("utf-8", "replace")
                    pytest.fail(f"the scan did not exit within 5 s of SIGINT at {delay:.3f} s:\n{dump}")
            finally:
                child.kill()
                child.wait()
        assert child.returncode != EXIT_OK
        assert out.read_bytes() == b"the previous snapshot\n"
        assert sorted(p.name for p in work.iterdir()) == ["corpus.csv", out.name]


def test_snapshot_does_not_depend_on_parallelism_or_corpus_order(tmp_path, endpoints, library):
    """A fixture-library scan writes the same bytes, timestamps masked, at 1 and 16 workers
    and with its corpus rows shuffled; its ports masked too, the golden snapshot's bytes.
    So do its second round, and diff and report on the two rounds."""
    spawned = [endpoints(profile) for profile in library.profiles.values()]
    rows = library_rows(spawned)
    shuffled = random.Random(23).sample(rows, len(rows))
    assert shuffled != rows
    bundle = next(ep.ca_file for ep in spawned if ep.ca_file)
    snapshots = []
    for name, order, workers in (("one", rows, 1), ("many", rows, 16), ("shuffled", shuffled, 16)):
        corpus = tmp_path / f"{name}.csv"
        write_library_corpus(corpus, order)
        out = tmp_path / f"{name}.smellsnap.jsonl"
        code = run(scan_args(corpus, out, extra=["--ca-bundle", bundle, "--parallelism", str(workers),
                                                 "--id", "library"]))
        assert code == EXIT_PARTIAL  # the endpoints that start down refuse
        snapshots.append(SCAN_TIMES.sub(b"T", out.read_bytes()))
    assert snapshots[0].count(b"\n") == len(spawned) + 1
    assert snapshots[1] == snapshots[0]
    assert snapshots[2] == snapshots[0]
    assert mask_library_scan(snapshots[0], spawned) == LIBRARY_GOLDEN.read_bytes()

    corpus, round2 = tmp_path / "round2.csv", tmp_path / "round2.smellsnap.jsonl"
    write_library_corpus(corpus, second_round_rows(spawned))
    code = run(scan_args(corpus, round2, extra=["--ca-bundle", bundle, "--parallelism", "16",
                                                "--id", "library-round2"]))
    assert code == EXIT_PARTIAL  # the endpoints shut down refuse
    assert mask_library_scan(round2.read_bytes(), spawned) == LIBRARY_ROUND2.read_bytes()
    rounds = [str(tmp_path / "one.smellsnap.jsonl"), str(round2)]
    assert run(["diff", *rounds, "--out", str(tmp_path / "m.jsonl")]) == EXIT_OK
    assert run(["report", *rounds, "--out-dir", str(tmp_path / "r")]) == EXIT_OK
    assert mask_library_report(tmp_path / "r", spawned) == {
        path.name: path.read_bytes() for path in sorted(LIBRARY_REPORT.iterdir())
    }
    assert (tmp_path / "m.jsonl").read_bytes() == (tmp_path / "r" / "maintenance.jsonl").read_bytes()


def test_slow_first_url_does_not_hold_up_the_rest(tmp_path, endpoints):
    delays = [("/a-slow", 1.5), *((f"/b{i:02d}", 0.04) for i in range(30))]
    ep = delayed_endpoint(endpoints, delays)
    corpus = write_corpus(tmp_path, [ep.url(path) for path, _ in delays])
    out = tmp_path / "s.smellsnap.jsonl"
    start = time.monotonic()
    assert run(scan_args(corpus, out, extra=["--parallelism", "2"])) == EXIT_OK
    elapsed = time.monotonic() - start
    # The fast URLs take one worker 1.2 s while the slow one holds the
    # other; results taken in corpus order would add ~0.5 s after it.
    assert elapsed < 1.8
    assert list(load(out).entries) == sorted(ep.url(path) for path, _ in delays)


def two_rounds(tmp_path):
    urls = [f"http://h{i}.example/" for i in range(5)]
    paths = []
    for round_no, server in ((1, "nginx/1.12.1"), (2, "nginx/1.14.1")):
        entries = {url: build_entry(url, server=server) for url in urls}
        snapshot = build_snapshot(entries, f"round{round_no}", taken_at=EPOCH + timedelta(days=round_no))
        path = tmp_path / f"round{round_no}.smellsnap.jsonl"
        save(snapshot, path)
        paths.append(path)
    return paths


def test_corrupt_record_in_second_snapshot_leaves_no_output(tmp_path, capsys):
    first, second = two_rounds(tmp_path)
    lines = second.read_text(encoding="utf-8").splitlines()
    lines[3] = lines[3][: len(lines[3]) // 2]
    second.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "maintenance.jsonl"
    assert run(["diff", str(first), str(second), "--out", str(out)]) == EXIT_IO
    assert "record 3" in capsys.readouterr().err
    reports = tmp_path / "reports"
    assert run(["report", str(first), str(second), "--out-dir", str(reports)]) == EXIT_IO
    assert "record 3" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == [first.name, second.name]


@pytest.mark.parametrize("command", ["diff", "report"])
def test_snapshots_in_wrong_order_are_usage_error(tmp_path, capsys, command):
    first, second = two_rounds(tmp_path)
    out = ["--out", str(tmp_path / "m.jsonl")] if command == "diff" else ["--out-dir", str(tmp_path / "r")]
    assert run([command, str(second), str(first), *out]) == EXIT_USAGE
    assert "first snapshot must predate the second" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == [first.name, second.name]


@pytest.mark.parametrize("command", ["diff", "report"])
def test_header_without_utc_offset_is_corrupt(tmp_path, capsys, command):
    first, second = two_rounds(tmp_path)
    lines = second.read_text(encoding="utf-8").splitlines(keepends=True)
    header = json.loads(lines[0])
    header["taken_at"] = "2024-01-03T00:00:00"
    second.write_text(json.dumps(header) + "\n" + "".join(lines[1:]), encoding="utf-8")
    out = ["--out", str(tmp_path / "m.jsonl")] if command == "diff" else ["--out-dir", str(tmp_path / "r")]
    assert run([command, str(first), str(second), *out]) == EXIT_IO
    captured = capsys.readouterr()
    assert "record 0" in captured.err and "UTC offset" in captured.err
    assert captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == [first.name, second.name]


@pytest.mark.parametrize("command", ["diff", "report"])
@pytest.mark.parametrize("name", ["redirect off the web", "redirect to another host", "extra record key",
                                  "extra first exchange key", "extra finding key", "header value not a string",
                                  "body_b64 not strict base64", "leak software not a string",
                                  "leak locus not a string", "target app_id not a string",
                                  "header entries a string", "subflag of the removed json-auth heuristic"])
def test_record_no_writer_makes_is_corrupt(tmp_path, capsys, command, name):
    first, message = corrupt_schema4_round1(tmp_path, name)
    second = SCHEMA4_ROUND1.with_name("round2.smellsnap.jsonl")
    out = ["--out", str(tmp_path / "m.jsonl")] if command == "diff" else ["--out-dir", str(tmp_path / "r")]
    assert run([command, str(first), str(second), *out]) == EXIT_IO
    captured = capsys.readouterr()
    assert re.search(message, captured.err), captured.err
    assert captured.out == ""
    assert [p.name for p in tmp_path.iterdir()] == [first.name]


# Values a JSON leaf can be swapped for: one of each JSON type, and the
# empty and nested forms that a reader might take for absent or hashable.
SWAP_VALUES = (None, True, 0, -1, 1.5, "", "x", [], {}, [[1]])


def json_leaves(value, path=()):
    """The path of each leaf of a JSON value: a scalar, an empty list or an empty object."""
    if isinstance(value, (dict, list)) and value:
        for key, child in value.items() if isinstance(value, dict) else enumerate(value):
            yield from json_leaves(child, (*path, key))
    else:
        yield path


def test_swapped_leaf_makes_diff_and_report_exit_0_or_3(tmp_path):
    """200 seeded swaps of one leaf of the header or of three records: each is read or refused."""
    lines = SCHEMA4_ROUND1.read_text(encoding="utf-8").splitlines()
    second = SCHEMA4_ROUND1.with_name("round2.smellsnap.jsonl")
    swaps = [
        (number, path, value)
        for number in (0, 1, 11, 17)
        for path in json_leaves(json.loads(lines[number]))
        for value in SWAP_VALUES
    ]
    first = tmp_path / SCHEMA4_ROUND1.name
    for number, path, value in random.Random(1).sample(swaps, 200):
        data = json.loads(lines[number])
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        first.write_text("\n".join([*lines[:number], json.dumps(data), *lines[number + 1:]]) + "\n", encoding="utf-8")
        for args in (["diff", str(first), str(second), "--out", str(tmp_path / "m.jsonl")],
                     ["report", str(first), str(second), "--out-dir", str(tmp_path / "r")]):
            assert run(args) in (EXIT_OK, EXIT_IO), (number, path, value)


# --- hostile responses -------------------------------------------------------------

# Responses that crashed or stalled a scan, a diff or a report.
HOSTILE_ROUTES = {
    "nested json body": RouteSpec(body=b"[" * 100_000),
    "unclosed parentheses": RouteSpec(headers=(("Server", "nginx/1.2 (Ubuntu) " + "x (" * 5_400),)),
    "long version in header": RouteSpec(headers=(("Server", "Apache/" + "9" * 5_000),)),
    "long version in body": RouteSpec(
        status=404, body=b"<address>Apache/" + b"9" * 5_000 + b" Server at x</address>"),
}


@pytest.mark.parametrize("name", sorted(HOSTILE_ROUTES))
def test_hostile_response_is_scanned_diffed_and_reported(tmp_path, endpoints, capsys, name):
    ep = endpoints(FixtureProfile(name="hostile", routes={"/": HOSTILE_ROUTES[name]}))
    corpus = write_corpus(tmp_path, [ep.url("/")])
    rounds = [str(tmp_path / f"s{n}.smellsnap.jsonl") for n in (1, 2)]
    for path in rounds:
        assert run(scan_args(corpus, path)) == EXIT_OK
    entry = load(rounds[0]).entries[ep.url("/")]
    assert detect_all(entry.result.target, entry.result, entry.chain) == entry.report
    assert run(["diff", *rounds, "--out", str(tmp_path / "m.jsonl")]) == EXIT_OK
    assert run(["report", *rounds, "--out-dir", str(tmp_path / "r")]) == EXIT_OK
    if name == "nested json body":
        assert entry.result.body_format is BodyFormat.NON_JSON
    if name.startswith("long version"):
        # The version has more digits than parse_version takes: a service leak, no version leak.
        assert [(l.category.value, l.software, l.version) for l in entry.report.leaks] == [
            ("service", "Apache", None)]


# Near matches followed by long runs of one character, in heads and bodies, of
# the kind test_smells' hostile-response property generates.
LONG_RUN_ROUTES = {
    "/banner": RouteSpec(status=404, headers=(("Server", "Apache/1 (" + "(" * 60_000),),
                         body=b"<address>Apache/1" + b"1" * 262_000),
    "/redirect": RouteSpec(status=302, headers=(("Location", "http://[" + "1" * 60_000),),
                           body=b"Powered by <a" + b"<" * 262_000),
    "/trace": RouteSpec(status=500, headers=(("Strict-Transport-Security", "max-age=" + "9" * 60_000),
                                             ("X-Powered-By", "PHP/5." + "9" * 60_000)),
                        body=b"Warning: x in " * 18_700),
}


def test_long_run_responses_scan_to_a_snapshot_that_redetects_to_itself(tmp_path, endpoints):
    ep = endpoints(FixtureProfile(name="long-runs", routes=LONG_RUN_ROUTES))
    urls = [ep.url(path) for path in LONG_RUN_ROUTES]
    out = tmp_path / "s.smellsnap.jsonl"
    assert run(scan_args(write_corpus(tmp_path, urls), out)) in (EXIT_OK, EXIT_PARTIAL)
    entries = load(out).entries
    assert sorted(entries) == sorted(urls)
    for entry in entries.values():
        assert entry.result.ok
        assert detect_all(entry.result.target, entry.result, entry.chain) == entry.report


def test_redirect_to_a_port_no_client_can_request_is_not_followed(tmp_path, endpoints):
    """An http target sent only to https on its host with a port of "8x" was never upgraded."""
    ep = endpoints(FixtureProfile(name="bad-port", routes={
        "/": RouteSpec(status=302, headers=(("Location", "https://127.0.0.1:8x/"),))}))
    out = tmp_path / "s.smellsnap.jsonl"
    assert run(scan_args(write_corpus(tmp_path, [ep.url("/")]), out)) == EXIT_OK
    entry = load(out).entries[ep.url("/")]
    assert entry.chain.requested_urls() == (ep.url("/"),)
    assert entry.chain.next_url is None
    assert SmellKind.MISSING_HTTPS_REDIRECT in entry.report.kinds()
    assert len(ep.requests) == 1


def test_dry_run_rejects_nested_jsonl_row(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("[" * 100_000 + '\n{"url": "http://a.example/", "app_id": "a", '
                      '"source_model": "open_source"}\n', encoding="utf-8")
    assert run(["scan", "--corpus", str(corpus), "--out", str(tmp_path / "s.jsonl"), "--dry-run"]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out == "http://a.example/\n"
    assert "rejected 1 row(s)" in captured.err


@pytest.mark.parametrize("field", ["url", "app_id", "source_model", "declared_format"])
def test_jsonl_row_with_a_field_that_is_not_a_string_is_rejected(tmp_path, capsys, field):
    good = {"url": "http://a.example/", "app_id": "a", "source_model": "open_source",
            "declared_format": "json"}
    bad = [{**good, "url": f"http://b{i}.example/", field: value}
           for i, value in enumerate([7, 2.5, ["json"], {"x": "json"}, True])]
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("".join(json.dumps(row) + "\n" for row in [good, *bad]), encoding="utf-8")
    args = ["scan", "--corpus", str(corpus), "--out", str(tmp_path / "s.jsonl")]
    assert run([*args, "--dry-run"]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out == "http://a.example/\n"
    assert "rejected 5 row(s)" in captured.err
    # Scanning only the bad rows probes nothing and writes each reason.
    corpus.write_text("".join(json.dumps(row) + "\n" for row in bad), encoding="utf-8")
    assert run(args) == EXIT_OK
    rejects = [json.loads(line) for line in
               (tmp_path / "s.jsonl.rejects.jsonl").read_text(encoding="utf-8").splitlines()]
    assert [reject["reason"] for reject in rejects] == [f"{field} is not a string"] * 5
    assert [json.loads(reject["row"]) for reject in rejects] == bad
    assert len(load(tmp_path / "s.jsonl").entries) == 0
