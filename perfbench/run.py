"""Two-round scan -> diff -> report benchmark of smellprobe on loopback fixtures.

    python3 perfbench/run.py --workload scan-tls --seed 1 --seconds 50 --trace 0

A run sets up a fixture process and the seeded corpora, then repeats whole
rounds for about ``--seconds`` (at least two rounds):

    scan round 1 -> mutate the fixtures -> scan round 2 -> diff -> report

Each command runs as its own child process through ``smellprobe.cli.run``,
the way a user runs it; wall time, CPU and peak RSS come from that child's
own resource usage.  Every output is checked against the generator's plan
(``oracle.py``).  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and the metrics: the end-to-end ones
with ``--trace 0``, the per-layer ones from an in-process traced run with
``--trace 1`` (``tracing.py``).  See README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import ssl
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import workloads  # noqa: E402

# setup_s is the median of all set-ups: a few before the first round and
# some at the start of every round, so a burst of host slowness a few
# seconds long moves only a few of them.
SETUPS = 3
SETUPS_PER_ROUND = 3
MIN_ROUNDS = 2  # the second round's scans are checked against the first's
PARALLELISM = 2
READ_ERRORS = (OSError, ValueError, KeyError, IndexError)  # a missing or garbled output file
CLI = ("-c", "import sys; from smellprobe.cli import run; sys.exit(run(sys.argv[1:]))")


@dataclass
class Child:
    """Outcome and resource usage of one CLI child process."""

    code: int
    wall: float
    cpu: float
    rss_mib: float
    stdout: str


class Fixture:
    """The fixture server process (``fixtures.py``) and its control pipe."""

    def __init__(self, routes: Path, work: Path):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "fixtures.py"), str(routes)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=program_env({"TMPDIR": str(work)}), cwd=work,
        )
        line = self.proc.stdout.readline()
        if not line:
            self.stop()
            raise RuntimeError("fixture process exited before serving")
        info = json.loads(line)
        self.base: str = info["base"]
        self.ca_file: str | None = info["ca_file"]

    def command(self, text: str) -> int:
        """Send one command; returns the requests served so far."""
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())["requests"]

    def stop(self) -> None:
        try:
            self.proc.stdin.write("quit\n")
            self.proc.stdin.close()
        except (BrokenPipeError, ValueError):
            pass
        try:
            self.proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def program_env(extra: dict | None = None) -> dict:
    """Environment for the program: the checkout's sources, no stray overrides."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "SMELLPROBE_PARALLELISM", "SSL_CERT_FILE", "SSL_CERT_DIR")}
    env["PYTHONPATH"] = str(SRC)
    env.update(extra or {})
    return env


def run_cli(args: list, env: dict, work: Path) -> Child:
    with open(work / "stdout.txt", "wb") as out, open(work / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *CLI, *map(str, args)], env=env,
                                stdout=out, stderr=err, cwd=work)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        code=proc.returncode,
        wall=wall,
        cpu=usage.ru_utime + usage.ru_stime,
        rss_mib=usage.ru_maxrss / 1024,  # KiB on Linux
        stdout=(work / "stdout.txt").read_text(encoding="utf-8", errors="replace"),
    )


class Run:
    """One benchmark run: plan, fixture, corpora, and the operation tally."""

    def __init__(self, workload: str, seed: int, work: Path):
        self.plan = workloads.generate(workload, seed)
        self.spec = self.plan.spec
        self.work = work
        self.routes = work / "routes.json"
        self.routes.write_text(json.dumps(workloads.fixture_routes(self.plan)), encoding="utf-8")
        self.corpora = {1: work / "corpus1.csv", 2: work / "corpus2.csv"}
        self.fixture: Fixture | None = None
        self.env = program_env()
        self.checker: oracle.Checker | None = None
        self.attempted = 0
        self.failed = 0

    def command(self, args: list) -> Child:
        child = run_cli(args, self.env, self.work)
        self.attempted += 1
        if child.code != 0:
            self.failed += 1
            print(f"{args[0]} exited {child.code}: "
                  f"{(self.work / 'stderr.txt').read_text(errors='replace')[-500:]}", file=sys.stderr)
        return child

    def check(self, check, *paths: Path) -> bool:
        """Run one oracle check; a missing or unreadable output is a mismatch."""
        try:
            check(*paths)
        except READ_ERRORS as error:
            self.checker.mismatches.append(f"cannot check {paths[0].name}: {error!r}")
            return False
        return True

    def set_up(self) -> float:
        """Fixture reset, corpora and trust written, warm-up done; returns seconds.

        The fixture process is the load generator, not the program, so it is
        started once, outside the timed part.
        """
        if self.fixture is None:
            self.fixture = Fixture(self.routes, self.work)
            self.checker = oracle.Checker(self.plan, self.fixture.base)
        start = time.perf_counter()
        self.fixture.command("round 1")
        base = self.fixture.base
        for round_no, path in self.corpora.items():
            path.write_text(workloads.corpus_csv(self.plan, round_no, base), encoding="utf-8")
        if self.spec.scheme == "https":
            # Default trust, as users have it: OpenSSL's default verify file
            # holds the system roots plus the fixture certificate.
            bundle = self.work / "trust.pem"
            system = Path(ssl.get_default_verify_paths().openssl_cafile).read_text(encoding="ascii")
            fixture_cert = Path(self.fixture.ca_file).read_text(encoding="ascii")
            bundle.write_text(system + fixture_cert, encoding="ascii")
            self.env = program_env({"SSL_CERT_FILE": str(bundle)})
        warm = self.command(["scan", "--corpus", self.corpora[1], "--out", "dry.smellsnap.jsonl", "--dry-run"])
        elapsed = time.perf_counter() - start
        listed = warm.stdout.split()
        if listed != [base + u.key for u in self.plan.corpus(1)]:
            self.checker.mismatches.append(f"dry run listed {len(listed)} urls, corpus has {len(self.plan.corpus(1))}")
        return elapsed

    def scan(self, round_no: int) -> tuple[int, Child, int | None]:
        """One scan; returns URLs, the child, and the snapshot size (None if unchecked)."""
        self.fixture.command(f"round {round_no}")
        snapshot = self.work / f"round{round_no}.smellsnap.jsonl"
        snapshot.unlink(missing_ok=True)
        child = self.command(["scan", "--corpus", self.corpora[round_no], "--out", snapshot,
                              "--id", f"round{round_no}", "--parallelism", PARALLELISM])
        urls = len(self.plan.corpus(round_no))
        self.attempted += urls
        errors_before = self.checker.transport_errors
        if child.code not in (0, 2):
            self.checker.mismatches.append(f"scan of round {round_no} exited {child.code}")
        elif self.check(lambda path: self.checker.snapshot(path, round_no), snapshot):
            self.failed += self.checker.transport_errors - errors_before
            return urls, child, snapshot.stat().st_size
        self.failed += urls
        return urls, child, None

    def stop(self) -> None:
        if self.fixture is not None:
            self.fixture.stop()
            self.fixture = None


def measure(run: Run, seconds: float, setups: list[float]) -> dict:
    """Untraced rounds for about ``seconds``; returns the end-to-end metrics."""
    work = run.work
    snapshots = {n: work / f"round{n}.smellsnap.jsonl" for n in (1, 2)}
    union = len(run.plan.urls)
    scans: list[tuple[int, Child, int]] = []
    diffs: list[Child] = []
    reports: list[Child] = []
    deadline = time.perf_counter() + seconds
    rounds = 0
    last = 0.0
    # A round starts only while at least half of it fits, so runs measure
    # about ``seconds`` on average.
    while rounds < MIN_ROUNDS or time.perf_counter() + last / 2 < deadline:
        started = time.perf_counter()
        setups.extend(run.set_up() for _ in range(SETUPS_PER_ROUND))
        for round_no in (1, 2):
            scan = run.scan(round_no)
            scans.append(scan)
            first = work / f"first{round_no}.smellsnap.jsonl"
            if scan[2] is None:
                continue
            if first.exists():
                run.check(run.checker.same_scan, first, snapshots[round_no])
            else:
                shutil.copyfile(snapshots[round_no], first)
        (work / "maintenance.jsonl").unlink(missing_ok=True)
        shutil.rmtree(work / "reports", ignore_errors=True)
        for _ in range(run.spec.diff_passes):
            diffs.append(run.command(["diff", snapshots[1], snapshots[2], "--out", "maintenance.jsonl"]))
        for _ in range(run.spec.diff_passes):
            reports.append(run.command(["report", snapshots[1], snapshots[2],
                                        "--out-dir", "reports", "--format", "json"]))
        run.check(run.checker.maintenance, work / "maintenance.jsonl")
        run.check(run.checker.reports, work / "reports")
        rounds += 1
        last = time.perf_counter() - started
    def med(values):
        values = list(values)
        return statistics.median(values) if values else 0.0  # only when every scan failed

    return {
        "setup_s": (med(setups), "s"),
        "scan_urls_per_s": (med(n / c.wall for n, c, _ in scans), "URL/s"),
        "scan_cpu_ms_per_url": (med(1000 * c.cpu / n for n, c, _ in scans), "ms"),
        "scan_peak_rss_mib": (med(c.rss_mib for _, c, _ in scans), "MiB"),
        "snapshot_bytes_per_url": (med(size / n for n, _, size in scans if size is not None), "B"),
        "diff_urls_per_s": (med(union / c.wall for c in diffs), "URL/s"),
        "report_urls_per_s": (med(union / c.wall for c in reports), "URL/s"),
        "load_peak_rss_mib": (med(max(d.rss_mib, r.rss_mib) for d, r in zip(diffs, reports)), "MiB"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "smellprobe" / "cli.py").is_file():
        print(f"error: no smellprobe sources under {SRC}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir()
    run = None
    try:
        run = Run(args.workload, args.seed, work)
        setups = [run.set_up() for _ in range(SETUPS)]
        if args.trace:
            import tracing

            metrics = tracing.traced_run(run, args.seconds, OUT / f"{args.workload}-seed{args.seed}.spans.jsonl")
        else:
            metrics = measure(run, args.seconds, setups)
    finally:
        if run is not None:
            run.stop()
        shutil.rmtree(work, ignore_errors=True)

    for problem in run.checker.mismatches:
        print(f"mismatch: {problem}", file=sys.stderr)
    result = {
        "correct": not run.checker.mismatches,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in sorted(metrics.items())},
    }
    line = json.dumps(result)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(line + "\n", encoding="utf-8")
    print(line)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
