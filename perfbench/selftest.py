"""Oracle self-test: one round per workload must pass, and each deliberately
wrong planted label must make the check fail.

    python3 perfbench/selftest.py [--seed 7] [--workload scan-tls ...]

It runs scan -> mutate -> scan -> diff -> report once against the real
fixtures, checks the outputs against the true plan, then re-checks the same
outputs against copies of the plan with one label changed each (a framework,
a status, a banner version, an HSTS directive or credential challenge, a body
banner, a source model, a planned maintenance outcome).  Exits 1 if the true plan fails or a wrong
label goes unnoticed.
"""

from __future__ import annotations

import argparse
import copy
import os
import shutil
import sys

from run import OUT, Run
import oracle
import workloads


def _first(plan: workloads.Plan, test) -> workloads.UrlPlan | None:
    return next((u for u in plan.urls if test(u)), None)


def _mislabel_framework(plan):
    url = _first(plan, lambda u: u.rounds[0].body.framework)
    body = url.rounds[0].body
    body.framework = "java" if body.framework != "java" else "php"


def _mislabel_status(plan):
    url = _first(plan, lambda u: u.rounds[0].status == 200 and not u.rounds[0].challenge)
    url.rounds[0].status = 404


def _mislabel_version(plan):
    # Outcomes that do not depend on version order, so the plan stays consistent.
    url = _first(plan, lambda u: u.outcome in ("environment_changed", "cloudflare_enabled", "leak_closed")
                 and u.rounds[0].server.tokens[0][1])
    server = url.rounds[0].server
    name, text = server.tokens[0]
    server.tokens[0] = (name, text + ".9")


def _mislabel_policy(plan):
    url = _first(plan, lambda u: u.rounds[0].sts is not None)
    if url is None:  # plain http has no HSTS policy: plant a credential challenge
        url = _first(plan, lambda u: u.rounds[0].status == 200 and not u.rounds[0].challenge)
        url.rounds[0].challenge = True
        return
    max_age, subdomains, preload = url.rounds[0].sts
    url.rounds[0].sts = (max_age, subdomains, not preload)


def _mislabel_body_banner(plan):
    url = _first(plan, lambda u: u.rounds[0].body.banners)
    if url is None:
        url = _first(plan, lambda u: u.rounds[0].body.kind == "html")
        url.rounds[0].body.banners = [workloads.Banner([("nginx", "1.0")], style="nginx")]
        return
    url.rounds[0].body.banners.pop()


def _mislabel_model(plan):
    url = plan.urls[0]
    url.source_model = "closed_source" if url.source_model == "open_source" else "open_source"


def _mislabel_outcome(plan):
    url = _first(plan, lambda u: u.outcome == "no_update" and u.rounds[1].server.tokens[0][1])
    second = copy.copy(url.rounds[1])  # round 1 may share the object
    name, text = second.server.tokens[0]
    second.server = workloads.Banner([(name, text + ".1")] + second.server.tokens[1:], os=second.server.os)
    url.rounds = (url.rounds[0], second)
    url.outcome = "version_upgrade"


MISLABELS = {
    "framework": _mislabel_framework,
    "status": _mislabel_status,
    "banner version": _mislabel_version,
    "hsts directive or challenge": _mislabel_policy,
    "body banner": _mislabel_body_banner,
    "source model": _mislabel_model,
    "maintenance outcome": _mislabel_outcome,
}


def _check(plan: workloads.Plan, run: Run) -> list[str]:
    checker = oracle.Checker(plan, run.fixture.base)
    work = run.work
    for round_no in (1, 2):
        checker.snapshot(work / f"round{round_no}.smellsnap.jsonl", round_no)
    checker.maintenance(work / "maintenance.jsonl")
    checker.reports(work / "reports")
    return checker.mismatches


def selftest(workload: str, seed: int) -> bool:
    OUT.mkdir(exist_ok=True)
    work = OUT / f"selftest-{workload}-{seed}-{os.getpid()}"
    work.mkdir()
    run = Run(workload, seed, work)
    try:
        run.set_up()
        for round_no in (1, 2):
            run.scan(round_no)
        snapshots = [work / f"round{n}.smellsnap.jsonl" for n in (1, 2)]
        run.command(["diff", *snapshots, "--out", "maintenance.jsonl"])
        run.command(["report", *snapshots, "--out-dir", "reports", "--format", "json"])
        ok = run.failed == 0
        problems = _check(run.plan, run)
        print(f"{workload}: true plan -> {len(problems)} mismatch(es), {run.failed} failed operation(s)")
        for problem in problems:
            print(f"  {problem}")
        ok = ok and not problems
        for label, mislabel in MISLABELS.items():
            wrong = copy.deepcopy(run.plan)
            mislabel(wrong)
            caught = _check(wrong, run)
            print(f"  wrong {label}: {'caught' if caught else 'NOT CAUGHT'}"
                  + (f" ({caught[0][:100]})" if caught else ""))
            ok = ok and bool(caught)
        return ok
    finally:
        run.stop()
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    args = parser.parse_args()
    results = [selftest(w, args.seed) for w in args.workload or workloads.WORKLOADS]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
