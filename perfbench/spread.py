"""Spread mode: run each workload N times on consecutive seeds and print
every metric's median and quartiles.

    python3 perfbench/spread.py --runs 10 [--workload scan-tls ...] [--first-seed 1]
                                [--compare OLD.json]

The spread is the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median.  Each
end-to-end metric's spread is printed next to its bound from BENCHMARK.json
and marked ``ok`` when below a third of it, ``WIDE`` otherwise.  Runs last
``run_seconds`` from BENCHMARK.json.  ``--compare`` takes the summary of an
earlier set and flags every metric whose median got worse by more than its
bound, and any change in the share of failed operations.  The summary of this set is written to
``perfbench/out/spread-<workloads>-seed<first>-runs<n>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def main() -> None:
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in config["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--compare", type=Path)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    better = {m["name"]: m["better"] for m in config["end_to_end"]}
    previous = json.loads(args.compare.read_text(encoding="utf-8")) if args.compare else {}

    summary = {}
    for workload in args.workload or names:
        results = [_run(workload, args.first_seed + i, config["run_seconds"]) for i in range(args.runs)]
        correct = all(r["correct"] for r in results)
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print(f"{workload}: {args.runs} runs, correct={correct}, failed share(s)={shares}", flush=True)
        rows = {}
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in results]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            rows[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": values}
            bound = bounds[name]
            verdict = "ok" if spread < bound / 3 else "WIDE"
            old = previous.get(workload, {}).get("metrics", {}).get(name)
            if old:
                change = (median - old["median"]) / old["median"]
                worse = change > bound if better[name] == "lower" else -change > bound
                verdict += f" vs previous {change:+.1%}{' WORSE' if worse else ''}"
            print(f"  {name:24s} median {median:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
                  f"spread {spread:7.2%}  bound {bound:4.0%}  {verdict}", flush=True)
        old_shares = previous.get(workload, {}).get("failed_shares")
        if old_shares is not None and old_shares != shares:
            print(f"  failed share changed: {old_shares} -> {shares}")
        summary[workload] = {"correct": correct, "failed_shares": shares, "metrics": rows}
    label = "+".join(summary)
    out = HERE / "out" / f"spread-{label}-seed{args.first_seed}-runs{args.runs}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    print(f"summary -> {out.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
