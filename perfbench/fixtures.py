"""Fixture server process: serves a seeded route plan on loopback.

Runs apart from the program under test, so the two never share an
interpreter lock or CPU accounting.  It is built from ``smellprobe.harness``:
one endpoint per process, its route table swapped between the two rounds.

Usage: ``python3 fixtures.py ROUTES.json``.  It prints one JSON line with the
base URL and the certificate path, then answers commands on stdin, one JSON
line each: ``round 1`` / ``round 2`` swap the route table, ``requests``
reports the number of requests served so far, ``quit`` stops it.  Set
``TMPDIR`` to keep the throwaway certificate inside a chosen directory.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from smellprobe.harness import FixtureProfile, RouteSpec, spawn


def _routes(table: dict, bodies: list[bytes]) -> dict[str, RouteSpec]:
    return {
        path: RouteSpec(status=status, headers=tuple(map(tuple, headers)), body=bodies[body])
        for path, (status, headers, body) in table.items()
    }


def main(routes_path: str) -> None:
    plan = json.loads(Path(routes_path).read_text(encoding="utf-8"))
    bodies = [text.encode("ascii") for text in plan["bodies"]]
    rounds = {"1": _routes(plan["round1"], bodies), "2": _routes(plan["round2"], bodies)}
    endpoint = spawn(FixtureProfile(name="perfbench", schemes=(plan["scheme"],), routes=rounds["1"]))
    try:
        print(json.dumps({"base": endpoint.base_url(), "ca_file": endpoint.ca_file}), flush=True)
        for line in sys.stdin:
            command = line.split()
            if command == ["quit"]:
                break
            if command[:1] == ["round"]:
                endpoint.mutate(rounds[command[1]])
            elif command != ["requests"]:
                raise SystemExit(f"unknown command: {line.strip()!r}")
            print(json.dumps({"requests": len(endpoint.requests)}), flush=True)
    finally:
        endpoint.shutdown()


if __name__ == "__main__":
    main(sys.argv[1])
