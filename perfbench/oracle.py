"""The benchmark's oracle: expected outputs recomputed from the generator's
plan, and the checks that compare them with what the program wrote.

Nothing here imports the program.  Snapshots, maintenance records and
report tables are read as plain JSON; every expectation comes from the
plan's components (banners as name/version tuples, HSTS policy as numbers,
planted pages as framework names), so a fault in the program cannot make
its own expectation.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from pathlib import Path

from workloads import Banner, Plan, Response, UrlPlan

HSTS_YEAR = 31_536_000
REDIRECT_LIMIT = 5
OS_DISPLAY = {"Ubuntu": "Ubuntu", "Debian": "Debian", "CentOS": "CentOS", "Win64": "Windows", "Unix": "Unix"}
GROUPS = ("open_json", "open_nonjson", "closed_json", "closed_nonjson")
SMELLS = (
    "insecure_transport", "source_code_disclosure", "version_disclosure",
    "lack_of_access_control", "missing_https_redirect", "missing_hsts",
)
_NUMERIC = re.compile(r"^[0-9]+(\.[0-9]+)*$")
_TIMESTAMP = re.compile(r'"(taken_at|timestamp)":"[^"]*"')
MAX_REPORTED = 20


def _version(text: str | None) -> tuple[int, ...] | None:
    if text is None or not _NUMERIC.match(text):
        return None
    return tuple(int(part) for part in text.split("."))


def _raw(token: tuple[str, str | None]) -> str:
    name, text = token
    return name if text is None else f"{name}/{text}"


def banner_leaks(banner: Banner, locus: str) -> list[tuple]:
    leaks = []
    for name, text in banner.tokens:
        leaks.append(("service", name, None, locus))
        version = _version(text)
        if version is not None:
            leaks.append(("version", name, ".".join(map(str, version)), locus))
    if banner.os:
        leaks.append(("os", OS_DISPLAY[banner.os], None, locus))
    return leaks


def expected_report(url: UrlPlan, response: Response, https: bool) -> tuple[dict, list]:
    """({smell kind: subflags}, sorted leak records) for one URL and round."""
    kinds: dict[str, frozenset] = {}
    if not https:
        kinds["insecure_transport"] = frozenset()
    if response.body.framework:
        kinds["source_code_disclosure"] = frozenset({response.body.framework})
    disclosed: set[str] = set()
    leaks: list[tuple] = []
    for header, banner in (("server", response.server), ("x-powered-by", response.powered_by),
                           ("engine", response.engine)):
        if banner is not None:
            disclosed.add(header)
            leaks.extend(banner_leaks(banner, header))
    for banner in response.body.banners:
        disclosed.add("body_banner")
        leaks.extend(banner_leaks(banner, "body"))
    if disclosed:
        kinds["version_disclosure"] = frozenset(disclosed)
    if 200 <= response.status < 300 and not response.challenge:
        kinds["lack_of_access_control"] = frozenset()
    chain_flags = set()
    if url.hops < 0:
        chain_flags.add("loop")
    if url.hops > REDIRECT_LIMIT:
        chain_flags.add("excessive_chain")
    if not https or chain_flags:
        kinds["missing_https_redirect"] = frozenset(chain_flags)
    if https:
        if response.sts is None:
            kinds["missing_hsts"] = frozenset({"absent"})
        else:
            max_age, subdomains, preload = response.sts
            flags = set()
            if max_age < HSTS_YEAR:
                flags.add("short_max_age")
            if not subdomains:
                flags.add("missing_include_subdomains")
            if not preload:
                flags.add("missing_preload")
            if flags:
                kinds["missing_hsts"] = frozenset(flags)
    return kinds, sorted(leaks, key=repr)


def _order(after: tuple[int, ...], before: tuple[int, ...]) -> int:
    width = max(len(after), len(before))
    a = after + (0,) * (width - len(after))
    b = before + (0,) * (width - len(before))
    return (a > b) - (a < b)


def expected_maintenance(plan: Plan, base: str) -> dict[str, dict]:
    """Maintenance record per comparable URL, from the planned banners."""
    records = {}
    for url in plan.urls:
        before = url.rounds[0].server
        after = url.rounds[1].server if url.in_round2 else None
        if before is None and after is None:
            continue
        scenario = reason = None
        if before is None:
            scenario = "server_spawned"
        elif after is None:
            if url.in_round2:
                scenario = "leak_closed"
            else:
                reason = "shutdown_no_comparison"
        else:
            (b_name, b_text), (a_name, a_text) = before.tokens[0], after.tokens[0]
            if b_name.lower() != a_name.lower():
                scenario = "cloudflare_enabled" if a_name.lower() == "cloudflare" else "environment_changed"
            elif b_text is None and a_text is None:
                scenario = "no_update"
            elif a_text is None:
                scenario = "leak_closed"
            elif _version(b_text) is None or _version(a_text) is None:
                reason = "versioning_scheme_changed"
            else:
                scenario = ("version_downgrade", "no_update", "version_upgrade")[
                    _order(_version(a_text), _version(b_text)) + 1]
        outcome = scenario or reason
        if outcome != url.outcome:
            raise AssertionError(f"generator planned {url.outcome} but built {outcome} for {url.key}")
        annotations = [_raw(t) for t in (before.tokens[1:] if before else [])]
        annotations += [_raw(t) for t in (after.tokens[1:] if after else [])]
        records[base + url.key] = {
            "after": _raw(after.tokens[0]) if after else None,
            "annotations": annotations,
            "before": _raw(before.tokens[0]) if before else None,
            "scenario": scenario,
            "unclassifiable_reason": reason,
            "url": base + url.key,
        }
    return records


def _group(url: UrlPlan, response: Response) -> str:
    model = "open" if url.source_model == "open_source" else "closed"
    if url.declared is not None:
        is_json = url.declared == "json"
    else:
        is_json = response.body.kind == "json"
    return f"{model}_{'json' if is_json else 'nonjson'}"


def _pct(n: int, d: int) -> float:
    return 100.0 * n / d if d else 0.0


def _pct_display(n: int, d: int) -> int:
    return (200 * n + d) // (2 * d) if d else 0


def expected_tables(plan: Plan, base: str) -> dict[str, list[dict]]:
    """Every report table, recounted from round 1 of the plan."""
    https = plan.spec.scheme == "https"
    group_urls = Counter()
    group_apps: dict[str, set] = {g: set() for g in GROUPS}
    hit_urls = Counter()
    hit_apps: dict[tuple, set] = {(g, s): set() for g in GROUPS for s in SMELLS}
    leak_counts = Counter()
    hsts = Counter()
    smell_counts = {}
    for url in plan.corpus(1):
        response = url.rounds[0]
        kinds, leaks = expected_report(url, response, https)
        group = _group(url, response)
        group_urls[group] += 1
        group_apps[group].add(url.app_id)
        for kind in kinds:
            hit_urls[(group, kind)] += 1
            hit_apps[(group, kind)].add(url.app_id)
        for category, software, _, locus in leaks:
            leak_counts[(category, software.lower(), locus)] += 1
        smell_counts[base + url.key] = len(kinds)
        if https:
            hsts["https_total"] += 1
            flags = kinds.get("missing_hsts")
            if flags is None:
                hsts["protected"] += 1
            elif "absent" in flags:
                hsts.update(("absent", "missing_include_subdomains", "missing_preload"))
            else:
                hsts.update(flags)

    prevalence = []
    for group in GROUPS:
        for smell in SMELLS:
            n_urls, d_urls = hit_urls[(group, smell)], group_urls[group]
            n_apps, d_apps = len(hit_apps[(group, smell)]), len(group_apps[group])
            prevalence.append({
                "group": group, "smell": smell,
                "urls_affected": n_urls, "urls_total": d_urls,
                "url_pct": _pct(n_urls, d_urls), "url_pct_display": _pct_display(n_urls, d_urls),
                "apps_affected": n_apps, "apps_total": d_apps,
                "app_pct": _pct(n_apps, d_apps), "app_pct_display": _pct_display(n_apps, d_apps),
            })
    hsts_rows = [{"metric": m, "count": hsts[m]} for m in (
        "https_total", "protected", "absent", "short_max_age",
        "missing_include_subdomains", "missing_preload")]
    correlation = Counter()
    for url, record in expected_maintenance(plan, base).items():
        if record["scenario"] is not None:
            correlation[(record["scenario"], smell_counts[url])] += 1
    return {
        "prevalence": prevalence,
        "leaks": sorted(({"category": c, "software": s, "locus": l, "count": n}
                         for (c, s, l), n in leak_counts.items()), key=repr),
        "hsts": hsts_rows,
        "correlation": sorted(({"scenario": s, "smell_count": k, "urls": n}
                               for (s, k), n in correlation.items()), key=repr),
    }


class Checker:
    """Collects mismatches between the program's outputs and the plan."""

    def __init__(self, plan: Plan, base: str):
        self.plan = plan
        self.base = base
        self.https = plan.spec.scheme == "https"
        self.mismatches: list[str] = []
        self.transport_errors = 0

    def _fail(self, message: str) -> None:
        if len(self.mismatches) < MAX_REPORTED:
            self.mismatches.append(message)

    def snapshot(self, path: Path, round_no: int) -> int:
        """Check one snapshot file; returns its entry count."""
        lines = path.read_text(encoding="utf-8").splitlines()
        header = json.loads(lines[0])
        records = [json.loads(line) for line in lines[1:]]
        corpus = {self.base + u.key: u for u in self.plan.corpus(round_no)}
        if header["entries"] != len(corpus) or len(records) != len(corpus):
            self._fail(f"{path.name}: {len(records)} entries ({header['entries']} declared), corpus has {len(corpus)}")
        for record in records:
            url = corpus.get(record["url"])
            if url is None:
                self._fail(f"{path.name}: unplanned url {record['url']}")
                continue
            if record["result"]["transport_error"] is not None:
                self.transport_errors += 1
            kinds, leaks = expected_report(url, url.rounds[round_no - 1], self.https)
            got = {f["kind"]: frozenset(f["subflags"]) for f in record["report"]["findings"]}
            if got != kinds:
                self._fail(f"round {round_no} {url.key}: smells {_show(got)} != planned {_show(kinds)}")
            got_leaks = sorted(((l["category"], l["software"], l["version"], l["locus"])
                                for l in record["report"]["leaks"]), key=repr)
            if got_leaks != leaks:
                self._fail(f"round {round_no} {url.key}: leaks {got_leaks} != planned {leaks}")
        return len(records)

    def maintenance(self, path: Path) -> None:
        expected = expected_maintenance(self.plan, self.base)
        got = {}
        for line in path.read_text(encoding="utf-8").splitlines():
            record = json.loads(line)
            got[record["url"]] = record
        for url in sorted(set(expected) | set(got)):
            if expected.get(url) != got.get(url):
                self._fail(f"{path.name}: {url} record {got.get(url)} != planned {expected.get(url)}")

    def reports(self, out_dir: Path) -> None:
        expected = expected_tables(self.plan, self.base)
        for table, rows in expected.items():
            data = json.loads((out_dir / f"{table}.json").read_text(encoding="utf-8"))
            got = data["rows"]
            if table == "leaks":
                got = [{k: r[k] for k in ("category", "software", "locus", "count")} for r in got]
            if table in ("leaks", "correlation"):
                got = sorted(got, key=repr)
            if got != rows:
                diff = [r for r in rows if r not in got][:3] + [r for r in got if r not in rows][:3]
                self._fail(f"report {table}: differs from the recount, e.g. {diff}")
        self.maintenance(out_dir / "maintenance.jsonl")

    def same_scan(self, first: Path, again: Path) -> None:
        """A rescan of unchanged fixtures must match byte for byte, timestamps masked."""
        a = _TIMESTAMP.sub('"\\1":""', first.read_text(encoding="utf-8"))
        b = _TIMESTAMP.sub('"\\1":""', again.read_text(encoding="utf-8"))
        if a != b:
            self._fail(f"{again.name}: rescan differs from the first scan beyond timestamps")


def _show(kinds: dict) -> str:
    return "{" + ", ".join(f"{k}:{sorted(v)}" for k, v in sorted(kinds.items())) + "}"
