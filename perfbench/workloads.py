"""Seeded inputs for the benchmark: two rounds of fixture routes, the corpora,
and the plan every output is checked against.

The generator builds each URL's responses from components (status, banners,
HSTS policy, planted error page, body banners, redirect hops, round-2
outcome).  The wire form is rendered from those components here; the
expected labels are derived from the same components in ``oracle.py``,
never from the program's output.

The seed chooses which URL gets which component and all the text.  Shapes
that set the amount of work (body sizes, hop counts, outcome counts) are
fixed multisets per workload, so a run on any seed does the same work.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

BODY_CAP = 256 * 1024  # the scanner's default body_sample_limit
_MARGIN = 2048  # planted text ends this far before the cap

OS_NAMES = ("Ubuntu", "Debian", "CentOS", "Win64", "Unix")

# (wire name, usual version width) for Server banners; names from the
# program's service dictionary, in the casing servers send.
SERVICES = (
    ("nginx", 3), ("Apache", 3), ("openresty", 4), ("Microsoft-IIS", 2),
    ("gunicorn", 3), ("Jetty", 3), ("Apache-Coyote", 2), ("LiteSpeed", 2),
    ("Caddy", 3), ("Varnish", 2), ("AmazonS3", 0), ("awselb", 2),
    ("ESF", 0), ("CloudFront", 0), ("Express", 0), ("CherryPy", 3),
)
EXTRA_TOKENS = ("OpenSSL", "mod_perl", "PHP", "Phusion_Passenger")
POWERED_BY = ("PHP", "Express", "ASP.NET", "Servlet", "Next.js")
ALPHA_VERSIONS = ("beta", "stable", "latest", "edge")
FRAMEWORKS = ("asp", "cherrypy", "java", "nodejs", "php", "unknown_framework")
BODY_BANNER_STYLES = ("apache", "nginx", "openresty", "cherrypy", "apache_h3")

_WORDS = (
    "account", "profile", "session", "catalog", "order", "invoice", "device",
    "region", "payload", "render", "widget", "banner", "layout", "mobile",
    "client", "update", "sync", "feed", "article", "comment", "gallery",
    "market", "ticket", "notice", "search", "filter", "status", "metric",
    "report", "config", "locale", "theme", "avatar", "upload", "export",
)
_NEAR_MISS = (
    "Warning: cache {w} in module {w} (line {n})",
    "Fatal error: worker {n} restarted in pool {w}",
    "    at com.example.{W}.{w}({W}.kt:{n})",
    "    at {w} (internal/{w}.js:{n}:{n})",
    "java.lang.Thread {w} started",
    "#{n} {w}.py({n}): call",
    "Uncaught rejection in {w}.js",
    "exception handled: {w} retry {n}",
    "trace id {h} span {h}",
    "Error: Cannot connect to {w}",
)


@dataclass
class Banner:
    """A product listing: ``[(name, version text or None)]`` plus an OS note."""

    tokens: list[tuple[str, str | None]]
    os: str | None = None
    style: str = "header"  # or a body-banner style


@dataclass
class Body:
    kind: str  # html | json | empty
    size: int
    framework: str | None = None  # planted error page, inside the sample cap
    banners: list[Banner] = field(default_factory=list)  # inside the sample cap
    beyond_cap: str | None = None  # error page planted past the sample cap
    text: str = ""


@dataclass
class Response:
    status: int
    server: Banner | None = None
    powered_by: Banner | None = None
    engine: Banner | None = None
    challenge: bool = False
    sts: tuple[int, bool, bool] | None = None
    body: Body = field(default_factory=lambda: Body("empty", 0))
    location: str | None = None


@dataclass
class UrlPlan:
    key: str  # path of the target URL
    app_id: str
    source_model: str
    declared: str | None
    hops: int  # redirects before the terminal exchange; -1 marks a self-loop
    rounds: tuple[Response, Response]
    outcome: str  # planned round-2 maintenance outcome
    in_round2: bool = True


@dataclass
class WorkloadSpec:
    name: str
    scheme: str
    urls: int
    body_sizes: tuple[int, ...]  # cycled over the URLs
    hops: tuple[int, ...]  # cycled over the URLs, in step with the sizes
    json_share: float
    framework_share: float
    banner_share: float  # HTML bodies carrying one or two body banners
    diff_passes: int  # diff and report runs per round
    near_miss_lines: int = 0  # per HTML body


# Round-2 maintenance outcomes per 100 URLs: every outcome that needs no dead
# endpoint.  shutdown_no_comparison drops the URL from the round-2 corpus.
# A synthetic mix: each outcome is planted at least once on 24 URLs.
LIVE_OUTCOMES = {
    "none": 10, "no_update": 35, "version_upgrade": 15, "version_downgrade": 5, "leak_closed": 10,
    "environment_changed": 5, "cloudflare_enabled": 5, "server_spawned": 5,
    "versioning_scheme_changed": 5, "shutdown_no_comparison": 5,
}
REWRITE_SHARE = 0.25  # URLs whose round-2 body or HSTS policy changes
# The paper's corpus: 9,714 distinct URLs used in 3,376 apps.
URLS_PER_APP = 9714 / 3376

WORKLOADS = {
    "scan-tls": WorkloadSpec(
        name="scan-tls", scheme="https", urls=24,
        body_sizes=(300, 600, 900, 1400, 2000),
        hops=(0,) * 12 + (1,) * 6 + (2,) * 3 + (3, 6, -1),
        json_share=0.4, framework_share=0.15, banner_share=0.1,
        diff_passes=8,
    ),
    "scan-bodies": WorkloadSpec(
        name="scan-bodies", scheme="http", urls=40,
        body_sizes=tuple(k * 1024 for k in (3, 8, 16, 32, 64, 96, 128, 192, 240, 320)),
        hops=(0,),
        json_share=0.3, framework_share=0.75, banner_share=0.5,
        diff_passes=4, near_miss_lines=40,
    ),
}


@dataclass
class Plan:
    spec: WorkloadSpec
    urls: list[UrlPlan]

    def corpus(self, round_no: int) -> list[UrlPlan]:
        return [u for u in self.urls if round_no == 1 or u.in_round2]


# --- rendering -----------------------------------------------------------


def version_text(version: tuple[int, ...]) -> str:
    return ".".join(str(part) for part in version)


def render_banner(banner: Banner) -> str:
    parts = []
    for index, (name, text) in enumerate(banner.tokens):
        parts.append(name if text is None else f"{name}/{text}")
        if index == 0 and banner.os:
            parts.append(f"({banner.os})")
    return " ".join(parts)


def _render_body_banner(banner: Banner) -> str:
    name, text = banner.tokens[0]
    if banner.style == "apache":
        os_note = f" ({banner.os})" if banner.os else ""
        return f"<address>Apache/{text}{os_note} Server at localhost Port 80</address>"
    if banner.style in ("nginx", "openresty"):
        return f"<hr><center>{name}/{text}</center>"
    if banner.style == "cherrypy":
        return f'<span>Powered by <a href="http://www.cherrypy.dev">CherryPy {text}</a></span>'
    return "<p>served through Apache H3</p>"


def _error_page(framework: str, rng: random.Random) -> str:
    w = rng.choice(_WORDS)
    big = w.capitalize()
    n = rng.randint(10, 999)
    if framework == "asp":
        lines = ["<h1>Server Error in '/' Application.</h1>",
                 f"System.Web.HttpException: The file '/{w}.aspx' does not exist."]
    elif framework == "cherrypy":
        lines = ["Traceback (most recent call last):",
                 f'  File "/usr/lib/python3/dist-packages/cherrypy/_cprequest.py", line {n}, in respond']
    elif framework == "java":
        lines = [f"java.lang.IllegalStateException: {w} not ready",
                 f"\tat com.example.{big}.{w}({big}.java:{n})"]
    elif framework == "nodejs":
        lines = [f"Error: Cannot find module '{w}'",
                 f"    at Function.Module._resolveFilename (node:internal/modules/cjs/loader:{n}:15)"]
    elif framework == "php":
        lines = [f"PHP Fatal error:  Uncaught Error: Call to undefined function {w}() in /var/www/html/{w}.php:{n}",
                 "#0 {main}"]
    else:
        lines = [f"Unhandled exception while handling {w} request"]
    return "\n".join(lines)


def _filler_line(rng: random.Random) -> str:
    return " ".join(rng.choice(_WORDS) for _ in range(rng.randint(6, 12)))


def _near_miss(rng: random.Random) -> str:
    w = rng.choice(_WORDS)
    return rng.choice(_NEAR_MISS).format(
        w=w, W=w.capitalize(), n=rng.randint(1, 9999), h=f"{rng.getrandbits(32):08x}"
    )


def render_body(body: Body, rng: random.Random, near_miss_lines: int) -> str:
    """Body text of ``body.size`` ASCII bytes (more when the plants need it).

    Planted parts sit at line boundaries spread over the part of the body
    the scanner samples; a ``beyond_cap`` page starts past the sample cap.
    JSON bodies are one minified line (an array of log strings), so they
    carry no near-miss log lines.
    """
    if body.kind == "empty":
        return ""
    is_json = body.kind == "json"
    plants = []
    if body.framework:
        plants.append(_error_page(body.framework, rng))
    plants.extend(_render_body_banner(banner) for banner in body.banners)
    if not is_json:
        plants.extend(_near_miss(rng) for _ in range(near_miss_lines))
    rng.shuffle(plants)
    tail = _error_page(body.beyond_cap, rng) if body.beyond_cap else ""
    if is_json:
        head, end, gap = '{"log":["', '"]}', '","'
        plants = [json.dumps(p)[1:-1] for p in plants]
        tail = json.dumps(tail)[1:-1]
    else:
        head, end, gap = "<html><body>\n", "\n</body></html>\n", "\n"
    plants = [gap + p + gap for p in plants]
    tail = gap + tail if tail else ""
    planted = sum(map(len, plants))
    pad_total = max(body.size - len(head) - len(end) - len(tail) - planted, 0)
    filler = []
    filled = 0
    while filled < pad_total:
        line = (_filler_line(rng) if is_json else f"<p>{_filler_line(rng)}</p>") + gap
        filler.append(line)
        filled += len(line)
    pad = "".join(filler)[:pad_total]
    if is_json:
        pad = pad.rstrip('",')  # no half separator before the closing quote
    limit = min(len(pad), BODY_CAP - _MARGIN - len(head) - planted)
    if limit < 0:
        raise ValueError("planted parts overflow the sample cap")
    cuts = sorted(rng.randrange(limit + 1) for _ in plants)
    pieces = [head]
    last = 0
    for cut, plant in zip(cuts, plants):
        found = pad.find(gap, max(cut, last))
        cut = len(pad) if found < 0 else found
        pieces.append(pad[last:cut])
        pieces.append(plant)
        last = cut
    pieces.append(pad[last:])
    text = "".join(pieces)
    if tail:
        if len(text) < BODY_CAP + _MARGIN:
            raise ValueError("body too small to plant past the sample cap")
        text += tail
    return text + end


def _wire_headers(response: Response, scheme_https: bool) -> list[list[str]]:
    headers = []
    if response.server:
        headers.append(["Server", render_banner(response.server)])
    if response.powered_by:
        headers.append(["X-Powered-By", render_banner(response.powered_by)])
    if response.engine:
        headers.append(["Engine", render_banner(response.engine)])
    if response.sts and scheme_https:
        max_age, sub, preload = response.sts
        value = f"max-age={max_age}" + ("; includeSubDomains" if sub else "") + ("; preload" if preload else "")
        headers.append(["Strict-Transport-Security", value])
    if response.challenge:
        headers.append(["WWW-Authenticate", 'Basic realm="api"'])
    if response.location:
        headers.append(["Location", response.location])
    if response.body.kind == "json":
        headers.append(["Content-Type", "application/json"])
    elif response.body.kind == "html":
        headers.append(["Content-Type", "text/html; charset=utf-8"])
    return headers


def fixture_routes(plan: Plan) -> dict:
    """What the fixture process serves: two route tables over shared bodies."""
    https = plan.spec.scheme == "https"
    bodies = [""]  # index 0 is the empty body
    body_ids: dict[int, int] = {}  # id() of a Body the plan keeps alive

    def body_id(body: Body) -> int:
        if not body.text:
            return 0
        if id(body) not in body_ids:
            body_ids[id(body)] = len(bodies)
            bodies.append(body.text)
        return body_ids[id(body)]

    tables = []
    for round_index in range(2):
        table = {}
        for url in plan.urls:
            first = url.rounds[round_index]
            table[url.key] = [first.status, _wire_headers(first, https), body_id(first.body)]
            for hop in range(1, url.hops + 1):
                if hop < url.hops:
                    location = "{base}" + f"{url.key}/{hop + 1}"
                    table[f"{url.key}/{hop}"] = [302, [["Location", location]], 0]
                else:
                    table[f"{url.key}/{hop}"] = [200, [], 0]
        tables.append(table)
    return {"scheme": plan.spec.scheme, "bodies": bodies, "round1": tables[0], "round2": tables[1]}


# --- generation ------------------------------------------------------------


def _service_banner(rng: random.Random, name: str | None = None) -> Banner:
    if name is None:
        name, width = rng.choice([s for s in SERVICES if s[1]])
    else:
        width = dict(SERVICES).get(name, 3) or 3
    tokens = [(name, version_text(_random_version(rng, width)))]
    if rng.random() < 0.2:
        tokens.append((rng.choice(EXTRA_TOKENS), version_text(_random_version(rng, 3))))
    os_note = rng.choice(OS_NAMES) if rng.random() < 0.3 else None
    return Banner(tokens=tokens, os=os_note)


def _random_version(rng: random.Random, width: int) -> tuple[int, ...]:
    return tuple(rng.randint(1, 20) for _ in range(max(width, 1)))


def _with_first(banner: Banner, name: str, text: str | None) -> Banner:
    return Banner(tokens=[(name, text)] + banner.tokens[1:], os=banner.os)


def _round2_server(outcome: str, before: Banner | None, rng: random.Random) -> Banner | None:
    """The round-2 Server banner that realises the planned outcome."""
    if outcome in ("none", "shutdown_no_comparison"):
        return before
    assert before is not None or outcome == "server_spawned"
    if outcome == "server_spawned":
        return _service_banner(rng)
    name, text = before.tokens[0]
    parts = tuple(int(p) for p in text.split(".")) if text else None
    if outcome == "no_update":
        if parts and rng.random() < 0.3:
            return _with_first(before, name, text + ".0")  # zero padding keeps it equal
        return before
    if outcome == "version_upgrade":
        bumped = list(parts)
        index = rng.randrange(len(bumped))
        bumped[index] += rng.randint(1, 3)
        bumped[index + 1:] = [0] * len(bumped[index + 1:])
        return _with_first(before, name, version_text(tuple(bumped)))
    if outcome == "version_downgrade":
        index = max(i for i, p in enumerate(parts) if p > 0)
        lowered = list(parts)
        lowered[index] -= 1
        return _with_first(before, name, version_text(tuple(lowered)))
    if outcome == "leak_closed":
        return _with_first(before, name, None) if rng.random() < 0.5 else None
    if outcome == "environment_changed":
        other = rng.choice([s for s, w in SERVICES if w and s.lower() != name.lower()])
        return _service_banner(rng, other)
    if outcome == "cloudflare_enabled":
        return Banner(tokens=[("cloudflare", None)])
    if outcome == "versioning_scheme_changed":
        return _with_first(before, name, rng.choice(ALPHA_VERSIONS))
    raise ValueError(outcome)


def _round1_server(outcome: str, rng: random.Random) -> Banner | None:
    if outcome in ("none", "server_spawned"):
        return None
    return _service_banner(rng)


@dataclass(frozen=True)
class _Slot:
    """The work-setting features of one URL; a workload's slots are a fixed list."""

    size: int
    hops: int
    kind: str
    framework: str | None
    banners: int
    rewrite: bool
    outcome: str


def _evenly(index: int, share: float, step: float) -> bool:
    """True for about ``share`` of the indices, spread evenly (a Weyl sequence)."""
    return (index * step) % 1.0 < share


def _slots(spec: WorkloadSpec) -> list[_Slot]:
    outcomes: list[str] = []
    for outcome, per_hundred in LIVE_OUTCOMES.items():
        outcomes.extend([outcome] * round(per_hundred * spec.urls / 100))
    outcomes = (outcomes + ["no_update"] * spec.urls)[: spec.urls]
    slots = []
    for i in range(spec.urls):
        kind = "json" if _evenly(i, spec.json_share, 0.6180339887) else "html"
        framework = FRAMEWORKS[i % len(FRAMEWORKS)] if _evenly(i, spec.framework_share, 0.4142135624) else None
        banners = (1 + i % 2) if kind == "html" and _evenly(i, spec.banner_share, 0.7320508076) else 0
        slots.append(_Slot(
            size=spec.body_sizes[i % len(spec.body_sizes)],
            hops=spec.hops[i % len(spec.hops)],
            kind=kind,
            framework=framework,
            banners=banners,
            rewrite=_evenly(i, REWRITE_SHARE, 0.2360679775),
            outcome=outcomes[(i * 7919) % spec.urls],  # 7919 is prime: a fixed interleaving
        ))
    return slots


def _body(slot: _Slot, framework: str | None, rng: random.Random) -> Body:
    banners = []
    for style in rng.sample(BODY_BANNER_STYLES, slot.banners):
        if style == "apache_h3":
            banners.append(Banner([("Apache H3", None)], style=style))
            continue
        name = {"apache": "Apache", "cherrypy": "CherryPy"}.get(style, style)
        os_note = rng.choice(OS_NAMES) if style == "apache" and rng.random() < 0.5 else None
        banners.append(Banner([(name, version_text(_random_version(rng, 3)))], os=os_note, style=style))
    beyond = None
    if slot.size >= BODY_CAP + 4 * _MARGIN:
        beyond = rng.choice([f for f in FRAMEWORKS if f not in (framework, "unknown_framework")])
    return Body(kind=slot.kind, size=slot.size, framework=framework, banners=banners, beyond_cap=beyond)


def _response(spec: WorkloadSpec, slot: _Slot, server: Banner | None, rng: random.Random) -> Response:
    body = _body(slot, slot.framework, rng)
    status = 500 if body.framework and rng.random() < 0.7 else rng.choice(
        (200, 200, 200, 200, 201, 401, 403, 404))
    sts = None
    if spec.scheme == "https" and rng.random() < 0.7:
        sts = (rng.choice((300, 86400, 31536000, 63072000)), rng.random() < 0.6, rng.random() < 0.4)
    return Response(
        status=status,
        server=server,
        powered_by=Banner([(rng.choice(POWERED_BY), None if rng.random() < 0.5 else "7.4.3")])
        if rng.random() < 0.25 else None,
        engine=Banner([("LiteSpeed", None)]) if rng.random() < 0.05 else None,
        challenge=status == 401 or (status == 200 and rng.random() < 0.05),
        sts=sts,
        body=body,
    )


def _rewrite(spec: WorkloadSpec, slot: _Slot, response: Response, rng: random.Random) -> Response:
    """Round 2 of a rewritten URL: the HSTS policy flips (https) or the
    error page is fixed or appears in a fresh body of the same size (http)."""
    sts, body = response.sts, response.body
    if spec.scheme == "https":
        sts = None if sts else (31536000, True, True)
    else:
        framework = None if body.framework else FRAMEWORKS[(FRAMEWORKS.index(slot.framework or "php") + 1) % 6]
        body = _body(slot, framework, rng)
    return Response(response.status, response.server, response.powered_by, response.engine,
                    response.challenge, sts, body, response.location)


def _redirect(first: Response, hops: int, key: str) -> Response:
    """The first exchange of a redirecting URL keeps its banners and HSTS policy."""
    target = key if hops < 0 else f"{key}/1"
    return Response(302, first.server, first.powered_by, first.engine, False, first.sts,
                    Body("empty", 0), "{base}" + target)


def generate(name: str, seed: int) -> Plan:
    spec = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    slots = _slots(spec)
    rng.shuffle(slots)
    urls = []
    app = 0
    for index, slot in enumerate(slots):
        if index == 0 or rng.random() < 1 / URLS_PER_APP:
            app += 1
        key = f"/t/{index:05d}"
        server1 = _round1_server(slot.outcome, rng)
        first = _response(spec, slot, server1, rng)
        second = _rewrite(spec, slot, first, rng) if slot.rewrite else first
        server2 = _round2_server(slot.outcome, server1, rng)
        if server2 is not server1:
            second = Response(second.status, server2, second.powered_by, second.engine,
                              second.challenge, second.sts, second.body, second.location)
        if slot.hops:
            first, second = _redirect(first, slot.hops, key), _redirect(second, slot.hops, key)
        urls.append(UrlPlan(
            key=key,
            app_id=f"app{app:05d}",
            source_model=rng.choice(("open_source", "closed_source")),
            declared=rng.choice((None, None, "json", "non_json")),
            hops=slot.hops,
            rounds=(first, second),
            outcome=slot.outcome,
            in_round2=slot.outcome != "shutdown_no_comparison",
        ))
    for url in urls:
        for response in url.rounds:
            if response.body.kind != "empty" and not response.body.text:
                response.body.text = render_body(response.body, rng, spec.near_miss_lines)
    return Plan(spec=spec, urls=urls)


def corpus_csv(plan: Plan, round_no: int, base: str) -> str:
    lines = ["url,app_id,source_model,declared_format"]
    for url in plan.corpus(round_no):
        lines.append(f"{base}{url.key},{url.app_id},{url.source_model},{url.declared or ''}")
    return "\n".join(lines) + "\n"
