"""Detectors for the six server-side security smells.

Every detector is a pure function of probe evidence: same input, same
finding.  ``detect_all`` takes no settings, so a stored report can always
be derived again from the stored target and redirect chain.  The findings
and leak records they return live in ``smellprobe.model``.  Pattern tables
live in the packaged data files so they can be versioned independently of
the code; they are compiled on first use.  Of the CLI's commands, only
``scan`` imports this module.
"""

from __future__ import annotations

import re
from functools import cache
from urllib.parse import urlsplit

from .data import load_table
from .model import (
    VERSION_HEADER_KEYS,
    LeakCategory,
    LeakRecord,
    Locus,
    ProbeResult,
    ProbeTarget,
    Record,
    RedirectChain,
    Scheme,
    SmellFinding,
    SmellKind,
    SmellReport,
    _set,
)
from .versions import BannerParse, SoftwareId, parse_banner

HSTS_MIN_MAX_AGE = 31_536_000  # one year, the recommended floor
REDIRECT_CHAIN_THRESHOLD = 5  # more redirects than this is flagged as excessive

_EXCERPT_LIMIT = 200


def _excerpt(text: str) -> str:
    return text if len(text) <= _EXCERPT_LIMIT else text[: _EXCERPT_LIMIT - 1] + "…"


def _evidence(locus: Locus, text: str) -> tuple[Locus, str]:
    return (locus, _excerpt(text))


# --- pattern tables -------------------------------------------------------


def _fold(text: str) -> str:
    """The body as a case-insensitive gate sees it (see framework_patterns.json)."""
    return text.lower().replace("\u017f", "s")


_PHP_LOCATION = ".php on line "


def _php_error_line(text: str, anchor: str) -> str | None:
    r"""The first match of ``anchor + r".+ in .+\.php on line \d+"``, in linear time.

    The regex itself backtracks cubically on a line of repeated
    ``"<anchor>x in "``.  It matches only within one line, and it matches
    from an anchor exactly when it matches from the first anchor on that
    line, so each line is checked once.  Its greedy ``.+`` runs make the
    match end at the last ``.php on line <digits>`` of the line that leaves
    room for `` in `` after the anchor.
    """
    start = text.find(anchor)
    while start >= 0:
        end = text.find("\n", start)
        if end < 0:
            end = len(text)
        rest = start + len(anchor)
        # The last location on the line with a digit after it (end - 1 keeps
        # that digit on the line), then " in " between it and the anchor,
        # with at least one character on either side.
        location = text.rfind(_PHP_LOCATION, rest, end - 1)
        while location >= 0 and not text[location + len(_PHP_LOCATION)].isdecimal():
            location = text.rfind(_PHP_LOCATION, rest, location + len(_PHP_LOCATION) - 1)
        if location >= 0 and text.find(" in ", rest + 1, location - 1) >= 0:
            stop = location + len(_PHP_LOCATION)
            while stop < end and text[stop].isdecimal():
                stop += 1
            return text[start:stop]
        start = text.find(anchor, end)
    return None


def _at_line_start(regex: str) -> re.Pattern:
    r"""Finds the leftmost match of ``(?m)^\s*`` + regex; it starts where group 1 does.

    ``^\s*`` tried at every line start scans a run of blank lines once per
    line of the run, which is quadratic.  A regex not starting with whitespace
    makes the leftmost match start at the text's start or on the line after
    the last line holding non-whitespace, so this tries only there.
    """
    return re.compile(r"(?:\A|(?<=\S)[^\S\n]*\n)(\s*)(?:" + regex + ")")


# Zero-width after the whitespace, so finditer goes on from the "at " itself.
_FRAME = _at_line_start("(?=at )")
_NODE_LOCATION = re.compile(r"\.js:\d+:\d+\)")


def _node_frame(text: str) -> str | None:
    r"""The first match of ``(?m)^\s*at .+\(.*node_modules.+\.js:\d+:\d+\)``, in linear time.

    The regex itself backtracks cubically on a line of repeated
    ``(node_modules``.  Its greedy runs make a match on a frame line end at
    the line's last ``.js:<digits>:<digits>)``; the line matches when a
    ``node_modules`` ends at least one character before that and a ``(``
    lies between ``at `` plus one character and that ``node_modules``.
    """
    for frame in _FRAME.finditer(text):
        rest = frame.end() + len("at ")
        end = text.find("\n", rest)
        if end < 0:
            end = len(text)
        location = text.rfind(".js:", rest, end)
        while location >= 0 and not (match := _NODE_LOCATION.match(text, location, end)):
            location = text.rfind(".js:", rest, location)
        if location < 0:
            continue
        modules = text.rfind("node_modules", rest, location - 1)
        if modules >= 0 and text.find("(", rest + 1, modules) >= 0:
            return text[frame.start(1) : match.end()]
    return None


class _FrameworkPattern(Record):
    """One marker; ``gate`` is a literal that every match contains.

    The gate is tested first, so a regex runs only on a body that holds it:
    a failing regex search costs a match attempt at every position.  A
    case-insensitive regex tests its gate against the folded body; no other
    pattern reads ``folded``, so it may be None for them.
    """

    __slots__ = ("framework", "kind", "marker", "gate", "specificity", "order", "matcher", "case_insensitive")

    def __init__(
        self,
        framework: str,
        kind: str,  # literal | regex | php_error | frame | node_frame
        marker: str,
        gate: str,
        specificity: int,
        order: int,
        matcher: re.Pattern | None = None,
        case_insensitive: bool = False,
    ) -> None:
        _set(self, "framework", framework)
        _set(self, "kind", kind)
        _set(self, "marker", marker)
        _set(self, "gate", gate)
        _set(self, "specificity", specificity)
        _set(self, "order", order)
        _set(self, "matcher", matcher)
        _set(self, "case_insensitive", case_insensitive)

    def search(self, text: str, folded: str | None) -> str | None:
        if self.gate not in (folded if self.case_insensitive else text):
            return None
        if self.kind == "literal":
            return self.marker
        if self.kind == "php_error":
            return _php_error_line(text, self.marker)
        if self.kind == "node_frame":
            return _node_frame(text)
        assert self.matcher is not None
        if self.kind == "frame":
            # The gate is on a match's last line, so no match starts before the
            # whitespace that ends where the first gate's line starts.
            line = text.rfind("\n", 0, text.find(self.gate)) + 1
            match = self.matcher.search(text, len(text[:line].rstrip()))
            return text[match.start(1) : match.end()] if match else None
        match = self.matcher.search(text)
        return match.group(0) if match else None


def _framework_patterns(table: dict) -> tuple[_FrameworkPattern, ...]:
    """The table's entries in attribution order: most specific first, then table order."""
    patterns = []
    for order, entry in enumerate(table["patterns"]):
        kind, marker = entry["kind"], entry["marker"]
        if kind in ("regex", "frame") and not entry.get("gate"):
            raise ValueError(f"framework pattern {order} ({marker!r}): a {kind} needs a gate")
        matcher = (
            re.compile(marker) if kind == "regex"
            else _at_line_start(marker) if kind == "frame"
            else None
        )
        patterns.append(
            _FrameworkPattern(
                framework=entry["framework"],
                kind=kind,
                marker=marker,
                gate=entry.get("gate", marker),
                specificity=entry["specificity"],
                order=order,
                matcher=matcher,
                case_insensitive=matcher is not None and bool(matcher.flags & re.IGNORECASE),
            )
        )
    return tuple(sorted(patterns, key=lambda p: (-p.specificity, p.order)))


class _BodyBanner(Record):
    __slots__ = ("label", "matcher", "template", "literal")

    def __init__(self, label: str, matcher: re.Pattern, template: str, literal: bool) -> None:
        _set(self, "label", label)
        _set(self, "matcher", matcher)
        _set(self, "template", template)
        _set(self, "literal", literal)


_ANCHOR_TAG = "(?:<a[^>]*>)?"


def _banner_search(matcher: re.Pattern, text: str) -> re.Match | None:
    """``matcher.search(text)``, in linear time for ``prefix + _ANCHOR_TAG + rest`` patterns."""
    prefix, tag, rest = matcher.pattern.partition(_ANCHOR_TAG)
    if not tag:
        return matcher.search(text)
    rest = re.compile(rest)
    # The regex scans from each start to the next ">", which is quadratic on
    # many starts before one ">".  They all reach it, so rest is tried there once.
    gt, tagged = -1, False
    start = text.find(prefix)
    while start >= 0:
        after = start + len(prefix)
        anchor = text.startswith("<a", after)
        if anchor and gt < after + 2:
            gt = text.find(">", after + 2) % (len(text) + 1)  # len(text) when there is none
            tagged = rest.match(text, gt + 1) is not None
        if (anchor and tagged) or rest.match(text, after):
            return matcher.match(text, start)
        start = text.find(prefix, start + 1)
    return None


@cache
def _framework_table() -> tuple[_FrameworkPattern, ...]:
    return _framework_patterns(load_table("framework_patterns.json"))


@cache
def _body_banner_table() -> tuple[_BodyBanner, ...]:
    return tuple(
        _BodyBanner(e["label"], re.compile(e["pattern"]), e["template"], e["literal"])
        for e in load_table("body_banners.json")["banners"]
    )


def _decode_body(body: bytes) -> str:
    return body.decode("utf-8", errors="replace")


# --- detectors ------------------------------------------------------------


def detect_insecure_transport(target: ProbeTarget) -> SmellFinding | None:
    """Fires when the target URL uses plain http (scheme compared case-insensitively)."""
    if urlsplit(target.url).scheme != "http":
        return None
    return SmellFinding(
        kind=SmellKind.INSECURE_TRANSPORT,
        evidence=(_evidence(Locus.URL, target.url),),
    )


def detect_source_code_disclosure(result: ProbeResult) -> SmellFinding | None:
    """Fires when the body carries a stack trace or code snippet.

    Attribution picks the most specific matching pattern; ties break by
    table order, so framework markers beat generic crash vocabulary.  The
    patterns are tried in that order and the first match wins.  The body is
    folded to lowercase only when a case-insensitive pattern is reached.
    """
    return _source_code_disclosure(_decode_body(result.body_sample))


def _source_code_disclosure(text: str) -> SmellFinding | None:
    if not text:
        return None
    folded = None
    for pattern in _framework_table():
        if pattern.case_insensitive and folded is None:
            folded = _fold(text)
        matched = pattern.search(text, folded)
        if matched is not None:
            return SmellFinding(
                kind=SmellKind.SOURCE_CODE_DISCLOSURE,
                evidence=(_evidence(Locus.BODY, matched),),
                subflags=frozenset({pattern.framework}),
            )
    return None


def _leaks_from_parse(parsed: BannerParse, locus: str) -> list[LeakRecord]:
    records: list[LeakRecord] = []
    for sid in parsed.software:
        records.append(
            LeakRecord(LeakCategory.SERVICE, sid.display_name, None, locus)
        )
        if sid.version is not None:
            records.append(
                LeakRecord(LeakCategory.VERSION, sid.display_name, sid.version_string, locus)
            )
    if parsed.os is not None:
        records.append(LeakRecord(LeakCategory.OS, parsed.os, None, locus))
    return records


def _body_banner_hits(text: str) -> list[tuple[str, BannerParse]]:
    hits: list[tuple[str, BannerParse]] = []
    for banner in _body_banner_table():
        match = _banner_search(banner.matcher, text)
        if match is None:
            continue
        token = match.expand(banner.template)
        parsed = BannerParse(software=(SoftwareId(token),)) if banner.literal else parse_banner(token)
        hits.append((match.group(0), parsed))
    return hits


def detect_version_disclosure(
    result: ProbeResult,
) -> tuple[SmellFinding | None, list[LeakRecord]]:
    """Fires on any disclosing header key or a known body banner.

    Returns the finding together with every leak record extracted from the
    matched banners; version records exist only when a finding exists.
    """
    return _version_disclosure(result, _decode_body(result.body_sample))


def _version_disclosure(
    result: ProbeResult, text: str
) -> tuple[SmellFinding | None, list[LeakRecord]]:
    evidence: list[tuple[Locus, str]] = []
    subflags: set[str] = set()
    leaks: list[LeakRecord] = []

    for name, value in result.headers:
        if name not in VERSION_HEADER_KEYS:
            continue
        subflags.add(name)
        evidence.append(_evidence(Locus.HEADER, f"{name}: {value}"))
        leaks.extend(_leaks_from_parse(parse_banner(value), name))

    if text:
        for matched, parsed in _body_banner_hits(text):
            subflags.add("body_banner")
            evidence.append(_evidence(Locus.BODY, matched))
            leaks.extend(_leaks_from_parse(parsed, "body"))

    if not evidence:
        return None, []
    finding = SmellFinding(
        kind=SmellKind.VERSION_DISCLOSURE,
        evidence=tuple(evidence),
        subflags=frozenset(subflags),
    )
    return finding, leaks


def detect_lack_of_access_control(result: ProbeResult) -> SmellFinding | None:
    """Fires when the server answers 2xx without demanding credentials; 401/403 never fire."""
    if result.status is None:
        return None
    if not (200 <= result.status < 300):
        return None
    if result.header_values("www-authenticate"):
        return None
    return SmellFinding(
        kind=SmellKind.LACK_OF_ACCESS_CONTROL,
        evidence=(_evidence(Locus.HEADER, f"status {result.status} without credential challenge"),),
    )


def detect_missing_https_redirect(chain: RedirectChain) -> SmellFinding | None:
    """Flags broken transport upgrades observed on the redirect chain.

    For an http target: fires when no URL the chain requested, nor the
    terminal's ``redirect_url`` (where a Location that was not followed
    leads), is https on the same host (hostnames compared
    case-insensitively, ports ignored; the path may differ).  For an https target: fires on any https->http
    downgrade.  Loops and chains longer than the recommended limit are
    flagged on any target.  An unreachable target with no observed hops is
    not judged.
    """
    target_host = urlsplit(chain.result.url).hostname  # never empty: see request_url_problem

    if not chain.hops and chain.terminal.transport_error is not None:
        # The server never answered; there is no redirect behavior to judge.
        return None

    subflags: set[str] = set()
    evidence: list[tuple[Locus, str]] = []

    if chain.loop_detected:
        subflags.add("loop")
        evidence.append(_evidence(Locus.CHAIN, f"redirect loop: {chain.terminal.url} revisited"))
    if chain.chain_length > REDIRECT_CHAIN_THRESHOLD:
        subflags.add("excessive_chain")
        evidence.append(
            _evidence(
                Locus.CHAIN,
                f"{chain.chain_length} redirects exceed the recommended {REDIRECT_CHAIN_THRESHOLD}",
            )
        )
    if chain.downgrade_hops > 0:
        subflags.add("downgrade")
        evidence.append(
            _evidence(Locus.CHAIN, f"{chain.downgrade_hops} https->http downgrade hop(s)")
        )

    missing_upgrade = False
    if chain.result.scheme_used is Scheme.HTTP:
        upgraded = any(
            urlsplit(u).scheme == "https" and urlsplit(u).hostname == target_host
            for u in (*chain.requested_urls(), chain.terminal.redirect_url or "")
        )
        if not upgraded:
            missing_upgrade = True
            status = chain.terminal.status
            detail = f"status {status}" if status is not None else chain.terminal.transport_error
            evidence.append(
                _evidence(
                    Locus.CHAIN,
                    f"no redirect to https://{target_host} within {chain.chain_length} hop(s); terminal {detail}",
                )
            )

    if not missing_upgrade and not subflags:
        return None
    return SmellFinding(
        kind=SmellKind.MISSING_HTTPS_REDIRECT,
        evidence=tuple(evidence),
        subflags=frozenset(subflags),
    )


def _parse_hsts(value: str) -> tuple[int | None, bool, bool]:
    """(max_age, include_subdomains, preload); first max-age wins when repeated."""
    max_age: int | None = None
    include_subdomains = False
    preload = False
    for directive in value.split(";"):
        directive = directive.strip()
        if not directive:
            continue
        name, _, raw = directive.partition("=")
        name = name.strip().lower()
        raw = raw.strip().strip('"')
        if name == "max-age" and max_age is None:
            try:
                max_age = int(raw)
            except ValueError:
                max_age = None
        elif name == "includesubdomains":
            include_subdomains = True
        elif name == "preload":
            preload = True
    return max_age, include_subdomains, preload


def detect_missing_hsts(result: ProbeResult) -> SmellFinding | None:
    """Checks the strict-transport-security policy of an https response.

    Not applicable to http exchanges (the header only counts over https):
    those, and failed exchanges, return None.  A header with max-age of at
    least one year plus includeSubDomains plus preload is clean; anything
    weaker yields a finding with one subflag per missing property.
    """
    if result.scheme_used is not Scheme.HTTPS or result.status is None:
        return None
    header = result.first_header("strict-transport-security")
    if header is None:
        return SmellFinding(
            kind=SmellKind.MISSING_HSTS,
            evidence=(_evidence(Locus.HEADER, "strict-transport-security header absent"),),
            subflags=frozenset({"absent"}),
        )
    max_age, include_subdomains, preload = _parse_hsts(header)
    subflags: set[str] = set()
    if max_age is None or max_age < HSTS_MIN_MAX_AGE:
        subflags.add("short_max_age")
    if not include_subdomains:
        subflags.add("missing_include_subdomains")
    if not preload:
        subflags.add("missing_preload")
    if not subflags:
        return None
    return SmellFinding(
        kind=SmellKind.MISSING_HSTS,
        evidence=(_evidence(Locus.HEADER, f"strict-transport-security: {header}"),),
        subflags=frozenset(subflags),
    )


def detect_all(target: ProbeTarget, result: ProbeResult, chain: RedirectChain) -> SmellReport:
    """Run all six detectors in their fixed order and collect the report."""
    text = _decode_body(result.body_sample)
    version_finding, leaks = _version_disclosure(result, text)
    findings = (
        detect_insecure_transport(target),
        _source_code_disclosure(text),
        version_finding,
        detect_lack_of_access_control(result),
        detect_missing_https_redirect(chain),
        detect_missing_hsts(result),
    )
    return SmellReport(findings=tuple(f for f in findings if f is not None), leaks=tuple(leaks))
