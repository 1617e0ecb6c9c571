"""The records every command reads or writes: targets, exchanges, findings.

A corpus row becomes a ``ProbeTarget``; probing it gives ``ProbeResult``
exchanges grouped into a ``RedirectChain``; detection gives a
``SmellReport``.  Snapshots store all three, and ``diff`` and ``report``
read them back.  This module imports nothing from the package but its
version, so a command that only reads snapshots loads no detector,
transport or corpus code.
"""

from __future__ import annotations

import ipaddress
import json
import re
from datetime import datetime
from enum import Enum
from itertools import accumulate
from operator import attrgetter
from urllib.parse import urljoin, urlsplit

from . import __version__ as TOOL_VERSION


# --- records --------------------------------------------------------------

# How a record's __init__ sets its fields, since Record refuses assignment.
_set = object.__setattr__


class Record:
    """An immutable value compared by its fields, the base of every record class.

    A subclass lists its fields in ``__slots__`` in the order its own
    ``__init__`` takes them, and that ``__init__`` checks its arguments and
    sets each field with ``_set``.  A slot whose name starts with an
    underscore holds a cache and stays out of ``_fields``, eq, hash and repr.
    Two records are equal when they are of the same class with equal fields;
    assigning or deleting an attribute raises ``AttributeError``.  Pickle and
    ``copy`` rebuild a record through its constructor.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls._fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))
        values = attrgetter(*cls._fields)
        cls._values = staticmethod(values if len(cls._fields) > 1 else lambda record: (values(record),))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), self._values(self)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


# --- corpus ---------------------------------------------------------------


class SourceModel(str, Enum):
    OPEN_SOURCE = "open_source"
    CLOSED_SOURCE = "closed_source"


class DeclaredFormat(str, Enum):
    JSON = "json"
    NON_JSON = "non_json"


# --- request URLs ---------------------------------------------------------

# request_url_problem finds the authority as urlsplit does from Python 3.11.4
# and 3.10.12 on: after leading C0 controls and spaces, with tab, CR and LF
# removed, behind "//" and an optional scheme.  It needs it before urlsplit
# runs, since those releases raise on some bracketed hosts and earlier ones
# do not.
_URL_PADDING = "".join(map(chr, range(0x21)))
_AUTHORITY = re.compile(r"(?:[A-Za-z][A-Za-z0-9+.-]*:)?//([^/?#]*)")
# A host in brackets, then the port, if any (RFC 3986 3.2.2): the host is an
# IPv6 literal or an IPvFuture one, v<hex>.<rest>; IPv4 in brackets is refused.
_BRACKETED_HOSTPORT = re.compile(r"\[([^\[\]]*)\](?::(.*))?")
_IPVFUTURE = re.compile(r"v[a-fA-F0-9]+\..+")
# A port is ASCII digits (RFC 3986 3.2.3) for a number up to 65535; leading
# zeros aside, at most five digits, so int() never meets a long run.
_PORT = re.compile(r"0*([0-9]{0,5})")


def _ip_literal(host: str) -> bool:
    if host.startswith("v"):
        return _IPVFUTURE.fullmatch(host) is not None
    try:
        ipaddress.IPv6Address(host)
    except ValueError:
        return False
    return True


def request_url_problem(url: str) -> str | None:
    """Why the probe may not request ``url``, or None: the one rule for a request URL.

    In this order: brackets in the authority wrap its whole host, after the
    userinfo and before an optional port, and the host is an IP literal;
    ``urlsplit`` parses the URL; it has a scheme and an authority; the scheme
    is http or https; the host is not empty (RFC 9110 4.2.1); a port is
    ASCII digits for a number up to 65535.  The rule decides brackets and
    ports itself, so every interpreter gives a URL the same answer.
    """
    cleaned = url.lstrip(_URL_PADDING).replace("\t", "").replace("\r", "").replace("\n", "")
    authority = _AUTHORITY.match(cleaned)
    netloc = authority[1] if authority else ""
    userinfo, _, hostport = netloc.rpartition("@")
    bracketed = _BRACKETED_HOSTPORT.fullmatch(hostport)
    if ("[" in netloc or "]" in netloc) and (
        bracketed is None or "[" in userinfo or "]" in userinfo or not _ip_literal(bracketed[1])
    ):
        return f"bad bracketed host: {netloc!r}"
    try:
        parts = urlsplit(url)
    except ValueError as exc:
        return f"unparseable url: {exc}"
    if not parts.scheme or not parts.netloc:
        return "url not absolute"
    if parts.scheme not in ("http", "https"):
        return "unsupported scheme"
    # Where urlsplit finds an authority, it is the one found above.
    host, port = bracketed.groups("") if bracketed else hostport.partition(":")[::2]
    if not host:
        return "url has no host"
    digits = _PORT.fullmatch(port)
    if digits is None or int(digits[1] or 0) > 65535:
        return f"bad port: {port!r}"
    return None


class ProbeTarget(Record):
    """A URL under test plus its corpus metadata; ``app_id`` is a non-empty string."""

    __slots__ = ("url", "app_id", "source_model", "declared_format")

    def __init__(
        self,
        url: str,
        app_id: str,
        source_model: SourceModel,
        declared_format: DeclaredFormat | None = None,
    ) -> None:
        problem = request_url_problem(url)
        if problem is not None:
            raise ValueError(f"{problem}: {url!r}")
        if not (isinstance(app_id, str) and app_id):
            raise ValueError(f"app_id {app_id!r} is not a non-empty string")
        if not isinstance(source_model, SourceModel):
            raise ValueError(f"source_model {source_model!r} is not a SourceModel")
        if not isinstance(declared_format, (DeclaredFormat, type(None))):
            raise ValueError(f"declared_format {declared_format!r} is neither a DeclaredFormat nor None")
        _set(self, "url", url)
        _set(self, "app_id", app_id)
        _set(self, "source_model", source_model)
        _set(self, "declared_format", declared_format)


# --- probe ----------------------------------------------------------------


class BodyFormat(str, Enum):
    JSON = "json"
    NON_JSON = "non_json"
    EMPTY = "empty"


class Scheme(str, Enum):
    HTTP = "http"
    HTTPS = "https"


# A body nested deeper than this is not JSON.  json.loads recurses once per
# level, so without a fixed bound whether a deep body parses would depend on
# how much of the stack the caller has used.
JSON_MAX_DEPTH = 128

# _nesting gives how deep the brackets outside strings nest, in the encoding
# json.loads detects.  _NOT_BRACKETS matches a string (one that runs to the
# end counts) or a run without brackets; each match ends where the next can
# start, so removing them all is linear.
_NOT_BRACKETS = re.compile(r'"(?:[^"\\]+|\\.?)*(?:"|\Z)|[^"\[\]{}]+', re.S)
_DEPTH_STEP = {"[": 1, "{": 1, "]": -1, "}": -1}


def _nesting(body: bytes) -> int:
    brackets = _NOT_BRACKETS.sub("", body.decode(json.detect_encoding(body), "surrogatepass"))
    return max(accumulate(map(_DEPTH_STEP.__getitem__, brackets)), default=0)


def classify_body(body: bytes, content_type: str | None) -> BodyFormat:
    """json when the content type says so or the payload is JSON at most JSON_MAX_DEPTH deep."""
    if content_type and "json" in content_type.lower():
        return BodyFormat.JSON
    if not body:
        return BodyFormat.EMPTY
    try:
        json.loads(body)
    except (ValueError, UnicodeDecodeError):
        return BodyFormat.NON_JSON
    except RecursionError:
        if _nesting(body) <= JSON_MAX_DEPTH:
            raise  # the caller left too little stack for JSON_MAX_DEPTH levels
    return BodyFormat.JSON if _nesting(body) <= JSON_MAX_DEPTH else BodyFormat.NON_JSON


# What redirect_url strips from both ends of a Location: the C0 controls and
# space, as WHATWG URL parsing does, and the two other Latin-1 characters
# str.strip() removes (http.client decodes header values as Latin-1).  Stated
# here, not left to urlsplit, whose stripping differs between Python releases.
_LOCATION_PADDING = _URL_PADDING + "\x85\xa0"


class ProbeResult(Record):
    """One HTTP exchange. Exactly one of status / transport_error is set.

    It holds only what the probe can record: a status from 100 to 999 (as
    ``http.client`` accepts) or a reason string, a timestamp with a UTC
    offset, and headers with lowercase names and string values.  The scheme
    comes from ``url`` and the body format from ``body_sample`` and the
    first Content-Type header; neither is stored.
    """

    __slots__ = ("target", "url", "timestamp", "status", "headers", "body_sample", "transport_error")

    def __init__(
        self,
        target: ProbeTarget,
        url: str,
        timestamp: datetime,
        status: int | None,
        headers: tuple[tuple[str, str], ...],
        body_sample: bytes,
        transport_error: str | None = None,
    ) -> None:
        if (status is None) == (transport_error is None):
            raise ValueError("exactly one of status and transport_error must be set")
        if status is None:
            if not isinstance(transport_error, str):
                raise ValueError(f"transport_error {transport_error!r} is not a string")
        elif type(status) is not int or status not in range(100, 1000):
            raise ValueError(f"status {status!r} is not a number from 100 to 999")
        if timestamp.tzinfo is None:
            raise ValueError(f"timestamp {timestamp.isoformat()!r} has no UTC offset")
        for name, value in headers:
            if not (isinstance(name, str) and isinstance(value, str) and name == name.lower()):
                raise ValueError(f"header {[name, value]!r} is not a lowercase name and a string value")
        _set(self, "target", target)
        _set(self, "url", url)
        _set(self, "timestamp", timestamp)
        _set(self, "status", status)
        _set(self, "headers", headers)
        _set(self, "body_sample", body_sample)
        _set(self, "transport_error", transport_error)

    def header_values(self, name: str) -> tuple[str, ...]:
        name = name.lower()
        return tuple(v for n, v in self.headers if n == name)

    def first_header(self, name: str) -> str | None:
        values = self.header_values(name)
        return values[0] if values else None

    @property
    def ok(self) -> bool:
        return self.status is not None

    @property
    def scheme_used(self) -> Scheme:
        return Scheme(urlsplit(self.url).scheme)

    @property
    def body_format(self) -> BodyFormat:
        return classify_body(self.body_sample, self.first_header("content-type"))

    @property
    def redirect_location(self) -> str | None:
        """The Location value when this is a followable 3xx, else None."""
        location = self.first_header("location") if self.status in range(300, 400) else None
        return location if location and location.strip() else None

    @property
    def redirect_url(self) -> str | None:
        """Where following this exchange leads: the one rule for a Location (RFC 9110 10.2.2).

        The Location stripped of ``_LOCATION_PADDING`` and resolved against
        ``url``; None when there is no followable Location, or when the
        result is not a URL the probe may request (``request_url_problem``).
        """
        location = self.redirect_location
        if location is None:
            return None
        try:
            url = urljoin(self.url, location.strip(_LOCATION_PADDING))
        except ValueError:
            return None
        return None if request_url_problem(url) else url


class RedirectChain(Record):
    """Every exchange of one probe in request order; never empty.

    The first exchange requests the target's URL and each later one the
    ``redirect_url`` of the one before, as ``probe_and_follow`` does; this is
    checked.  The last exchange is a redirect too when following stopped at
    a loop, at ``probe.MAX_EXCHANGES``, or at a Location that does not parse
    or leads off the web.  Hops, loop and downgrades are derived from them.
    """

    __slots__ = ("exchanges",)

    def __init__(self, exchanges: tuple[ProbeResult, ...]) -> None:
        if not exchanges:
            raise ValueError("a redirect chain has at least one exchange")
        first = exchanges[0]
        if any(e.target != first.target for e in exchanges):
            raise ValueError("every exchange of a chain probes the same target")
        if first.url != first.target.url:
            raise ValueError("the first exchange of a chain requests the target's URL")
        for a, b in zip(exchanges, exchanges[1:]):
            if b.url != a.redirect_url:
                raise ValueError(f"{b.url!r} is not where the Location of {a.url!r} leads")
        _set(self, "exchanges", exchanges)

    @property
    def result(self) -> ProbeResult:
        return self.exchanges[0]

    @property
    def terminal(self) -> ProbeResult:
        return self.exchanges[-1]

    @property
    def hops(self) -> tuple[ProbeResult, ...]:
        """The exchanges that answered with a followable redirect."""
        return tuple(e for e in self.exchanges if e.redirect_location is not None)

    @property
    def chain_length(self) -> int:
        return len(self.hops)

    @property
    def loop_detected(self) -> bool:
        """The last exchange redirects and its URL was requested before."""
        last = self.terminal
        return last.redirect_location is not None and last.url in self.requested_urls()[:-1]

    @property
    def next_url(self) -> str | None:
        """The URL following this chain requests next: None once it loops, else ``terminal.redirect_url``."""
        return None if self.loop_detected else self.terminal.redirect_url

    @property
    def downgrade_hops(self) -> int:
        """How many https requests were followed by an http one."""
        schemes = [e.scheme_used for e in self.exchanges]
        return sum(a is Scheme.HTTPS and b is Scheme.HTTP for a, b in zip(schemes, schemes[1:]))

    def requested_urls(self) -> tuple[str, ...]:
        """Every URL an exchange was issued to, in order."""
        return tuple(e.url for e in self.exchanges)


# --- smells ---------------------------------------------------------------

VERSION_HEADER_KEYS = ("engine", "server", "x-aspnet-version", "x-powered-by")


class SmellKind(str, Enum):
    INSECURE_TRANSPORT = "insecure_transport"
    SOURCE_CODE_DISCLOSURE = "source_code_disclosure"
    VERSION_DISCLOSURE = "version_disclosure"
    LACK_OF_ACCESS_CONTROL = "lack_of_access_control"
    MISSING_HTTPS_REDIRECT = "missing_https_redirect"
    MISSING_HSTS = "missing_hsts"


class Locus(str, Enum):
    URL = "url"
    HEADER = "header"
    BODY = "body"
    CHAIN = "chain"


class LeakCategory(str, Enum):
    OS = "os"
    SERVICE = "service"
    VERSION = "version"


FRAMEWORK_SUBFLAGS = frozenset({"asp", "cherrypy", "java", "nodejs", "php", "unknown_framework"})

SUBFLAG_VOCABULARY: dict[SmellKind, frozenset[str]] = {
    SmellKind.INSECURE_TRANSPORT: frozenset(),
    SmellKind.SOURCE_CODE_DISCLOSURE: FRAMEWORK_SUBFLAGS,
    SmellKind.VERSION_DISCLOSURE: frozenset({*VERSION_HEADER_KEYS, "body_banner"}),
    SmellKind.LACK_OF_ACCESS_CONTROL: frozenset(),
    SmellKind.MISSING_HTTPS_REDIRECT: frozenset({"downgrade", "loop", "excessive_chain"}),
    SmellKind.MISSING_HSTS: frozenset(
        {"absent", "short_max_age", "missing_include_subdomains", "missing_preload"}
    ),
}


class SmellFinding(Record):
    __slots__ = ("kind", "evidence", "subflags")

    def __init__(
        self,
        kind: SmellKind,
        evidence: tuple[tuple[Locus, str], ...],
        subflags: frozenset[str] = frozenset(),
    ) -> None:
        if not evidence:
            raise ValueError("finding needs at least one piece of evidence")
        for _, excerpt in evidence:
            if not isinstance(excerpt, str):
                raise ValueError(f"evidence excerpt {excerpt!r} is not a string")
        allowed = SUBFLAG_VOCABULARY[kind]
        stray = subflags - allowed
        if stray:
            raise ValueError(f"subflags {sorted(stray)} not in {kind.value} vocabulary")
        _set(self, "kind", kind)
        _set(self, "evidence", evidence)
        _set(self, "subflags", subflags)


class LeakRecord(Record):
    """One leaked product, OS or version; ``locus`` is a header name, or "body"."""

    __slots__ = ("category", "software", "version", "locus")

    def __init__(self, category: LeakCategory, software: str, version: str | None, locus: str) -> None:
        for name, value in (("software", software), ("locus", locus)):
            if not (isinstance(value, str) and value):
                raise ValueError(f"{name} {value!r} is not a non-empty string")
        if not (version is None or isinstance(version, str)):
            raise ValueError(f"version {version!r} is not a string or None")
        if category is LeakCategory.VERSION and not version:
            raise ValueError("version leak records must carry a version")
        _set(self, "category", category)
        _set(self, "software", software)
        _set(self, "version", version)
        _set(self, "locus", locus)


class SmellReport(Record):
    """Per-URL detection outcome: the findings plus every extracted leak."""

    __slots__ = ("findings", "leaks")

    def __init__(self, findings: tuple[SmellFinding, ...], leaks: tuple[LeakRecord, ...]) -> None:
        _set(self, "findings", findings)
        _set(self, "leaks", leaks)

    def kinds(self) -> frozenset[SmellKind]:
        return frozenset(f.kind for f in self.findings)
