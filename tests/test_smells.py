import json
import re
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from smellprobe.model import (
    SUBFLAG_VOCABULARY,
    VERSION_HEADER_KEYS,
    LeakCategory,
    Locus,
    RedirectChain,
    SmellFinding,
    SmellKind,
)
from smellprobe import smells
from smellprobe.cli import EXIT_OK, EXIT_PARTIAL, run
from smellprobe.smells import (
    detect_all,
    detect_insecure_transport,
    detect_lack_of_access_control,
    detect_missing_hsts,
    detect_missing_https_redirect,
    detect_source_code_disclosure,
    detect_version_disclosure,
    _FrameworkPattern,
    _excerpt,
    _fold,
    _framework_patterns,
    _framework_table,
)
from smellprobe.probe import BODY_SAMPLE_LIMIT
from smellprobe.snapshot import load

from helpers import direct_chain, make_result, make_target, within_cpu_budget


def https_result(**kwargs):
    target = make_target(kwargs.pop("url", "https://api.example.com/v1"))
    return make_result(target, **kwargs)


def http_result(**kwargs):
    target = make_target(kwargs.pop("url", "http://api.example.com/v1"))
    return make_result(target, **kwargs)


class TestInsecureTransport:
    def test_http_url_fires(self):
        finding = detect_insecure_transport(make_target("http://api.example.com/v1"))
        assert finding is not None
        assert finding.evidence[0][0] is Locus.URL

    def test_https_url_clean(self):
        assert detect_insecure_transport(make_target("https://api.example.com/v1")) is None

    def test_scheme_compare_case_insensitive(self):
        # A target built outside load_targets may carry an unnormalized URL;
        # the detector itself must compare schemes case-insensitively.
        assert detect_insecure_transport(make_target("HTTP://X.COM")) is not None


def _spy_on_source_code(monkeypatch):
    """Record the marker of every pattern searched, and every body folded."""
    searched, folds = [], []
    search, fold = _FrameworkPattern.search, smells._fold

    def counting_search(pattern, text, folded):
        searched.append(pattern.marker)
        return search(pattern, text, folded)

    def counting_fold(text):
        folds.append(text)
        return fold(text)

    monkeypatch.setattr(_FrameworkPattern, "search", counting_search)
    monkeypatch.setattr(smells, "_fold", counting_fold)
    return searched, folds


class TestSourceCodeDisclosure:
    def test_asp_error_page(self):
        body = b"<h1>Server Error in '/' Application.</h1><b>Stack Trace:</b><pre>boom</pre>"
        finding = detect_source_code_disclosure(http_result(status=500, body=body))
        assert finding is not None
        assert finding.subflags == {"asp"}

    def test_cherrypy_traceback(self):
        body = (
            b"Traceback (most recent call last):\n"
            b'  File "/usr/lib/python3/cherrypy/_cprequest.py", line 670, in respond\n'
            b"ValueError: boom"
        )
        finding = detect_source_code_disclosure(http_result(status=500, body=body))
        assert finding is not None
        assert finding.subflags == {"cherrypy"}

    def test_top_ranked_hit_ends_the_walk(self, monkeypatch):
        searched, folds = _spy_on_source_code(monkeypatch)
        body = b"<h1>Server Error in '/' Application.</h1> Stack Trace: java.lang.NullPointerException"
        finding = detect_source_code_disclosure(http_result(status=500, body=body))
        top = _framework_table()[0]
        assert (top.framework, top.marker) == ("asp", "Server Error in '/' Application")
        assert finding.evidence == ((Locus.BODY, top.marker),)
        assert searched == [top.marker]
        assert folds == []

    def test_body_folded_once_for_case_insensitive_hit(self, monkeypatch):
        searched, folds = _spy_on_source_code(monkeypatch)
        body = b"worker died: UNHANDLED EXCEPTION in handler"
        finding = detect_source_code_disclosure(http_result(status=500, body=body))
        hit = _framework_table()[-1]
        assert (hit.specificity, hit.case_insensitive) == (1, True)
        assert finding.subflags == {hit.framework}
        assert finding.evidence == ((Locus.BODY, "UNHANDLED EXCEPTION"),)
        assert searched == [p.marker for p in _framework_table()]
        assert folds == [body.decode()]

    def test_empty_body_clean(self):
        assert detect_source_code_disclosure(http_result(status=500, body=b"")) is None

    def test_generic_traceback_attributed_unknown(self):
        body = b"Traceback (most recent call last):\n  File \"/srv/app.py\", line 2\nKeyError: 'x'"
        finding = detect_source_code_disclosure(http_result(status=500, body=body))
        assert finding is not None
        assert finding.subflags == {"unknown_framework"}

    def test_php_fatal_error(self):
        body = (
            b"Fatal error: Uncaught Error: oops in /var/www/index.php on line 3\n"
            b"Stack trace:\n#0 /var/www/index.php(9): run()"
        )
        finding = detect_source_code_disclosure(http_result(status=500, body=body))
        assert finding is not None
        assert finding.subflags == {"php"}

    def test_exactly_one_framework_subflag(self):
        bodies = [
            b"at Module._compile (module.js:653:30)",
            b"javax.servlet.ServletException: java.lang.NullPointerException",
            b"<h1>Server Error in '/' Application.</h1>",
        ]
        for body in bodies:
            finding = detect_source_code_disclosure(http_result(status=500, body=body))
            assert finding is not None
            assert len(finding.subflags) == 1
            assert finding.subflags <= SUBFLAG_VOCABULARY[SmellKind.SOURCE_CODE_DISCLOSURE]

    def test_plain_page_clean(self):
        finding = detect_source_code_disclosure(
            http_result(status=200, body=b"<html><body>All services nominal.</body></html>")
        )
        assert finding is None


# The markers of the linear-time kinds as the regexes they replaced.
_OLD_REGEXES = {
    "Warning: ": re.compile(r"Warning: .+ in .+\.php on line \d+"),
    "Fatal error: ": re.compile(r"Fatal error: .+ in .+\.php on line \d+"),
    "node_modules": re.compile(r"(?m)^\s*at .+\(.*node_modules.+\.js:\d+:\d+\)"),
    "at Object\\.<anonymous>": re.compile(r"(?m)^\s*at Object\.<anonymous>"),
    "at [\\w$.]+\\([\\w$]+\\.java:\\d+\\)": re.compile(r"(?m)^\s*at [\w$.]+\([\w$]+\.java:\d+\)"),
}


def _ungated(pattern, text):
    """What a table entry finds when its regex runs on every body, gate or not."""
    if pattern.kind == "literal":
        return pattern.marker if pattern.marker in text else None
    matcher = _OLD_REGEXES.get(pattern.marker) if pattern.kind != "regex" else pattern.matcher
    match = matcher.search(text)
    return match.group(0) if match else None


_RAW_TABLE = json.loads(
    resources.files("smellprobe.data").joinpath("framework_patterns.json").read_text(encoding="utf-8")
)["patterns"]
# Regex syntax Python 3.10 lacks: atomic groups and possessive quantifiers.
_PY311_SYNTAX = re.compile(r"\(\?>|(?<!\\)[*+?}]\+")

_GATES = [pattern.gate for pattern in _framework_table()]
# IGNORECASE takes U+017F for "s", U+212A for "k", and U+0130 and U+0131 for "i".
_GATE_ALPHABET = "".join(sorted({*"".join(_GATES), *"\u017f\u212a\u0130\u0131 \n\t0123456789"}))
_FRAGMENTS = sorted({
    *_GATES,
    "STACK", "Stack", "\u017ftack", "STAC\u212a", "Unhandled", "UNHANDLED", "unhandled",
    " trace", "TRACE", "trace", "stacktrace", "stack trace", " exception", " Exception",
    "Exception", "Error", " in ", ".php on line ", "#12 ", "(12):", "at ", "  at ", "(", ")",
    ".js:1:2", "Foo.java:42", "a$b.c", "/_cpwsgi.py", "\\_cpx.py", "Lang", "\n", " ", "\t",
    "7", "\u0663", "\u00b2",
})
# Short matches of every regex and php_error entry, in the case variants
# IGNORECASE accepts: a gate that one of them lacks is wrong.
_SHORT_MATCHES = [
    "cherrypy/_cpx.py", "cherrypy\\_cpx.py", "at $(_.java:0)", "java.lang.XError",
    "at x(node_modules/.js:1:2)", "at Object.<anonymous>", "#0 x.php(1):", "Uncaught Error.php",
    "Uncaught exception.php", "stacktrace", "Stack Trace", "\u017ftack trace", "STAC\u212a TRACE",
    "unhandled exception", "UNHANDLED EXCEPTION", "Unhandled except\u0131on",
    "Warning: x in y.php on line 1", "Fatal error: x in y.php on line 1",
]
_BODIES = st.lists(
    st.one_of(
        st.sampled_from(_FRAGMENTS),
        st.sampled_from(_SHORT_MATCHES).map(lambda match: "\n" + match),
        st.text(_GATE_ALPHABET, max_size=4),
    ),
    max_size=60,
).map("".join)

# Lines of PHP-error parts; at most 8 lines of 16 fragments of at most 13
# characters keep an input under 2 KB, where the cubic PHP regexes still
# finish quickly.  U+0663 is a digit that \d takes and U+00B2 one that it
# does not.
_PHP_LINES = st.lists(
    st.one_of(
        st.sampled_from(["Warning: ", "Fatal error: "]),
        st.just(" in "),
        st.just(".php on line "),
        st.sampled_from([".php", "in", "x", " ", "\r", "7", "42", "\u0663", "\u00b2"]),
    ),
    max_size=16,
).map("".join)
_PHP_BODIES = st.lists(_PHP_LINES, max_size=8).map("\n".join)

# Stack-frame lines of nodejs parts; at most 8 lines of 12 fragments keep an
# input under 2 KB, where the cubic regex still finishes quickly.  The
# whitespace includes characters \s takes besides the ASCII ones.
_NODE_LINES = st.tuples(
    st.sampled_from(["", " ", "  ", "\t", "\n", " \n ", "\r", "\x0b", "\xa0", "\u2028", "\u3000"]),
    st.sampled_from(["at ", "at ", "x at ", ""]),
    st.lists(
        st.sampled_from([
            "(", ")", "node_modules", ".js:", ".js", ":", "1", "23", "\u0663", "\u00b2", "x", "/", " ",
            "(node_modules/a.js:1:2)", "Object.<anonymous>", "at Object.<anonymous>", "at ",
            "a$b.c", "(Foo.java:42)", ".java:", "a.B(C.java:\u0663)",
        ]),
        max_size=12,
    ).map("".join),
).map("".join)
_NODE_BODIES = st.lists(_NODE_LINES, max_size=8).map("\n".join)

# Per table entry (by marker), bodies that repeat a near match: the gate
# with separators, partial matches, and runs of blank lines.  A new entry
# needs its own here.
_ADVERSARIAL_UNITS = {
    "Server Error in '/' Application": ["Server Error in '/' Applicatio\n"],
    "System.Web.HttpException": ["System.Web.HttpExceptio "],
    "ASP.NET is configured to show verbose error messages": ["ASP.NET is configured "],
    "An unhandled exception occurred during the execution of the current web request": [
        "An unhandled exception occurred "],
    "Stack Trace:": ["Stack Trace "],
    "cherrypy[/\\\\]_cp[a-z]+\\.py": ["cherrypy/_cpabc", "cherrypy" * 4 + "\n"],
    "cherrypy._cperror": ["cherrypy._cperro "],
    "Powered by CherryPy": ["Powered by Cherry "],
    "at [\\w$.]+\\([\\w$]+\\.java:\\d+\\)": [
        "  at a.b(C.java:1", " at " + "a." * 50 + "(", ".java:", "\n" * 65536 + ".java:",
        " \n" * 50 + "x at a.b(C.java:1)"],
    "java\\.lang\\.[A-Za-z]+(?:Exception|Error)": ["java.lang.Abc", "java.lang." + "a" * 60 + "\n"],
    "javax.servlet.ServletException": ["javax.servlet "],
    "org.apache.catalina": ["org.apache.catalin "],
    "node_modules": [
        "  at (node_modules", "at x(node_modules.js:1:", " at x(node_modules/a.js:1:2",
        "\n" * 65536 + "x (node_modules"],
    "at Module._compile": ["at Module._compil\n"],
    "Error: Cannot find module": ["Error: Cannot find modul "],
    "at Object\\.<anonymous>": [
        "\n" * 65536 + "x at Object.<anonymous>", " \n" * 50 + "x at Object.<anonymous>",
        "x\n at Object.<anonymou"],
    "Fatal error: ": ["Fatal error: x in ", "Fatal error: a in .php on line \n"],
    "(?m)^#\\d+ .+\\.php\\(\\d+\\):": ["#1 x.php(", "#12 " + "a.php(" * 8 + "\n"],
    "Uncaught (?:exception|Error).{0,120}\\.php": ["Uncaught Error ", "Uncaught exception" + "x" * 130],
    "Warning: ": ["Warning: x in ", "Warning: x in .php on line x"],
    "Traceback (most recent call last):": ["Traceback (most recent call last) "],
    "(?i)\\bstack ?trace\\b": ["stack trac", "STACK" * 10 + " "],
    "(?i)\\bunhandled exception\\b": ["unhandled exceptio ", "UNHANDLED" * 5 + "\n"],
}


class TestFrameworkTable:
    def test_table_lint(self):
        for entry in _RAW_TABLE:
            assert entry["kind"] in ("literal", "regex", "php_error", "frame", "node_frame"), entry
            if entry["kind"] not in ("literal", "regex"):
                assert entry["marker"] in _OLD_REGEXES, entry
            if entry["kind"] not in ("regex", "frame"):
                continue
            assert isinstance(entry.get("gate"), str) and entry["gate"], entry
            compiled = re.compile(entry["marker"])
            assert not _PY311_SYNTAX.search(entry["marker"]), entry
            if compiled.flags & re.IGNORECASE:
                assert entry["gate"] == _fold(entry["gate"]), entry
                assert "i" not in entry["gate"], entry

    @pytest.mark.parametrize("kind", ["regex", "frame"])
    def test_loader_rejects_ungated_regex(self, kind):
        table = {"patterns": [{"framework": "php", "kind": kind, "marker": "x+", "specificity": 1}]}
        with pytest.raises(ValueError, match="gate"):
            _framework_patterns(table)

    def test_folding_keeps_case_insensitive_gates_necessary(self):
        # Every character IGNORECASE takes for a gate letter folds to that letter.
        letters = sorted({c for p in _framework_table() if p.case_insensitive for c in p.gate})
        assert letters
        every_char = "".join(map(chr, range(0x110000)))
        for letter in letters:
            same = {m.group(0) for m in re.finditer("(?i)" + re.escape(letter), every_char)}
            assert {_fold(c) for c in same} == {letter}, sorted(same)

    @pytest.mark.parametrize("match", _SHORT_MATCHES)
    def test_gates_keep_short_matches(self, match):
        matched = [p for p in _framework_table() if p.kind != "literal" and _ungated(p, match)]
        assert matched
        for pattern in matched:
            assert pattern.search(match, _fold(match)) == _ungated(pattern, match), pattern.marker

    @settings(max_examples=400, deadline=None)
    @given(_BODIES)
    def test_gated_table_matches_ungated(self, text):
        folded = _fold(text)
        hits = []
        for pattern in _framework_table():
            expected = _ungated(pattern, text)
            assert pattern.search(text, folded) == expected, pattern.marker
            if expected is not None:
                hits.append((-pattern.specificity, pattern.order, pattern.framework, expected))
        finding = detect_source_code_disclosure(http_result(status=500, body=text.encode()))
        if not hits:
            assert finding is None
        else:
            _, _, framework, matched = min(hits)
            assert finding.subflags == {framework}
            assert finding.evidence == ((Locus.BODY, _excerpt(matched)),)

    @settings(max_examples=300, deadline=None)
    @given(_PHP_BODIES)
    @example("Warning: x in .php on line 7")
    @example("Warning:  in a.php on line 7")
    @example("Warning: a in b.php on line 7 in c.php on line 42x")
    @example("Warning: a in b.php on line x in c.php on line \u0663\u00b2")
    @example("Warning: a in b.php on line \nWarning: c in d.php on line 9")
    @example("Fatal error: a in b.php on line 7 Warning: c in d.php on line 8")
    def test_php_error_matches_old_regex(self, text):
        for pattern in _framework_table():
            if pattern.kind == "php_error":
                assert pattern.search(text, _fold(text)) == _ungated(pattern, text), pattern.marker

    @settings(max_examples=300, deadline=None)
    @given(_NODE_BODIES)
    @example("at x(node_modules/a.js:1:2)")
    @example("\n \n\t at x (y/node_modules/z.js:12:3) (node_modules/b.js:4:5)x")
    @example("  at (node_modules.js:1:2)")
    @example("at x(node_modules.js:1:2)")
    @example("at x(node_modules/.js:\u0663:\u00b2)")
    @example("x\n\n  at Object.<anonymous>")
    @example("\u2028 at Object.<anonymous>")
    @example("at \nat x(node_modules/a.js:1:2)")
    @example("x \n\n\t at a$b.c(Foo.java:42)")
    @example("see C.java:1 \n \n at a.B(C.java:2)\n at a.B(C.java:3)")
    @example("\n\n at Object.<anonymous> at Object.<anonymous>")
    def test_node_frames_match_old_regexes(self, text):
        for pattern in _framework_table():
            if pattern.kind in ("frame", "node_frame"):
                assert pattern.search(text, _fold(text)) == _ungated(pattern, text), pattern.marker

    @pytest.mark.parametrize(
        "entry, unit",
        [(entry, unit) for entry in _RAW_TABLE for unit in _ADVERSARIAL_UNITS[entry["marker"]]],
        ids=lambda value: repr(value)[:40] if isinstance(value, str) else value["marker"][:30],
    )
    def test_every_entry_linear_on_adversarial_body(self, entry, unit):
        pattern = next(p for p in _framework_table() if p.marker == entry["marker"])
        size = BODY_SAMPLE_LIMIT
        body = (unit * (size // len(unit) + 1))[:size]
        with within_cpu_budget(f"{entry['marker']!r} on {unit!r} repeated"):
            pattern.search(body, _fold(body))

    def test_every_entry_has_adversarial_bodies(self):
        assert {entry["marker"] for entry in _RAW_TABLE} == set(_ADVERSARIAL_UNITS)

    @pytest.mark.parametrize(
        "unit",
        ["Warning: x in ", "Fatal error: x in ", "Warning: x in .php on line x",
         "Fatal error: a in .php on line \n"],
    )
    def test_php_errors_linear_on_adversarial_body(self, unit):
        size = BODY_SAMPLE_LIMIT
        body = (unit * (size // len(unit) + 1))[:size].encode()
        with within_cpu_budget(f"{unit!r} repeated"):
            finding = detect_source_code_disclosure(http_result(status=500, body=body))
        assert finding is None


_RAW_BANNERS = json.loads(
    resources.files("smellprobe.data").joinpath("body_banners.json").read_text(encoding="utf-8")
)["banners"]
# The apache pattern before its adjacent quantifiers were made disjoint; it
# backtracks quadratically on a long digit run.
_OLD_BANNER_REGEXES = {
    "apache": re.compile(r"(Apache/[0-9][0-9.]*(?:[A-Za-z0-9-]*)?(?:\s+\([^)]{1,60}\))?)\s+Server at"),
}


def _banner_hit(match, banner):
    return match and (match.group(0), match.expand(banner.template))


_BANNER_BODIES = st.lists(
    st.sampled_from([
        "Apache/", "Apache/2.4.41", "1", "2.4", ".", "a", "Z", "-", "x", " ", "\n", "\t", "\u3000",
        "(Ubuntu)", "(", ")", " Server at", "Server at", "Powered by ", "Powered by <a", "<a",
        "<a href=x>", ">", "CherryPy", "CherryPy/1", "CherryPy 1.2", "<center>", "nginx",
        "openresty", "/1.2", "</center>", "Apache H3",
    ]),
    max_size=40,
).map("".join)

# Per banner, near matches that a long run of one character, or repeats of
# the near match and one character, follow.  A new banner needs its own.
_BANNER_PREFIXES = {
    "apache": ["Apache/1", "Apache/1 (", "Apache/1 (x) "],
    "nginx": ["<center>nginx/1"],
    "openresty": ["<center>openresty/1"],
    "cherrypy": ["Powered by ", "Powered by <a", "Powered by CherryPy/1"],
    "apache_h3": ["Apache H"],
}
# One character of each class the patterns use, and "" for repeats of the near match alone.
_RUN_CHARS = ["", "1", ".", "a", "-", "/", " ", "\n", "(", ")", "<", ">"]


def _run_bodies(prefix, char, size=BODY_SAMPLE_LIMIT):
    if not char:
        return [(prefix * (size // len(prefix) + 1))[:size]]
    unit = prefix + char
    return [prefix + char * (size - len(prefix)), (unit * (size // len(unit) + 1))[:size]]


class TestBodyBannerTable:
    def test_table_lint(self):
        assert {entry["label"] for entry in _RAW_BANNERS} == set(_BANNER_PREFIXES)
        for entry in _RAW_BANNERS:
            assert not _PY311_SYNTAX.search(entry["pattern"]), entry
            prefix, tag, _ = entry["pattern"].partition(smells._ANCHOR_TAG)
            if tag:  # the prefix is searched for as a literal
                assert prefix and not set(prefix) & set("\\.^$*+?{}[]|()"), entry

    @settings(max_examples=400, deadline=None)
    @given(_BANNER_BODIES)
    @example("Powered by <a x Powered by CherryPy/1 >junk")
    @example('Powered by <a title="Powered by <a">CherryPy/1 Powered by <a>CherryPy 2')
    @example("Powered by <aPowered by <a>CherryPy/3")
    @example("Apache/1.2a-3 (Ubuntu) Server at")
    @example("Apache/1.2.3x Server at Apache/2 Server at")
    @example("Apache/2.4a.1 Server at")
    def test_search_matches_reference_regex(self, text):
        for banner in smells._body_banner_table():
            reference = _OLD_BANNER_REGEXES.get(banner.label, banner.matcher)
            found = smells._banner_search(banner.matcher, text)
            assert _banner_hit(found, banner) == _banner_hit(
                reference.search(text), banner
            ), banner.label

    @pytest.mark.parametrize("char", _RUN_CHARS, ids=repr)
    @pytest.mark.parametrize(
        "label, prefix",
        [(label, prefix) for label, prefixes in _BANNER_PREFIXES.items() for prefix in prefixes],
    )
    def test_every_banner_linear_on_long_runs(self, label, prefix, char):
        banner = next(b for b in smells._body_banner_table() if b.label == label)
        for body in _run_bodies(prefix, char):
            with within_cpu_budget(repr(body[:40])):
                smells._body_banner_hits(body)

    def test_digit_run_past_int_limit_in_body_banner(self):
        body = b"<address>Apache/" + b"9" * 5000 + b" (Ubuntu) Server at x</address>"
        with within_cpu_budget("Apache/ then 5,000 nines in a body"):
            finding, leaks = detect_version_disclosure(http_result(body=body))
        assert finding.subflags == {"body_banner"}
        assert {(l.category, l.software, l.version) for l in leaks} == {
            (LeakCategory.SERVICE, "Apache", None), (LeakCategory.OS, "Ubuntu", None),
        }


# Near matches of every framework entry, body banner and header parser, each
# followed by a long run of one character (or repeated with it) in a
# hostile response.  A new pattern needs its near matches here.
_HOSTILE_PREFIXES = sorted({
    *(unit for units in _ADVERSARIAL_UNITS.values() for unit in units),
    *(prefix for prefixes in _BANNER_PREFIXES.values() for prefix in prefixes),
    "nginx/1", "Apache/2.4 (", "PHP/5.", "Microsoft-IIS/1", "ASP.NET", "x (x ",
    "max-age=", "max-age=1; ", "includeSubDomains", "https://h.example", "http://[", "/", "?",
})
_HOSTILE_CHARS = [*_RUN_CHARS[1:], "9", "%", "[", "]", ";", "=", ":", "\t", '"', "\u3000"]
_HOSTILE_HEADER_NAMES = [*VERSION_HEADER_KEYS, "location", "strict-transport-security"]


def _hostile_text(prefix, char, size, repeat):
    """``prefix`` then ``size`` of ``char``, or ``prefix + char`` repeated to that size."""
    unit = prefix + char
    return (unit * (size // len(unit) + 1))[: len(prefix) + size] if repeat else prefix + char * size


def _hostile_texts(max_size):
    return st.builds(_hostile_text, st.sampled_from(_HOSTILE_PREFIXES), st.sampled_from(_HOSTILE_CHARS),
                     st.integers(0, max_size), st.booleans())


# http.client takes header lines up to 64 KiB; a scan keeps BODY_SAMPLE_LIMIT bytes of a body.
_HOSTILE_RESPONSES = st.tuples(
    st.sampled_from(["http", "https"]),
    st.sampled_from([200, 301, 302, 401, 404, 500]),
    st.lists(st.tuples(st.sampled_from(_HOSTILE_HEADER_NAMES), _hostile_texts(60_000)), max_size=4),
    _hostile_texts(BODY_SAMPLE_LIMIT).map(lambda text: text.encode("utf-8", "surrogatepass")),
)


@settings(max_examples=300, deadline=None)
@given(_HOSTILE_RESPONSES)
@example(("http", 404, [("server", "Apache/1 (" + "(" * 60_000)], b"<address>Apache/1" + b"1" * 262_000))
@example(("http", 302, [("location", "http://[" + "1" * 60_000)], b"Powered by <a" + b"<" * 262_000))
@example(("https", 500, [("strict-transport-security", "max-age=" + "9" * 60_000)],
          b"Warning: x in " * 18_700))
def test_detect_all_total_and_within_budget_on_hostile_responses(response):
    scheme, status, headers, body = response
    target = make_target(f"{scheme}://h.example/")
    result = make_result(target, status=status, headers=tuple(headers), body=body)
    shown = [(name, value[:40]) for name, value in headers]
    with within_cpu_budget(f"{scheme} {status} {shown} {body[:40]!r} ({len(body)} bytes)"):
        detect_all(target, result, direct_chain(result))


class TestVersionDisclosure:
    def test_x_powered_by_php(self):
        finding, leaks = detect_version_disclosure(
            http_result(headers=(("X-Powered-By", "PHP/5.5.23"),))
        )
        assert finding is not None
        assert "x-powered-by" in finding.subflags
        got = {(l.category, l.software, l.version) for l in leaks}
        assert (LeakCategory.SERVICE, "PHP", None) in got
        assert (LeakCategory.VERSION, "PHP", "5.5.23") in got

    def test_name_only_banner(self):
        finding, leaks = detect_version_disclosure(http_result(headers=(("Server", "nginx"),)))
        assert finding is not None
        categories = [l.category for l in leaks]
        assert categories == [LeakCategory.SERVICE]

    def test_full_banner_with_os(self):
        finding, leaks = detect_version_disclosure(
            http_result(headers=(("Server", "Apache/2.4.41 (Ubuntu)"),))
        )
        assert finding is not None
        got = {(l.category, l.software, l.version) for l in leaks}
        assert got == {
            (LeakCategory.SERVICE, "Apache", None),
            (LeakCategory.VERSION, "Apache", "2.4.41"),
            (LeakCategory.OS, "Ubuntu", None),
        }

    def test_engine_header_counts(self):
        finding, _ = detect_version_disclosure(http_result(headers=(("engine", "v8/8.4"),)))
        assert finding is not None
        assert "engine" in finding.subflags

    def test_body_banner_without_headers(self):
        body = b"<address>Apache/2.4.41 (Ubuntu) Server at api.example.com Port 443</address>"
        finding, leaks = detect_version_disclosure(http_result(body=body))
        assert finding is not None
        assert finding.subflags == {"body_banner"}
        assert all(l.locus == "body" for l in leaks)
        assert (LeakCategory.VERSION, "Apache", "2.4.41") in {
            (l.category, l.software, l.version) for l in leaks
        }

    def test_token_with_nothing_before_its_slash_is_all_name(self):
        finding, leaks = detect_version_disclosure(http_result(headers=(("Server", "/1.2"),)))
        assert finding is not None
        assert [(l.category, l.software, l.version) for l in leaks] == [(LeakCategory.SERVICE, "/1.2", None)]

    def test_apache_h3_literal_marker(self):
        finding, leaks = detect_version_disclosure(http_result(body=b"... Apache H3 ..."))
        assert finding is not None
        assert [l.software for l in leaks] == ["Apache H3"]

    def test_clean_response(self):
        finding, leaks = detect_version_disclosure(
            http_result(headers=(("Content-Type", "text/html"),), body=b"<html>hi</html>")
        )
        assert finding is None
        assert leaks == []

    def test_version_leaks_require_finding(self):
        # no finding -> no leak records at all
        finding, leaks = detect_version_disclosure(http_result(body=b"plain"))
        assert finding is None and leaks == []

    def test_removing_headers_never_adds_finding(self):
        headers = (("Server", "nginx/1.14.1"), ("X-Powered-By", "PHP/7.4"), ("Content-Type", "a/b"))
        for drop in range(len(headers)):
            remaining = tuple(h for i, h in enumerate(headers) if i != drop)
            full, _ = detect_version_disclosure(http_result(headers=headers))
            reduced, _ = detect_version_disclosure(http_result(headers=remaining))
            if reduced is not None:
                assert full is not None
                assert reduced.subflags <= full.subflags


_HEADER_POOL = [
    ("server", "nginx/1.14.1 (Ubuntu)"),
    ("server", "cloudflare"),
    ("x-powered-by", "PHP/7.4"),
    ("x-aspnet-version", "4.0.30319"),
    ("engine", "v8/8.4"),
    ("content-type", "application/json"),
    ("cache-control", "no-store"),
    ("strict-transport-security", "max-age=300"),
    ("strict-transport-security", "max-age=31536000; includeSubDomains; preload"),
]


class TestMonotonicity:
    @given(st.lists(st.sampled_from(_HEADER_POOL), max_size=6), st.data())
    def test_dropping_a_header_never_adds_version_subflags(self, headers, data):
        full, _ = detect_version_disclosure(http_result(headers=tuple(headers)))
        if not headers:
            return
        drop = data.draw(st.integers(min_value=0, max_value=len(headers) - 1))
        remaining = tuple(h for i, h in enumerate(headers) if i != drop)
        reduced, _ = detect_version_disclosure(http_result(headers=remaining))
        full_flags = full.subflags if full else frozenset()
        reduced_flags = reduced.subflags if reduced else frozenset()
        assert reduced_flags <= full_flags

    @given(st.lists(st.sampled_from(_HEADER_POOL), max_size=6, unique_by=lambda h: h))
    def test_dropping_hsts_header_only_ever_adds_absent(self, headers):
        full = detect_missing_hsts(https_result(status=200, headers=tuple(headers)))
        without = tuple(h for h in headers if h[0] != "strict-transport-security")
        reduced = detect_missing_hsts(https_result(status=200, headers=without))
        full_flags = full.subflags if full else frozenset()
        reduced_flags = reduced.subflags if reduced else frozenset()
        assert reduced_flags - full_flags <= {"absent"}


class TestLackOfAccessControl:
    def test_200_fires(self):
        assert detect_lack_of_access_control(http_result(status=200)) is not None

    def test_401_clean(self):
        assert detect_lack_of_access_control(http_result(status=401)) is None

    def test_403_clean(self):
        assert detect_lack_of_access_control(http_result(status=403)) is None

    def test_5xx_and_3xx_clean(self):
        assert detect_lack_of_access_control(http_result(status=500)) is None
        assert detect_lack_of_access_control(http_result(status=302)) is None

    def test_transport_error_clean(self):
        assert detect_lack_of_access_control(http_result(error="timeout")) is None

    def test_www_authenticate_challenge_suppresses(self):
        result = http_result(status=200, headers=(("WWW-Authenticate", "Basic realm=\"x\""),))
        assert detect_lack_of_access_control(result) is None

    def test_json_auth_heuristic_off_by_default(self):
        result = http_result(
            status=200,
            headers=(("Content-Type", "application/json"),),
            body=b'{"error":"invalid_token"}',
        )
        finding = detect_lack_of_access_control(result)
        assert finding is not None
        assert finding.subflags == frozenset()


def chain_of(target, hops, terminal):
    """A chain of one redirect exchange per (url, status, location) hop, then the terminal."""
    redirects = [
        make_result(target, status=status, url=url, headers=(("Location", location),))
        for url, status, location in hops
    ]
    return RedirectChain((*redirects, terminal))


class TestMissingHttpsRedirect:
    def test_http_answered_directly_fires(self):
        target = make_target("http://h.example/")
        chain = direct_chain(make_result(target, status=200))
        finding = detect_missing_https_redirect(chain)
        assert finding is not None
        assert finding.subflags == frozenset()

    def test_http_upgraded_same_host_clean(self):
        target = make_target("http://h.example/")
        terminal = make_result(target, status=200, url="https://h.example/landing")
        chain = chain_of(target, [("http://h.example/", 301, "https://h.example/landing")], terminal)
        assert detect_missing_https_redirect(chain) is None

    def test_http_redirected_elsewhere_still_missing(self):
        target = make_target("http://h.example/")
        terminal = make_result(target, status=200, url="https://other.example/")
        chain = chain_of(target, [("http://h.example/", 301, "https://other.example/")], terminal)
        finding = detect_missing_https_redirect(chain)
        assert finding is not None

    def test_https_downgrade_fires_with_subflag(self):
        target = make_target("https://h.example/")
        terminal = make_result(target, status=200, url="http://h.example/plain")
        chain = chain_of(target, [("https://h.example/", 302, "http://h.example/plain")], terminal)
        finding = detect_missing_https_redirect(chain)
        assert finding is not None
        assert "downgrade" in finding.subflags

    def test_six_redirects_flagged_excessive(self):
        target = make_target("http://h.example/0")
        hops = [(f"http://h.example/{i}", 302, f"http://h.example/{i+1}") for i in range(6)]
        terminal = make_result(target, status=200, url="http://h.example/6")
        finding = detect_missing_https_redirect(chain_of(target, hops, terminal))
        assert finding is not None
        assert "excessive_chain" in finding.subflags

    def test_five_redirects_not_excessive(self):
        target = make_target("http://h.example/0")
        hops = [(f"http://h.example/{i}", 302, f"http://h.example/{i+1}") for i in range(5)]
        terminal = make_result(target, status=200, url="http://h.example/5")
        finding = detect_missing_https_redirect(chain_of(target, hops, terminal))
        assert finding is not None
        assert "excessive_chain" not in finding.subflags

    def test_loop_subflag(self):
        target = make_target("http://h.example/")
        hops = [
            ("http://h.example/", 302, "http://h.example/b"),
            ("http://h.example/b", 302, "http://h.example/"),
        ]
        terminal = make_result(
            target, status=302, url="http://h.example/", headers=(("Location", "http://h.example/b"),)
        )
        finding = detect_missing_https_redirect(chain_of(target, hops, terminal))
        assert finding is not None
        assert "loop" in finding.subflags

    def test_https_direct_answer_clean(self):
        target = make_target("https://h.example/")
        chain = direct_chain(make_result(target, status=200))
        assert detect_missing_https_redirect(chain) is None

    def test_unreachable_target_not_judged(self):
        target = make_target("http://h.example/")
        chain = direct_chain(make_result(target, error="connection refused"))
        assert detect_missing_https_redirect(chain) is None

    def test_unfollowed_padded_location_to_the_target_host_is_an_upgrade(self):
        """Cut after one exchange, as a snapshot of an older scan may hold it.

        Stripped, as the probe would request it, the Location is on h.example.
        """
        target = make_target("http://h.example/")
        cut = make_result(target, status=301, headers=(("Location", "https://h.example "),))
        assert detect_missing_https_redirect(direct_chain(cut)) is None

    def test_unfollowed_location_to_another_host_still_missing(self):
        target = make_target("http://h.example/")
        cut = make_result(target, status=301, headers=(("Location", " https://other.example/ "),))
        assert detect_missing_https_redirect(direct_chain(cut)) is not None

    def test_mid_chain_failure_still_judged(self):
        target = make_target("http://h.example/")
        terminal = make_result(target, error="timeout", url="http://h.example/next")
        chain = chain_of(target, [("http://h.example/", 302, "http://h.example/next")], terminal)
        finding = detect_missing_https_redirect(chain)
        assert finding is not None


class TestMissingHsts:
    def test_absent_header(self):
        finding = detect_missing_hsts(https_result(status=200))
        assert finding is not None
        assert finding.subflags == {"absent"}

    def test_missing_preload_only(self):
        finding = detect_missing_hsts(
            https_result(
                status=200,
                headers=(("Strict-Transport-Security", "max-age=31536000; includeSubDomains"),),
            )
        )
        assert finding is not None
        assert finding.subflags == {"missing_preload"}

    def test_short_max_age_all_three(self):
        finding = detect_missing_hsts(
            https_result(status=200, headers=(("Strict-Transport-Security", "max-age=300"),))
        )
        assert finding is not None
        assert finding.subflags == {"short_max_age", "missing_include_subdomains", "missing_preload"}

    def test_fully_strong_clean(self):
        finding = detect_missing_hsts(
            https_result(
                status=200,
                headers=(
                    ("Strict-Transport-Security", "max-age=63072000; includeSubDomains; preload"),
                ),
            )
        )
        assert finding is None

    def test_exact_threshold_not_short(self):
        finding = detect_missing_hsts(
            https_result(
                status=200,
                headers=(("Strict-Transport-Security", "max-age=31536000; preload"),),
            )
        )
        assert finding is not None
        assert finding.subflags == {"missing_include_subdomains"}

    def test_never_fires_over_http(self):
        assert detect_missing_hsts(http_result(status=200)) is None
        strong = http_result(
            status=200,
            headers=(("Strict-Transport-Security", "max-age=0"),),
        )
        assert detect_missing_hsts(strong) is None

    def test_transport_error_not_evaluated(self):
        assert detect_missing_hsts(https_result(error="timeout")) is None

    def test_directive_parsing_tolerates_case_and_whitespace(self):
        finding = detect_missing_hsts(
            https_result(
                status=200,
                headers=(
                    ("Strict-Transport-Security", "  MAX-AGE = 63072000 ;  IncludeSubDomains ; PRELOAD "),
                ),
            )
        )
        assert finding is None

    def test_first_max_age_wins_when_repeated(self):
        finding = detect_missing_hsts(
            https_result(
                status=200,
                headers=(
                    (
                        "Strict-Transport-Security",
                        "max-age=300; max-age=63072000; includeSubDomains; preload",
                    ),
                ),
            )
        )
        assert finding is not None
        assert "short_max_age" in finding.subflags

    def test_unparseable_max_age_treated_short(self):
        finding = detect_missing_hsts(
            https_result(
                status=200,
                headers=(("Strict-Transport-Security", "max-age=never; includeSubDomains; preload"),),
            )
        )
        assert finding is not None
        assert "short_max_age" in finding.subflags


class TestDetectAll:
    def test_http_banner_200_composition(self):
        target = make_target("http://api.example.com/")
        result = make_result(target, status=200, headers=(("Server", "nginx/1.14.1"),))
        report = detect_all(target, result, direct_chain(result))
        assert report.kinds() == {
            SmellKind.INSECURE_TRANSPORT,
            SmellKind.VERSION_DISCLOSURE,
            SmellKind.LACK_OF_ACCESS_CONTROL,
            SmellKind.MISSING_HTTPS_REDIRECT,
        }

    def test_hardened_https_empty(self):
        target = make_target("https://api.example.com/")
        result = make_result(
            target,
            status=401,
            headers=(
                ("WWW-Authenticate", "Bearer"),
                ("Strict-Transport-Security", "max-age=63072000; includeSubDomains; preload"),
            ),
        )
        report = detect_all(target, result, direct_chain(result))
        assert report.findings == ()
        assert report.leaks == ()

    def test_detectors_are_pure(self):
        target = make_target("http://api.example.com/")
        result = make_result(target, status=200, headers=(("Server", "nginx/1.14.1"),))
        chain = direct_chain(result)
        assert detect_all(target, result, chain) == detect_all(target, result, chain)

    def test_findings_follow_fixed_detector_order(self):
        target = make_target("http://api.example.com/")
        result = make_result(target, status=200, headers=(("Server", "nginx/1.14.1"),))
        report = detect_all(target, result, direct_chain(result))
        order = [f.kind for f in report.findings]
        expected = [k for k in SmellKind if k in report.kinds()]
        assert order == expected

    def test_version_leaks_only_with_finding(self):
        target = make_target("http://api.example.com/")
        result = make_result(target, status=200)
        report = detect_all(target, result, direct_chain(result))
        has_version_finding = SmellKind.VERSION_DISCLOSURE in report.kinds()
        version_leaks = [l for l in report.leaks if l.category is LeakCategory.VERSION]
        if version_leaks:
            assert has_version_finding
        assert report.leaks == ()


class TestFindingValidation:
    def test_evidence_required(self):
        with pytest.raises(ValueError):
            SmellFinding(kind=SmellKind.INSECURE_TRANSPORT, evidence=())

    def test_subflag_vocabulary_closed(self):
        with pytest.raises(ValueError):
            SmellFinding(
                kind=SmellKind.MISSING_HSTS,
                evidence=((Locus.HEADER, "x"),),
                subflags=frozenset({"bogus"}),
            )

    def test_evidence_excerpt_capped(self):
        body = b"Traceback (most recent call last):" + b"x" * 500
        finding = detect_source_code_disclosure(http_result(status=500, body=body))
        assert finding is not None
        for _, excerpt in finding.evidence:
            assert len(excerpt) <= 200


# --- re-detection: a stored report is a function of the stored evidence ------------

DATA = Path(__file__).parent / "data"


def redetected_and_stored(path) -> tuple[dict, dict]:
    """Each entry's report detected again from its stored chain, and as stored."""
    entries = load(path).entries
    assert entries
    redetected = {url: detect_all(e.result.target, e.result, e.chain) for url, e in entries.items()}
    return redetected, {url: e.report for url, e in entries.items()}


@pytest.mark.parametrize("name", ["round1", "round2"])
@pytest.mark.parametrize("schema", [1, 2, 3, 4])
def test_checked_in_snapshot_redetects_to_its_stored_reports(schema, name):
    redetected, stored = redetected_and_stored(DATA / f"schema{schema}" / f"{name}.smellsnap.jsonl")
    assert redetected == stored


def test_fresh_loopback_scan_redetects_to_its_stored_reports(tmp_path, endpoints, library):
    spawned = [endpoints(profile) for profile in library.profiles.values()]
    corpus = tmp_path / "library.csv"
    rows = [f"{ep.url('/')},app-{i},open_source," for i, ep in enumerate(spawned)]
    corpus.write_text("\n".join(["url,app_id,source_model,declared_format", *rows]) + "\n",
                      encoding="utf-8")
    bundle = next(ep.ca_file for ep in spawned if ep.ca_file)
    out = tmp_path / "library.smellsnap.jsonl"
    code = run(["scan", "--corpus", str(corpus), "--out", str(out), "--ca-bundle", bundle,
                "--connect-timeout", "3", "--read-timeout", "3", "--retries", "0"])
    assert code in (EXIT_OK, EXIT_PARTIAL)
    redetected, stored = redetected_and_stored(out)
    assert len(stored) == len(spawned)
    assert redetected == stored
