"""The loopback fixture library the tests probe.

Positive and negative profiles for every smell, and for every maintenance
scenario and unclassifiable reason a profile plus the step applied to its
endpoint between the two scans.  Header values and string bodies may use
the harness placeholders {base}, {http_base} and {https_base}.
"""

from __future__ import annotations

from typing import NamedTuple

from smellprobe.harness import FixtureProfile, RouteSpec


class SmellCase(NamedTuple):
    profile: str
    path: str = "/"
    scheme: str | None = None


class Step(NamedTuple):
    """What happens to an endpoint between the two scans.

    'swap' serves ``routes`` from then on, 'start' brings an initially-down
    endpoint up serving ``routes``, 'shutdown' closes its listeners, and
    'drop' leaves its URL out of the second scan.
    """

    action: str
    routes: dict[str, RouteSpec] | None = None


STRONG_HSTS = ("Strict-Transport-Security", "max-age=63072000; includeSubDomains; preload")


def _redirect(location: str) -> RouteSpec:
    return RouteSpec(status=302, headers=(("Location", location),), body="")


def _banner(server: str, body: str = "v1") -> dict[str, RouteSpec]:
    """A root route that answers 200 with one Server header."""
    return {"/": RouteSpec(headers=(("Server", server),), body=body)}


_PROFILES = (
    FixtureProfile(
        name="http_plain_ok",
        routes={
            "/": RouteSpec(
                headers=(("Content-Type", "text/html"),),
                body="<html><body>hello world</body></html>",
            )
        },
    ),
    FixtureProfile(
        name="http_nginx_banner",
        routes={
            "/": RouteSpec(
                headers=(("Server", "nginx/1.14.1 (Ubuntu)"), ("Content-Type", "text/html")),
                body="<html><body>index</body></html>",
            )
        },
    ),
    FixtureProfile(
        name="http_aspnet_version",
        routes={
            "/": RouteSpec(
                headers=(
                    ("Server", "Microsoft-IIS/10.0"),
                    ("X-AspNet-Version", "4.0.30319"),
                    ("X-Powered-By", "ASP.NET"),
                    ("Content-Type", "text/html"),
                ),
                body="<html><body>welcome</body></html>",
            )
        },
    ),
    FixtureProfile(
        name="https_engine_header",
        schemes=("https",),
        routes={
            "/": RouteSpec(
                headers=(
                    ("engine", "v8/8.4.371"),
                    ("Content-Type", "application/json"),
                    STRONG_HSTS,
                ),
                body='{"status":"up"}',
            )
        },
    ),
    FixtureProfile(
        name="https_php_powered",
        schemes=("https",),
        routes={
            "/": RouteSpec(
                headers=(
                    ("X-Powered-By", "PHP/5.5.23"),
                    ("Content-Type", "text/html"),
                    STRONG_HSTS,
                ),
                body="<html><body>welcome</body></html>",
            )
        },
    ),
    FixtureProfile(
        name="https_body_banner_apache",
        schemes=("https",),
        routes={
            "/": RouteSpec(
                status=404,
                headers=(("Content-Type", "text/html; charset=iso-8859-1"), STRONG_HSTS),
                body=(
                    '<!DOCTYPE HTML PUBLIC "-//IETF//DTD HTML 2.0//EN">\n'
                    "<html><head>\n"
                    "<title>404 Not Found</title>\n"
                    "</head><body>\n"
                    "<h1>Not Found</h1>\n"
                    "<p>The requested URL was not found on this server.</p>\n"
                    "<hr>\n"
                    "<address>Apache/2.4.41 (Ubuntu) Server at api.example.com Port 443</address>\n"
                    "</body></html>\n"
                ),
            )
        },
    ),
    FixtureProfile(
        name="http_asp_error",
        routes={
            "/": RouteSpec(
                status=500,
                headers=(("Content-Type", "text/html; charset=utf-8"),),
                body=(
                    "<html><head><title>Runtime Error</title></head>\n"
                    '<body bgcolor="white">\n'
                    "<span><H1>Server Error in '/' Application."
                    "<hr width=100% size=1 color=silver></H1>\n"
                    "<h2><i>Runtime Error</i></h2></span>\n"
                    "<b>Description:</b> An unhandled exception occurred during the execution"
                    " of the current web request.\n"
                    "<br><br>\n"
                    "<b>Stack Trace:</b><br><br>\n"
                    '<table width=100% bgcolor="#ffffcc">\n'
                    "<tr><td><code><pre>\n"
                    "[HttpException (0x80004005): boom]\n"
                    "   System.Web.HttpRuntime.ProcessRequestInternal(HttpWorkerRequest wr) +148\n"
                    "</pre></code></td></tr>\n"
                    "</table>\n"
                    "</body></html>"
                ),
            )
        },
    ),
    FixtureProfile(
        name="https_cherrypy_error",
        schemes=("https",),
        routes={
            "/": RouteSpec(
                status=500,
                headers=(("Content-Type", "text/html;charset=utf-8"), STRONG_HSTS),
                body=(
                    "<html><body>\n"
                    "<h2>500 Internal Server Error</h2>\n"
                    "<p>The server encountered an unexpected condition which prevented it"
                    " from fulfilling the request.</p>\n"
                    '<pre id="traceback">Traceback (most recent call last):\n'
                    '  File "/usr/lib/python3/dist-packages/cherrypy/_cprequest.py", line 670,'
                    " in respond\n"
                    "    response.body = self.handler()\n"
                    "ValueError: boom\n"
                    "</pre>\n"
                    '<div id="powered_by">\n'
                    '<span>Powered by <a href="http://www.cherrypy.org">'
                    "CherryPy 18.6.0</a></span>\n"
                    "</div>\n"
                    "</body></html>"
                ),
            )
        },
    ),
    FixtureProfile(
        name="http_php_error",
        routes={
            "/": RouteSpec(
                status=500,
                headers=(("Content-Type", "text/html; charset=UTF-8"),),
                body=(
                    "<br />\n"
                    "<b>Fatal error</b>:  Uncaught Error: Call to undefined function render()"
                    " in /var/www/html/api/index.php on line 42\n"
                    "Stack trace:\n"
                    "#0 /var/www/html/api/index.php(10): handle()\n"
                    "#1 {main}\n"
                    "  thrown in <b>/var/www/html/api/index.php</b> on line <b>42</b><br />"
                ),
            )
        },
    ),
    FixtureProfile(
        name="http_java_error",
        routes={
            "/": RouteSpec(
                status=500,
                headers=(("Content-Type", "text/html;charset=ISO-8859-1"),),
                body=(
                    "<html><head><title>HTTP Status 500</title></head><body>"
                    "<h1>HTTP Status 500 - Internal Server Error</h1>\n"
                    "<p><b>exception</b></p><pre>javax.servlet.ServletException:"
                    " java.lang.NullPointerException\n"
                    "\tat com.example.api.RequestHandler.process(RequestHandler.java:87)\n"
                    "\tat org.apache.catalina.core.ApplicationFilterChain.internalDoFilter"
                    "(ApplicationFilterChain.java:231)\n"
                    '</pre><hr class="line" /></body></html>'
                ),
            )
        },
    ),
    FixtureProfile(
        name="http_nodejs_error",
        routes={
            "/": RouteSpec(
                status=500,
                headers=(("Content-Type", "text/plain"),),
                body=(
                    "Error: Cannot find module 'config'\n"
                    "    at Function.Module._resolveFilename (module.js:536:15)\n"
                    "    at Object.<anonymous>"
                    " (/srv/app/node_modules/express/lib/router/index.js:47:12)\n"
                    "    at Module._compile (module.js:653:30)"
                ),
            )
        },
    ),
    FixtureProfile(
        name="http_generic_traceback",
        routes={
            "/": RouteSpec(
                status=500,
                headers=(("Content-Type", "text/plain"),),
                body=(
                    "Traceback (most recent call last):\n"
                    '  File "/srv/app/main.py", line 31, in dispatch\n'
                    "    return routes[name]()\n"
                    "KeyError: 'orders'\n"
                ),
            )
        },
    ),
    FixtureProfile(
        name="https_hardened",
        schemes=("https",),
        routes={
            "/": RouteSpec(
                status=401,
                headers=(
                    ("Content-Type", "application/json"),
                    ("WWW-Authenticate", 'Bearer realm="api"'),
                    STRONG_HSTS,
                ),
                body='{"message":"authentication required"}',
            )
        },
    ),
    FixtureProfile(
        name="https_401_basic",
        schemes=("https",),
        routes={
            "/": RouteSpec(
                status=401,
                headers=(
                    ("WWW-Authenticate", 'Basic realm="restricted"'),
                    ("Content-Type", "text/plain"),
                    STRONG_HSTS,
                ),
                body="authorization required",
            )
        },
    ),
    FixtureProfile(
        name="http_403",
        routes={
            "/": RouteSpec(status=403, headers=(("Content-Type", "text/plain"),), body="forbidden")
        },
    ),
    FixtureProfile(
        name="https_no_hsts",
        schemes=("https",),
        routes={
            "/": RouteSpec(headers=(("Content-Type", "application/json"),), body='{"items":[]}')
        },
    ),
    FixtureProfile(
        name="https_weak_hsts",
        schemes=("https",),
        routes={
            "/": RouteSpec(
                headers=(
                    ("Content-Type", "application/json"),
                    ("Strict-Transport-Security", "max-age=300"),
                ),
                body='{"ok":true}',
            )
        },
    ),
    FixtureProfile(
        name="https_no_preload",
        schemes=("https",),
        routes={
            "/": RouteSpec(
                headers=(
                    ("Content-Type", "text/plain"),
                    ("Strict-Transport-Security", "max-age=31536000; includeSubDomains"),
                ),
                body="ok",
            )
        },
    ),
    FixtureProfile(
        name="https_no_subdomains",
        schemes=("https",),
        routes={
            "/": RouteSpec(
                headers=(
                    ("Content-Type", "text/plain"),
                    ("Strict-Transport-Security", "max-age=31536000; preload"),
                ),
                body="ok",
            )
        },
    ),
    FixtureProfile(
        name="https_min_strong",
        schemes=("https",),
        routes={
            "/": RouteSpec(
                status=403,
                headers=(
                    ("Content-Type", "text/plain"),
                    ("Strict-Transport-Security", "max-age=31536000; includeSubDomains; preload"),
                ),
                body="forbidden",
            )
        },
    ),
    FixtureProfile(
        name="http_upgrade_redirect",
        schemes=("http", "https"),
        routes={
            "/": RouteSpec(
                status=301,
                headers=(("Location", "{https_base}/secure"), ("Content-Type", "text/html")),
                body="<html><body>moved</body></html>",
            ),
            "/secure": RouteSpec(
                headers=(("Content-Type", "text/html"), STRONG_HSTS),
                body="<html><body>secure home</body></html>",
            ),
        },
    ),
    FixtureProfile(
        name="https_downgrade",
        schemes=("https", "http"),
        routes={
            "/": RouteSpec(
                status=302,
                headers=(("Location", "{http_base}/legacy"), ("Content-Type", "text/html")),
                body="<html><body>found</body></html>",
            ),
            "/legacy": RouteSpec(
                headers=(("Content-Type", "text/html"),),
                body="<html><body>legacy portal</body></html>",
            ),
        },
    ),
    FixtureProfile(
        name="http_redirect_loop",
        routes={"/a": _redirect("{base}/b"), "/b": _redirect("{base}/a")},
    ),
    FixtureProfile(
        name="https_redirect_loop",
        schemes=("https",),
        routes={"/": _redirect("{base}/")},
    ),
    FixtureProfile(
        name="http_six_hop_chain",
        routes={
            "/hop/1": _redirect("{base}/hop/2"),
            "/hop/2": _redirect("{base}/hop/3"),
            "/hop/3": _redirect("{base}/hop/4"),
            "/hop/4": _redirect("{base}/hop/5"),
            "/hop/5": _redirect("{base}/hop/6"),
            "/hop/6": _redirect("{base}/final"),
            "/final": RouteSpec(headers=(("Content-Type", "text/plain"),), body="done"),
        },
    ),
    FixtureProfile(name="m_no_update", routes=_banner("nginx/1.14.1")),
    FixtureProfile(name="m_version_downgrade", routes=_banner("nginx/1.14.1")),
    FixtureProfile(name="m_version_upgrade", routes=_banner("nginx/1.12.1")),
    FixtureProfile(name="m_leak_closed", routes=_banner("Apache/2.4.41")),
    FixtureProfile(name="m_environment_changed", routes=_banner("Apache/2.4.41")),
    FixtureProfile(name="m_cloudflare_enabled", routes=_banner("Apache/2.4.41")),
    FixtureProfile(
        name="m_server_spawned",
        routes={"/": RouteSpec(headers=(("Content-Type", "text/plain"),), body="anonymous")},
    ),
    FixtureProfile(name="m_server_shutdown", routes=_banner("nginx/1.14.1")),
    FixtureProfile(name="u_spawned_unknown_config", initially_down=True),
    FixtureProfile(name="u_shutdown_no_comparison", routes=_banner("Apache/2.4.41")),
    FixtureProfile(name="u_versioning_scheme_changed", routes=_banner("nginx/1.14.1")),
)

profiles = {p.name: p for p in _PROFILES}


def profile(name: str) -> FixtureProfile:
    return profiles[name]


# Keyed by profile name; identity pairs still take an explicit (identical) swap.
second_round = {
    "m_no_update": Step("swap", _banner("nginx/1.14.1")),
    "m_version_downgrade": Step("swap", _banner("nginx/1.12.1")),
    "m_version_upgrade": Step("swap", _banner("nginx/1.14.1")),
    "m_leak_closed": Step("swap", _banner("Apache")),
    "m_environment_changed": Step("swap", _banner("Microsoft-IIS/10.0")),
    "m_cloudflare_enabled": Step("swap", _banner("cloudflare")),
    "m_server_spawned": Step("swap", _banner("nginx/1.14.1", body="named")),
    "m_server_shutdown": Step("shutdown"),
    "u_spawned_unknown_config": Step("start", _banner("nginx/1.14.1", body="fresh")),
    "u_shutdown_no_comparison": Step("drop"),
    "u_versioning_scheme_changed": Step("swap", _banner("nginx/beta2", body="v2")),
}

smell_cases = {
    "insecure_transport": {
        "positive": (
            SmellCase("http_plain_ok"),
            SmellCase("http_nginx_banner"),
            SmellCase("http_asp_error"),
        ),
        "negative": (SmellCase("https_hardened"), SmellCase("https_no_hsts")),
    },
    "source_code_disclosure": {
        "positive": (
            SmellCase("http_asp_error"),
            SmellCase("https_cherrypy_error"),
            SmellCase("http_php_error"),
            SmellCase("http_java_error"),
            SmellCase("http_nodejs_error"),
            SmellCase("http_generic_traceback"),
        ),
        "negative": (
            SmellCase("http_plain_ok"),
            SmellCase("https_hardened"),
            SmellCase("https_body_banner_apache"),
        ),
    },
    "version_disclosure": {
        "positive": (
            SmellCase("http_nginx_banner"),
            SmellCase("https_php_powered"),
            SmellCase("http_aspnet_version"),
            SmellCase("https_engine_header"),
            SmellCase("https_body_banner_apache"),
        ),
        "negative": (SmellCase("http_plain_ok"), SmellCase("https_hardened")),
    },
    "lack_of_access_control": {
        "positive": (
            SmellCase("http_plain_ok"),
            SmellCase("https_weak_hsts"),
            SmellCase("https_php_powered"),
        ),
        "negative": (
            SmellCase("https_hardened"),
            SmellCase("http_403"),
            SmellCase("https_401_basic"),
        ),
    },
    "missing_https_redirect": {
        "positive": (
            SmellCase("http_plain_ok"),
            SmellCase("http_redirect_loop", path="/a"),
            SmellCase("http_six_hop_chain", path="/hop/1"),
            SmellCase("https_downgrade", scheme="https"),
            SmellCase("https_redirect_loop"),
        ),
        "negative": (
            SmellCase("http_upgrade_redirect", scheme="http"),
            SmellCase("https_hardened"),
            SmellCase("https_no_hsts"),
        ),
    },
    "missing_hsts": {
        "positive": (
            SmellCase("https_no_hsts"),
            SmellCase("https_weak_hsts"),
            SmellCase("https_no_preload"),
            SmellCase("https_no_subdomains"),
        ),
        "negative": (SmellCase("https_hardened"), SmellCase("https_min_strong")),
    },
}

maintenance_cases = {
    "no_update": "m_no_update",
    "version_downgrade": "m_version_downgrade",
    "version_upgrade": "m_version_upgrade",
    "leak_closed": "m_leak_closed",
    "environment_changed": "m_environment_changed",
    "cloudflare_enabled": "m_cloudflare_enabled",
    "server_spawned": "m_server_spawned",
    "server_shutdown": "m_server_shutdown",
}

unclassifiable_cases = {
    "spawned_unknown_config": "u_spawned_unknown_config",
    "shutdown_no_comparison": "u_shutdown_no_comparison",
    "versioning_scheme_changed": "u_versioning_scheme_changed",
}
