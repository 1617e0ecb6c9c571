"""smellprobe: scan app-server URLs for security smells and diff maintenance.

Probes HTTP(S) endpoints, detects six response-level security smells,
persists scan snapshots, and classifies how server software changed
between two snapshots taken months apart.

Importing the package loads none of its modules: each name below loads
its home module on first use (PEP 562), so a command loads only the
modules it runs.
"""

from importlib import import_module

# Each public name and the module it lives in.
_HOMES = {
    **dict.fromkeys(
        ("LoadResult", "RejectedRow", "load_targets", "normalize_url", "write_rejects"),
        "corpus",
    ),
    **dict.fromkeys(
        (
            "MaintenanceRecord", "MaintenanceScenario", "UnclassifiableReason", "diff_entries",
            "diff_snapshots", "server_banner",
        ),
        "maintenance",
    ),
    **dict.fromkeys(
        (
            "BodyFormat", "DeclaredFormat", "LeakCategory", "LeakRecord", "Locus", "ProbeResult",
            "ProbeTarget", "RedirectChain", "Scheme", "SmellFinding", "SmellKind", "SmellReport",
            "SourceModel",
        ),
        "model",
    ),
    **dict.fromkeys(("ProbeConfig", "probe_all", "probe_and_follow", "probe_each"), "probe"),
    **dict.fromkeys(
        (
            "CorrelationMatrix", "GroupKey", "HstsStats", "LeakBreakdown", "PrevalenceTable",
            "correlate", "export", "group_key", "hsts_stats", "leak_breakdown", "pct_display",
            "prevalence", "tabulate",
        ),
        "reports",
    ),
    **dict.fromkeys(
        (
            "detect_all", "detect_insecure_transport", "detect_lack_of_access_control",
            "detect_missing_hsts", "detect_missing_https_redirect",
            "detect_source_code_disclosure", "detect_version_disclosure",
        ),
        "smells",
    ),
    **dict.fromkeys(
        (
            "Snapshot", "SnapshotEntry", "SnapshotIntegrityError", "SnapshotSpool",
            "iter_entries", "load", "save",
        ),
        "snapshot",
    ),
    **dict.fromkeys(("BannerParse", "SoftwareId", "compare_versions", "parse_banner"), "versions"),
}

__all__ = sorted(_HOMES)


def __getattr__(name: str):
    if name == "__version__":
        return import_module(".model", __name__).TOOL_VERSION
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOMES[name]}", __name__), name)
    globals()[name] = value
    return value

