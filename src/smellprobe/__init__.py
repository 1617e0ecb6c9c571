"""smellprobe: scan app-server URLs for security smells and diff maintenance.

Probes HTTP(S) endpoints, detects six response-level security smells,
persists scan snapshots, and classifies how server software changed
between two snapshots taken months apart.

Each name is imported from its home module, such as
``smellprobe.probe.ProbeConfig``; importing the package loads none of
them.  The version is written here alone.
"""

__version__ = "0.1.0"
