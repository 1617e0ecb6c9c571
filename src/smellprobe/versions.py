"""Banner parsing and dotted-numeric version ordering.

A banner is a product listing such as ``nginx/1.14.1 (Ubuntu)`` or
``Apache/2.4.41 (Ubuntu) OpenSSL/1.1.1``: whitespace-separated product
tokens of the form ``name[/version]``, optionally interleaved with
parenthesized annotations.  The first annotation matching the OS dictionary
is classified as an operating-system leak.
"""

from __future__ import annotations

import re

from .data import load_table
from .model import Record, _set

# Leading dotted-numeric run of a version string; anything after the first
# character outside [0-9.] is kept only in `raw` and ignored for ordering.
# The run also stops before a segment of more than 640 digits: int() refuses
# longer digit strings when int_max_str_digits is at its lowest allowed value.
_NUMERIC_PREFIX = re.compile(r"^([0-9]{1,640}(?:\.[0-9]{1,640})*)(?![0-9])")

_PAREN = re.compile(r"\(([^)]*)\)")


# lowercase key -> display name
OS_DICTIONARY = {k.lower(): v for k, v in load_table("os_dictionary.json")["names"].items()}
SERVICE_DICTIONARY = {k.lower(): v for k, v in load_table("service_names.json")["names"].items()}


class SoftwareId(Record):
    """One product token, such as ``nginx/1.14.1``; every other view derives from it.

    The name is the text before the first ``/`` and the version text is the
    rest.  A token with no ``/``, or with nothing before it, is all name.
    """

    __slots__ = ("raw",)

    def __init__(self, raw: str) -> None:
        if not raw:
            raise ValueError("a product token must be non-empty")
        _set(self, "raw", raw)

    def _split(self) -> tuple[str, str | None]:
        name, slash, version_text = self.raw.partition("/")
        return (name, version_text) if name and slash else (self.raw, None)

    @property
    def display_name(self) -> str:
        """Name with the casing it appeared with on the wire."""
        return self._split()[0]

    @property
    def name(self) -> str:
        """Lowercase name, the one maintenance compares."""
        return self.display_name.lower()

    @property
    def version_text(self) -> str | None:
        """Raw text after the name separator, None when the token had none."""
        return self._split()[1]

    @property
    def version(self) -> tuple[int, ...] | None:
        """Numeric segments of the version text, None without a numeric prefix."""
        text = self.version_text
        return None if text is None else parse_version(text)

    @property
    def version_string(self) -> str | None:
        """Dotted-numeric form of the parsed segments."""
        version = self.version
        return None if version is None else ".".join(map(str, version))


class BannerParse(Record):
    """Everything extracted from one banner string."""

    __slots__ = ("software", "os")

    def __init__(self, software: tuple[SoftwareId, ...] = (), os: str | None = None) -> None:
        _set(self, "software", software)
        _set(self, "os", os)


def parse_version(text: str) -> tuple[int, ...] | None:
    """Numeric segments of a version string, None if it has no numeric prefix."""
    match = _NUMERIC_PREFIX.match(text.strip())
    if not match:
        return None
    return tuple(int(part) for part in match.group(1).split("."))


def parse_banner(value: str) -> BannerParse:
    """Split a banner into product tokens plus an OS classification.

    Parenthesized groups are pulled out first; the first one that
    ``classify_os`` recognises names the OS.
    """
    # Every group ends at a ")", so none lies past the last one; searching
    # only up to it keeps a "(" with no ")" after it from rescanning the rest.
    end = value.rfind(")") + 1
    software = tuple(map(SoftwareId, (_PAREN.sub(" ", value[:end]) + value[end:]).split()))
    notes = (classify_os(note.strip()) for note in _PAREN.findall(value, 0, end))
    return BannerParse(software=software, os=next((n for n in notes if n is not None), None))


def canonical_service_name(name: str) -> str:
    """Preferred display casing for a service, pass-through when unknown."""
    return SERVICE_DICTIONARY.get(name.lower(), name)


def classify_os(annotation: str) -> str | None:
    """Map an annotation onto the closed OS dictionary, None when unknown."""
    lowered = annotation.lower()
    if lowered in OS_DICTIONARY:
        return OS_DICTIONARY[lowered]
    for key, display in OS_DICTIONARY.items():
        if key in lowered:
            return display
    return None


def compare_versions(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    """Totally order two segment lists: -1, 0, or 1.

    Lexicographic over numeric segments; the shorter list is zero-padded,
    so (1, 0) equals (1, 0, 0).
    """
    if not a or not b:
        raise ValueError("version segments must be non-empty")
    width = max(len(a), len(b))
    pa = tuple(a) + (0,) * (width - len(a))
    pb = tuple(b) + (0,) * (width - len(b))
    if pa < pb:
        return -1
    if pa > pb:
        return 1
    return 0
