"""Every record class the CLI loads behaves as an immutable value compared by its fields.

One sample per class, its arguments given in the constructor's order, pins
what callers rely on: the parameter names, their order and defaults, keyword
and positional construction, refused assignment and deletion, equality and
hash by class and fields, the repr, and a pickle round trip.
"""

import inspect
import pickle
import re

import pytest

from helpers import EPOCH
from smellprobe.corpus import LoadResult, RejectedRow
from smellprobe.maintenance import MaintenanceRecord, MaintenanceScenario
from smellprobe.model import (
    DeclaredFormat,
    LeakCategory,
    LeakRecord,
    Locus,
    ProbeResult,
    ProbeTarget,
    RedirectChain,
    SmellFinding,
    SmellKind,
    SmellReport,
    SourceModel,
)
from smellprobe.probe import DEFAULT_USER_AGENT, ProbeConfig
from smellprobe.reports import PrevalenceCell
from smellprobe.smells import _BodyBanner, _FrameworkPattern
from smellprobe.snapshot import Snapshot, SnapshotEntry
from smellprobe.versions import BannerParse, SoftwareId

URL = "http://h.example/"
TARGET = ProbeTarget(URL, "app", SourceModel.OPEN_SOURCE, DeclaredFormat.JSON)
RESULT = ProbeResult(TARGET, URL, EPOCH, 200, (("server", "nginx/1.0"),), b"ok")
CHAIN = RedirectChain((RESULT,))
FINDING = SmellFinding(SmellKind.VERSION_DISCLOSURE, ((Locus.HEADER, "server: nginx/1.0"),), frozenset({"server"}))
LEAK = LeakRecord(LeakCategory.VERSION, "nginx", "1.0", "server")
REPORT = SmellReport((FINDING,), (LEAK,))
ENTRY = SnapshotEntry(RESULT, CHAIN, REPORT)

# (class, sample arguments in parameter order, the defaults of today's constructor)
SAMPLES = [
    (ProbeTarget, dict(url=URL, app_id="app", source_model=SourceModel.CLOSED_SOURCE,
                       declared_format=DeclaredFormat.NON_JSON), dict(declared_format=None)),
    (ProbeResult, dict(target=TARGET, url=URL, timestamp=EPOCH, status=404, headers=(("server", "x"),),
                       body_sample=b"gone", transport_error=None), dict(transport_error=None)),
    (RedirectChain, dict(exchanges=(RESULT,)), {}),
    (SmellFinding, dict(kind=SmellKind.MISSING_HSTS, evidence=((Locus.HEADER, "absent"),),
                        subflags=frozenset({"absent"})), dict(subflags=frozenset())),
    (LeakRecord, dict(category=LeakCategory.OS, software="Ubuntu", version=None, locus="server"), {}),
    (SmellReport, dict(findings=(FINDING,), leaks=(LEAK,)), {}),
    (RejectedRow, dict(row="a,b", reason="missing url"), {}),
    (LoadResult, dict(targets=(TARGET,), rejects=(RejectedRow("a,b", "missing url"),), duplicates_collapsed=2), {}),
    (MaintenanceRecord, dict(url=URL, before=SoftwareId("nginx/1.0"), after=SoftwareId("nginx/1.1"),
                             scenario=MaintenanceScenario.VERSION_UPGRADE, unclassifiable_reason=None,
                             annotations=("note",)), dict(unclassifiable_reason=None, annotations=())),
    (ProbeConfig, dict(connect_timeout=1.5, read_timeout=2.5, retries=1, retry_backoff=0.5, parallelism=4,
                       user_agent="agent/1", ca_bundle=None),
     dict(connect_timeout=10.0, read_timeout=30.0, retries=3, retry_backoff=2.0, parallelism=16,
          user_agent=DEFAULT_USER_AGENT, ca_bundle=None)),
    (PrevalenceCell, dict(urls_affected=1, urls_total=2, apps_affected=3, apps_total=4), {}),
    (_FrameworkPattern, dict(framework="php", kind="regex", marker="Fatal", gate="Fatal", specificity=2, order=1,
                             matcher=re.compile("Fatal"), case_insensitive=True),
     dict(matcher=None, case_insensitive=False)),
    (_BodyBanner, dict(label="nginx", matcher=re.compile("nginx"), template="nginx/{0}", literal=False), {}),
    (SnapshotEntry, dict(result=RESULT, chain=CHAIN, report=REPORT), {}),
    (Snapshot, dict(id="round1", taken_at=EPOCH, entries={URL: ENTRY}), {}),
    (SoftwareId, dict(raw="nginx/1.0"), {}),
    (BannerParse, dict(software=(SoftwareId("nginx/1.0"),), os="Ubuntu"), dict(software=(), os=None)),
]


@pytest.mark.parametrize("cls, arguments, defaults", SAMPLES, ids=[cls.__name__ for cls, _, _ in SAMPLES])
def test_record_is_an_immutable_value_compared_by_its_fields(cls, arguments, defaults):
    parameters = inspect.signature(cls).parameters.values()
    assert [p.name for p in parameters] == list(arguments)
    assert {p.name: p.default for p in parameters if p.default is not p.empty} == defaults

    record = cls(**arguments)
    assert cls(*arguments.values()) == record
    assert {name: getattr(record, name) for name in arguments} == arguments
    required = {name: value for name, value in arguments.items() if name not in defaults}
    bare = cls(**required)
    assert {name: getattr(bare, name) for name in defaults} == defaults

    for name, value in arguments.items():
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert {name: getattr(record, name) for name in arguments} == arguments

    twin = cls(**arguments)
    assert twin == record and not twin != record
    if cls is Snapshot:  # its entries are a dict
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(twin) == hash(record)
    other = type("Other", (cls,), {})(**arguments)
    assert other != record and record != other

    fields = ", ".join(f"{name}={value!r}" for name, value in arguments.items())
    assert repr(record) == f"{cls.__qualname__}({fields})"
    assert pickle.loads(pickle.dumps(record)) == record
