"""Start-up: what importing the CLI loads, and the plain records that
are NamedTuples rather than dataclasses."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import schemreview
from schemreview.consensus import _Cluster
from schemreview.datasheets import RetrievalConfig, RetrievalResult
from schemreview.dscache import CacheEntry
from schemreview.dsmodel import OperatingRange, PinFunction, Rating
from schemreview.gateway import AgentKind, AgentRequest, AgentResponse, Choice, TokenUsage
from schemreview.grouping import ErrorGroup
from schemreview.reporting import DeliveryRecord
from schemreview.review import FunctionalGroup, GroupReviewContext, RunFailure

# used only by one input format or one library kind, so imported there
DEFERRED = ("schemreview.kicad", "schemreview.pstxnet", "schemreview.singleflight", "csv")


def test_importing_the_cli_loads_no_format_specific_module():
    src = str(Path(schemreview.__file__).resolve().parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, schemreview.cli; print(*[m for m in sys.argv[1:] if m in sys.modules])"
    done = subprocess.run([sys.executable, "-c", code, *DEFERRED], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout.split() == []


RECORDS = [
    TokenUsage(1, 2),
    AgentRequest(AgentKind.SELECTION, "system", "payload"),
    Choice({"analyses": []}),
    AgentResponse({"groups": []}, TokenUsage()),
    RetrievalConfig(),
    RetrievalResult(None, None, cache_hit=True),
    CacheEntry(("LM317", "file:///ds.txt"), None, None, 0.0),
    PinFunction("1", "adjust"),
    Rating("Vin-Vout", "40", "V"),
    OperatingRange("Iout", "A", min="0.01"),
    ErrorGroup("G1", (), "summary"),
    DeliveryRecord("G1", True, 1),
    _Cluster("U1", frozenset({"1"}), ()),
    RunFailure(0, "timed out"),
    GroupReviewContext(FunctionalGroup("regulator", ["U1"]), "<page/>", {}, "checklist"),
]


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_records_stay_immutable(record):
    field = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, None)
