"""Start-up: what importing the CLI loads, and the records, all of them
namedtuples: immutable, and checked again by ``_replace``."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import schemreview
from schemreview.consensus import (
    Confidence,
    ConsensusAnalysis,
    ConsensusFinding,
    Provenance,
    _Cluster,
)
from schemreview.datasheets import RetrievalConfig, RetrievalResult
from schemreview.dscache import CacheEntry
from schemreview.dsmodel import (
    CriticScore,
    DatasheetDocument,
    DatasheetSpec,
    OperatingRange,
    PinFunction,
    Rating,
)
from schemreview.gateway import AgentKind, AgentRequest, AgentResponse, Choice, TokenUsage
from schemreview.grouping import ErrorGroup
from schemreview.libraries import LibraryKind, LibrarySource, PartRef
from schemreview.model import (
    BBox,
    Component,
    GraphicalAnnotation,
    Net,
    Page,
    Pin,
    Schematic,
    SourceFormat,
)
from schemreview.pipeline import RunReport
from schemreview.reporting import DeliveryRecord, FileSink, HttpSink, ReviewComment
from schemreview.review import (
    ComponentAnalysis,
    FunctionalGroup,
    GroupReviewContext,
    PinVerdict,
    RunFailure,
    RunResult,
    VerdictStatus,
)
from schemreview.tracing import TraceContext, TraceEvent, Tracer

# used only by one input format or one library kind, so imported there
DEFERRED = ("schemreview.kicad", "schemreview.pstxnet", "schemreview.singleflight", "csv")


def fresh_interpreter(code: str, *args: str) -> str:
    """What ``code`` prints, run in a new interpreter on this checkout."""
    src = str(Path(schemreview.__file__).resolve().parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    return done.stdout


def test_importing_the_cli_loads_no_format_specific_module():
    code = "import sys, schemreview.cli; print(*[m for m in sys.argv[1:] if m in sys.modules])"
    assert fresh_interpreter(code, *DEFERRED).split() == []


def test_start_up_imports_neither_dataclasses_nor_inspect(tmp_path):
    # what the benchmark's set-up does: the CLI, the config and the gateway
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"version": 1, "backend": {"kind": "mock",
                                                            "fixture_path": "fx"}}))
    code = ("import sys, schemreview.cli\n"
            "from schemreview.config import load_config\n"
            "from schemreview.gateway import Gateway\n"
            "Gateway(load_config(sys.argv[1]).backend)\n"
            "print(*[m for m in ('dataclasses', 'inspect') if m in sys.modules])")
    assert fresh_interpreter(code, str(config)).split() == []


VERDICT = PinVerdict("1, 2", VerdictStatus.INCORRECT, "swapped")
FINDING = ConsensusFinding("1", VerdictStatus.CORRECT, "ok", (), 1, Confidence.LOW,
                           Provenance.SINGLE_RUN_VERIFIED)
SPEC = DatasheetSpec(PartRef(mpn="LM317"), "file:///ds.txt", (PinFunction("1", "adjust"),))
WIRE = GraphicalAnnotation("", BBox(0, 0, 10, 0), "wire")
COMMENT = ReviewComment("P1", "text", "G1")

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
    BBox(0, 0, 1, 1),
    WIRE,
    Pin("1"),
    Component("U1", pins=[Pin("1")]),
    Net("VCC", [("U1", "1")]),
    Page("P1", components=[Component("U1")]),
    Schematic(SourceFormat.STRUCTURED_PAGES, [Page("P1")]),
    PartRef(mpn="LM317"),
    LibrarySource(LibraryKind.CSV_TABLE, 1, path="parts.csv"),
    TraceEvent("run", "run", 0.0, 1.0, {}),
    TraceContext(Tracer()),
    CriticScore(5, 5, 5, 5),
    DatasheetDocument("file:///ds.txt", ["page one"]),
    SPEC,
    VERDICT,
    ComponentAnalysis("U1", [VERDICT]),
    RunResult(0, []),
    FunctionalGroup("regulator", ["U1"]),
    COMMENT,
    FileSink("out"),
    HttpSink("http://h"),
    FINDING,
    ConsensusAnalysis("U1", [FINDING]),
    RunReport("complete", [], [], 0, {}, 0, 0, 0.0),
]


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_records_stay_immutable(record):
    field = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, None)


# a record that checks in ``__new__``, a field and a value it rejects there
CHECKED = [
    (BBox(0, 0, 1, 1), "w", -1),
    (WIRE, "bbox", BBox(0, 0, 10, 10)),
    (WIRE, "kind", "arrow"),
    (Pin("1"), "designator", ""),
    (Component("U1"), "pins", [Pin("1"), Pin("1")]),
    (Net("VCC"), "name", ""),
    (Page("P1"), "components", [Component("U1"), Component("U1")]),
    (Schematic(SourceFormat.STRUCTURED_PAGES), "pages", [Page("P1"), Page("P1")]),
    (PartRef(mpn="LM317"), "mpn", None),
    (TraceEvent("run", "run", 0.0, 1.0, {}), "duration", -1.0),
    (CriticScore(5, 5, 5, 5), "pin_function_coverage", 11),
    (DatasheetDocument("file:///ds.txt", ["page one"]), "pages", []),
    (SPEC, "pins", SPEC.pins * 2),
    (VERDICT, "pin_key", " , "),
    (ComponentAnalysis("U1", [VERDICT]), "verdicts", [VERDICT, VERDICT]),
    (FunctionalGroup("regulator", ["U1"]), "designators", []),
    (COMMENT, "markdown", ""),
    (FINDING, "support_count", 0),
    (FINDING, "support_count", 2),  # more than one run but not multi-run
    (ConsensusAnalysis("U1", [FINDING]), "findings", [FINDING, FINDING]),
]


@pytest.mark.parametrize("record, field, bad", CHECKED,
                         ids=[f"{type(record).__name__}.{field}" for record, field, _ in CHECKED])
def test_replace_keeps_the_invariant(record, field, bad):
    assert record._replace(**{field: getattr(record, field)}) == record
    with pytest.raises(ValueError):
        record._replace(**{field: bad})
    values = [bad if name == field else value for name, value in zip(record._fields, record)]
    with pytest.raises(ValueError):
        type(record)._make(values)


def test_replace_coerces_and_derives_as_construction_does():
    page = Page("P1")._replace(components=[Component("U1")])
    assert page.components == (Component("U1"),) and page.component("U1") is not None
    verdict = VERDICT._replace(pin_key="3")
    assert (verdict.pins, verdict.pin_set) == (("3",), frozenset({"3"}))
    assert FINDING._replace(pin_key="2, 1").pins == ("2", "1")
    assert Net("VCC")._replace(nodes=[("U2", "1"), ("U1", "1")]).nodes == (
        ("U1", "1"), ("U2", "1"))


def test_a_record_compares_equal_to_the_tuple_of_its_values():
    # namedtuples are tuples: equality and hash are those of the values
    assert Pin("1") == ("1", None, None, None)
    assert hash(BBox(0, 0, 1, 1)) == hash((0, 0, 1, 1))
