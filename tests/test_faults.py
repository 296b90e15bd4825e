"""Fault injection over the demo: wherever one fault lands, the run
returns or raises a SchemReviewError in time, with no more threads than
its pool and the caller's, and its trace accounts for every call that
failed.

The mock answers every call from the demo's scripted responder, except
the calls a drawn fault lands on: those of one agent kind on one page
(for the retrieval kinds, the calls about a part listed on that page).
"""

import functools
import json
import re
import shutil
import threading
import time
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from helpers import run_or_fail
from schemreview import demo, gateway
from schemreview.config import load_config
from schemreview.errors import SchemReviewError
from schemreview.gateway import AgentKind, Gateway, MockBackend

KINDS = [kind.value for kind in AgentKind]
RETRIEVAL_KINDS = {"head_analysis", "extraction", "critic"}
PAGES = ("P1", "P2", "P3")
PARTS = {page["id"]: {c["mpn"] for c in page["components"] if c.get("mpn")}
         for page in json.loads(demo.demo_schematic_text())["pages"]}
PAGE_ID = re.compile(r'<page id=\\?"([^"\\]+)')  # also inside a JSON string
REPAIR = "\n\n[schema-error]\n"
JOIN_TIMEOUT_S = 30.0

# removed: the fixture is missing; not-json: the first answer is not JSON
# and its repair is answered; schema: every answer fails its schema;
# not-a-datasheet: the page's parts' datasheets are images; lacks-choice:
# the page's group reviews have no seed-1 fixture, so their k-choice
# replies lack choice 1 and its remake fails; cache-io: the datasheet
# cache entries of the page's parts are directories (StoreIo on lookup)
FAULTS = ("removed", "not-json", "schema", "not-a-datasheet", "lacks-choice", "cache-io")
# a fault and the agent kind it lands on; the last three pick their own
# calls, so they draw no kind (None) and no example repeats another
FAULT_KINDS = st.one_of(
    st.tuples(st.sampled_from(FAULTS[:3]), st.sampled_from(KINDS)),
    st.tuples(st.sampled_from(FAULTS[3:]), st.none()))


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    work = tmp_path_factory.mktemp("faults")
    demo.write_demo_workspace(work)
    return work


def scripted_read(fault, kind, page):
    """A ``MockBackend._read`` that answers from the demo responder, with
    ``fault`` on the calls of ``kind`` on ``page``."""
    lock = threading.Lock()

    def lands(call_kind, name, payload):
        if fault == "lacks-choice":
            return (call_kind == "group_review" and name.endswith("-1.resp")
                    and PAGE_ID.search(payload).group(1) == page)
        if fault in ("not-a-datasheet", "cache-io") or call_kind != kind:
            return False
        if kind in RETRIEVAL_KINDS:
            return any(mpn in payload for mpn in PARTS[page])
        return PAGE_ID.search(payload).group(1) == page

    def read(backend, rel, payload):
        call_kind, name = rel.split("/")
        if lands(call_kind, name, payload):
            if fault in ("removed", "lacks-choice"):
                return None
            if fault == "schema":
                return '{"unexpected": true}'
            if REPAIR not in payload:
                return "not json"
        seed = int(name.removesuffix(".resp").rsplit("-", 1)[1])
        with lock:
            return demo.demo_responder(call_kind, payload.split(REPAIR)[0], seed)

    return read


def run_with(work, read, max_in_flight, delay, blocked=()):
    """Run the demo with ``read`` as the mock's reader, on an emptied
    datasheet cache holding a directory under each name in ``blocked``.
    Returns (report or None, the SchemReviewError raised or None, the
    agent kinds whose calls raised, the trace's spans, the most threads
    alive beyond those before the run). Threads are counted in each mock
    call, and again inside its delay."""
    shutil.rmtree(work / "cache", ignore_errors=True)
    for name in blocked:
        (work / "cache" / name).mkdir(parents=True)
    shutil.rmtree(work / "out", ignore_errors=True)
    (work / "trace.jsonl").unlink(missing_ok=True)
    failed_calls = []
    complete = Gateway.complete
    threads_before = threading.active_count()
    peak = [0]

    def count_threads():
        peak[0] = max(peak[0], threading.active_count() - threads_before)

    def counting_read(backend, rel, payload):
        count_threads()
        return read(backend, rel, payload)

    def counting_sleep(seconds):
        count_threads()
        time.sleep(seconds)
        count_threads()

    def spied(self, req, *args, **kwargs):
        try:
            return complete(self, req, *args, **kwargs)
        except BaseException:
            failed_calls.append(req.agent_kind.value)
            raise

    cfg = load_config(work / "config.json")
    cfg.backend.max_in_flight, cfg.backend.mock_delay_s = max_in_flight, delay
    report = raised = None
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(MockBackend, "_read", counting_read)
        mp.setattr(Gateway, "complete", spied)
        mp.setattr(gateway, "time", SimpleNamespace(sleep=counting_sleep))
        try:
            report = run_or_fail(cfg, work / "schematic.json", mp, JOIN_TIMEOUT_S)
        except SchemReviewError as exc:
            raised = exc
    assert (work / "trace.jsonl").exists(), "no trace written"
    spans = [json.loads(line) for line in (work / "trace.jsonl").read_text().splitlines()]
    return report, raised, failed_calls, spans, peak[0]


@functools.cache
def fault_free_run(work) -> tuple[frozenset, dict]:
    """The group span paths of a run without a fault, and the name of the
    datasheet cache entry it wrote for each part."""
    _, _, _, spans, _ = run_with(work, scripted_read(None, None, None), 1, 0.0)
    entries = {json.loads(entry.read_text())["part_number"]: entry.name
               for entry in (work / "cache").glob("*.json")}
    return frozenset(s["path"] for s in spans if s["span"].startswith("group:")), entries


@settings(max_examples=40, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(fault_kind=FAULT_KINDS, page=st.sampled_from(PAGES),
       max_in_flight=st.sampled_from([1, 2, 8]), delay=st.sampled_from([0.0, 0.01]))
def test_a_fault_fails_or_degrades_the_run_and_its_trace_names_it(
        work, fault_kind, page, max_in_flight, delay):
    fault, kind = fault_kind
    groups, entries = fault_free_run(work)
    blocked = [entries[mpn] for mpn in sorted(PARTS[page])] if fault == "cache-io" else []
    for mpn in demo.DEMO_PART_PINS:
        sheet = work / "datasheets" / f"{mpn}.txt"
        if fault == "not-a-datasheet" and mpn in PARTS[page]:
            sheet.write_bytes(b"\x89PNG\r\n\x1a\n")
        else:
            sheet.write_text(demo.datasheet_text(mpn), encoding="utf-8")

    report, raised, failed_calls, spans, threads = run_with(
        work, scripted_read(fault, kind, page), max_in_flight, delay, blocked)

    # the faults land: a lacking choice fails only its run's remake, and a
    # blocked cache entry fails its part's retrieval
    if fault == "lacks-choice":
        assert failed_calls and set(failed_calls) == {"group_review"}
    if fault == "cache-io":
        assert "StoreIo" in {s["attributes"].get("error") for s in spans
                             if s["span"] == "retrieve"}
    # the pool's workers and the thread that called run_pipeline
    assert threads <= max_in_flight + 1

    [root] = [s for s in spans if s["path"] == "run"]
    assert root["attributes"].get("error") == (raised and type(raised).__name__)
    agent_spans = [s for s in spans if s["span"] in KINDS]
    assert sorted(s["span"] for s in agent_spans if "error" in s["attributes"]) == sorted(
        failed_calls)
    for span in agent_spans:
        assert {"tokens_in", "tokens_out", "attempt"} <= span["attributes"].keys()
    if report is not None:
        sums = {}
        for span in agent_spans:
            entry = sums.setdefault(span["span"], {"tokens_in": 0, "tokens_out": 0,
                                                   "calls": 0})
            entry["tokens_in"] += span["attributes"]["tokens_in"]
            entry["tokens_out"] += span["attributes"]["tokens_out"]
            entry["calls"] += 1
        assert {kind: {key: value for key, value in entry.items() if key != "latency_s"}
                for kind, entry in report.usage.items()} == sums
    # a failure stops nothing: every page is selected, and unless a
    # selection failed every group of the fault-free run is reviewed
    assert sorted(s["path"] for s in spans if s["span"] == "selection") == [
        f"run/page:{pid}/selection" for pid in PAGES]
    if "selection" not in failed_calls:
        assert {s["path"] for s in spans if s["span"].startswith("group:")} == groups
