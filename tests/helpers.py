"""Shared test scaffolding: mock fixture paths and scripting for pipeline
stages, the whole-schematic canonical document, a loopback HTTP server,
and a pipeline run that fails instead of hanging."""

import contextlib
import itertools
import json
import re
import threading
from concurrent.futures import ThreadPoolExecutor
from http.server import ThreadingHTTPServer
from pathlib import Path

import pytest

from schemreview import demo, pipeline, workfirst
from schemreview.canonical import serialize_page_xml
from schemreview.datasheets import (
    build_extract_payload,
    build_head_payload,
    decode_document,
)
from schemreview.dsmodel import spec_from_agent_value
from schemreview.gateway import AgentKind, AgentRequest, fixture_relpaths
from schemreview.libraries import PartRef
from schemreview.model import BBox, Component, Net, Page, Pin, Schematic
from schemreview.xmlutil import DECLARATION, esc

BASE_SPEC_VALUE = {
    "pins": [
        {"designator": "1", "function": "adjust"},
        {"designator": "2", "function": "output"},
        {"designator": "3", "function": "input"},
    ],
    "abs_max_ratings": [{"parameter": "Vin-Vout", "limit": "40", "unit": "V"}],
    "rec_operating": [{"parameter": "Iout", "min": "0.01", "max": "1.5", "unit": "A"}],
    "blocks": ["reference block"],
    "app_circuits": ["typical adjustable regulator"],
}


# a wire between R1's pins and a label without text on it; the page's
# nets come from wire tracing
WIRE_AND_EMPTY_LABEL = {"version": 1, "pages": [{
    "id": "P1",
    "components": [{"designator": "R1", "pins": [{"designator": "1", "x": 0, "y": 0},
                                                 {"designator": "2", "x": 10, "y": 0}]}],
    "annotations": [{"kind": "wire", "text": "", "bbox": {"x": 0, "y": 0, "w": 10, "h": 0}},
                    {"kind": "label", "text": "", "bbox": {"x": 0, "y": 0, "w": 0, "h": 0}}]}]}


def fixture_relpath(kind: AgentKind, payload: str, seed: int) -> str:
    """The mock fixture a one-completion request of ``kind`` seeded
    ``seed`` reads when sent ``payload``."""
    [rel] = fixture_relpaths(AgentRequest(kind, "", payload, seed), payload)
    return rel


def serialize_xml(schematic: Schematic) -> str:
    """The whole schematic as one canonical document: each page's
    standalone document, without its declaration, indented two spaces
    under a ``<schematic>`` root. Every raw line break in a page document
    is layout (``xmlutil.esc``), so indenting its lines changes no value."""
    fmt = esc(schematic.format.value)
    if not schematic.pages:
        return f'{DECLARATION}\n<schematic format="{fmt}"/>\n'
    lines = [DECLARATION, f'<schematic format="{fmt}">']
    for page in schematic.pages:
        lines += ["  " + line for line in serialize_page_xml(page).splitlines()[1:]]
    return "\n".join(lines) + "\n</schematic>\n"


def pairwise_union(boxes) -> BBox | None:
    """The union of ``boxes`` as ``BBox.union`` folded it, one checked
    ``BBox`` a step: the reference for ``model.union_bboxes``."""
    out = None
    for b in boxes:
        if out is None:
            out = b
            continue
        x, y = min(out.x, b.x), min(out.y, b.y)
        out = BBox(x, y, max(out.x2, b.x2) - x, max(out.y2, b.y2) - y)
    return out


def write_fixture(fixture_root, kind: AgentKind, payload: str, seed: int, text: str):
    path = Path(fixture_root) / fixture_relpath(kind, payload, seed)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def quad_for(target: float) -> dict:
    """First integer sub-score quadruple whose weighted total equals target."""
    for q in itertools.product(range(11), repeat=4):
        if (25 * q[0] + 40 * q[1] + 20 * q[2] + 15 * q[3]) / 100 == target:
            return {
                "feature_completeness": q[0],
                "pin_function_coverage": q[1],
                "application_information": q[2],
                "typical_application_circuits": q[3],
            }
    raise ValueError(f"no integer quadruple reaches weighted score {target}")


def script_retrieval_attempt(fixture_root, url: str, doc_bytes: bytes,
                             part: PartRef, quad: dict, spec_value=None):
    """Write the head/extract/critic fixtures one retrieval attempt will use.

    Returns the spec that extraction will produce. Payloads carry no URL,
    so the scripted extraction gets a block naming the candidate's file:
    each candidate's spec, and with it its critic payload and score, stays
    distinct.
    """
    spec_value = spec_value or BASE_SPEC_VALUE
    spec_value = {**spec_value,
                  "blocks": [*spec_value["blocks"], f"from {url.rsplit('/', 1)[-1]}"]}
    doc = decode_document(url, doc_bytes)
    write_fixture(fixture_root, AgentKind.HEAD_ANALYSIS,
                  build_head_payload(doc), 0, '{"pages": [0]}')
    write_fixture(fixture_root, AgentKind.EXTRACTION,
                  build_extract_payload(doc, [0]), 0, json.dumps(spec_value))
    spec = spec_from_agent_value(spec_value, part, url)
    write_fixture(fixture_root, AgentKind.CRITIC, spec.payload_xml(), 0,
                  json.dumps(quad))
    return spec


def make_candidate_files(tmp_path, count: int, stem: str = "sheet"):
    """Create distinct local datasheet files; returns their file:// URLs."""
    urls = []
    for i in range(count):
        path = Path(tmp_path) / f"{stem}{i}.txt"
        path.write_text(f"datasheet body {i}\npin table\fratings page {i}")
        urls.append(path.resolve().as_uri())
    return urls


def regulator_page() -> Page:
    """A small adjustable-regulator page: U1 + divider + input cap, plus an
    isolated diode that only touches ground."""
    return Page("P1", components=(
        Component("U1", mpn="LM317", pins=(Pin("1", "ADJ"), Pin("2", "VOUT"),
                                           Pin("3", "VIN"))),
        Component("R1", mpn="RES-1K", pins=(Pin("1"), Pin("2"))),
        Component("R2", ipn="RES-4K7", pins=(Pin("1"), Pin("2"))),
        Component("C1", pins=(Pin("1"), Pin("2"))),
        Component("D5", mpn="BAT54", pins=(Pin("1"), Pin("2"))),
    ), nets=(
        Net("REG_OUT", (("U1", "2"), ("R1", "1"), ("C1", "1"))),
        Net("ADJ_NODE", (("U1", "1"), ("R1", "2"), ("R2", "1"))),
        Net("VIN_RAW", (("U1", "3"),)),
        Net("GND", (("R2", "2"), ("C1", "2"), ("D5", "2"))),
        Net("VCC_3V3", (("D5", "1"),)),
    ))


POWER_NET = re.compile(r"^(GND|VCC.*|VDD.*|[+-]?[0-9]+V.*)$")


def connected_components_excluding_power(page: Page) -> list[list[str]]:
    """Independent grouping oracle: BFS over nets whose names are not
    power-rail-like."""
    adjacency: dict[str, set[str]] = {c.designator: set() for c in page.components}
    for net in page.nets:
        if POWER_NET.match(net.name):
            continue
        designators = sorted({comp for comp, _pin in net.nodes})
        for a in designators:
            for b in designators:
                if a != b:
                    adjacency[a].add(b)
    seen: set[str] = set()
    groups = []
    for start in sorted(adjacency):
        if start in seen:
            continue
        frontier = [start]
        cluster = []
        while frontier:
            node = frontier.pop()
            if node in seen:
                continue
            seen.add(node)
            cluster.append(node)
            frontier.extend(adjacency[node] - seen)
        groups.append(sorted(cluster))
    return groups


def majority_status(contradiction: dict) -> str:
    from collections import Counter
    counts = Counter(v["status"] for v in contradiction["verdicts"])
    top = max(counts.values())
    return sorted(s for s, n in counts.items() if n == top)[0]


def consensus_responder(keep=lambda single: True, resolve=majority_status):
    """Scripted adjudication policy for the consensus agent."""
    def respond(kind_name: str, payload_str: str, seed: int = 0) -> str:
        assert kind_name == "consensus", f"unexpected agent call: {kind_name}"
        payload = json.loads(payload_str)
        verifications = [
            {"designator": s["designator"], "pins": s["pins"], "keep": bool(keep(s))}
            for s in payload["singles"]
        ]
        resolutions = [
            {"designator": c["designator"], "pins": c["pins"],
             "status": resolve(c), "reasoning": "resolved with full context",
             "referenced_nets": sorted({n for v in c["verdicts"]
                                        for n in v["referenced_nets"]})}
            for c in payload["contradictions"]
        ]
        return json.dumps({"verifications": verifications, "resolutions": resolutions})
    return respond


generate_fixtures = demo.generate_fixtures


@contextlib.contextmanager
def loopback_server(handler):
    """Serve ``handler`` (a ``BaseHTTPRequestHandler`` class) on a free
    127.0.0.1 port, one thread per request; yields the base URL. On exit
    the server is shut down and closed, which waits for its requests."""
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    server.daemon_threads = False  # so server_close() joins them
    threading.Thread(target=server.serve_forever, daemon=True).start()
    try:
        yield f"http://127.0.0.1:{server.server_port}"
    finally:
        server.shutdown()
        server.server_close()


def run_or_fail(cfg, schematic, monkeypatch, timeout_s=60.0):
    """run_pipeline in a daemon thread, so that a deadlocked pool fails
    the test instead of hanging the suite. On a timeout the run's pool is
    shut down with its queued work cancelled, both the executor's and the
    run queue's, which frees workers blocked on that work and lets the
    interpreter exit."""
    pools = []

    class RecordedPool(ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            pools.append(self)

    monkeypatch.setattr(pipeline, "ThreadPoolExecutor", RecordedPool)
    box = {}

    def target():
        try:
            box["report"] = pipeline.run_pipeline(cfg, schematic)
        except BaseException as exc:
            box["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout_s)
    if thread.is_alive():
        for pool in pools:
            pool.shutdown(wait=False, cancel_futures=True)
            queue = workfirst._queue_of(pool)
            while (task := queue.pop(newest=True)) is not None:
                task.cancel()
        pytest.fail(f"run did not finish within {timeout_s} s")
    if "error" in box:
        raise box["error"]
    return box["report"]


def span_sequence(trace: Path) -> list:
    """The (span, path, attributes) sequence of a ``trace.jsonl``: the run's
    trace without its times, as criterion 07 compares it."""
    return [(span["span"], span["path"], span["attributes"])
            for span in map(json.loads, trace.read_text(encoding="utf-8").splitlines())]
