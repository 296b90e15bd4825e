"""Document decoding, in-flight fetch dedup, and the agent stages."""

import json
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler

import pytest
from hypothesis import given, settings, strategies as st

from helpers import fixture_relpath, loopback_server
from schemreview import datasheets
from schemreview.dsmodel import CriticScore, DatasheetSpec, spec_from_agent_value
from schemreview.datasheets import (
    analyze_head,
    build_extract_payload,
    build_head_payload,
    critique,
    decode_document,
    extract_spec,
    fetch,
    http_fetcher,
)
from schemreview.demo import DEMO_PART_PINS, datasheet_text
from schemreview.dsmodel import DatasheetDocument
from schemreview.errors import FetchFailed, NotADatasheet, SchemReviewError
from schemreview.gateway import AgentKind, BackendConfig, Gateway
from schemreview.libraries import PartRef
from schemreview.singleflight import SingleFlight


def write_fixture(root, kind, payload, seed, text):
    path = root / fixture_relpath(kind, payload, seed)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def make_gateway(tmp_path) -> Gateway:
    return Gateway(BackendConfig(kind="mock", fixture_path=str(tmp_path / "fixtures")))


SPEC_VALUE = {
    "pins": [
        {"designator": "1", "function": "adjust"},
        {"designator": "2", "function": "output", "metadata": {"type": "power"}},
        {"designator": "3", "function": "input"},
    ],
    "abs_max_ratings": [{"parameter": "Vin-Vout", "limit": "40", "unit": "V"}],
    "rec_operating": [{"parameter": "Iout", "min": "0.01", "max": "1.5", "unit": "A"}],
    "blocks": ["bandgap reference"],
    "app_circuits": ["adjustable regulator with R1/R2 divider"],
}


class TestDecodeDocument:
    def test_pages_split_on_form_feed(self):
        doc = decode_document("file:///x", b"first page\fsecond page\fthird")
        assert doc.pages == ("first page", "second page", "third")
        assert doc.toc is None

    def test_toc_block_lifted_from_first_page(self):
        raw = ("%TOC%\nPin Functions | 2\nRatings | 4\n%END%\nintro text"
               "\fpage 1\fpage 2\fpage 3\fpage 4")
        doc = decode_document("u", raw.encode())
        assert doc.toc == (("Pin Functions", 2), ("Ratings", 4))
        assert doc.pages[0] == "intro text"

    @pytest.mark.parametrize("raw, line", [
        ("%TOC%\nPins | x\n%END%\nintro", "Pins | x"),
        ("%TOC%\nPins | 2\nRatings\n%END%\nintro", "Ratings"),
        ("%TOC%\nPins |\n%END%\nintro", "Pins |"),
        ("%TOC%\nPins | 2\nno end marker\fpage 1", "no end marker"),
    ], ids=["page-not-a-number", "no-bar", "no-page", "unterminated"])
    def test_malformed_toc_line_rejected(self, raw, line):
        with pytest.raises(NotADatasheet) as exc:
            decode_document("file:///sheet.txt", raw.encode())
        assert str(exc.value).startswith(
            f"file:///sheet.txt: table of contents line {line!r}")

    def test_toc_without_end_line_rejected(self):
        # every line reads as 'title | page', so only the missing %END%
        # tells the block from the page text
        with pytest.raises(NotADatasheet, match="has no %END% line"):
            decode_document("u", b"%TOC%\nPins | 1\nRatings | 2\fpage one text")

    @pytest.mark.parametrize("page", [-4, 2, 99])
    def test_toc_page_outside_the_document_rejected(self, page):
        # pages are 0-based indices: a 2-page document has pages 0 and 1
        raw = f"%TOC%\nPins | 1\nRatings | {page}\n%END%\nintro\fpins".encode()
        with pytest.raises(NotADatasheet, match=f"'Ratings' names page {page}, "
                                                "outside pages 0-1"):
            decode_document("u", raw)

    def test_binary_payload_rejected(self):
        with pytest.raises(NotADatasheet):
            decode_document("u", b"\x89PNG\x0d\x0a\x1a\x0a\x00")

    def test_empty_payload_rejected(self):
        with pytest.raises(NotADatasheet):
            decode_document("u", b"   \n ")


class CountingFetcher:
    def __init__(self, payload=b"page one\fpage two"):
        self.calls = 0
        self._lock = threading.Lock()
        self.payload = payload

    def __call__(self, url):
        with self._lock:
            self.calls += 1
        return self.payload


class TestFetchDedup:
    def test_dedup_is_in_flight_only(self):
        fetcher = CountingFetcher()
        flights = SingleFlight()
        flights.run("LM317", lambda: fetch("http://x/u1.pdf", fetcher))
        flights.run("LM317", lambda: fetch("http://x/u1.pdf", fetcher))
        assert fetcher.calls == 2

    def test_local_file_url_roundtrip(self, tmp_path):
        path = tmp_path / "sheet.txt"
        path.write_text("alpha\fbeta")
        doc = fetch(path.resolve().as_uri())
        assert doc.pages == ("alpha", "beta")


class _SheetHandler(BaseHTTPRequestHandler):
    def do_GET(self):
        if self.path == "/slow.txt":
            time.sleep(0.5)
        if self.path in ("/sheet.txt", "/slow.txt"):
            out = b"pin table\fratings"
            self.send_response(200)
        else:
            out = b"not here"
            self.send_response(404)
        self.send_header("Content-Length", str(len(out)))
        self.end_headers()
        self.wfile.write(out)

    def log_message(self, *args):
        pass


class TestHttpFetcher:
    def test_ok_returns_the_body(self):
        with loopback_server(_SheetHandler) as base:
            assert http_fetcher(base + "/sheet.txt") == b"pin table\fratings"

    def test_http_error_names_url_and_status(self):
        with loopback_server(_SheetHandler) as base:
            with pytest.raises(FetchFailed) as info:
                http_fetcher(base + "/missing.txt")
        assert str(info.value) == f"{base}/missing.txt: HTTP 404"

    def test_closed_port_fails(self):
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            url = f"http://127.0.0.1:{sock.getsockname()[1]}/sheet.txt"
        with pytest.raises(FetchFailed) as info:
            http_fetcher(url)
        assert str(info.value).startswith(f"{url}: ")

    def test_slow_server_times_out(self, monkeypatch):
        monkeypatch.setattr(datasheets, "DOWNLOAD_TIMEOUT_S", 0.1)
        with loopback_server(_SheetHandler) as base:
            with pytest.raises(FetchFailed) as info:
                http_fetcher(base + "/slow.txt")
        assert str(info.value).startswith(f"{base}/slow.txt: ")


def doc_with_pages(n) -> "DatasheetDocument":
    from schemreview.dsmodel import DatasheetDocument
    return DatasheetDocument("file:///doc", tuple(f"page {i}" for i in range(n)))


class TestAnalyzeHead:
    def script(self, tmp_path, doc, pages_json):
        write_fixture(tmp_path / "fixtures", AgentKind.HEAD_ANALYSIS,
                      build_head_payload(doc), 0, pages_json)

    def test_one_page_doc_always_selects_it(self, tmp_path):
        doc = doc_with_pages(1)
        self.script(tmp_path, doc, '{"pages": [5]}')
        assert analyze_head(doc, make_gateway(tmp_path)) == [0]

    def test_out_of_range_dropped_and_deduped(self, tmp_path):
        doc = doc_with_pages(10)
        self.script(tmp_path, doc, '{"pages": [3, 3, 17]}')
        assert analyze_head(doc, make_gateway(tmp_path)) == [3]

    def test_budget_caps_selection(self, tmp_path):
        doc = doc_with_pages(30)
        self.script(tmp_path, doc, json.dumps({"pages": list(range(19, -1, -1))}))
        assert analyze_head(doc, make_gateway(tmp_path)) == list(range(12))


class TestExtractAndCritic:
    def test_extract_builds_spec(self, tmp_path):
        doc = doc_with_pages(3)
        write_fixture(tmp_path / "fixtures", AgentKind.EXTRACTION,
                      build_extract_payload(doc, [0, 2]), 0, json.dumps(SPEC_VALUE))
        spec = extract_spec(doc, [0, 2], PartRef(mpn="LM317"), make_gateway(tmp_path))
        assert len(spec.pins) == 3
        assert spec.source_url == "file:///doc"
        assert {p.designator: p.metadata for p in spec.pins}["2"] == (("type", "power"),)

    def test_duplicate_pins_take_repair_path(self, tmp_path):
        from schemreview.gateway import repair_payload

        doc = doc_with_pages(1)
        bad = json.loads(json.dumps(SPEC_VALUE))
        bad["pins"][1]["designator"] = "1"
        payload = build_extract_payload(doc, [0])
        root = tmp_path / "fixtures"
        write_fixture(root, AgentKind.EXTRACTION, payload, 0, json.dumps(bad))
        write_fixture(root, AgentKind.EXTRACTION,
                      repair_payload(payload, "duplicate pin designator '1'"), 0,
                      json.dumps(SPEC_VALUE))
        spec = extract_spec(doc, [0], PartRef(mpn="LM317"), make_gateway(tmp_path))
        assert [p.designator for p in spec.pins] == ["1", "2", "3"]

    def test_spec_xml_is_byte_stable(self):
        spec1 = spec_from_agent_value(SPEC_VALUE, PartRef(mpn="LM317"), "u")
        spec2 = spec_from_agent_value(json.loads(json.dumps(SPEC_VALUE)),
                                      PartRef(mpn="LM317"), "u")
        assert spec1.to_xml() == spec2.to_xml()

    def test_spec_xml_roundtrip(self):
        spec = spec_from_agent_value(SPEC_VALUE, PartRef(mpn="LM317", ipn="X-9"), "u")
        assert DatasheetSpec.from_xml(spec.to_xml()) == spec

    def test_critique_computes_weighted_locally(self, tmp_path):
        spec = spec_from_agent_value(SPEC_VALUE, PartRef(mpn="LM317"), "u")
        write_fixture(tmp_path / "fixtures", AgentKind.CRITIC, spec.payload_xml(), 0,
                      json.dumps({"feature_completeness": 8, "pin_function_coverage": 6,
                                  "application_information": 10,
                                  "typical_application_circuits": 4}))
        score = critique(spec, make_gateway(tmp_path))
        assert score.weighted == pytest.approx(7.0, abs=1e-12)

    def test_agent_supplied_weighted_is_rejected_by_schema(self, tmp_path):
        from schemreview.errors import SchemaViolationAfterRetries

        spec = spec_from_agent_value(SPEC_VALUE, PartRef(mpn="LM317"), "u")
        smuggled = {"feature_completeness": 8, "pin_function_coverage": 6,
                    "application_information": 10, "typical_application_circuits": 4,
                    "weighted": 9.9}
        payload = spec.payload_xml()
        root = tmp_path / "fixtures"
        current = payload
        # all three attempts return the smuggled field; schema rejects each
        from schemreview.gateway import SchemaRegistry, repair_payload
        for _ in range(3):
            write_fixture(root, AgentKind.CRITIC, current, 0, json.dumps(smuggled))
            try:
                SchemaRegistry().validate(AgentKind.CRITIC, smuggled)
            except ValueError as exc:
                current = repair_payload(current, str(exc))
        with pytest.raises(SchemaViolationAfterRetries):
            critique(spec, make_gateway(tmp_path))


class TestCriticScore:
    def test_perfect_scores_give_ten(self):
        assert CriticScore(10, 10, 10, 10).weighted == pytest.approx(10.0)

    def test_single_dimension_weight(self):
        assert CriticScore(0, 10, 0, 0).weighted == pytest.approx(4.0)

    def test_range_validated(self):
        with pytest.raises(ValueError):
            CriticScore(11, 0, 0, 0)
        with pytest.raises(ValueError):
            CriticScore(0, -1, 0, 0)


# edits of a demo datasheet: its own markers, separators and numbers, and bytes
# that are not UTF-8
DATASHEET_EDITS = st.sampled_from([b"%TOC%\n", b"%END%\n", b"\f", b"\n", b" | ", b"|", b"0",
                                   b"-1", b"99", b"\xff", b"\xc3", b"\x00", b"", b" "])


@st.composite
def datasheet_bytes(draw):
    raw = draw(st.sampled_from(sorted(DEMO_PART_PINS)).map(
        lambda mpn: datasheet_text(mpn).encode()) | st.binary(max_size=40))
    if draw(st.booleans()):
        raw = b"%TOC%\nPins | 1\nRatings | 2\n%END%\n" + raw
    for _ in range(draw(st.integers(0, 4))):
        at = draw(st.integers(0, len(raw)))
        raw = raw[:at] + draw(DATASHEET_EDITS) + raw[at + draw(st.integers(0, 4)):]
    return raw


@settings(max_examples=200, deadline=None, database=None)
@given(raw=datasheet_bytes())
def test_a_datasheet_decodes_or_raises_a_typed_error(raw):
    try:
        doc = decode_document("file:///sheet.txt", raw)
    except SchemReviewError:
        return
    assert isinstance(doc, DatasheetDocument)
