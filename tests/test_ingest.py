"""Ingestion: format detection and structured-document decoding."""

import json
from pathlib import Path

import jsonschema
import pytest

import schemreview
from helpers import WIRE_AND_EMPTY_LABEL
from schemreview.augment import augment_netlist
from schemreview.errors import MalformedInput, UnknownFormat
from schemreview.ingest import ingest_schematic
from schemreview.model import Net, SourceFormat


def doc_bytes(doc) -> bytes:
    return json.dumps(doc).encode()


BASIC_DOC = {
    "version": 1,
    "pages": [
        {
            "id": "P1",
            "components": [
                {"designator": "U1", "mpn": "LM317",
                 "pins": [{"designator": "1", "name": "VIN"}, {"designator": "2"}]},
                {"designator": "C1", "pins": [{"designator": "1"}, {"designator": "2"}]},
            ],
            "nets": [{"name": "VCC", "nodes": [["U1", "1"], ["C1", "1"]]}],
        }
    ],
}


def test_structured_document_decodes():
    s = ingest_schematic(doc_bytes(BASIC_DOC))
    assert s.format is SourceFormat.STRUCTURED_PAGES
    assert len(s.pages) == 1
    page = s.pages[0]
    assert len(page.components) == 2
    assert page.nets == (Net("VCC", (("C1", "1"), ("U1", "1"))),)


def test_empty_page_list_is_valid():
    s = ingest_schematic(doc_bytes({"version": 1, "pages": []}))
    assert s.pages == ()


def test_kicad_signature_detected():
    raw = b'(kicad_sch (symbol (property "Reference" "U1") (pin (number "1"))))'
    s = ingest_schematic(raw)
    assert s.format is SourceFormat.KICAD_SUBSET
    assert s.pages[0].components[0].designator == "U1"


def test_de_hdl_document_keeps_sidecar():
    doc = {
        "version": 1,
        "format": "de-hdl",
        "sidecars": {"pstxnet": "NET_NAME\n'VCC'\nNODE_NAME U1 1\n"},
        "pages": [{"id": "P1", "components": [
            {"designator": "U1", "pins": [{"designator": "1"}]}]}],
    }
    s = ingest_schematic(doc_bytes(doc))
    assert s.format is SourceFormat.DE_HDL
    assert s.pages[0].nets == ()
    assert "pstxnet" in s.sidecars


def test_unknown_format_without_hint():
    with pytest.raises(UnknownFormat):
        ingest_schematic(b"PCB NETLIST v9 PROPRIETARY")


def test_bad_hint_rejected():
    with pytest.raises(UnknownFormat):
        ingest_schematic(doc_bytes(BASIC_DOC), format_hint="altium")


@pytest.mark.parametrize("hint", [None, "structured-pages"])
@pytest.mark.parametrize("doc", [BASIC_DOC, {**BASIC_DOC, "format": "de-hdl"}])
def test_document_is_decoded_once(monkeypatch, hint, doc):
    text = json.dumps(doc)
    loads = json.loads
    decoded = []

    def counting_loads(s, *args, **kwargs):
        if s.strip() == text:
            decoded.append(s)
        return loads(s, *args, **kwargs)

    monkeypatch.setattr(json, "loads", counting_loads)
    ingest_schematic(("  \n" + text).encode(), format_hint=hint)
    assert len(decoded) == 1


def test_explicit_hint_accepted():
    s = ingest_schematic(doc_bytes(BASIC_DOC), format_hint="structured-pages")
    assert s.format is SourceFormat.STRUCTURED_PAGES


@pytest.mark.parametrize("hint", [None, "structured-pages"])
@pytest.mark.parametrize("raw", [
    b'{"version": 1, "pages": [}',
    b'  \n{"version": 1, "pages": [}',
    '{"version": 1, "note": "\u00e9", "pages": [}'.encode(),
], ids=["plain", "leading-whitespace", "non-ascii"])
def test_invalid_json_reports_byte_offset(raw, hint):
    with pytest.raises(MalformedInput) as exc:
        ingest_schematic(raw, format_hint=hint)
    at = raw.rindex(b"}")  # the stray brace, counted in bytes of the input
    assert exc.value.offset == at
    assert str(exc.value).endswith(f"(byte {at})")


def test_schema_violation_is_malformed_input():
    bad = {"version": 1, "pages": [{"id": "P1"}]}  # missing components
    with pytest.raises(MalformedInput, match="components"):
        ingest_schematic(doc_bytes(bad))


def test_schema_violation_message_is_the_best_match():
    # several violations at once: the message must name the error that
    # jsonschema.validate itself would raise
    bad = {"version": 2, "pages": [{"id": 7, "components": [{"pins": "x"}]}],
           "extra": True}
    schema = json.loads((Path(schemreview.__file__).parent / "schemas"
                         / "structured_pages.schema.json").read_text())
    with pytest.raises(jsonschema.ValidationError) as expected:
        jsonschema.validate(bad, schema)
    path = "/".join(str(p) for p in expected.value.absolute_path) or "<root>"
    with pytest.raises(MalformedInput) as exc:
        ingest_schematic(doc_bytes(bad), format_hint="structured-pages")
    assert str(exc.value) == f"document schema violation at {path}: {expected.value.message}"


def test_diagonal_wire_is_malformed_input():
    doc = json.loads(json.dumps(BASIC_DOC))
    doc["pages"][0]["annotations"] = [
        {"kind": "wire", "text": "", "bbox": {"x": 0, "y": 0, "w": 10, "h": 10}}]
    with pytest.raises(MalformedInput, match="neither horizontal nor vertical"):
        ingest_schematic(doc_bytes(doc))


def test_diagonal_wire_names_its_page_and_annotation():
    doc = json.loads(json.dumps(BASIC_DOC))
    doc["pages"][0]["id"] = "P7"
    doc["pages"][0]["annotations"] = [
        {"kind": "text", "text": "note", "bbox": {"x": 0, "y": 0, "w": 5, "h": 5}},
        {"kind": "wire", "text": "", "bbox": {"x": 0, "y": 0, "w": 10, "h": 10}}]
    with pytest.raises(MalformedInput) as exc:
        ingest_schematic(doc_bytes(doc))
    assert str(exc.value) == ("page 'P7': annotation 1: wire BBox(x=0, y=0, w=10, h=10) "
                              "is neither horizontal nor vertical")


@pytest.mark.parametrize("hint", [None, "structured-pages"])
@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e400", "-1e400"])
def test_non_finite_number_is_malformed_input(token, hint):
    # json.loads accepts these; no document may carry them to the model
    text = json.dumps(BASIC_DOC).replace('"version": 1', f'"version": 1, "x": {token}')
    with pytest.raises(MalformedInput) as exc:
        ingest_schematic(text.encode(), format_hint=hint)
    assert str(exc.value) == f"invalid JSON: non-finite number {token}"


def test_non_finite_wire_coordinate_is_malformed_input():
    doc = json.dumps(BASIC_DOC).replace('"nets": [', (
        '"annotations": [{"kind": "wire", "text": "", '
        '"bbox": {"x": Infinity, "y": 0, "w": 10, "h": 0}}], "nets": ['))
    with pytest.raises(MalformedInput, match="non-finite number Infinity"):
        augment_netlist(ingest_schematic(doc.encode()))


def test_label_without_text_is_malformed_input():
    # was a bare ValueError from augment_netlist: "net name must be non-empty"
    with pytest.raises(MalformedInput) as exc:
        augment_netlist(ingest_schematic(doc_bytes(WIRE_AND_EMPTY_LABEL)))
    assert str(exc.value) == "page 'P1': annotation 1 is a label without text"


def test_integer_past_the_digit_limit_is_malformed_input():
    text = json.dumps(BASIC_DOC).replace('"version": 1', '"version": 1' + "0" * 5000)
    with pytest.raises(MalformedInput):  # was a bare ValueError from json.loads
        ingest_schematic(text.encode())


def test_duplicate_designator_is_malformed_input():
    bad = json.loads(json.dumps(BASIC_DOC))
    bad["pages"][0]["components"][1]["designator"] = "U1"
    with pytest.raises(MalformedInput, match="duplicate designator"):
        ingest_schematic(doc_bytes(bad))


def test_non_utf8_input_rejected():
    with pytest.raises(MalformedInput):
        ingest_schematic(b"\xff\xfe\x00\x01")
