"""Ingestion: the format read from the content, and structured-document
decoding."""

import json
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

import schemreview
from helpers import WIRE_AND_EMPTY_LABEL
from schemreview import ingest
from schemreview.augment import augment_netlist
from schemreview.errors import MalformedInput, UnknownFormat
from schemreview.ingest import ingest_schematic, read_design_review
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


@pytest.mark.parametrize("raw", [
    b"",
    b"[]",
    b'"kicad_sch"',
    b'{"pages": []}',
    b'{"version": 2, "pages": []}',
    b'{"version": "1", "pages": []}',
    b'{"version": 1}',
    b'{"version": 1, "format": "de-hdl"}',
    b"(symbol (kicad_sch))",
])
def test_anything_but_kicad_text_or_a_version_1_document_is_an_unknown_format(raw):
    with pytest.raises(UnknownFormat):
        ingest_schematic(raw)


def test_bad_hint_rejected():
    # the document's own format is the only hint there is
    with pytest.raises(MalformedInput, match="document schema violation at format"):
        ingest_schematic(doc_bytes({**BASIC_DOC, "format": "altium"}))


def with_format(doc: dict, fmt: str | None) -> dict:
    """``doc`` declaring ``fmt`` as its format; None declares none."""
    return doc if fmt is None else {"format": fmt, **doc}


@pytest.mark.parametrize("fmt", [None, "structured-pages", "de-hdl"])
@pytest.mark.parametrize("doc", [BASIC_DOC, {**BASIC_DOC, "sidecars": {"pstxnet": ""}}])
def test_document_is_decoded_once(monkeypatch, fmt, doc):
    """Each top-level value and each page item is decoded once, on its own,
    and the document is never decoded whole, whatever format it declares:
    in a full read and in a design review's read of its head."""
    doc = with_format(doc, fmt)
    raw_decode = ingest._DECODER.raw_decode
    decoded = []

    def counting_raw_decode(s, idx=0):
        value, end = raw_decode(s, idx)
        decoded.append(s[idx:end])
        return value, end

    def whole_loads(s, *args, **kwargs):
        raise AssertionError("the document was decoded whole")

    monkeypatch.setattr(ingest._DECODER, "raw_decode", counting_raw_decode)
    monkeypatch.setattr(json, "loads", whole_loads)
    raw = ("  \n" + json.dumps(doc)).encode()
    expected = [json.dumps(value) for key, value in doc.items() if key != "pages"]
    expected += [json.dumps(page) for page in doc["pages"]]
    ingest_schematic(raw)
    assert sorted(decoded) == sorted(expected)
    decoded.clear()
    read_design_review(raw, None, ())
    assert sorted(decoded) == sorted(expected)


def test_explicit_hint_accepted():
    # a document that declares its format
    s = ingest_schematic(doc_bytes(with_format(BASIC_DOC, "structured-pages")))
    assert s.format is SourceFormat.STRUCTURED_PAGES


@pytest.mark.parametrize("fmt", [None, "structured-pages"])
@pytest.mark.parametrize("raw", [
    b'{"version": 1, "pages": [}',
    b'  \n{"version": 1, "pages": [}',
    '{"version": 1, "note": "\u00e9", "pages": [}'.encode(),
], ids=["plain", "leading-whitespace", "non-ascii"])
def test_invalid_json_reports_byte_offset(raw, fmt):
    if fmt is not None:
        raw = raw.replace(b"{", b'{"format": "%s", ' % fmt.encode(), 1)
    with pytest.raises(MalformedInput) as exc:
        ingest_schematic(raw)
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
    bad = {"version": 1, "pages": [{"id": 7, "components": [{"pins": "x"}]}],
           "extra": True}
    schema = json.loads((Path(schemreview.__file__).parent / "schemas"
                         / "structured_pages.schema.json").read_text())
    with pytest.raises(jsonschema.ValidationError) as expected:
        jsonschema.validate(bad, schema)
    path = "/".join(str(p) for p in expected.value.absolute_path) or "<root>"
    with pytest.raises(MalformedInput) as exc:
        ingest_schematic(doc_bytes(bad))
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


@pytest.mark.parametrize("fmt", [None, "structured-pages"])
@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e400", "-1e400"])
def test_non_finite_number_is_malformed_input(token, fmt):
    # json.loads accepts these; no document may carry them to the model
    text = json.dumps(with_format(BASIC_DOC, fmt)).replace(
        '"version": 1', f'"version": 1, "x": {token}')
    with pytest.raises(MalformedInput) as exc:
        ingest_schematic(text.encode())
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


def test_json_nested_past_the_recursion_limit_is_malformed_input():
    text = '{"version": 1, "pages": [' + "[" * 100_000 + "]" * 100_000 + "]}"
    with pytest.raises(MalformedInput, match="nested too deeply"):  # was a RecursionError
        ingest_schematic(text.encode())


def test_duplicate_designator_is_malformed_input():
    bad = json.loads(json.dumps(BASIC_DOC))
    bad["pages"][0]["components"][1]["designator"] = "U1"
    with pytest.raises(MalformedInput, match="duplicate designator"):
        ingest_schematic(doc_bytes(bad))


def test_non_utf8_input_rejected():
    with pytest.raises(MalformedInput):
        ingest_schematic(b"\xff\xfe\x00\x01")


# --- the document walker against json's own decoder -------------------------------

SCALARS = st.none() | st.booleans() | st.integers(-100, 100) | st.sampled_from(
    [0.0, 1.0, -2.5, 1e-7, 1e300]) | st.text(max_size=4)
JSON_TREES = st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
    st.sampled_from(["id", "pages", "x", "\u00e9", ""]), inner, max_size=3), max_leaves=6)
# page items are objects, as in a schematic
PAGE_ITEMS = st.dictionaries(st.sampled_from(["id", "components", "x"]), JSON_TREES, max_size=3)
# text edits: JSON punctuation and tokens, including those _loads rejects
EDITS = st.sampled_from(["{", "}", "[", "]", ",", ":", '"', "\\", " ", "\n", "1", "-", ".",
                         "e", "x", "NaN", "Infinity", "1e400", "\ufeff", '"pages": []',
                         '"pages": 1', '{"id": "P1"}'])


def _layout(draw) -> dict:
    return {"indent": draw(st.sampled_from([None, 0, 1, 2])),
            "sort_keys": draw(st.booleans()), "ensure_ascii": draw(st.booleans())}


@st.composite
def head_and_base(draw):
    """A head document's text and a base's: the base keeps, drops,
    reorders and replaces the head's page items, in the same layout, and
    may repeat its ``pages`` key."""
    pages = draw(st.lists(PAGE_ITEMS, max_size=4))
    head = {**draw(st.dictionaries(st.sampled_from(["version", "format", "x"]), JSON_TREES,
                                   max_size=2)), "pages": pages}
    base_pages = draw(st.permutations(pages))[:draw(st.integers(0, len(pages)))]
    for _ in range(draw(st.integers(0, 2))):
        base_pages.insert(draw(st.integers(0, len(base_pages))), draw(PAGE_ITEMS))
    base = {**head, "pages": base_pages}
    layout = _layout(draw)
    base_text = json.dumps(base, **layout)
    if draw(st.booleans()):
        base_text = base_text[:-1] + ', "pages": ' + json.dumps(pages) + "}"
    return json.dumps(head, **layout), base_text


def _outcome(fn):
    try:
        return "value", json.dumps(fn())  # equal as JSON, with types and key order
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "offset", None)


@settings(max_examples=150, deadline=None, database=None)
@given(texts=head_and_base())
def test_walker_reads_what_loads_reads_and_matches_every_known_item(texts):
    head_text, base_text = texts
    head, head_spans, matched = ingest._read_json(head_text)
    assert not matched and _outcome(lambda: head) == _outcome(lambda: ingest._loads(head_text))
    head_texts = [head_text[start:end] for start, end in head_spans]
    assert [json.dumps(ingest._loads(text)) for text in head_texts] == \
        [json.dumps(item) for item in head["pages"]]
    base, base_spans, matched = ingest._read_json(base_text,
                                                  (head_text, head_spans, head["pages"]))
    assert _outcome(lambda: base) == _outcome(lambda: ingest._loads(base_text))
    if base_spans is None:  # a repeated key: json keeps its last value
        assert not matched and base_text.count('"pages"') > 1
        return
    base_texts = [base_text[start:end] for start, end in base_spans]
    assert [json.dumps(ingest._loads(text)) for text in base_texts] == \
        [json.dumps(item) for item in base["pages"]]
    # an item whose text is known is matched, to the same position when it can be
    assert matched == {i: i if head_texts[i:i + 1] == [text] else head_texts.index(text)
                       for i, text in enumerate(base_texts) if text in head_texts}


@pytest.mark.parametrize("text", [
    '{"version": 1, "pages": [{"id": "P1"} {"id": "P2"}]}',
    '{"version": 1, "pages": [{"id": "P1"}, {"id": "P2"},]}',
    '{"version": 1, "pages": [{"id": "P1"}; {"id": "P2"}]}',
    '{"version": 1 "pages": []}',
    '{"version": 1, "pages": [], }',
    '{"version": 1, "pages": []} {}',
    '{"version": 1, "pages": [{"id": "P1"}]',
    '{"version": 1, "pages": [{"id": "P1"}], "pages": []}',
])
def test_walker_gives_loads_own_outcome_on_malformed_separators(text):
    known = ('{"id": "P1"}{"id": "P2"}', [(0, 12), (12, 24)], [{"id": "P1"}, {"id": "P2"}])
    assert _outcome(lambda: ingest._read_json(text, known)[0]) == \
        _outcome(lambda: ingest._loads(text))


@settings(max_examples=200, deadline=None, database=None)
@given(texts=head_and_base(), data=st.data())
def test_walker_raises_loads_own_error_on_an_edited_document(texts, data):
    head_text, text = texts
    for _ in range(data.draw(st.integers(1, 3))):
        # anywhere, and more often at the ends and at the punctuation
        marks = [0, len(text)] + [i for i, ch in enumerate(text) if ch in '{}[],:"']
        at = data.draw(st.sampled_from(marks) | st.integers(0, len(text)))
        cut = data.draw(st.integers(0, 3))
        text = text[:at] + data.draw(st.sampled_from(["", data.draw(EDITS)])) + text[at + cut:]
    head, head_spans, _ = ingest._read_json(head_text)
    known = (head_text, head_spans, head["pages"])
    assert _outcome(lambda: ingest._read_json(text, known)[0]) == \
        _outcome(lambda: ingest._loads(text))
