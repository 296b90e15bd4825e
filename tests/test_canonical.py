"""Canonical XML: determinism, ordering insensitivity, page diffing."""

import json
import random
from pathlib import Path

from hypothesis import given, settings, strategies as st

from schemreview.augment import augment_netlist
from helpers import serialize_xml
from schemreview.canonical import diff_pages, page_hash
from schemreview.ingest import ingest_schematic
from schemreview.model import (
    AugmentationStrategy,
    BBox,
    Component,
    GraphicalAnnotation,
    Net,
    Page,
    Pin,
    Schematic,
    SourceFormat,
)

GOLDEN = Path(__file__).parent / "data" / "golden_schematic.xml"

FIXTURE_DOC = {
    "version": 1,
    "pages": [
        {
            "id": "P1",
            "components": [
                {"designator": "U1", "mpn": "LM317", "datasheet_url": "http://x/lm317.pdf",
                 "pins": [{"designator": "2", "name": "VOUT"}, {"designator": "1", "name": "VIN"}],
                 "bbox": {"x": 10, "y": 10, "w": 40, "h": 30}},
                {"designator": "C1", "pins": [{"designator": "1"}, {"designator": "2"}]},
            ],
            "nets": [
                {"name": "VIN_RAIL", "nodes": [["U1", "1"], ["C1", "1"]]},
                {"name": "GND", "nodes": [["C1", "2"]]},
            ],
            "annotations": [{"kind": "label", "text": "PSU", "bbox": {"x": 0, "y": 0, "w": 5, "h": 2}}],
        },
        {"id": "P2", "components": [{"designator": "R1", "pins": [{"designator": "1"}]}],
         "nets": [{"name": "A", "nodes": [["R1", "1"]]}]},
    ],
}


def fixture_schematic() -> Schematic:
    return augment_netlist(ingest_schematic(json.dumps(FIXTURE_DOC).encode()))


def shuffled_doc(seed: int) -> dict:
    doc = json.loads(json.dumps(FIXTURE_DOC))
    rng = random.Random(seed)
    for page in doc["pages"]:
        rng.shuffle(page["components"])
        for comp in page["components"]:
            rng.shuffle(comp["pins"])
        rng.shuffle(page.get("nets", []))
        for net in page.get("nets", []):
            rng.shuffle(net["nodes"])
    return doc


def test_zero_page_schematic_serializes_to_empty_root():
    xml = serialize_xml(Schematic(SourceFormat.STRUCTURED_PAGES))
    assert '<schematic format="structured-pages"/>' in xml


def test_serialization_is_byte_identical_across_runs():
    a = serialize_xml(fixture_schematic())
    b = serialize_xml(fixture_schematic())
    assert a == b


def test_golden_file_frozen():
    # captured once from the serializer and frozen; guards regressions
    assert serialize_xml(fixture_schematic()) == GOLDEN.read_text()


def test_serialization_insensitive_to_input_ordering():
    reference = serialize_xml(fixture_schematic())
    for seed in range(5):
        doc = shuffled_doc(seed)
        s = augment_netlist(ingest_schematic(json.dumps(doc).encode()))
        assert serialize_xml(s) == reference


def test_diff_identical_schematics_is_empty():
    assert diff_pages(fixture_schematic(), fixture_schematic()) == set()


def test_diff_insensitive_to_input_ordering():
    base = fixture_schematic()
    head = augment_netlist(ingest_schematic(json.dumps(shuffled_doc(7)).encode()))
    assert diff_pages(base, head) == set()


def test_new_page_counts_as_modified():
    base = fixture_schematic()
    doc = json.loads(json.dumps(FIXTURE_DOC))
    doc["pages"].append({"id": "P3", "components": []})
    head = augment_netlist(ingest_schematic(json.dumps(doc).encode()))
    assert diff_pages(base, head) == {"P3"}


def test_net_rename_flags_only_that_page():
    base = fixture_schematic()
    doc = json.loads(json.dumps(FIXTURE_DOC))
    doc["pages"][1]["nets"][0]["name"] = "A_RENAMED"
    head = augment_netlist(ingest_schematic(json.dumps(doc).encode()))
    assert diff_pages(base, head) == {"P2"}


def test_page_hash_is_hex_sha256():
    h = page_hash(fixture_schematic().pages[0])
    assert len(h) == 64
    int(h, 16)


# --- the page diff's block comparison against page_hash equality -----------------

# small pools, so that independently drawn pages are often canonically equal;
# None and "" render alike, and so do 1 and 1.0, 0 and -0.0, and a whole
# float above 2**53 and its int
TEXTS = st.sampled_from([None, "", "LM317", "a<b"])
NUMBERS = st.sampled_from([0, 0.0, -0.0, 1, 1.0, 2.5, 2**53 + 2, float(2**53 + 2)])
PINS = st.lists(st.builds(Pin, st.sampled_from(["1", "2"]), TEXTS, NUMBERS | st.none(),
                          NUMBERS | st.none()), max_size=2, unique_by=lambda p: p.designator)
BBOXES = st.builds(BBox, NUMBERS, NUMBERS, NUMBERS, NUMBERS)
COMPONENTS = st.lists(st.builds(Component, st.sampled_from(["R1", "U1", "C1"]), TEXTS, TEXTS,
                                TEXTS, PINS, BBOXES | st.none()),
                      max_size=3, unique_by=lambda c: c.designator)
NODES = st.lists(st.tuples(st.sampled_from(["R1", "U1"]), st.sampled_from(["1", "2"])),
                 max_size=2)
NETS = st.lists(st.builds(Net, st.sampled_from(["GND", "VIN"]), NODES), max_size=2)
ANNOTATIONS = st.lists(st.builds(
    GraphicalAnnotation, st.sampled_from(["", "VIN"]),
    st.builds(BBox, NUMBERS, NUMBERS, st.just(0), NUMBERS),
    st.sampled_from(["label", "wire", "junction", "text"])), max_size=2)
PAGES = st.builds(Page, st.just("P1"), COMPONENTS, NETS, ANNOTATIONS,
                  st.sampled_from([None, AugmentationStrategy.EMBEDDED_NETS]))


def _respelled(draw, value):
    """``value`` with None and "" swapped and whole numbers retyped (zero
    also as -0.0), at random."""
    if value is None or value == "":
        return draw(st.sampled_from([None, ""]))
    if type(value) in (int, float) and value == int(value):
        return draw(st.sampled_from([int(value), float(value)] + ([-0.0] if value == 0 else [])))
    return value


@st.composite
def page_pairs(draw):
    """Two pages drawn apart, or a page and a variant of it: elements
    reordered, None and "" swapped, ints and whole floats swapped, and
    perhaps one net or one annotation changed."""
    page = draw(PAGES)
    if draw(st.booleans()):
        return page, draw(PAGES)
    components = [c._replace(
        mpn=_respelled(draw, c.mpn), ipn=_respelled(draw, c.ipn),
        datasheet_url=_respelled(draw, c.datasheet_url),
        pins=draw(st.permutations([p._replace(name=_respelled(draw, p.name),
                                              x=_respelled(draw, p.x)) for p in c.pins])))
        for c in page.components]
    nets, annotations = list(page.nets), list(page.annotations)
    change = draw(st.sampled_from(["none", "net", "annotation"]))
    if change == "net":
        nets.append(Net("SPARE", (("R1", "1"),)))
    elif change == "annotation" and annotations:
        annotations[0] = annotations[0]._replace(text="SPARE")
    return page, Page(page.id, draw(st.permutations(components)), draw(st.permutations(nets)),
                      draw(st.permutations(annotations)), page.strategy)


@settings(max_examples=300, deadline=None, database=None)
@given(pair=page_pairs())
def test_page_diff_agrees_with_page_hash(pair):
    equal = page_hash(pair[0]) == page_hash(pair[1])
    base, head = (Schematic(SourceFormat.STRUCTURED_PAGES, (page,)) for page in pair)
    assert diff_pages(base, head) == (set() if equal else {head.pages[0].id})
