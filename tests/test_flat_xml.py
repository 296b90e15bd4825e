"""The flat XML emitters against the tree renderer they replaced.

``tree_xml`` holds the ``Elem`` tree renderer and the page and spec
builders as they were; every page document (whole, sliced, hashed, inside
a schematic) and every spec document must come out byte for byte as the
tree renderer's document in the emitters' one layout (``compact``),
whatever order a page's documents are asked for in.
"""

import hashlib
import json
import xml.etree.ElementTree as ET

from hypothesis import given, settings, strategies as st

from helpers import serialize_xml
from schemreview import canonical
from schemreview.augment import augment_netlist
from schemreview.canonical import page_hash, serialize_page_xml
from schemreview.dsmodel import DatasheetSpec, OperatingRange, PinFunction, Rating
from schemreview.ingest import ingest_schematic
from schemreview.libraries import PartRef
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
from tree_xml import tree_serialize_page_xml, tree_serialize_xml, tree_spec_xml

# escapable characters, a quote the emitters leave alone, and non-ASCII
ALPHABET = "aZ1_ &<>\"'é–"
# page text may also hold line breaks and tabs, which ``esc`` writes as
# character references: the bytes must match, indentation included
PAGE_ALPHABET = ALPHABET + "\n\r\t"
NAMES = st.text(PAGE_ALPHABET, min_size=1, max_size=4)
OPTIONAL = st.none() | st.text(PAGE_ALPHABET, max_size=4)
NUMBERS = (st.integers(-10**6, 10**6)
           | st.floats(allow_nan=False, allow_infinity=False, width=32)
           | st.sampled_from((0.0, -0.0, 2.54, 0.1, 1e21, 1e-7)))
EXTENTS = st.integers(0, 100) | st.floats(0, 1e6) | st.just(-0.0)


def compact(xml: str) -> str:
    """A tree-rendered document in the emitters' layout: its declaration,
    every line break and the indentation after it dropped. Each rendered
    line starts with its indentation and then a tag, and ``esc`` writes a
    line break in a value as a reference, so nothing else goes."""
    return "".join(map(str.lstrip, xml.split("\n")[1:]))


@st.composite
def bboxes(draw):
    return BBox(draw(NUMBERS), draw(NUMBERS), draw(EXTENTS), draw(EXTENTS))


@st.composite
def components(draw, designator):
    pins = tuple(Pin(d, draw(OPTIONAL), draw(st.none() | NUMBERS), draw(st.none() | NUMBERS))
                 for d in draw(st.lists(NAMES, max_size=4, unique=True)))
    return Component(designator, draw(OPTIONAL), draw(OPTIONAL), draw(OPTIONAL),
                     pins, draw(st.none() | bboxes()))


@st.composite
def annotations(draw):
    kind = draw(st.sampled_from(GraphicalAnnotation._KINDS))
    box = draw(bboxes())
    if kind == "wire":
        box = BBox(box.x, box.y, box.w, 0)
    return GraphicalAnnotation(draw(st.text(PAGE_ALPHABET, max_size=5)), box, kind)


@st.composite
def pages(draw, page_id=NAMES):
    comps = [draw(components(d)) for d in draw(st.lists(NAMES, max_size=5, unique=True))]
    terminals = [(c.designator, p.designator) for c in comps for p in c.pins]
    terminals += [("X9", "1"), ("&", "<")]  # nodes on components not on the page
    nets = [Net(name, draw(st.lists(st.sampled_from(terminals), max_size=4)))
            for name in draw(st.lists(NAMES, max_size=5))]  # names may repeat
    return Page(draw(page_id), tuple(comps), tuple(nets),
                tuple(draw(st.lists(annotations(), max_size=4))),
                draw(st.none() | st.sampled_from(AugmentationStrategy)))


@st.composite
def member_sets(draw, page):
    known = [c.designator for c in page.components]
    return draw(st.lists(st.sampled_from(known + ["Z9", "&amp;", ""]), max_size=6))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_page_documents_match_the_tree_renderer(data):
    page = data.draw(pages())
    slices = data.draw(st.lists(member_sets(page), max_size=4))
    full_first = data.draw(st.booleans())
    # the page's blocks are kept from the first document asked for; the
    # order must not change any of them
    if full_first:
        assert serialize_page_xml(page) == compact(tree_serialize_page_xml(page))
    for members in slices:
        assert (serialize_page_xml(page, members)
                == compact(tree_serialize_page_xml(page, members)))
        assert serialize_page_xml(page, set(members)) == serialize_page_xml(page, members)
    assert page_hash(page) == hashlib.sha256(
        compact(tree_serialize_page_xml(page)).encode("utf-8")).hexdigest()
    assert serialize_page_xml(page) == compact(tree_serialize_page_xml(page))


@settings(max_examples=50, deadline=None)
@given(st.lists(pages(), max_size=3, unique_by=lambda p: p.id),
       st.sampled_from(SourceFormat), st.booleans())
def test_schematic_document_matches_the_tree_renderer(page_list, fmt, hashed_first):
    schematic = Schematic(fmt, tuple(page_list))
    if hashed_first:
        for page in page_list:
            page_hash(page)
    assert serialize_xml(schematic) == compact(tree_serialize_xml(schematic))


def test_payload_blocks_are_kept_per_page_and_canonical_blocks_are_not(monkeypatch):
    page = Page("P1", (Component("U1", pins=(Pin("1"),)),), (Net("N", (("U1", "1"),)),))
    calls = []
    original = canonical._render_page
    monkeypatch.setattr(canonical, "_render_page",
                        lambda *args, **kwargs: calls.append(args) or original(*args, **kwargs))
    # the canonical layout is rendered on each call: only scripts and tests hash
    page_hash(page)
    serialize_page_xml(page)
    serialize_page_xml(page, ["U1"])
    assert len(calls) == 3
    serialize_page_xml(page, payload=True)
    serialize_page_xml(page, ["U1"], payload=True)
    assert len(calls) == 4
    # a page built anew, even an equal one, renders its own
    serialize_page_xml(Page("P1", page.components, page.nets), payload=True)
    assert len(calls) == 5


# --- datasheet specs -----------------------------------------------------------------

SPEC_TEXT = st.text(ALPHABET, max_size=5)
# line breaks and tabs survive a parse only as character references
LAYOUT_TEXT = st.text(ALPHABET + "\n\r\t", max_size=5)
SPEC_NAMES = st.text(ALPHABET, min_size=1, max_size=4)


@st.composite
def specs(draw, text=SPEC_TEXT):
    part = draw(st.builds(PartRef, SPEC_NAMES, st.none() | SPEC_NAMES)
                | st.builds(PartRef, st.none(), SPEC_NAMES))
    pins = tuple(
        PinFunction(d, draw(text), tuple(sorted(draw(st.dictionaries(
            SPEC_NAMES, text, max_size=3)).items())))
        for d in sorted(draw(st.lists(SPEC_NAMES, max_size=4, unique=True))))
    ratings = tuple(draw(st.lists(st.builds(Rating, text, text, text), max_size=3)))
    ranges = tuple(draw(st.lists(st.builds(
        OperatingRange, text, text, st.none() | text, st.none() | text, st.none() | text),
        max_size=3)))
    return DatasheetSpec(part, draw(text), pins, ratings, ranges,
                         tuple(draw(st.lists(text, max_size=3))),
                         tuple(draw(st.lists(text, max_size=3))))


@settings(max_examples=200, deadline=None)
@given(specs())
def test_spec_xml_matches_the_tree_renderer_and_round_trips(spec):
    xml = spec.to_xml()
    assert xml == compact(tree_spec_xml(spec))
    assert DatasheetSpec.from_xml(xml) == spec
    assert spec.to_xml() is xml  # rendered once per spec object


@settings(max_examples=50, deadline=None)
@given(specs(text=LAYOUT_TEXT))
def test_spec_xml_with_line_breaks_matches_the_tree_renderer(spec):
    assert spec.to_xml() == compact(tree_spec_xml(spec))
    # escaped, a line break or tab in a value comes back from a parse as it was
    assert DatasheetSpec.from_xml(spec.to_xml()) == spec


# --- payload layout -------------------------------------------------------------------

def node(e):
    """An element as (tag, attributes, text, tail, children), with
    whitespace-only text and tails, the layout between elements, dropped."""
    text = e.text if e.text and e.text.strip() else None
    tail = e.tail if e.tail and e.tail.strip() else None
    return e.tag, e.attrib, text, tail, [node(child) for child in e]


def tree(xml: str):
    return node(ET.fromstring(xml))


def without_geometry(xml: str):
    """The canonical page document's root with its geometry removed: every
    ``bbox``, each pin's ``x`` and ``y``, every annotation but free text,
    and ``annotations`` once it is empty."""
    root = ET.fromstring(xml)
    for parent in list(root.iter()):
        for child in list(parent):
            if child.tag == "bbox" or (child.tag == "annotation"
                                       and child.get("kind") != "text"):
                parent.remove(child)
    for pin in root.iter("pin"):
        pin.attrib.pop("x", None)
        pin.attrib.pop("y", None)
    for annotations in root.findall("annotations"):
        if not len(annotations):
            root.remove(annotations)
    return root


def assert_payload_layout(payload: str, expected):
    """``payload`` has no declaration and no line break, and its tree is
    the ``expected`` element's."""
    assert "<?xml" not in payload
    assert "\n" not in payload and "\r" not in payload
    assert tree(payload) == node(expected)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_page_payloads_are_the_canonical_trees_without_layout(data):
    page = data.draw(pages())
    assert_payload_layout(serialize_page_xml(page, payload=True),
                          without_geometry(serialize_page_xml(page)))
    for members in data.draw(st.lists(member_sets(page), max_size=3)):
        assert_payload_layout(serialize_page_xml(page, members, payload=True),
                              without_geometry(serialize_page_xml(page, members)))


@settings(max_examples=200, deadline=None)
@given(specs(text=LAYOUT_TEXT))
def test_spec_payload_is_the_canonical_tree_without_layout(spec):
    payload = spec.payload_xml()
    expected = ET.fromstring(spec.to_xml())
    del expected.attrib["source_url"]  # payloads leave the fetch address out
    assert_payload_layout(payload, expected)
    assert DatasheetSpec.from_xml(payload) == spec._replace(source_url=None)
    assert spec.payload_xml() is payload  # made once per spec object


def test_payload_blocks_are_made_once_per_page_and_not_for_hashing(monkeypatch):
    page = Page("P1", (Component("U1", pins=(Pin("1"),)),), (Net("N", (("U1", "1"),)),))
    renders = []  # each render's ``geometry``
    original = canonical._render_page
    monkeypatch.setattr(canonical, "_render_page", lambda page, geometry=True:
                        renders.append(geometry) or original(page, geometry))
    page_hash(page)
    serialize_page_xml(page, ["U1"])
    assert False not in renders
    serialize_page_xml(page, payload=True)
    serialize_page_xml(page, ["U1"], payload=True)
    assert renders.count(False) == 1


def _wired_document() -> bytes:
    """One page drawn with wires in the structured format: U1.2 runs to a
    T-joint with R1.1 and C1.1 whose junction is labelled VOUT, U1.1 runs
    to an unnamed net with R1.2, and one free text note."""
    def pin(d, x, name=None):
        return {"designator": d, "x": x, "y": 0, **({"name": name} if name else {})}

    def box(x, y, w=0, h=0):
        return {"x": x, "y": y, "w": w, "h": h}

    def wire(x1, y1, x2, y2):
        return {"kind": "wire", "text": "",
                "bbox": box(min(x1, x2), min(y1, y2), abs(x2 - x1), abs(y2 - y1))}

    components = [
        {"designator": "U1", "mpn": "LM317", "bbox": box(-2, -10, 14, 10),
         "pins": [pin("1", 0, "VIN"), pin("2", 10, "VOUT")]},
        {"designator": "R1", "bbox": box(18, -10, 14, 10), "pins": [pin("1", 20), pin("2", 30)]},
        {"designator": "C1", "bbox": box(38, -10, 4, 10), "pins": [pin("1", 40)]},
    ]
    annotations = [
        wire(10, 0, 10, 20), wire(20, 0, 20, 20), wire(40, 0, 40, 20),
        wire(10, 20, 20, 20), wire(20, 20, 40, 20),
        {"kind": "junction", "text": "", "bbox": box(20, 20)},
        {"kind": "label", "text": "VOUT", "bbox": box(20, 20)},
        wire(0, 0, 0, 30), wire(30, 0, 30, 30), wire(0, 30, 30, 30),
        {"kind": "text", "text": "R1 & C1 <fit> \"low ESR\"", "bbox": box(0, 50, 40, 5)},
    ]
    page = {"id": "P1", "components": components, "annotations": annotations}
    return json.dumps({"version": 1, "pages": [page]}).encode()


def _wired_page() -> Page:
    return augment_netlist(ingest_schematic(_wired_document())).pages[0]


def test_wired_page_payloads_carry_connectivity_not_geometry():
    page = _wired_page()
    assert page.strategy is AugmentationStrategy.WIRE_TRACE_INFERENCE
    assert {n.name: n.nodes for n in page.nets}["VOUT"] == (
        ("C1", "1"), ("R1", "1"), ("U1", "2"))
    assert {a.kind for a in page.annotations} == {"wire", "junction", "label", "text"}

    selection = serialize_page_xml(page, payload=True)
    group = serialize_page_xml(page, ("U1", "R1"), payload=True)
    for payload in (selection, group):
        assert "<bbox" not in payload
        assert " x=" not in payload and " y=" not in payload
        for kind in ("wire", "junction", "label"):
            assert f'kind="{kind}"' not in payload
    # the nets, the labelled one by its name, and every pin are still sent
    root = ET.fromstring(selection)
    assert [n.get("name") for n in root.iter("net")] == sorted(n.name for n in page.nets)
    assert [(c.get("designator"), [p.attrib for p in c]) for c in root.iter("component")] == [
        ("C1", [{"designator": "1"}]),
        ("R1", [{"designator": "1"}, {"designator": "2"}]),
        ("U1", [{"designator": "1", "name": "VIN"}, {"designator": "2", "name": "VOUT"}])]
    # the free text note is kept, without its bbox; a group's slice has none
    assert selection.endswith('<annotations><annotation kind="text" '
                              'text="R1 &amp; C1 &lt;fit&gt; &quot;low ESR&quot;"/>'
                              '</annotations></page>')
    assert "<annotations" not in group
    # the canonical document and hash, made after the payloads, are those of
    # an equal page that never went into a payload, geometry included
    fresh = _wired_page()
    assert page_hash(page) == page_hash(fresh)
    assert serialize_page_xml(page) == serialize_page_xml(fresh)
    assert serialize_page_xml(page).count("<bbox") == (
        len(page.components) + len(page.annotations))
