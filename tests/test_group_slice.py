"""A group's slice of the page netlist, checked against the full page.

The full-page canonical XML (``serialize_page_xml(page)``, what every
group review carried before it was scoped) is the oracle: the slice is
that document with the annotations, the non-member components and the
nets that touch no member taken out, and both scripted review agents
answer the scoped payload exactly as they answer the full one.
"""

import importlib.util
import json
import xml.etree.ElementTree as ET
from pathlib import Path

from hypothesis import given, settings, strategies as st

from schemreview.canonical import serialize_page_xml
from schemreview.demo import demo_responder
from schemreview.model import (
    AugmentationStrategy,
    BBox,
    Component,
    GraphicalAnnotation,
    Net,
    Page,
    Pin,
)
from schemreview.review import FunctionalGroup, GroupReviewContext, build_review_payload

_spec = importlib.util.spec_from_file_location(
    "perfbench_responder", Path(__file__).parents[1] / "perfbench" / "responder.py")
perfbench_responder = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perfbench_responder)

# the demo responder singles out these pages and designators
PAGE_IDS = ("P1", "P2", "P3")
DESIGNATORS = ("U1", "U3", "R5", "R7", "R8", "C5", "D1", "J2")
NET_NAMES = ("GND", "VCC_3V3", "VDD_SENSOR", "NET_A", "VIN_RAW", "I2C_SDA",
             "I2C_SCL", "BUS_B", "N1", "N2")
COORDS = st.sampled_from((None, 0.0, 2.54, 10.0, 12.5))


@st.composite
def pages(draw):
    components = []
    for designator in draw(st.lists(st.sampled_from(DESIGNATORS), min_size=1,
                                    max_size=6, unique=True)):
        pins = tuple(Pin(str(n), draw(st.sampled_from((None, "ADJ", "VIN"))),
                         draw(COORDS), draw(COORDS))
                     for n in range(1, draw(st.integers(0, 4)) + 1))
        bbox = draw(st.sampled_from((None, BBox(0, 0, 10, 5))))
        components.append(Component(designator, draw(st.sampled_from((None, "LM317"))),
                                    pins=pins, bbox=bbox))
    terminals = [(c.designator, p.designator) for c in components for p in c.pins]
    # a net may also name a pin of a component that is not on the page
    terminals.append(("X9", "1"))
    nets = [Net(name, draw(st.lists(st.sampled_from(terminals), min_size=1, max_size=5)))
            for name in draw(st.lists(st.sampled_from(NET_NAMES), max_size=6, unique=True))]
    annotations = [
        GraphicalAnnotation(text, BBox(x, 0, w, 0), kind)
        for kind, text, x, w in draw(st.lists(st.tuples(
            st.sampled_from(("label", "wire", "junction", "text")),
            st.sampled_from(NET_NAMES), st.sampled_from((0, 5)),
            st.sampled_from((0, 10))), max_size=4))]
    strategy = draw(st.sampled_from((None, *AugmentationStrategy)))
    return Page(draw(st.sampled_from(PAGE_IDS)), tuple(components), tuple(nets),
                tuple(annotations), strategy)


@st.composite
def pages_and_members(draw):
    page = draw(pages())
    members = draw(st.lists(st.sampled_from([c.designator for c in page.components]),
                            min_size=1, unique=True))
    return page, tuple(members)


def touches(net: Net, members) -> bool:
    return any(comp in members for comp, _pin in net.nodes)


def oracle_slice(full_xml: str, members) -> ET.Element:
    """The full page's XML with everything outside the group taken out."""
    root = ET.fromstring(full_xml)
    for anns in root.findall("annotations"):
        root.remove(anns)
    comps = root.find("components")
    for comp in list(comps):
        if comp.get("designator") not in members:
            comps.remove(comp)
    nets = root.find("nets")
    for net in list(nets):
        if not any(node.get("component") in members for node in net):
            nets.remove(net)
    return root


def c14n(xml: str) -> str:
    return ET.canonicalize(xml, strip_text=True)


@settings(max_examples=100, deadline=None)
@given(pages_and_members())
def test_slice_is_the_full_page_restricted_to_the_group(case):
    page, members = case
    full = serialize_page_xml(page)
    scoped = serialize_page_xml(page, members)
    assert c14n(scoped) == c14n(ET.tostring(oracle_slice(full, members),
                                            encoding="unicode"))

    root = ET.fromstring(scoped)
    assert root.attrib == ET.fromstring(full).attrib
    assert root.find("annotations") is None
    assert {c.get("designator") for c in root.iter("component")} == set(members)
    expected_nets = {net.name: net.nodes for net in page.nets if touches(net, members)}
    assert {net.get("name"): tuple((n.get("component"), n.get("pin")) for n in net)
            for net in root.iter("net")} == expected_nets


@settings(max_examples=60, deadline=None)
@given(pages_and_members(), st.randoms(use_true_random=False))
def test_slice_is_byte_stable(case, rng):
    page, members = case
    scoped = serialize_page_xml(page, members)
    components, nets = list(page.components), list(page.nets)
    rng.shuffle(components)
    rng.shuffle(nets)
    shuffled = Page(page.id, tuple(components), tuple(nets),
                    tuple(reversed(page.annotations)), page.strategy)
    assert serialize_page_xml(shuffled, tuple(reversed(members))) == scoped
    assert serialize_page_xml(page, set(members)) == scoped
    assert serialize_page_xml(page, list(members)) == scoped
    # nothing outside the group reaches its slice
    elsewhere = Page(page.id, (*page.components, Component("Z1", pins=(Pin("1"),))),
                     (*page.nets, Net("Z_NET", (("Z1", "1"), ("X9", "1")))),
                     (*page.annotations, GraphicalAnnotation("Z", BBox(1, 1, 0, 0))),
                     page.strategy)
    assert serialize_page_xml(elsewhere, members) == scoped


@st.composite
def planted_errors(draw, page):
    errors = []
    for comp in page.components:
        if not comp.pins or not draw(st.booleans()):
            continue
        pins = draw(st.lists(st.sampled_from([p.designator for p in comp.pins]),
                             min_size=1, unique=True))
        errors.append({"page": page.id, "designator": comp.designator,
                       "pins": ", ".join(sorted(pins)),
                       "status": draw(st.sampled_from(("incorrect", "warning"))),
                       "reasoning": "planted", "run": draw(st.integers(0, 2)),
                       "mode": draw(st.sampled_from(("multi", "single",
                                                     "contradiction")))})
    return errors


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_scripted_reviewers_answer_the_slice_as_the_full_page(data):
    page, members = data.draw(pages_and_members())
    manifest = {"errors": data.draw(planted_errors(page))}
    group = FunctionalGroup("G network", members)
    specs = {d: None for d in members}

    def payload(netlist_xml):
        return build_review_payload(GroupReviewContext(group, netlist_xml, specs, ""))

    full = payload(serialize_page_xml(page))
    scoped = payload(serialize_page_xml(page, members))
    sent = payload(serialize_page_xml(page, members, payload=True))
    # the comparison means something only if the scoped payload is the
    # group's own: no other component, no annotation
    scoped_page = ET.fromstring(json.loads(scoped)["netlist_xml"])
    assert {c.get("designator") for c in scoped_page.iter("component")} == set(members)
    assert scoped_page.find("annotations") is None
    board_responder = perfbench_responder.make_responder(manifest)
    for seed in range(3):
        for answer in (demo_responder, board_responder):
            assert (answer("group_review", scoped, seed)
                    == answer("group_review", full, seed)
                    == answer("group_review", sent, seed))
    # the selection agent is sent the whole page, in the payload layout (the
    # demo's selection script knows only nodes on the page's components)
    on_page = {c.designator for c in page.components}
    if all(comp in on_page for net in page.nets for comp, _pin in net.nodes):
        assert (demo_responder("selection", serialize_page_xml(page, payload=True))
                == demo_responder("selection", serialize_page_xml(page)))


def test_slice_of_a_wired_page_drops_the_geometry():
    page = Page("P1", (
        Component("U1", pins=(Pin("1", x=0, y=0), Pin("2", x=10, y=0))),
        Component("R1", pins=(Pin("1", x=20, y=0),)),
        Component("C1", pins=(Pin("1", x=30, y=5),)),
    ), (
        Net("N1", (("U1", "2"), ("R1", "1"))),
        Net("N2", (("C1", "1"),)),
    ), (
        GraphicalAnnotation("", BBox(10, 0, 10, 0), "wire"),
        GraphicalAnnotation("N1", BBox(15, 0, 0, 0), "label"),
    ), AugmentationStrategy.WIRE_TRACE_INFERENCE)
    assert serialize_page_xml(page, ("U1",)) == (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<page id="P1" strategy="wire-trace-inference">\n'
        '  <components>\n'
        '    <component designator="U1">\n'
        '      <pin designator="1" x="0" y="0"/>\n'
        '      <pin designator="2" x="10" y="0"/>\n'
        '    </component>\n'
        '  </components>\n'
        '  <nets>\n'
        '    <net name="N1">\n'
        '      <node component="R1" pin="1"/>\n'
        '      <node component="U1" pin="2"/>\n'
        '    </net>\n'
        '  </nets>\n'
        '</page>\n')

