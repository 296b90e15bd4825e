"""Review and consensus payloads carry each datasheet spec once, keyed by
part key; resolving each member through the ``mpn``/``ipn`` its entry in
``netlist_xml`` carries gives exactly the designator-keyed specs the
payloads used to carry (``designator_payload.py``), layout and each
spec's ``source_url`` aside: payloads leave the URL out."""

import json
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings, strategies as st

from designator_payload import designator_consensus_payload, designator_review_payload
from schemreview.canonical import serialize_page_xml
from schemreview.consensus import _Cluster, build_consensus_payload
from schemreview.dsmodel import DatasheetSpec, PinFunction
from schemreview.libraries import PartRef
from schemreview.model import Component, Page, Pin
from schemreview.review import (
    FunctionalGroup,
    GroupReviewContext,
    PinVerdict,
    VerdictStatus,
    build_review_payload,
)

PART_NUMBERS = ("LM317", "CAP-100N", "R-10K", "IPN-0007")
TEXT = st.text("abc<>&\"' \n", max_size=6)


@st.composite
def contexts(draw):
    """A group and its context as the pipeline builds it: members sharing
    a part key share one spec object; a part whose retrieval failed, and a
    member with neither mpn nor ipn, have a None spec."""
    members = [f"X{i}" for i in range(draw(st.integers(1, 8)))]
    ident = st.sampled_from((None, *PART_NUMBERS))
    failed = draw(st.sets(st.sampled_from(PART_NUMBERS)))
    specs, by_key, components = {}, {}, []
    for designator in members:
        mpn, ipn = draw(ident), draw(ident)
        components.append(Component(designator, mpn, ipn, pins=(Pin("1"),)))
        key = mpn or ipn
        if key and key not in failed and key not in by_key:
            by_key[key] = DatasheetSpec(
                PartRef(mpn, ipn), f"file:///sheets/{key}.pdf",
                pins=tuple(PinFunction(str(n), draw(TEXT))
                           for n in range(1, draw(st.integers(0, 3)) + 1)),
                blocks=tuple(draw(st.lists(TEXT, max_size=2))))
        specs[designator] = by_key.get(key)
    # a component outside the group shares a part with no member
    page = Page("P1", (*components, Component("Z1", "LM317", pins=(Pin("1"),))))
    group = FunctionalGroup(draw(st.sampled_from(("power stage", "ungrouped"))), members)
    return GroupReviewContext(group, serialize_page_xml(page, members, payload=True),
                              specs, draw(TEXT))


@st.composite
def findings(draw, members):
    verdict = st.builds(
        PinVerdict, st.sampled_from(("1", "2", "1, 3")), st.sampled_from(VerdictStatus),
        TEXT, st.lists(st.sampled_from(("VIN", "GND", "N<1>")), max_size=2))
    designator = st.sampled_from(members)
    singles = draw(st.lists(st.tuples(designator, verdict, st.integers(0, 2)), max_size=3))
    clusters = [_Cluster(d, frozenset(pins), tuple(hits)) for d, pins, hits in draw(
        st.lists(st.tuples(designator, st.sets(st.sampled_from("123"), min_size=1),
                           st.lists(st.tuples(st.integers(0, 2), verdict), max_size=3)),
                 max_size=2))]
    return singles, clusters


def resolved(doc: dict) -> dict:
    """Member -> its spec, found in the part-keyed ``specs`` by the ``mpn
    or ipn`` of its component in ``netlist_xml``."""
    members = set(doc["group"]["designators"])
    found = {}
    for comp in ET.fromstring(doc["netlist_xml"]).iter("component"):
        if comp.get("designator") in members:
            xml = doc["specs"].get(comp.get("mpn") or comp.get("ipn"))
            found[comp.get("designator")] = DatasheetSpec.from_xml(xml) if xml else None
    return found


def without_url(spec: DatasheetSpec) -> DatasheetSpec:
    """``spec`` as a payload carries it: ``from_xml`` of XML without a
    ``source_url`` gives None there."""
    return spec._replace(source_url=None)


def assert_lossless(payload: str, oracle: str, ctx: GroupReviewContext):
    doc, old = json.loads(payload), json.loads(oracle)
    assert resolved(doc) == {d: without_url(DatasheetSpec.from_xml(xml)) if xml else None
                             for d, xml in old.pop("specs").items()}
    specs = doc.pop("specs")
    assert set(specs) == {spec.part.key for spec in ctx.specs.values() if spec}
    assert doc == old
    for xml in specs.values():
        assert payload.count(json.dumps(xml)) == 1


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_payloads_resolve_to_the_designator_keyed_specs(data):
    ctx = data.draw(contexts())
    singles, clusters = data.draw(findings(list(ctx.group.designators)))
    assert_lossless(build_review_payload(ctx), designator_review_payload(ctx), ctx)
    assert_lossless(build_consensus_payload(ctx, singles, clusters),
                    designator_consensus_payload(ctx, singles, clusters), ctx)


def test_shared_part_is_sent_once_and_a_member_without_spec_maps_to_null():
    spec = DatasheetSpec(PartRef(mpn="CAP-100N"), "file:///c.pdf")
    group = FunctionalGroup("bypass", ("C1", "C2", "C3", "U1"))
    page = Page("P1", (*(Component(d, "CAP-100N") for d in ("C1", "C2", "C3")),
                       Component("U1", "LM317")))
    ctx = GroupReviewContext(
        group, serialize_page_xml(page, group.designators, payload=True),
        {"C1": spec, "C2": spec, "C3": spec, "U1": None}, "")
    doc = json.loads(build_review_payload(ctx))
    assert doc["specs"] == {"CAP-100N": spec.payload_xml()}
    assert "parts" not in doc
    sent = without_url(spec)
    assert resolved(doc) == {"C1": sent, "C2": sent, "C3": sent, "U1": None}


def test_members_sharing_a_part_key_with_different_specs_are_rejected():
    specs = {d: DatasheetSpec(PartRef(mpn="CAP"), f"file:///{d}.pdf") for d in ("C1", "C2")}
    ctx = GroupReviewContext(FunctionalGroup("g", ("C1", "C2")), "<page/>", specs, "")
    with pytest.raises(ValueError, match="different specs"):
        build_review_payload(ctx)
