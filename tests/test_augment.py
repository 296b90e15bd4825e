"""Netlist augmentation: strategy selection, composition, idempotence."""

import json

import pytest

from schemreview.augment import augment_netlist
from schemreview.errors import MissingSidecar
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
    resolve_node,
)
from schemreview.pstxnet import parse_pstxnet

PSTXNET_TEXT = "NET_NAME\n'VCC_3V3'\nNODE_NAME U1 4\nNODE_NAME C1 1\n"


def structured_with_nets() -> Schematic:
    return Schematic(
        SourceFormat.STRUCTURED_PAGES,
        pages=(Page("P1",
                    components=(Component("U1", pins=(Pin("4"),)),
                                Component("C1", pins=(Pin("1"),))),
                    nets=(Net("VCC_3V3", (("U1", "4"), ("C1", "1"))),)),),
    )


def test_embedded_nets_kept_unchanged():
    s = augment_netlist(structured_with_nets())
    page = s.pages[0]
    assert page.strategy is AugmentationStrategy.EMBEDDED_NETS
    assert page.nets == structured_with_nets().pages[0].nets


def test_de_hdl_pages_take_nets_from_sidecar():
    s = Schematic(
        SourceFormat.DE_HDL,
        pages=(Page("P1", components=(Component("U1", pins=(Pin("4"),)),
                                      Component("C1", pins=(Pin("1"),)))),),
        sidecars={"pstxnet": PSTXNET_TEXT},
    )
    out = augment_netlist(s)
    page = out.pages[0]
    assert page.strategy is AugmentationStrategy.PSTXNET_SIDECAR
    assert list(page.nets) == parse_pstxnet(PSTXNET_TEXT)


def test_de_hdl_without_sidecar_raises():
    s = Schematic(SourceFormat.DE_HDL, pages=(Page("P1", components=(Component("U1"),)),))
    with pytest.raises(MissingSidecar):
        augment_netlist(s)


def test_sidecar_nodes_filtered_to_page_components():
    # net spans two pages; each page keeps only its own nodes
    sidecar = "NET_NAME\n'X'\nNODE_NAME U1 1\nNODE_NAME U2 1\n"
    s = Schematic(
        SourceFormat.DE_HDL,
        pages=(Page("P1", components=(Component("U1", pins=(Pin("1"),)),)),
               Page("P2", components=(Component("U2", pins=(Pin("1"),)),))),
        sidecars={"pstxnet": sidecar},
    )
    out = augment_netlist(s)
    assert out.page("P1").nets == (Net("X", (("U1", "1"),)),)
    assert out.page("P2").nets == (Net("X", (("U2", "1"),)),)


def test_wire_trace_fallback_for_pages_without_nets():
    page = Page(
        "P1",
        components=(Component("R1", pins=(Pin("1", x=0, y=0),)),
                    Component("R2", pins=(Pin("1", x=10, y=0),))),
        annotations=(GraphicalAnnotation("", BBox(0, 0, 10, 0), kind="wire"),
                     GraphicalAnnotation("SIG", BBox(5, 0, 0, 0), kind="label")),
    )
    out = augment_netlist(Schematic(SourceFormat.STRUCTURED_PAGES, pages=(page,)))
    assert out.pages[0].strategy is AugmentationStrategy.WIRE_TRACE_INFERENCE
    assert out.pages[0].nets == (Net("SIG", (("R1", "1"), ("R2", "1"))),)


def test_augment_is_idempotent():
    for schematic in (structured_with_nets(),):
        once = augment_netlist(schematic)
        assert augment_netlist(once) == once


def test_every_node_resolves_after_augmentation(caplog):
    s = structured_with_nets()
    # inject a ghost node: replace the net with one naming a missing pin
    page = s.pages[0]
    bad = Page(page.id, page.components,
               nets=(Net("VCC_3V3", (("U1", "4"), ("C1", "1"), ("U9", "2"))),))
    out = augment_netlist(Schematic(SourceFormat.STRUCTURED_PAGES, pages=(bad,)))
    for net in out.pages[0].nets:
        for node in net.nodes:
            assert resolve_node(out.pages[0], node)
    assert "U9" in caplog.text


def test_kicad_ingest_keeps_wire_trace_inference():
    raw = b"""
(kicad_sch
  (symbol (property "Reference" "R1") (pin (number "1") (at 0 0)))
  (symbol (property "Reference" "R2") (pin (number "1") (at 10 0)))
  (wire (pts (xy 0 0) (xy 10 0)))
  (label "SIG" (at 5 0))
)
"""
    s = augment_netlist(ingest_schematic(raw))
    assert s.format is SourceFormat.KICAD_SUBSET
    # connectivity was traced from the wires at ingest; augmentation keeps
    # that strategy rather than calling the nets embedded
    assert s.pages[0].strategy is AugmentationStrategy.WIRE_TRACE_INFERENCE
    assert s.pages[0].nets == (Net("SIG", (("R1", "1"), ("R2", "1"))),)


def test_full_compose_from_ingest():
    doc = {
        "version": 1,
        "format": "de-hdl",
        "sidecars": {"pstxnet": PSTXNET_TEXT},
        "pages": [{"id": "P1", "components": [
            {"designator": "U1", "pins": [{"designator": "4"}]},
            {"designator": "C1", "pins": [{"designator": "1"}]}]}],
    }
    s = augment_netlist(ingest_schematic(json.dumps(doc).encode()))
    assert list(s.pages[0].nets) == parse_pstxnet(PSTXNET_TEXT)
