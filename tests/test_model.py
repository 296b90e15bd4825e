"""Domain type invariants."""

import pytest

from schemreview.model import (
    BBox,
    Component,
    GraphicalAnnotation,
    Net,
    Page,
    Pin,
    Schematic,
    SourceFormat,
    union_bboxes,
)


def test_pin_requires_designator():
    with pytest.raises(ValueError):
        Pin("")


def test_component_rejects_duplicate_pins():
    with pytest.raises(ValueError, match="duplicate pin"):
        Component("U1", pins=(Pin("1"), Pin("1")))


def test_page_rejects_duplicate_designators():
    with pytest.raises(ValueError, match="duplicate designator"):
        Page("P1", components=(Component("U1"), Component("U1")))


def test_schematic_rejects_duplicate_page_ids():
    with pytest.raises(ValueError, match="duplicate page id"):
        Schematic(SourceFormat.STRUCTURED_PAGES, pages=(Page("P1"), Page("P1")))


def test_net_nodes_stored_sorted_and_deduped():
    net = Net("X", (("U1", "4"), ("C1", "1"), ("U1", "4")))
    assert net.nodes == (("C1", "1"), ("U1", "4"))


def test_bbox_union_and_clamp():
    a = BBox(0, 0, 10, 10)
    b = BBox(5, 5, 10, 10)
    assert a.union(b) == BBox(0, 0, 15, 15)
    assert union_bboxes([a, b]) == BBox(0, 0, 15, 15)
    assert union_bboxes([]) is None
    assert BBox(-5, 2, 30, 4).clamp_to(a) == BBox(0, 2, 10, 4)


def test_annotation_kind_checked():
    with pytest.raises(ValueError):
        GraphicalAnnotation("x", BBox(0, 0, 1, 1), kind="squiggle")


def test_wire_must_be_horizontal_or_vertical():
    with pytest.raises(ValueError, match="neither horizontal nor vertical"):
        GraphicalAnnotation("", BBox(0, 0, 10, 10), kind="wire")
    for bbox in (BBox(0, 0, 10, 0), BBox(0, 0, 0, 10), BBox(3, 3, 0, 0)):
        assert GraphicalAnnotation("", bbox, kind="wire").bbox == bbox
    # only wires are segments; other kinds may span an area
    GraphicalAnnotation("PSU", BBox(0, 0, 5, 2), kind="label")


def test_lists_coerced_to_tuples():
    page = Page("P1", components=[Component("U1", pins=[Pin("1")])])
    assert isinstance(page.components, tuple)
    assert isinstance(page.components[0].pins, tuple)
